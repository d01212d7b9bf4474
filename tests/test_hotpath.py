"""Differential tests of the integer hot paths against plain Fraction
references kept here: DivisorClass arithmetic, the Gram pairing, the
enumeration of table combinations and the criteria witnesses and
Seshadri minimum built on them, the destabilizer scan, solve_exact, the
negative-definiteness test and the Mumford product."""

import ast
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from surfcalc import (
    ChernData,
    CurveRecord,
    DivisorClass,
    IntersectionLattice,
    SeshadriBound,
    SurfaceModel,
    destabilizer_search,
    fixture_catalog,
    in_positive_cone,
    intersect,
    jets_length_d,
    load_fixture,
    miranda_example,
    multipoint_seshadri,
    mumford_intersect,
    mumford_pullback,
    reider_freeness,
    reider_very_ample,
    seshadri_at_point,
)
from surfcalc import lattice as lattice_module
from surfcalc.lattice import effective_combinations
from surfcalc.positivity import _is_negative_definite, make_resolution, solve_exact
from surfcalc.report import HYPOTHESES_FAIL, OBSTRUCTION

from conftest import diag_surface


def reference_pair(gram, a, b):
    """a.b as the double sum over the Gram matrix, entry by entry."""
    total = Fraction(0)
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            total += ai * gram[i][j] * bj
    return total


def random_class(rng, rank, rational):
    if rational:
        return DivisorClass(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rank))
    return DivisorClass(rng.randint(-5, 5) for _ in range(rank))


def pairing_lattices():
    fixtures = [
        load_fixture(info.name).lattice
        for info in fixture_catalog()
        if info.kind == "surface"
    ]
    # ranks 10, 17, 26, 37 and 50
    return fixtures + [miranda_example(d, 2, 2).model.lattice for d in range(3, 8)]


@pytest.mark.parametrize("rational", [False, True], ids=["integral", "rational"])
def test_pair_matches_reference(rational):
    rng = random.Random(f"pair:{rational}")
    lattices = pairing_lattices()
    assert max(lattice.rank for lattice in lattices) == 50
    for lattice in lattices:
        for _ in range(6):
            a = random_class(rng, lattice.rank, rational)
            b = random_class(rng, lattice.rank, rng.random() < 0.5)
            value = lattice.pair(a, b)
            assert type(value) is Fraction
            assert value == reference_pair(lattice.gram, a, b)
            assert lattice.pair(a, a) == reference_pair(lattice.gram, a, a)


# ---------------------------------------------------------------------------
# DivisorClass, stored as integers over one denominator, against the
# Fraction tuple it stands for


def reference_repr(coords):
    return "(" + ", ".join(
        str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
        for x in coords
    ) + ")"


def random_coords(rng, rank):
    """Small numerators over small denominators, so that sums often reduce."""
    return tuple(
        Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 6))) for _ in range(rank)
    )


def check_class(klass, coords):
    """klass is the rational vector `coords`, stored in lowest terms."""
    assert type(klass) is DivisorClass
    assert klass.coeffs == coords
    assert all(type(x) is Fraction for x in klass.coeffs)
    assert klass.rank == len(coords)
    assert klass.is_integral() == all(x.denominator == 1 for x in coords)
    assert klass.is_zero() == all(x == 0 for x in coords)
    assert repr(klass) == reference_repr(coords)
    d = klass.denominator
    assert type(d) is int and d > 0 and all(type(x) is int for x in klass.ints)
    assert tuple(Fraction(x, d) for x in klass.ints) == coords
    assert math.gcd(d, *klass.ints) == 1
    again = DivisorClass(coords)
    assert klass == again and hash(klass) == hash(again) and len({klass, again}) == 1


@pytest.mark.parametrize("rank", [1, 2, 5, 17])
def test_divisor_class_matches_fraction_reference(rank):
    rng = random.Random(f"divisor-class:{rank}")
    lattice = IntersectionLattice(random_symmetric(rng, rank))
    for _ in range(60):
        x, y = random_coords(rng, rank), random_coords(rng, rank)
        s = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        a, b = DivisorClass(x), DivisorClass(iter(y))
        check_class(a, x)
        check_class(b, y)
        check_class(a + b, tuple(p + q for p, q in zip(x, y)))
        check_class(a - b, tuple(p - q for p, q in zip(x, y)))
        check_class(-a, tuple(-p for p in x))
        check_class(s * a, tuple(s * p for p in x))
        check_class(a * s, tuple(s * p for p in x))
        check_class(2 * a, tuple(2 * p for p in x))
        check_class(a + b - b, x)
        assert (a == b) == (x == y)
        assert lattice.pair(a, b) == reference_pair(lattice.gram, a, b)
        assert type(lattice.pair(a, b)) is Fraction


def test_divisor_class_reduces_and_accepts_every_literal():
    half = DivisorClass([Fraction(1, 2), Fraction(-3, 2)])
    assert (half.ints, half.denominator) == ((1, -3), 2)
    whole = half + half
    check_class(whole, (Fraction(1), Fraction(-3)))
    assert (whole.ints, whole.denominator) == ((1, -3), 1) and whole.is_integral()
    check_class(half - half, (Fraction(0), Fraction(0)))
    assert (half - half).denominator == 1 and (half - half).is_zero()
    check_class(Fraction(2, 3) * DivisorClass([3, 6]), (Fraction(2), Fraction(4)))
    check_class(DivisorClass.zero(3), (Fraction(0),) * 3)
    check_class(DivisorClass.basis(3, 1), (Fraction(0), Fraction(1), Fraction(0)))
    check_class(DivisorClass([]), ())
    # the public constructor takes whatever Fraction() takes, mixed freely
    check_class(DivisorClass([1, Fraction(2, 4), "-3/6", True]),
                (Fraction(1), Fraction(1, 2), Fraction(-1, 2), Fraction(1)))
    assert DivisorClass([1, 2]) != DivisorClass([1, 2, 0])
    assert DivisorClass([1, 2]) != (Fraction(1), Fraction(2))


def test_effective_combinations_store_rational_classes_in_lowest_terms():
    # C0 + C1 = (1, 1): the sum over the common denominator 6 must reduce
    model = diag_surface([1, -1], [-3, 1], curves=[
        CurveRecord("C0", DivisorClass([Fraction(1, 2), Fraction(1, 3)])),
        CurveRecord("C1", DivisorClass([Fraction(1, 2), Fraction(2, 3)])),
    ])
    tables = [model] + [random_table(seed)[0] for seed in TABLES if seed % 3 == 2]
    for table in tables:
        reference = reference_combinations(table, 2)
        got = list(effective_combinations(table, 2))
        assert [c.coefficients for c in got] == [r[0] for r in reference]
        for combo, (_, coords, _) in zip(got, reference):
            check_class(combo.klass, coords)
    by_coeffs = {c.coefficients: c.klass for c in effective_combinations(model, 2)}
    assert (by_coeffs[(1, 1)].ints, by_coeffs[(1, 1)].denominator) == ((1, 1), 1)
    assert by_coeffs[(2, 0)].coeffs == (Fraction(1), Fraction(2, 3))


def _writes_into_dict(node):
    """obj.__dict__[k] = v, vars(obj)[k] = v, obj.__dict__.update(...) and
    the like."""
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
        owner = node.value
    elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in (
        "update", "setdefault", "pop", "__setitem__"
    ):
        owner = node.func.value
    else:
        return False
    return (getattr(owner, "attr", None) == "__dict__"
            or getattr(getattr(owner, "func", None), "id", None) == "vars")


def test_no_module_reaches_into_a_class_cache():
    # one stored form: no module names the old `_scaled` cache or writes
    # an object's attributes behind its back
    for path in sorted(Path(lattice_module.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            names = {getattr(node, attr, None) for attr in ("id", "attr", "name", "arg", "value")}
            assert "_scaled" not in names, where
            assert not _writes_into_dict(node), where


# ---------------------------------------------------------------------------
# seeded random curve tables


def random_table(seed):
    """A blown-up plane diag(1, -1, ...) with up to six table curves of
    non-negative degree, multiplicities at x and y, and a nef L = aH.
    Every third table has rational curve classes (not a valid surface, but
    the enumeration must stay exact on it)."""
    rng = random.Random(f"table:{seed}")
    rank = rng.randint(1, 5)
    rational = seed % 3 == 2
    curves = []
    for i in range(rng.randint(1, 6)):
        coeffs = [rng.randint(0, 3)] + [rng.randint(-2, 2) for _ in range(rank - 1)]
        if rational:
            coeffs = [Fraction(c, rng.randint(1, 3)) for c in coeffs]
        mults = {p: m for p in ("x", "y") if (m := rng.choice((0, 0, 1, 2)))}
        curves.append(CurveRecord(f"C{i}", DivisorClass(coeffs), mults))
    complete = rng.choice((None, ["x"], ["x", "y"], ["*"]))
    model = diag_surface([1] + [-1] * (rank - 1), [-3] + [1] * (rank - 1),
                         curves=curves, name=f"random{seed}", complete=complete)
    l = DivisorClass([rng.randint(1, 4)] + [0] * (rank - 1))
    return model, l, rng.randint(1, 3)


TABLES = range(12)


def reference_combinations(model, bound):
    """(coefficients, class, label) of every nonzero combination, in
    itertools.product order."""
    out = []
    for coeffs in itertools.product(range(bound + 1), repeat=len(model.curves)):
        if not any(coeffs):
            continue
        total = [Fraction(0)] * model.rank
        for n, record in zip(coeffs, model.curves):
            for i, x in enumerate(record.klass.coeffs):
                total[i] += n * x
        label = " + ".join(
            record.name if n == 1 else f"{n}*{record.name}"
            for n, record in zip(coeffs, model.curves)
            if n
        )
        out.append((coeffs, tuple(total), label))
    return out


@pytest.mark.parametrize("seed", TABLES)
def test_effective_combinations_match_product_order(seed):
    model, _, bound = random_table(seed)
    got = [
        (combo.coefficients, combo.klass.coeffs, combo.label)
        for combo in effective_combinations(model, bound)
    ]
    assert got == reference_combinations(model, bound)
    assert len(got) == (bound + 1) ** len(model.curves) - 1


def reference_scan(model, l, bound):
    """(label, class, D.L, D^2, coefficients) of every combination D, in
    itertools.product order."""
    gram = model.lattice.gram
    out = []
    for coeffs, klass, label in reference_combinations(model, bound):
        d = DivisorClass(klass)
        out.append((label, klass, reference_pair(gram, d, l), reference_pair(gram, d, d), coeffs))
    return out


def reference_witnesses(model, scan, accept, point=None):
    """(label, class, D.L, D^2, mult) of every scanned D with
    accept(D.L, D^2), and positive multiplicity at `point` if one is
    given."""
    out = []
    for label, klass, dl, d2, coeffs in scan:
        if not accept(dl, d2):
            continue
        mult = None
        if point is not None:
            mult = sum(n * record.point_mults.get(point, 0)
                       for n, record in zip(coeffs, model.curves))
            if mult <= 0:
                continue
        out.append((label, klass, dl, d2, mult))
    return out


@pytest.mark.parametrize("seed", TABLES)
def test_criteria_witnesses_match_brute_force(seed):
    model, _, bound = random_table(seed)
    freeness = {(0, -1), (1, 0)}
    very_ample = {(0, -1), (0, -2), (1, 0), (1, -1), (2, 0)}
    for k in (4, 5):
        l = DivisorClass([k] + [0] * (model.rank - 1))
        scan = reference_scan(model, l, bound)
        cases = [
            (reider_freeness(model, l, None, bound),
             lambda dl, d2: (dl, d2) in freeness, None),
            (reider_freeness(model, l, "x", bound),
             lambda dl, d2: (dl, d2) in freeness, "x"),
            (reider_very_ample(model, l, bound),
             lambda dl, d2: (dl, d2) in very_ample, None),
            (jets_length_d(model, l, 2, bound),
             lambda dl, d2: dl - 2 <= d2 and 2 * d2 < dl, None),
        ]
        for report, accept, point in cases:
            assert report.verdict != HYPOTHESES_FAIL
            expected = reference_witnesses(model, scan, accept, point)
            got = [(w.label, w.klass.coeffs, w.dot_l, w.self_intersection, w.mult_at_point)
                   for w in report.witnesses]
            if report.verdict == OBSTRUCTION or not expected:
                assert got == expected
            else:
                # jets_length_d counts window candidates beside a sufficient check
                assert not got
                assert f"window candidates within bound: {len(expected)}" in report.notes


def reference_seshadri(model, l, points, bound):
    """Brute-force minimum of L.D / sum of mult_p(D) over the combinations,
    ties to the smaller class vector, as (value, kind, note, label,
    whether the label is a single curve)."""
    best = None
    for coeffs, klass, label in reference_combinations(model, bound):
        mult = sum(
            n * record.point_mults.get(p, 0)
            for n, record in zip(coeffs, model.curves)
            for p in points
        )
        if mult <= 0:
            continue
        key = (reference_pair(model.lattice.gram, l, DivisorClass(klass)) / mult, klass)
        if best is None or key < best[0]:
            best = (key, label, sum(coeffs) == 1)
    if best is None:
        return None, "no-data", "no table curve through the point(s)", None, False
    (value, _), label, single = best
    covered = all(model.complete_through and p in model.complete_through for p in points)
    kind = "exact-given-complete-table" if covered else "upper-bound"
    note = None
    if len(points) > 1 and reference_pair(model.lattice.gram, l, l) > len(points):
        note = (
            "L^2 exceeds the number of points: at r sufficiently general "
            "points a nef L with L^2 > r has multi-point constant >= 1"
        )
    return value, kind, note, label, single


def check_seshadri(model, l, points, bound, got: SeshadriBound):
    """Value, kind and note as the brute force gives them; the achieving
    curve is one table curve that attains the value, and it is the brute
    force's own choice whenever that is a single curve."""
    value, kind, note, label, single = reference_seshadri(model, l, points, bound)
    assert (got.value, got.kind, got.note) == (value, kind, note)
    if value is None:
        assert got.achieving_curve is None
        return
    [curve] = [record for record in model.curves if record.name == got.achieving_curve]
    mult = sum(curve.point_mults.get(p, 0) for p in points)
    assert mult > 0
    assert reference_pair(model.lattice.gram, l, curve.klass) / mult == value
    if single:
        assert got.achieving_curve == label


@pytest.mark.parametrize("seed", TABLES)
def test_seshadri_matches_brute_force(seed):
    model, l, bound = random_table(seed)
    for point in ("x", "y"):
        check_seshadri(model, l, [point], bound, seshadri_at_point(model, l, point, bound))
    check_seshadri(model, l, ["x", "y"], bound, multipoint_seshadri(model, l, ["x", "y"], bound))


# ---------------------------------------------------------------------------
# lattice-solve kernels: the destabilizer scan, solve_exact, the
# negative-definiteness test and the Mumford product


def reference_destabilizers(model, e, h, bound):
    """(class, length(Z)) of every candidate, by the Fraction loop over
    in_positive_cone and intersect, in itertools.product order."""
    out = []
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=model.rank):
        a = DivisorClass(coeffs)
        if not in_positive_cone(model, 2 * a - e.c1, h):
            continue
        length = e.c2 - intersect(model, a, e.c1 - a)
        if length >= 0:
            out.append((a, length))
    return out


def random_symmetric(rng, n, low=-3, high=3):
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = rng.randint(low, high)
    return gram


def destabilizer_case(seed):
    """A rank 1-4 lattice with a positive first basis vector, a reference
    class H with H^2 > 0 (rational for every third seed), random c1, c2 and
    a bound that keeps the Fraction reference fast."""
    rng = random.Random(f"destabilizer:{seed}")
    rank = 1 + seed % 4
    gram = random_symmetric(rng, rank)
    gram[0][0] = rng.randint(1, 5)
    model = SurfaceModel(f"destab{seed}", IntersectionLattice(gram),
                         DivisorClass([0] * rank), 1)
    while True:
        h = [rng.randint(1, 4)] + [rng.randint(-2, 2) for _ in range(rank - 1)]
        if seed % 3 == 2:
            h = [Fraction(x, rng.randint(1, 7)) for x in h]
        h = DivisorClass(h)
        if intersect(model, h, h) > 0:
            break
    e = ChernData(2, DivisorClass(rng.randint(-3, 3) for _ in range(rank)), rng.randint(-4, 6))
    bound = rng.randint(1, (6, 6, 4, 3)[rank - 1])
    return model, e, h, bound


DESTABILIZER_CASES = range(24)


def test_destabilizer_cases_cover_ranks_bounds_and_rational_h():
    cases = [destabilizer_case(seed) for seed in DESTABILIZER_CASES]
    assert {model.rank for model, *_ in cases} == {1, 2, 3, 4}
    assert {bound for *_, bound in cases} >= {1, 6}
    assert any(not h.is_integral() for _, _, h, _ in cases)


@pytest.mark.parametrize("seed", DESTABILIZER_CASES)
def test_destabilizer_search_matches_fraction_loop(seed):
    model, e, h, bound = destabilizer_case(seed)
    result = destabilizer_search(model, e, h, bound)
    got = [(c.klass, c.length_z) for c in result.candidates]
    assert got == reference_destabilizers(model, e, h, bound)
    assert type(result.discriminant) is Fraction
    for cand in result.candidates:
        assert type(cand.length_z) is int
        assert all(type(x) is Fraction for x in cand.klass.coeffs)
    assert result.inconclusive == (result.discriminant > 0 and not got)


def reference_solve(matrix, rhs):
    """The Fraction Gauss-Jordan elimination with partial pivot search."""
    n = len(rhs)
    m = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular system")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


def random_rational(rng, rational):
    if rational and rng.random() < 0.5:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return rng.randint(-4, 4)


def solve_cases():
    rng = random.Random("solve")
    cases = [([], []), ([[0, 1], [1, 0]], [3, Fraction(1, 2)]),
             ([[0, 2, 1], [0, 1, 5], [3, 0, 0]], [1, 2, 3]),
             ([[1, 2], [2, 4]], [1, 2]), ([[0, 0], [0, 1]], [0, 1]),
             ([[Fraction(1, 3), Fraction(2, 3)], [Fraction(1, 2), 1]], [1, 1])]
    for k in range(40):
        n = rng.randint(1, 6)
        matrix = [[random_rational(rng, k % 2) for _ in range(n)] for _ in range(n)]
        if k % 5 == 4:
            # a repeated row makes the system singular
            matrix[-1] = list(matrix[0])
        cases.append((matrix, [random_rational(rng, k % 2) for _ in range(n)]))
    return cases


def test_solve_exact_matches_gauss_jordan():
    singular = 0
    for matrix, rhs in solve_cases():
        try:
            want = reference_solve(matrix, rhs)
        except ValueError:
            singular += 1
            with pytest.raises(ValueError, match="singular system"):
                solve_exact(matrix, rhs)
            continue
        got = solve_exact(matrix, rhs)
        assert got == want
        assert all(type(x) is Fraction for x in got)
    assert singular >= 8
    assert solve_exact([], []) == []
    # zip would drop a surplus row or column silently
    for matrix, rhs in (([[1, 0], [0, 1], [1, 1]], [1, 1]), ([[1, 0, 0], [0, 1, 0]], [1, 1])):
        with pytest.raises(ValueError, match="matrix"):
            solve_exact(matrix, rhs)


def negative_definite_cases():
    """Symmetric matrices -(U^T D U) with U unit upper triangular, whose
    inertia is that of -D: definite, semidefinite and indefinite; random
    symmetric matrices; zero leading minors; and Fraction-valued Grams."""
    rng = random.Random("definite")
    cases = [[], [[0]], [[-1]], [[1]], [[0, 1], [1, -2]], [[0, 0], [0, -1]],
             [[-1, 1, 0], [1, -1, 0], [0, 0, -1]], [[-2, 1], [1, -2]],
             [[Fraction(-1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(-1, 2)]],
             [[Fraction(-1, 2), 1], [1, Fraction(-1, 2)]]]
    for k in range(60):
        n = rng.randint(1, 6)
        diagonal = [rng.randint(1, 3) for _ in range(n)]
        if k % 3 == 1:
            diagonal[rng.randrange(n)] = 0
        elif k % 3 == 2:
            diagonal[rng.randrange(n)] *= -1
        upper = [[1 if i == j else (rng.randint(-2, 2) if j > i else 0) for j in range(n)]
                 for i in range(n)]
        gram = [[-sum(upper[t][i] * diagonal[t] * upper[t][j] for t in range(n))
                 for j in range(n)] for i in range(n)]
        if k % 4 == 3:
            scale = Fraction(rng.randint(1, 5), rng.randint(2, 7))
            gram = [[scale * x for x in row] for row in gram]
        cases.append(gram)
        cases.append(random_symmetric(rng, n))
    return cases


def test_negative_definite_matches_inertia():
    verdicts = set()
    for gram in negative_definite_cases():
        got = _is_negative_definite(gram)
        assert type(got) is bool
        if gram:
            n_pos, _, n_zero, _ = IntersectionLattice(gram).inertia()
            want = n_pos == 0 and n_zero == 0
        else:
            want = True
        assert got == want, gram
        verdicts.add(got)
    assert verdicts == {True, False}


def reference_mumford(res, name1, name2, base):
    """D1.D2 expanded in Fractions from Deltas solved by Gauss-Jordan."""
    def delta(name):
        return reference_solve(res.exceptional_gram, [-x for x in res.incidence[name]])

    delta1, delta2 = delta(name1), delta(name2)
    total = Fraction(base)
    total += sum(Fraction(a) * b for a, b in zip(res.incidence[name1], delta2))
    total += sum(Fraction(a) * b for a, b in zip(res.incidence[name2], delta1))
    for i, di in enumerate(delta1):
        total += di * sum(res.exceptional_gram[i][j] * dj for j, dj in enumerate(delta2))
    return total


def test_mumford_intersect_matches_fraction_expansion():
    rng = random.Random("mumford")
    grams = [gram for gram in negative_definite_cases() if gram and _is_negative_definite(gram)]
    grams += [[[-2 if i == j else int(abs(i - j) == 1) for j in range(n)] for i in range(n)]
              for n in (4, 12, 20)]
    for gram in grams:
        n = len(gram)
        res = make_resolution(gram, {"A": [rng.randint(0, 2) for _ in range(n)],
                                     "B": [rng.randint(-1, 3) for _ in range(n)]})
        base = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        for pair in (("A", "B"), ("B", "A"), ("A", "A")):
            got = mumford_intersect(res, *pair, base)
            assert type(got) is Fraction
            assert got == reference_mumford(res, *pair, base)
            delta = mumford_pullback(res, pair[0])
            assert all(type(x) is Fraction for x in delta)
