"""Differential tests of the table-search hot path against plain Fraction
references kept here: the Gram pairing, the enumeration of table
combinations and the Seshadri minimum built on them."""

import itertools
import random
from fractions import Fraction

import pytest

from surfcalc import (
    CurveRecord,
    DivisorClass,
    SeshadriBound,
    fixture_catalog,
    load_fixture,
    miranda_example,
    multipoint_seshadri,
    seshadri_at_point,
)
from surfcalc.lattice import effective_combinations

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


def reference_seshadri(model, l, points, bound):
    """Brute-force minimum of L.D / sum of mult_p(D) over the combinations,
    ties to the smaller class vector, as (value, kind, label, note)."""
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
            best = (key, label, sum(coeffs) != 1)
    if best is None:
        return None, "no-data", None, "no table curve through the point(s)"
    (value, _), label, reducible = best
    covered = all(model.complete_through and p in model.complete_through for p in points)
    kind = "exact-given-complete-table" if covered else "upper-bound"
    notes = []
    if reducible:
        notes.append(
            "achieved by a reducible combination; only irreducible table "
            "entries certify upper bounds for the infimum"
        )
    if len(points) > 1 and reference_pair(model.lattice.gram, l, l) > len(points):
        notes.append(
            "L^2 exceeds the number of points: at r sufficiently general "
            "points a nef L with L^2 > r has multi-point constant >= 1"
        )
    return value, kind, label, "; ".join(notes) or None


def _summary(bound: SeshadriBound):
    return bound.value, bound.kind, bound.achieving_curve, bound.note


@pytest.mark.parametrize("seed", TABLES)
def test_seshadri_matches_brute_force(seed):
    model, l, bound = random_table(seed)
    for point in ("x", "y"):
        got = _summary(seshadri_at_point(model, l, point, bound))
        assert got == reference_seshadri(model, l, [point], bound), point
    got = _summary(multipoint_seshadri(model, l, ["x", "y"], bound))
    assert got == reference_seshadri(model, l, ["x", "y"], bound)
