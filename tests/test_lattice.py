import itertools
import random
from fractions import Fraction

import pytest

from surfcalc import (
    DimensionMismatch,
    DivisorClass,
    IntersectionLattice,
    NonIntegralDivisor,
    SurfaceModel,
    euler_characteristic,
    hodge_index_check,
    intersect,
    is_big_nef_on_table,
    is_nef_on_table,
    self_int,
    validate_surface,
)

from surfcalc.lattice import effective_combinations, min_intersection

from conftest import diag_surface


# ---------------------------------------------------------------------------
# validation


def test_positive_definite_gram_fails_signature():
    model = diag_surface([1, 1], [-3, -3], name="bad")
    report = validate_surface(model)
    assert not report.ok
    failed = {c.name for c in report.failures()}
    assert failed == {"signature"}
    [check] = [c for c in report.checks if c.name == "signature"]
    # witness is an explicit vector of positive square in a second direction
    assert check.witness is not None
    assert model.lattice.pair(check.witness, check.witness) > 0


def test_p1xp1_validates(p1xp1):
    assert validate_surface(p1xp1).ok


def test_p2_validates_with_parity(p2):
    report = validate_surface(p2)
    assert report.ok
    assert any(c.name == "parity" and c.passed for c in report.checks)


def test_structural_failure_is_distinct():
    lattice = IntersectionLattice([[1, 2], [3, 4]])  # not symmetric
    model = SurfaceModel("broken", lattice, DivisorClass([1, 0]), 1)
    report = validate_surface(model)
    assert not report.structural_ok
    assert any(c.name == "structure:gram" and not c.passed for c in report.checks)
    # mathematical checks were skipped, not reported as failures
    assert all(c.name.startswith("structure") for c in report.checks)


def test_non_square_gram_is_structural():
    lattice = IntersectionLattice([[1, 0], [0]])
    model = SurfaceModel("ragged", lattice, DivisorClass([1, 0]), 1)
    report = validate_surface(model)
    assert not report.structural_ok


def test_parity_failure_reports_basis_class():
    model = diag_surface([1, -1], [0, 1], name="nonchar")  # e1^2=1 vs e1.K=0
    report = validate_surface(model)
    bad = [c for c in report.checks if c.name == "parity" and not c.passed]
    assert bad and bad[0].witness == DivisorClass([1, 0])


def test_signature_family_accepts_lorentzian():
    for rank in range(1, 9):
        model = diag_surface([1] + [-1] * (rank - 1), [1] * rank, name=f"lor{rank}")
        n_pos, n_neg, n_zero, _ = model.lattice.inertia()
        assert (n_pos, n_neg, n_zero) == (1, rank - 1, 0)
        assert any(c.name == "signature" and c.passed for c in validate_surface(model).checks)


def test_signature_rejects_two_positive_or_degenerate():
    for entries in ([1, 1], [1, 1, -1], [1, 0], [1, -1, 0]):
        model = diag_surface(entries, [1] * len(entries), name="bad")
        sig = [c for c in validate_surface(model).checks if c.name == "signature"]
        assert sig and not sig[0].passed


def test_genus_mismatch_detected(p2):
    from surfcalc import CurveRecord

    bad = SurfaceModel(
        "p2bad",
        p2.lattice,
        p2.canonical,
        1,
        curves=[CurveRecord("H", DivisorClass([1]), {}, genus=5)],
    )
    report = validate_surface(bad)
    assert any(c.name == "genus:H" and not c.passed for c in report.checks)


def test_all_bundled_fixture_surfaces_validate():
    from surfcalc import fixture_catalog, load_fixture

    for info in fixture_catalog():
        if info.kind != "surface" or info.name == "bad_signature":
            continue
        assert validate_surface(load_fixture(info.name)).ok, info.name


# ---------------------------------------------------------------------------
# intersection numbers


def test_intersect_examples(p1xp1, p2):
    assert intersect(p1xp1, DivisorClass([1, 3]), DivisorClass([1, 3])) == 6
    assert intersect(p1xp1, DivisorClass([2, 5]), DivisorClass.zero(2)) == 0
    assert intersect(p2, DivisorClass([1]), p2.canonical) == -3


def test_intersect_dimension_mismatch(p1xp1):
    with pytest.raises(DimensionMismatch):
        intersect(p1xp1, DivisorClass([1]), DivisorClass([1, 0]))
    with pytest.raises(DimensionMismatch):
        DivisorClass([1]) + DivisorClass([1, 0])


def test_bilinearity_exact(p1xp1, blp2, k3):
    rng = random.Random(20240811)

    def rand_class(rank):
        return DivisorClass(
            [Fraction(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(rank)]
        )

    models = [p1xp1, blp2, k3]
    for _ in range(1000):
        model = models[rng.randrange(len(models))]
        a, b, c = (rand_class(model.rank) for _ in range(3))
        assert intersect(model, a + b, c) == intersect(model, a, c) + intersect(model, b, c)
        assert intersect(model, a, b) == intersect(model, b, a)


# ---------------------------------------------------------------------------
# Riemann-Roch


def monomial_count(d):
    # independent oracle: dimension of degree-d forms in three variables
    return sum(
        1
        for a, b in itertools.product(range(d + 1), repeat=2)
        if a + b <= d
    )


def test_euler_characteristic_p2_matches_monomial_oracle(p2):
    h = DivisorClass([1])
    for d in range(0, 11):
        assert euler_characteristic(p2, d * h) == monomial_count(d)


def test_euler_characteristic_of_zero_is_chi(p1xp1, p2, k3):
    for model in (p1xp1, p2, k3):
        assert euler_characteristic(model, DivisorClass.zero(model.rank)) == model.chi_O


def test_euler_characteristic_rejects_fractional(p2):
    with pytest.raises(NonIntegralDivisor):
        euler_characteristic(p2, DivisorClass([Fraction(1, 2)]))


def test_riemann_roch_integrality_random(p1xp1, p2, blp2, k3, abelian):
    rng = random.Random(7)
    models = [p1xp1, p2, blp2, k3, abelian]
    for _ in range(1000):
        model = models[rng.randrange(len(models))]
        d = DivisorClass([rng.randint(-9, 9) for _ in range(model.rank)])
        chi = euler_characteristic(model, d)
        assert isinstance(chi, int)
        # adjunction parity corollary
        parity = self_int(model, d) + intersect(model, d, model.canonical)
        assert parity % 2 == 0


# ---------------------------------------------------------------------------
# nef / big


def test_nef_on_table_examples(p1xp1):
    assert is_nef_on_table(p1xp1, DivisorClass([1, 3])).nef
    verdict = is_nef_on_table(p1xp1, DivisorClass([-1, 1]))
    assert not verdict.nef
    assert verdict.violating == "F2" and verdict.value == -1
    assert is_nef_on_table(p1xp1, DivisorClass.zero(2)).nef


def test_nef_violation_reports_first_in_table_order(p1xp1):
    verdict = is_nef_on_table(p1xp1, DivisorClass([-1, -1]))
    assert verdict.violating == "F1"


def test_nef_certified_flag(p1xp1):
    assert is_nef_on_table(p1xp1, DivisorClass([1, 1])).certified
    open_model = diag_surface([1, -1], [-3, 1], name="open")
    assert not is_nef_on_table(open_model, DivisorClass([1, 0])).certified


def test_min_intersection_ties_go_to_smaller_name(p1xp1):
    # p1xp1's two rulings both meet (1, 1) once
    l = DivisorClass([1, 1])
    assert min_intersection(p1xp1, l, p1xp1.curves) == (1, min(c.name for c in p1xp1.curves))
    assert min_intersection(p1xp1, l, reversed(p1xp1.curves)) == min_intersection(
        p1xp1, l, p1xp1.curves)
    assert min_intersection(p1xp1, l, []) == (None, None)


def test_big_nef_examples(p1xp1, p2):
    assert is_big_nef_on_table(p2, DivisorClass([1])).big_nef
    fibre = is_big_nef_on_table(p1xp1, DivisorClass([1, 0]))
    assert fibre.nef.nef and not fibre.big_nef and fibre.self_intersection == 0
    assert is_big_nef_on_table(p1xp1, DivisorClass([1, 1])).big_nef


# ---------------------------------------------------------------------------
# Hodge index


def test_hodge_index_examples(p1xp1, p2):
    res = hodge_index_check(p1xp1, DivisorClass([1, 1]), DivisorClass([1, 0]))
    assert (res.lhs, res.rhs, res.gap) == (0, 1, 1) and not res.equality
    l = DivisorClass([2, 3])
    res = hodge_index_check(p1xp1, l, l)
    assert res.equality and res.gap == 0
    res = hodge_index_check(p2, DivisorClass([1]), DivisorClass([2]))
    assert res.equality and res.gap == 0


def test_hodge_index_requires_positive_square(p1xp1):
    with pytest.raises(ValueError):
        hodge_index_check(p1xp1, DivisorClass([1, 0]), DivisorClass([1, 1]))


def test_hodge_index_random(p1xp1, blp2, k3, abelian):
    rng = random.Random(99)
    models = [p1xp1, blp2, k3, abelian]
    checked = 0
    while checked < 500:
        model = models[rng.randrange(len(models))]
        l = DivisorClass([rng.randint(-6, 6) for _ in range(model.rank)])
        if self_int(model, l) <= 0:
            continue
        d = DivisorClass(
            [Fraction(rng.randint(-12, 12), rng.randint(1, 5)) for _ in range(model.rank)]
        )
        assert hodge_index_check(model, l, d).holds
        checked += 1


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_p1xp1_single_hit(p1xp1):
    l = DivisorClass([1, 3])
    hits = [
        combo
        for combo in effective_combinations(p1xp1, 3)
        if intersect(p1xp1, combo.klass, l) == 1 and self_int(p1xp1, combo.klass) == 0
    ]
    assert [tuple(c.klass.coeffs) for c in hits] == [(0, 1)]
    assert hits[0].label == "F2"


def test_enumerate_even_form_has_no_odd_square(p1xp1):
    combos = list(effective_combinations(p1xp1, 3))
    assert combos
    assert not any(self_int(p1xp1, c.klass) == -1 for c in combos)


def test_enumerate_impossible_constraint(p1xp1):
    l = DivisorClass([1, 3])
    assert not any(intersect(p1xp1, c.klass, l) < 0 for c in effective_combinations(p1xp1, 3))


def test_enumerate_empty_table_yields_nothing():
    model = diag_surface([1, -1], [-3, 1], name="empty")
    assert list(effective_combinations(model, 3)) == []


def brute_force_combinations(model, bound):
    # independent oracle: base-(bound+1) digit expansion of a running code,
    # no pruning, direct Gram arithmetic; ascending code = lexicographic
    # coefficient order with the first curve most significant
    curves = [record.klass for record in model.curves]
    m = len(curves)
    base = bound + 1
    results = []
    for code in range(base**m):
        digits = []
        value = code
        for _ in range(m):
            value, digit = divmod(value, base)
            digits.append(digit)
        coeffs = tuple(reversed(digits))
        if not any(coeffs):
            continue
        total = [Fraction(0)] * model.rank
        for n, cls in zip(coeffs, curves):
            for i, x in enumerate(cls.coeffs):
                total[i] += n * x
        results.append((coeffs, tuple(total)))
    return results


def all_surface_fixtures():
    from surfcalc import fixture_catalog, load_fixture

    return [
        load_fixture(info.name)
        for info in fixture_catalog()
        if info.kind == "surface" and info.name != "bad_signature"
    ]


@pytest.mark.parametrize("bound", [1, 2, 3, 4])
def test_enumeration_matches_brute_force(bound):
    for model in all_surface_fixtures():
        l = DivisorClass([1] * model.rank)
        hits = [
            combo
            for combo in effective_combinations(model, bound)
            if intersect(model, combo.klass, l) >= 0
        ]
        expected = []
        for coeffs, total in brute_force_combinations(model, bound):
            d = DivisorClass(total)
            value = sum(
                x * sum(g * y for g, y in zip(row, l.coeffs))
                for x, row in zip(d.coeffs, model.lattice.gram)
            )
            if value >= 0:
                expected.append(coeffs)
        assert [c.coefficients for c in hits] == expected
