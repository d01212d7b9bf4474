from fractions import Fraction

import pytest

from surfcalc import (
    CurveRecord,
    DivisorClass,
    PrimeComponent,
    QDivisor,
    adjoint_jet_schedule,
    intersect,
    jets_from_seshadri,
    miranda_example,
    multipoint_degree_bound,
    multipoint_seshadri,
    self_int,
    seshadri_at_point,
    seshadri_twist_nef_check,
    blow_up,
    validate_surface,
)

from conftest import diag_surface


def test_p2_line_gives_one(p2):
    bound = seshadri_at_point(p2, DivisorClass([1]), "x")
    assert bound.value == 1
    assert bound.achieving_curve == "H"
    assert bound.kind == "exact-given-complete-table"
    assert bound.achieving_curve in {record.name for record in p2.curves}


def test_requires_nef(p1xp1):
    with pytest.raises(ValueError):
        seshadri_at_point(p1xp1, DivisorClass([-1, 1]), "x")


def test_no_data_verdict(p2):
    bound = seshadri_at_point(p2, DivisorClass([1]), "nowhere")
    assert bound.value is None and bound.kind == "no-data"


def test_minimum_property(p1xp1):
    l = DivisorClass([2, 3])
    bound = seshadri_at_point(p1xp1, l, "x")
    for record in p1xp1.curves:
        m = record.mult_at("x")
        if m > 0:
            assert bound.value <= Fraction(intersect(p1xp1, l, record.klass), m)


def test_homogeneity(p1xp1, p2):
    for model, l in ((p1xp1, DivisorClass([1, 2])), (p2, DivisorClass([1]))):
        base = seshadri_at_point(model, l, "x").value
        for k in range(1, 6):
            assert seshadri_at_point(model, k * l, "x").value == k * base


def test_miranda_examples():
    for d, m, a in ((4, 3, 2), (5, 4, 2), (6, 5, 3)):
        ex = miranda_example(d, m, a)
        assert validate_surface(ex.model).ok
        fiber = ex.model.curve("D")
        assert intersect(ex.model, ex.l, fiber.klass) == 1
        assert fiber.mult_at(ex.point) == m
        assert self_int(ex.model, ex.l) == 2 * a - 1
        bound = seshadri_at_point(ex.model, ex.l, ex.point)
        assert bound.value <= Fraction(1, m)
        assert bound.achieving_curve == "D"
        assert bound.kind == "upper-bound"     # table not declared complete
        # the ample reference stays nef on the table
        assert intersect(ex.model, ex.l, ex.model.curve("S").klass) == a - 1


def test_miranda_parameter_validation():
    for bad in ((2, 2, 2), (4, 1, 2), (4, 4, 2), (4, 3, 1)):
        with pytest.raises(ValueError):
            miranda_example(*bad)


def test_miranda_cross_check_with_blowup_twist():
    # the infimum bound and the blow-up nef test tell the same story: the
    # twist by the bound is not nef beyond it
    ex = miranda_example(4, 3, 2)
    bm = blow_up(ex.model, ex.point)
    eps = seshadri_at_point(ex.model, ex.l, ex.point).value
    assert seshadri_twist_nef_check(bm, ex.l, eps).nef
    assert not seshadri_twist_nef_check(bm, ex.l, eps + Fraction(1, 12)).nef


# ---------------------------------------------------------------------------
# jets


def test_jets_from_seshadri_examples():
    assert jets_from_seshadri(Fraction(3), Fraction(9), 0).generates_jets == "yes"
    assert jets_from_seshadri(Fraction(2), Fraction(5), 0).generates_jets == "yes"
    assert jets_from_seshadri(Fraction(2), Fraction(4), 0).generates_jets == "unknown"


def test_adjoint_jet_schedule():
    assert adjoint_jet_schedule(0).multiplier == 3
    assert adjoint_jet_schedule(1).multiplier == 4
    assert adjoint_jet_schedule(5).multiplier == 8
    assert "eps(A, x) >= 1" in adjoint_jet_schedule(0).side_condition
    with pytest.raises(ValueError):
        adjoint_jet_schedule(-1)


# ---------------------------------------------------------------------------
# multi-point


def three_point_model():
    # conic through three marked points on the plane
    conic = CurveRecord("Q", DivisorClass([2]), {"a": 1, "b": 1, "c": 1}, genus=0)
    return diag_surface([1], [-3], curves=[conic], name="p2_conic",
                        complete=["a", "b", "c"])


def test_multipoint_reduces_to_single_point(p1xp1):
    l = DivisorClass([2, 3])
    single = seshadri_at_point(p1xp1, l, "x")
    multi = multipoint_seshadri(p1xp1, l, ["x"])
    assert single.value == multi.value and single.achieving_curve == multi.achieving_curve


def test_multipoint_three_points():
    model = three_point_model()
    bound = multipoint_seshadri(model, DivisorClass([1]), ["a", "b", "c"])
    assert bound.value == Fraction(2, 3)
    assert bound.kind == "exact-given-complete-table"


def test_multipoint_monotone_under_point_subsets():
    model = three_point_model()
    l = DivisorClass([1])
    small = multipoint_seshadri(model, l, ["a"]).value
    large = multipoint_seshadri(model, l, ["a", "b", "c"]).value
    assert small >= large


def test_multipoint_generic_position_note():
    model = three_point_model()
    bound = multipoint_seshadri(model, DivisorClass([2]), ["a", "b", "c"])
    # L^2 = 4 > 3 points: the general-position remark is attached
    assert bound.note and "general" in bound.note


def test_multipoint_distinct_points_required(p1xp1):
    with pytest.raises(ValueError):
        multipoint_seshadri(p1xp1, DivisorClass([1, 1]), ["x", "x"])


# ---------------------------------------------------------------------------
# degree bound


def test_degree_bound_holds():
    model = three_point_model()
    q = QDivisor([(1, PrimeComponent("Q", DivisorClass([2]), {"a": 1, "b": 1, "c": 1}))])
    verdict = multipoint_degree_bound(model, DivisorClass([1]), ["a"], q)
    assert verdict.holds and (verdict.mult_total, verdict.degree) == (1, 2)


def test_degree_bound_zero_divisor():
    model = three_point_model()
    verdict = multipoint_degree_bound(model, DivisorClass([1]), ["a"], QDivisor())
    assert verdict.holds and verdict.mult_total == 0 and verdict.degree == 0


def test_degree_bound_flags_violation():
    # fabricated: multiplicity 5 against degree 3 cannot be in general position
    model = diag_surface(
        [1], [-3],
        curves=[CurveRecord("F", DivisorClass([3]), {"p": 5}, genus=1)],
        name="p2_fab",
    )
    q = QDivisor([(1, PrimeComponent("F", DivisorClass([3]), {"p": 5}))])
    verdict = multipoint_degree_bound(model, DivisorClass([1]), ["p"], q)
    assert not verdict.holds
    assert (verdict.mult_total, verdict.degree) == (5, 3)


def test_degree_bound_rejects_negative_coefficients():
    model = three_point_model()
    q = QDivisor([(-1, PrimeComponent("Q", DivisorClass([2]), {"a": 1}))])
    with pytest.raises(ValueError):
        multipoint_degree_bound(model, DivisorClass([1]), ["a"], q)
