import ast
import pathlib
import random
from fractions import Fraction

import pytest

import surfcalc
from surfcalc import (
    ChernData,
    DimensionMismatch,
    InvariantBreach,
    DivisorClass,
    brill_noether_rho,
    destabilizer_search,
    discriminant,
    elementary_transformation,
    fixture_path,
    from_extension,
    gonality_bound,
    intersect,
    k3_end_euler,
    reider_chain_verify,
    self_int,
    twist,
)
from surfcalc.cli import main

from conftest import diag_surface


# ---------------------------------------------------------------------------
# Chern data arithmetic


def test_discriminant_examples(p2, chain_l2_5):
    l = DivisorClass([1, 0])                      # square 5 on diag(5,-1)
    assert discriminant(chain_l2_5, ChernData(2, l, 1)) == 1
    assert discriminant(p2, ChernData(2, DivisorClass.zero(1), 0)) == 0
    assert discriminant(p2, ChernData(2, DivisorClass([1]), 1)) == -3


def test_discriminant_needs_rank_two(p2):
    with pytest.raises(ValueError):
        discriminant(p2, ChernData(1, DivisorClass([1]), 0))


def test_twist_examples(p2):
    e = ChernData(2, DivisorClass([1]), 1)
    h = DivisorClass([1])
    twisted = twist(p2, e, h)
    assert twisted.c1 == DivisorClass([3]) and twisted.c2 == 3
    assert discriminant(p2, e) == discriminant(p2, twisted) == -3
    assert twist(p2, e, DivisorClass.zero(1)) == e
    assert twist(p2, twist(p2, e, h), -1 * h) == e


def test_twist_invariance_random(p1xp1, blp2, k3, abelian):
    rng = random.Random(4242)
    models = [p1xp1, blp2, k3, abelian]
    for _ in range(1000):
        model = models[rng.randrange(len(models))]
        c1 = DivisorClass([rng.randint(-5, 5) for _ in range(model.rank)])
        e = ChernData(2, c1, rng.randint(-10, 10))
        n = DivisorClass([rng.randint(-5, 5) for _ in range(model.rank)])
        assert discriminant(model, twist(model, e, n)) == discriminant(model, e)


def test_fractional_c2_is_an_invariant_breach():
    # a half-integral Gram matrix fails validation; used anyway, it makes
    # c2 fractional, which must raise even under python -O
    half = diag_surface([Fraction(1, 2)], [1], name="half")
    e = ChernData(2, DivisorClass([1]), 1)
    one = DivisorClass([1])
    with pytest.raises(InvariantBreach, match="c2 of the twist"):
        twist(half, ChernData(2, DivisorClass([2]), 1), one)
    with pytest.raises(InvariantBreach, match="c2 of the extension"):
        from_extension(half, one, one, 0)
    with pytest.raises(InvariantBreach, match="elementary transformation"):
        elementary_transformation(half, e, one, 0)


def test_no_assert_statements_in_package():
    package_root = pathlib.Path(surfcalc.__file__).parent
    for source in sorted(package_root.rglob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{source.name}: assert on lines {lines}"


def test_from_extension_examples(p2, p1xp1):
    serre = from_extension(p2, DivisorClass.zero(1), DivisorClass([2]), 1)
    assert serre.c1 == DivisorClass([2]) and serre.c2 == 1
    trivial = from_extension(p2, DivisorClass.zero(1), DivisorClass.zero(1), 0)
    assert trivial.c1.is_zero() and trivial.c2 == 0
    mixed = from_extension(p1xp1, DivisorClass([1, 0]), DivisorClass([0, 1]), 2)
    assert mixed.c1 == DivisorClass([1, 1]) and mixed.c2 == 3


def test_from_extension_symmetry_random(p1xp1):
    rng = random.Random(8)
    for _ in range(200):
        a = DivisorClass([rng.randint(-4, 4), rng.randint(-4, 4)])
        b = DivisorClass([rng.randint(-4, 4), rng.randint(-4, 4)])
        z = rng.randint(0, 6)
        assert from_extension(p1xp1, a, b, z) == from_extension(p1xp1, b, a, z)


def test_elementary_transformation_examples(p2):
    # rank r+1 trivial bundle modified along a curve of degree d
    trivial = ChernData(3, DivisorClass.zero(1), 0)
    c = DivisorClass([2])
    f = elementary_transformation(p2, trivial, c, 5)
    assert f.c1 == DivisorClass([-2]) and f.c2 == 5 and f.rank == 3

    v = ChernData(2, DivisorClass([1]), 1)
    assert elementary_transformation(p2, v, DivisorClass.zero(1), 0) == v
    res = elementary_transformation(p2, v, DivisorClass([1]), 2)
    assert res.c1.is_zero() and res.c2 == 1 - 1 + 2


# ---------------------------------------------------------------------------
# destabilizer search


def test_destabilizer_search_rank1_five(rank1_five):
    g = DivisorClass([1])
    e = ChernData(2, g, 1)
    assert discriminant(rank1_five, e) == 1
    result = destabilizer_search(rank1_five, e, g, 3)
    assert not result.inconclusive
    # first candidate is the generator itself with zero-scheme length 1
    first = result.candidates[0]
    assert first.klass == g and first.length_z == 1
    # every returned class re-verifies the three defining inequalities
    for cand in result.candidates:
        diff = 2 * cand.klass - e.c1
        assert self_int(rank1_five, diff) > 0
        assert intersect(rank1_five, diff, g) > 0
        length = e.c2 - intersect(rank1_five, cand.klass, e.c1 - cand.klass)
        assert length == cand.length_z and length >= 0


def test_destabilizer_search_inconclusive_flag(rank1_five):
    # discriminant 1 > 0 but the sign condition needs a coefficient >= 3
    e = ChernData(2, DivisorClass([5]), 31)
    assert discriminant(rank1_five, e) == 1
    result = destabilizer_search(rank1_five, e, DivisorClass([1]), 2)
    assert result.candidates == () and result.inconclusive
    found = destabilizer_search(rank1_five, e, DivisorClass([1]), 3)
    assert found.candidates and not found.inconclusive


def test_positive_cone_membership(p1xp1):
    from surfcalc import in_positive_cone

    h = DivisorClass([1, 1])
    assert in_positive_cone(p1xp1, DivisorClass([2, 1]), h)
    assert not in_positive_cone(p1xp1, DivisorClass([1, 0]), h)   # isotropic
    assert not in_positive_cone(p1xp1, DivisorClass([-2, -1]), h) # wrong component


def test_destabilizer_search_checks_reference_class(rank1_five, p1xp1):
    e = ChernData(2, DivisorClass([1]), 1)
    with pytest.raises(ValueError):
        destabilizer_search(p1xp1, ChernData(2, DivisorClass([1, 1]), 1),
                            DivisorClass([1, 0]), 2)  # H^2 = 0
    with pytest.raises(ValueError):
        destabilizer_search(rank1_five, e, DivisorClass([-1]), 2)


def test_destabilizer_search_rejects_wrong_rank(p1xp1):
    # the integer kernel zips c1 and H against the Gram rows, so the checks
    # in front of it must reject a class of the wrong rank
    h = DivisorClass([1, 1])
    with pytest.raises(DimensionMismatch):
        destabilizer_search(p1xp1, ChernData(2, DivisorClass([1]), 0), h, 2)
    with pytest.raises(DimensionMismatch):
        destabilizer_search(p1xp1, ChernData(2, DivisorClass([1, 1, 0]), 0), h, 2)
    e = ChernData(2, DivisorClass([1, 1]), 0)
    with pytest.raises(DimensionMismatch):
        destabilizer_search(p1xp1, e, DivisorClass([1]), 2)
    with pytest.raises(DimensionMismatch):
        destabilizer_search(p1xp1, e, DivisorClass([1, 1, 1]), 2)


@pytest.mark.parametrize("c1, ample", [("1,0,0", "1,1"), ("1", "1,1"), ("1,1", "1")])
def test_cli_destabilize_wrong_rank_exits_2(capsys, c1, ample):
    code = main(["bundle", "--surface", str(fixture_path("p1xp1")), "--c1", c1, "--c2", "0",
                 "--destabilize", "--ample", ample])
    captured = capsys.readouterr()
    assert code == 2
    assert "rank" in captured.err and "Traceback" not in captured.err


# ---------------------------------------------------------------------------
# the inequality chain


def test_chain_terminal_case_1_0():
    model = diag_surface([1, -1], [-3, 1], name="chain10")
    l = DivisorClass([3, 2])      # L^2 = 5
    d = DivisorClass([1, 1])      # L.D = 1, D^2 = 0
    report = reider_chain_verify(model, l, d)
    assert report.all_hold and report.terminal == (1, 0)


def test_chain_terminal_case_0_minus1(chain_l2_5):
    l = DivisorClass([1, 0])
    d = DivisorClass([0, 1])      # L.D = 0, D^2 = -1
    report = reider_chain_verify(chain_l2_5, l, d)
    assert report.all_hold and report.terminal == (0, -1)


def test_chain_reports_first_failure(chain_l2_5):
    l = DivisorClass([1, 0])
    d = DivisorClass([1, 1])      # L.D = 5, D^2 = 4
    report = reider_chain_verify(chain_l2_5, l, d)
    assert not report.all_hold
    assert report.first_failure == "(L - 2D).L > 0"
    line = report.trace[-1]
    assert line.left == -5 and not line.passed


def test_chain_final_inequality_can_fail_alone(chain_l2_5):
    # the one configuration reaching the last step and failing it: an
    # isotropic class orthogonal to L
    report = reider_chain_verify(chain_l2_5, DivisorClass([1, 0]), DivisorClass.zero(2))
    assert not report.all_hold
    assert report.first_failure == "2 D^2 < L.D"


def test_chain_refusals(chain_l2_5, p1xp1):
    low = reider_chain_verify(p1xp1, DivisorClass([1, 1]), DivisorClass([0, 1]))
    assert low.refusal is not None and "L^2" in low.refusal
    not_nef = reider_chain_verify(p1xp1, DivisorClass([-1, 1]), DivisorClass([0, 1]))
    assert not_nef.refusal == "L is not nef on the table"
    fractional = reider_chain_verify(
        chain_l2_5, DivisorClass([1, 0]), DivisorClass([Fraction(1, 2), 0])
    )
    assert fractional.refusal is not None


def test_chain_window_for_larger_c2():
    model = diag_surface([1, -1], [-3, 1], name="chainbig")
    l = DivisorClass([3, 0])      # L^2 = 9 >= 4*2 + 1
    d = DivisorClass([1, 1])      # L.D = 3, D^2 = 0: window 3-2 <= 0 ? no
    report = reider_chain_verify(model, l, d, c2=2)
    assert not report.all_hold     # (L-D).D = 3 > 2 fails
    d = DivisorClass([1, 0])      # L.D = 3, D^2 = 1: (L-D).D = 2 <= 2, 2 < 3
    report = reider_chain_verify(model, l, d, c2=2)
    assert report.all_hold and report.in_window and report.terminal == (3, 1)


def test_integer_scan_dichotomy():
    # (L.D, D^2) with L.D >= 0, L.D - 1 <= D^2 < L.D/2 has exactly two points
    hits = [
        (ld, d2)
        for ld in range(0, 11)
        for d2 in range(-10, 11)
        if ld - 1 <= d2 and 2 * d2 < ld
    ]
    assert hits == [(0, -1), (1, 0)]


# ---------------------------------------------------------------------------
# curve-theoretic counts


def test_brill_noether_examples():
    assert brill_noether_rho(4, 1, 3) == 0
    assert brill_noether_rho(7, 0, 0) == 0
    assert brill_noether_rho(3, 1, 4) == 3
    with pytest.raises(ValueError):
        brill_noether_rho(-1, 0, 0)


def test_k3_end_euler_examples():
    assert k3_end_euler(1, 3, 4) == 2
    assert k3_end_euler(1, 2, 2) == 2
    with pytest.raises(ValueError):
        k3_end_euler(0, 1, 3)
    with pytest.raises(ValueError):
        k3_end_euler(1, 1, 1)


def test_k3_end_euler_two_routes_random():
    rng = random.Random(303)
    for _ in range(100):
        r = rng.randint(1, 5)
        d = rng.randint(0, 20)
        g = rng.randint(2, 12)
        value = k3_end_euler(r, d, g)
        assert value == 2 - 2 * brill_noether_rho(g, r, d)


def test_gonality_examples():
    assert gonality_bound([2, 3]) == 3
    assert gonality_bound([2]) == 1
    assert gonality_bound([3, 3]) == 6
    with pytest.raises(ValueError):
        gonality_bound([3, 2])
    with pytest.raises(ValueError):
        gonality_bound([1, 2])
    with pytest.raises(ValueError):
        gonality_bound([])
