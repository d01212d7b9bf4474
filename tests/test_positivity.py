import random
from fractions import Fraction

import pytest

from surfcalc import (
    CurveRecord,
    DivisorClass,
    NonIntegralDivisor,
    NotPseudoeffective,
    PrimeComponent,
    QDivisor,
    almost_isolated_index,
    cusp_bound,
    divisor_existence_k,
    intersect,
    is_nef_on_table,
    krs_jet_certificate,
    kv_applicability,
    load_fixture,
    matsusaka_thresholds,
    moving_part_inequality_check,
    mumford_intersect,
    mumford_pullback,
    normal_surface_check,
    qdivisor_generation_check,
    qdivisor_very_ample_check,
    singularity_production_check,
    zariski_decompose,
)
from surfcalc.positivity import make_resolution, solve_exact

from conftest import diag_surface


def qd(*terms):
    return QDivisor(terms)


# ---------------------------------------------------------------------------
# vanishing applicability


def test_kv_applicability_p2(p2):
    h = PrimeComponent("H", DivisorClass([1]), {"x": 1})
    report = kv_applicability(p2, qd((Fraction(3, 2), h)))
    assert report.applies
    assert report.adjoint_class == DivisorClass([-1])     # K + 2H


def test_kv_applicability_isotropic(p1xp1):
    f2 = PrimeComponent("F2", DivisorClass([0, 1]))
    report = kv_applicability(p1xp1, qd((1, f2)))
    assert not report.applies and report.big_nef.nef.nef


def test_kv_applicability_scaled_big_nef(p1xp1):
    l = PrimeComponent("L", DivisorClass([1, 3]))
    for k, d0 in ((1, 2), (2, 5)):
        m = qd((1 - Fraction(k, d0), l))
        assert kv_applicability(p1xp1, m).applies


# ---------------------------------------------------------------------------
# jet certificates


def test_krs_certificate_strict_path(p2):
    cubic = PrimeComponent("N", DivisorClass([3]), {"x": 3})
    report = krs_jet_certificate(p2, DivisorClass([3]), 1, qd((1, cubic)), "x", 0)
    assert report.verdict == "criterion-holds"


def test_krs_certificate_boundary_path(p2):
    conic = PrimeComponent("Q", DivisorClass([2]), {"x": 2})
    args = (p2, DivisorClass([4]), 1, qd((2, conic)), "x", 0)
    refused = krs_jet_certificate(*args)
    assert refused.verdict == "inconclusive"
    assert any("ample" in n for n in refused.notes)
    certified = krs_jet_certificate(*args, ample_asserted=True)
    assert certified.verdict == "criterion-holds"


def test_krs_certificate_branch_path(p2):
    c1 = PrimeComponent("C1", DivisorClass([1]), {"x": 1})
    c2 = PrimeComponent("C2", DivisorClass([1]), {"x": 1})
    c3 = PrimeComponent("C3", DivisorClass([1]), {})
    d = qd((3, c1), (2, c2), (5, c3))          # class 10H = 2 * 5H, q = 5
    report = krs_jet_certificate(p2, DivisorClass([5]), 2, d, "x", 0)
    assert report.verdict == "criterion-holds"
    assert any("restriction" in n for n in report.notes)
    [chain] = [t for t in report.trace if "1 + (q - 2k)/d0" in t.check and ">=" in t.check]
    assert chain.right == Fraction(4, 3) and chain.left == 3


def test_krs_certificate_class_mismatch(p2):
    cubic = PrimeComponent("N", DivisorClass([3]), {"x": 3})
    with pytest.raises(ValueError):
        krs_jet_certificate(p2, DivisorClass([2]), 1, qd((1, cubic)), "x", 0)


def test_krs_certificate_multiplicity_too_low(p2):
    conic = PrimeComponent("Q", DivisorClass([2]), {"x": 2})
    report = krs_jet_certificate(p2, DivisorClass([2]), 1, qd((1, conic)), "x", 0)
    assert report.verdict == "hypotheses-fail"


# ---------------------------------------------------------------------------
# almost isolated singularities


def comp(name, mults):
    return PrimeComponent(name, DivisorClass([1]), mults)


def test_almost_isolated_index_examples():
    d = qd((2, comp("A", {"x": 2})), (1, comp("B", {"x": 3, "y": 2})))
    result = almost_isolated_index(d, 3, "x")
    assert result.index_sup == Fraction(7, 3) and result.violation is None

    d = qd((3, comp("A", {"x": 2})))
    assert almost_isolated_index(d, 3, "x").index_sup is None

    assert almost_isolated_index(QDivisor(), 3, "x").index_sup is None


def test_almost_isolated_other_point_violation():
    d = qd((2, comp("A", {"x": 3})), (1, comp("B", {"y": 4})))
    result = almost_isolated_index(d, 3, "x")
    assert result.index_sup is None and "y" in result.violation


# ---------------------------------------------------------------------------
# Zariski decomposition


def test_zariski_blp2(blp2):
    h_plus_e = DivisorClass([1, 0]) + DivisorClass([0, 1])
    z = zariski_decompose(blp2, h_plus_e)
    assert z.positive_part == DivisorClass([1, 0])
    assert z.negative_part == (("E", Fraction(1)),)


def test_zariski_nef_input_is_fixed_point(blp2):
    nef = DivisorClass([1, -1])
    z = zariski_decompose(blp2, nef)
    assert z.positive_part == nef and z.negative_part == ()


def test_zariski_pure_negative(blp2):
    e = DivisorClass([0, 1])
    z = zariski_decompose(blp2, e)
    assert z.positive_part == DivisorClass.zero(2)
    assert z.negative_part == (("E", Fraction(1)),)


def test_zariski_idempotent_on_positive_part(blp2):
    z = zariski_decompose(blp2, DivisorClass([3, 1]))
    again = zariski_decompose(blp2, z.positive_part)
    assert again.positive_part == z.positive_part and again.negative_part == ()


def test_zariski_abort_on_indefinite_support():
    # the only table curve has positive square: D.C < 0 cannot be fixed
    model = diag_surface(
        [1, -1], [-3, 1],
        curves=[CurveRecord("plus", DivisorClass([1, 0]), {}, genus=None)],
        name="indefinite",
    )
    with pytest.raises(NotPseudoeffective):
        zariski_decompose(model, DivisorClass([-1, 0]))


def test_zariski_rejects_non_integral_table_gram():
    # C = (0, 3/2) on diag(1, -1): C^2 = -9/4 used to be truncated to -2,
    # which returned P = (1, -1/4) with P.C = 3/8, not orthogonal to N
    model = diag_surface(
        [1, -1], [-3, 1],
        curves=[CurveRecord("C", DivisorClass([0, Fraction(3, 2)]), {}, genus=None)],
        name="unvalidated",
    )
    with pytest.raises(NonIntegralDivisor, match="-9/4"):
        zariski_decompose(model, DivisorClass([1, 2]))
    # the integral curve (0, 1) with D = (1, 2) decomposes as P = (1, 0), N = 2C
    model = diag_surface(
        [1, -1], [-3, 1],
        curves=[CurveRecord("C", DivisorClass([0, 1]), {}, genus=None)],
        name="integral",
    )
    z = zariski_decompose(model, DivisorClass([1, 2]))
    assert z.positive_part == DivisorClass([1, 0])
    assert z.negative_part == (("C", Fraction(2)),)


def random_zariski_fixture(rng):
    rank = rng.randint(2, 4)
    entries = [1] + [-1] * (rank - 1)
    candidates = []
    for i in range(rng.randint(1, 4)):
        coeffs = [rng.randint(0, 2)] + [rng.randint(-2, 1) for _ in range(rank - 1)]
        if not any(coeffs):
            coeffs[rng.randrange(rank)] = 1
        candidates.append(CurveRecord(f"C{i}", DivisorClass(coeffs), {}, genus=None))
    model = diag_surface(entries, [-3] + [1] * (rank - 1),
                         curves=candidates, name="zrand")
    weights = [rng.randint(0, 3) for _ in candidates]
    d = DivisorClass.zero(rank)
    for w, record in zip(weights, candidates):
        d = d + w * record.klass
    return model, d


def brute_force_zariski(model, d):
    """Try every subset of table curves; keep decompositions with
    negative-definite Gram, non-negative coefficients, orthogonal nef
    residual."""
    from surfcalc.positivity import _is_negative_definite

    table = list(model.curves)
    valid = []
    for mask in range(2 ** len(table)):
        support = [i for i in range(len(table)) if mask & (1 << i)]
        sub = [
            [int(intersect(model, table[i].klass, table[j].klass)) for j in support]
            for i in support
        ]
        if support:
            if not _is_negative_definite(sub):
                continue
            try:
                coeffs = solve_exact(
                    [[Fraction(x) for x in row] for row in sub],
                    [intersect(model, d, table[i].klass) for i in support],
                )
            except ValueError:
                continue
        else:
            coeffs = []
        if any(c < 0 for c in coeffs):
            continue
        residual = d
        for i, c in zip(support, coeffs):
            residual = residual - c * table[i].klass
        if not is_nef_on_table(model, residual).nef:
            continue
        negative = tuple(
            (table[i].name, c) for i, c in zip(support, coeffs) if c != 0
        )
        valid.append((tuple(residual.coeffs), negative))
    return set(valid)


def test_zariski_invariants_and_oracle_sample():
    rng = random.Random(515)
    done = 0
    while done < 40:
        model, d = random_zariski_fixture(rng)
        try:
            z = zariski_decompose(model, d)
        except NotPseudoeffective:
            continue
        done += 1
        # invariants
        assert is_nef_on_table(model, z.positive_part).nef
        for name, c in z.negative_part:
            assert c > 0
            assert intersect(model, z.positive_part, model.curve(name).klass) == 0
        assert z.positive_part + z.negative_class(model) == d
        # oracle agreement
        solutions = brute_force_zariski(model, d)
        assert (tuple(z.positive_part.coeffs), z.negative_part) in solutions
        assert len({p for p, _ in solutions}) == 1


# ---------------------------------------------------------------------------
# Mumford intersection


def test_mumford_quadric_cone():
    res = load_fixture("quadric_cone")
    assert mumford_pullback(res, "ruling1") == [Fraction(1, 2)]
    assert mumford_intersect(res, "ruling1", "ruling2", Fraction(0)) == Fraction(1, 2)


def test_mumford_a2_chain():
    res = load_fixture("a2_chain")
    assert mumford_pullback(res, "D") == [Fraction(2, 3), Fraction(1, 3)]


def test_mumford_disjoint_divisor_unchanged():
    res = make_resolution([[-2]], {"far": [0], "near": [1]})
    assert mumford_pullback(res, "far") == [Fraction(0)]
    assert mumford_intersect(res, "far", "far", Fraction(7)) == 7


def test_mumford_symmetry_and_additivity():
    res = make_resolution(
        [[-2, 1], [1, -3]],
        {"D1": [1, 0], "D2": [0, 2], "D12": [1, 2]},
    )
    a = mumford_intersect(res, "D1", "D2", Fraction(1))
    b = mumford_intersect(res, "D2", "D1", Fraction(1))
    assert a == b
    # incidence of D12 is the sum of D1's and D2's: the correction is linear
    d1 = mumford_pullback(res, "D1")
    d2 = mumford_pullback(res, "D2")
    d12 = mumford_pullback(res, "D12")
    assert d12 == [x + y for x, y in zip(d1, d2)]


def test_mumford_nonneg_incidence_gives_nonneg_delta():
    # negative-definite Gram with non-negative off-diagonal entries pushes
    # non-negative incidence to non-negative corrections
    rng = random.Random(23)
    for _ in range(50):
        k = rng.randint(1, 3)
        gram = [[0] * k for _ in range(k)]
        for i in range(k):
            gram[i][i] = -rng.randint(2, 5)
            for j in range(i + 1, k):
                gram[i][j] = gram[j][i] = rng.randint(0, 1)
        from surfcalc.positivity import _is_negative_definite

        if not _is_negative_definite(gram):
            continue
        inc = [rng.randint(0, 3) for _ in range(k)]
        res = make_resolution(gram, {"D": inc})
        assert all(x >= 0 for x in mumford_pullback(res, "D"))


def test_mumford_rejects_indefinite_gram():
    with pytest.raises(ValueError):
        make_resolution([[1]], {"D": [1]})
    with pytest.raises(ValueError):
        make_resolution([[-2, 3], [3, -2]], {"D": [1, 0]})


def test_mumford_oracle_cramer():
    # independent 2x2 linear-solve oracle via Cramer's rule
    res = load_fixture("a2_chain")
    g = res.exceptional_gram
    det = Fraction(g[0][0] * g[1][1] - g[0][1] * g[1][0])
    rhs = [Fraction(-x) for x in res.incidence["D"]]
    d0 = (rhs[0] * g[1][1] - g[0][1] * rhs[1]) / det
    d1 = (g[0][0] * rhs[1] - rhs[0] * g[1][0]) / det
    assert mumford_pullback(res, "D") == [d0, d1]


# ---------------------------------------------------------------------------
# Q-divisor criteria


def test_qdivisor_generation_p2(p2):
    h = PrimeComponent("H", DivisorClass([1]), {"x": 1})
    report = qdivisor_generation_check(p2, qd((Fraction(5, 2), h)))
    assert report.verdict == "criterion-holds"
    assert report.adjoint_class == DivisorClass([0])    # K + 3H


def test_qdivisor_generation_boundary(p2):
    h = PrimeComponent("H", DivisorClass([1]), {"x": 1})
    report = qdivisor_generation_check(p2, qd((2, h)))  # M^2 = 4 exactly
    assert report.verdict == "hypotheses-fail"


def test_qdivisor_generation_integral_comparison(p2):
    # the Q-divisor form is stated with the strict bound 4, one lower than
    # the integral threshold 5
    h = PrimeComponent("H", DivisorClass([1]), {"x": 1})
    m = qd((Fraction(9, 4), h))                         # M^2 = 81/16 > 4, < 5
    report = qdivisor_generation_check(p2, m)
    assert report.verdict == "criterion-holds"


def test_qdivisor_very_ample(p2, p1xp1):
    h = PrimeComponent("H", DivisorClass([1]), {"x": 1})
    report = qdivisor_very_ample_check(p2, qd((Fraction(9, 2), h)))
    assert report.verdict == "criterion-holds"
    report = qdivisor_very_ample_check(p2, qd((Fraction(18, 4), h)))
    assert report.verdict == "criterion-holds"

    # M^2 = 18 exactly fails the strict bound (realized on the quadric)
    f1 = PrimeComponent("F1", DivisorClass([1, 0]), {"x": 1})
    f2 = PrimeComponent("F2", DivisorClass([0, 1]), {"x": 1})
    report = qdivisor_very_ample_check(p1xp1, qd((3, f1), (3, f2)))  # M^2 = 18
    assert report.verdict == "hypotheses-fail"

    report = qdivisor_very_ample_check(p1xp1, qd((3, f1), (4, f2)))  # M^2 = 24
    assert report.verdict == "criterion-holds"


def test_normal_surface_check_preset():
    verdict = normal_surface_check(17, 2, 2, 4)
    assert verdict.holds
    assert "16" in verdict.preset_note

    degenerate = normal_surface_check(17, 2, 2, 2)      # beta1(1 - 2/2) = 0
    assert not degenerate.holds

    balanced = normal_surface_check(10, 3, 3, 3)        # 3*(1/3) = 1 >= 1
    assert balanced.holds


# ---------------------------------------------------------------------------
# cusp bound


def test_cusp_bound_examples():
    assert cusp_bound(7) == (3, 10)
    assert cusp_bound(6) == (3, 10)
    assert cusp_bound(3) == (0, 1)
    with pytest.raises(ValueError):
        cusp_bound(2)


def test_cusp_bound_monotone():
    values = [cusp_bound(d).bound for d in range(4, 61)]
    assert all(b2 >= b1 for b1, b2 in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# Matsusaka


def test_matsusaka_p2_unit():
    thresholds = matsusaka_thresholds(1, 1)
    assert thresholds.m_free == 2 and thresholds.m_very_ample == 4
    assert thresholds.rho(2) == 25 - 2 * 5 * 1
    assert not thresholds.clamped


def test_matsusaka_clamps_nonpositive():
    thresholds = matsusaka_thresholds(1, -1)
    assert thresholds.m_free == 1 and thresholds.clamped
    assert thresholds.note


def test_matsusaka_star_condition():
    thresholds = matsusaka_thresholds(1, 1)
    star = thresholds.star(thresholds.m_free)
    assert star.rho_gt_4
    # u = (m+3)a - b = 4, v = (rho-4)a = 11: 3^2 < 11
    assert star.sqrt_inequality and star.branch == "squared comparison"
    assert not thresholds.star(0).rho_gt_4 or thresholds.rho(0) > 4


def test_matsusaka_rho_regime():
    for a, b in ((1, 1), (2, 3), (5, 7), (1, 10)):
        thresholds = matsusaka_thresholds(a, b)
        for m in range(thresholds.m_free, thresholds.m_free + 4):
            star = thresholds.star(m)
            # either the working condition is active or the report says why
            assert star.rho_gt_4 or star.branch == "rho(m) <= 4"


def test_matsusaka_requires_positive_square():
    with pytest.raises(ValueError):
        matsusaka_thresholds(0, 1)


# ---------------------------------------------------------------------------
# singular-divisor production thresholds


def test_singularity_production_s0(p2):
    report = singularity_production_check(p2, DivisorClass([3]), 0, "x")
    assert report.verdict == "criterion-holds"
    lines = {t.check: t for t in report.trace}
    assert "L^2 >= 5" in lines
    assert any("f_0(L^2) < 3" in c for c in lines)
    assert any("section" in n for n in report.notes)


def test_singularity_production_s0_boundary_square():
    # L^2 = 5 exactly: the exact-squaring certificate is 4 < 5
    model = diag_surface(
        [5], [1], chi=1,
        curves=[CurveRecord("g", DivisorClass([1]), {"x": 1}, genus=6)],
        name="five",
    )
    report = singularity_production_check(model, DivisorClass([1]), 0, "x")
    [fs] = [t for t in report.trace if "f_0" in t.check]
    assert fs.passed and fs.left == 4 and fs.right == 5
    # L.g = 5 >= 3: thresholds hold
    assert report.verdict == "criterion-holds"


def test_singularity_production_s1_thresholds(p2):
    failing = singularity_production_check(p2, DivisorClass([3]), 1, "x")
    assert failing.verdict == "hypotheses-fail"         # 9 < 10
    holding = singularity_production_check(p2, DivisorClass([7]), 1, "x")
    assert holding.verdict == "criterion-holds"         # 49 >= 10, 7 >= 7
    lines = [t.check for t in holding.trace]
    assert any("L^2 >= 10" in c for c in lines)
    assert any(">= 7" in c for c in lines)


def test_singularity_production_alternate_route(p2):
    report = singularity_production_check(p2, DivisorClass([5]), 0, "x")
    [alt] = [t for t in report.trace if "alternate" in t.check]
    assert alt.passed                                    # L^2 = 25, L.H = 5
    [preset] = [t for t in report.trace if "very-ampleness preset" in t.check]
    assert not preset.passed                             # L.H = 5 < 7
    report = singularity_production_check(p2, DivisorClass([7]), 0, "x")
    [preset] = [t for t in report.trace if "very-ampleness preset" in t.check]
    assert preset.passed


# ---------------------------------------------------------------------------
# moving parts and section counts


def test_moving_part_check():
    rows = moving_part_inequality_check(
        Fraction(1),
        [(10, Fraction(100)), (10, Fraction(95)), (10, Fraction(80))],
        slack=Fraction(1),
    )
    assert [r.holds for r in rows] == [True, True, False]
    assert rows[1].required == 90


def test_moving_part_zero_slack_equality():
    [row] = moving_part_inequality_check(Fraction(1), [(10, Fraction(100))])
    assert row.holds and row.required == 100


def test_divisor_existence_count(p2):
    k, note = divisor_existence_k(p2, DivisorClass([3]), 0)
    assert k == 1 and "h^2" in note
    none_k, note = divisor_existence_k(p2, DivisorClass([1]), 0, k_max=30)
    assert none_k is None
