import ast
import pathlib

import pytest

import surfcalc
from surfcalc import (
    CurveRecord,
    DivisorClass,
    IntersectionLattice,
    SurfaceModel,
    curve_bundle_status,
    fujita_adjoint,
    intersect,
    jets_length_d,
    kodaira_zero_obstructions,
    normal_generation_threshold,
    numerical_global_generation,
    pluricanonical_status,
    reider_freeness,
    reider_very_ample,
    self_int,
)
from surfcalc.criteria import FREENESS_SIGNATURES, VERY_AMPLE_SIGNATURES

from conftest import diag_surface


def test_signature_sets_are_the_published_tables():
    assert FREENESS_SIGNATURES == ((0, -1), (1, 0))
    assert VERY_AMPLE_SIGNATURES == ((0, -1), (0, -2), (1, 0), (1, -1), (2, 0))
    assert set(FREENESS_SIGNATURES) < set(VERY_AMPLE_SIGNATURES)


# ---------------------------------------------------------------------------
# freeness


def test_reider_freeness_ruled_fibre(p1xp1):
    report = reider_freeness(p1xp1, DivisorClass([1, 3]))
    assert report.verdict == "obstruction-found"
    [w] = report.witnesses
    assert w.label == "F2" and w.signature == (1, 0)


def test_reider_freeness_p2_holds(p2):
    report = reider_freeness(p2, DivisorClass([3]))
    assert report.verdict == "criterion-holds"


def test_reider_freeness_low_square(p2):
    report = reider_freeness(p2, DivisorClass([2]))   # L^2 = 4
    assert report.verdict == "hypotheses-fail"


def test_reider_freeness_not_nef(p1xp1):
    report = reider_freeness(p1xp1, DivisorClass([-1, 3]))
    assert report.verdict == "hypotheses-fail"


def test_reider_freeness_inconclusive_without_completeness():
    model = diag_surface(
        [1],
        [-3],
        curves=[CurveRecord("H", DivisorClass([1]), {"x": 1}, genus=0)],
        name="open_p2",
    )
    report = reider_freeness(model, DivisorClass([3]))
    assert report.verdict == "inconclusive"


def test_reider_freeness_point_restriction(p1xp1):
    # both rulings pass through x, so the fibre witness survives the filter
    report = reider_freeness(p1xp1, DivisorClass([1, 3]), point="x")
    assert report.verdict == "obstruction-found"
    assert report.witnesses[0].mult_at_point == 1
    # no table curve through an unknown label; table doesn't cover it either
    report = reider_freeness(p1xp1, DivisorClass([1, 3]), point="far")
    assert report.verdict == "inconclusive"


def test_reider_freeness_point_completeness_upgrade():
    model = diag_surface(
        [1],
        [-3],
        curves=[CurveRecord("H", DivisorClass([1]), {"x": 1}, genus=0)],
        name="p2_pointwise",
        complete=["x"],
    )
    report = reider_freeness(model, DivisorClass([3]), point="x")
    assert report.verdict == "criterion-holds"
    report = reider_freeness(model, DivisorClass([3]), point="y")
    assert report.verdict == "inconclusive"


# ---------------------------------------------------------------------------
# very ampleness


def test_reider_very_ample_elliptic_obstruction(abelian_elliptic):
    l = DivisorClass([3, 2])            # L^2 = 12, L.E = 2, L.F = 3
    report = reider_very_ample(abelian_elliptic, l)
    assert report.verdict == "obstruction-found"
    assert any(w.label == "E" and w.signature == (2, 0) for w in report.witnesses)


def test_reider_very_ample_threshold(p1xp1):
    report = reider_very_ample(p1xp1, DivisorClass([1, 3]))   # L^2 = 6 < 10
    assert report.verdict == "hypotheses-fail"


def test_reider_very_ample_p2_holds(p2):
    report = reider_very_ample(p2, DivisorClass([4]))         # L^2 = 16
    assert report.verdict == "criterion-holds"
    assert any("infinitely-near" in n for n in report.notes)


def test_very_ample_witnesses_contain_freeness_witnesses():
    # K3-type lattice with L^2 = 10 and an elliptic pencil of degree one
    model = SurfaceModel(
        "k3_ten",
        IntersectionLattice([[10, 1], [1, 0]]),
        DivisorClass([0, 0]),
        2,
        curves=[
            CurveRecord("C", DivisorClass([1, 0]), {}, genus=6),
            CurveRecord("e", DivisorClass([0, 1]), {}, genus=1),
        ],
        complete_through=["*"],
    )
    l = DivisorClass([1, 0])
    free = reider_freeness(model, l)
    va = reider_very_ample(model, l)
    assert free.verdict == va.verdict == "obstruction-found"
    free_labels = {w.label for w in free.witnesses}
    va_labels = {w.label for w in va.witnesses}
    assert free_labels <= va_labels


def test_witness_soundness_and_monotonicity(p1xp1, abelian_elliptic):
    l_by_model = {id(p1xp1): DivisorClass([1, 3]), id(abelian_elliptic): DivisorClass([3, 2])}
    for model in (p1xp1, abelian_elliptic):
        l = l_by_model[id(model)]
        seen = set()
        for bound in (1, 2, 3, 4):
            report = reider_very_ample(model, l, coeff_bound=bound) \
                if self_int(model, l) >= 10 else reider_freeness(model, l, coeff_bound=bound)
            labels = {w.label for w in report.witnesses}
            assert seen <= labels            # raising the bound never loses witnesses
            seen = labels
            assert report.bound == bound
            for w in report.witnesses:       # every witness re-scores exactly
                assert intersect(model, w.klass, l) == w.dot_l
                assert self_int(model, w.klass) == w.self_intersection


# ---------------------------------------------------------------------------
# numerical global generation / ample multiples


def test_numerical_gg_triple_of_ample(p2):
    report = numerical_global_generation(p2, DivisorClass([3]))
    assert report.conclusions["globally_generated"]
    assert not report.conclusions["very_ample"]          # 9 < 10


def test_numerical_gg_fails_on_low_degree_fibre(p1xp1):
    report = numerical_global_generation(p1xp1, DivisorClass([1, 3]))
    assert report.verdict == "hypotheses-fail"
    failing = [t for t in report.trace if not t.passed]
    assert any("min L.C" in t.check and "F2" in t.check for t in failing)


def test_numerical_gg_zero(p1xp1):
    report = numerical_global_generation(p1xp1, DivisorClass.zero(2))
    assert report.verdict == "hypotheses-fail"


def test_fujita_adjoint_p2(p2):
    report = fujita_adjoint(p2, DivisorClass([1]))
    assert report.freeness.conclusions["globally_generated"]   # 9 >= 5, 3 >= 2
    assert report.very_ample.conclusions["very_ample"]         # 16 >= 10, 4 >= 3


def test_fujita_adjoint_p1xp1(p1xp1):
    report = fujita_adjoint(p1xp1, DivisorClass([1, 1]))
    assert report.freeness.conclusions["globally_generated"]   # L^2 = 18, min 3
    assert report.very_ample.conclusions["very_ample"]         # L^2 = 32, min 4


def test_fujita_adjoint_rejects_non_ample(p1xp1):
    report = fujita_adjoint(p1xp1, DivisorClass([1, 0]))       # A^2 = 0
    assert report.freeness.verdict == "hypotheses-fail"


# ---------------------------------------------------------------------------
# pluricanonical table


def test_pluricanonical_examples():
    assert pluricanonical_status(1, 4).free == "yes"
    assert pluricanonical_status(2, 3).free == "yes"
    assert pluricanonical_status(1, 3).free == "unknown"
    assert pluricanonical_status(1, 4).embedding_away_from_minus2 == "unknown"
    assert pluricanonical_status(3, 3).embedding_away_from_minus2 == "yes"
    with pytest.raises(ValueError):
        pluricanonical_status(0, 3)


def test_pluricanonical_full_table():
    # hand-transcribed region for K^2 in 1..5, m in 1..6
    free_region = {
        (k2, m)
        for k2 in range(1, 6)
        for m in (4, 5, 6)
    } | {(k2, 3) for k2 in range(2, 6)}
    embed_region = (
        {(k2, m) for k2 in range(1, 6) for m in (5, 6)}
        | {(k2, 4) for k2 in range(2, 6)}
        | {(k2, 3) for k2 in range(3, 6)}
    )
    for k2 in range(1, 6):
        for m in range(1, 7):
            status = pluricanonical_status(k2, m)
            assert (status.free == "yes") == ((k2, m) in free_region), (k2, m)
            assert (status.embedding_away_from_minus2 == "yes") == (
                (k2, m) in embed_region
            ), (k2, m)


# ---------------------------------------------------------------------------
# trivial canonical class


def test_kodaira_zero_freeness_obstruction(k3):
    l = DivisorClass([1, 0])       # L^2 = 6, e.L = 1
    report = kodaira_zero_obstructions(k3, l)
    assert report.freeness.verdict == "obstruction-found"
    assert any(w.label == "e" for w in report.freeness.witnesses)
    assert report.very_ample.verdict == "hypotheses-fail"      # 6 < 10


def test_kodaira_zero_abelian_clearance(abelian):
    pol = abelian.curve("polarization").klass
    assert self_int(abelian, pol) == 10
    report = kodaira_zero_obstructions(abelian, pol)
    assert report.freeness.verdict == "criterion-holds"
    assert report.very_ample.verdict == "criterion-holds"


def test_kodaira_zero_mixed_thresholds(k3):
    l = DivisorClass([1, 1])       # L^2 = 8: freeness path runs, very-ample fails
    report = kodaira_zero_obstructions(k3, l)
    assert report.freeness.verdict in ("obstruction-found", "criterion-holds")
    assert report.very_ample.verdict == "hypotheses-fail"


def test_kodaira_zero_requires_trivial_canonical(p2):
    with pytest.raises(ValueError):
        kodaira_zero_obstructions(p2, DivisorClass([3]))


# ---------------------------------------------------------------------------
# higher jets


def test_jets_length_d_reduces_to_near_reider(p2):
    report = jets_length_d(p2, DivisorClass([3]), 1)
    assert report.verdict == "criterion-holds"                 # 9 > 4, min 3 >= 2


def test_jets_length_d_sufficiency_fails_but_window_clear(p1xp1):
    report = jets_length_d(p1xp1, DivisorClass([2, 3]), 2)     # L^2 = 12 > 8
    sufficiency = [t for t in report.trace if "min L.C" in t.check]
    assert sufficiency and not sufficiency[0].passed           # L.F1 = 3 < 4
    assert report.verdict == "obstruction-found"               # F2 sits in the window
    assert any(w.label == "F2" for w in report.witnesses)


def test_jets_length_d_threshold_strict(p1xp1):
    report = jets_length_d(p1xp1, DivisorClass([2, 2]), 2)     # L^2 = 8 = 4d
    assert report.verdict == "hypotheses-fail"


# ---------------------------------------------------------------------------
# curve thresholds


def test_curve_bundle_examples():
    status = curve_bundle_status(2, 4)
    assert (status.free, status.very_ample) == ("guaranteed", "unknown")
    status = curve_bundle_status(0, 0)
    assert (status.free, status.very_ample) == ("guaranteed", "unknown")
    status = curve_bundle_status(3, 7)
    assert (status.free, status.very_ample) == ("guaranteed", "guaranteed")


def test_curve_bundle_full_table():
    # hand-transcribed thresholds (2g, 2g+1) for g <= 5
    thresholds = {0: (0, 1), 1: (2, 3), 2: (4, 5), 3: (6, 7), 4: (8, 9), 5: (10, 11)}
    for g, (free_at, va_at) in thresholds.items():
        for d in range(0, 13):
            status = curve_bundle_status(g, d)
            assert (status.free == "guaranteed") == (d >= free_at), (g, d)
            assert (status.very_ample == "guaranteed") == (d >= va_at), (g, d)


def test_normal_generation_threshold():
    assert normal_generation_threshold(5, 0, 0) == 11          # 2g + 1
    assert normal_generation_threshold(5, 2, 0) == 7
    # general curve of genus 7 has Clifford index 3
    assert normal_generation_threshold(7, 0, 3) == 12


# ---------------------------------------------------------------------------
# source-level guard


def test_effective_combinations_has_one_caller():
    """Every table search runs through criteria._scan, so a change to the
    enumeration (pruning, a work budget) has one place to land."""
    package_root = pathlib.Path(surfcalc.__file__).parent
    users = []
    for source in sorted(package_root.rglob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))

        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = scope + (node.name,)
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name == "effective_combinations":
                users.append((source.stem, ".".join(scope)))
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(tree, ())
    assert users == [("criteria", "_scan")]
