"""Numerical adjoint-series criteria as decision procedures with witness
extraction: freeness and very-ampleness obstruction enumeration, the
ample-multiple corollaries, the pluricanonical decision table, the
trivial-canonical specializations, higher-jet windows, and the
one-dimensional degree thresholds.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .lattice import (
    DivisorClass,
    SurfaceModel,
    effective_combinations,
    intersect,
    is_nef_on_table,
    min_intersection,
    self_int,
)
from .rational import fmt_q
from .report import (
    HOLDS,
    HYPOTHESES_FAIL,
    INCONCLUSIVE,
    OBSTRUCTION,
    CertificateReport,
    Witness,
)

DEFAULT_BOUND = 3

# obstruction signatures (D.L, D^2): an adjoint base point forces the first
# set, a failure of point separation forces the second (which contains it)
FREENESS_SIGNATURES = ((0, -1), (1, 0))
VERY_AMPLE_SIGNATURES = ((0, -1), (0, -2), (1, 0), (1, -1), (2, 0))


def _scan(
    model: SurfaceModel,
    l: DivisorClass,
    accept,
    coeff_bound: int,
    point: str | None = None,
) -> list[Witness]:
    """Effective table combinations D with accept(D.L, D^2), optionally
    restricted to classes with positive multiplicity at a point.  The one
    consumer of effective_combinations: lexicographic coefficient order,
    and every witness re-verifies by construction."""
    mults = None if point is None else [record.mult_at(point) for record in model.curves]
    hits: list[Witness] = []
    for combo in effective_combinations(model, coeff_bound):
        dl = intersect(model, combo.klass, l)
        d2 = self_int(model, combo.klass)
        if not accept(dl, d2):
            continue
        mult = None
        if mults is not None:
            mult = sum(map(operator.mul, combo.coefficients, mults))
            if mult <= 0:
                continue
        hits.append(Witness(combo.label, combo.klass, dl, d2, mult))
    return hits


def _signature_search(
    model: SurfaceModel,
    l: DivisorClass,
    signatures,
    coeff_bound: int,
    point: str | None = None,
) -> list[Witness]:
    """Effective table combinations whose (D.L, D^2) lies in `signatures`."""
    return _scan(model, l, lambda dl, d2: (dl, d2) in signatures, coeff_bound, point)


def _closing_verdict(
    report: CertificateReport,
    model: SurfaceModel,
    witnesses,
    point: str | None,
    conclusion: str,
) -> None:
    if witnesses:
        report.witnesses.extend(witnesses)
        report.verdict = OBSTRUCTION
        return
    if point is not None:
        complete = model.covers_point(point)
        completeness = f"table exhaustive for curves through {point!r}"
    else:
        complete = model.cone_complete()
        completeness = "table generates the effective cone"
    report.check(completeness, "declared" if complete else "not declared", "", complete)
    if complete:
        report.verdict = HOLDS
        report.note(conclusion)
    else:
        report.verdict = INCONCLUSIVE
        report.note(
            "no obstruction within the bound, but the curve table is not "
            "declared complete"
        )


def reider_freeness(
    model: SurfaceModel,
    l: DivisorClass,
    point: str | None = None,
    coeff_bound: int = DEFAULT_BOUND,
) -> CertificateReport:
    """Base-point obstructions for the adjoint series of L.

    For nef L with L^2 >= 5, a base point of |K + L| forces an effective D
    through it with (D.L, D^2) in {(0,-1), (1,0)}.  Absence of such classes
    in a complete table certifies freeness at the point.
    """
    report = CertificateReport(INCONCLUSIVE, bound=coeff_bound)
    nef = is_nef_on_table(model, l)
    if not report.check("L nef on table", "yes" if nef.nef else f"L.{nef.violating} = {fmt_q(nef.value)}", "", nef.nef):
        report.verdict = HYPOTHESES_FAIL
        return report
    l2 = self_int(model, l)
    if not report.check("L^2 >= 5", l2, 5, l2 >= 5):
        report.verdict = HYPOTHESES_FAIL
        return report
    witnesses = _signature_search(model, l, FREENESS_SIGNATURES, coeff_bound, point)
    where = f" at {point!r}" if point is not None else ""
    _closing_verdict(
        report, model, witnesses, point, f"adjoint series of L is free{where}"
    )
    return report


def reider_very_ample(
    model: SurfaceModel, l: DivisorClass, coeff_bound: int = DEFAULT_BOUND
) -> CertificateReport:
    """Point-separation obstructions for the adjoint series of L (threshold
    L^2 >= 10, five signatures).  Only distinct labeled points are modeled;
    infinitely-near pairs are outside the model and flagged as a limitation."""
    report = CertificateReport(INCONCLUSIVE, bound=coeff_bound)
    nef = is_nef_on_table(model, l)
    if not report.check("L nef on table", "yes" if nef.nef else f"L.{nef.violating} = {fmt_q(nef.value)}", "", nef.nef):
        report.verdict = HYPOTHESES_FAIL
        return report
    l2 = self_int(model, l)
    if not report.check("L^2 >= 10", l2, 10, l2 >= 10):
        report.verdict = HYPOTHESES_FAIL
        return report
    witnesses = _signature_search(model, l, VERY_AMPLE_SIGNATURES, coeff_bound)
    report.note("separation of infinitely-near point pairs is not modeled")
    _closing_verdict(
        report, model, witnesses, None, "adjoint series of L is very ample"
    )
    return report


def numerical_global_generation(model: SurfaceModel, l: DivisorClass) -> CertificateReport:
    """Pure inequality form: L^2 >= 5 and min L.C >= 2 give global
    generation of the adjoint series; L^2 >= 10 and min L.C >= 3 give very
    ampleness.  Table-relative unless the table is declared complete."""
    report = CertificateReport(HYPOTHESES_FAIL)
    l2 = self_int(model, l)
    min_lc, min_name = min_intersection(model, l, model.curves)
    min_text = fmt_q(min_lc) if min_lc is not None else "empty table"

    gg = report.check("L^2 >= 5", l2, 5, l2 >= 5)
    gg = report.check(f"min L.C >= 2 (min at {min_name})", min_text, 2,
                      min_lc is not None and min_lc >= 2) and gg
    va = report.check("L^2 >= 10", l2, 10, l2 >= 10)
    va = report.check(f"min L.C >= 3 (min at {min_name})", min_text, 3,
                      min_lc is not None and min_lc >= 3) and va

    if not model.cone_complete():
        report.note("verdict is table-relative: curve table not declared complete")
    if gg:
        report.note("adjoint series of L is globally generated")
    if va:
        report.note("adjoint series of L is very ample")
    report.verdict = HOLDS if gg or va else HYPOTHESES_FAIL
    report.conclusions = {"globally_generated": gg, "very_ample": va}
    return report


@dataclass
class FujitaReport:
    freeness: CertificateReport        # for K + 3A
    very_ample: CertificateReport      # for K + 4A
    note: str


def fujita_adjoint(model: SurfaceModel, a: DivisorClass) -> FujitaReport:
    """K + 3A free and K + 4A very ample for ample A, by instantiating the
    numerical criterion at L = 3A and L = 4A."""
    a2 = self_int(model, a)
    ample = a2 > 0 and all(
        intersect(model, a, c.klass) > 0 for c in model.curves
    )
    note = (
        "surface case of the ample-multiple thresholds (dimension n uses "
        "n+1 for freeness and n+2 for very ampleness; here n = 2)"
    )
    if not ample:
        fail = CertificateReport(HYPOTHESES_FAIL)
        fail.check("A ample on table (A^2 > 0, A.C > 0)", fmt_q(a2), "> 0", False)
        return FujitaReport(fail, fail, note)
    return FujitaReport(
        numerical_global_generation(model, 3 * a),
        numerical_global_generation(model, 4 * a),
        note,
    )


@dataclass(frozen=True)
class PluricanonicalStatus:
    free: str                          # "yes" | "unknown"
    embedding_away_from_minus2: str    # "yes" | "unknown"


def pluricanonical_status(k2: int, m: int) -> PluricanonicalStatus:
    """Decision table for |mK| on a minimal surface of general type with
    K^2 = k2: free when m >= 4, or m >= 3 with K^2 >= 2; an embedding away
    from (-2)-curves when m >= 5, or m >= 4 with K^2 >= 2, or m >= 3 with
    K^2 >= 3.  Outside the guaranteed region the answer is "unknown", never
    "no"."""
    if k2 < 1:
        raise ValueError("minimal general type needs K^2 >= 1")
    if m < 1:
        raise ValueError("need m >= 1")
    free = m >= 4 or (m >= 3 and k2 >= 2)
    embed = m >= 5 or (m >= 4 and k2 >= 2) or (m >= 3 and k2 >= 3)
    return PluricanonicalStatus(
        "yes" if free else "unknown", "yes" if embed else "unknown"
    )


@dataclass
class KodairaZeroReport:
    freeness: CertificateReport
    very_ample: CertificateReport


def kodaira_zero_obstructions(
    model: SurfaceModel, l: DivisorClass, coeff_bound: int = DEFAULT_BOUND
) -> KodairaZeroReport:
    """Specialization to numerically trivial canonical class (abelian, K3,
    Enriques...): the obstructions are curves of arithmetic genus one, i.e.
    isotropic classes E with E.L = 1 (freeness, L^2 >= 5) or E.L = 2 (very
    ampleness, L^2 >= 10)."""
    if not model.canonical.is_zero():
        raise ValueError("this criterion needs a numerically trivial canonical class")
    # K = 0 plus the characteristic property already forces an even form;
    # re-check rather than trust
    for i in range(model.rank):
        e = DivisorClass.basis(model.rank, i)
        if self_int(model, e) % 2 != 0:
            raise ValueError("intersection form is not even")

    l2 = self_int(model, l)
    nef = is_nef_on_table(model, l)

    def path(threshold: int, e_dot_l: int, conclusion: str) -> CertificateReport:
        report = CertificateReport(INCONCLUSIVE, bound=coeff_bound)
        if not report.check("L nef on table", "yes" if nef.nef else "no", "", nef.nef):
            report.verdict = HYPOTHESES_FAIL
            return report
        if not report.check(f"L^2 >= {threshold}", l2, threshold, l2 >= threshold):
            report.verdict = HYPOTHESES_FAIL
            return report
        witnesses = _signature_search(
            model, l, ((e_dot_l, 0),), coeff_bound
        )
        for w in witnesses:
            report.note(
                f"{w.label}: isotropic class of arithmetic genus one with "
                f"E.L = {fmt_q(w.dot_l)}"
            )
        _closing_verdict(report, model, witnesses, None, conclusion)
        return report

    return KodairaZeroReport(
        path(5, 1, "adjoint series of L is globally generated"),
        path(10, 2, "adjoint series of L is very ample"),
    )


def jets_length_d(
    model: SurfaceModel, l: DivisorClass, d: int, coeff_bound: int = DEFAULT_BOUND
) -> CertificateReport:
    """Surjectivity onto length-d subschemes: for nef L with L^2 > 4d,
    either restriction to every length-d subscheme is surjective, or some
    effective D satisfies L.D - d <= D^2 < (L.D)/2.  The sufficient
    condition L.C >= 2d for all curves is checked alongside the window
    enumeration."""
    if d < 1:
        raise ValueError("need d >= 1")
    report = CertificateReport(INCONCLUSIVE, bound=coeff_bound)
    nef = is_nef_on_table(model, l)
    if not report.check("L nef on table", "yes" if nef.nef else "no", "", nef.nef):
        report.verdict = HYPOTHESES_FAIL
        return report
    l2 = self_int(model, l)
    if not report.check(f"L^2 > {4 * d}", l2, 4 * d, l2 > 4 * d):
        report.verdict = HYPOTHESES_FAIL
        return report

    min_lc, min_name = min_intersection(model, l, model.curves)
    sufficient = min_lc is not None and min_lc >= 2 * d
    report.check(
        f"min L.C >= {2 * d} (min at {min_name})",
        fmt_q(min_lc) if min_lc is not None else "empty table",
        2 * d,
        sufficient,
    )

    witnesses = _scan(model, l, lambda ld, d2: ld - d <= d2 and 2 * d2 < ld, coeff_bound)

    if sufficient and model.cone_complete():
        report.verdict = HOLDS
        report.note(f"sections surject onto every subscheme of length {d}")
        if witnesses:
            # window candidates coexisting with the sufficiency check are
            # informational only
            report.note(f"window candidates within bound: {len(witnesses)}")
        return report
    _closing_verdict(
        report,
        model,
        witnesses,
        None,
        f"sections surject onto every subscheme of length {d}",
    )
    return report


@dataclass(frozen=True)
class CurveBundleStatus:
    free: str          # "guaranteed" | "unknown"
    very_ample: str


def curve_bundle_status(g: int, d: int) -> CurveBundleStatus:
    """Degree thresholds on a genus-g curve: d >= 2g makes the bundle
    globally generated, d >= 2g + 1 makes it very ample."""
    if g < 0:
        raise ValueError("genus must be >= 0")
    return CurveBundleStatus(
        "guaranteed" if d >= 2 * g else "unknown",
        "guaranteed" if d >= 2 * g + 1 else "unknown",
    )


def normal_generation_threshold(g: int, h1: int, cliff: int) -> int:
    """Degree bound 2g + 1 - 2h^1(L) - Cliff(C) beyond which a very ample
    line bundle on a genus-g curve is normally generated."""
    return 2 * g + 1 - 2 * h1 - cliff
