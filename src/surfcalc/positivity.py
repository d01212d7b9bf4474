"""Q-divisor positivity machinery: vanishing applicability, jet
certificates from singular divisors, Zariski decomposition, Mumford's
Q-intersection on normal surfaces, Q-divisor adjoint criteria, cusp
bounds, and the effective global-generation thresholds.

Square-root comparisons are certified by exact squaring with sign-case
analysis; the boundary cases are exactly where these criteria bite, so no
floating point is allowed anywhere.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Sequence

from .lattice import (
    BigNefVerdict,
    CurveRecord,
    DivisorClass,
    InvariantBreach,
    NonIntegralDivisor,
    SurfaceModel,
    _Frozen,
    intersect,
    is_big_nef_on_table,
    is_nef_on_table,
    min_intersection,
    self_int,
)
from .qdivisor import QDivisor, class_of, mult_at, round_down, round_up
from .rational import clear_denominators, fmt_q, next_integer_above
from .report import (
    HOLDS,
    HYPOTHESES_FAIL,
    INCONCLUSIVE,
    CertificateReport,
    TraceLine,
)


class NotPseudoeffective(ValueError):
    """Zariski decomposition aborted: input not pseudoeffective relative to
    the curve table."""


def _fraction_free_pivots(m: list[list[int]], swap_rows: bool) -> Iterator[int]:
    """Fraction-free (Bareiss) forward elimination of the square integer
    block of the rows m, in place; a row may carry extra columns (a
    right-hand side) that are eliminated along with it.

    Yields the pivot of each column before clearing the column below it
    and stops after a zero pivot.  Step k replaces row i > k by
    (p_k * row_i - m[i][k] * row_k) / p_{k-1}, a division that is exact
    because every entry is a minor of the input (Sylvester's identity), so
    all entries stay ints.  Without row swaps the k-th pivot is the
    leading principal minor of order k + 1.  With `swap_rows` a zero
    pivot is first replaced by a lower row that is nonzero in its column,
    and a zero pivot is only yielded when the block is singular.
    """
    n = len(m)
    previous = 1
    for k in range(n):
        if swap_rows and m[k][k] == 0:
            r = next((r for r in range(k + 1, n) if m[r][k]), None)
            if r is not None:
                m[k], m[r] = m[r], m[k]
        pivot = m[k][k]
        yield pivot
        if pivot == 0:
            return
        tail = m[k][k + 1:]
        for row in m[k + 1:]:
            factor = row[k]
            row[k + 1:] = [
                (pivot * x - factor * y) // previous for x, y in zip(row[k + 1:], tail)
            ]
        previous = pivot


def solve_exact(
    matrix: Sequence[Sequence[Fraction | int]], rhs: Sequence[Fraction | int]
) -> list[Fraction]:
    """Solve a square system with int or Fraction entries; exact.

    Each row of the augmented matrix is scaled to integers by its least
    common denominator (the solution does not change), eliminated
    fraction-free with row swaps, and solved by one back-substitution in
    Fractions.  Raises ValueError("singular system") when the matrix is
    singular."""
    n = len(rhs)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError(f"need an {n} x {n} matrix for {n} right-hand sides")
    m = [clear_denominators([*row, b])[1] for row, b in zip(matrix, rhs)]
    for pivot in _fraction_free_pivots(m, swap_rows=True):
        if pivot == 0:
            raise ValueError("singular system")
    solution = [Fraction(0)] * n
    for i in reversed(range(n)):
        row = m[i]
        value = Fraction(row[n])
        for j in range(i + 1, n):
            if row[j]:
                value -= row[j] * solution[j]
        solution[i] = value / row[i]
    return solution


def _is_negative_definite(gram: Sequence[Sequence[Fraction | int]]) -> bool:
    """Sylvester's criterion: every leading principal minor of -G is
    positive.  The minors are the pivots of fraction-free elimination
    without row swaps on -G, each row first cleared to integers; scaling a
    row by a positive number keeps the sign of every minor."""
    m = [[-x for x in clear_denominators(row)[1]] for row in gram]
    return all(pivot > 0 for pivot in _fraction_free_pivots(m, swap_rows=False))


# ---------------------------------------------------------------------------
# vanishing applicability


class VanishingReport(NamedTuple):
    big_nef: BigNefVerdict
    adjoint_class: DivisorClass     # K + round_up(M)
    applies: bool
    note: str


def kv_applicability(model: SurfaceModel, m: QDivisor) -> VanishingReport:
    """Checks the class of M for big-and-nefness on the table and returns
    the adjoint class K + round-up(M).  On a surface the normal-crossing
    hypothesis on the fractional part is dispensable, so big-and-nef is the
    whole check."""
    verdict = is_big_nef_on_table(model, class_of(model, m))
    adjoint = model.canonical + class_of(model, round_up(m))
    note = (
        "on a surface the normal-crossing hypothesis on the fractional part "
        "can be ignored; big-and-nef suffices for the adjoint vanishing"
    )
    return VanishingReport(verdict, adjoint, bool(verdict), note)


# ---------------------------------------------------------------------------
# jet certificates from a singular divisor in |kL|


def krs_jet_certificate(
    model: SurfaceModel,
    l: DivisorClass,
    k: int,
    d: QDivisor,
    point: str,
    s: int,
    ample_asserted: bool = False,
) -> CertificateReport:
    """Certify s-jet generation of the adjoint series of L at a point from
    an effective divisor D in |kL| with high multiplicity there.

    Writing D = sum(d_i D_i) and q = mult_x(D), the strict certificate
    needs q > (s+2)k and d_i < q/(s+2) for every component through x.
    Boundary coefficients ((s+2)d_i = q) certify only for ample L.  A
    component exceeding the bound triggers the restriction branch: the
    unique maximal component D0 absorbs the excess, and for s = 0 the
    certificate is recovered when (L - D0 - N).D0 >= 2, where N is the
    integral part of (1/d0) times the part of D away from x.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if s < 0:
        raise ValueError("need s >= 0")
    if not d.is_effective() or not d.is_integral():
        raise ValueError("D must have non-negative integer coefficients")
    if class_of(model, d) != k * l:
        raise ValueError(
            f"class mismatch: D has class {class_of(model, d)!r}, expected k*L = {(k * l)!r}"
        )

    report = CertificateReport(INCONCLUSIVE)
    big_nef = is_big_nef_on_table(model, l)
    if not report.check(
        "L big and nef on table",
        "yes" if big_nef.big_nef else f"L^2 = {fmt_q(big_nef.self_intersection)}, nef = {big_nef.nef.nef}",
        "",
        big_nef.big_nef,
    ):
        report.verdict = HYPOTHESES_FAIL
        return report

    q = mult_at(d, point)
    if not report.check(f"mult_x(D) > (s+2)k = {(s + 2) * k}", q, (s + 2) * k, q > (s + 2) * k):
        report.verdict = HYPOTHESES_FAIL
        report.note("divisor is not singular enough at the point")
        return report

    through = [(coeff, comp) for coeff, comp in d.terms if comp.mult_at(point) > 0]
    exceeders = [(c, comp) for c, comp in through if (s + 2) * c > q]
    boundary = [(c, comp) for c, comp in through if (s + 2) * c == q]

    if not exceeders:
        if not boundary:
            for c, comp in through:
                report.check(
                    f"coefficient of {comp.name} < q/(s+2)", c, Fraction(q, s + 2), True
                )
            report.verdict = HOLDS
            report.note(f"adjoint series of L generates {s}-jets at {point!r}")
            return report
        names = ", ".join(comp.name for _, comp in boundary)
        report.check(
            f"boundary coefficients ((s+2)d_i = q) on {names}",
            "relaxed rule needs ample L",
            "",
            ample_asserted,
        )
        if ample_asserted:
            report.verdict = HOLDS
            report.note(
                f"adjoint series of L generates {s}-jets at {point!r} "
                "(boundary case, using (s+2)d_i <= q with L ample)"
            )
        else:
            report.verdict = INCONCLUSIVE
            report.note(
                "boundary coefficient present and ampleness of L not asserted; "
                "refusing to certify"
            )
        return report

    # restriction branch: a component with (s+2)d_i > q
    d0_coeff, d0 = max(exceeders, key=lambda t: (t[0], t[1].name))
    unique = len(exceeders) == 1
    report.check(
        f"maximal component {d0.name}: d0 > q/(s+2)", d0_coeff, Fraction(q, s + 2), True
    )
    if not unique:
        report.note(
            "several components exceed the bound; the restriction branch "
            "expects a unique maximal one (guaranteed for s = 0)"
        )
    if s != 0:
        report.verdict = INCONCLUSIVE
        report.note("restriction branch is only evaluated for s = 0")
        return report

    away = QDivisor((c, comp) for c, comp in d.terms if comp.mult_at(point) == 0)
    n_div = round_down(Fraction(1, d0_coeff) * away)
    residual = l - d0.klass - class_of(model, n_div)
    value = intersect(model, residual, d0.klass)
    guaranteed = 1 + Fraction(q - 2 * k, d0_coeff)
    report.check("(L - D0 - N).D0 >= 1 + (q - 2k)/d0", value, guaranteed, value >= guaranteed)
    report.check("1 + (q - 2k)/d0 > 1", guaranteed, 1, guaranteed > 1)
    report.check(
        "d0 > k (so L - D/d0 stays big and nef)", d0_coeff, k, d0_coeff > k
    )
    if value >= 2 and d0_coeff > k:
        report.verdict = HOLDS
        report.note(
            f"section through {point!r} produced by restriction to {d0.name}: "
            f"the restricted adjoint bundle has degree {fmt_q(value)} >= 2"
        )
    else:
        report.verdict = INCONCLUSIVE
        report.note("restriction branch inequalities not all verified")
    return report


class AlmostIsolated(NamedTuple):
    index_sup: Fraction | None
    violation: str | None


def almost_isolated_index(d: QDivisor, k: int, point: str) -> AlmostIsolated:
    """Supremum r such that D in |kB| has an almost isolated singularity of
    index > r' at the point for every r' < r: requires every component
    through the point to have coefficient < k (the proxy for nearby
    multiplicity) and multiplicity < k at every other recorded point."""
    if k < 1:
        raise ValueError("need k >= 1")
    if not d.is_effective() or not d.is_integral():
        raise ValueError("D must have non-negative integer coefficients")
    if d.is_zero():
        return AlmostIsolated(None, "zero divisor")
    q = mult_at(d, point)
    if q == 0:
        return AlmostIsolated(None, f"no multiplicity at {point!r}")
    for coeff, comp in d.terms:
        if comp.mult_at(point) > 0 and coeff >= k:
            return AlmostIsolated(
                None, f"component {comp.name} through the point has coefficient {fmt_q(coeff)} >= k"
            )
    other_points = {
        p for _, comp in d.terms for p in comp.point_mults if p != point
    }
    for p in sorted(other_points):
        if mult_at(d, p) >= k:
            return AlmostIsolated(None, f"multiplicity at {p!r} is {fmt_q(mult_at(d, p))} >= k")
    return AlmostIsolated(Fraction(q, k), None)


# ---------------------------------------------------------------------------
# Zariski decomposition


class ZariskiDecomposition(NamedTuple):
    positive_part: DivisorClass
    negative_part: tuple[tuple[str, Fraction], ...]
    original: DivisorClass

    def negative_class(self, model: SurfaceModel) -> DivisorClass:
        total = DivisorClass.zero(self.positive_part.rank)
        for name, coeff in self.negative_part:
            total = total + coeff * model.curve(name).klass
        return total


def _table_product(model: SurfaceModel, a: CurveRecord, b: CurveRecord) -> int:
    """A.B for two table curves, which must be an integer."""
    value = intersect(model, a.klass, b.klass)
    if value.denominator != 1:
        raise NonIntegralDivisor(
            f"table curves {a.name} and {b.name} meet in {fmt_q(value)}, not an integer"
        )
    return value.numerator


def zariski_decompose(model: SurfaceModel, d: DivisorClass) -> ZariskiDecomposition:
    """D = P + N with P nef on the table, N an effective combination of
    table curves with negative-definite Gram, and P orthogonal to every
    component of N.

    Iterates the classical construction: collect the curves the current
    residual meets negatively, solve exactly for the orthogonalizing
    coefficients, repeat until stable (the support set grows monotonically,
    so at most #table rounds).  Pseudoeffectivity of D is caller-asserted;
    when the construction detects it cannot hold relative to the table (a
    support set with indefinite Gram, or negative solved coefficients) it
    aborts rather than returning a wrong answer.
    """
    support: list[int] = []
    table = list(model.curves)
    coeffs: list[Fraction] = []
    for _ in range(len(table) + 1):
        if support:
            sub = [[_table_product(model, table[i], table[j]) for j in support] for i in support]
            if not _is_negative_definite(sub):
                raise NotPseudoeffective(
                    "not pseudoeffective relative to the table: support set "
                    f"{[table[i].name for i in support]} has indefinite Gram matrix"
                )
            rhs = [intersect(model, d, table[i].klass) for i in support]
            coeffs = solve_exact(sub, rhs)
        residual = d
        for idx, c in zip(support, coeffs):
            residual = residual - c * table[idx].klass
        new = [
            i
            for i, record in enumerate(table)
            if i not in support and intersect(model, residual, record.klass) < 0
        ]
        if not new:
            if any(c < 0 for c in coeffs):
                raise NotPseudoeffective(
                    "not pseudoeffective relative to the table: negative "
                    "coefficient in the orthogonalized part"
                )
            # canonical order: table order, not order of accretion
            negative = tuple(
                (table[i].name, c)
                for i, c in sorted(zip(support, coeffs))
                if c != 0
            )
            return ZariskiDecomposition(residual, negative, d)
        support.extend(new)
    raise InvariantBreach("Zariski iteration failed to terminate")


# ---------------------------------------------------------------------------
# Mumford's Q-intersection on a normal surface


class ResolutionData(_Frozen):
    """Resolution bookkeeping: Gram matrix of the exceptional curves and,
    per named Weil divisor, the intersections of its proper transform with
    each exceptional curve."""

    exceptional_gram: tuple[tuple[int, ...], ...]
    incidence: dict[str, tuple[int, ...]]
    name: str

    def __init__(self, exceptional_gram, incidence, name="resolution"):
        self._init(exceptional_gram, incidence, name)
        k = len(self.exceptional_gram)
        for row in self.exceptional_gram:
            if len(row) != k:
                raise ValueError("exceptional Gram matrix must be square")
        for i in range(k):
            for j in range(k):
                if self.exceptional_gram[i][j] != self.exceptional_gram[j][i]:
                    raise ValueError("exceptional Gram matrix must be symmetric")
        if not _is_negative_definite(self.exceptional_gram):
            raise ValueError("exceptional Gram matrix must be negative definite")
        for divisor, vector in self.incidence.items():
            if len(vector) != k:
                raise ValueError(f"incidence vector for {divisor!r} has wrong length")

    @property
    def size(self) -> int:
        return len(self.exceptional_gram)


def make_resolution(gram, incidence, name="resolution") -> ResolutionData:
    return ResolutionData(
        tuple(tuple(row) for row in gram),
        {k: tuple(v) for k, v in incidence.items()},
        name,
    )


def mumford_pullback(res: ResolutionData, divisor_name: str) -> list[Fraction]:
    """Coefficients of the unique exceptional correction Delta with
    (D' + Delta).E_j = 0 for every exceptional E_j; exists and is unique by
    negative definiteness."""
    if divisor_name not in res.incidence:
        raise KeyError(f"no divisor named {divisor_name!r} in resolution data")
    return solve_exact(res.exceptional_gram, [-x for x in res.incidence[divisor_name]])


def mumford_intersect(
    res: ResolutionData, name1: str, name2: str, base_intersection: Fraction
) -> Fraction:
    """Mumford product D1.D2 = (D1' + Delta1).(D2' + Delta2), expanded from
    the proper transforms' intersection, the incidences and the Gram
    matrix.  With Delta_i = v_i / d_i cleared to integers,

        D1.D2 = base + (d1 inc1.v2 + d2 inc2.v1 + v1.G.v2) / (d1 d2),

    where the numerator runs on ints."""
    d1, v1 = clear_denominators(mumford_pullback(res, name1))
    d2, v2 = clear_denominators(mumford_pullback(res, name2))
    inc1 = res.incidence[name1]
    inc2 = res.incidence[name2]
    total = d1 * sum(map(operator.mul, inc1, v2)) + d2 * sum(map(operator.mul, inc2, v1))
    for x, row in zip(v1, res.exceptional_gram):
        if x:
            total += x * sum(map(operator.mul, row, v2))
    return Fraction(base_intersection) + Fraction(total, d1 * d2)


# ---------------------------------------------------------------------------
# Q-divisor adjoint criteria


def _q_adjoint_check(
    model: SurfaceModel,
    m: QDivisor,
    sq_threshold: int,
    degree_threshold: int,
    conclusion: str,
) -> CertificateReport:
    report = CertificateReport(HYPOTHESES_FAIL)
    klass = class_of(model, m)
    nef = is_nef_on_table(model, klass)
    ok = report.check("class of M nef on table", "yes" if nef.nef else "no", "", nef.nef)
    m2 = self_int(model, klass)
    ok = report.check(f"M^2 > {sq_threshold}", m2, sq_threshold, m2 > sq_threshold) and ok
    min_mc, min_name = min_intersection(model, klass, model.curves)
    ok = (
        report.check(
            f"min M.C >= {degree_threshold} (min at {min_name})",
            fmt_q(min_mc) if min_mc is not None else "empty table",
            degree_threshold,
            min_mc is not None and min_mc >= degree_threshold,
        )
        and ok
    )
    adjoint = model.canonical + class_of(model, round_up(m))
    report.note(f"adjoint class K + round-up(M) = {adjoint!r}")
    if ok:
        report.verdict = HOLDS
        report.note(conclusion)
        if not model.cone_complete():
            report.note("table-relative: curve table not declared complete")
    report.adjoint_class = adjoint
    return report


def qdivisor_generation_check(model: SurfaceModel, m: QDivisor) -> CertificateReport:
    """M^2 > 4 and M.C >= 2 against the table make K + round-up(M) globally
    generated (Q-divisor sharpening of the integral threshold L^2 >= 5)."""
    return _q_adjoint_check(
        model, m, 4, 2, "K + round-up(M) is globally generated"
    )


def qdivisor_very_ample_check(model: SurfaceModel, m: QDivisor) -> CertificateReport:
    """M^2 > 18 and M.C >= 3 against the table make K + round-up(M) very
    ample."""
    return _q_adjoint_check(model, m, 18, 3, "K + round-up(M) is very ample")


class NormalSurfaceVerdict(NamedTuple):
    holds: bool
    trace: tuple[TraceLine, ...]
    preset_note: str


def normal_surface_check(
    m2: Fraction, min_mc: Fraction, beta1: Fraction, beta2: Fraction
) -> NormalSurfaceVerdict:
    """Global generation of K + round-up(M) for a nef Q-divisor on a normal
    surface (Mumford intersection numbers): needs M^2 > beta2^2,
    M.C >= beta1, beta2 >= 2 and beta1(1 - 2/beta2) >= 1."""
    m2, min_mc, beta1, beta2 = map(Fraction, (m2, min_mc, beta1, beta2))
    if beta1 <= 0 or beta2 <= 0:
        raise ValueError("beta parameters must be positive")
    combo = beta1 * (1 - Fraction(2, 1) / beta2)
    trace = (
        TraceLine("M^2 > beta2^2", m2, beta2 * beta2, m2 > beta2 * beta2),
        TraceLine("min M.C >= beta1", min_mc, beta1, min_mc >= beta1),
        TraceLine("beta2 >= 2", beta2, 2, beta2 >= 2),
        TraceLine("beta1(1 - 2/beta2) >= 1", combo, 1, combo >= 1),
    )
    return NormalSurfaceVerdict(
        all(t.passed for t in trace),
        trace,
        "satisfied for example by M^2 > 16 and M.C >= 2 (beta1 = 2, beta2 = 4)",
    )


# ---------------------------------------------------------------------------
# cusp bounds and effective thresholds


class CuspBound(NamedTuple):
    k_min: int      # least degree k with the cusps imposing independent conditions
    bound: int      # dimension cap (k_min + 1)(k_min + 2)/2 on the number of cusps


def cusp_bound(d: int) -> CuspBound:
    """A reduced plane curve of degree d has at most (k+1)(k+2)/2 simple
    cusps, where k is the least integer > 5d/6 - 3: the cusps impose
    independent conditions on curves of that degree."""
    if d < 3:
        raise ValueError("need degree >= 3")
    k_min = next_integer_above(Fraction(5 * d, 6) - 3)
    if k_min < 0:
        k_min = 0
    return CuspBound(k_min, (k_min + 1) * (k_min + 2) // 2)


class StarCondition(NamedTuple):
    rho_gt_4: bool
    sqrt_inequality: bool
    branch: str

    @property
    def holds(self) -> bool:
        return self.rho_gt_4 and self.sqrt_inequality


class MatsusakaThresholds(NamedTuple):
    m_free: int
    m_very_ample: int
    rho: Callable[[int], Fraction]
    a: Fraction
    b: Fraction
    clamped: bool
    note: str | None

    def star(self, m: int) -> StarCondition:
        """Exact-squaring check of the working condition: rho(m) > 4 and
        L.B_m - sqrt((rho(m) - 4) L^2) < 1, with L.B_m = (m+3)a - b.

        The comparison u - sqrt(v) < 1 splits into sign branches: when
        u - 1 < 0 it holds outright (v >= 0), otherwise it is equivalent to
        (u - 1)^2 < v."""
        rho_m = self.rho(m)
        if rho_m <= 4:
            return StarCondition(False, False, "rho(m) <= 4")
        u = (m + 3) * self.a - self.b
        v = (rho_m - 4) * self.a
        if u - 1 < 0:
            return StarCondition(True, True, "L.B_m < 1: inequality automatic")
        return StarCondition(True, (u - 1) ** 2 < v, "squared comparison")


def matsusaka_thresholds(a: Fraction, b: Fraction) -> MatsusakaThresholds:
    """Effective power thresholds from a = L^2 and b = (K + 4L).L: mL is
    globally generated once m > (b+1)^2/(2a) - 1 and very ample once
    m > (b+1)^2/(2a) + 1, with rho(m) = (m+3)^2 a - 2(m+3) b the section
    count driving the construction."""
    a = Fraction(a)
    b = Fraction(b)
    if a < 1:
        raise ValueError("need a = L^2 >= 1")
    pivot = Fraction((b + 1) ** 2, 2 * a)
    m_free = next_integer_above(pivot - 1)
    m_very = next_integer_above(pivot + 1)
    clamped = False
    note = None
    if m_free < 1:
        # m indexes a tensor power
        m_free = 1
        clamped = True
        note = "formula gave m_free <= 0; clamped to 1 (m indexes a tensor power)"
    if m_very < 1:
        m_very = 1
        clamped = True

    def rho(m: int) -> Fraction:
        return (m + 3) ** 2 * a - 2 * (m + 3) * b

    return MatsusakaThresholds(m_free, m_very, rho, a, b, clamped, note)


def singularity_production_check(
    model: SurfaceModel,
    l: DivisorClass,
    s: int,
    point: str | None = None,
) -> CertificateReport:
    """Thresholds under which some |kL| member acquires an almost isolated
    singularity of index > s+2 at the point: L^2 >= (s+2)^2 + 1 and
    L.C >= s^2 + 3s + 3 for curves through the point.

    The fixed-part bound behind the statement needs f_s(L^2) < s^2 + 3s + 3
    for f_s(x) = x - sqrt(x(x - (s+2)^2)); this is certified here by exact
    squaring.  The alternate s = 0 route (L^2 >= 5 with L.C >= 5 for all
    curves) and the very-ampleness preset (L^2 >= 10, L.C >= 7) are
    reported alongside.
    """
    if s < 0:
        raise ValueError("need s >= 0")
    report = CertificateReport(HYPOTHESES_FAIL)
    nef = is_nef_on_table(model, l)
    if not report.check("L nef on table", "yes" if nef.nef else "no", "", nef.nef):
        return report

    l2 = self_int(model, l)
    sq = (s + 2) ** 2 + 1
    deg = s * s + 3 * s + 3
    ok = report.check(f"L^2 >= {sq}", l2, sq, l2 >= sq)

    if point is None:
        relevant = list(model.curves)
        label = "all curves"
    else:
        relevant = [c for c in model.curves if c.mult_at(point) > 0]
        label = f"curves through {point!r}"
    min_lc, min_name = min_intersection(model, l, relevant)
    have_curves = min_lc is not None
    ok = (
        report.check(
            f"min L.C >= {deg} over {label} (min at {min_name})",
            fmt_q(min_lc) if have_curves else "no incident curves",
            deg,
            (not have_curves) or min_lc >= deg,
        )
        and ok
    )
    if not have_curves:
        report.note(f"no {label} in the table; degree condition is vacuous there")

    if l2 >= sq:
        # f_s(L^2) < deg  <=>  L^2 - deg < sqrt(L^2 (L^2 - (s+2)^2));
        # left side may be negative (then automatic), else square both sides
        lhs = l2 - deg
        rhs_sq = l2 * (l2 - (s + 2) ** 2)
        fs_ok = lhs < 0 or lhs * lhs < rhs_sq
        report.check(
            f"f_{s}(L^2) < {deg} (exact squaring: {fmt_q(lhs)}^2 < {fmt_q(rhs_sq)})",
            lhs * lhs if lhs >= 0 else lhs,
            rhs_sq,
            fs_ok,
        )

    # alternate and companion statements
    all_values = [intersect(model, l, c.klass) for c in model.curves]
    min_all = min(all_values, default=None)
    if s == 0:
        alt = l2 >= 5 and min_all is not None and min_all >= 5
        report.check(
            "alternate s=0 route: L^2 >= 5 and L.C >= 5 for all curves",
            f"L^2 = {fmt_q(l2)}, min L.C = {fmt_q(min_all) if min_all is not None else 'n/a'}",
            "",
            alt,
        )
        if ok or alt:
            report.note(
                "consequence for s = 0: the adjoint series of L has a section "
                f"not vanishing at {point!r}" if point else
                "consequence for s = 0: the adjoint series of L has a section "
                "not vanishing at the point"
            )
    va_preset = l2 >= 10 and min_all is not None and min_all >= 7
    report.check(
        "very-ampleness preset: L^2 >= 10 and L.C >= 7 for all curves",
        f"L^2 = {fmt_q(l2)}, min L.C = {fmt_q(min_all) if min_all is not None else 'n/a'}",
        "",
        va_preset,
    )
    if va_preset:
        report.note("adjoint series of L is very ample under the preset")

    report.verdict = HOLDS if ok else HYPOTHESES_FAIL
    return report


class MovingPartSample(NamedTuple):
    k: int
    mk2: Fraction
    required: Fraction
    holds: bool


def moving_part_inequality_check(
    rho: Fraction, samples: Sequence[tuple[int, Fraction]], slack: Fraction = Fraction(0)
) -> list[MovingPartSample]:
    """Verify externally supplied moving-part self-intersections against
    M_k^2 >= rho k^2 - slack*k.  The sub-quadratic error term has no
    explicit constant, so the caller chooses the linear slack."""
    rho = Fraction(rho)
    slack = Fraction(slack)
    if rho <= 0:
        raise ValueError("need rho > 0")
    if slack < 0:
        raise ValueError("slack must be >= 0")
    out = []
    for k, mk2 in samples:
        required = rho * k * k - slack * k
        mk2 = Fraction(mk2)
        out.append(MovingPartSample(k, mk2, required, mk2 >= required))
    return out


def divisor_existence_k(
    model: SurfaceModel, l: DivisorClass, s: int, k_max: int = 64
) -> tuple[int | None, str]:
    """Least k with chi(kL) > binom((s+2)k + 2, 2), i.e. where the section
    count forces a member of |kL| with multiplicity > (s+2)k at a chosen
    point, provided h^2(kL) = 0."""
    from .lattice import euler_characteristic

    for k in range(1, k_max + 1):
        chi = euler_characteristic(model, k * l)
        n = (s + 2) * k + 2
        conditions = n * (n - 1) // 2
        if chi > conditions:
            return k, "divisor exists provided h^2(kL) = 0"
    return None, f"no k <= {k_max} makes the count positive"
