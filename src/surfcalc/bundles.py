"""Rank-2 Chern-class calculus: discriminants, twists, extensions,
elementary transformations, destabilizer candidates, and the inequality
chain that pins an obstruction divisor's numerical signature.

The discriminant c1^2 - 4c2 is (up to scale) the unique weight-two Chern
polynomial invariant under twisting; a positive value certifies the
existence of a destabilizing sub-line-bundle.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from typing import NamedTuple

from .lattice import (
    DivisorClass,
    InvariantBreach,
    SurfaceModel,
    _Frozen,
    _Record,
    intersect,
    is_nef_on_table,
    self_int,
)
from .rational import fmt_q
from .report import TraceLine


class ChernData(_Frozen):
    """(rank, c1, c2) with c1 an integral class and c2 an integer."""

    rank: int
    c1: DivisorClass
    c2: int

    def __init__(self, rank, c1, c2):
        self._init(rank, c1, c2)
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.rank == 1 and self.c2 != 0:
            raise ValueError("rank-1 data has c2 = 0")
        if not self.c1.is_integral():
            raise ValueError("c1 must be integral")


def _integral(value: Fraction, what: str) -> int:
    """An intersection number of integral classes is an integer; anything
    else is a bug, reported even when assertions are compiled out."""
    if value.denominator != 1:
        raise InvariantBreach(f"{what} = {fmt_q(value)} is not an integer")
    return int(value)


def discriminant(model: SurfaceModel, e: ChernData) -> Fraction:
    """c1^2 - 4 c2; positive means Bogomolov-unstable."""
    if e.rank != 2:
        raise ValueError(f"discriminant needs rank 2, got rank {e.rank}")
    return self_int(model, e.c1) - 4 * e.c2


def twist(model: SurfaceModel, e: ChernData, n: DivisorClass) -> ChernData:
    """Chern data of E (x) N: c1 + 2N, c2 + c1.N + N^2."""
    if e.rank != 2:
        raise ValueError("twist is implemented for rank 2")
    if not n.is_integral():
        raise ValueError("twisting class must be integral")
    c2 = e.c2 + intersect(model, e.c1, n) + self_int(model, n)
    return ChernData(2, e.c1 + 2 * n, _integral(c2, "c2 of the twist"))


def from_extension(model: SurfaceModel, a: DivisorClass, b: DivisorClass, len_z: int) -> ChernData:
    """Chern data of an extension of B (x) I_Z by A: c1 = A+B, c2 = A.B + len(Z)."""
    if len_z < 0:
        raise ValueError("length(Z) must be >= 0")
    if not (a.is_integral() and b.is_integral()):
        raise ValueError("extension classes must be integral")
    c2 = intersect(model, a, b) + len_z
    return ChernData(2, a + b, _integral(c2, "c2 of the extension"))


def elementary_transformation(
    model: SurfaceModel, v: ChernData, c: DivisorClass, d: int
) -> ChernData:
    """Kernel of a surjection from V onto a degree-d line bundle on the
    curve C: rank unchanged, c1 - [C], c2 - c1.[C] + d."""
    if not c.is_integral():
        raise ValueError("curve class must be integral")
    c2 = v.c2 - intersect(model, v.c1, c) + d
    return ChernData(v.rank, v.c1 - c, _integral(c2, "c2 of the elementary transformation"))


def in_positive_cone(model: SurfaceModel, alpha: DivisorClass, h: DivisorClass) -> bool:
    """Membership in the positive cone: alpha^2 > 0 and alpha.H > 0 for one
    reference class H from the ample component.  Checking against a single H
    suffices: the cone of positive squares has two connected components and
    H singles out the ample one."""
    return self_int(model, alpha) > 0 and intersect(model, alpha, h) > 0


# ---------------------------------------------------------------------------
# destabilizer candidates


class DestabilizerCandidate(NamedTuple):
    klass: DivisorClass
    length_z: int       # c2 - A.(c1 - A), the implied zero-scheme length


class DestabilizerSearchResult(NamedTuple):
    candidates: tuple[DestabilizerCandidate, ...]
    discriminant: Fraction
    bound: int
    inconclusive: bool  # discriminant > 0 but nothing within the bound

    @property
    def classes(self) -> tuple[DivisorClass, ...]:
        return tuple(c.klass for c in self.candidates)


def destabilizer_search(
    model: SurfaceModel, e: ChernData, h: DivisorClass, coeff_bound: int
) -> DestabilizerSearchResult:
    """Scan integral classes A with |coordinates| <= coeff_bound for
    numerically consistent destabilizing sub-line-bundles:

        (2A - c1)^2 > 0,   (2A - c1).H > 0,   A.(c1 - A) <= c2.

    H is a caller-asserted ample class (we sanity-check H^2 > 0 and
    table-nefness only).  The scan covers general integral classes, not
    just effective combinations: destabilizing subsheaves need not be
    effective.  When the discriminant is positive and the scan comes back
    empty, existence is still guaranteed, so the result is flagged
    inconclusive rather than read as stability evidence.

    The scan runs on ints.  With the integer vectors G.c1 and G.h, where
    h is H cleared of denominators (a positive multiple of H, so every
    sign is kept), each class A costs three dot products:

        (2A - c1)^2 = 4(A^2 - A.c1) + c1^2,   (2A - c1).h = 2 A.h - c1.h,
        length(Z) = c2 - A.c1 + A^2,

    and a DivisorClass is built only for a candidate.  The checks before
    the scan also reject a c1 or H of the wrong rank (DimensionMismatch).
    """
    if e.rank != 2:
        raise ValueError("destabilizer search needs rank-2 data")
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be >= 1")
    if self_int(model, h) <= 0:
        raise ValueError("reference class H must have H^2 > 0")
    if not is_nef_on_table(model, h):
        raise ValueError("reference class H is not even nef on the table")

    disc = discriminant(model, e)
    gram = model.lattice.gram
    c1 = e.c1.ints      # c1 is integral
    h_int = h.ints      # a positive multiple of H
    g_c1 = [sum(map(operator.mul, row, c1)) for row in gram]
    g_h = [sum(map(operator.mul, row, h_int)) for row in gram]
    c1_c1 = sum(map(operator.mul, c1, g_c1))
    c1_h = sum(map(operator.mul, c1, g_h))
    candidates = []
    for coeffs in itertools.product(range(-coeff_bound, coeff_bound + 1), repeat=model.rank):
        if 2 * sum(map(operator.mul, coeffs, g_h)) <= c1_h:
            continue
        a_c1 = sum(map(operator.mul, coeffs, g_c1))
        a_a = sum(a * sum(map(operator.mul, row, coeffs)) for a, row in zip(coeffs, gram) if a)
        if 4 * (a_a - a_c1) + c1_c1 <= 0:
            continue
        length = e.c2 - a_c1 + a_a
        if length < 0:
            continue
        candidates.append(
            DestabilizerCandidate(DivisorClass._from_ints(coeffs), _integral(length, "length(Z)"))
        )
    return DestabilizerSearchResult(
        tuple(candidates), disc, coeff_bound, inconclusive=(disc > 0 and not candidates)
    )


# ---------------------------------------------------------------------------
# the Reider inequality chain


FREENESS_PAIRS = ((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(0)))


class ChainReport(_Record):
    """Trace of the obstruction-divisor inequality chain for given (L, D)."""

    all_hold: bool
    trace: list[TraceLine]
    terminal: tuple[Fraction, Fraction] | None   # (L.D, D^2) when classified
    in_window: bool
    first_failure: str | None
    refusal: str | None

    def __init__(self, all_hold, trace=None, terminal=None, in_window=False,
                 first_failure=None, refusal=None):
        trace = [] if trace is None else trace
        self._init(all_hold, trace, terminal, in_window, first_failure, refusal)


def reider_chain_verify(
    model: SurfaceModel, l: DivisorClass, d: DivisorClass, c2: int = 1
) -> ChainReport:
    """Evaluate the chain that constrains an obstruction divisor D:

        (L - 2D).L > 0
        (L^2)(D^2) <= (L.D)^2
        (L - D).D <= c2
        2 D^2 < L.D

    and classify (L.D, D^2) against the terminal dichotomy {(0,-1), (1,0)}
    for c2 = 1, or the window L.D - c2 <= D^2 < (L.D)/2 for c2 > 1.
    """
    report = ChainReport(all_hold=False)
    if c2 < 1:
        report.refusal = "c2 must be >= 1"
        return report
    if not (l.is_integral() and d.is_integral()):
        report.refusal = "L and D must be integral classes"
        return report
    if not is_nef_on_table(model, l):
        report.refusal = "L is not nef on the table"
        return report
    l2 = self_int(model, l)
    threshold = 5 if c2 == 1 else 4 * c2 + 1
    if l2 < threshold:
        report.refusal = f"L^2 = {fmt_q(l2)} < {threshold} (needs L^2 - 4*c2 > 0)"
        return report

    ld = intersect(model, l, d)
    d2 = self_int(model, d)
    steps = [
        # D effective and L nef force L.D >= 0; without it the terminal
        # dichotomy admits spurious integer solutions
        ("L.D >= 0", ld, Fraction(0), ld >= 0),
        ("(L - 2D).L > 0", l2 - 2 * ld, Fraction(0), (l2 - 2 * ld) > 0),
        ("(L^2)(D^2) <= (L.D)^2", l2 * d2, ld * ld, l2 * d2 <= ld * ld),
        (f"(L - D).D <= {c2}", ld - d2, Fraction(c2), (ld - d2) <= c2),
        ("2 D^2 < L.D", 2 * d2, ld, 2 * d2 < ld),
    ]
    for text, left, right, ok in steps:
        report.trace.append(TraceLine(text, left, right, ok))
        if not ok:
            report.first_failure = text
            return report
    report.all_hold = True
    if c2 == 1:
        pair = (ld, d2)
        if pair in FREENESS_PAIRS:
            report.terminal = pair
        else:
            # combining the last two steps leaves no other integer point
            raise InvariantBreach(
                f"chain held but (L.D, D^2) = ({fmt_q(ld)}, {fmt_q(d2)}) "
                "is outside the terminal dichotomy"
            )
    else:
        report.in_window = (ld - c2 <= d2) and (2 * d2 < ld)
        report.terminal = (ld, d2)
    return report


# ---------------------------------------------------------------------------
# curve-theoretic counts


def brill_noether_rho(g: int, r: int, d: int) -> int:
    """Expected dimension g - (r+1)(g - d + r) of the family of degree-d
    line bundles with r+1 sections on a genus-g curve."""
    if g < 0 or r < 0:
        raise ValueError("need g >= 0 and r >= 0")
    return g - (r + 1) * (g - d + r)


def k3_end_euler(r: int, d: int, g: int) -> int:
    """chi(End E) for the rank-(r+1) bundle attached to a degree-d pencil
    datum on a genus-g curve in a K3 surface, computed two independent ways:
    Riemann-Roch with c1^2 = 2g - 2, c2 = d, and the count 2 - 2*rho.
    The two must agree identically."""
    if r < 1:
        raise ValueError("need r >= 1")
    if g < 2:
        raise ValueError("need g >= 2")
    via_rr = 2 * (r + 1) ** 2 - 2 * (r + 1) * d + 2 * r * (g - 1)
    via_rho = 2 - 2 * brill_noether_rho(g, r, d)
    if via_rr != via_rho:
        raise InvariantBreach(
            f"chi(End) mismatch: Riemann-Roch {via_rr} vs 2 - 2*rho {via_rho}"
        )
    return via_rr


def gonality_bound(degrees) -> int:
    """Minimum degree (a1 - 1) a2 ... a_{r-1} of a basepoint-free pencil on
    a smooth complete intersection of the given hypersurface degrees."""
    degrees = list(degrees)
    if not degrees:
        raise ValueError("need at least one degree")
    if any(a < 2 for a in degrees):
        raise ValueError("all degrees must be >= 2")
    if degrees != sorted(degrees):
        raise ValueError("degrees must be sorted ascending")
    product = 1
    for a in degrees[1:]:
        product *= a
    return (degrees[0] - 1) * product
