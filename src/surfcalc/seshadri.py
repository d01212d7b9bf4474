"""Seshadri constants from curve tables: single- and multi-point bounds,
jet-separation consequences, and the pencil construction that produces
arbitrarily small constants.

The constant at x is the infimum of L.C / mult_x(C) over curves through
x.  A finite table only ever yields an upper bound for the infimum unless
it is declared exhaustive for curves through the point, in which case the
bound is exact.  Only single table curves are scored: for L nef on the
table both L.D and mult_x(D) are additive over D = sum(n_i C_i), so by the
mediant inequality no combination of table curves has a smaller ratio than
the best curve it contains.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .lattice import (
    CurveRecord,
    DivisorClass,
    IntersectionLattice,
    SurfaceModel,
    intersect,
    is_nef_on_table,
    self_int,
)
from .qdivisor import QDivisor, class_of, mult_at


@dataclass(frozen=True)
class SeshadriBound:
    value: Fraction | None
    kind: str                       # upper-bound | exact-given-complete-table | no-data
    achieving_curve: str | None
    note: str | None = None

    @property
    def has_data(self) -> bool:
        return self.value is not None


def _bound_from_table(
    model: SurfaceModel,
    l: DivisorClass,
    curve_mults: Sequence[int],     # multiplicity of each table curve, table order
    covered: bool,
    coeff_bound: int,
) -> SeshadriBound:
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be >= 1")
    candidates = [
        (Fraction(intersect(model, l, record.klass), mult), record.klass.coeffs, record.name)
        for record, mult in zip(model.curves, curve_mults)
        if mult > 0
    ]
    # smallest ratio, then smallest class; of two curves with the same class
    # the later one wins
    found = min(reversed(candidates), key=lambda c: c[:2], default=None)
    if found is None:
        return SeshadriBound(None, "no-data", None, note="no table curve through the point(s)")
    ratio, _, name = found
    kind = "exact-given-complete-table" if covered else "upper-bound"
    return SeshadriBound(ratio, kind, name)


def seshadri_at_point(
    model: SurfaceModel, l: DivisorClass, point: str, coeff_bound: int = 3
) -> SeshadriBound:
    """Minimize L.C / mult_x(C) over table curves with positive
    multiplicity at the point.  `coeff_bound` (>= 1) is accepted for
    compatibility and does not change the value: no bounded combination
    of table curves beats the best single curve."""
    if not is_nef_on_table(model, l):
        raise ValueError("Seshadri bounds need L nef on the table")
    return _bound_from_table(
        model,
        l,
        [record.mult_at(point) for record in model.curves],
        model.covers_point(point),
        coeff_bound,
    )


def multipoint_seshadri(
    model: SurfaceModel, l: DivisorClass, points: Sequence[str], coeff_bound: int = 3
) -> SeshadriBound:
    """Multi-point constant: minimize L.C / sum_i mult_{x_i}(C) over table
    curves.  With a single point this is exactly the one-point bound;
    `coeff_bound` is checked but, as there, does not change the value."""
    points = list(points)
    if len(set(points)) != len(points):
        raise ValueError("points must be distinct")
    if not points:
        raise ValueError("need at least one point")
    if not is_nef_on_table(model, l):
        raise ValueError("Seshadri bounds need L nef on the table")
    covered = all(model.covers_point(p) for p in points)
    bound = _bound_from_table(
        model,
        l,
        [sum(record.mult_at(p) for p in points) for record in model.curves],
        covered,
        coeff_bound,
    )
    if bound.has_data and self_int(model, l) > len(points):
        note = (
            "L^2 exceeds the number of points: at r sufficiently general "
            "points a nef L with L^2 > r has multi-point constant >= 1"
        )
        bound = SeshadriBound(bound.value, bound.kind, bound.achieving_curve, note)
    return bound


class JetVerdict(NamedTuple):
    generates_jets: str          # "yes" | "unknown"
    s: int
    reason: str


def jets_from_seshadri(eps: Fraction, l2: Fraction, s: int) -> JetVerdict:
    """Adjoint series generates s-jets at x when eps > s + 2, or when
    eps = s + 2 with L^2 > (s+2)^2."""
    eps = Fraction(eps)
    if eps < 0:
        raise ValueError("Seshadri constant is >= 0")
    if s < 0:
        raise ValueError("need s >= 0")
    target = s + 2
    if eps > target:
        return JetVerdict("yes", s, f"eps > {target}")
    if eps == target and Fraction(l2) > target * target:
        return JetVerdict("yes", s, f"eps = {target} and L^2 > {target * target}")
    return JetVerdict("unknown", s, "neither clause applies")


class JetSchedule(NamedTuple):
    multiplier: int
    side_condition: str


def adjoint_jet_schedule(s: int) -> JetSchedule:
    """|K + (s+3)A| generates s-jets at x provided eps(A, x) >= 1."""
    if s < 0:
        raise ValueError("need s >= 0")
    return JetSchedule(s + 3, "requires eps(A, x) >= 1 at the point")


class DegreeBoundVerdict(NamedTuple):
    holds: bool
    mult_total: Fraction
    degree: Fraction
    l2_exceeds_points: bool


def multipoint_degree_bound(
    model: SurfaceModel, l: DivisorClass, points: Sequence[str], d: QDivisor
) -> DegreeBoundVerdict:
    """Consequence verifier for the general-position bound: an effective D
    at r general points of a nef L with L^2 > r satisfies
    sum_i mult_{x_i}(D) <= L.D.  A failure certifies the configuration is
    not in general position."""
    if not d.is_effective():
        raise ValueError("D must be effective (non-negative coefficients)")
    points = list(points)
    if len(set(points)) != len(points):
        raise ValueError("points must be distinct")
    total = sum((mult_at(d, p) for p in points), Fraction(0))
    degree = intersect(model, l, class_of(model, d))
    return DegreeBoundVerdict(total <= degree, total, degree, self_int(model, l) > len(points))


# ---------------------------------------------------------------------------
# small-constant construction


class MirandaExample(NamedTuple):
    model: SurfaceModel
    point: str
    l: DivisorClass


def miranda_example(d: int, m: int, a: int) -> MirandaExample:
    """Pencil of degree-d plane curves with an m-fold member: blow up the
    d^2 base points, keep the fiber class D = dH - sum(E_i) (which carries
    the m-fold point x away from the base points) and a section S = E_1.
    Then L = aD + S is ample with L.D = 1, so the Seshadri constant at x is
    at most 1/m; L^2 = 2a - 1 grows with a.
    """
    if d < 3:
        raise ValueError("need d >= 3")
    if not 2 <= m <= d - 1:
        raise ValueError("need 2 <= m <= d-1")
    if a < 2:
        raise ValueError("need a >= 2")
    rank = 1 + d * d
    gram = [[0] * rank for _ in range(rank)]
    gram[0][0] = 1
    for i in range(1, rank):
        gram[i][i] = -1
    canonical = DivisorClass([-3] + [1] * (d * d))
    fiber = DivisorClass([d] + [-1] * (d * d))
    section = DivisorClass.basis(rank, 1)
    point = "x"
    curves = [
        CurveRecord(
            "D",
            fiber,
            {point: m},
            genus=(d - 1) * (d - 2) // 2,
            # the m-fold point is the pencil's only recorded singularity and
            # is taken ordinary
            ordinary=True,
        ),
        CurveRecord("S", section, {}, genus=0),
    ]
    model = SurfaceModel(
        name=f"pencil_deg{d}_mult{m}",
        lattice=IntersectionLattice(gram),
        canonical=canonical,
        chi_O=1,
        curves=curves,
    )
    return MirandaExample(model, point, a * fiber + section)
