"""Blow-up bookkeeping: lattice extension, canonical transport, proper
transforms, and the twist classes used for ideal-power cohomology and
Seshadri nef checks.

Blowing up at a point label appends one basis vector E with E^2 = -1,
orthogonal to the pulled-back lattice; K goes to f*K + E and chi(O) is
unchanged.  Each table curve C with multiplicity m at the point transports
to its proper transform f*C - mE; the exceptional curve joins the table
with genus 0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .lattice import (
    CurveRecord,
    DimensionMismatch,
    DivisorClass,
    IntersectionLattice,
    NefVerdict,
    SurfaceModel,
    is_nef_on_table,
    validate_surface,
)


class BlowupModel(NamedTuple):
    base: SurfaceModel
    point: str
    result: SurfaceModel
    exceptional_index: int

    @property
    def exceptional(self) -> DivisorClass:
        return DivisorClass.basis(self.result.rank, self.exceptional_index)


def blow_up(model: SurfaceModel, point: str) -> BlowupModel:
    """Blow up `model` at the point label (which need not occur in any
    curve's multiplicity table; transforms are then plain pullbacks)."""
    report = validate_surface(model)
    if not report.ok:
        bad = ", ".join(c.name for c in report.failures())
        raise ValueError(f"cannot blow up invalid surface ({bad})")
    n = model.rank
    gram = [list(row) + [0] for row in model.lattice.gram]
    gram.append([0] * n + [-1])
    lattice = IntersectionLattice(gram)

    curves = []
    for record in model.curves:
        m = record.mult_at(point)
        klass = DivisorClass(tuple(record.klass.coeffs) + (Fraction(-m),))
        mults = {p: v for p, v in record.point_mults.items() if p != point}
        if record.genus is None:
            genus = None
        elif m <= 1 or record.ordinary:
            # ordinary m-fold point: p_a drops by m(m-1)/2
            genus = record.genus - (m * (m - 1)) // 2
        else:
            genus = None
        curves.append(CurveRecord(record.name, klass, mults, genus, record.ordinary))
    exceptional_name = f"E_{point}"
    if any(c.name == exceptional_name for c in curves):
        raise ValueError(f"curve named {exceptional_name!r} already present")
    curves.append(
        CurveRecord(exceptional_name, DivisorClass.basis(n + 1, n), {}, 0)
    )

    result = SurfaceModel(
        name=f"{model.name}_bl_{point}",
        lattice=lattice,
        canonical=DivisorClass(tuple(model.canonical.coeffs) + (Fraction(1),)),
        chi_O=model.chi_O,
        curves=curves,
        # new (-1)-curves can enter the effective cone, so completeness
        # declarations do not survive a blow-up
        complete_through=None,
    )
    return BlowupModel(model, point, result, n)


def pullback(bm: BlowupModel, d: DivisorClass) -> DivisorClass:
    """f*D: append exceptional coefficient 0."""
    if d.rank != bm.base.rank:
        raise DimensionMismatch(f"expected a rank-{bm.base.rank} class on the base")
    return DivisorClass(tuple(d.coeffs) + (Fraction(0),))


def pushforward(bm: BlowupModel, d: DivisorClass) -> DivisorClass:
    """f_*D': drop the exceptional coordinate (inverse to pullback)."""
    if d.rank != bm.result.rank:
        raise DimensionMismatch(f"expected a rank-{bm.result.rank} class on the blow-up")
    return DivisorClass(d.coeffs[: bm.exceptional_index] + d.coeffs[bm.exceptional_index + 1 :])


class JetTwist(NamedTuple):
    klass: DivisorClass
    r: int
    r_zero_convention: bool


def jet_twist(bm: BlowupModel, l: DivisorClass, r: int) -> JetTwist:
    """f*L - (r+1)E, whose K-adjoint computes cohomology of K+L twisted by
    the r-th power of the point's ideal.

    The identity is stated for r > 0; for r = 0 we still return f*L - E and
    flag the convention rather than guessing an intent.
    """
    if r < 0:
        raise ValueError("jet twist needs r >= 0")
    klass = pullback(bm, l) - (r + 1) * bm.exceptional
    return JetTwist(klass, r, r == 0)


def seshadri_twist_nef_check(bm: BlowupModel, l: DivisorClass, eps: Fraction) -> NefVerdict:
    """Table-relative nefness of f*L - eps*E on the blow-up's curve table
    (proper transforms plus the exceptional curve)."""
    eps = Fraction(eps)
    if eps < 0:
        raise ValueError("eps must be >= 0")
    return is_nef_on_table(bm.result, pullback(bm, l) - eps * bm.exceptional)
