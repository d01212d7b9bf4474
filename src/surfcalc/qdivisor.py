"""Formal Q-divisors: rational combinations of named prime components.

Round-up, round-down and fractional part act coefficient-wise on the
formal representation, never on the numerical class: rounding does not
respect numerical equivalence, so `class_of` is a strictly one-way
projection.  Components with equal classes but different names stay
distinct (two prime divisors can be numerically equivalent).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping

from .lattice import DimensionMismatch, DivisorClass, SurfaceModel, _Frozen
from .rational import ceil_q, floor_q, fmt_q, parse_q


class PrimeComponent(_Frozen):
    """A named prime divisor with its class and point multiplicities."""

    name: str
    klass: DivisorClass
    point_mults: Mapping[str, int]

    def __init__(self, name, klass, point_mults=None):
        self._init(name, klass, {} if point_mults is None else point_mults)

    def mult_at(self, point: str) -> int:
        return self.point_mults.get(point, 0)


def component_of(record) -> PrimeComponent:
    """View a table CurveRecord as a prime component."""
    return PrimeComponent(record.name, record.klass, dict(record.point_mults))


class QDivisor:
    """sum(a_i D_i) with exact rational a_i and pairwise distinct D_i names.

    Zero-coefficient terms are normalized away; negative coefficients are
    allowed (intermediate expressions need them), and the criteria that
    require effectivity reject them explicitly.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[Fraction, PrimeComponent]] = ()):
        merged: dict[str, tuple[Fraction, PrimeComponent]] = {}
        for coeff, comp in terms:
            coeff = Fraction(coeff)
            if comp.name in merged:
                prev_coeff, prev_comp = merged[comp.name]
                if prev_comp is not comp and prev_comp != comp:
                    raise ValueError(
                        f"component name {comp.name!r} used for two different divisors"
                    )
                merged[comp.name] = (prev_coeff + coeff, prev_comp)
            else:
                merged[comp.name] = (coeff, comp)
        object.__setattr__(
            self,
            "terms",
            tuple((c, comp) for c, comp in merged.values() if c != 0),
        )

    def __setattr__(self, *args):
        raise AttributeError("QDivisor is immutable")

    # -- basic structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_effective(self) -> bool:
        return all(c >= 0 for c, _ in self.terms)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c, _ in self.terms)

    def coefficient(self, name: str) -> Fraction:
        for c, comp in self.terms:
            if comp.name == name:
                return c
        return Fraction(0)

    def components(self) -> tuple[PrimeComponent, ...]:
        return tuple(comp for _, comp in self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QDivisor):
            return NotImplemented
        return sorted(
            ((comp.name, c) for c, comp in self.terms)
        ) == sorted((comp.name, c) for c, comp in other.terms)

    def __hash__(self):
        return hash(tuple(sorted((comp.name, c) for c, comp in self.terms)))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for c, comp in self.terms:
            parts.append(f"{fmt_q(c)}*{comp.name}" if c != 1 else comp.name)
        return " + ".join(parts)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "QDivisor") -> "QDivisor":
        return QDivisor(tuple(self.terms) + tuple(other.terms))

    def __sub__(self, other: "QDivisor") -> "QDivisor":
        return self + (-other)

    def __neg__(self) -> "QDivisor":
        return QDivisor((-c, comp) for c, comp in self.terms)

    def __mul__(self, scalar) -> "QDivisor":
        s = Fraction(scalar)
        return QDivisor((s * c, comp) for c, comp in self.terms)

    __rmul__ = __mul__


def round_up(m: QDivisor) -> QDivisor:
    """Coefficient-wise least integer >= a_i; component identities kept."""
    return QDivisor((Fraction(ceil_q(c)), comp) for c, comp in m.terms)


def round_down(m: QDivisor) -> QDivisor:
    """Coefficient-wise greatest integer <= a_i (the integer part)."""
    return QDivisor((Fraction(floor_q(c)), comp) for c, comp in m.terms)


def fractional_part(m: QDivisor) -> QDivisor:
    """M - [M]; every coefficient lands in [0, 1)."""
    return m - round_down(m)


def mult_at(m: QDivisor, point: str) -> Fraction:
    """mult_x(M) = sum(a_i mult_x(D_i)); missing entries count as 0."""
    return sum((c * comp.mult_at(point) for c, comp in m.terms), Fraction(0))


def class_of(model: SurfaceModel, m: QDivisor) -> DivisorClass:
    """Numerical class sum(a_i [D_i]); one-way, does not commute with rounding."""
    total = DivisorClass.zero(model.rank)
    for c, comp in m.terms:
        if comp.klass.rank != model.rank:
            raise DimensionMismatch(
                f"component {comp.name!r} lives in a rank-{comp.klass.rank} lattice, "
                f"surface has rank {model.rank}"
            )
        total = total + c * comp.klass
    return total


# ---------------------------------------------------------------------------
# literal syntax: "3/4*C1 + 1/2*C2 - 2*E"

_TERM_RE = re.compile(
    r"""^\s*(?P<coeff>-?\d+(?:/\d+)?)?\s*\*?\s*(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*$"""
)


def parse_qdivisor(text: str, namespace: Mapping[str, PrimeComponent]) -> QDivisor:
    """Parse a Q-divisor literal against a set of named components.

    Terms are separated by top-level + and -; each is [p[/q]][*]NAME.
    """
    s = text.strip()
    if not s or s == "0":
        return QDivisor()
    # split keeping signs: normalize leading sign, then split on +/-
    chunks: list[tuple[int, str]] = []
    sign = 1
    token = ""
    for ch in s:
        if ch in "+-":
            if token.strip():
                chunks.append((sign, token))
            sign = 1 if ch == "+" else -1
            token = ""
        else:
            token += ch
    if token.strip():
        chunks.append((sign, token))
    terms = []
    for sgn, chunk in chunks:
        match = _TERM_RE.match(chunk)
        if not match:
            raise ValueError(f"cannot parse Q-divisor term {chunk.strip()!r}")
        coeff = parse_q(match.group("coeff")) if match.group("coeff") else Fraction(1)
        name = match.group("name")
        if name not in namespace:
            raise ValueError(f"unknown component {name!r}")
        terms.append((sgn * coeff, namespace[name]))
    return QDivisor(terms)


def table_namespace(model: SurfaceModel) -> dict[str, PrimeComponent]:
    """Name->component map built from the surface's curve table."""
    return {record.name: component_of(record) for record in model.curves}
