"""Exact rational helpers shared across the toolkit.

Everything numeric in this package is an int or a Fraction.  Floats are
banned outright (sharp inequalities like L^2 >= 5 vs L^2 = 4 decide
verdicts, so no rounding of any kind is tolerated); a source-level test
enforces the ban.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def floor_q(x: Fraction | int) -> int:
    """Largest integer <= x."""
    x = Fraction(x)
    return x.numerator // x.denominator


def ceil_q(x: Fraction | int) -> int:
    """Smallest integer >= x."""
    return -floor_q(-Fraction(x))


def next_integer_above(x: Fraction | int) -> int:
    """Least integer strictly greater than x."""
    return floor_q(x) + 1


def fmt_q(x: Fraction | int) -> str:
    """Serialize a rational as "p" or "p/q" with q > 0 and gcd(p,q)=1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_q(s: str) -> Fraction:
    """Parse "p" or "p/q"; rejects anything else (including floats)."""
    s = s.strip()
    if not RATIONAL_RE.match(s):
        raise ValueError(f"not a rational literal: {s!r}")
    if "/" in s:
        p, q = s.split("/")
        return Fraction(int(p), int(q))
    return Fraction(int(s))


def is_integer(x: Fraction | int) -> bool:
    return Fraction(x).denominator == 1


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def clear_denominators(values: Sequence[Fraction | int]) -> tuple[int, list[int]]:
    """(d, [d*x for x in values]) with d > 0 the least common denominator of
    the rationals in `values`; the scaled entries are ints."""
    d = 1
    for x in values:
        q = x.denominator
        if d % q:
            d = d // _gcd(d, q) * q
    return d, [x.numerator * (d // x.denominator) for x in values]
