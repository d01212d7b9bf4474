"""Structured verdicts with witnesses and exact inequality traces.

Finite curve tables cannot certify universal statements, so every
criterion returns one of four verdicts instead of a boolean:

  criterion-holds    hypotheses verified and no obstruction can exist
                     (requires a completeness declaration on the table)
  obstruction-found  an explicit witness divisor with the obstructing
                     numerical signature
  hypotheses-fail    the criterion's numerical hypotheses do not hold
  inconclusive       no obstruction within the search bound, but the
                     table is not declared complete

Exit codes for the CLI mirror the verdicts (0 / 10 / 12 / 11).
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple

from .lattice import DivisorClass, _Record
from .rational import fmt_q

HOLDS = "criterion-holds"
OBSTRUCTION = "obstruction-found"
HYPOTHESES_FAIL = "hypotheses-fail"
INCONCLUSIVE = "inconclusive"

EXIT_CODES = {HOLDS: 0, OBSTRUCTION: 10, INCONCLUSIVE: 11, HYPOTHESES_FAIL: 12}


class TraceLine(NamedTuple):
    """One evaluated inequality: text, exact left/right values, outcome."""

    check: str
    left: Fraction | int | str
    right: Fraction | int | str
    passed: bool

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "left": _fmt(self.left),
            "right": _fmt(self.right),
            "passed": self.passed,
        }


class Witness(NamedTuple):
    """An obstruction class with its re-verifiable numerical signature."""

    label: str
    klass: DivisorClass
    dot_l: Fraction
    self_intersection: Fraction
    mult_at_point: int | None = None

    @property
    def signature(self) -> tuple[Fraction, Fraction]:
        return (self.dot_l, self.self_intersection)

    def to_json(self) -> dict:
        data = {
            "label": self.label,
            "class": [fmt_q(c) for c in self.klass.coeffs],
            "dot_L": fmt_q(self.dot_l),
            "self_intersection": fmt_q(self.self_intersection),
        }
        if self.mult_at_point is not None:
            data["mult_at_point"] = self.mult_at_point
        return data


class CertificateReport(_Record):
    verdict: str
    witnesses: list[Witness]
    trace: list[TraceLine]
    notes: list[str]
    bound: int | None

    def __init__(self, verdict, witnesses=None, trace=None, notes=None, bound=None):
        self._init(verdict, *([] if x is None else x for x in (witnesses, trace, notes)), bound)
        if self.verdict not in EXIT_CODES:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == OBSTRUCTION and not self.witnesses:
            raise ValueError("obstruction-found requires at least one witness")

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.verdict]

    def check(self, text: str, left, right, passed: bool) -> bool:
        self.trace.append(TraceLine(text, left, right, passed))
        return passed

    def note(self, text: str) -> None:
        self.notes.append(text)

    def to_json(self) -> dict:
        data = {
            "verdict": self.verdict,
            "witnesses": [w.to_json() for w in self.witnesses],
            "trace": [t.to_json() for t in self.trace],
            "notes": list(self.notes),
        }
        if self.bound is not None:
            data["bound"] = self.bound
        return data

    def render(self) -> str:
        return render_text(self.to_json())


def _fmt(value) -> str:
    if isinstance(value, (Fraction, int)):
        return fmt_q(value)
    return str(value)


def render_text(payload: dict) -> str:
    """The text form of a JSON payload: the same fields, one per line, in
    payload order.  A scalar prints as `key: value` (strings bare, other
    scalars as in JSON), a list of scalars as `key: (a, b)`, a nested
    object as `key:` with its lines indented by two spaces, and a list of
    objects as `key:` plus one `  - k: v, k: v` line per object."""
    return "\n".join(_text_lines(payload, ""))


def _text_lines(payload: dict, indent: str):
    for key, value in payload.items():
        if isinstance(value, dict):
            yield f"{indent}{key}:"
            yield from _text_lines(value, indent + "  ")
        elif value and isinstance(value, list) and all(isinstance(v, dict) for v in value):
            yield f"{indent}{key}:"
            for item in value:
                yield f"{indent}  - " + ", ".join(f"{k}: {_inline(v)}" for k, v in item.items())
        else:
            yield f"{indent}{key}: {_inline(value)}"


def _inline(value) -> str:
    if isinstance(value, list):
        return "(" + ", ".join(_inline(v) for v in value) + ")"
    if isinstance(value, str):
        return value
    return json.dumps(value, sort_keys=True)
