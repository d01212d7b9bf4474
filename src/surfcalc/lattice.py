"""Exact intersection theory on a surface's Neron-Severi lattice.

The central objects are a symmetric integer Gram matrix of signature
(1, rank-1), divisor classes as vectors of exact rationals, and a finite
table of curve classes that stands in for the effective cone.  All
verdicts that quantify over "every irreducible curve" are therefore
*table-relative*; a surface model may declare its table complete (for
specific point labels, or globally with the label "*"), which upgrades
table verdicts to certificates.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .rational import clear_denominators, fmt_q

COMPLETE_EVERYWHERE = "*"


class DimensionMismatch(ValueError):
    """Classes from different lattices never combine."""


class NonIntegralDivisor(ValueError):
    """Operation requires a divisor class with integer coordinates."""


class InvariantBreach(RuntimeError):
    """An internal consistency assertion failed; always a bug."""


class _Record:
    """Repr and value equality (same type only) by the fields, for the
    records that write their own __init__.  As in a dataclass, the fields
    are the annotated attributes, in order."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__) or cls._fields

    def _init(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"


class _Frozen(_Record):
    """A _Record that hashes by value and rejects assignment."""

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


def _as_fraction_tuple(coeffs: Iterable) -> tuple[Fraction, ...]:
    # a Fraction is immutable, so one that comes in is shared, not copied
    return tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs)


class DivisorClass(_Frozen):
    """Vector of exact rational coordinates in a fixed lattice basis."""

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable):
        object.__setattr__(self, "coeffs", _as_fraction_tuple(coeffs))

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    @functools.cached_property
    def _scaled(self) -> tuple[int, list[int]]:
        """(d, d * coeffs): a common denominator d > 0 of the coordinates
        (the least one unless set by effective_combinations) and the integer
        vector it clears them to."""
        return clear_denominators(self.coeffs)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _check_same_rank(self, other: "DivisorClass") -> None:
        if self.rank != other.rank:
            raise DimensionMismatch(
                f"rank {self.rank} vs rank {other.rank} classes cannot combine"
            )

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_same_rank(other)
        return DivisorClass(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_same_rank(other)
        return DivisorClass(a - b for a, b in zip(self.coeffs, other.coeffs))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(-a for a in self.coeffs)

    def __mul__(self, scalar) -> "DivisorClass":
        s = Fraction(scalar)
        return DivisorClass(s * a for a in self.coeffs)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return "(" + ", ".join(fmt_q(c) for c in self.coeffs) + ")"

    @staticmethod
    def zero(rank: int) -> "DivisorClass":
        return DivisorClass([0] * rank)

    @staticmethod
    def basis(rank: int, index: int) -> "DivisorClass":
        coeffs = [0] * rank
        coeffs[index] = 1
        return DivisorClass(coeffs)


class IntersectionLattice(_Frozen):
    """rank x rank symmetric integer matrix of basis intersection numbers."""

    rank: int
    gram: tuple[tuple[int, ...], ...]

    def __init__(self, gram: Sequence[Sequence[int]]):
        rows = tuple(tuple(entry for entry in row) for row in gram)
        self._init(len(rows), rows)

    def structural_errors(self) -> list[str]:
        errors = []
        if self.rank == 0:
            errors.append("empty Gram matrix")
            return errors
        for i, row in enumerate(self.gram):
            if len(row) != self.rank:
                errors.append(f"row {i} has length {len(row)}, expected {self.rank}")
        if errors:
            return errors
        for i in range(self.rank):
            for j in range(self.rank):
                entry = self.gram[i][j]
                if type(entry) is not int:
                    errors.append(f"entry ({i},{j}) is not an integer")
        if errors:
            return errors
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                if self.gram[i][j] != self.gram[j][i]:
                    errors.append(f"gram[{i}][{j}] != gram[{j}][{i}]")
        return errors

    def pair(self, a: DivisorClass, b: DivisorClass) -> Fraction:
        if a.rank != self.rank or b.rank != self.rank:
            raise DimensionMismatch(
                f"classes of rank {a.rank}/{b.rank} on a rank-{self.rank} lattice"
            )
        # a.b = (da*a).(db*b) / (da*db): the Gram form runs on ints only
        da, va = a._scaled
        db, vb = b._scaled
        total = 0
        for ai, row in zip(va, self.gram):
            if ai:
                total += ai * sum(map(operator.mul, row, vb))
        return Fraction(total, da * db)

    def inertia(self) -> tuple[int, int, int, list[tuple[DivisorClass, Fraction]]]:
        """Exact inertia (n_pos, n_neg, n_zero) of the Gram matrix.

        Symmetric congruence reduction over Q (no eigensolvers).  Also
        returns the diagonalizing basis as pairs (vector, self-intersection),
        so failures can be witnessed by an explicit vector of wrong-sign
        square.
        """
        n = self.rank
        m = [[Fraction(x) for x in row] for row in self.gram]
        basis = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]

        def add_row(i, j, c):
            # basis_i += c * basis_j, applied symmetrically to the form
            for k in range(n):
                m[i][k] += c * m[j][k]
            for k in range(n):
                m[k][i] += c * m[k][j]
            for k in range(n):
                basis[i][k] += c * basis[j][k]

        def swap(i, j):
            m[i], m[j] = m[j], m[i]
            for k in range(n):
                m[k][i], m[k][j] = m[k][j], m[k][i]
            basis[i], basis[j] = basis[j], basis[i]

        diag: list[Fraction] = []
        for k in range(n):
            if m[k][k] == 0:
                pivot = next((j for j in range(k + 1, n) if m[j][j] != 0), None)
                if pivot is not None:
                    swap(k, pivot)
                else:
                    off = next((j for j in range(k + 1, n) if m[k][j] != 0), None)
                    if off is not None:
                        add_row(k, off, Fraction(1))
            if m[k][k] == 0:
                diag.append(Fraction(0))
                continue
            for j in range(k + 1, n):
                if m[j][k] != 0:
                    add_row(j, k, -m[j][k] / m[k][k])
            diag.append(m[k][k])

        vectors = [DivisorClass(basis[k]) for k in range(n)]
        # sanity: each basis vector must reproduce its diagonal entry
        for v, d in zip(vectors, diag):
            if self.pair(v, v) != d:
                raise InvariantBreach("congruence reduction lost exactness")
        n_pos = sum(1 for d in diag if d > 0)
        n_neg = sum(1 for d in diag if d < 0)
        n_zero = n - n_pos - n_neg
        return n_pos, n_neg, n_zero, list(zip(vectors, diag))


class CurveRecord(_Frozen):
    """A curve class declared effective by its presence in the table.

    point_mults maps point labels to mult_x(C); genus, when present, is the
    arithmetic genus and must match adjunction.  `ordinary` marks all
    recorded singular points as ordinary (used by blow-up genus transport).
    """

    name: str
    klass: DivisorClass
    point_mults: Mapping[str, int]
    genus: int | None
    ordinary: bool

    def __init__(self, name, klass, point_mults=None, genus=None, ordinary=True):
        # a fresh dict for each record that omits it, not one shared default
        self._init(name, klass, {} if point_mults is None else point_mults, genus, ordinary)

    def mult_at(self, point: str) -> int:
        return self.point_mults.get(point, 0)


class SurfaceModel(_Frozen):
    """A surface's numeric shadow: lattice, canonical class, chi(O), curves."""

    name: str
    lattice: IntersectionLattice
    canonical: DivisorClass
    chi_O: int
    curves: tuple[CurveRecord, ...]
    complete_through: tuple[str, ...] | None

    def __init__(self, name, lattice, canonical, chi_O, curves=(), complete_through=None):
        self._init(name, lattice, canonical, chi_O, tuple(curves),
                   None if complete_through is None else tuple(complete_through))

    @property
    def rank(self) -> int:
        return self.lattice.rank

    def curve(self, name: str) -> CurveRecord:
        for record in self.curves:
            if record.name == name:
                return record
        raise KeyError(f"no curve named {name!r} in surface {self.name!r}")

    def cone_complete(self) -> bool:
        """True when the table is declared to generate the effective cone
        (label "*" in complete_through): global class searches upgrade to
        certificates."""
        return bool(self.complete_through) and COMPLETE_EVERYWHERE in self.complete_through

    def covers_point(self, point: str) -> bool:
        """True when the table is declared exhaustive for curves through
        `point`, multiplicities included.  Requires the explicit label:
        cone completeness alone says nothing about multiplicity data at an
        unrecorded point."""
        return bool(self.complete_through) and point in self.complete_through


# ---------------------------------------------------------------------------
# validation


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str
    witness: DivisorClass | None = None


class ValidationReport(NamedTuple):
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def structural_ok(self) -> bool:
        return all(c.passed for c in self.checks if c.name.startswith("structure"))

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def validate_surface(model: SurfaceModel) -> ValidationReport:
    """Run every model invariant; never raises on bad data.

    Structural problems (malformed matrix, wrong lengths) are reported as
    `structure:*` checks, distinct from mathematical failures (signature,
    parity, genus).  Mathematical checks are skipped when the structure is
    too broken to evaluate them.
    """
    checks: list[CheckResult] = []
    lattice = model.lattice
    struct = lattice.structural_errors()
    checks.append(
        CheckResult(
            "structure:gram",
            not struct,
            "; ".join(struct) if struct else "square symmetric integer matrix",
        )
    )

    k_ok = model.canonical.rank == lattice.rank and model.canonical.is_integral()
    checks.append(
        CheckResult(
            "structure:canonical",
            k_ok,
            "integral class of matching rank"
            if k_ok
            else f"canonical class {model.canonical!r} must be integral of rank {lattice.rank}",
        )
    )

    chi_ok = type(model.chi_O) is int
    checks.append(
        CheckResult(
            "structure:chi_O", chi_ok, "integer" if chi_ok else "chi_O must be an integer"
        )
    )

    names = [c.name for c in model.curves]
    distinct = len(names) == len(set(names))
    checks.append(
        CheckResult(
            "structure:curve-names",
            distinct,
            "distinct" if distinct else "duplicate curve names in table",
        )
    )
    for record in model.curves:
        good = record.klass.rank == lattice.rank and record.klass.is_integral()
        mults_good = all(
            type(m) is int and m >= 0 for m in record.point_mults.values()
        )
        checks.append(
            CheckResult(
                f"structure:curve:{record.name}",
                good and mults_good,
                "integral class, non-negative multiplicities"
                if good and mults_good
                else "curve class must be integral of matching rank with mults >= 0",
            )
        )

    if not all(c.passed for c in checks):
        return ValidationReport(tuple(checks))

    n_pos, n_neg, n_zero, diag_basis = lattice.inertia()
    sig_ok = n_pos == 1 and n_zero == 0
    witness = None
    if not sig_ok:
        if n_pos >= 2:
            positives = [v for v, d in diag_basis if d > 0]
            witness = positives[1]
            detail = (
                f"found {n_pos} positive directions; second one {witness!r} has "
                f"square {fmt_q(lattice.pair(witness, witness))} > 0"
            )
        elif n_zero > 0:
            witness = next(v for v, d in diag_basis if d == 0)
            detail = f"degenerate form: {witness!r} has square 0"
        else:
            detail = "no positive direction: form is negative definite"
        checks.append(CheckResult("signature", False, detail, witness))
    else:
        checks.append(
            CheckResult("signature", True, f"type (+, {'-, ' * (n_neg - 1)}-)" if n_neg else "type (+)")
        )

    # canonical class is characteristic: e_i^2 = e_i.K (mod 2), which forces
    # D^2 + D.K even for every integral D
    parity_ok = True
    for i in range(lattice.rank):
        e = DivisorClass.basis(lattice.rank, i)
        if (lattice.pair(e, e) - lattice.pair(e, model.canonical)) % 2 != 0:
            parity_ok = False
            checks.append(
                CheckResult(
                    "parity",
                    False,
                    f"basis class e_{i}: e^2 = {fmt_q(lattice.pair(e, e))} and "
                    f"e.K = {fmt_q(lattice.pair(e, model.canonical))} differ mod 2",
                    e,
                )
            )
            break
    if parity_ok:
        checks.append(CheckResult("parity", True, "e_i^2 = e_i.K (mod 2) for all basis classes"))

    for record in model.curves:
        if record.genus is None:
            continue
        c2 = lattice.pair(record.klass, record.klass)
        ck = lattice.pair(record.klass, model.canonical)
        expected = 1 + Fraction(c2 + ck, 2)
        good = expected == record.genus and expected.denominator == 1 and expected >= 0
        checks.append(
            CheckResult(
                f"genus:{record.name}",
                good,
                f"adjunction gives {fmt_q(expected)}, table says {record.genus}"
                if not good
                else f"genus {record.genus} matches adjunction",
            )
        )

    return ValidationReport(tuple(checks))


# ---------------------------------------------------------------------------
# intersection numbers and Riemann-Roch


def intersect(model: SurfaceModel, a: DivisorClass, b: DivisorClass) -> Fraction:
    """Exact intersection number a.b in the model's lattice."""
    return model.lattice.pair(a, b)


def self_int(model: SurfaceModel, a: DivisorClass) -> Fraction:
    return model.lattice.pair(a, a)


def euler_characteristic(model: SurfaceModel, d: DivisorClass) -> int:
    """chi(O_X(D)) = chi(O_X) + D.(D - K)/2 for integral D.

    Integrality of the result is guaranteed by adjunction parity on a valid
    model and is asserted here.
    """
    if not d.is_integral():
        raise NonIntegralDivisor(f"Riemann-Roch needs an integral class, got {d!r}")
    value = model.chi_O + Fraction(intersect(model, d, d - model.canonical), 2)
    if value.denominator != 1:
        raise InvariantBreach(
            f"chi({d!r}) = {fmt_q(value)} is not an integer; canonical class not characteristic?"
        )
    return int(value)


# ---------------------------------------------------------------------------
# table-relative positivity


class NefVerdict(NamedTuple):
    nef: bool
    violating: str | None = None           # first offending curve, table order
    value: Fraction | None = None          # D.C for the violator
    certified: bool = False                # table declared to generate the cone

    def __bool__(self) -> bool:
        return self.nef


class BigNefVerdict(NamedTuple):
    big_nef: bool
    nef: NefVerdict
    self_intersection: Fraction

    def __bool__(self) -> bool:
        return self.big_nef


def is_nef_on_table(model: SurfaceModel, d: DivisorClass) -> NefVerdict:
    """D.C >= 0 against every table curve; a certificate of genuine nefness
    only when the table generates the effective cone."""
    for record in model.curves:
        value = intersect(model, d, record.klass)
        if value < 0:
            return NefVerdict(False, record.name, value, model.cone_complete())
    return NefVerdict(True, None, None, model.cone_complete())


def min_intersection(
    model: SurfaceModel, d: DivisorClass, curves: Iterable[CurveRecord]
) -> tuple[Fraction, str] | tuple[None, None]:
    """(D.C, name) for the table curve C among `curves` with the smallest
    D.C, ties going to the smaller name; (None, None) when `curves` is
    empty."""
    return min(
        ((intersect(model, d, c.klass), c.name) for c in curves), default=(None, None)
    )


def is_big_nef_on_table(model: SurfaceModel, d: DivisorClass) -> BigNefVerdict:
    nef = is_nef_on_table(model, d)
    d2 = self_int(model, d)
    return BigNefVerdict(bool(nef) and d2 > 0, nef, d2)


class HodgeIndexResult(NamedTuple):
    lhs: Fraction        # (L^2)(D^2)
    rhs: Fraction        # (L.D)^2
    gap: Fraction        # rhs - lhs >= 0
    equality: bool       # proportionality case

    @property
    def holds(self) -> bool:
        return self.gap >= 0


def hodge_index_check(model: SurfaceModel, l: DivisorClass, d: DivisorClass) -> HodgeIndexResult:
    """(L^2)(D^2) <= (L.D)^2 whenever L^2 > 0; returns the exact gap."""
    l2 = self_int(model, l)
    if l2 <= 0:
        raise ValueError(f"Hodge index check needs L^2 > 0, got {fmt_q(l2)}")
    lhs = l2 * self_int(model, d)
    rhs = intersect(model, l, d) ** 2
    return HodgeIndexResult(lhs, rhs, rhs - lhs, rhs == lhs)


# ---------------------------------------------------------------------------
# bounded enumeration of effective table combinations


class EffectiveCombination(NamedTuple):
    """A non-negative integer combination sum(n_i C_i) of table curves."""

    coefficients: tuple[int, ...]
    klass: DivisorClass
    curve_names: tuple[str, ...]

    @property
    def label(self) -> str:
        terms = []
        for n, name in zip(self.coefficients, self.curve_names):
            if n == 0:
                continue
            terms.append(name if n == 1 else f"{n}*{name}")
        return " + ".join(terms) if terms else "0"


def effective_combinations(
    model: SurfaceModel, coeff_bound: int
) -> Iterator[EffectiveCombination]:
    """All nonzero combinations sum(n_i C_i), 0 <= n_i <= coeff_bound, in
    lexicographic order of the coefficient vector.  Every table search in
    the package reads them through criteria._scan."""
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be >= 1")
    names = tuple(record.name for record in model.curves)
    for record in model.curves:
        if record.klass.rank != model.rank:
            raise DimensionMismatch(
                f"curve {record.name!r} has rank {record.klass.rank}, "
                f"surface has rank {model.rank}"
            )
    # an odometer over the coefficient vector, last digit fastest, with the
    # class sum(n_i C_i) kept as integers over one common denominator: a
    # digit that goes up adds C_i, a digit that rolls over from the bound to
    # 0 subtracts bound * C_i
    denom, flat = clear_denominators(
        [c for record in model.curves for c in record.klass.coeffs]
    )
    rank = model.rank
    steps = [flat[i * rank:(i + 1) * rank] for i in range(len(names))]
    rollovers = [[coeff_bound * x for x in step] for step in steps]
    to_fraction = functools.cache(functools.partial(Fraction, denominator=denom))
    coeffs = [0] * len(names)
    total = [0] * rank
    while True:
        i = len(coeffs) - 1
        while i >= 0 and coeffs[i] == coeff_bound:
            coeffs[i] = 0
            total = [t - x for t, x in zip(total, rollovers[i])]
            i -= 1
        if i < 0:
            return
        coeffs[i] += 1
        total = [t + x for t, x in zip(total, steps[i])]
        klass = DivisorClass(map(to_fraction, total))
        # hand over the integer form already at hand: pair reads it from
        # the cache and never clears this class's denominators
        klass.__dict__["_scaled"] = (denom, total)
        yield EffectiveCombination(tuple(coeffs), klass, names)
