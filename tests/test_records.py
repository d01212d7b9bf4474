"""Record semantics.  The package's records are `typing.NamedTuple`s, or
small plain classes where a record writes its own __init__; both keep the
repr, fields, defaults, value equality, hashing and immutability that the
records had as dataclasses."""

from fractions import Fraction as F

import pytest

from surfcalc.blowup import BlowupModel
from surfcalc.bundles import (
    ChainReport,
    ChernData,
    DestabilizerCandidate,
    DestabilizerSearchResult,
)
from surfcalc.criteria import (
    CurveBundleStatus,
    FujitaReport,
    KodairaZeroReport,
    PluricanonicalStatus,
)
from surfcalc.fixtures import FixtureInfo
from surfcalc.lattice import (
    BigNefVerdict,
    CheckResult,
    CurveRecord,
    DivisorClass,
    EffectiveCombination,
    HodgeIndexResult,
    IntersectionLattice,
    NefVerdict,
    SurfaceModel,
    ValidationReport,
)
from surfcalc.positivity import (
    MatsusakaThresholds,
    ResolutionData,
    VanishingReport,
    ZariskiDecomposition,
)
from surfcalc.qdivisor import PrimeComponent
from surfcalc.report import CertificateReport, TraceLine, Witness
from surfcalc.seshadri import SeshadriBound


def _surface():
    lattice = IntersectionLattice([[1, 0], [0, -1]])
    curve = CurveRecord("E", DivisorClass([0, 1]))
    return SurfaceModel("blp2", lattice, DivisorClass([-3, 1]), 1, [curve], ["*"])


def _nef():
    return NefVerdict(True)


def _big_nef():
    return BigNefVerdict(True, _nef(), F(1))


def _certificate():
    return CertificateReport("inconclusive")


def _candidate():
    return DestabilizerCandidate(DivisorClass([1, 0]), 0)


SURFACE_REPR = (
    "SurfaceModel(name='blp2', lattice=IntersectionLattice(rank=2, gram=((1, 0), (0, -1))), "
    "canonical=(-3, 1), chi_O=1, curves=(CurveRecord(name='E', klass=(0, 1), point_mults={}, "
    "genus=None, ordinary=True),), complete_through=('*',))"
)
NEF_REPR = "NefVerdict(nef=True, violating=None, value=None, certified=False)"
BIG_NEF_REPR = f"BigNefVerdict(big_nef=True, nef={NEF_REPR}, self_intersection=Fraction(1, 1))"
CERTIFICATE_REPR = "CertificateReport(verdict='inconclusive', witnesses=[], trace=[], notes=[], bound=None)"

# (record class, a factory that builds a new, equal instance on each call,
# the fields in order, the repr the record printed as a dataclass)
RECORDS = [
    (DivisorClass, lambda: DivisorClass([1, F(-1, 2)]), ("coeffs",), "(1, -1/2)"),
    (IntersectionLattice, lambda: IntersectionLattice([[1, 0], [0, -1]]), ("rank", "gram"),
     "IntersectionLattice(rank=2, gram=((1, 0), (0, -1)))"),
    (CurveRecord, lambda: CurveRecord("E", DivisorClass([0, 1])),
     ("name", "klass", "point_mults", "genus", "ordinary"),
     "CurveRecord(name='E', klass=(0, 1), point_mults={}, genus=None, ordinary=True)"),
    (SurfaceModel, _surface,
     ("name", "lattice", "canonical", "chi_O", "curves", "complete_through"), SURFACE_REPR),
    (CheckResult, lambda: CheckResult("parity", True, "ok"),
     ("name", "passed", "detail", "witness"),
     "CheckResult(name='parity', passed=True, detail='ok', witness=None)"),
    (ValidationReport, lambda: ValidationReport((CheckResult("parity", True, "ok"),)), ("checks",),
     "ValidationReport(checks=(CheckResult(name='parity', passed=True, detail='ok', witness=None),))"),
    (NefVerdict, _nef, ("nef", "violating", "value", "certified"), NEF_REPR),
    (BigNefVerdict, _big_nef, ("big_nef", "nef", "self_intersection"), BIG_NEF_REPR),
    (HodgeIndexResult, lambda: HodgeIndexResult(F(1), F(4), F(3), False),
     ("lhs", "rhs", "gap", "equality"),
     "HodgeIndexResult(lhs=Fraction(1, 1), rhs=Fraction(4, 1), gap=Fraction(3, 1), equality=False)"),
    (EffectiveCombination, lambda: EffectiveCombination((1, 0), DivisorClass([0, 1]), ("E", "L")),
     ("coefficients", "klass", "curve_names"),
     "EffectiveCombination(coefficients=(1, 0), klass=(0, 1), curve_names=('E', 'L'))"),
    (TraceLine, lambda: TraceLine("L^2 > 4", F(9, 2), 4, True), ("check", "left", "right", "passed"),
     "TraceLine(check='L^2 > 4', left=Fraction(9, 2), right=4, passed=True)"),
    (Witness, lambda: Witness("E", DivisorClass([0, 1]), F(0), F(-1)),
     ("label", "klass", "dot_l", "self_intersection", "mult_at_point"),
     "Witness(label='E', klass=(0, 1), dot_l=Fraction(0, 1), "
     "self_intersection=Fraction(-1, 1), mult_at_point=None)"),
    (CertificateReport, _certificate, ("verdict", "witnesses", "trace", "notes", "bound"),
     CERTIFICATE_REPR),
    (FujitaReport, lambda: FujitaReport(_certificate(), _certificate(), "n"),
     ("freeness", "very_ample", "note"),
     f"FujitaReport(freeness={CERTIFICATE_REPR}, very_ample={CERTIFICATE_REPR}, note='n')"),
    (PluricanonicalStatus, lambda: PluricanonicalStatus("yes", "unknown"),
     ("free", "embedding_away_from_minus2"),
     "PluricanonicalStatus(free='yes', embedding_away_from_minus2='unknown')"),
    (KodairaZeroReport, lambda: KodairaZeroReport(_certificate(), _certificate()),
     ("freeness", "very_ample"),
     f"KodairaZeroReport(freeness={CERTIFICATE_REPR}, very_ample={CERTIFICATE_REPR})"),
    (CurveBundleStatus, lambda: CurveBundleStatus("guaranteed", "unknown"), ("free", "very_ample"),
     "CurveBundleStatus(free='guaranteed', very_ample='unknown')"),
    (ChernData, lambda: ChernData(2, DivisorClass([1, 0]), 1), ("rank", "c1", "c2"),
     "ChernData(rank=2, c1=(1, 0), c2=1)"),
    (DestabilizerCandidate, _candidate, ("klass", "length_z"),
     "DestabilizerCandidate(klass=(1, 0), length_z=0)"),
    (DestabilizerSearchResult, lambda: DestabilizerSearchResult((_candidate(),), F(1), 2, False),
     ("candidates", "discriminant", "bound", "inconclusive"),
     "DestabilizerSearchResult(candidates=(DestabilizerCandidate(klass=(1, 0), length_z=0),), "
     "discriminant=Fraction(1, 1), bound=2, inconclusive=False)"),
    (ChainReport, lambda: ChainReport(all_hold=False),
     ("all_hold", "trace", "terminal", "in_window", "first_failure", "refusal"),
     "ChainReport(all_hold=False, trace=[], terminal=None, in_window=False, "
     "first_failure=None, refusal=None)"),
    (VanishingReport, lambda: VanishingReport(_big_nef(), DivisorClass([1, F(-1, 2)]), True, "n"),
     ("big_nef", "adjoint_class", "applies", "note"),
     f"VanishingReport(big_nef={BIG_NEF_REPR}, adjoint_class=(1, -1/2), applies=True, note='n')"),
    (ZariskiDecomposition,
     lambda: ZariskiDecomposition(DivisorClass([1, 0]), (("E", F(1)),), DivisorClass([1, 1])),
     ("positive_part", "negative_part", "original"),
     "ZariskiDecomposition(positive_part=(1, 0), negative_part=(('E', Fraction(1, 1)),), "
     "original=(1, 1))"),
    (ResolutionData, lambda: ResolutionData(((-2,),), {"D": (1,)}),
     ("exceptional_gram", "incidence", "name"),
     "ResolutionData(exceptional_gram=((-2,),), incidence={'D': (1,)}, name='resolution')"),
    (MatsusakaThresholds, lambda: MatsusakaThresholds(3, 5, abs, F(1), F(-2), False, None),
     ("m_free", "m_very_ample", "rho", "a", "b", "clamped", "note"),
     "MatsusakaThresholds(m_free=3, m_very_ample=5, rho=<built-in function abs>, "
     "a=Fraction(1, 1), b=Fraction(-2, 1), clamped=False, note=None)"),
    (PrimeComponent, lambda: PrimeComponent("D", DivisorClass([1, 0])),
     ("name", "klass", "point_mults"),
     "PrimeComponent(name='D', klass=(1, 0), point_mults={})"),
    (SeshadriBound, lambda: SeshadriBound(F(1), "upper-bound", "E"),
     ("value", "kind", "achieving_curve", "note"),
     "SeshadriBound(value=Fraction(1, 1), kind='upper-bound', achieving_curve='E', note=None)"),
    (BlowupModel, lambda: BlowupModel(_surface(), "x", _surface(), 1),
     ("base", "point", "result", "exceptional_index"),
     f"BlowupModel(base={SURFACE_REPR}, point='x', result={SURFACE_REPR}, exceptional_index=1)"),
    (FixtureInfo, lambda: FixtureInfo("p2", "p2.json", "surface", "plane"),
     ("name", "filename", "kind", "description"),
     "FixtureInfo(name='p2', filename='p2.json', kind='surface', description='plane')"),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]
# mutable as dataclasses and still mutable: code appends to their lists and
# sets their attributes after construction
MUTABLE = {CertificateReport, ChainReport}
# records with a dict or a mutable record among their values
UNHASHABLE = MUTABLE | {CurveRecord, SurfaceModel, FujitaReport, KodairaZeroReport,
                        ResolutionData, PrimeComponent, BlowupModel}


def test_every_record_is_covered():
    assert len(RECORDS) == len(set(IDS)) == 29


@pytest.mark.parametrize("cls, make, fields, text", RECORDS, ids=IDS)
def test_repr_and_fields(cls, make, fields, text):
    record = make()
    assert type(record) is cls
    assert repr(record) == text
    assert cls._fields == fields


@pytest.mark.parametrize("cls, make, fields, text", RECORDS, ids=IDS)
def test_value_equality_and_hashing(cls, make, fields, text):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("cls, make, fields, text", RECORDS, ids=IDS)
def test_assignment(cls, make, fields, text):
    record = make()
    value = getattr(record, fields[0])
    if cls in MUTABLE:
        setattr(record, fields[0], value)
        return
    with pytest.raises(AttributeError):
        setattr(record, fields[0], value)
    with pytest.raises(AttributeError):
        setattr(record, "extra", 1)


DEFAULTS = {
    "CurveRecord": (lambda: CurveRecord("E", DivisorClass([1])),
                    {"point_mults": {}, "genus": None, "ordinary": True}),
    "SurfaceModel": (lambda: SurfaceModel("s", IntersectionLattice([[1]]), DivisorClass([-3]), 1),
                     {"curves": (), "complete_through": None}),
    "CheckResult": (lambda: CheckResult("c", True, "d"), {"witness": None}),
    "NefVerdict": (lambda: NefVerdict(False),
                   {"violating": None, "value": None, "certified": False}),
    "Witness": (lambda: Witness("E", DivisorClass([1]), F(0), F(-1)), {"mult_at_point": None}),
    "CertificateReport": (lambda: CertificateReport("inconclusive"),
                          {"witnesses": [], "trace": [], "notes": [], "bound": None}),
    "ChainReport": (lambda: ChainReport(True),
                    {"trace": [], "terminal": None, "in_window": False, "first_failure": None,
                     "refusal": None}),
    "ResolutionData": (lambda: ResolutionData(((-2,),), {}), {"name": "resolution"}),
    "PrimeComponent": (lambda: PrimeComponent("D", DivisorClass([1])), {"point_mults": {}}),
    "SeshadriBound": (lambda: SeshadriBound(None, "no-data", None), {"note": None}),
}


@pytest.mark.parametrize("make, defaults", DEFAULTS.values(), ids=list(DEFAULTS))
def test_defaults(make, defaults):
    a, b = make(), make()
    for name, value in defaults.items():
        assert getattr(a, name) == value, name
        if isinstance(value, (dict, list)):
            # a fresh container per instance, not one shared default
            assert getattr(a, name) is not getattr(b, name), name


def test_hand_initialized_records_equal_only_their_own_type():
    klass = DivisorClass([1, 0])
    lattice = IntersectionLattice([[1, 0], [0, -1]])
    model = _surface()
    for record, others in [
        (klass, [klass.coeffs, (klass.coeffs,), lattice, model]),
        (lattice, [lattice.gram, (lattice.rank, lattice.gram), klass, model]),
        (model, [tuple(getattr(model, f) for f in model._fields), klass, lattice]),
    ]:
        for other in others:
            assert record != other and other != record


def test_named_tuple_records_are_tuples():
    # a documented change from the dataclasses: the NamedTuple records unpack,
    # index and compare equal to a plain tuple of their values
    check = CheckResult("parity", True, "ok")
    name, passed, detail, witness = check
    assert (name, passed, detail, witness) == ("parity", True, "ok", None)
    assert check[0] == "parity" and check == ("parity", True, "ok", None)
    assert check._replace(passed=False).passed is False
    assert check._asdict()["detail"] == "ok"


def test_records_pass_checks_of_their_own_init():
    with pytest.raises(ValueError, match="rank must be >= 1"):
        ChernData(0, DivisorClass([0]), 0)
    with pytest.raises(ValueError, match="negative definite"):
        ResolutionData(((1,),), {})
    with pytest.raises(ValueError, match="unknown verdict"):
        CertificateReport("maybe")
    with pytest.raises(ValueError, match="requires at least one witness"):
        CertificateReport("obstruction-found")
