import json
import re
from fractions import Fraction as F

import pytest

from surfcalc import (
    CurveRecord,
    DivisorClass,
    NonIntegralDivisor,
    SurfaceModel,
    fixture_path,
    validate_surface,
)
from surfcalc.cli import main
from surfcalc.surface_io import (
    SurfaceFormatError,
    resolution_from_dict,
    save_surface,
    surface_from_dict,
)


def blp2_data():
    return json.loads(fixture_path("blp2").read_text())


def with_curve(data, **fields):
    data["curves"][0].update(fields)
    return data


# each malformed surface and the field its error message must name
MALFORMED = {
    "complete-through-string": (lambda d: dict(d, complete_through="x*"), "complete_through"),
    "complete-through-null": (lambda d: dict(d, complete_through=None), "complete_through"),
    "complete-through-entry": (lambda d: dict(d, complete_through=["*", 1]),
                               "complete_through entry"),
    "surface-name": (lambda d: dict(d, name=["blp2"]), "name"),
    "curves-not-list": (lambda d: dict(d, curves={"E": [0, 1]}), "curves"),
    "curve-not-object": (lambda d: dict(d, curves=["E"] + d["curves"][1:]), "curve 0"),
    "curve-name": (lambda d: with_curve(d, name=7), "curve 0 name"),
    "curve-missing-class": (lambda d: dict(d, curves=[{"name": "E"}]), "'class'"),
    "ordinary-string": (lambda d: with_curve(d, ordinary="no"), "curve E ordinary"),
    "ordinary-int": (lambda d: with_curve(d, ordinary=0), "curve E ordinary"),
    "genus-string": (lambda d: with_curve(d, genus="0"), "curve E genus"),
    "genus-bool": (lambda d: with_curve(d, genus=False), "curve E genus"),
    "genus-null": (lambda d: with_curve(d, genus=None), "curve E genus"),
}


def test_well_formed_fixture_parses():
    model = surface_from_dict(blp2_data())
    assert validate_surface(model).ok
    assert model.complete_through == ("*", "x")
    assert [c.ordinary for c in model.curves] == [True, True]


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_field_types_are_enforced(case):
    mutate, field = MALFORMED[case]
    with pytest.raises(SurfaceFormatError) as err:
        surface_from_dict(mutate(blp2_data()))
    assert field in str(err.value)


@pytest.mark.parametrize("case", ["complete-through-string", "ordinary-string",
                                  "curve-name", "genus-string"])
def test_cli_rejects_malformed_fields_with_exit_2(case, tmp_path, capsys):
    mutate, field = MALFORMED[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(mutate(blp2_data())))
    # a string complete_through used to declare completeness at "*" and
    # turn an inconclusive verdict into criterion-holds
    assert main(["reider", str(path), "--line-bundle", "3,-1"]) == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# resolution data


def cone_data():
    return json.loads(fixture_path("quadric_cone").read_text())


MALFORMED_RESOLUTIONS = {
    "gram-int": (lambda d: dict(d, exceptional_gram=5), "exceptional_gram"),
    "gram-float-entry": (lambda d: dict(d, exceptional_gram=[[-2.0]]), "exceptional_gram"),
    "incidence-list": (lambda d: dict(d, incidence=[1]), "incidence"),
    "incidence-null": (lambda d: dict(d, incidence=None), "incidence"),
    "incidence-true": (lambda d: dict(d, incidence=True), "incidence"),
    "incidence-string": (lambda d: dict(d, incidence="ruling1"), "incidence"),
    "name-list": (lambda d: dict(d, name=["cone"]), "name"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_RESOLUTIONS))
def test_resolution_field_types_are_enforced(case, tmp_path, capsys):
    mutate, field = MALFORMED_RESOLUTIONS[case]
    with pytest.raises(SurfaceFormatError) as err:
        resolution_from_dict(mutate(cone_data()))
    assert field in str(err.value)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(mutate(cone_data())))
    assert main(["mumford", str(path), "--meet", "ruling1", "ruling2", "--base", "0"]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--gram", "[[-2.0]]", "--incidence", "D=1"],
    ["--gram", "5", "--incidence", "D=1"],
    ["--gram", '"[[-2]]"', "--incidence", "D=1"],
    ["--incidence", "D=1"],
    [],
], ids=["float-entry", "int", "string", "no-gram", "no-source"])
def test_mumford_inline_input_exits_2(argv, capsys):
    assert main(["mumford", *argv, "--meet", "D", "D", "--base", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("field, value, named", [
    ("canonical", DivisorClass([F(-5, 2), -1]), "canonical class (-5/2, -1)"),
    ("curve", DivisorClass([0, F(1, 2)]), "class of curve 'E' (0, 1/2)"),
], ids=["canonical", "curve"])
def test_save_surface_refuses_to_truncate(tmp_path, field, value, named):
    # int() used to write -5/2 as -2 and 1/2 as 0: another surface
    model = surface_from_dict(blp2_data())
    if field == "canonical":
        model = SurfaceModel(model.name, model.lattice, value, model.chi_O, model.curves)
    else:
        first = model.curves[0]
        curve = CurveRecord(first.name, value, first.point_mults, first.genus)
        model = SurfaceModel(model.name, model.lattice, model.canonical, model.chi_O,
                             (curve, *model.curves[1:]))
    path = tmp_path / "out.json"
    with pytest.raises(NonIntegralDivisor, match=re.escape(f"cannot save {named}: ")):
        save_surface(model, path)
    assert not path.exists()
