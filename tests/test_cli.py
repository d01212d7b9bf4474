import argparse
import ast
import json
import re
from pathlib import Path

import pytest

from surfcalc import cli, fixture_path, load_surface
from surfcalc.cli import main
from surfcalc.report import render_text
from surfcalc.rational import RATIONAL_RE

P1XP1 = str(fixture_path("p1xp1"))
P2 = str(fixture_path("p2"))
BAD = str(fixture_path("bad_signature"))
CONE = str(fixture_path("quadric_cone"))
BLP2 = str(fixture_path("blp2"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_validate_ok(capsys):
    code, out = run(capsys, "validate", P2)
    assert code == 0 and "ok: true" in out


def test_validate_bad_signature(capsys):
    code, out = run(capsys, "validate", BAD)
    assert code == 2
    assert "- name: signature, passed: false" in out


def test_reider_obstruction_exit_code(capsys):
    code, out = run(capsys, "reider", P1XP1, "--line-bundle", "1,3")
    assert code == 10
    assert "F2" in out


def test_reider_holds_exit_code(capsys):
    code, _ = run(capsys, "reider", P2, "--line-bundle", "3")
    assert code == 0


def test_reider_hypotheses_fail_exit_code(capsys):
    code, _ = run(capsys, "reider", P2, "--line-bundle", "2")
    assert code == 12


def test_reider_inconclusive_exit_code(capsys, tmp_path):
    model = load_surface(P2)
    from surfcalc import SurfaceModel
    from surfcalc.surface_io import save_surface

    open_model = SurfaceModel(
        model.name, model.lattice, model.canonical, model.chi_O, model.curves, None
    )
    path = tmp_path / "open.json"
    save_surface(open_model, path)
    code, _ = run(capsys, "reider", str(path), "--line-bundle", "3")
    assert code == 11


def test_reider_very_ample_flag(capsys):
    code, out = run(capsys, "reider", P2, "--line-bundle", "4", "--very-ample")
    assert code == 0


def test_reider_json_format(capsys):
    code, out = run(capsys, "reider", P1XP1, "--line-bundle", "1,3", "--format", "json")
    assert code == 10
    payload = json.loads(out)
    assert payload["verdict"] == "obstruction-found"
    assert payload["witnesses"][0]["label"] == "F2"

    def walk(node):
        if isinstance(node, dict):
            for v in node.values():
                yield from walk(v)
        elif isinstance(node, list):
            for v in node:
                yield from walk(v)
        else:
            yield node

    # every rational-looking string field matches the exact p/q grammar
    for leaf in walk(payload):
        if isinstance(leaf, str) and re.fullmatch(r"-?\d+(/\d+)?", leaf):
            assert RATIONAL_RE.fullmatch(leaf)


def test_cli_output_deterministic(capsys):
    _, first = run(capsys, "reider", P1XP1, "--line-bundle", "1,3", "--format", "json")
    _, second = run(capsys, "reider", P1XP1, "--line-bundle", "1,3", "--format", "json")
    assert first == second


def test_input_error_exit_code(capsys):
    code, _ = run(capsys, "reider", P1XP1, "--line-bundle", "nonsense")
    assert code == 2
    code, _ = run(capsys, "reider", "/no/such/file.json", "--line-bundle", "1")
    assert code == 2


def test_seshadri_command(capsys):
    code, out = run(capsys, "seshadri", P2, "--line-bundle", "1", "--point", "x")
    assert code == 0 and "1" in out and "H" in out


def test_seshadri_jets(capsys):
    code, out = run(
        capsys, "seshadri", P2, "--line-bundle", "3", "--point", "x", "--jets", "0"
    )
    assert code == 0
    assert "jets:\n  s: 0\n  generates: yes\n" in out


def test_seshadri_multipoint(capsys):
    code, out = run(capsys, "seshadri", P1XP1, "--line-bundle", "2,3", "--points", "x")
    assert code == 0


def test_zariski_command(capsys):
    code, out = run(capsys, "zariski", BLP2, "--divisor", "C + 2*E")
    assert code == 0
    payload_code, json_out = run(
        capsys, "zariski", BLP2, "--divisor", "C + 2*E", "--format", "json"
    )
    payload = json.loads(json_out)
    # C + 2E has class (1, 1); orthogonalizing against E gives P = H
    assert payload["positive_part"] == ["1", "0"]
    assert payload["negative_part"] == [{"curve": "E", "coefficient": "1"}]


def test_zariski_not_pseudoeffective(capsys, tmp_path):
    code, out = run(capsys, "zariski", BLP2, "--divisor=-1*C")
    assert code == 12


def test_mumford_command_inline(capsys):
    code, out = run(
        capsys,
        "mumford",
        "--gram", "[[-2]]",
        "--incidence", "r1=1",
        "--incidence", "r2=1",
        "--meet", "r1", "r2",
        "--base", "0",
    )
    assert code == 0
    assert "intersection: 1/2" in out


def test_mumford_command_from_file(capsys):
    code, out = run(
        capsys, "mumford", CONE, "--meet", "ruling1", "ruling2", "--base", "0",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["intersection"] == "1/2"
    assert payload["delta"]["ruling1"] == ["1/2"]


def test_matsusaka_command(capsys):
    code, out = run(capsys, "matsusaka", P2, "--line-bundle", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "a": "1", "b": "1", "m_free": 2, "m_very_ample": 4, "rho_at_m_free": "15",
        "star_at_m_free": {"branch": "squared comparison", "rho_gt_4": True,
                           "sqrt_inequality": True},
    }


def test_matsusaka_refuses_a_bundle_that_is_not_ample(capsys):
    # L = -H has L^2 = 1 >= 1, but L.H = -1: the effective bound assumes L ample
    code, out = run(capsys, "matsusaka", P2, "--line-bundle", "-1", "--format", "json")
    assert code == 12
    assert json.loads(out) == {"error": "L is not ample on the table: L.H = -1"}
    code, out = run(capsys, "matsusaka", P2, "--line-bundle", "0")
    assert code == 12 and out == "error: L is not ample on the table: L.H = 0\n"


def test_blowup_round_trip(capsys, tmp_path):
    out_path = tmp_path / "blown.json"
    code, _ = run(capsys, "blowup", P2, "--point", "x", "-o", str(out_path))
    assert code == 0
    model = load_surface(out_path)
    assert model.rank == 2
    assert any(c.name == "E_x" for c in model.curves)
    # written files re-parse and re-validate identically
    from surfcalc import validate_surface
    from surfcalc.surface_io import save_surface, surface_to_dict

    assert validate_surface(model).ok
    second = tmp_path / "again.json"
    save_surface(model, second)
    assert second.read_text() == out_path.read_text()
    assert surface_to_dict(load_surface(second)) == surface_to_dict(model)


def test_blowup_json_format(capsys, tmp_path):
    out_path = str(tmp_path / "blown.json")
    code, out = run(capsys, "blowup", P2, "--point", "x", "-o", out_path, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"output": out_path, "rank": 2, "exceptional": "E_x"}


def test_blowup_output_directory_is_input_error(capsys, tmp_path):
    code = main(["blowup", P2, "--point", "x", "-o", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and captured.out == ""


def test_bundle_command(capsys):
    code, out = run(
        capsys, "bundle", "--surface", P2, "--c1", "1", "--c2", "1",
        "--twist", "1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["discriminant"] == "-3"
    assert payload["twisted"]["discriminant"] == "-3"


def test_bundle_destabilize(capsys, tmp_path):
    from conftest import diag_surface
    from surfcalc.surface_io import save_surface
    from surfcalc import CurveRecord, DivisorClass

    model = diag_surface(
        [5], [1],
        curves=[CurveRecord("g", DivisorClass([1]), {}, genus=6)],
        name="five",
    )
    path = tmp_path / "five.json"
    save_surface(model, path)
    code, out = run(
        capsys, "bundle", "--surface", str(path), "--c1", "1", "--c2", "1",
        "--destabilize", "--ample", "1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["destabilizer_candidates"][0] == {"class": ["1"], "length_Z": 1}


def test_certify_jets_command(capsys, tmp_path):
    from conftest import diag_surface
    from surfcalc import CurveRecord, DivisorClass
    from surfcalc.surface_io import save_surface

    cubic = CurveRecord("N", DivisorClass([3]), {"x": 3}, genus=1)
    model = diag_surface([1], [-3], curves=[cubic], name="p2n", complete=["*", "x"])
    path = tmp_path / "p2n.json"
    save_surface(model, path)
    code, out = run(
        capsys, "certify-jets", str(path), "--line-bundle", "3", "-k", "1",
        "--divisor", "N", "--point", "x", "-s", "0",
    )
    assert code == 0
    assert "criterion-holds" in out


def test_qcheck_command(capsys):
    code, out = run(capsys, "qcheck", P2, "--divisor", "5/2*H")
    assert code == 0
    assert "criterion-holds" in out
    code, _ = run(capsys, "qcheck", P2, "--divisor", "2*H")
    assert code == 12


def test_report_fixtures(capsys):
    code, out = run(capsys, "report", "--fixtures")
    assert code == 0
    for name in ("p2", "p1xp1", "quadric_cone", "abelian_1_5"):
        assert name in out


def test_report_surface(capsys):
    code, out = run(capsys, "report", P1XP1, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 2 and payload["valid"] is True
    assert payload["K2"] == "8"


def test_unknown_flag_is_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reider", P2, "--line-bundle", "1", "--frobnicate"])
    assert exc.value.code == 2


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_render_text_rules():
    payload = {
        "verdict": "obstruction-found",
        "ok": True,
        "note": None,
        "class": ["1", "-1/2"],
        "empty": [],
        "jets": {"s": 0, "inner": {"generates": "yes"}},
        "trace": [{"check": "L^2 >= 5", "left": "6", "right": "5", "passed": True}],
    }
    assert render_text(payload) == "\n".join([
        "verdict: obstruction-found",
        "ok: true",
        "note: null",
        "class: (1, -1/2)",
        "empty: ()",
        "jets:",
        "  s: 0",
        "  inner:",
        "    generates: yes",
        "trace:",
        "  - check: L^2 >= 5, left: 6, right: 5, passed: true",
    ])


def test_cli_prints_only_in_main():
    tree = ast.parse(Path(cli.__file__).read_text())
    printers = set()
    for node in tree.body:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "print":
                printers.add(getattr(node, "name", "<module>"))
            if isinstance(sub, ast.Attribute) and sub.attr == "stdout":
                printers.add(getattr(node, "name", "<module>"))
    assert printers == {"main"}


def every_subcommand(tmp_path):
    yield ["validate", P2]
    yield ["validate", BAD]
    yield ["report", P1XP1]
    yield ["report", "--fixtures"]
    yield ["reider", P1XP1, "--line-bundle", "1,3"]
    yield ["seshadri", P2, "--line-bundle", "3", "--point", "x", "--jets", "0"]
    yield ["zariski", BLP2, "--divisor", "C + 2*E"]
    yield ["zariski", BLP2, "--divisor=-1*C"]
    yield ["mumford", CONE, "--meet", "ruling1", "ruling2", "--base", "0"]
    yield ["matsusaka", P2, "--line-bundle", "1"]
    yield ["blowup", P2, "--point", "x", "-o", str(tmp_path / "blown.json")]
    yield ["bundle", "--surface", P2, "--c1", "1", "--c2", "0", "--twist", "1",
           "--destabilize", "--ample", "1"]
    yield ["certify-jets", P2, "--line-bundle", "3", "-k", "1", "--divisor", "3*H",
           "--point", "x"]
    yield ["qcheck", P2, "--divisor", "5/2*H"]


def test_text_and_json_carry_the_same_fields(capsys, tmp_path):
    seen = set()
    for argv in every_subcommand(tmp_path):
        text_code, text = run(capsys, *argv)
        json_code, out = run(capsys, *argv, "--format", "json")
        assert text_code == json_code, argv
        payload = json.loads(out)
        top = [line.partition(":")[0] for line in text.splitlines()
               if not line.startswith(" ")]
        assert sorted(top) == sorted(payload), argv
        seen.add(argv[0])
    subparsers = next(action for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    assert seen == set(subparsers.choices)
