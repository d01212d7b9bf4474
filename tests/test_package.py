"""The package namespace is lazy, but its public surface is the one the
eager `__init__` used to import, and a CLI request loads only the layers
its subcommand runs."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import surfcalc

# the names `surfcalc/__init__.py` imported eagerly, by defining module
PUBLIC = {
    "lattice": [
        "CheckResult", "CurveRecord", "DimensionMismatch", "DivisorClass",
        "IntersectionLattice", "InvariantBreach", "NefVerdict", "NonIntegralDivisor",
        "SurfaceModel", "ValidationReport", "euler_characteristic", "hodge_index_check",
        "intersect", "is_big_nef_on_table", "is_nef_on_table", "self_int",
        "validate_surface",
    ],
    "qdivisor": [
        "PrimeComponent", "QDivisor", "class_of", "fractional_part", "mult_at",
        "parse_qdivisor", "round_down", "round_up", "table_namespace",
    ],
    "blowup": [
        "BlowupModel", "blow_up", "jet_twist", "pullback", "pushforward",
        "seshadri_twist_nef_check",
    ],
    "bundles": [
        "ChernData", "brill_noether_rho", "destabilizer_search", "discriminant",
        "elementary_transformation", "from_extension", "gonality_bound",
        "in_positive_cone", "k3_end_euler", "reider_chain_verify", "twist",
    ],
    "criteria": [
        "curve_bundle_status", "fujita_adjoint", "jets_length_d",
        "kodaira_zero_obstructions", "normal_generation_threshold",
        "numerical_global_generation", "pluricanonical_status", "reider_freeness",
        "reider_very_ample",
    ],
    "seshadri": [
        "SeshadriBound", "adjoint_jet_schedule", "jets_from_seshadri",
        "miranda_example", "multipoint_degree_bound", "multipoint_seshadri",
        "seshadri_at_point",
    ],
    "positivity": [
        "NotPseudoeffective", "ResolutionData", "ZariskiDecomposition",
        "almost_isolated_index", "cusp_bound", "divisor_existence_k",
        "krs_jet_certificate", "kv_applicability", "matsusaka_thresholds",
        "moving_part_inequality_check", "mumford_intersect", "mumford_pullback",
        "normal_surface_check", "qdivisor_generation_check",
        "qdivisor_very_ample_check", "singularity_production_check",
        "zariski_decompose",
    ],
    "report": ["CertificateReport", "TraceLine", "Witness"],
    "surface_io": ["load_resolution", "load_surface", "save_surface"],
    "fixtures": ["fixture_catalog", "fixture_path", "load_fixture"],
}
# rational first: it defines no public name, and once any layer is loaded it
# resolves as a side effect of that import
SUBMODULES = ["rational"] + sorted(PUBLIC)
SRC = Path(surfcalc.__file__).resolve().parents[1]
FIXTURES = Path(surfcalc.__file__).resolve().parent / "fixtures"


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_public_names_resolve_to_their_module(module):
    defining = importlib.import_module(f"surfcalc.{module}")
    for name in PUBLIC[module]:
        assert getattr(surfcalc, name) is getattr(defining, name), name


def test_all_and_star_import():
    names = sorted(n for names in PUBLIC.values() for n in names)
    assert sorted(surfcalc.__all__) == names
    namespace = {}
    exec("from surfcalc import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == names
    assert set(names) <= set(dir(surfcalc))
    assert surfcalc.__version__ == "0.1.0"


def _fresh(code):
    """Run `code` in a new interpreter that inherits the environment, with
    this checkout's package first on the path; returns its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return done.stdout


def test_submodules_resolve_after_bare_import():
    loaded = json.loads(_fresh(
        "import json, sys, surfcalc\n"
        "bare = sorted(k for k in sys.modules if k.startswith('surfcalc.'))\n"
        f"found = [m for m in {SUBMODULES!r} if getattr(surfcalc, m).__name__ == 'surfcalc.' + m]\n"
        "print(json.dumps([bare, found]))\n"
    ))
    assert loaded == [[], SUBMODULES]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        surfcalc.no_such_name
    assert not hasattr(surfcalc, "cmd_validate")


def _cli_modules(argv):
    """The surfcalc.* modules one CLI process has loaded when it exits, and
    `dataclasses` if that is loaded too."""
    code = (
        "import json, runpy, sys\n"
        f"sys.argv = ['surfcalc', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('surfcalc.cli', run_name='__main__')\n"
        "except SystemExit:\n"
        "    pass\n"
        "loaded = sorted(k for k in sys.modules\n"
        "                if k.startswith('surfcalc.') or k == 'dataclasses')\n"
        "print(json.dumps(loaded))\n"
    )
    return set(json.loads(_fresh(code).splitlines()[-1]))


DEFERRED = {"positivity", "bundles", "blowup", "seshadri", "qdivisor", "fixtures"}


def test_validate_request_loads_no_deferred_layer():
    loaded = _cli_modules(["validate", str(FIXTURES / "p2.json")])
    assert {"surfcalc.lattice", "surfcalc.surface_io", "surfcalc.criteria"} <= loaded
    assert not loaded & {f"surfcalc.{m}" for m in DEFERRED}
    assert "dataclasses" not in loaded


def test_zariski_request_loads_positivity():
    loaded = _cli_modules(["zariski", str(FIXTURES / "p2.json"), "--divisor", "H"])
    assert "surfcalc.positivity" in loaded
    assert not loaded & {"surfcalc.bundles", "surfcalc.blowup", "surfcalc.seshadri"}
    assert "dataclasses" not in loaded


@pytest.mark.parametrize("argv, layer", [
    (["reider", str(FIXTURES / "p1xp1.json"), "--line-bundle", "3,3"], "surfcalc.criteria"),
    (["bundle", "--surface", str(FIXTURES / "p2.json"), "--c1", "1", "--c2", "0",
      "--destabilize", "--ample", "1"], "surfcalc.bundles"),
], ids=["reider", "bundle-destabilize"])
def test_request_imports_no_dataclasses(argv, layer):
    # next to the validate and zariski requests above: a criterion run, and
    # a request that loads the bundle layer
    loaded = _cli_modules(argv)
    assert layer in loaded
    assert "dataclasses" not in loaded


def test_no_module_imports_dataclasses():
    """Records are NamedTuples or small plain classes.  Importing
    `dataclasses` (it loads inspect, ast and tokenize) and building a class
    with it each cost a CLI request time on every run."""
    importers = []
    for source in sorted(Path(surfcalc.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.partition(".")[0] == "dataclasses" for m in modules):
                importers.append(source.stem)
    assert importers == []
