"""Tests of the benchmark itself: seeded inputs, the oracle against the
library, the query mixes and the metric names.

Run with `PYTHONPATH=src python -m pytest perfbench`.  Nothing here
re-imports surfcalc (the benchmark's set-up timing does), so the tests can
share a session with the package's own suite.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import surfcalc  # noqa: E402
import surfcalc.cli  # noqa: E402,F401
from surfcalc import DivisorClass, load_fixture  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402

SURFACE_FIXTURES = ("p2", "p1xp1", "blp2", "abelian_1_5", "abelian_elliptic",
                    "k3_rank2", "bad_signature")


def _dump(wl):
    return json.dumps([wl.surfaces, wl.extra, wl.cycles], sort_keys=True, default=str)


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_same_seed_same_inputs(name):
    assert _dump(gen.WORKLOADS[name](5)) == _dump(gen.WORKLOADS[name](5))


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_different_seed_different_inputs(name):
    assert _dump(gen.WORKLOADS[name](5)) != _dump(gen.WORKLOADS[name](6))


def test_template_order_does_not_depend_on_seed():
    for name, make in gen.WORKLOADS.items():
        groups = [[q["group"] for q in c] for c in make(1).cycles]
        assert groups == [[q["group"] for q in c] for c in make(2).cycles], name
        assert all(g == groups[0] for g in groups), name


def _fixture_dict(name):
    return json.loads((run.FIXTURES / f"{name}.json").read_text())


def _small_classes(rank, lo=-1, hi=4):
    import itertools
    return [list(v) for v in itertools.product(range(lo, hi), repeat=rank) if v[0] > 0]


def _session(tmp_path, wl):
    session = run.Session(run.Inputs(wl, tmp_path))
    session.load(reimport=False)
    return session


def test_oracle_agrees_with_library_on_fixtures(tmp_path):
    surfaces = {name: _fixture_dict(name) for name in SURFACE_FIXTURES}
    wl = gen.Workload("fixtures", surfaces=surfaces)
    session = _session(tmp_path, wl)
    assert session.check_setup() == []
    assert oracle.expected_valid(surfaces["bad_signature"]) is False

    checked = 0
    for name in SURFACE_FIXTURES[:-1]:
        surface = surfaces[name]
        points = sorted({p for c in surface["curves"] for p in c.get("mults", {})})
        for l in _small_classes(surface["rank"]):
            queries = [
                {"kind": "reider_freeness", "bound": 2},
                {"kind": "reider_very_ample", "bound": 2},
                {"kind": "jets_length_d", "bound": 2, "d": 1},
                {"kind": "jets_length_d", "bound": 2, "d": 2},
            ]
            queries += [{"kind": "reider_freeness", "bound": 2, "point": p} for p in points]
            nef = oracle.Table(surface, l).nef()
            if nef:
                queries += [{"kind": "seshadri_at_point", "bound": 2, "point": p} for p in points]
                if points:
                    queries.append({"kind": "multipoint_seshadri", "bound": 2,
                                    "points": tuple(points)})
            if not any(surface["canonical"]):
                queries.append({"kind": "kodaira_zero_obstructions", "bound": 2})
            for q in queries:
                q.update(id=checked, group="fixture", surface=name, L=l)
                raw = run.execute_table(session, q)
                assert run.check_answer(session, q, raw) == [], (name, q)
                checked += 1
    assert checked > 300

    sc = session.sc
    for name, pair in (("quadric_cone", ("ruling1", "ruling2")), ("a2_chain", ("D", "D"))):
        res = load_fixture(name)
        data = _fixture_dict(name)
        n = len(data["exceptional_gram"])
        for base in (0, 1, Fraction(1, 2)):
            got = sc.mumford_intersect(res, *pair, base)
            want = oracle.expected_mumford(n, data["incidence"][pair[0]],
                                           data["incidence"][pair[1]],
                                           (base.numerator, base.denominator)
                                           if isinstance(base, Fraction) else (base, 1))
            assert (got.numerator, got.denominator) == want


@pytest.mark.parametrize("name", ["table-search", "lattice-solve"])
def test_oracle_agrees_with_library_on_seeded_inputs(tmp_path, name):
    wl = gen.WORKLOADS[name](7)
    session = _session(tmp_path, wl)
    assert session.check_setup() == []
    execute, _ = run._executor(name, session)
    assert run.run_cycle(wl.cycles[0], execute, session.check).failures() == ([], [])


def test_cli_requests_in_process(tmp_path):
    wl = gen.cli_requests(7)
    session = _session(tmp_path, wl)
    assert session.check_setup() == []
    execute, _ = run._executor("cli-requests", session, in_process=True)
    failures, unexpected = run.run_cycle(wl.cycles[0], execute, session.check).failures()
    assert unexpected == []
    # only the known defects fail, and each shows its known symptom
    assert {f["defect"] for f in failures} <= {d for _, d in gen.MALFORMED if d}
    for f in failures:
        assert f["problems"] == run.KNOWN_SYMPTOM


def test_known_defect_with_another_symptom_is_unexpected():
    q = {"id": 0, "group": "malformed", "kind": "cli", "defect": "ordinary accepts any value"}
    p = run.Pass()
    p.records = [(q, 0.1, run.KNOWN_SYMPTOM), (q, 0.1, ["exit 1, expected 2",
                                                        "traceback on stderr"])]
    failures, unexpected = p.failures()
    assert len(failures) == 2
    assert [f["problems"] for f in unexpected] == [["exit 1, expected 2", "traceback on stderr"]]


def test_oracle_rejects_wrong_answers(tmp_path):
    wl = gen.table_search(3)
    session = _session(tmp_path, wl)
    # the first B-63 template draws L contracting a curve: an obstruction
    q = next(q for q in wl.cycles[0] if q["group"] == "B-63"
             and q["kind"] == "reider_freeness" and "point" not in q)
    data = run.report_data(run.execute_table(session, q))
    surface = wl.surfaces[q["surface"]]
    assert oracle.check_criterion(q, surface, data) == []
    assert data["witnesses"], "contract mode guarantees an obstruction"
    dropped = dict(data, witnesses=data["witnesses"][1:])
    assert oracle.check_criterion(q, surface, dropped)
    assert oracle.check_criterion(q, surface, dict(data, verdict=oracle.HOLDS))
    swapped = dict(data, witnesses=list(reversed(data["witnesses"])) + data["witnesses"][:1])
    assert oracle.check_criterion(q, surface, swapped)

    sq = next(q for q in wl.cycles[0] if q["kind"] == "seshadri_at_point")
    raw = run.execute_table(session, sq)
    good = {"value": run.qp(raw.value), "kind": raw.kind, "achieving": raw.achieving_curve}
    surface = wl.surfaces[sq["surface"]]
    assert oracle.check_seshadri(sq, surface, good) == []
    n, d = good["value"]
    assert oracle.check_seshadri(sq, surface, dict(good, value=(n + d, d)))
    assert oracle.check_seshadri(sq, surface, dict(good, kind="no-data"))


def test_table_search_mix_has_all_verdicts():
    wl = gen.table_search(11)
    verdicts = set()
    for q in wl.cycles[0]:
        if q["kind"] in ("reider_freeness", "reider_very_ample", "jets_length_d"):
            table = oracle.Table(wl.surfaces[q["surface"]], q["L"])
            verdicts.add(oracle.expected_criterion(q["kind"], table, q["bound"],
                                                   q.get("point"), q.get("d"))[0])
    assert verdicts == {oracle.HOLDS, oracle.OBSTRUCTION, oracle.INCONCLUSIVE,
                        oracle.HYPOTHESES_FAIL}


def test_cli_requests_cover_every_subcommand_in_both_formats():
    wl = gen.cli_requests(11)
    cycle = wl.cycles[0]
    seen = {(q["sub"], q["format"]) for q in cycle if q["group"] != "malformed"}
    assert {s for s, _ in seen} == set(gen.SUBCOMMANDS) and len(gen.SUBCOMMANDS) == 11
    assert seen == {(s, f) for s in gen.SUBCOMMANDS for f in ("text", "json")}
    cases = [q["case"] for q in cycle if q["group"] == "malformed"]
    assert cases == [c for c, _ in gen.MALFORMED]
    assert sum(1 for q in cycle if q.get("defect")) == 3


def test_signature_oracle_matches_library_inertia():
    grams = [[[1]], [[0, 1], [1, 0]], [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
             [[0, 1, 0], [1, 0, 0], [0, 0, -2]], [[2, 1], [1, 2]], [[0, 0], [0, 0]],
             [[0, 1, 1], [1, 0, 1], [1, 1, 0]], [[-2, 1, 0], [1, -2, 1], [0, 1, -2]]]
    for gram in grams:
        n_pos, n_neg, n_zero, _ = surfcalc.IntersectionLattice(gram).inertia()
        assert oracle.signature(gram) == (n_pos, n_neg, n_zero), gram


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = dict(run.END_TO_END)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.GATED)
    assert [m["unit"] for m in spec["end_to_end"]] == [units[n] for n in run.GATED]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    predicted = json.loads((HERE / "predictions.json").read_text())["predictions"]
    names = [n for p in predicted for n in p["per_layer"]]
    assert sorted(names) == sorted(n for n, _, _ in run.PER_LAYER)
    e2e = {n for n, _ in run.END_TO_END}
    for p in predicted:
        for metric, workload in p["moves"] + p["unchanged"]:
            assert metric in e2e | {"*"} and workload in gen.WORKLOADS


def test_tracer_self_time_and_restore():
    import surfcalc.lattice as lattice

    original = lattice.IntersectionLattice.pair
    model = load_fixture("p1xp1")
    tr = tracing.Tracer()
    restore = tracing.install(tr, {k: v for k, v in sys.modules.items()
                                   if k == "surfcalc" or k.startswith("surfcalc.")})
    try:
        l = DivisorClass([1, 3])
        assert surfcalc.criteria.reider_freeness(model, l, None, 2).verdict == oracle.OBSTRUCTION
    finally:
        restore()
    assert lattice.IntersectionLattice.pair is original
    s = tr.summary()
    assert s["criteria.reider_freeness"]["calls"] == 1
    # one span per resumption: 3^2 - 1 combinations, then the exhausted call
    assert s["lattice.effective_combinations"]["calls"] == 9
    assert tr.counters["lattice.effective_combinations.yielded"] == 8
    assert tr.counters["criteria.visited"] == 8
    assert s["lattice.pair"]["calls"] >= 16
    total = s["criteria.reider_freeness"]["total_s"]
    inner = sum(v["self_s"] for k, v in s.items() if k != "criteria.reider_freeness")
    assert abs(s["criteria.reider_freeness"]["self_s"] - (total - inner)) < 1e-9
