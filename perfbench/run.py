"""surfcalc benchmark: one seeded workload per run, answers checked by an
independent oracle, metrics printed by name with their units.

    python3 perfbench/run.py --workload table-search --seed 1 --seconds 30 --trace 0

Workloads (see gen.py): `table-search` (curve-table criteria and Seshadri
searches), `lattice-solve` (high-rank validation, blow-up chains, Zariski,
Mumford, destabilizers) and `cli-requests` (one `python -m surfcalc.cli`
process per request, malformed inputs included).  Each is a closed loop
with one client: the next query starts when the previous answer is back.
Whole cycles of the workload's query mix run until --seconds of query time
have passed; each answer is checked (oracle.py) outside the timed region.

--trace 0 reports the end-to-end metrics with tracing off.  --trace 1
alternates untraced and traced runs of each cycle (CLI requests run
in-process there, through surfcalc.cli.main) and reports the per-layer
metrics; the wrappers are installed from here, see tracer.py.  A layer
metric whose functions the workload never calls reads 0 for that workload.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  `failed` counts every wrong answer, the known defects of
the program (gen.MALFORMED) included; `correct` is false when any other
answer is wrong, or a known defect shows another symptom than the
documented one (KNOWN_SYMPTOM).  A fuller record (environment, failures, sample counts,
error_rate) goes to .perfbench/results/ and, for traced runs, the spans to
.perfbench/spans/, both under the checkout root.

Measurement limits: the benchmark acts on its own processes only.  No
cache dropping, CPU pinning, frequency control or cgroup change is done,
so the noise of a shared machine stays in the spread.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = SRC / "surfcalc" / "fixtures"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402
import tracer as tracing  # noqa: E402

SETUPS = 10              # set-ups timed per untraced run, spread over it
START_REPEATS = 7
CHILD_TIMEOUT_S = 60
MIN_TAIL = 10            # samples required above the reported high percentile
LIMITS = ("no cache dropping, CPU pinning, frequency control or cgroup change "
          "is done; the noise of a shared machine stays in the spread")

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_qps", "queries/s"),
    ("peak_rss_mib", "MiB"),
)
# the end-to-end metrics that BENCHMARK.json bounds and the final line
# carries.  The latency percentiles spread by up to 25-40% between runs
# of table-search on a shared machine (a percentile lies where the query
# sizes of the mix change), so they are printed and recorded but not
# bounded.
GATED = ("setup_s", "throughput_qps", "peak_rss_mib")
# printed and recorded too: it is 0 on a correct program, and a bounded
# metric must never be 0
ERROR_RATE = ("error_rate", "ratio")

# what each known defect of the program (gen.MALFORMED) looks like today:
# the malformed input is accepted.  Any other failure of such a request is
# a regression and makes the run incorrect.
KNOWN_SYMPTOM = ["exit 0, expected 2"]

CRITERIA = ("reider_freeness", "reider_very_ample", "jets_length_d",
            "kodaira_zero_obstructions")


class BenchError(RuntimeError):
    """The surfcalc under test is not the checkout's own."""


# ---------------------------------------------------------------------------
# environment


def _median_child_ms(code: str) -> float:
    env = _child_env()
    times = []
    for _ in range(START_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
        times.append((perf_counter() - t0) * 1000)
    return statistics.median(times)


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "cli.interp_start_ms": _median_child_ms("pass"),
        "measurement_limits": LIMITS,
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# inputs on disk


class Inputs:
    """A generated workload written to a scratch directory, with the
    placeholders of CLI arguments resolved to paths."""

    def __init__(self, wl: gen.Workload, work: Path):
        self.wl = wl
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        for name, data in wl.extra.get("resolutions", {}).items():
            self._write(name, data)
        for case, data in wl.extra.get("malformed_files", {}).items():
            self._write(f"bad_{case}", data)
        # every well-formed surface the workload reads: generated files and
        # the bundled fixture surfaces its requests name
        self.setup_files = {name: self._write(name, data) for name, data in wl.surfaces.items()}
        for q in (wl.cycles[0] if wl.cycles else ()):
            if q.get("group") == "malformed":
                continue
            for a in q.get("argv", ()):
                if a.startswith("fixture:") and not _is_resolution(self.path(a)):
                    self.setup_files[a] = Path(self.path(a))

    def _write(self, name, data) -> Path:
        path = self.work / f"{name}.json"
        text = data if isinstance(data, str) else json.dumps(data, indent=1)
        path.write_text(text, encoding="utf-8")
        return path

    def path(self, token: str) -> str:
        if token.startswith("fixture:"):
            return str(FIXTURES / f"{token[8:]}.json")
        if token.startswith("@bad:"):
            return str(self.work / f"bad_{token[5:]}.json")
        return str(self.work / f"{token[1:]}.json")

    def argv(self, request) -> list[str]:
        return [self.path(a) if a.startswith(("@", "fixture:")) else a for a in request["argv"]]

    def read_json(self, token):
        with open(self.path(token), encoding="utf-8") as fh:
            return json.load(fh)


def _is_resolution(path) -> bool:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get("kind") == "resolution"


# ---------------------------------------------------------------------------
# the program under test


def import_surfcalc():
    for key in [k for k in sys.modules if k == "surfcalc" or k.startswith("surfcalc.")]:
        del sys.modules[key]
    sc = importlib.import_module("surfcalc")
    if not Path(sc.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported surfcalc from {sc.__file__}, not from {SRC}")
    return sc


class Session:
    """The loaded package and every model a workload's queries use."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.sc = None
        self.models = {}
        self.reports = {}
        self._expected_ok = {}

    def load(self, reimport=True):
        """Import surfcalc, then load and validate every surface: the work
        that setup_s times."""
        sc = self.sc = import_surfcalc() if reimport else sys.modules["surfcalc"]
        self.models, self.reports = {}, {}
        for name, path in self.inputs.setup_files.items():
            model = sc.load_surface(path)
            self.models[name] = model
            self.reports[name] = sc.validate_surface(model)
        for d, m, a in self.inputs.wl.extra.get("miranda", ()):
            ex = sc.miranda_example(d, m, a)
            self.models[("miranda", d, m, a)] = ex
            self.reports[("miranda", d, m, a)] = sc.validate_surface(ex.model)

    def check(self, q, raw) -> list[str]:
        return check_answer(self, q, raw)

    def modules(self) -> dict:
        return {k: v for k, v in sys.modules.items()
                if k == "surfcalc" or k.startswith("surfcalc.")}

    def check_setup(self) -> list[str]:
        problems = []
        for name, report in self.reports.items():
            if name not in self._expected_ok:
                if isinstance(name, tuple):
                    data = oracle.miranda_surface(*name[1:])[0]
                else:
                    data = self.inputs.wl.surfaces.get(name) or self.inputs.read_json(name)
                self._expected_ok[name] = oracle.expected_valid(data)
            want = self._expected_ok[name]
            if report.ok != want:
                problems.append(f"setup: validation of {name} gives ok={report.ok}, expected {want}")
        return problems


def execute_table(session: Session, q):
    sc, model = session.sc, session.models[q["surface"]]
    l = sc.DivisorClass(q["L"])
    kind, bound = q["kind"], q["bound"]
    if kind == "reider_freeness":
        return sc.reider_freeness(model, l, q.get("point"), bound)
    if kind == "reider_very_ample":
        return sc.reider_very_ample(model, l, bound)
    if kind == "jets_length_d":
        return sc.jets_length_d(model, l, q["d"], bound)
    if kind == "kodaira_zero_obstructions":
        return sc.kodaira_zero_obstructions(model, l, bound)
    if kind == "seshadri_at_point":
        return sc.seshadri_at_point(model, l, q["point"], bound)
    if kind == "multipoint_seshadri":
        return sc.multipoint_seshadri(model, l, list(q["points"]), bound)
    raise ValueError(kind)


def execute_lattice(session: Session, q):
    sc, kind = session.sc, q["kind"]
    if kind == "validate_miranda":
        return sc.validate_surface(session.models[("miranda", *q["miranda"])].model)
    if kind == "blowup_chain":
        model = session.models[q["surface"]]
        for point in q["points"]:
            model = sc.blow_up(model, point).result
        path = session.inputs.work / "chain.json"
        sc.save_surface(model, path)
        return sc.load_surface(path)
    if kind == "zariski":
        return sc.zariski_decompose(session.models[q["surface"]], sc.DivisorClass(q["D"]))
    if kind == "mumford":
        res = sys.modules["surfcalc.positivity"].make_resolution(q["gram"], q["incidence"], f"a{q['n']}")
        return sc.mumford_intersect(res, "A", "B", Fraction(*q["base"]))
    if kind == "destabilizer":
        e = sc.ChernData(2, sc.DivisorClass(q["c1"]), q["c2"])
        return sc.destabilizer_search(session.models[q["surface"]], e,
                                      sc.DivisorClass(q["H"]), q["bound"])
    raise ValueError(kind)


def execute_cli_process(session: Session, q):
    t = subprocess.run([sys.executable, "-m", "surfcalc.cli", *session.inputs.argv(q)],
                       env=_child_env(), cwd=session.inputs.work, capture_output=True,
                       text=True, timeout=CHILD_TIMEOUT_S)
    return {"exit": t.returncode, "stdout": t.stdout, "stderr": t.stderr}


def execute_cli_inprocess(session: Session, q):
    cli = sys.modules["surfcalc.cli"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(session.inputs.argv(q))
        except SystemExit as stop:
            code = stop.code if isinstance(stop.code, int) else 2
        except Exception:                       # a crash is an answer to check
            traceback.print_exc()
            code = 1
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


# ---------------------------------------------------------------------------
# answers as plain data for the oracle


def qp(x):
    return (x.numerator, x.denominator)


def _int_or_q(x):
    return int(x) if x.denominator == 1 else qp(x)


def report_data(report):
    return {"verdict": report.verdict, "witnesses": [
        {"label": w.label, "class": [qp(c) for c in w.klass.coeffs], "dot_l": qp(w.dot_l),
         "d2": qp(w.self_intersection), "mult": w.mult_at_point} for w in report.witnesses]}


def model_data(model):
    return {
        "name": model.name, "rank": model.rank,
        "gram": [list(row) for row in model.lattice.gram],
        "canonical": [_int_or_q(c) for c in model.canonical.coeffs],
        "chi_O": model.chi_O,
        "curves": [{"name": c.name, "class": [_int_or_q(x) for x in c.klass.coeffs],
                    "genus": c.genus, "mults": dict(c.point_mults), "ordinary": c.ordinary}
                   for c in model.curves],
        "complete_through": list(model.complete_through) if model.complete_through is not None else None,
    }


def check_answer(session: Session, q, raw) -> list[str]:
    kind = q["kind"]
    surfaces = session.inputs.wl.surfaces
    if kind in ("reider_freeness", "reider_very_ample", "jets_length_d"):
        return oracle.check_criterion(q, surfaces[q["surface"]], report_data(raw))
    if kind == "kodaira_zero_obstructions":
        return oracle.check_kodaira(q, surfaces[q["surface"]], {
            "freeness": report_data(raw.freeness), "very_ample": report_data(raw.very_ample)})
    if kind in ("seshadri_at_point", "multipoint_seshadri"):
        return oracle.check_seshadri(q, surfaces[q["surface"]], {
            "value": qp(raw.value) if raw.value is not None else None,
            "kind": raw.kind, "achieving": raw.achieving_curve})
    if kind == "validate_miranda":
        ex = session.models[("miranda", *q["miranda"])]
        return oracle.check_miranda(q, {"ok": raw.ok, "model": model_data(ex.model),
                                        "l": [_int_or_q(c) for c in ex.l.coeffs]})
    if kind == "blowup_chain":
        return oracle.check_blowup_chain(q, surfaces[q["surface"]], {"model": model_data(raw)})
    if kind == "zariski":
        return oracle.check_zariski(q["D"], surfaces[q["surface"]], {
            "positive": [qp(c) for c in raw.positive_part.coeffs],
            "negative": [(name, qp(c)) for name, c in raw.negative_part]})
    if kind == "mumford":
        return oracle.check_mumford(q, qp(raw))
    if kind == "destabilizer":
        return oracle.check_destabilizer(q, surfaces[q["surface"]], [
            ([qp(c) for c in cand.klass.coeffs], cand.length_z) for cand in raw.candidates])
    if kind == "cli":
        return oracle.check_cli(q, raw, surfaces, session.inputs.read_json)
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# measurement


class Pass:
    """Answers and timings of whole cycles of the query mix."""

    def __init__(self):
        self.records = []          # (query, seconds, problems with the answer)
        self.timed = 0.0           # summed query time: the timed wall time
        self.cycles = 0
        self.cycle_s = []          # query time of each cycle

    def extend(self, other: "Pass") -> None:
        self.records += other.records
        self.timed += other.timed
        self.cycles += other.cycles
        self.cycle_s += other.cycle_s

    def failures(self):
        """(failures, unexpected): every failed query, and those that are
        not a known defect of the program showing its known symptom."""
        failures = [{"id": q["id"], "group": q["group"], "kind": q["kind"],
                     "defect": q.get("defect"), "problems": problems[:3]}
                    for q, _, problems in self.records if problems]
        return failures, [f for f in failures
                          if not (f["defect"] and f["problems"] == KNOWN_SYMPTOM)]


def run_cycle(queries, execute, check, around=None) -> Pass:
    """One closed-loop pass over a cycle of queries.  Each answer is checked
    as soon as it is back, outside the timed region, so no answers pile up
    in memory.  `around(query)` may return a context manager wrapped round
    each query."""
    result = Pass()
    gc.collect()
    for q in queries:
        with around(q) if around else contextlib.nullcontext():
            t0 = perf_counter()
            try:
                raw, error = execute(q), None
            except Exception as exc:               # a failed query is counted, not fatal
                raw, error = None, f"{type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
        result.records.append((q, dt, [error] if error else check(q, raw)))
        result.timed += dt
    result.cycles = 1
    result.cycle_s = [result.timed]
    return result


def latency_stats(p: Pass) -> dict:
    ms = sorted(dt * 1000 for _, dt, _ in p.records)
    p50 = statistics.median(ms)
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) >= 2 else ms[0]
    return {"p50": p50, "p90": p90, "samples": len(ms),
            "above_p90": sum(1 for x in ms if x > p90)}


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024          # KiB on Linux


# ---------------------------------------------------------------------------
# per-layer metrics from the trace


def _hooks():
    def search_space(tr, args, kwargs, _):
        model = args[0]
        bound = args[1] if len(args) > 1 else kwargs["coeff_bound"]
        tr.count("lattice.search_space", (bound + 1) ** len(model.curves) - 1)

    def witnesses(tr, args, kwargs, result):
        reports = [result.freeness, result.very_ample] if hasattr(result, "freeness") else [result]
        tr.count("criteria.witnesses", sum(len(r.witnesses) for r in reports))

    def destabilizers(tr, args, kwargs, result):
        model, bound = args[0], args[3] if len(args) > 3 else kwargs["coeff_bound"]
        tr.count("bundles.destabilizer_search.classes_scanned", (2 * bound + 1) ** model.rank)
        tr.count("bundles.destabilizer_search.candidates", len(result.candidates))

    def bytes_read(tr, args, kwargs, result):
        tr.count("surface_io.bytes_read", os.path.getsize(args[0] if args else kwargs["path"]))

    hooks = {"lattice.effective_combinations": search_space,
             "bundles.destabilizer_search": destabilizers,
             "surface_io.load_surface": bytes_read}
    for name in CRITERIA:
        hooks[f"criteria.{name}"] = witnesses
    return hooks


def _self(span):
    return lambda s, c: s[span]["self_s"]


def _calls(span):
    return lambda s, c: s[span]["calls"]


def _p50(span):
    return lambda s, c: statistics.median(s[span]["durations"]) * 1000


def _counter(key):
    return lambda s, c: c.get(key, 0)


def _ratio(num, den):
    return lambda s, c: c.get(num, 0) / c[den] if c.get(den) else 0.0


# (name, unit, better, spans whose calls make the metric observed, value)
LAYER_METRICS = [
    ("lattice.effective_combinations.yielded", "count", "lower",
     ("lattice.effective_combinations",), _counter("lattice.effective_combinations.yielded")),
    ("lattice.effective_combinations.self_s", "s", "lower",
     ("lattice.effective_combinations",), _self("lattice.effective_combinations")),
    ("lattice.search_space", "count", "lower",
     ("lattice.effective_combinations",), _counter("lattice.search_space")),
    ("lattice.visited_share", "ratio", "lower", ("lattice.effective_combinations",),
     _ratio("lattice.effective_combinations.yielded", "lattice.search_space")),
    ("lattice.pair.calls", "count", "lower", ("lattice.pair",), _calls("lattice.pair")),
    ("lattice.pair.self_s", "s", "lower", ("lattice.pair",), _self("lattice.pair")),
    ("lattice.is_nef_on_table.self_s", "s", "lower",
     ("lattice.is_nef_on_table",), _self("lattice.is_nef_on_table")),
    ("lattice.inertia.calls", "count", "lower", ("lattice.inertia",), _calls("lattice.inertia")),
    ("lattice.inertia.self_s", "s", "lower", ("lattice.inertia",), _self("lattice.inertia")),
    ("positivity.solve_exact.calls", "count", "lower",
     ("positivity.solve_exact",), _calls("positivity.solve_exact")),
    ("positivity.solve_exact.self_s", "s", "lower",
     ("positivity.solve_exact",), _self("positivity.solve_exact")),
    ("lattice.validate_surface.self_s", "s", "lower",
     ("lattice.validate_surface",), _self("lattice.validate_surface")),
    *[(f"criteria.{name}.p50_ms", "ms", "lower", (f"criteria.{name}",), _p50(f"criteria.{name}"))
      for name in CRITERIA],
    ("criteria.witnesses", "count", "higher",
     tuple(f"criteria.{n}" for n in CRITERIA), _counter("criteria.witnesses")),
    ("criteria.hit_ratio", "ratio", "higher",
     tuple(f"criteria.{n}" for n in CRITERIA), _ratio("criteria.witnesses", "criteria.visited")),
    ("seshadri.seshadri_at_point.p50_ms", "ms", "lower",
     ("seshadri.seshadri_at_point",), _p50("seshadri.seshadri_at_point")),
    ("seshadri.multipoint_seshadri.p50_ms", "ms", "lower",
     ("seshadri.multipoint_seshadri",), _p50("seshadri.multipoint_seshadri")),
    ("seshadri.combinations_visited", "count", "lower",
     ("seshadri.seshadri_at_point", "seshadri.multipoint_seshadri"), _counter("seshadri.visited")),
    ("positivity.zariski_decompose.p50_ms", "ms", "lower",
     ("positivity.zariski_decompose",), _p50("positivity.zariski_decompose")),
    ("positivity.mumford_intersect.p50_ms", "ms", "lower",
     ("positivity.mumford_intersect",), _p50("positivity.mumford_intersect")),
    ("positivity.make_resolution.self_s", "s", "lower",
     ("positivity.make_resolution",), _self("positivity.make_resolution")),
    ("blowup.blow_up.self_s", "s", "lower", ("blowup.blow_up",), _self("blowup.blow_up")),
    ("bundles.destabilizer_search.p50_ms", "ms", "lower",
     ("bundles.destabilizer_search",), _p50("bundles.destabilizer_search")),
    ("bundles.destabilizer_search.classes_scanned", "count", "lower",
     ("bundles.destabilizer_search",), _counter("bundles.destabilizer_search.classes_scanned")),
    ("bundles.destabilizer_search.candidates", "count", "higher",
     ("bundles.destabilizer_search",), _counter("bundles.destabilizer_search.candidates")),
    ("surface_io.load_surface.self_s", "s", "lower",
     ("surface_io.load_surface",), _self("surface_io.load_surface")),
    ("surface_io.save_surface.self_s", "s", "lower",
     ("surface_io.save_surface",), _self("surface_io.save_surface")),
    ("surface_io.bytes_read", "count", "lower",
     ("surface_io.load_surface",), _counter("surface_io.bytes_read")),
    ("qdivisor.parse_qdivisor.self_s", "s", "lower",
     ("qdivisor.parse_qdivisor",), _self("qdivisor.parse_qdivisor")),
    ("report.render.self_s", "s", "lower", ("report.render",), _self("report.render")),
    ("report.to_json.self_s", "s", "lower", ("report.to_json",), _self("report.to_json")),
    *[(f"cli.main.{sub}.p50_ms", "ms", "lower", (f"bench.cli.{sub}",), _p50(f"bench.cli.{sub}"))
      for sub in gen.SUBCOMMANDS],
]
# measured outside the trace
EXTRA_LAYER_METRICS = [
    ("cli.interp_start_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
    ("bench.unattributed_s", "s", "lower"),
]
PER_LAYER = [(n, u, b) for n, u, b, _, _ in LAYER_METRICS] + EXTRA_LAYER_METRICS


@contextlib.contextmanager
def traced_calls(tr: tracing.Tracer, session: Session):
    """Layer wrappers recording into `tr` for the duration of the block."""
    restore = tracing.install(tr, session.modules(), _hooks())
    try:
        yield
    finally:
        restore()


def layer_values(tr: tracing.Tracer):
    """Per-layer values from the workload's trace, and the metrics whose
    functions the workload never called (those read 0)."""
    summary = tr.summary()
    values, unobserved = {}, []
    for name, _, _, spans, value in LAYER_METRICS:
        if any(s in summary for s in spans):
            values[name] = value(summary, tr.counters)
        else:
            values[name] = 0
            unobserved.append(name)
    return values, unobserved


def _executor(name, session, tr=None, in_process=False):
    if name == "table-search":
        execute = lambda q: execute_table(session, q)
    elif name == "lattice-solve":
        execute = lambda q: execute_lattice(session, q)
    elif in_process:
        execute = lambda q: execute_cli_inprocess(session, q)
    else:
        execute = lambda q: execute_cli_process(session, q)
    around = None
    if tr is not None:
        @contextlib.contextmanager
        def around(q):
            tr.query_id = q["id"]
            i = tr.begin(tr.name_id(f"bench.cli.{q['sub']}" if q["kind"] == "cli" else "bench.query"))
            try:
                yield
            finally:
                tr.finish(i)
    return execute, around


# ---------------------------------------------------------------------------
# runs


def run_untraced(name, seed, seconds, work, env):
    inputs = Inputs(gen.WORKLOADS[name](seed), work)
    session = Session(inputs)
    setup_times, setup_problems = [], []

    def timed_setup():
        t0 = perf_counter()
        session.load()
        setup_times.append(perf_counter() - t0)
        setup_problems.extend(session.check_setup())

    # set-up is repeated at every tenth of the run rather than back to back,
    # so that its median spans the whole run, not one slow or fast spell
    timed_setup()
    execute, _ = _executor(name, session)
    p = Pass()
    while p.timed < seconds:
        p.extend(run_cycle(inputs.wl.cycles[p.cycles % len(inputs.wl.cycles)],
                           execute, session.check))
        if p.timed >= len(setup_times) * seconds / SETUPS:
            timed_setup()
    while len(setup_times) < SETUPS:
        timed_setup()
    rss = peak_rss_mib(children=(name == "cli-requests"))
    failures, unexpected = p.failures()
    lat = latency_stats(p)
    attempted = len(p.records)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "latency_p50_ms": lat["p50"],
        "latency_p90_ms": lat["p90"],
        "throughput_qps": attempted / p.timed,
        "peak_rss_mib": rss,
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": 0,
        "environment": env, "cycles": p.cycles, "timed_s": p.timed, "cycle_s": p.cycle_s,
        "samples": lat["samples"], "samples_above_p90": lat["above_p90"],
        "setup_runs_s": setup_times,
        ERROR_RATE[0]: len(failures) / attempted,
        "failures": failures, "setup_problems": setup_problems,
    }
    return metrics, END_TO_END, record, attempted, failures, unexpected + setup_problems


def run_traced(name, seed, seconds, work, env):
    inputs = Inputs(gen.WORKLOADS[name](seed), work)
    session = Session(inputs)
    session.load()
    if name == "cli-requests":
        importlib.import_module("surfcalc.cli")   # run in-process, so wrapped too
    env["cli.import_ms"] = _median_child_ms("import surfcalc.cli") - env["cli.interp_start_ms"]

    main = tracing.Tracer()
    with traced_calls(main, session):
        main.query_id = -1                     # set-up spans
        session.load(reimport=False)

    # untraced and traced runs of each cycle alternate, in turns going
    # first, so that a slow spell of a shared machine lands on both sides
    # of the overhead ratio
    plain, _ = _executor(name, session, in_process=True)
    execute, around = _executor(name, session, main, in_process=True)
    untraced, traced = Pass(), Pass()
    t_start = perf_counter()
    while perf_counter() - t_start < seconds:
        cycle = inputs.wl.cycles[untraced.cycles % len(inputs.wl.cycles)]
        sides = [False, True] if untraced.cycles % 2 == 0 else [True, False]
        for with_trace in sides:
            if with_trace:
                with traced_calls(main, session):
                    traced.extend(run_cycle(cycle, execute, session.check, around=around))
            else:
                untraced.extend(run_cycle(cycle, plain, session.check))

    failures, unexpected = traced.failures()
    values, unobserved = layer_values(main)
    pass_ids = {q["id"] for q, _, _ in traced.records}
    in_pass = main.summary(queries=pass_ids)
    library_self = sum(s["self_s"] for n, s in in_pass.items() if not n.startswith("bench."))
    values["cli.interp_start_ms"] = env["cli.interp_start_ms"]
    values["cli.import_ms"] = env["cli.import_ms"]
    values["bench.trace_overhead"] = traced.timed / untraced.timed
    values["bench.unattributed_s"] = traced.timed - library_self

    spans_dir = ROOT / ".perfbench" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    main.write(spans_dir / f"{name}-seed{seed}.tsv.gz")
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": 1,
        "environment": env, "cycles": traced.cycles,
        "untraced_timed_s": untraced.timed, "traced_timed_s": traced.timed,
        "spans": len(main.start), "unobserved": unobserved,
        "hook_errors": main.counters.get("bench.hook_errors", 0),
        ERROR_RATE[0]: len(failures) / len(traced.records), "failures": failures,
    }
    return values, PER_LAYER, record, len(traced.records), failures, unexpected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "surfcalc" / "__init__.py").is_file():
        print(f"error: no surfcalc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        env = environment()
        run = run_traced if args.trace else run_untraced
        values, specs, record, attempted, failures, unexpected = run(
            args.workload, args.seed, args.seconds, work, env)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {name: {"value": values[name], "unit": unit} for name, unit, *_ in specs}
    record["metrics"] = metrics
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{record['cycles']} cycles")
    print(f"environment: python {env['python']}, nproc {env['nproc']}, cpu {env['cpu_model']}, "
          f"interpreter start {env['cli.interp_start_ms']:.1f} ms")
    print(f"measurement limits: {LIMITS}")
    for name, m in metrics.items():
        extra = ""
        if name == "latency_p90_ms":
            extra = f"  ({record['samples']} samples, {record['samples_above_p90']} above)"
        print(f"  {name:48} {m['value']:14.6g} {m['unit']}{extra}")
    print(f"  {ERROR_RATE[0]:48} {record[ERROR_RATE[0]]:14.6g} {ERROR_RATE[1]}"
          f"  ({len(failures)} of {attempted} failed)")
    if not args.trace and record["samples_above_p90"] < MIN_TAIL:
        print(f"warning: only {record['samples_above_p90']} samples above p90; "
              f"raise --seconds", file=sys.stderr)
    known = sorted({f["defect"] for f in failures if f["defect"]})
    for defect in known:
        print(f"known defect still present: {defect}")
    for f in unexpected[:10]:
        print(f"FAILED: {f}")
    final = {k: v for k, v in metrics.items() if args.trace or k in GATED}
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": len(failures), "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
