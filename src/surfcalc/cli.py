"""Command-line front end.

One process per request, fully deterministic output.  Each handler returns
a JSON payload and an exit code; `main` prints the payload, as JSON with
`--format json` and through `report.render_text` otherwise.  `run` is the
process entry point of both `surfcalc` and `python -m surfcalc.cli`.
Exit codes:

    0   success / criterion-holds
    10  obstruction-found
    11  inconclusive
    12  hypotheses-fail (not pseudoeffective for `zariski`, L not ample or
        no table to check it on for `matsusaka`)
    2   input, parse or schema error
    3   internal invariant breach (always a bug)
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys

# Only the layers that parsing, loading and printing need are imported
# here; each handler imports the rest of what it runs, so a request loads
# no layer it does not use.  `criteria` stays eager although only `reider`
# uses it: perfbench's tracer test wraps the surfcalc modules already in
# sys.modules after `import surfcalc.cli`, then calls
# surfcalc.criteria.reider_freeness.
from .criteria import reider_freeness, reider_very_ample
from .lattice import DivisorClass, InvariantBreach, intersect, self_int, validate_surface
from .rational import fmt_q, parse_q
from .report import EXIT_CODES, render_text
from .surface_io import (
    SurfaceFormatError,
    load_resolution,
    load_surface,
    resolution_from_dict,
    save_surface,
)

EXIT_INPUT = 2
EXIT_BUG = 3


def parse_class(text: str) -> DivisorClass:
    try:
        return DivisorClass([parse_q(part) for part in text.split(",")])
    except ValueError as err:
        raise SurfaceFormatError(f"bad class literal {text!r}: {err}") from None


def point_label(text: str) -> str:
    """argparse type of a --point value: a label is never empty."""
    if not text:
        raise argparse.ArgumentTypeError("a point label cannot be empty")
    return text


def point_labels(text: str) -> list[str]:
    """argparse type of --points: comma-separated labels, none empty."""
    return [point_label(part.strip()) for part in text.split(",")]


def _load_validated(path):
    model = load_surface(path)
    report = validate_surface(model)
    if not report.ok:
        bad = "; ".join(f"{c.name}: {c.detail}" for c in report.failures())
        raise SurfaceFormatError(f"{path}: surface fails validation ({bad})")
    return model


def _coeffs(klass: DivisorClass) -> list[str]:
    return [fmt_q(c) for c in klass.coeffs]


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (payload, exit code)


def cmd_validate(args):
    model = load_surface(args.surface)
    report = validate_surface(model)
    payload = {
        "surface": model.name,
        "ok": report.ok,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in report.checks
        ],
    }
    return payload, 0 if report.ok else EXIT_INPUT


def cmd_reider(args):
    model = _load_validated(args.surface)
    l = parse_class(args.line_bundle)
    if args.very_ample:
        report = reider_very_ample(model, l, args.bound)
    else:
        report = reider_freeness(model, l, args.point, args.bound)
    return report.to_json(), report.exit_code


def cmd_seshadri(args):
    from .seshadri import jets_from_seshadri, multipoint_seshadri, seshadri_at_point

    model = _load_validated(args.surface)
    l = parse_class(args.line_bundle)
    if args.points:
        bound = multipoint_seshadri(model, l, args.points, args.bound)
    elif args.point:
        bound = seshadri_at_point(model, l, args.point, args.bound)
    else:
        raise SurfaceFormatError("seshadri needs --point or --points")
    payload = {
        "value": fmt_q(bound.value) if bound.value is not None else None,
        "kind": bound.kind,
        "achieving_curve": bound.achieving_curve,
        # always false, as the achieving curve is one table curve; the key
        # stays because perfbench/gen.py JSON_KEYS requires it and goes with
        # the next change to the benchmark
        "reducible_candidate": False,
        "note": bound.note,
    }
    if args.jets is not None:
        if bound.value is None:
            raise SurfaceFormatError("no Seshadri data: cannot assess jets")
        verdict = jets_from_seshadri(bound.value, self_int(model, l), args.jets)
        payload["jets"] = {"s": verdict.s, "generates": verdict.generates_jets,
                           "reason": verdict.reason}
    return payload, 0


def cmd_zariski(args):
    from .positivity import NotPseudoeffective, zariski_decompose
    from .qdivisor import class_of, parse_qdivisor, table_namespace

    model = _load_validated(args.surface)
    divisor = parse_qdivisor(args.divisor, table_namespace(model))
    d = class_of(model, divisor)
    try:
        decomposition = zariski_decompose(model, d)
    except NotPseudoeffective as err:
        return {"error": str(err)}, EXIT_CODES["hypotheses-fail"]
    payload = {
        "input": _coeffs(d),
        "positive_part": _coeffs(decomposition.positive_part),
        "negative_part": [
            {"curve": name, "coefficient": fmt_q(c)}
            for name, c in decomposition.negative_part
        ],
    }
    return payload, 0


def cmd_mumford(args):
    from .positivity import mumford_intersect, mumford_pullback

    if args.surface and (args.gram is not None or args.incidence):
        raise SurfaceFormatError(
            "mumford takes a resolution file or --gram and --incidence, not both"
        )
    if args.surface:
        res = load_resolution(args.surface)
    elif args.gram is not None:
        try:
            gram = json.loads(args.gram)
        except json.JSONDecodeError as err:
            raise SurfaceFormatError(f"bad gram matrix: {err}") from None
        incidence = {}
        for item in args.incidence or ():
            name, _, vector = item.partition("=")
            if not vector:
                raise SurfaceFormatError(f"bad incidence {item!r}; use name=v1,v2,...")
            if name in incidence:
                raise SurfaceFormatError(f"incidence of {name!r} given twice")
            incidence[name] = [int(x) for x in vector.split(",")]
        res = resolution_from_dict(
            {"kind": "resolution", "exceptional_gram": gram, "incidence": incidence}
        )
    else:
        raise SurfaceFormatError("mumford needs a resolution file or --gram")
    name1, name2 = args.meet
    value = mumford_intersect(res, name1, name2, parse_q(args.base))
    deltas = {
        name: [fmt_q(x) for x in mumford_pullback(res, name)]
        for name in sorted(res.incidence)
    }
    return {"intersection": fmt_q(value), "delta": deltas}, 0


def cmd_matsusaka(args):
    from .lattice import min_intersection
    from .positivity import matsusaka_thresholds

    model = _load_validated(args.surface)
    l = parse_class(args.line_bundle)
    lc, name = min_intersection(model, l, model.curves)
    if lc is None:
        # L and -L have the same square: without a curve, ampleness is unchecked
        error = "cannot check that L is ample: the curve table is empty"
        return {"error": error}, EXIT_CODES["hypotheses-fail"]
    if lc <= 0:
        error = f"L is not ample on the table: L.{name} = {fmt_q(lc)}"
        return {"error": error}, EXIT_CODES["hypotheses-fail"]
    a = self_int(model, l)
    b = intersect(model, model.canonical + 4 * l, l)
    thresholds = matsusaka_thresholds(a, b)
    star = thresholds.star(thresholds.m_free)
    payload = {
        "a": fmt_q(a),
        "b": fmt_q(b),
        "m_free": thresholds.m_free,
        "m_very_ample": thresholds.m_very_ample,
        "rho_at_m_free": fmt_q(thresholds.rho(thresholds.m_free)),
        "star_at_m_free": {
            "rho_gt_4": star.rho_gt_4,
            "sqrt_inequality": star.sqrt_inequality,
            "branch": star.branch,
        },
    }
    if thresholds.note:
        payload["note"] = thresholds.note
    return payload, 0


def cmd_blowup(args):
    from .blowup import blow_up

    model = _load_validated(args.surface)
    bm = blow_up(model, args.point)
    save_surface(bm.result, args.output)
    payload = {"output": args.output, "rank": bm.result.rank,
               "exceptional": f"E_{args.point}"}
    return payload, 0


def cmd_bundle(args):
    from .bundles import ChernData, destabilizer_search, discriminant, twist

    model = _load_validated(args.surface)
    data = ChernData(2, parse_class(args.c1), args.c2)
    payload: dict = {
        "c1": _coeffs(data.c1),
        "c2": data.c2,
        "discriminant": fmt_q(discriminant(model, data)),
    }
    if args.twist:
        twisted = twist(model, data, parse_class(args.twist))
        payload["twisted"] = {
            "c1": _coeffs(twisted.c1),
            "c2": twisted.c2,
            "discriminant": fmt_q(discriminant(model, twisted)),
        }
    if args.destabilize:
        if not args.ample:
            raise SurfaceFormatError("--destabilize needs --ample \"<class>\"")
        result = destabilizer_search(model, data, parse_class(args.ample), args.bound)
        payload["destabilizer_candidates"] = [
            {"class": _coeffs(cand.klass), "length_Z": cand.length_z}
            for cand in result.candidates
        ]
        payload["inconclusive"] = result.inconclusive
    return payload, 0


def cmd_certify_jets(args):
    from .positivity import krs_jet_certificate
    from .qdivisor import parse_qdivisor, table_namespace

    model = _load_validated(args.surface)
    l = parse_class(args.line_bundle)
    divisor = parse_qdivisor(args.divisor, table_namespace(model))
    report = krs_jet_certificate(
        model, l, args.k, divisor, args.point, args.s, args.ample_asserted
    )
    return report.to_json(), report.exit_code


def cmd_qcheck(args):
    from .positivity import (
        kv_applicability,
        qdivisor_generation_check,
        qdivisor_very_ample_check,
    )
    from .qdivisor import parse_qdivisor, table_namespace

    model = _load_validated(args.surface)
    divisor = parse_qdivisor(args.divisor, table_namespace(model))
    if args.very_ample:
        report = qdivisor_very_ample_check(model, divisor)
    else:
        report = qdivisor_generation_check(model, divisor)
    vanishing = kv_applicability(model, divisor)
    report.note(
        "vanishing applicability: "
        + ("big and nef on table" if vanishing.applies else "not big-and-nef on table")
        + f"; adjoint class {vanishing.adjoint_class!r}"
    )
    return report.to_json(), report.exit_code


def cmd_report(args):
    from .fixtures import fixture_catalog, fixture_path

    if args.fixtures:
        payload = {
            "fixtures": [
                {"name": f.name, "kind": f.kind, "file": str(fixture_path(f.name)),
                 "description": f.description}
                for f in fixture_catalog()
            ]
        }
        return payload, 0
    if not args.surface:
        raise SurfaceFormatError("report needs a surface file or --fixtures")
    model = load_surface(args.surface)
    report = validate_surface(model)

    def square(d):
        # a structurally broken surface (a short Gram row, a class of the
        # wrong rank) has no intersection numbers
        return fmt_q(self_int(model, d)) if report.structural_ok else None

    payload = {
        "name": model.name,
        "rank": model.rank,
        "valid": report.ok,
        "K2": square(model.canonical),
        "chi_O": model.chi_O,
        "curves": [
            {
                "name": c.name,
                "class": _coeffs(c.klass),
                "self_intersection": square(c.klass),
                "genus": c.genus,
            }
            for c in model.curves
        ],
        "complete_through": list(model.complete_through or ()),
    }
    return payload, 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: `parse_args` returns a
    fresh namespace on every call, so `main` can reuse it."""
    parser = argparse.ArgumentParser(
        prog="surfcalc",
        description="exact-rational linear-series criteria on algebraic surfaces",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, surface=True):
        if surface:
            p.add_argument("surface", help="surface description file (JSON)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--seed", type=int, default=None,
                       help="accepted for harness compatibility; output is deterministic")

    p = sub.add_parser("validate", help="run all surface invariants")
    common(p)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("reider", help="adjoint freeness / very-ampleness obstructions")
    common(p)
    p.add_argument("--line-bundle", required=True, help='class, e.g. "1,3"')
    p.add_argument("--point", type=point_label, default=None,
                   help="restrict to classes through this label")
    p.add_argument("--very-ample", action="store_true")
    p.add_argument("--bound", type=int, default=3)
    p.set_defaults(handler=cmd_reider)

    p = sub.add_parser("seshadri", help="Seshadri bounds from the curve table")
    common(p)
    p.add_argument("--line-bundle", required=True)
    where = p.add_mutually_exclusive_group()
    where.add_argument("--point", type=point_label, default=None)
    where.add_argument("--points", type=point_labels, default=None,
                       help="comma-separated labels")
    p.add_argument("--bound", type=int, default=3,
                   help="must be >= 1; the value does not depend on it, since "
                   "only single table curves are scored")
    p.add_argument("--jets", type=int, default=None, help="assess s-jet generation")
    p.set_defaults(handler=cmd_seshadri)

    p = sub.add_parser("zariski", help="Zariski decomposition relative to the table")
    common(p)
    p.add_argument("--divisor", required=True, help='Q-divisor literal, e.g. "H + 2*E"')
    p.set_defaults(handler=cmd_zariski)

    p = sub.add_parser("mumford", help="Mumford Q-intersection on a resolution")
    p.add_argument("surface", nargs="?", default=None,
                   help="resolution description file (JSON)")
    common(p, surface=False)
    p.add_argument("--gram", default=None, help='exceptional Gram matrix, e.g. "[[-2]]"')
    p.add_argument("--incidence", action="append",
                   help='repeatable, e.g. "ruling1=1"')
    p.add_argument("--meet", nargs=2, required=True, metavar=("D1", "D2"))
    p.add_argument("--base", required=True, help="intersection of proper transforms, p/q")
    p.set_defaults(handler=cmd_mumford)

    p = sub.add_parser("matsusaka", help="effective global-generation thresholds")
    common(p)
    p.add_argument("--line-bundle", required=True)
    p.set_defaults(handler=cmd_matsusaka)

    p = sub.add_parser("blowup", help="blow up at a point label")
    common(p)
    p.add_argument("--point", type=point_label, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=cmd_blowup)

    p = sub.add_parser("bundle", help="rank-2 Chern data: discriminant, twist, destabilizers")
    p.add_argument("--surface", required=True)
    common(p, surface=False)
    p.add_argument("--c1", required=True)
    p.add_argument("--c2", type=int, required=True)
    p.add_argument("--twist", default=None)
    p.add_argument("--destabilize", action="store_true")
    p.add_argument("--ample", default=None)
    p.add_argument("--bound", type=int, default=3)
    p.set_defaults(handler=cmd_bundle)

    p = sub.add_parser("certify-jets", help="jet certificate from a divisor in |kL|")
    common(p)
    p.add_argument("--line-bundle", required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--divisor", required=True, help="Q-divisor literal over table names")
    p.add_argument("--point", type=point_label, required=True)
    p.add_argument("-s", type=int, default=0)
    p.add_argument("--ample-asserted", action="store_true")
    p.set_defaults(handler=cmd_certify_jets)

    p = sub.add_parser("qcheck", help="Q-divisor adjoint generation / very-ampleness")
    common(p)
    p.add_argument("--divisor", required=True)
    p.add_argument("--very-ample", action="store_true")
    p.set_defaults(handler=cmd_qcheck)

    p = sub.add_parser("report", help="surface dossier or fixture catalog")
    p.add_argument("surface", nargs="?", default=None)
    common(p, surface=False)
    p.add_argument("--fixtures", action="store_true", help="list bundled fixtures")
    p.set_defaults(handler=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, code = args.handler(args)
    except (OSError, ValueError, KeyError) as err:
        # SurfaceFormatError is a ValueError; OSError covers a missing input
        # and an unwritable -o; str() of a KeyError would quote its message
        message = err.args[0] if isinstance(err, KeyError) and err.args else err
        print(f"error: {message}", file=sys.stderr)
        return EXIT_INPUT
    except InvariantBreach as err:
        print(f"internal invariant breach: {err}", file=sys.stderr)
        return EXIT_BUG
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_text(payload))
    return code


def run() -> None:
    """Run `main` on the command line and exit the process with its code.

    Whatever way the process leaves (a return, argparse's SystemExit, an
    uncaught exception), the heap is frozen first, so the interpreter's
    final collections skip the modules, parser and records it is about to
    discard (15-20 ms of each request on a 2-vCPU Xeon).  Atexit handlers
    still run and the standard streams are still flushed; every file a
    handler writes is closed before `main` returns.  `main` itself never
    touches GC state, as callers run it inside their own processes."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
