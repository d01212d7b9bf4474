"""Command-line front end.

One process per request, fully deterministic output.  Exit codes:

    0   success / criterion-holds
    10  obstruction-found
    11  inconclusive
    12  hypotheses-fail (or not pseudoeffective, for `zariski`)
    2   input, parse or schema error
    3   internal invariant breach (always a bug)
"""

from __future__ import annotations

import argparse
import json
import sys

from .blowup import blow_up
from .bundles import ChernData, destabilizer_search, discriminant, twist
from .criteria import reider_freeness, reider_very_ample
from .fixtures import fixture_catalog, fixture_path
from .lattice import (
    DivisorClass,
    InvariantBreach,
    intersect,
    self_int,
    validate_surface,
)
from .positivity import (
    NotPseudoeffective,
    krs_jet_certificate,
    kv_applicability,
    matsusaka_thresholds,
    mumford_intersect,
    mumford_pullback,
    qdivisor_generation_check,
    qdivisor_very_ample_check,
    zariski_decompose,
)
from .qdivisor import parse_qdivisor, table_namespace
from .rational import fmt_q, parse_q
from .report import EXIT_CODES, CertificateReport
from .seshadri import jets_from_seshadri, multipoint_seshadri, seshadri_at_point
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


def _load_validated(path):
    model = load_surface(path)
    report = validate_surface(model)
    if not report.ok:
        bad = "; ".join(f"{c.name}: {c.detail}" for c in report.failures())
        raise SurfaceFormatError(f"{path}: surface fails validation ({bad})")
    return model


def _emit(payload: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _report_output(report: CertificateReport, fmt: str) -> int:
    _emit(report.to_json(), fmt, report.render().splitlines())
    return report.exit_code


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_validate(args) -> int:
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
    lines = [f"surface: {model.name}"]
    for c in report.checks:
        lines.append(f"  [{'ok' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
    lines.append("valid" if report.ok else "INVALID")
    _emit(payload, args.format, lines)
    return 0 if report.ok else EXIT_INPUT


def cmd_reider(args) -> int:
    model = _load_validated(args.surface)
    l = parse_class(args.line_bundle)
    if args.very_ample:
        report = reider_very_ample(model, l, args.bound)
    else:
        report = reider_freeness(model, l, args.point, args.bound)
    return _report_output(report, args.format)


def cmd_seshadri(args) -> int:
    model = _load_validated(args.surface)
    l = parse_class(args.line_bundle)
    if args.points:
        points = [p.strip() for p in args.points.split(",")]
        bound = multipoint_seshadri(model, l, points, args.bound)
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
    lines = [
        f"seshadri bound: {fmt_q(bound.value) if bound.value is not None else 'no data'}",
        f"kind: {bound.kind}",
    ]
    if bound.achieving_curve:
        lines.append(f"achieved by: {bound.achieving_curve}")
    if bound.note:
        lines.append(f"note: {bound.note}")
    if args.jets is not None:
        if bound.value is None:
            raise SurfaceFormatError("no Seshadri data: cannot assess jets")
        verdict = jets_from_seshadri(bound.value, self_int(model, l), args.jets)
        payload["jets"] = {"s": verdict.s, "generates": verdict.generates_jets,
                           "reason": verdict.reason}
        lines.append(
            f"generates {verdict.s}-jets: {verdict.generates_jets} ({verdict.reason})"
        )
    _emit(payload, args.format, lines)
    return 0


def cmd_zariski(args) -> int:
    model = _load_validated(args.surface)
    namespace = table_namespace(model)
    from .qdivisor import class_of
    divisor = parse_qdivisor(args.divisor, namespace)
    d = class_of(model, divisor)
    try:
        decomposition = zariski_decompose(model, d)
    except NotPseudoeffective as err:
        _emit({"error": str(err)}, args.format, [f"aborted: {err}"])
        return EXIT_CODES["hypotheses-fail"]
    payload = {
        "input": [fmt_q(c) for c in d.coeffs],
        "positive_part": [fmt_q(c) for c in decomposition.positive_part.coeffs],
        "negative_part": [
            {"curve": name, "coefficient": fmt_q(c)}
            for name, c in decomposition.negative_part
        ],
    }
    lines = [
        f"D = {d!r}",
        f"P = {decomposition.positive_part!r}",
        "N = "
        + (
            " + ".join(
                f"{fmt_q(c)}*{name}" if c != 1 else name
                for name, c in decomposition.negative_part
            )
            if decomposition.negative_part
            else "0"
        ),
    ]
    _emit(payload, args.format, lines)
    return 0


def cmd_mumford(args) -> int:
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
            incidence[name] = [int(x) for x in vector.split(",")]
        res = resolution_from_dict(
            {"kind": "resolution", "exceptional_gram": gram, "incidence": incidence}
        )
    else:
        raise SurfaceFormatError("mumford needs a resolution file or --gram")
    name1, name2 = args.meet
    base = parse_q(args.base)
    value = mumford_intersect(res, name1, name2, base)
    deltas = {
        name: [fmt_q(x) for x in mumford_pullback(res, name)]
        for name in sorted(res.incidence)
    }
    payload = {"intersection": fmt_q(value), "delta": deltas}
    lines = [f"delta[{name}] = ({', '.join(vec)})" for name, vec in deltas.items()]
    lines.append(f"{name1}.{name2} = {fmt_q(value)}")
    _emit(payload, args.format, lines)
    return 0


def cmd_matsusaka(args) -> int:
    model = _load_validated(args.surface)
    l = parse_class(args.line_bundle)
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
    lines = [
        f"a = L^2 = {fmt_q(a)}, b = (K + 4L).L = {fmt_q(b)}",
        f"mL globally generated for m >= {thresholds.m_free}",
        f"mL very ample for m >= {thresholds.m_very_ample}",
        f"rho(m_free) = {fmt_q(thresholds.rho(thresholds.m_free))}",
        f"working condition at m_free: rho > 4: {star.rho_gt_4}, "
        f"sqrt inequality: {star.sqrt_inequality} ({star.branch})",
    ]
    if thresholds.note:
        lines.append(f"note: {thresholds.note}")
    _emit(payload, args.format, lines)
    return 0


def cmd_blowup(args) -> int:
    model = _load_validated(args.surface)
    bm = blow_up(model, args.point)
    save_surface(bm.result, args.output)
    print(f"wrote {args.output} (rank {bm.result.rank}, exceptional E_{args.point})")
    return 0


def cmd_bundle(args) -> int:
    model = _load_validated(args.surface)
    c1 = parse_class(args.c1)
    data = ChernData(2, c1, args.c2)
    payload: dict = {
        "c1": [fmt_q(c) for c in data.c1.coeffs],
        "c2": data.c2,
        "discriminant": fmt_q(discriminant(model, data)),
    }
    lines = [f"discriminant c1^2 - 4c2 = {payload['discriminant']}"]
    if args.twist:
        twisted = twist(model, data, parse_class(args.twist))
        payload["twisted"] = {
            "c1": [fmt_q(c) for c in twisted.c1.coeffs],
            "c2": twisted.c2,
            "discriminant": fmt_q(discriminant(model, twisted)),
        }
        lines.append(
            f"twisted: c1 = {twisted.c1!r}, c2 = {twisted.c2}, "
            f"discriminant = {payload['twisted']['discriminant']}"
        )
    if args.destabilize:
        if not args.ample:
            raise SurfaceFormatError("--destabilize needs --ample \"<class>\"")
        result = destabilizer_search(model, data, parse_class(args.ample), args.bound)
        payload["destabilizer_candidates"] = [
            {"class": [fmt_q(c) for c in cand.klass.coeffs], "length_Z": cand.length_z}
            for cand in result.candidates
        ]
        payload["inconclusive"] = result.inconclusive
        lines.append(f"candidates (bound {result.bound}):")
        for cand in result.candidates:
            lines.append(f"  A = {cand.klass!r}, length(Z) = {cand.length_z}")
        if result.inconclusive:
            lines.append(
                "inconclusive: discriminant > 0 guarantees a destabilizer, "
                "but none within the bound"
            )
    _emit(payload, args.format, lines)
    return 0


def cmd_certify_jets(args) -> int:
    model = _load_validated(args.surface)
    l = parse_class(args.line_bundle)
    divisor = parse_qdivisor(args.divisor, table_namespace(model))
    report = krs_jet_certificate(
        model, l, args.k, divisor, args.point, args.s, args.ample_asserted
    )
    return _report_output(report, args.format)


def cmd_qcheck(args) -> int:
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
    return _report_output(report, args.format)


def cmd_report(args) -> int:
    if args.fixtures:
        payload = {
            "fixtures": [
                {"name": f.name, "kind": f.kind, "file": str(fixture_path(f.name)),
                 "description": f.description}
                for f in fixture_catalog()
            ]
        }
        lines = [
            f"{f.name:18} {f.kind:10} {f.description}" for f in fixture_catalog()
        ]
        _emit(payload, args.format, lines)
        return 0
    if not args.surface:
        raise SurfaceFormatError("report needs a surface file or --fixtures")
    model = load_surface(args.surface)
    validation = validate_surface(model)
    k2 = self_int(model, model.canonical)
    payload = {
        "name": model.name,
        "rank": model.rank,
        "valid": validation.ok,
        "K2": fmt_q(k2),
        "chi_O": model.chi_O,
        "curves": [
            {
                "name": c.name,
                "class": [fmt_q(x) for x in c.klass.coeffs],
                "self_intersection": fmt_q(self_int(model, c.klass)),
                "genus": c.genus,
            }
            for c in model.curves
        ],
        "complete_through": list(model.complete_through or ()),
    }
    lines = [
        f"surface {model.name}: rank {model.rank}, K^2 = {fmt_q(k2)}, "
        f"chi(O) = {model.chi_O}, valid = {validation.ok}",
        f"completeness: {', '.join(model.complete_through) if model.complete_through else 'none declared'}",
    ]
    for c in model.curves:
        lines.append(
            f"  curve {c.name}: class {c.klass!r}, C^2 = {fmt_q(self_int(model, c.klass))}"
            + (f", genus {c.genus}" if c.genus is not None else "")
        )
    _emit(payload, args.format, lines)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--point", default=None, help="restrict to classes through this label")
    p.add_argument("--very-ample", action="store_true")
    p.add_argument("--bound", type=int, default=3)
    p.set_defaults(handler=cmd_reider)

    p = sub.add_parser("seshadri", help="Seshadri bounds from the curve table")
    common(p)
    p.add_argument("--line-bundle", required=True)
    p.add_argument("--point", default=None)
    p.add_argument("--points", default=None, help="comma-separated labels")
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
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--seed", type=int, default=None)
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
    p.add_argument("--point", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=cmd_blowup)

    p = sub.add_parser("bundle", help="rank-2 Chern data: discriminant, twist, destabilizers")
    p.add_argument("--surface", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--seed", type=int, default=None)
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
    p.add_argument("--point", required=True)
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
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--fixtures", action="store_true", help="list bundled fixtures")
    p.set_defaults(handler=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (SurfaceFormatError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except InvariantBreach as err:
        print(f"internal invariant breach: {err}", file=sys.stderr)
        return EXIT_BUG


if __name__ == "__main__":
    sys.exit(main())
