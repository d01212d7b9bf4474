"""Seeded input generation for the three benchmark workloads.

Everything here is plain Python data (surface dicts in the surface_io JSON
schema, query dicts, CLI argument lists); nothing imports surfcalc, so the
program under test only ever sees the generated files and arguments.

Each workload is a fixed *cycle* of query templates, one per query type
and input size, so every type weighs the same in a cycle.  The seed fills
in the random parts (line bundles, tables, Chern data, divisors) but never
the templates, so any number of whole cycles has the same mix of search
sizes on every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

CYCLES = 24          # distinct seeded cycles; a long run wraps around

# ---------------------------------------------------------------------------
# lattices and tables


def diag_gram(entries):
    n = len(entries)
    return [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]


def pair(gram, a, b):
    return sum(a[i] * gram[i][j] * b[j] for i in range(len(a)) for j in range(len(b)) if a[i] and b[j])


def adjunction_genus(gram, canonical, klass):
    """Arithmetic genus 1 + (C^2 + C.K)/2, or None when it is negative."""
    twice = 2 + pair(gram, klass, klass) + pair(gram, klass, canonical)
    return twice // 2 if twice >= 0 else None


def _distinct_perms(values):
    """Distinct orderings of a multiset, in sorted order."""
    values = sorted(values)
    out = []

    def rec(prefix, rest):
        if not rest:
            out.append(tuple(prefix))
            return
        seen = set()
        for i, v in enumerate(rest):
            if v in seen:
                continue
            seen.add(v)
            rec(prefix + [v], rest[:i] + rest[i + 1:])

    rec([], values)
    return out


# (d; m_1..m_k) types of the (-1)-classes on P2 blown up at r <= 8 general
# points: E_i, lines, conics, cubics, quartics, quintics, sextics
_MINUS_ONE_TYPES = (
    (0, (-1,)),
    (1, (1, 1)),
    (2, (1,) * 5),
    (3, (2,) + (1,) * 6),
    (4, (2,) * 3 + (1,) * 5),
    (5, (2,) * 6 + (1,) * 2),
    (6, (3,) + (2,) * 7),
)


def minus_one_classes(r):
    """All (-1)-classes of the blow-up of P2 at r <= 8 points, as class
    vectors [d, -m_1, ..., -m_r] in the basis (H, E_1..E_r)."""
    out = []
    for d, mults in _MINUS_ONE_TYPES:
        if len(mults) > r:
            continue
        for perm in _distinct_perms(list(mults) + [0] * (r - len(mults))):
            out.append((d,) + tuple(-m for m in perm))
    return sorted(out, key=lambda v: (v[0], [-x for x in v[1:]]))


def _curve_names(classes):
    """E<i> for exceptional curves, L<ij> for lines, and a degree letter
    with a running number for conics, cubics, ... sextics."""
    names, seen = [], {}
    for vec in classes:
        d = vec[0]
        if d == 0:
            names.append("E%d" % next(i for i, x in enumerate(vec) if x))
        elif d == 1:
            names.append("L" + "".join(str(i) for i, x in enumerate(vec) if i and x))
        else:
            seen[d] = seen.get(d, 0) + 1
            names.append("QTFVS"[d - 2] + str(seen[d]))
    return names


def delpezzo(name, r, rng=None, points=("x", "y"), complete=True, mult_p=0.35,
             extra=0):
    """P2 blown up at r points with its (-1)-curve table (and optionally
    `extra` random plane curves), random mults 0/1 at the given labels."""
    n = r + 1
    gram = diag_gram([1] + [-1] * r)
    canonical = [-3] + [1] * r
    curves = []
    classes = minus_one_classes(r)
    for curve_name, vec in zip(_curve_names(classes), classes):
        curves.append({"name": curve_name, "class": list(vec), "genus": 0})
    for k in range(extra):
        while True:
            d = rng.choice((2, 3))
            ms = [rng.choice((0, 1)) for _ in range(r)]
            if d == 3 and rng.random() < 0.5:
                ms[rng.randrange(r)] = 2
            vec = [d] + [-m for m in ms]
            if tuple(vec) not in classes:
                break
        classes.append(tuple(vec))
        entry = {"name": "X%d" % k, "class": vec}
        genus = adjunction_genus(gram, canonical, vec)
        if genus is not None:
            entry["genus"] = genus
        curves.append(entry)
    if rng is not None and points:
        for label in points:
            chosen = [c for c in curves if rng.random() < mult_p]
            if not chosen:
                chosen = [rng.choice(curves)]
            for c in chosen:
                c.setdefault("mults", {})[label] = 1
    data = {"name": name, "rank": n, "gram": gram, "canonical": canonical,
            "chi_O": 1, "curves": curves}
    if complete:
        data["complete_through"] = ["*"] + list(points)
    return data


def k3_table(name, rng, complete=True, size=6):
    """K3 lattice U + <-2> with a random table of curves of square >= -2."""
    gram = [[0, 1, 0], [1, 0, 0], [0, 0, -2]]
    classes = [(1, 0, 0), (0, 1, 0)]
    while len(classes) < size:
        v = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(-1, 1))
        if any(v) and v not in classes and pair(gram, v, v) >= -2:
            classes.append(v)
    curves = []
    for i, v in enumerate(classes):
        entry = {"name": "K%d" % i, "class": list(v),
                 "genus": 1 + pair(gram, v, v) // 2}
        if rng.random() < 0.4:
            entry["mults"] = {"x": 1}
        curves.append(entry)
    data = {"name": name, "rank": 3, "gram": gram, "canonical": [0, 0, 0],
            "chi_O": 2, "curves": curves}
    if complete:
        data["complete_through"] = ["*", "x"]
    return data


# ---------------------------------------------------------------------------
# line bundles


def _table_dots(surface, vec):
    return [pair(surface["gram"], vec, c["class"]) for c in surface["curves"]]


def draw_line_bundle(rng, surface, min_sq=0, strict=False, mode="any",
                     tries=2000):
    """Random L nef on the table with L^2 >= min_sq (> when strict).

    mode "contract": some table curve has L.C = 0.  mode "ampleK": every
    table curve has L.C >= K.  mode "below": nef but L^2 under the
    threshold (a hypotheses-fail query).
    """
    gram = surface["gram"]
    for _ in range(tries):
        if surface["canonical"] == [0, 0, 0]:
            vec = [rng.randint(1, 6), rng.randint(1, 6), rng.randint(-2, 2)]
        else:
            r = surface["rank"] - 1
            a = rng.randint(2, 12 if mode.startswith("ample") else 9)
            vec = [a] + [-rng.randint(0, max(1, a // 2)) for _ in range(r)]
            if mode == "contract":
                vec[1 + rng.randrange(r)] = 0
        dots = _table_dots(surface, vec)
        if min(dots) < 0:
            continue
        sq = pair(gram, vec, vec)
        if mode == "below":
            if 0 < sq < min_sq:
                return vec
            continue
        if sq < min_sq or (strict and sq == min_sq):
            continue
        if mode == "contract" and 0 not in dots:
            continue
        if mode.startswith("ample") and min(dots) < int(mode[5:]):
            continue
        return vec
    raise RuntimeError(f"no line bundle for mode {mode!r} on {surface['name']}")


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Workload:
    name: str
    surfaces: dict = field(default_factory=dict)      # name -> surface dict
    extra: dict = field(default_factory=dict)         # workload-specific data
    cycles: list = field(default_factory=list)        # list of query lists


# template: (group, kind, surface pool, bound, params), one per criterion,
# table and bound the workload covers.  The group names the search size:
# combinations per query, (bound + 1)^curves - 1 (A: L fails the L^2
# threshold, so nothing is searched).
TABLE_TEMPLATES = (
    ("A-hypfail", "reider_freeness", "dp3c", 1, {"mode": "below"}),
    ("A-hypfail", "reider_very_ample", "dp3o", 1, {"mode": "below"}),
    ("B-63", "reider_freeness", "dp3c", 1, {"mode": "contract"}),
    ("B-63", "reider_freeness", "dp3c", 1, {"point": "x"}),
    ("B-63", "reider_very_ample", "dp3c", 1, {"mode": "ample3"}),
    ("B-63", "jets_length_d", "dp3c", 1, {"d": 1}),
    ("B-63", "jets_length_d", "dp3o", 1, {"d": 2}),
    ("B-63", "seshadri_at_point", "dp3c", 1, {"point": "x"}),
    ("B-63", "multipoint_seshadri", "dp3o", 1, {"points": ("x", "y")}),
    ("B-62", "kodaira_zero_obstructions", "k3", 1, {}),
    ("C-127", "reider_freeness", "dp3xo", 1, {"mode": "ample2"}),
    ("C-127", "reider_freeness", "dp3xc", 1, {}),
    ("C-127", "reider_freeness", "dp3xc", 1, {"point": "x"}),
    ("C-127", "reider_very_ample", "dp3xc", 1, {}),
    ("C-127", "reider_very_ample", "dp3xo", 1, {}),
    ("C-127", "jets_length_d", "dp3xc", 1, {"d": 1}),
    ("D-728", "reider_freeness", "dp3c", 2, {"point": "y"}),
    ("D-728", "reider_very_ample", "dp3o", 2, {}),
    ("D-728", "jets_length_d", "dp3c", 2, {"d": 2}),
    ("D-728", "seshadri_at_point", "dp3o", 2, {"point": "y"}),
    ("D-728", "multipoint_seshadri", "dp3c", 2, {"points": ("x", "y")}),
    ("E-1023", "reider_freeness", "dp4c", 1, {}),
    ("E-1023", "reider_freeness", "dp4c", 1, {"point": "x"}),
    ("E-1023", "reider_freeness", "dp4o", 1, {}),
    ("F-4095", "reider_freeness", "dp3c", 3, {}),
)

_THRESHOLDS = {
    "reider_freeness": (5, False),
    "reider_very_ample": (10, False),
    "kodaira_zero_obstructions": (5, False),
    "seshadri_at_point": (1, False),
    "multipoint_seshadri": (1, False),
}


def table_search(seed: int) -> Workload:
    rng = random.Random(f"table-search:{seed}")
    wl = Workload("table-search")
    pools = {}

    def add(pool, surface):
        wl.surfaces[surface["name"]] = surface
        pools.setdefault(pool, []).append(surface["name"])

    for v in range(2):
        add("dp3c", delpezzo(f"dp3c_{v}", 3, rng, complete=True))
        add("dp3o", delpezzo(f"dp3o_{v}", 3, rng, complete=False))
        add("dp3xc", delpezzo(f"dp3xc_{v}", 3, rng, complete=True, extra=1))
        add("dp3xo", delpezzo(f"dp3xo_{v}", 3, rng, complete=False, extra=1))
        add("dp4c", delpezzo(f"dp4c_{v}", 4, rng, complete=True))
        add("dp4o", delpezzo(f"dp4o_{v}", 4, rng, complete=False))
        add("k3", k3_table(f"k3_{v}", rng, complete=(v == 0), size=5))

    qid = 0
    for _ in range(CYCLES):
        cycle = []
        for group, kind, pool, bound, params in TABLE_TEMPLATES:
            surface = wl.surfaces[rng.choice(pools[pool])]
            if kind == "jets_length_d":
                min_sq, strict = 4 * params["d"], True
            else:
                min_sq, strict = _THRESHOLDS[kind]
            vec = draw_line_bundle(rng, surface, min_sq, strict, params.get("mode", "any"))
            q = {"id": qid, "group": group, "kind": kind, "surface": surface["name"],
                 "L": vec, "bound": bound}
            for key in ("point", "points", "d"):
                if key in params:
                    q[key] = params[key]
            cycle.append(q)
            qid += 1
        wl.cycles.append(cycle)
    return wl


# one template per query type and size: validation at rank 17, 26, 37 and
# 50 (d = 4..7), blow-up chains to rank 9 and 19, Zariski on del Pezzo
# tables r = 4..8, Mumford on A_n chains, destabilizer scans at rank 2-3
LATTICE_TEMPLATES = (
    ("validate_miranda", {"d": 4}),
    ("validate_miranda", {"d": 5}),
    ("validate_miranda", {"d": 6}),
    ("validate_miranda", {"d": 7}),
    ("blowup_chain", {"r": 2, "steps": 6}),
    ("blowup_chain", {"r": 3, "steps": 15}),
    ("zariski", {"r": 4}),
    ("zariski", {"r": 5}),
    ("zariski", {"r": 6}),
    ("zariski", {"r": 7}),
    ("zariski", {"r": 8}),
    ("mumford", {"n": 4}),
    ("mumford", {"n": 8}),
    ("mumford", {"n": 12}),
    ("mumford", {"n": 20}),
    ("destabilizer", {"rank": 2, "bound": 3}),
    ("destabilizer", {"rank": 2, "bound": 6}),
    ("destabilizer", {"rank": 3, "bound": 4}),
    ("destabilizer", {"rank": 3, "bound": 6}),
    ("destabilizer", {"rank": 3, "bound": 8}),
)
MIRANDA_VARIANTS = 2     # distinct (m, a) per degree, all validated in set-up

def lattice_solve(seed: int) -> Workload:
    rng = random.Random(f"lattice-solve:{seed}")
    wl = Workload("lattice-solve")
    for r in range(4, 9):
        wl.surfaces[f"dp{r}"] = delpezzo(f"dp{r}", r, None, points=(), complete=True)
    for r in (1, 2):
        wl.surfaces[f"destab{r + 1}"] = delpezzo(f"destab{r + 1}", r, None, points=(),
                                                 complete=True)
    for v in range(2):
        for r in (2, 3):
            base = delpezzo(f"chain{r}_{v}", r, rng, points=("x",), complete=True,
                            mult_p=0.5, extra=1)
            wl.surfaces[base["name"]] = base
    # the same number of variants per degree on every seed, so set-up does
    # the same work whatever the seed
    miranda = {d: [(d, m, a) for m, a in sorted(rng.sample(
        [(m, a) for m in range(2, d) for a in range(2, 7)], MIRANDA_VARIANTS))]
        for d in range(4, 8)}
    qid = 0
    for _ in range(CYCLES):
        cycle = []
        for kind, params in LATTICE_TEMPLATES:
            q = {"id": qid, "group": f"{kind}-" + "-".join(f"{k}{v}" for k, v in params.items()),
                 "kind": kind}
            if kind == "validate_miranda":
                q["miranda"] = rng.choice(miranda[params["d"]])
            elif kind == "blowup_chain":
                q["surface"] = f"chain{params['r']}_{rng.randrange(2)}"
                q["points"] = ["x"] + [f"p{i}" for i in range(1, params["steps"])]
            elif kind == "zariski":
                q["surface"] = f"dp{params['r']}"
                q["D"] = _pseudoeffective(rng, wl.surfaces[q["surface"]])
            elif kind == "mumford":
                n = params["n"]
                q["n"] = n
                q["gram"] = a_n_gram(n)
                q["incidence"] = {
                    "A": _unit(n, rng.randrange(n)),
                    "B": _unit(n, rng.randrange(n), rng.randint(1, 2)),
                }
                q["base"] = (rng.randint(0, 3), rng.choice((1, 1, 2)))
            elif kind == "destabilizer":
                surface = wl.surfaces[f"destab{params['rank']}"]
                q["surface"] = surface["name"]
                q["H"] = draw_line_bundle(rng, surface, 1, False, "ample1")
                q["c1"] = [rng.randint(-2, 3)] + [rng.randint(-2, 2) for _ in range(params["rank"] - 1)]
                q["c2"] = rng.randint(-3, 4)
                q["bound"] = params["bound"]
            cycle.append(q)
            qid += 1
        wl.cycles.append(cycle)
    wl.extra["miranda"] = [v for d in sorted(miranda) for v in miranda[d]]
    return wl


def a_n_gram(n):
    """Gram matrix of a chain of n (-2)-curves."""
    return [[-2 if i == j else (1 if abs(i - j) == 1 else 0) for j in range(n)] for i in range(n)]


def _unit(n, i, value=1):
    v = [0] * n
    v[i] = value
    return v


def _pseudoeffective(rng, surface):
    """D = P0 + N0: P0 a non-negative mix of nef classes (-K, H and the
    conic-bundle classes H - E_i), N0 a random effective combination of
    table curves."""
    r = surface["rank"] - 1
    alpha, beta = rng.randint(0, 2), rng.randint(0, 2)
    d = [3 * alpha + beta] + [-alpha] * r
    for i in rng.sample(range(1, r + 1), rng.randint(1, 2)):
        d[0] += 1
        d[i] -= 1
    for c in rng.sample(surface["curves"], rng.randint(1, 3)):
        k = rng.randint(1, 3)
        d = [x + k * y for x, y in zip(d, c["class"])]
    return d


# ---------------------------------------------------------------------------
# CLI requests

JSON_KEYS = {
    "validate": {"surface", "ok", "checks"},
    "report": {"name", "rank", "valid", "K2", "chi_O", "curves", "complete_through"},
    "reider": {"verdict", "witnesses", "trace", "notes", "bound"},
    "seshadri": {"value", "kind", "achieving_curve", "reducible_candidate", "note"},
    "zariski": {"input", "positive_part", "negative_part"},
    "mumford": {"intersection", "delta"},
    "matsusaka": {"a", "b", "m_free", "m_very_ample", "rho_at_m_free", "star_at_m_free"},
    "blowup": None,          # prints one text line whatever the format
    "bundle": {"c1", "c2", "discriminant"},
    "certify-jets": {"verdict", "witnesses", "trace", "notes"},
    "qcheck": {"verdict", "witnesses", "trace", "notes"},
}
SUBCOMMANDS = tuple(JSON_KEYS)

# inputs the program should reject with exit code 2; `defect` names the
# known defect (ROADMAP, "Strict input contract") of the present code
MALFORMED = (
    ("invalid-json", None),
    ("unknown-key", None),
    ("fractional-gram", None),
    ("bad-class-literal", None),
    ("unknown-flag", None),
    ("bad-signature", None),
    ("complete-through-string", "complete_through given as a string is iterated per character"),
    ("ordinary-not-bool", "ordinary accepts any value"),
    ("curve-name-not-string", "curve name accepts any value"),
)


def cli_requests(seed: int) -> Workload:
    rng = random.Random(f"cli-requests:{seed}")
    wl = Workload("cli-requests")
    wl.surfaces["dp2"] = delpezzo("dp2", 2, rng, points=("x",), complete=True)
    wl.surfaces["dp3"] = delpezzo("dp3", 3, rng, points=("x", "y"),
                                  complete=rng.random() < 0.5)
    wl.surfaces["k3"] = k3_table("k3", rng, complete=True, size=4)
    wl.surfaces["five"] = {
        "name": "five", "rank": 1, "gram": [[5]], "canonical": [1], "chi_O": 1,
        "curves": [{"name": "g", "class": [1], "genus": 6}]}
    wl.surfaces["p2n"] = {
        "name": "p2n", "rank": 1, "gram": [[1]], "canonical": [-3], "chi_O": 1,
        "curves": [{"name": "N", "class": [3], "genus": 1, "mults": {"x": 3}}],
        "complete_through": ["*", "x"]}
    n = rng.randint(2, 5)
    res = {"kind": "resolution", "name": f"a{n}",
           "exceptional_gram": a_n_gram(n),
           "incidence": {"A": _unit(n, rng.randrange(n)), "B": _unit(n, rng.randrange(n))}}
    wl.extra["resolutions"] = {"res": res}
    open_base = delpezzo("open", 2, rng, points=("x",), complete=False)
    bad = {
        "invalid-json": "{\"name\": \"broken\", \"rank\": 1,",
        "unknown-key": dict(wl.surfaces["dp2"], colour="blue"),
        "fractional-gram": dict(wl.surfaces["five"], gram=[[5.5]]),
        "complete-through-string": dict(open_base, complete_through="x*"),
        "ordinary-not-bool": dict(open_base, curves=[dict(open_base["curves"][0], ordinary="no")]
                                  + open_base["curves"][1:]),
        "curve-name-not-string": dict(open_base, curves=[dict(open_base["curves"][0], name=7)]
                                      + open_base["curves"][1:]),
    }
    wl.extra["malformed_files"] = bad

    qid = 0
    for c in range(CYCLES):
        cycle = []
        for sub in SUBCOMMANDS:
            for fmt in ("text", "json"):
                q = _cli_request(rng, wl, sub, fmt, c)
                q.update(id=qid, group=f"{sub}", kind="cli", sub=sub, format=fmt)
                cycle.append(q)
                qid += 1
        for case, defect in MALFORMED:
            q = _malformed_request(rng, case)
            q.update(id=qid, group="malformed", kind="cli", sub=q["argv"][0],
                     format="text", case=case, defect=defect, expect_exit=2)
            cycle.append(q)
            qid += 1
        wl.cycles.append(cycle)
    return wl


def _fmt_class(vec):
    return ",".join(str(x) for x in vec)


def _cli_request(rng, wl, sub, fmt, cycle):
    """One well-formed request: argv with @file / fixture: placeholders and
    what the oracle needs to know about the expected answer."""
    fmt_args = ["--format", fmt]
    dp3, dp2 = wl.surfaces["dp3"], wl.surfaces["dp2"]
    if sub == "validate":
        name = rng.choice(("dp2", "dp3", "k3"))
        return {"argv": ["validate", f"@{name}"] + fmt_args, "expect_exit": 0}
    if sub == "report":
        name = rng.choice(("dp2", "dp3", "k3", "fixture:p1xp1"))
        return {"argv": ["report", name if name.startswith("fixture:") else f"@{name}"]
                + fmt_args, "expect_exit": 0}
    if sub == "reider":
        very = rng.random() < 0.3
        l = draw_line_bundle(rng, dp3, 10 if very else 5)
        bound = 1               # tiny searches: the same cost on every seed
        argv = ["reider", "@dp3", "--line-bundle", _fmt_class(l), "--bound", str(bound)]
        point = None
        if very:
            argv.append("--very-ample")
        elif rng.random() < 0.5:
            point = "x"
            argv += ["--point", point]
        return {"argv": argv + fmt_args, "oracle": {
            "type": "reider", "surface": "dp3", "L": l, "bound": bound,
            "point": point, "very_ample": very}}
    if sub == "seshadri":
        l = draw_line_bundle(rng, dp3, 1)
        bound = 1
        argv = ["seshadri", "@dp3", "--line-bundle", _fmt_class(l), "--bound", str(bound)]
        if rng.random() < 0.5:
            points = ["x"]
            argv += ["--point", "x", "--jets", "0"]
        else:
            points = ["x", "y"]
            argv += ["--points", "x,y"]
        return {"argv": argv + fmt_args, "expect_exit": 0, "oracle": {
            "type": "seshadri", "surface": "dp3", "L": l, "bound": bound,
            "points": points}}
    if sub == "zariski":
        a, b = rng.randint(0, 3), rng.randint(1, 3)
        return {"argv": ["zariski", "fixture:blp2", "--divisor", f"{a}*C + {b}*E"] + fmt_args,
                "expect_exit": 0, "oracle": {"type": "zariski", "surface": "fixture:blp2",
                                             "terms": {"C": a, "E": b}}}
    if sub == "mumford":
        base = rng.randint(0, 2)
        if rng.random() < 0.5:
            argv = ["mumford", "fixture:quadric_cone", "--meet", "ruling1", "ruling2"]
            res = "fixture:quadric_cone"
        else:
            argv = ["mumford", "@res", "--meet", "A", "B"]
            res = "@res"
        return {"argv": argv + ["--base", str(base)] + fmt_args, "expect_exit": 0,
                "oracle": {"type": "mumford", "resolution": res, "base": base,
                           "meet": argv[3:5]}}
    if sub == "matsusaka":
        l = draw_line_bundle(rng, dp2, 1, False, "ample1")
        return {"argv": ["matsusaka", "@dp2", "--line-bundle", _fmt_class(l)] + fmt_args,
                "expect_exit": 0}
    if sub == "blowup":
        name = rng.choice(("dp2", "dp3"))
        out = f"blowup_{cycle}_{fmt}"
        return {"argv": ["blowup", f"@{name}", "--point", "x", "-o", f"@{out}"] + fmt_args,
                "expect_exit": 0, "oracle": {"type": "blowup", "surface": name, "output": out}}
    if sub == "bundle":
        if rng.random() < 0.5:
            argv = ["bundle", "--surface", "@five", "--c1", "1", "--c2", str(rng.randint(-1, 2)),
                    "--destabilize", "--ample", "1", "--bound", str(rng.randint(2, 6))]
        else:
            l = draw_line_bundle(rng, dp2, 1)
            # "=" keeps argparse from reading a leading minus sign as a flag
            argv = ["bundle", "--surface", "@dp2", "--c1=" + _fmt_class(l),
                    "--c2", str(rng.randint(0, 4)), "--twist=" + _fmt_class(
                        [rng.randint(-1, 1) for _ in l])]
        return {"argv": argv + fmt_args, "expect_exit": 0}
    if sub == "certify-jets":
        return {"argv": ["certify-jets", "@p2n", "--line-bundle", "3", "-k", "1",
                         "--divisor", "N", "--point", "x", "-s", "0"] + fmt_args,
                "expect_exit": 0}
    if sub == "qcheck":
        p, q = rng.randint(3, 12), rng.randint(1, 3)
        very = rng.random() < 0.3
        argv = ["qcheck", "fixture:p2", "--divisor", f"{p}/{q}*H"]
        if very:
            argv.append("--very-ample")
        # on P2 with M = t*H: M^2 = t^2, M.H = t
        if very:
            holds = p * p > 18 * q * q and p >= 3 * q
        else:
            holds = p * p > 4 * q * q and p >= 2 * q
        return {"argv": argv + fmt_args, "expect_exit": 0 if holds else 12}
    raise ValueError(sub)


def _malformed_request(rng, case):
    if case == "bad-class-literal":
        return {"argv": ["reider", "@dp2", "--line-bundle", rng.choice(("nonsense", "1.5,2", "1;2"))]}
    if case == "unknown-flag":
        return {"argv": ["reider", "@dp2", "--line-bundle", "3,-1", "--frobnicate"]}
    if case == "bad-signature":
        return {"argv": ["validate", "fixture:bad_signature"]}
    if case == "complete-through-string":
        return {"argv": ["reider", f"@bad:{case}", "--line-bundle", "3,-1,-1"]}
    if case in ("ordinary-not-bool", "curve-name-not-string"):
        return {"argv": ["validate", f"@bad:{case}"]}
    return {"argv": ["validate", f"@bad:{case}"]}


WORKLOADS = {
    "table-search": table_search,
    "lattice-solve": lattice_solve,
    "cli-requests": cli_requests,
}
