"""Integer-only answer checks, independent of the code under test.

Every check takes the generated input (plain data from gen.py) and the
program's answer converted to plain data (rationals as (numerator,
denominator) pairs, classes as lists of such pairs) and returns a list of
problems; an empty list means the answer is right.  Nothing here imports
surfcalc, and all arithmetic is on Python ints.
"""

from __future__ import annotations

import itertools
import json
from math import gcd

from gen import JSON_KEYS, pair

HOLDS, OBSTRUCTION = "criterion-holds", "obstruction-found"
HYPOTHESES_FAIL, INCONCLUSIVE = "hypotheses-fail", "inconclusive"
EXIT_CODES = {HOLDS: 0, OBSTRUCTION: 10, INCONCLUSIVE: 11, HYPOTHESES_FAIL: 12}

FREENESS_SIGNATURES = {(0, -1), (1, 0)}
VERY_AMPLE_SIGNATURES = {(0, -1), (0, -2), (1, 0), (1, -1), (2, 0)}


def q(n, d=1):
    """Reduced (numerator, denominator) with d > 0."""
    if d < 0:
        n, d = -n, -d
    g = gcd(n, d) or 1
    return (n // g, d // g)


def q_from_text(text):
    n, _, d = text.partition("/")
    return q(int(n), int(d) if d else 1)


def _integral(pairs):
    """[(n, 1), ...] -> [n, ...], or None if any entry is fractional."""
    if any(d != 1 for _, d in pairs):
        return None
    return [n for n, _ in pairs]


# ---------------------------------------------------------------------------
# curve-table searches


class Table:
    """A surface's curve table paired with one line bundle L, with every
    intersection number precomputed as an int."""

    def __init__(self, surface, l):
        gram = surface["gram"]
        self.surface = surface
        self.names = [c["name"] for c in surface["curves"]]
        self.classes = [c["class"] for c in surface["curves"]]
        self.l = list(l)
        self.dot_l = [pair(gram, c, l) for c in self.classes]
        self.gram = [[pair(gram, a, b) for b in self.classes] for a in self.classes]
        self.l2 = pair(gram, l, l)
        self.complete = surface.get("complete_through") or []

    def mults(self, points):
        return [sum(c.get("mults", {}).get(p, 0) for p in points)
                for c in self.surface["curves"]]

    def nef(self):
        return all(v >= 0 for v in self.dot_l)

    def combos(self, bound):
        """(coefficients, D.L, D^2) for every nonzero combination with
        coefficients in [0, bound], lexicographic order."""
        k = len(self.names)
        for coeffs in itertools.product(range(bound + 1), repeat=k):
            nz = [i for i in range(k) if coeffs[i]]
            if not nz:
                continue
            dl = sum(coeffs[i] * self.dot_l[i] for i in nz)
            d2 = sum(coeffs[i] * coeffs[j] * self.gram[i][j] for i in nz for j in nz)
            yield coeffs, dl, d2

    def label(self, coeffs):
        return " + ".join(n if c == 1 else f"{c}*{n}"
                          for c, n in zip(coeffs, self.names) if c)

    def parse_label(self, label):
        coeffs = [0] * len(self.names)
        for term in label.split(" + "):
            c, _, name = term.rpartition("*")
            coeffs[self.names.index(name)] = int(c) if c else 1
        return coeffs

    def klass(self, coeffs):
        rank = len(self.l)
        return [sum(c * cls[i] for c, cls in zip(coeffs, self.classes)) for i in range(rank)]


def _check_witnesses(table, report, expected, point, accept):
    """Re-derive each reported witness from its label and compare the list
    with the brute-forced one, in order."""
    problems = []
    mults = table.mults([point]) if point is not None else None
    for w in report["witnesses"]:
        try:
            coeffs = table.parse_label(w["label"])
        except ValueError:
            problems.append(f"witness label {w['label']!r} names no table curves")
            continue
        dl = sum(c * v for c, v in zip(coeffs, table.dot_l))
        d2 = sum(coeffs[i] * coeffs[j] * table.gram[i][j]
                 for i in range(len(coeffs)) for j in range(len(coeffs)))
        if _integral(w["class"]) != table.klass(coeffs):
            problems.append(f"witness {w['label']}: class does not match its label")
        if (w["dot_l"], w["d2"]) != (q(dl), q(d2)) or not accept(dl, d2):
            problems.append(f"witness {w['label']}: (D.L, D^2) = ({dl}, {d2}) not accepted")
        if point is not None:
            mult = sum(c * m for c, m in zip(coeffs, mults))
            if mult <= 0 or w.get("mult") != mult:
                problems.append(f"witness {w['label']}: mult at {point} is {mult}")
    got = [w["label"] for w in report["witnesses"]]
    if got != expected:
        problems.append(f"witnesses {got[:4]}... differ from brute force {expected[:4]}...")
    return problems


def _closing(table, hits, point):
    if hits:
        return OBSTRUCTION
    complete = (point in table.complete) if point is not None else ("*" in table.complete)
    return HOLDS if complete else INCONCLUSIVE


def expected_signature_search(table, signatures, bound, point=None):
    mults = table.mults([point]) if point is not None else None
    hits = []
    for coeffs, dl, d2 in table.combos(bound):
        if (dl, d2) not in signatures:
            continue
        if point is not None and sum(c * m for c, m in zip(coeffs, mults)) <= 0:
            continue
        hits.append(table.label(coeffs))
    return hits


def expected_criterion(kind, table, bound, point=None, d=None):
    """(verdict, witness labels) by brute force, for the Reider freeness /
    very-ample criteria and the length-d jet window."""
    if not table.nef():
        return HYPOTHESES_FAIL, []
    if kind == "reider_freeness":
        if table.l2 < 5:
            return HYPOTHESES_FAIL, []
        hits = expected_signature_search(table, FREENESS_SIGNATURES, bound, point)
        return _closing(table, hits, point), hits
    if kind == "reider_very_ample":
        if table.l2 < 10:
            return HYPOTHESES_FAIL, []
        hits = expected_signature_search(table, VERY_AMPLE_SIGNATURES, bound)
        return _closing(table, hits, None), hits
    if kind == "jets_length_d":
        if table.l2 <= 4 * d:
            return HYPOTHESES_FAIL, []
        hits = [table.label(c) for c, dl, d2 in table.combos(bound)
                if dl - d <= d2 and 2 * d2 < dl]
        sufficient = bool(table.dot_l) and min(table.dot_l) >= 2 * d
        if sufficient and "*" in table.complete:
            # window candidates beside a met sufficiency check are only counted
            # in a note, never reported as witnesses
            return HOLDS, []
        return _closing(table, hits, None), hits
    raise ValueError(kind)


def _accept_for(kind, d=None, e_dot_l=None):
    if kind == "reider_freeness":
        return lambda dl, d2: (dl, d2) in FREENESS_SIGNATURES
    if kind == "reider_very_ample":
        return lambda dl, d2: (dl, d2) in VERY_AMPLE_SIGNATURES
    if kind == "jets_length_d":
        return lambda dl, d2: dl - d <= d2 and 2 * d2 < dl
    return lambda dl, d2: (dl, d2) == (e_dot_l, 0)


def check_criterion(query, surface, result):
    kind = query["kind"]
    table = Table(surface, query["L"])
    point, d = query.get("point"), query.get("d")
    verdict, hits = expected_criterion(kind, table, query["bound"], point, d)
    problems = []
    if result["verdict"] != verdict:
        problems.append(f"verdict {result['verdict']} != expected {verdict}")
    problems += _check_witnesses(table, result, hits, point, _accept_for(kind, d))
    return problems


def check_kodaira(query, surface, result):
    table = Table(surface, query["L"])
    problems = []
    if any(surface["canonical"]):
        return ["kodaira query on a surface with K != 0"]
    for key, threshold, e_dot_l in (("freeness", 5, 1), ("very_ample", 10, 2)):
        if not table.nef() or table.l2 < threshold:
            verdict, hits = HYPOTHESES_FAIL, []
        else:
            hits = expected_signature_search(table, {(e_dot_l, 0)}, query["bound"])
            verdict = _closing(table, hits, None)
        report = result[key]
        if report["verdict"] != verdict:
            problems.append(f"{key}: verdict {report['verdict']} != expected {verdict}")
        problems += [f"{key}: {p}" for p in _check_witnesses(
            table, report, hits, None, _accept_for("kodaira", e_dot_l=e_dot_l))]
    return problems


def expected_seshadri(table, points, bound):
    """(value, kind) of the bounded table Seshadri bound: the least
    L.D / sum mult over combinations with positive multiplicity."""
    mults = table.mults(points)
    best = None
    for coeffs, dl, _ in table.combos(bound):
        m = sum(c * x for c, x in zip(coeffs, mults))
        if m <= 0:
            continue
        if best is None or dl * best[1] < best[0] * m:
            best = (dl, m)
    if best is None:
        return None, "no-data"
    covered = all(p in table.complete for p in points)
    return q(*best), ("exact-given-complete-table" if covered else "upper-bound")


def check_seshadri(query, surface, result):
    table = Table(surface, query["L"])
    points = query.get("points") or [query["point"]]
    value, kind = expected_seshadri(table, points, query["bound"])
    problems = []
    if result["value"] != value or result["kind"] != kind:
        return [f"seshadri ({result['value']}, {result['kind']}) != expected ({value}, {kind})"]
    if value is not None:
        # the tie-break label may change; the named curve must attain the value
        try:
            coeffs = table.parse_label(result["achieving"])
        except (ValueError, AttributeError):
            return [f"achieving curve {result['achieving']!r} names no table curves"]
        if any(c > query["bound"] for c in coeffs):
            problems.append("achieving combination exceeds the bound")
        m = sum(c * x for c, x in zip(coeffs, table.mults(points)))
        dl = sum(c * v for c, v in zip(coeffs, table.dot_l))
        if m <= 0 or q(dl, m) != value:
            problems.append(f"achieving curve {result['achieving']} gives {dl}/{m}, not {value}")
    return problems


# ---------------------------------------------------------------------------
# lattices: validation, blow-ups, Zariski, Mumford, destabilizers


def signature(gram):
    """(n_pos, n_neg, n_zero) by fraction-free symmetric elimination:
    each pivot p splits off diag(p) and leaves p times its Schur complement,
    sign-corrected and divided by the entries' gcd."""
    m = [list(row) for row in gram]
    n = len(m)
    pos = neg = 0
    size = n
    while size:
        # bring a nonzero diagonal entry to the front, or make one
        i = next((i for i in range(size) if m[i][i]), None)
        if i is None:
            j = next(((a, b) for a in range(size) for b in range(size) if m[a][b]), None)
            if j is None:
                break                                  # rest is zero
            a, b = j
            # replace e_a by e_a + e_b: diagonal 2*m[a][b] (+ m[b][b] = 0)
            for t in range(size):
                m[a][t] += m[b][t]
            for t in range(size):
                m[t][a] += m[t][b]
            i = a
        p = m[i][i]
        if p > 0:
            pos += 1
        else:
            neg += 1
        rest = [t for t in range(size) if t != i]
        # Schur complement scaled by p: m'[s][t] = p*m[s][t] - m[s][i]*m[i][t]
        m = [[p * m[s][t] - m[s][i] * m[i][t] for t in rest] for s in rest]
        # signs: p*M' has the signature of M' when p > 0, opposite when p < 0
        if p < 0:
            m = [[-x for x in row] for row in m]
        # keep the entries small
        g = 0
        for row in m:
            for x in row:
                g = gcd(g, x)
        if g > 1:
            m = [[x // g for x in row] for row in m]
        size -= 1
    zero = n - pos - neg
    return pos, neg, zero


def expected_valid(surface):
    """True when the surface dict passes every model invariant: integral
    data, signature (1, rank-1), characteristic canonical class and every
    declared genus matching adjunction."""
    gram, k = surface["gram"], surface["canonical"]
    n = len(gram)
    names = [c["name"] for c in surface["curves"]]
    if len(set(names)) != len(names):
        return False
    if any(len(row) != n for row in gram) or len(k) != n:
        return False
    if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(n)):
        return False
    pos, _, zero = signature(gram)
    if pos != 1 or zero:
        return False
    if any((gram[i][i] - sum(gram[i][j] * k[j] for j in range(n))) % 2 for i in range(n)):
        return False
    for c in surface["curves"]:
        if "genus" in c and c["genus"] is not None:
            twice = 2 + pair(gram, c["class"], c["class"]) + pair(gram, c["class"], k)
            if twice % 2 or twice < 0 or twice // 2 != c["genus"]:
                return False
    return True


def miranda_surface(d, m, a):
    """The pencil model of miranda_example(d, m, a), built from its
    description: P2 blown up at the d^2 base points, fibre D = dH - sum E_i
    with an m-fold point x, section S = E_1; L = aD + S."""
    rank = 1 + d * d
    gram = [[0] * rank for _ in range(rank)]
    gram[0][0] = 1
    for i in range(1, rank):
        gram[i][i] = -1
    section = [0] * rank
    section[1] = 1
    fibre = [d] + [-1] * (d * d)
    surface = {
        "name": f"pencil_deg{d}_mult{m}", "rank": rank, "gram": gram,
        "canonical": [-3] + [1] * (d * d), "chi_O": 1,
        "curves": [
            {"name": "D", "class": fibre, "genus": (d - 1) * (d - 2) // 2, "mults": {"x": m}},
            {"name": "S", "class": section, "genus": 0},
        ],
    }
    return surface, [a * x + y for x, y in zip(fibre, section)]


def _same_surface(got, want):
    problems = []
    for key in ("rank", "gram", "canonical", "chi_O"):
        if got.get(key) != want.get(key):
            problems.append(f"{key} differs")
    if got.get("complete_through") != want.get("complete_through"):
        problems.append("completeness declaration differs")
    norm = lambda cs: [(c["name"], list(c["class"]), c.get("genus"),
                        dict(c.get("mults") or {}), c.get("ordinary", True)) for c in cs]
    if norm(got["curves"]) != norm(want["curves"]):
        problems.append("curve table differs")
    return problems


def check_miranda(query, result):
    want, l = miranda_surface(*query["miranda"])
    problems = _same_surface(result["model"], want)
    if result["l"] != l:
        problems.append("L = aD + S differs")
    if result["ok"] != expected_valid(want):
        problems.append(f"validation ok = {result['ok']}, expected {expected_valid(want)}")
    return problems


def expected_blowup(surface, point):
    """Blow-up transport: new orthogonal E with E^2 = -1, K + E, proper
    transforms C - mE with genus dropping by m(m-1)/2 (unknown when a
    non-ordinary point has m >= 2), E joins the table, completeness lost."""
    n = surface["rank"]
    gram = [list(row) + [0] for row in surface["gram"]] + [[0] * n + [-1]]
    curves = []
    for c in surface["curves"]:
        m = c.get("mults", {}).get(point, 0)
        genus = c.get("genus")
        ordinary = c.get("ordinary", True)
        if genus is not None:
            genus = genus - m * (m - 1) // 2 if (m <= 1 or ordinary) else None
        entry = {"name": c["name"], "class": list(c["class"]) + [-m]}
        if genus is not None:
            entry["genus"] = genus
        mults = {p: v for p, v in c.get("mults", {}).items() if p != point}
        if mults:
            entry["mults"] = mults
        if not ordinary:
            entry["ordinary"] = False
        curves.append(entry)
    curves.append({"name": f"E_{point}", "class": [0] * n + [1], "genus": 0})
    return {"name": f"{surface['name']}_bl_{point}", "rank": n + 1, "gram": gram,
            "canonical": list(surface["canonical"]) + [1], "chi_O": surface["chi_O"],
            "curves": curves}


def check_blowup_chain(query, surface, result):
    want = surface
    for point in query["points"]:
        want = expected_blowup(want, point)
    problems = _same_surface(result["model"], want)
    if result["model"]["name"] != want["name"]:
        problems.append("name differs")
    if not expected_valid(want):
        problems.append("oracle: blown-up surface is not valid")
    return problems


def _common_denominator(values):
    den = 1
    for _, d in values:
        den = den * d // gcd(den, d)
    return den


def check_zariski(d_vec, surface, result):
    """P + N = D, P nef on the table, P.N_i = 0, N_i > 0."""
    gram = surface["gram"]
    by_name = {c["name"]: c["class"] for c in surface["curves"]}
    p_part = result["positive"]
    neg = result["negative"]               # [(name, (n, d)), ...]
    problems = []
    if any(name not in by_name for name, _ in neg):
        return ["negative part names a curve outside the table"]
    den = _common_denominator(list(p_part) + [c for _, c in neg])
    p_int = [n * (den // d) for n, d in p_part]
    total = list(p_int)
    for name, (n, d) in neg:
        if n <= 0:
            problems.append(f"N coefficient of {name} is not positive")
        k = n * (den // d)
        total = [t + k * x for t, x in zip(total, by_name[name])]
    if total != [den * x for x in d_vec]:
        problems.append("P + N != D")
    for c in surface["curves"]:
        if pair(gram, p_int, c["class"]) < 0:
            problems.append(f"P.{c['name']} < 0")
            break
    for name, _ in neg:
        if pair(gram, p_int, by_name[name]) != 0:
            problems.append(f"P.{name} != 0")
    return problems


def a_n_inverse_times(n, vec):
    """(n+1) * C^-1 vec for the positive Cartan matrix C of A_n, from the
    closed form (C^-1)_ij = min(i,j) (n+1-max(i,j)) / (n+1)."""
    return [sum(min(i, j) * (n + 1 - max(i, j)) * vec[j - 1] for j in range(1, n + 1))
            for i in range(1, n + 1)]


def expected_mumford(n, inc1, inc2, base):
    """D1.D2 = base + inc1 . Delta2 with Delta2 = C^-1 inc2 on an A_n chain
    (so that (D2' + Delta2).E_j = 0 for every j)."""
    delta2 = a_n_inverse_times(n, inc2)
    num = base[0] * (n + 1) + base[1] * sum(a * b for a, b in zip(inc1, delta2))
    return q(num, base[1] * (n + 1))


def check_mumford(query, result):
    n = query["n"]
    inc = query["incidence"]
    want = expected_mumford(n, inc["A"], inc["B"], query["base"])
    if result != want:
        return [f"mumford {result} != expected {want}"]
    return []


def expected_destabilizers(surface, c1, c2, h, bound):
    gram = surface["gram"]
    out = []
    for a in itertools.product(range(-bound, bound + 1), repeat=len(c1)):
        diff = [2 * x - y for x, y in zip(a, c1)]
        if pair(gram, diff, diff) <= 0 or pair(gram, diff, h) <= 0:
            continue
        length = c2 - pair(gram, a, [y - x for x, y in zip(a, c1)])
        if length < 0:
            continue
        out.append((list(a), length))
    return out


def check_destabilizer(query, surface, result):
    want = expected_destabilizers(surface, query["c1"], query["c2"], query["H"], query["bound"])
    got = [(_integral(cls), length) for cls, length in result]
    if got != want:
        return [f"{len(got)} destabilizer candidates, brute force finds {len(want)}"]
    return []


# ---------------------------------------------------------------------------
# CLI requests


def check_cli(request, outcome, surfaces, read_json):
    """Exit code, no traceback, JSON shape and (where the oracle knows the
    answer) the value.  `read_json(placeholder)` returns the data behind a
    @file or fixture: argument."""
    problems = []
    code, out, err = outcome["exit"], outcome["stdout"], outcome["stderr"]
    spec = request.get("oracle")
    expect = request.get("expect_exit")
    if spec and spec["type"] == "reider":
        table = Table(surfaces[spec["surface"]], spec["L"])
        kind = "reider_very_ample" if spec["very_ample"] else "reider_freeness"
        verdict, hits = expected_criterion(kind, table, spec["bound"], spec["point"])
        expect = EXIT_CODES[verdict]
    if code != expect:
        problems.append(f"exit {code}, expected {expect}")
    if "Traceback" in err:
        problems.append("traceback on stderr")
    if request.get("group") == "malformed" or code != expect:
        return problems
    sub = request["sub"]
    if request["format"] == "json" and JSON_KEYS.get(sub) is not None:
        try:
            payload = json.loads(out)
        except ValueError:
            return problems + ["stdout is not JSON"]
        missing = JSON_KEYS[sub] - set(payload)
        if missing:
            problems.append(f"JSON lacks {sorted(missing)}")
            return problems
        problems += _check_cli_payload(spec, payload, surfaces, read_json)
    elif not out.strip():
        problems.append("empty output")
    if spec and spec["type"] == "blowup":
        try:
            written = read_json("@" + spec["output"])
        except (OSError, ValueError):
            return problems + ["blow-up output file missing or unreadable"]
        want = expected_blowup(surfaces[spec["surface"]], "x")
        problems += _same_surface(written, want)
    return problems


def _check_cli_payload(spec, payload, surfaces, read_json):
    if not spec:
        return []
    kind = spec["type"]
    if kind == "reider":
        table = Table(surfaces[spec["surface"]], spec["L"])
        name = "reider_very_ample" if spec["very_ample"] else "reider_freeness"
        verdict, hits = expected_criterion(name, table, spec["bound"], spec["point"])
        got = [w["label"] for w in payload["witnesses"]]
        return [] if (payload["verdict"], got) == (verdict, hits) else [
            f"reider JSON ({payload['verdict']}, {len(got)} witnesses) != "
            f"({verdict}, {len(hits)})"]
    if kind == "seshadri":
        table = Table(surfaces[spec["surface"]], spec["L"])
        value, sk = expected_seshadri(table, spec["points"], spec["bound"])
        got = q_from_text(payload["value"]) if payload["value"] is not None else None
        return [] if (got, payload["kind"]) == (value, sk) else [
            f"seshadri JSON ({payload['value']}, {payload['kind']}) != ({value}, {sk})"]
    if kind == "zariski":
        surface = read_json(spec["surface"])
        by_name = {c["name"]: c["class"] for c in surface["curves"]}
        d_vec = [0] * surface["rank"]
        for name, k in spec["terms"].items():
            d_vec = [x + k * y for x, y in zip(d_vec, by_name[name])]
        result = {"positive": [q_from_text(x) for x in payload["positive_part"]],
                  "negative": [(e["curve"], q_from_text(e["coefficient"]))
                               for e in payload["negative_part"]]}
        return check_zariski(d_vec, surface, result)
    if kind == "mumford":
        res = read_json(spec["resolution"])
        gram = res["exceptional_gram"]
        n = len(gram)
        if any(gram[i][j] != (-2 if i == j else (1 if abs(i - j) == 1 else 0))
               for i in range(n) for j in range(n)):
            return ["oracle: resolution is not an A_n chain"]
        name1, name2 = spec["meet"]
        want = expected_mumford(n, res["incidence"][name1], res["incidence"][name2],
                                (spec["base"], 1))
        got = q_from_text(payload["intersection"])
        return [] if got == want else [f"mumford JSON {got} != {want}"]
    return []
