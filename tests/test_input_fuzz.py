"""Seeded fuzz of the input contract.

Every bundled fixture's JSON is mutated, one change at a time: a key or a
list entry is dropped, or a value is swapped for None, a bool, a float, a
string, a list or an object.  Each mutated file goes through the CLI's
`main()` in process, for every subcommand.  Then each literal argument of
those commands is swapped for a malformed one on an intact fixture.
Whatever the mutation, the run ends with one of the documented exit codes
and no exception escapes.
"""

import copy
import json
import random

import pytest

from surfcalc import fixture_catalog, fixture_path
from surfcalc.cli import main

EXIT_CODES = {0, 2, 10, 11, 12}
MUTATIONS_PER_FIXTURE = 60
REPLACEMENTS = (
    None, True, False, 0, 1, -1, 7, 2.5, -0.5, "", "x", "*", "1/2",
    [], [1], [-1, 0], [[-2]], ["x"], [None], {}, {"x": 1}, {"D": [1]}, {"name": None},
)
# a line bundle per surface fixture that meets the Reider hypotheses there
LINE_BUNDLES = {"p2": "4", "p1xp1": "2,3", "blp2": "4,-1", "abelian_1_5": "2,3",
                "abelian_elliptic": "2,3", "k3_rank2": "1,2", "bad_signature": "1,1"}


def json_paths(node, prefix=()):
    """Every path into a JSON document, the root included."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from json_paths(child, prefix + (key,))


def mutate(data, rng):
    """A deep copy of `data` with one entry dropped or one value swapped,
    and a description of the change."""
    data = copy.deepcopy(data)
    path = rng.choice(list(json_paths(data)))
    value = copy.deepcopy(rng.choice(REPLACEMENTS))
    if not path:
        return value, f"document := {value!r}"
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if rng.random() < 0.25:
        del parent[path[-1]]
        return data, f"drop {list(path)}"
    parent[path[-1]] = value
    return data, f"{list(path)} := {value!r}"


def commands(info, data, path, out_dir):
    if info.kind == "resolution":
        names = list(data["incidence"])
        meet = [names[0], names[-1]]
        return [["mumford", path, "--meet", *meet, "--base", "1/2"],
                ["mumford", path, "--meet", *meet, "--base", "0", "--format", "json"]]
    l = LINE_BUNDLES[info.name]
    # table names of the unmutated fixture; a mutation may remove them
    curves = data["curves"] or [{"name": "C", "class": l.split(",")}]
    first, last = curves[0]["name"], curves[-1]["name"]
    # certify-jets needs a divisor in |kL|: the first curve in |L|, k = 1
    first_class = ",".join(str(x) for x in curves[0]["class"])
    return [
        ["validate", path],
        ["report", path],
        ["reider", path, "--line-bundle", l, "--bound", "2"],
        ["reider", path, "--line-bundle", l, "--very-ample", "--bound", "2",
         "--format", "json"],
        ["seshadri", path, "--line-bundle", l, "--point", "x"],
        ["matsusaka", path, "--line-bundle", l],
        ["zariski", path, "--divisor", f"{first} + 2*{last}"],
        ["bundle", "--surface", path, "--c1", l, "--c2", "1", "--twist", l],
        ["bundle", "--surface", path, "--c1", l, "--c2", "0", "--destabilize",
         "--ample", l, "--bound", "2", "--format", "json"],
        ["certify-jets", path, f"--line-bundle={first_class}", "-k", "1",
         "--divisor", first, "--point", "x"],
        ["qcheck", path, "--divisor", f"5/2*{last}", "--format", "json"],
        ["blowup", path, "--point", "x", "-o", str(out_dir / "blown.json")],
        ["blowup", path, "--point", "x", "-o", str(out_dir)],   # unwritable: exit 2
    ]


@pytest.mark.parametrize("info", fixture_catalog(), ids=lambda info: info.name)
def test_mutated_fixtures_exit_cleanly(info, tmp_path, capsys):
    original = json.loads(fixture_path(info.name).read_text())
    rng = random.Random(f"fuzz:{info.name}")
    path = str(tmp_path / "mutated.json")
    argvs = commands(info, original, path, tmp_path)
    for _ in range(MUTATIONS_PER_FIXTURE):
        data, change = mutate(original, rng)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        for argv in argvs:
            try:
                code = main(argv)
            except Exception as err:
                pytest.fail(f"{argv[0]} on {info.name} with {change}: {err!r}")
            assert code in EXIT_CODES, (argv, change, code)
            capsys.readouterr()



BAD_LITERALS = ("", "x", "0", "-1", "7", "1/0", "2.5", "1,", "*", "1e9")


@pytest.mark.parametrize("name", ["p2", "p1xp1"])
def test_mutated_arguments_exit_cleanly(name, tmp_path, capsys, monkeypatch):
    # a literal swapped into -o writes relative to the working directory
    monkeypatch.chdir(tmp_path)
    info = next(info for info in fixture_catalog() if info.name == name)
    path = str(fixture_path(name))
    for argv in commands(info, json.loads(fixture_path(name).read_text()), path, tmp_path):
        for i, arg in enumerate(argv):
            if i == 0 or (arg.startswith("-") and "=" not in arg):
                continue
            flag, eq, _ = arg.partition("=") if arg.startswith("-") else ("", "", arg)
            for literal in BAD_LITERALS:
                bad = argv[:i] + [flag + eq + literal] + argv[i + 1:]
                try:
                    code = main(bad)
                except SystemExit as stop:      # argparse rejects the literal
                    code = stop.code
                except Exception as err:
                    pytest.fail(f"{bad}: {err!r}")
                assert code in EXIT_CODES, (bad, code)
                capsys.readouterr()
