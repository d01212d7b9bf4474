"""Seeded fuzz of the input contract.

Every bundled fixture's JSON is mutated, one change at a time: a key or a
list entry is dropped, or a value is swapped for None, a bool, a float, a
string, a list or an object.  Each mutated file goes through the CLI's
`main()` in process.  Whatever the mutation, the run ends with one of the
documented exit codes and no exception escapes.
"""

import copy
import functools
import json
import random

import pytest

from surfcalc import fixture_catalog, fixture_path
from surfcalc import cli
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


def commands(info, data, path):
    if info.kind == "resolution":
        names = list(data["incidence"])
        meet = [names[0], names[-1]]
        return [["mumford", path, "--meet", *meet, "--base", "1/2"],
                ["mumford", path, "--meet", *meet, "--base", "0", "--format", "json"]]
    l = LINE_BUNDLES[info.name]
    return [
        ["validate", path],
        ["report", path],
        ["reider", path, "--line-bundle", l, "--bound", "2"],
        ["reider", path, "--line-bundle", l, "--very-ample", "--bound", "2",
         "--format", "json"],
        ["seshadri", path, "--line-bundle", l, "--point", "x"],
        ["matsusaka", path, "--line-bundle", l],
    ]


@pytest.mark.parametrize("info", fixture_catalog(), ids=lambda info: info.name)
def test_mutated_fixtures_exit_cleanly(info, tmp_path, capsys, monkeypatch):
    # building the parser takes most of an in-process call; build it once
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))
    original = json.loads(fixture_path(info.name).read_text())
    rng = random.Random(f"fuzz:{info.name}")
    path = str(tmp_path / "mutated.json")
    argvs = commands(info, original, path)
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

