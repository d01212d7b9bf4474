"""JSON (de)serialization for surface models and resolution data.

Surface schema (all intersection data is integral; rationals appear only
in reports and Q-divisor literals, serialized "p/q"):

    {
      "name": str, "rank": int,
      "gram": [[int, ...], ...],
      "canonical": [int, ...],
      "chi_O": int,
      "curves": [{"name": str, "class": [int, ...],
                  "genus": int?, "mults": {label: int}?, "ordinary": bool?}],
      "complete_through": [str]?          # "*" = generates the whole cone
    }

Every field type is enforced: a name is a JSON string, `ordinary` a
boolean, `genus` an integer (not a boolean), each curve entry an object
and `complete_through` a list of strings.  A key marked ? may be left out;
when present it must have its type (null is not accepted).  Anything else
raises SurfaceFormatError.

Resolution schema:

    {"kind": "resolution", "name": str,
     "exceptional_gram": [[int, ...], ...],
     "incidence": {divisor_name: [int, ...]}}

Its fields are typed the same way: `exceptional_gram` a list of integer
lists, `incidence` an object of integer lists, `name` (optional) a string.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

from .lattice import CurveRecord, DivisorClass, IntersectionLattice, SurfaceModel

if TYPE_CHECKING:
    from .positivity import ResolutionData


class SurfaceFormatError(ValueError):
    """Input file does not match the documented schema."""


_JSON_TYPES = {str: "a string", bool: "true or false", int: "an integer",
               dict: "an object", list: "a list"}


def _expect_type(value, kind: type, where: str):
    # type(...) is, not isinstance: JSON true and false are not integers here
    if type(value) is not kind:
        raise SurfaceFormatError(f"{where}: expected {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _expect_int(value, where: str) -> int:
    return _expect_type(value, int, where)


def _expect_int_list(value, where: str) -> list[int]:
    if not isinstance(value, list):
        raise SurfaceFormatError(f"{where}: expected a list of integers")
    return [_expect_int(x, where) for x in value]


_SURFACE_KEYS = {
    "kind", "name", "rank", "gram", "canonical", "chi_O", "curves", "complete_through",
}
_CURVE_KEYS = {"name", "class", "genus", "mults", "ordinary"}


def surface_from_dict(data: dict) -> SurfaceModel:
    if not isinstance(data, dict):
        raise SurfaceFormatError("surface file must contain a JSON object")
    unknown = set(data) - _SURFACE_KEYS
    if unknown:
        raise SurfaceFormatError(f"unknown surface keys: {sorted(unknown)}")
    if data.get("kind", "surface") != "surface":
        raise SurfaceFormatError(f"not a surface file (kind = {data.get('kind')!r})")
    try:
        name = _expect_type(data["name"], str, "name")
        rank = _expect_int(data["rank"], "rank")
        gram = data["gram"]
        canonical = _expect_int_list(data["canonical"], "canonical")
        chi = _expect_int(data["chi_O"], "chi_O")
    except KeyError as missing:
        raise SurfaceFormatError(f"missing required key {missing}") from None
    if not isinstance(gram, list) or len(gram) != rank:
        raise SurfaceFormatError("gram must be a rank x rank matrix")
    gram_rows = [_expect_int_list(row, "gram row") for row in gram]
    curves = [
        _curve_from_dict(entry, i)
        for i, entry in enumerate(_expect_type(data.get("curves", []), list, "curves"))
    ]
    complete = None
    if "complete_through" in data:
        complete = [
            _expect_type(label, str, "complete_through entry")
            for label in _expect_type(data["complete_through"], list, "complete_through")
        ]
    return SurfaceModel(
        name=name,
        lattice=IntersectionLattice(gram_rows),
        canonical=DivisorClass(canonical),
        chi_O=chi,
        curves=curves,
        complete_through=complete,
    )


def _curve_from_dict(entry, index: int) -> CurveRecord:
    where = f"curve {index}"
    _expect_type(entry, dict, where)
    unknown = set(entry) - _CURVE_KEYS
    if unknown:
        raise SurfaceFormatError(f"unknown curve keys: {sorted(unknown)}")
    for key in ("name", "class"):
        if key not in entry:
            raise SurfaceFormatError(f"{where}: missing required key {key!r}")
    name = _expect_type(entry["name"], str, f"{where} name")
    where = f"curve {name}"
    mults = _expect_type(entry.get("mults", {}), dict, f"{where} mults")
    genus = entry.get("genus")
    if "genus" in entry:
        _expect_int(genus, f"{where} genus")
    return CurveRecord(
        name,
        DivisorClass(_expect_int_list(entry["class"], where)),
        {label: _expect_int(m, "mult") for label, m in mults.items()},
        genus,
        _expect_type(entry.get("ordinary", True), bool, f"{where} ordinary"),
    )


def surface_to_dict(model: SurfaceModel) -> dict:
    data = {
        "name": model.name,
        "rank": model.rank,
        "gram": [list(row) for row in model.lattice.gram],
        "canonical": [int(c) for c in model.canonical.coeffs],
        "chi_O": model.chi_O,
        "curves": [],
    }
    for record in model.curves:
        entry: dict = {
            "name": record.name,
            "class": [int(c) for c in record.klass.coeffs],
        }
        if record.genus is not None:
            entry["genus"] = record.genus
        if record.point_mults:
            entry["mults"] = dict(sorted(record.point_mults.items()))
        if not record.ordinary:
            entry["ordinary"] = False
        data["curves"].append(entry)
    if model.complete_through is not None:
        data["complete_through"] = list(model.complete_through)
    return data


def load_surface(path) -> SurfaceModel:
    raw = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as err:
        raise SurfaceFormatError(f"{path}: invalid JSON ({err})") from None
    return surface_from_dict(data)


def save_surface(model: SurfaceModel, path) -> None:
    text = json.dumps(surface_to_dict(model), indent=2, sort_keys=True)
    Path(path).write_text(text + "\n", encoding="utf-8")


def resolution_from_dict(data: dict) -> ResolutionData:
    # positivity is imported here, not at the top: loading a surface (every
    # CLI request) then does not pay for the Zariski and Mumford layer
    from .positivity import make_resolution

    if not isinstance(data, dict) or data.get("kind") != "resolution":
        raise SurfaceFormatError("not a resolution file (kind must be 'resolution')")
    try:
        gram = [
            _expect_int_list(row, "exceptional_gram row")
            for row in _expect_type(data["exceptional_gram"], list, "exceptional_gram")
        ]
        incidence = {
            name: _expect_int_list(vec, f"incidence[{name}]")
            for name, vec in _expect_type(data["incidence"], dict, "incidence").items()
        }
    except KeyError as missing:
        raise SurfaceFormatError(f"missing required key {missing}") from None
    name = _expect_type(data.get("name", "resolution"), str, "name")
    try:
        return make_resolution(gram, incidence, name)
    except ValueError as err:
        raise SurfaceFormatError(str(err)) from None


def load_resolution(path) -> ResolutionData:
    raw = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as err:
        raise SurfaceFormatError(f"{path}: invalid JSON ({err})") from None
    return resolution_from_dict(data)
