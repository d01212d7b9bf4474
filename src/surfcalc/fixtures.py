"""Bundled surface and resolution fixtures with one-line descriptions."""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .surface_io import load_resolution, load_surface


class FixtureInfo(NamedTuple):
    name: str
    filename: str
    kind: str          # "surface" | "resolution"
    description: str


_CATALOG = (
    FixtureInfo(
        "p2", "p2.json", "surface",
        "projective plane: rank-1 lattice <1>, K = -3H, line through the marked point x",
    ),
    FixtureInfo(
        "p1xp1", "p1xp1.json", "surface",
        "smooth quadric: hyperbolic rank-2 lattice, the two rulings through x",
    ),
    FixtureInfo(
        "blp2", "blp2.json", "surface",
        "plane blown up at a point: diag(1,-1), exceptional curve plus the "
        "transform of a line through the point",
    ),
    FixtureInfo(
        "abelian_1_5", "abelian_1_5.json", "surface",
        "abelian surface carrying a polarization of self-intersection 10 "
        "(type (1,5)); no isotropic curve classes, table complete",
    ),
    FixtureInfo(
        "abelian_elliptic", "abelian_elliptic.json", "surface",
        "abelian surface whose table holds two elliptic fibrations "
        "(isotropic genus-one classes)",
    ),
    FixtureInfo(
        "k3_rank2", "k3_rank2.json", "surface",
        "K3 surface with a genus-4 curve and an elliptic pencil class meeting it once",
    ),
    FixtureInfo(
        "bad_signature", "bad_signature.json", "surface",
        "positive-definite Gram matrix; fails the signature check (validator tests)",
    ),
    FixtureInfo(
        "quadric_cone", "quadric_cone.json", "resolution",
        "resolution of the quadric cone: one (-2)-curve met once by each of two rulings",
    ),
    FixtureInfo(
        "a2_chain", "a2_chain.json", "resolution",
        "resolution with a chain of two (-2)-curves and one divisor meeting its end",
    ),
)


def fixture_dir() -> Path:
    return Path(__file__).parent / "fixtures"


def fixture_catalog() -> tuple[FixtureInfo, ...]:
    return _CATALOG


def fixture_path(name: str) -> Path:
    for info in _CATALOG:
        if info.name == name:
            return fixture_dir() / info.filename
    raise KeyError(f"no fixture named {name!r}")


def load_fixture(name: str):
    """Load a bundled fixture as a SurfaceModel or ResolutionData."""
    for info in _CATALOG:
        if info.name == name:
            path = fixture_dir() / info.filename
            if info.kind == "surface":
                return load_surface(path)
            return load_resolution(path)
    raise KeyError(f"no fixture named {name!r}")
