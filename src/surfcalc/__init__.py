"""surfcalc: exact-rational toolkit for numerical linear-series criteria
on algebraic surfaces.

Everything is computed over Q with no floating point: intersection
lattices, Q-divisor rounding calculus, adjoint-series criteria with
witness extraction, Seshadri bounds, Zariski decomposition, Mumford
Q-intersections, and effective global-generation thresholds.

The namespace is lazy (PEP 562): `import surfcalc` loads no submodule,
and `surfcalc.X` imports the submodule that defines X on first use, so a
one-shot CLI request pays only for the layers it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "lattice": (
        "CheckResult",
        "CurveRecord",
        "DimensionMismatch",
        "DivisorClass",
        "IntersectionLattice",
        "InvariantBreach",
        "NefVerdict",
        "NonIntegralDivisor",
        "SurfaceModel",
        "ValidationReport",
        "euler_characteristic",
        "hodge_index_check",
        "intersect",
        "is_big_nef_on_table",
        "is_nef_on_table",
        "self_int",
        "validate_surface",
    ),
    "qdivisor": (
        "PrimeComponent",
        "QDivisor",
        "class_of",
        "fractional_part",
        "mult_at",
        "parse_qdivisor",
        "round_down",
        "round_up",
        "table_namespace",
    ),
    "blowup": (
        "BlowupModel",
        "blow_up",
        "jet_twist",
        "pullback",
        "pushforward",
        "seshadri_twist_nef_check",
    ),
    "bundles": (
        "ChernData",
        "brill_noether_rho",
        "destabilizer_search",
        "discriminant",
        "elementary_transformation",
        "from_extension",
        "gonality_bound",
        "in_positive_cone",
        "k3_end_euler",
        "reider_chain_verify",
        "twist",
    ),
    "criteria": (
        "curve_bundle_status",
        "fujita_adjoint",
        "jets_length_d",
        "kodaira_zero_obstructions",
        "normal_generation_threshold",
        "numerical_global_generation",
        "pluricanonical_status",
        "reider_freeness",
        "reider_very_ample",
    ),
    "seshadri": (
        "SeshadriBound",
        "adjoint_jet_schedule",
        "jets_from_seshadri",
        "miranda_example",
        "multipoint_degree_bound",
        "multipoint_seshadri",
        "seshadri_at_point",
    ),
    "positivity": (
        "NotPseudoeffective",
        "ResolutionData",
        "ZariskiDecomposition",
        "almost_isolated_index",
        "cusp_bound",
        "divisor_existence_k",
        "krs_jet_certificate",
        "kv_applicability",
        "matsusaka_thresholds",
        "moving_part_inequality_check",
        "mumford_intersect",
        "mumford_pullback",
        "normal_surface_check",
        "qdivisor_generation_check",
        "qdivisor_very_ample_check",
        "singularity_production_check",
        "zariski_decompose",
    ),
    "report": ("CertificateReport", "TraceLine", "Witness"),
    "surface_io": ("load_resolution", "load_surface", "save_surface"),
    "fixtures": ("fixture_catalog", "fixture_path", "load_fixture"),
}

_SUBMODULES = {*_EXPORTS, "rational"}
_WHERE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_WHERE)


def __getattr__(name):
    if name in _WHERE:
        value = getattr(importlib.import_module(f".{_WHERE[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
