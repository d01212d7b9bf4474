"""surfcalc: exact-rational toolkit for numerical linear-series criteria
on algebraic surfaces.

Everything is computed over Q with no floating point: intersection
lattices, Q-divisor rounding calculus, adjoint-series criteria with
witness extraction, Seshadri bounds, Zariski decomposition, Mumford
Q-intersections, and effective global-generation thresholds.
"""

from .lattice import (
    CheckResult,
    CurveRecord,
    DimensionMismatch,
    DivisorClass,
    IntersectionLattice,
    InvariantBreach,
    NefVerdict,
    NonIntegralDivisor,
    SurfaceModel,
    ValidationReport,
    euler_characteristic,
    hodge_index_check,
    intersect,
    is_big_nef_on_table,
    is_nef_on_table,
    self_int,
    validate_surface,
)
from .qdivisor import (
    PrimeComponent,
    QDivisor,
    class_of,
    fractional_part,
    mult_at,
    parse_qdivisor,
    round_down,
    round_up,
    table_namespace,
)
from .blowup import (
    BlowupModel,
    blow_up,
    jet_twist,
    pullback,
    pushforward,
    seshadri_twist_nef_check,
)
from .bundles import (
    ChernData,
    brill_noether_rho,
    destabilizer_search,
    discriminant,
    elementary_transformation,
    from_extension,
    gonality_bound,
    in_positive_cone,
    k3_end_euler,
    reider_chain_verify,
    twist,
)
from .criteria import (
    curve_bundle_status,
    fujita_adjoint,
    jets_length_d,
    kodaira_zero_obstructions,
    normal_generation_threshold,
    numerical_global_generation,
    pluricanonical_status,
    reider_freeness,
    reider_very_ample,
)
from .seshadri import (
    SeshadriBound,
    adjoint_jet_schedule,
    jets_from_seshadri,
    miranda_example,
    multipoint_degree_bound,
    multipoint_seshadri,
    seshadri_at_point,
)
from .positivity import (
    NotPseudoeffective,
    ResolutionData,
    ZariskiDecomposition,
    almost_isolated_index,
    cusp_bound,
    divisor_existence_k,
    krs_jet_certificate,
    kv_applicability,
    matsusaka_thresholds,
    moving_part_inequality_check,
    mumford_intersect,
    mumford_pullback,
    normal_surface_check,
    qdivisor_generation_check,
    qdivisor_very_ample_check,
    singularity_production_check,
    zariski_decompose,
)
from .report import CertificateReport, TraceLine, Witness
from .surface_io import load_resolution, load_surface, save_surface
from .fixtures import fixture_catalog, fixture_path, load_fixture

__version__ = "0.1.0"
