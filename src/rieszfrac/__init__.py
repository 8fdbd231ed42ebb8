"""Riesz s-energy on self-similar fractals: construction, minimization,
and numerical verification of the asymptotic behavior of minimal
configurations (geometric-subsequence limits, the theta-curve, liminf/limsup
gap certificates, weak* cell counts, best packing)."""

from .asymptotics import (
    CantorGapReport,
    CellMeasureReport,
    GapCertificate,
    GCurvePoint,
    GeometricLimitReport,
    MonotonicityReport,
    beta_objective,
    beta_optimum,
    cantor_gap_check,
    empirical_cell_measure,
    g_curve,
    gap_certificate,
    geometric_limit,
    iterated_lift_bound,
    monotonicity_check,
    pigeonhole_bound,
    scaling_exponent_fit,
    separation_samples,
    tail_bound,
)
from .cli import ExperimentConfig, main, run
from .energy import (
    ENERGY_CONVENTION,
    Configuration,
    EnergyRecord,
    covering_radius,
    cross_energy,
    fractal_covering_radius,
    min_pairwise_distance,
    normalized_energy,
    point_energy_sums,
    riesz_energy,
)
from .errors import (
    ClassificationError,
    DegenerateFractalWarning,
    DomainError,
    HypothesisError,
    ResourceBudgetError,
    RieszFracError,
    SeparationWarning,
    SingularConfigurationError,
    UsageError,
)
from .fractal import (
    Fractal,
    Similitude,
    anchor_cloud,
    cantor,
    cantor_dust_2d,
    cell_anchor,
    cell_diameter,
    estimate_diameter,
    first_level_cloud_distance,
    fractal_from_spec,
    from_catalog,
    load_fractal,
    make_fractal,
    moran_dimension,
    parse_number,
    separation_sigma,
    uniform_line,
)
from .minimize import (
    MinimizeResult,
    PackingResult,
    SearchOptions,
    best_packing,
    exhaustive_minimize,
    lift,
    lift_chain,
    local_search_minimize,
)
from .serialize import configuration_to_csv

__version__ = "0.1.0"

__all__ = [
    "CantorGapReport", "CellMeasureReport", "GapCertificate", "GCurvePoint",
    "GeometricLimitReport", "MonotonicityReport", "beta_objective",
    "beta_optimum", "cantor_gap_check", "empirical_cell_measure", "g_curve",
    "gap_certificate", "geometric_limit", "iterated_lift_bound",
    "monotonicity_check", "pigeonhole_bound", "scaling_exponent_fit",
    "separation_samples", "tail_bound",
    "ExperimentConfig", "main", "run",
    "ENERGY_CONVENTION", "Configuration", "EnergyRecord", "covering_radius",
    "cross_energy", "fractal_covering_radius", "min_pairwise_distance",
    "normalized_energy", "point_energy_sums",
    "riesz_energy",
    "ClassificationError", "DegenerateFractalWarning", "DomainError",
    "HypothesisError", "ResourceBudgetError", "RieszFracError",
    "SeparationWarning", "SingularConfigurationError", "UsageError",
    "Fractal", "Similitude", "anchor_cloud", "cantor",
    "cantor_dust_2d", "cell_anchor", "cell_diameter", "estimate_diameter",
    "first_level_cloud_distance", "fractal_from_spec", "from_catalog",
    "load_fractal", "make_fractal",
    "moran_dimension", "parse_number", "separation_sigma", "uniform_line",
    "MinimizeResult", "PackingResult", "SearchOptions", "best_packing",
    "exhaustive_minimize", "lift", "lift_chain", "local_search_minimize",
    "configuration_to_csv",
    "__version__",
]
