"""threshnet: latent-space threshold random graphs with Pareto weights.

Generation, closed-form edge/variance analytics, threshold calibration,
growth sweeps, and discrete power-law validation of degree distributions.
"""

__version__ = "0.1.0"

from .errors import (
    DimensionError,
    DomainError,
    FeasibilityError,
    FitDegenerateError,
    NumericError,
    ResourceLimitError,
    SeriesFormatError,
    ThreshnetError,
    UnsupportedAnalyticsError,
)
from .model import (
    EdgeRule,
    LinkFn,
    ModelConfig,
    ParetoParams,
    Variant,
    sample_node_table,
)
from .generator import Graph, degree_sequence, generate
from .analytics import (
    CalibratedSchedule,
    PowerLawSchedule,
    calibrate_theta,
    calibrate_theta_directed,
    expected_arcs_directed,
    expected_edges,
    expected_edges_linlog,
    p_edge,
    p_edge_given_weight,
    p_edge_given_weight_linkfn,
    p_wedge,
    theta_powerlaw_schedule,
    variance_edges,
)
from .statfit import (
    FitResult,
    GofResult,
    ccdf,
    fit_powerlaw_discrete,
    gof_pvalue,
)
from .growth import (
    GrowthFit,
    GrowthPoint,
    GrowthSeries,
    concentration_report,
    fit_growth_curve,
    ingest_edge_count_series,
    run_growth_sweep,
    write_series_csv,
)
