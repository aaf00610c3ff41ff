"""threshnet: latent-space threshold random graphs with Pareto weights.

Generation, closed-form edge/variance analytics, threshold calibration,
growth sweeps, and discrete power-law validation of degree distributions.

Each public name loads its submodule on first use (PEP 562), so
`import threshnet` loads no numpy, and a program that imports threshnet
first can still set numpy's environment, its BLAS threads say, before
numpy loads.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE = {
    "errors": (
        "DimensionError",
        "DomainError",
        "FeasibilityError",
        "FitDegenerateError",
        "NumericError",
        "ResourceLimitError",
        "SeriesFormatError",
        "ThreshnetError",
        "UnsupportedAnalyticsError",
    ),
    "model": ("EdgeRule", "LinkFn", "ModelConfig", "ParetoParams", "Variant", "sample_node_table"),
    "generator": ("Graph", "degree_sequence", "generate"),
    "analytics": (
        "CalibratedSchedule",
        "PowerLawSchedule",
        "calibrate_theta",
        "calibrate_theta_directed",
        "expected_arcs_directed",
        "expected_edges",
        "expected_edges_linlog",
        "p_edge",
        "p_edge_given_weight",
        "p_edge_given_weight_linkfn",
        "p_wedge",
        "theta_powerlaw_schedule",
        "variance_edges",
    ),
    "statfit": ("FitResult", "GofResult", "ccdf", "fit_powerlaw_discrete", "gof_pvalue"),
    "growth": (
        "GrowthFit",
        "GrowthPoint",
        "GrowthSeries",
        "concentration_report",
        "fit_growth_curve",
        "ingest_edge_count_series",
        "run_growth_sweep",
        "write_series_csv",
    ),
}
_HOME = {name: module for module, names in _SUBMODULE.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
