"""Growth experiments: size sweeps, concentration checks, and curve fitting.

A sweep counts the edges of the graph at every n under a threshold
schedule.  Substreams are keyed by node id, so node i keeps its latent
vector across all n within a sweep: nodes persist, edges are re-decided.
So each seed draws the weights of the largest n and sorts them once, then
draws the directions of the ids in that order straight into weight order,
and every smaller n decides the pairs of the first n nodes.  Growth-curve
fits use the natural logarithm throughout.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from . import analytics
from .errors import DomainError, SeriesFormatError
from .generator import DEFAULT_MAX_EDGES, _decide, _weight_order
from .generator import generate  # noqa: F401  perfbench's LAYER_CALLS wraps this name until ROADMAP item 3
from .io import _int64_fields, _read_text
from .model import EdgeRule, ModelConfig, ParetoParams, sample_directions, sample_weights

CSV_COLUMNS = ("n", "m", "em", "var", "theta")
_VARIANCE_RATIO_BAND = (0.5, 2.0)
MIN_CONCENTRATION_SEEDS = 20  # fewest seeds whose sample variance `concentration_report` judges


@dataclass(frozen=True)
class GrowthPoint:
    n: int
    m: int
    em: float | None = None
    var: float | None = None
    theta: float | None = None


@dataclass
class GrowthSeries:
    points: list[GrowthPoint] = field(default_factory=list)

    def __post_init__(self):
        ns = [p.n for p in self.points]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise SeriesFormatError("series n values must be strictly increasing")
        if any(p.n < 1 for p in self.points):
            raise SeriesFormatError("node counts must be at least 1")
        if any(p.m < 0 for p in self.points):
            raise SeriesFormatError("edge counts must be non-negative")


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares coefficients of m ~ c1 * n * ln(n) + c2 * n."""

    c1: float
    c2: float
    residual: float

    def __post_init__(self):
        if self.residual < 0:
            raise DomainError("residual cannot be negative")


@dataclass(frozen=True)
class ConcentrationRow:
    n: int
    mean_m: float
    sample_var: float
    predicted_var: float
    ratio: float
    flagged: bool


def run_growth_sweep(
    schedule,
    ns: list[int],
    pareto: ParetoParams,
    seeds: list[int],
) -> dict[int, GrowthSeries]:
    """One GrowthSeries per seed: the edge count at each n under schedule's theta(n).

    Each size's theta, em and var are solved once, before any node is sampled,
    on S^2 (d = 3), where the em and var analytics hold.  Each seed then draws
    the weights of the largest n, sorts them once, and draws the directions of
    the ids in that order, which are the node table's rows already in weight
    order: no id-order direction table is held or gathered.  The first n nodes
    are the nodes of the graph at n, and the rows with order < n keep their
    weight order, ties included, so every size's m equals `generate`'s edge
    count without a table, a sort or an edge list of its own.
    """
    if any(n < 1 for n in ns):
        raise DomainError(f"node count must be >= 1, got {min(ns)}")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise DomainError("sweep sizes must be strictly increasing")
    sizes = []
    for n in ns:
        theta = schedule.theta_for(n, pareto)
        var = analytics.variance_edges(n, pareto, theta) if n >= 2 else 0.0
        sizes.append(GrowthPoint(n=n, m=0, em=analytics.expected_edges(n, pareto, theta), var=var, theta=theta))
    out: dict[int, GrowthSeries] = {}
    for seed in seeds:
        points = []
        if sizes:  # the largest size's config refuses a bad seed as `generate` would
            top = ModelConfig(n=ns[-1], d=3, pareto=pareto, rule=EdgeRule.undirected(sizes[-1].theta), seed=seed)
            ws = sample_weights(top.n, top.seed, top.pareto)
            order = _weight_order(ws)
            ws = ws[order]  # frees the weights in id order before the directions are drawn
            xs = sample_directions(top.seed, order, top.d)
        for size in sizes:
            rows = ws, xs
            if size.n < top.n:
                keep = np.flatnonzero(order < size.n)
                rows = ws[keep], np.take(xs, keep, axis=0)  # faster than compressing by the mask
            m = _decide(*rows, EdgeRule.undirected(size.theta), DEFAULT_MAX_EDGES)[0]
            points.append(replace(size, m=m))
        out[seed] = GrowthSeries(points=points)
    return out


def concentration_report(series_by_seed: dict[int, GrowthSeries]) -> list[ConcentrationRow]:
    """Sample vs predicted variance of the edge count per n, across seeds."""
    if len(series_by_seed) < MIN_CONCENTRATION_SEEDS:
        raise DomainError(f"concentration report needs >= {MIN_CONCENTRATION_SEEDS} seeds, got {len(series_by_seed)}")
    all_series = list(series_by_seed.values())
    ns = [p.n for p in all_series[0].points]
    for s in all_series[1:]:
        if [p.n for p in s.points] != ns:
            raise DomainError("all seeds must share the same sweep sizes")
    rows = []
    for i, n in enumerate(ns):
        predicted = all_series[0].points[i].var
        if predicted is None or predicted < 0:
            raise DomainError(f"no predicted variance available at n={n}")
        if predicted == 0:
            continue  # n < 2, or no pair can link: the edge count cannot vary
        ms = np.array([s.points[i].m for s in all_series], dtype=float)
        sample_var = float(ms.var(ddof=1))
        ratio = sample_var / predicted
        rows.append(
            ConcentrationRow(
                n=n,
                mean_m=float(ms.mean()),
                sample_var=sample_var,
                predicted_var=float(predicted),
                ratio=ratio,
                flagged=not (_VARIANCE_RATIO_BAND[0] <= ratio <= _VARIANCE_RATIO_BAND[1]),
            )
        )
    return rows


def _check_fit_sizes(ns) -> None:
    if np.unique(ns).size < 3:
        raise DomainError("growth fit needs at least 3 distinct n values")


def fit_growth_curve(pairs) -> GrowthFit:
    """Least squares for m ~ c1 * n * ln(n) + c2 * n over (n, m) pairs."""
    ns, ms = np.array(list(pairs), dtype=float).reshape(-1, 2).T
    if np.any(ns < 1):
        raise DomainError("growth fit needs node counts of at least 1")
    _check_fit_sizes(ns)
    design = np.column_stack([ns * np.log(ns), ns])
    if np.linalg.matrix_rank(design) < 2:
        raise DomainError("degenerate design: n values make n*ln(n) and n collinear")
    coef, _, _, _ = np.linalg.lstsq(design, ms, rcond=None)
    resid = ms - design @ coef
    return GrowthFit(c1=float(coef[0]), c2=float(coef[1]), residual=float(np.sqrt(np.mean(resid ** 2))))


def write_series_csv(path, series: GrowthSeries) -> None:
    """CSV with header n,m,em,var,theta, an unknown value as an empty field; UTF-8, LF line endings."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for p in series.points:
            writer.writerow([p.n, p.m, *("" if x is None else format(x, ".17g") for x in (p.em, p.var, p.theta))])


def ingest_edge_count_series(path) -> GrowthSeries:
    """Parse and validate an (n, m[, em, var, theta]) CSV series."""
    points = []
    with _read_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SeriesFormatError(f"{path}: empty file") from None
        header = [c.strip().lower() for c in header]
        if header[:2] != ["n", "m"]:
            raise SeriesFormatError(f"{path}:1: expected header starting with 'n,m', got {header}")
        extra = header[2:]
        if extra and extra != list(CSV_COLUMNS[2:]):
            raise SeriesFormatError(f"{path}:1: unexpected extra columns {extra}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise SeriesFormatError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            n, m = _int64_fields(row[:2], CSV_COLUMNS[:2], f"{path}:{lineno}")
            try:
                opt = [float(c) if c.strip() else None for c in row[2:]]
            except ValueError as exc:
                raise SeriesFormatError(f"{path}:{lineno}: {exc}") from None
            points.append(GrowthPoint(n, m, *opt))
    if not points:
        raise SeriesFormatError(f"{path}: no data rows")
    try:
        return GrowthSeries(points=points)
    except SeriesFormatError as exc:
        raise SeriesFormatError(f"{path}: {exc}") from None
