import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import threshnet.analytics
import threshnet.generator
import threshnet.growth
from threshnet import (
    CalibratedSchedule,
    DomainError,
    EdgeRule,
    GrowthFit,
    GrowthPoint,
    GrowthSeries,
    ModelConfig,
    ParetoParams,
    PowerLawSchedule,
    ResourceLimitError,
    SeriesFormatError,
    concentration_report,
    fit_growth_curve,
    ingest_edge_count_series,
    generate,
    run_growth_sweep,
    sample_node_table,
    write_series_csv,
)
from threshnet.generator import _weight_order
from threshnet.model import _BLOCK

from oracles import linlog_leading_coefficient


class FlatSchedule:
    """Fixed threshold regardless of n; handy for dense-regime checks."""

    def __init__(self, theta):
        self.theta = theta

    def theta_for(self, n, pareto):
        return self.theta


def test_sweep_tracks_expected_edges(pareto3):
    sweep = run_growth_sweep(PowerLawSchedule(D=1.0), [200, 400, 800], pareto3, seeds=[0, 1, 2])
    assert set(sweep) == {0, 1, 2}
    for series in sweep.values():
        for p in series.points:
            assert abs(p.m - p.em) <= 3 * np.sqrt(p.var)
            assert p.theta == pytest.approx(p.n ** (1 / 3), rel=1e-12)


def test_sweep_deterministic(pareto3):
    a = run_growth_sweep(PowerLawSchedule(D=1.0), [100, 200], pareto3, seeds=[7])
    b = run_growth_sweep(PowerLawSchedule(D=1.0), [100, 200], pareto3, seeds=[7])
    assert [p.m for p in a[7].points] == [p.m for p in b[7].points]


def test_sweep_validation(pareto3):
    with pytest.raises(DomainError):
        run_growth_sweep(PowerLawSchedule(D=1.0), [200, 100], pareto3, seeds=[0])


def test_calibrated_schedule_hits_target(pareto3):
    sweep = run_growth_sweep(
        CalibratedSchedule(target=lambda n: 5.0 * n), [300, 600], pareto3, seeds=list(range(5))
    )
    for series in sweep.values():
        for p in series.points:
            assert p.em == pytest.approx(5.0 * p.n, rel=1e-9)
            assert abs(p.m - 5.0 * p.n) <= 3 * np.sqrt(p.var)


def test_sweep_subquadratic(pareto3):
    sweep = run_growth_sweep(PowerLawSchedule(D=1.0), [500, 2000, 8000], pareto3, seeds=[0])
    dens = [p.m / (p.n * (p.n - 1) / 2) for p in sweep[0].points]
    assert dens[0] > dens[1] > dens[2]


def test_concentration_dense_independent_case(pareto3):
    # theta = 0: every pair is an independent fair coin, variance n(n-1)/8
    sweep = run_growth_sweep(FlatSchedule(0.0), [50], pareto3, seeds=list(range(200)))
    rows = concentration_report(sweep)
    assert len(rows) == 1
    assert rows[0].predicted_var == pytest.approx(50 * 49 / 8, rel=1e-12)
    assert 0.8 <= rows[0].ratio <= 1.25
    assert not rows[0].flagged


def test_concentration_needs_seeds(pareto3):
    sweep = run_growth_sweep(FlatSchedule(0.0), [30], pareto3, seeds=list(range(5)))
    with pytest.raises(DomainError):
        concentration_report(sweep)


def test_fit_recovers_noiseless_curve():
    ns = np.geomspace(10 ** 3, 10 ** 5, 12).astype(int)
    ms = 4.95 * ns * np.log(ns) - 40.0 * ns
    fit = fit_growth_curve(list(zip(ns, ms)))
    assert fit.c1 == pytest.approx(4.95, rel=1e-6)
    assert fit.c2 == pytest.approx(-40.0, rel=1e-6)
    assert fit.residual < 1e-6 * max(abs(ms))


def test_fit_recovers_pure_linear():
    ns = [1000, 2000, 5000, 10000]
    fit = fit_growth_curve([(n, 7.0 * n) for n in ns])
    assert abs(fit.c1) < 1e-9
    assert fit.c2 == pytest.approx(7.0, rel=1e-6)


@pytest.mark.parametrize("n", [0, -5])
def test_fit_rejects_node_counts_below_one(n):
    with pytest.raises(DomainError, match="at least 1"):
        fit_growth_curve([(n, 0.0), (10, 5.0), (100, 90.0), (1000, 1500.0)])


def test_fit_needs_three_sizes():
    with pytest.raises(DomainError):
        fit_growth_curve([(10, 1.0), (20, 2.0)])


def test_fit_on_generated_sweep(pareto3):
    # the two basis functions are nearly collinear over one decade, so the
    # leading coefficient needs a sizeable seed ensemble to stabilize
    ns = [10000, 20000, 40000, 80000, 160000]
    sweep = run_growth_sweep(PowerLawSchedule(D=1.0), ns, pareto3, seeds=list(range(100)))
    mean_points = [
        (n, float(np.mean([sweep[s].points[i].m for s in sweep]))) for i, n in enumerate(ns)
    ]
    fit = fit_growth_curve(mean_points)
    lead = linlog_leading_coefficient(1.0, pareto3)
    assert lead == pytest.approx(1.0 / 16.0, rel=1e-12, abs=0.0)
    assert abs(fit.c1 - lead) / lead < 0.25
    # the noiseless expectation series pins the coefficient much tighter
    em_fit = fit_growth_curve([(n, sweep[0].points[i].em) for i, n in enumerate(ns)])
    assert em_fit.c1 == pytest.approx(lead, rel=1e-2)


def test_series_validation():
    with pytest.raises(SeriesFormatError):
        GrowthSeries(points=[GrowthPoint(n=10, m=1), GrowthPoint(n=10, m=2)])
    with pytest.raises(SeriesFormatError):
        GrowthSeries(points=[GrowthPoint(n=10, m=-1)])
    for n in (0, -5):
        with pytest.raises(SeriesFormatError, match="at least 1"):
            GrowthSeries(points=[GrowthPoint(n=n, m=0), GrowthPoint(n=10, m=1)])
    with pytest.raises(DomainError):
        GrowthFit(c1=1.0, c2=0.0, residual=-1.0)


def test_csv_round_trip(tmp_path, pareto3):
    sweep = run_growth_sweep(PowerLawSchedule(D=1.0), [100, 300, 900], pareto3, seeds=[3])
    path = tmp_path / "series.csv"
    write_series_csv(path, sweep[3])
    back = ingest_edge_count_series(path)
    for orig, rt in zip(sweep[3].points, back.points):
        assert rt.n == orig.n
        assert rt.m == orig.m
        assert rt.em == orig.em
        assert rt.var == orig.var
        assert rt.theta == orig.theta


def test_csv_minimal_two_columns(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("n,m\n10,5\n20,11\n", encoding="utf-8")
    series = ingest_edge_count_series(path)
    assert [p.n for p in series.points] == [10, 20]
    assert series.points[0].em is None


def test_csv_parse_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(SeriesFormatError):
        ingest_edge_count_series(empty)

    bad_header = tmp_path / "hdr.csv"
    bad_header.write_text("x,y\n1,2\n", encoding="utf-8")
    with pytest.raises(SeriesFormatError):
        ingest_edge_count_series(bad_header)

    bad_field = tmp_path / "field.csv"
    bad_field.write_text("n,m\n10,5\n20,oops\n", encoding="utf-8")
    with pytest.raises(SeriesFormatError, match=":3"):
        ingest_edge_count_series(bad_field)

    non_monotone = tmp_path / "mono.csv"
    non_monotone.write_text("n,m\n20,5\n10,3\n", encoding="utf-8")
    with pytest.raises(SeriesFormatError):
        ingest_edge_count_series(non_monotone)


@pytest.mark.parametrize(
    "text, message",
    [
        ("n,m,bogus\n10,5,1\n", r"s\.csv:1: unexpected extra columns \['bogus'\]"),
        ("n,m\n", r"s\.csv: no data rows"),
        ("n,m\n,\n \t, \n", r"s\.csv: no data rows"),
        (f"n,m\n10,5\n{2 ** 63},7\n", rf"s\.csv:3: n {2 ** 63} outside the int64 range"),
        (f"n,m\n10,{10 ** 400}\n", rf"s\.csv:2: m {10 ** 400} outside the int64 range"),
        (f"n,m\n10,{-2 ** 63 - 1}\n", rf"s\.csv:2: m {-2 ** 63 - 1} outside the int64 range"),
    ],
    ids=["extra-columns", "header-only", "blank-rows-only", "n-beyond-int64", "m-beyond-float", "m-below-int64"],
)
def test_csv_refusals_name_file_and_line(tmp_path, text, message):
    # a count beyond int64 is refused as path:line, before the fit turns it into a float
    path = tmp_path / "s.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SeriesFormatError, match=message):
        ingest_edge_count_series(path)


def test_csv_skips_blank_rows(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("n,m\n10,5\n,\n\n20,11\n", encoding="utf-8")
    assert [(p.n, p.m) for p in ingest_edge_count_series(path).points] == [(10, 5), (20, 11)]


def test_concentration_leaves_out_sizes_below_two(pareto3):
    # one node has no pair, so its sample and predicted variances are both 0
    sweep = run_growth_sweep(FlatSchedule(0.0), [1, 10, 20], pareto3, seeds=list(range(20)))
    assert [row.n for row in concentration_report(sweep)] == [10, 20]


def test_concentration_needs_one_size_list(pareto3):
    sweep = run_growth_sweep(FlatSchedule(0.0), [10, 20], pareto3, seeds=list(range(20)))
    sweep[0] = run_growth_sweep(FlatSchedule(0.0), [10], pareto3, seeds=[0])[0]
    with pytest.raises(DomainError, match="same sweep sizes"):
        concentration_report(sweep)


class CountingSchedule(PowerLawSchedule):
    """PowerLawSchedule that records each n it solves theta for in `calls`."""

    def __init__(self, D, calls):
        super().__init__(D=D)
        self.calls = calls

    def theta_for(self, n, pareto):
        self.calls.append(("theta_for", n))
        return super().theta_for(n, pareto)


def _spy(calls, name, fn):
    """`fn`, recording (name, its first two arguments) in `calls` at each call."""
    def wrapped(*args, **kwargs):
        calls.append((name, args[:2]))
        return fn(*args, **kwargs)
    return wrapped


def _spy_samplers(monkeypatch, calls):
    """Record in `calls` each draw of the sweep's weights ("sample", (n, seed)) and directions, and any node table."""
    for module, name, kind in ((threshnet.growth, "sample_weights", "sample"),
                               (threshnet.growth, "sample_directions", "directions"),
                               (threshnet.generator, "sample_node_table", "table")):
        monkeypatch.setattr(module, name, _spy(calls, kind, getattr(module, name)))


def test_sweep_solves_each_size_once_before_sampling(monkeypatch, pareto3):
    calls = []
    _spy_samplers(monkeypatch, calls)
    for name in ("expected_edges", "variance_edges"):
        monkeypatch.setattr(threshnet.analytics, name, _spy(calls, name, getattr(threshnet.analytics, name)))
    ns, seeds = [100, 200, 400], [0, 1, 2, 3, 4]
    sweep = run_growth_sweep(CountingSchedule(1.0, calls), ns, pareto3, seeds)
    first_sample = [name for name, _ in calls].index("sample")
    for name in ("theta_for", "expected_edges", "variance_edges"):
        sized = [args for kind, args in calls if kind == name]
        assert [args if name == "theta_for" else args[0] for args in sized] == ns
        assert all(i < first_sample for i, (kind, _) in enumerate(calls) if kind == name)
    # one draw of the weights per seed, at the largest n, then one of their directions in weight order;
    # the sweep samples no node table in id order
    assert [args for kind, args in calls if kind == "sample"] == [(ns[-1], seed) for seed in seeds]
    assert [(args[0], len(args[1])) for kind, args in calls if kind == "directions"] == [(seed, ns[-1]) for seed in seeds]
    assert "table" not in [kind for kind, _ in calls] and not hasattr(threshnet.growth, "sample_node_table")
    for seed in seeds:
        for p, size in zip(sweep[seed].points, sweep[0].points):
            assert (p.n, p.em, p.var, p.theta) == (size.n, size.em, size.var, size.theta)
            config = ModelConfig(n=p.n, d=3, pareto=pareto3, rule=EdgeRule.undirected(p.theta), seed=seed)
            assert p.m == generate(config).n_edges


@st.composite
def _sweep_sizes(draw):
    """A schedule and strictly increasing sizes: theta = 0 links half of all pairs, so it stops at n = 300."""
    flat = draw(st.booleans())
    sizes = st.sampled_from([1, 2]) | st.integers(1, 300 if flat else 2000)
    ns = sorted(draw(st.sets(sizes, min_size=1, max_size=5)))
    return (FlatSchedule(0.0) if flat else PowerLawSchedule(D=draw(st.floats(0.05, 4.0)))), ns


@settings(max_examples=40, deadline=None)
@given(schedule_ns=_sweep_sizes(), seed=st.integers(0, 2 ** 64 - 1))
def test_sweep_counts_equal_generate(schedule_ns, seed):
    schedule, ns = schedule_ns
    pareto = ParetoParams(a=3.0, w0=1.0)
    points = run_growth_sweep(schedule, ns, pareto, [seed])[seed].points
    assert [(p.n, type(p.m)) for p in points] == [(n, int) for n in ns]
    for p in points:
        config = ModelConfig(n=p.n, d=3, pareto=pareto, rule=EdgeRule.undirected(p.theta), seed=seed)
        assert p.m == generate(config).n_edges
    # a prefix's own weight order is the largest table's order with the other ids left out,
    # also where weights tie (rounded to one decimal, most of them do)
    weights = sample_node_table(ns[-1], seed, pareto, 3)[0]
    for table in (weights, np.round(weights, 1)):
        order = _weight_order(table)
        for n in ns:
            np.testing.assert_array_equal(order[order < n], _weight_order(table[:n]))


@pytest.mark.parametrize("ns", [[0, 10], [-5], [10, 20, 0]], ids=["zero-first", "negative", "zero-last"])
def test_sweep_refuses_sizes_below_one_before_solving(monkeypatch, pareto3, ns):
    calls = []
    _spy_samplers(monkeypatch, calls)
    with pytest.raises(DomainError, match=f"node count must be >= 1, got {min(ns)}"):
        run_growth_sweep(CountingSchedule(1.0, calls), ns, pareto3, [0])
    assert calls == []


def test_sweep_of_no_sizes_samples_nothing(monkeypatch, pareto3):
    calls = []
    _spy_samplers(monkeypatch, calls)
    assert run_growth_sweep(CountingSchedule(1.0, calls), [], pareto3, [0, 1]) == {0: GrowthSeries(), 1: GrowthSeries()}
    assert calls == []


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1))
def test_sweep_draws_the_weight_ordered_table(seed):
    # ids in weight order span every _BLOCK of the direction draws
    pareto, n_max = ParetoParams(a=3.0, w0=1.0), 2 * _BLOCK + 1
    counted = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(threshnet.growth, "_decide", _spy(counted, "count", threshnet.growth._decide))
        run_growth_sweep(PowerLawSchedule(D=1.0), [n_max], pareto, [seed])
    (_, (ws, xs)), = counted
    weights, dirs = sample_node_table(n_max, seed, pareto, 3)
    order = _weight_order(weights)
    want_ws, want_xs = weights[order], dirs[order]
    assert np.array_equal(ws.view(np.int64), want_ws.view(np.int64))
    assert np.array_equal(xs.view(np.int64), want_xs.view(np.int64))


def test_sweep_holds_no_node_table_in_id_order():
    # order, ws and xs are 40 B per node; the id-order directions would add 24 more
    n = 2 ** 20
    tracemalloc.start()
    try:
        run_growth_sweep(PowerLawSchedule(D=1.0), [n], ParetoParams(a=3.0, w0=1.0), [1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 48


def test_sweep_guard_fires_at_the_first_size_past_it(monkeypatch, pareto3):
    ns = [200, 400, 800]
    ms = [p.m for p in run_growth_sweep(PowerLawSchedule(D=1.0), ns, pareto3, [5])[5].points]
    assert ms[0] < ms[1] < ms[2]
    guard = (ms[0] + ms[1]) // 2
    counted = []
    monkeypatch.setattr(threshnet.growth, "DEFAULT_MAX_EDGES", guard)  # read at each call
    monkeypatch.setattr(threshnet.growth, "_decide", _spy(counted, "count", threshnet.growth._decide))
    with pytest.raises(ResourceLimitError, match=f"exceeds guard {guard};") as exc:
        run_growth_sweep(PowerLawSchedule(D=1.0), ns, pareto3, [5])
    assert [len(ws) for _, (ws, _) in counted] == ns[:2]
    assert guard < int(str(exc.value).split()[2]) <= ms[1]


def test_concentration_leaves_out_sizes_without_variance(pareto3):
    # theta = 1e300 links no pair: the predicted variance is 0 at every size
    sweep = run_growth_sweep(PowerLawSchedule(D=1e300), [10, 20], pareto3, seeds=list(range(20)))
    assert [p.var for p in sweep[0].points] == [0.0, 0.0]
    assert concentration_report(sweep) == []


def test_concentration_needs_a_predicted_variance(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("n,m\n10,5\n20,11\n", encoding="utf-8")
    sweep = {seed: ingest_edge_count_series(path) for seed in range(20)}
    with pytest.raises(DomainError, match="no predicted variance available at n=10"):
        concentration_report(sweep)


def test_fit_refuses_a_collinear_design():
    # n*ln(n) and n are proportional to within rounding over three adjacent n
    with pytest.raises(DomainError, match="degenerate design"):
        fit_growth_curve([(10 ** 15, 1.0), (10 ** 15 + 1, 2.0), (10 ** 15 + 2, 3.0)])


def test_csv_refuses_a_non_numeric_optional_field(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("n,m,em,var,theta\n10,5,x,,\n", encoding="utf-8")
    with pytest.raises(SeriesFormatError, match=r"s\.csv:2: "):
        ingest_edge_count_series(path)


@pytest.mark.parametrize(
    "points, text",
    [
        ([GrowthPoint(n=10, m=5), GrowthPoint(n=20, m=11)], "10,5,,,\n20,11,,,\n"),
        ([GrowthPoint(n=10, m=5), GrowthPoint(n=20, m=11, em=10.5, theta=2.0)], "10,5,,,\n20,11,10.5,,2\n"),
    ],
    ids=["counts-only", "some-known"],
)
def test_csv_always_writes_five_columns(tmp_path, points, text):
    # an unknown value is an empty field, which reads back as None
    path = tmp_path / "s.csv"
    write_series_csv(path, GrowthSeries(points=points))
    assert path.read_text(encoding="utf-8") == "n,m,em,var,theta\n" + text
    assert ingest_edge_count_series(path) == GrowthSeries(points=points)
