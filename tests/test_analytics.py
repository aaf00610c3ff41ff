import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from threshnet import (
    CalibratedSchedule,
    DomainError,
    EdgeRule,
    FeasibilityError,
    LinkFn,
    ModelConfig,
    NumericError,
    ParetoParams,
    PowerLawSchedule,
    ThreshnetError,
    UnsupportedAnalyticsError,
    calibrate_theta,
    calibrate_theta_directed,
    expected_arcs_directed,
    expected_edges,
    expected_edges_linlog,
    generate,
    p_edge,
    p_edge_given_weight,
    p_edge_given_weight_linkfn,
    p_wedge,
    theta_powerlaw_schedule,
    variance_edges,
)
from threshnet import analytics

from oracles import (
    degree_pmf_reference,
    directed_branch_boundary,
    hurwitz_zeta,
    mc_estimate,
    p_edge_given_weight_directed_printed,
    p_edge_given_weight_linkfn_exp,
    p_edge_given_weight_linkfn_weight_space,
    p_edge_given_weight_undirected,
    p_edge_mp,
    p_edge_undirected,
    p_wedge_mp,
    p_wedge_paper,
    variance_edges_mp,
)


def test_p_edge_given_weight_known_points(pareto3):
    assert p_edge_given_weight(5.0, pareto3, 0.0) == 0.5
    assert p_edge_given_weight(2.0, pareto3, 10.0) == pytest.approx(0.001, rel=1e-12, abs=0.0)
    assert p_edge_given_weight(20.0, pareto3, 10.0) == pytest.approx(0.3125, rel=1e-12, abs=0.0)
    # both branches meet at w = theta / w0
    assert p_edge_given_weight(10.0, pareto3, 10.0) == pytest.approx(0.125, rel=1e-12, abs=0.0)


def test_p_edge_known_points(pareto3):
    assert p_edge(pareto3, 0.0) == 0.5
    assert p_edge(pareto3, 10.0) == pytest.approx(1.0822194e-3, rel=1e-6)
    # branch point theta = w0^2
    assert p_edge(pareto3, 1.0) == pytest.approx(0.21875, rel=1e-12, abs=0.0)


def test_p_wedge_known_points(pareto3):
    assert p_wedge(pareto3, 0.0) == 0.25
    assert p_wedge(pareto3, 0.5) == pytest.approx(0.13046875, rel=1e-10)
    assert p_wedge(pareto3, 10.0) == pytest.approx(6.8734375e-5, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("a", [100.0, 1e4, 1e6, 1e8])
def test_p_wedge_keeps_its_digits_at_large_a(a):
    # 1 - 2 r^2 + k cancels to (5a + 2) / ((a+1)^2 (a+2)): taken as that difference the
    # tail was off by 4.3e-14, 1.0e-9, 2.3e-5 and 0.29 relative here
    pareto, theta = ParetoParams(a, 1.0), 1.0 + 1.0 / a
    assert p_wedge(pareto, theta) == pytest.approx(p_wedge_mp(pareto, theta), rel=2.3e-16, abs=0.0)


@settings(max_examples=200, deadline=None)
@given(log10_a=st.floats(0.0, 8.0), x=st.floats(0.0, 5.0))
def test_p_wedge_matches_mpmath_above_w0_squared_up_to_a_1e8(log10_a, x):
    # s = theta^-a is taken from ln theta, whose rounding a ln theta <= 5 amplifies;
    # 160,000 draws measured at most 1.17e-15
    a = 10.0 ** log10_a
    pareto, theta = ParetoParams(a, 1.0), 1.0 + x / a
    assert p_wedge(pareto, theta) == pytest.approx(p_wedge_mp(pareto, theta), rel=1.5e-15, abs=0.0)


def test_p_edge_keeps_its_digits_below_w0_squared():
    # r^-1 = theta / w0^2 taken as exp(-log r), from logs, was off by 2.0e-15 relative here
    pareto, theta = ParetoParams(9.11, 8.03), 61.65
    assert p_edge(pareto, theta) == pytest.approx(p_edge_mp(pareto, theta), rel=4.5e-16, abs=0.0)


@settings(max_examples=300, deadline=None)
@given(
    log10_a=st.floats(-1.0, 1.0),
    log10_w0=st.floats(-1.0, 1.0),
    log10_ratio=st.floats(-6.0, 0.0),
    exponents=st.one_of(st.just((1.0, 1.0)), st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0))),
)
# at the branch point, where the logs of theta and w0 put 4.2e-15 and 6.7e-15 into r^-alpha
@example(log10_a=0.9996504772710166, log10_w0=0.9773812690074977, log10_ratio=0.0, exponents=(1.0, 1.0))
@example(log10_a=0.9986204432865733, log10_w0=0.9318987561427108, log10_ratio=0.0, exponents=(1.5262324296996015, 0.5042972956672365))
def test_p_edge_matches_mpmath_up_to_w0_to_the_alpha_plus_beta(log10_a, log10_w0, log10_ratio, exponents):
    # 1 - c theta / w0^(alpha+beta) amplifies the rounding of c and of the quotient up to
    # c / (1 - c) near the branch point; 150,000 draws each (a fifth at theta = w0^(alpha+beta),
    # a fifth within 0.1% of it) measured at most 1.82e-15 at alpha = beta = 1 and
    # 3.29e-15 with alpha, beta in [0.5, 2]
    alpha, beta = exponents
    pareto = ParetoParams(10.0 ** log10_a, 10.0 ** log10_w0)
    theta = pareto.w0 ** (alpha + beta) * 10.0 ** log10_ratio
    rel = 2e-15 if alpha == beta == 1.0 else 3.5e-15
    assert p_edge(pareto, theta, alpha, beta) == pytest.approx(p_edge_mp(pareto, theta, alpha, beta), rel=rel, abs=0.0)


@settings(max_examples=300, deadline=None)
@given(
    log10_a=st.floats(-1.0, 1.0),
    log10_w0=st.floats(-1.0, 1.0),
    log10_ratio=st.floats(0.0, 6.0),
    exponents=st.one_of(st.just((1.0, 1.0)), st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0))),
)
def test_p_edge_matches_mpmath_above_w0_to_the_alpha_plus_beta(log10_a, log10_w0, log10_ratio, exponents):
    # r^a and r^(a+e) as powers of theta / w0^(alpha+beta): 150,000 draws each measured at most
    # 1.78e-15 at alpha = beta = 1 and 4.88e-15 with alpha, beta in [0.5, 2] (taken as
    # exp(a log r), 2.24e-14 and 4.49e-14 on the same draws)
    alpha, beta = exponents
    pareto = ParetoParams(10.0 ** log10_a, 10.0 ** log10_w0)
    theta = pareto.w0 ** (alpha + beta) * 10.0 ** log10_ratio
    rel = 2e-15 if alpha == beta == 1.0 else 5.5e-15
    assert p_edge(pareto, theta, alpha, beta) == pytest.approx(p_edge_mp(pareto, theta, alpha, beta), rel=rel, abs=0.0)


@pytest.mark.parametrize("a, w0, theta", [(3.0, 10.0, 1e-3), (5.0, 3.0, 0.01), (2.0, 1.0, 1e-4)])
def test_variance_keeps_its_digits_below_w0_squared(a, w0, theta):
    # p_wedge - p_edge^2, two numbers near 1/4, cancelled to 4.9e-14, 1.3e-13 and 2.0e-13 relative here
    pareto = ParetoParams(a, w0)
    assert variance_edges(1000, pareto, theta) == pytest.approx(variance_edges_mp(1000, pareto, theta), rel=2.3e-16, abs=0.0)


@settings(max_examples=300, deadline=None)
@given(
    n=st.sampled_from([1000, 10 ** 6]),
    log10_a=st.floats(-1.0, 1.0),
    log10_w0=st.floats(-1.0, 1.0),
    log10_theta=st.floats(-3.0, 3.0),
)
def test_variance_matches_mpmath_below_w0_squared(n, log10_a, log10_w0, log10_theta):
    # where the wedge term carries the variance: 270,000 draws measured at most 1.18e-15
    # (at n = 2 or 3 the Bernoulli term carries p_edge's own error: up to 4.8e-16 over
    # 20,000 draws, 2.7e-15 while p_edge took theta / w0^2 from logs)
    pareto, theta = ParetoParams(10.0 ** log10_a, 10.0 ** log10_w0), 10.0 ** log10_theta
    if theta / pareto.w0 / pareto.w0 >= 1.0:
        reject()
    assert variance_edges(n, pareto, theta) == pytest.approx(variance_edges_mp(n, pareto, theta), rel=1.5e-15, abs=0.0)


def test_domain_errors(pareto3):
    with pytest.raises(DomainError):
        p_edge(pareto3, -0.1)
    with pytest.raises(DomainError):
        p_edge_given_weight(0.5, pareto3, 1.0)
    with pytest.raises(DomainError):
        p_wedge(pareto3, -1.0)


@pytest.mark.parametrize("a,w0", [(1.5, 1.0), (3.0, 1.0), (2.0, 2.0), (5.0, 0.5)])
def test_monotonicity_in_theta(a, w0):
    pareto = ParetoParams(a, w0)
    thetas = np.concatenate([np.linspace(0, w0 ** 2, 7), w0 ** 2 * np.geomspace(1.1, 50, 8)])
    pe = [p_edge(pareto, t) for t in thetas]
    pw = [p_wedge(pareto, t) for t in thetas]
    pew = [p_edge_given_weight(2.5 * w0, pareto, t) for t in thetas]
    assert np.all(np.diff(pe) < 0)
    assert np.all(np.diff(pw) < 0)
    assert np.all(np.diff(pew) < 0)


def test_p_edge_given_weight_nondecreasing_in_w(pareto3):
    ws = np.geomspace(1.0, 100.0, 30)
    vals = [p_edge_given_weight(w, pareto3, 7.0) for w in ws]
    assert np.all(np.diff(vals) >= 0)


@pytest.mark.parametrize("a,w0", [(1.5, 1.0), (3.0, 1.0), (2.0, 2.0)])
def test_wedge_dominates_edge_squared(a, w0):
    pareto = ParetoParams(a, w0)
    for theta in (0.0, 0.3 * w0 ** 2, w0 ** 2, 5 * w0 ** 2, 100 * w0 ** 2):
        assert p_wedge(pareto, theta) >= p_edge(pareto, theta) ** 2 - 1e-15


def test_expected_edges_trivial(pareto3):
    assert expected_edges(1, pareto3, 5.0) == 0.0
    assert expected_edges(2, pareto3, 0.0) == 0.5
    with pytest.raises(DomainError):
        expected_edges(0, pareto3, 1.0)


def test_variance_trivial(pareto3):
    # independent pairs at theta = 0: 3 pairs, each Bernoulli(1/2)
    assert variance_edges(3, pareto3, 0.0) == pytest.approx(0.75, rel=1e-12, abs=0.0)
    pe = p_edge(pareto3, 4.0)
    assert variance_edges(2, pareto3, 4.0) == pytest.approx(pe * (1 - pe), rel=1e-12, abs=0.0)
    with pytest.raises(DomainError):
        variance_edges(1, pareto3, 1.0)


def test_variance_matches_seed_ensemble(pareto3):
    n, theta = 100, 10.0
    ms = []
    for seed in range(200):
        config = ModelConfig(n=n, d=3, pareto=pareto3, rule=EdgeRule.undirected(theta), seed=seed)
        ms.append(generate(config).n_edges)
    sample_var = np.var(ms, ddof=1)
    predicted = variance_edges(n, pareto3, theta)
    assert 0.5 <= sample_var / predicted <= 2.0
    assert abs(np.mean(ms) - expected_edges(n, pareto3, theta)) <= 3 * np.sqrt(predicted / 200)


def test_calibrate_closed_form_branch(pareto3):
    n = 100
    pairs = n * (n - 1) / 2
    theta = calibrate_theta(n, pareto3, pairs * 0.25)
    assert theta == pytest.approx(8.0 / 9.0, rel=1e-12, abs=0.0)
    assert p_edge(pareto3, theta) == pytest.approx(0.25, rel=1e-12, abs=0.0)


def test_calibrate_round_trip_high_branch(pareto3):
    n = 1000
    target = expected_edges(n, pareto3, 10.0)
    theta = calibrate_theta(n, pareto3, target)
    assert theta == pytest.approx(10.0, rel=1e-9)


def test_calibrate_near_limit(pareto3):
    n = 1000
    pairs = n * (n - 1) / 2
    theta = calibrate_theta(n, pareto3, pairs / 2 * (1 - 1e-9))
    assert 0 <= theta < 1e-6


def test_calibrate_feasibility(pareto3):
    with pytest.raises(FeasibilityError):
        calibrate_theta(100, pareto3, 0.0)
    with pytest.raises(FeasibilityError):
        calibrate_theta(100, pareto3, 100 * 99 / 4)


def test_powerlaw_schedule_values():
    assert theta_powerlaw_schedule(8, 1.0, 3.0) == pytest.approx(2.0, rel=1e-12)
    assert theta_powerlaw_schedule(10, 2.0, 1.0) == pytest.approx(20.0, rel=1e-12)
    assert theta_powerlaw_schedule(300000, 1.0, 3.0) == pytest.approx(66.943, rel=1e-4)
    with pytest.raises(DomainError):
        theta_powerlaw_schedule(10, 0.0, 3.0)
    with pytest.raises(DomainError, match="node count must be >= 1, got 0"):
        theta_powerlaw_schedule(0, 1.0, 3.0)
    # n^(1/a) = 10^1000 passes the largest double, and so does theta
    with pytest.raises(DomainError, match=r"overflows at n=10, a=0\.001"):
        theta_powerlaw_schedule(10, 1.0, 0.001)
    with pytest.raises(DomainError, match=r"overflows at n=20, a=0\.001"):
        PowerLawSchedule(D=1.0).theta_for(20, ParetoParams(0.001, 1.0))
    # 10^500 passes it alone, but 1e-300 * 10^500 = 1e200 does not
    assert theta_powerlaw_schedule(10, 1e-300, 0.002) == pytest.approx(1e200, rel=1e-12)
    assert theta_powerlaw_schedule(1, 1.0, 5e-324) == 1.0


def test_linlog_formula_consistency():
    for a, w0, D in [(3.0, 1.0, 1.0), (2.0, 1.5, 2.0), (1.5, 1.0, 3.0)]:
        pareto = ParetoParams(a, w0)
        for n in (10 ** 3, 10 ** 5, 10 ** 7):
            if n < w0 ** (2 * a) / D ** a:
                continue
            theta = theta_powerlaw_schedule(n, D, a)
            exact = expected_edges(n, pareto, theta)
            assert expected_edges_linlog(n, D, pareto) == pytest.approx(exact, rel=1e-12)


def test_linlog_figure_point(pareto3):
    assert expected_edges_linlog(300000, 1.0, pareto3) == pytest.approx(2.6928e5, rel=1e-3)


def test_linlog_leading_coefficient(pareto3):
    n = 10 ** 8
    ratio = expected_edges_linlog(n, 1.0, pareto3) / (n * math.log(n))
    assert abs(ratio - 1.0 / 16.0) / (1.0 / 16.0) < 0.15


def test_linlog_validity_region():
    pareto = ParetoParams(2.0, 3.0)  # needs n >= 3^4 / D^2
    with pytest.raises(DomainError):
        expected_edges_linlog(10, 1.0, pareto)
    for D in (0.0, -1.0):
        with pytest.raises(DomainError, match="schedule coefficient must be positive"):
            expected_edges_linlog(10 ** 6, D, pareto)


@settings(max_examples=300, deadline=None)
@given(
    a=st.floats(min_value=0.1, max_value=10.0),
    w0=st.floats(min_value=0.3, max_value=3.0),
    log10_w=st.floats(min_value=0.0, max_value=2.0),
    log10_theta=st.floats(min_value=-3.0, max_value=3.0),
)
@example(a=3.0, w0=1.0, log10_w=0.0, log10_theta=0.0)  # both branch points
def test_directed_reduces_to_undirected(a, w0, log10_w, log10_theta):
    # at their alpha = beta = 1 defaults the closed forms are the paper's undirected ones
    pareto = ParetoParams(a, w0)
    w = w0 * 10.0 ** log10_w
    theta = w0 ** 2 * 10.0 ** log10_theta
    assert p_edge(pareto, 0.0) == p_edge_undirected(pareto, 0.0) == 0.5
    assert p_edge_given_weight(w, pareto, 0.0) == p_edge_given_weight_undirected(w, pareto, 0.0) == 0.5
    assert p_edge(pareto, theta) == pytest.approx(p_edge_undirected(pareto, theta), rel=1e-12, abs=0.0)
    assert p_edge_given_weight(w, pareto, theta) == pytest.approx(
        p_edge_given_weight_undirected(w, pareto, theta), rel=1e-12, abs=0.0
    )


def test_directed_reduces_to_undirected_on_grid(pareto3):
    for theta in (0.0, 0.5, 1.0, 4.0, 25.0):
        assert p_edge(pareto3, theta) == pytest.approx(p_edge_undirected(pareto3, theta), rel=1e-12, abs=1e-15)
        for w in (1.0, 2.0, 7.0, 40.0):
            assert p_edge_given_weight(w, pareto3, theta) == pytest.approx(
                p_edge_given_weight_undirected(w, pareto3, theta), rel=1e-12, abs=1e-15
            )


def test_directed_known_point(pareto3):
    got = p_edge_given_weight(2.0, pareto3, 10.0, 1.0, 2.0)
    assert got == pytest.approx(0.0178885, rel=1e-5)


def test_directed_branch_continuity(pareto3):
    for alpha, beta, theta in [(1.0, 2.0, 10.0), (2.0, 1.0, 5.0), (0.7, 1.3, 3.0)]:
        wstar = directed_branch_boundary(pareto3, theta, alpha, beta)
        lo = p_edge_given_weight(np.nextafter(wstar, 0), pareto3, theta, alpha, beta)
        hi = p_edge_given_weight(np.nextafter(wstar, np.inf), pareto3, theta, alpha, beta)
        assert abs(lo - hi) <= 1e-12


def test_printed_boundary_diverges_when_asymmetric(pareto3):
    # the alternate branch switch is only tenable at alpha == beta
    w = 4.0
    default = p_edge_given_weight(w, pareto3, 10.0, 1.0, 2.0)
    printed = p_edge_given_weight_directed_printed(w, pareto3, 10.0, 1.0, 2.0)
    assert abs(default - printed) > 0.01
    same = p_edge_given_weight_directed_printed(w, pareto3, 10.0, 1.5, 1.5)
    # the printed powers of theta and the log form round differently
    assert same == pytest.approx(p_edge_given_weight(w, pareto3, 10.0, 1.5, 1.5), rel=1e-13, abs=0.0)


def test_directed_p_edge_matches_monte_carlo(pareto3):
    theta, alpha, beta = 6.0, 1.0, 2.0
    closed = p_edge(pareto3, theta, alpha, beta)
    # integrate the conditional against Monte-Carlo weights for the source node
    rng = np.random.default_rng(5)
    ws = pareto3.w0 * (1 - rng.random(20000)) ** (-1 / pareto3.a)
    emp = np.mean([p_edge_given_weight(w, pareto3, theta, alpha, beta) for w in ws])
    se = np.std([p_edge_given_weight(w, pareto3, theta, alpha, beta) for w in ws]) / np.sqrt(len(ws))
    assert abs(emp - closed) <= 4 * se


def test_directed_calibration_round_trip(pareto3):
    n, alpha, beta = 10 ** 4, 1.0, 2.0
    target = expected_arcs_directed(n, pareto3, 15.0, alpha, beta)
    theta = calibrate_theta_directed(n, pareto3, target, alpha, beta)
    assert theta == pytest.approx(15.0, rel=1e-9)
    with pytest.raises(FeasibilityError):
        calibrate_theta_directed(10, pareto3, 100.0, alpha, beta)


def test_directed_calibration_hits_target_arcs(pareto3):
    n = 10 ** 4
    top = n * (n - 1) / 2.0
    for alpha, beta in [(1.0, 2.0), (2.0, 1.0), (1.5, 1.5)]:
        for target in [1.0, 1e3, 1e6, 0.3 * top, top * (1 - 1e-9)]:
            theta = calibrate_theta_directed(n, pareto3, target, alpha, beta)
            assert expected_arcs_directed(n, pareto3, theta, alpha, beta) == pytest.approx(target, rel=1e-10)


def test_directed_calibration_rejects_missed_root(pareto3, monkeypatch):
    # a solver that returns a wrong threshold must not pass silently
    solve = analytics._solve_theta
    monkeypatch.setattr(analytics, "_solve_theta", lambda *args: 2.0 * solve(*args))
    with pytest.raises(NumericError):
        calibrate_theta_directed(10 ** 4, pareto3, 1e5, 1.0, 2.0)


def test_power_of_quotient_takes_its_limit_past_the_largest_exponent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # a / alpha = 3 / 5e-324 is inf: r^a is 0, as at any alpha small enough to round it to 0
        pareto = ParetoParams(3.0, 1.0)
        assert p_edge(pareto, 33300.0, 5e-324, 3.0) == pytest.approx(p_edge(pareto, 33300.0, 1e-10, 3.0), rel=1e-9)
        # a / alpha = 3e300 rounds r^a to 0, and the correction of the exponent would pass exp's range
        with pytest.raises(NumericError):
            calibrate_theta_directed(10, ParetoParams(3.0, 1e308), 1e-300, 1e-300, 1e-300)


def test_directed_calibration_reaches_target_past_float_powers():
    # the root is theta = 1e154; one doubling past it (theta / w0^beta)^(1/alpha) overflows a float
    pareto = ParetoParams(1.0, 1.0)
    theta = calibrate_theta_directed(2, pareto, 1e-154, 0.5, 1.0)
    assert abs(expected_arcs_directed(2, pareto, theta, 0.5, 1.0) - 1e-154) <= 1e-10 * 1e-154


def test_calibration_root_far_below_one_round_trips():
    # roots near 4e-59 and 1e-20: the bisection of the doubles' bits takes
    # its 63 steps whatever the scale of the root
    pareto = ParetoParams(3.0, 1e-30)
    theta = calibrate_theta(1000, pareto, 10.0)
    assert abs(expected_edges(1000, pareto, theta) - 10.0) <= 1e-10 * 10.0
    pareto = ParetoParams(3.0, 0.5)
    target = expected_arcs_directed(1000, pareto, 1e-20, 50.0, 50.0)
    theta = calibrate_theta_directed(1000, pareto, target, 50.0, 50.0)
    assert theta == pytest.approx(1e-20, rel=1e-12, abs=0.0)


@settings(max_examples=500, deadline=None)
@given(
    a=st.floats(min_value=0.05, max_value=10.0),
    w0=st.floats(min_value=0.1, max_value=10.0),
    alpha=st.floats(min_value=0.05, max_value=1e5),
    beta=st.floats(min_value=0.05, max_value=1e5),
    theta=st.floats(min_value=0.0, max_value=1e308),
)
@example(a=10.0, w0=1.0, alpha=1.0, beta=0.05, theta=1e308)  # theta ** (a / beta) overflows a float
@example(a=3.0, w0=2.0, alpha=2000.0, beta=1.0, theta=1.0)  # w0 ** (alpha + beta) overflows a float
def test_p_edge_is_a_probability_at_any_threshold(a, w0, alpha, beta, theta):
    pe = p_edge(ParetoParams(a, w0), theta, alpha, beta)
    assert 0.0 <= pe <= 0.5


@settings(max_examples=500, deadline=None)
@given(
    a=st.floats(min_value=0.05, max_value=10.0),
    w0=st.floats(min_value=0.1, max_value=1e300),
    alpha=st.floats(min_value=0.05, max_value=20.0),
    beta=st.floats(min_value=0.05, max_value=20.0),
    log10_w=st.floats(min_value=0.0, max_value=300.0),
    theta=st.floats(min_value=0.0, max_value=sys.float_info.max),
)
@example(a=3.0, w0=1.0, alpha=1.0, beta=0.5, log10_w=math.log10(2.0), theta=1e300)  # theta ** (a / beta) overflows
@example(a=10.0, w0=1.0, alpha=1.0, beta=1.0, log10_w=0.0, theta=1e40)  # theta ** (2 * a) overflows
@example(a=0.05, w0=10.0, alpha=20.0, beta=20.0, log10_w=10.0, theta=sys.float_info.max)
@example(a=3.0, w0=1.0, alpha=2.0, beta=1.0, log10_w=200.0, theta=1.0)  # w ** alpha overflows
@example(a=3.0, w0=1e200, alpha=1.0, beta=1.0, log10_w=0.0, theta=1.0)  # w0 ** 2 and w0 ** beta overflow
@example(a=3.0, w0=1e300, alpha=20.0, beta=20.0, log10_w=0.0, theta=sys.float_info.max)
def test_p_edge_given_weight_and_p_wedge_are_probabilities_at_any_threshold(a, w0, alpha, beta, log10_w, theta):
    pareto = ParetoParams(a, w0)
    w = min(w0 * 10.0 ** log10_w, 1e300)  # w0 <= 1e300, so w >= w0
    assert 0.0 <= p_edge_given_weight(w, pareto, theta, alpha, beta) <= 0.5
    assert 0.0 <= p_wedge(pareto, theta) <= 0.25


@settings(max_examples=500, deadline=None)
@given(
    a=st.floats(min_value=0.5, max_value=5.0),
    w0=st.floats(min_value=0.1, max_value=10.0),
    alpha=st.floats(min_value=0.5, max_value=3.0),
    beta=st.floats(min_value=0.5, max_value=3.0),
    log10_w=st.floats(min_value=0.0, max_value=6.0),
    log10_theta=st.floats(min_value=-3.0, max_value=308.0),
)
@example(a=4.4, w0=8.7, alpha=2.2, beta=2.3, log10_w=5.0, log10_theta=15.2)  # P_e(w) from logs: off by 9.8e-15
@example(a=5.0, w0=1.6, alpha=2.2, beta=0.8, log10_w=5.4, log10_theta=31.8)  # lower branch from logs: off by 1.1e-13
def test_closed_forms_agree_with_paper_forms_where_those_are_finite(a, w0, alpha, beta, log10_w, log10_theta):
    # the log forms agree with the printed powers of theta to 1e-13 wherever
    # the printed forms neither overflow nor leave the normal doubles; below
    # 1e-150 rounding the exponent alone comes close to 1e-13.  The lower
    # branch of P_e(w) is a power of a quotient, as printed, and its bound is
    # mostly the printed form's own rounding of the exponent a * alpha / beta
    pareto = ParetoParams(a, w0)
    w, theta = w0 * 10.0 ** log10_w, 10.0 ** log10_theta
    try:
        # the printed P_e(w) switches elsewhere unless alpha = beta; compare where both take the same branch
        switches = (directed_branch_boundary(pareto, theta, alpha, beta), (theta / w0 ** alpha) ** (1.0 / beta))
        same = w <= min(switches) or w > max(switches)
        printed = p_edge_given_weight_directed_printed(w, pareto, theta, alpha, beta) if same else None
    except OverflowError:
        printed = None
    if printed is not None and printed >= 1e-150:
        # in the upper branch the closed form divides by the printed powers; within 1e-11 of the
        # switches it may take the lower branch, whose logs round to about 1e-13
        if w > max(switches) * (1.0 + 1e-11):
            want = pytest.approx(printed, rel=4e-16, abs=0.0)
        else:
            want = pytest.approx(printed, rel=8e-14, abs=0.0)
        assert p_edge_given_weight(w, pareto, theta, alpha, beta) == want
    try:
        paper = p_wedge_paper(pareto, theta)
    except OverflowError:
        paper = None
    # the printed form's w0^(4a) / theta^(2a) goes subnormal past the first bound,
    # and its theta^(2a) * (a+1)^2 overflows to inf past the second
    if (
        paper is not None
        and 2.0 * a * math.log(theta / w0 ** 2) < 690.0
        and 2.0 * a * math.log(theta) + 2.0 * math.log(a + 1.0) < 709.0
    ):
        assert p_wedge(pareto, theta) == pytest.approx(paper, rel=1e-13, abs=0.0)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=10 ** 7),
    a=st.floats(min_value=0.05, max_value=10.0),
    log10_frac=st.floats(min_value=-310.0, max_value=0.0, exclude_max=True),
    directed=st.booleans(),
    alpha=st.floats(min_value=0.05, max_value=1e5),
    beta=st.floats(min_value=0.05, max_value=1e5),
    log10_w0=st.floats(min_value=-30.0, max_value=1.0),
)
# no finite threshold is high enough
@example(n=1000, a=0.05, log10_frac=-305.4, directed=False, alpha=1.0, beta=1.0, log10_w0=0.0)
@example(n=1000, a=3.0, log10_frac=-5.7, directed=True, alpha=2.0, beta=1e5, log10_w0=0.0)
@example(n=1000, a=0.05, log10_frac=-205.7, directed=True, alpha=1.0, beta=1.0, log10_w0=0.0)
# roots past 1e154, where a float power of theta would overflow
@example(n=2, a=2.0, log10_frac=-306.0, directed=False, alpha=1.0, beta=1.0, log10_w0=0.0)
@example(n=2, a=1.0, log10_frac=-154.0, directed=True, alpha=1.0, beta=0.5, log10_w0=0.0)
# w0^(alpha+beta) below the smallest normal double
@example(n=1000, a=3.0, log10_frac=-3.0, directed=True, alpha=1e5, beta=1e5, log10_w0=-30.0)
def test_calibration_round_trip_or_threshnet_error(n, a, log10_frac, directed, alpha, beta, log10_w0):
    # a target anywhere in the feasible range (0, top) either comes back from
    # its threshold to 1e-10 or is refused with a ThreshnetError
    pareto = ParetoParams(a, 10.0 ** log10_w0)
    top = n * (n - 1) / 2.0 if directed else n * (n - 1) / 4.0
    target = top * 10.0 ** log10_frac
    try:
        if directed:
            theta = calibrate_theta_directed(n, pareto, target, alpha, beta)
            achieved = expected_arcs_directed(n, pareto, theta, alpha, beta)
        else:
            theta = calibrate_theta(n, pareto, target)
            achieved = expected_edges(n, pareto, theta)
    except ThreshnetError:
        return
    assert abs(achieved - target) <= 1e-10 * target


@settings(max_examples=300, deadline=None)
@given(
    a=st.floats(min_value=0.1, max_value=10.0),
    w0=st.floats(min_value=0.1, max_value=10.0),
    exponents=st.just((1.0, 1.0)) | st.tuples(st.floats(0.25, 4.0), st.floats(0.25, 4.0)),
    log10_p=st.floats(min_value=-12.0, max_value=math.log10(0.49)),
)
@example(a=3.0, w0=1.0, exponents=(1.0, 1.0), log10_p=math.log10(0.25))
@example(a=0.1, w0=10.0, exponents=(4.0, 0.25), log10_p=-12.0)
def test_calibrated_theta_is_the_last_double_at_the_target(a, w0, exponents, log10_p):
    # n = 2 has one pair (two ordered pairs), so the target puts the edge
    # probability at p exactly; the threshold is held to 60-digit mpmath and is
    # the largest double at which the float p_edge is still at least p
    (alpha, beta), pareto, p = exponents, ParetoParams(a, w0), 10.0 ** log10_p
    if p_edge(pareto, sys.float_info.max, alpha, beta) > p:
        with pytest.raises(FeasibilityError):
            calibrate_theta_directed(2, pareto, 2.0 * p, alpha, beta)
        return
    if alpha == beta == 1.0:
        theta = calibrate_theta(2, pareto, p)
    else:
        theta = calibrate_theta_directed(2, pareto, 2.0 * p, alpha, beta)
    assert abs(p_edge_mp(pareto, theta, alpha, beta) - p) <= 1e-13 * p
    assert p_edge(pareto, theta, alpha, beta) >= p > p_edge(pareto, math.nextafter(theta, math.inf), alpha, beta)


def test_linkfn_identity_matches_directed(pareto3):
    ident = LinkFn("identity")
    for w, theta, alpha, beta in [
        (2.0, 10.0, 1.0, 2.0),
        (5.0, 3.0, 2.0, 1.0),
        (1.0, 0.5, 1.0, 1.0),
        (12.0, 20.0, 0.5, 1.5),
    ]:
        quad = p_edge_given_weight_linkfn(w, pareto3, theta, alpha, beta, ident)
        closed = p_edge_given_weight(w, pareto3, theta, alpha, beta)
        assert quad == pytest.approx(closed, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("a,w0,theta,w,alpha,beta,h,want", [
    # the former quadrature over the partner's weight reported no convergence here
    (0.7899186294481133, 1.4752528699133929, 331.4539296886381, 2.8239480785454942,
     0.33129734790014237, 0.5531134602406815, "oddpow:1:-0.2", 2.7641835437172504e-05),
    # and printed 1.38e-16 here, its absolute tolerance above the value
    (2.151030458473796, 0.8011247319714176, 243.11135646097387, 1.1870426263745695,
     0.49138626067767166, 0.4936205222736615, "oddpow:1:-0.2", 3.7392598454181e-13),
    # slivers [s0, s*] of width 4e-10 and 6e-12, where h(s) = s^(2m+1) + c cancels: with tolerances
    # relative to the integral alone quad reports no convergence
    (4.581690606366381, 1.6062666219482873, 0.0013406964440686783, 241147.34553801236,
     1.1262853393460799, 0.47484462871136135, "oddpow:1:0.687508", 0.94129525341322481472),
    (0.7589437261350619, 0.21361922767516073, 43.142272088950364, 1802210.981849792,
     2.2854352932749813, 2.8715548958493997, "oddpow:3:-0.375891", 0.065224998355827583109),
])
def test_linkfn_matches_high_precision_values(a, w0, theta, w, alpha, beta, h, want):
    # want: the dot-space integral in 40-digit mpmath
    got = p_edge_given_weight_linkfn(w, ParetoParams(a, w0), theta, alpha, beta, LinkFn.parse(h))
    assert got == pytest.approx(want, rel=1e-9, abs=0.0)


_LINKS = st.one_of(
    st.just(LinkFn("identity")),
    st.just(LinkFn("exp")),
    st.builds(LinkFn, st.just("oddpow"), st.integers(min_value=1, max_value=3), st.floats(min_value=-1.5, max_value=1.5)),
)


def _linkfn_args(a, log_w0, log_w_over_w0, log_theta, alpha, beta):
    w0 = math.exp(log_w0)
    theta = 0.0 if log_theta is None else math.exp(log_theta)
    return w0 * math.exp(log_w_over_w0), ParetoParams(a, w0), theta, alpha, beta


_LINKFN_ARGS = dict(
    a=st.floats(min_value=0.5, max_value=8.0),
    log_w0=st.floats(min_value=-3.0, max_value=3.0),
    log_w_over_w0=st.floats(min_value=0.0, max_value=20.0),
    log_theta=st.none() | st.floats(min_value=-8.0, max_value=60.0),
    alpha=st.floats(min_value=0.2, max_value=4.0),
    beta=st.floats(min_value=0.2, max_value=4.0),
)


def _assert_close(got, want):
    # below the normal doubles neither side keeps relative precision
    if want >= sys.float_info.min:
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)
    else:
        assert got < 2.0 * sys.float_info.min


@settings(max_examples=300, deadline=None)
@given(**_LINKFN_ARGS)
# y = theta / (w^alpha w0^beta) beyond the largest double, P about 8e-40
@example(a=0.5, log_w0=-1.0, log_w_over_w0=0.0, log_theta=709.0, alpha=1.0, beta=4.0)
def test_linkfn_identity_matches_closed_form(**kw):
    args = _linkfn_args(**kw)
    _assert_close(p_edge_given_weight_linkfn(*args, LinkFn("identity")), p_edge_given_weight(*args))


@settings(max_examples=300, deadline=None)
@given(**_LINKFN_ARGS)
def test_linkfn_exp_matches_closed_form(**kw):
    args = _linkfn_args(**kw)
    _assert_close(p_edge_given_weight_linkfn(*args, LinkFn("exp")), p_edge_given_weight_linkfn_exp(*args))


@settings(max_examples=300, deadline=None)
@given(h=_LINKS, **_LINKFN_ARGS)
def test_linkfn_matches_weight_space_integral(h, **kw):
    args = _linkfn_args(**kw)
    got = p_edge_given_weight_linkfn(*args, h)  # must not raise, whether or not the reference converges
    try:
        want = p_edge_given_weight_linkfn_weight_space(*args, h)
    except NumericError:
        return
    assert abs(got - want) <= 1e-7 * got + 1e-12


def test_linkfn_exp_matches_monte_carlo(pareto3):
    h = LinkFn("exp")
    got = p_edge_given_weight_linkfn(2.0, pareto3, 10.0, 1.0, 1.0, h)
    mc = mc_estimate(
        "linkfn_edge_given_weight", pareto3, 10.0, 10 ** 6, seed=21, w=2.0, alpha=1.0, beta=1.0, h=h
    )
    assert abs(got - mc.estimate) <= 3 * mc.stderr


def test_linkfn_vanishes_at_large_theta(pareto3):
    h = LinkFn("exp")
    vals = [p_edge_given_weight_linkfn(2.0, pareto3, t, 1.0, 1.0, h) for t in (10.0, 100.0, 1000.0)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-4


def test_linkfn_rejects_even_power(pareto3):
    with pytest.raises(UnsupportedAnalyticsError):
        p_edge_given_weight_linkfn(2.0, pareto3, 1.0, 1.0, 1.0, LinkFn("evenpow", 1))


def test_degree_pmf_reference_values():
    assert degree_pmf_reference(1, 2.0) == pytest.approx(6.0 / math.pi ** 2, rel=1e-12, abs=0.0)
    ks = np.arange(1, 10 ** 6)
    total = degree_pmf_reference(ks, 2.0).sum() + 1.0 / (math.pi ** 2 / 6.0) / ks[-1]
    assert total == pytest.approx(1.0, abs=1e-5)
    assert degree_pmf_reference(10 ** 6, 1.5) > 0
    with pytest.raises(DomainError):
        degree_pmf_reference(1, 1.0)
    with pytest.raises(DomainError):
        degree_pmf_reference(0, 2.0)


def test_hurwitz_zeta_values():
    assert hurwitz_zeta(2.0) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-12)
    assert hurwitz_zeta(2.0, 2.0) == pytest.approx(math.pi ** 2 / 6.0 - 1.0, rel=1e-12, abs=0.0)
    with pytest.raises(DomainError):
        hurwitz_zeta(1.0)


def test_schedules(pareto3):
    sched = PowerLawSchedule(D=2.0)
    assert sched.theta_for(1000, pareto3) == pytest.approx(20.0, rel=1e-12)
    cal = CalibratedSchedule(target=lambda n: 5.0 * n)
    theta = cal.theta_for(2000, pareto3)
    assert expected_edges(2000, pareto3, theta) == pytest.approx(10000.0, rel=1e-9)
    with pytest.raises(DomainError):
        PowerLawSchedule(D=0.0)


def test_closed_forms_at_a_huge_shape():
    # a = 1e300: a * a and a ** 3 would overflow, yet every limit is finite
    huge = ParetoParams(1e300, 1.0)
    assert p_edge(huge, 2.0) == 0.0
    assert p_edge(huge, 0.5) == 0.25
    assert p_wedge(huge, 0.5) == 0.0625
    assert p_wedge(huge, 2.0) == 0.0
    assert variance_edges(100, huge, 0.5) == pytest.approx(4950 * 0.25 * 0.75, rel=1e-12, abs=0.0)
    assert calibrate_theta(100, huge, 10.0) == pytest.approx(1.0 - 20.0 / 4950.0, rel=1e-12, abs=0.0)


def test_closed_forms_at_an_infinite_threshold(pareto3):
    # r^a ln(1/r) -> 0 as theta -> inf; evaluated as written it is 0 * inf
    assert p_edge(pareto3, math.inf) == 0.0
    assert p_edge(pareto3, math.inf, 2.0, 0.5) == 0.0
    assert p_wedge(pareto3, math.inf) == 0.0
    assert variance_edges(100, pareto3, math.inf) == 0.0
    assert p_edge_given_weight(2.0, pareto3, math.inf) == 0.0


@pytest.mark.parametrize("D", [math.inf, math.nan, 0.0, -1.0])
def test_schedule_coefficient_must_be_positive_and_finite(pareto3, D):
    for call in (
        lambda: theta_powerlaw_schedule(100, D, 3.0),
        lambda: expected_edges_linlog(100, D, pareto3),
        lambda: PowerLawSchedule(D=D),
    ):
        with pytest.raises(DomainError, match="schedule coefficient must be positive and finite"):
            call()


def test_linkfn_quadrature_that_does_not_converge_raises(monkeypatch, pareto3):
    from scipy import integrate

    def quad(*args, **kwargs):
        warnings.warn("maximum number of subdivisions reached", integrate.IntegrationWarning)
        return 0.0, 1.0

    monkeypatch.setattr(integrate, "quad", quad)
    with pytest.raises(NumericError, match="link-function quadrature did not converge: maximum number"):
        p_edge_given_weight_linkfn(2.0, pareto3, 1.0, 1.0, 1.0, LinkFn("identity"))
