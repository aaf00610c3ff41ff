import numpy as np
import pytest

from threshnet import (
    DomainError,
    FitDegenerateError,
    FitResult,
    ParetoParams,
    ccdf,
    fit_powerlaw_discrete,
    gof_pvalue,
    p_edge,
    p_edge_given_weight,
    p_wedge,
)
from oracles import ccdf_loglog_slope, mc_estimate, sample_discrete_powerlaw


def test_ccdf_trivial_cases():
    values, fracs = ccdf([1, 1, 1])
    assert np.array_equal(values, [1])
    assert np.array_equal(fracs, [1.0])
    values, fracs = ccdf([1, 2, 4])
    assert np.array_equal(values, [1, 2, 4])
    assert np.allclose(fracs, [1.0, 2 / 3, 1 / 3])


def test_ccdf_monotone_and_endpoint(rng):
    degrees = rng.integers(0, 50, size=1000)
    values, fracs = ccdf(degrees)
    assert np.all(np.diff(fracs) < 0)
    assert fracs[0] == np.mean(degrees >= values[0])
    with pytest.raises(DomainError):
        ccdf([])
    with pytest.raises(DomainError):
        ccdf([-1, 2])


def test_ccdf_loglog_slope_exact_powerlaw(rng):
    # ccdf of a pmf ~ k^-2 falls like k^-1
    samples = sample_discrete_powerlaw(rng, 2.0, 1, 10 ** 6)
    slope = ccdf_loglog_slope(samples, 10, 100)
    assert abs(slope + 1.0) < 0.1


def test_sampler_matches_pmf(rng):
    alpha, n = 2.5, 10 ** 6
    samples = sample_discrete_powerlaw(rng, alpha, 1, n)
    assert samples.min() >= 1
    from scipy.special import zeta

    for k in (1, 2, 5, 10):
        p = k ** -alpha / zeta(alpha, 1)
        frac = np.mean(samples == k)
        assert abs(frac - p) <= 4 * np.sqrt(p * (1 - p) / n)


def test_sampler_respects_xmin(rng):
    samples = sample_discrete_powerlaw(rng, 2.0, 7, 10 ** 4)
    assert samples.min() >= 7


@pytest.mark.parametrize("alpha", [1.5, 2.0, 2.5, 3.0])
def test_fit_recovers_exponent(alpha):
    rng = np.random.default_rng(int(alpha * 10))
    samples = sample_discrete_powerlaw(rng, alpha, 1, 10 ** 5)
    fit = fit_powerlaw_discrete(samples, x_min=1)
    assert abs(fit.alpha_hat - alpha) < 0.05
    assert fit.n_tail == 10 ** 5
    # the continuous shortcut is biased at x_min = 1; only sanity-check it
    assert 1.0 < fit.alpha_continuous < alpha + 0.5


def test_fit_scans_xmin(rng):
    # body noise below x_min = 5, clean power law above
    tail = sample_discrete_powerlaw(rng, 2.5, 5, 30000)
    body = rng.integers(1, 5, size=20000)
    fit = fit_powerlaw_discrete(np.concatenate([body, tail]))
    assert 4 <= fit.x_min <= 8
    assert abs(fit.alpha_hat - 2.5) < 0.1


def test_fit_result_holds_plain_floats(rng):
    fit = fit_powerlaw_discrete(sample_discrete_powerlaw(rng, 2.5, 1, 2000))
    assert type(fit.alpha_hat) is float and type(fit.ks_stat) is float
    assert "np.float64" not in repr(fit)


def test_fit_reports_zeros(rng):
    samples = np.concatenate([sample_discrete_powerlaw(rng, 2.0, 1, 5000), np.zeros(100, dtype=int)])
    fit = fit_powerlaw_discrete(samples, x_min=1)
    assert fit.n_zero == 100


def test_fit_degenerate_inputs():
    with pytest.raises(FitDegenerateError):
        fit_powerlaw_discrete(np.full(200, 7))
    with pytest.raises(FitDegenerateError):
        fit_powerlaw_discrete([1, 2, 3])  # too few samples
    with pytest.raises(FitDegenerateError):
        fit_powerlaw_discrete(np.arange(1, 200), x_min=190)


@pytest.mark.parametrize("x_min", [None, 2 ** 60])
def test_fit_refuses_samples_float64_cannot_hold(x_min):
    # every tail value rounds to the same double as x_min - 0.5 here, so the fit has nothing to divide by
    samples = np.repeat(np.array([2 ** 60, 2 ** 60 + 1, 2 ** 60 + 2], dtype=np.int64), 30)
    with pytest.raises(FitDegenerateError, match="2\\^53"):
        fit_powerlaw_discrete(samples, x_min=x_min)


def test_fit_refuses_one_sample_at_2_to_53(rng):
    samples = sample_discrete_powerlaw(rng, 2.5, 1, 1000)
    fit_powerlaw_discrete(samples)
    with pytest.raises(FitDegenerateError, match="2\\^53"):
        fit_powerlaw_discrete(np.append(samples, 2 ** 53))


def test_fit_leaves_out_x_min_candidates_float64_cannot_fit(recwarn):
    # zeta(alpha, 2^46) underflows to 0, so those candidates' lanes end in NaN;
    # they are left out, with no RuntimeWarning, and the fit comes from the rest
    body = sample_discrete_powerlaw(np.random.default_rng(1), 2.5, 1, 5000)
    samples = np.concatenate([body, 2 ** 46 + np.arange(60)])
    fit = fit_powerlaw_discrete(samples)
    assert fit.x_min == 1 and fit.n_tail == len(samples)
    assert fit == fit_powerlaw_discrete(samples, x_min=1)
    for x_min in (None, 2 ** 46):
        with pytest.raises(FitDegenerateError, match=f"no x_min at or above {2 ** 46} gives a tail that float64 can fit"):
            fit_powerlaw_discrete(samples[samples >= 2 ** 46], x_min=x_min)
    assert not recwarn.list


def test_fit_refuses_x_min_below_one():
    with pytest.raises(DomainError, match="x_min must be >= 1, got 0"):
        fit_powerlaw_discrete(np.arange(1, 200), x_min=0)


def test_sampler_refuses_exponent_at_most_one(rng):
    for alpha in (1.0, 0.5):
        with pytest.raises(DomainError, match="exponent must exceed 1"):
            sample_discrete_powerlaw(rng, alpha, 1, 10)


def test_gof_accepts_true_powerlaw(rng):
    samples = sample_discrete_powerlaw(rng, 2.5, 1, 5000)
    fit = fit_powerlaw_discrete(samples, x_min=1)
    gof = gof_pvalue(samples, fit, n_bootstrap=200, seed=1)
    assert gof.p_value > 0.05
    # the p-value is a pure function of (seed, samples, fit), so it is pinned exactly
    assert gof.p_value == 0.99
    assert gof.stderr == pytest.approx(
        np.sqrt(gof.p_value * (1 - gof.p_value) / 200), rel=1e-12, abs=0.0
    )


def test_gof_pvalue_exact_with_resampled_body():
    # x_min 12 leaves a body below it; body draws cannot enter the refit tail,
    # so this pins each replicate's tail/body split and its tail draws
    rng = np.random.default_rng(7)
    samples = np.concatenate([rng.geometric(0.3, 3000), sample_discrete_powerlaw(rng, 2.2, 6, 2000)])
    fit = fit_powerlaw_discrete(samples, x_min=12)
    assert gof_pvalue(samples, fit, n_bootstrap=100, seed=5).p_value == 0.44


def test_gof_rejects_geometric(rng):
    samples = rng.geometric(0.1, size=10 ** 5)
    fit = fit_powerlaw_discrete(samples, x_min=1)
    gof = gof_pvalue(samples, fit, n_bootstrap=100, seed=2)
    assert gof.p_value < 0.05


def test_gof_rejects_fit_of_other_samples(rng):
    fit = fit_powerlaw_discrete(sample_discrete_powerlaw(rng, 2.5, 1, 5000), x_min=1)
    with pytest.raises(DomainError, match="not a fit of these samples"):
        gof_pvalue(rng.geometric(0.5, 300), fit, n_bootstrap=100, seed=1)


def test_gof_requires_enough_replicates(rng):
    samples = sample_discrete_powerlaw(rng, 2.5, 1, 1000)
    fit = fit_powerlaw_discrete(samples, x_min=1)
    with pytest.raises(DomainError):
        gof_pvalue(samples, fit, n_bootstrap=50)


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_gof_rejects_seed_outside_64_bits(rng, seed):
    samples = sample_discrete_powerlaw(rng, 2.5, 1, 1000)
    fit = fit_powerlaw_discrete(samples, x_min=1)
    with pytest.raises(DomainError, match="seed must be a 64-bit unsigned integer"):
        gof_pvalue(samples, fit, n_bootstrap=100, seed=seed)


def test_mc_estimate_trivial_hemisphere(pareto3):
    est = mc_estimate("edge", pareto3, 0.0, 10 ** 5, seed=3)
    assert abs(est.estimate - 0.5) <= 3 * est.stderr
    assert est.trials == 10 ** 5


def test_mc_estimate_matches_closed_forms(pareto3):
    est = mc_estimate("edge", pareto3, 10.0, 10 ** 6, seed=4)
    assert abs(est.estimate - p_edge(pareto3, 10.0)) <= 3 * est.stderr
    est = mc_estimate("edge_given_weight", pareto3, 10.0, 10 ** 6, seed=5, w=20.0)
    assert abs(est.estimate - p_edge_given_weight(20.0, pareto3, 10.0)) <= 3 * est.stderr
    est = mc_estimate("wedge", pareto3, 0.5, 10 ** 6, seed=6)
    assert abs(est.estimate - p_wedge(pareto3, 0.5)) <= 3 * est.stderr


def test_mc_estimate_validation(pareto3):
    with pytest.raises(DomainError):
        mc_estimate("edge", pareto3, 1.0, 100)
    with pytest.raises(DomainError):
        mc_estimate("edge_given_weight", pareto3, 1.0, 10 ** 4)
    with pytest.raises(DomainError):
        mc_estimate("directed_edge_given_weight", pareto3, 1.0, 10 ** 4, w=2.0)
    with pytest.raises(DomainError):
        mc_estimate("linkfn_edge_given_weight", pareto3, 1.0, 10 ** 4, w=2.0, alpha=1.0, beta=1.0)
    with pytest.raises(DomainError):
        mc_estimate("nonsense", pareto3, 1.0, 10 ** 4)


def test_gof_self_consistency_ensemble():
    # p-values on data drawn from the fitted law should rarely be small
    ok = 0
    for rep in range(10):
        rng = np.random.default_rng(100 + rep)
        samples = sample_discrete_powerlaw(rng, 2.2, 1, 2000)
        fit = fit_powerlaw_discrete(samples, x_min=1)
        gof = gof_pvalue(samples, fit, n_bootstrap=100, seed=rep)
        ok += gof.p_value > 0.05
    assert ok >= 9


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(alpha_hat=1.0), "fitted exponent must exceed 1, got 1.0"),
        (dict(alpha_hat=float("nan")), "fitted exponent must exceed 1, got nan"),
        (dict(x_min=0), "x_min must be >= 1, got 0"),
        (dict(ks_stat=1.5), r"KS statistic out of \[0,1\]: 1.5"),
        (dict(ks_stat=-0.1), r"KS statistic out of \[0,1\]: -0.1"),
        (dict(ks_stat=float("nan")), r"KS statistic out of \[0,1\]: nan"),
    ],
    ids=["alpha-one", "alpha-nan", "x-min-zero", "ks-above-one", "ks-negative", "ks-nan"],
)
def test_fit_result_refuses_fields_out_of_domain(fields, message):
    valid = dict(alpha_hat=2.5, x_min=1, ks_stat=0.1, n_tail=100, alpha_continuous=2.4)
    FitResult(**valid)
    with pytest.raises(DomainError, match=message):
        FitResult(**{**valid, **fields})
