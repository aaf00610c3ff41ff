import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st
from scipy.special import zeta as hzeta

from threshnet import DomainError, FitDegenerateError, fit_powerlaw_discrete, gof_pvalue, sample_discrete_powerlaw
from threshnet.statfit import _GUIDE_BINS, _draw_discrete_powerlaw, _guide, _mle_alpha, _xmin_candidates, _zeta_cdf

import oracles

SPAN = 10 ** 6  # the sampler's default table span


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(min_value=1.2, max_value=4.0, exclude_min=True, exclude_max=True),
    x_min=st.integers(min_value=1, max_value=50),
    size=st.integers(min_value=0, max_value=2000),
    seed=st.integers(min_value=0, max_value=2 ** 63 - 1),
)
@example(alpha=1.2000000000000002, x_min=13, size=363, seed=150)  # a tail draw past 2**63
def test_sampler_matches_inverse_cdf_oracle(alpha, x_min, size, seed):
    got = sample_discrete_powerlaw(np.random.default_rng(seed), alpha, x_min, size)

    ks = np.arange(x_min, x_min + SPAN, dtype=np.float64)
    cdf = np.cumsum(ks ** -alpha / hzeta(alpha, x_min))
    idx = np.searchsorted(cdf, np.random.default_rng(seed).random(size), side="right")
    in_table = idx < SPAN

    assert got.dtype == np.int64 and got.shape == (size,)
    assert np.all(got >= x_min)
    assert np.array_equal(got[in_table], x_min + idx[in_table])
    # past the table the sampler extends with a Pareto tail from its last value
    assert np.all(got[~in_table] >= x_min + SPAN - 1)


@settings(max_examples=30, deadline=None)
@given(
    alpha=st.floats(min_value=1.2, max_value=1.3, exclude_min=True),
    x_min=st.integers(min_value=1, max_value=20),
    table_span=st.sampled_from([1, 10, 1023, 1024, 1025, 5000]),
    size=st.integers(min_value=0, max_value=3000),
    seed=st.integers(min_value=0, max_value=2 ** 63 - 1),
)
def test_sampler_draws_equal_one_table_search(alpha, x_min, table_span, size, seed):
    # near alpha = 1.2 many draws land past short tables and in sparse bins
    cdf = _zeta_cdf(alpha, x_min, table_span)
    got = _draw_discrete_powerlaw(np.random.default_rng(seed), cdf, _guide(cdf), alpha, x_min, size)
    want = oracles.draw_discrete_powerlaw(np.random.default_rng(seed), cdf, alpha, x_min, size)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(
    alpha=st.floats(min_value=1.1, max_value=6.0),
    x_min=st.integers(min_value=1, max_value=50),
    size=st.integers(min_value=50, max_value=5000),
    seed=st.integers(min_value=0, max_value=2 ** 63 - 1),
)
def test_mle_alpha_equals_minimize_scalar_bit_for_bit(alpha, x_min, size, seed):
    tail = sample_discrete_powerlaw(np.random.default_rng(seed), alpha, x_min, size)
    assert _mle_alpha(tail, x_min) == oracles.mle_alpha(tail, x_min)


@settings(max_examples=60, deadline=None)
@given(
    x_min=st.integers(min_value=1, max_value=50),
    gap=st.integers(min_value=1, max_value=10 ** 6),
    n_low=st.integers(min_value=1, max_value=5000),
    n_high=st.integers(min_value=1, max_value=5000),
)
@example(x_min=50, gap=1, n_low=5000, n_high=1)  # the optimum sits at the upper bound
@example(x_min=1, gap=10 ** 6, n_low=1, n_high=5000)  # and near the lower one
def test_mle_alpha_equals_minimize_scalar_on_two_value_tails(x_min, gap, n_low, n_high):
    # the fewest distinct values a refit sees; a skewed split or a wide gap pushes the optimum toward a bound
    tail = np.repeat(np.array([x_min, x_min + gap], dtype=np.int64), [n_low, n_high])
    assert _mle_alpha(tail, x_min) == oracles.mle_alpha(tail, x_min)


class _Replay:
    """Stands in for a Generator whose `random` returns the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, size):
        assert size == len(self.u)
        return self.u.copy()


def test_draw_index_at_ties_and_bin_edges():
    # table values on bin edges, repeated, and inside bins; each uniform equal
    # to one of them must count it (side="right"), as must a bin's edge
    step = 1.0 / _GUIDE_BINS
    cdf = np.array([step, step, 3 * step, 3.5 * step, 0.5, 0.5, 0.5, 0.75, 1.0 - step, 1.0 - step / 2])
    edges = np.array([0.0, step, 2 * step, 3 * step, 4 * step, 0.5, 0.75, 1.0 - step])
    u = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0), edges, [np.nextafter(1.0, 0.0)]])
    u = u[(u >= 0.0) & (u < 1.0)]
    got = _draw_discrete_powerlaw(_Replay(u), cdf, _guide(cdf), 2.5, 3, len(u))
    want = oracles.draw_discrete_powerlaw(_Replay(u), cdf, 2.5, 3, len(u))
    assert np.array_equal(got, want)
    idx = np.searchsorted(cdf, u, side="right")
    assert np.array_equal(got[idx < len(cdf)], 3 + idx[idx < len(cdf)])


def _bootstrap_sample(seed, n_body, n_tail, alpha, x_min):
    rng = np.random.default_rng(seed)
    body = rng.geometric(0.3, n_body)
    return np.concatenate([body, sample_discrete_powerlaw(rng, alpha, x_min, n_tail)])


_SAMPLE = dict(
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    n_body=st.integers(min_value=0, max_value=400),
    n_tail=st.integers(min_value=2, max_value=400),
    alpha=st.floats(min_value=1.5, max_value=3.5),
    x_min=st.integers(min_value=1, max_value=12),
    boot_seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
)


def _fit_or_reject(samples, **kw):
    try:
        return fit_powerlaw_discrete(samples, min_tail=2, **kw)
    except FitDegenerateError:
        reject()


def _assert_gof_matches_full_replicates(samples, fit, boot_seed):
    got = gof_pvalue(samples, fit, n_bootstrap=100, seed=boot_seed)
    assert got == oracles.gof_pvalue(samples, fit, n_bootstrap=100, seed=boot_seed)


@settings(max_examples=8, deadline=None)
@given(**_SAMPLE)
def test_gof_pvalue_matches_full_replicates_scanned_xmin(seed, n_body, n_tail, alpha, x_min, boot_seed):
    samples = _bootstrap_sample(seed, n_body, n_tail, alpha, x_min)
    _assert_gof_matches_full_replicates(samples, _fit_or_reject(samples), boot_seed)


@settings(max_examples=8, deadline=None)
@given(**_SAMPLE)
@example(seed=0, n_body=50, n_tail=100, alpha=2.5, x_min=1, boot_seed=0)  # x_min 1: no body, every draw in the tail
def test_gof_pvalue_matches_full_replicates_fixed_xmin(seed, n_body, n_tail, alpha, x_min, boot_seed):
    # a small tail makes degenerate replicates (fewer than two distinct values) common
    samples = _bootstrap_sample(seed, n_body, n_tail, alpha, x_min)
    _assert_gof_matches_full_replicates(samples, _fit_or_reject(samples, x_min=x_min), boot_seed)


@settings(max_examples=8, deadline=None)
@given(**_SAMPLE, n_drop=st.integers(min_value=1, max_value=400))
def test_gof_pvalue_rejects_fit_of_other_samples(seed, n_body, n_tail, alpha, x_min, boot_seed, n_drop):
    # every sample is positive, so a fit of a prefix at x_min 1 counts fewer
    # tail samples than the whole sample has
    samples = _bootstrap_sample(seed, n_body, n_tail, alpha, x_min)
    fit = _fit_or_reject(samples[:-n_drop], x_min=1)
    with pytest.raises(DomainError):
        gof_pvalue(samples, fit, n_bootstrap=100, seed=boot_seed)


@settings(max_examples=60, deadline=None)
@given(
    x=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=300),
    min_tail=st.integers(min_value=1, max_value=120),
)
def test_xmin_candidates_match_per_value_scan(x, min_tail):
    x = np.asarray(x, dtype=np.int64)
    x_sorted = np.sort(x)
    candidates = [
        int(v)
        for v in np.unique(x_sorted)
        if (x_sorted >= v).sum() >= min_tail and np.unique(x_sorted[x_sorted >= v]).size >= 2
    ]
    assert _xmin_candidates(x, min_tail) == candidates
