import math
import warnings
from contextlib import contextmanager
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st
from scipy.special import zeta as hzeta

from threshnet import DomainError, FitDegenerateError, fit_powerlaw_discrete, gof_pvalue, statfit
from threshnet.statfit import (
    _ALPHA_MAX,
    _GUIDE_BINS,
    _draw_discrete_powerlaw,
    _fminbound,
    _guide,
    _hurwitz_zeta,
    _ks_stats,
    _mle_alphas,
    _xmin_candidates,
    _zeta_cdf,
)

import oracles
from oracles import sample_discrete_powerlaw

SPAN = statfit._TABLE_SPAN  # the span of the table gof_pvalue draws its tails from


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(min_value=1.2, max_value=4.0, exclude_min=True, exclude_max=True),
    x_min=st.integers(min_value=1, max_value=50),
    size=st.integers(min_value=0, max_value=2000),
    seed=st.integers(min_value=0, max_value=2 ** 63 - 1),
)
@example(alpha=1.2000000000000002, x_min=13, size=363, seed=150)  # a tail draw past 2**63
def test_sampler_matches_inverse_cdf_oracle(alpha, x_min, size, seed):
    # the tail draws of gof_pvalue, on the table it builds
    cdf = _zeta_cdf(alpha, x_min)
    got = _draw_discrete_powerlaw(np.random.default_rng(seed), cdf, _guide(cdf), alpha, x_min, size)

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
    with patch.object(statfit, "_TABLE_SPAN", table_span):
        cdf = _zeta_cdf(alpha, x_min)
    assert len(cdf) == table_span
    got = _draw_discrete_powerlaw(np.random.default_rng(seed), cdf, _guide(cdf), alpha, x_min, size)
    want = oracles.draw_discrete_powerlaw(np.random.default_rng(seed), cdf, alpha, x_min, size)
    assert got.dtype == want.dtype and np.array_equal(got, want)


# Under numpy's AVX-512 kernels a float64 power is at times 1 ulp off libm's, and
# the port's sum carries several powers: over 450,000 random points with x in
# (1, 25] and q in [1, 2^53) it was at most 4 ulps of scipy's value (4.5e-16
# relative), and 96 points were 3 or 4 ulps off.
_ZETA_ULPS_OFF_SCIPY = 4
# Cephes' own error against mpmath: over 15,000 random points it was at most
# 1.30e-15 relative where the sum runs (q <= 1e8, at x = 24.3 and x = 12.5);
# the asymptotic form for q > 1e8 adds its truncation, x (x - 1) / (12 q^2).
_ZETA_REL_MP = 1.5e-15


@settings(max_examples=50, deadline=None)
@given(
    lanes=st.lists(
        st.tuples(
            st.floats(min_value=1.0, max_value=25.0, exclude_min=True),
            st.floats(min_value=1.0, max_value=2.0 ** 53, exclude_max=True),
        ),
        min_size=1,
        max_size=6,
    )
)
@example(lanes=[(float(np.nextafter(1.0, 2.0)), 1.0), (1.0 + 1e-9, 3.5), (25.0, 1.0), (25.0, 9.5), (2.0, 1e8)])
@example(lanes=[(25.0, 1e8 + 1.0), (1.5, 2.0 ** 53 - 1.0), (float(np.nextafter(1.0, 2.0)), 1e12), (25.0, 2.0 ** 52)])
def test_hurwitz_zeta_equals_scipy_and_mpmath(lanes):
    # lanes of one call stop their sums after different numbers of terms
    x, q = (np.array(v) for v in zip(*lanes))
    got, want = _hurwitz_zeta(x, q), hzeta(x, q)
    if oracles.NUMPY_POW_IS_LIBM:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.all(np.abs(got - want) <= _ZETA_ULPS_OFF_SCIPY * np.abs(np.spacing(want)))
    for xi, qi, zi in zip(x.tolist(), q.tolist(), got.tolist()):
        truncation = xi * (xi - 1.0) / (12.0 * qi * qi) if qi > 1e8 else 0.0
        assert zi == pytest.approx(oracles.hurwitz_zeta_mp(xi, qi), rel=_ZETA_REL_MP + truncation, abs=2.0 ** -1074)


def test_hurwitz_zeta_broadcasts_as_a_ufunc():
    assert _hurwitz_zeta(2.0, 1.0).shape == () and float(_hurwitz_zeta(2.0, 1.0)) == pytest.approx(np.pi ** 2 / 6, rel=1e-15)
    x, q = np.array([[2.0], [3.0]]), np.arange(1, 5)
    assert np.array_equal(_hurwitz_zeta(x, q), np.array([[_hurwitz_zeta(xi, qi) for qi in q] for xi in x.ravel()]))
    assert _hurwitz_zeta(np.empty(0), 2.0).shape == (0,)
    # a long call runs in blocks of lanes, the last one short
    x, q = np.linspace(1.01, 25.0, 10), np.geomspace(1.0, 1e10, 10)
    with patch.object(statfit, "_ZETA_BLOCK", 3):
        assert np.array_equal(_hurwitz_zeta(x.reshape(2, 5), q.reshape(2, 5)), _hurwitz_zeta(x, q).reshape(2, 5))
    assert np.array_equal(_hurwitz_zeta(x, q), [_hurwitz_zeta(xi, qi) for xi, qi in zip(x, q)])


def _lane_alphas(tails, x_mins) -> list[float]:
    """`_mle_alphas` of the tails, one lane each."""
    n = np.array([len(t) for t in tails])
    log_sums = np.array([np.log(t).sum() for t in tails])
    return _mle_alphas(n, log_sums, np.array(x_mins, dtype=np.int64)).tolist()


@settings(max_examples=100, deadline=None)
@given(
    alpha=st.floats(min_value=1.1, max_value=6.0),
    x_min=st.integers(min_value=1, max_value=50),
    size=st.integers(min_value=50, max_value=5000),
    seed=st.integers(min_value=0, max_value=2 ** 63 - 1),
)
def test_mle_alpha_equals_minimize_scalar_bit_for_bit(alpha, x_min, size, seed):
    tail = sample_discrete_powerlaw(np.random.default_rng(seed), alpha, x_min, size)
    assert _lane_alphas([tail], [x_min]) == [oracles.mle_alpha(tail, x_min)]


def _two_value_tail(x_min, gap, n_low, n_high):
    return np.repeat(np.array([x_min, x_min + gap], dtype=np.int64), [n_low, n_high])


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
    tail = _two_value_tail(x_min, gap, n_low, n_high)
    assert _lane_alphas([tail], [x_min]) == [oracles.mle_alpha(tail, x_min)]


_POWERLAW_TAIL = st.builds(
    lambda alpha, x_min, size, seed: (sample_discrete_powerlaw(np.random.default_rng(seed), alpha, x_min, size), x_min),
    st.floats(min_value=1.1, max_value=6.0),
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=2, max_value=3000),
    st.integers(min_value=0, max_value=2 ** 63 - 1),
)
_TWO_VALUE_TAIL = st.builds(
    lambda x_min, gap, n_low, n_high: (_two_value_tail(x_min, gap, n_low, n_high), x_min),
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=1, max_value=10 ** 6),
    st.integers(min_value=1, max_value=5000),
    st.integers(min_value=1, max_value=5000),
)


@settings(max_examples=40, deadline=None)
@given(lanes=st.lists(st.one_of(_POWERLAW_TAIL, _TWO_VALUE_TAIL), min_size=2, max_size=8))
def test_mle_lanes_equal_minimize_scalar_bit_for_bit(lanes):
    # tails of different sizes and shapes stop after different numbers of steps
    tails, x_mins = zip(*lanes)
    assert _lane_alphas(tails, x_mins) == [oracles.mle_alpha(t, xm) for t, xm in zip(tails, x_mins)]


def test_mle_lanes_stop_apart_and_reach_both_bounds():
    lanes = [
        (_two_value_tail(50, 1, 5000, 1), 50),  # optimum at the upper bound
        (_two_value_tail(1, 10 ** 6, 1, 5000), 1),  # near the lower one
        (sample_discrete_powerlaw(np.random.default_rng(3), 2.5, 1, 1000), 1),
    ]
    want = [oracles.mle_result(t, xm) for t, xm in lanes]
    assert len({r.nfev for r in want}) == 3
    assert want[0].x > _ALPHA_MAX - 1e-6 and want[1].x < 1.1
    tails, x_mins = zip(*lanes)
    assert _lane_alphas(tails, x_mins) == [float(r.x) for r in want]


def _test_objective(c, s, t, d):
    """Lane i minimizes s_i (x - c_i)^2 + t_i |x - d_i|, in operations rounded the same for arrays and scalars."""
    c, s, t, d = (np.array(v, dtype=float) for v in (c, s, t, d))
    return lambda x, i: s[i] * (x - c[i]) * (x - c[i]) + t[i] * np.abs(x - d[i])


_OBJECTIVE_LANE = st.tuples(
    st.floats(min_value=-1e3, max_value=1e3),  # lower bound
    st.floats(min_value=1e-6, max_value=1e6),  # width
    st.floats(min_value=-2e3, max_value=2e3),  # c
    st.floats(min_value=0.0, max_value=10.0),  # s
    st.floats(min_value=-10.0, max_value=10.0),  # t
    st.floats(min_value=-2e3, max_value=2e3),  # d
)


@settings(max_examples=60, deadline=None)
@given(lanes=st.lists(_OBJECTIVE_LANE, min_size=1, max_size=6), xatol=st.sampled_from([1e-8, 1e-5, 1e-2]))
@example(lanes=[(0.0, 1e100, 0.0, 0.0, 1.0, 0.0), (1.0, 1.0, 1.5, 1.0, 0.0, 0.0)], xatol=1e-200)  # lane 0 hits the cap
def test_fminbound_lanes_equal_minimize_scalar(lanes, xatol):
    lo, width, c, s, t, d = (np.array(v) for v in zip(*lanes))
    hi = lo + width
    got = _fminbound(_test_objective(c, s, t, d), lo, hi, xatol)
    for i in range(len(lanes)):
        f = _test_objective(c[i:i + 1], s[i:i + 1], t[i:i + 1], d[i:i + 1])
        want = oracles.fminbound(lambda x: f(np.array([x]), [0])[0], lo[i], hi[i], xatol)
        assert got[i] == want.x


def test_fminbound_lane_at_the_evaluation_cap():
    # f(x) = x on [0, 1e100] takes golden steps toward 0 that a tolerance of 1e-200 never ends
    f = _test_objective([0.0, 1.5], [0.0, 1.0], [1.0, 0.0], [0.0, 0.0])
    got = _fminbound(f, np.array([0.0, 1.0]), np.array([1e100, 2.0]), 1e-200)
    capped = oracles.fminbound(lambda x: abs(x), 0.0, 1e100, 1e-200)
    quick = oracles.fminbound(lambda x: (x - 1.5) * (x - 1.5), 1.0, 2.0, 1e-200)
    assert capped.nfev == 500 and quick.nfev < 500
    assert got.tolist() == [capped.x, quick.x]


@settings(max_examples=40, deadline=None)
@given(
    lanes=st.lists(
        st.tuples(
            st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=200),
            st.floats(min_value=1.01, max_value=8.0),
            st.integers(min_value=0, max_value=5),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_ks_segments_equal_per_tail_ks(lanes):
    tails = [np.array(t, dtype=np.int64) for t, _, _ in lanes]
    alphas = np.array([a for _, a, _ in lanes])
    x_mins = np.array([max(1, int(t.min()) - below) for t, (_, _, below) in zip(tails, lanes)])
    values, counts = zip(*(np.unique(t, return_counts=True) for t in tails))
    sizes = np.array([len(v) for v in values])
    got = _ks_stats(np.concatenate(values), np.concatenate(counts), np.cumsum(sizes) - sizes, alphas, x_mins)
    assert got.tolist() == [oracles.ks_stat(t, a, xm) for t, a, xm in zip(tails, alphas.tolist(), x_mins.tolist())]


_SCAN_SAMPLE = dict(
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    n_body=st.integers(min_value=0, max_value=400),
    n_tail=st.integers(min_value=2, max_value=400),
    alpha=st.floats(min_value=1.5, max_value=3.5),
    x_min=st.integers(min_value=1, max_value=12),
    n_zero=st.integers(min_value=0, max_value=20),
    min_tail=st.integers(min_value=1, max_value=80),
    scan_values=st.sampled_from([1, 50, 1 << 13]),  # 1 and 50 split the scan into blocks
)


def _scan_sample(seed, n_body, n_tail, alpha, x_min, n_zero):
    return np.concatenate([_bootstrap_sample(seed, n_body, n_tail, alpha, x_min), np.zeros(n_zero, dtype=np.int64)])


def _assert_fit_matches_oracle(samples, **kw):
    try:
        want = oracles.fit_powerlaw_discrete(samples, **kw)
    except FitDegenerateError:
        with pytest.raises(FitDegenerateError):
            fit_powerlaw_discrete(samples, **kw)
        return
    got = fit_powerlaw_discrete(samples, **kw)
    assert got == want
    assert type(got.alpha_hat) is float and type(got.ks_stat) is float


@settings(max_examples=30, deadline=None)
@given(**_SCAN_SAMPLE)
def test_fit_scan_equals_per_candidate_oracle(seed, n_body, n_tail, alpha, x_min, n_zero, min_tail, scan_values):
    samples = _scan_sample(seed, n_body, n_tail, alpha, x_min, n_zero)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statfit, "_SCAN_VALUES", scan_values)
        _assert_fit_matches_oracle(samples, min_tail=min_tail)
        _assert_fit_matches_oracle(samples, x_min=x_min, min_tail=min_tail)


@contextmanager
def _ks_rounded_to_one_decimal():
    # KS distances of different tails did not tie in a search of 25,000 small
    # samples, so both scans see them rounded to one decimal, where many tie
    ks_stats, ks_stat = statfit._ks_stats, oracles.ks_stat
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statfit, "_ks_stats", lambda *a: np.round(ks_stats(*a), 1))
        mp.setattr(oracles, "ks_stat", lambda *a: round(ks_stat(*a), 1))
        yield


@settings(max_examples=20, deadline=None)
@given(**_SCAN_SAMPLE)
def test_fit_scan_keeps_the_first_of_tied_candidates(seed, n_body, n_tail, alpha, x_min, n_zero, min_tail, scan_values):
    with _ks_rounded_to_one_decimal(), pytest.MonkeyPatch.context() as mp:
        mp.setattr(statfit, "_SCAN_VALUES", scan_values)
        _assert_fit_matches_oracle(_scan_sample(seed, n_body, n_tail, alpha, x_min, n_zero), min_tail=min_tail)


def test_fit_scan_tie_goes_to_the_smallest_x_min():
    samples = _scan_sample(0, 300, 300, 2.5, 4, 0)
    with _ks_rounded_to_one_decimal():
        # the rounded distances are 0.0 at x_min 5, 6 and 9 and larger elsewhere
        assert fit_powerlaw_discrete(samples, min_tail=20).x_min == 5
        _assert_fit_matches_oracle(samples, min_tail=20)


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
    want = oracles.gof_pvalue(samples, fit, n_bootstrap=100, seed=boot_seed)
    assert gof_pvalue(samples, fit, n_bootstrap=100, seed=boot_seed) == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statfit, "_LANES", 7)  # blocks that end mid-way and hold degenerate replicates
        assert gof_pvalue(samples, fit, n_bootstrap=100, seed=boot_seed) == want


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
    values, counts = np.unique(x, return_counts=True)
    x_sorted = np.sort(x)
    candidates = [
        int(v)
        for v in np.unique(x_sorted)
        if (x_sorted >= v).sum() >= min_tail and np.unique(x_sorted[x_sorted >= v]).size >= 2
    ]
    assert values[_xmin_candidates(np.cumsum(counts[::-1])[::-1], min_tail)].tolist() == candidates


@pytest.mark.skipif(
    not oracles.NUMPY_POW_IS_LIBM, reason="numpy's AVX-512 power is at times 1 ulp off libm's, so statfit's zeta is not scipy's"
)
@settings(max_examples=10, deadline=None)
@given(lanes=st.lists(st.one_of(_POWERLAW_TAIL, _TWO_VALUE_TAIL), min_size=2, max_size=6), **_SAMPLE)
def test_fit_and_bootstrap_equal_references_on_scipy_zeta_bit_for_bit(lanes, seed, n_body, n_tail, alpha, x_min, boot_seed):
    # end to end: the references take scipy's own zeta, as statfit did before its port
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "ZETA", hzeta)
        tails, x_mins = zip(*lanes)
        assert _lane_alphas(tails, x_mins) == [oracles.mle_alpha(t, xm) for t, xm in zip(tails, x_mins)]
        samples = _bootstrap_sample(seed, n_body, n_tail, alpha, x_min)
        _assert_fit_matches_oracle(samples, min_tail=2)
        fit = _fit_or_reject(samples)
        want = oracles.gof_pvalue(samples, fit, n_bootstrap=100, seed=boot_seed)
        assert gof_pvalue(samples, fit, n_bootstrap=100, seed=boot_seed) == want


def _far_tail() -> np.ndarray:
    """500 draws of a tail near 1e15 with exponent near 22, where float64 underflows zeta(alpha, x_min) to 0.

    Python's libm power gives the same values under every numpy dispatch.
    """
    u = np.random.default_rng(2).random(500).tolist()
    return np.array([math.floor(1e15 * (1 - v) ** (-1 / 24)) for v in u], dtype=np.int64)


def _assert_zeta_sees_its_domain(samples, boot_seed):
    # the fit, the bootstrap and its CDF table pass x > 1 (NaN on a lane that
    # float64 cannot fit) and q >= 1, the domain `_hurwitz_zeta` serves
    calls, zeta = [], statfit._hurwitz_zeta

    def spy(x, q):
        calls.append(np.broadcast_arrays(np.asarray(x, dtype=np.float64), np.asarray(q, dtype=np.float64)))
        return zeta(x, q)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statfit, "_hurwitz_zeta", spy)
        fit = _fit_or_reject(samples)
        n_fit = len(calls)
        gof_pvalue(samples, fit, n_bootstrap=100, seed=boot_seed)
    assert 0 < n_fit < len(calls)
    for x, q in calls:
        assert np.all((x > 1.0) | np.isnan(x)) and np.all(q >= 1.0)


@settings(max_examples=10, deadline=None)
@given(**_SAMPLE)
def test_zeta_sees_x_above_one_and_q_at_least_one(seed, n_body, n_tail, alpha, x_min, boot_seed):
    _assert_zeta_sees_its_domain(_bootstrap_sample(seed, n_body, n_tail, alpha, x_min), boot_seed)


def test_zeta_sees_x_above_one_and_q_at_least_one_on_a_far_out_tail():
    _assert_zeta_sees_its_domain(_far_tail(), 0)


def test_gof_counts_unfittable_replicates_at_or_above_and_warns_nothing():
    samples, ks_stats, dists = _far_tail(), statfit._ks_stats, []

    def ks_spy(*args):
        dists.append(ks_stats(*args))
        return dists[-1]

    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
        warnings.simplefilter("error")
        fit = fit_powerlaw_discrete(samples)
        assert (fit.x_min, round(fit.alpha_hat, 4), round(fit.ks_stat, 5)) == (1082569581694218, 22.2837, 0.09728)
        mp.setattr(statfit, "_ks_stats", ks_spy)
        got = gof_pvalue(samples, fit, n_bootstrap=100, seed=0)
    # 65 replicates underflow zeta(alpha, x_min) to 0 and leave a NaN distance
    assert sum(np.isnan(d).sum() for d in dists) == 65
    assert got.p_value == 0.72
    with np.errstate(divide="ignore", invalid="ignore"):  # the reference's scipy minimizer is not silent there
        assert got == oracles.gof_pvalue(samples, fit, n_bootstrap=100, seed=0)
