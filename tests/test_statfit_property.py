import numpy as np
from hypothesis import example, given, settings, strategies as st
from scipy.special import zeta as hzeta

from threshnet import sample_discrete_powerlaw

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
