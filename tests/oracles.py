"""Test-only helpers and oracles that the package itself does not need."""

from dataclasses import replace

import numpy as np
from scipy.special import zeta

from threshnet import DomainError
from threshnet.statfit import _INT64_TOP_FLOAT, _TABLE_SPAN, FitResult, GofResult, _mle_alpha, _zeta_cdf


def hurwitz_zeta(s: float, x: float = 1.0) -> float:
    """Hurwitz zeta, the normalizer of discrete power-law tails."""
    if not (s > 1):
        raise DomainError(f"zeta argument must exceed 1, got {s}")
    return float(zeta(s, x))


def with_p_value(fit: FitResult, gof: GofResult) -> FitResult:
    return replace(fit, p_value=gof.p_value)


def draw_discrete_powerlaw(rng, cdf, alpha, x_min, size):
    """Inverse-CDF draws by one search of the whole table, as `statfit` drew before its bin guide."""
    u = rng.random(size)
    idx = np.searchsorted(cdf, u, side="right")
    out = x_min + idx
    over = idx >= len(cdf)
    if over.any():
        k_max = x_min + len(cdf) - 1
        ccdf_max = max(1.0 - cdf[-1], 1e-300)
        tail = k_max * (ccdf_max / (1.0 - u[over])) ** (1.0 / (alpha - 1.0))
        out[over] = np.floor(np.minimum(tail, _INT64_TOP_FLOAT)).astype(np.int64)
    return out.astype(np.int64)


def _ks_stat(tail, alpha, x_min):
    values, counts = np.unique(tail, return_counts=True)
    emp_cdf = np.cumsum(counts) / len(tail)
    z = zeta(alpha, x_min)
    model_cdf = 1.0 - zeta(alpha, values + 1) / z
    return float(np.abs(emp_cdf - model_cdf).max())


def gof_pvalue(samples, fit: FitResult, n_bootstrap: int = 1000, seed: int = 0) -> GofResult:
    """Bootstrap p-value that builds every replicate in full: resampled body, interleaved sample, masked tail."""
    if n_bootstrap < 100:
        raise DomainError(f"need at least 100 bootstrap replicates, got {n_bootstrap}")
    x = np.asarray(samples, dtype=np.int64)
    x = x[x > 0]
    body = x[x < fit.x_min]
    n = len(x)
    tail_frac = fit.n_tail / n
    cdf = _zeta_cdf(fit.alpha_hat, fit.x_min, _TABLE_SPAN)
    exceed = 0
    for rep in range(n_bootstrap):
        rng = np.random.default_rng([seed, rep])
        take_tail = rng.random(n) < tail_frac
        n_tail_syn = int(take_tail.sum())
        syn = np.empty(n, dtype=np.int64)
        syn[take_tail] = draw_discrete_powerlaw(rng, cdf, fit.alpha_hat, fit.x_min, n_tail_syn)
        n_body_syn = n - n_tail_syn
        if n_body_syn:
            if len(body) == 0:
                syn[~take_tail] = draw_discrete_powerlaw(rng, cdf, fit.alpha_hat, fit.x_min, n_body_syn)
            else:
                syn[~take_tail] = rng.choice(body, size=n_body_syn, replace=True)
        tail_syn = syn[syn >= fit.x_min]
        if len(tail_syn) < 2 or np.unique(tail_syn).size < 2:
            exceed += 1  # degenerate replicate cannot beat the observed fit
            continue
        alpha_syn = _mle_alpha(tail_syn, fit.x_min)
        if _ks_stat(tail_syn, alpha_syn, fit.x_min) >= fit.ks_stat:
            exceed += 1
    p = exceed / n_bootstrap
    stderr = float(np.sqrt(p * (1.0 - p) / n_bootstrap))
    return GofResult(p_value=p, stderr=stderr, n_bootstrap=n_bootstrap, ks_observed=fit.ks_stat)
