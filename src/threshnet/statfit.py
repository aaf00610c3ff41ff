"""Degree statistics and discrete power-law fitting.

The fitting pipeline is the discrete maximum-likelihood method with
Kolmogorov-Smirnov x_min selection and a semi-parametric bootstrap for the
goodness-of-fit p-value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# scipy.special is imported inside the functions that use it: `generate` and
# the growth sweep never do, and loading it takes longer than a small
# `generate`.  The exponent fit minimizes with `_fminbound`, not scipy.optimize,
# whose import costs about as much again.

from .errors import DomainError, FitDegenerateError

_ALPHA_MAX = 25.0
_MIN_TAIL = 50
_TABLE_SPAN = 10 ** 6
# Equal bins of [0, 1) in the inverse-CDF guide (two 32 KB index arrays that
# stay in cache).  A power of two, so floor(u * bins) is exact.
_GUIDE_BINS = 4096
# Largest float below 2**63: Pareto tail draws are clipped to it before the
# int64 cast, which would otherwise wrap them to a negative value.
_INT64_TOP_FLOAT = float(np.nextafter(2.0 ** 63, 0.0))


@dataclass(frozen=True)
class FitResult:
    alpha_hat: float
    x_min: int
    ks_stat: float
    n_tail: int
    alpha_continuous: float
    n_zero: int = 0
    p_value: float | None = None

    def __post_init__(self):
        if not (self.alpha_hat > 1):
            raise DomainError(f"fitted exponent must exceed 1, got {self.alpha_hat}")
        if self.x_min < 1:
            raise DomainError(f"x_min must be >= 1, got {self.x_min}")
        if not (0.0 <= self.ks_stat <= 1.0):
            raise DomainError(f"KS statistic out of [0,1]: {self.ks_stat}")


@dataclass(frozen=True)
class GofResult:
    p_value: float
    stderr: float
    n_bootstrap: int


def ccdf(degrees) -> tuple[np.ndarray, np.ndarray]:
    """Empirical complementary CDF over distinct degree values.

    Returns (values, fraction of nodes with degree >= value); fractions are
    non-increasing and the first point counts every node at or above the
    smallest listed value.
    """
    deg = np.asarray(degrees)
    if deg.size == 0:
        raise DomainError("ccdf needs a non-empty degree list")
    if np.any(deg < 0):
        raise DomainError("degrees must be non-negative")
    values, counts = np.unique(deg, return_counts=True)
    frac_ge = np.cumsum(counts[::-1])[::-1] / deg.size
    return values, frac_ge


def _mle_alpha(tail: np.ndarray, x_min: int) -> float:
    from scipy.special import zeta as hzeta

    n = len(tail)
    s = float(np.log(tail).sum())
    # minus the tail log-likelihood
    return _fminbound(lambda alpha: n * np.log(hzeta(alpha, x_min)) + alpha * s, 1.0 + 1e-7, _ALPHA_MAX, 1e-8)


def _fminbound(func, a: float, b: float, xatol: float) -> float:
    """Minimizer of `func` on [a, b] by Brent's bounded method (Forsythe, Malcolm and Moler's fmin).

    A plain-float port of scipy 1.17's `optimize._optimize._minimize_scalar_bounded`
    (BSD-3-Clause, Copyright (c) 2001-2002 Enthought, Inc. and 2003- SciPy
    Developers), step for step, so it returns the same bits as
    `minimize_scalar(func, bounds=(a, b), method="bounded", options={"xatol": xatol}).x`
    without loading scipy.optimize.  A sign from `>= 0` equals scipy's
    `np.sign(r) + (r == 0)` for every r that is not NaN.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm - xf >= 0.0 else -tol1
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        x = xf + (1.0 if rat >= 0.0 else -1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:  # scipy's default maxiter, which caps function evaluations
            break
    return xf


def _ks_stat(values: np.ndarray, counts: np.ndarray, alpha: float, x_min: int) -> float:
    """KS distance of the tail given as `np.unique(tail, return_counts=True)`."""
    from scipy.special import zeta as hzeta

    cum = np.cumsum(counts)
    emp_cdf = cum / cum[-1]
    z = hzeta(alpha, x_min)
    model_cdf = 1.0 - hzeta(alpha, values + 1) / z
    return float(np.abs(emp_cdf - model_cdf).max())


def fit_powerlaw_discrete(samples, x_min: int | None = None, min_tail: int = _MIN_TAIL) -> FitResult:
    """Discrete power-law fit (zeta-normalized MLE + KS x_min scan).

    With x_min given, only the exponent is estimated.  Otherwise every
    distinct value that keeps at least `min_tail` tail samples is tried and
    the one minimizing the KS distance wins.  Zero (and negative) samples
    are excluded from the fit and reported in the result.
    """
    x = np.asarray(samples, dtype=np.int64)
    n_zero = int((x <= 0).sum())
    x = x[x > 0]
    if len(x) < min_tail:
        raise FitDegenerateError(f"need at least {min_tail} positive samples, got {len(x)}")
    if np.unique(x).size < 2:
        raise FitDegenerateError("all samples equal; no power-law fit possible")

    if x_min is not None:
        if x_min < 1:
            raise DomainError(f"x_min must be >= 1, got {x_min}")
        if (x >= x_min).sum() < min_tail:
            raise FitDegenerateError(f"fewer than {min_tail} samples at or above x_min={x_min}")
        candidates = [int(x_min)]
    else:
        candidates = _xmin_candidates(x, min_tail)
        if not candidates:
            raise FitDegenerateError("no x_min candidate keeps enough tail samples")
    best = None
    for xm in candidates:
        tail = x[x >= xm]
        alpha_c = _mle_alpha(tail, xm)
        ks_c = _ks_stat(*np.unique(tail, return_counts=True), alpha_c, xm)
        if best is None or ks_c < best[1]:
            best = (alpha_c, ks_c, tail, xm)
    alpha, ks, tail, chosen = best

    alpha_cont = 1.0 + len(tail) / float(np.log(tail / (chosen - 0.5)).sum())
    return FitResult(
        alpha_hat=alpha,
        x_min=chosen,
        ks_stat=ks,
        n_tail=len(tail),
        alpha_continuous=alpha_cont,
        n_zero=n_zero,
    )


def _xmin_candidates(x: np.ndarray, min_tail: int) -> list[int]:
    """Distinct values of `x` with at least `min_tail` samples at or above, bar the largest."""
    values, counts = np.unique(x, return_counts=True)
    at_or_above = np.cumsum(counts[::-1])[::-1]
    return values[:-1][at_or_above[:-1] >= min_tail].tolist()


def _zeta_cdf(alpha: float, x_min: int, table_span: int) -> np.ndarray:
    """CDF of the zeta-normalized discrete power law on x_min .. x_min + table_span - 1."""
    from scipy.special import zeta as hzeta

    ks = np.arange(x_min, x_min + table_span, dtype=np.float64)
    pmf = ks ** -alpha / hzeta(alpha, x_min)
    return np.cumsum(pmf)


def _guide(cdf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds on the inverse of the non-decreasing `cdf` per bin of [0, 1).

    A uniform u in bin j = floor(u * _GUIDE_BINS) has at least lo[j] and at
    most hi[j] table values at or below it: lo[j] counts the values <= the
    bin's lower edge, hi[j] those below its upper edge.
    """
    edges = np.arange(_GUIDE_BINS + 1) / _GUIDE_BINS
    return np.searchsorted(cdf, edges[:-1], side="right"), np.searchsorted(cdf, edges[1:], side="left")


def _draw_discrete_powerlaw(
    rng: np.random.Generator,
    cdf: np.ndarray,
    guide: tuple[np.ndarray, np.ndarray],
    alpha: float,
    x_min: int,
    size: int,
) -> np.ndarray:
    """Invert `cdf` (from `_zeta_cdf`) at `size` uniforms; Pareto fallback past its end.

    `guide` is `_guide(cdf)`.  A draw whose bin holds no table value takes
    its index from the guide; only the others search the table, with the
    same result as `np.searchsorted(cdf, u, side="right")`.
    """
    u = rng.random(size)
    lo, hi = guide
    bins = (u * _GUIDE_BINS).astype(np.intp)
    idx = lo[bins]
    unsure = idx != hi[bins]
    idx[unsure] = np.searchsorted(cdf, u[unsure], side="right")
    out = x_min + idx
    over = idx >= len(cdf)
    if over.any():
        k_max = x_min + len(cdf) - 1
        ccdf_max = max(1.0 - cdf[-1], 1e-300)
        tail = k_max * (ccdf_max / (1.0 - u[over])) ** (1.0 / (alpha - 1.0))
        out[over] = np.floor(np.minimum(tail, _INT64_TOP_FLOAT)).astype(np.int64)
    return out.astype(np.int64)


def sample_discrete_powerlaw(rng: np.random.Generator, alpha: float, x_min: int, size: int) -> np.ndarray:
    """Inverse-CDF draws from the zeta-normalized discrete power law.

    Exact within a precomputed table of `_TABLE_SPAN` values; the residual
    tail beyond it (mass ~1e-7 at typical exponents) falls back to the
    continuous Pareto approximation, clipped below 2**63.
    """
    if not (alpha > 1):
        raise DomainError(f"exponent must exceed 1, got {alpha}")
    cdf = _zeta_cdf(alpha, x_min, _TABLE_SPAN)
    return _draw_discrete_powerlaw(rng, cdf, _guide(cdf), alpha, x_min, size)


def gof_pvalue(
    samples,
    fit: FitResult,
    n_bootstrap: int = 1000,
    seed: int = 0,
) -> GofResult:
    """Semi-parametric bootstrap p-value for the power-law tail fit.

    Each replicate draws its RNG from (seed, replicate index), resamples the
    empirical body below x_min, draws the tail from the fitted law, refits
    the exponent at the same x_min, and records the KS statistic.  p is the
    fraction of replicate statistics at or above the observed one.  The
    inverse-CDF table of the fitted law and its bin guide are built once per
    call and shared by every replicate, so the result is bit-exact in
    (seed, samples, fit).  `fit` must be a fit of `samples`: its tail count
    must equal the positive samples at or above its x_min.

    Body draws lie below x_min and so never enter the refit tail; they are
    not materialized.  Each replicate owns its RNG and the body draws come
    last in it, so skipping them changes no draw the tail uses.
    """
    if n_bootstrap < 100:
        raise DomainError(f"need at least 100 bootstrap replicates, got {n_bootstrap}")
    x = np.asarray(samples, dtype=np.int64)
    x = x[x > 0]
    n_tail = int(np.count_nonzero(x >= fit.x_min))
    if fit.n_tail != n_tail:
        raise DomainError(f"not a fit of these samples: {fit.n_tail} tail samples at x_min={fit.x_min}, not {n_tail}")
    n = len(x)
    tail_frac = fit.n_tail / n
    cdf = _zeta_cdf(fit.alpha_hat, fit.x_min, _TABLE_SPAN)
    guide = _guide(cdf)
    exceed = 0
    for rep in range(n_bootstrap):
        rng = np.random.default_rng([seed, rep])
        take_tail = rng.random(n) < tail_frac
        n_tail_syn = int(np.count_nonzero(take_tail))
        tail_syn = _draw_discrete_powerlaw(rng, cdf, guide, fit.alpha_hat, fit.x_min, n_tail_syn)
        values, counts = np.unique(tail_syn, return_counts=True)
        if values.size < 2:
            exceed += 1  # degenerate replicate cannot beat the observed fit
            continue
        alpha_syn = _mle_alpha(tail_syn, fit.x_min)
        if _ks_stat(values, counts, alpha_syn, fit.x_min) >= fit.ks_stat:
            exceed += 1
    p = exceed / n_bootstrap
    stderr = float(np.sqrt(p * (1.0 - p) / n_bootstrap))
    return GofResult(p_value=p, stderr=stderr, n_bootstrap=n_bootstrap)

