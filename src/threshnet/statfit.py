"""Degree statistics and discrete power-law fitting.

The fitting pipeline is the discrete maximum-likelihood method with
Kolmogorov-Smirnov x_min selection and a semi-parametric bootstrap for the
goodness-of-fit p-value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# No scipy: the fit takes its Hurwitz zeta from `_hurwitz_zeta`, a port of
# scipy.special's, and minimizes with `_fminbound`, a port of scipy's bounded
# Brent method.  Loading scipy for either takes longer than a small
# `generate`, and `analyze` loads no scipy module.

from .errors import DomainError, FitDegenerateError

_ALPHA_MAX = 25.0
_MIN_TAIL = 50
_TABLE_SPAN = 10 ** 6  # values in the bootstrap's inverse-CDF table; a draw past them takes a Pareto tail
# Equal bins of [0, 1) in the inverse-CDF guide (a 256 KB int32 index array
# and a 64 KB bool array): at R1's fit about 1.7% of draws land in a bin that
# holds a table value and search the table.  A power of two, so
# floor(u * bins) is exact.
_GUIDE_BINS = 1 << 16
# Bootstrap replicates fitted in lockstep at once: bounds the bootstrap's
# memory whatever the replicate count.
_LANES = 256
# Tail values per KS block of the x_min scan.  A candidate's tail holds every
# distinct value from it up, so R1's 343 distinct values make blocks of 23
# candidates; blocks of 256 were no faster and raised analyze's peak RSS by
# 3.5 MB.
_SCAN_VALUES = 1 << 13
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


_ZETA_A = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9, 7.47242496e10,
           -2.950130727918164224e12, 1.1646782814350067249e14, -4.5979787224074726105e15,
           1.8152105401943546773e17, -7.1661652561756670113e18)  # (2j)! / B_2j, j = 1..12, as Cephes writes them
# Lanes per block of `_hurwitz_zeta`, so that its arrays stay in cache: on a
# bootstrap KS call of 100,000 lanes (2 vCPUs), blocks of 8192 took 20 ms
# against 34 ms in one.
_ZETA_BLOCK = 1 << 13


def _hurwitz_zeta(x, q) -> np.ndarray:
    """Hurwitz zeta(x, q), the sum over k >= 0 of (k + q)^-x, over the broadcast of x and q.

    A lockstep numpy port of Cephes' `zeta.c` (Stephen L. Moshier) as scipy 1.17
    runs it for `scipy.special.zeta(x, q)` (BSD-3-Clause, Copyright (c) 2001-2002
    Enthought, Inc. and 2003- SciPy Developers): the same float steps and
    branches, so the same bits wherever `np.power` rounds as libm's `pow`.  Each
    lane leaves the direct sum, and then the Euler-Maclaurin terms, on its own
    stopping test.  Silent, as scipy is: inf at x = 1 and at integer q <= 0, NaN
    at x < 1 and at non-integer q < 0 with non-integer x.
    """
    x, q = np.broadcast_arrays(np.asarray(x, dtype=np.float64), np.asarray(q, dtype=np.float64))
    shape = x.shape
    x, q = x.ravel(), q.ravel()
    if len(x) > _ZETA_BLOCK:
        blocks = range(0, len(x), _ZETA_BLOCK)
        return np.concatenate([_hurwitz_zeta(x[lo:lo + _ZETA_BLOCK], q[lo:lo + _ZETA_BLOCK]) for lo in blocks]).reshape(shape)
    out = np.empty(len(x))
    with np.errstate(all="ignore"):
        pole = (q <= 0.0) & (q == np.floor(q))
        nan = (x < 1.0) | (q <= 0.0) & ~pole & (x != np.floor(x))
        inf = ~nan & ((x == 1.0) | pole)
        big = ~nan & ~inf & (q > 1e8)  # the asymptotic form, DLMF 25.11.43
        out[nan], out[inf] = np.nan, np.inf
        out[big] = (1.0 / (x[big] - 1.0) + 1.0 / (2.0 * q[big])) * q[big] ** (1.0 - x[big])
        live = np.flatnonzero(~(nan | inf | big))
        xs, a, i = x[live], q[live], 0
        s = a ** -xs
        ends = [(live[:0], xs[:0], a[:0], s[:0], s[:0])]  # (lanes, x, a, b, s) of sums that end unconverged
        while live.size:
            i += 1
            a += 1.0
            b = a ** -xs
            s += b
            done = np.abs(b / s) < 2.0 ** -53  # Cephes' MACHEP
            more = ~done if i < 9 else ~done & (a <= 9.0)
            if not more.all():
                out[live[done]] = s[done]
                ends.append(tuple(v[~done & ~more] for v in (live, xs, a, b, s)))
                live, xs, a, s = (v[more] for v in (live, xs, a, s))
        live, xs, w, b, s = (np.concatenate(v) for v in zip(*ends))
        s += b * w / (xs - 1.0)
        s -= 0.5 * b
        # every lane takes the next term until all have stopped: cheaper than dropping lanes
        fac, todo = np.ones(len(live)), np.ones(len(live), dtype=bool)
        for j, coef in enumerate(_ZETA_A):
            fac *= xs + 2.0 * j
            b /= w
            t = fac * b / coef
            s += t
            done = todo & (np.abs(t / s) < 2.0 ** -53)
            out[live[done]] = s[done]
            todo ^= done
            if not todo.any():
                break
            fac *= xs + (2.0 * j + 1.0)
            b /= w
        out[live[todo]] = s[todo]
    return out.reshape(shape)


def _mle_alphas(n: np.ndarray, log_sums: np.ndarray, x_mins: np.ndarray) -> np.ndarray:
    """Exponent of each tail of n[i] samples whose logs sum to log_sums[i], one lane per tail."""

    def minus_loglik(alpha, i):
        return n[i] * np.log(_hurwitz_zeta(alpha, x_mins[i])) + alpha * log_sums[i]

    return _fminbound(minus_loglik, np.full(len(n), 1.0 + 1e-7), np.full(len(n), _ALPHA_MAX), 1e-8)


def _fminbound(func, a: np.ndarray, b: np.ndarray, xatol: float) -> np.ndarray:
    """Minimizer of each lane's objective on [a[i], b[i]] by Brent's bounded method (Forsythe, Malcolm and Moler's fmin).

    A lockstep port of scipy 1.17's `optimize._optimize._minimize_scalar_bounded`
    (BSD-3-Clause, Copyright (c) 2001-2002 Enthought, Inc. and 2003- SciPy
    Developers): every lane takes that function's float steps, so lane i
    returns the same bits as `minimize_scalar(f_i, bounds=(a[i], b[i]),
    method="bounded", options={"xatol": xatol}).x` without loading scipy.
    `func(x, lanes)` returns f_lanes[k](x[k]) for each k.  A lane leaves the
    active set on its own tolerance; all lanes stop at scipy's 500
    evaluations.  A sign from `>= 0` equals scipy's `np.sign(r) + (r == 0)`
    for every r that is not NaN.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    lanes = np.arange(len(a))
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = np.zeros(len(a))
    fx = func(xf, lanes)
    ffulc = fnfc = fx
    out = np.empty(len(a))
    for _ in range(499):  # scipy's default maxiter caps function evaluations at 500
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        go = np.abs(xf - xm) > tol2 - 0.5 * (b - a)
        if not go.all():
            out[lanes[~go]] = xf[~go]
            state = (lanes, a, b, fulc, nfc, xf, rat, e, fx, ffulc, fnfc, xm, tol1, tol2)
            lanes, a, b, fulc, nfc, xf, rat, e, fx, ffulc, fnfc, xm, tol1, tol2 = (v[go] for v in state)
        if not lanes.size:
            return out
        # a parabolic step where |e| > tol1 and the parabola is acceptable, else a golden-section one
        r = (xf - nfc) * (fx - ffulc)
        q = (xf - fulc) * (fx - fnfc)
        p = (xf - fulc) * q - (xf - nfc) * r
        q = 2.0 * (q - r)
        p = np.where(q > 0.0, -p, p)
        q = np.abs(q)
        parabolic = (np.abs(e) > tol1) & (np.abs(p) < np.abs(0.5 * q * e)) & (q * (a - xf) < p) & (p < q * (b - xf))
        with np.errstate(all="ignore"):  # lanes that take a golden step may divide by 0
            step = (p + 0.0) / q
        x = xf + step
        step = np.where((x - a < tol2) | (b - x < tol2), np.where(xm - xf >= 0.0, tol1, -tol1), step)
        e_golden = np.where(xf >= xm, a, b) - xf
        e, rat = np.where(parabolic, rat, e_golden), np.where(parabolic, step, golden_mean * e_golden)
        x = xf + np.where(rat >= 0.0, 1.0, -1.0) * np.maximum(np.abs(rat), tol1)
        fu = func(x, lanes)
        better = fu <= fx
        move_a = np.where(better, x >= xf, x < xf)
        bound = np.where(better, xf, x)
        a, b = np.where(move_a, bound, a), np.where(move_a, b, bound)
        shift = better | (fu <= fnfc) | (nfc == xf)  # nfc moves down to fulc
        third = ~shift & ((fu <= ffulc) | (fulc == xf) | (fulc == nfc))  # x replaces fulc
        fulc, ffulc = np.where(shift, nfc, np.where(third, x, fulc)), np.where(shift, fnfc, np.where(third, fu, ffulc))
        nfc, fnfc = np.where(better, xf, np.where(shift, x, nfc)), np.where(better, fx, np.where(shift, fu, fnfc))
        xf, fx = np.where(better, x, xf), np.where(better, fu, fx)
    out[lanes] = xf
    return out


def _ks_stats(values: np.ndarray, counts: np.ndarray, starts: np.ndarray, alphas: np.ndarray, x_mins: np.ndarray) -> np.ndarray:
    """KS distance of each tail, given as consecutive `np.unique(tail, return_counts=True)` segments.

    Tail i is values[starts[i]:starts[i + 1]] with its counts.  Integer
    cumsums and a maximum per segment give each tail the bits of its own
    `np.cumsum` and `max`.
    """
    sizes = np.diff(starts, append=len(values))
    cum = np.cumsum(counts)
    cum -= np.repeat(cum[starts] - counts[starts], sizes)  # running count within each tail
    emp_cdf = cum / np.repeat(cum[starts + sizes - 1], sizes)
    model_cdf = 1.0 - _hurwitz_zeta(np.repeat(alphas, sizes), values + 1) / np.repeat(_hurwitz_zeta(alphas, x_mins), sizes)
    return np.maximum.reduceat(np.abs(emp_cdf - model_cdf), starts)


def fit_powerlaw_discrete(samples, x_min: int | None = None, min_tail: int = _MIN_TAIL) -> FitResult:
    """Discrete power-law fit (zeta-normalized MLE + KS x_min scan).

    With x_min given, only the exponent is estimated.  Otherwise every
    distinct value that keeps at least `min_tail` tail samples is tried and
    the one minimizing the KS distance wins (the smallest, on a tie).  Zero
    (and negative) samples are excluded from the fit and reported in the
    result.  Every candidate's tail is a suffix of one `np.unique` of the
    samples, and the candidates are fitted as lanes.
    """
    x = np.asarray(samples, dtype=np.int64)
    n_zero = int((x <= 0).sum())
    x = x[x > 0]
    if len(x) < min_tail:
        raise FitDegenerateError(f"need at least {min_tail} positive samples, got {len(x)}")
    values, counts = np.unique(x, return_counts=True)
    if values.size < 2:
        raise FitDegenerateError("all samples equal; no power-law fit possible")
    if values[-1] >= 2 ** 53:  # the fit works in float64, which holds every integer below 2**53 exactly
        raise FitDegenerateError(f"sample {values[-1]} is 2^53 or more, which float64 cannot hold exactly")
    at_or_above = np.cumsum(counts[::-1])[::-1]

    if x_min is not None:
        if x_min < 1:
            raise DomainError(f"x_min must be >= 1, got {x_min}")
        firsts = np.searchsorted(values, [x_min])
        if firsts[0] == len(values) or at_or_above[firsts[0]] < min_tail:
            raise FitDegenerateError(f"fewer than {min_tail} samples at or above x_min={x_min}")
        x_mins = np.array([x_min], dtype=np.int64)
    else:
        firsts = _xmin_candidates(at_or_above, min_tail)
        x_mins = values[firsts]
    logx = np.log(x)
    log_sums = np.array([logx[x >= xm].sum() for xm in x_mins.tolist()])  # in sample order, as np.log(tail).sum()
    ks = np.empty(len(firsts))
    step = max(1, _SCAN_VALUES // len(values))
    with np.errstate(divide="ignore", invalid="ignore"):  # a far-out tail underflows zeta(alpha, x_min) to 0
        alphas = _mle_alphas(at_or_above[firsts], log_sums, x_mins)
        for lo in range(0, len(firsts), step):
            block = slice(lo, lo + step)
            sizes = len(values) - firsts[block]
            suffixes = np.concatenate([np.arange(j, len(values)) for j in firsts[block].tolist()])
            ks[block] = _ks_stats(values[suffixes], counts[suffixes], np.cumsum(sizes) - sizes, alphas[block], x_mins[block])
    if np.isnan(ks).all():
        raise FitDegenerateError(f"no x_min at or above {x_mins[0]} gives a tail that float64 can fit")
    best = int(np.nanargmin(ks))  # the first of equal distances; a NaN lane is not a candidate
    chosen = int(x_mins[best])
    tail = x[x >= chosen]

    alpha_cont = 1.0 + len(tail) / float(np.log(tail / (chosen - 0.5)).sum())
    return FitResult(
        alpha_hat=float(alphas[best]),
        x_min=chosen,
        ks_stat=float(ks[best]),
        n_tail=len(tail),
        alpha_continuous=alpha_cont,
        n_zero=n_zero,
    )


def _xmin_candidates(at_or_above: np.ndarray, min_tail: int) -> np.ndarray:
    """Indices of the distinct values with at least `min_tail` samples at or above, bar the largest.

    `at_or_above[i]` counts the samples at or above the i-th distinct value.
    """
    return np.flatnonzero(at_or_above[:-1] >= min_tail)


def _zeta_cdf(alpha: float, x_min: int) -> np.ndarray:
    """CDF of the zeta-normalized discrete power law on x_min .. x_min + _TABLE_SPAN - 1."""
    ks = np.arange(x_min, x_min + _TABLE_SPAN, dtype=np.float64)
    pmf = ks ** -alpha / _hurwitz_zeta(alpha, x_min)
    return np.cumsum(pmf)


def _guide(cdf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of the non-decreasing `cdf` per bin of [0, 1), where the bin decides it.

    A uniform u in bin j = floor(u * _GUIDE_BINS) has first[j] table values
    at or below it unless holds[j]: first[j] counts the values <= the bin's
    lower edge, and holds[j] says whether a value lies above that edge and
    below the upper one.
    """
    edges = np.arange(_GUIDE_BINS + 1) / _GUIDE_BINS
    first = np.searchsorted(cdf, edges[:-1], side="right")
    return first.astype(np.int32), first != np.searchsorted(cdf, edges[1:], side="left")


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
    first, holds = guide
    bins = (u * _GUIDE_BINS).astype(np.intp)
    idx = first[bins].astype(np.int64)
    unsure = holds[bins]
    idx[unsure] = np.searchsorted(cdf, u[unsure], side="right")
    out = x_min + idx
    over = idx >= len(cdf)
    if over.any():
        k_max = x_min + len(cdf) - 1
        ccdf_max = max(1.0 - cdf[-1], 1e-300)
        tail = k_max * (ccdf_max / (1.0 - u[over])) ** (1.0 / (alpha - 1.0))
        out[over] = np.floor(np.minimum(tail, _INT64_TOP_FLOAT)).astype(np.int64)
    return out


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
    if not (0 <= seed < 2 ** 64):
        raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed}")
    x = np.asarray(samples, dtype=np.int64)
    x = x[x > 0]
    n_tail = int(np.count_nonzero(x >= fit.x_min))
    if fit.n_tail != n_tail:
        raise DomainError(f"not a fit of these samples: {fit.n_tail} tail samples at x_min={fit.x_min}, not {n_tail}")
    n = len(x)
    tail_frac = fit.n_tail / n
    cdf = _zeta_cdf(fit.alpha_hat, fit.x_min)
    guide = _guide(cdf)
    exceed = 0
    for block in range(0, n_bootstrap, _LANES):
        tails = []  # (values, counts, size, log-sum) of each replicate tail with two or more values
        for rep in range(block, min(block + _LANES, n_bootstrap)):
            rng = np.random.default_rng([seed, rep])
            take_tail = rng.random(n) < tail_frac
            tail_syn = _draw_discrete_powerlaw(rng, cdf, guide, fit.alpha_hat, fit.x_min, int(np.count_nonzero(take_tail)))
            values, counts = np.unique(tail_syn, return_counts=True)
            if values.size < 2:
                exceed += 1  # degenerate replicate cannot beat the observed fit
                continue
            tails.append((values, counts, len(tail_syn), np.log(tail_syn).sum()))
        if tails:
            values, counts, n_syn, log_sums = zip(*tails)
            sizes = np.array([len(v) for v in values])
            x_mins = np.full(len(tails), fit.x_min, dtype=np.int64)
            alphas = _mle_alphas(np.array(n_syn), np.array(log_sums), x_mins)
            ks = _ks_stats(np.concatenate(values), np.concatenate(counts), np.cumsum(sizes) - sizes, alphas, x_mins)
            exceed += int(np.count_nonzero(ks >= fit.ks_stat))
    p = exceed / n_bootstrap
    stderr = float(np.sqrt(p * (1.0 - p) / n_bootstrap))
    return GofResult(p_value=p, stderr=stderr, n_bootstrap=n_bootstrap)

