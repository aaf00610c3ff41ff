"""Test-only helpers and reference implementations that the package itself does not need.

Each reference restates a rule of the package independently of the code
that runs it, so the tests can compare the two:

- node sampling: `SubStream`, over its own SplitMix64 on Python ints
  (`splitmix64`), and `sample_weight` and `sample_direction` draw one value
  at a time, against `streams` and the vectorized `sample_node_table`;
  `mix64` runs the package's in-place mix on a copy, against `splitmix64`;
- the edge rule: `directed_rule` and `linkfn_rule` build the rules of the
  two directed variants; `edge_exists` decides one pair, `generate_naive`
  every pair with no pruning, `mc_estimate` fresh random pairs, all against
  `generate` and the closed forms of `analytics`;
- the pruning bound: `pair_can_link` states it pair by pair, against the
  pairs `candidate_pairs` reads off the generator's cutoffs;
- the closed forms: `p_edge_given_weight_undirected`, `p_edge_undirected`
  and `p_wedge_paper` are the paper's formulas, taken as printed, against
  `p_edge_given_weight` and `p_edge` at alpha = beta = 1 and against
  `p_wedge`, which are written so that no power overflows;
  `p_edge_mp`, `p_wedge_mp` and `variance_edges_mp` evaluate the same
  printed forms in 60-digit mpmath, where their cancellation costs nothing,
  against the float digits of `p_edge`, `p_wedge` and `variance_edges`;
- the link-function P_e(w): `p_edge_given_weight_linkfn_weight_space`
  integrates over the partner's weight, `p_edge_given_weight_linkfn_exp` is
  the closed form for h = exp, both against the dot-product integral of
  `p_edge_given_weight_linkfn`;
- the Hurwitz zeta: `hurwitz_zeta_mp` is mpmath's, at enough digits to
  be exact in float64, against the lockstep port of scipy's (Cephes') zeta in
  `statfit`, which is held to scipy's own `zeta` as well;
- the exponent fit: `fminbound` and `mle_alpha` minimize with scipy's
  `minimize_scalar`, against each lane of the lockstep port of its bounded
  method in `statfit`; their objective takes its zeta from `ZETA`, the
  port, so that they test the minimizer alone, and one test sets it to
  scipy's `zeta` to check the fit end to end;
- the x_min scan: `fit_powerlaw_discrete` fits one candidate at a time, each
  tail with its own `np.unique`, `mle_alpha` and `ks_stat`, against the
  candidates that `statfit` fits as lanes;
- the bootstrap: `gof_pvalue` builds every replicate in full and refits
  with `mle_alpha`; `sample_discrete_powerlaw` draws a discrete power law
  through the bootstrap's own tail sampler, and `draw_discrete_powerlaw`
  inverts its table by one search, against that sampler's bin guide;
- the files `generate` writes: `read_nodes_tsv` and `read_json` read them
  back, with the package's UTF-8 check.
"""

import json
import math
import warnings
from dataclasses import dataclass, field

import mpmath
import numpy as np
from scipy.special import ndtri, zeta

from threshnet import (
    DimensionError,
    DomainError,
    EdgeRule,
    FitDegenerateError,
    Graph,
    LinkFn,
    ModelConfig,
    NumericError,
    ParetoParams,
    SeriesFormatError,
    Variant,
    ccdf,
    sample_node_table,
)
from threshnet.generator import _canonical, _partner_cutoffs, _weight_order
from threshnet.io import _read_text
from threshnet.statfit import (
    _ALPHA_MAX,
    _INT64_TOP_FLOAT,
    FitResult,
    GofResult,
    _draw_discrete_powerlaw,
    _guide,
    _hurwitz_zeta,
    _zeta_cdf,
)
from threshnet.streams import _mix_inplace


def hurwitz_zeta(s: float, x: float = 1.0) -> float:
    """Hurwitz zeta, the normalizer of discrete power-law tails."""
    if not (s > 1):
        raise DomainError(f"zeta argument must exceed 1, got {s}")
    return float(zeta(s, x))


# Digits at which mpmath's Hurwitz zeta is exact in float64 over x in (1, 25] and
# q in [1, 2^53): at 60 digits it is off by 2e-10 relative at x = 24.48,
# q = 314.1, and against 290 digits the worst of 400 random points was 3e-20 at 120.
_ZETA_MP_DPS = 120


def hurwitz_zeta_mp(x: float, q: float) -> float:
    """mpmath's Hurwitz zeta(x, q), rounded once to a float."""
    with mpmath.workdps(_ZETA_MP_DPS):
        return float(mpmath.zeta(mpmath.mpf(x), mpmath.mpf(q)))


def _pow_is_libm() -> bool:
    """Whether numpy's float64 power gives libm's bits, as without its AVX-512 kernels."""
    rng = np.random.default_rng(0)
    base, exponent = rng.uniform(1.0, 2000.0, 4096), -rng.uniform(1.0, 25.0, 4096)
    return (base ** exponent).tolist() == [math.pow(b, e) for b, e in zip(base.tolist(), exponent.tolist())]


# The port of scipy's zeta in `statfit` returns scipy's bits exactly when this holds.
NUMPY_POW_IS_LIBM = _pow_is_libm()


def degree_pmf_reference(k, exponent: float):
    """Normalized discrete power-law pmf k^(-exponent) / zeta(exponent)."""
    if not (exponent > 1):
        raise DomainError(f"pmf exponent must exceed 1, got {exponent}")
    k_arr = np.asarray(k)
    if np.any(k_arr < 1):
        raise DomainError("degree values must be >= 1")
    out = k_arr.astype(float) ** -exponent / zeta(exponent, 1)
    return out if out.ndim else float(out)


# --- readers of the files `generate` writes ----------------------------------


def read_nodes_tsv(path) -> tuple[np.ndarray, np.ndarray]:
    """The weights and directions of a `nodes.tsv`, checked line by line."""
    weights = []
    dirs = []
    with _read_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split("\t")
            if len(parts) < 3:
                raise SeriesFormatError(f"{path}:{lineno}: expected id, weight, coordinates")
            try:
                idx = int(parts[0])
                weights.append(float(parts[1]))
                dirs.append([float(c) for c in parts[2:]])
            except ValueError as exc:
                raise SeriesFormatError(f"{path}:{lineno}: {exc}") from None
            if idx != lineno - 1:
                raise SeriesFormatError(f"{path}:{lineno}: ids must be consecutive from 0")
    if not weights:
        raise SeriesFormatError(f"{path}: empty node table")
    return np.array(weights), np.array(dirs)


def read_json(path) -> dict:
    with _read_text(path) as fh:
        return json.load(fh)


# --- node sampling, one draw at a time ---------------------------------------


_MASK64 = 2 ** 64 - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(x) -> np.ndarray:
    """SplitMix64 finalizer of a scalar or uint64 array, into a new array (the package mixes in place)."""
    return _mix_inplace(np.array(x, dtype=np.uint64))


def splitmix64(x: int) -> int:
    """SplitMix64 finalizer of a Python int in [0, 2^64), mod 2^64."""
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return x ^ (x >> 31)


class SubStream:
    """Scalar handle over one node's substream; draws values sequentially."""

    def __init__(self, seed: int, node_id: int):
        self._key = splitmix64(seed ^ splitmix64((node_id + 1) * _GOLDEN & _MASK64))
        self._count = 0

    def next_uniform(self) -> float:
        """Next uniform draw in [0, 1); draw j is `substream_draws` at draw number j."""
        self._count += 1
        # the 1024 states that round to 1.0 give the largest double below 1
        return min(float(splitmix64((self._key + self._count * _GOLDEN) & _MASK64)) * 2.0 ** -64, 1.0 - 2.0 ** -53)

    def uniforms(self, k: int) -> np.ndarray:
        return np.array([self.next_uniform() for _ in range(k)])


def sample_weight(stream, pareto: ParetoParams) -> float:
    """Inverse-CDF Pareto draw: w0 * (1 - U)^(-1/a), U uniform on [0, 1)."""
    u = stream.next_uniform()
    return pareto.w0 * (1.0 - u) ** (-1.0 / pareto.a)


def sample_direction(stream, d: int) -> np.ndarray:
    """Uniform point on the unit (d-1)-sphere.

    d = 3 uses the cylinder parameterization (z uniform on [-1, 1], azimuth
    uniform on [0, 2*pi)); other d normalize a vector of standard normals.
    """
    if d < 2:
        raise DimensionError(f"direction dimension must be >= 2, got {d}")
    if d == 3:
        z = 2.0 * stream.next_uniform() - 1.0
        phi = 2.0 * math.pi * stream.next_uniform()
        s = math.sqrt(max(0.0, 1.0 - z * z))
        return np.array([s * math.cos(phi), s * math.sin(phi), z])
    u = np.array([stream.next_uniform() for _ in range(d)])
    g = ndtri(np.maximum(u, 2.0 ** -64))  # ndtri(0) is -inf
    return g / np.linalg.norm(g)


# --- the edge rule, one pair at a time ---------------------------------------

_UNIT_NORM_TOL = 1e-12


@dataclass(frozen=True)
class Node:
    id: int
    weight: float
    direction: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.id < 0:
            raise DomainError(f"node id must be non-negative, got {self.id}")
        norm = float(np.linalg.norm(self.direction))
        if abs(norm - 1.0) > _UNIT_NORM_TOL:
            raise DomainError(f"direction norm {norm} deviates from 1 by more than {_UNIT_NORM_TOL}")


def directed_rule(theta: float, alpha: float, beta: float) -> EdgeRule:
    """The directed rule w_u^alpha * w_v^beta * dot >= theta."""
    return EdgeRule(Variant.DIRECTED, theta, alpha, beta, LinkFn("identity"))


def linkfn_rule(theta: float, alpha: float, beta: float, h: LinkFn) -> EdgeRule:
    """The link-function rule w_u^alpha * w_v^beta * h(dot) >= theta."""
    return EdgeRule(Variant.LINKFN, theta, alpha, beta, h)


def edge_exists(u: Node, v: Node, rule: EdgeRule) -> bool:
    """Pure edge predicate; for directed variants this is the arc u -> v."""
    if u.direction.shape != v.direction.shape:
        raise DimensionError(f"direction dimensions differ: {u.direction.shape} vs {v.direction.shape}")
    dot = float(u.direction @ v.direction)
    f = float(rule.h(dot)) if rule.variant is Variant.LINKFN else dot
    if rule.theta == 0:
        return f >= 0  # the weights drop out; their product could underflow to a -0.0 that passes
    if rule.variant is Variant.UNDIRECTED:
        lhs = u.weight * v.weight * dot
    else:
        lhs = u.weight ** rule.alpha * v.weight ** rule.beta * f
    return lhs >= rule.theta


def generate_naive(config: ModelConfig) -> Graph:
    """O(n^2) reference: every pair decided directly, no pruning."""
    if config.n > 20000:
        raise DomainError("naive reference is limited to n <= 20000")
    weights, dirs = sample_node_table(config.n, config.seed, config.pareto, config.d)
    rule = config.rule
    dots = dirs @ dirs.T
    f = rule.h(dots) if rule.variant is Variant.LINKFN else dots
    if rule.variant is Variant.UNDIRECTED:
        lhs = np.outer(weights, weights) * dots
    else:
        lhs = np.outer(weights ** rule.alpha, weights ** rule.beta) * f
    hit = lhs >= rule.theta if rule.theta > 0 else f >= 0  # at theta = 0 the weights drop out
    np.fill_diagonal(hit, False)
    if not rule.is_directed:
        hit = np.triu(hit)
    src, dst = np.nonzero(hit)
    n = config.n
    return Graph(
        weights=weights,
        directions=dirs,
        edges=_canonical(src.astype(np.int64) * n + dst, n),
        directed=rule.is_directed,
        n_candidates=n * (n - 1) // 2,
    )


def candidate_pairs(weights, rule: EdgeRule) -> set[tuple[int, int]]:
    """The (heavier, lighter) id pairs that the generator's weight pruning decides."""
    weights = np.asarray(weights, dtype=float)
    order = _weight_order(weights)
    cuts = _partner_cutoffs(weights[order], rule)
    return {(int(order[p]), int(order[q])) for p, cut in enumerate(cuts.tolist()) for q in range(p + 1, cut)}


def pair_can_link(w_u, w_v, rule: EdgeRule) -> np.ndarray:
    """Whether some pair of directions links nodes of these weights, in either direction.

    The weight-pruning bound stated pair by pair: the link transform at its
    maximum, the larger of the two orientations.
    """
    w_u, w_v = np.asarray(w_u, dtype=float), np.asarray(w_v, dtype=float)
    if rule.variant is Variant.UNDIRECTED:
        return w_u * w_v >= rule.theta
    h_max = 1.0 if rule.variant is Variant.DIRECTED else max(rule.h(-1.0), rule.h(1.0))
    lhs = np.maximum(w_u ** rule.alpha * w_v ** rule.beta, w_v ** rule.alpha * w_u ** rule.beta)
    return lhs * h_max >= rule.theta


def linlog_leading_coefficient(D: float, pareto: ParetoParams) -> float:
    """Limit of E[M](n) / (n ln n) under theta(n) = D n^(1/a)."""
    a, w0 = pareto.a, pareto.w0
    return w0 ** (2 * a) / (4.0 * D ** a * (a + 1.0))


def p_edge_given_weight_undirected(w: float, pareto: ParetoParams, theta: float) -> float:
    """The paper's P_e(w) for the undirected rule w_u * w_v * dot >= theta."""
    a, w0 = pareto.a, pareto.w0
    if w > theta / w0:
        return 0.5 * (1.0 - a * theta / (w * (a + 1.0) * w0))
    return 0.5 * w0 ** a / (theta ** a * (a + 1.0)) * w ** a


def p_edge_undirected(pareto: ParetoParams, theta: float) -> float:
    """The paper's P_e for the undirected rule, with its branch at theta = w0^2."""
    a, w0 = pareto.a, pareto.w0
    if theta < w0 ** 2:
        return 0.5 - 0.5 * (a / (a + 1.0)) ** 2 * theta / w0 ** 2
    return (
        w0 ** (2 * a)
        / (2.0 * theta ** a)
        * (
            a * (math.log(theta) - 2.0 * math.log(w0)) / (a + 1.0)
            - (a / (a + 1.0)) ** 2
            + 1.0
        )
    )


def p_wedge_paper(pareto: ParetoParams, theta: float) -> float:
    """The paper's wedge probability, with its branch at theta = w0^2, in powers of theta."""
    a, w0 = pareto.a, pareto.w0
    r = a / (a + 1.0)
    if theta < w0 ** 2:
        return 0.25 - 0.5 * r ** 2 * theta / w0 ** 2 + 0.25 * a ** 3 * theta ** 2 / ((a + 1.0) ** 2 * (a + 2.0) * w0 ** 4)
    head = 0.25 * w0 ** (2 * a) / (theta ** (2 * a) * (a + 1.0) ** 2) * (theta ** a - w0 ** (2 * a))
    tail = 0.25 * w0 ** (2 * a) / theta ** a * (1.0 - 2.0 * r ** 2 + a ** 3 / ((a + 1.0) ** 2 * (a + 2.0)))
    return head + tail


_MP_DPS = 60


def _paper_edge_and_wedge(a, w0, theta):
    """The paper's p_edge and p_wedge of mpf arguments, as `p_edge_undirected` and `p_wedge_paper` print them."""
    r2 = (a / (a + 1)) ** 2
    k = a ** 3 / ((a + 1) ** 2 * (a + 2))
    t = theta / w0 ** 2
    if t < 1:
        return (1 - r2 * t) / 2, (1 - 2 * r2 * t + k * t ** 2) / 4
    s = t ** -a
    pe = s / 2 * (a * mpmath.log(t) / (a + 1) - r2 + 1)
    return pe, s ** 2 * (t ** a - 1) / (4 * (a + 1) ** 2) + s / 4 * (1 - 2 * r2 + k)


def p_edge_mp(pareto: ParetoParams, theta: float, alpha: float = 1.0, beta: float = 1.0) -> float:
    """The arc probability in 60-digit mpmath, rounded once: the paper's p_edge at alpha = beta = 1.

    Otherwise P_e(w) integrated in r = (w0^(alpha+beta) / theta)^(1/alpha):
    (1 - c r^-alpha) / 2 with c = a^2 / ((a+alpha)(a+beta)) when r >= 1, else
    (1 - c) r^a / 2 + a beta / (2 (a+beta)) (r^a - r^(a+e)) / e, e = a (alpha - beta) / beta.
    """
    with mpmath.workdps(_MP_DPS):
        a, w0, theta, alpha, beta = (mpmath.mpf(v) for v in (pareto.a, pareto.w0, theta, alpha, beta))
        if alpha == beta == 1:
            return float(_paper_edge_and_wedge(a, w0, theta)[0])
        c = a * a / ((a + alpha) * (a + beta))
        r = (w0 ** (alpha + beta) / theta) ** (1 / alpha)
        if r >= 1:
            return float((1 - c * r ** -alpha) / 2)
        e = a * (alpha - beta) / beta
        spread = r ** a * mpmath.log(1 / r) if e == 0 else (r ** a - r ** (a + e)) / e
        return float((1 - c) * r ** a / 2 + a * beta / (2 * (a + beta)) * spread)


def p_wedge_mp(pareto: ParetoParams, theta: float) -> float:
    """`p_wedge_paper` in 60-digit mpmath, rounded once to a float."""
    with mpmath.workdps(_MP_DPS):
        return float(_paper_edge_and_wedge(mpmath.mpf(pareto.a), mpmath.mpf(pareto.w0), mpmath.mpf(theta))[1])


def variance_edges_mp(n: int, pareto: ParetoParams, theta: float) -> float:
    """The edge-count variance from the paper's p_edge and p_wedge in 60-digit mpmath, rounded once."""
    with mpmath.workdps(_MP_DPS):
        pe, pw = _paper_edge_and_wedge(mpmath.mpf(pareto.a), mpmath.mpf(pareto.w0), mpmath.mpf(theta))
        n = mpmath.mpf(n)
        return float(n * (n - 1) / 2 * pe * (1 - pe) + n * (n - 1) * (n - 2) / 2 * (pw - pe ** 2))


def directed_branch_boundary(pareto: ParetoParams, theta: float, alpha: float, beta: float) -> float:
    """The weight w* = (theta / w0^beta)^(1/alpha) at which the two branches of P_e(w) meet."""
    return (theta / pareto.w0 ** beta) ** (1.0 / alpha)


def p_edge_given_weight_directed_printed(w: float, pareto: ParetoParams, theta: float, alpha: float, beta: float) -> float:
    """The directed out-edge probability with the source's printed branch switch.

    It switches at (theta / w0^alpha)^(1/beta) instead of the limit-derived
    w* = (theta / w0^beta)^(1/alpha) of `p_edge_given_weight`; the
    two agree only when alpha = beta.
    """
    a, w0 = pareto.a, pareto.w0
    if w > (theta / w0 ** alpha) ** (1.0 / beta):
        return 0.5 * (1.0 - a * theta / (w ** alpha * (a + beta) * w0 ** beta))
    return w ** (a * alpha / beta) * w0 ** a / (2.0 * theta ** (a / beta)) * beta / (a + beta)


def p_edge_given_weight_linkfn_weight_space(
    w: float, pareto: ParetoParams, theta: float, alpha: float, beta: float, h: LinkFn
) -> float:
    """P_e(w) under a link transform as an integral over the partner's weight.

    A partner of weight w' links with the cap fraction P(h(D) >= t) in h^{-1},
    t = theta / (w^alpha w'^beta).  The partner's weight is integrated as its
    survival u = (w0/w')^a, uniform on (0, 1], so w'^beta = w0^beta u^(-beta/a):
    from the survival u_q of the weight below which the cap is empty down to
    the survival u_r of the weight above which it is the whole sphere, plus
    u_r itself.  Integrated over w' on [w_q, inf) instead, quad missed most of
    the mass at some inputs with no warning (4.2e-16 for 2.8e-8 at
    a = w = w0 = 1, theta = 8886110.52, identity link).  Raises NumericError
    where quad reports no convergence or an error estimate over 1e-8
    relative (1e-13 absolute).
    """
    from scipy import integrate

    q, r = h.hi, h.lo

    def cap_fraction(t: float) -> float:
        if t > q:
            return 0.0
        if t < r:
            return 1.0
        return 0.5 * (1.0 - h.inverse(t))

    if theta == 0.0:
        return cap_fraction(0.0)
    if q <= 0.0:
        return 0.0
    k = pareto.a / beta
    y = theta / (w ** alpha * pareto.w0 ** beta)
    u_q = (q / y) ** k if q < y else 1.0
    u_r = 0.0 if r <= 0.0 else (r / y) ** k if r < y else 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            val, err = integrate.quad(lambda u: cap_fraction(y * u ** (1.0 / k)), u_r, u_q, epsabs=1e-15, epsrel=1e-10, limit=200)
        except integrate.IntegrationWarning as exc:
            raise NumericError(f"link-function quadrature did not converge: {exc}") from exc
    if err > max(abs(val) * 1e-8, 1e-13):
        raise NumericError(f"quadrature error estimate {err} exceeds tolerance for value {val}")
    return val + u_r


def p_edge_given_weight_linkfn_exp(w: float, pareto: ParetoParams, theta: float, alpha: float, beta: float) -> float:
    """P_e(w) under the link h = exp in closed form.

    With y = theta / (w^alpha w0^beta), k = a / beta and s* = ln y clamped to
    [-1, 1]: P = (1 - s*)/2 + e^{k(s* - ln y)} (1 - e^{-k(s* + 1)}) / (2k),
    which is 1 at s* = -1.
    """
    if theta == 0.0:
        return 1.0
    k = pareto.a / beta
    log_y = math.log(theta) - alpha * math.log(w) - beta * math.log(pareto.w0)
    if log_y <= -1.0:
        return 1.0  # h(D) >= e^-1 >= y for every direction
    s = min(1.0, log_y)
    return 0.5 * (1.0 - s) - math.exp(k * (s - log_y)) * math.expm1(-k * (s + 1.0)) / (2.0 * k)


# --- Monte Carlo over fresh random nodes --------------------------------------


def ccdf_loglog_slope(degrees, k_lo: int, k_hi: int) -> float:
    """Log-log slope of the empirical CCDF between two degree values."""
    values, frac = ccdf(degrees)
    c_lo = frac[np.searchsorted(values, k_lo)]
    c_hi = frac[np.searchsorted(values, k_hi)]
    return float((np.log(c_hi) - np.log(c_lo)) / (np.log(k_hi) - np.log(k_lo)))


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    stderr: float
    trials: int


def _sphere_points(rng: np.random.Generator, m: int) -> np.ndarray:
    g = rng.standard_normal((m, 3))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _pareto_draws(rng: np.random.Generator, pareto: ParetoParams, m: int) -> np.ndarray:
    return pareto.w0 * (1.0 - rng.random(m)) ** (-1.0 / pareto.a)


def mc_estimate(
    kind: str,
    pareto: ParetoParams,
    theta: float,
    trials: int,
    seed: int = 0,
    w: float | None = None,
    alpha: float | None = None,
    beta: float | None = None,
    h: LinkFn | None = None,
    chunk: int = 10 ** 6,
) -> McEstimate:
    """Bernoulli Monte-Carlo estimate of an edge/wedge probability (d = 3).

    kind: 'edge', 'edge_given_weight', 'wedge', 'directed_edge_given_weight',
    or 'linkfn_edge_given_weight'.  Fresh random nodes per trial from an RNG
    unrelated to the model's node sampler, exact predicate, binomial
    standard error.
    """
    if trials < 10 ** 4:
        raise DomainError(f"need at least 1e4 trials, got {trials}")
    if kind in ("edge_given_weight", "directed_edge_given_weight", "linkfn_edge_given_weight"):
        if w is None or w < pareto.w0:
            raise DomainError("this kind requires a conditioning weight w >= w0")
    if kind in ("directed_edge_given_weight", "linkfn_edge_given_weight"):
        if alpha is None or beta is None:
            raise DomainError("directed kinds require alpha and beta")
    if kind == "linkfn_edge_given_weight" and h is None:
        raise DomainError("linkfn kind requires a link function")
    if not (theta >= 0):
        raise DomainError(f"threshold must be non-negative, got {theta}")

    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        if kind == "edge":
            dots = np.einsum("ij,ij->i", _sphere_points(rng, m), _sphere_points(rng, m))
            ok = _pareto_draws(rng, pareto, m) * _pareto_draws(rng, pareto, m) * dots >= theta
        elif kind == "edge_given_weight":
            x = _sphere_points(rng, 1)[0]
            dots = _sphere_points(rng, m) @ x
            ok = w * _pareto_draws(rng, pareto, m) * dots >= theta
        elif kind == "wedge":
            wc = _pareto_draws(rng, pareto, m)
            xc = _sphere_points(rng, m)
            d1 = np.einsum("ij,ij->i", xc, _sphere_points(rng, m))
            d2 = np.einsum("ij,ij->i", xc, _sphere_points(rng, m))
            w1 = _pareto_draws(rng, pareto, m)
            w2 = _pareto_draws(rng, pareto, m)
            ok = (wc * w1 * d1 >= theta) & (wc * w2 * d2 >= theta)
        elif kind == "directed_edge_given_weight":
            x = _sphere_points(rng, 1)[0]
            dots = _sphere_points(rng, m) @ x
            ok = w ** alpha * _pareto_draws(rng, pareto, m) ** beta * dots >= theta
        elif kind == "linkfn_edge_given_weight":
            x = _sphere_points(rng, 1)[0]
            dots = _sphere_points(rng, m) @ x
            ok = w ** alpha * _pareto_draws(rng, pareto, m) ** beta * h(dots) >= theta
        else:
            raise DomainError(f"unknown Monte-Carlo kind {kind!r}")
        hits += int(ok.sum())
        done += m
    p_hat = hits / trials
    stderr = float(np.sqrt(p_hat * (1.0 - p_hat) / trials))
    return McEstimate(estimate=p_hat, stderr=stderr, trials=trials)


# --- the bootstrap, every replicate built in full -----------------------------


def sample_discrete_powerlaw(rng: np.random.Generator, alpha: float, x_min: int, size: int) -> np.ndarray:
    """Draws of the zeta-normalized discrete power law, by the sampler `statfit.gof_pvalue` draws its tails with.

    Exact within its inverse-CDF table; past it a continuous Pareto tail,
    clipped below 2**63.
    """
    if not (alpha > 1):
        raise DomainError(f"exponent must exceed 1, got {alpha}")
    cdf = _zeta_cdf(alpha, x_min)
    return _draw_discrete_powerlaw(rng, cdf, _guide(cdf), alpha, x_min, size)


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


def fminbound(func, a: float, b: float, xatol: float):
    """scipy's bounded minimizer of `func` on [a, b]: its result, with `x` and `nfev`."""
    from scipy.optimize import minimize_scalar

    return minimize_scalar(func, bounds=(a, b), method="bounded", options={"xatol": xatol})


# The Hurwitz zeta of the exponent fit's references: the port `statfit` runs,
# so that they check the minimizer and the scan alone; scipy's `zeta` when a test
# checks the fit end to end.
ZETA = _hurwitz_zeta


def mle_result(tail: np.ndarray, x_min: int):
    """The `fminbound` result for the tail's exponent, as `statfit` found it before its own port."""
    n = len(tail)
    s = float(np.log(tail).sum())
    # minus the tail log-likelihood
    return fminbound(lambda alpha: n * np.log(ZETA(alpha, x_min)) + alpha * s, 1.0 + 1e-7, _ALPHA_MAX, 1e-8)


def mle_alpha(tail: np.ndarray, x_min: int) -> float:
    """The tail's exponent by scipy's bounded minimizer."""
    return float(mle_result(tail, x_min).x)


def ks_stat(tail, alpha, x_min):
    values, counts = np.unique(tail, return_counts=True)
    emp_cdf = np.cumsum(counts) / len(tail)
    z = ZETA(alpha, x_min)
    model_cdf = 1.0 - ZETA(alpha, values + 1) / z
    return float(np.abs(emp_cdf - model_cdf).max())


def fit_powerlaw_discrete(samples, x_min: int | None = None, min_tail: int = 50) -> FitResult:
    """The discrete fit one x_min candidate at a time; the first of equal KS distances wins."""
    x = np.asarray(samples, dtype=np.int64)
    n_zero = int((x <= 0).sum())
    x = x[x > 0]
    if len(x) < min_tail or np.unique(x).size < 2:
        raise FitDegenerateError("too few samples or too few distinct values")
    if x_min is not None:
        if x_min < 1:
            raise DomainError(f"x_min must be >= 1, got {x_min}")
        if (x >= x_min).sum() < min_tail:
            raise FitDegenerateError(f"fewer than {min_tail} samples at or above x_min={x_min}")
        candidates = [int(x_min)]
    else:
        candidates = [int(v) for v in np.unique(x)[:-1] if (x >= v).sum() >= min_tail]
        if not candidates:
            raise FitDegenerateError("no x_min candidate keeps enough tail samples")
    best = None
    for xm in candidates:
        tail = x[x >= xm]
        alpha = mle_alpha(tail, xm)
        ks = ks_stat(tail, alpha, xm)
        if best is None or ks < best[1]:
            best = (alpha, ks, xm)
    alpha, ks, xm = best
    tail = x[x >= xm]
    return FitResult(
        alpha_hat=alpha,
        x_min=xm,
        ks_stat=ks,
        n_tail=len(tail),
        alpha_continuous=1.0 + len(tail) / float(np.log(tail / (xm - 0.5)).sum()),
        n_zero=n_zero,
    )


def gof_pvalue(samples, fit: FitResult, n_bootstrap: int = 1000, seed: int = 0) -> GofResult:
    """Bootstrap p-value that builds every replicate in full: resampled body, interleaved sample, masked tail."""
    if n_bootstrap < 100:
        raise DomainError(f"need at least 100 bootstrap replicates, got {n_bootstrap}")
    x = np.asarray(samples, dtype=np.int64)
    x = x[x > 0]
    body = x[x < fit.x_min]
    n = len(x)
    tail_frac = fit.n_tail / n
    cdf = _zeta_cdf(fit.alpha_hat, fit.x_min)
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
        alpha_syn = mle_alpha(tail_syn, fit.x_min)
        if not ks_stat(tail_syn, alpha_syn, fit.x_min) < fit.ks_stat:
            exceed += 1  # and so does a NaN distance, where zeta(alpha, x_min) underflows to 0
    p = exceed / n_bootstrap
    stderr = float(np.sqrt(p * (1.0 - p) / n_bootstrap))
    return GofResult(p_value=p, stderr=stderr, n_bootstrap=n_bootstrap)
