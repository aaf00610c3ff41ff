"""Closed-form edge probabilities, moments, and threshold calibration.

Every formula here is the 3-dimensional case (directions on the 2-sphere);
other dimensions are rejected by the callers that know about dimension.
The recurring building block is the spherical-cap fraction: for unit vectors,
P(dot >= t) = (1 - t) / 2 when t is in [0, 1].
"""

from __future__ import annotations

import math
import struct
import sys
import warnings
from dataclasses import dataclass
from typing import Callable

# scipy.integrate is imported inside the link-function integral, its one use:
# no other command needs it, and loading it takes longer than their start-up.

from .errors import (
    DomainError,
    FeasibilityError,
    NumericError,
    UnsupportedAnalyticsError,
)
from .model import LinkFn, ParetoParams, _check_exponents, _check_theta

_CALIBRATION_REL_TOL = 1e-10
# Quadrature tolerance, relative to the whole probability it contributes to.
_QUAD_REL_TOL = 1e-12
# Below ln(largest double) by a margin, so a float power x ** p with
# p * ln(x) under it cannot raise OverflowError.
_LOG_POW_MAX = 709.0


def _check_weight(w: float, pareto: ParetoParams) -> None:
    if not (w >= pareto.w0):
        raise DomainError(f"weight {w} below Pareto scale w0={pareto.w0}")


def p_edge_given_weight(
    w: float, pareto: ParetoParams, theta: float, alpha: float = 1.0, beta: float = 1.0
) -> float:
    """Probability that a node of weight w has an arc to an independent random node.

    The rule is w^alpha * w'^beta * dot >= theta; alpha = beta = 1 is the
    undirected model.  Branches switch at the limit-derived
    w* = (theta/w0^beta)^(1/alpha), where w^alpha * w0^beta = theta, found
    from logs so that no power of theta, w or w0 overflows.  Each branch
    takes w^alpha * w0^beta from the powers themselves wherever that (and,
    in the lower branch, its quotient by theta) is a normal double, and from
    logs elsewhere: a power from logs carries the absolute rounding of the
    log, about 1e-13 relative at large powers, and the lower branch raises
    it to a/beta.
    """
    _check_theta(theta)
    _check_weight(w, pareto)
    _check_exponents(alpha, beta)
    if theta == 0.0:
        return 0.5
    a, w0 = pareto.a, pareto.w0
    log_w, log_w0 = alpha * math.log(w), beta * math.log(w0)
    log_ratio = log_w + log_w0 - math.log(theta)
    if log_ratio <= 0.0:
        num = w ** alpha * w0 ** beta if log_w < _LOG_POW_MAX and abs(log_w0) < _LOG_POW_MAX else 0.0
        if sys.float_info.min <= num < math.inf and num / theta >= sys.float_info.min:
            return 0.5 * beta / (a + beta) * (num / theta) ** (a / beta)
        return 0.5 * beta / (a + beta) * math.exp(a / beta * log_ratio)
    if log_w < _LOG_POW_MAX and log_w0 < _LOG_POW_MAX:
        # theta is at most about w^alpha * w0^beta here, so a * theta is below den
        den = w ** alpha * (a + beta) * w0 ** beta
        if sys.float_info.min <= den < math.inf:
            return 0.5 * (1.0 - a * theta / den)
    return 0.5 * (1.0 - a / (a + beta) * math.exp(-log_ratio))


def p_edge(pareto: ParetoParams, theta: float, alpha: float = 1.0, beta: float = 1.0) -> float:
    """Arc probability for an ordered pair of independent random nodes.

    P_e(w) integrated against the weight density, written in
    r = w0/w* = (w0^(alpha+beta) / theta)^(1/alpha): when r >= 1 every
    weight lies in the upper branch of P_e(w), otherwise the weights below
    w* lie in the lower one.  r^-alpha is the quotient theta / w0^(alpha+beta)
    and log r its log, as p_wedge takes theta / w0^2; only where the power or
    the quotient is not a normal float does log r come from the logs of
    theta and w0, whose rounding 1 - c r^-alpha would amplify.  Every power
    of r taken is at most 1, so nothing overflows.  At alpha = beta = 1 (the
    undirected model) this is the paper's closed form term by term.
    """
    _check_theta(theta)
    _check_exponents(alpha, beta)
    if theta == 0.0:
        return 0.5
    if theta == math.inf:
        return 0.0  # the limit, where the lower branch below would take 0 * inf
    a = pareto.a
    log_w = (alpha + beta) * math.log(pareto.w0)
    ratio = theta / pareto.w0 ** (alpha + beta) if abs(log_w) < _LOG_POW_MAX else 0.0
    normal = sys.float_info.min <= ratio < math.inf
    log_r = -math.log(ratio) / alpha if normal else (log_w - math.log(theta)) / alpha
    c = (a / (a + alpha)) * (a / (a + beta))  # factors <= 1, so finite for any finite a
    if log_r >= 0.0:
        return 0.5 * (1.0 - c * (ratio if normal else math.exp(-alpha * log_r)))
    # lower branch: (r^a - r^(a+e)) / e with e = a*alpha/beta - a, written as
    # r^min(a, a+e) * (1 - r^|e|) / |e| so that it never cancels; ln(1/r) at e = 0
    e = a * (alpha - beta) / beta
    if normal:
        # r^a = ratio^(-a/alpha) and r^(a+e) = ratio^(-a/beta), as powers of the quotient:
        # exp(k log r) would carry k |log r| times the rounding of log r
        r_a, r_low = (_power_of_quotient(ratio, a, over) for over in (alpha, alpha if e >= 0.0 else beta))
    else:
        r_a, r_low = math.exp(a * log_r), math.exp(min(a, a + e) * log_r)
    spread = -log_r if e == 0.0 else -math.expm1(abs(e) * log_r) / abs(e)
    return 0.5 * (1.0 - c) * r_a + a * beta / (2.0 * (a + beta)) * (r_low * spread)


def _power_of_quotient(ratio: float, a: float, over: float) -> float:
    """ratio^(-a/over), with the rounding of the exponent a/over put back."""
    y = a / over
    power = ratio ** -y
    if not (0.0 < power < math.inf and y < math.inf):
        return power  # a correction near 1 cannot bring back 0 or inf, and y = inf has none
    (pa, qa), (po, qo), (py, qy) = a.as_integer_ratio(), over.as_integer_ratio(), y.as_integer_ratio()
    dy = (pa * qo * qy - py * qa * po) / (qa * po * qy)  # a/over - y in integers, rounded once
    return power * math.exp(-dy * math.log(ratio))


def expected_edges(n: int, pareto: ParetoParams, theta: float) -> float:
    return _expected_count(n, n * (n - 1) / 2.0, pareto, theta, 1.0, 1.0)


def expected_arcs_directed(
    n: int, pareto: ParetoParams, theta: float, alpha: float, beta: float
) -> float:
    return _expected_count(n, float(n) * (n - 1), pareto, theta, alpha, beta)


def _expected_count(n: int, pairs: float, pareto: ParetoParams, theta: float, alpha: float, beta: float) -> float:
    """Expected links among the `pairs` pairs (unordered, or ordered for arcs) that n nodes decide."""
    _check_node_count(n)
    return pairs * p_edge(pareto, theta, alpha, beta)


def p_wedge(pareto: ParetoParams, theta: float) -> float:
    """Probability that one node links to two independent random leaves.

    Exceeds p_edge^2 because both edges share the center node's weight.
    """
    _check_theta(theta)
    a, w0 = pareto.a, pareto.w0
    r = a / (a + 1.0)
    k = r ** 2 * a / (a + 2.0)  # a^3 / ((a+1)^2 (a+2)), finite for any finite a
    t = theta / w0 / w0  # quotients, not w0^2, so that nothing overflows
    if t < 1.0:
        return 0.25 - 0.5 * r ** 2 * t + 0.25 * k * t * t
    # s = (w0^2 / theta)^a <= 1, from logs so that no power overflows
    log_s = a * (2.0 * math.log(w0) - math.log(theta))
    head = -math.expm1(log_s) / ((a + 1.0) * (a + 1.0))  # a float ** 2 would raise past the largest double
    tail = (5.0 * a + 2.0) / (a + 1.0) / (a + 1.0) / (a + 2.0)  # 1 - 2 r^2 + k, which cancels to O(1/a^2)
    return 0.25 * math.exp(log_s) * (head + tail)


def variance_edges(n: int, pareto: ParetoParams, theta: float) -> float:
    """Variance of the edge count: Bernoulli term plus the shared-node wedge term.

    Below theta = w0^2 the wedge covariance p_wedge - p_edge^2 (both near 1/4)
    is taken as a^3 t^2 / (4 (a+1)^4 (a+2)), t = theta / w0^2, which does not cancel.
    """
    if n < 2:
        raise DomainError(f"variance needs n >= 2, got {n}")
    pe = p_edge(pareto, theta)
    a, t = pareto.a, theta / pareto.w0 / pareto.w0
    if t < 1.0:  # (a+1)(a+2) overflows to inf at a huge a, where the term is 0
        cov = (a / (a + 1.0)) ** 3 * t * t / (4.0 * (a + 1.0) * (a + 2.0))
    else:
        cov = p_wedge(pareto, theta) - pe ** 2
    pairs = n * (n - 1) / 2.0
    return pairs * pe * (1.0 - pe) + n * (n - 1) * (n - 2) / 2.0 * cov


def calibrate_theta(n: int, pareto: ParetoParams, target_edges: float) -> float:
    """Threshold with expected_edges(n, theta) = target_edges (unique root).

    Feasible targets lie strictly between 0 and n(n-1)/4: the edge
    probability spans (0, 1/2], so any sub-quadratic growth target is
    reachable for large enough n.
    """
    return _calibrate(n, n * (n - 1) / 2.0, pareto, target_edges, 1.0, 1.0)


def calibrate_theta_directed(
    n: int, pareto: ParetoParams, target_arcs: float, alpha: float, beta: float
) -> float:
    """Threshold with expected arc count = target_arcs in the directed model."""
    return _calibrate(n, float(n) * (n - 1), pareto, target_arcs, alpha, beta)


def _calibrate(n: int, pairs: float, pareto: ParetoParams, target: float, alpha: float, beta: float) -> float:
    """The threshold at which `_expected_count` of the same arguments is `target`."""
    _check_node_count(n)
    if not (0.0 < target < pairs / 2.0):
        raise FeasibilityError(
            f"target {target} infeasible for n={n}: must lie in (0, {pairs / 2.0})"
        )
    theta = _solve_theta(pareto, target / pairs, alpha, beta)
    achieved = _expected_count(n, pairs, pareto, theta, alpha, beta)
    if abs(achieved - target) / target > _CALIBRATION_REL_TOL:
        raise NumericError(f"calibration missed target: achieved {achieved}, wanted {target}")
    return theta


def _solve_theta(pareto: ParetoParams, p: float, alpha: float, beta: float) -> float:
    """The largest threshold at which p_edge is still at least p, for p in (0, 1/2).

    p_edge is 1/2 at theta = 0, 0 at theta = inf and never rises in between,
    and non-negative doubles are ordered as their int64 bits.  So bisecting
    those bits keeps p_edge(lo) >= p > p_edge(hi) until hi is the double
    after lo, in 63 steps.  A p_edge still above p at the largest finite
    double gives FeasibilityError.
    """
    if p_edge(pareto, sys.float_info.max, alpha, beta) > p:
        raise FeasibilityError(f"edge probability stays above {p} at every finite threshold")
    double = lambda bits: struct.unpack("<d", struct.pack("<q", bits))[0]
    lo, hi = 0, struct.unpack("<q", struct.pack("<d", math.inf))[0]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if p_edge(pareto, double(mid), alpha, beta) >= p:
            lo = mid
        else:
            hi = mid
    return double(lo)


def _check_node_count(n: int) -> None:
    if n < 1:
        raise DomainError(f"node count must be >= 1, got {n}")


def _check_coefficient(D: float) -> None:
    if not (0.0 < D < math.inf):
        raise DomainError(f"schedule coefficient must be positive and finite, got D={D}")


def theta_powerlaw_schedule(n: int, D: float, a: float) -> float:
    """theta(n) = D * n^(1/a), the schedule that yields linearithmic growth; refused past the largest double."""
    _check_coefficient(D)
    _check_node_count(n)
    log_power = math.log(n) / a
    if log_power < _LOG_POW_MAX:
        theta = D * n ** (1.0 / a)
    else:  # n^(1/a) alone may pass the largest double, where a D below 1 brings theta back
        log_theta = math.log(D) + log_power
        theta = math.exp(log_theta) if log_theta < _LOG_POW_MAX else math.inf
    if theta == math.inf:
        raise DomainError(f"threshold D * n^(1/a) overflows at n={n}, a={a} (D={D})")
    return theta


def expected_edges_linlog(n: int, D: float, pareto: ParetoParams) -> float:
    """Exact expected edge count under theta(n) = D * n^(1/a).

    Valid once D * n^(1/a) >= w0^2; equals expected_edges at that threshold.
    Leading coefficient of n*ln(n) is w0^(2a) / (4 D^a (a+1)).  The powers
    w0^(2a) / D^a are taken from logs: inside the validity region they are
    at most n, outside it the check compares logs, so neither overflows.
    """
    _check_coefficient(D)
    a, w0 = pareto.a, pareto.w0
    log_scale = a * (2.0 * math.log(w0) - math.log(D))
    if n < 1 or math.log(n) < log_scale:
        raise DomainError(
            f"n={n} below validity region ln n >= a (2 ln w0 - ln D) = {log_scale}"
        )
    return (
        (n - 1)
        * math.exp(log_scale)
        / 4.0
        * (
            math.log(n) / (a + 1.0)
            - (a / (a + 1.0)) ** 2
            + 1.0
            + a * (math.log(D) - 2.0 * math.log(w0)) / (a + 1.0)
        )
    )


def p_edge_given_weight_linkfn(
    w: float, pareto: ParetoParams, theta: float, alpha: float, beta: float, h: LinkFn
) -> float:
    """Out-edge probability of a node of weight w under a strictly increasing link h.

    The dot product of two uniform directions on S^2 is uniform on [-1, 1], so
    with y = theta / (w^alpha w0^beta) and k = a / beta,
        P = (1 - s*) / 2 + 1/2 * integral over [s0, s*] of (h(s) / y)^k ds,
    with s0 where h becomes positive and s* = h^-1(y) clamped to [s0, 1].  Past
    s* = 1 the integrand's top (h(1) / y)^k is taken out from logs, so quad sees
    values in [0, 1] that reach 1 however small P is.
    """
    from scipy import integrate

    _check_theta(theta)
    _check_weight(w, pareto)
    _check_exponents(alpha, beta)
    if not h.strictly_increasing:
        raise UnsupportedAnalyticsError(f"analytics need a strictly increasing link, got {h.spec()}")
    k = pareto.a / beta
    log_y = math.log(theta) - alpha * math.log(w) - beta * math.log(pareto.w0) if theta > 0.0 else -math.inf
    y = math.exp(log_y) if log_y < _LOG_POW_MAX else math.inf
    s0 = -1.0 if h.lo >= 0.0 else h.inverse(0.0) if h.hi > 0.0 else 1.0
    s_star = max(s0, -1.0 if y <= h.lo else 1.0 if y >= h.hi else h.inverse(y))
    head = 1.0 - s_star  # the integral is at most s* - s0; past s* every partner links
    if s_star - s0 <= _QUAD_REL_TOL * head:
        return 0.5 * head
    top, scale = min(y, h.hi), math.exp(min(0.0, k * (math.log(h.hi) - log_y)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            body = integrate.quad(lambda s: (max(h(s), 0.0) / top) ** k, s0, s_star,
                                  epsabs=_QUAD_REL_TOL * head, epsrel=_QUAD_REL_TOL, limit=200)[0]
        except integrate.IntegrationWarning as exc:
            raise NumericError(f"link-function quadrature did not converge: {exc}") from exc
    return 0.5 * (head + scale * body)


@dataclass(frozen=True)
class PowerLawSchedule:
    """theta(n) = D * n^(1/a)."""

    D: float

    def __post_init__(self):
        _check_coefficient(self.D)

    def theta_for(self, n: int, pareto: ParetoParams) -> float:
        return theta_powerlaw_schedule(n, self.D, pareto.a)


@dataclass(frozen=True)
class CalibratedSchedule:
    """theta(n) solved so the expected edge count equals target(n)."""

    target: Callable[[int], float]

    def theta_for(self, n: int, pareto: ParetoParams) -> float:
        return calibrate_theta(n, pareto, self.target(n))
