"""Core model types and the node sampler.

A node carries a Pareto-distributed weight and a uniform direction on the
unit sphere; its latent vector is the product of the two.  Edges are decided
by comparing a (possibly transformed) product of weights and a direction dot
product against a threshold.  The comparison is non-strict: a pair exactly at
the threshold is linked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionError, DomainError, ResourceLimitError
from .streams import substream_uniforms

_BLOCK = 1 << 15  # node ids per pass of `sample_node_table`


@dataclass(frozen=True)
class ParetoParams:
    """Shape `a` and scale `w0` of the weight distribution (both positive and finite)."""

    a: float
    w0: float

    def __post_init__(self):
        if not (0.0 < self.a < math.inf):
            raise DomainError(f"Pareto shape must be positive and finite, got a={self.a}")
        if not (0.0 < self.w0 < math.inf):
            raise DomainError(f"Pareto scale must be positive and finite, got w0={self.w0}")


class _LinkKind(NamedTuple):
    params: dict  # the parameters the spec writes after the kind, in order -> the type each is read as
    h: Callable  # h(t, m, c) on [-1, 1]
    inverse: Callable | None  # h^-1(y, m, c) on [h(-1), h(1)]; None where h is not strictly increasing


# Each link kind, stated once.  A kind leaves every parameter not in its spec at its default.
_LINK_KINDS = {
    "identity": _LinkKind({}, lambda t, m, c: t, lambda y, m, c: float(y)),
    "exp": _LinkKind({}, lambda t, m, c: np.exp(t), lambda y, m, c: math.log(y)),
    "evenpow": _LinkKind({"m": int}, lambda t, m, c: t ** (2 * m), None),
    "oddpow": _LinkKind({"m": int, "c": float}, lambda t, m, c: t ** (2 * m + 1) + c,
                        lambda y, m, c: math.copysign(abs(y - c) ** (1.0 / (2 * m + 1)), y - c)),
}


@dataclass(frozen=True)
class LinkFn:
    """Transform h of the direction dot product on [-1, 1]; `kind` names its row of `_LINK_KINDS`.

    Analytic operations reject a kind with no inverse ("evenpow", t^(2m)).
    """

    kind: str
    m: int = 1
    c: float = 0.0

    def __post_init__(self):
        if self.kind not in _LINK_KINDS:
            raise DomainError(f"unknown link function {self.kind!r}")
        params = _LINK_KINDS[self.kind].params
        if "m" in params and not (isinstance(self.m, int) and self.m >= 1):
            raise DomainError(f"power index m must be a positive integer, got {self.m}")
        if not math.isfinite(self.c):
            raise DomainError(f"link constant c must be finite, got {self.c}")
        if any(getattr(self, p) != getattr(LinkFn, p) for p in ("m", "c") if p not in params):  # LinkFn.m is m's default
            raise DomainError(f"{self.kind!r} links take {' and '.join(params) or 'no parameters'}, got m={self.m}, c={self.c}")

    @property
    def strictly_increasing(self) -> bool:
        return _LINK_KINDS[self.kind].inverse is not None

    def __call__(self, t):
        out = _LINK_KINDS[self.kind].h(np.asarray(t, dtype=float), self.m, self.c)
        return out if out.ndim else float(out)

    @property
    def lo(self) -> float:
        """h(-1)."""
        return self(-1.0)

    @property
    def hi(self) -> float:
        """h(1), the maximum of h on [-1, 1] for every link kind."""
        return self(1.0)

    def inverse(self, y: float) -> float:
        """The t in [-1, 1] with h(t) = y, for a strictly increasing link."""
        if not self.strictly_increasing:
            raise DomainError(f"{self.kind!r} links are not invertible on [-1, 1]")
        if not (self.lo <= y <= self.hi):
            raise DomainError(f"value {y} outside link range [{self.lo}, {self.hi}]")
        t = _LINK_KINDS[self.kind].inverse(y, self.m, self.c)
        # y - c rounds, so at the ends of the range t may step just outside [-1, 1]
        return min(1.0, max(-1.0, t))

    def spec(self) -> str:
        """The kind and its parameters joined by ":", each as the shortest text that reads back to it."""
        return ":".join([self.kind, *(repr(read(getattr(self, p))) for p, read in _LINK_KINDS[self.kind].params.items())])

    @staticmethod
    def parse(text: str) -> "LinkFn":
        """The link whose `spec()` is `text`."""
        kind, *fields = text.split(":")
        params = _LINK_KINDS[kind].params if kind in _LINK_KINDS else {}  # an unknown kind is refused by the constructor
        if kind in _LINK_KINDS and len(fields) != len(params):
            raise DomainError(f"expected {':'.join([kind, *params])}, got {text!r}")
        try:
            return LinkFn(kind, *(read(field) for read, field in zip(params.values(), fields)))
        except ValueError:
            raise DomainError(f"link function {text!r}: m must be an integer and c a number") from None


def _check_theta(theta: float) -> None:
    if not (theta >= 0):
        raise DomainError(f"threshold must be non-negative, got theta={theta}")


def _check_exponents(alpha: float, beta: float) -> None:
    if not (0.0 < alpha < math.inf and 0.0 < beta < math.inf):
        raise DomainError(f"alpha and beta must be positive and finite, got {alpha}, {beta}")


class Variant(str, Enum):
    UNDIRECTED = "undirected"
    DIRECTED = "directed"
    LINKFN = "linkfn"


@dataclass(frozen=True)
class EdgeRule:
    """Edge-existence rule: arc u -> v exists when

        w_u^alpha * w_v^beta * h(dot) >= theta.

    Undirected:   alpha = beta = 1, h the identity; each pair decided once
    Directed:     h the identity
    LinkFunction: any alpha, beta and h
    """

    variant: Variant
    theta: float
    alpha: float
    beta: float
    h: LinkFn

    def __post_init__(self):
        try:
            object.__setattr__(self, "variant", Variant(self.variant))  # a plain string becomes its member
        except ValueError:
            raise DomainError(f"unknown rule variant {self.variant!r}") from None
        _check_theta(self.theta)
        if self.alpha is None or self.beta is None:
            raise DomainError(f"{self.variant.value} rule requires alpha and beta")
        _check_exponents(self.alpha, self.beta)
        if self.h is None:
            raise DomainError(f"{self.variant.value} rule requires a link function")
        if self.variant != Variant.LINKFN and self.h.kind != "identity":
            raise DomainError(f"{self.variant.value} rule takes the identity link, got {self.h.spec()}")
        if self.variant == Variant.UNDIRECTED and (self.alpha, self.beta) != (1.0, 1.0):
            raise DomainError(f"undirected rule takes alpha = beta = 1, got {self.alpha}, {self.beta}")

    @staticmethod
    def undirected(theta: float) -> "EdgeRule":
        return EdgeRule(Variant.UNDIRECTED, theta, 1.0, 1.0, LinkFn("identity"))

    @property
    def is_directed(self) -> bool:
        """Whether the reverse arc v -> u is decided apart from u -> v."""
        return self.variant != Variant.UNDIRECTED


@dataclass(frozen=True)
class ModelConfig:
    n: int
    d: int
    pareto: ParetoParams
    rule: EdgeRule
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"node count must be >= 1, got {self.n}")
        if self.d < 2:
            raise DimensionError(f"ambient dimension must be >= 2, got {self.d}")
        if not (0 <= self.seed < 2 ** 64):
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


def sample_node_table(n: int, seed: int, pareto: ParetoParams, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The node table: (weights shape (n,), directions shape (n, d)).

    Node i's substream gives its inverse-CDF Pareto weight, then its direction:
    for d = 3 a uniform z and azimuth, otherwise normalized standard normals.
    """
    if d < 2:
        raise DimensionError(f"direction dimension must be >= 2, got {d}")
    if d != 3:
        from scipy.special import ndtri  # not at module level: d = 3 never loads scipy
    # One block of _BLOCK ids at a time, written straight into the output rows,
    # so no n-sized temporary exists besides the two outputs.  A block's
    # per-node temporaries (keys, z, phi, ...) are 256 KiB each and stay in
    # the L2 cache, where n-sized ones would stream through memory once per
    # operation of the mix and the direction arithmetic.
    try:
        weights = np.empty(n)
        dirs = np.empty((n, d))
    except (MemoryError, ValueError) as exc:  # ValueError: more bytes than an array may hold
        raise ResourceLimitError(f"node table of {n} nodes in {d} dimensions does not fit ({exc})") from None
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        u = substream_uniforms(seed, np.arange(lo, hi), 3 if d == 3 else 1 + d)
        weights[lo:hi] = pareto.w0 * (1.0 - u[:, 0]) ** (-1.0 / pareto.a)
        if d == 3:
            z = 2.0 * u[:, 1] - 1.0
            phi = 2.0 * np.pi * u[:, 2]
            s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
            np.multiply(s, np.cos(phi), out=dirs[lo:hi, 0])
            np.multiply(s, np.sin(phi), out=dirs[lo:hi, 1])
            dirs[lo:hi, 2] = z
        else:
            g = ndtri(np.maximum(u[:, 1:], 2.0 ** -64))  # ndtri(0) is -inf
            np.divide(g, np.linalg.norm(g, axis=1, keepdims=True), out=dirs[lo:hi])
    return weights, dirs
