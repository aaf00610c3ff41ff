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

from .errors import DimensionError, DomainError, NumericError, ResourceLimitError
from .streams import substream_draws

# Node ids per pass of the samplers.  Each numpy operation on a block allocates
# a fresh block-sized array (256 KiB per draw); that allocation is the cost of
# blocking, and at this size it stays in the L2 cache, where n-sized arrays
# would stream through memory once per operation.  Reusing one buffer per step
# measured no faster end to end.
_BLOCK = 1 << 15


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


def _node_array(n: int, *d: int, ids: bool = False) -> np.ndarray:
    """np.empty((n, *d)) for the node table, or its ids np.arange(n); ResourceLimitError where no such array can exist."""
    try:
        return np.arange(n) if ids else np.empty((n, *d))
    except (MemoryError, ValueError) as exc:  # ValueError: more bytes than an array may hold
        dims = "".join(f" in {k} dimensions" for k in d)
        raise ResourceLimitError(f"node table of {n} nodes{dims} does not fit ({exc})") from None


def sample_weights(n: int, seed: int, pareto: ParetoParams) -> np.ndarray:
    """The weights of nodes 0..n-1: draw 1 of each node's substream, by inverse CDF; NumericError if one is inf."""
    weights = _node_array(n)
    with np.errstate(over="ignore"):  # an infinite weight is refused below
        for lo in range(0, n, _BLOCK):
            u = substream_draws(seed, np.arange(lo, min(lo + _BLOCK, n)), [1])
            weights[lo : lo + len(u)] = pareto.w0 * (1.0 - u[:, 0]) ** (-1.0 / pareto.a)
    if n and weights.max() == math.inf:
        raise NumericError(f"a drawn weight passes the largest double (a={pareto.a}, w0={pareto.w0})")
    return weights


def sample_directions(seed: int, ids: np.ndarray, d: int) -> np.ndarray:
    """The directions of the nodes `ids`, in that order: shape (len(ids), d).

    From draw 2 of each node's substream on: for d = 3 a uniform z and
    azimuth, otherwise normalized standard normals.  A node's row does not
    depend on the other ids, so any array of ids gives those rows of
    `sample_node_table`, bit for bit.
    """
    if d < 2:
        raise DimensionError(f"direction dimension must be >= 2, got {d}")
    dirs = _node_array(len(ids), d)
    if d != 3:
        from scipy.special import ndtri  # not at module level: d = 3 never loads scipy
    for lo in range(0, len(ids), _BLOCK):
        u = substream_draws(seed, ids[lo : lo + _BLOCK], range(2, 4 if d == 3 else 2 + d))
        rows = dirs[lo : lo + len(u)]
        if d == 3:
            z = 2.0 * u[:, 0] - 1.0
            phi = 2.0 * np.pi * u[:, 1]
            s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
            np.multiply(s, np.cos(phi), out=rows[:, 0])
            np.multiply(s, np.sin(phi), out=rows[:, 1])
            rows[:, 2] = z
        else:
            # ndtri(0) is -inf; g in C order, because the norm sums a row of an F-ordered array in another order
            g = ndtri(np.maximum(u, 2.0 ** -64, order="C"))
            np.divide(g, np.linalg.norm(g, axis=1, keepdims=True), out=rows)
    return dirs


def sample_node_table(n: int, seed: int, pareto: ParetoParams, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The node table of nodes 0..n-1: (weights shape (n,), directions shape (n, d)).

    The directions, the larger array, are allocated first, so a table that
    cannot exist is refused before any draw.  `ids` is kept until the weights
    are allocated: freed before, it raises glibc's mmap threshold, and the
    weights then go on the heap, which a caller that keeps them cannot shrink.
    """
    ids = _node_array(n, ids=True)
    dirs = sample_directions(seed, ids, d)
    return sample_weights(n, seed, pareto), dirs
