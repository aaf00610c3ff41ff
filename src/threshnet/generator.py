"""Graph materialization: node sampling, pair pruning, edge enumeration.

Generation is two-phase: sample every node from its substream, then decide
all pairs.  Pair enumeration sorts nodes by weight once and prunes on the
maximal achievable left-hand side (direction dot product at its maximum),
which is monotone in both weights, so each outer row's partners are one
contiguous slice of the sorted nodes.  The slice is decided in blocks of at
most _PAIR_BLOCK partners, a few vectorized steps whose temporaries stay in
cache, with the edge guard checked after every block.  One loop,
`_decided_blocks`, makes those decisions: `generate` lists the edges it
yields, and a growth sweep only counts them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceLimitError
from .model import EdgeRule, ModelConfig, sample_node_table

DEFAULT_MAX_EDGES = 10 ** 8
_PAIR_BLOCK = 1 << 14  # partners of one outer row decided per step of `_decided_blocks`


@dataclass
class Graph:
    """The node table plus the edge set (pairs with i < j, or directed arcs)."""

    weights: np.ndarray
    directions: np.ndarray
    edges: np.ndarray  # shape (E, 2), int64, lexicographically sorted
    directed: bool
    n_candidates: int = 0

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degree_sequence(self):
        return degree_sequence(self.edges, self.n, self.directed)


def _partner_cutoffs(ws: np.ndarray, rule: EdgeRule) -> np.ndarray:
    """Partner cutoff of each outer row that weight pruning keeps.

    `ws` holds the weights in descending order.  The candidate partners of
    outer row p are the sorted indices q in [p+1, cuts[p]).  The array stops
    at the first row whose weight cannot reach theta even with itself, so its
    length is the outer limit.  Pruning bounds the dot transform by its
    maximum h(1) and is monotone in both weights.
    """
    n = len(ws)
    e_hi, e_lo = max(rule.alpha, rule.beta), min(rule.alpha, rule.beta)
    h_max = rule.h.hi
    if h_max < 0 or (h_max == 0 and rule.theta > 0):
        return np.empty(0, dtype=np.int64)
    if rule.theta <= 0:
        return np.full(n, n, dtype=np.int64)
    w_asc = ws[::-1]
    # inclusive at the boundary despite rounding: one ulp of slack only ever
    # admits extra candidates, never drops one
    w_min = np.nextafter((rule.theta / h_max) ** (1.0 / (e_hi + e_lo)), 0.0)
    limit = n - np.searchsorted(w_asc, w_min, side="left")
    partner_min = np.nextafter((rule.theta / (h_max * ws[:limit] ** e_hi)) ** (1.0 / e_lo), 0.0)
    return n - np.searchsorted(w_asc, partner_min, side="left")


def _weight_order(weights: np.ndarray) -> np.ndarray:
    """Node ids in descending weight order, tied weights in ascending id order.

    One sort of packed uint64 keys: the complemented bits of a non-negative
    double fall as the double rises, so their high bits, with the node id in
    the low ceil(log2 n), sort heaviest first.  Only runs whose truncated
    keys tie are sorted again, stably by their full weight bits.  The order
    of tied weights changes neither the edge set nor the candidate count,
    because the pruning bound is symmetric in equal weights, every pair is
    decided once from its outer row (both arcs for a directed rule, with a
    symmetric predicate otherwise) and `_canonical` sorts the edges; it is
    fixed here so that it is the same on every CPU.
    """
    n = len(weights)
    shift = np.uint64((n - 1).bit_length() if n else 0)
    keys = ~weights.view(np.uint64) >> shift << shift
    keys |= np.arange(n, dtype=np.uint64)
    keys.sort()
    high = keys >> shift
    tied = high[1:] == high[:-1]
    del high
    keys &= (np.uint64(1) << shift) - np.uint64(1)
    order = keys.view(np.int64)
    if tied.any():
        # the runs stay apart in a sort by the full bits, since their truncated keys differ
        at = np.flatnonzero(np.concatenate(([False], tied)) | np.concatenate((tied, [False])))
        ids = order[at]
        order[at] = ids[np.argsort(~weights.view(np.uint64)[ids], kind="stable")]
    return order


def _canonical(keys: np.ndarray, n: int) -> np.ndarray:
    """Edges with keys src*n + dst as an (E, 2) int64 array sorted by (src, dst).

    Consumes `keys`: they are sorted in place, and the edge array is the
    only new allocation (16 B per edge).
    """
    # one int64 key per edge: src*n + dst < n**2 < 2**63 for any n whose node
    # table fits in memory, so the key sort is the lexicographic edge sort
    keys.sort()
    edges = np.empty((len(keys), 2), dtype=np.int64)
    np.divmod(keys, n, out=(edges[:, 0], edges[:, 1]))
    return edges


def _holds(w_p: float, w_q_pow: np.ndarray, f: np.ndarray, theta: float) -> np.ndarray:
    """`w_p * w_q_pow * f >= theta`, overwriting `w_q_pow` (what `**` returns: a copy even at 1)."""
    w_q_pow *= w_p
    w_q_pow *= f
    return w_q_pow >= theta


def _by_weight(weights: np.ndarray, dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, ws, xs): `_weight_order(weights)` and the node table's rows in that order."""
    order = _weight_order(weights)
    return order, weights[order], np.take(dirs, order, axis=0)  # the rows of dirs[order], gathered about 3x faster


def _decided_blocks(ws: np.ndarray, xs: np.ndarray, rule: EdgeRule, guard: int):
    """Yield (p, lo, hi, masks) for each block of candidate pairs of the weight-ordered rows `ws`, `xs`.

    The block pairs outer row p with partners lo..hi-1; masks[0][k] says
    whether p links to partner lo+k, and for a directed rule masks[1][k]
    whether partner lo+k links to p.  Each block keeps its temporaries in
    cache and evaluates `ws[p] ** alpha * wq ** beta * f >= theta` (and for a
    directed rule `wq ** alpha * ws[p] ** beta * f >= theta`) product by
    product in that order, so no decision depends on the block size.  Raises
    ResourceLimitError as soon as the running edge count exceeds `guard`.
    """
    # at theta = 0, h(dot) >= 0 alone decides: powers of exactly 1 keep an underflowing weight product out of it
    alpha, beta = (rule.alpha, rule.beta) if rule.theta > 0 else (0.0, 0.0)
    # A weight power past the largest double is inf: inf * h(dot) keeps h's sign, and
    # inf * 0 is NaN, which fails >= theta > 0 (theta = 0 takes powers 0).  So each pair
    # gets the float predicate's decision, as in the pair-by-pair reference, unwarned.
    # No yield is inside an errstate, so the caller's own numpy error state holds between blocks.
    with np.errstate(over="ignore", invalid="ignore"):
        cuts = _partner_cutoffs(ws, rule).tolist()
    n_edges = 0
    for p, cut in enumerate(cuts):
        for lo in range(p + 1, cut, _PAIR_BLOCK):
            hi = min(lo + _PAIR_BLOCK, cut)
            wq = ws[lo:hi]
            with np.errstate(over="ignore", invalid="ignore"):
                f = rule.h(xs[lo:hi] @ xs[p])
                masks = [_holds(ws[p] ** alpha, wq ** beta, f, rule.theta)]
                if rule.is_directed:
                    masks.append(_holds(ws[p] ** beta, wq ** alpha, f, rule.theta))
            n_edges += sum(map(np.count_nonzero, masks))
            if n_edges > guard:
                raise ResourceLimitError(f"edge count {n_edges} exceeds guard {guard}; raise --max-edges if intended")
            yield p, lo, hi, masks


def _edge_keys(weights: np.ndarray, dirs: np.ndarray, rule: EdgeRule, guard: int) -> tuple[np.ndarray, int]:
    """Keys src*n + dst of every edge, unsorted, and the number of pairs decided.

    The node table sorted by weight lives only in here, so it is freed
    before the keys are sorted.
    """
    n = len(weights)
    order, ws, xs = _by_weight(weights, dirs)
    keys = [np.empty(0, dtype=np.int64)]
    n_cand = 0
    for p, lo, hi, masks in _decided_blocks(ws, xs, rule, guard):
        u, vs = order[p], order[lo:hi]
        n_cand += len(vs)
        if rule.is_directed:
            keys += [u * n + vs[masks[0]], vs[masks[1]] * n + u]
        else:
            hit = vs[masks[0]]
            keys.append(np.minimum(u, hit) * n + np.maximum(u, hit))
    return np.concatenate(keys), n_cand


def _edge_count(ws: np.ndarray, xs: np.ndarray, rule: EdgeRule, guard: int) -> int:
    """Number of edges among weight-ordered rows `ws`, `xs` (see `_by_weight`), none of them listed."""
    return sum(int(np.count_nonzero(mask)) for *_, masks in _decided_blocks(ws, xs, rule, guard) for mask in masks)


def generate(config: ModelConfig, max_edges: int = DEFAULT_MAX_EDGES) -> Graph:
    """Materialize the graph for `config`.

    Deterministic in (config.seed, config).  Raises ResourceLimitError as
    soon as the running edge count exceeds `max_edges`.
    """
    if max_edges < 0:
        raise DomainError(f"edge guard must be non-negative, got max_edges={max_edges}")
    weights, dirs = sample_node_table(config.n, config.seed, config.pareto, config.d)
    keys, n_cand = _edge_keys(weights, dirs, config.rule, max_edges)
    return Graph(
        weights=weights,
        directions=dirs,
        edges=_canonical(keys, config.n),
        directed=config.rule.is_directed,
        n_candidates=n_cand,
    )


def degree_sequence(edges: np.ndarray, n: int, directed: bool):
    """Degrees of nodes 0..n-1 in an (E, 2) edge array of ids in [0, n).

    Undirected: one degree array.  Directed: (out_degrees, in_degrees).
    """
    if directed:
        return np.bincount(edges[:, 0], minlength=n), np.bincount(edges[:, 1], minlength=n)
    return np.bincount(edges.ravel(), minlength=n)
