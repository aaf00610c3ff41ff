"""Graph materialization: node sampling, pair pruning, edge enumeration.

Generation is two-phase: sample every node from its substream, then decide
all pairs.  Pair enumeration sorts nodes by weight once and prunes on the
maximal achievable left-hand side (direction dot product at its maximum),
which is monotone in both weights, so each outer row's partners are one
contiguous slice of the sorted nodes.  The slice is decided in blocks of at
most _PAIR_BLOCK partners, a few vectorized steps whose temporaries stay in
cache, with the edge guard checked after every block.  One function,
`_decide`, makes and counts those decisions: `generate` has it list the
edges too, and a growth sweep only counts them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceLimitError
from .model import EdgeRule, ModelConfig, sample_node_table

DEFAULT_MAX_EDGES = 10 ** 8
_PAIR_BLOCK = 1 << 14  # partners of one outer row decided per step of `_decide`


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
    # inclusive at the boundary despite rounding: one ulp of slack only ever
    # admits extra candidates, never drops one
    try:
        w_min = np.nextafter((rule.theta / h_max) ** (1.0 / (e_hi + e_lo)), 0.0)
    except OverflowError:  # a bound past the largest double: no row reaches it
        return np.empty(0, dtype=np.int64)
    w_asc = ws[::-1]
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


def _decide(ws: np.ndarray, xs: np.ndarray, rule: EdgeRule, guard: int, ids: np.ndarray | None = None):
    """(edges, candidates, keys) of the weight-ordered rows `ws`, `xs`; keys only given the rows' node `ids`.

    Each block of row p's partners q in lo..hi-1 evaluates `ws[p] ** alpha *
    ws[q] ** beta * f >= theta` (directed, also `ws[q] ** alpha * ws[p] **
    beta * f >= theta`) product by product in that order, so no decision
    depends on the block size.  Raises ResourceLimitError as soon as the running edge count
    exceeds `guard`.  The keys are src*n + dst, unsorted.
    """
    # at theta = 0, h(dot) >= 0 alone decides: powers of exactly 1 keep an underflowing weight product out of it
    alpha, beta = (rule.alpha, rule.beta) if rule.theta > 0 else (0.0, 0.0)
    n = len(ws)
    keys = [np.empty(0, dtype=np.int64)]
    n_edges = n_cand = 0
    # A weight power past the largest double is inf: inf * h(dot) keeps h's sign, and
    # inf * 0 is NaN, which fails >= theta > 0 (theta = 0 takes powers 0).  So each pair
    # gets the float predicate's decision, as in the pair-by-pair reference, unwarned.
    with np.errstate(over="ignore", invalid="ignore"):
        for p, cut in enumerate(_partner_cutoffs(ws, rule).tolist()):
            for lo in range(p + 1, cut, _PAIR_BLOCK):
                hi = min(lo + _PAIR_BLOCK, cut)
                f = rule.h(xs[lo:hi] @ xs[p])
                masks = [_holds(ws[p] ** alpha, ws[lo:hi] ** beta, f, rule.theta)]
                if rule.is_directed:
                    masks.append(_holds(ws[p] ** beta, ws[lo:hi] ** alpha, f, rule.theta))
                n_cand += hi - lo
                n_edges += sum(int(np.count_nonzero(mask)) for mask in masks)
                if n_edges > guard:
                    raise ResourceLimitError(f"edge count {n_edges} exceeds guard {guard}; raise --max-edges if intended")
                if ids is None:
                    continue
                u, vs = ids[p], ids[lo:hi]
                if rule.is_directed:
                    keys += [u * n + vs[masks[0]], vs[masks[1]] * n + u]
                else:
                    hit = vs[masks[0]]
                    keys.append(np.minimum(u, hit) * n + np.maximum(u, hit))
    return n_edges, n_cand, None if ids is None else np.concatenate(keys)


def generate(config: ModelConfig, max_edges: int = DEFAULT_MAX_EDGES) -> Graph:
    """Materialize the graph for `config`.

    Deterministic in (config.seed, config).  Raises ResourceLimitError as
    soon as the running edge count exceeds `max_edges`.
    """
    if max_edges < 0:
        raise DomainError(f"edge guard must be non-negative, got max_edges={max_edges}")
    weights, dirs = sample_node_table(config.n, config.seed, config.pareto, config.d)
    order = _weight_order(weights)
    # the rows in weight order (np.take gathers dirs[order] about 3x faster) live
    # only in the call, so they and the order are freed before the keys are sorted
    _, n_cand, keys = _decide(weights[order], np.take(dirs, order, axis=0), config.rule, max_edges, order)
    del order
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
