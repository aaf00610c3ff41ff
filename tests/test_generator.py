import hashlib
import math
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from threshnet import (
    DomainError,
    EdgeRule,
    Graph,
    LinkFn,
    ModelConfig,
    ParetoParams,
    ResourceLimitError,
    generate,
)
from threshnet.generator import _canonical, _decide, _weight_order
from threshnet.model import Variant, sample_node_table

import oracles
from oracles import candidate_pairs, directed_rule, generate_naive, linkfn_rule, pair_can_link


def _config(n, theta, seed=0, rule=None, pareto=None, d=3):
    pareto = pareto or ParetoParams(3, 1)
    rule = rule or EdgeRule.undirected(theta)
    return ModelConfig(n=n, d=d, pareto=pareto, rule=rule, seed=seed)


def test_single_node_has_no_edges():
    g = generate(_config(1, 0.0))
    assert g.n_edges == 0
    assert g.edges.shape == (0, 2)


def test_matches_naive_reference_spec_point():
    config = _config(2000, 12.6, seed=42)
    assert np.array_equal(generate(config).edges, generate_naive(config).edges)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "rule",
    [
        EdgeRule.undirected(7.4),
        directed_rule(7.4, 1.0, 2.0),
        linkfn_rule(2.0, 1.0, 2.0, LinkFn("exp")),
        linkfn_rule(0.4, 0.5, 1.5, LinkFn("evenpow", 1)),
        linkfn_rule(1.0, 1.0, 1.0, LinkFn("oddpow", 1, -0.2)),
    ],
    ids=["undirected", "directed", "exp", "evenpow", "oddpow"],
)
def test_pruned_equals_naive(rule, seed):
    config = _config(400, rule.theta, seed=seed, rule=rule)
    pruned = generate(config)
    naive = generate_naive(config)
    assert np.array_equal(pruned.edges, naive.edges)
    assert pruned.n_candidates <= naive.n_candidates


@pytest.mark.parametrize(
    "rule",
    [
        EdgeRule.undirected(0.0),
        directed_rule(0.0, 1.0, 2.0),
        linkfn_rule(0.0, 0.5, 1.5, LinkFn("oddpow", 1, -0.2)),
    ],
    ids=["undirected", "directed", "oddpow"],
)
def test_theta_zero_edges_do_not_depend_on_w0(rule):
    # at theta = 0 the weights drop out; w0 = 1e-200 underflows every weight
    # product, which must not link a pair whose h(dot) is negative
    tiny, unit = (_config(60, 0.0, seed=3, rule=rule, pareto=ParetoParams(3, w0)) for w0 in (1e-200, 1.0))
    edges = generate(unit).edges
    assert 0 < len(edges) < 60 * 59 // (1 if rule.is_directed else 2)
    for config in (tiny, unit):
        assert np.array_equal(generate(config).edges, edges)
        assert np.array_equal(generate_naive(config).edges, edges)
    weights, dirs = sample_node_table(60, 3, ParetoParams(3, 1e-200), 3)
    nodes = [oracles.Node(i, w, x) for i, (w, x) in enumerate(zip(weights.tolist(), dirs))]
    arcs = [(u.id, v.id) for u in nodes for v in nodes if u.id != v.id and oracles.edge_exists(u, v, rule)]
    assert {tuple(e) for e in edges.tolist()} == {(i, j) for i, j in arcs if rule.is_directed or i < j}


@pytest.mark.parametrize(
    "config, n_candidates, n_edges",
    [
        # w0 = 1e200 takes every weight product past the largest double
        (_config(50, 1.0, pareto=ParetoParams(3, 1e200)), 1225, 614),
        (_config(50, 1.0, rule=directed_rule(1.0, 2.0, 1.0), pareto=ParetoParams(3, 1e200)), 1225, 1228),
        # the pruning bound (theta / h(1)) ** (1 / (alpha + beta)) = 1e300 ** 5e7: no weight reaches it
        (_config(200, 1e300, rule=directed_rule(1e300, 1e-8, 1e-8)), 0, 0),
    ],
    ids=["undirected", "directed", "bound"],
)
def test_overflowing_weight_powers_decide_as_naive_without_warnings(config, n_candidates, n_edges):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        graph = generate(config)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.array_equal(graph.edges, generate_naive(config).edges)
    assert (graph.n_candidates, graph.n_edges) == (n_candidates, n_edges)


@pytest.mark.parametrize("max_edges", [10 ** 6, 100], ids=["returns", "guard-raises"])
def test_generate_leaves_the_callers_numpy_error_state(max_edges):
    # w0 = 1e200 overflows every weight product, which the decide loop ignores only inside itself
    config = _config(50, 1.0, pareto=ParetoParams(3, 1e200))
    with np.errstate(all="raise"):
        caller = np.geterr()
        try:
            generate(config, max_edges)
        except ResourceLimitError:
            assert max_edges == 100
        else:
            assert max_edges == 10 ** 6
        assert np.geterr() == caller


_LINKS = st.one_of(
    st.just(LinkFn("identity")),
    st.just(LinkFn("exp")),
    st.builds(LinkFn, st.just("oddpow"), st.integers(1, 3), st.floats(-2.0, 2.0)),
    st.builds(LinkFn, st.just("evenpow"), st.integers(1, 3)),
)


@settings(max_examples=80, deadline=None)
@given(
    variant=st.sampled_from(list(Variant)),
    h=_LINKS,
    a=st.floats(1.5, 5.0),
    w0=st.floats(0.5, 3.0),
    scale=st.floats(0.0, 20.0),
    alpha=st.floats(0.5, 3.0),
    beta=st.floats(0.5, 3.0),
    d=st.integers(2, 5),
    n=st.integers(1, 300),
    seed=st.integers(0, 2 ** 63 - 1),
)
def test_pruned_equals_naive_property(variant, h, a, w0, scale, alpha, beta, d, n, seed):
    # theta in units of the lightest possible pair, so every rule sees sparse and dense graphs
    if variant is Variant.UNDIRECTED:
        rule = EdgeRule.undirected(scale * w0 ** 2)
    elif variant is Variant.DIRECTED:
        rule = directed_rule(scale * w0 ** (alpha + beta), alpha, beta)
    else:
        rule = linkfn_rule(scale * w0 ** (alpha + beta), alpha, beta, h)
    config = _config(n, rule.theta, seed=seed, rule=rule, pareto=ParetoParams(a, w0), d=d)
    pruned = generate(config)
    naive = generate_naive(config)
    assert pruned.edges.dtype == np.int64
    assert np.array_equal(pruned.edges, naive.edges)
    candidates = candidate_pairs(pruned.weights, rule)
    assert pruned.n_candidates == len(candidates)
    # the candidates are the pairs whose weights can reach theta, up to the
    # pruner's rounding slack at the boundary
    got = {tuple(sorted(pair)) for pair in candidates}
    surely = _pairs_that_can_link(pruned.weights, rule, rule.theta * (1 + 1e-9))
    at_most = _pairs_that_can_link(pruned.weights, rule, rule.theta * (1 - 1e-9))
    assert surely <= got <= at_most


def _pairs_that_can_link(weights, rule, theta):
    i, j = np.triu_indices(len(weights), 1)
    ok = pair_can_link(weights[i], weights[j], replace(rule, theta=theta))
    return set(zip(i[ok].tolist(), j[ok].tolist()))


def _tied_node_table(n, seed, pareto, d):
    weights, dirs = sample_node_table(n, seed, pareto, d)
    return np.round(weights, 1), dirs  # w0 = 1, so every rounded weight stays >= w0


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["undirected", "directed", "exp"]),
    a=st.floats(1.5, 4.0),
    scale=st.floats(0.0, 12.0),
    alpha=st.floats(0.5, 3.0),
    beta=st.floats(0.5, 3.0),
    n=st.integers(380, 420),
    seed=st.integers(0, 2 ** 63 - 1),
)
def test_tied_weights_give_naive_edges_and_tie_free_candidate_count(kind, a, scale, alpha, beta, n, seed):
    # weights rounded to 0.1 tie in long runs
    if kind == "undirected":
        rule = EdgeRule.undirected(scale)
    elif kind == "directed":
        rule = directed_rule(scale, alpha, beta)
    else:
        rule = linkfn_rule(scale, alpha, beta, LinkFn("exp"))
    config = _config(n, rule.theta, seed=seed, rule=rule, pareto=ParetoParams(a, 1.0))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("threshnet.generator.sample_node_table", _tied_node_table)
        patch.setattr(oracles, "sample_node_table", _tied_node_table)
        pruned = generate(config)
        naive = generate_naive(config)
    assert len(np.unique(pruned.weights)) < n // 2
    assert np.array_equal(pruned.edges, naive.edges)
    # the candidates are the unordered pairs whose weights can reach theta,
    # a count that no order of tied weights changes, up to the pruner's slack
    surely = _pairs_that_can_link(pruned.weights, rule, rule.theta * (1 + 1e-9))
    at_most = _pairs_that_can_link(pruned.weights, rule, rule.theta * (1 - 1e-9))
    assert len(surely) <= pruned.n_candidates <= len(at_most)


def _assert_weight_order(weights, order):
    n = len(weights)
    assert order.dtype == np.int64
    assert np.array_equal(np.sort(order), np.arange(n))
    ws = weights[order]
    assert np.all(ws[1:] <= ws[:-1])
    ties = ws[1:] == ws[:-1]
    assert np.all(order[1:][ties] > order[:-1][ties])


def test_weight_order_is_a_descending_permutation():
    weights = np.round(1.0 + np.random.default_rng(3).pareto(2.0, 5000), 1)
    _assert_weight_order(weights, _weight_order(weights))


_SPECIAL_WEIGHTS = st.sampled_from([0.0, math.inf, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 1e300])


@settings(max_examples=200, deadline=None)
@given(
    n=st.sampled_from([1, 2]) | st.builds(lambda k, d: 2 ** k + d, st.integers(1, 12), st.integers(-1, 1)),
    atoms=st.lists(_SPECIAL_WEIGHTS | st.floats(1e-300, 1e300), min_size=1, max_size=6),
    last_bits=st.integers(0, 16),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_weight_order_is_exact_on_ties_near_ties_and_special_values(n, atoms, last_bits, seed):
    # each finite atom spreads over its next `last_bits` doubles, which differ from it only in
    # the last mantissa bits, where the packed keys hold the node id; few atoms make long runs
    # of exact ties
    rng = np.random.default_rng(seed)
    base = rng.choice(np.array(atoms), n)
    spread = (base.view(np.uint64) + rng.integers(0, last_bits + 1, n, dtype=np.uint64)).view(np.float64)
    weights = np.where(np.isfinite(spread), spread, base)
    _assert_weight_order(weights, _weight_order(weights))


def test_weight_order_is_exact_and_no_slower_than_argsort_at_3e7():
    # R2's weight law at ten times R2's size, where about a quarter of the positions tie in the packed keys
    n = 30_000_000
    weights = (1.0 - np.random.default_rng(5).random(n)) ** (-1.0 / 3.0)
    start = time.perf_counter()
    order = _weight_order(weights)
    packed = time.perf_counter() - start
    seen = np.zeros(n, dtype=bool)
    seen[order] = True
    ws = weights[order]
    ties = ws[1:] == ws[:-1]
    assert seen.all() and np.all(ws[1:] <= ws[:-1]) and np.all(order[1:][ties] > order[:-1][ties])
    del order, seen, ws, ties
    start = time.perf_counter()
    np.argsort(-weights)
    assert packed <= time.perf_counter() - start


def _keys(config):
    weights, dirs = sample_node_table(config.n, config.seed, config.pareto, config.d)
    order = _weight_order(weights)
    return _decide(weights[order], dirs[order], config.rule, 10 ** 9, order)[2]


@pytest.mark.parametrize(
    "config",
    [_config(300_000, 66.9, seed=1), _config(20_000, 8.0, seed=2, rule=directed_rule(8.0, 1.0, 2.0))],
    ids=["r1", "directed"],
)
def test_canonical_in_place_gives_the_sorted_edge_array(config):
    keys = _keys(config)
    expected = np.column_stack(np.divmod(np.sort(keys), config.n))
    edges = _canonical(keys, config.n)
    assert len(edges) > 10_000
    assert edges.dtype == expected.dtype == np.int64
    assert edges.flags.c_contiguous
    assert np.array_equal(edges, expected)


def test_canonical_allocates_16_bytes_per_edge_above_its_keys():
    keys = _keys(_config(300_000, 66.9, seed=1))  # R1
    tracemalloc.start()
    try:
        edges = _canonical(keys, 300_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (E, 2) edge array; the slack of 64 KiB is for ufunc buffers (1.7 kB measured)
    assert peak <= 16 * len(edges) + 65536


def test_edge_guard_fires_while_deciding(monkeypatch):
    calls = []
    link = LinkFn.__call__
    monkeypatch.setattr(LinkFn, "__call__", lambda self, t: calls.append(t) or link(self, t))
    rule = linkfn_rule(0.0, 1.0, 1.0, LinkFn("identity"))
    with pytest.raises(ResourceLimitError):
        generate(_config(2000, 0.0, rule=rule), max_edges=1000)
    # the heaviest row alone yields about 2000 arcs, in one block; no other row is decided
    rows = [t for t in calls if np.ndim(t)]
    assert [len(t) for t in rows] == [1999]


def test_edge_guard_fires_in_the_block_that_crosses_it(monkeypatch):
    calls = []
    link = LinkFn.__call__
    monkeypatch.setattr(LinkFn, "__call__", lambda self, t: calls.append(t) or link(self, t))
    monkeypatch.setattr("threshnet.generator._PAIR_BLOCK", 500)
    rule = linkfn_rule(0.0, 1.0, 1.0, LinkFn("identity"))
    # each 500-partner block of row 0 yields about 500 arcs, so the guard falls in its second block
    with pytest.raises(ResourceLimitError, match="exceeds guard 750"):
        generate(_config(2000, 0.0, rule=rule), max_edges=750)
    blocks = [t for t in calls if np.ndim(t)]
    assert [len(t) for t in blocks] == [500, 500]


# 1, 0.5 and 2 are the exponents numpy's `**` takes a shortcut for; at 1 it still
# returns a copy, which the decide loop's in-place products rely on
_EXPONENTS = st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.5, 3.0)


@settings(max_examples=60, deadline=None)
@given(
    block=st.integers(3, 7),
    kind=st.sampled_from(["undirected", "directed", "oddpow"]),
    scale=st.floats(0.0, 4.0),
    alpha=_EXPONENTS,
    beta=_EXPONENTS,
    n=st.integers(1, 80),
    seed=st.integers(0, 2 ** 63 - 1),
)
def test_small_pair_blocks_equal_naive(block, kind, scale, alpha, beta, n, seed):
    # blocks of 3 to 7 partners split the heavy rows of graphs this size into several
    if kind == "undirected":
        rule = EdgeRule.undirected(scale)
    elif kind == "directed":
        rule = directed_rule(scale, alpha, beta if beta != alpha else beta + 0.5)
    else:
        rule = linkfn_rule(scale, alpha, beta, LinkFn("oddpow", 1, -0.2))
    config = _config(n, rule.theta, seed=seed, rule=rule)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("threshnet.generator._PAIR_BLOCK", block)
        pruned = generate(config)
    naive = generate_naive(config)
    assert np.array_equal(pruned.edges, naive.edges)
    # generate_naive decides every pair: its count is the pruned one only at theta = 0
    assert pruned.n_candidates == len(candidate_pairs(pruned.weights, rule))
    if rule.theta == 0.0:
        assert pruned.n_candidates == naive.n_candidates


def test_undirected_edges_canonical():
    g = generate(_config(1500, 11.4, seed=9))
    assert g.n_edges > 0
    assert np.all(g.edges[:, 0] < g.edges[:, 1])
    # lexicographic, duplicate-free
    keys = g.edges[:, 0] * g.n + g.edges[:, 1]
    assert np.all(np.diff(keys) > 0)


def test_directed_alpha_equals_beta_arcs_paired():
    rule = directed_rule(10.0, 1.5, 1.5)
    g = generate(_config(800, rule.theta, seed=4, rule=rule))
    arcs = {(int(i), int(j)) for i, j in g.edges}
    assert arcs, "expected some arcs"
    assert all((j, i) in arcs for i, j in arcs)


def test_theta_zero_yields_half_of_pairs():
    n = 300
    g = generate(_config(n, 0.0, seed=6))
    # dot >= 0 holds for half of all pairs in expectation
    pairs = n * (n - 1) / 2
    assert abs(g.n_edges - pairs / 2) < 4 * np.sqrt(pairs / 4)
    assert g.n_candidates == pairs


def test_candidate_pairs_theta_zero_all_pairs():
    got = candidate_pairs([3.0, 2.0, 1.0, 1.5], EdgeRule.undirected(0.0))
    assert len(got) == 6


def test_candidate_pairs_prunes_light_pair():
    got = candidate_pairs([10.0, 1.0, 1.0], EdgeRule.undirected(5.0))
    assert got == {(0, 1), (0, 2)}


def test_candidate_pairs_boundary_inclusive():
    got = candidate_pairs([2.0, 2.5, 1.0], EdgeRule.undirected(5.0))
    assert (1, 0) in got or (0, 1) in got
    # theta is the rounded product of the two weights, but theta / 8.09... rounds above 3.96...
    got = candidate_pairs([8.095858330855638, 3.9675854484918296], EdgeRule.undirected(32.12100970655418))
    assert got == {(0, 1)}


def test_candidate_pairs_superset_of_edges():
    config = _config(3000, 14.4, seed=5)
    naive = generate_naive(config)
    yielded = candidate_pairs(naive.weights, config.rule)
    edges = {(int(i), int(j)) for i, j in naive.edges}
    normalized = {tuple(sorted(p)) for p in yielded}
    assert edges <= normalized
    assert len(yielded) < config.n ** 2 / 2 * 0.05


def test_candidate_pairs_negative_max_link():
    # max of h on [-1, 1] is negative: nothing can reach a positive threshold
    rule = linkfn_rule(1.0, 1.0, 1.0, LinkFn("oddpow", 1, -2.0))
    assert candidate_pairs([5.0, 4.0, 3.0], rule) == set()


@pytest.mark.parametrize("theta", [0.0, 1.0])
def test_link_whose_maximum_is_zero_matches_naive(theta):
    # h(1) = 1 - 1 = 0: no candidate can reach a positive threshold; at theta = 0 every pair is decided
    rule = linkfn_rule(theta, 1.0, 1.0, LinkFn.parse("oddpow:1:-1"))
    config = _config(300, theta, seed=3, rule=rule)
    g = generate(config)
    assert np.array_equal(g.edges, generate_naive(config).edges)
    assert g.n_candidates == (300 * 299 // 2 if theta == 0.0 else 0)


def test_yielded_pairs_subquadratic():
    pareto = ParetoParams(3, 1)
    fracs = []
    for n in (10 ** 4, 4 * 10 ** 4, 1.6 * 10 ** 5):
        n = int(n)
        g = generate(_config(n, n ** (1 / 3), seed=1, pareto=pareto))
        fracs.append(g.n_candidates / (n * n / 2))
    assert fracs[0] > fracs[1] > fracs[2]


def test_degree_sequence_trivial_cases():
    config = _config(3, 1.0)
    base = generate(config)
    empty = Graph(base.weights, base.directions, np.empty((0, 2), dtype=np.int64), False)
    assert np.array_equal(empty.degree_sequence(), [0, 0, 0])
    triangle_edges = np.array([[0, 1], [0, 2], [1, 2]], dtype=np.int64)
    tri = Graph(base.weights, base.directions, triangle_edges, False)
    assert np.array_equal(tri.degree_sequence(), [2, 2, 2])


def test_handshake_identities():
    g = generate(_config(2000, 9.0, seed=7))
    assert g.degree_sequence().sum() == 2 * g.n_edges
    rule = directed_rule(9.0, 1.0, 2.0)
    gd = generate(_config(2000, rule.theta, seed=7, rule=rule))
    out_deg, in_deg = gd.degree_sequence()
    assert out_deg.sum() == in_deg.sum() == gd.n_edges


def test_max_edge_guard_raises():
    with pytest.raises(ResourceLimitError):
        generate(_config(500, 0.0), max_edges=100)


@pytest.mark.parametrize("n", [1, 2000])
def test_negative_edge_guard_is_refused_before_sampling(monkeypatch, n):
    calls = []
    monkeypatch.setattr("threshnet.generator.sample_node_table", lambda *a: calls.append(a))
    with pytest.raises(DomainError, match="edge guard must be non-negative, got max_edges=-1"):
        generate(_config(n, 3.0), max_edges=-1)
    assert calls == []


# sha256 of generate(config).edges.tobytes(), recorded before the decide loop dropped its
# preallocated buffers; the same under numpy's non-AVX-512 kernels and OpenBLAS's Prescott kernel
@pytest.mark.parametrize(
    "config, n_edges, digest",
    [
        (_config(20_000, 8.0, seed=2, rule=directed_rule(8.0, 0.5, 2.0)), 4_370_938,
         "a4f7a44dc886396863421d9806d87a20cb90534c6b13270ec344554298d08042"),
        (_config(5_000, 3.0, seed=2, d=5, rule=linkfn_rule(3.0, 1.5, 0.7, LinkFn("oddpow", 1, -0.2))), 35_187,
         "a2612df8e310b781fee3cb2786bf6636feb387928595bfae43e94a24e195c8dd"),
    ],
    ids=["directed", "oddpow"],
)
def test_directed_and_link_function_edge_bytes_are_pinned(config, n_edges, digest):
    edges = generate(config).edges
    assert len(edges) == n_edges
    assert hashlib.sha256(edges.tobytes()).hexdigest() == digest


def test_naive_rejects_large_n():
    with pytest.raises(DomainError):
        generate_naive(_config(20001, 1.0))


def test_generation_stats_recorded():
    g = generate(_config(1000, 10.0, seed=2))
    assert g.n_candidates >= g.n_edges


def test_determinism_same_seed():
    config = _config(1200, 10.6, seed=13)
    a = generate(config)
    b = generate(config)
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.weights, b.weights)


def test_general_dimension_generation():
    config = _config(300, 2.0, seed=1, d=5)
    assert np.array_equal(generate(config).edges, generate_naive(config).edges)
