import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from threshnet import (
    DimensionError,
    DomainError,
    EdgeRule,
    LinkFn,
    ModelConfig,
    NumericError,
    ParetoParams,
    ResourceLimitError,
    Variant,
    generate,
    sample_node_table,
)
import threshnet.model
import threshnet.streams
from threshnet.model import _BLOCK, sample_directions, sample_weights
from threshnet.streams import substream_draws

from oracles import Node, SubStream, directed_rule, edge_exists, linkfn_rule, sample_direction, sample_weight


class FixedStream:
    """Stand-in stream that replays a fixed list of uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def next_uniform(self):
        return self.values.pop(0)


def test_weight_at_u_zero_is_scale():
    assert sample_weight(FixedStream([0.0]), ParetoParams(3, 1)) == 1.0
    assert sample_weight(FixedStream([0.0]), ParetoParams(2, 7.5)) == 7.5


def test_weight_median_shape_one():
    # median of the a=1 law is twice the scale
    assert sample_weight(FixedStream([0.5]), ParetoParams(1, 5)) == pytest.approx(10.0, rel=1e-15, abs=0.0)


def test_pareto_survival_grid(pareto3):
    n = 10 ** 6
    weights, _ = sample_node_table(n, 202, pareto3, 3)
    assert np.all(weights >= pareto3.w0)
    for k in range(6):
        t = pareto3.w0 * 2 ** k
        p = (pareto3.w0 / t) ** pareto3.a
        frac = np.mean(weights >= t)
        if p == 1.0:
            assert frac == 1.0
            continue
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(frac - p) <= 3 * sigma, f"t={t}: {frac} vs {p}"


def test_pareto_params_validation():
    with pytest.raises(DomainError):
        ParetoParams(a=0, w0=1)
    with pytest.raises(DomainError):
        ParetoParams(a=3, w0=-1)


@pytest.mark.parametrize("a, w0", [(math.inf, 1.0), (math.nan, 1.0), (3.0, math.inf), (3.0, math.nan)])
def test_pareto_params_must_be_finite(a, w0):
    with pytest.raises(DomainError, match="must be positive and finite"):
        ParetoParams(a=a, w0=w0)


def test_direction_unit_norm():
    for d in (2, 3, 4, 7):
        x = sample_direction(SubStream(5, 0), d)
        assert x.shape == (d,)
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-12


def test_direction_rejects_low_dimension():
    with pytest.raises(DimensionError):
        sample_direction(SubStream(0, 0), 1)


def test_direction_symmetry_d3(pareto3):
    n = 10 ** 6
    _, dirs = sample_node_table(n, 303, pareto3, 3)
    sigma = 1.0 / np.sqrt(3 * n)
    for c in range(3):
        assert abs(dirs[:, c].mean()) <= 3 * sigma


def test_direction_cap_fraction_d3(pareto3):
    n = 10 ** 6
    _, dirs = sample_node_table(n, 404, pareto3, 3)
    z = dirs[:, 2]
    for t in (0.0, 0.5):
        expect = (1 - t) / 2
        sigma = np.sqrt(expect * (1 - expect) / n)
        assert abs(np.mean(z >= t) - expect) <= 3 * sigma


def test_direction_symmetry_general_d():
    pareto = ParetoParams(3, 1)
    n = 200000
    _, dirs = sample_node_table(n, 11, pareto, 5)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
    sigma = 1.0 / np.sqrt(5 * n)
    assert np.all(np.abs(dirs.mean(axis=0)) <= 4 * sigma)


def test_table_matches_scalar_sampler(pareto3):
    for d in (2, 3, 6):
        weights, dirs = sample_node_table(20, 77, pareto3, d)
        for i in range(20):
            # the stream-based samplers share the substream but not the
            # vectorized arithmetic; allow an ulp of drift
            stream = SubStream(77, i)
            assert sample_weight(stream, pareto3) == pytest.approx(weights[i], rel=1e-14, abs=0.0)
            assert np.allclose(sample_direction(stream, d), dirs[i], atol=1e-12)


def _rows_from_substreams(seed, ids, pareto):
    """Rows `ids` of the d = 3 node table: SubStream's uniforms, whole-array arithmetic."""
    u = np.array([SubStream(seed, i).uniforms(3) for i in ids])
    weights = pareto.w0 * (1.0 - u[:, 0]) ** (-1.0 / pareto.a)
    z = 2.0 * u[:, 1] - 1.0
    phi = 2.0 * np.pi * u[:, 2]
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return weights, np.column_stack([s * np.cos(phi), s * np.sin(phi), z])


def _assert_block_edges_match_oracle(n, seed, pareto):
    weights, dirs = sample_node_table(n, seed, pareto, 3)
    assert weights.shape == (n,) and dirs.shape == (n, 3)
    ids = sorted({i for lo in range(0, n, _BLOCK) for i in (lo, lo + 1, min(lo + _BLOCK, n) - 1) if i < n})
    want_w, want_x = _rows_from_substreams(seed, ids, pareto)
    assert np.array_equal(weights[ids].view(np.int64), want_w.view(np.int64))
    assert np.array_equal(dirs[ids].view(np.int64), want_x.view(np.int64))
    for i in ids[-2:]:
        # the one-value-at-a-time samplers use the math module; allow an ulp of drift
        stream = SubStream(seed, i)
        assert sample_weight(stream, pareto) == pytest.approx(weights[i], rel=1e-14, abs=0.0)
        assert np.allclose(sample_direction(stream, 3), dirs[i], atol=1e-12)


@pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
def test_blocked_table_matches_oracle_at_block_edges(pareto3, n):
    _assert_block_edges_match_oracle(n, 2024, pareto3)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 64 - 1))
@example(seed=2 ** 64 - 1)
def test_blocked_table_matches_oracle_for_any_seed(seed):
    _assert_block_edges_match_oracle(_BLOCK + 1, seed, ParetoParams(2.5, 1.7))


def _unblocked_table(n, seed, pareto, d):
    """The d != 3 node table from one (n, 1 + d) array of uniforms, as it was drawn before blocking."""
    from scipy.special import ndtri

    u = np.ascontiguousarray(substream_draws(seed, np.arange(n), range(1, d + 2)))  # C order: a row per node, as then
    weights = pareto.w0 * (1.0 - u[:, 0]) ** (-1.0 / pareto.a)
    g = ndtri(np.maximum(u[:, 1:], 2.0 ** -64))
    return weights, g / np.linalg.norm(g, axis=1, keepdims=True)


@pytest.mark.parametrize("d", [2, 5, 11])
def test_blocked_table_matches_unblocked_form(d):
    n, pareto = 3 * _BLOCK + 7, ParetoParams(2.5, 1.7)
    weights, dirs = sample_node_table(n, 99, pareto, d)
    want_w, want_x = _unblocked_table(n, 99, pareto, d)
    assert np.array_equal(weights.view(np.int64), want_w.view(np.int64))
    assert np.array_equal(dirs.view(np.int64), want_x.view(np.int64))


_BY_ID_N = 2 * _BLOCK + 1


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2 ** 64 - 1),
    d=st.sampled_from([2, 3, 5]),
    length=st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, _BY_ID_N]),
    kind=st.sampled_from(["shuffled", "repeated", "reversed"]),
    ids_seed=st.integers(0, 2 ** 32 - 1),
)
def test_samplers_by_id_give_the_table_rows(seed, d, length, kind, ids_seed):
    pareto = ParetoParams(2.5, 1.7)
    weights, dirs = sample_node_table(_BY_ID_N, seed, pareto, d)
    rng = np.random.default_rng(ids_seed)
    ids = {
        "shuffled": lambda: rng.permutation(_BY_ID_N)[:length],
        "repeated": lambda: rng.integers(0, _BY_ID_N, 5)[rng.integers(0, 5, length)],  # five ids, over and over
        "reversed": lambda: np.arange(_BY_ID_N)[::-1][:length],
    }[kind]()
    got = sample_directions(seed, ids, d)
    assert got.shape == (length, d)
    assert np.array_equal(got.view(np.int64), dirs[ids].view(np.int64))
    assert np.array_equal(sample_weights(length, seed, pareto).view(np.int64), weights[:length].view(np.int64))


def test_top_draws_give_finite_weights_and_directions(monkeypatch, pareto3):
    # every substream state at 2^64 - 1, whose draw once rounded to 1.0: an infinite
    # weight (with a divide-by-zero warning) and, for d != 3, NaN coordinates
    monkeypatch.setattr(threshnet.streams, "_mix_inplace", lambda x: np.copyto(x, np.uint64(2 ** 64 - 1)) or x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in (2, 3, 5):
            weights, dirs = sample_node_table(4, 0, pareto3, d)
            assert np.all(weights == pareto3.w0 * (2.0 ** -53) ** (-1.0 / pareto3.a))
            assert np.all(np.isfinite(dirs)) and np.allclose(np.linalg.norm(dirs, axis=1), 1.0)


def test_an_infinite_weight_is_refused():
    # (1 - u)^(-1e8) passes the largest double for any draw u above about 1e-5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="passes the largest double"):
            sample_weights(2, 0, ParetoParams(1e-8, 1e-300))


def test_node_independent_of_population(pareto3):
    w_small, x_small = sample_node_table(10, 5, pareto3, 3)
    w_big, x_big = sample_node_table(1000, 5, pareto3, 3)
    assert np.array_equal(w_small, w_big[:10])
    assert np.array_equal(x_small, x_big[:10])


def test_node_validation(pareto3):
    with pytest.raises(DomainError):
        Node(-1, 1.0, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(DomainError):
        Node(0, 1.0, np.array([0.0, 0.0, 1.5]))
    Node(0, 2.0, np.array([0.0, 0.0, 1.0]))


def test_edge_boundary_counts(pareto3):
    x = np.array([0.0, 0.0, 1.0])
    u = Node(0, 1.0, x)
    v = Node(1, 1.0, x.copy())
    assert edge_exists(u, v, EdgeRule.undirected(1.0))
    w = Node(2, 1.0, -x)
    assert not edge_exists(u, w, EdgeRule.undirected(0.5))


def test_edge_dimension_mismatch():
    u = Node(0, 1.0, np.array([0.0, 1.0]))
    v = Node(1, 1.0, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(DimensionError):
        edge_exists(u, v, EdgeRule.undirected(0.5))


def _node_pairs(count, seed, pareto):
    """Nodes 2i and 2i+1 of one node table, for i < count."""
    weights, dirs = sample_node_table(2 * count, seed, pareto, 3)
    nodes = [Node(i, float(w), x) for i, (w, x) in enumerate(zip(weights, dirs))]
    return zip(nodes[0::2], nodes[1::2])


def test_directed_alpha_beta_one_matches_undirected(pareto3):
    und = EdgeRule.undirected(2.0)
    dir_rule = directed_rule(2.0, 1.0, 1.0)
    for u, v in _node_pairs(10 ** 4, 9, pareto3):
        assert edge_exists(u, v, dir_rule) == edge_exists(u, v, und)
        # symmetric when alpha == beta
        assert edge_exists(v, u, dir_rule) == edge_exists(u, v, dir_rule)


def test_identity_link_matches_directed(pareto3):
    dir_rule = directed_rule(1.5, 2.0, 0.5)
    link_rule = linkfn_rule(1.5, 2.0, 0.5, LinkFn("identity"))
    for u, v in _node_pairs(2000, 4, pareto3):
        assert edge_exists(u, v, link_rule) == edge_exists(u, v, dir_rule)


def test_undirected_symmetry(pareto3):
    rule = EdgeRule.undirected(3.0)
    for u, v in _node_pairs(2000, 8, pareto3):
        assert edge_exists(u, v, rule) == edge_exists(v, u, rule)


def test_edge_rule_validation():
    with pytest.raises(DomainError):
        EdgeRule.undirected(-1.0)
    with pytest.raises(DomainError):
        EdgeRule(Variant.DIRECTED, 1.0, 0.0, 1.0, LinkFn("identity"))
    with pytest.raises(DomainError):
        EdgeRule(Variant.DIRECTED, 1.0, None, 1.0, LinkFn("identity"))
    with pytest.raises(DomainError):
        EdgeRule(Variant.LINKFN, 1.0, 1.0, 1.0, None)


@pytest.mark.parametrize("alpha, beta", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan)])
@pytest.mark.parametrize("variant", [Variant.DIRECTED, Variant.LINKFN])
def test_edge_rule_exponents_must_be_finite(variant, alpha, beta):
    with pytest.raises(DomainError, match="alpha and beta must be positive and finite"):
        EdgeRule(variant, 1.0, alpha, beta, LinkFn("identity"))


@pytest.mark.parametrize(
    "variant, alpha, beta, h",
    [
        (Variant.UNDIRECTED, 2.0, 1.0, LinkFn("identity")),
        (Variant.UNDIRECTED, 1.0, 0.5, LinkFn("identity")),
        (Variant.UNDIRECTED, 1.0, 1.0, LinkFn("exp")),
        (Variant.DIRECTED, 1.0, 2.0, LinkFn("evenpow", 1)),
        ("undirected", 2.0, 1.0, LinkFn("identity")),
        ("undirected", None, 1.0, LinkFn("identity")),
        ("directed", 1.0, 2.0, LinkFn("evenpow")),
        ("bogus", 1.0, 1.0, LinkFn("identity")),
    ],
)
def test_rule_rejects_values_its_variant_fixes(variant, alpha, beta, h):
    # undirected is alpha = beta = 1 with the identity link; directed is the identity link;
    # a variant named by a string is checked as its member, and an unknown name is refused
    with pytest.raises(DomainError):
        EdgeRule(variant, 1.0, alpha, beta, h)


def test_rule_takes_its_variant_as_a_string():
    # the variant is held as its member, so every comparison with it holds by value and by identity
    rule = EdgeRule("directed", 1.0, 1.0, 2.0, LinkFn("identity"))
    assert rule == EdgeRule(Variant.DIRECTED, 1.0, 1.0, 2.0, LinkFn("identity"))
    assert rule.variant is Variant.DIRECTED and rule.is_directed
    assert not EdgeRule("undirected", 1.0, 1.0, 1.0, LinkFn("identity")).is_directed


def test_rule_built_from_strings_generates_the_same_graph(pareto3):
    # a directed rule takes the identity link: a link named by its string must act as that link
    ref = EdgeRule(Variant.DIRECTED, 1.0, 1.0, 2.0, LinkFn("identity"))
    rule = EdgeRule("directed", 1.0, 1.0, 2.0, LinkFn("identity"))
    assert rule == ref
    config = ModelConfig(n=300, d=3, pareto=pareto3, rule=rule, seed=1)
    ref_config = ModelConfig(n=300, d=3, pareto=pareto3, rule=ref, seed=1)
    assert np.array_equal(generate(config).edges, generate(ref_config).edges)


def test_model_config_validation(pareto3):
    rule = EdgeRule.undirected(1.0)
    with pytest.raises(DomainError):
        ModelConfig(n=0, d=3, pareto=pareto3, rule=rule, seed=0)
    with pytest.raises(DimensionError):
        ModelConfig(n=10, d=1, pareto=pareto3, rule=rule, seed=0)
    with pytest.raises(DomainError):
        ModelConfig(n=10, d=3, pareto=pareto3, rule=rule, seed=2 ** 64)


def test_linkfn_shapes_and_inverse():
    ident = LinkFn("identity")
    assert ident(0.25) == 0.25
    e = LinkFn("exp")
    assert e.lo == pytest.approx(np.exp(-1))
    assert e.hi == pytest.approx(np.e)
    odd = LinkFn("oddpow", 2, 0.3)
    assert odd(0.5) == pytest.approx(0.5 ** 5 + 0.3)
    for fn in (ident, e, odd):
        for y in np.linspace(fn.lo + 1e-6, fn.hi - 1e-6, 7):
            t = fn.inverse(y)
            assert abs(fn(t) - y) < 1e-10


def _bisect_inverse(fn, y, tol=1e-12):
    """Oracle for LinkFn.inverse: bisection of a strictly increasing link on [-1, 1]."""
    a, b = -1.0, 1.0
    while b - a > tol:
        mid = 0.5 * (a + b)
        if fn(mid) < y:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


@settings(max_examples=300, deadline=None)
@given(
    fn=st.one_of(
        st.just(LinkFn("identity")),
        st.just(LinkFn("exp")),
        st.builds(LinkFn, st.just("oddpow"), st.integers(1, 4), st.floats(-200.0, 200.0)),
    ),
    u=st.floats(0.0, 1.0),
)
@example(fn=LinkFn("exp"), u=0.0)
@example(fn=LinkFn("oddpow", 1, -127.44488464465546), u=0.0)  # y - c is -1.0000000000000142
@example(fn=LinkFn("oddpow", 2, 0.3), u=1.0)
@example(fn=LinkFn("oddpow", 1, -0.2), u=0.4)
def test_linkfn_inverse_round_trip(fn, u):
    y = min(fn.hi, fn.lo + u * (fn.hi - fn.lo))
    t = fn.inverse(y)
    assert -1.0 <= t <= 1.0
    # at least as close as the bisection oracle, up to a few roundings of h itself
    assert abs(fn(t) - y) <= abs(fn(_bisect_inverse(fn, y)) - y) + 4 * np.spacing(max(abs(y), 1.0))


def test_linkfn_inverse_rejects_values_outside_range():
    for fn in (LinkFn("identity"), LinkFn("exp"), LinkFn("oddpow", 1, 0.5)):
        for y in (np.nextafter(fn.lo, -np.inf), np.nextafter(fn.hi, np.inf)):
            with pytest.raises(DomainError):
                fn.inverse(y)


def test_even_power_not_invertible():
    even = LinkFn("evenpow", 1)
    assert even(-0.5) == even(0.5) == 0.25
    assert even.hi == 1.0
    assert not even.strictly_increasing
    with pytest.raises(DomainError):
        even.inverse(0.5)


def test_linkfn_kind_is_checked_and_compared_by_value():
    ident = LinkFn("identity")
    assert ident(0.5) == 0.5 and ident(-0.5) == -0.5
    assert ident.spec() == "identity"
    assert LinkFn("exp")(0.0) == 1.0
    assert LinkFn("oddpow", m=1, c=-0.2)(0.5) == 0.5 ** 3 - 0.2
    assert LinkFn("evenpow", m=2)(-0.5) == 0.5 ** 4
    assert [LinkFn.parse(f.spec()) for f in (ident, LinkFn("exp"))] == [LinkFn("identity"), LinkFn("exp")]
    for kind in ("bogus", "Identity", ""):
        with pytest.raises(DomainError):
            LinkFn(kind)


def test_linkfn_parse_roundtrip():
    for text in ("identity", "exp", "oddpow:2:0.5", "evenpow:3"):
        fn = LinkFn.parse(text)
        assert LinkFn.parse(fn.spec()) == fn
    with pytest.raises(DomainError):
        LinkFn.parse("sigmoid")
    with pytest.raises(DomainError):
        LinkFn.parse("oddpow:2")
    for text in ("oddpow:x:1", "oddpow:1:y", "oddpow:1.5:0", "evenpow:z"):
        with pytest.raises(DomainError):
            LinkFn.parse(text)


def test_linkfn_spec_text():
    # m as an integer, c as the shortest text that reads back to the same double
    assert [LinkFn(kind).spec() for kind in ("identity", "exp")] == ["identity", "exp"]
    assert LinkFn("evenpow", 3).spec() == "evenpow:3"
    assert LinkFn("oddpow", 1, -0.2).spec() == "oddpow:1:-0.2"
    assert LinkFn("oddpow", 1, 0).spec() == "oddpow:1:0.0"
    assert LinkFn("oddpow", 2, -0.20000049).spec() == "oddpow:2:-0.20000049"


_ANY_LINK = st.one_of(
    st.just(LinkFn("identity")),
    st.just(LinkFn("exp")),
    st.builds(LinkFn, st.just("evenpow"), st.integers(1, 10)),
    st.builds(LinkFn, st.just("oddpow"), st.integers(1, 10), st.floats(allow_nan=False, allow_infinity=False)),
)


@settings(max_examples=500, deadline=None)
@given(fn=_ANY_LINK)
@example(fn=LinkFn("oddpow", 1, -0.20000049))  # a c that 6 significant digits do not hold
@example(fn=LinkFn("oddpow", 1, -0.0))
@example(fn=LinkFn("oddpow", 10, 5e-324))
@example(fn=LinkFn("oddpow", 1, 1.7976931348623157e308))
def test_linkfn_spec_reads_back_to_the_same_link(fn):
    # the link a manifest records is the link that ran, down to the sign of a zero c
    back = LinkFn.parse(fn.spec())
    assert back == fn and repr(back) == repr(fn)


_FORMULAS = {  # each kind's h as the LinkFn docstring writes it
    "identity": lambda t, fn: t,
    "exp": lambda t, fn: np.exp(t),
    "oddpow": lambda t, fn: t ** (2 * fn.m + 1) + fn.c,
    "evenpow": lambda t, fn: t ** (2 * fn.m),
}


@settings(max_examples=200, deadline=None)
@given(fn=_ANY_LINK, ts=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=20))
def test_linkfn_evaluates_its_kind_formula_bit_for_bit(fn, ts):
    # the kind's table row is the h that generate and the analytics run
    want = _FORMULAS[fn.kind](np.array(ts), fn)
    assert np.array_equal(fn(np.array(ts)), want)
    assert type(fn(ts[0])) is float and fn(ts[0]) == want[0]
    assert fn.strictly_increasing == (fn.kind != "evenpow")


@pytest.mark.parametrize(
    "kind, m, c, message",
    [
        ("oddpow", 0, 0.0, "power index m must be a positive integer, got 0"),
        ("evenpow", 1.5, 0.0, "power index m must be a positive integer, got 1.5"),
        ("oddpow", 1, float("nan"), "link constant c must be finite, got nan"),
        ("oddpow", 1, float("inf"), "link constant c must be finite, got inf"),
        ("oddpow", 1, -float("inf"), "link constant c must be finite, got -inf"),
        ("exp", 3, 0.0, "'exp' links take no parameters, got m=3, c=0.0"),
        ("identity", 1, 0.5, "'identity' links take no parameters, got m=1, c=0.5"),
        ("evenpow", 2, -0.1, "'evenpow' links take m, got m=2, c=-0.1"),
    ],
)
def test_linkfn_refuses_values_its_kind_does_not_take(kind, m, c, message):
    # a parameter the spec does not write stays at its default, so equal specs mean equal links
    with pytest.raises(DomainError) as exc:
        LinkFn(kind, m, c)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("bogus", "unknown link function 'bogus'"),
        ("bogus:1", "unknown link function 'bogus'"),
        ("identity:3", "expected identity, got 'identity:3'"),
        ("evenpow", "expected evenpow:m, got 'evenpow'"),
        ("oddpow:2", "expected oddpow:m:c, got 'oddpow:2'"),
        ("oddpow:1.5:0", "link function 'oddpow:1.5:0': m must be an integer and c a number"),
        ("oddpow:1:nan", "link constant c must be finite, got nan"),
    ],
)
def test_linkfn_parse_messages(text, message):
    with pytest.raises(DomainError) as exc:
        LinkFn.parse(text)
    assert str(exc.value) == message


def test_node_table_needs_two_dimensions(pareto3):
    with pytest.raises(DimensionError):
        sample_node_table(10, 1, pareto3, 1)


@pytest.mark.parametrize(("n", "d"), [(2 ** 50, 3), (10 ** 20, 3), (10, 10 ** 20)])
def test_node_table_that_cannot_be_allocated_is_refused(monkeypatch, pareto3, n, d):
    # 8 PiB and more than an array may hold: refused before any draw
    draws = []
    monkeypatch.setattr(threshnet.model, "substream_draws", lambda *args: draws.append(args) or substream_draws(*args))
    with pytest.raises(ResourceLimitError, match="node table"):
        sample_node_table(n, 0, pareto3, d)
    assert draws == []
