import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from threshnet.model import _BLOCK
from threshnet.streams import _mix_inplace, _unit_floats, substream_draws, substream_key

import oracles
from oracles import SubStream, mix64, splitmix64


def test_mix64_scalar_array_agree():
    xs = np.array([0, 1, 2, 3, 2 ** 63, 2 ** 64 - 1], dtype=np.uint64)
    vec = mix64(xs)
    for x, v in zip(xs, vec):
        assert mix64(int(x)) == v


def test_mix64_avalanche():
    # flipping one input bit should flip roughly half the output bits
    base = mix64(np.uint64(42))
    for bit in (0, 17, 63):
        other = mix64(np.uint64(42 ^ (1 << bit)))
        flipped = bin(int(base) ^ int(other)).count("1")
        assert 10 <= flipped <= 54


def test_substream_scalar_matches_vectorized():
    table = substream_draws(7, np.arange(10), range(1, 5))
    for i in range(10):
        s = SubStream(7, i)
        assert np.array_equal(s.uniforms(4), table[i])


def test_substream_independent_of_population_size():
    small = substream_draws(3, np.arange(5), range(1, 3))
    large = substream_draws(3, np.arange(50), range(1, 3))
    assert np.array_equal(small, large[:5])


def test_substream_keys_distinct():
    keys = substream_key(0, np.arange(100000))
    assert len(np.unique(keys)) == 100000


def test_uniforms_in_unit_interval():
    u = substream_draws(9, np.arange(1000), range(1, 9))
    assert np.all(u >= 0.0)
    assert np.all(u < 1.0)
    # coarse uniformity: mean of ~8000 uniforms within 5 sigma of 1/2
    assert abs(u.mean() - 0.5) < 5.0 / np.sqrt(12.0 * u.size)


def test_seed_changes_stream():
    a = substream_draws(1, np.arange(10), range(1, 4))
    b = substream_draws(2, np.arange(10), range(1, 4))
    assert not np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2 ** 64 - 1),
    count=st.sampled_from([3, 4, 5, 6]),  # the node table draws 3 at d = 3, else 1 + d
    length=st.sampled_from(["one", "block-1", "block", "block+1", "two-blocks+1"]),
    ids_seed=st.integers(0, 2 ** 32 - 1),
)
def test_substream_uniforms_match_scalar_oracle(seed, count, length, ids_seed):
    # lengths at and around _BLOCK // count rows, that is _BLOCK draws
    rows = _BLOCK // count
    size = {"one": 1, "block-1": rows - 1, "block": rows, "block+1": rows + 1, "two-blocks+1": 2 * rows + 1}[length]
    ids = np.random.default_rng(ids_seed).integers(0, 2 ** 63, size)  # not contiguous, nor sorted
    table = substream_draws(seed, ids, range(1, count + 1))
    assert table.shape == (size, count) and table.dtype == np.float64
    oracle = [SubStream(seed, int(i)).uniforms(count) for i in ids]
    assert np.array_equal(table, np.array(oracle))


@pytest.mark.parametrize(
    "x",
    [
        np.uint64(2 ** 64 - 1),
        12345,
        np.array(7, dtype=np.uint64),
        np.arange(0, 2 ** 63, 2 ** 59, dtype=np.uint64).reshape(4, 4),
        np.arange(_BLOCK + 1, dtype=np.uint64),
    ],
    ids=["numpy-scalar", "int", "0-d", "2-d", "block+1"],
)
def test_mix64_keeps_shape_and_dtype(x):
    out = mix64(x)
    assert out.shape == np.shape(x)
    assert out.dtype == np.uint64
    assert [int(v) for v in out.ravel()] == [splitmix64(int(v)) for v in np.ravel(x)]


def test_mix64_leaves_its_input_alone():
    x = np.arange(5, dtype=np.uint64)
    mix64(x)
    assert np.array_equal(x, np.arange(5))


def test_mix_inplace_mixes_a_transposed_view():
    x = np.arange(12, dtype=np.uint64).reshape(3, 4).T
    want = mix64(np.ascontiguousarray(x))
    assert _mix_inplace(x) is x
    assert np.array_equal(x, want)


_TOP = 2 ** 64 - 2 ** 10  # the least uint64 that 2^-64 times rounds to 1.0
_CRAFTED = [0, 2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, 2 ** 63 + 2 ** 10, _TOP - 1, _TOP, 2 ** 64 - 1]


def test_unit_floats_are_the_cast_clamped_below_one():
    x = np.array(_CRAFTED, dtype=np.uint64)
    cast = x * 2.0 ** -64
    # numpy's cast rounds as Python's int -> float does, to 1.0 from _TOP on
    assert cast.tolist() == [float(v) * 2.0 ** -64 for v in _CRAFTED]
    assert [v >= _TOP for v in _CRAFTED] == [c == 1.0 for c in cast]
    got = _unit_floats(x[:, None])[:, 0]
    assert got.tolist() == [min(c, 1.0 - 2.0 ** -53) for c in cast.tolist()]
    below = np.array([v < _TOP for v in _CRAFTED])
    assert np.array_equal(got[below].view(np.int64), cast[below].view(np.int64))
    assert got.max() < 1.0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1) | st.sampled_from(_CRAFTED), min_size=1, max_size=60), st.sampled_from([1, 2, 3, 5]))
def test_unit_floats_of_any_block_are_the_cast_below_one(values, columns):
    x = np.resize(np.array(values, dtype=np.uint64), len(values) * columns).reshape(-1, columns)
    got = _unit_floats(x)
    assert got.shape == x.shape and got.dtype == np.float64
    assert np.array_equal(got.view(np.int64), np.minimum(x * 2.0 ** -64, 1.0 - 2.0 ** -53).view(np.int64))


def test_scalar_oracle_clamps_the_top_draws_below_one(monkeypatch):
    # a substream state whose draw rounds to 1.0 takes about 2^54 tries to find, so one is made by hand
    for state in (_TOP - 1, _TOP, 2 ** 64 - 1):
        monkeypatch.setattr(oracles, "splitmix64", lambda x, state=state: state)
        assert SubStream(0, 0).next_uniform() == min(float(state) * 2.0 ** -64, 1.0 - 2.0 ** -53)
