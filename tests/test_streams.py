import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from threshnet.model import _BLOCK
from threshnet.streams import _mix_inplace, substream_key, substream_uniforms

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
    table = substream_uniforms(7, np.arange(10), 4)
    for i in range(10):
        s = SubStream(7, i)
        assert np.array_equal(s.uniforms(4), table[i])


def test_substream_independent_of_population_size():
    small = substream_uniforms(3, np.arange(5), 2)
    large = substream_uniforms(3, np.arange(50), 2)
    assert np.array_equal(small, large[:5])


def test_substream_keys_distinct():
    keys = substream_key(0, np.arange(100000))
    assert len(np.unique(keys)) == 100000


def test_uniforms_in_unit_interval():
    u = substream_uniforms(9, np.arange(1000), 8)
    assert np.all(u >= 0.0)
    assert np.all(u < 1.0)
    # coarse uniformity: mean of ~8000 uniforms within 5 sigma of 1/2
    assert abs(u.mean() - 0.5) < 5.0 / np.sqrt(12.0 * u.size)


def test_seed_changes_stream():
    a = substream_uniforms(1, np.arange(10), 3)
    b = substream_uniforms(2, np.arange(10), 3)
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
    table = substream_uniforms(seed, ids, count)
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
