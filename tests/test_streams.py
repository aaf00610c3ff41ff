import numpy as np

from threshnet.streams import mix64, substream_key, substream_uniforms

from oracles import SubStream


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
