"""Deterministic seeded random streams with independent per-node substreams.

Every node derives its own substream from (seed, node_id) through a SplitMix64
avalanche mix, so a node's draws do not depend on how many nodes exist or in
which order they are sampled.  Reproducibility is bit-exact for a given seed.

The mix runs in place over blocks of `_BLOCK` elements, so its temporaries
stay in the L2 cache instead of streaming whole arrays through memory once
per operation.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_INV_2_64 = 2.0 ** -64
_BLOCK = 1 << 15


def _mix_inplace(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a C-contiguous uint64 array, in place; returns x.

    Integer array arithmetic wraps mod 2^64 without a warning.
    """
    flat = x.reshape(-1)
    tmp = np.empty(min(flat.size, _BLOCK), dtype=np.uint64)
    for lo in range(0, flat.size, _BLOCK):
        block = flat[lo : lo + _BLOCK]
        t = tmp[: block.size]
        block ^= np.right_shift(block, 30, out=t)
        block *= _MIX_A
        block ^= np.right_shift(block, 27, out=t)
        block *= _MIX_B
        block ^= np.right_shift(block, 31, out=t)
    return x


def substream_key(seed: int, node_id) -> np.ndarray:
    """State of the substream for one node (or an array of node ids)."""
    x = np.array(node_id, dtype=np.uint64)
    x += np.uint64(1)
    x *= _GOLDEN
    _mix_inplace(x)
    x ^= np.uint64(seed)
    return _mix_inplace(x)


def substream_uniforms(seed: int, node_ids, count: int) -> np.ndarray:
    """Uniform [0, 1) draws, shape (len(node_ids), count).

    Column j of row i is draw number j + 1 of node i's substream.
    """
    ids = np.asarray(node_ids).reshape(-1)
    out = np.empty((ids.size, count))
    steps = np.arange(1, count + 1, dtype=np.uint64) * _GOLDEN
    rows = max(1, _BLOCK // max(count, 1))
    raw = np.empty((min(ids.size, rows), count), dtype=np.uint64)
    for lo in range(0, ids.size, rows):
        keys = substream_key(seed, ids[lo : lo + rows])
        block = raw[: keys.size]
        np.add(keys[:, None], steps, out=block)
        np.multiply(_mix_inplace(block), _INV_2_64, out=out[lo : lo + rows])
    return out
