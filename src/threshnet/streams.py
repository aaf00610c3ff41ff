"""Deterministic seeded random streams with independent per-node substreams.

Every node derives its own substream from (seed, node_id) through a SplitMix64
avalanche mix, so a node's draws do not depend on how many nodes exist or in
which order they are sampled.  Reproducibility is bit-exact under a given seed.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_INV_2_64 = 2.0 ** -64


def _mix_inplace(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array, in place; returns x.

    Integer array arithmetic wraps mod 2^64 without a warning.
    """
    x ^= x >> np.uint64(30)
    x *= _MIX_A
    x ^= x >> np.uint64(27)
    x *= _MIX_B
    x ^= x >> np.uint64(31)
    return x


def substream_key(seed: int, node_id) -> np.ndarray:
    """State of the substream of one node (or of each of an array of node ids)."""
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
    keys = substream_key(seed, np.asarray(node_ids).reshape(-1))
    steps = np.arange(1, count + 1, dtype=np.uint64) * _GOLDEN
    return _mix_inplace(keys[:, None] + steps) * _INV_2_64
