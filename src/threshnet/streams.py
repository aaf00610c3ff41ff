"""Deterministic seeded random streams with independent per-node substreams.

Every node derives its own substream from (seed, node_id) through a SplitMix64
avalanche mix, so a node's draws do not depend on how many nodes exist or in
which order they are sampled.  Reproducibility is bit-exact for a given seed.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_INV_2_64 = 2.0 ** -64


def mix64(x) -> np.ndarray:
    """SplitMix64 finalizer. Accepts a scalar or uint64 array, wraps mod 2^64."""
    x = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * _MIX_A
        x = (x ^ (x >> np.uint64(27))) * _MIX_B
        x = x ^ (x >> np.uint64(31))
    return x


def substream_key(seed: int, node_id) -> np.ndarray:
    """State of the substream for one node (or an array of node ids)."""
    seed = np.uint64(seed)
    ids = np.asarray(node_id, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return mix64(seed ^ mix64((ids + np.uint64(1)) * _GOLDEN))


def substream_uniforms(seed: int, node_ids, count: int) -> np.ndarray:
    """Uniform [0, 1) draws, shape (len(node_ids), count).

    Column j of row i is draw number j + 1 of node i's substream.
    """
    keys = substream_key(seed, node_ids).reshape(-1, 1)
    j = np.arange(1, count + 1, dtype=np.uint64).reshape(1, -1)
    with np.errstate(over="ignore"):
        raw = mix64(keys + j * _GOLDEN)
    return raw.astype(np.float64) * _INV_2_64

