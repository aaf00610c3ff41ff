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
_BELOW_ONE = 1.0 - 2.0 ** -53  # the largest double below 1
_HIGH = 1 if np.little_endian else 0  # which uint32 half of a uint64 holds its high bits


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


def _unit_floats(x: np.ndarray) -> np.ndarray:
    """x * 2^-64 for a C-contiguous uint64 array x, clamped below 1.

    hi * 2^32 and lo, x's 32-bit halves, are exact doubles, so their sum is
    x rounded once, as the cast rounds it, and the power-of-two scale is
    exact: the bits are those of `x * 2**-64`, at about half its cost.  The
    1024 values x >= 2^64 - 2^10 round to 1.0; they become the largest
    double below 1, so every draw is in [0, 1).
    """
    halves = x.view(np.uint32)
    out = halves[..., _HIGH::2] * 2.0 ** 32
    out += halves[..., 1 - _HIGH::2]
    out *= 2.0 ** -64
    return np.minimum(out, _BELOW_ONE, out=out)


def substream_key(seed: int, node_id) -> np.ndarray:
    """State of the substream of one node (or of each of an array of node ids)."""
    x = np.array(node_id, dtype=np.uint64)
    x += np.uint64(1)
    x *= _GOLDEN
    _mix_inplace(x)
    x ^= np.uint64(seed)
    return _mix_inplace(x)


def substream_draws(seed: int, node_ids, draws) -> np.ndarray:
    """Uniform [0, 1) draws, shape (len(node_ids), len(draws)).

    Column k of row i is draw number draws[k] (counted from 1) of node
    node_ids[i]'s substream, whatever the other ids are and where in
    `node_ids` node i stands.  The result is the transpose of a C-contiguous
    array, so each column is contiguous: every step runs along the ids, where
    one row per id would run numpy's inner loops len(draws) elements at a time.
    """
    keys = substream_key(seed, np.asarray(node_ids).reshape(-1))
    # an array product wraps mod 2^64, where a numpy scalar product warns on overflow
    steps = np.asarray(draws, dtype=np.uint64) * _GOLDEN
    return _unit_floats(_mix_inplace(steps[:, None] + keys)).T
