"""Deterministic derivation of independent random streams.

All randomness in a run flows from one 64-bit master seed held by a
:class:`SeedTree`.  Child streams are keyed by a string tag plus a tuple of
integer indices and are produced with a counter-based bit generator
(Philox), so any stream can be rebuilt in isolation: derivation is
order-insensitive and two streams with different keys are statistically
independent.

Typical keys used by the pipeline:

- ``("reset", episode)`` - initial placements of an episode
- ``("env", episode, replicate)`` - environment stochasticity
- ``("act", episode, agent, replicate)`` - one agent's policy draws

Replicate 0 is the factual draw; counterfactual sample ``k`` re-draws the
intervened quantities at replicate ``k`` while everything else stays on its
factual stream (common random numbers).

:func:`derive_stream` returns one stream as a numpy ``Generator``.
:func:`uniform_streams` draws the leading uniforms of many streams that
share a tag in one vectorised call, bit for bit what ``derive_stream`` would
give. It runs numpy's documented ``SeedSequence`` mixing and the
Philox4x64-10 block function over an axis of keys; Philox is counter-based,
so every block of every stream is computed at once (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011).
"""

from __future__ import annotations

import numbers
import zlib
from dataclasses import dataclass

import numpy as np

from .core import ConfigError

@dataclass(frozen=True)
class SeedTree:
    """Root of a run's random stream hierarchy."""

    master_seed: int

    def __post_init__(self):
        seed = self.master_seed
        if not isinstance(seed, numbers.Integral) or isinstance(seed, bool):
            raise ConfigError(f"seed must be an integer, got {seed!r}")
        if not 0 <= seed < 2**64:
            # streams key on the seed's 64 bits, so a wider seed would alias
            raise ConfigError(f"seed must be in [0, 2**64), got {seed}")

    def stream(self, tag: str, *indices: int) -> np.random.Generator:
        return derive_stream(self, tag, list(indices))

    def uniforms(self, tag: str, indices, n: int) -> np.ndarray:
        return uniform_streams(self, tag, indices, n)


def derive_stream(seed_tree: SeedTree, tag: str, indices) -> np.random.Generator:
    """Derive the stream keyed by ``(master_seed, tag, indices)``.

    Parameters
    ----------
    seed_tree:
        Tree holding the master seed.
    tag:
        Non-empty purpose label, e.g. ``"act"`` or ``"cf"``.
    indices:
        Sequence of non-negative integers distinguishing sibling streams.

    Returns
    -------
    numpy.random.Generator
        Generator over a Philox counter-based stream.  Differing any index
        (or the tag) yields an independent stream; the same key always
        yields the same draw sequence.
    """
    if not tag:
        raise ConfigError("stream tag must be a non-empty string")
    idx = [int(i) for i in indices]
    if any(i < 0 for i in idx):
        raise ConfigError("stream indices must be non-negative integers")
    key = zlib.crc32(tag.encode("utf-8"))
    seq = np.random.SeedSequence(
        entropy=int(seed_tree.master_seed), spawn_key=(key, *idx)
    )
    return np.random.Generator(np.random.Philox(seq))


# numpy.random.SeedSequence constants (pool of 4 uint32 words)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = (1 << 32) - 1
# Philox4x64-10 multipliers and Weyl key increments (Random123), one per lane
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)
_PHILOX_M = _PHILOX_M[:, None, None]
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & _MASK32, _PHILOX_M >> 32
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)
_PHILOX_W = _PHILOX_W[:, None, None]
_PHILOX_ROUNDS = 10
# Philox blocks (streams x blocks per stream) computed per pass: a pass holds
# about a dozen uint64 temporaries of [2, streams, blocks], so this bounds
# its memory (64 KiB each) whatever the number of streams
_PASS_BLOCKS = 4096


def _hash_consts(init, mult, count):
    """The constants of ``count`` successive hashes: each call's and the next."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return list(zip(consts, consts[1:]))


def _hash(words, const, nxt):
    """SeedSequence's hashmix of ``words`` (Python ints or uint32 arrays)."""
    words = (words ^ const) * nxt & _MASK32
    return words ^ (words >> 16)


def _mix(x, y):
    out = (_MIX_L * x - _MIX_R * y) & _MASK32
    return out ^ (out >> 16)


def _philox_keys(master_seed, tag_word, indices):
    """Philox keys ``[2, K]`` of the SeedSequences with spawn keys
    ``(tag_word, *indices[r])``, in numpy's mixing order.

    The master seed fills the pool as one or two words, zero-padded to the
    pool size (numpy pads run entropy whenever a spawn key is present). The
    words every stream shares, seed and tag, are mixed once as Python ints;
    each index column is then mixed into all four pool words at once.
    """
    seed = int(master_seed)
    calls = iter(_hash_consts(_INIT_A, _MULT_A, _POOL * (_POOL + 1 + indices.shape[1])))
    pool = [_hash(w, *next(calls)) for w in (seed & _MASK32, seed >> 32, 0, 0)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], *next(calls)))
    pool = [_mix(w, _hash(tag_word, *next(calls))) for w in pool]
    pool = np.array(pool, dtype=np.uint32)[:, None].repeat(len(indices), axis=1)
    for column in indices.T.astype(np.uint32):
        const = np.array([next(calls) for _ in range(_POOL)], dtype=np.uint32)
        pool = _mix(pool, _hash(column, const[:, :1], const[:, 1:]))
    # generate_state(2, uint64): each pool word hashed, read little-endian
    const = np.array(_hash_consts(_INIT_B, _MULT_B, _POOL), dtype=np.uint32)
    state = _hash(pool, const[:, :1], const[:, 1:]).astype(np.uint64)
    return state[0::2] | state[1::2] << 32


def _mulhilo(x):
    """Low and high 64-bit words of ``_PHILOX_M * x``, from 32-bit halves."""
    x_lo, x_hi = x & _MASK32, x >> 32
    t = x_lo * _PHILOX_M_LO
    u = x_hi * _PHILOX_M_LO + (t >> 32)
    v = x_lo * _PHILOX_M_HI + (u & _MASK32)
    return x * _PHILOX_M, x_hi * _PHILOX_M_HI + (u >> 32) + (v >> 32)


def uniform_streams(seed_tree: SeedTree, tag: str, indices, n: int) -> np.ndarray:
    """First ``n`` uniforms of each stream ``(tag, *indices[r])``, as ``[K, n]``.

    Row ``r`` equals ``derive_stream(seed_tree, tag, indices[r]).random(n)``
    bit for bit. ``indices`` is ``[K, m]``: every stream has the same tag and
    the same number of indices, each below 2**32 (``derive_stream`` would
    spread a larger index over two entropy words).
    """
    if not tag:
        raise ConfigError("stream tag must be a non-empty string")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 2:
        raise ConfigError(f"stream indices must be [K, m], got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() > _MASK32):
        raise ConfigError("batched stream indices must be integers in [0, 2**32)")
    key = _philox_keys(seed_tree.master_seed, zlib.crc32(tag.encode("utf-8")), idx)
    out = np.empty((len(idx), n))
    step = max(1, _PASS_BLOCKS // -(-n // 4))
    for lo in range(0, len(idx), step):
        out[lo : lo + step] = _philox_uniforms(key[:, lo : lo + step], n)
    return out


def _philox_uniforms(key, n):
    """First ``n`` uniforms ``[K, n]`` of the Philox streams with keys ``[2, K]``."""
    K, blocks = key.shape[1], -(-n // 4)
    key = key[:, :, None]
    # Philox4x64 counter words (c0, c2) and (c1, c3), one lane each; block b
    # of every stream runs on counter (b + 1, 0, 0, 0)
    even = np.zeros((2, K, blocks), dtype=np.uint64)
    even[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    odd = np.zeros((2, K, blocks), dtype=np.uint64)
    for r in range(_PHILOX_ROUNDS):
        if r:
            key = key + _PHILOX_W
        lo, hi = _mulhilo(even)
        even, odd = hi[::-1] ^ odd ^ key, lo[::-1]
    words = np.stack([even[0], odd[0], even[1], odd[1]], axis=-1)
    return (words.reshape(K, 4 * blocks)[:, :n] >> 11).astype(np.float64) * 2.0**-53
