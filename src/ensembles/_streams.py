"""Spawned random streams, derived for all children in one batch.

``spawned_uniforms(seed, count, k)`` equals, bit for bit,

    np.array([np.random.default_rng(c).random(k)
              for c in np.random.SeedSequence(seed).spawn(count)]).reshape(count, k)

without building a generator per child.  It replays numpy's algorithms
as array code over all children at once:

- ``SeedSequence``: child i's entropy is the seed's 32-bit words, padded
  with zeros to the pool size 4, then its spawn-key word i.  The hash
  constant runs through the same sequence for every child, so the pool
  mixing vectorizes over children; ``generate_state(4, uint64)`` then
  gives each child's PCG64 seed s and stream initseq.
- ``PCG64`` (O'Neill 2014): inc = (initseq << 1) | 1, the start state is
  (inc + s)·M + inc, and every draw first steps, state -> state·M + inc.
  The state behind draw j (1-based) is therefore A·s + C·inc mod 2^128,
  with A = M^(j+1) and C = 1 + M + … + M^(j+1) precomputed as Python
  ints.  One broadcast (count, k) 128-bit multiply-add on uint64 halves
  gives every state; the high half of each 64 x 64 product is built from
  32-bit limbs.
- ``Generator.random``: the XSL-RR output x of each state, (x >> 11)·2^-53.

All integer work is on arrays, whose uint32/uint64 arithmetic wraps
silently (numpy scalars would warn on overflow).
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["spawned_uniforms"]

_POOL = 4  # SeedSequence's default pool size, in 32-bit words
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
# SeedSequence's hash constants, from numpy/random/bit_generator.pyx
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's default 128-bit multiplier

_U32_16 = np.uint32(16)
_U64_1, _U64_11, _U64_32, _U64_58, _U64_63 = (np.uint64(s) for s in (1, 11, 32, 58, 63))
_U64_MASK32 = np.uint64(_MASK32)


def _hashmix(value: np.ndarray, hash_const: int) -> tuple[np.ndarray, int]:
    """SeedSequence's ``hashmix`` of the uint32 array ``value`` with the
    running hash constant; returns the mixed words and the next constant."""
    nxt = hash_const * _MULT_A & _MASK32
    value = (value ^ np.uint32(hash_const)) * np.uint32(nxt)
    return value ^ (value >> _U32_16), nxt


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return out ^ (out >> _U32_16)


def _seed_words(seed: int) -> list[int]:
    """The seed's little-endian 32-bit words, at least one, padded with
    zeros to the pool size as SeedSequence does when a spawn key follows."""
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    return words + [0] * (_POOL - len(words))


def _pcg_seeds(seed: int, count: int) -> tuple[np.ndarray, ...]:
    """(s_hi, s_lo, seq_hi, seq_lo), each (count,) uint64: the halves of
    every child's ``generate_state(4, np.uint64)``, numpy's PCG64 seed."""
    entropy = [np.array([w], dtype=np.uint32) for w in _seed_words(seed)]
    entropy.append(np.arange(count, dtype=np.uint32))  # the spawn-key words
    hash_const = _INIT_A
    pool = []
    for word in entropy[:_POOL]:
        mixed, hash_const = _hashmix(word, hash_const)
        pool.append(mixed)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                mixed, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], mixed)
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            mixed, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], mixed)
    hash_const = _INIT_B
    state = []
    for i in range(2 * _POOL):  # generate_state: 8 uint32 words, cycling the pool
        nxt = hash_const * _MULT_B & _MASK32
        word = (pool[i % _POOL] ^ np.uint32(hash_const)) * np.uint32(nxt)
        state.append((word ^ (word >> _U32_16)).astype(np.uint64))
        hash_const = nxt
    return tuple(state[i] | (state[i + 1] << _U64_32) for i in range(0, 2 * _POOL, 2))


def _halves(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The high and low uint64 halves of 128-bit Python ints."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & _MASK64 for v in values], dtype=np.uint64))


def _mul_lo128(x_hi, x_lo, c_hi, c_lo) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) of x·c mod 2^128 for (count, 1) children x and (k,)
    column constants c, all uint64 halves."""
    x0, x1 = x_lo & _U64_MASK32, x_lo >> _U64_32
    c0, c1 = c_lo & _U64_MASK32, c_lo >> _U64_32
    p00, p01, p10 = x0 * c0, x0 * c1, x1 * c0
    mid = (p00 >> _U64_32) + (p01 & _U64_MASK32) + (p10 & _U64_MASK32)
    hi = x1 * c1 + (p01 >> _U64_32) + (p10 >> _U64_32) + (mid >> _U64_32)
    hi += x_hi * c_lo + x_lo * c_hi
    return hi, x_lo * c_lo


def spawned_uniforms(seed, count, k: int) -> np.ndarray:
    """(count, k) float64: row i is the first k ``random()`` draws of
    ``default_rng(SeedSequence(seed).spawn(count)[i])``, bit for bit.

    ``seed`` is a nonnegative Python or numpy integer of any size; a
    negative one raises ValueError, as SeedSequence does.  ``count`` must
    be below 2^32, so that each spawn key is one word; a larger one
    raises before anything is allocated."""
    seed, count = operator.index(seed), operator.index(count)
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    if not 0 <= count <= _MASK32:
        raise ValueError(f"count must be in [0, 2^32), got {count}")
    if count == 0 or k == 0:
        return np.empty((count, k))
    s_hi, s_lo, seq_hi, seq_lo = (w[:, None] for w in _pcg_seeds(seed, count))
    inc_hi = (seq_hi << _U64_1) | (seq_lo >> _U64_63)
    inc_lo = (seq_lo << _U64_1) | _U64_1
    # draw j reads the state A_j·s + C_j·inc, A_j = M^(j+1), C_j = M^0 + … + M^(j+1)
    a_cols, c_cols, power, total = [], [], _PCG_MULT, 1 + _PCG_MULT
    for _ in range(k):
        power = power * _PCG_MULT & _MASK128
        total = (total + power) & _MASK128
        a_cols.append(power)
        c_cols.append(total)
    hi, lo = _mul_lo128(s_hi, s_lo, *_halves(a_cols))
    inc_part_hi, inc_part_lo = _mul_lo128(inc_hi, inc_lo, *_halves(c_cols))
    lo += inc_part_lo
    hi += inc_part_hi + (lo < inc_part_lo)
    # XSL-RR: rotate hi ^ lo right by the top 6 bits of the state
    x = hi ^ lo
    rot = hi >> _U64_58
    x = (x >> rot) | (x << ((np.uint64(64) - rot) & _U64_63))
    return (x >> _U64_11) * (1.0 / 9007199254740992.0)
