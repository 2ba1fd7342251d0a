"""numpy's ``default_rng([seed, n])`` streams, seeded in bulk.

A satisfiability search draws trial n from the stream of
``np.random.default_rng([seed, n])``.  Building that generator once per
trial costs SeedSequence's hashing and PCG64's seeding, each a few
microseconds.  :func:`trial_streams` hashes the entropy of many trials at
once as uint32 array arithmetic, derives each PCG64 state from it, and
sets the states in turn on one generator: the same states, so the same
draws, bit for bit.  Only the search imports this module.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

# SeedSequence's hash constants and PCG64's 128-bit multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1


def _words(x: int) -> list[int]:
    """``x`` as SeedSequence takes it: little-endian uint32 words, 0 as one
    zero word."""
    if x < 0:
        raise ValueError("expected non-negative integer")
    out = [x & _MASK32]
    while x := x >> 32:
        out.append(x & _MASK32)
    return out


def _hashed(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """The eight uint32 words ``SeedSequence(e).generate_state(4, uint64)``
    is made of, for each column e of ``entropy`` (one uint32 array per
    word).  The hash constants do not depend on the data, so one pass of
    array arithmetic hashes every column."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)

    def mix(x, y):
        out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return out ^ out >> np.uint32(16)

    # the 4-word pool: the first words, then every word mixed into every
    # other, then the words past the pool mixed into each
    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        out.append(value ^ value >> np.uint32(16))
    return out


def trial_streams(seed: int,
                  numbers: Iterable[int]) -> Iterator[np.random.Generator]:
    """One generator, set in turn to the stream of ``default_rng([seed,
    n])`` for each trial number n, bit for bit.  The PCG64 states of all
    trials are seeded in bulk (one pass of SeedSequence's hashing per
    entropy length), so a caller must consume each stream before taking
    the next."""
    head = _words(seed)
    tails = [_words(n) for n in numbers]
    by_length: dict[int, list[int]] = {}
    for j, tail in enumerate(tails):
        by_length.setdefault(len(tail), []).append(j)
    states = [None] * len(tails)
    for idx in by_length.values():
        entropy = [np.full(len(idx), w, dtype=np.uint32) for w in head] \
            + list(np.array([tails[j] for j in idx], dtype=np.uint32).T)
        w = np.array(_hashed(entropy), dtype=np.uint64)
        # uint64 word k is uint32 words 2k (low half) and 2k + 1; PCG64 is
        # seeded with s0 = uint64 words 0 (high half) and 1, s1 = 2 and 3
        s0_hi, s0_lo, s1_hi, s1_lo = \
            (w[0::2] | w[1::2] << np.uint64(32)).tolist()
        for j, a, b, c, d in zip(idx, s0_hi, s0_lo, s1_hi, s1_lo):
            # inc = 2 s1 + 1 and state = (inc + s0) M + inc, mod 2^128
            inc = ((c << 64 | d) << 1 | 1) & _MASK128
            state = ((inc + (a << 64 | b)) * _PCG_MULT + inc) & _MASK128
            states[j] = state, inc
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    for state, inc in states:
        bits.state = {"bit_generator": "PCG64",
                      "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        yield rng
