"""Prevalence-controlled bootstrap sampling.

Every draw's RNG stream is derived from (seed, concept, group, bootstrap
index), so results are identical regardless of evaluation order.
``draw_rows`` makes every bootstrap draw of a group, block by block.
"""

from __future__ import annotations

import hashlib
import sys
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import DataError, InvariantError

# Draws come in blocks of at most this many values, so each block, its rank
# matrix and the metric kernels' temporaries stay small whatever the draw
# count and size.
_BLOCK_ELEMENTS = 1 << 15


def _part_hash(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFFFFFFFFFF
    digest = hashlib.blake2b(str(part).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _hashed(parts) -> "hashlib.blake2b":
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(_part_hash(part).to_bytes(8, "big"))
    return h


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from a mixed tuple of ints and strings."""
    return int.from_bytes(_hashed(parts).digest(), "big")


def derive_rng(*parts) -> np.random.Generator:
    """Deterministic generator keyed on the given parts; platform-independent."""
    return np.random.default_rng(np.random.SeedSequence(derive_seed(*parts)))


def compute_budget(
    concept: str, sizes: Mapping[str, tuple[int, int]], ratio: tuple[int, int]
) -> tuple[int, int]:
    """Largest per-group budget achieving the exact pos:neg ratio in every group.

    ``sizes`` maps group -> (positives, negatives) in its pool. With ratio
    1:r this is p* = min over groups of min(P_g, floor(N_g / r)), and each
    draw takes ``(p*, r*p*)`` rows from every group.

    Raises:
        DataError: naming the first group, in ``sizes``' order, whose pool
            cannot host even one ratio unit.
    """
    pos_parts, neg_parts = int(ratio[0]), int(ratio[1])
    if pos_parts < 1 or neg_parts < 1:
        raise DataError(f"ratio parts must be positive integers, got {ratio}")
    units = None
    for g, (n_pos, n_neg) in sizes.items():
        if n_pos < pos_parts:
            raise DataError(
                f"concept {concept!r}: group {g!r} has {n_pos} positive(s), "
                f"fewer than the {pos_parts} required per ratio unit"
            )
        if n_neg < neg_parts:
            raise DataError(
                f"concept {concept!r}: group {g!r} has {n_neg} negative(s), "
                f"fewer than the {neg_parts} required per ratio unit"
            )
        g_units = min(n_pos // pos_parts, n_neg // neg_parts)
        units = g_units if units is None else min(units, g_units)
    if units is None:
        raise DataError(f"concept {concept!r} has no groups to sample")
    return units * pos_parts, units * neg_parts


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64's
# 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h). numpy keeps both
# streams stable across releases, and draws rely on nothing else of numpy's.
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
# where a native uint64's low half sits in its view as two uint32s
_LOW_HALF = 0 if sys.byteorder == "little" else 1


def _hash_constants(init: int, mult: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiplier) constants of ``steps`` consecutive SeedSequence
    hash steps, as columns: they do not depend on the data hashed."""
    consts = [init]
    for _ in range(steps):
        consts.append(consts[-1] * mult & _MASK32)
    return (
        np.array(consts[:-1], dtype=np.uint32)[:, None],
        np.array(consts[1:], dtype=np.uint32)[:, None],
    )


# mix_entropy's 16 steps (4 pool words, then 12 cross mixes) and
# generate_state(4, np.uint64)'s 8
_ENTROPY_STEPS = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_STEPS = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _hash_steps(values: np.ndarray, steps, start: int, stop: int) -> np.ndarray:
    """Hash steps ``start .. stop - 1`` of ``steps``, one per row of the
    result; ``values`` broadcast against them."""
    xor, mult = steps
    values = (values ^ xor[start:stop]) * mult[start:stop]
    return values ^ (values >> 16)


def _pcg64_states(seeds: Sequence[int]) -> list[dict]:
    """``PCG64.state`` once seeded from ``SeedSequence(seed)``, for each
    64-bit seed; the hash runs over all seeds at once.

    A seed is two uint32 entropy words, low first (a seed below 2**32 is
    one word, which the pool pads with the same zero word).
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    entropy = np.zeros((4, seeds.size), dtype=np.uint32)
    entropy[0], entropy[1] = seeds & _MASK32, seeds >> 32
    pool = _hash_steps(entropy, _ENTROPY_STEPS, 0, 4)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        hashed = _hash_steps(pool[src], _ENTROPY_STEPS, 4 + 3 * src, 7 + 3 * src)
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed
        pool[dst] = mixed ^ (mixed >> 16)
    # eight words cycling over the pool, read as little-endian uint64 pairs:
    # seed high, seed low, inc high, inc low
    words = _hash_steps(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_STEPS, 0, 8).astype(np.uint64)
    seed_hi, seed_lo, inc_hi, inc_lo = (words[0::2] | words[1::2] << np.uint64(32)).tolist()
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        # pcg64_srandom_r: step from 0, add the seed, step again
        inc = (i_hi << 65 | i_lo << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def _window(short: int, threshold: int) -> int:
    """Halves to map for ``short`` more values: room for twice the rejections expected."""
    return short + 2 * (short * threshold // ((1 << 32) - threshold)) + 8


def _continue_row(
    row: np.ndarray, words: np.ndarray, bitgen: np.random.PCG64, sizes: Sequence[tuple[int, int]]
) -> None:
    """Remake ``row`` as numpy's ``integers`` does when it rejects halves:
    each class skips them and reads on, past ``words``, from ``bitgen``,
    which stands just after them, up to the half that completes it."""
    halves = words.astype("<u8", copy=False).view("<u4")
    read = column = offset = 0
    for n, k in sizes:
        threshold = ((1 << 32) - n) % n
        out = row[column:column + k].view(np.uint64)
        got = 0 if n > 1 else k
        while got < k:
            stop = read + _window(k - got, threshold)
            if stop > halves.size:
                more = bitgen.random_raw((stop - halves.size + 1) // 2)
                halves = np.concatenate([halves, more.astype("<u8", copy=False).view("<u4")])
            window = halves[read:stop]
            # the low half of x * n, as uint32 arithmetic wraps it
            accepted = (window * np.uint32(n & _MASK32) >= threshold).nonzero()[0][:k - got]
            np.multiply(window[accepted], np.uint64(n), out=out[got:got + accepted.size])
            got += accepted.size
            read += int(accepted[-1]) + 1 if got == k else window.size
        if n > 1:
            out >>= np.uint64(32)
            out += np.uint64(offset)
        column += k
        offset += n


def _lemire_rows(
    words: np.ndarray, sizes: Sequence[tuple[int, int]], block: np.ndarray
) -> np.ndarray:
    """Fill ``block`` with the values numpy's ``integers`` makes from each
    row of 64-bit ``words``; True for each row where numpy would redraw.

    numpy reads the words as a stream of uint32 halves, low half first, that
    runs on across calls, and maps each half ``x`` to ``(x * n) >> 32``
    (Lemire), except that it redraws ``x`` when
    ``(x * n) mod 2**32 < (2**32 - n) mod n``; ``n == 1`` reads no half.
    """
    halves = words.astype("<u8", copy=False).view("<u4")
    redraw = np.zeros(block.shape[0], dtype=bool)
    read = column = offset = 0
    for n, k in sizes:
        out = block[:, column:column + k].view(np.uint64)
        if n == 1:
            out[...] = 0
        else:
            np.multiply(halves[:, read:read + k], np.uint64(n), out=out)
            threshold = ((1 << 32) - n) % n
            if threshold and k:
                redraw |= out.view(np.uint32)[:, _LOW_HALF::2].min(axis=1) < threshold
            out >>= np.uint64(32)
            read += k
        if offset:
            out += np.uint64(offset)
        column += k
        offset += n
    return redraw


def draw_rows(
    key: Sequence, bootstraps: int, sizes: Sequence[tuple[int, int]]
) -> Iterator[np.ndarray]:
    """Bootstrap draws ``0 .. bootstraps - 1`` of one group, in int64 blocks of
    whole rows holding at most ``_BLOCK_ELEMENTS`` values (one row at
    least). The blocks are views of one buffer, each overwritten by the
    next, so no block is allocated anew; a caller that keeps a block copies
    it.

    ``sizes`` lists the classes a draw takes from as ``(n, k)``: ``k`` rows
    uniform with replacement from class rows ``0 .. n - 1``, offset by the
    sizes of the classes before it. Row ``b`` equals, bit for bit, the
    consecutive ``integers(0, n, size=k)`` calls of
    ``default_rng(SeedSequence(derive_seed(*key, b)))``, concatenated.

    Each bootstrap's 64-bit words come from one reused ``PCG64`` set to the
    state that seeding would give, and ``_lemire_rows`` turns them into
    values. A row where numpy would redraw is made again by
    ``_continue_row``, which reads on from the row's own stream.

    Raises:
        InvariantError: when some class is empty or holds over 2**32 rows.
    """
    if any(n < 1 for n, _ in sizes):
        raise InvariantError("cannot resample an empty pool")
    if any(n > 1 << 32 for n, _ in sizes):
        raise InvariantError(f"cannot resample a pool of {max(sizes)[0]} rows, over 2**32")
    prefix = _hashed(key)
    seeds = []
    for b in range(bootstraps):
        h = prefix.copy()
        h.update(_part_hash(b).to_bytes(8, "big"))
        seeds.append(int.from_bytes(h.digest(), "big"))
    width = sum(k for _, k in sizes)
    n_words = (sum(k for n, k in sizes if n > 1) + 1) // 2
    states = _pcg64_states(seeds) if n_words else []
    bitgen = np.random.PCG64(0)
    per_block = max(1, _BLOCK_ELEMENTS // max(width, 1))
    rows = np.empty((min(per_block, bootstraps), width), dtype=np.int64)
    buffer = np.empty((rows.shape[0], n_words), dtype=np.uint64)
    for start in range(0, bootstraps, per_block):
        stop = min(start + per_block, bootstraps)
        block, words = rows[:stop - start], buffer[:stop - start]
        for i, state in enumerate(states[start:stop]):
            bitgen.state = state
            words[i] = bitgen.random_raw(n_words)
        for i in np.flatnonzero(_lemire_rows(words, sizes, block)):
            bitgen.state = states[start + i]
            bitgen.advance(n_words)
            _continue_row(block[i], words[i], bitgen, sizes)
        yield block
