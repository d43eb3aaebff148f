"""Deterministic numeric kernels: unit rows, softmax, cross-entropy, block slices, the finiteness
check, the threads they share out to, and a counter-based 64-bit RNG whose streams are identical
on every platform.

A stream is its uint64 state, a Weyl counter whose words pass through the
splitmix64 finalizer; ``split_states`` derives independent ones from a seed.
No object holds a state: ``accepted_rows`` and ``partial_shuffle`` return
their draws and the states after them.

All math runs in float64 regardless of how embeddings are stored on disk,
so accumulation order never shows up in test tolerances.
"""

from __future__ import annotations

import functools
import math
import os

import numpy as np

DEGENERATE_NORM = 1e-12
BLOCK_VALUES = 2**16  # values one block of any block loop holds at once: 512 KiB of float64
SPLIT_VALUES = 16 * BLOCK_VALUES  # all_finite shares out an array of at least this many values

# the threads of the score tensor and all_finite: one per core of the CPU affinity mask (so
# `taskset -c 0` runs both serially), the calling thread and a pool of the others
try:
    _THREADS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity call on this platform
    _THREADS = os.cpu_count() or 1


@functools.cache
def _pool():
    """The pool of the other threads, made at first use: until then none is imported."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(_THREADS - 1, thread_name_prefix="cpes")


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# the uint64 operands of _splitmix, _words and _unit_interval, built once: Weyl step,
# multipliers, split salt and shifts
_GOLDEN_U64, _MUL1, _MUL2 = map(np.uint64, (_GOLDEN, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))
_SALT, _S30, _S27, _S31, _S11 = map(np.uint64, (0x5851F42D4C957F2D, 30, 27, 31, 11))


def _splitmix(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on uint64 words: a bijective avalanche mix, whose
    wrapping stands in for the 64-bit masks (arrays: no scalar overflow warning)."""
    z = (z ^ (z >> _S30)) * _MUL1
    z = (z ^ (z >> _S27)) * _MUL2
    return z ^ (z >> _S31)


def _words(states: np.ndarray, n: int) -> np.ndarray:
    """The next n outputs (..., n) of the stream at each uint64 state (...)."""
    return _splitmix(states[..., np.newaxis] + _GOLDEN_U64 * np.arange(1, n + 1, dtype=np.uint64))


def _unit_interval(words: np.ndarray) -> np.ndarray:
    """Each word's top 53 bits k as the float k * 2**-53, in [0, 1)."""
    return (words >> _S11).astype(np.float64) * 2.0**-53


def box_muller(words: np.ndarray, n: int) -> np.ndarray:
    """n standard normals from each row (last axis) of 2*ceil(n/2) words:
    the row's first half gives the radii, its second half the angles."""
    pairs = (n + 1) // 2
    # shifted into (0, 1] so log() is finite; exact, as each is k * 2**-53 with k < 2**53
    u = _unit_interval(words) + 2.0**-53
    r = np.sqrt(-2.0 * np.log(u[..., :pairs]))
    theta = 2.0 * math.pi * u[..., pairs:]
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=-1)[..., :n]


def uniforms(state: int, n: int, skip: int = 0) -> np.ndarray:
    """The next n words of the stream at ``state`` (taken modulo 2**64), after
    its first ``skip``, as floats in [0, 1)."""
    return _unit_interval(_words(np.uint64((state + skip * _GOLDEN) & _MASK64), n))


def accepted_rows(states: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each uint64 state (T,), a word of its stream for each uint64 bound n
    of its row (T, W) in turn, at most 2**64 - 1 - 2**64 % n (n = 1 takes any
    word) so its residues mod n are equally likely: a word above its limit is
    dropped, and that entry takes the next word. Returns the words, one (T, W)
    block, and each stream's state after them."""
    limits, width = ~(-bounds % bounds), bounds.shape[1]
    words, after = _words(states, width), states + np.uint64(width * _GOLDEN & _MASK64)
    for row in np.flatnonzero((words > limits).any(axis=1)):
        at, state = 0, int(states[row])  # the state before words[row, at]
        while (rejected := np.flatnonzero(words[row, at:] > limits[row, at:])).size:
            # redraw the tail from the rejected word's state, so from the word after it
            state = (state + (int(rejected[0]) + 1) * _GOLDEN) & _MASK64
            at += int(rejected[0])
            words[row, at:] = _words(np.uint64(state), width - at)
        after[row] = (state + (width - at) * _GOLDEN) & _MASK64
    return words, after


def partial_shuffle(states, pools, sizes, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The first k slots (T, r, k) of each pool (T, r, n) after a partial
    Fisher-Yates of its first ``sizes`` (T, r) slots, in which slot i swaps
    with slot i + j, j drawn from [0, size - i), so padding is never reached:
    task t's r * k draws are row t of one accepted_rows block on its uint64
    state (T,). Returns the picks and the states after the draws."""
    tasks, rows, width = pools.shape
    bounds = (sizes[..., np.newaxis] - np.arange(k)).astype(np.uint64)
    words, after = accepted_rows(states, bounds.reshape(tasks, rows * k))
    # the flat index of each pool's slot i, and that of the slot it swaps with
    slots = (np.arange(tasks * rows) * width).reshape(tasks, rows, 1) + np.arange(k)
    swaps = slots + (words.reshape(bounds.shape) % bounds).astype(np.intp)
    flat = pools.flatten()
    for i, j in zip(slots.T, swaps.T):
        flat[i], flat[j] = flat[j], flat[i]
    return flat[slots], after


def split_states(seed: int, indices) -> np.ndarray:
    """The uint64 state of stream i of ``seed`` for each index i in [0, 2**64),
    the seed taken modulo 2**64: a pure function of (seed, i), so distinct
    pairs give distinct streams, whatever order they are derived in."""
    seeds = _splitmix(np.array([seed & _MASK64], dtype=np.uint64))
    return _splitmix(seeds ^ _splitmix(np.asarray(indices, dtype=np.uint64) ^ _SALT))


def unit_rows(rows: np.ndarray) -> np.ndarray:
    """Each row (along the last axis) scaled to unit norm; a row whose norm
    is below DEGENERATE_NORM (divided by 1, so no warning) becomes zero.

    The degenerate-vector policy makes an (unrealistic) zero patch or class
    embedding have cosine 0 with everything, ranking it as uninformative
    instead of erroring.
    """
    norms = np.linalg.norm(rows, axis=-1, keepdims=True)
    kept = norms >= DEGENERATE_NORM
    out = rows / np.where(kept, norms, 1.0)
    out[~kept[..., 0]] = 0.0
    return out


def block_slices(count: int, size: int) -> list[slice]:
    """Slices of [0, count) of BLOCK_VALUES values at most (items of ``size``), or one item."""
    step = max(1, BLOCK_VALUES // max(1, size))
    return [slice(start, start + step) for start in range(0, count, step)]


def _finite(rows: np.ndarray, ones: np.ndarray | None, out: np.ndarray | None) -> bool:
    """Whether every value of ``rows`` is finite, given ``out`` copied there a block_slices
    block at a time and checked from the copy while it is in cache. One BLAS product sums each
    row in its dtype (``rows @ ones``; 1-D rows, ``ones`` None, by their sum of squares): a
    finite total proves the values finite, and a non-finite one, which finite values can also
    give by overflow, is settled exactly by min and max."""
    for block in [slice(None)] if out is None else block_slices(len(rows), rows[:1].size):
        if out is not None:
            out[block] = rows[block]
        part = (rows if out is None else out)[block]
        with np.errstate(all="ignore"):
            if not math.isfinite(np.sum(part @ (part if ones is None else ones))) and not (
                math.isfinite(part.min(initial=0)) and math.isfinite(part.max(initial=0))
            ):
                return False
    return True


def all_finite(values: np.ndarray, out: np.ndarray | None = None) -> bool:
    """Whether every value is finite (given ``out``, each is copied there first), by _finite on
    parts of the leading axis, a record a row of a view. An array of at least SPLIT_VALUES values
    is one part a thread, and the pool checks all but the caller's; a part the pool has not
    started once the caller's is checked is cancelled and checked by the caller. A smaller
    array is one part on the calling thread."""
    rows = values if values.ndim < 2 else values.reshape(len(values), values[:1].size)
    ones = np.ones(rows.shape[1], rows.dtype) if rows.ndim > 1 else None
    out = None if out is None else out.reshape(rows.shape)
    threads = _THREADS if rows.size >= SPLIT_VALUES else 1
    cuts = [len(rows) * i // threads for i in range(threads + 1)]
    parts = [(rows[a:b], ones, None if out is None else out[a:b]) for a, b in zip(cuts, cuts[1:])]
    futures = [_pool().submit(_finite, *part) for part in parts[1:]]
    try:
        return _finite(*parts[0]) and all(
            _finite(*part) if future.cancel() else future.result()
            for part, future in zip(parts[1:], futures)
        )
    finally:  # no part is checked on once the call is over
        for future in futures:
            future.cancel() or future.exception()


def softmax(scores: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax along the last axis; entries positive and
    summing to 1."""
    scores = np.asarray(scores, dtype=np.float64)
    e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def cross_entropy(probs: np.ndarray, targets) -> np.ndarray:
    """-ln(probs[..., target]) per row of class probabilities, with the
    argument clamped at 1e-300."""
    probs = np.asarray(probs, dtype=np.float64)
    targets = np.asarray(targets)
    picked = np.take_along_axis(probs, targets[..., np.newaxis], axis=-1)[..., 0]
    return -np.log(np.maximum(picked, 1e-300))
