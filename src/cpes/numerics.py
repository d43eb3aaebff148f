"""Deterministic numeric kernels: unit rows, softmax, cross-entropy, and a
counter-based 64-bit RNG whose streams are identical on every platform.

All math runs in float64 regardless of how embeddings are stored on disk,
so accumulation order never shows up in test tolerances.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EmptyInput, IndexOutOfRange

DEGENERATE_NORM = 1e-12

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SPLIT_SALT = 0x5851F42D4C957F2D
# the uint64 operands of _raw_block and _unit_interval, built once: Weyl step, multipliers, shifts
_GOLDEN_U64, _MUL1, _MUL2 = map(np.uint64, (_GOLDEN, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))
_S30, _S27, _S31, _S11 = map(np.uint64, (30, 27, 31, 11))


def _mix64(z: int) -> int:
    """splitmix64 finalizer: bijective avalanche mix of a 64-bit word."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


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


class Rng64:
    """Weyl-sequence generator with a splitmix64 output function.

    The state advances by a fixed odd constant, so a block of n outputs can
    be produced vectorized from a counter range without changing the stream.
    """

    __slots__ = ("state",)

    def __init__(self, state: int):
        self.state = state & _MASK64

    def _raw_block(self, n: int) -> np.ndarray:
        # the next n outputs: _mix64 on uint64 words, whose wrapping stands
        # in for its masks (np.uint64 constants: no Python-int operands)
        z = np.uint64(self.state) + _GOLDEN_U64 * np.arange(1, n + 1, dtype=np.uint64)
        self.state = (self.state + n * _GOLDEN) & _MASK64
        z = (z ^ (z >> _S30)) * _MUL1
        z = (z ^ (z >> _S27)) * _MUL2
        return z ^ (z >> _S31)

    def _accepted(self, bounds: np.ndarray) -> np.ndarray:
        """A word for each uint64 bound n in turn, at most 2**64 - 1 - 2**64 % n,
        so that its residues mod n are equally likely (n = 1 takes any word):
        a word above its limit is dropped, and that entry takes the next word."""
        limits = ~(-bounds % bounds)
        words = self._raw_block(len(limits))
        start = 0
        while (rejected := np.flatnonzero(words[start:] > limits[start:])).size:
            start += int(rejected[0])
            # rewind to just after the rejected word and redraw the tail
            self.state = (self.state - (len(limits) - start - 1) * _GOLDEN) & _MASK64
            words[start:] = self._raw_block(len(limits) - start)
        return words

    def uniforms(self, n: int) -> np.ndarray:
        return _unit_interval(self._raw_block(n))

    def randints(self, bounds) -> list[int]:
        """A uniform integer in [0, n) for each n of ``bounds`` in turn."""
        if min(bounds, default=1) <= 0:
            raise EmptyInput(f"randints needs bounds >= 1, got {min(bounds)}")
        n = np.array(bounds, dtype=np.uint64)
        return (self._accepted(n) % n).tolist()

    def samples_without_replacement(self, pools, k: int) -> list[list]:
        """k distinct items per pool by a partial Fisher-Yates (slot i swaps
        with slot i + j, j drawn from [0, len(pool) - i)), in one block."""
        draws = iter(self.randints([len(pool) - i for pool in pools for i in range(k)]))
        samples = [list(pool) for pool in pools]
        for items in samples:
            for i, j in zip(range(k), draws):
                items[i], items[i + j] = items[i + j], items[i]
        return [items[:k] for items in samples]


def rng_split(seed: int, index: int) -> Rng64:
    """Derive an independent child generator from (seed, index).

    Pure function of its arguments: distinct pairs give distinct streams and
    creation order is irrelevant, so parallel consumers stay reproducible.
    """
    return Rng64(_mix64(_mix64(seed) ^ _mix64(index ^ _SPLIT_SALT)))


def unit_rows(rows: np.ndarray) -> np.ndarray:
    """Each row (along the last axis) scaled to unit norm; a row whose norm
    is below DEGENERATE_NORM becomes zero.

    The degenerate-vector policy makes an (unrealistic) zero patch or class
    embedding have cosine 0 with everything, ranking it as uninformative
    instead of erroring.
    """
    norms = np.linalg.norm(rows, axis=-1, keepdims=True)
    return np.divide(rows, norms, out=np.zeros(rows.shape), where=norms >= DEGENERATE_NORM)


def softmax(scores: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax along the last axis; entries positive and
    summing to 1."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise EmptyInput("softmax of empty score vector")
    e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def cross_entropy(probs: np.ndarray, targets) -> np.ndarray:
    """-ln(probs[..., target]) per row of class probabilities, with the
    argument clamped at 1e-300."""
    probs = np.asarray(probs, dtype=np.float64)
    targets = np.asarray(targets)
    if np.any((targets < 0) | (targets >= probs.shape[-1])):
        raise IndexOutOfRange(f"targets {targets} for {probs.shape[-1]} classes")
    picked = np.take_along_axis(probs, targets[..., np.newaxis], axis=-1)[..., 0]
    return -np.log(np.maximum(picked, 1e-300))
