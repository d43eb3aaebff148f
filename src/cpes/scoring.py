"""Dense squared-cosine scoring, the trainable MLP head with hand-written
backpropagation, and a decoupled-weight-decay adaptive optimizer.

Only the head ever trains; embeddings are frozen inputs, so no gradient
flows into representations.
"""

from __future__ import annotations

import enum
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import InfeasibleConfig, StoreFormatError, setting
from .numerics import BLOCK_VALUES, all_finite, block_slices, cross_entropy, softmax, uniforms
from .store import _read_header, _reject_trailing, _require, _write

CHECKPOINT_MAGIC = b"CPEH"
CHECKPOINT_VERSION = 1
_HEADER = "II"  # after the magic and u16 version: input_dim, hidden_dim

def _matmuls(table: np.ndarray, rows, protos_t: np.ndarray, out: np.ndarray, blocks) -> None:
    """Write the clamped squared cosines of the blocks of queries taken from
    ``blocks``, an iterator the threads share, into out: next() on a list
    iterator is atomic under the GIL, so each block goes to one thread."""
    for block in blocks:
        scores = np.matmul(table[rows[block], np.newaxis], protos_t, out=out[block])
        # rounding can push a squared cosine a few ulp past 1
        np.minimum(np.square(scores, out=scores), 1.0, out=scores)


def tensor_threads(queries: int, query_values: int) -> int:
    """The score tensor's threads: one for a tensor of one block, on any cores. Where there
    are more, start_scores shares the tensor out and _episodes keeps a second buffer."""
    return numerics._THREADS if queries * query_values > BLOCK_VALUES else 1


def start_scores(table: np.ndarray, rows, protos: np.ndarray, out: np.ndarray, threads: int):
    """The first half of the (Q, N, r, r') score tensor: the squared cosine
    between every unit row of every query table[rows] (Q, r, D) and of every
    prototype (N, r', D), written into ``out`` a block of queries at a time,
    so no (Q, r, D) copy is made. Returns the block loop's arguments and the
    futures of the pool's shares, if any, which take blocks until
    finish_scores, so the caller may do other work between the two.

    ``threads`` is the tensor's tensor_threads, or that of the episode the
    caller starts it as a piece of. One thread scores every block on the
    calling thread, on any number of cores. With more, the pool gets a share
    for each block, up to one per other thread, and each thread takes the
    next block not yet taken until none is left, so a thread that starts
    late or is paused does fewer blocks and none waits on another's fixed
    share. Each block holds BLOCK_VALUES // threads values of the table at
    most (or one query), so the gathers in flight together stay within one
    block unless one query is larger than a thread's part. Each query's
    product is the same BLAS call on any thread, so the tensor does not
    depend on the thread count."""
    query_values = table.shape[1] * table.shape[2]
    blocks = block_slices(len(rows), query_values * threads)
    args = (table, rows, protos.transpose(0, 2, 1), out, iter(blocks))
    shares = min(threads - 1, len(blocks))
    return args, [numerics._pool().submit(_matmuls, *args) for _ in range(shares)]


def finish_scores(args, futures) -> np.ndarray:
    """The second half: the tensor, once the calling thread has taken the
    blocks left and every share has finished."""
    try:
        _matmuls(*args)
    finally:
        for future in futures:  # waits, so no share writes to out once this call is over
            future.exception()
    for future in futures:
        future.result()
    return args[3]


class ScheduleKind(enum.Enum):
    CONSTANT = "constant"
    COSINE = "cosine"


@dataclass
class OptimizerConfig:
    learning_rate: float = setting(1e-3, "--lr", least=0)
    beta1: float = setting(0.9, None, least=0, below=1)
    beta2: float = setting(0.999, None, least=0, below=1)
    eps: float = setting(1e-8, None, above=0)
    weight_decay: float = setting(0.01, "--weight-decay", least=0)
    schedule: ScheduleKind = setting(ScheduleKind.COSINE, "--schedule")
    lr_floor: float = setting(1e-6, "--lr-floor", least=0)
    total_steps: int = 1

    def check_schedule(self) -> None:
        if self.schedule is ScheduleKind.COSINE and self.lr_floor > self.learning_rate:
            raise InfeasibleConfig(f"lr_floor {self.lr_floor} must be <= learning_rate "
                                   f"{self.learning_rate} under the cosine schedule")

    def lr_at(self, t: int) -> float:
        if self.schedule is ScheduleKind.CONSTANT:
            return self.learning_rate
        frac = min(t / self.total_steps, 1.0) if self.total_steps > 0 else 1.0
        return self.lr_floor + 0.5 * (self.learning_rate - self.lr_floor) * (
            1.0 + math.cos(math.pi * frac)
        )


def group_size(input_dim: int, hidden_dim: int) -> int:
    """P, the floats in one CPEH group: W1 (H, I), b1 (H,), W2 (H,) and b2."""
    return hidden_dim * (input_dim + 2) + 1


class _Group:
    """W1, b1, W2 and the float b2 as named views of one flat (P,) vector,
    laid out in that order as one CPEH group."""

    hidden_dim: int
    flat: np.ndarray

    @property
    def w1(self) -> np.ndarray:
        return self.flat[: -2 * self.hidden_dim - 1].reshape(self.hidden_dim, -1)

    @property
    def b1(self) -> np.ndarray:
        return self.flat[-2 * self.hidden_dim - 1 : -self.hidden_dim - 1]

    @property
    def w2(self) -> np.ndarray:
        return self.flat[-self.hidden_dim - 1 : -1]

    @property
    def b2(self) -> float:
        return float(self.flat[-1])

    @b2.setter
    def b2(self, value: float) -> None:
        self.flat[-1] = value


@dataclass
class Gradients(_Group):
    hidden_dim: int
    flat: np.ndarray


@dataclass
class MlpHead(_Group):
    """score = w2 . relu(W1 @ flat(S) + b1) + b2. ``state`` (3, P) is the
    CPEH body: the parameters, then the two optimizer moments, each a group."""

    input_dim: int
    hidden_dim: int
    state: np.ndarray
    step: int = 0

    @property
    def flat(self) -> np.ndarray:
        return self.state[0]

    @classmethod
    def initialize(cls, input_dim: int, hidden_dim: int, state: int) -> "MlpHead":
        """Uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)] per layer from the
        stream at uint64 ``state``; zero moments. The draws go in group order,
        W1 and b1 (fan-in I), then W2 and b2 (fan-in H), a block at a time,
        so no (P,) temporary sits beside the state."""
        head = cls(input_dim, hidden_dim, np.zeros((3, group_size(input_dim, hidden_dim))))
        fan_h = head.flat.size - hidden_dim - 1  # where W2 starts
        for block in block_slices(head.flat.size, 1):
            part = head.flat[block]
            part[:] = uniforms(state, part.size, block.start) * 2 - 1
            cut = min(max(fan_h - block.start, 0), part.size)
            part[:cut] *= 1.0 / math.sqrt(input_dim)
            part[cut:] *= 1.0 / math.sqrt(hidden_dim)
        return head


@dataclass
class StepBuffers:
    """The arrays one training step's head pass writes, allocated once per
    train call and rewritten by every episode: the (n, H) hidden layer over
    the episode's n score matrices, its gradient, and the parameter gradients."""

    hidden: np.ndarray
    dhidden: np.ndarray
    grads: Gradients

    @classmethod
    def allocate(cls, n: int, head: MlpHead) -> "StepBuffers":
        hidden, dhidden = np.empty((2, n, head.hidden_dim))
        return cls(hidden, dhidden, Gradients(head.hidden_dim, np.empty_like(head.flat)))


def head_forward(head: MlpHead, scores, hidden=None) -> tuple[np.ndarray, np.ndarray]:
    """W1 -> ReLU over score matrices (..., r, r): the flattened scores x
    (n, input_dim) and the hidden layer relu(x W1^T + b1) (n, H), written
    into ``hidden`` (or a new array). The class scores are hidden @ w2 + b2."""
    x = np.asarray(scores, dtype=np.float64)
    x = x.reshape(-1, x.shape[-2] * x.shape[-1])
    hidden = np.matmul(x, head.w1.T, out=hidden)
    hidden += head.b1
    return x, np.maximum(hidden, 0.0, out=hidden)


def episode_loss_and_grads(
    head: MlpHead, scores: np.ndarray, targets: np.ndarray, buffers: StepBuffers
) -> tuple[np.ndarray, Gradients, np.ndarray]:
    """Cross-entropy of each query of an episode's score tensor (Q, N, r, r)
    against its target class, with analytic parameter gradients of the mean
    loss over the queries, written into ``buffers`` (StepBuffers.allocate of
    Q * N). Returns (losses (Q,), grads, probabilities (Q, N)).

    The rectifier subgradient at exactly 0 is taken as 0.
    """
    xs, hidden = head_forward(head, scores, buffers.hidden)
    probs = softmax((hidden @ head.w2 + head.b2).reshape(len(targets), -1))
    dscores = probs.copy()
    dscores[np.arange(len(targets)), targets] -= 1.0  # d loss / d scores, per query
    dscores = dscores.reshape(-1) / len(targets)  # of the mean over queries
    dhidden = np.multiply(dscores[:, np.newaxis], head.w2, out=buffers.dhidden)
    dhidden *= hidden > 0.0  # where the pre-activation is positive
    grads = buffers.grads
    np.matmul(dhidden.T, xs, out=grads.w1)
    np.sum(dhidden, axis=0, out=grads.b1)
    np.matmul(dscores, hidden, out=grads.w2)
    grads.b2 = np.sum(dscores)
    return cross_entropy(probs, targets), grads, probs


def optimizer_step(head: MlpHead, grads: Gradients, cfg: OptimizerConfig) -> MlpHead:
    """One decoupled-weight-decay adaptive-moment update of the state, in
    place, a block at a time: two (P,) temporaries would sit beside the score
    tensors and raise the peak memory. The gradients are finite: train runs
    each step under np.errstate, which raises at the first overflow."""
    lr = cfg.lr_at(head.step)
    head.step += 1
    bc1 = 1.0 - cfg.beta1**head.step
    bc2 = 1.0 - cfg.beta2**head.step
    temporaries = np.empty((2, min(grads.flat.size, BLOCK_VALUES)))
    for block in block_slices(grads.flat.size, 1):
        g, (param, m, v) = grads.flat[block], head.state[:, block]
        a, b = temporaries[:, : g.size]
        m *= cfg.beta1
        m += np.multiply(1.0 - cfg.beta1, g, out=a)
        v *= cfg.beta2
        np.multiply(1.0 - cfg.beta2, g, out=a)
        v += np.multiply(a, g, out=a)
        # decay is decoupled: both terms reference the pre-update parameter;
        # the step is (lr * (m / bc1)) / (sqrt(v / bc2) + eps)
        param *= 1.0 - lr * cfg.weight_decay
        np.multiply(lr, np.divide(m, bc1, out=a), out=a)
        np.sqrt(np.divide(v, bc2, out=b), out=b)
        b += cfg.eps
        param -= np.divide(a, b, out=a)
    return head


def save_head(head: MlpHead, destination) -> int:
    """Write a CPEH checkpoint (exact float64 round trip) to a path or a
    binary sink; returns bytes written."""
    header = (head.input_dim, head.hidden_dim)
    chunks = [memoryview(np.ascontiguousarray(head.state, "<f8")), struct.pack("<Q", head.step)]
    return _write(destination, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, _HEADER, header, chunks)


def load_head(source) -> MlpHead:
    """Parse a CPEH path or binary source in one read, rejecting a head
    without inputs or hidden units, trailing bytes and non-finite
    parameters or moments."""
    data, start, (input_dim, hidden) = _read_header(
        source, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, _HEADER
    )
    empty = [f"{k} 0" for k, v in dict(input_dim=input_dim, hidden_dim=hidden).items() if v == 0]
    if empty:
        raise StoreFormatError(f"empty checkpoint head: {', '.join(empty)}")
    size = group_size(input_dim, hidden)
    end = start + 8 * 3 * size + 8  # the state, then the step counter
    _require(data, end, "parameters")
    _reject_trailing(data, end)
    state = np.empty((3, size))  # aligned and writable, filled and checked a block at a time
    if not all_finite(np.frombuffer(data, "<f8", 3 * size, start), state.reshape(-1)):
        raise StoreFormatError("checkpoint contains NaN/Inf parameters or moments")
    (step,) = struct.unpack_from("<Q", data, end - 8)
    return MlpHead(input_dim, hidden, state, step)
