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
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import DimensionMismatch, NonFiniteGradient, NonFiniteValue, StoreFormatError
from .numerics import Rng64, cross_entropy, softmax, unit_rows
from .store import _read_header, _reject_trailing, _require

CHECKPOINT_MAGIC = b"CPEH"
CHECKPOINT_VERSION = 1


def score_tensor(queries: np.ndarray, protos: np.ndarray) -> np.ndarray:
    """Squared cosine between every row of every query (Q, r, D) and every
    row of every prototype (N, r', D): the (Q, N, r, r') score tensor."""
    if queries.shape[-1] != protos.shape[-1]:
        raise DimensionMismatch(f"fused dims differ: {queries.shape[-1]} vs {protos.shape[-1]}")
    s = np.matmul(unit_rows(queries)[:, np.newaxis], unit_rows(protos).transpose(0, 2, 1))
    np.square(s, out=s)
    # rounding can push a squared cosine a few ulp past 1
    return np.minimum(s, 1.0, out=s)


class ScheduleKind(enum.Enum):
    CONSTANT = "constant"
    COSINE = "cosine"


@dataclass
class OptimizerConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    schedule: ScheduleKind = ScheduleKind.COSINE
    lr_floor: float = 1e-6
    total_steps: int = 1

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
    def initialize(cls, input_dim: int, hidden_dim: int, rng: Rng64) -> "MlpHead":
        """Uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)] per layer; zero moments."""
        bound1 = 1.0 / math.sqrt(input_dim)
        bound2 = 1.0 / math.sqrt(hidden_dim)
        head = cls(input_dim, hidden_dim, np.zeros((3, group_size(input_dim, hidden_dim))))
        head.w1[:] = (rng.uniforms(head.w1.size) * 2 - 1).reshape(head.w1.shape) * bound1
        head.b1[:] = (rng.uniforms(hidden_dim) * 2 - 1) * bound1
        head.w2[:] = (rng.uniforms(hidden_dim) * 2 - 1) * bound2
        head.b2 = (rng.uniform() * 2 - 1) * bound2
        return head


def head_forward(
    head: MlpHead, scores: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """W1 -> ReLU -> w2 over score matrices (..., r, r).

    Returns (x, pre, hidden, out): the flattened scores (n, input_dim), the
    hidden layer before and after the rectifier (n, H), and the class
    scores, shaped like the leading axes of ``scores``.
    """
    x = np.asarray(scores, dtype=np.float64)
    lead, size = x.shape[:-2], x.shape[-2] * x.shape[-1]
    if size != head.input_dim:
        raise DimensionMismatch(f"score size {size}, head expects {head.input_dim}")
    x = x.reshape(-1, size)
    pre = x @ head.w1.T + head.b1
    hidden = np.maximum(pre, 0.0)
    return x, pre, hidden, (hidden @ head.w2 + head.b2).reshape(lead)


def class_probabilities(head: MlpHead, scores: np.ndarray) -> np.ndarray:
    """(Q, N) class probabilities of an episode's score tensor (Q, N, r, r),
    forward only: no loss and no gradients."""
    return softmax(head_forward(head, scores)[3])


def episode_loss_and_grads(
    head: MlpHead, scores: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, Gradients, np.ndarray]:
    """Cross-entropy of each query of an episode's score tensor (Q, N, r, r)
    against its target class, with analytic parameter gradients of the mean
    loss over the queries. Returns (losses (Q,), grads, probabilities (Q, N)).

    The rectifier subgradient at exactly 0 is taken as 0.
    """
    xs, pre, hidden, out = head_forward(head, scores)
    probs = softmax(out)
    dscores = probs.copy()
    dscores[np.arange(len(targets)), targets] -= 1.0  # d loss / d scores, per query
    dscores = dscores.reshape(-1) / len(targets)  # of the mean over queries
    dhidden = np.outer(dscores, head.w2) * (pre > 0.0)
    grads = Gradients(head.hidden_dim, np.empty_like(head.flat))
    np.matmul(dhidden.T, xs, out=grads.w1)
    np.sum(dhidden, axis=0, out=grads.b1)
    np.matmul(dscores, hidden, out=grads.w2)
    grads.b2 = np.sum(dscores)
    return cross_entropy(probs, targets), grads, probs


def optimizer_step(head: MlpHead, grads: Gradients, cfg: OptimizerConfig) -> MlpHead:
    """One decoupled-weight-decay adaptive-moment update of the state, in place."""
    g = grads.flat
    if not np.all(np.isfinite(g)):
        raise NonFiniteGradient("NaN/Inf in gradients")

    lr = cfg.lr_at(head.step)
    head.step += 1
    bc1 = 1.0 - cfg.beta1**head.step
    bc2 = 1.0 - cfg.beta2**head.step
    param, m, v = head.state
    m *= cfg.beta1
    m += (1.0 - cfg.beta1) * g
    v *= cfg.beta2
    v += (1.0 - cfg.beta2) * g * g
    # decay is decoupled: both terms reference the pre-update parameter
    param *= 1.0 - lr * cfg.weight_decay
    param -= lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
    return head


def save_head(head: MlpHead, destination) -> None:
    """Write a CPEH checkpoint (exact float64 round trip)."""
    if isinstance(destination, (str, Path)):
        with open(destination, "wb") as fh:
            save_head(head, fh)
        return
    buf: BinaryIO = destination
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<HII", CHECKPOINT_VERSION, head.input_dim, head.hidden_dim))
    # through the buffer protocol: tobytes() would copy the whole state first
    buf.write(memoryview(np.ascontiguousarray(head.state, "<f8")))
    buf.write(struct.pack("<Q", head.step))


def load_head(source) -> MlpHead:
    """Parse a CPEH path or binary source in one read, rejecting a head
    without inputs or hidden units, trailing bytes and non-finite
    parameters or moments."""
    data, (input_dim, hidden) = _read_header(source, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "II")
    if input_dim == 0 or hidden == 0:
        raise StoreFormatError(f"empty checkpoint head: input_dim {input_dim}, hidden_dim {hidden}")
    size = group_size(input_dim, hidden)
    end = 14 + 8 * 3 * size + 8  # the state, then the step counter
    _require(data, end, "parameters")
    _reject_trailing(data, end)
    # one aligned, writable copy
    state = np.frombuffer(data, "<f8", 3 * size, 14).astype(np.float64).reshape(3, size)
    if not np.all(np.isfinite(state)):
        raise NonFiniteValue("checkpoint contains NaN/Inf parameters or moments")
    (step,) = struct.unpack_from("<Q", data, end - 8)
    return MlpHead(input_dim, hidden, state, step)
