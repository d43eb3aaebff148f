"""Dense squared-cosine scoring, the trainable MLP head with hand-written
backpropagation, and a decoupled-weight-decay adaptive optimizer.

Only the head ever trains; embeddings are frozen inputs, so no gradient
flows into representations.
"""

from __future__ import annotations

import enum
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import (
    BadMagic,
    DimensionMismatch,
    NonFiniteGradient,
    NonFiniteValue,
    UnsupportedVersion,
)
from .numerics import Rng64, cross_entropy, softmax, unit_rows
from .store import _read_all, _reject_trailing, _require

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


@dataclass
class Gradients:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float


@dataclass
class MlpHead:
    """score = w2 . relu(W1 @ flat(S) + b1) + b2, plus optimizer state."""

    input_dim: int
    hidden_dim: int
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float
    moment1: Gradients = field(default=None)  # type: ignore[assignment]
    moment2: Gradients = field(default=None)  # type: ignore[assignment]
    step: int = 0

    def __post_init__(self):
        if self.moment1 is None:
            self.moment1 = self._zeros()
        if self.moment2 is None:
            self.moment2 = self._zeros()

    def _zeros(self) -> Gradients:
        return Gradients(
            np.zeros_like(self.w1), np.zeros_like(self.b1), np.zeros_like(self.w2), 0.0
        )

    @classmethod
    def initialize(cls, input_dim: int, hidden_dim: int, rng: Rng64) -> "MlpHead":
        """Uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)] per layer."""
        bound1 = 1.0 / math.sqrt(input_dim)
        bound2 = 1.0 / math.sqrt(hidden_dim)
        w1 = (rng.uniforms(hidden_dim * input_dim) * 2 - 1).reshape(hidden_dim, input_dim) * bound1
        b1 = (rng.uniforms(hidden_dim) * 2 - 1) * bound1
        w2 = (rng.uniforms(hidden_dim) * 2 - 1) * bound2
        b2 = (rng.uniform() * 2 - 1) * bound2
        return cls(input_dim, hidden_dim, w1, b1, w2, b2)


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
    grads = Gradients(dhidden.T @ xs, dhidden.sum(axis=0), dscores @ hidden, float(np.sum(dscores)))
    return cross_entropy(probs, targets), grads, probs


def optimizer_step(head: MlpHead, grads: Gradients, cfg: OptimizerConfig) -> MlpHead:
    """One decoupled-weight-decay adaptive-moment update, in place."""
    for g in (grads.w1, grads.b1, grads.w2):
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient("NaN/Inf in gradients")
    if not math.isfinite(grads.b2):
        raise NonFiniteGradient("NaN/Inf in gradients")

    lr = cfg.lr_at(head.step)
    head.step += 1
    bc1 = 1.0 - cfg.beta1**head.step
    bc2 = 1.0 - cfg.beta2**head.step

    def update(param, g, m, v):
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        # decay is decoupled: both terms reference the pre-update parameter
        param *= 1.0 - lr * cfg.weight_decay
        param -= lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)

    update(head.w1, grads.w1, head.moment1.w1, head.moment2.w1)
    update(head.b1, grads.b1, head.moment1.b1, head.moment2.b1)
    update(head.w2, grads.w2, head.moment1.w2, head.moment2.w2)
    # scalar bias: same update, no numpy views to mutate
    m = head.moment1.b2 = cfg.beta1 * head.moment1.b2 + (1.0 - cfg.beta1) * grads.b2
    v = head.moment2.b2 = cfg.beta2 * head.moment2.b2 + (1.0 - cfg.beta2) * grads.b2**2
    head.b2 = head.b2 * (1.0 - lr * cfg.weight_decay) - lr * (m / bc1) / (
        math.sqrt(v / bc2) + cfg.eps
    )
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
    # parameters, then both moments: each group is W1, b1, W2, b2
    for group in (head, head.moment1, head.moment2):
        for arr in (group.w1, group.b1, group.w2, [group.b2]):
            buf.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    buf.write(struct.pack("<Q", head.step))


def load_head(source) -> MlpHead:
    """Parse a CPEH path or binary source in one read, rejecting trailing
    bytes and non-finite parameters or moments."""
    data = _read_all(source)
    _require(data, 4, "magic")
    if data[:4] != CHECKPOINT_MAGIC:
        raise BadMagic(f"expected {CHECKPOINT_MAGIC!r}, found {data[:4]!r}")
    _require(data, 14, "header")
    version, input_dim, hidden = struct.unpack_from("<HII", data, 4)
    if version != CHECKPOINT_VERSION:
        raise UnsupportedVersion(f"checkpoint version {version}")
    sizes = (hidden * input_dim, hidden, hidden, 1)  # W1, b1, W2, b2 of a group
    count = 3 * sum(sizes)
    end = 14 + 8 * count + 8  # the float groups, then the step counter
    _require(data, end, "parameters")
    _reject_trailing(data, end)
    # one aligned, writable copy; the head's arrays are views into it
    floats = np.frombuffer(data, dtype="<f8", count=count, offset=14).astype(np.float64)
    if not np.all(np.isfinite(floats)):
        raise NonFiniteValue("checkpoint contains NaN/Inf parameters or moments")
    (step,) = struct.unpack_from("<Q", data, end - 8)
    parts = np.split(floats, np.cumsum(sizes * 3)[:-1])
    params, m1, m2 = (
        (w1.reshape(hidden, input_dim), b1, w2, float(b2[0]))
        for w1, b1, w2, b2 in (parts[0:4], parts[4:8], parts[8:12])
    )
    return MlpHead(
        input_dim, hidden, *params, moment1=Gradients(*m1), moment2=Gradients(*m2), step=step
    )
