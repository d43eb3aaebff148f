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

from .errors import BadMagic, DimensionMismatch, NonFiniteGradient, UnsupportedVersion
from .numerics import Rng64, cross_entropy, softmax, unit_rows
from .selection import FusedRepresentation
from .store import _read_exact

CHECKPOINT_MAGIC = b"CPEH"
CHECKPOINT_VERSION = 1


def score_matrix(query: FusedRepresentation, proto: FusedRepresentation) -> np.ndarray:
    """Squared cosine between every (query row, proto row) pair."""
    if query.rows.shape[1] != proto.rows.shape[1]:
        raise DimensionMismatch(
            f"fused dims differ: {query.rows.shape[1]} vs {proto.rows.shape[1]}"
        )
    s = (unit_rows(query.rows) @ unit_rows(proto.rows).T) ** 2
    # rounding can push a squared cosine a few ulp past 1
    return np.minimum(s, 1.0)


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

    def scaled(self, factor: float) -> "Gradients":
        return Gradients(self.w1 * factor, self.b1 * factor, self.w2 * factor, self.b2 * factor)

    def add_(self, other: "Gradients") -> None:
        self.w1 += other.w1
        self.b1 += other.b1
        self.w2 += other.w2
        self.b2 += other.b2


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
    """W1 -> ReLU -> w2 over N score matrices, one per prototype.

    Returns (x, pre, hidden, out): the flattened scores (N, input_dim), the
    hidden layer before and after the rectifier (N, H), and the N class
    scores.
    """
    x = np.asarray(scores, dtype=np.float64)
    x = x.reshape(x.shape[0], -1)
    if x.shape[1] != head.input_dim:
        raise DimensionMismatch(f"score size {x.shape[1]}, head expects {head.input_dim}")
    pre = x @ head.w1.T + head.b1
    hidden = np.maximum(pre, 0.0)
    return x, pre, hidden, hidden @ head.w2 + head.b2


def class_probabilities(
    head: MlpHead, query: FusedRepresentation, protos: list[FusedRepresentation]
) -> np.ndarray:
    """Class probabilities of one query against N prototypes, forward only:
    no loss and no gradients."""
    scores = np.stack([score_matrix(query, p) for p in protos])
    return softmax(head_forward(head, scores)[3])


def episode_loss_and_grads(
    head: MlpHead,
    query: FusedRepresentation,
    protos: list[FusedRepresentation],
    target: int,
) -> tuple[float, Gradients, np.ndarray]:
    """Cross-entropy loss of one query against N prototypes, with analytic
    parameter gradients. Returns (loss, grads, class probabilities).

    The rectifier subgradient at exactly 0 is taken as 0.
    """
    scores = np.stack([score_matrix(query, p) for p in protos])
    xs, pre, hidden, out = head_forward(head, scores)
    probs = softmax(out)
    loss = cross_entropy(probs, target)

    dscores = probs.copy()
    dscores[target] -= 1.0  # d loss / d scores
    dw2 = dscores @ hidden
    db2 = float(np.sum(dscores))
    dhidden = np.outer(dscores, head.w2) * (pre > 0.0)
    dw1 = dhidden.T @ xs
    db1 = dhidden.sum(axis=0)
    return loss, Gradients(dw1, db1, dw2, db2), probs


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


def _write_f64(buf: BinaryIO, a) -> None:
    buf.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def save_head(head: MlpHead, destination) -> None:
    """Write a CPEH checkpoint (exact float64 round trip)."""
    if isinstance(destination, (str, Path)):
        with open(destination, "wb") as fh:
            save_head(head, fh)
        return
    buf: BinaryIO = destination
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<HII", CHECKPOINT_VERSION, head.input_dim, head.hidden_dim))
    for group in (
        (head.w1, head.b1, head.w2, [head.b2]),
        (head.moment1.w1, head.moment1.b1, head.moment1.w2, [head.moment1.b2]),
        (head.moment2.w1, head.moment2.b1, head.moment2.w2, [head.moment2.b2]),
    ):
        for arr in group:
            _write_f64(buf, arr)
    buf.write(struct.pack("<Q", head.step))


def load_head(source) -> MlpHead:
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            return load_head(fh)
    buf: BinaryIO = source
    magic = _read_exact(buf, 4, "magic")
    if magic != CHECKPOINT_MAGIC:
        raise BadMagic(f"expected {CHECKPOINT_MAGIC!r}, found {magic!r}")
    version, input_dim, hidden = struct.unpack("<HII", _read_exact(buf, 10, "header"))
    if version != CHECKPOINT_VERSION:
        raise UnsupportedVersion(f"checkpoint version {version}")

    def read_group():
        w1 = np.frombuffer(
            _read_exact(buf, 8 * hidden * input_dim, "W1"), dtype="<f8"
        ).reshape(hidden, input_dim).copy()
        b1 = np.frombuffer(_read_exact(buf, 8 * hidden, "b1"), dtype="<f8").copy()
        w2 = np.frombuffer(_read_exact(buf, 8 * hidden, "W2"), dtype="<f8").copy()
        (b2,) = struct.unpack("<d", _read_exact(buf, 8, "b2"))
        return w1, b1, w2, b2

    params = read_group()
    m1 = Gradients(*read_group())
    m2 = Gradients(*read_group())
    (step,) = struct.unpack("<Q", _read_exact(buf, 8, "step"))
    return MlpHead(input_dim, hidden, *params, moment1=m1, moment2=m2, step=step)
