"""Reference implementations the tests compare the package against.

The per-record, per-query path here is the one the package ran before its
episode engine and selection were batched: records as float64 objects, a
K-shot prototype built as a record, one similarity sequence and one
lexsort ranking per record, one fused representation per record, one
score matrix per (query, prototype) pair and one loss and gradient per
query. Tests require the batched engine to match it. ``record``,
``records`` and ``store_from_records`` convert between array stores and
records.

The head here is the one the package kept before its state became one flat
array: parameters and moments as separate tensors, b2 a Python float, and
an optimizer step per tensor. ``head_of`` and ``grads_of`` build the flat
state from separate tensors; ``moment`` and ``per_tensor_head`` read it back.
"""

import math
import struct
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from cpes.episodes import EpisodeSpec
from cpes.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NonFiniteGradient,
    SelectionOutOfRange,
)
from cpes.harness import resolve_m
from cpes.numerics import DEGENERATE_NORM, rng_split, softmax, unit_rows
from cpes.scoring import Gradients, MlpHead, head_forward
from cpes.selection import FUSION_CLASS_WEIGHT, DistanceKind
from cpes.store import EmbeddingStore


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity in [-1, 1]; 0 for near-zero-norm inputs.

    Scalar oracle for the package's degenerate-vector policy
    (``cpes.numerics.unit_rows``).
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise DimensionMismatch(f"cosine: shapes {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu < DEGENERATE_NORM or nv < DEGENERATE_NORM:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


# -- stores as lists of records ---------------------------------------------


@dataclass
class EmbeddingRecord:
    """One image's encoder output: a class embedding plus M patch embeddings."""

    record_id: int
    label: int
    class_embedding: np.ndarray  # (D,) float64
    patch_embeddings: np.ndarray  # (M, D) float64


def record(store: EmbeddingStore, row: int) -> EmbeddingRecord:
    """The store's record at ``row``, upcast to float64."""
    return EmbeddingRecord(
        int(store.record_ids[row]),
        int(store.labels[row]),
        store.class_embeddings[row].astype(np.float64),
        store.patch_embeddings[row].astype(np.float64),
    )


def records(store: EmbeddingStore) -> list[EmbeddingRecord]:
    return [record(store, row) for row in range(len(store))]


def store_from_records(dim_d, patches_m, class_count, recs, ground_truth=None) -> EmbeddingStore:
    """A store holding ``recs`` at the float32 precision CPEM stores."""
    return EmbeddingStore(
        dim_d,
        patches_m,
        class_count,
        np.array([r.record_id for r in recs], dtype=np.uint64),
        np.array([r.label for r in recs], dtype=np.uint32),
        np.array([r.class_embedding for r in recs], dtype=np.float32).reshape(len(recs), dim_d),
        np.array([r.patch_embeddings for r in recs], dtype=np.float32).reshape(
            len(recs), patches_m, dim_d
        ),
        ground_truth,
    )


def read_records(data: bytes) -> list[EmbeddingRecord]:
    """CPEM body as float64 records, one ``struct`` read per field."""
    _, _, dim_d, patches_m, _, count = struct.unpack_from("<HHIIIQ", data, 4)
    offset = 28
    out = []
    for _ in range(count):
        record_id, label = struct.unpack_from("<QI", data, offset)
        offset += 12
        cls = np.frombuffer(data, "<f4", dim_d, offset).astype(np.float64)
        offset += 4 * dim_d
        patches = np.frombuffer(data, "<f4", patches_m * dim_d, offset).astype(np.float64)
        offset += 4 * patches_m * dim_d
        out.append(EmbeddingRecord(record_id, label, cls, patches.reshape(patches_m, dim_d)))
    return out


def build_prototype(supports: list[EmbeddingRecord]) -> EmbeddingRecord:
    """Position-wise mean of K support records of one class."""
    first = supports[0]
    for rec in supports[1:]:
        if (
            rec.class_embedding.shape != first.class_embedding.shape
            or rec.patch_embeddings.shape != first.patch_embeddings.shape
        ):
            raise DimensionMismatch("support records disagree on D or M")
    class_embedding = np.mean([r.class_embedding for r in supports], axis=0)
    patch_embeddings = np.mean([r.patch_embeddings for r in supports], axis=0)
    return EmbeddingRecord(first.record_id, first.label, class_embedding, patch_embeddings)


# -- per-record selection and per-pair scoring -------------------------------


def similarity_sequence(rec: EmbeddingRecord, kind: DistanceKind) -> np.ndarray:
    """Per-patch similarity of the record's patches to its class embedding."""
    c = rec.class_embedding
    patches = rec.patch_embeddings
    if kind is DistanceKind.COS:
        return unit_rows(patches) @ unit_rows(c[np.newaxis])[0]
    if kind is DistanceKind.DOT:
        return patches @ c
    diff = patches - c
    if kind is DistanceKind.ABS:
        return -np.sum(np.abs(diff), axis=1)
    return -np.sum(diff * diff, axis=1)  # SQR


def select_top(similarities, m: int) -> list[int]:
    """Indices of the m largest similarities, ties broken by lower index."""
    similarities = np.asarray(similarities, dtype=np.float64)
    big = similarities.size
    if not 0 <= m <= big:
        raise SelectionOutOfRange(f"m={m} with M={big}")
    # lexsort: primary key last -> sort by -sim, then by index ascending
    order = np.lexsort((np.arange(big), -similarities))
    return [int(i) for i in order[:m]]


@dataclass
class FusedRepresentation:
    rows: np.ndarray  # (m, D), or (1, D) class-only fallback when m=0
    source_indices: list[int]


def fuse(rec: EmbeddingRecord, indices) -> FusedRepresentation:
    """Add twice the class embedding to each selected patch; m=0 falls back
    to the bare class embedding as the single row."""
    indices = [int(i) for i in indices]
    if not indices:
        return FusedRepresentation(
            rows=rec.class_embedding[np.newaxis, :].copy(), source_indices=[]
        )
    for i in indices:
        if not 0 <= i < rec.patch_embeddings.shape[0]:
            raise IndexOutOfRange(f"patch index {i}")
    rows = rec.patch_embeddings[indices] + FUSION_CLASS_WEIGHT * rec.class_embedding
    return FusedRepresentation(rows=rows, source_indices=indices)


def fused(rec: EmbeddingRecord, m: int, kind) -> FusedRepresentation:
    return fuse(rec, select_top(similarity_sequence(rec, kind), m))


def score_matrix(query: FusedRepresentation, proto: FusedRepresentation) -> np.ndarray:
    """Squared cosine between every (query row, proto row) pair."""
    if query.rows.shape[1] != proto.rows.shape[1]:
        raise DimensionMismatch(
            f"fused dims differ: {query.rows.shape[1]} vs {proto.rows.shape[1]}"
        )
    s = (unit_rows(query.rows) @ unit_rows(proto.rows).T) ** 2
    return np.minimum(s, 1.0)


# -- episodes of records -----------------------------------------------------


def sample_episode_records(store: EmbeddingStore, spec: EpisodeSpec):
    """(prototypes, queries, query labels) as records, drawing from the RNG
    in the order ``cpes.sample_episode`` must keep."""
    by_label: dict[int, list[int]] = {}
    for row, label in enumerate(store.labels.tolist()):
        by_label.setdefault(label, []).append(row)
    labels = sorted(by_label)
    need = spec.k_shot + spec.queries_per_class
    rng = rng_split(spec.base_seed, spec.task_index)
    chosen = rng.sample_without_replacement(len(labels), spec.n_way)
    protos, queries, query_labels = [], [], []
    for local, label in enumerate(labels[i] for i in chosen):
        pool = by_label[label]
        picks = [record(store, pool[i]) for i in rng.sample_without_replacement(len(pool), need)]
        protos.append(build_prototype(picks[: spec.k_shot]))
        queries.extend(picks[spec.k_shot :])
        query_labels.extend([local] * spec.queries_per_class)
    return protos, queries, query_labels


def evaluate_per_query(head, store: EmbeddingStore, cfg) -> list[float]:
    """Per-task accuracies of ``cpes.evaluate``, one query at a time."""
    m = resolve_m(store, cfg)
    per_task = []
    for task in range(cfg.eval_tasks):
        spec = EpisodeSpec(cfg.n_way, cfg.k_shot, cfg.queries_per_class, task, cfg.base_seed)
        protos, queries, labels = sample_episode_records(store, spec)
        protos = [fused(p, m, cfg.distance) for p in protos]
        correct = 0
        for query, label in zip(queries, labels):
            probs = query_class_probabilities(head, fused(query, m, cfg.distance), protos)
            correct += int(np.argmax(probs)) == label
        per_task.append(correct / len(queries))
    return per_task


def episode_representations(store: EmbeddingStore, episode, m: int, kind):
    """Fused (prototypes, queries) of an index episode, one record at a time."""
    protos = [build_prototype([record(store, r) for r in rows]) for rows in episode.support_rows]
    queries = [record(store, r) for r in episode.query_rows]
    return [fused(p, m, kind) for p in protos], [fused(q, m, kind) for q in queries]


# -- per-query head ----------------------------------------------------------


def query_class_probabilities(head, query, protos) -> np.ndarray:
    scores = np.stack([score_matrix(query, p) for p in protos])
    return softmax(head_forward(head, scores)[3])


def query_loss_and_grads(head, query, protos, target):
    """Cross-entropy loss of one query against N prototypes, with analytic
    parameter gradients. Returns (loss, grads, class probabilities)."""
    scores = np.stack([score_matrix(query, p) for p in protos])
    xs, pre, hidden, out = head_forward(head, scores)
    probs = softmax(out)
    loss = -math.log(max(float(probs[target]), 1e-300))

    dscores = probs.copy()
    dscores[target] -= 1.0
    dw2 = dscores @ hidden
    db2 = float(np.sum(dscores))
    dhidden = np.outer(dscores, head.w2) * (pre > 0.0)
    dw1 = dhidden.T @ xs
    db1 = dhidden.sum(axis=0)
    return loss, grads_of(dw1, db1, dw2, db2), probs


def add_grads(total: Gradients, other: Gradients) -> None:
    total.flat += other.flat


def scale_grads(g: Gradients, factor: float) -> Gradients:
    return Gradients(g.hidden_dim, g.flat * factor)


def mean_query_grads(head, queries, protos, labels) -> Gradients:
    """Per-query gradients summed in query order, then averaged."""
    total = None
    for query, label in zip(queries, labels):
        _, grads, _ = query_loss_and_grads(head, query, protos, int(label))
        if total is None:
            total = grads
        else:
            add_grads(total, grads)
    return scale_grads(total, 1.0 / len(queries))


# -- per-tensor head state and optimizer ------------------------------------


def grads_of(w1, b1, w2, b2: float) -> Gradients:
    """Gradients (or one group of a head's state) from its four tensors."""
    return Gradients(len(b1), np.concatenate([np.ravel(w1), b1, w2, [b2]]))


def head_of(w1, b1, w2, b2: float) -> MlpHead:
    """A head with the given parameters and zero moments."""
    params = grads_of(w1, b1, w2, b2).flat
    return MlpHead(np.shape(w1)[1], len(b1), np.stack([params, 0 * params, 0 * params]))


def zero_grads(head: MlpHead) -> Gradients:
    return Gradients(head.hidden_dim, np.zeros_like(head.flat))


def moment(head: MlpHead, k: int) -> Gradients:
    """The head's first (k=1) or second (k=2) optimizer moment."""
    return Gradients(head.hidden_dim, head.state[k])


def per_tensor_head(head: MlpHead) -> SimpleNamespace:
    """Separate copies of a head's parameters and moments, b2 a Python float."""

    def group(g):
        return SimpleNamespace(w1=g.w1.copy(), b1=g.b1.copy(), w2=g.w2.copy(), b2=g.b2)

    return SimpleNamespace(
        **vars(group(head)), moment1=group(moment(head, 1)), moment2=group(moment(head, 2)),
        step=head.step,
    )


def per_tensor_optimizer_step(head, grads, cfg):
    """One decoupled-weight-decay adaptive-moment update, in place: a
    closure per tensor, and a scalar copy of it for b2."""
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
