"""Reference implementations the tests compare the package against.

The per-record, per-query path here is the one the package ran before its
episode engine was batched: records as float64 objects, one fused
representation per record, one score matrix per (query, prototype) pair
and one loss and gradient per query. Tests require the batched engine to
match it. ``records`` and ``store_from_records`` convert between array
stores and lists of records.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from cpes.episodes import EpisodeSpec, build_prototype
from cpes.errors import DimensionMismatch, IndexOutOfRange
from cpes.harness import resolve_m
from cpes.numerics import DEGENERATE_NORM, rng_split, softmax, unit_rows
from cpes.scoring import Gradients, head_forward
from cpes.selection import FUSION_CLASS_WEIGHT, SelectionResult, select_top, similarity_sequence
from cpes.store import EmbeddingRecord, EmbeddingStore


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


def records(store: EmbeddingStore) -> list[EmbeddingRecord]:
    return [store.record(row) for row in range(len(store))]


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


# -- per-record selection and per-pair scoring -------------------------------


@dataclass
class FusedRepresentation:
    rows: np.ndarray  # (m, D), or (1, D) class-only fallback when m=0
    source_indices: list[int]


def fuse(record: EmbeddingRecord, selection: SelectionResult) -> FusedRepresentation:
    """Add twice the class embedding to each selected patch; m=0 falls back
    to the bare class embedding as the single row."""
    if not selection.indices:
        return FusedRepresentation(
            rows=record.class_embedding[np.newaxis, :].copy(), source_indices=[]
        )
    for i in selection.indices:
        if not 0 <= i < record.patch_embeddings.shape[0]:
            raise IndexOutOfRange(f"patch index {i}")
    rows = (
        record.patch_embeddings[selection.indices]
        + FUSION_CLASS_WEIGHT * record.class_embedding
    )
    return FusedRepresentation(rows=rows, source_indices=list(selection.indices))


def fused(record: EmbeddingRecord, m: int, kind) -> FusedRepresentation:
    return fuse(record, select_top(similarity_sequence(record, kind), m))


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
        picks = [store.record(pool[i]) for i in rng.sample_without_replacement(len(pool), need)]
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
    protos = [build_prototype([store.record(r) for r in rows]) for rows in episode.support_rows]
    queries = [store.record(r) for r in episode.query_rows]
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
    return loss, Gradients(dw1, db1, dw2, db2), probs


def add_grads(total: Gradients, other: Gradients) -> None:
    total.w1 += other.w1
    total.b1 += other.b1
    total.w2 += other.w2
    total.b2 += other.b2


def scale_grads(g: Gradients, factor: float) -> Gradients:
    return Gradients(g.w1 * factor, g.b1 * factor, g.w2 * factor, g.b2 * factor)


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
