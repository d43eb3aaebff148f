"""N-way K-shot episode sampling and support-prototype averaging."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InsufficientClasses, InsufficientRecords
from .numerics import rng_split
from .store import EmbeddingRecord, EmbeddingStore


@dataclass
class EpisodeSpec:
    n_way: int
    k_shot: int
    queries_per_class: int
    task_index: int
    base_seed: int


@dataclass
class Episode:
    """One sampled task as store row indices.

    ``class_map[i]`` is the store label behind episode-local class i, whose
    K supports are ``support_rows[i]``; queries carry local labels in
    [0, n_way).
    """

    class_map: list[int]
    support_rows: np.ndarray  # (N, K)
    query_rows: np.ndarray  # (Q,)
    query_labels: np.ndarray  # (Q,)


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


def sample_episode(store: EmbeddingStore, spec: EpisodeSpec) -> Episode:
    """Sample an episode, deterministic in (store, spec).

    Classes are drawn uniformly without replacement, then K+Q records per
    class without replacement: first K become the prototype, the rest
    queries. All randomness comes from rng_split(base_seed, task_index).
    """
    by_label = store.records_by_label()
    labels = sorted(by_label)
    if len(labels) < spec.n_way:
        raise InsufficientClasses(
            f"need {spec.n_way} classes, store has {len(labels)}"
        )
    need = spec.k_shot + spec.queries_per_class
    rng = rng_split(spec.base_seed, spec.task_index)
    chosen = rng.sample_without_replacement(len(labels), spec.n_way)
    class_map = [labels[i] for i in chosen]

    picked = np.empty((spec.n_way, need), dtype=np.intp)
    for local, label in enumerate(class_map):
        pool = by_label[label]
        if len(pool) < need:
            raise InsufficientRecords(
                f"class {label} has {len(pool)} records, need {need}"
            )
        picked[local] = [pool[i] for i in rng.sample_without_replacement(len(pool), need)]
    query_labels = np.repeat(np.arange(spec.n_way), spec.queries_per_class)
    return Episode(
        class_map, picked[:, : spec.k_shot], picked[:, spec.k_shot :].reshape(-1), query_labels
    )
