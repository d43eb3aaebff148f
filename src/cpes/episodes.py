"""N-way K-shot episode sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientClasses, InsufficientRecords
from .numerics import rng_split
from .store import EmbeddingStore


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
