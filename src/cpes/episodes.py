"""N-way K-shot episode sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientClasses, InsufficientRecords
from .numerics import rng_split
from .store import EmbeddingStore


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


def sample_episode(
    store: EmbeddingStore,
    n_way: int,
    k_shot: int,
    queries_per_class: int,
    task_index: int,
    base_seed: int,
) -> Episode:
    """Sample an episode, deterministic in its arguments.

    One block of draws from rng_split(base_seed, task_index) picks N classes
    uniformly without replacement, one more picks K+Q records per class
    without replacement: first K become the prototype, the rest queries.
    Class sizes are checked before anything of size K+Q is allocated.
    """
    by_label = store.by_label
    if len(by_label) < n_way:
        raise InsufficientClasses(f"need {n_way} classes, store has {len(by_label)}")
    need = k_shot + queries_per_class
    rng = rng_split(base_seed, task_index)
    class_map = rng.samples_without_replacement([list(by_label)], n_way)[0]
    pools = [by_label[label] for label in class_map]
    for label, pool in zip(class_map, pools):
        if len(pool) < need:
            raise InsufficientRecords(f"class {label} has {len(pool)} records, need {need}")
    picked = np.array(rng.samples_without_replacement(pools, need), np.intp).reshape(n_way, need)
    query_labels = np.repeat(np.arange(n_way), queries_per_class)
    return Episode(class_map, picked[:, :k_shot], picked[:, k_shot:].reshape(-1), query_labels)
