"""N-way K-shot episode sampling, planned for a block of tasks at once."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleConfig
from .numerics import partial_shuffle, split_states
from .store import EmbeddingStore


@dataclass
class Episode:
    """One sampled task as store row indices: episode-local class i's K
    supports are ``support_rows[i]``; queries carry local labels in [0, n_way)."""

    support_rows: np.ndarray  # (N, K)
    query_rows: np.ndarray  # (Q,)
    query_labels: np.ndarray  # (Q,)


def plan_episodes(
    store: EmbeddingStore,
    n_way: int,
    k_shot: int,
    queries_per_class: int,
    task_indices,
    base_seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The support rows (T, N, K) and query rows (T, Q) of the T listed
    tasks, each deterministic in its task index and base_seed.

    Task t draws from stream t of base_seed: one block picks N classes
    uniformly without replacement, the next K+Q records per class without
    replacement, the first K its prototype and the rest queries. All T tasks'
    blocks are drawn as one, with each row's bounds gathered from its picked
    classes' sizes, which are checked before the record block is drawn.
    """
    labels, pools = np.array(list(store.by_label), np.intp), list(store.by_label.values())
    if len(pools) < n_way:
        raise InfeasibleConfig(f"need {n_way} classes, store has {len(pools)}")
    need, class_sizes = k_shot + queries_per_class, np.array([len(pool) for pool in pools])
    states = split_states(base_seed, task_indices)
    classes = np.tile(np.arange(len(pools)), (len(states), 1, 1))
    picks, states = partial_shuffle(states, classes, np.full(classes.shape[:2], len(pools)), n_way)
    picks, sizes = picks[:, 0], class_sizes[picks[:, 0]]
    if (short := sizes < need).any():
        task, at = np.argwhere(short)[0]
        raise InfeasibleConfig(
            f"class {labels[picks[task, at]]} has {sizes[task, at]} records, need {need}"
        )
    # each picked class's rows, padded to the largest pool with a row the shuffle never reaches
    rows = np.concatenate(pools)
    slots = (np.cumsum(class_sizes) - class_sizes)[picks, np.newaxis] + np.arange(max(class_sizes))
    chosen, _ = partial_shuffle(states, rows[np.minimum(slots, len(rows) - 1)], sizes, need)
    queries = chosen[..., k_shot:].reshape(len(states), n_way * queries_per_class)
    return chosen[..., :k_shot], queries


def sample_episode(plan: tuple[np.ndarray, np.ndarray], index: int) -> Episode:
    """Task ``index`` of a plan_episodes plan as an Episode: a slice of the
    plan, which draws nothing."""
    support_rows, query_rows = plan
    n_way = support_rows.shape[1]
    query_labels = np.repeat(np.arange(n_way), query_rows.shape[1] // n_way)
    return Episode(support_rows[index], query_rows[index], query_labels)
