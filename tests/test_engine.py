"""The batched episode engine against the per-record, per-query oracle
path in oracles.py: equal per-task accuracies and score tensors,
probabilities and gradients within 1e-12, and a store read whose float64
view equals a record-at-a-time read."""

import io

import numpy as np
import pytest

from cpes.episodes import plan_episodes, sample_episode
from cpes.harness import RunConfig, episode_scores, evaluate, head_input_dim, train
from cpes.numerics import rng_split
from cpes.scoring import MlpHead, episode_loss_and_grads
from cpes.selection import DistanceKind, representation_table
from cpes.store import read_store, write_store
from oracles import (
    episode_representations,
    evaluate_per_query,
    mean_query_grads,
    query_class_probabilities,
    read_records,
    record,
    score_matrix,
)
from test_store import random_store

TOLERANCE = 1e-12
GRID = [(m, k, kind) for m in (0, 1, 4, 16) for k in (1, 3, 5) for kind in DistanceKind]


def grid_id(point) -> str:
    m, k, kind = point
    return f"m{m}-k{k}-{kind.value}"


@pytest.mark.parametrize("m,k_shot,kind", GRID, ids=[grid_id(p) for p in GRID])
class TestEngineMatchesPerQueryPath:
    def test_per_task_accuracies_equal(self, small_store, m, k_shot, kind):
        cfg = RunConfig(
            n_way=5, k_shot=k_shot, queries_per_class=3, m=m, distance=kind,
            epochs=1, episodes_per_epoch=5, eval_tasks=8, hidden_dim=8, base_seed=m + k_shot,
        )
        head, _ = train(small_store, cfg)
        report = evaluate(head, small_store, cfg)
        assert report.per_task_accuracy == evaluate_per_query(head, small_store, cfg)

    def test_scores_probabilities_and_gradients(self, small_store, m, k_shot, kind):
        head = MlpHead.initialize(head_input_dim(m), 8, rng_split(m + k_shot, 31))
        reps = representation_table(small_store, m, kind)
        for task in range(3):
            episode = sample_episode(plan_episodes(small_store, 5, k_shot, 3, [task], 23), 0)
            scores = episode_scores(small_store, reps, episode, m, kind)
            _, grads, probs = episode_loss_and_grads(head, scores, episode.query_labels)

            protos, queries = episode_representations(small_store, episode, m, kind)
            expected_scores = np.stack([[score_matrix(q, p) for p in protos] for q in queries])
            assert np.array_equal(scores, expected_scores)
            expected = np.stack([query_class_probabilities(head, q, protos) for q in queries])
            assert np.max(np.abs(probs - expected)) <= TOLERANCE

            # relative to the largest gradient entry: db2 sums terms of size
            # ~1 to ~0, so its own magnitude is rounding noise
            reference = mean_query_grads(head, queries, protos, episode.query_labels)
            pairs = [
                (grads.w1, reference.w1), (grads.b1, reference.b1),
                (grads.w2, reference.w2), (grads.b2, reference.b2),
            ]
            scale = max(np.max(np.abs(want)) for _, want in pairs)
            error = max(np.max(np.abs(np.subtract(got, want))) for got, want in pairs)
            assert error <= TOLERANCE * scale


@pytest.mark.parametrize("seed", range(5))
def test_upcast_arrays_equal_per_record_read(small_store, seed):
    store = small_store if seed == 0 else random_store(seed)
    buf = io.BytesIO()
    write_store(store, buf)
    data = buf.getvalue()
    back = read_store(io.BytesIO(data))
    expected = read_records(data)
    every_patch = np.broadcast_to(np.arange(back.patches_m), (len(back), back.patches_m))
    class_embeddings, patch_embeddings = back.embeddings(np.arange(len(back)), every_patch)
    assert class_embeddings.dtype == patch_embeddings.dtype == np.float64
    assert len(expected) == len(back)
    for row, rec in enumerate(expected):
        assert np.array_equal(class_embeddings[row], rec.class_embedding)
        assert np.array_equal(patch_embeddings[row], rec.patch_embeddings)
        got = record(back, row)
        assert (got.record_id, got.label) == (rec.record_id, rec.label)
        assert np.array_equal(got.patch_embeddings, rec.patch_embeddings)
