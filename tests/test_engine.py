"""The batched episode engine against the per-record, per-query oracle
path in oracles.py: equal per-task accuracies and score tensors,
probabilities and gradients within 1e-12, and a store read whose float64
view equals a record-at-a-time read. The train and evaluate loops, which
write into per-call buffers, against the per-episode oracle path: equal
checkpoint bytes, training logs and per-task accuracies."""

import io
import json

import numpy as np
import pytest

import cpes.harness
from cpes.episodes import plan_episodes, sample_episode
from cpes.errors import InfeasibleConfig
from cpes.harness import RunConfig, evaluate, head_input_dim, train
from cpes.scoring import MlpHead, OptimizerConfig, episode_loss_and_grads, save_head
from cpes.selection import DistanceKind, representation_table
from cpes.store import read_store, write_store
from oracles import (
    episode_representations,
    episode_scores,
    evaluate_per_query,
    mean_query_grads,
    per_episode_evaluate,
    per_episode_train,
    query_class_probabilities,
    read_records,
    record,
    score_matrix,
    split_state,
)
from test_episodes import store_of_sizes
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
        head = MlpHead.initialize(head_input_dim(m), 8, split_state(m + k_shot, 31))
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


def head_bytes(head) -> bytes:
    buf = io.BytesIO()
    save_head(head, buf)
    return buf.getvalue()


def assert_loops_equal_per_episode_path(store, cfg) -> None:
    """train's checkpoint bytes and log, and evaluate's per-task accuracies
    of that head, equal the per-episode path's."""
    head, log = train(store, cfg)
    expected_head, expected_log = per_episode_train(store, cfg)
    assert head_bytes(head) == head_bytes(expected_head)
    assert json.dumps(log) == json.dumps(expected_log)
    assert evaluate(head, store, cfg).per_task_accuracy == per_episode_evaluate(head, store, cfg)


BUFFER_GRID = [(m, k, kind) for m in (0, 1, 4, 16) for k in (1, 3) for kind in DistanceKind]


class TestBufferedLoopsMatchPerEpisodePath:
    @pytest.mark.parametrize("m,k_shot,kind", BUFFER_GRID, ids=[grid_id(p) for p in BUFFER_GRID])
    def test_grid(self, small_store, m, k_shot, kind):
        cfg = RunConfig(
            n_way=5, k_shot=k_shot, queries_per_class=3, m=m, distance=kind, epochs=2,
            episodes_per_epoch=4, eval_tasks=6, hidden_dim=8, base_seed=m + 2 * k_shot,
        )
        assert_loops_equal_per_episode_path(small_store, cfg)

    def test_classes_of_unequal_size(self):
        store = store_of_sizes([5, 6, 7, 9, 10, 11, 12])
        for k_shot in (1, 2):
            cfg = RunConfig(n_way=4, k_shot=k_shot, queries_per_class=3, m=2, epochs=2,
                            episodes_per_epoch=5, eval_tasks=12, hidden_dim=6, base_seed=9)
            assert_loops_equal_per_episode_path(store, cfg)

    def test_chunks_of_eval_and_train(self, monkeypatch):
        """Both loops run over three planned chunks (pools of 200 records
        leave room for 63 tasks a chunk): the per-chunk class scores, softmax
        and accuracies equal the per-task ones, across the chunk boundaries."""
        chunks = []

        def plan(*args):
            chunks.append(len(args[4]))
            return plan_episodes(*args)

        monkeypatch.setattr(cpes.harness, "plan_episodes", plan)
        store = store_of_sizes([200] * 5)
        cfg = RunConfig(n_way=5, k_shot=1, queries_per_class=3, m=2, epochs=2,
                        episodes_per_epoch=65, eval_tasks=130, hidden_dim=6, base_seed=4)
        assert_loops_equal_per_episode_path(store, cfg)
        assert chunks == [63, 63, 4] * 2

    def test_two_calls_in_a_row(self, small_store):
        """No state carries over from one call's buffers to the next: each
        of two calls on one store equals the per-episode path."""
        first = RunConfig(n_way=5, k_shot=3, queries_per_class=2, m=4, epochs=1,
                          episodes_per_epoch=6, eval_tasks=5, hidden_dim=8, base_seed=1)
        second = RunConfig(n_way=3, k_shot=1, queries_per_class=4, m=4, epochs=1,
                           episodes_per_epoch=6, eval_tasks=5, hidden_dim=8, base_seed=2)
        for cfg in (first, second, first):
            assert_loops_equal_per_episode_path(small_store, cfg)

    @pytest.mark.parametrize(
        "optimizer",
        [OptimizerConfig(learning_rate=1e12), OptimizerConfig(weight_decay=1e12),
         OptimizerConfig(learning_rate=1e300, weight_decay=0.0)],
    )
    def test_overflow_stops_at_the_same_step(self, small_store, optimizer):
        cfg = RunConfig(n_way=5, k_shot=1, queries_per_class=3, m=4, epochs=1,
                        episodes_per_epoch=40, hidden_dim=8, optimizer=optimizer)
        with pytest.raises(InfeasibleConfig) as expected:
            per_episode_train(small_store, cfg)
        step = str(expected.value).removeprefix("overflow at step ")
        with pytest.raises(InfeasibleConfig, match=rf"overflow the head at step {step}: learning_rate"):
            train(small_store, cfg)
