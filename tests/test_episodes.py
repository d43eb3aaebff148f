import numpy as np
import pytest

import cpes.episodes
import cpes.harness
import oracles
from cpes.episodes import plan_episodes, sample_episode
from cpes.errors import InfeasibleConfig
from cpes.harness import RunConfig, _episodes, train
from cpes.numerics import split_states
from cpes.store import EmbeddingStore
from conftest import raises_exactly
from oracles import (
    GOLDEN,
    MASK64,
    EmbeddingRecord,
    build_prototype,
    per_task_episode,
    record,
    records,
    sample_episode_records,
    scalar_rng,
    split_state,
    state_before,
    store_from_records,
)


def tiny_store(n_classes: int, per_class: int, dim=4, patches=3) -> EmbeddingStore:
    rng = scalar_rng(123, 0)
    recs = []
    rid = 0
    for label in range(n_classes):
        for _ in range(per_class):
            recs.append(
                EmbeddingRecord(
                    rid,
                    label,
                    rng.normals(dim),
                    rng.normals(patches * dim).reshape(patches, dim),
                )
            )
            rid += 1
    return store_from_records(dim, patches, n_classes, recs)


def store_of_sizes(sizes, dim=4, patches=3) -> EmbeddingStore:
    """A store whose label i has sizes[i] records, the records of all labels
    shuffled together rather than grouped or ordered by label."""
    rng = scalar_rng(321, 0)
    labels = [label for label, size in enumerate(sizes) for _ in range(size)]
    order = rng.sample_without_replacement(len(labels), len(labels))
    recs = []
    for rid, i in enumerate(order):
        patch_embeddings = rng.normals(patches * dim).reshape(patches, dim)
        recs.append(EmbeddingRecord(rid, labels[i], rng.normals(dim), patch_embeddings))
    return store_from_records(dim, patches, len(sizes), recs)


def rejecting_state(word: int) -> int:
    """A state whose stream meets 2**64 - 1, which any bound above 1 that
    does not divide 2**64 rejects, as its draw number ``word``."""
    return (state_before(MASK64) - word * GOLDEN) & MASK64


def one_task(store, n_way, k_shot, q, task_index, base_seed):
    """The Episode of one task, planned on its own."""
    return sample_episode(plan_episodes(store, n_way, k_shot, q, [task_index], base_seed), 0)


def assert_same_as_record_sampler(store, n_way, k_shot, q, task, seed):
    """The index episode holds the classes and records, in the order, that
    the record-at-a-time sampler draws; returns the episode."""
    ep = one_task(store, n_way, k_shot, q, task, seed)
    protos, queries, labels = sample_episode_records(store, n_way, k_shot, q, task, seed)
    assert [p.label for p in protos] == ep.class_map
    assert [r.record_id for r in queries] == store.record_ids[ep.query_rows].tolist()
    assert labels == ep.query_labels.tolist()
    for proto, rows in zip(protos, ep.support_rows):
        expected = build_prototype([record(store, r) for r in rows])
        np.testing.assert_array_equal(proto.patch_embeddings, expected.patch_embeddings)
    return ep


class TestSampleEpisode:
    def test_forced_partition_uses_every_record_once(self):
        n, k, q = 3, 2, 2
        store = tiny_store(n, k + q)
        ep = one_task(store, n, k, q, task_index=0, base_seed=1)
        query_ids = set(store.record_ids[ep.query_rows].tolist())
        assert len(ep.query_rows) == n * q
        assert len(query_ids) == n * q
        # supports are everything else; disjointness is structural
        assert len(query_ids | set()) == n * q

    def test_deterministic(self):
        store = tiny_store(6, 8)
        a = one_task(store, 4, 2, 3, task_index=11, base_seed=5)
        b = one_task(store, 4, 2, 3, task_index=11, base_seed=5)
        assert a.class_map == b.class_map
        np.testing.assert_array_equal(a.query_rows, b.query_rows)
        np.testing.assert_array_equal(a.support_rows, b.support_rows)

    def test_insufficient_classes(self):
        store = tiny_store(3, 10)
        with raises_exactly(InfeasibleConfig, "need 4 classes, store has 3"):
            one_task(store, 4, 1, 1, 0, 0)

    def test_insufficient_records(self):
        store = tiny_store(5, 3)
        with raises_exactly(InfeasibleConfig, "class 3 has 3 records, need 4"):
            one_task(store, 5, 2, 2, 0, 0)

    def test_support_query_disjoint_and_label_counts(self):
        store = tiny_store(6, 10)
        for task in range(20):
            ep = one_task(store, 4, 3, 2, task, base_seed=9)
            for local in range(4):
                assert list(ep.query_labels).count(local) == 2
            # episode-local labels map bijectively onto sampled store labels
            assert len(set(ep.class_map)) == 4
            for row, local in zip(ep.query_rows, ep.query_labels):
                assert store.labels[row] == ep.class_map[local]

    def test_distinct_task_indices_differ(self):
        store = tiny_store(10, 20)
        seen = set()
        for task in range(100):
            ep = one_task(store, 5, 1, 2, task, base_seed=3)
            seen.add((tuple(ep.class_map), tuple(ep.query_rows.tolist())))
        # at least most of 100 episodes must differ; identical pairs would
        # indicate broken stream splitting
        assert len(seen) == 100

    def test_same_draws_as_record_sampler(self):
        """Index episodes pick the records, in the order, that the
        record-at-a-time sampler picks from the same RNG stream."""
        store = tiny_store(6, 10)
        for task in range(20):
            assert_same_as_record_sampler(store, 4, 3, 2, task, 9)

    def test_unequal_class_sizes_match_record_sampler(self):
        store = store_of_sizes([5, 6, 7, 9, 10, 11, 12])
        for task in range(40):
            assert_same_as_record_sampler(store, 4, 2, 3, task, 9)

    @pytest.mark.parametrize("word", [0, 2, 4, 6])
    def test_rejected_word_matches_record_sampler(self, monkeypatch, word):
        """The task's stream meets 2**64 - 1 as its draw number ``word``:
        among the 4 class picks (0, 2) or among the first class's record
        picks (4, 6). Both samplers discard it the same way."""
        state = rejecting_state(word)
        monkeypatch.setattr(oracles, "split_state", lambda seed, index: state)
        monkeypatch.setattr(
            cpes.episodes, "split_states", lambda seed, tasks: np.full(len(tasks), state, np.uint64)
        )
        store = store_of_sizes([5, 6, 7, 9, 10, 11, 12])
        ep = assert_same_as_record_sampler(store, 4, 2, 3, task=0, seed=0)
        first_pool = len(store.by_label[ep.class_map[0]])
        bound = [7, 6, 5, 4, first_pool, first_pool - 1, first_pool - 2][word]
        assert MASK64 >= (1 << 64) - (1 << 64) % bound  # the word is one randint rejects


def assert_plan_equals_per_task(store, n_way, k_shot, q, tasks, seed):
    """plan_episodes over ``tasks`` gives each task the Episode the per-task
    oracle samples, and sample_episode slices it out."""
    plan = plan_episodes(store, n_way, k_shot, q, tasks, seed)
    assert [len(part) for part in plan] == [len(tasks)] * 3
    for index, task in enumerate(tasks):
        expected = per_task_episode(store, n_way, k_shot, q, task, seed)
        assert_same_episode(sample_episode(plan, index), expected)


def assert_same_episode(ep, expected):
    assert ep.class_map == expected.class_map
    np.testing.assert_array_equal(ep.support_rows, expected.support_rows)
    np.testing.assert_array_equal(ep.query_rows, expected.query_rows)
    np.testing.assert_array_equal(ep.query_labels, expected.query_labels)


class TestPlanEpisodes:
    """plan_episodes draws every task of a block at once and gives the rows
    the per-task oracle (the package's former sampler) draws."""

    @pytest.mark.parametrize("k_shot", [1, 5])
    @pytest.mark.parametrize("which", ["sweep_train_store", "sweep_eval_store"])
    def test_sweep_stores_equal_per_task_sampler(self, request, which, k_shot):
        store = request.getfixturevalue(which)
        assert_plan_equals_per_task(store, 5, k_shot, 15, range(300), 0)
        assert_plan_equals_per_task(store, 5, k_shot, 15, [299], 0)  # T = 1, not task 0
        assert_plan_equals_per_task(store, 5, k_shot, 15, [7, 3, 7], 2**64 - 1)

    @pytest.mark.parametrize("k_shot", [1, 5])
    def test_harness_chunks_equal_per_task_sampler(self, monkeypatch, sweep_train_store, k_shot):
        """The run's episodes, planned a chunk at a time, are the per-task
        oracle's for every task, across the chunk boundaries."""
        chunks = []

        def plan(*args):
            chunks.append(len(args[4]))
            return plan_episodes(*args)

        monkeypatch.setattr(cpes.harness, "plan_episodes", plan)
        cfg = RunConfig(n_way=5, k_shot=k_shot, queries_per_class=15, m=0)
        runs = _episodes(sweep_train_store, cfg, 0, 11, 600)
        episodes = [episode for _, run in runs for episode, _ in run]
        assert len(chunks) > 1 and sum(chunks) == len(episodes) == 600
        for task, episode in enumerate(episodes):
            expected = per_task_episode(sweep_train_store, 5, k_shot, 15, task, 11)
            assert_same_episode(episode, expected)

    def test_unequal_class_sizes(self):
        store = store_of_sizes([5, 6, 7, 9, 10, 11, 12])
        assert_plan_equals_per_task(store, 4, 2, 3, range(60), 9)
        assert_plan_equals_per_task(store, 7, 1, 4, range(20), 3)

    def test_no_tasks_samples_nothing(self):
        store = tiny_store(6, 8)
        class_maps, support_rows, query_rows = plan_episodes(store, 4, 2, 3, [], 5)
        assert class_maps.shape == (0, 4)
        assert support_rows.shape == (0, 4, 2)
        assert query_rows.shape == (0, 12)
        cfg = RunConfig(n_way=5, k_shot=3, queries_per_class=3, m=1, epochs=0)
        assert list(_episodes(tiny_store(3, 2), cfg, 1, 0, 0)) == []
        _, log = train(tiny_store(3, 2), cfg)  # too few classes and records: never sampled
        assert log == []

    @pytest.mark.parametrize("word", [0, 2, 4, 6])
    def test_rejected_word_in_a_later_task(self, monkeypatch, word):
        """Task 3 of 6 meets a rejected word among its class picks (0, 2),
        which moves where its record picks start, or among its record picks
        (4, 6); the other tasks of the block draw as they would alone. The
        state and store are test_rejected_word_matches_record_sampler's,
        which shows each of these words is one a draw rejects."""
        state = rejecting_state(word)

        def states(seed, tasks):
            out = split_states(seed, tasks)
            out[np.asarray(tasks) == 3] = state
            return out

        monkeypatch.setattr(cpes.episodes, "split_states", states)
        monkeypatch.setattr(
            oracles, "split_state", lambda seed, i: state if i == 3 else split_state(seed, i)
        )
        assert_plan_equals_per_task(store_of_sizes([5, 6, 7, 9, 10, 11, 12]), 4, 2, 3, range(6), 0)

    def test_insufficient_classes_message(self):
        store = tiny_store(3, 10)
        with raises_exactly(InfeasibleConfig, "need 4 classes, store has 3"):
            per_task_episode(store, 4, 1, 1, 0, 0)
        with raises_exactly(InfeasibleConfig, "need 4 classes, store has 3"):
            plan_episodes(store, 4, 1, 1, range(5), 0)

    def test_insufficient_records_names_first_offending_task_and_class(self):
        """Classes 0 and 1 are too small for 2 supports and 6 queries. Over
        windows of tasks the plan names what the per-task sampler meets
        first, which is not always in the window's first task."""
        store = store_of_sizes([5, 7, 8, 9, 10, 11, 12, 13])
        later = 0
        for start in range(12):
            tasks = range(start, start + 20)
            for first, task in enumerate(tasks):
                try:
                    per_task_episode(store, 3, 2, 6, task, 4)
                except InfeasibleConfig as error:
                    expected = str(error)
                    break
            else:
                raise AssertionError(f"no task of {tasks} is short of records")
            later += first > 0
            with raises_exactly(InfeasibleConfig, expected):
                plan_episodes(store, 3, 2, 6, tasks, 4)
            assert_plan_equals_per_task(store, 3, 2, 6, tasks[:first], 4)
        assert later > 0


class TestBuildPrototype:
    def test_single_record_identity(self):
        store = tiny_store(1, 1)
        rec = record(store, 0)
        proto = build_prototype([rec])
        np.testing.assert_array_equal(proto.class_embedding, rec.class_embedding)
        np.testing.assert_array_equal(proto.patch_embeddings, rec.patch_embeddings)

    def test_two_record_mean(self):
        a = EmbeddingRecord(0, 0, np.array([1.0, 0.0]), np.zeros((1, 2)))
        b = EmbeddingRecord(1, 0, np.array([0.0, 1.0]), np.ones((1, 2)))
        proto = build_prototype([a, b])
        np.testing.assert_allclose(proto.class_embedding, [0.5, 0.5])
        np.testing.assert_allclose(proto.patch_embeddings, [[0.5, 0.5]])

    def test_identical_records(self):
        store = tiny_store(1, 1)
        rec = record(store, 0)
        proto = build_prototype([rec, rec, rec])
        np.testing.assert_allclose(proto.class_embedding, rec.class_embedding)

    def test_permutation_invariance(self):
        store = tiny_store(1, 5)
        recs = records(store)
        a = build_prototype(recs)
        b = build_prototype(list(reversed(recs)))
        np.testing.assert_allclose(a.class_embedding, b.class_embedding, atol=1e-12)
        np.testing.assert_allclose(a.patch_embeddings, b.patch_embeddings, atol=1e-12)
