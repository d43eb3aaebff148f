import numpy as np
import pytest

from cpes.episodes import sample_episode
from cpes.errors import InsufficientClasses, InsufficientRecords
from cpes.numerics import rng_split
from cpes.store import EmbeddingStore
from oracles import (
    EmbeddingRecord,
    build_prototype,
    record,
    records,
    sample_episode_records,
    store_from_records,
)


def tiny_store(n_classes: int, per_class: int, dim=4, patches=3) -> EmbeddingStore:
    rng = rng_split(123, 0)
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


class TestSampleEpisode:
    def test_forced_partition_uses_every_record_once(self):
        n, k, q = 3, 2, 2
        store = tiny_store(n, k + q)
        ep = sample_episode(store, n, k, q, task_index=0, base_seed=1)
        query_ids = set(store.record_ids[ep.query_rows].tolist())
        assert len(ep.query_rows) == n * q
        assert len(query_ids) == n * q
        # supports are everything else; disjointness is structural
        assert len(query_ids | set()) == n * q

    def test_deterministic(self):
        store = tiny_store(6, 8)
        a = sample_episode(store, 4, 2, 3, task_index=11, base_seed=5)
        b = sample_episode(store, 4, 2, 3, task_index=11, base_seed=5)
        assert a.class_map == b.class_map
        np.testing.assert_array_equal(a.query_rows, b.query_rows)
        np.testing.assert_array_equal(a.support_rows, b.support_rows)

    def test_insufficient_classes(self):
        store = tiny_store(3, 10)
        with pytest.raises(InsufficientClasses):
            sample_episode(store, 4, 1, 1, 0, 0)

    def test_insufficient_records(self):
        store = tiny_store(5, 3)
        with pytest.raises(InsufficientRecords):
            sample_episode(store, 5, 2, 2, 0, 0)

    def test_support_query_disjoint_and_label_counts(self):
        store = tiny_store(6, 10)
        for task in range(20):
            ep = sample_episode(store, 4, 3, 2, task, base_seed=9)
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
            ep = sample_episode(store, 5, 1, 2, task, base_seed=3)
            seen.add((tuple(ep.class_map), tuple(ep.query_rows.tolist())))
        # at least most of 100 episodes must differ; identical pairs would
        # indicate broken stream splitting
        assert len(seen) == 100

    def test_same_draws_as_record_sampler(self):
        """Index episodes pick the records, in the order, that the
        record-at-a-time sampler picks from the same RNG stream."""
        store = tiny_store(6, 10)
        for task in range(20):
            ep = sample_episode(store, 4, 3, 2, task, base_seed=9)
            protos, queries, labels = sample_episode_records(store, 4, 3, 2, task, base_seed=9)
            assert [q.record_id for q in queries] == store.record_ids[ep.query_rows].tolist()
            assert labels == ep.query_labels.tolist()
            for proto, rows in zip(protos, ep.support_rows):
                expected = build_prototype([record(store, r) for r in rows])
                np.testing.assert_array_equal(proto.patch_embeddings, expected.patch_embeddings)


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
