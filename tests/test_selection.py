import numpy as np
import pytest
from hypothesis import given, strategies as st

from cpes.errors import SelectionOutOfRange
from cpes.numerics import rng_split
from cpes.selection import (
    DistanceKind,
    mask_json,
    mask_pgm,
    select_top,
    similarity_sequence,
)
from cpes.store import EmbeddingRecord
from oracles import fuse, records


def make_record(class_emb, patches) -> EmbeddingRecord:
    return EmbeddingRecord(
        0, 0, np.asarray(class_emb, dtype=np.float64), np.asarray(patches, dtype=np.float64)
    )


def brute_force_top(similarities, m):
    """Independent oracle: sort all (similarity, index) pairs and truncate."""
    order = sorted(range(len(similarities)), key=lambda i: (-similarities[i], i))
    return order[:m]


class TestSimilaritySequence:
    def test_cos_all_equal(self):
        rec = make_record([1.0, 2.0], [[1.0, 2.0]] * 4)
        np.testing.assert_allclose(
            similarity_sequence(rec, DistanceKind.COS), np.ones(4), atol=1e-12
        )

    def test_dot(self):
        rec = make_record([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(
            similarity_sequence(rec, DistanceKind.DOT), [1.0, 0.0]
        )

    def test_abs_negated_manhattan(self):
        rec = make_record([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(
            similarity_sequence(rec, DistanceKind.ABS), [0.0, -2.0]
        )

    def test_sqr_negated_euclidean_squared(self):
        rec = make_record([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(
            similarity_sequence(rec, DistanceKind.SQR), [0.0, -2.0]
        )

    def test_cos_matches_scalar_kernel(self):
        from oracles import cosine

        rng = rng_split(6, 0)
        rec = make_record(rng.normals(8), rng.normals(40).reshape(5, 8))
        sims = similarity_sequence(rec, DistanceKind.COS)
        for j in range(5):
            assert sims[j] == pytest.approx(
                cosine(rec.class_embedding, rec.patch_embeddings[j]), abs=1e-12
            )


class TestSelectTop:
    def test_basic(self):
        assert select_top(np.array([0.1, 0.9, 0.5]), 2).indices == [1, 2]

    def test_tie_break_ascending_index(self):
        assert select_top(np.array([0.5, 0.5, 0.1]), 1).indices == [0]

    def test_m_equals_big_is_permutation(self):
        sims = np.array([0.3, 0.7, 0.7, 0.1])
        sel = select_top(sims, 4)
        assert sorted(sel.indices) == [0, 1, 2, 3]
        assert sel.indices == [1, 2, 0, 3]

    def test_m_zero(self):
        assert select_top(np.array([1.0, 2.0]), 0).indices == []

    def test_out_of_range(self):
        with pytest.raises(SelectionOutOfRange):
            select_top(np.array([1.0]), 2)

    def test_oracle_equivalence_fuzz(self):
        rng = rng_split(8, 0)
        for trial in range(1000):
            big = 1 + rng.randint(32)
            sims = rng.normals(big)
            if trial % 3 == 0 and big >= 2:
                # inject ties
                sims[rng.randint(big)] = sims[rng.randint(big)]
            m = rng.randint(big + 1)
            assert select_top(sims, m).indices == brute_force_top(list(sims), m)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=16), st.data())
    def test_oracle_equivalence_property(self, sims, data):
        m = data.draw(st.integers(0, len(sims)))
        assert select_top(np.array(sims), m).indices == brute_force_top(sims, m)

    def test_selected_dominate_unselected(self):
        rng = rng_split(9, 0)
        for _ in range(200):
            sims = rng.normals(12)
            sel = select_top(sims, 5)
            rest = [i for i in range(12) if i not in sel.indices]
            assert min(sims[i] for i in sel.indices) >= max(sims[i] for i in rest)


class TestFuse:
    def test_linear_addition_with_coefficient_two(self):
        rec = make_record([3.0, 4.0], [[1.0, 2.0]])
        fused = fuse(rec, select_top(similarity_sequence(rec, DistanceKind.COS), 1))
        np.testing.assert_allclose(fused.rows, [[7.0, 10.0]])

    def test_zero_patch_gives_twice_class(self):
        rec = make_record([3.0, 4.0], [[0.0, 0.0], [1.0, 1.0]])
        sel = select_top(np.array([1.0, 0.0]), 1)
        fused = fuse(rec, sel)
        np.testing.assert_allclose(fused.rows, [[6.0, 8.0]])

    def test_empty_selection_falls_back_to_class_embedding(self):
        rec = make_record([3.0, 4.0], [[1.0, 2.0]])
        fused = fuse(rec, select_top(np.array([1.0]), 0))
        np.testing.assert_allclose(fused.rows, [[3.0, 4.0]])
        assert fused.source_indices == []

    def test_scale_invariance_of_cos_selection(self):
        rng = rng_split(10, 0)
        for _ in range(50):
            rec = make_record(rng.normals(8), rng.normals(6 * 8).reshape(6, 8))
            base = select_top(similarity_sequence(rec, DistanceKind.COS), 3).indices
            for alpha in (0.5, 3.0):
                scaled = make_record(alpha * rec.class_embedding, rec.patch_embeddings)
                assert (
                    select_top(similarity_sequence(scaled, DistanceKind.COS), 3).indices
                    == base
                )

    def test_permutation_equivariance(self):
        rng = rng_split(11, 0)
        for _ in range(50):
            rec = make_record(rng.normals(8), rng.normals(6 * 8).reshape(6, 8))
            perm = rng.sample_without_replacement(6, 6)
            permuted = make_record(rec.class_embedding, rec.patch_embeddings[perm])
            a = fuse(rec, select_top(similarity_sequence(rec, DistanceKind.COS), 3))
            b = fuse(
                permuted,
                select_top(similarity_sequence(permuted, DistanceKind.COS), 3),
            )
            # distinct similarities almost surely: fused rows agree in order
            np.testing.assert_allclose(a.rows, b.rows, atol=1e-12)
            # and the selected indices map through the permutation
            assert [perm[i] for i in b.source_indices] == a.source_indices

    def test_selection_recall_on_low_noise_store(self, small_store):
        s = 4
        hits = total = 0
        for rec, gt in zip(records(small_store), small_store.ground_truth):
            sel = select_top(similarity_sequence(rec, DistanceKind.COS), s)
            hits += len(set(sel.indices) & set(gt))
            total += s
        recall = hits / total
        chance = s / small_store.patches_m
        assert recall >= 2 * chance


class TestMaskExport:
    def test_json_fields(self):
        sel = select_top(np.array([0.5, 0.9, 0.1, 0.2]), 2)
        import json

        data = json.loads(mask_json(7, sel))
        assert data["record_id"] == 7
        assert data["m"] == 2
        assert data["indices"] == [1, 0]
        assert len(data["similarities"]) == 4

    def test_pgm_full_and_empty(self):
        sims = np.arange(16.0)
        full = mask_pgm(select_top(sims, 16))
        empty = mask_pgm(select_top(sims, 0))
        assert full.splitlines()[0] == "P2"
        assert full.splitlines()[1] == "4 4"
        assert set(full.split("\n")[3:7][0].split()) == {"255"}
        assert all(tok == "255" for line in full.splitlines()[3:] for tok in line.split())
        assert all(tok == "0" for line in empty.splitlines()[3:] for tok in line.split())

    def test_pgm_none_for_non_square(self):
        assert mask_pgm(select_top(np.arange(6.0), 2)) is None
