import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cpes.numerics import BLOCK_VALUES, unit_rows
import oracles
from cpes.selection import (
    DistanceKind,
    mask_json,
    mask_pgm,
    representation_table,
    select_top,
    selection_table,
    similarity_sequence,
)
from cpes.store import EmbeddingStore
from oracles import EmbeddingRecord, fuse, records, scalar_rng, store_from_records


def make_record(class_emb, patches) -> EmbeddingRecord:
    return EmbeddingRecord(
        0, 0, np.asarray(class_emb, dtype=np.float64), np.asarray(patches, dtype=np.float64)
    )


def sims_of(rec: EmbeddingRecord, kind: DistanceKind) -> np.ndarray:
    """The package's similarity sequence of one record."""
    return similarity_sequence(rec.class_embedding, rec.patch_embeddings, kind)


def brute_force_top(similarities, m):
    """Independent oracle: sort all (similarity, index) pairs and truncate."""
    order = sorted(range(len(similarities)), key=lambda i: (-similarities[i], i))
    return order[:m]


class TestSimilaritySequence:
    def test_cos_all_equal(self):
        rec = make_record([1.0, 2.0], [[1.0, 2.0]] * 4)
        np.testing.assert_allclose(
            sims_of(rec, DistanceKind.COS), np.ones(4), atol=1e-12
        )

    def test_dot(self):
        rec = make_record([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(
            sims_of(rec, DistanceKind.DOT), [1.0, 0.0]
        )

    def test_abs_negated_manhattan(self):
        rec = make_record([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(
            sims_of(rec, DistanceKind.ABS), [0.0, -2.0]
        )

    def test_sqr_negated_euclidean_squared(self):
        rec = make_record([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(
            sims_of(rec, DistanceKind.SQR), [0.0, -2.0]
        )

    def test_cos_matches_scalar_kernel(self):
        from oracles import cosine

        rng = scalar_rng(6, 0)
        rec = make_record(rng.normals(8), rng.normals(40).reshape(5, 8))
        sims = sims_of(rec, DistanceKind.COS)
        for j in range(5):
            assert sims[j] == pytest.approx(
                cosine(rec.class_embedding, rec.patch_embeddings[j]), abs=1e-12
            )


class TestSelectTop:
    def test_basic(self):
        assert select_top(np.array([0.1, 0.9, 0.5]), 2).tolist() == [1, 2]

    def test_tie_break_ascending_index(self):
        assert select_top(np.array([0.5, 0.5, 0.1]), 1).tolist() == [0]

    def test_m_equals_big_is_permutation(self):
        sims = np.array([0.3, 0.7, 0.7, 0.1])
        sel = select_top(sims, 4).tolist()
        assert sorted(sel) == [0, 1, 2, 3]
        assert sel == [1, 2, 0, 3]

    def test_m_zero(self):
        assert select_top(np.array([1.0, 2.0]), 0).tolist() == []

    def test_oracle_equivalence_fuzz(self):
        rng = scalar_rng(8, 0)
        for trial in range(1000):
            big = 1 + rng.randint(32)
            sims = rng.normals(big)
            if trial % 3 == 0 and big >= 2:
                # inject ties
                sims[rng.randint(big)] = sims[rng.randint(big)]
            m = rng.randint(big + 1)
            assert select_top(sims, m).tolist() == brute_force_top(list(sims), m)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=16), st.data())
    def test_oracle_equivalence_property(self, sims, data):
        m = data.draw(st.integers(0, len(sims)))
        assert select_top(np.array(sims), m).tolist() == brute_force_top(sims, m)

    def test_selected_dominate_unselected(self):
        rng = scalar_rng(9, 0)
        for _ in range(200):
            sims = rng.normals(12)
            sel = select_top(sims, 5).tolist()
            rest = [i for i in range(12) if i not in sel]
            assert min(sims[i] for i in sel) >= max(sims[i] for i in rest)


class TestFuse:
    def test_linear_addition_with_coefficient_two(self):
        rec = make_record([3.0, 4.0], [[1.0, 2.0]])
        fused = fuse(rec, select_top(sims_of(rec, DistanceKind.COS), 1))
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
        rng = scalar_rng(10, 0)
        for _ in range(50):
            rec = make_record(rng.normals(8), rng.normals(6 * 8).reshape(6, 8))
            base = select_top(sims_of(rec, DistanceKind.COS), 3).tolist()
            for alpha in (0.5, 3.0):
                scaled = make_record(alpha * rec.class_embedding, rec.patch_embeddings)
                assert (
                    select_top(sims_of(scaled, DistanceKind.COS), 3).tolist()
                    == base
                )

    def test_permutation_equivariance(self):
        rng = scalar_rng(11, 0)
        for _ in range(50):
            rec = make_record(rng.normals(8), rng.normals(6 * 8).reshape(6, 8))
            perm = rng.sample_without_replacement(6, 6)
            permuted = make_record(rec.class_embedding, rec.patch_embeddings[perm])
            a = fuse(rec, select_top(sims_of(rec, DistanceKind.COS), 3))
            b = fuse(
                permuted,
                select_top(sims_of(permuted, DistanceKind.COS), 3),
            )
            # distinct similarities almost surely: fused rows agree in order
            np.testing.assert_allclose(a.rows, b.rows, atol=1e-12)
            # and the selected indices map through the permutation
            assert [perm[i] for i in b.source_indices] == a.source_indices

    def test_selection_recall_on_low_noise_store(self, small_store):
        s = 4
        hits = total = 0
        for rec, planted in zip(records(small_store), small_store.planted):
            sel = select_top(sims_of(rec, DistanceKind.COS), s)
            hits += int(planted[sel].sum())
            total += s
        recall = hits / total
        chance = s / small_store.patches_m
        assert recall >= 2 * chance


class TestMaskExport:
    def test_json_fields(self):
        sims = np.array([0.5, 0.9, 0.1, 0.2])
        sel = select_top(sims, 2)
        import json

        data = json.loads(mask_json(7, sel, sims))
        assert data["record_id"] == 7
        assert data["m"] == 2
        assert data["indices"] == [1, 0]
        assert len(data["similarities"]) == 4

    def test_pgm_full_and_empty(self):
        sims = np.arange(16.0)
        full = mask_pgm(select_top(sims, 16), sims)
        empty = mask_pgm(select_top(sims, 0), sims)
        assert full.splitlines()[0] == "P2"
        assert full.splitlines()[1] == "4 4"
        assert set(full.split("\n")[3:7][0].split()) == {"255"}
        assert all(tok == "255" for line in full.splitlines()[3:] for tok in line.split())
        assert all(tok == "0" for line in empty.splitlines()[3:] for tok in line.split())

    def test_pgm_none_for_non_square(self):
        sims = np.arange(6.0)
        assert mask_pgm(select_top(sims, 2), sims) is None


class TestSelectionMatchesRecordPath:
    """The package's array selection against the oracle's per-record
    similarity sequence and lexsort ranking: equal indices, ties included."""

    @pytest.mark.parametrize("kind", list(DistanceKind), ids=lambda kind: kind.value)
    @pytest.mark.parametrize("m", [0, 1, 4, "M"])
    def test_table_and_batched_select_equal_record_path(self, small_store, m, kind):
        m = small_store.patches_m if m == "M" else m
        expected = [
            oracles.select_top(oracles.similarity_sequence(rec, kind), m)
            for rec in records(small_store)
        ]
        expected = np.array(expected, dtype=np.intp).reshape(len(small_store), m)
        assert np.array_equal(selection_table(small_store, m, kind), expected)
        embeddings = small_store.embeddings(np.arange(len(small_store)))
        assert np.array_equal(select_top(similarity_sequence(*embeddings, kind), m), expected)

    @pytest.mark.parametrize("kind", list(DistanceKind), ids=lambda kind: kind.value)
    def test_repeated_patches_tie_like_record_path(self, kind):
        # each record repeats 3 distinct patches over 9 positions, so every
        # similarity sequence holds exact ties
        rng = scalar_rng(12, 0)
        recs = []
        for i in range(6):
            distinct = rng.normals(3 * 4).reshape(3, 4)
            patches = distinct[[0, 1, 0, 2, 1, 0, 2, 2, 1]]
            recs.append(EmbeddingRecord(i, i % 2, rng.normals(4), patches))
        store = store_from_records(4, 9, 2, recs)
        for m in range(10):
            expected = [
                oracles.select_top(oracles.similarity_sequence(rec, kind), m)
                for rec in records(store)
            ]
            expected = np.array(expected, dtype=np.intp).reshape(len(store), m)
            assert np.array_equal(selection_table(store, m, kind), expected)

    def test_batched_select_on_tied_grid(self):
        rng = scalar_rng(13, 0)
        sims = np.round(rng.normals(40 * 12), 1).reshape(40, 12)  # coarse grid forces ties
        for m in range(13):
            expected = np.array([oracles.select_top(row, m) for row in sims], dtype=np.intp)
            assert np.array_equal(select_top(sims, m), expected.reshape(40, m))


def random_store(record_count: int, patches_m: int, dim_d: int, seed: int) -> EmbeddingStore:
    """Records of normal class and patch embeddings, each record repeating
    a third of its patches so that its similarity sequence holds exact ties."""
    rng = scalar_rng(seed, 0)
    distinct = rng.normals(record_count * patches_m * dim_d).reshape(record_count, patches_m, dim_d)
    distinct[:, : patches_m // 3] = distinct[:, patches_m - patches_m // 3 :]
    return EmbeddingStore(
        dim_d,
        patches_m,
        2,
        np.arange(record_count, dtype=np.uint64),
        (np.arange(record_count) % 2).astype(np.uint32),
        rng.normals(record_count * dim_d).reshape(record_count, dim_d).astype(np.float32),
        distinct.astype(np.float32),
    )


def cancelling_store(record_count: int, patches_m: int, dim_d: int, seed: int) -> EmbeddingStore:
    """random_store with record 3j scaled by 2**40 and record 3j + 2 its
    negation, so a float64 sum of records that holds both rounds away low
    bits of the others, and its value depends on the order it is summed in."""
    store = random_store(record_count, patches_m, dim_d, seed)
    for values in (store.class_embeddings, store.patch_embeddings):
        values[::3] *= 2.0**40
        values[2::3] = -values[::3][: len(values[2::3])]
    return store


def shot_rows(store: EmbeddingStore, k_shot: int, count: int) -> np.ndarray:
    """(count, K) rows of cancelling_store records: row i is records 3i + 1, 3i, 3i + 2,
    3i + 4 and 3i + 7, the first K of them, so a scaled record and its negation follow
    an unscaled one when K > 2, and unscaled ones follow them."""
    return (3 * np.arange(count)[:, np.newaxis] + [1, 0, 2, 4, 7][:k_shot]) % len(store)


# 16 x 32 = 512 patch values a record: blocks of 128 records, 300 = 128 + 128 + 44
SHORT_LAST_BLOCK = (300, 16, 32)
# 1040 x 64 = 66560 patch values a record, above the budget: every block one record
OVER_BUDGET = (3, 1040, 64)


class TestBlockedSelectionTable:
    """selection_table selects a block of records at a time; each record's
    row must equal the oracle's per-record similarity sequence and lexsort
    ranking, in every block and at every block edge."""

    def test_store_shapes_cover_both_block_cases(self):
        record_count, patches_m, dim_d = SHORT_LAST_BLOCK
        per_block = BLOCK_VALUES // (patches_m * dim_d)
        assert record_count > per_block and record_count % per_block != 0
        assert OVER_BUDGET[1] * OVER_BUDGET[2] > BLOCK_VALUES

    @pytest.mark.parametrize("shape", [SHORT_LAST_BLOCK, OVER_BUDGET], ids=["short", "over"])
    @pytest.mark.parametrize("kind", list(DistanceKind), ids=lambda kind: kind.value)
    @pytest.mark.parametrize("m", [0, 1, 4, "M"])
    def test_table_equals_record_path(self, shape, kind, m):
        store = random_store(*shape, seed=16)
        m = store.patches_m if m == "M" else m
        expected = [
            oracles.select_top(oracles.similarity_sequence(rec, kind), m)
            for rec in records(store)
        ]
        expected = np.array(expected, dtype=np.intp).reshape(len(store), m)
        assert np.array_equal(selection_table(store, m, kind), expected)

    @pytest.mark.parametrize("shape", [(1024, 16, 32), (6, 1040, 64)], ids=["blocks", "records"])
    @pytest.mark.parametrize("kind", list(DistanceKind), ids=lambda kind: kind.value)
    def test_peak_memory_is_one_block(self, shape, kind):
        """Beyond the table itself, the traced peak stays under four float64
        blocks: the upcast block and the two temporaries of its size that
        ABS and SQR make. A block is BLOCK_VALUES patch values, or one record
        where a record holds more. Both stores hold six blocks or more, so
        selecting a whole store at once would exceed the bound."""
        store = random_store(*shape, seed=17)
        block_bytes = 8 * max(BLOCK_VALUES, store.patches_m * store.dim_d)
        assert 8 * store.patch_embeddings.size >= 6 * block_bytes
        tracemalloc.start()
        try:
            table = selection_table(store, 4, kind)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - table.nbytes < 4 * block_bytes


class TestRepresentationTable:
    """representation_table fuses and normalises a block of records at a
    time; each record's rows must equal the oracle's fusion of its oracle
    selection, scaled by unit_rows, in every block and at every block edge.
    At m = M a row holds M * D values, as a selection block's record does,
    so the two stores give a short last block and over-budget records."""

    @pytest.mark.parametrize("shape", [SHORT_LAST_BLOCK, OVER_BUDGET], ids=["short", "over"])
    @pytest.mark.parametrize("kind", list(DistanceKind), ids=lambda kind: kind.value)
    @pytest.mark.parametrize("m", [0, 1, 4, "M"])
    def test_rows_equal_record_path(self, shape, kind, m):
        store = random_store(*shape, seed=16)
        m = store.patches_m if m == "M" else m
        expected = []
        for rec in records(store):
            top = oracles.select_top(oracles.similarity_sequence(rec, kind), m)
            expected.append(unit_rows(fuse(rec, top).rows))
        reps = representation_table(store, m, kind)
        assert reps.shape == (len(store), max(m, 1), store.dim_d)
        assert np.array_equal(reps, np.stack(expected))

    @pytest.mark.parametrize("shape", [SHORT_LAST_BLOCK, OVER_BUDGET], ids=["short", "over"])
    @pytest.mark.parametrize("m", [0, 4, "M"])
    def test_listed_rows_equal_the_full_tables(self, shape, m):
        """Tables of listed records, in their order, hold the rows of the
        tables of every record at those records."""
        store = random_store(*shape, seed=16)
        m = store.patches_m if m == "M" else m
        rows = np.arange(len(store))[::-2]
        for kind in DistanceKind:
            top = selection_table(store, m, kind, rows)
            assert np.array_equal(top, selection_table(store, m, kind)[rows])
            reps = representation_table(store, m, kind, rows)
            assert np.array_equal(reps, representation_table(store, m, kind)[rows])

    @pytest.mark.parametrize("shape", [SHORT_LAST_BLOCK, OVER_BUDGET], ids=["short", "over"])
    @pytest.mark.parametrize("k_shot", [2, 5])
    @pytest.mark.parametrize("kind", list(DistanceKind), ids=lambda kind: kind.value)
    @pytest.mark.parametrize("m", [0, 1, 4, "M"])
    def test_k_shot_rows_equal_the_mean_record_path(self, shape, k_shot, kind, m):
        """Rows (R, K) are K-shot prototypes: each the oracle's fused unit
        rows of the mean of its K records, summed in row order. A row reads
        K * M * D values: the short store's R // K rows are 64 or 25 a block
        with a short last block, and the over-budget store's 3 rows, with
        records repeated, one a block."""
        store = cancelling_store(*shape, seed=16)
        m = store.patches_m if m == "M" else m
        short = shape is SHORT_LAST_BLOCK
        rows = shot_rows(store, k_shot, len(store) // k_shot if short else len(store))
        per_block = BLOCK_VALUES // (k_shot * store.patches_m * store.dim_d)
        if short:
            assert 1 < per_block < len(rows) and len(rows) % per_block
        else:
            assert per_block == 0
        reps = representation_table(store, m, kind, rows)
        assert reps.shape == (len(rows), max(m, 1), store.dim_d)
        assert np.array_equal(reps, oracles.prototype_rows(store, rows, m, kind))

    def test_k_shot_means_depend_on_the_shot_order(self):
        """The rows above tell a sum in row order from one reordered or
        summed pairwise, so the rows test holds the package to np.mean's
        order; and from one of each shot divided by K."""
        store = cancelling_store(*SHORT_LAST_BLOCK, seed=16)
        a, b, c, d, e = store.patch_embeddings[shot_rows(store, 5, 1)[0]].astype(np.float64)
        in_order = (((a + b) + c) + d) + e
        assert np.array_equal(in_order / 5, np.mean([a, b, c, d, e], axis=0))
        reordered, pairwise = (((e + d) + c) + b) + a, ((a + b) + (c + d)) + e
        grouped, divided_first = (a + (b + c)) + (d + e), a / 5 + b / 5 + c / 5 + d / 5 + e / 5
        for other in (reordered / 5, pairwise / 5, grouped / 5, divided_first):
            assert not np.array_equal(in_order / 5, other)


class TestOneUpcastPerRecord:
    """A representation table gathers and upcasts each record once: one
    ``EmbeddingStore.embeddings`` call per block of the selection, the kept
    patches taken from the block it ranked, not gathered again."""

    @pytest.mark.parametrize("shape", [SHORT_LAST_BLOCK, OVER_BUDGET], ids=["short", "over"])
    @pytest.mark.parametrize("m", [0, 1, "M"])
    @pytest.mark.parametrize("listed", [False, True], ids=["every", "rows"])
    def test_one_call_per_block_each_record_once(self, monkeypatch, shape, m, listed):
        store = random_store(*shape, seed=16)
        m = store.patches_m if m == "M" else m
        rows = np.arange(len(store))[::-2] if listed else None
        gathered = []
        embeddings = EmbeddingStore.embeddings

        def counted(self, at, *args):
            gathered.append(np.arange(len(self))[at])
            return embeddings(self, at, *args)

        monkeypatch.setattr(EmbeddingStore, "embeddings", counted)
        representation_table(store, m, DistanceKind.COS, rows)
        wanted = np.arange(len(store)) if rows is None else rows
        per_block = max(1, BLOCK_VALUES // (store.patches_m * store.dim_d))
        assert len(gathered) == -(-len(wanted) // per_block) > 1
        assert np.array_equal(np.concatenate(gathered), wanted)
