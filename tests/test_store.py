import io
import os
import stat
import struct
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpes.errors import InfeasibleConfig, StoreFormatError
import cpes.store as store_module
from cpes.numerics import BLOCK_VALUES, accepted_rows
from cpes.scoring import MlpHead, load_head, save_head
from cpes.store import (
    EmbeddingStore,
    SyntheticConfig,
    generate_synthetic,
    read_store,
    write_store,
    write_whole,
)
from conftest import raises_exactly
from oracles import (
    GOLDEN,
    MASK64,
    EmbeddingRecord,
    ScalarRng,
    by_label_of,
    cosine,
    cpem_with_section,
    per_patch_store,
    planted_mask,
    planted_section,
    read_planted_section,
    records,
    scalar_rng,
    split_state,
    state_before,
    store_from_records,
    walk_planted_section,
)

HEADER_BYTES = 4 + struct.calcsize("<HHIIIQ")  # magic, version, flags, D, M, C, record count

# Golden means recorded from the first run of the reference store
# (small_store fixture); recomputed exhaustively in the test below.
GOLDEN_MEAN_COS_SIGNAL = 0.6050545014862222
GOLDEN_MEAN_COS_DISTRACTOR = 0.3786657482046831


def random_store(seed: int) -> EmbeddingStore:
    rng = scalar_rng(seed, 77)
    dim = 2 + rng.randint(6)
    patches = 1 + rng.randint(5)
    classes = 1 + rng.randint(4)
    with_gt = rng.randint(2) == 0
    recs, gt = [], []
    for i in range(classes * (1 + rng.randint(3))):
        label = i % classes
        cls = rng.normals(dim)
        pat = rng.normals(patches * dim).reshape(patches, dim)
        recs.append(
            EmbeddingRecord(
                i, label, cls.astype(np.float32).astype(np.float64),
                pat.astype(np.float32).astype(np.float64),
            )
        )
        s = 1 + rng.randint(patches)
        gt.append(tuple(sorted(rng.sample_without_replacement(patches, s))))
    return store_from_records(dim, patches, classes, recs, gt if with_gt else None)


class TestSerialization:
    def test_empty_store_header_size(self):
        # oracle: sum of the header field widths
        widths = [4, 2, 2, 4, 4, 4, 8]
        buf = io.BytesIO()
        n = write_store(store_from_records(4, 2, 0, []), buf)
        assert n == sum(widths) == HEADER_BYTES == 28
        assert len(buf.getvalue()) == n

    def test_round_trip_equality(self, small_store):
        buf = io.BytesIO()
        write_store(small_store, buf)
        buf.seek(0)
        back = read_store(buf)
        assert back.dim_d == small_store.dim_d
        assert back.patches_m == small_store.patches_m
        assert back.class_count == small_store.class_count
        np.testing.assert_array_equal(back.planted, small_store.planted)
        assert len(back) == len(small_store)
        for a, b in zip(records(back), records(small_store)):
            assert a.record_id == b.record_id
            assert a.label == b.label
            np.testing.assert_array_equal(a.class_embedding, b.class_embedding)
            np.testing.assert_array_equal(a.patch_embeddings, b.patch_embeddings)

    def test_read_makes_no_full_size_temporary(self):
        """The finiteness check reads the store's float32 views where they lie:
        a store of four blocks of patch values reads with a traced peak under
        one block (8 * BLOCK_VALUES bytes) beyond its ground-truth mask, where
        a copy of its patch array alone would take 1 MiB."""
        rows, patches_m, dim_d = 64, 32, 128
        rng = scalar_rng(41, 0)
        planted = np.zeros((rows, patches_m), dtype=bool)
        planted[np.arange(rows), np.arange(rows) % patches_m] = True
        store = EmbeddingStore(
            dim_d, patches_m, 4, np.arange(rows, dtype=np.uint64),
            (np.arange(rows) % 4).astype(np.uint32),
            rng.normals(rows * dim_d).astype(np.float32).reshape(rows, dim_d),
            rng.normals(rows * patches_m * dim_d).astype(np.float32).reshape(rows, patches_m, -1),
            planted=planted,
        )
        assert store.patch_embeddings.size == 4 * BLOCK_VALUES
        buf = io.BytesIO()
        write_store(store, buf)
        data = buf.getvalue()
        tracemalloc.start()
        try:
            back = read_store(SimpleNamespace(read=lambda: data))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < back.planted.nbytes + 8 * BLOCK_VALUES
        np.testing.assert_array_equal(back.patch_embeddings, store.patch_embeddings)
        np.testing.assert_array_equal(back.planted, planted)

    def test_write_is_deterministic(self, small_store):
        a, b = io.BytesIO(), io.BytesIO()
        write_store(small_store, a)
        write_store(small_store, b)
        assert a.getvalue() == b.getvalue()

    def test_round_trip_fuzz_100(self):
        for seed in range(100):
            store = random_store(seed)
            buf = io.BytesIO()
            write_store(store, buf)
            first = buf.getvalue()
            back = read_store(io.BytesIO(first))
            buf2 = io.BytesIO()
            write_store(back, buf2)
            assert buf2.getvalue() == first  # bit-exact at 32-bit precision

    def test_bad_magic(self):
        with raises_exactly(StoreFormatError, "expected b'CPEM', found b'XXXX'"):
            read_store(io.BytesIO(b"XXXX" + b"\x00" * 24))

    def test_unsupported_version(self):
        payload = b"CPEM" + struct.pack("<HHIIIQ", 9, 0, 4, 2, 0, 0)
        with raises_exactly(StoreFormatError, "CPEM version 9"):
            read_store(io.BytesIO(payload))

    def test_truncated_mid_record(self, small_store):
        buf = io.BytesIO()
        write_store(small_store, buf)
        data = buf.getvalue()
        records_given = f"the {len(small_store)} records the header gives"
        message = f"unexpected end of file while reading {records_given}"
        with raises_exactly(StoreFormatError, message):
            read_store(io.BytesIO(data[: len(data) // 2]))

    def test_non_finite_value(self):
        rec = EmbeddingRecord(
            0, 0, np.array([np.nan, 0.0]), np.zeros((1, 2))
        )
        buf = io.BytesIO()
        write_store(store_from_records(2, 1, 1, [rec]), buf)
        buf.seek(0)
        with raises_exactly(StoreFormatError, "record 0 contains NaN/Inf"):
            read_store(buf)

    def test_non_finite_patch_names_record(self):
        recs = [
            EmbeddingRecord(i, 0, np.ones(2), np.ones((3, 2))) for i in (4, 9)
        ]
        recs[1].patch_embeddings[2, 1] = np.inf
        buf = io.BytesIO()
        write_store(store_from_records(2, 3, 1, recs), buf)
        with raises_exactly(StoreFormatError, "record 9 contains NaN/Inf"):
            read_store(io.BytesIO(buf.getvalue()))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("bad", [[0], [2], [1, 3], [3]])
    @pytest.mark.parametrize("where", ["class", "patch"])
    def test_first_non_finite_record_named(self, value, bad, where):
        """The two-reduction test finds any non-finite value; the error names
        the first record holding one, as per-record sums do."""
        recs = [EmbeddingRecord(i, 0, np.ones(2), np.ones((3, 2))) for i in (10, 11, 12, 13)]
        for row in bad:
            if where == "class":
                recs[row].class_embedding[1] = value
            else:
                recs[row].patch_embeddings[row % 3, row % 2] = value
        buf = io.BytesIO()
        write_store(store_from_records(2, 3, 1, recs), buf)
        with raises_exactly(StoreFormatError, f"record {10 + bad[0]} contains NaN/Inf"):
            read_store(io.BytesIO(buf.getvalue()))

    @pytest.mark.parametrize("patches_m", [0, 3])
    def test_no_records_reads(self, patches_m):
        buf = io.BytesIO()
        write_store(store_from_records(4, patches_m, 2, []), buf)
        back = read_store(io.BytesIO(buf.getvalue()))
        assert len(back) == 0 and back.patch_embeddings.shape == (0, patches_m, 4)

    def test_path_round_trip(self, tmp_path, small_store):
        path = tmp_path / "store.cpem"
        write_store(small_store, path)
        back = read_store(path)
        assert len(back) == len(small_store)


def store_bytes(recs, class_count=2, ground_truth=None, dim=2, patches=3) -> bytes:
    buf = io.BytesIO()
    write_store(store_from_records(dim, patches, class_count, recs, ground_truth), buf)
    return buf.getvalue()


def plain_record(record_id, label=0) -> EmbeddingRecord:
    return EmbeddingRecord(record_id, label, np.ones(2), np.ones((3, 2)))


class TestWriteWhole:
    """A path is written to a temporary sibling and moved into place only once
    every file of the call is written: a write that raises partway leaves
    neither a destination file nor a temporary, and an old file whole."""

    def test_a_write_that_raises_partway_leaves_no_file(self, tmp_path, small_store):
        def partial(fh):
            fh.write(b"{")
            raise OSError("no space left on device")

        store_path, log = tmp_path / "s.cpem", tmp_path / "log.json"
        with pytest.raises(OSError, match="no space"):
            write_whole({store_path: lambda fh: write_store(small_store, fh), log: partial})
        assert list(tmp_path.iterdir()) == []
        log.write_text("old")
        with pytest.raises(OSError, match="no space"):
            write_whole({store_path: lambda fh: write_store(small_store, fh), log: partial})
        assert [p.name for p in tmp_path.iterdir()] == ["log.json"]
        assert log.read_text() == "old"

    @pytest.mark.parametrize("kind", ["store", "head"])
    def test_path_writes_that_fail_partway_leave_no_file(
        self, tmp_path, small_store, monkeypatch, kind
    ):
        """write_store and save_head on a path, with the file failing at its
        second write (after the magic): nothing is left; unpatched, the path
        holds the bytes the writer gives a binary sink."""
        real_open = open

        class Failing:
            def __init__(self, path, mode):
                self.file, self.writes = real_open(path, mode), 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.file.close()

            def write(self, chunk):
                self.writes += 1
                if self.writes == 2:
                    raise OSError("no space left on device")
                return self.file.write(chunk)

        head = MlpHead.initialize(9, 4, 3)

        def write(out):
            return write_store(small_store, out) if kind == "store" else save_head(head, out)

        path = tmp_path / "out.bin"
        monkeypatch.setattr(store_module, "open", Failing, raising=False)
        with pytest.raises(OSError, match="no space"):
            write(path)
        assert list(tmp_path.iterdir()) == []
        monkeypatch.undo()
        sink = io.BytesIO()
        assert write(path) == write(sink) == len(sink.getvalue())
        assert path.read_bytes() == sink.getvalue()
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


    def test_a_fifo_is_written_in_place_and_stays_a_fifo(self, tmp_path):
        """An existing path that is not a regular file (a FIFO here, as a
        device such as /dev/null would be) is written in place, not replaced:
        its reader gets the bytes and no temporary is made beside it."""
        fifo = tmp_path / "out.json"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # opening it to write does not block
        try:
            assert write_whole({fifo: lambda fh: fh.write(b"{}")}) == {fifo: 2}
            assert os.read(reader, 3) == b"{}"
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_a_symlinked_path_is_written_through(self, tmp_path, small_store):
        """A symlink to a regular file stays a symlink: the file it names is
        replaced whole by one written beside it."""
        target, link = tmp_path / "target.cpem", tmp_path / "link.cpem"
        target.write_bytes(b"old")
        link.symlink_to(target)
        sink = io.BytesIO()
        assert write_store(small_store, link) == write_store(small_store, sink)
        assert link.is_symlink() and target.read_bytes() == sink.getvalue()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.cpem", "target.cpem"]


class TestBoundaryValidation:
    """Each input here was accepted silently before the reader checked it."""

    def test_record_count_checked_against_size(self):
        data = store_bytes([plain_record(0)])
        header = struct.pack("<HHIIIQ", 1, 0, 2, 3, 2, 1 << 40)
        message = f"unexpected end of file while reading the {1 << 40} records the header gives"
        with raises_exactly(StoreFormatError, message):
            read_store(io.BytesIO(b"CPEM" + header + data[HEADER_BYTES:]))

    @pytest.mark.parametrize("count", [0, 1])
    def test_record_too_large_to_shape_rejected(self, count):
        header = struct.pack("<HHIIIQ", 1, 0, 2**31, 3, 2, count)
        message = f"records of {12 + 4 * 2**31 * 4} bytes (D={2**31}, M=3) exceed 2 GiB"
        with raises_exactly(StoreFormatError, message):
            read_store(io.BytesIO(b"CPEM" + header))

    @pytest.mark.parametrize("with_gt", [False, True])
    def test_trailing_bytes_rejected(self, with_gt):
        data = store_bytes([plain_record(0)], ground_truth=[(1,)] if with_gt else None)
        read_store(io.BytesIO(data))
        with raises_exactly(StoreFormatError, "1 bytes after the end of the file's body"):
            read_store(io.BytesIO(data + b"\x00"))

    def test_label_at_class_count_rejected(self):
        data = store_bytes([plain_record(0), plain_record(1, label=2)], class_count=2)
        with raises_exactly(StoreFormatError, "record 1 has a label >= 2 classes"):
            read_store(io.BytesIO(data))

    def test_ground_truth_index_at_m_rejected(self):
        store = store_from_records(2, 3, 2, [plain_record(0), plain_record(1)])
        data = cpem_with_section(store, [(0, 2), (3,)])
        with raises_exactly(StoreFormatError, "record 1 has a ground-truth index >= 3 patches"):
            read_store(io.BytesIO(data))

    def test_repeated_ground_truth_index_rejected(self):
        store = store_from_records(2, 3, 2, [plain_record(0), plain_record(1)])
        data = cpem_with_section(store, [(0, 2), (2, 2, 2)])
        with raises_exactly(StoreFormatError, "record 1 repeats a ground-truth index"):
            read_store(io.BytesIO(data))

    def test_header_without_embedding_dimension_rejected(self):
        recs = [EmbeddingRecord(i, i % 4, np.ones(0), np.ones((3, 0))) for i in range(40)]
        with pytest.raises(StoreFormatError, match="dim_d 0"):
            read_store(io.BytesIO(store_bytes(recs, class_count=4, dim=0)))

    @pytest.mark.parametrize("flags", [2, 5, 0x8001])
    def test_undefined_flag_bit_rejected(self, flags):
        data = bytearray(store_bytes([plain_record(0)], ground_truth=[(1,)] if flags & 1 else None))
        data[6:8] = struct.pack("<H", flags)
        with pytest.raises(StoreFormatError, match=f"flags {flags:#x}"):
            read_store(io.BytesIO(bytes(data)))

    def test_store_of_class_embeddings_only_accepted(self):
        recs = [EmbeddingRecord(i, i % 2, np.ones(2), np.ones((0, 2))) for i in range(4)]
        store = read_store(io.BytesIO(store_bytes(recs, patches=0)))
        assert store.patch_embeddings.shape == (4, 0, 2)

    @pytest.mark.parametrize(
        "ids",
        [[5, 6, 5], [5, 5, 6, 7], [5, 6, 7, 7], [8, 5, 6, 7, 5, 9], [MASK64, 0, 1 << 63, MASK64]],
        ids=["first-and-last", "first", "last", "non-adjacent", "largest-u64"],
    )
    def test_duplicate_record_ids_rejected(self, ids):
        data = store_bytes([plain_record(i) for i in ids])
        with raises_exactly(StoreFormatError, "record ids are not unique"):
            read_store(io.BytesIO(data))

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(["CPEM", "CPEH"]), data=st.data())
    def test_mutated_bytes_fail_only_as_format_errors(self, kind, data):
        """One byte overwritten, then cut short or extended: reading either
        succeeds or raises a StoreFormatError, never anything else."""
        if kind == "CPEM":
            blob = store_bytes([plain_record(0), plain_record(1, 1)], ground_truth=[(0, 2), (1,)])
            read = read_store
        else:
            buf = io.BytesIO()
            save_head(MlpHead.initialize(4, 2, split_state(3, 3)), buf)
            blob, read = buf.getvalue(), load_head
        pos = data.draw(st.integers(0, len(blob) - 1))
        mutated = blob[:pos] + bytes([data.draw(st.integers(0, 255))]) + blob[pos + 1 :]
        mutated = mutated[: data.draw(st.integers(0, len(mutated)))]
        mutated += data.draw(st.binary(max_size=3))
        try:
            read(io.BytesIO(mutated))
        except StoreFormatError:
            pass


class TestSyntheticGenerator:
    def test_noise_free_full_signal(self):
        cfg = SyntheticConfig(3, 4, 16, 8, 8, 0.0, 4, 0.0, seed=5)
        store = generate_synthetic(cfg)
        for rec in records(store):
            for j in range(store.patches_m):
                assert cosine(rec.class_embedding, rec.patch_embeddings[j]) == (
                    pytest.approx(1.0, abs=1e-6)
                )
            # every patch equals the class embedding (all are the signal dir)
            np.testing.assert_allclose(
                rec.patch_embeddings,
                np.broadcast_to(rec.class_embedding, rec.patch_embeddings.shape),
                atol=1e-6,
            )

    def test_deterministic(self):
        cfg = SyntheticConfig(4, 3, 16, 6, 2, 0.1, 4, 0.2, seed=9)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        for ra, rb in zip(records(a), records(b)):
            np.testing.assert_array_equal(ra.class_embedding, rb.class_embedding)
            np.testing.assert_array_equal(ra.patch_embeddings, rb.patch_embeddings)
        np.testing.assert_array_equal(a.planted, b.planted)

    def test_signal_vs_distractor_separation_goldens(self, small_store):
        sig, dis = [], []
        for rec, planted in zip(records(small_store), small_store.planted):
            for j in range(small_store.patches_m):
                c = cosine(rec.class_embedding, rec.patch_embeddings[j])
                (sig if planted[j] else dis).append(c)
        assert np.mean(sig) == pytest.approx(GOLDEN_MEAN_COS_SIGNAL, abs=1e-12)
        assert np.mean(dis) == pytest.approx(GOLDEN_MEAN_COS_DISTRACTOR, abs=1e-12)
        assert np.mean(sig) > np.mean(dis)

    def test_ground_truth_indices_valid(self, small_store):
        assert small_store.planted.dtype == bool
        assert small_store.planted.shape == (len(small_store), small_store.patches_m)
        assert (small_store.planted.sum(1) == 4).all()

    def test_infeasible_when_pool_plus_classes_exceed_dim(self):
        cfg = SyntheticConfig(20, 2, 16, 4, 2, 0.1, 8, 0.1, seed=1)
        with pytest.raises(InfeasibleConfig):
            generate_synthetic(cfg)

    def test_signal_count_bounds(self):
        with pytest.raises(InfeasibleConfig):
            generate_synthetic(SyntheticConfig(2, 2, 16, 4, 5, 0.1, 4, 0.1, seed=1))

    def test_labels_and_counts(self, small_store):
        assert small_store.class_count == 5
        by_label = small_store.by_label
        assert sorted(by_label) == list(range(5))
        assert all(len(v) == 10 for v in by_label.values())

    def test_by_label_equals_per_record_loop(self, small_store, sweep_train_store):
        """The argsort split holds the keys, rows and row order that a loop
        over the records gives, labels shuffled and of unequal counts too."""

        def of_labels(labels):
            recs = [EmbeddingRecord(i, label, np.zeros(1), np.zeros((1, 1)))
                    for i, label in enumerate(labels)]
            return store_from_records(1, 1, 6, recs)

        rng = scalar_rng(5, 0)
        shuffled = [rng.randint(6) for _ in range(50)]
        stores = [small_store, sweep_train_store, of_labels(shuffled), of_labels([3]), of_labels([])]
        for store in stores:
            by_label = {label: rows.tolist() for label, rows in store.by_label.items()}
            assert by_label == by_label_of(store)
            assert list(by_label) == list(by_label_of(store))


def _cpem(store: EmbeddingStore) -> bytes:
    buf = io.BytesIO()
    write_store(store, buf)
    return buf.getvalue()


def _section_store(planted: np.ndarray) -> EmbeddingStore:
    """A store of one plain record (D = 1) per row of ``planted``, its mask."""
    count, patches_m = planted.shape
    return EmbeddingStore(
        1,
        patches_m,
        1,
        np.arange(count, dtype=np.uint64),
        np.zeros(count, dtype=np.uint32),
        np.ones((count, 1), dtype=np.float32),
        np.ones((count, patches_m, 1), dtype=np.float32),
        planted,
    )


def _section_offset(store: EmbeddingStore) -> int:
    """Where the ground-truth section of ``store``'s CPEM bytes starts."""
    return HEADER_BYTES + len(store) * (12 + 4 * store.dim_d * (1 + store.patches_m))


def _u16_edge() -> np.ndarray:
    planted = np.ones((1, 65536), dtype=bool)
    planted[0, 40000] = False
    return planted


class TestPlantedSection:
    """write_store writes the ground-truth section from the planted mask as
    the per-record struct writer does, byte for byte, and read_store reads
    it to the mask of what the per-record struct reader reads."""

    @staticmethod
    def assert_equals_oracle(planted: np.ndarray) -> None:
        store = _section_store(planted)
        ground_truth = [tuple(np.flatnonzero(row).tolist()) for row in planted]
        data = _cpem(store)
        assert data == cpem_with_section(store, ground_truth)
        read, end = read_planted_section(data, _section_offset(store), len(store))
        assert read == ground_truth and end == len(data)
        back = read_store(io.BytesIO(data)).planted
        assert back.dtype == bool
        np.testing.assert_array_equal(back, planted_mask(read, store.patches_m))

    @pytest.mark.parametrize(
        "planted",
        [
            np.zeros((3, 5), dtype=bool),
            np.ones((3, 5), dtype=bool),
            np.array([[True], [False], [True]]),
            np.zeros((0, 4), dtype=bool),
            np.array([[False, True, True, False], [False] * 4, [True] * 4]),
            _u16_edge(),
        ],
        ids=["empty-rows", "full-rows", "one-patch", "no-records", "mixed", "u16-edge"],
    )
    def test_section_equals_oracle(self, planted):
        self.assert_equals_oracle(planted)

    def test_seeded_sections_equal_oracle(self):
        rng = scalar_rng(12, 0)
        for _ in range(200):
            count, patches_m = rng.randint(6), 1 + rng.randint(9)
            ground_truth = [
                rng.sample_without_replacement(patches_m, rng.randint(patches_m + 1))
                for _ in range(count)
            ]
            self.assert_equals_oracle(planted_mask(ground_truth, patches_m))

    @pytest.mark.parametrize(
        "patches_m,planted_at", [(65537, [65536]), (65536, slice(None))], ids=["index", "count"]
    )
    def test_planted_wider_than_u16_not_written(self, patches_m, planted_at):
        """A count or index CPEM's u16 cannot hold is refused, not wrapped
        into other ground truth; indices within it still write at any M."""
        planted = np.zeros((1, patches_m), dtype=bool)
        planted[0, planted_at] = True
        with raises_exactly(StoreFormatError, "a planted count or index exceeds 65535"):
            write_store(_section_store(planted), io.BytesIO())
        planted[:] = False
        planted[0, 65535] = True
        self.assert_equals_oracle(planted)

    def test_unsorted_indices_read_to_sorted_mask(self):
        """Ground truth is a set: indices in any order read to one mask,
        which writes them back in ascending order."""
        store = _section_store(np.zeros((2, 5), dtype=bool))
        back = read_store(io.BytesIO(cpem_with_section(store, [(4, 0, 2), (3, 1)])))
        np.testing.assert_array_equal(back.planted, planted_mask([(0, 2, 4), (1, 3)], 5))
        assert _cpem(back) == cpem_with_section(store, [(0, 2, 4), (1, 3)])

    # the section of [(0, 2), (1,)]: count 2 at +0, indices at +2 and +4,
    # count 1 at +6 and index at +8; 10 bytes
    @pytest.mark.parametrize("cut", [1, 6, 7])
    def test_section_cut_inside_count_word(self, cut):
        store = _section_store(np.zeros((2, 3), dtype=bool))
        data = cpem_with_section(store, [(0, 2), (1,)])
        message = "unexpected end of file while reading ground-truth count"
        with raises_exactly(StoreFormatError, message):
            read_store(io.BytesIO(data[: _section_offset(store) + cut]))

    @pytest.mark.parametrize("cut", [2, 3, 4, 5, 8, 9])
    def test_section_cut_inside_indices(self, cut):
        store = _section_store(np.zeros((2, 3), dtype=bool))
        data = cpem_with_section(store, [(0, 2), (1,)])
        message = "unexpected end of file while reading ground-truth indices"
        with raises_exactly(StoreFormatError, message):
            read_store(io.BytesIO(data[: _section_offset(store) + cut]))


def _walk_case(section: list[int], count: int, patches_m: int, tail: bytes = b"") -> None:
    """read_store of ``count`` plain records (ids 10 + 3 * (count - 1 - row),
    falling, so a named record is not its row) and the u16 ``section`` words
    then ``tail`` reads the planted mask the record-at-a-time walk reads, or
    raises the same exception class with the same message."""
    store = _section_store(np.zeros((count, patches_m), dtype=bool))
    store = replace(store, record_ids=10 + 3 * np.arange(count, dtype=np.uint64)[::-1])
    data = cpem_with_section(store, []) + np.array(section, dtype="<u2").tobytes() + tail
    try:
        expected = walk_planted_section(data, _section_offset(store), store.record_ids, patches_m)
    except StoreFormatError as exc:
        with pytest.raises(StoreFormatError) as raised:
            read_store(io.BytesIO(data))
        assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
    else:
        back = read_store(io.BytesIO(data)).planted
        assert back.dtype == bool
        np.testing.assert_array_equal(back, expected)


class TestWalkOracle:
    """The ground-truth walk, composed by doubling, ends on any bytes as the
    record-at-a-time walk does: the same mask, or the same error and message."""

    @pytest.mark.parametrize(
        "section,count,patches_m",
        [
            ([0, 3, 2, 0, 1, 1, 2], 3, 3),  # unequal counts, one of them 0
            ([], 0, 3),
            ([2, 0, 1], 0, 3),  # no records, and words after them
            ([5, 0, 1], 3, 2),  # a count above M runs past the end
            # a count above M passes R (M + 1) = 9 words with words to spare:
            # the walk goes on, and names the last record's index >= M
            ([10, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 0, 1, 2], 3, 2),
            ([10, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 0, 1, 1], 3, 2),  # or the first's repeat
            ([10, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 0], 3, 2),  # then cut at a count
            ([10, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 2, 0], 3, 2),  # or in indices
            ([1, 3, 1, 0, 1, 1], 3, 3),  # an index >= M in the first record
            ([1, 0, 1, 1, 1, 3], 3, 3),  # in the last
            ([2, 1, 1, 1, 0, 1, 2], 3, 3),  # a repeat in the first record
            ([1, 0, 1, 1, 2, 2, 2], 3, 3),  # in the last
            ([2, 1, 1, 1, 0, 1, 3], 3, 3),  # a repeat first, an index >= M last
            ([1, 0, 1, 1, 1, 2, 0, 0], 3, 3),  # words after the last record
            ([0, 0, 0], 3, 0),  # M = 0
        ],
    )
    def test_section_equals_oracle(self, section, count, patches_m):
        _walk_case(section, count, patches_m)

    @pytest.mark.parametrize("tail", [b"", b"\x00", b"\x07\x00", b"\x01\x00\x00"])
    def test_every_cut_equals_oracle(self, tail):
        """The section cut inside every count word and every index word, and
        at every word, then an odd byte, a word or a word and a byte."""
        section = [2, 0, 3, 0, 4, 1, 2, 3, 4, 1, 4]
        data = np.array(section, dtype="<u2").tobytes()
        for cut in range(len(data) + 1):
            words = np.frombuffer(data[: cut - cut % 2], "<u2").tolist()
            _walk_case(words, 4, 5, data[cut - cut % 2 : cut] + tail)

    def test_seeded_sections_equal_oracle(self):
        """Counts up to M + 2, indices up to M + 1, cut or extended."""
        rng = scalar_rng(21, 0)
        for _ in range(300):
            count, patches_m = rng.randint(7), rng.randint(6)
            section = []
            for _ in range(count):
                s = rng.randint(patches_m + 3)
                section += [s] + [rng.randint(patches_m + 2) for _ in range(s)]
            section = section[: len(section) - rng.randint(3)] + [rng.randint(4)] * rng.randint(2)
            _walk_case(section, count, patches_m, b"\x00" * rng.randint(2))

    def test_walk_memory_bounded_by_records(self):
        """Words after the section cost the walk nothing: a table over the
        4 MB of them would take 16 MB."""
        store = _section_store(np.zeros((2, 3), dtype=bool))
        data = cpem_with_section(store, [(0,), (1, 2)]) + bytes(1 << 22)
        tracemalloc.start()
        try:
            message = f"{1 << 22} bytes after the end of the file's body"
            with raises_exactly(StoreFormatError, message):
                read_store(io.BytesIO(data))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(data) + (1 << 20)


class TestGeneratorOracle:
    """generate_synthetic draws each record's words as one block; the
    stores it writes equal the per-patch oracle's, byte for byte."""

    @pytest.mark.parametrize(
        "cfg",
        [
            SyntheticConfig(3, 4, 11, 9, 3, 0.3, 5, 0.3, seed=3),  # odd D, pool 5
            SyntheticConfig(2, 5, 7, 8, 2, 0.2, 3, 0.4, seed=5),  # odd D, pool 3
            SyntheticConfig(2, 4, 6, 9, 9, 0.3, 0, 0.3, seed=4),  # s = M, pool 0
            SyntheticConfig(2, 4, 8, 10, 1, 0.1, 4, 0.2, seed=6),  # s = 1
            SyntheticConfig(),
        ],
        ids=["odd-dim-pool-5", "odd-dim-pool-3", "all-signal-pool-0", "one-signal", "defaults"],
    )
    def test_store_equals_per_patch_oracle(self, cfg):
        oracle = per_patch_store(cfg, scalar_rng(cfg.seed, 0))
        assert _cpem(generate_synthetic(cfg)) == _cpem(oracle)

    def test_pinned_rejections_equal_per_patch_oracle(self, monkeypatch):
        """Start the stream k words before 2**64 - 1, for every word k of
        the store. A pick from the pool of 3 rejects that word; with M = 4
        a position draw never rejects and a normal word never does, so a
        store that takes one word more than its layout rejected a pick."""
        cfg = SyntheticConfig(1, 2, 5, 4, 1, 0.3, 3, 0.3)
        width = 6  # 2 * ceil(5 / 2) normal words per vector
        layout = (1 + 3) * width + 2 * (1 + 4 * width + 3)
        picks_rejected, after = 0, []

        def accepted(states, bounds):  # the generator's last draw leaves the final state
            words, states = accepted_rows(states, bounds)
            after.append(int(states[0]))
            return words, states

        monkeypatch.setattr(store_module, "accepted_rows", accepted)
        for k in range(layout):
            state = (state_before(MASK64) - k * GOLDEN) & MASK64
            monkeypatch.setattr(
                store_module, "split_states", lambda seed, indices: np.array([state], np.uint64)
            )
            oracle = ScalarRng(state)
            assert _cpem(generate_synthetic(cfg)) == _cpem(per_patch_store(cfg, oracle))
            assert after[-1] == oracle.state
            words = (after[-1] - state) * pow(GOLDEN, -1, 1 << 64) & MASK64
            assert words in (layout, layout + 1)
            picks_rejected += words == layout + 1
        assert picks_rejected > 0
