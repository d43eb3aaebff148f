"""Embedding data model, CPEM binary serialization, and a synthetic
generator that plants known signal patches for recall evaluation.

CPEM layout (little-endian):
  magic "CPEM" | version u16 | flags u16 (bit0: ground-truth section; no
  other bit) | dim_d u32 (>= 1) | patches_m u32 | class_count u32 | record_count u64
  | per record: record_id u64, label u32, class_embedding f32 x D,
    patch_embeddings f32 x (M*D)
  | optional ground-truth section: per record, s u16 then s x u16 indices,
    read in any order into the (R, M) bool mask ``planted`` and written ascending.

Embeddings stay float32, as CPEM stores them (a read store holds views of
the file bytes); consumers take exact float64 copies, so all math runs in
float64 and write/read round trips exactly.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InfeasibleConfig, StoreFormatError, check_settings, setting
from .numerics import accepted_rows, all_finite, box_muller, partial_shuffle, split_states

MAGIC = b"CPEM"
VERSION = 1
# how strongly each distractor pool item leans toward one class's signal
CONFUSER_WEIGHT = 0.7
_FLAG_GROUND_TRUTH = 1
_HEADER = "HIIIQ"  # after the magic and u16 version: flags, D, M, C, record count
_PLANTED = np.dtype("<u2")  # each ground-truth count and index
# numpy cannot shape arrays of larger records: sub-array dimensions must fit a C int
_MAX_RECORD_BYTES = 2**31


def _record_dtype(dim_d: int, patches_m: int) -> np.dtype:
    """One packed CPEM record, so a body parses as a single array; its field
    names and order are those of the EmbeddingStore arrays."""
    fields = [("record_ids", "<u8"), ("labels", "<u4"), ("class_embeddings", "<f4", (dim_d,))]
    return np.dtype(fields + [("patch_embeddings", "<f4", (patches_m, dim_d))])


@dataclass(eq=False)
class EmbeddingStore:
    """Immutable-by-convention arrays of R embedding records."""

    dim_d: int
    patches_m: int
    class_count: int
    record_ids: np.ndarray  # (R,) unsigned
    labels: np.ndarray  # (R,) in [0, class_count)
    class_embeddings: np.ndarray  # (R, D) float32
    patch_embeddings: np.ndarray  # (R, M, D) float32
    planted: np.ndarray | None = None  # (R, M) bool planted signal patches; synthetic stores

    def __post_init__(self):
        # each label's row indices (an array) in store order, by ascending label:
        # one stable sort of the labels, sliced where each label's run starts
        order = np.argsort(self.labels, kind="stable")
        keys, starts = np.unique(self.labels[order], return_index=True)
        ends = [*starts[1:].tolist(), len(order)]
        self.by_label = {key: order[a:b] for key, a, b in zip(keys.tolist(), starts.tolist(), ends)}

    def __len__(self) -> int:
        return self.record_ids.shape[0]

    def embeddings(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """float64 copies of the class embeddings at ``rows`` (an index, index array or
        slice) and of all their patches: the one place stored float32 values are upcast,
        exactly. Rows (B, K) give the mean of each row's K records: the first upcast, each
        later one added into that float64 sum in place, then divided by K, the order np.mean
        sums a K axis in. A selection or representation table upcasts each record once."""
        shots = np.transpose(rows) if np.ndim(rows) == 2 else [rows]
        classes = self.class_embeddings[shots[0]].astype(np.float64)
        patches = self.patch_embeddings[shots[0]].astype(np.float64)
        for shot in shots[1:]:
            np.add(classes, self.class_embeddings[shot], out=classes)
            np.add(patches, self.patch_embeddings[shot], out=patches)
        if len(shots) > 1:
            classes /= len(shots)
            patches /= len(shots)
        return classes, patches


@dataclass
class SyntheticConfig:
    """Knobs for the planted-signal generator.

    Each class gets a unit signal direction; every record plants
    ``signal_patches`` noisy copies of it among distractors drawn from a
    pool orthogonalized against all signal directions, so the separability
    of selection is controlled by the two noise scales.
    """

    class_count: int = setting(20, "--classes", least=1)
    records_per_class: int = setting(30, "--records-per-class", least=1)
    dim: int = setting(32, "--dim", least=1)
    patches: int = setting(16, "--patches", least=1)
    signal_patches: int = setting(4, "--signal-patches")
    signal_noise: float = setting(0.3, "--signal-noise", least=0)
    distractor_pool_size: int = setting(8, "--distractors", least=0)
    distractor_noise: float = setting(0.3, "--distractor-noise", least=0)
    seed: int = setting(0, "--seed")

    def validate(self) -> None:
        """The declared bounds, then the rules that involve two fields."""
        check_settings(self)
        # each record's planted count and indices must fit the CPEM ground-truth width
        most = np.iinfo(_PLANTED).max
        if self.patches > most + 1:
            raise InfeasibleConfig(f"--patches must be <= {most + 1}, got {self.patches}")
        if self.signal_patches > most:
            raise InfeasibleConfig(f"--signal-patches must be <= {most}, got {self.signal_patches}")
        # each of a record's M - s distractor patches is drawn from the pool
        if self.signal_patches < self.patches and self.distractor_pool_size < 1:
            raise InfeasibleConfig(
                f"distractor_pool_size must be >= 1, got {self.distractor_pool_size}"
            )
        if not 1 <= self.signal_patches <= self.patches:
            raise InfeasibleConfig("signal_patches must be in [1, patches]")
        if self.distractor_pool_size + self.class_count > self.dim:
            raise InfeasibleConfig(
                f"cannot orthogonalize {self.distractor_pool_size} distractors "
                f"against {self.class_count} signals in dim {self.dim}"
            )


def write_store(store: EmbeddingStore, destination) -> int:
    """Serialize to CPEM. destination is a path or a binary sink; returns bytes written."""
    flags = _FLAG_GROUND_TRUTH if store.planted is not None else 0
    body = np.empty(len(store), dtype=_record_dtype(store.dim_d, store.patches_m))
    for name in body.dtype.names:
        body[name] = getattr(store, name)
    header = (flags, store.dim_d, store.patches_m, store.class_count, len(store))
    planted = store.planted if flags else np.zeros((0, 0), dtype=bool)
    counts = planted.sum(1)  # each row's count, then its indices, which nonzero gives ascending
    section = np.insert(np.nonzero(planted)[1], np.cumsum(counts) - counts, counts)
    if section.max(initial=0) > np.iinfo(_PLANTED).max:
        raise StoreFormatError(f"a planted count or index exceeds {np.iinfo(_PLANTED).max}")
    chunks = [memoryview(body), section.astype(_PLANTED)]
    return _write(destination, MAGIC, VERSION, _HEADER, header, chunks)


def _write(destination, magic: bytes, version: int, fmt: str, fields, chunks) -> int:
    """Write magic, u16 version, the ``fmt`` header fields and each body chunk
    (a buffer, so no array is copied first) to a binary sink, or whole to a
    path (``write_whole``); returns the bytes written."""
    if isinstance(destination, (str, Path)):
        parts = (magic, version, fmt, fields, chunks)
        return write_whole({destination: lambda fh: _write(fh, *parts)})[destination]
    header = struct.pack("<H" + fmt, version, *fields)
    return sum(destination.write(chunk) for chunk in [magic, header, *chunks])


def write_whole(writes: dict) -> dict:
    """{path: write(fh)} for each of ``writes``, {path: write}. A path that is missing or a regular
    file (through symlinks) is written to a temporary sibling, each moved into place by os.replace
    once all are written; one that raises leaves no temporary and no path changed (not fsynced, so
    not over a crash). Any other path, such as a device or a FIFO, is written in place."""
    real = {path: os.path.realpath(path) for path in writes}
    whole = [path for path, at in real.items() if os.path.isfile(at) or not os.path.exists(at)]
    temps = {path: f"{real[path]}.{os.urandom(6).hex()}.tmp" for path in whole}
    results = {}
    try:
        for path, write in writes.items():
            with open(temps.get(path, path), "xb" if path in temps else "wb") as fh:
                results[path] = write(fh)
        for path, temp in temps.items():
            os.replace(temp, real[path])
        return results
    finally:  # a temporary already moved into place is gone
        for temp in temps.values():
            Path(temp).unlink(missing_ok=True)


def _read_header(source, magic: bytes, version: int, fmt: str) -> tuple[bytes, int, list]:
    """Every byte of a path or binary source, in one read, the offset where
    its body starts, and the ``fmt`` header fields after its magic and u16
    version, both checked."""
    data = Path(source).read_bytes() if isinstance(source, (str, Path)) else source.read()
    _require(data, 4, "magic")
    if data[:4] != magic:
        raise StoreFormatError(f"expected {magic!r}, found {data[:4]!r}")
    start = 4 + struct.calcsize("<H" + fmt)
    _require(data, start, "header")
    found, *fields = struct.unpack_from("<H" + fmt, data, 4)
    if found != version:
        raise StoreFormatError(f"{magic.decode()} version {found}")
    return data, start, fields


def _require(data, end: int, what: str) -> None:
    if len(data) < end:
        raise StoreFormatError(f"unexpected end of file while reading {what}")


def _reject_trailing(data: bytes, end: int) -> None:
    if len(data) > end:
        raise StoreFormatError(f"{len(data) - end} bytes after the end of the file's body")


def _walk(words: np.ndarray, count: int, cap: int) -> tuple[np.ndarray, int]:
    """Offsets (intp) of the count words of the first ``count`` records that
    start in the ground-truth section ``words``, each 1 + its count past the
    one before, and the offset after the last one's indices. Steps compose by
    doubling over the first ``cap`` words (a step past them ends at ``cap``);
    from the last head inside them the walk goes on a record at a time."""
    n = min(len(words), cap)
    jump = np.minimum(np.arange(1, n + 2) + np.append(words[:n], 0), n)
    heads = np.zeros(1, dtype=np.intp)
    while len(heads) < count:  # heads: steps 0..k-1 from 0; jump: k steps
        heads = np.concatenate([heads, jump.take(heads)])
        jump = jump.take(jump)
    last = max(np.searchsorted(heads[:count], n) - 1, 0)
    more, at = [], int(heads[last])
    while at < len(words) and len(more) < count - last:
        more.append(at)
        at += 1 + words.item(at)
    return np.concatenate([heads[:last], np.array(more, dtype=np.intp)]), at


def read_store(source) -> EmbeddingStore:
    """Parse a CPEM path or binary source in one read, into float32 views
    of the bytes. Rejects a bad magic, version, dim_d or flag bit, a size
    other than the header gives, non-finite embeddings and invalid records."""
    data, start, (flags, dim_d, patches_m, class_count, record_count) = _read_header(
        source, MAGIC, VERSION, _HEADER
    )
    if dim_d == 0:
        raise StoreFormatError("CPEM dim_d 0: records need at least one embedding dimension")
    if flags & ~_FLAG_GROUND_TRUTH:
        raise StoreFormatError(f"CPEM flags {flags:#x} set a bit other than bit 0")
    itemsize = 12 + 4 * dim_d * (1 + patches_m)
    if itemsize >= _MAX_RECORD_BYTES:
        size = f"{itemsize} bytes (D={dim_d}, M={patches_m})"
        raise StoreFormatError(f"records of {size} exceed 2 GiB")
    end = start + record_count * itemsize
    _require(data, end, f"the {record_count} records the header gives")
    dtype = _record_dtype(dim_d, patches_m)
    body = np.frombuffer(data, dtype=dtype, count=record_count, offset=start)
    store = EmbeddingStore(dim_d, patches_m, class_count, *(body[name] for name in dtype.names))

    def reject(bad: np.ndarray, what: str) -> None:
        if bad.any():
            raise StoreFormatError(f"record {int(store.record_ids[np.argmax(bad)])} {what}")

    if not (all_finite(store.class_embeddings) and all_finite(store.patch_embeddings)):
        # a float64 sum of float32 values cannot overflow, so it is finite
        # exactly when every term is: the first record whose sum is not is named
        sums = store.class_embeddings.sum(1, np.float64)
        sums += store.patch_embeddings.sum((1, 2), np.float64)
        reject(~np.isfinite(sums), "contains NaN/Inf")
    reject(store.labels >= class_count, f"has a label >= {class_count} classes")
    if not np.diff(np.sort(store.record_ids)).all():
        raise StoreFormatError("record ids are not unique")
    if flags & _FLAG_GROUND_TRUTH:
        words = np.frombuffer(data, _PLANTED, (len(data) - end) // _PLANTED.itemsize, end)
        # R (M + 1) words: no valid section is longer, as no valid count exceeds M
        heads, at = _walk(words, record_count, record_count * (patches_m + 1))
        _require(words, at, "ground-truth indices")
        _require(words, at + (len(heads) < record_count), "ground-truth count")
        end += _PLANTED.itemsize * at
        counts = words[heads]
        rows = np.repeat(np.arange(record_count), counts)
        # index j of record rows[j] follows rows[j] + 1 count words
        indices = words[np.arange(len(rows)) + rows + 1]
        beyond = np.bincount(rows[indices >= patches_m], minlength=record_count) > 0
        reject(beyond, f"has a ground-truth index >= {patches_m} patches")
        store.planted = np.zeros((record_count, patches_m), dtype=bool)
        store.planted[rows, indices] = True
        repeats = np.count_nonzero(store.planted, axis=1) != counts
        reject(repeats, "repeats a ground-truth index")
    _reject_trailing(data, end)
    return store


def _norms(rows: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row, as a column: one dot product per row, as it takes it."""
    return np.sqrt(rows[:, np.newaxis, :] @ rows[:, :, np.newaxis])[:, 0]


def generate_synthetic(cfg: SyntheticConfig) -> EmbeddingStore:
    """Generate a planted-signal store, fully determined by cfg.seed.

    Stores stay reproducible while stream 0 of cfg.seed keeps this order:
    2*ceil(D/2) normal words for each class signal and then each pool item;
    then per record, its s signal-position draws, then for each patch in
    order an optional pool pick and 2*ceil(D/2) normal words.
    """
    cfg.validate()
    state = split_states(cfg.seed, [0])  # (1,): each draw below returns the state after it
    width = 2 * ((cfg.dim + 1) // 2)  # the words of one vector's normals
    vectors = cfg.class_count + cfg.distractor_pool_size
    (words,), state = accepted_rows(state, np.ones((1, vectors * width), np.uint64))  # 1: any word
    normals = box_muller(words.reshape(vectors, width), cfg.dim)
    signals = normals[: cfg.class_count] / _norms(normals[: cfg.class_count])
    # Orthonormal basis of the signal span, for projecting distractors out.
    basis, _ = np.linalg.qr(signals.T)
    v = normals[cfg.class_count :]
    v = v - (basis @ (basis.T @ v[..., np.newaxis]))[..., 0]
    norms = _norms(v)
    if np.any(norms < 1e-9):
        raise InfeasibleConfig("distractor collapsed onto the signal span")
    # Background content is not pure noise: each pool item leans toward
    # one class's signal, so a retained distractor patch can be mistaken
    # for evidence of that class. Without this, discarded patches carry
    # no misleading content and selection could never beat keeping all.
    v = v / norms + CONFUSER_WEIGHT * signals[np.arange(len(v)) % cfg.class_count]
    distractors = v / _norms(v)

    rows = cfg.class_count * cfg.records_per_class
    store = EmbeddingStore(
        cfg.dim,
        cfg.patches,
        cfg.class_count,
        np.arange(rows, dtype=np.uint64),
        np.repeat(np.arange(cfg.class_count, dtype=np.uint32), cfg.records_per_class),
        np.empty((rows, cfg.dim), dtype=np.float32),
        np.empty((rows, cfg.patches, cfg.dim), dtype=np.float32),
        planted=np.zeros((rows, cfg.patches), dtype=bool),
    )
    # each record's signal positions: a partial Fisher-Yates of the M patch slots on its stream
    slots, sizes = np.arange(cfg.patches).reshape(1, 1, -1), np.full((1, 1), cfg.patches)
    for row, label in enumerate(store.labels.tolist()):
        signal_pos, state = partial_shuffle(state, slots, sizes, cfg.signal_patches)
        store.planted[row, signal_pos[0, 0]] = True
        distractor = ~store.planted[row]
        # patch j's normals follow j patches' normals and every pick up to its own
        starts = np.arange(cfg.patches) * width + np.cumsum(distractor)
        picks = starts[distractor] - 1
        bounds = np.ones(cfg.patches * width + len(picks), dtype=np.uint64)  # 1: any word
        bounds[picks] = cfg.distractor_pool_size
        (words,), state = accepted_rows(state, bounds[np.newaxis])
        noise = box_muller(words[starts[:, np.newaxis] + np.arange(width)], cfg.dim)
        base = np.repeat(signals[label][np.newaxis], cfg.patches, axis=0)
        base[distractor] = distractors[words[picks] % cfg.distractor_pool_size]
        scale = np.where(distractor, cfg.distractor_noise, cfg.signal_noise)[:, np.newaxis]
        v = base + scale * noise
        patches = v / _norms(v)
        store.class_embeddings[row] = patches.mean(axis=0)
        store.patch_embeddings[row] = patches
    return store
