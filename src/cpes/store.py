"""Embedding data model, CPEM binary serialization, and a synthetic
generator that plants known signal patches for recall evaluation.

CPEM layout (little-endian):
  magic "CPEM" | version u16 | flags u16 (bit0: ground-truth section)
  | dim_d u32 | patches_m u32 | class_count u32 | record_count u64
  | per record: record_id u64, label u32, class_embedding f32 x D,
    patch_embeddings f32 x (M*D)
  | optional ground-truth section: per record, s u16 then s x u16 indices.

Embeddings stay float32, as CPEM stores them (a read store holds views of
the file bytes); consumers take exact float64 copies, so all math runs in
float64 and write/read round trips exactly.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import (
    BadMagic,
    InfeasibleConfig,
    InvalidRecord,
    NonFiniteValue,
    TrailingBytes,
    TruncatedFile,
    UnsupportedVersion,
)
from .numerics import Rng64, rng_split

MAGIC = b"CPEM"
VERSION = 1
# how strongly each distractor pool item leans toward one class's signal
CONFUSER_WEIGHT = 0.7
_FLAG_GROUND_TRUTH = 1
HEADER_BYTES = 4 + 2 + 2 + 4 + 4 + 4 + 8  # magic, version, flags, D, M, C, count
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
    # per-record planted signal patch indices; synthetic stores only
    ground_truth: list[tuple[int, ...]] | None = None

    def __post_init__(self):
        self._by_label: dict[int, list[int]] = {}
        for row, label in enumerate(self.labels.tolist()):
            self._by_label.setdefault(label, []).append(row)

    def __len__(self) -> int:
        return self.record_ids.shape[0]

    def records_by_label(self) -> dict[int, list[int]]:
        """Row indices of each label's records, in store order."""
        return self._by_label

    def embeddings(self, rows, patches) -> tuple[np.ndarray, np.ndarray]:
        """float64 copies of the class embeddings at ``rows`` and of their
        patch embeddings at ``patches``, an index array of shape
        ``rows.shape + (m,)``.

        The one place the stored float32 values are upcast; the upcast is
        exact.
        """
        rows = np.asarray(rows)
        picked = self.patch_embeddings[rows[..., np.newaxis], patches]
        return self.class_embeddings[rows].astype(np.float64), picked.astype(np.float64)


@dataclass
class SyntheticConfig:
    """Knobs for the planted-signal generator.

    Each class gets a unit signal direction; every record plants
    ``signal_patches`` noisy copies of it among distractors drawn from a
    pool orthogonalized against all signal directions, so the separability
    of selection is controlled by the two noise scales.
    """

    class_count: int
    records_per_class: int
    dim: int
    patches: int
    signal_patches: int
    signal_noise: float
    distractor_pool_size: int
    distractor_noise: float
    seed: int

    def validate(self) -> None:
        for name in ("class_count", "records_per_class", "dim", "patches"):
            if getattr(self, name) < 1:
                raise InfeasibleConfig(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("signal_noise", "distractor_noise"):
            if not 0 <= getattr(self, name) < math.inf:
                raise InfeasibleConfig(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if not 1 <= self.signal_patches <= self.patches:
            raise InfeasibleConfig("signal_patches must be in [1, patches]")
        if self.distractor_pool_size + self.class_count > self.dim:
            raise InfeasibleConfig(
                f"cannot orthogonalize {self.distractor_pool_size} distractors "
                f"against {self.class_count} signals in dim {self.dim}"
            )


def write_store(store: EmbeddingStore, destination) -> int:
    """Serialize to CPEM. destination is a path or a binary sink; returns bytes written."""
    if isinstance(destination, (str, Path)):
        with open(destination, "wb") as fh:
            return write_store(store, fh)
    buf: BinaryIO = destination
    flags = _FLAG_GROUND_TRUTH if store.ground_truth is not None else 0
    body = np.empty(len(store), dtype=_record_dtype(store.dim_d, store.patches_m))
    for name in body.dtype.names:
        body[name] = getattr(store, name)
    header = (VERSION, flags, store.dim_d, store.patches_m, store.class_count, len(store))
    n = buf.write(MAGIC) + buf.write(struct.pack("<HHIIIQ", *header))
    n += buf.write(body.tobytes())
    if store.ground_truth is not None:
        for indices in store.ground_truth:
            n += buf.write(struct.pack(f"<H{len(indices)}H", len(indices), *indices))
    return n


def _read_header(source, magic: bytes, version: int, fmt: str) -> tuple[bytes, list]:
    """Every byte of a path or binary source, in one read, and the ``fmt``
    header fields after its magic and u16 version, both checked."""
    data = Path(source).read_bytes() if isinstance(source, (str, Path)) else source.read()
    _require(data, 4, "magic")
    if data[:4] != magic:
        raise BadMagic(f"expected {magic!r}, found {data[:4]!r}")
    _require(data, 4 + struct.calcsize("<H" + fmt), "header")
    found, *fields = struct.unpack_from("<H" + fmt, data, 4)
    if found != version:
        raise UnsupportedVersion(f"{magic.decode()} version {found}")
    return data, fields


def _require(data: bytes, end: int, what: str) -> None:
    if len(data) < end:
        raise TruncatedFile(f"unexpected end of file while reading {what}")


def _reject_trailing(data: bytes, end: int) -> None:
    if len(data) > end:
        raise TrailingBytes(f"{len(data) - end} bytes after the end of the file's body")


def read_store(source) -> EmbeddingStore:
    """Parse a CPEM path or binary source in one read, into float32 views
    of the bytes. Rejects a bad magic or version, a size other than the
    header gives, non-finite embeddings and invalid records."""
    data, (flags, dim_d, patches_m, class_count, record_count) = _read_header(
        source, MAGIC, VERSION, "HIIIQ"
    )
    itemsize = 12 + 4 * dim_d * (1 + patches_m)
    if itemsize >= _MAX_RECORD_BYTES:
        raise InvalidRecord(f"records of {itemsize} bytes (D={dim_d}, M={patches_m}) exceed 2 GiB")
    end = HEADER_BYTES + record_count * itemsize
    _require(data, end, f"the {record_count} records the header gives")
    dtype = _record_dtype(dim_d, patches_m)
    body = np.frombuffer(data, dtype=dtype, count=record_count, offset=HEADER_BYTES)
    store = EmbeddingStore(dim_d, patches_m, class_count, *(body[name] for name in dtype.names))

    def reject(error, bad: np.ndarray, what: str) -> None:
        if bad.any():
            raise error(f"record {int(store.record_ids[np.argmax(bad)])} {what}")

    # a float64 sum of float32 values cannot overflow, so it is finite
    # exactly when every term is
    sums = store.class_embeddings.sum(1, np.float64)
    sums += store.patch_embeddings.sum((1, 2), np.float64)
    reject(NonFiniteValue, ~np.isfinite(sums), "contains NaN/Inf")
    reject(InvalidRecord, store.labels >= class_count, f"has a label >= {class_count} classes")
    if np.unique(store.record_ids).size != record_count:
        raise InvalidRecord("record ids are not unique")
    if flags & _FLAG_GROUND_TRUTH:
        store.ground_truth = []
        for _ in range(record_count):
            _require(data, end + 2, "ground-truth count")
            (s,) = struct.unpack_from("<H", data, end)
            _require(data, end + 2 + 2 * s, "ground-truth indices")
            store.ground_truth.append(struct.unpack_from(f"<{s}H", data, end + 2))
            end += 2 + 2 * s
        bad = [max(gt, default=-1) >= patches_m for gt in store.ground_truth]
        reject(InvalidRecord, np.array(bad), f"has a ground-truth index >= {patches_m} patches")
    _reject_trailing(data, end)
    return store


def _unit_normal(rng: Rng64, dim: int) -> np.ndarray:
    v = rng.normals(dim)
    return v / np.linalg.norm(v)


def generate_synthetic(cfg: SyntheticConfig) -> EmbeddingStore:
    """Generate a planted-signal store, fully determined by cfg.seed."""
    cfg.validate()
    rng = rng_split(cfg.seed, 0)

    signals = np.stack([_unit_normal(rng, cfg.dim) for _ in range(cfg.class_count)])
    # Orthonormal basis of the signal span, for projecting distractors out.
    basis, _ = np.linalg.qr(signals.T)
    distractors = []
    for j in range(cfg.distractor_pool_size):
        v = rng.normals(cfg.dim)
        v = v - basis @ (basis.T @ v)
        norm = np.linalg.norm(v)
        if norm < 1e-9:
            raise InfeasibleConfig("distractor collapsed onto the signal span")
        # Background content is not pure noise: each pool item leans toward
        # one class's signal, so a retained distractor patch can be mistaken
        # for evidence of that class. Without this, discarded patches carry
        # no misleading content and selection could never beat keeping all.
        flavor = signals[j % cfg.class_count]
        v = v / norm + CONFUSER_WEIGHT * flavor
        distractors.append(v / np.linalg.norm(v))

    rows = cfg.class_count * cfg.records_per_class
    store = EmbeddingStore(
        cfg.dim,
        cfg.patches,
        cfg.class_count,
        np.arange(rows, dtype=np.uint64),
        np.repeat(np.arange(cfg.class_count, dtype=np.uint32), cfg.records_per_class),
        np.empty((rows, cfg.dim), dtype=np.float32),
        np.empty((rows, cfg.patches, cfg.dim), dtype=np.float32),
        ground_truth=[],
    )
    for row, label in enumerate(store.labels.tolist()):
        g = signals[label]
        signal_pos = sorted(rng.sample_without_replacement(cfg.patches, cfg.signal_patches))
        patches = np.empty((cfg.patches, cfg.dim))
        signal_set = set(signal_pos)
        for j in range(cfg.patches):
            if j in signal_set:
                v = g + cfg.signal_noise * rng.normals(cfg.dim)
            else:
                b = distractors[rng.randint(cfg.distractor_pool_size)]
                v = b + cfg.distractor_noise * rng.normals(cfg.dim)
            patches[j] = v / np.linalg.norm(v)
        store.class_embeddings[row] = patches.mean(axis=0)
        store.patch_embeddings[row] = patches
        store.ground_truth.append(tuple(signal_pos))
    return store
