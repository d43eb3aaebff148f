"""Class-relevant patch selection: similarity sequences against the class
embedding, deterministic top-m ranking, and per-store tables of the selected
patches and of their unit rows fused with the class embedding.
"""

from __future__ import annotations

import collections
import enum
import json
import math

import numpy as np

from .numerics import block_slices, unit_rows
from .store import EmbeddingStore

FUSION_CLASS_WEIGHT = 2.0  # fused patch = patch + 2 * class embedding


class DistanceKind(enum.Enum):
    """Ranking functions for patch-vs-class relevance.

    ABS and SQR are distances; they enter as negated values so that
    "larger means more similar" holds uniformly for top-m selection.
    """

    COS = "cos"
    DOT = "dot"
    ABS = "abs"
    SQR = "sqr"


def similarity_sequence(
    class_embeddings: np.ndarray, patch_embeddings: np.ndarray, kind: DistanceKind
) -> np.ndarray:
    """Similarity of each patch (..., M, D) to its class embedding (..., D):
    the (..., M) similarity sequences."""
    c = class_embeddings[..., np.newaxis, :]
    if kind is DistanceKind.COS:
        return np.matmul(unit_rows(patch_embeddings), unit_rows(c).swapaxes(-1, -2))[..., 0]
    if kind is DistanceKind.DOT:
        return np.matmul(patch_embeddings, c.swapaxes(-1, -2))[..., 0]
    diff = patch_embeddings - c
    if kind is DistanceKind.ABS:
        return -np.sum(np.abs(diff), axis=-1)
    return -np.sum(diff * diff, axis=-1)  # SQR


def select_top(similarities: np.ndarray, m: int) -> np.ndarray:
    """(..., m) indices of the m largest of each similarity sequence (..., M),
    in descending order; ties go to the lower index. m is in [0, M] (resolve_m)."""
    similarities = np.asarray(similarities, dtype=np.float64)
    return np.argsort(-similarities, axis=-1, kind="stable")[..., :m]


def _select_blocks(store: EmbeddingStore, m: int, kind: DistanceKind, rows, table, out=None):
    """Write the (R, m) top-m patch indices of every store record (by slices, which gather
    nothing) or of the rows at ``rows`` into ``table``: records (R,), or means of K records
    (R, K), as EmbeddingStore.embeddings gives them. Ranked a float64 block at a time: rows whose
    stored values (M * D a record, K * M * D a mean) total BLOCK_VALUES at most, or one row.
    Given ``out``, (R, max(m, 1), D), each block's kept patches, indexed out of that same block,
    are fused into it as unit rows, so each record is gathered and upcast once. A generator of
    each block's slice once it is written: a block's arrays are freed only once the next
    block's exist, or the generator is done."""
    shots = math.prod(np.shape(rows)[1:])  # records a row reads: 1, or K
    for block in block_slices(len(table), shots * store.patches_m * store.dim_d):
        classes, patches = store.embeddings(block if rows is None else rows[block])
        table[block] = top = select_top(similarity_sequence(classes, patches, kind), m)
        if out is not None:
            out[block] = unit_rows(fuse_rows(classes, patches[np.arange(len(top))[:, None], top]))
        yield block


def selection_table(store: EmbeddingStore, m: int, kind: DistanceKind, rows=None) -> np.ndarray:
    """(R, m) top-m patch indices of every store record, or of those at ``rows``, in rank order."""
    table = np.empty((len(store) if rows is None else len(rows), m), dtype=np.intp)
    collections.deque(_select_blocks(store, m, kind, rows, table), maxlen=0)
    return table


def fuse_rows(class_embeddings: np.ndarray, patches: np.ndarray) -> np.ndarray:
    """Add twice the class embedding (..., D) to each of its selected patches
    (..., m, D).

    An empty selection (m=0) falls back to the bare class embedding as the
    single-row image representation, (..., 1, D).
    """
    rows = class_embeddings[..., np.newaxis, :]
    if patches.shape[-2] == 0:
        return rows
    return patches + FUSION_CLASS_WEIGHT * rows


def representation_table(store: EmbeddingStore, m: int, kind: DistanceKind, rows=None):
    """(R, max(m, 1), D): each row's top-m patches fused with its class embedding, as unit
    rows, of every store record or of the rows at ``rows``, an index array of records (R,) or
    of K-shot prototypes (R, K), each the mean of its K records (``_select_blocks``)."""
    out = np.empty((len(store) if rows is None else len(rows), max(m, 1), store.dim_d))
    collections.deque(representation_blocks(store, m, kind, rows, out), maxlen=0)
    return out


def representation_blocks(store: EmbeddingStore, m: int, kind: DistanceKind, rows, out):
    """representation_table(store, m, kind, rows) written into ``out`` a block at a time, on
    the caller's thread: a generator of each block's slice once its rows are written, so the
    caller may use them while later blocks are still to be selected."""
    return _select_blocks(store, m, kind, rows, np.empty((len(out), m), dtype=np.intp), out)


def mask_json(record_id: int, indices: np.ndarray, similarities: np.ndarray) -> str:
    """JSON artifact describing which patches (``indices``, from
    ``select_top``) a record's similarity sequence selected."""
    return json.dumps(
        {
            "record_id": record_id,
            "m": len(indices),
            "indices": indices.tolist(),
            "similarities": similarities.tolist(),
        },
        indent=2,
    )


def mask_pgm(indices: np.ndarray, similarities: np.ndarray) -> str | None:
    """ASCII PGM mask (selected cells 255, others 0), row-major patch order.

    Only defined when the patch count is a perfect square; returns None
    otherwise.
    """
    total = similarities.size
    side = math.isqrt(total)
    if side * side != total:
        return None
    selected = set(indices.tolist())
    lines = ["P2", f"{side} {side}", "255"]
    for r in range(side):
        lines.append(" ".join("255" if r * side + c in selected else "0" for c in range(side)))
    return "\n".join(lines) + "\n"
