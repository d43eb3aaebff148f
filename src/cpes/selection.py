"""Class-relevant patch selection: similarity sequences against the class
embedding, deterministic top-m ranking, a per-store selection table, and
fusion of the survivors with the class embedding.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import SelectionOutOfRange
from .numerics import unit_rows
from .store import EmbeddingRecord, EmbeddingStore

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


@dataclass
class SelectionResult:
    indices: list[int]  # top-m patch indices, descending similarity
    similarities: np.ndarray  # full length-M sequence


def similarity_sequence(record: EmbeddingRecord, kind: DistanceKind) -> np.ndarray:
    """Per-patch similarity of the record's patches to its class embedding."""
    c = record.class_embedding
    patches = record.patch_embeddings
    if kind is DistanceKind.COS:
        return unit_rows(patches) @ unit_rows(c[np.newaxis])[0]
    if kind is DistanceKind.DOT:
        return patches @ c
    diff = patches - c
    if kind is DistanceKind.ABS:
        return -np.sum(np.abs(diff), axis=1)
    return -np.sum(diff * diff, axis=1)  # SQR


def select_top(similarities: np.ndarray, m: int) -> SelectionResult:
    """Indices of the m largest similarities, ties broken by lower index."""
    similarities = np.asarray(similarities, dtype=np.float64)
    big = similarities.size
    if not 0 <= m <= big:
        raise SelectionOutOfRange(f"m={m} with M={big}")
    # lexsort: primary key last -> sort by -sim, then by index ascending
    order = np.lexsort((np.arange(big), -similarities))
    return SelectionResult(indices=[int(i) for i in order[:m]], similarities=similarities)


def selection_table(store: EmbeddingStore, m: int, kind: DistanceKind) -> np.ndarray:
    """(R, m) top-m patch indices of every store record, in rank order."""
    rows = range(len(store))
    picks = [select_top(similarity_sequence(store.record(r), kind), m).indices for r in rows]
    return np.array(picks, dtype=np.intp).reshape(len(store), m)


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


def mask_json(record_id: int, selection: SelectionResult) -> str:
    """JSON artifact describing which patches a selection kept."""
    return json.dumps(
        {
            "record_id": record_id,
            "m": len(selection.indices),
            "indices": selection.indices,
            "similarities": [float(s) for s in selection.similarities],
        },
        indent=2,
    )


def mask_pgm(selection: SelectionResult) -> str | None:
    """ASCII PGM mask (selected cells 255, others 0), row-major patch order.

    Only defined when the patch count is a perfect square; returns None
    otherwise.
    """
    total = int(selection.similarities.size)
    side = math.isqrt(total)
    if side * side != total:
        return None
    selected = set(selection.indices)
    lines = ["P2", f"{side} {side}", "255"]
    for r in range(side):
        lines.append(" ".join("255" if r * side + c in selected else "0" for c in range(side)))
    return "\n".join(lines) + "\n"
