"""Reference implementations the tests compare the package against.

The per-record, per-query path here is the one the package ran before its
episode engine and selection were batched: records as float64 objects, a
K-shot prototype built as a record, one similarity sequence and one
lexsort ranking per record, one fused representation per record, one
score matrix per (query, prototype) pair and one loss and gradient per
query. Tests require the batched engine to match it. ``per_task_episode``
is the sampler the package ran before it planned tasks in blocks: one
task at a time, two ``samples_without_replacement`` blocks each.
``record``, ``records`` and ``store_from_records`` convert between array
stores and records. The oracles check their own arguments and raise
ValueError; the package's kernels leave that to its boundary.

Ground truth here is a list of index tuples, one per record, as the
package held it before its (R, M) ``planted`` mask: ``planted_mask``
converts it, and ``planted_section`` and ``read_planted_section`` write
and read the CPEM ground-truth section a record at a time with ``struct``.
``walk_planted_section`` is the walk ``read_store`` took through that
section before it composed its steps by doubling, with its checks and
messages: the reference on any bytes, malformed ones too.

The head here is the one the package kept before its state became one flat
array: parameters and moments as separate tensors, b2 a Python float, and
an optimizer step per tensor. ``head_of`` and ``grads_of`` build the flat
state from separate tensors; ``moment`` and ``per_tensor_head`` read it back.

The per-episode path here is the one the package ran before its train and
evaluate loops wrote into per-call buffers: ``episode_scores``, a fresh score
tensor per episode; ``head_pass``, ``episode_loss_and_grads`` and
``optimizer_step``, fresh arrays per step; ``class_probabilities`` and
``accuracy``, one softmax and one accuracy per task. ``per_episode_train``
and ``per_episode_evaluate`` run the package's loops on it.
``score_tensor`` is the package's tensor, ``start_scores`` on the
tensor's own ``tensor_threads`` then its runner's ``finish()``, into a new
array; ``serial_score_tensor`` is the block loop it ran before it shared its
blocks out among threads. ``loss_and_grads`` is the package's
``episode_loss_and_grads``, into StepBuffers of its own.

The RNG here is the counter stream on Python ints: ``split_state`` derives
a stream's state as ``split_states`` does, and ``outputs`` gives its words.
``ScalarRng`` is its one-draw-at-a-time form, which tests make data with,
and ``per_patch_store`` is the generator the package ran before it drew each
record as one block. ``randints`` is the package's bounded block draw, which
only tests called.
"""

import io
import math
import struct
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from cpes.episodes import Episode, plan_episodes, sample_episode
from cpes.errors import InfeasibleConfig, StoreFormatError
from cpes.harness import _TRAIN_STREAM, init_head, resolve_m
from cpes.numerics import (
    DEGENERATE_NORM,
    accepted_rows,
    block_slices,
    box_muller,
    cross_entropy,
    partial_shuffle,
    softmax,
    unit_rows,
)
from cpes import scoring
from cpes.scoring import (
    Gradients,
    MlpHead,
    StepBuffers,
    start_scores,
    tensor_threads,
)
from cpes.selection import FUSION_CLASS_WEIGHT, DistanceKind, representation_table
from cpes.store import CONFUSER_WEIGHT, EmbeddingStore, SyntheticConfig, write_store


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity in [-1, 1]; 0 for near-zero-norm inputs.

    Scalar oracle for the package's degenerate-vector policy
    (``cpes.numerics.unit_rows``).
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"cosine: shapes {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu < DEGENERATE_NORM or nv < DEGENERATE_NORM:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def masked_unit_rows(rows: np.ndarray) -> np.ndarray:
    """``cpes.numerics.unit_rows`` as one masked divide into zeros."""
    norms = np.linalg.norm(rows, axis=-1, keepdims=True)
    return np.divide(rows, norms, out=np.zeros(rows.shape), where=norms >= DEGENERATE_NORM)


# -- stores as lists of records ---------------------------------------------


@dataclass
class EmbeddingRecord:
    """One image's encoder output: a class embedding plus M patch embeddings."""

    record_id: int
    label: int
    class_embedding: np.ndarray  # (D,) float64
    patch_embeddings: np.ndarray  # (M, D) float64


def record(store: EmbeddingStore, row: int) -> EmbeddingRecord:
    """The store's record at ``row``, upcast to float64."""
    return EmbeddingRecord(
        int(store.record_ids[row]),
        int(store.labels[row]),
        store.class_embeddings[row].astype(np.float64),
        store.patch_embeddings[row].astype(np.float64),
    )


def records(store: EmbeddingStore) -> list[EmbeddingRecord]:
    return [record(store, row) for row in range(len(store))]


def store_from_records(dim_d, patches_m, class_count, recs, ground_truth=None) -> EmbeddingStore:
    """A store holding ``recs`` at the float32 precision CPEM stores, and the
    per-record index tuples ``ground_truth`` (or none) as its planted mask."""
    return EmbeddingStore(
        dim_d,
        patches_m,
        class_count,
        np.array([r.record_id for r in recs], dtype=np.uint64),
        np.array([r.label for r in recs], dtype=np.uint32),
        np.array([r.class_embedding for r in recs], dtype=np.float32).reshape(len(recs), dim_d),
        np.array([r.patch_embeddings for r in recs], dtype=np.float32).reshape(
            len(recs), patches_m, dim_d
        ),
        None if ground_truth is None else planted_mask(ground_truth, patches_m),
    )


def planted_mask(ground_truth, patches_m: int) -> np.ndarray:
    """The (R, M) bool mask of per-record planted index tuples."""
    mask = np.zeros((len(ground_truth), patches_m), dtype=bool)
    for row, indices in enumerate(ground_truth):
        mask[row, list(indices)] = True
    return mask


def planted_section(ground_truth) -> bytes:
    """The CPEM ground-truth section of per-record index tuples, in their
    order: per record, its count and then its indices, each a ``struct`` u16."""
    return b"".join(struct.pack(f"<{1 + len(gt)}H", len(gt), *gt) for gt in ground_truth)


def read_planted_section(data: bytes, offset: int, record_count: int):
    """(index tuples, end offset) of the ground-truth section at ``offset``:
    per record, one ``struct`` read of its count and one of its indices."""
    ground_truth = []
    for _ in range(record_count):
        (s,) = struct.unpack_from("<H", data, offset)
        ground_truth.append(struct.unpack_from(f"<{s}H", data, offset + 2))
        offset += 2 * (1 + s)
    return ground_truth, offset


def walk_planted_section(data: bytes, end: int, record_ids, patches_m: int) -> np.ndarray:
    """The planted mask of the CPEM ground-truth section from ``end`` to the
    end of ``data``, read as the package read it before it composed its walk
    by doubling: a plain-int step per record to its count word, then one
    record at a time. It raises what ``read_store`` raises, with the same
    message, checking in its order: indices cut short, a count cut short, an
    index >= M, a repeated index (each naming the first record at fault by
    its id in ``record_ids``), then bytes after the section."""
    record_count = len(record_ids)
    words = np.frombuffer(data, "<u2", (len(data) - end) // 2, end)
    heads, at = [], 0
    while len(heads) < record_count and at < len(words):
        heads.append(at)
        at += 1 + words.item(at)
    for need, what in ((at, "indices"), (at + (len(heads) < record_count), "count")):
        if len(words) < need:
            raise StoreFormatError(f"unexpected end of file while reading ground-truth {what}")
    ground_truth = [words[h + 1 : h + 1 + words.item(h)].tolist() for h in heads]
    beyond = f"has a ground-truth index >= {patches_m} patches"
    for what, fault in (
        (beyond, lambda gt: any(i >= patches_m for i in gt)),
        ("repeats a ground-truth index", lambda gt: len(set(gt)) != len(gt)),
    ):
        for record_id, gt in zip(record_ids, ground_truth):
            if fault(gt):
                raise StoreFormatError(f"record {int(record_id)} {what}")
    if len(data) > end + 2 * at:
        raise StoreFormatError(f"{len(data) - end - 2 * at} bytes after the end of the file's body")
    return planted_mask(ground_truth, patches_m)


def cpem_with_section(store: EmbeddingStore, ground_truth) -> bytes:
    """CPEM bytes of ``store`` with the ground-truth flag set and the section
    ``planted_section`` writes after its records, whatever ``ground_truth``
    holds: indices >= M, repeats or any order."""
    buf = io.BytesIO()
    write_store(replace(store, planted=None), buf)
    data = bytearray(buf.getvalue())
    data[6:8] = struct.pack("<H", 1)
    return bytes(data) + planted_section(ground_truth)


def read_records(data: bytes) -> list[EmbeddingRecord]:
    """CPEM body as float64 records, one ``struct`` read per field."""
    _, _, dim_d, patches_m, _, count = struct.unpack_from("<HHIIIQ", data, 4)
    offset = 28
    out = []
    for _ in range(count):
        record_id, label = struct.unpack_from("<QI", data, offset)
        offset += 12
        cls = np.frombuffer(data, "<f4", dim_d, offset).astype(np.float64)
        offset += 4 * dim_d
        patches = np.frombuffer(data, "<f4", patches_m * dim_d, offset).astype(np.float64)
        offset += 4 * patches_m * dim_d
        out.append(EmbeddingRecord(record_id, label, cls, patches.reshape(patches_m, dim_d)))
    return out


def build_prototype(supports: list[EmbeddingRecord]) -> EmbeddingRecord:
    """Position-wise mean of K support records of one class."""
    first = supports[0]
    for rec in supports[1:]:
        if (
            rec.class_embedding.shape != first.class_embedding.shape
            or rec.patch_embeddings.shape != first.patch_embeddings.shape
        ):
            raise ValueError("support records disagree on D or M")
    class_embedding = np.mean([r.class_embedding for r in supports], axis=0)
    patch_embeddings = np.mean([r.patch_embeddings for r in supports], axis=0)
    return EmbeddingRecord(first.record_id, first.label, class_embedding, patch_embeddings)


# -- per-record selection and per-pair scoring -------------------------------


def similarity_sequence(rec: EmbeddingRecord, kind: DistanceKind) -> np.ndarray:
    """Per-patch similarity of the record's patches to its class embedding."""
    c = rec.class_embedding
    patches = rec.patch_embeddings
    if kind is DistanceKind.COS:
        return unit_rows(patches) @ unit_rows(c[np.newaxis])[0]
    if kind is DistanceKind.DOT:
        return patches @ c
    diff = patches - c
    if kind is DistanceKind.ABS:
        return -np.sum(np.abs(diff), axis=1)
    return -np.sum(diff * diff, axis=1)  # SQR


def select_top(similarities, m: int) -> list[int]:
    """Indices of the m largest similarities, ties broken by lower index."""
    similarities = np.asarray(similarities, dtype=np.float64)
    big = similarities.size
    if not 0 <= m <= big:
        raise ValueError(f"m={m} with M={big}")
    # lexsort: primary key last -> sort by -sim, then by index ascending
    order = np.lexsort((np.arange(big), -similarities))
    return [int(i) for i in order[:m]]


@dataclass
class FusedRepresentation:
    rows: np.ndarray  # (m, D), or (1, D) class-only fallback when m=0
    source_indices: list[int]


def fuse(rec: EmbeddingRecord, indices) -> FusedRepresentation:
    """Add twice the class embedding to each selected patch; m=0 falls back
    to the bare class embedding as the single row."""
    indices = [int(i) for i in indices]
    if not indices:
        return FusedRepresentation(
            rows=rec.class_embedding[np.newaxis, :].copy(), source_indices=[]
        )
    for i in indices:
        if not 0 <= i < rec.patch_embeddings.shape[0]:
            raise ValueError(f"patch index {i}")
    rows = rec.patch_embeddings[indices] + FUSION_CLASS_WEIGHT * rec.class_embedding
    return FusedRepresentation(rows=rows, source_indices=indices)


def fused(rec: EmbeddingRecord, m: int, kind) -> FusedRepresentation:
    return fuse(rec, select_top(similarity_sequence(rec, kind), m))


def score_matrix(query: FusedRepresentation, proto: FusedRepresentation) -> np.ndarray:
    """Squared cosine between every (query row, proto row) pair."""
    if query.rows.shape[1] != proto.rows.shape[1]:
        raise ValueError(
            f"fused dims differ: {query.rows.shape[1]} vs {proto.rows.shape[1]}"
        )
    s = (unit_rows(query.rows) @ unit_rows(proto.rows).T) ** 2
    return np.minimum(s, 1.0)


# -- episodes of records -----------------------------------------------------


def by_label_of(store: EmbeddingStore) -> dict[int, list[int]]:
    """Each label's row indices in store order, by ascending label: one
    record at a time, as the package built ``EmbeddingStore.by_label``."""
    by_label: dict[int, list[int]] = {}
    for row, label in enumerate(store.labels.tolist()):
        by_label.setdefault(label, []).append(row)
    return dict(sorted(by_label.items()))


def samples_without_replacement(state: int, pools, k: int) -> tuple[list[list], int]:
    """k distinct items per pool: partial_shuffle of its padded slots on the
    stream at ``state``; and the state after them."""
    sizes = np.array([[len(pool) for pool in pools]])
    if sizes.min(initial=k) < k:
        raise ValueError(f"{k} samples from a pool of {sizes.min()} items")
    slots = np.tile(np.arange(sizes.max(initial=0)), (1, len(pools), 1))
    picks, after = partial_shuffle(np.array([state], np.uint64), slots, sizes, k)
    return [[pool[i] for i in row] for pool, row in zip(pools, picks[0].tolist())], int(after[0])


def per_task_episode(
    store: EmbeddingStore, n_way, k_shot, queries_per_class, task_index, base_seed
) -> Episode:
    """The Episode of one task, as the package sampled it before it planned
    tasks in blocks: from split_state(base_seed, task_index), one
    ``samples_without_replacement`` block for the N classes and one for all
    N classes' K+Q records, with the class sizes checked between."""
    by_label = by_label_of(store)
    if len(by_label) < n_way:
        raise InfeasibleConfig(f"need {n_way} classes, store has {len(by_label)}")
    need = k_shot + queries_per_class
    (class_map,), state = samples_without_replacement(
        split_state(base_seed, task_index), [list(by_label)], n_way
    )
    pools = [by_label[label] for label in class_map]
    for label, pool in zip(class_map, pools):
        if len(pool) < need:
            raise InfeasibleConfig(f"class {label} has {len(pool)} records, need {need}")
    picked = np.array(samples_without_replacement(state, pools, need)[0], np.intp)
    picked = picked.reshape(n_way, need)
    query_labels = np.repeat(np.arange(n_way), queries_per_class)
    return Episode(picked[:, :k_shot], picked[:, k_shot:].reshape(-1), query_labels)


def sample_episode_records(
    store: EmbeddingStore, n_way, k_shot, queries_per_class, task_index, base_seed
):
    """(prototypes, queries, query labels) as records, drawing from the RNG
    in the order ``cpes.plan_episodes`` must keep, for the same arguments:
    one Python-int output at a time, through ``fisher_yates``."""
    by_label = by_label_of(store)
    labels = list(by_label)
    need = k_shot + queries_per_class
    draws = outputs(split_state(base_seed, task_index))
    chosen = fisher_yates(draws, len(labels), n_way)
    protos, queries, query_labels = [], [], []
    for local, label in enumerate(labels[i] for i in chosen):
        pool = by_label[label]
        picks = [record(store, pool[i]) for i in fisher_yates(draws, len(pool), need)]
        protos.append(build_prototype(picks[:k_shot]))
        queries.extend(picks[k_shot:])
        query_labels.extend([local] * queries_per_class)
    return protos, queries, query_labels


def evaluate_per_query(head, store: EmbeddingStore, cfg) -> list[float]:
    """Per-task accuracies of ``cpes.evaluate``, one query at a time."""
    m = resolve_m(store, cfg)
    per_task = []
    for task in range(cfg.eval_tasks):
        protos, queries, labels = sample_episode_records(
            store, cfg.n_way, cfg.k_shot, cfg.queries_per_class, task, cfg.base_seed
        )
        protos = [fused(p, m, cfg.distance) for p in protos]
        correct = 0
        for query, label in zip(queries, labels):
            probs = query_class_probabilities(head, fused(query, m, cfg.distance), protos)
            correct += int(np.argmax(probs)) == label
        per_task.append(correct / len(queries))
    return per_task


def episode_representations(store: EmbeddingStore, episode, m: int, kind):
    """Fused (prototypes, queries) of an index episode, one record at a time."""
    protos = [build_prototype([record(store, r) for r in rows]) for rows in episode.support_rows]
    queries = [record(store, r) for r in episode.query_rows]
    return [fused(p, m, kind) for p in protos], [fused(q, m, kind) for q in queries]


def prototype_rows(store: EmbeddingStore, support_rows, m: int, kind) -> np.ndarray:
    """(N, r, D) unit rows of the fused mean prototypes of supports (N, K),
    one record at a time, as the package's representation table lays them out."""
    episode = SimpleNamespace(support_rows=support_rows, query_rows=[])
    protos, _ = episode_representations(store, episode, m, kind)
    return unit_rows(np.stack([proto.rows for proto in protos]))


# -- per-query head ----------------------------------------------------------


def query_class_probabilities(head, query, protos) -> np.ndarray:
    scores = np.stack([score_matrix(query, p) for p in protos])
    return softmax(head_pass(head, scores)[3])


def query_loss_and_grads(head, query, protos, target):
    """Cross-entropy loss of one query against N prototypes, with analytic
    parameter gradients. Returns (loss, grads, class probabilities)."""
    scores = np.stack([score_matrix(query, p) for p in protos])
    xs, pre, hidden, out = head_pass(head, scores)
    probs = softmax(out)
    loss = -math.log(max(float(probs[target]), 1e-300))

    dscores = probs.copy()
    dscores[target] -= 1.0
    dw2 = dscores @ hidden
    db2 = float(np.sum(dscores))
    dhidden = np.outer(dscores, head.w2) * (pre > 0.0)
    dw1 = dhidden.T @ xs
    db1 = dhidden.sum(axis=0)
    return loss, grads_of(dw1, db1, dw2, db2), probs


def add_grads(total: Gradients, other: Gradients) -> None:
    total.flat += other.flat


def scale_grads(g: Gradients, factor: float) -> Gradients:
    return Gradients(g.hidden_dim, g.flat * factor)


def mean_query_grads(head, queries, protos, labels) -> Gradients:
    """Per-query gradients summed in query order, then averaged."""
    total = None
    for query, label in zip(queries, labels):
        _, grads, _ = query_loss_and_grads(head, query, protos, int(label))
        if total is None:
            total = grads
        else:
            add_grads(total, grads)
    return scale_grads(total, 1.0 / len(queries))


# -- per-tensor head state and optimizer ------------------------------------


def grads_of(w1, b1, w2, b2: float) -> Gradients:
    """Gradients (or one group of a head's state) from its four tensors."""
    return Gradients(len(b1), np.concatenate([np.ravel(w1), b1, w2, [b2]]))


def head_of(w1, b1, w2, b2: float) -> MlpHead:
    """A head with the given parameters and zero moments."""
    params = grads_of(w1, b1, w2, b2).flat
    return MlpHead(np.shape(w1)[1], len(b1), np.stack([params, 0 * params, 0 * params]))


def zero_grads(head: MlpHead) -> Gradients:
    return Gradients(head.hidden_dim, np.zeros_like(head.flat))


def moment(head: MlpHead, k: int) -> Gradients:
    """The head's first (k=1) or second (k=2) optimizer moment."""
    return Gradients(head.hidden_dim, head.state[k])


def per_tensor_head(head: MlpHead) -> SimpleNamespace:
    """Separate copies of a head's parameters and moments, b2 a Python float."""

    def group(g):
        return SimpleNamespace(w1=g.w1.copy(), b1=g.b1.copy(), w2=g.w2.copy(), b2=g.b2)

    return SimpleNamespace(
        **vars(group(head)), moment1=group(moment(head, 1)), moment2=group(moment(head, 2)),
        step=head.step,
    )


def per_tensor_optimizer_step(head, grads, cfg):
    """One decoupled-weight-decay adaptive-moment update, in place: a
    closure per tensor, and a scalar copy of it for b2."""
    for g in (grads.w1, grads.b1, grads.w2):
        if not np.all(np.isfinite(g)):
            raise ValueError("NaN/Inf in gradients")
    if not math.isfinite(grads.b2):
        raise ValueError("NaN/Inf in gradients")

    lr = cfg.lr_at(head.step)
    head.step += 1
    bc1 = 1.0 - cfg.beta1**head.step
    bc2 = 1.0 - cfg.beta2**head.step

    def update(param, g, m, v):
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        # decay is decoupled: both terms reference the pre-update parameter
        param *= 1.0 - lr * cfg.weight_decay
        param -= lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)

    update(head.w1, grads.w1, head.moment1.w1, head.moment2.w1)
    update(head.b1, grads.b1, head.moment1.b1, head.moment2.b1)
    update(head.w2, grads.w2, head.moment1.w2, head.moment2.w2)
    # scalar bias: same update, no numpy views to mutate
    m = head.moment1.b2 = cfg.beta1 * head.moment1.b2 + (1.0 - cfg.beta1) * grads.b2
    v = head.moment2.b2 = cfg.beta2 * head.moment2.b2 + (1.0 - cfg.beta2) * grads.b2**2
    head.b2 = head.b2 * (1.0 - lr * cfg.weight_decay) - lr * (m / bc1) / (
        math.sqrt(v / bc2) + cfg.eps
    )
    return head


# -- the per-episode path ---------------------------------------------------


def episode_scores(store: EmbeddingStore, reps, episode, m: int, kind) -> np.ndarray:
    """The episode's (Q, N, r, r) score tensor, a new array, from the store's
    representation table: queries and K = 1 prototypes are its rows, and
    K > 1 prototypes are built one record at a time (``prototype_rows``)."""
    if episode.support_rows.shape[1] == 1:
        protos = reps[episode.support_rows[:, 0]]
    else:
        protos = prototype_rows(store, episode.support_rows, m, kind)
    return score_tensor(reps, episode.query_rows, protos)


def score_tensor(table: np.ndarray, rows, protos: np.ndarray) -> np.ndarray:
    out = np.empty((len(rows), len(protos), table.shape[1], protos.shape[1]))
    threads = tensor_threads(len(rows), table.shape[1] * table.shape[2])
    start_scores(table, rows, protos, out, threads).finish()
    return out


def serial_score_tensor(table: np.ndarray, rows, protos: np.ndarray) -> np.ndarray:
    """``score_tensor`` as the package ran it on one thread: a block of
    BLOCK_VALUES values of the table at most (or one query) at a time."""
    out = np.empty((len(rows), len(protos), table.shape[1], protos.shape[1]))
    for block in block_slices(len(rows), table.shape[1] * table.shape[2]):
        np.matmul(table[rows[block], np.newaxis], protos.transpose(0, 2, 1), out=out[block])
    return np.minimum(np.square(out, out=out), 1.0, out=out)


def head_pass(head: MlpHead, scores):
    """(x, pre, hidden, class scores) of W1 -> ReLU -> w2 over score matrices
    (..., r, r), each a new array; the class scores shaped like the leading axes."""
    x = np.asarray(scores, dtype=np.float64)
    lead, size = x.shape[:-2], x.shape[-2] * x.shape[-1]
    if size != head.input_dim:
        raise ValueError(f"score size {size}, head expects {head.input_dim}")
    x = x.reshape(-1, size)
    pre = x @ head.w1.T + head.b1
    hidden = np.maximum(pre, 0.0)
    return x, pre, hidden, (hidden @ head.w2 + head.b2).reshape(lead)


def class_probabilities(head: MlpHead, scores: np.ndarray) -> np.ndarray:
    """(Q, N) class probabilities of an episode's score tensor, forward only."""
    return softmax(head_pass(head, scores)[3])


def episode_loss_and_grads(head: MlpHead, scores: np.ndarray, targets: np.ndarray):
    """(losses (Q,), mean-loss gradients, probabilities (Q, N)) of an episode."""
    xs, pre, hidden, out = head_pass(head, scores)
    probs = softmax(out)
    dscores = probs.copy()
    dscores[np.arange(len(targets)), targets] -= 1.0
    dscores = dscores.reshape(-1) / len(targets)
    dhidden = np.outer(dscores, head.w2) * (pre > 0.0)
    grads = Gradients(head.hidden_dim, np.empty_like(head.flat))
    np.matmul(dhidden.T, xs, out=grads.w1)
    np.sum(dhidden, axis=0, out=grads.b1)
    np.matmul(dscores, hidden, out=grads.w2)
    grads.b2 = np.sum(dscores)
    return cross_entropy(probs, targets), grads, probs


def loss_and_grads(head: MlpHead, scores: np.ndarray, targets: np.ndarray):
    """The package's ``episode_loss_and_grads``, into StepBuffers of its own."""
    buffers = StepBuffers.allocate(scores.shape[0] * scores.shape[1], head)
    return scoring.episode_loss_and_grads(head, scores, targets, buffers)


def optimizer_step(head: MlpHead, grads: Gradients, cfg) -> MlpHead:
    """One AdamW update of the whole state, each temporary a new array."""
    g = grads.flat
    if not np.all(np.isfinite(g)):
        raise ValueError("NaN/Inf in gradients")
    lr = cfg.lr_at(head.step)
    head.step += 1
    bc1 = 1.0 - cfg.beta1**head.step
    bc2 = 1.0 - cfg.beta2**head.step
    param, m, v = head.state
    m *= cfg.beta1
    m += (1.0 - cfg.beta1) * g
    v *= cfg.beta2
    v += (1.0 - cfg.beta2) * g * g
    param *= 1.0 - lr * cfg.weight_decay
    param -= lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
    return head


def accuracy(probs: np.ndarray, episode) -> float:
    """The fraction of the episode's queries whose argmax class is their label."""
    return float(np.mean(probs.argmax(axis=1) == episode.query_labels))


def per_episode_train(store: EmbeddingStore, cfg):
    """``cpes.train``'s head and log, one episode at a time on the path above."""
    m = resolve_m(store, cfg)
    cfg.optimizer.check_schedule()
    head = init_head(cfg, m)
    total_steps = cfg.epochs * cfg.episodes_per_epoch
    opt = replace(cfg.optimizer, total_steps=max(total_steps, 1))
    seed = split_state(cfg.base_seed, _TRAIN_STREAM)
    plan = plan_episodes(store, cfg.n_way, cfg.k_shot, cfg.queries_per_class,
                         range(total_steps), seed)
    reps = representation_table(store, m, cfg.distance)
    log = []
    for epoch in range(cfg.epochs):
        losses, accuracies = [], []
        for step in range(cfg.episodes_per_epoch):
            episode = sample_episode(plan, epoch * cfg.episodes_per_epoch + step)
            scores = episode_scores(store, reps, episode, m, cfg.distance)
            try:
                with np.errstate(over="raise", invalid="raise"):
                    loss, grads, probs = episode_loss_and_grads(head, scores, episode.query_labels)
                    optimizer_step(head, grads, opt)
            except FloatingPointError:
                raise InfeasibleConfig(f"overflow at step {head.step + 1}") from None
            losses.append(float(np.mean(loss)))
            accuracies.append(accuracy(probs, episode))
        log.append({"epoch": epoch, "mean_loss": float(np.mean(losses)),
                    "mean_accuracy": float(np.mean(accuracies))})
    return head, log


def per_episode_evaluate(head: MlpHead, store: EmbeddingStore, cfg) -> list[float]:
    """``cpes.evaluate``'s per-task accuracies, one episode at a time on the
    path above."""
    m = resolve_m(store, cfg)
    plan = plan_episodes(store, cfg.n_way, cfg.k_shot, cfg.queries_per_class,
                         range(cfg.eval_tasks), cfg.base_seed)
    reps = representation_table(store, m, cfg.distance)
    per_task = []
    for task in range(cfg.eval_tasks):
        episode = sample_episode(plan, task)
        scores = episode_scores(store, reps, episode, m, cfg.distance)
        per_task.append(accuracy(class_probabilities(head, scores), episode))
    return per_task


# -- the counter RNG as Python ints ------------------------------------------

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MULTIPLIERS = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
_SALT = 0x5851F42D4C957F2D


def mix64(z: int) -> int:
    """The splitmix64 finalizer (Steele, Lea & Flood, OOPSLA 2014)."""
    z = (z ^ (z >> 30)) * _MULTIPLIERS[0] & MASK64
    z = (z ^ (z >> 27)) * _MULTIPLIERS[1] & MASK64
    return z ^ (z >> 31)


def split_state(seed: int, index: int) -> int:
    """The state of stream ``index`` of ``seed`` (taken modulo 2**64), as
    ``cpes.numerics.split_states`` derives it: the seed's mix xored with the
    salted index's mix, mixed again."""
    return mix64(mix64(seed & MASK64) ^ mix64(index ^ _SALT))


def unmix64(z: int) -> int:
    """The inverse of mix64, which is a bijection: each xor-shift undone,
    each odd product undone by the multiplier's inverse mod 2**64."""
    z = _unshift(z, 31) * pow(_MULTIPLIERS[1], -1, 1 << 64) & MASK64
    z = _unshift(z, 27) * pow(_MULTIPLIERS[0], -1, 1 << 64) & MASK64
    return _unshift(z, 30)


def _unshift(y: int, s: int) -> int:
    """x from y = x ^ (x >> s); each pass recovers s more of x's top bits."""
    x = y
    for _ in range(64 // s):
        x = y ^ (x >> s)
    return x


def state_before(output: int) -> int:
    """The stream state whose next output is ``output``."""
    return (unmix64(output) - GOLDEN) & MASK64


def outputs(state: int):
    """The stream's outputs after ``state``: its Weyl counter through mix64."""
    while True:
        state = (state + GOLDEN) & MASK64
        yield mix64(state)


def randint(draws, n: int) -> int:
    """One uniform draw from [0, n) on the iterator of outputs ``draws``: the
    first output below the largest multiple of n at most 2**64, mod n."""
    limit = (1 << 64) - (1 << 64) % n
    return next(x for x in draws if x < limit) % n


def fisher_yates(draws, n: int, k: int) -> list[int]:
    """A partial Fisher-Yates of [0, n) taking slot i's draw from the
    iterator of outputs ``draws``: ``randint(draws, n - i)``."""
    idx = list(range(n))
    for i in range(k):
        j = i + randint(draws, n - i)
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:k]


def randints(state: int, bounds) -> tuple[list[int], int]:
    """A uniform integer in [0, n) for each n of ``bounds`` in turn, from one
    ``accepted_rows`` row of the stream at ``state``; and the state after them."""
    if min(bounds, default=1) <= 0:
        raise ValueError(f"randints needs bounds >= 1, got {min(bounds)}")
    n = np.array([bounds], dtype=np.uint64)
    words, after = accepted_rows(np.array([state], np.uint64), n)
    return (words[0] % n[0]).tolist(), int(after[0])


def block(state: int, n: int) -> tuple[np.ndarray, int]:
    """The next n words of the stream at ``state`` as one block, as the
    package's generator draws its normals (an ``accepted_rows`` row of bound
    1, which takes any word); and the state after them."""
    words, after = accepted_rows(np.array([state], np.uint64), np.ones((1, n), np.uint64))
    return words[0], int(after[0])


class ScalarRng:
    """The stream at ``state``, one draw at a time on the Python-int oracles,
    for tests that make data draw by draw: each takes the words the package's
    blocks take, so values and state match theirs. ``normals`` is the
    Box-Muller draw tests make data with; the package's generator takes
    the same words in its record blocks."""

    __slots__ = ("state",)

    def __init__(self, state: int):
        self.state = state & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        return mix64(self.state)

    def randint(self, n: int) -> int:
        return randint(iter(self.next_u64, None), n)

    def sample_without_replacement(self, n: int, k: int) -> list[int]:
        return fisher_yates(iter(self.next_u64, None), n, k)

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller; consumes 2*ceil(n/2) raw draws."""
        words, self.state = block(self.state, 2 * ((n + 1) // 2))
        return box_muller(words, n)


def scalar_rng(seed: int, index: int) -> ScalarRng:
    """Stream ``index`` of ``seed`` as a ScalarRng."""
    return ScalarRng(split_state(seed, index))


# -- the planted-signal generator, patch by patch ----------------------------


def per_patch_store(cfg: SyntheticConfig, rng: ScalarRng) -> EmbeddingStore:
    """``cpes.generate_synthetic(cfg)`` with ``rng`` for stream 0 of cfg.seed,
    drawing as the package once did: one normals(D) call per class signal and
    pool item, then per record a Fisher-Yates of its signal positions and,
    patch by patch, a randint pool pick for a distractor and normals(D)."""
    cfg.validate()

    def unit(v):
        return v / np.linalg.norm(v)

    signals = np.stack([unit(rng.normals(cfg.dim)) for _ in range(cfg.class_count)])
    basis, _ = np.linalg.qr(signals.T)
    distractors = []
    for j in range(cfg.distractor_pool_size):
        v = rng.normals(cfg.dim)
        v = v - basis @ (basis.T @ v)
        v = v / np.linalg.norm(v) + CONFUSER_WEIGHT * signals[j % cfg.class_count]
        distractors.append(unit(v))
    labels = np.repeat(np.arange(cfg.class_count, dtype=np.uint32), cfg.records_per_class)
    class_embeddings, patch_embeddings, ground_truth = [], [], []
    for label in labels.tolist():
        signal_pos = sorted(rng.sample_without_replacement(cfg.patches, cfg.signal_patches))
        patches = np.empty((cfg.patches, cfg.dim))
        for j in range(cfg.patches):
            if j in signal_pos:
                v = signals[label] + cfg.signal_noise * rng.normals(cfg.dim)
            else:
                b = distractors[rng.randint(cfg.distractor_pool_size)]
                v = b + cfg.distractor_noise * rng.normals(cfg.dim)
            patches[j] = unit(v)
        class_embeddings.append(patches.mean(axis=0))
        patch_embeddings.append(patches)
        ground_truth.append(tuple(signal_pos))
    return EmbeddingStore(
        cfg.dim,
        cfg.patches,
        cfg.class_count,
        np.arange(len(labels), dtype=np.uint64),
        labels,
        np.array(class_embeddings, dtype=np.float32).reshape(len(labels), cfg.dim),
        np.array(patch_embeddings, dtype=np.float32).reshape(len(labels), cfg.patches, cfg.dim),
        planted=planted_mask(ground_truth, cfg.patches),
    )
