"""The episode engine, training loop, episodic evaluation with confidence
intervals, ablation sweeps over one RunConfig field (e.g. the selection
size or the ranking function), and mask export.

Everything here is deterministic given (store bytes, RunConfig): training
episodes, head initialization, and evaluation tasks each draw from their
own counter-derived RNG stream, so no ordering or parallelism concern can
change a result.
"""

from __future__ import annotations

import contextlib
import enum
import itertools
import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .episodes import Episode, plan_episodes, sample_episode
from .errors import InfeasibleConfig, check_settings, setting
from .numerics import block_slices, softmax, split_states
from .scoring import (
    MlpHead,
    OptimizerConfig,
    StepBuffers,
    episode_loss_and_grads,
    finish_scores,
    head_forward,
    optimizer_step,
    start_scores,
    tensor_threads,
)
from .selection import (
    DistanceKind,
    mask_json,
    mask_pgm,
    representation_blocks,
    representation_table,
    select_top,
    similarity_sequence,
)
from .store import EmbeddingStore, write_whole

# stream tags for namespacing the base seed (evaluation uses it directly)
_TRAIN_STREAM = 1
_HEAD_INIT_STREAM = 2


@dataclass
class RunConfig:
    n_way: int = setting(5, "--n-way", least=1)
    k_shot: int = setting(1, "--k-shot", least=1)
    queries_per_class: int = setting(15, "--queries", least=1, help="queries per class")
    m: int | None = setting(None, "--m", help="selected patches per image")  # None: see resolve_m
    distance: DistanceKind = setting(DistanceKind.COS, "--distance")
    epochs: int = setting(3, "--epochs", least=0)  # 0 returns the initial head
    episodes_per_epoch: int = setting(50, "--episodes-per-epoch", least=1)
    eval_tasks: int = setting(1000, "--tasks", least=1, help="evaluation task count")
    base_seed: int = setting(0, "--seed")
    hidden_dim: int = setting(64, "--hidden", least=1)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def echo(self) -> dict:
        d = asdict(self)
        d["distance"] = self.distance.value
        d["optimizer"]["schedule"] = self.optimizer.schedule.value
        return d


@dataclass
class EvalReport:
    per_task_accuracy: list[float]
    mean_accuracy: float
    ci95_half_width: float
    config: dict

    def to_json(self) -> str:
        return json.dumps(
            {
                "mean_accuracy": self.mean_accuracy,
                "ci95_half_width": self.ci95_half_width,
                "task_count": len(self.per_task_accuracy),
                "per_task_accuracy": self.per_task_accuracy,
                "config": self.config,
            },
            indent=2,
        )


@dataclass
class SweepReport:
    axis: str
    points: list[tuple[object, EvalReport]]

    def to_json(self) -> str:
        return json.dumps(
            {
                "axis": self.axis,
                "points": [
                    {"setting": str(setting), "report": json.loads(report.to_json())}
                    for setting, report in self.points
                ],
            },
            indent=2,
        )

    def table(self) -> str:
        width = max(len(str(s)) for s, _ in self.points)
        lines = [f"{self.axis:<{width}}  accuracy"]
        for setting, report in self.points:
            lines.append(
                f"{str(setting):<{width}}  "
                f"{report.mean_accuracy:.4f} +/- {report.ci95_half_width:.4f}"
            )
        return "\n".join(lines)


def resolve_m(store: EmbeddingStore, cfg: RunConfig) -> int:
    """Check cfg's settings; then the selection size cfg.m, or by default the
    planted signal count every record shares and 96 (capped at M) otherwise."""
    check_settings(cfg)
    if cfg.m is not None:
        if not 0 <= cfg.m <= store.patches_m:
            raise InfeasibleConfig(f"m must be in [0, {store.patches_m}], got {cfg.m}")
        return cfg.m
    counts = [] if store.planted is None else np.unique(store.planted.sum(1)).tolist()
    if len(counts) > 1:
        raise InfeasibleConfig(f"records plant {counts} signal patches; pass --m")
    return counts[0] if counts else min(96, store.patches_m)


def head_input_dim(m: int) -> int:
    rows = max(m, 1)  # m=0 collapses to the single class-embedding row
    return rows * rows


def init_head(cfg: RunConfig, m: int) -> MlpHead:
    state = int(split_states(cfg.base_seed, [_HEAD_INIT_STREAM])[0])
    return MlpHead.initialize(head_input_dim(m), cfg.hidden_dim, state)


def _episodes(store: EmbeddingStore, cfg: RunConfig, m: int, seed: int, count: int):
    """Tasks 0..count-1 of ``seed``, planned a chunk at a time (BLOCK_VALUES
    draws and pool slots, or one task): for each chunk, its task count and a
    generator of its (episode, score tensor) pairs. Queries and K = 1
    prototypes are rows of one table, each record fused and normalised once,
    when a chunk first gathers it; an episode's K > 1 prototypes are a table
    of their own, of its (N, K) support rows, each the mean of its K records.
    Each tensor is written into a (Q, N, r, r) buffer, a piece of queries at
    a time, and holds until the next pair is drawn. The thread count picks
    only the order in which a chunk's new rows are built, and when. Where
    start_scores scores on one thread, they are built in store order before
    the chunk's first episode, and an episode is one piece. Where it shares
    a tensor out among threads, they are built a block at a time, in the
    order the chunk's tasks first read them, and each class's queries are a
    piece, started as soon as their rows exist: the pool scores while the
    caller selects, and a second buffer takes the next episode's tensor
    while the caller uses this one. Closing this generator waits for every
    piece started."""
    slots, reps, buffers = np.full(len(store), -1), None, None  # slots: store row -> table row
    r, width = max(m, 1), cfg.n_way * cfg.queries_per_class
    threads = tensor_threads(width, r * store.dim_d)  # the episode's, and so each piece's
    piece = width if threads == 1 else cfg.queries_per_class  # the queries a start_scores takes

    def scored(plan, queries, supports, started, base, done, blocks):
        def ready(rows):  # table rows, once the table holds every one of them
            nonlocal done  # table rows written: those before the chunk's, then each block's
            while done < len(reps) and done <= rows.max():
                done = base + next(blocks).stop
            return rows

        for index in range(len(queries)):
            episode = sample_episode(plan, index)
            if cfg.k_shot == 1:
                protos = reps[ready(supports[index])]
            else:
                protos = representation_table(store, m, cfg.distance, episode.support_rows)
            out, jobs = buffers[index % len(buffers)], []
            started.append((episode, out, jobs))  # before its first piece: a raise waits for it
            for at in range(0, width, piece):
                rows = ready(queries[index, at : at + piece])
                jobs.append(start_scores(reps, rows, protos, out[at : at + piece], threads))
            while len(started) == len(buffers) or started and index == len(queries) - 1:
                episode, out, jobs = started[0]
                for job in jobs:
                    finish_scores(*job)
                del started[0]  # once every piece is done: a raise leaves it to be waited for
                yield episode, out

    pools = store.by_label.values()
    size = cfg.n_way * (1 + cfg.k_shot + cfg.queries_per_class + max(map(len, pools), default=0))
    for chunk in block_slices(count, size + len(pools)):
        tasks = range(count)[chunk]
        plan = plan_episodes(store, cfg.n_way, cfg.k_shot, cfg.queries_per_class, tasks, seed)
        queries, supports = plan[2], plan[1][..., 0]  # K > 1 prototypes bypass the table
        if buffers is None:  # once the first plan has checked the store
            buffers = np.empty((min(threads, 2), width, cfg.n_way, r, r))
        reads = (np.hstack([supports, queries]) if cfg.k_shot == 1 else queries).ravel()
        if threads == 1:  # in store order, every block built before the chunk's first episode
            fresh = (np.bincount(reads, minlength=len(store)) > 0) & (slots < 0)
            new, now = np.flatnonzero(fresh), None  # now: the blocks built here (None: all)
        else:  # in the order the tasks first read them, a block at a time as the pieces need them
            unique, first = np.unique(reads, return_index=True)
            new, now = reads[np.sort(first[slots[unique] < 0])], 0
        part = np.empty((len(new), r, store.dim_d))
        # a chunk that adds no row leaves the table uncopied
        reps = part if reps is None else np.concatenate([reps, part]) if len(new) else reps
        base = len(reps) - len(new)
        slots[new] = np.arange(base, len(reps))
        every = np.array_equal(new, np.arange(len(store)))  # by record slices, which gather nothing
        blocks = representation_blocks(store, m, cfg.distance, None if every else new, reps[base:])
        done = base + max((block.stop for block in itertools.islice(blocks, now)), default=0)
        started = []  # (episode, buffer, its pieces' start_scores) started and not yet yielded
        run = scored(plan, slots[queries], slots[supports], started, base, done, blocks)
        try:
            yield len(tasks), run
        finally:  # waits, so no block is scored once this generator is closed
            for future in (f for _, _, jobs in started for _, futures in jobs for f in futures):
                future.exception()


def train(store: EmbeddingStore, cfg: RunConfig) -> tuple[MlpHead, list[dict]]:
    """Train the head episodically; one optimizer step per episode with
    gradients averaged over the episode's queries, written into buffers
    allocated at the first step.

    Returns the head and a per-epoch log of mean loss and accuracy.
    """
    m = resolve_m(store, cfg)
    cfg.optimizer.check_schedule()
    head = init_head(cfg, m)
    total_steps = cfg.epochs * cfg.episodes_per_epoch
    opt = replace(cfg.optimizer, total_steps=max(total_steps, 1))
    seed = int(split_states(cfg.base_seed, [_TRAIN_STREAM])[0])
    chunks = _episodes(store, cfg, m, seed, total_steps)
    episodes = itertools.chain.from_iterable(run for _, run in chunks)
    buffers = None

    def step(episode: Episode, scores: np.ndarray) -> tuple[float, float]:
        nonlocal buffers
        if buffers is None:
            buffers = StepBuffers.allocate(scores.shape[0] * scores.shape[1], head)
        number = head.step + 1
        labels = episode.query_labels
        try:
            # settings that grow the head past float64 range stop here, not as NaN later
            with np.errstate(over="raise", invalid="raise"):
                loss, grads, probs = episode_loss_and_grads(head, scores, labels, buffers)
                optimizer_step(head, grads, opt)
        except FloatingPointError:
            raise InfeasibleConfig(
                f"optimizer settings overflow the head at step {number}: learning_rate "
                f"{opt.learning_rate}, lr_floor {opt.lr_floor}, weight_decay {opt.weight_decay}"
            ) from None
        return float(np.mean(loss)), float(np.mean(probs.argmax(axis=1) == labels))

    log: list[dict] = []
    with contextlib.closing(chunks):  # no score block runs on once train is over
        for epoch in range(cfg.epochs):
            steps = itertools.starmap(step, itertools.islice(episodes, cfg.episodes_per_epoch))
            losses, accuracies = zip(*steps)
            log.append({"epoch": epoch, "mean_loss": float(np.mean(losses)),
                        "mean_accuracy": float(np.mean(accuracies))})
    return head, log


def evaluate(head: MlpHead, store: EmbeddingStore, cfg: RunConfig) -> EvalReport:
    """Accuracy over cfg.eval_tasks episodes with task_index 0..T-1: a task's
    accuracy is the fraction of its queries whose argmax class probability
    is their label, with argmax ties to the lowest class index. Each task's
    head pass writes its chunk's hidden-layer buffer and its class scores
    before b2; b2, the softmax and the accuracies are taken once per chunk."""
    m = resolve_m(store, cfg)
    if head.input_dim != head_input_dim(m):
        raise InfeasibleConfig(
            f"head input dim {head.input_dim} does not match m={m} "
            f"(expected {head_input_dim(m)})"
        )
    queries = cfg.n_way * cfg.queries_per_class
    per_task: list[float] = []
    with contextlib.closing(_episodes(store, cfg, m, cfg.base_seed, cfg.eval_tasks)) as chunks:
        for tasks, run in chunks:
            # allocated once the chunk's plan has checked the store
            labels = np.repeat(np.arange(cfg.n_way), cfg.queries_per_class)
            hidden = np.empty((queries * cfg.n_way, head.hidden_dim))
            logits = np.empty((tasks, queries, cfg.n_way))
            for task, (_, scores) in enumerate(run):
                head_forward(head, scores, hidden)
                np.matmul(hidden, head.w2, out=logits[task].reshape(-1))
            logits += head.b2
            per_task += (softmax(logits).argmax(axis=-1) == labels).mean(axis=-1).tolist()
    echo = replace(cfg, hidden_dim=head.hidden_dim).echo()  # the checkpoint's, not the flag's
    return EvalReport(per_task, *mean_and_ci95(per_task), echo)


def mean_and_ci95(per_task: list[float]) -> tuple[float, float]:
    """Mean and 1.96 * sample std (ddof=1) / sqrt(T); CI is 0 when T=1."""
    arr = np.asarray(per_task, dtype=np.float64)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    ci = 1.96 * float(arr.std(ddof=1)) / math.sqrt(arr.size)
    return mean, ci


def sweep(
    train_store: EmbeddingStore,
    eval_store: EmbeddingStore,
    cfg: RunConfig,
    axis: str,
    values: list,
) -> SweepReport:
    """Full train+evaluate per value of the RunConfig field ``axis``, shared
    base seed. Enum values are labelled by their ``.value``."""
    if not values:
        raise InfeasibleConfig(f"no {axis} values to sweep")
    points = []
    for value in values:
        point_cfg = replace(cfg, **{axis: value})
        head, _ = train(train_store, point_cfg)
        label = value.value if isinstance(value, enum.Enum) else value
        points.append((label, evaluate(head, eval_store, point_cfg)))
    return SweepReport(axis, points)


def export_masks(
    store: EmbeddingStore, cfg: RunConfig, record_ids: list[int], out_dir
) -> list[str]:
    """Write the selection JSON (and PGM mask when M is a perfect square)
    for each distinct requested record, in the order first requested, once
    every id and cfg are checked, into out_dir, which it creates if its
    parent exists: all in one ``write_whole``, so a write that fails leaves
    no mask file new or changed. Returns the written paths."""
    if not record_ids:
        raise InfeasibleConfig("no record ids to export")
    record_ids = list(dict.fromkeys(record_ids))
    by_id = {record_id: row for row, record_id in enumerate(store.record_ids.tolist())}
    for record_id in record_ids:
        if record_id not in by_id:
            raise InfeasibleConfig(f"record_id {record_id} not in store")
    m = resolve_m(store, cfg)
    texts = {}
    for record_id in record_ids:
        similarities = similarity_sequence(*store.embeddings(by_id[record_id]), cfg.distance)
        indices = select_top(similarities, m)
        texts[f"mask_{record_id}.json"] = mask_json(record_id, indices, similarities)
        texts[f"mask_{record_id}.pgm"] = mask_pgm(indices, similarities)
    out = Path(out_dir)
    out.mkdir(exist_ok=True)
    data = {str(out / name): text.encode() for name, text in texts.items() if text is not None}
    write_whole({path: lambda fh, b=b: fh.write(b) for path, b in data.items()})
    return list(data)
