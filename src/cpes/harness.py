"""Training loop, episodic evaluation with confidence intervals, ablation
sweeps over one RunConfig field (e.g. the selection size or the ranking
function), and mask export.

Everything here is deterministic given (store bytes, RunConfig): training
episodes, head initialization, and evaluation tasks each draw from their
own counter-derived RNG stream, so no ordering or parallelism concern can
change a result.
"""

from __future__ import annotations

import enum
import json
import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .episodes import Episode, EpisodeSpec, sample_episode
from .errors import UnknownRecord
from .numerics import derive_seed, rng_split
from .scoring import (
    MlpHead,
    OptimizerConfig,
    class_probabilities,
    episode_loss_and_grads,
    optimizer_step,
)
from .selection import (
    DistanceKind,
    FusedRepresentation,
    fuse,
    mask_json,
    mask_pgm,
    select_top,
    similarity_sequence,
)
from .store import EmbeddingRecord, EmbeddingStore

# stream tags for namespacing the base seed (evaluation uses it directly)
_TRAIN_STREAM = 1
_HEAD_INIT_STREAM = 2


@dataclass
class RunConfig:
    n_way: int = 5
    k_shot: int = 1
    queries_per_class: int = 15
    m: int | None = None  # None: resolved per store, see resolve_m
    distance: DistanceKind = DistanceKind.COS
    epochs: int = 3
    episodes_per_epoch: int = 50
    eval_tasks: int = 1000
    base_seed: int = 0
    hidden_dim: int = 64
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
    wall_time: float

    def to_json(self) -> str:
        # wall_time deliberately excluded: report files must be byte-identical
        # across reruns of the same configuration
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
    """The selection-size default: the planted signal count on synthetic
    stores, 96 (capped at M) otherwise."""
    if cfg.m is not None:
        if not 0 <= cfg.m <= store.patches_m:
            raise ValueError(f"m={cfg.m} exceeds store patch count {store.patches_m}")
        return cfg.m
    if store.ground_truth:
        return len(store.ground_truth[0])
    return min(96, store.patches_m)


def _fused(record: EmbeddingRecord, m: int, kind: DistanceKind) -> FusedRepresentation:
    sims = similarity_sequence(record, kind)
    return fuse(record, select_top(sims, m))


def _episode_representations(
    episode: Episode, m: int, kind: DistanceKind
) -> tuple[list[FusedRepresentation], list[FusedRepresentation]]:
    protos = [_fused(p, m, kind) for p in episode.prototypes]
    queries = [_fused(q, m, kind) for q in episode.queries]
    return protos, queries


def head_input_dim(m: int) -> int:
    rows = max(m, 1)  # m=0 collapses to the single class-embedding row
    return rows * rows


def init_head(cfg: RunConfig, m: int) -> MlpHead:
    return MlpHead.initialize(
        head_input_dim(m), cfg.hidden_dim, rng_split(cfg.base_seed, _HEAD_INIT_STREAM)
    )


def train(store: EmbeddingStore, cfg: RunConfig) -> tuple[MlpHead, list[dict]]:
    """Train the head episodically; one optimizer step per episode with
    gradients averaged over the episode's queries.

    Returns the head and a per-epoch log of mean loss and accuracy.
    """
    m = resolve_m(store, cfg)
    head = init_head(cfg, m)
    total_steps = cfg.epochs * cfg.episodes_per_epoch
    opt = replace(cfg.optimizer, total_steps=max(total_steps, 1))
    train_seed = derive_seed(cfg.base_seed, _TRAIN_STREAM)

    log: list[dict] = []
    episode_index = 0
    for epoch in range(cfg.epochs):
        losses: list[float] = []
        accuracies: list[float] = []
        for _ in range(cfg.episodes_per_epoch):
            spec = EpisodeSpec(
                cfg.n_way, cfg.k_shot, cfg.queries_per_class, episode_index, train_seed
            )
            episode = sample_episode(store, spec)
            protos, queries = _episode_representations(episode, m, cfg.distance)
            grad_sum = None
            loss_sum = 0.0
            correct = 0
            for query, label in zip(queries, episode.query_labels):
                loss, grads, probs = episode_loss_and_grads(head, query, protos, label)
                loss_sum += loss
                correct += int(np.argmax(probs)) == label
                if grad_sum is None:
                    grad_sum = grads
                else:
                    grad_sum.add_(grads)
            n_queries = len(queries)
            head = optimizer_step(head, grad_sum.scaled(1.0 / n_queries), opt)
            losses.append(loss_sum / n_queries)
            accuracies.append(correct / n_queries)
            episode_index += 1
        log.append(
            {
                "epoch": epoch,
                "mean_loss": float(np.mean(losses)) if losses else None,
                "mean_accuracy": float(np.mean(accuracies)) if accuracies else None,
            }
        )
    return head, log


def evaluate(head: MlpHead, store: EmbeddingStore, cfg: RunConfig) -> EvalReport:
    """Accuracy over cfg.eval_tasks episodes with task_index 0..T-1.

    Per task: fraction of queries whose argmax class probability matches
    the episode-local label; argmax ties go to the lowest class index.
    """
    m = resolve_m(store, cfg)
    if head.input_dim != head_input_dim(m):
        raise ValueError(
            f"head input dim {head.input_dim} does not match m={m} "
            f"(expected {head_input_dim(m)})"
        )
    start = time.perf_counter()
    per_task: list[float] = []
    for task_index in range(cfg.eval_tasks):
        spec = EpisodeSpec(
            cfg.n_way, cfg.k_shot, cfg.queries_per_class, task_index, cfg.base_seed
        )
        episode = sample_episode(store, spec)
        protos, queries = _episode_representations(episode, m, cfg.distance)
        correct = 0
        for query, label in zip(queries, episode.query_labels):
            probs = class_probabilities(head, query, protos)
            correct += int(np.argmax(probs)) == label
        per_task.append(correct / len(queries))
    mean, ci95 = mean_and_ci95(per_task)
    return EvalReport(per_task, mean, ci95, cfg.echo(), time.perf_counter() - start)


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
    for each requested record. Returns the written paths."""
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    by_id = {rec.record_id: rec for rec in store.records}
    m = resolve_m(store, cfg)
    written: list[str] = []
    for record_id in record_ids:
        if record_id not in by_id:
            raise UnknownRecord(f"record_id {record_id} not in store")
        record = by_id[record_id]
        selection = select_top(similarity_sequence(record, cfg.distance), m)
        json_path = out / f"mask_{record_id}.json"
        json_path.write_text(mask_json(record_id, selection))
        written.append(str(json_path))
        pgm = mask_pgm(selection)
        if pgm is not None:
            pgm_path = out / f"mask_{record_id}.pgm"
            pgm_path.write_text(pgm)
            written.append(str(pgm_path))
    return written
