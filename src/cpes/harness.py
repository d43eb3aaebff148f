"""The episode engine, training loop, episodic evaluation with confidence
intervals, ablation sweeps over one RunConfig field (e.g. the selection
size or the ranking function), and mask export.

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
from .errors import InfeasibleConfig, UnknownRecord
from .numerics import derive_seed, rng_split
from .scoring import (
    MlpHead,
    OptimizerConfig,
    class_probabilities,
    episode_loss_and_grads,
    optimizer_step,
    score_tensor,
)
from .selection import (
    DistanceKind,
    fuse_rows,
    mask_json,
    mask_pgm,
    select_top,
    selection_table,
    similarity_sequence,
)
from .store import EmbeddingStore

# stream tags for namespacing the base seed (evaluation uses it directly)
_TRAIN_STREAM = 1
_HEAD_INIT_STREAM = 2
# smallest valid value of each RunConfig count; epochs=0 returns the initial head
_MIN_SIZES = dict(
    n_way=1, k_shot=1, queries_per_class=1, hidden_dim=1, epochs=0, episodes_per_epoch=1,
    eval_tasks=1,
)


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

    def validate(self) -> None:
        """Reject the sizes the episode engine cannot shape its arrays from,
        run lengths that would train or evaluate nothing, and optimizer
        settings that would make every step non-finite."""
        for name, least in _MIN_SIZES.items():
            if getattr(self, name) < least:
                raise InfeasibleConfig(f"{name} must be >= {least}, got {getattr(self, name)}")
        for name in ("learning_rate", "lr_floor", "weight_decay"):
            value = getattr(self.optimizer, name)
            if not math.isfinite(value):
                raise InfeasibleConfig(f"{name} must be finite, got {value}")

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


def episode_scores(
    store: EmbeddingStore, table: np.ndarray, episode: Episode, kind: DistanceKind
) -> np.ndarray:
    """The episode's (Q, N, r, r) score tensor, r = max(m, 1), from the
    store's (R, m) selection table. A prototype of K > 1 supports is their
    mean, not a store record, so it is selected here."""

    def fused(rows):
        return fuse_rows(*store.embeddings(rows, table[rows]))

    if episode.support_rows.shape[1] == 1:
        protos = fused(episode.support_rows[:, 0])
    else:
        protos = _mean_prototypes(store, episode.support_rows, table.shape[1], kind)
    return score_tensor(fused(episode.query_rows), protos)


def _mean_prototypes(
    store: EmbeddingStore, support_rows: np.ndarray, m: int, kind: DistanceKind
) -> np.ndarray:
    """The fused (N, r, D) prototypes of supports (N, K): each the mean of
    its K supports, all N selected in one call. The mean is summed shot by
    shot, in the order np.mean sums a K axis (so bit-identical to it), not
    gathered as (N, K, M, D), and its sums are freed on return, before the
    queries are fused: both keep the episode's peak memory down."""
    every_patch = np.arange(store.patches_m)
    shots = support_rows.T
    classes, patches = store.embeddings(shots[0], every_patch)
    for rows in shots[1:]:
        shot_classes, shot_patches = store.embeddings(rows, every_patch)
        classes += shot_classes
        patches += shot_patches
    classes /= len(shots)
    patches /= len(shots)
    picks = select_top(similarity_sequence(classes, patches, kind), m)
    return fuse_rows(classes, np.take_along_axis(patches, picks[..., np.newaxis], axis=1))


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
    cfg.validate()
    m = resolve_m(store, cfg)
    head = init_head(cfg, m)
    total_steps = cfg.epochs * cfg.episodes_per_epoch
    opt = replace(cfg.optimizer, total_steps=max(total_steps, 1))
    train_seed = derive_seed(cfg.base_seed, _TRAIN_STREAM)
    table = selection_table(store, m, cfg.distance)

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
            scores = episode_scores(store, table, episode, cfg.distance)
            loss, grads, probs = episode_loss_and_grads(head, scores, episode.query_labels)
            head = optimizer_step(head, grads, opt)
            losses.append(float(np.mean(loss)))
            accuracies.append(float(np.mean(probs.argmax(axis=1) == episode.query_labels)))
            episode_index += 1
        log.append(
            {
                "epoch": epoch,
                "mean_loss": float(np.mean(losses)),
                "mean_accuracy": float(np.mean(accuracies)),
            }
        )
    return head, log


def evaluate(head: MlpHead, store: EmbeddingStore, cfg: RunConfig) -> EvalReport:
    """Accuracy over cfg.eval_tasks episodes with task_index 0..T-1.

    Per task: fraction of queries whose argmax class probability matches
    the episode-local label; argmax ties go to the lowest class index.
    """
    cfg.validate()
    m = resolve_m(store, cfg)
    if head.input_dim != head_input_dim(m):
        raise ValueError(
            f"head input dim {head.input_dim} does not match m={m} "
            f"(expected {head_input_dim(m)})"
        )
    start = time.perf_counter()
    table = selection_table(store, m, cfg.distance)
    per_task: list[float] = []
    for task_index in range(cfg.eval_tasks):
        spec = EpisodeSpec(
            cfg.n_way, cfg.k_shot, cfg.queries_per_class, task_index, cfg.base_seed
        )
        episode = sample_episode(store, spec)
        probs = class_probabilities(head, episode_scores(store, table, episode, cfg.distance))
        per_task.append(float(np.mean(probs.argmax(axis=1) == episode.query_labels)))
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
    for each requested record. Returns the written paths."""
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    by_id = {record_id: row for row, record_id in enumerate(store.record_ids.tolist())}
    m = resolve_m(store, cfg)
    every_patch = np.arange(store.patches_m)
    written: list[str] = []
    for record_id in record_ids:
        if record_id not in by_id:
            raise UnknownRecord(f"record_id {record_id} not in store")
        embeddings = store.embeddings(by_id[record_id], every_patch)
        similarities = similarity_sequence(*embeddings, cfg.distance)
        indices = select_top(similarities, m)
        json_path = out / f"mask_{record_id}.json"
        json_path.write_text(mask_json(record_id, indices, similarities))
        written.append(str(json_path))
        pgm = mask_pgm(indices, similarities)
        if pgm is not None:
            pgm_path = out / f"mask_{record_id}.pgm"
            pgm_path.write_text(pgm)
            written.append(str(pgm_path))
    return written
