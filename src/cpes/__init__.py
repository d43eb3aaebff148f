"""Class-relevant patch embedding selection: a few-shot classification
head operating on precomputed (or synthetic) embedding stores.
"""

from .episodes import Episode, plan_episodes, sample_episode
from .errors import CpesError
from .harness import (
    EvalReport,
    RunConfig,
    SweepReport,
    evaluate,
    export_masks,
    sweep,
    train,
)
from .numerics import Rng64, cross_entropy, rng_split, softmax
from .scoring import (
    Gradients,
    MlpHead,
    OptimizerConfig,
    ScheduleKind,
    episode_loss_and_grads,
    load_head,
    optimizer_step,
    save_head,
    score_tensor,
)
from .selection import (
    DistanceKind,
    fuse_rows,
    select_top,
    selection_table,
    similarity_sequence,
)
from .store import (
    EmbeddingStore,
    SyntheticConfig,
    generate_synthetic,
    read_store,
    write_store,
)

__all__ = [
    "CpesError",
    "DistanceKind",
    "EmbeddingStore",
    "Episode",
    "EvalReport",
    "Gradients",
    "MlpHead",
    "OptimizerConfig",
    "Rng64",
    "RunConfig",
    "ScheduleKind",
    "SweepReport",
    "SyntheticConfig",
    "cross_entropy",
    "episode_loss_and_grads",
    "evaluate",
    "export_masks",
    "fuse_rows",
    "generate_synthetic",
    "load_head",
    "optimizer_step",
    "plan_episodes",
    "read_store",
    "rng_split",
    "sample_episode",
    "save_head",
    "score_tensor",
    "select_top",
    "selection_table",
    "similarity_sequence",
    "softmax",
    "sweep",
    "train",
    "write_store",
]
