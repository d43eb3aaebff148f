"""Class-relevant patch embedding selection: a few-shot classification
head operating on precomputed (or synthetic) embedding stores.

``__all__`` is the user surface. The engine's kernels stay module-level in
their modules and are not API: they take values the surface has checked.
"""

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
from .scoring import MlpHead, OptimizerConfig, ScheduleKind, load_head, save_head
from .selection import DistanceKind
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
    "EvalReport",
    "MlpHead",
    "OptimizerConfig",
    "RunConfig",
    "ScheduleKind",
    "SweepReport",
    "SyntheticConfig",
    "evaluate",
    "export_masks",
    "generate_synthetic",
    "load_head",
    "read_store",
    "save_head",
    "sweep",
    "train",
    "write_store",
]
