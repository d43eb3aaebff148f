"""The benchmark's workloads: store shapes, episode protocol and how much
work one round of each does.

Every workload is a closed loop from one process. One round is a train
phase (``train`` then ``save_head``) followed by an eval phase
(``evaluate`` of the reference head loaded during set-up). The workloads
differ in shape and in which phase dominates a round; BENCHMARK.json
records why each one is there. Rounds are kept to a few seconds, so that a
run holds many of them and many passes of the reference kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

# protocol shared by every workload: 5-way, 15 queries per class, hidden 64
N_WAY = 5
QUERIES_PER_CLASS = 15
HIDDEN_DIM = 64
# distractor settings of the frozen sweep stores in tests/conftest.py
DISTRACTOR_POOL = 8
DISTRACTOR_NOISE = 0.3


@dataclass(frozen=True)
class StoreShape:
    classes: int
    records_per_class: int
    dim: int
    patches: int
    signal_patches: int
    signal_noise: float
    # seed 0 maps to the seeds of the frozen sweep stores (101 train, 999 eval)
    seed_offset: int

    def config(self, cpes, seed: int):
        return cpes.SyntheticConfig(
            class_count=self.classes,
            records_per_class=self.records_per_class,
            dim=self.dim,
            patches=self.patches,
            signal_patches=self.signal_patches,
            signal_noise=self.signal_noise,
            distractor_pool_size=DISTRACTOR_POOL,
            distractor_noise=DISTRACTOR_NOISE,
            seed=self.seed_offset + 1000 * seed,
        )


@dataclass(frozen=True)
class Workload:
    name: str
    train_store: StoreShape
    eval_store: StoreShape
    k_shot: int
    m: int
    # (epochs, episodes per epoch) that train the reference head at input generation
    head_episodes: tuple[int, int]
    # (epochs, episodes per epoch) of the train phase of every round
    round_episodes: tuple[int, int]
    # tasks of the eval phase of every round
    eval_tasks: int
    # set-ups before each round; setup_s is the median over the run
    setup_reps: int
    # the harness phase whose spans the per-round per-layer metrics count,
    # or None for the whole round
    trace_phase: str | None
    # whether reported times are divided by the reference kernel's slowdown
    # (calibrate.py). True only where the rounds are interpreter-bound: their
    # time moved with the kernel's as the host slowed, while the BLAS-bound
    # paper_scale rounds slowed by about two thirds as much.
    normalise: bool

    def run_config(self, cpes, seed: int, episodes: tuple[int, int]):
        epochs, per_epoch = episodes
        return cpes.RunConfig(
            n_way=N_WAY,
            k_shot=self.k_shot,
            queries_per_class=QUERIES_PER_CLASS,
            m=self.m,
            epochs=epochs,
            episodes_per_epoch=per_epoch,
            eval_tasks=self.eval_tasks,
            base_seed=seed,
            hidden_dim=HIDDEN_DIM,
        )

    def train_queries(self) -> int:
        epochs, per_epoch = self.round_episodes
        return epochs * per_epoch * N_WAY * QUERIES_PER_CLASS

    def eval_queries(self) -> int:
        return self.eval_tasks * N_WAY * QUERIES_PER_CLASS


_SWEEP_TRAIN = StoreShape(20, 30, 32, 16, 4, 0.2, seed_offset=101)
_SWEEP_EVAL = StoreShape(5, 30, 32, 16, 4, 0.2, seed_offset=999)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train",
            train_store=_SWEEP_TRAIN,
            eval_store=_SWEEP_EVAL,
            k_shot=1,
            m=4,
            head_episodes=(1, 50),
            round_episodes=(1, 50),
            eval_tasks=10,
            setup_reps=2,
            trace_phase="harness.train",
            normalise=True,
        ),
        Workload(
            name="eval",
            train_store=_SWEEP_TRAIN,
            eval_store=_SWEEP_EVAL,
            k_shot=1,
            m=4,
            head_episodes=(3, 50),
            round_episodes=(1, 10),
            eval_tasks=50,
            setup_reps=2,
            trace_phase="harness.evaluate",
            normalise=True,
        ),
        Workload(
            name="paper_scale",
            # noise 1.1 keeps accuracy clear of 1.0 (reached at 0.6) and of chance
            train_store=StoreShape(10, 20, 384, 196, 96, 1.1, seed_offset=101),
            eval_store=StoreShape(5, 20, 384, 196, 96, 1.1, seed_offset=999),
            k_shot=5,
            m=96,
            head_episodes=(1, 3),
            round_episodes=(1, 3),
            eval_tasks=4,
            setup_reps=1,
            trace_phase=None,
            normalise=False,
        ),
    )
}
