"""cpes benchmark: one workload, closed loop from one process, against the
public cpes API (read_store, train, save_head, load_head, evaluate).

    python3 bench/run.py --workload train --seed 0 --seconds 20 --trace 0 [--out DIR]

Inputs (CPEM store bytes, CPEH reference-head bytes) are generated from the
seed in a child process before anything is timed. Set-up (read both stores,
load the head) is repeated and timed; then rounds run until --seconds have
passed. A round is a train phase (train + save_head) and an eval phase
(evaluate). Every round's outputs are checked. On the workloads marked
`normalise`, reported times are divided by the machine slowdown that
calibrate.py measures; the other figures are printed as diagnostics. With
--trace 1, every other round runs with timing spans around each cpes
module's public functions and the per-layer metrics are printed instead of
the end-to-end ones.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. With --out, a result file holding the machine block and every
metric's median, quartiles and sample count is written to DIR (and, when
tracing, the spans as JSONL).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import resource
import statistics
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from calibrate import KERNEL_NOMINAL_S, kernel_s
from inputs import generate
from program import ProgramMissing, load_cpes, machine, pin_blas_threads
from spans import Tracer
from workloads import WORKLOADS

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
BENCHMARK_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# the first round is a warm-up whose times are dropped; tracing needs a
# traced and an untraced round after it
MIN_ROUNDS = 3

# the functions the per-layer metrics read; one the program no longer
# defines is reported as missing and its metrics read 0
LAYER_SPANS = (
    "store.read_store",
    "episodes.sample_episode",
    "episodes.build_prototype",
    "selection.similarity_sequence",
    "selection.select_top",
    "selection.fuse",
    "scoring.score_matrix",
    "scoring.episode_loss_and_grads",
    "scoring.Gradients.add_",
    "scoring.optimizer_step",
    "scoring.save_head",
    "scoring.load_head",
    "harness.train",
    "harness.evaluate",
)


@dataclass
class Round:
    train_s: float
    eval_s: float
    checkpoint: bytes
    per_task: list[float]
    mean_accuracy: float
    root: int | None  # root span index when traced
    kernel_s: float = 0.0  # the kernel pass between the two phases
    # machine slowdown against the nominal kernel time, per phase
    train_speed: float = 1.0
    eval_speed: float = 1.0

    @property
    def speed(self) -> float:
        """Slowdown over the whole round, weighted by phase time."""
        return (self.train_speed * self.train_s + self.eval_speed * self.eval_s) / (
            self.train_s + self.eval_s
        )


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def per_task_digest(per_task: list[float]) -> str:
    return hashlib.sha256(json.dumps(per_task).encode()).hexdigest()


def all_finite(values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


class Bench:
    def __init__(self, cpes, workload, seed: int, blobs: dict[str, bytes], tracer):
        self.cpes = cpes
        self.workload = workload
        self.seed = seed
        self.blobs = blobs
        self.tracer = tracer
        self.cfg = workload.run_config(cpes, seed, workload.round_episodes)
        self.kernel_times: list[float] = []
        self.setup_times: list[float] = []
        self.setup_speeds: list[float] = []
        self.setup_roots: list[int | None] = []
        self.rounds: list[Round] = []
        self.failures: list[str] = []
        self.attempted = 0
        # root span index -> machine slowdown while it ran
        self.root_speeds: dict[int, float] = {}
        reference = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
        self.reference = reference.get(workload.name, {}).get(str(seed))

    def _traced(self, traced: bool, root: str):
        """Context for one set-up or round: a root span with the wrappers
        installed, yielding its index, or nothing, yielding None."""
        return self.tracer.root(root) if traced else nullcontext()

    def setup(self):
        """Read both stores and load the reference head, timed."""
        cpes = self.cpes
        # the warm-up cycle's set-ups run before any round, untraced
        with self._traced(self.tracer is not None and bool(self.rounds), "bench.setup") as root:
            start = perf_counter()
            train_store = cpes.read_store(io.BytesIO(self.blobs["train_store"]))
            eval_store = cpes.read_store(io.BytesIO(self.blobs["eval_store"]))
            head = cpes.load_head(io.BytesIO(self.blobs["head"]))
            self.setup_times.append(perf_counter() - start)
        self.setup_roots.append(root)
        return train_store, eval_store, head

    def run_round(self, state, traced: bool) -> Round:
        """One train phase and one eval phase, with a kernel pass between
        them."""
        cpes = self.cpes
        train_store, eval_store, head = state
        with self._traced(traced, "bench.round") as root:
            start = perf_counter()
            trained, log = cpes.train(train_store, self.cfg)
            buf = io.BytesIO()
            cpes.save_head(trained, buf)
            mid = perf_counter()
            kernel = self._kernel()
            resume = perf_counter()
            report = cpes.evaluate(head, eval_store, self.cfg)
            end = perf_counter()
        r = Round(
            mid - start, end - resume, buf.getvalue(), report.per_task_accuracy,
            report.mean_accuracy, root,
        )
        r.kernel_s = kernel
        self._check(r, trained, log)
        if self.rounds:
            r.checkpoint = b""  # checked against the first round's; not kept
        return r

    def _check(self, r: Round, trained, log) -> None:
        problems = []
        # a sum is finite only if every term is
        params = [float(p.sum()) for p in (trained.w1, trained.b1, trained.w2)]
        logged = [e[k] for e in log for k in ("mean_loss", "mean_accuracy")]
        if not all_finite(params + [trained.b2] + logged + r.per_task + [r.mean_accuracy]):
            problems.append("non-finite output")
        if self.workload.round_episodes == self.workload.head_episodes and (
            r.checkpoint != self.blobs["head"]
        ):
            problems.append("checkpoint differs from the one trained at input generation")
        if self.rounds:
            first = self.rounds[0]
            if r.checkpoint != first.checkpoint:
                problems.append("checkpoint bytes differ between repeats")
            if r.per_task != first.per_task:
                problems.append("per-task accuracies differ between repeats")
        if self.reference is not None and (
            len(r.per_task) != self.reference["tasks"]
            or per_task_digest(r.per_task) != self.reference["per_task_sha256"]
        ):
            problems.append("per-task accuracies differ from the recorded reference")
        if problems:
            raise CheckFailed("; ".join(problems))

    def _kernel(self) -> float:
        t = kernel_s()
        self.kernel_times.append(t)
        return t

    def run(self, seconds: float, trace: bool) -> None:
        """Cycle until `seconds` have passed: set up `setup_reps` times,
        then one round on the last set-up. Spreading the set-ups over the
        run lets their median see the same machine as the rounds. The first
        cycle warms the allocator and caches: it is checked like the others,
        but its times are dropped (see `timed`). The
        reference kernel runs before the set-ups, between them and the
        round, inside the round between its phases and after it; each
        timed stretch's slowdown is the mean of the two passes around it."""
        start = perf_counter()
        before = self._kernel()
        while len(self.rounds) < MIN_ROUNDS or perf_counter() - start < seconds:
            state = None
            first = len(self.setup_times)
            for _ in range(self.workload.setup_reps):
                state = None  # release the previous set-up before the next
                self.attempted += 1
                try:
                    state = self.setup()
                except Exception as exc:  # any failure of the program counts
                    self.failures.append(f"setup: {type(exc).__name__}: {exc}")
                    return
            middle = self._kernel()
            speed = (before + middle) / 2 / KERNEL_NOMINAL_S
            self.setup_speeds.extend([speed] * (len(self.setup_times) - first))
            traced = trace and len(self.rounds) % 2 == 1
            self.attempted += 1
            try:
                r = self.run_round(state, traced)
            except Exception as exc:  # a failing program fails every round alike
                self.failures.append(f"round {len(self.rounds)}: {type(exc).__name__}: {exc}")
                return
            before = self._kernel()
            r.train_speed = (middle + r.kernel_s) / 2 / KERNEL_NOMINAL_S
            r.eval_speed = (r.kernel_s + before) / 2 / KERNEL_NOMINAL_S
            self.rounds.append(r)
        for root, speed in zip(self.setup_roots, self.setup_speeds):
            if root is not None:
                self.root_speeds[root] = speed
        for r in self.rounds:
            if r.root is not None:
                self.root_speeds[r.root] = r.speed

    # -- metrics -----------------------------------------------------------

    def timed(self) -> tuple[list[Round], list[float], list[float]]:
        """Rounds, set-up times and set-up slowdowns after the warm-up cycle."""
        reps = self.workload.setup_reps
        return self.rounds[1:], self.setup_times[reps:], self.setup_speeds[reps:]

    def end_to_end(self, normalise: bool) -> dict[str, list[float]]:
        """Samples of each end-to-end metric; times are divided by the
        machine slowdown unless `normalise` is false."""
        w = self.workload
        rounds, setup_times, setup_speeds = self.timed()
        setup_speed = setup_speeds if normalise else [1.0] * len(setup_times)
        return {
            "train_queries_per_s": [
                w.train_queries() * (r.train_speed if normalise else 1.0) / r.train_s
                for r in rounds
            ],
            "eval_queries_per_s": [
                w.eval_queries() * (r.eval_speed if normalise else 1.0) / r.eval_s
                for r in rounds
            ],
            "setup_s": [t / s for t, s in zip(setup_times, setup_speed)],
            "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024],
            "mean_accuracy": [rounds[0].mean_accuracy],
        }

    def per_layer(self) -> dict[str, list[float]]:
        """Samples of each per-layer metric. Set-up metrics are per set-up;
        round metrics count the spans of the workload's trace_phase, except
        save_head_s and trace.spans, which count the whole round."""
        tracer = self.tracer
        setups, rounds, whole = [], [], []
        self_times = tracer.self_times()
        for first, end in tracer.roots():
            speed = self.root_speeds[first] if self.workload.normalise else 1.0
            if tracer.names[first] == "bench.setup":
                setups.append(tracer.aggregate(first, end, self_times) | {"speed": speed})
            else:
                rounds.append(
                    tracer.aggregate(first, end, self_times, self.workload.trace_phase)
                    | {"speed": speed}
                )
                whole.append(tracer.aggregate(first, end, self_times) | {"speed": speed})

        def each(aggs, fn):
            return [fn(a) for a in aggs]

        def own(*names):
            return lambda a: sum(a["self_s"].get(n, 0.0) for n in names) / a["speed"]

        def calls(name):
            return lambda a: a["calls"].get(name, 0)

        def ratio(num, den):
            return lambda a: num(a) / den(a) if den(a) else 0.0

        loss = "scoring.episode_loss_and_grads"
        read = own("store.read_store")
        read_mb = (len(self.blobs["train_store"]) + len(self.blobs["eval_store"])) / 1e6
        episode_ms = [1e3 * s / a["speed"] for a in rounds for s in a["episode_s"]]
        deciles = statistics.quantiles(episode_ms, n=10) if len(episode_ms) > 1 else episode_ms * 9
        walls = {
            traced: [
                (r.train_s + r.eval_s) / (r.speed if self.workload.normalise else 1.0)
                for r in self.timed()[0]
                if (r.root is not None) == traced
            ]
            for traced in (False, True)
        }
        return {
            "store.read_s": each(setups, read),
            "store.read_MB_per_s": each(setups, ratio(lambda a: read_mb, read)),
            "episodes.sample_s": each(rounds, own("episodes.sample_episode")),
            "episodes.sample_calls": each(rounds, calls("episodes.sample_episode")),
            "episodes.build_prototype_s": each(rounds, own("episodes.build_prototype")),
            "selection.similarity_s": each(rounds, own("selection.similarity_sequence")),
            "selection.select_top_s": each(rounds, own("selection.select_top")),
            "selection.fuse_s": each(rounds, own("selection.fuse")),
            "selection.calls": each(rounds, calls("selection.similarity_sequence")),
            "selection.distinct_ratio": each(
                rounds, ratio(lambda a: a["distinct_records"], lambda a: a["selected_records"])
            ),
            "scoring.score_matrix_s": each(rounds, own("scoring.score_matrix")),
            "scoring.score_matrix_calls": each(rounds, calls("scoring.score_matrix")),
            "scoring.loss_and_grads_self_s": each(rounds, own(loss)),
            "scoring.loss_and_grads_calls": each(rounds, calls(loss)),
            "scoring.grads_used_ratio": each(
                rounds, ratio(lambda a: a["calls_in_phase"].get(("harness.train", loss), 0), calls(loss))
            ),
            "scoring.grad_accumulate_s": each(rounds, own("scoring.Gradients.add_")),
            "scoring.optimizer_step_s": each(rounds, own("scoring.optimizer_step")),
            "scoring.optimizer_step_calls": each(rounds, calls("scoring.optimizer_step")),
            "scoring.save_head_s": each(whole, own("scoring.save_head")),
            "scoring.load_head_s": each(setups, own("scoring.load_head")),
            "scoring.checkpoint_bytes": [len(self.rounds[0].checkpoint)],
            "harness.self_s": each(rounds, own("harness.train", "harness.evaluate")),
            "harness.episode_ms.p50": [deciles[4]],
            "harness.episode_ms.p90": [deciles[8]],
            "trace.overhead_frac": [
                statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
            ],
            "trace.spans": each(whole, lambda a: a["spans"]),
        }


class CheckFailed(Exception):
    """A round's outputs failed a correctness check."""


def summarize(samples: dict[str, list[float]], units: dict[str, str]) -> dict:
    stats = {}
    for name, unit in units.items():
        q1, median, q3 = quartiles(samples[name])
        stats[name] = {"value": median, "q1": q1, "q3": q3, "n": len(samples[name]), "unit": unit}
    return stats


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="directory for the result file")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    try:
        cpes = load_cpes()
    except (ProgramMissing, ImportError) as exc:
        print(f"bench: cannot load the program: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    spec = json.loads(BENCHMARK_PATH.read_text())
    units = {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}
    try:
        blobs = generate(workload.name, args.seed)
    except (RuntimeError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else None
    bench = Bench(cpes, workload, args.seed, blobs, tracer)
    bench.run(args.seconds, bool(args.trace))

    if tracer is not None:
        bench.failures.extend(f"trace self-check: {p}" for p in tracer.check())
    metrics = {}
    stats = {}
    # the end-to-end figures not reported, kept as a diagnostic: normalised
    # ones where raw figures are reported, and the other way round
    other = {}
    other_prefix = "raw." if workload.normalise else "normalised."
    if bench.rounds and not bench.failures:
        if args.trace:
            stats = summarize(bench.per_layer(), units["per_layer"])
        else:
            stats = summarize(bench.end_to_end(workload.normalise), units["end_to_end"])
            other = summarize(bench.end_to_end(not workload.normalise), units["end_to_end"])
        other["kernel_s"] = summarize({"kernel_s": bench.kernel_times}, {"kernel_s": "s"})["kernel_s"]
        metrics = {k: {"value": s["value"], "unit": s["unit"]} for k, s in stats.items()}
    failed = len(bench.failures)
    result = {
        "correct": failed == 0,
        "attempted": max(bench.attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }

    info = machine()
    print(f"machine: {json.dumps(info)}")
    print(
        f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
        f"set-ups {len(bench.setup_times)}  rounds {len(bench.rounds)}"
    )
    print(f"  {'metric':<32}{'median':>14}{'q1':>14}{'q3':>14}{'n':>5}  unit")
    rows = [(name, s) for name, s in stats.items()]
    rows += [
        ("kernel_s" if name == "kernel_s" else other_prefix + name, s)
        for name, s in other.items()
        if name not in ("peak_rss_mb", "mean_accuracy")
    ]
    for name, s in rows:
        print(f"  {name:<32}{s['value']:>14.6g}{s['q1']:>14.6g}{s['q3']:>14.6g}{s['n']:>5}  {s['unit']}")
    print(f"  failed_frac {failed}/{result['attempted']} = {failed / result['attempted']:.6g}")
    for failure in bench.failures:
        print(f"  FAILED: {failure}")
    missing = [n for n in LAYER_SPANS if tracer is not None and n not in tracer.wrapped]
    if missing:
        print(f"  not defined by the program, read as 0: {', '.join(missing)}")

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
        record = {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "machine": info,
            "normalised": workload.normalise,
            "stats": stats,
            "other_stats": other,
            "samples": {
                "kernel_s": bench.kernel_times,
                "setup_s": bench.setup_times,
                "round_train_s": [r.train_s for r in bench.rounds],
                "round_eval_s": [r.eval_s for r in bench.rounds],
            },
            "failures": bench.failures,
            "failed_frac": failed / result["attempted"],
            "result": result,
        }
        if tracer is not None:
            record["trace_wrapped"] = tracer.wrapped
            record["trace_missing"] = missing
            tracer.write_jsonl(args.out / f"{stem}-spans.jsonl")
        (args.out / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
