"""Paired in-process timing of two cpes source trees on one benchmark workload.

    python3 tools/inprocess_ab.py PARENT_SRC CHANGE_SRC --workload train --pairs 300

PARENT_SRC and CHANGE_SRC are ``src`` directories, each holding a ``cpes``
package, imported side by side under their own names (``cpes_parent``,
``cpes_change``) from a temporary copy, so both run in this one process.
Each side is a ``bench/run.py`` ``Bench`` over the workload's seed-0 input
bytes, written once by this checkout's cpes in a child process
(``bench/inputs.generate``). Each pair runs the benchmark's cycle on each
side, the first side alternating: the workload's ``setup_reps`` set-ups,
each releasing the one before, then one ``Bench.run_round``, checked as the
benchmark checks it (the input-generation head, the side's first round,
``bench/reference.json``); a failed check exits 1 with its message. The
first pair warms up and is dropped. BLAS is pinned to one thread, as in
the benchmark.

For each phase (a set-up, from the first ``read_store`` to ``load_head``;
train, from ``train`` to ``save_head``; eval, ``evaluate``) it prints each
side's median time and median count of minor page faults (``ru_minflt``),
the median change/parent time ratio (set-up i of a pair against set-up i)
and the pairs the change won; then whether the two sides' checkpoints and
per-task accuracies were equal (exit 1 if not). The last line is the same
as JSON. The same tree twice gives the A/A floor a ratio is read against.
"""

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from program import pin_blas_threads  # noqa: E402

pin_blas_threads()  # before numpy is imported, as the benchmark does

from inputs import generate  # noqa: E402
from run import Bench, CheckFailed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SIDES = ("parent", "change")
PHASES = ("setup", "train", "eval")
# the cpes call that ends each phase; a phase starts at the first counted
# call after the previous one ended
PHASE_ENDS = {"load_head": "setup", "save_head": "train", "evaluate": "eval"}
COUNTED = ("read_store", "train", *PHASE_ENDS)


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class FaultCounted:
    """A cpes package whose calls record the minor faults of each phase in
    ``faults``."""

    def __init__(self, cpes):
        self._cpes, self._start = cpes, None  # faults when the open phase started
        self.faults = {phase: [] for phase in PHASES}

    def __getattr__(self, name):
        fn = getattr(self._cpes, name)
        if name not in COUNTED:
            return fn

        def counted(*args):
            if self._start is None:
                self._start = minor_faults()
            out = fn(*args)
            if name in PHASE_ENDS:
                self.faults[PHASE_ENDS[name]].append(minor_faults() - self._start)
                self._start = None
            return out
        return counted


def import_copy(src: Path, name: str, into: Path):
    """Import the cpes package under ``src`` as a package called ``name``."""
    if not (src / "cpes" / "__init__.py").is_file():
        raise SystemExit(f"no cpes package under {src}")
    shutil.copytree(src / "cpes", into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def cycle(bench: Bench) -> None:
    """The benchmark's cycle: the workload's set-ups, then one round."""
    for _ in range(bench.workload.setup_reps):
        state = None  # release the previous set-up before the next
        state = bench.setup()
    bench.rounds.append(bench.run_round(state, False))


def phases(bench: Bench) -> dict[str, tuple[list[float], list[int]]]:
    """Each phase's times and fault counts, the warm-up pair's dropped."""
    rounds, setup_s, _ = bench.timed()
    faults = bench.cpes.faults
    return {"setup": (setup_s, faults["setup"][bench.workload.setup_reps:]),
            "train": ([r.train_s for r in rounds], faults["train"][1:]),
            "eval": ([r.eval_s for r in rounds], faults["eval"][1:])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workload = WORKLOADS[args.workload]
    blobs = generate(workload.name, 0)
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        trees = dict(zip(SIDES, (args.parent_src, args.change_src)))
        benches = {side: Bench(FaultCounted(import_copy(src.resolve(), f"cpes_{side}", Path(tmp))),
                               workload, 0, blobs, None)
                   for side, src in trees.items()}
        for pair in range(args.pairs + 1):  # pair 0 warms up; Bench.timed drops it
            for side in SIDES if pair % 2 else SIDES[::-1]:
                try:
                    cycle(benches[side])
                except CheckFailed as exc:
                    raise SystemExit(f"{side}, pair {pair}: {exc}") from None
    parent, change = (benches[side].rounds[0] for side in SIDES)
    equal = (parent.checkpoint, parent.per_task) == (change.checkpoint, change.per_task)
    measured = {side: phases(benches[side]) for side in SIDES}
    summary = {"workload": args.workload, "pairs": args.pairs, "outputs_equal": equal}
    for phase in PHASES:
        (before, before_faults), (after, after_faults) = (measured[side][phase] for side in SIDES)
        ratios = [b / a for a, b in zip(before, after, strict=True)]
        summary[phase] = row = {
            "parent_median_s": statistics.median(before),
            "change_median_s": statistics.median(after),
            "median_ratio": statistics.median(ratios),
            "change_wins": sum(ratio < 1.0 for ratio in ratios),
            "parent_median_minflt": statistics.median(before_faults),
            "change_median_minflt": statistics.median(after_faults),
        }
        print(f"{phase}: parent {row['parent_median_s'] * 1e3:.3f} ms, change "
              f"{row['change_median_s'] * 1e3:.3f} ms, median change/parent "
              f"{row['median_ratio']:.4f}, change faster in {row['change_wins']}/{len(ratios)}; "
              f"minor faults parent {row['parent_median_minflt']:g}, "
              f"change {row['change_median_minflt']:g}")
    print(f"outputs equal: {equal}")
    print(json.dumps(summary))
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
