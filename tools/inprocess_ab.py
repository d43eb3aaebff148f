"""Paired in-process timing of two cpes source trees on one benchmark workload.

    python3 tools/inprocess_ab.py PARENT_SRC CHANGE_SRC --workload train --pairs 300

PARENT_SRC and CHANGE_SRC are ``src`` directories, each holding a ``cpes``
package. Each package is copied under its own name (``cpes_parent``,
``cpes_change``) into a temporary directory and imported from there, so
both run in this one process, on the same heap and the same cores. The
workload's seed-0 input bytes are written once, by this checkout's cpes in
a child process (``bench/inputs.generate``), and each side is a
``bench/run.py`` ``Bench`` over them. Each pair runs one ``Bench.setup``
and one ``Bench.run_round`` on each side, the side that runs first
alternating from pair to pair, so every round is the benchmark's round,
checked as the benchmark checks it: against the head trained at input
generation, the side's first round and ``bench/reference.json``. A failed
check stops the run with its message and exit status 1. The first pair
warms up and is dropped. BLAS is pinned to one thread, as in the benchmark.

Prints, for the set-up, train and eval phases, each side's median time,
the median of the per-pair change/parent time ratios and the number of
pairs the change ran faster, and whether the two sides' checkpoints and
per-task accuracies were equal (exit status 1 if not); the last line is
the same as JSON. Passing the same tree twice gives the A/A floor that a
ratio is read against.
"""

import argparse
import importlib
import json
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


def import_copy(src: Path, name: str, into: Path):
    """Import the cpes package under ``src`` as a package called ``name``."""
    if not (src / "cpes" / "__init__.py").is_file():
        raise SystemExit(f"no cpes package under {src}")
    shutil.copytree(src / "cpes", into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def phase_times(bench: Bench) -> dict[str, list[float]]:
    """Each phase's times, the warm-up pair's dropped."""
    rounds = bench.rounds[1:]
    return {"setup": bench.setup_times[1:], "train": [r.train_s for r in rounds],
            "eval": [r.eval_s for r in rounds]}


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
        benches = {side: Bench(import_copy(src.resolve(), f"cpes_{side}", Path(tmp)),
                               workload, 0, blobs, None)
                   for side, src in trees.items()}
        for pair in range(args.pairs + 1):  # pair 0 warms up; phase_times drops it
            for side in SIDES if pair % 2 else SIDES[::-1]:
                bench = benches[side]
                try:
                    bench.rounds.append(bench.run_round(bench.setup(), False))
                except CheckFailed as exc:
                    raise SystemExit(f"{side}, pair {pair}: {exc}") from None
    parent, change = (benches[side].rounds[0] for side in SIDES)
    equal = (parent.checkpoint, parent.per_task) == (change.checkpoint, change.per_task)
    times = {side: phase_times(benches[side]) for side in SIDES}
    summary = {"workload": args.workload, "pairs": args.pairs, "outputs_equal": equal}
    for phase in PHASES:
        before, after = times["parent"][phase], times["change"][phase]
        ratios = [b / a for a, b in zip(before, after, strict=True)]
        summary[phase] = row = {
            "parent_median_s": statistics.median(before),
            "change_median_s": statistics.median(after),
            "median_ratio": statistics.median(ratios),
            "change_wins": sum(ratio < 1.0 for ratio in ratios),
        }
        print(f"{phase}: parent {row['parent_median_s'] * 1e3:.3f} ms, change "
              f"{row['change_median_s'] * 1e3:.3f} ms, median change/parent "
              f"{row['median_ratio']:.4f}, change faster in {row['change_wins']}/{args.pairs}")
    print(f"outputs equal: {equal}")
    print(json.dumps(summary))
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
