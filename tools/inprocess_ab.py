"""Paired in-process timing of two cpes source trees on one benchmark workload.

    python3 tools/inprocess_ab.py PARENT_SRC CHANGE_SRC --workload train --pairs 300

PARENT_SRC and CHANGE_SRC are ``src`` directories, each holding a ``cpes``
package. Each package is copied under its own name (``cpes_parent``,
``cpes_change``) into a temporary directory and imported from there, so
both run in this one process, on the same heap and the same cores. Each
side builds the workload's seed-0 stores (``bench/workloads.py``) with its
own ``generate_synthetic`` and trains the head its eval phase runs, as the
benchmark's input generation does. Then each pair times one round on each
side: the train phase (``train`` then ``save_head``) and the eval phase
(``evaluate``). The side that runs first alternates from pair to pair, and
one warm-up pair is dropped. BLAS is pinned to one thread, as in the
benchmark.

Prints, for the train and eval calls, each side's median time, the median
of the per-pair change/parent time ratios and the number of pairs the
change ran faster, and whether the two sides' checkpoints and per-task
accuracies were equal; the last line is the same as JSON. Passing the same
tree twice gives the A/A floor that a ratio is read against.
"""

import argparse
import importlib
import io
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from program import pin_blas_threads  # noqa: E402

pin_blas_threads()  # before numpy is imported, as the benchmark does

from workloads import WORKLOADS  # noqa: E402

SIDES = ("parent", "change")
PHASES = ("train", "eval")


class Side:
    """One tree's cpes, its stores and the head its eval phase runs."""

    def __init__(self, cpes, workload, seed: int):
        self.cpes = cpes
        self.train_store, self.eval_store = (
            cpes.generate_synthetic(shape.config(cpes, seed))
            for shape in (workload.train_store, workload.eval_store)
        )
        head_cfg = workload.run_config(cpes, seed, workload.head_episodes)
        self.head, _ = cpes.train(self.train_store, head_cfg)
        self.cfg = workload.run_config(cpes, seed, workload.round_episodes)

    def round(self) -> tuple[dict[str, float], bytes, list[float]]:
        """The train and eval phases' times, the checkpoint and the per-task accuracies."""
        start = perf_counter()
        trained, _ = self.cpes.train(self.train_store, self.cfg)
        checkpoint = io.BytesIO()
        self.cpes.save_head(trained, checkpoint)
        middle = perf_counter()
        report = self.cpes.evaluate(self.head, self.eval_store, self.cfg)
        end = perf_counter()
        times = {"train": middle - start, "eval": end - middle}
        return times, checkpoint.getvalue(), report.per_task_accuracy


def import_copy(src: Path, name: str, into: Path):
    """Import the cpes package under ``src`` as a package called ``name``."""
    if not (src / "cpes" / "__init__.py").is_file():
        raise SystemExit(f"no cpes package under {src}")
    shutil.copytree(src / "cpes", into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


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
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        trees = dict(zip(SIDES, (args.parent_src, args.change_src)))
        sides = {name: Side(import_copy(src.resolve(), f"cpes_{name}", Path(tmp)), workload, 0)
                 for name, src in trees.items()}
        times = {side: {phase: [] for phase in PHASES} for side in SIDES}
        ratios = {phase: [] for phase in PHASES}
        equal = True
        for pair in range(args.pairs + 1):  # pair 0 warms up and is dropped
            order = SIDES if pair % 2 else SIDES[::-1]
            rounds = {side: sides[side].round() for side in order}
            equal &= rounds["parent"][1:] == rounds["change"][1:]
            if pair == 0:
                continue
            for phase in PHASES:
                for side in SIDES:
                    times[side][phase].append(rounds[side][0][phase])
                ratios[phase].append(rounds["change"][0][phase] / rounds["parent"][0][phase])
    summary = {"workload": args.workload, "pairs": args.pairs, "outputs_equal": equal}
    for phase in PHASES:
        summary[phase] = {
            "parent_median_s": statistics.median(times["parent"][phase]),
            "change_median_s": statistics.median(times["change"][phase]),
            "median_ratio": statistics.median(ratios[phase]),
            "change_wins": sum(ratio < 1.0 for ratio in ratios[phase]),
        }
        row = summary[phase]
        print(f"{phase}: parent {row['parent_median_s'] * 1e3:.3f} ms, change "
              f"{row['change_median_s'] * 1e3:.3f} ms, median change/parent "
              f"{row['median_ratio']:.4f}, change faster in {row['change_wins']}/{args.pairs}")
    print(f"outputs equal: {equal}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
