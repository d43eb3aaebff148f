"""Wall time and minor page faults of each phase of the benchmark's rounds,
run in one process: how the heap one phase leaves behind moves the next.

    PYTHONPATH=src python3 tools/phase_faults.py --workload train --seed 0 --rounds 20

Builds the workload's inputs with ``bench/inputs.generate`` (in a child
process, as the benchmark does), then runs ``bench/run.py``'s own cycle
loop (``Bench.run``, untraced) for exactly ``--rounds`` rounds after its
warm-up cycle, every round checked as the benchmark checks it. The program
it drives is cpes with a counter of this process's minor faults
(``ru_minflt``) around each phase: a set-up (from the first ``read_store``
to ``load_head``), the train phase (``train`` to ``save_head``) and the
eval phase (``evaluate``). Prints each phase's median raw wall time and
median fault count, the warm-up cycle dropped; the last line is the same as
JSON. The cpes imported is the one on PYTHONPATH, so one copy of this
script measures any checkout:

    PYTHONPATH=/path/to/other/src python3 tools/phase_faults.py --workload train --seed 0
"""

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from program import pin_blas_threads  # noqa: E402

pin_blas_threads()  # before numpy is imported, as the benchmark does

import run as bench_run  # noqa: E402
from inputs import generate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import cpes  # noqa: E402

PHASES = ("setup", "train", "eval")


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class FaultCounted:
    """cpes, with the minor faults of each phase recorded in ``faults``: a
    phase opens at its first call (``read_store``, ``train``, ``evaluate``)
    and closes after its last (``load_head``, ``save_head``, ``evaluate``)."""

    def __init__(self):
        self.faults = {phase: [] for phase in PHASES}
        self._open = None  # (phase, faults at its start)

    def __getattr__(self, name):
        return getattr(cpes, name)

    def _phase(self, phase: str, fn, *args, opens=True, closes=True):
        if opens and self._open is None:
            self._open = (phase, minor_faults())
        out = fn(*args)
        if closes:
            self.faults[phase].append(minor_faults() - self._open[1])
            self._open = None
        return out

    def read_store(self, source):
        return self._phase("setup", cpes.read_store, source, closes=False)

    def load_head(self, source):
        return self._phase("setup", cpes.load_head, source, opens=False)

    def train(self, store, cfg):
        return self._phase("train", cpes.train, store, cfg, closes=False)

    def save_head(self, head, destination):
        return self._phase("train", cpes.save_head, head, destination, opens=False)

    def evaluate(self, head, store, cfg):
        return self._phase("eval", cpes.evaluate, head, store, cfg)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=20, help="rounds after the warm-up")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error(f"--rounds must be >= 1, got {args.rounds}")
    workload = WORKLOADS[args.workload]
    program = FaultCounted()
    bench = bench_run.Bench(program, workload, args.seed, generate(workload.name, args.seed), None)
    bench_run.MIN_ROUNDS = 1 + args.rounds  # the loop runs to this count, then stops at 0 s
    bench.run(0.0, False)
    for failure in bench.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    if bench.failures:
        return 1
    rounds, setup_s, _ = bench.timed()
    times = {
        "setup": setup_s,
        "train": [r.train_s for r in rounds],
        "eval": [r.eval_s for r in rounds],
    }
    warm_up = {"setup": workload.setup_reps, "train": 1, "eval": 1}
    summary = {
        phase: {
            "median_ms": 1e3 * statistics.median(times[phase]),
            "median_minflt": statistics.median(program.faults[phase][warm_up[phase] :]),
            "n": len(times[phase]),
        }
        for phase in PHASES
    }
    print(f"cpes from {Path(cpes.__file__).parent}")
    print(f"workload {workload.name}  seed {args.seed}  rounds {len(rounds)} after a warm-up")
    print(f"  {'phase':<8}{'median ms':>12}{'minflt':>10}{'n':>5}")
    for phase, s in summary.items():
        print(f"  {phase:<8}{s['median_ms']:>12.4f}{s['median_minflt']:>10g}{s['n']:>5}")
    print(json.dumps({"workload": workload.name, "seed": args.seed, "phases": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
