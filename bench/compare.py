"""Compare two result sets, parent (base) against change, written by
``run.py --out DIR`` with --trace 0.

    python3 bench/compare.py BASE_DIR CHANGE_DIR

For every workload and end-to-end metric in BENCHMARK.json it prints each
side's median and quartiles over its runs, the pairs (runs of one workload
and seed on both sides) the change won out of the pairs run, and a verdict:

  improved      the change won at least 9 in 10 pairs, and the medians differ
                by more than the distance between the base's quartiles
  worse         the change's median is worse than the base's by more than the
                metric's bound
  unresolved    either side's quartile distance, as a share of its median,
                exceeds the bound, and the two sides' runs overlap
  within bound  otherwise

Exits 1 when any verdict is worse or unresolved, or the two sides ran on
different machine settings.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from run import quartiles

ROOT = Path(__file__).resolve().parent.parent
PINNED = ("nproc", "python", "numpy", "blas", "blas_threads_pinned")


def load(directory: Path) -> tuple[dict, list[dict]]:
    """Per (workload, seed) metric values, and the machine blocks seen."""
    runs: dict = defaultdict(dict)
    machines = []
    for path in sorted(directory.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        machines.append(record["machine"])
        result = record["result"]
        if result["correct"]:
            values = {k: m["value"] for k, m in result["metrics"].items()}
            runs[record["workload"]][record["seed"]] = values
    return runs, machines


def verdict(base: list[float], change: list[float], pairs, metric: dict) -> tuple[str, str]:
    higher = metric["better"] == "higher"
    bound = metric["bound"]

    def better(a, b):
        return a > b if higher else a < b

    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    won = sum(better(c, b) for b, c in pairs)
    separated = all(better(c, b) for c in change for b in base) or all(
        better(b, c) for c in change for b in base
    )
    worse_by = (bm - cm) / bm if higher else (cm - bm) / bm
    spread = max((b3 - b1) / bm, (c3 - c1) / cm)
    if spread > bound and not separated:
        label = "unresolved"
    elif pairs and better(cm, bm) and won >= 0.9 * len(pairs) and abs(cm - bm) > b3 - b1:
        label = "improved"
    elif worse_by > bound:
        label = "worse"
    else:
        label = "within bound"
    return label, f"{won}/{len(pairs)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    base, base_machines = load(args.base)
    change, change_machines = load(args.change)

    status = 0
    settings = {json.dumps({k: m.get(k) for k in PINNED}) for m in base_machines + change_machines}
    if len(settings) > 1:
        print("machine settings differ between runs:\n  " + "\n  ".join(sorted(settings)))
        status = 1

    header = f"{'workload':<12}{'metric':<22}{'base q1/med/q3':>32}{'change q1/med/q3':>32}  won    verdict"
    print(header)
    for workload in sorted(set(base) | set(change)):
        seeds = sorted(set(base.get(workload, {})) & set(change.get(workload, {})))
        for metric in metrics:
            name = metric["name"]
            b = [v[name] for v in base.get(workload, {}).values() if name in v]
            c = [v[name] for v in change.get(workload, {}).values() if name in v]
            if not b or not c:
                print(f"{workload:<12}{name:<22}{'missing on one side':>64}")
                status = 1
                continue
            pairs = [
                (base[workload][s][name], change[workload][s][name])
                for s in seeds
                if name in base[workload][s] and name in change[workload][s]
            ]
            label, won = verdict(b, c, pairs, metric)
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)  # noqa: E731
            print(
                f"{workload:<12}{name:<22}{fmt(quartiles(b)):>32}{fmt(quartiles(c)):>32}"
                f"  {won:<6} {label}"
            )
            if label in ("worse", "unresolved"):
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
