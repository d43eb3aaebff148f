"""Write every output file of the 24-config grid, to compare two checkouts.

Generates the two frozen sweep stores of ``tests/conftest.py`` with
``cpes gen-synthetic``, then runs ``cpes train`` and ``cpes eval`` at their
default run lengths for m in {0, 4, 16} x cos/dot/abs/sqr x K in {1, 3},
keeping every store, checkpoint, training log and report under OUT_DIR.
It also writes a store of every gen-synthetic default, an odd-shape
store (odd D, whose last normal pair is cut short, and a pool of 5), a
K = 5 ``train`` + ``eval`` pair on it (5-shot means with odd D, every
class of an episode in one selection block), the ``inspect-store`` output
of the train, eval and odd-shape stores, that shape again with a
``train`` + ``eval`` pair at each of two seeds outside [0, 2**64), which
streams take modulo 2**64 (-1 and 2**64 + 5), the selection masks of
records 0-5 of the train store (m=4, cos), a checkpoint and log trained
from a ``--config`` JSON file, the JSON reports of a short ``sweep-m`` and
``sweep-distance`` over the two sweep stores and of a ``sweep-m`` whose
values are a ``--config`` JSON array, and one ``train`` + ``eval`` pair
(K = 1, cos) with no ``--m``, whose m comes from the stores' planted
ground truth. Everything goes through ``cpes.cli.main``, so the cpes
imported is the one on PYTHONPATH. Last, it runs a fixed list of rejected
commands (damaged copies of the train store and of a checkpoint, and
requests the train store cannot meet) and writes each one's exit code and
stderr under OUT_DIR/rejected, so that no error message or exit code
moves either. A draw below a bound b rejects a word with odds of about
b / 2**64, so the grid's small bounds never reach the rejection path; the
rejection tests of ``tests/test_numerics.py`` (``TestRng``,
``TestRowKernels``) cover it. To check that a change moves no result:

    PYTHONPATH=/path/to/parent/src python3 tools/grid_outputs.py out-parent
    PYTHONPATH=src python3 tools/grid_outputs.py out-change
    diff -r out-parent out-change

and, as the score tensor is shared among one thread per core of the CPU
affinity mask, that the outputs are the same on one core:

    PYTHONPATH=src taskset -c 0 python3 tools/grid_outputs.py out-serial
    diff -r out-parent out-serial
"""

import argparse
import contextlib
import dataclasses
import io
import json
import struct
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import SWEEP_EVAL_CFG, SWEEP_TRAIN_CFG  # noqa: E402

from cpes.cli import main  # noqa: E402

M_VALUES = (0, 4, 16)
DISTANCES = ("cos", "dot", "abs", "sqr")
K_SHOTS = (1, 3)
# JSON config of the --config run: a value of every type its flags take
CONFIG_RUN = {
    "m": 4, "distance": "sqr", "k_shot": 3, "epochs": 2, "episodes_per_epoch": 20,
    "seed": 3, "hidden": 32, "lr": 0.002, "weight_decay": 0.0, "schedule": "constant",
}
# a store shape the sweep stores miss: odd D and a pool of 5
ODD_SHAPE = ["--classes", "6", "--dim", "11", "--patches", "9", "--signal-patches", "3",
             "--distractors", "5"]
# seeds outside [0, 2**64): -1 and 2**64 + 5
WRAPPED_SEEDS = ("-1", str((1 << 64) + 5))
# run length of each sweep point: short, as a sweep trains once per value
SWEEP_RUN = ["--epochs", "1", "--episodes-per-epoch", "20", "--tasks", "50"]
# JSON config of the sweep-m run whose values come from an array
SWEEP_CONFIG = {"values": [2, 8], "epochs": 1, "episodes_per_epoch": 20, "tasks": 50}


# the sweep train store's CPEM layout: header bytes, bytes a record, and its
# ground-truth section (record 0's count word, then its indices) after the records
CPEM_HEADER = 28
RECORD = 12 + 4 * SWEEP_TRAIN_CFG.dim * (1 + SWEEP_TRAIN_CFG.patches)
SECTION = CPEM_HEADER + SWEEP_TRAIN_CFG.class_count * SWEEP_TRAIN_CFG.records_per_class * RECORD
CPEH_HEADER = 14
# the first record of the second block of the store's patch finiteness check: blocks hold at
# most 2**16 values, whole records of M x D values each (one record where a record is larger)
SECOND_BLOCK = 2**16 // (SWEEP_TRAIN_CFG.patches * SWEEP_TRAIN_CFG.dim)
u16, u32 = (lambda v: struct.pack("<H", v)), (lambda v: struct.pack("<I", v))


def put(data: bytes, at: int, value: bytes) -> bytes:
    return data[:at] + value + data[at + len(value) :]


def record(row: int) -> int:
    """The offset of the train store's record ``row``."""
    return CPEM_HEADER + row * RECORD


# name -> damage to the train store's bytes, of each rejected store read
DAMAGED_STORES = {
    "cpem_bad_magic": lambda b: put(b, 0, b"XXXX"),
    "cpem_version_2": lambda b: put(b, 4, u16(2)),
    "cpem_truncated_magic": lambda b: b[:2],
    "cpem_truncated_header": lambda b: b[:10],
    "cpem_truncated_body": lambda b: b[: record(3) + 5],
    "cpem_truncated_ground_truth_count": lambda b: b[:SECTION],
    "cpem_truncated_ground_truth_indices": lambda b: b[: SECTION + 4],
    "cpem_trailing_byte": lambda b: b + b"\x00",
    "cpem_record_over_2_gib": lambda b: put(b, 8, u32(1 << 31)),
    "cpem_nan": lambda b: put(b, record(3) + 12, struct.pack("<f", float("nan"))),
    "cpem_nan_last_patch_value": lambda b: put(b, SECTION - 4, struct.pack("<f", float("nan"))),
    "cpem_inf_first_class_value": lambda b: put(b, record(0) + 12, struct.pack("<f", float("inf"))),
    "cpem_minus_inf_second_block": lambda b: put(
        b, record(SECOND_BLOCK) + 12 + 4 * SWEEP_TRAIN_CFG.dim, struct.pack("<f", float("-inf"))
    ),
    "cpem_label_at_class_count": lambda b: put(b, record(2) + 8, u32(SWEEP_TRAIN_CFG.class_count)),
    "cpem_repeated_record_id": lambda b: put(b, record(5), b[record(4) : record(4) + 8]),
    "cpem_ground_truth_index_at_m": lambda b: put(b, SECTION + 2, u16(SWEEP_TRAIN_CFG.patches)),
    "cpem_repeated_ground_truth_index": lambda b: put(b, SECTION + 4, b[SECTION + 2 : SECTION + 4]),
}
# name -> damage to a checkpoint's bytes, of each rejected checkpoint read
DAMAGED_CHECKPOINTS = {
    "cpeh_bad_magic": lambda b: put(b, 0, b"XXXX"),
    "cpeh_version_2": lambda b: put(b, 4, u16(2)),
    "cpeh_truncated": lambda b: b[:-4],
    "cpeh_trailing_byte": lambda b: b + b"\x00",
    "cpeh_non_finite": lambda b: put(b, CPEH_HEADER, struct.pack("<d", float("inf"))),
    # the state's last value, before the u64 step counter
    "cpeh_minus_inf_last_moment2": lambda b: put(b, len(b) - 16, struct.pack("<d", float("-inf"))),
}
# name -> argv, --store aside, of each request the train store (20 classes of 30) cannot meet
INFEASIBLE = {
    "n_way_above_classes": ["train", "--n-way", "21"],
    "queries_above_records": ["train", "--queries", "30"],
    "unknown_record": ["export-masks", "--records", "0,99999"],
}


def rejected(out_dir: Path, train_store: Path, checkpoint: Path) -> None:
    """Run each rejected command, on a damaged copy of the train store or of
    ``checkpoint`` written to OUT_DIR/rejected/input and removed after it, or
    on the train store, and write its exit code and stderr to
    OUT_DIR/rejected/NAME.txt."""
    folder = out_dir / "rejected"
    folder.mkdir(exist_ok=True)
    bad, unused = folder / "input", folder / "unused"
    store = ["--store", str(train_store)]
    cases = {name: (train_store, damage, ["inspect-store", "--store", str(bad)])
             for name, damage in DAMAGED_STORES.items()}
    cases |= {name: (checkpoint, damage, ["eval", *store, "--checkpoint", str(bad), "--m", "4"])
              for name, damage in DAMAGED_CHECKPOINTS.items()}
    cases |= {name: (None, None, [command, *store, *flags, "--out", str(unused)])
              for name, (command, *flags) in INFEASIBLE.items()}
    for name, (source, damage, argv) in cases.items():
        if source is not None:
            bad.write_bytes(damage(source.read_bytes()))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        bad.unlink(missing_ok=True)
        if code == 0 or unused.exists():
            raise SystemExit(f"not rejected: cpes {' '.join(argv)}")
        (folder / f"{name}.txt").write_text(f"exit {code}\n{err.getvalue()}")


def run(argv: list[str]) -> None:
    if main(argv) != 0:
        raise SystemExit(f"failed: cpes {' '.join(argv)}")


def inspect(store: Path) -> None:
    """Write ``cpes inspect-store``'s stdout on ``store`` beside it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run(["inspect-store", "--store", str(store)])
    store.with_suffix(".inspect.txt").write_text(out.getvalue())


def gen_synthetic(cfg, out: Path) -> None:
    """``cpes gen-synthetic`` with every field of the SyntheticConfig ``cfg``
    passed as its flag."""
    flags = [
        token
        for f in dataclasses.fields(cfg)
        for token in (f.metadata["flag"], repr(getattr(cfg, f.name)))
    ]
    run(["gen-synthetic", *flags, "--out", str(out)])


def main_grid(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    train_store, eval_store = out_dir / "train.cpem", out_dir / "eval.cpem"
    gen_synthetic(SWEEP_TRAIN_CFG, train_store)
    gen_synthetic(SWEEP_EVAL_CFG, eval_store)
    run(["gen-synthetic", "--out", str(out_dir / "defaults.cpem")])
    odd_store, name = out_dir / "odd_shape.cpem", out_dir / "odd_shape_k5"
    run(["gen-synthetic", *ODD_SHAPE, "--out", str(odd_store)])
    for store in (train_store, eval_store, odd_store):
        inspect(store)
    run(["train", "--store", str(odd_store), "--out", f"{name}.cpeh", "--log", f"{name}.log.json",
         "--k-shot", "5"])
    run(["eval", "--store", str(odd_store), "--checkpoint", f"{name}.cpeh",
         "--out", f"{name}.report.json", "--k-shot", "5"])
    for seed in WRAPPED_SEEDS:
        name = out_dir / f"odd_shape_seed{seed}"
        run(["gen-synthetic", *ODD_SHAPE, "--seed", seed, "--out", f"{name}.cpem"])
        run(["train", "--store", f"{name}.cpem", "--out", f"{name}.cpeh", "--seed", seed])
        run(["eval", "--store", f"{name}.cpem", "--checkpoint", f"{name}.cpeh",
             "--out", f"{name}.report.json", "--seed", seed])
    run(["export-masks", "--store", str(train_store), "--records", "0,1,2,3,4,5", "--m", "4",
         "--distance", "cos", "--out", str(out_dir / "masks")])
    config = out_dir / "config_run.json"
    config.write_text(json.dumps(CONFIG_RUN))
    run(["train", "--store", str(train_store), "--out", str(out_dir / "config_run.cpeh"),
         "--config", str(config)])
    stores = ["--store", str(train_store), "--eval-store", str(eval_store)]
    run(["sweep-m", *stores, "--values", "0,4,16", *SWEEP_RUN,
         "--out", str(out_dir / "sweep_m.json")])
    run(["sweep-distance", *stores, "--m", "4", *SWEEP_RUN,
         "--out", str(out_dir / "sweep_distance.json")])
    config = out_dir / "sweep_m_config.json"
    config.write_text(json.dumps(SWEEP_CONFIG))
    run(["sweep-m", *stores, "--config", str(config),
         "--out", str(out_dir / "sweep_m_config.report.json")])
    # no --m: the reader's planted mask sets it, by the count every record plants
    name = out_dir / "m_default_cos_k1"
    run(["train", "--store", str(train_store), "--out", f"{name}.cpeh", "--log", f"{name}.log.json",
         "--distance", "cos", "--k-shot", "1"])
    run(["eval", "--store", str(eval_store), "--checkpoint", f"{name}.cpeh",
         "--out", f"{name}.report.json", "--distance", "cos", "--k-shot", "1"])
    for m in M_VALUES:
        for distance in DISTANCES:
            for k_shot in K_SHOTS:
                name = out_dir / f"m{m}_{distance}_k{k_shot}"
                flags = ["--m", str(m), "--distance", distance, "--k-shot", str(k_shot)]
                run(
                    ["train", "--store", str(train_store), "--out", f"{name}.cpeh",
                     "--log", f"{name}.log.json"] + flags
                )
                run(
                    ["eval", "--store", str(eval_store), "--checkpoint", f"{name}.cpeh",
                     "--out", f"{name}.report.json"] + flags
                )
    rejected(out_dir, train_store, out_dir / "m4_cos_k1.cpeh")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path, help="directory for the grid's files")
    main_grid(parser.parse_args().out_dir)
