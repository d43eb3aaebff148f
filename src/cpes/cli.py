"""Command-line surface.

Subcommands: gen-synthetic, train, eval, sweep-m, sweep-distance,
export-masks, inspect-store. Any flag may also come from a JSON config
file (--config); explicit flags win. Exit codes: 0 success, 2 validation
error or a size too large to allocate, 3 I/O or file-format error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .errors import CpesError, StoreFormatError
from .harness import RunConfig, evaluate, export_masks, sweep, train
from .scoring import OptimizerConfig, ScheduleKind, load_head, save_head
from .selection import DistanceKind
from .store import SyntheticConfig, generate_synthetic, read_store, write_store


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-way", type=int, default=5)
    p.add_argument("--k-shot", type=int, default=1)
    p.add_argument("--queries", type=int, default=15, help="queries per class")
    p.add_argument("--m", type=int, default=None, help="selected patches per image")
    p.add_argument("--distance", choices=[k.value for k in DistanceKind], default="cos")
    p.add_argument("--tasks", type=int, default=1000, help="evaluation task count")
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--episodes-per-epoch", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--lr-floor", type=float, default=1e-6)
    p.add_argument("--weight-decay", type=float, default=0.01)
    p.add_argument(
        "--schedule", choices=[k.value for k in ScheduleKind], default="cosine"
    )


def _run_config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        n_way=args.n_way,
        k_shot=args.k_shot,
        queries_per_class=args.queries,
        m=args.m,
        distance=DistanceKind(args.distance),
        epochs=args.epochs,
        episodes_per_epoch=args.episodes_per_epoch,
        eval_tasks=args.tasks,
        base_seed=args.seed,
        hidden_dim=args.hidden,
        optimizer=OptimizerConfig(
            learning_rate=args.lr,
            lr_floor=args.lr_floor,
            weight_decay=args.weight_decay,
            schedule=ScheduleKind(args.schedule),
        ),
    )


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip() != ""]


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser, by name."""
    parser = argparse.ArgumentParser(
        prog="cpes", description="Class-relevant patch embedding selection toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", help="generate a planted-signal store")
    p.add_argument("--classes", type=int, default=20)
    p.add_argument("--records-per-class", type=int, default=30)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--patches", type=int, default=16)
    p.add_argument("--signal-patches", type=int, default=4)
    p.add_argument("--signal-noise", type=float, default=0.3)
    p.add_argument("--distractors", type=int, default=8)
    p.add_argument("--distractor-noise", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, required=True)

    p = sub.add_parser("train", help="train the MLP head on a store")
    p.add_argument("--store", type=str, required=True)
    p.add_argument("--out", type=str, required=True, help="checkpoint path")
    p.add_argument("--log", type=str, default=None, help="training log path")
    _add_run_flags(p)

    p = sub.add_parser("eval", help="episodic evaluation of a trained head")
    p.add_argument("--store", type=str, required=True)
    p.add_argument("--checkpoint", type=str, required=True)
    p.add_argument("--out", type=str, default=None, help="report JSON path")
    _add_run_flags(p)

    p = sub.add_parser("sweep-m", help="train+eval across selection sizes")
    p.add_argument("--store", type=str, required=True)
    p.add_argument("--eval-store", type=str, default=None)
    p.add_argument("--values", type=_int_list, required=True, help="e.g. 0,2,4,8,16")
    p.add_argument("--out", type=str, default=None)
    _add_run_flags(p)

    p = sub.add_parser("sweep-distance", help="train+eval across ranking functions")
    p.add_argument("--store", type=str, required=True)
    p.add_argument("--eval-store", type=str, default=None)
    p.add_argument("--kinds", type=str, default="cos,dot,abs,sqr")
    p.add_argument("--out", type=str, default=None)
    _add_run_flags(p)

    p = sub.add_parser("export-masks", help="write selection masks for records")
    p.add_argument("--store", type=str, required=True)
    p.add_argument("--records", type=_int_list, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--distance", choices=[k.value for k in DistanceKind], default="cos")
    p.add_argument("--out", type=str, required=True, help="output directory")

    p = sub.add_parser("inspect-store", help="print store header and class counts")
    p.add_argument("--store", type=str, required=True)
    for p in sub.choices.values():
        p.add_argument("--config", type=str, default=None, help="JSON file of flag defaults")
    return parser, sub.choices


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv; a --config JSON file supplies subcommand defaults, so
    explicit flags override it."""
    parser, subparsers = _build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    values = json.loads(Path(args.config).read_text())
    if not isinstance(values, dict):
        raise ValueError("config file must hold a JSON object")
    # "command" is the subcommand itself, not a flag a default could fill
    unknown = set(values) - (set(vars(args)) - {"command"})
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    subparsers[args.command].set_defaults(**values)
    return parser.parse_args(argv)


def _cmd_gen_synthetic(args) -> int:
    cfg = SyntheticConfig(
        class_count=args.classes,
        records_per_class=args.records_per_class,
        dim=args.dim,
        patches=args.patches,
        signal_patches=args.signal_patches,
        signal_noise=args.signal_noise,
        distractor_pool_size=args.distractors,
        distractor_noise=args.distractor_noise,
        seed=args.seed,
    )
    store = generate_synthetic(cfg)
    n = write_store(store, args.out)
    print(f"wrote {len(store)} records ({n} bytes) to {args.out}")
    return 0


def _cmd_train(args) -> int:
    store = read_store(args.store)
    cfg = _run_config(args)
    head, log = train(store, cfg)
    save_head(head, args.out)
    log_path = args.log or args.out + ".log.json"
    Path(log_path).write_text(json.dumps(log, indent=2))
    print(f"checkpoint -> {args.out}")
    print(f"log        -> {log_path}")
    for entry in log:
        print(
            f"epoch {entry['epoch']}: loss {entry['mean_loss']:.4f} "
            f"acc {entry['mean_accuracy']:.4f}"
        )
    return 0


def _cmd_eval(args) -> int:
    store = read_store(args.store)
    cfg = _run_config(args)
    head = load_head(args.checkpoint)
    start = time.perf_counter()
    report = evaluate(head, store, cfg)
    print(
        f"accuracy {report.mean_accuracy:.4f} +/- {report.ci95_half_width:.4f} "
        f"over {len(report.per_task_accuracy)} tasks ({time.perf_counter() - start:.1f}s)"
    )
    if args.out:
        Path(args.out).write_text(report.to_json())
        print(f"report -> {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    train_store = read_store(args.store)
    eval_store = read_store(args.eval_store) if args.eval_store else train_store
    if args.command == "sweep-m":
        axis, values = "m", args.values
    else:
        axis, values = "distance", [DistanceKind(tok) for tok in args.kinds.split(",") if tok]
    report = sweep(train_store, eval_store, _run_config(args), axis, values)
    print(report.table())
    if args.out:
        Path(args.out).write_text(report.to_json())
    return 0


def _cmd_export_masks(args) -> int:
    store = read_store(args.store)
    cfg = RunConfig(m=args.m, distance=DistanceKind(args.distance))
    for path in export_masks(store, cfg, args.records, args.out):
        print(path)
    return 0


def _cmd_inspect_store(args) -> int:
    store = read_store(args.store)
    print(f"dim={store.dim_d} patches={store.patches_m} classes={store.class_count}")
    print(f"records={len(store)} ground_truth={store.ground_truth is not None}")
    for label, idx in sorted(store.records_by_label().items()):
        print(f"  class {label}: {len(idx)} records")
    return 0


_COMMANDS = {
    "gen-synthetic": _cmd_gen_synthetic,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "sweep-m": _cmd_sweep,
    "sweep-distance": _cmd_sweep,
    "export-masks": _cmd_export_masks,
    "inspect-store": _cmd_inspect_store,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(argv)
        return _COMMANDS[args.command](args)
    except (StoreFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CpesError, ValueError, MemoryError) as exc:
        # numpy's MemoryError names the size; a bare one has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
