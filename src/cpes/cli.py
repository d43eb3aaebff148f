"""Command-line surface.

Subcommands: gen-synthetic, train, eval, sweep-m, sweep-distance,
export-masks, inspect-store. Any flag may also come from a JSON config
file (--config); explicit flags win. Output paths are checked before any
store is read, and none may name the file of another path of its command.
Exit codes: 0 success, 2 validation error or a size too large to allocate,
3 I/O or file-format error.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import json
import sys
import time
import typing
from pathlib import Path

from .errors import CpesError, StoreFormatError
from .harness import RunConfig, evaluate, export_masks, sweep, train
from .scoring import load_head, save_head
from .selection import DistanceKind
from .store import SyntheticConfig, generate_synthetic, read_store, write_store, write_whole


def _fields(cls):
    """(field, type) of each field of a config dataclass; m's int | None is int."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        kind = hints[f.name]
        yield f, next((k for k in typing.get_args(kind) if k is not type(None)), kind)


def _add_flags(p: argparse.ArgumentParser, cls, names=None) -> None:
    """The flag and default each field of ``cls`` (or each in ``names``) declares,
    nested configs' included; an enum field's flag takes the enum's values."""
    for f, kind in _fields(cls):
        if dataclasses.is_dataclass(kind):
            _add_flags(p, kind, names)
        elif f.metadata.get("flag") and (names is None or f.name in names):
            if issubclass(kind, enum.Enum):
                parse = dict(choices=[k.value for k in kind], default=f.default.value)
            else:
                parse = dict(type=kind, default=f.default)
            p.add_argument(f.metadata["flag"], help=f.metadata["help"], **parse)


def _config(cls, args: argparse.Namespace):
    """``cls`` from the parsed flags of its fields, read by argparse dest; a
    field whose flag the subcommand lacks keeps its default."""
    values = {}
    for f, kind in _fields(cls):
        if dataclasses.is_dataclass(kind):
            values[f.name] = _config(kind, args)
        elif f.metadata.get("flag"):
            value = getattr(args, f.metadata["flag"][2:].replace("-", "_"), f.default)
            values[f.name] = kind(value) if issubclass(kind, enum.Enum) else value
    return cls(**values)


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip() != ""]


# the comma-separated list flags, whose --config value may also be a JSON array
_LISTS = {"values", "records", "kinds"}
# the input paths an output path must not name
_INPUTS = ("--store", "--eval-store", "--checkpoint", "--config")


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser, by name."""
    parser = argparse.ArgumentParser(
        prog="cpes", description="Class-relevant patch embedding selection toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", help="generate a planted-signal store")
    _add_flags(p, SyntheticConfig)
    p.add_argument("--out", type=str, required=True)

    p = sub.add_parser("train", help="train the MLP head on a store")
    p.add_argument("--store", type=str, required=True)
    p.add_argument("--out", type=str, required=True, help="checkpoint path")
    p.add_argument("--log", type=str, default=None, help="training log path")
    _add_flags(p, RunConfig)

    p = sub.add_parser("eval", help="episodic evaluation of a trained head")
    p.add_argument("--store", type=str, required=True)
    p.add_argument("--checkpoint", type=str, required=True)
    p.add_argument("--out", type=str, default=None, help="report JSON path")
    _add_flags(p, RunConfig)

    p = sub.add_parser("sweep-m", help="train+eval across selection sizes")
    p.add_argument("--store", type=str, required=True)
    p.add_argument("--eval-store", type=str, default=None)
    p.add_argument("--values", type=_int_list, required=True, help="e.g. 0,2,4,8,16")
    p.add_argument("--out", type=str, default=None)
    _add_flags(p, RunConfig)

    p = sub.add_parser("sweep-distance", help="train+eval across ranking functions")
    p.add_argument("--store", type=str, required=True)
    p.add_argument("--eval-store", type=str, default=None)
    p.add_argument("--kinds", type=str, default="cos,dot,abs,sqr")
    p.add_argument("--out", type=str, default=None)
    _add_flags(p, RunConfig)

    p = sub.add_parser("export-masks", help="write selection masks for records")
    p.add_argument("--store", type=str, required=True)
    p.add_argument("--records", type=_int_list, required=True)
    _add_flags(p, RunConfig, names=("m", "distance"))
    p.add_argument("--out", type=str, required=True, help="output directory")

    p = sub.add_parser("inspect-store", help="print store header and class counts")
    p.add_argument("--store", type=str, required=True)
    for p in sub.choices.values():
        p.add_argument("--config", type=str, default=None, help="JSON file of flag defaults")
    return parser, sub.choices


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv, with a --config JSON object's entries (found by a pre-parse)
    spliced in as flags ahead of it: each gets its flag's checks, argv wins,
    and a required flag may come from the config. A list flag's array is
    passed as its items joined by commas."""
    parser, subparsers = _build_parser()
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", nargs="?")
    path = pre.parse_known_args(argv)[0].config
    subparser = subparsers.get(argv[0]) if argv else None
    if path is None or subparser is None:
        return parser.parse_args(argv)
    values = json.loads(Path(path).read_text())
    if not isinstance(values, dict):
        raise ValueError("config file must hold a JSON object")
    actions = {a.dest: a for a in subparser._actions if a.dest != "help"}
    unknown = set(values) - set(actions)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key in _LISTS & set(values):
        if isinstance(values[key], list):
            values[key] = ",".join(map(str, values[key]))
    tokens = [
        f"{actions[key].option_strings[0]}={v if isinstance(v, str) else json.dumps(v)}"
        for key, v in values.items()
        if not (v is None and actions[key].default is None)  # null keeps a null default
    ]
    return parser.parse_args(argv[:1] + tokens + argv[1:])


def _check_outputs(args, outputs: dict[str, str | None], directory: bool = False) -> None:
    """Refuse output paths before any work is done: no path flag of the
    command may be empty, each parent must be a directory, an existing path
    must not be a directory (or for an output ``directory`` must be one), and
    no output may name the file of another output or of an input path of the
    command: resolve to the same path, or be a hard link to the same existing file."""
    named = [(flag, path) for flag, path in outputs.items() if path is not None]
    inputs = [(flag, getattr(args, flag[2:].replace("-", "_"), None)) for flag in _INPUTS]
    for flag, path in named + inputs:
        if path == "":  # Path("") is the working directory
            raise FileNotFoundError(f"{flag} is an empty path")
    for flag, path in named:
        if Path(path).exists() and Path(path).is_dir() != directory:
            raise FileExistsError(f"{flag} {path} is {'not ' if directory else ''}a directory")
        if not Path(path).parent.is_dir():
            raise NotADirectoryError(f"{flag} {path}: {Path(path).parent} is not a directory")
    paths = [(flag, Path(path).resolve()) for flag, path in named + inputs if path is not None]
    for at, (flag, path) in enumerate(paths[: len(named)]):
        for other, other_path in paths[at + 1 :]:
            linked = path.exists() and other_path.exists() and path.samefile(other_path)
            if path == other_path or linked:
                raise FileExistsError(f"{flag} {named[at][1]} is the same file as {other}")


def _cmd_gen_synthetic(args) -> int:
    _check_outputs(args, {"--out": args.out})
    store = generate_synthetic(_config(SyntheticConfig, args))
    n = write_store(store, args.out)
    print(f"wrote {len(store)} records ({n} bytes) to {args.out}")
    return 0


def _cmd_train(args) -> int:
    log_path = args.out + ".log.json" if args.log is None else args.log
    _check_outputs(args, {"--out": args.out, "--log": log_path})
    store = read_store(args.store)
    cfg = _config(RunConfig, args)
    head, log = train(store, cfg)
    log_text = json.dumps(log, indent=2).encode()  # neither is placed until both are written
    write_whole({args.out: lambda fh: save_head(head, fh), log_path: lambda fh: fh.write(log_text)})
    print(f"checkpoint -> {args.out}")
    print(f"log        -> {log_path}")
    for entry in log:
        print(
            f"epoch {entry['epoch']}: loss {entry['mean_loss']:.4f} "
            f"acc {entry['mean_accuracy']:.4f}"
        )
    return 0


def _cmd_eval(args) -> int:
    _check_outputs(args, {"--out": args.out})
    store = read_store(args.store)
    cfg = _config(RunConfig, args)
    head = load_head(args.checkpoint)
    start = time.perf_counter()
    report = evaluate(head, store, cfg)
    print(
        f"accuracy {report.mean_accuracy:.4f} +/- {report.ci95_half_width:.4f} "
        f"over {len(report.per_task_accuracy)} tasks ({time.perf_counter() - start:.1f}s)"
    )
    if args.out:
        write_whole({args.out: lambda fh: fh.write(report.to_json().encode())})
        print(f"report -> {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    _check_outputs(args, {"--out": args.out})
    train_store = read_store(args.store)
    eval_store = train_store if args.eval_store is None else read_store(args.eval_store)
    if args.command == "sweep-m":
        axis, values = "m", args.values
    else:
        axis, values = "distance", [DistanceKind(tok) for tok in args.kinds.split(",") if tok]
    report = sweep(train_store, eval_store, _config(RunConfig, args), axis, values)
    print(report.table())
    if args.out:
        write_whole({args.out: lambda fh: fh.write(report.to_json().encode())})
    return 0


def _cmd_export_masks(args) -> int:
    _check_outputs(args, {"--out": args.out}, directory=True)
    store = read_store(args.store)
    for path in export_masks(store, _config(RunConfig, args), args.records, args.out):
        print(path)
    return 0


def _cmd_inspect_store(args) -> int:
    store = read_store(args.store)
    print(f"dim={store.dim_d} patches={store.patches_m} classes={store.class_count}")
    print(f"records={len(store)} ground_truth={store.planted is not None}")
    for label, idx in store.by_label.items():
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
