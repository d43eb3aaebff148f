import json
import struct

import pytest

from cpes.cli import _build_parser, _int_list, main
from cpes.store import read_store

GEN = [
    "gen-synthetic",
    "--classes", "6",
    "--records-per-class", "8",
    "--dim", "24",
    "--patches", "9",
    "--signal-patches", "3",
    "--signal-noise", "0.1",
    "--distractors", "6",
    "--distractor-noise", "0.2",
    "--seed", "5",
]

RUN = [
    "--n-way", "3",
    "--queries", "2",
    "--m", "3",
    "--epochs", "1",
    "--episodes-per-epoch", "5",
    "--hidden", "8",
]


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "store.cpem"
    assert main(GEN + ["--out", str(path)]) == 0
    return path


class TestRoundTrip:
    def test_gen_then_inspect(self, store_path, capsys):
        assert main(["inspect-store", "--store", str(store_path)]) == 0
        out = capsys.readouterr().out
        assert "dim=24 patches=9 classes=6" in out
        assert "records=48" in out
        assert read_store(store_path).ground_truth is not None

    def test_train_then_eval(self, store_path, tmp_path, capsys):
        ckpt = tmp_path / "head.cpeh"
        assert (
            main(["train", "--store", str(store_path), "--out", str(ckpt)] + RUN) == 0
        )
        log = json.loads((tmp_path / "head.cpeh.log.json").read_text())
        assert len(log) == 1 and "mean_loss" in log[0]

        report_path = tmp_path / "report.json"
        rc = main(
            ["eval", "--store", str(store_path), "--checkpoint", str(ckpt),
             "--tasks", "10", "--out", str(report_path)] + RUN
        )
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["task_count"] == 10
        assert "accuracy" in capsys.readouterr().out

    def test_sweep_m(self, store_path, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        rc = main(
            ["sweep-m", "--store", str(store_path), "--values", "0,3",
             "--tasks", "5", "--out", str(out)] + RUN
        )
        assert rc == 0
        data = json.loads(out.read_text())
        assert [p["setting"] for p in data["points"]] == ["0", "3"]

    def test_sweep_distance(self, store_path, tmp_path):
        out = tmp_path / "dist.json"
        rc = main(
            ["sweep-distance", "--store", str(store_path), "--kinds", "cos,sqr",
             "--tasks", "5", "--out", str(out)] + RUN
        )
        assert rc == 0
        data = json.loads(out.read_text())
        assert [p["setting"] for p in data["points"]] == ["cos", "sqr"]

    def test_export_masks(self, store_path, tmp_path, capsys):
        rc = main(
            ["export-masks", "--store", str(store_path), "--records", "0,1",
             "--m", "3", "--out", str(tmp_path / "masks")]
        )
        assert rc == 0
        printed = capsys.readouterr().out.splitlines()
        # 9 patches form a 3x3 grid, so both JSON and PGM masks appear
        assert len(printed) == 4
        mask = json.loads((tmp_path / "masks" / "mask_0.json").read_text())
        assert len(mask["indices"]) == 3


class TestExitCodes:
    def test_validation_error_is_2(self, store_path, tmp_path, capsys):
        rc = main(
            ["train", "--store", str(store_path), "--out", str(tmp_path / "h")]
            + RUN + ["--m", "99"]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--n-way", "--k-shot", "--queries", "--hidden"])
    def test_nonpositive_size_is_2(self, store_path, tmp_path, capsys, flag):
        rc = main(
            ["train", "--store", str(store_path), "--out", str(tmp_path / "h")]
            + RUN + [flag, "0"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_eval_nonpositive_queries_is_2(self, store_path, tmp_path, capsys):
        ckpt = tmp_path / "h.cpeh"
        assert main(["train", "--store", str(store_path), "--out", str(ckpt)] + RUN) == 0
        capsys.readouterr()
        rc = main(
            ["eval", "--store", str(store_path), "--checkpoint", str(ckpt)]
            + RUN + ["--queries", "0"]
        )
        assert rc == 2
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize(
        "flag,value,field",
        [
            ("--epochs", "-2", "epochs"),
            ("--episodes-per-epoch", "0", "episodes_per_epoch"),
            ("--lr", "nan", "learning_rate"),
            ("--lr-floor", "nan", "lr_floor"),
            ("--weight-decay", "inf", "weight_decay"),
            ("--lr", "-0.01", "learning_rate"),
            ("--lr-floor", "-0.000001", "lr_floor"),
            ("--weight-decay", "-0.01", "weight_decay"),
        ],
    )
    def test_bad_train_setting_is_2(self, store_path, tmp_path, capsys, flag, value, field):
        ckpt = tmp_path / "h.cpeh"
        rc = main(["train", "--store", str(store_path), "--out", str(ckpt)] + RUN + [flag, value])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert field in err
        assert not ckpt.exists()

    def test_eval_zero_tasks_is_2(self, store_path, tmp_path, capsys):
        ckpt = tmp_path / "h.cpeh"
        assert main(["train", "--store", str(store_path), "--out", str(ckpt)] + RUN) == 0
        capsys.readouterr()
        report = tmp_path / "report.json"
        rc = main(
            ["eval", "--store", str(store_path), "--checkpoint", str(ckpt), "--out", str(report)]
            + RUN + ["--tasks", "0"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "eval_tasks" in err
        assert not report.exists()

    @pytest.mark.parametrize("damage", ["nan weight", "trailing byte"])
    def test_bad_checkpoint_is_3(self, store_path, tmp_path, capsys, damage):
        ckpt = tmp_path / "h.cpeh"
        assert main(["train", "--store", str(store_path), "--out", str(ckpt)] + RUN) == 0
        data = bytearray(ckpt.read_bytes())
        if damage == "nan weight":
            data[14:22] = struct.pack("<d", float("nan"))  # first W1 entry
        else:
            data += b"\x00"
        ckpt.write_bytes(bytes(data))
        capsys.readouterr()
        rc = main(
            ["eval", "--store", str(store_path), "--checkpoint", str(ckpt), "--tasks", "2"] + RUN
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--signal-noise", "nan", "signal_noise must be finite and >= 0"),
            ("--distractor-noise", "nan", "distractor_noise must be finite and >= 0"),
            ("--signal-noise", "inf", "signal_noise must be finite and >= 0"),
            ("--classes", "0", "class_count must be >= 1"),
            ("--records-per-class", "0", "records_per_class must be >= 1"),
            ("--dim", "0", "dim must be >= 1"),
            ("--patches", "0", "patches must be >= 1"),
            ("--distractors", "0", "distractor_pool_size must be >= 1, got 0"),
        ],
    )
    def test_bad_synthetic_setting_is_2(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "s.cpem"
        assert main(GEN + ["--out", str(out), flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert message in err
        assert not out.exists()

    def test_negative_distractor_pool_is_2(self, tmp_path, capsys):
        """All 9 patches are signal, so no distractor is drawn, but a
        negative pool is still rejected."""
        out = tmp_path / "s.cpem"
        argv = GEN + ["--out", str(out), "--signal-patches", "9", "--distractors", "-3"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: distractor_pool_size must be >= 0, got -3\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--k-shot", "--queries"])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_oversized_episode_is_2(self, store_path, tmp_path, capsys, command, flag):
        ckpt = tmp_path / "h.cpeh"
        assert main(["train", "--store", str(store_path), "--out", str(ckpt)] + RUN) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        target = ["--checkpoint", str(ckpt), "--tasks", "2"] if command == "eval" else []
        argv = [command, "--store", str(store_path), "--out", str(out)] + target + RUN
        assert main(argv + [flag, "1000000000000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "records, need 1000000000" in err
        assert not out.exists()

    def test_unallocatable_head_is_2(self, store_path, tmp_path, capsys):
        ckpt = tmp_path / "h.cpeh"
        argv = ["train", "--store", str(store_path), "--out", str(ckpt)] + RUN
        assert main(argv + ["--hidden", "1000000000000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert not ckpt.exists()

    def test_unallocatable_store_is_2(self, tmp_path, capsys):
        out = tmp_path / "s.cpem"
        assert main(GEN + ["--out", str(out), "--records-per-class", "10000000000000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_negative_m_is_2(self, store_path, tmp_path, capsys):
        ckpt = tmp_path / "h.cpeh"
        rc = main(["train", "--store", str(store_path), "--out", str(ckpt)] + RUN + ["--m", "-1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: m must be in [0, 9], got -1\n"
        assert not ckpt.exists()

    def test_unknown_record_writes_no_mask(self, store_path, tmp_path, capsys):
        out = tmp_path / "masks"
        rc = main(
            ["export-masks", "--store", str(store_path), "--records", "0,99999",
             "--m", "3", "--out", str(out)]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "99999" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,flag,value,axis",
        [("sweep-m", "--values", "", "m"), ("sweep-distance", "--kinds", ",", "distance")],
    )
    def test_empty_sweep_is_2(self, store_path, capsys, command, flag, value, axis):
        assert main([command, "--store", str(store_path), flag, value] + RUN) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert f"no {axis} values" in err

    @pytest.mark.parametrize("input_dim,hidden", [(9, 0), (0, 8)])
    def test_zero_sized_checkpoint_is_3(self, store_path, tmp_path, capsys, input_dim, hidden):
        floats = 3 * (hidden * (input_dim + 2) + 1)  # three groups: W1, b1, W2, b2
        ckpt = tmp_path / "h.cpeh"
        header = b"CPEH" + struct.pack("<HII", 1, input_dim, hidden)
        ckpt.write_bytes(header + bytes(8 * floats) + struct.pack("<Q", 0))
        rc = main(
            ["eval", "--store", str(store_path), "--checkpoint", str(ckpt), "--tasks", "2"] + RUN
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_out_of_range_label_is_3(self, store_path, tmp_path):
        data = bytearray(store_path.read_bytes())
        data[28 + 8 : 28 + 12] = struct.pack("<I", 6)  # first record's label; 6 classes
        bad = tmp_path / "bad_label.cpem"
        bad.write_bytes(bytes(data))
        assert main(["inspect-store", "--store", str(bad)]) == 3

    def test_missing_file_is_3(self, tmp_path, capsys):
        rc = main(["inspect-store", "--store", str(tmp_path / "nope.cpem")])
        assert rc == 3

    def test_corrupt_file_is_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.cpem"
        bad.write_bytes(b"NOPE" + b"\x00" * 40)
        assert main(["inspect-store", "--store", str(bad)]) == 3

    def test_config_flag_without_value_is_argparse_error(self, store_path, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--store", str(store_path), "--out", str(tmp_path / "h"), "--config"])
        assert exc.value.code == 2

    def test_argparse_rejects_unknown_flag(self, store_path):
        with pytest.raises(SystemExit) as exc:
            main(["inspect-store", "--store", str(store_path), "--bogus"])
        assert exc.value.code == 2


class TestConfigFile:
    def test_config_supplies_defaults(self, store_path, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n_way": 3, "queries": 2, "m": 3, "epochs": 1,
                                   "episodes_per_epoch": 4, "hidden": 8,
                                   "tasks": 6}))
        ckpt = tmp_path / "h.cpeh"
        rc = main(["train", "--store", str(store_path), "--out", str(ckpt),
                   "--config", str(cfg)])
        assert rc == 0

        rc = main(["eval", "--store", str(store_path), "--checkpoint", str(ckpt),
                   "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        assert rc == 0
        assert json.loads((tmp_path / "r.json").read_text())["task_count"] == 6

    def test_explicit_flag_overrides_config(self, store_path, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"tasks": 6, "n_way": 3, "queries": 2, "m": 3,
                                   "hidden": 8, "epochs": 1,
                                   "episodes_per_epoch": 4}))
        ckpt = tmp_path / "h.cpeh"
        main(["train", "--store", str(store_path), "--out", str(ckpt),
              "--config", str(cfg)])
        rc = main(["eval", "--store", str(store_path), "--checkpoint", str(ckpt),
                   "--config", str(cfg), "--tasks", "4",
                   "--out", str(tmp_path / "r.json")])
        assert rc == 0
        assert json.loads((tmp_path / "r.json").read_text())["task_count"] == 4

    def test_unknown_config_key_is_2(self, store_path, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"warp_factor": 9}))
        rc = main(["inspect-store", "--store", str(store_path),
                   "--config", str(cfg)])
        assert rc == 2
        assert "warp_factor" in capsys.readouterr().err


# every numeric flag of every subcommand is set, one at a time, to each of these
FUZZ_VALUES = ["0", "-1", "nan", "inf", "1000000000000", "", "x"]
# counts that only make a loop longer: valid at any size, so never set huge
LOOP_COUNTS = {"--tasks", "--epochs", "--episodes-per-epoch"}


def fuzz_base(command, store, checkpoint, out):
    """Small valid argv for ``command``, writing whatever it writes to ``out``."""
    run = ["--store", str(store), "--out", str(out)]
    return {
        "gen-synthetic": GEN + ["--out", str(out)],
        "train": ["train"] + run + RUN,
        "eval": ["eval", "--checkpoint", str(checkpoint), "--tasks", "4"] + run + RUN,
        "sweep-m": ["sweep-m", "--values", "0,3", "--tasks", "2"] + run + RUN,
        "sweep-distance": ["sweep-distance", "--kinds", "cos,sqr", "--tasks", "2"] + run + RUN,
        "export-masks": ["export-masks", "--records", "0,1", "--m", "3"] + run,
        "inspect-store": ["inspect-store", "--store", str(store)],
    }[command]


def numeric_flags(command):
    _, subparsers = _build_parser()
    return [
        action.option_strings[0]
        for action in subparsers[command]._actions
        if action.type in (int, float, _int_list)
    ]


class TestFuzz:
    @pytest.mark.parametrize("command", sorted(_build_parser()[1]))
    def test_every_numeric_flag(self, store_path, tmp_path, capsys, command):
        """Exit 0, 2 or 3; a cpes failure prints one ``error:`` line and no
        traceback, and leaves no output behind."""
        checkpoint = tmp_path / "h.cpeh"
        assert main(fuzz_base("train", store_path, None, checkpoint)) == 0
        cases = [[]] + [
            [flag, value]
            for flag in numeric_flags(command)
            for value in FUZZ_VALUES
            if not (flag in LOOP_COUNTS and value == "1000000000000")
        ]
        findings = []
        for n, case in enumerate(cases):
            work = tmp_path / f"case{n}"
            work.mkdir()
            capsys.readouterr()
            try:
                rc = main(fuzz_base(command, store_path, checkpoint, work / "out") + case)
                parsed = True
            except SystemExit as exc:  # argparse's own rejection
                rc, parsed = exc.code, False
            err = capsys.readouterr().err
            one_line = err.startswith("error:") and len(err.splitlines()) == 1
            if rc not in (0, 2, 3) or (not case and rc != 0):
                findings.append(f"{case}: exit {rc}")
            elif rc != 0 and parsed and not one_line:
                findings.append(f"{case}: stderr {err!r}")
            elif rc != 0 and any(work.iterdir()):
                findings.append(f"{case}: left {sorted(p.name for p in work.iterdir())}")
        assert not findings
