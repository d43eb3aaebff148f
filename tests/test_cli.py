import json
import struct

import pytest

from cpes.cli import main
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
        ],
    )
    def test_bad_synthetic_setting_is_2(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "s.cpem"
        assert main(GEN + ["--out", str(out), flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert message in err
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
