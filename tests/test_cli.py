import argparse
import json
import os
import stat
import struct
from pathlib import Path

import numpy as np
import pytest

from cpes import cli, harness
from cpes.cli import _build_parser, _config, _int_list, main
from cpes.harness import RunConfig
from cpes.numerics import BLOCK_VALUES
from cpes.scoring import MlpHead, save_head
from cpes.store import SyntheticConfig, read_store, write_store
from conftest import fail_score_blocks
from oracles import split_state, store_from_records
from test_selection import SHORT_LAST_BLOCK, random_store

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
        assert read_store(store_path).planted is not None

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

    def test_eval_report_echoes_the_checkpoint_hidden_dim(self, store_path, tmp_path):
        ckpt, report = tmp_path / "head.cpeh", tmp_path / "report.json"
        assert main(["train", "--store", str(store_path), "--out", str(ckpt)] + RUN) == 0
        assert RUN[-2:] == ["--hidden", "8"]
        rc = main(
            ["eval", "--store", str(store_path), "--checkpoint", str(ckpt),
             "--tasks", "2", "--out", str(report)] + RUN[:-2]
        )
        assert rc == 0
        assert json.loads(report.read_text())["config"]["hidden_dim"] == 8

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

    def test_export_masks_writes_each_record_once(self, store_path, tmp_path, capsys):
        out = tmp_path / "masks"
        rc = main(
            ["export-masks", "--store", str(store_path), "--records", "1,0,1,0",
             "--m", "3", "--out", str(out)]
        )
        assert rc == 0
        printed = [Path(line).name for line in capsys.readouterr().out.splitlines()]
        assert printed == ["mask_1.json", "mask_1.pgm", "mask_0.json", "mask_0.pgm"]
        assert sorted(p.name for p in out.iterdir()) == sorted(printed)


class TestExitCodes:
    def test_validation_error_is_2(self, store_path, tmp_path, capsys):
        """m above M is refused by resolve_m, not by a numpy error in selection."""
        ckpt = tmp_path / "h"
        rc = main(["train", "--store", str(store_path), "--out", str(ckpt)] + RUN + ["--m", "10"])
        assert rc == 2
        assert capsys.readouterr().err == "error: m must be in [0, 9], got 10\n"
        assert not ckpt.exists()

    @pytest.mark.parametrize("flag", ["--n-way", "--k-shot", "--queries", "--hidden"])
    def test_nonpositive_size_is_2(self, store_path, tmp_path, capsys, flag):
        """Each is refused by its declared least value, before any episode."""
        field = {"--n-way": "n_way", "--k-shot": "k_shot", "--queries": "queries_per_class",
                 "--hidden": "hidden_dim"}[flag]
        rc = main(
            ["train", "--store", str(store_path), "--out", str(tmp_path / "h")]
            + RUN + [flag, "0"]
        )
        assert rc == 2
        assert capsys.readouterr().err == f"error: {field} must be >= 1, got 0\n"

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

    @pytest.mark.parametrize(
        "flags",
        [
            ["--lr", "1e12"],
            ["--weight-decay", "1e12"],
            ["--lr", "1e300", "--weight-decay", "0"],
        ],
    )
    def test_overflowing_optimizer_settings_is_2(self, store_path, tmp_path, capsys, flags):
        """Each overflows the head within 20 steps: one error line naming
        the settings and the step, where numpy's warnings came first."""
        ckpt = tmp_path / "h.cpeh"
        argv = ["train", "--store", str(store_path), "--out", str(ckpt)] + RUN
        assert main(argv + ["--episodes-per-epoch", "40"] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: optimizer settings overflow the head at step ")
        assert len(err.splitlines()) == 1
        assert all(name in err for name in ("learning_rate", "lr_floor", "weight_decay"))
        assert not ckpt.exists()

    @pytest.mark.parametrize(
        "flags", [["--lr-floor", "0.01"], ["--lr-floor", "1e12"], ["--lr", "0"]]
    )
    def test_lr_floor_above_cosine_lr_is_2(self, store_path, tmp_path, capsys, flags):
        """The cosine schedule decays from learning_rate to lr_floor: a floor
        above it made the rate climb, and --lr-floor 0.01 trained with exit 0.
        It is rejected before the head is initialised."""
        ckpt = tmp_path / "h.cpeh"
        argv = ["train", "--store", str(store_path), "--out", str(ckpt)] + RUN
        assert main(argv + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: lr_floor ") and len(err.splitlines()) == 1
        assert all(name in err for name in ("lr_floor", "learning_rate", "cosine"))
        assert not ckpt.exists()
        # the constant schedule never reads the floor
        assert main(argv + flags + ["--schedule", "constant"]) == 0

    def test_train_on_empty_store_with_ground_truth_is_2(self, tmp_path, capsys):
        """No records, so no planted counts: m falls back to min(96, M), and
        the episode sampler rejects the store in one line."""
        empty = tmp_path / "empty.cpem"
        write_store(store_from_records(2, 3, 5, [], []), empty)
        assert read_store(empty).planted.shape == (0, 3)
        ckpt = tmp_path / "h.cpeh"
        assert main(["train", "--store", str(empty), "--out", str(ckpt)]) == 2
        assert capsys.readouterr().err == "error: need 5 classes, store has 0\n"
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

    def test_eval_checkpoint_at_another_m_is_2(self, store_path, tmp_path, capsys):
        """A head trained at m=3 takes 3 x 3 score matrices, so eval at m=2
        is refused by evaluate's head-size check, not by a numpy error."""
        ckpt, report = tmp_path / "h.cpeh", tmp_path / "report.json"
        assert main(["train", "--store", str(store_path), "--out", str(ckpt)] + RUN) == 0
        capsys.readouterr()
        argv = ["eval", "--store", str(store_path), "--checkpoint", str(ckpt), "--tasks", "2",
                "--out", str(report)]
        assert main(argv + RUN + ["--m", "2"]) == 2
        err = capsys.readouterr().err
        assert err == "error: head input dim 9 does not match m=2 (expected 4)\n"
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

    @pytest.mark.parametrize("row", [0, 1, 2])
    def test_non_finite_state_at_block_edges_is_3(self, store_path, tmp_path, capsys, row):
        """A checkpoint of six blocks of state values (P = 131201 a row) with a
        NaN, +inf or -inf at a block's first or last value, or at the state's
        last, in the parameter row or either moment row: exit 3 and the one
        message for a non-finite state."""
        head, ckpt = MlpHead.initialize(2048, 64, split_state(0, 2)), tmp_path / "h.cpeh"
        size = head.flat.size
        edges = {at for start in range(0, 3 * size, BLOCK_VALUES) for at in (start - 1, start)}
        for at in sorted(at for at in edges | {3 * size - 1} if at // size == row):
            for value in (np.nan, np.inf, -np.inf):
                state = head.state.copy()
                state.flat[at] = value
                save_head(MlpHead(head.input_dim, head.hidden_dim, state, head.step), ckpt)
                argv = ["eval", "--store", str(store_path), "--checkpoint", str(ckpt), *RUN]
                assert main(argv) == 3
                message = "error: checkpoint contains NaN/Inf parameters or moments\n"
                assert capsys.readouterr().err == message

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

    @pytest.mark.parametrize("signal", ["0", "10"])
    def test_signal_patches_out_of_range_is_2(self, tmp_path, capsys, signal):
        """GEN's records have 9 patches: a record plants at least one signal
        patch and at most all of them."""
        out = tmp_path / "s.cpem"
        assert main(GEN + ["--out", str(out), "--signal-patches", signal]) == 2
        assert capsys.readouterr().err == "error: signal_patches must be in [1, patches]\n"
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

    @pytest.mark.parametrize(
        "patches,signal,message",
        [
            ("70000", "70000", "--patches must be <= 65536, got 70000"),
            ("70000", "1", "--patches must be <= 65536, got 70000"),
            ("65537", "1", "--patches must be <= 65536, got 65537"),
            ("65536", "65536", "--signal-patches must be <= 65535, got 65536"),
        ],
    )
    def test_ground_truth_wider_than_u16_is_2(self, tmp_path, capsys, patches, signal, message):
        """CPEM stores each record's planted count and indices as u16: a
        store that cannot hold them is rejected before any draw."""
        out = tmp_path / "s.cpem"
        argv = ["gen-synthetic", "--classes", "1", "--records-per-class", "1", "--dim", "2",
                "--distractors", "1", "--out", str(out)]
        assert main(argv + ["--patches", patches, "--signal-patches", signal]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_ground_truth_at_u16_width_round_trips(self, tmp_path):
        out = tmp_path / "s.cpem"
        argv = ["gen-synthetic", "--classes", "1", "--records-per-class", "1", "--dim", "2",
                "--distractors", "1", "--patches", "65536", "--signal-patches", "65535"]
        assert main(argv + ["--out", str(out)]) == 0
        planted = read_store(out).planted
        assert planted.shape == (1, 65536) and planted.sum() == 65535

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

    @pytest.mark.parametrize("records", ["", ","])
    def test_empty_records_is_2(self, store_path, tmp_path, capsys, records):
        out = tmp_path / "masks"
        argv = ["export-masks", "--store", str(store_path), "--m", "3", "--out", str(out)]
        assert main(argv + ["--records", records]) == 2
        assert capsys.readouterr().err == "error: no record ids to export\n"
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "flags,dim,named,valid", [(0, 0, "dim_d 0", "flags"), (5, 24, "flags 0x5", "dim_d")]
    )
    def test_undefined_store_header_is_3(self, tmp_path, capsys, flags, dim, named, valid):
        """A store with no embedding dimension trained and evaluated to exactly
        chance, and undefined flag bits were ignored."""
        header = b"CPEM" + struct.pack("<HHIIIQ", 1, flags, dim, 9, 4, 40)
        records = b"".join(struct.pack("<QI", i, i % 4) + bytes(4 * dim * 10) for i in range(40))
        planted = struct.pack("<HH", 1, 0) * 40 if flags & 1 else b""
        bad = tmp_path / "bad_header.cpem"
        bad.write_bytes(header + records + planted)
        rc = main(["train", "--store", str(bad), "--out", str(tmp_path / "h.cpeh")] + RUN)
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        # the line names the field at fault, not the valid one
        assert named in err and valid not in err
        assert not (tmp_path / "h.cpeh").exists()

    def test_failing_score_worker_is_2(self, tmp_path, capsys, monkeypatch, score_threads):
        """At m = M, an episode of 2 x 70 queries is shared out on two
        threads, a class at a time: each class's queries span two blocks,
        and the pool gets a share of each class."""
        store, checkpoint = tmp_path / "s.cpem", tmp_path / "h.cpeh"
        write_store(random_store(*SHORT_LAST_BLOCK, seed=18), store)
        save_head(MlpHead.initialize(16 * 16, 8, split_state(0, 2)), checkpoint)
        pool = score_threads(2)
        fail_score_blocks(monkeypatch, "worker")
        rc = main(["eval", "--store", str(store), "--checkpoint", str(checkpoint), "--n-way", "2",
                   "--queries", "70", "--m", "16", "--tasks", "2"])
        assert rc == 2
        assert capsys.readouterr().err == "error: MemoryError\n"
        # task 0's shares raised while task 1's were started: a share of each class of each
        assert len(pool.futures) == 4 and all(future.done() for future in pool.futures)

    def test_failing_score_worker_in_train_is_2(self, tmp_path, capsys, monkeypatch, score_threads):
        """train's first step fails while its second's blocks are started:
        exit 2, no checkpoint, and no share left running."""
        store, checkpoint = tmp_path / "s.cpem", tmp_path / "h.cpeh"
        write_store(random_store(*SHORT_LAST_BLOCK, seed=18), store)
        pool = score_threads(2)
        fail_score_blocks(monkeypatch, "worker")
        rc = main(["train", "--store", str(store), "--out", str(checkpoint), "--n-way", "2",
                   "--queries", "70", "--m", "16", "--epochs", "1", "--episodes-per-epoch", "3"])
        assert rc == 2
        assert capsys.readouterr().err == "error: MemoryError\n"
        assert not checkpoint.exists()
        assert len(pool.futures) == 4 and all(future.done() for future in pool.futures)

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

    def test_config_names_required_flags(self, store_path, tmp_path):
        """A config may name the flags a subcommand requires; the run it
        gives writes what the same flags on the command line write."""
        run = {"n_way": 3, "queries": 2, "m": 3, "epochs": 1, "episodes_per_epoch": 5,
               "hidden": 8, "tasks": 4}
        flagged, configured = tmp_path / "flagged", tmp_path / "configured"
        for out in (flagged, configured):
            out.mkdir()
        argv = ["--store", str(store_path)] + RUN + ["--tasks", "4"]
        assert main(["train", "--out", str(flagged / "h.cpeh")] + argv) == 0
        assert main(["eval", "--checkpoint", str(flagged / "h.cpeh"),
                     "--out", str(flagged / "r.json")] + argv) == 0
        train_cfg, eval_cfg = tmp_path / "train.json", tmp_path / "eval.json"
        ckpt = str(configured / "h.cpeh")
        train_cfg.write_text(json.dumps({"store": str(store_path), "out": ckpt, **run}))
        eval_cfg.write_text(json.dumps({"store": str(store_path), "checkpoint": ckpt,
                                        "out": str(configured / "r.json"), **run}))
        assert main(["train", "--config", str(train_cfg)]) == 0
        assert main(["eval", "--config", str(eval_cfg)]) == 0
        for name in ("h.cpeh", "h.cpeh.log.json", "r.json"):
            assert (configured / name).read_bytes() == (flagged / name).read_bytes()

    @pytest.mark.parametrize(
        "command,values,flag",
        [
            ("train", {"m": 2.5}, "--m"),
            ("train", {"hidden": 8.0}, "--hidden"),
            ("train", {"n_way": True}, "--n-way"),
            ("train", {"seed": 1.5}, "--seed"),
            ("train", {"lr": [1]}, "--lr"),
            ("train", {"m": [0, 4]}, "--m"),
            ("train", {"distance": ["cos"]}, "--distance"),
            ("train", {"epochs": None}, "--epochs"),
            ("gen-synthetic", {"classes": 3.0}, "--classes"),
        ],
    )
    def test_wrong_json_type_fails_as_its_flag(
        self, store_path, tmp_path, capsys, command, values, flag
    ):
        """A config value goes through its flag's own type check, so it
        fails as the same value would on the command line."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(values))
        out = tmp_path / "out"
        store = ["--store", str(store_path)] if command == "train" else []
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", str(out), "--config", str(cfg)] + store)
        assert exc.value.code == 2
        assert f"argument {flag}: invalid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,flag,array",
        [("sweep-m", "--values", [0, 3]), ("sweep-distance", "--kinds", ["cos", "sqr"]),
         ("export-masks", "--records", [0, 1])],
    )
    def test_list_flag_takes_a_json_array(self, store_path, tmp_path, command, flag, array):
        """A JSON array for a comma-separated list flag stands for its items
        joined by commas: the run writes what the flag's string writes."""
        flagged, configured = tmp_path / "flagged", tmp_path / "configured"
        argv = fuzz_base(command, store_path, None, flagged)
        assert ",".join(map(str, array)) == argv[argv.index(flag) + 1]
        assert main(argv) == 0
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({flag[2:]: array}))
        argv = fuzz_base(command, store_path, None, configured)
        at = argv.index(flag)
        assert main(argv[:at] + argv[at + 2 :] + ["--config", str(cfg)]) == 0

        def written(out: Path):  # a report's bytes, or the masks' by name
            if out.is_dir():
                return {p.name: p.read_bytes() for p in out.iterdir()}
            return out.read_bytes()

        assert written(configured) == written(flagged)

    def test_null_keeps_a_null_default(self, store_path, tmp_path):
        """null stands for a flag left out, where the flag's default is null."""
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"m": None, "log": None, "n_way": 3, "queries": 2,
                                   "epochs": 1, "episodes_per_epoch": 2, "hidden": 8}))
        ckpt = tmp_path / "h.cpeh"
        argv = ["train", "--store", str(store_path), "--out", str(ckpt), "--config", str(cfg)]
        assert main(argv) == 0
        assert (tmp_path / "h.cpeh.log.json").exists()

    def test_unknown_config_key_is_2(self, store_path, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"warp_factor": 9}))
        rc = main(["inspect-store", "--store", str(store_path),
                   "--config", str(cfg)])
        assert rc == 2
        assert "warp_factor" in capsys.readouterr().err


# per argparse dest, which is also the --config key: option strings, default,
# type, choices and whether it is required
COMMON_SURFACE = {
    "help": (("-h", "--help"), argparse.SUPPRESS, None, None, False),
    "config": (("--config",), None, str, None, False),
}
RUN_SURFACE = {
    "n_way": (("--n-way",), 5, int, None, False),
    "k_shot": (("--k-shot",), 1, int, None, False),
    "queries": (("--queries",), 15, int, None, False),
    "m": (("--m",), None, int, None, False),
    "distance": (("--distance",), "cos", None, ["cos", "dot", "abs", "sqr"], False),
    "tasks": (("--tasks",), 1000, int, None, False),
    "epochs": (("--epochs",), 3, int, None, False),
    "episodes_per_epoch": (("--episodes-per-epoch",), 50, int, None, False),
    "seed": (("--seed",), 0, int, None, False),
    "hidden": (("--hidden",), 64, int, None, False),
    "lr": (("--lr",), 1e-3, float, None, False),
    "lr_floor": (("--lr-floor",), 1e-6, float, None, False),
    "weight_decay": (("--weight-decay",), 0.01, float, None, False),
    "schedule": (("--schedule",), "cosine", None, ["constant", "cosine"], False),
}
STORE = {"store": (("--store",), None, str, None, True)}
EVAL_STORE = {"eval_store": (("--eval-store",), None, str, None, False)}
SURFACE = {
    "gen-synthetic": {
        "classes": (("--classes",), 20, int, None, False),
        "records_per_class": (("--records-per-class",), 30, int, None, False),
        "dim": (("--dim",), 32, int, None, False),
        "patches": (("--patches",), 16, int, None, False),
        "signal_patches": (("--signal-patches",), 4, int, None, False),
        "signal_noise": (("--signal-noise",), 0.3, float, None, False),
        "distractors": (("--distractors",), 8, int, None, False),
        "distractor_noise": (("--distractor-noise",), 0.3, float, None, False),
        "seed": (("--seed",), 0, int, None, False),
        "out": (("--out",), None, str, None, True),
    },
    "train": {
        **STORE,
        "out": (("--out",), None, str, None, True),
        "log": (("--log",), None, str, None, False),
        **RUN_SURFACE,
    },
    "eval": {
        **STORE,
        "checkpoint": (("--checkpoint",), None, str, None, True),
        "out": (("--out",), None, str, None, False),
        **RUN_SURFACE,
    },
    "sweep-m": {
        **STORE,
        **EVAL_STORE,
        "values": (("--values",), None, _int_list, None, True),
        "out": (("--out",), None, str, None, False),
        **RUN_SURFACE,
    },
    "sweep-distance": {
        **STORE,
        **EVAL_STORE,
        "kinds": (("--kinds",), "cos,dot,abs,sqr", str, None, False),
        "out": (("--out",), None, str, None, False),
        **RUN_SURFACE,
    },
    "export-masks": {
        **STORE,
        "records": (("--records",), None, _int_list, None, True),
        "m": RUN_SURFACE["m"],
        "distance": RUN_SURFACE["distance"],
        "out": (("--out",), None, str, None, True),
    },
    "inspect-store": STORE,
}
# the fewest flags each subcommand that builds a config parses
MINIMAL_ARGV = {
    "gen-synthetic": ["--out", "s.cpem"],
    "train": ["--store", "s.cpem", "--out", "h.cpeh"],
    "eval": ["--store", "s.cpem", "--checkpoint", "h.cpeh"],
    "sweep-m": ["--store", "s.cpem", "--values", "0,4"],
    "sweep-distance": ["--store", "s.cpem"],
    "export-masks": ["--store", "s.cpem", "--records", "0", "--out", "masks"],
}


class TestSurface:
    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_every_action_pinned(self, command):
        """Renaming a flag's dest would silently rename a --config key."""
        _, subparsers = _build_parser()
        assert sorted(subparsers) == sorted(SURFACE)
        actions = subparsers[command]._actions
        got = {
            a.dest: (tuple(a.option_strings), a.default, a.type, a.choices, a.required)
            for a in actions
        }
        assert len(got) == len(actions)
        assert got == {**COMMON_SURFACE, **SURFACE[command]}

    @pytest.mark.parametrize("command", sorted(MINIMAL_ARGV))
    def test_parsed_defaults_build_default_configs(self, command):
        parser, _ = _build_parser()
        args = parser.parse_args([command] + MINIMAL_ARGV[command])
        if command == "gen-synthetic":
            assert _config(SyntheticConfig, args) == SyntheticConfig()
        else:
            assert _config(RunConfig, args) == RunConfig()


# every numeric flag of every subcommand is set, one at a time, to each of these
FUZZ_VALUES = ["0", "-1", "nan", "inf", "1000000000000", "", "x"]
# counts that only make a loop longer: valid at any size, so never set huge
LOOP_COUNTS = {"--tasks", "--epochs", "--episodes-per-epoch"}
# every flag naming a path, and those naming an output
PATH_FLAGS = ("--store", "--eval-store", "--checkpoint", "--config", "--out", "--log")
OUTPUTS = ("--out", "--log")


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

    @pytest.mark.parametrize("command", sorted(_build_parser()[1]))
    def test_every_path_flag(self, store_path, tmp_path, capsys, monkeypatch, command):
        """Each path flag set, one at a time, to a path that fails whoever runs
        the suite: a path under a regular file, an existing directory, an
        empty string, or (an input) a missing file. Each exits 2 or 3 with one
        ``error:`` line and no traceback, and leaves nothing in the working
        directory, in its work directory or in the planted directory."""
        checkpoint = tmp_path / "h.cpeh"
        assert main(fuzz_base("train", store_path, None, checkpoint)) == 0
        planted = tmp_path / "planted"
        planted.mkdir()
        (tmp_path / "file").write_text("")
        _, subparsers = _build_parser()
        flags = [a.option_strings[0] for a in subparsers[command]._actions
                 if a.option_strings and a.option_strings[0] in PATH_FLAGS]
        values = {"under-file": str(tmp_path / "file" / "x"), "directory": str(planted),
                  "empty": "", "missing": "missing"}
        findings = []
        for flag in flags:
            for name, value in values.items():
                # an output may be missing, and export-masks' --out may be a directory
                may_name = flag in OUTPUTS and name == "missing"
                if may_name or (command, flag, name) == ("export-masks", "--out", "directory"):
                    continue
                work = tmp_path / f"{flag[2:]}-{name}"
                work.mkdir()
                monkeypatch.chdir(work)
                capsys.readouterr()
                try:
                    rc = main(fuzz_base(command, store_path, checkpoint, "out") + [flag, value])
                except SystemExit as exc:
                    rc = f"SystemExit {exc.code}"
                err = capsys.readouterr().err
                case = f"{flag} {name}"
                if rc not in (2, 3):
                    findings.append(f"{case}: exit {rc}")
                elif not (err.startswith("error:") and len(err.splitlines()) == 1):
                    findings.append(f"{case}: stderr {err!r}")
                elif left := sorted(work.iterdir()) + sorted(planted.iterdir()):
                    findings.append(f"{case}: left {left}")
        assert flags and not findings


# an output flag, and another path flag of the same command naming the same file
COLLISIONS = [
    ("train", "--log", "--out"),
    ("train", "--out", "--store"),
    ("train", "--log", "--config"),
    ("eval", "--out", "--checkpoint"),
    ("sweep-m", "--out", "--eval-store"),
    ("gen-synthetic", "--out", "--config"),
]

# every flag naming an output file, by command
OUTPUT_FLAGS = [
    ("train", "--out"), ("train", "--log"), ("eval", "--out"),
    ("sweep-m", "--out"), ("sweep-distance", "--out"),
]


def count_work(monkeypatch) -> dict:
    """Count the calls, by name, of what a command does its work with:
    reading a store, training and evaluating (a sweep's included)."""
    calls = {"read_store": 0, "train": 0, "evaluate": 0}
    for module, name in ((cli, "read_store"), (cli, "train"), (cli, "evaluate"),
                         (harness, "train"), (harness, "evaluate")):

        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


class TestOutputPaths:
    @pytest.mark.parametrize("bad", ["missing-directory", "directory"])
    @pytest.mark.parametrize("command,flag", OUTPUT_FLAGS)
    def test_bad_output_path_is_3_before_any_work(
        self, store_path, tmp_path, capsys, monkeypatch, command, flag, bad
    ):
        """Exit 3 with one line naming the flag; no store read, no train or
        evaluate call, and no file written. The same argv with a good path
        does the work, so the counts would see it."""
        checkpoint = tmp_path / "h.cpeh"
        assert main(fuzz_base("train", store_path, None, checkpoint)) == 0
        work = tmp_path / "work"
        work.mkdir()
        path = work / "none" / "out.json" if bad == "missing-directory" else work / "dir"
        if bad == "directory":
            path.mkdir()
        argv = fuzz_base(command, store_path, checkpoint, work / "out")
        calls = count_work(monkeypatch)
        capsys.readouterr()
        assert main(argv + [flag, str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} {path}") and len(err.splitlines()) == 1
        assert calls == {"read_store": 0, "train": 0, "evaluate": 0}
        assert [p.name for p in work.iterdir()] == ([] if bad == "missing-directory" else ["dir"])
        assert main(argv) == 0
        assert calls["read_store"] and calls["train"] + calls["evaluate"]

    @pytest.mark.parametrize("bad", ["missing-parent", "file"])
    def test_bad_mask_directory_is_3_before_any_work(
        self, store_path, tmp_path, capsys, monkeypatch, bad
    ):
        """export-masks' --out is a directory it creates, but only inside one
        that exists, and never over a file: either is refused with one line
        naming --out, before the store is read, and nothing is created."""
        work = tmp_path / "work"
        work.mkdir()
        path = work / "none" / "masks" if bad == "missing-parent" else work / "file"
        if bad == "file":
            path.write_text("")
        argv = fuzz_base("export-masks", store_path, None, work / "masks")
        calls = count_work(monkeypatch)
        assert main(argv + ["--out", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {path}") and len(err.splitlines()) == 1
        assert calls["read_store"] == 0
        assert [p.name for p in work.iterdir()] == ([] if bad == "missing-parent" else ["file"])
        assert main(argv) == 0
        assert calls["read_store"] == 1 and (work / "masks" / "mask_0.json").exists()

    @pytest.mark.parametrize("bad", ["missing-directory", "directory"])
    def test_bad_store_path_is_3_before_generating(self, tmp_path, capsys, monkeypatch, bad):
        """gen-synthetic's --out is refused, naming the flag, before any
        record is drawn."""
        path = tmp_path / "none" / "s.cpem" if bad == "missing-directory" else tmp_path
        generated = []
        monkeypatch.setattr(cli, "generate_synthetic", lambda cfg: generated.append(cfg))
        assert main(GEN + ["--out", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {path}") and len(err.splitlines()) == 1
        assert generated == [] and not (tmp_path / "none").exists()

    @pytest.mark.parametrize("command,flag,other", COLLISIONS)
    def test_output_naming_another_path_is_3_before_any_work(
        self, store_path, tmp_path, capsys, monkeypatch, command, flag, other
    ):
        """An output path that resolves to the file of another path flag,
        here spelled relative to the working directory, is refused with one
        line naming both flags before any store is read: no file changes or
        appears, and there is no train or evaluate call. The same argv
        without it does the work, so the counts would see it."""
        monkeypatch.chdir(tmp_path)
        store, checkpoint, config = tmp_path / "s.cpem", tmp_path / "h.cpeh", tmp_path / "c.json"
        store.write_bytes(store_path.read_bytes())
        assert main(fuzz_base("train", store, None, checkpoint)) == 0
        config.write_text("{}")
        work = tmp_path / "work"
        work.mkdir()
        argv = fuzz_base(command, store, checkpoint, work / "out") + ["--config", str(config)]
        evaluated = tmp_path / "eval.cpem"
        evaluated.write_bytes(store.read_bytes())
        if other == "--eval-store":
            argv += ["--eval-store", str(evaluated)]
        named = {"--out": work / "out", "--store": store, "--eval-store": evaluated,
                 "--checkpoint": checkpoint, "--config": config}[other]
        before = {path: path.read_bytes() for path in (store, evaluated, checkpoint, config)}
        calls = count_work(monkeypatch)
        capsys.readouterr()
        assert main(argv + [flag, str(named.relative_to(tmp_path))]) == 3
        err = capsys.readouterr().err
        assert " is the same file as " in err and len(err.splitlines()) == 1
        assert {flag, other} <= set(err.split())
        assert calls == {"read_store": 0, "train": 0, "evaluate": 0}
        assert {path: path.read_bytes() for path in before} == before
        assert list(work.iterdir()) == []
        assert main(argv) == 0
        assert command == "gen-synthetic" or calls["train"] + calls["evaluate"]

    def test_default_log_naming_the_config_is_3(self, store_path, tmp_path, capsys, monkeypatch):
        """train's default log path, OUT.log.json, is checked as an output too."""
        config = tmp_path / "run.log.json"
        config.write_text("{}")
        calls = count_work(monkeypatch)
        argv = fuzz_base("train", store_path, None, tmp_path / "run") + ["--config", str(config)]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: --log {config} is the same file as --config\n"
        assert calls == {"read_store": 0, "train": 0, "evaluate": 0}
        assert config.read_text() == "{}" and not (tmp_path / "run").exists()

    def test_output_hard_linked_to_the_store_is_3(self, store_path, tmp_path, capsys, monkeypatch):
        """A hard link resolves to a path of its own, but writing it writes the
        store: it is refused as the store's own path is."""
        store, link = tmp_path / "s.cpem", tmp_path / "link.cpeh"
        store.write_bytes(store_path.read_bytes())
        link.hardlink_to(store)
        calls = count_work(monkeypatch)
        assert main(fuzz_base("train", store, None, link)) == 3
        assert capsys.readouterr().err == f"error: --out {link} is the same file as --store\n"
        assert calls == {"read_store": 0, "train": 0, "evaluate": 0}
        assert store.read_bytes() == store_path.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.cpeh", "s.cpem"]

    @pytest.mark.parametrize("old", [False, True], ids=["new", "old"])
    def test_train_that_fails_writing_leaves_neither_output(
        self, store_path, tmp_path, capsys, monkeypatch, old
    ):
        """train moves its checkpoint and log into place only once both are
        written: a checkpoint write that raises partway exits 3 and leaves no
        checkpoint, no log and no temporary, and old files as they were."""
        checkpoint, log = tmp_path / "h.cpeh", tmp_path / "h.cpeh.log.json"
        if old:
            checkpoint.write_bytes(b"old head")
            log.write_text("old log")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def partial(head, fh):
            fh.write(b"CPEH")
            raise OSError("no space left on device")

        monkeypatch.setattr(cli, "save_head", partial)
        assert main(["train", "--store", str(store_path), "--out", str(checkpoint)] + RUN) == 3
        assert capsys.readouterr().err == "error: no space left on device\n"
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_export_masks_that_fails_writing_leaves_no_mask(self, store_path, tmp_path, capsys):
        """export-masks moves its mask files into place only once all are
        written: a directory where record 0's PGM mask goes exits 3 with one
        line, and leaves no mask of record 1, written before it, nor record
        0's JSON mask, nor a temporary."""
        out = tmp_path / "masks"
        (out / "mask_0.pgm").mkdir(parents=True)
        argv = ["export-masks", "--store", str(store_path), "--records", "1,0", "--m", "3"]
        assert main(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert str(out / "mask_0.pgm") in err
        assert [p.name for p in out.iterdir()] == ["mask_0.pgm"]
        assert not any((out / "mask_0.pgm").iterdir())

    def test_train_writes_a_fifo_log_in_place(self, store_path, tmp_path, capsys):
        """A --log that exists and is not a regular file (a FIFO here, as
        /dev/null would be) is written in place and stays what it was: its
        reader gets the bytes a regular log file holds."""
        log = tmp_path / "log.fifo"
        os.mkfifo(log)
        reader = os.open(log, os.O_RDONLY | os.O_NONBLOCK)  # opening it to write does not block
        try:
            assert main(["train", "--store", str(store_path), "--out", str(tmp_path / "h.cpeh"),
                         "--log", str(log)] + RUN) == 0
            piped = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(log.lstat().st_mode)
        assert main(["train", "--store", str(store_path), "--out", str(tmp_path / "r.cpeh")] + RUN) == 0
        assert piped == (tmp_path / "r.cpeh.log.json").read_bytes()
        assert (tmp_path / "h.cpeh").read_bytes() == (tmp_path / "r.cpeh").read_bytes()
        names = ["h.cpeh", "log.fifo", "r.cpeh", "r.cpeh.log.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == names
