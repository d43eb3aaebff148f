"""Smoke test of the benchmark: one short run of the eval and of the train
workload, each untraced and traced, and one traced run of the paper_scale
workload, as a subprocess;
``bench/run.py`` imports the package from this checkout's ``src``. Then
``tools/inprocess_ab.py``, which pairs the benchmark's cycles of two trees
and counts each phase's page faults, and ``tools/grid_outputs.py``'s
imports and its store above the finiteness split."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def bench_run(workload: str, trace: int) -> dict:
    """The last stdout line of ``bench/run.py`` on a workload, seed 0, with no
    timed seconds beyond its minimum rounds."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
            "--seconds", "0", "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_eval_workload_runs_clean(trace):
    result = bench_run("eval", trace)
    assert result["failed"] == 0
    assert result["correct"] is True
    if trace:
        # one sample_episode span per task of the 50-task eval phase marks its episodes
        assert result["metrics"]["episodes.sample_calls"]["value"] == 50


@pytest.mark.parametrize("trace", [0, 1])
def test_train_workload_runs_clean(trace):
    """Its rounds train the head for as many episodes as the reference head
    trained at input generation, and each checkpoint must equal it byte for
    byte: the bench's byte check of the train path. Traced, the spans must
    nest on the workload whose tables are built from gathered rows."""
    result = bench_run("train", trace)
    assert result["failed"] == 0
    assert result["correct"] is True


def test_paper_scale_workload_runs_clean_traced():
    """The workload whose score tensors are shared out among threads, so
    its table's blocks are selected while the pool scores: the spans still
    nest, and every round's checkpoint and per-task accuracies are its
    reference's."""
    result = bench_run("paper_scale", 1)
    assert result["failed"] == 0
    assert result["correct"] is True


def inprocess_ab(parent_src, change_src) -> subprocess.CompletedProcess:
    """One pair of ``tools/inprocess_ab.py`` on the train workload."""
    argv = [sys.executable, "tools/inprocess_ab.py", str(parent_src), str(change_src),
            "--workload", "train", "--pairs", "1"]
    return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)


def test_inprocess_ab_of_one_tree_against_itself():
    """``tools/inprocess_ab.py`` imports two copies of this checkout's cpes
    side by side: one pair of the benchmark's cycles on the train workload
    runs, every round passes the benchmark's checks, both copies give the
    same checkpoint and per-task accuracies, and each phase reports a time
    ratio and both sides' median minor-fault counts."""
    done = inprocess_ab("src", "src")
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    assert summary["outputs_equal"] is True
    for phase in ("setup", "train", "eval"):
        row = summary[phase]
        assert row["median_ratio"] > 0
        assert row["parent_median_minflt"] >= 0 and row["change_median_minflt"] >= 0


def test_inprocess_ab_stops_at_the_benchmarks_check(tmp_path):
    """A tree whose fused patches weigh the class embedding 2.5 times, not
    twice, moves the per-task accuracies: its first round fails the
    benchmark's reference check, and the tool exits non-zero with the
    check's message."""
    shutil.copytree(ROOT / "src" / "cpes", tmp_path / "cpes",
                    ignore=shutil.ignore_patterns("__pycache__"))
    selection = tmp_path / "cpes" / "selection.py"
    text = selection.read_text()
    assert "FUSION_CLASS_WEIGHT = 2.0" in text
    selection.write_text(text.replace("FUSION_CLASS_WEIGHT = 2.0", "FUSION_CLASS_WEIGHT = 2.5"))
    done = inprocess_ab("src", tmp_path)
    assert done.returncode != 0
    assert "per-task accuracies differ from the recorded reference" in done.stderr


def test_grid_outputs_imports_and_parses_its_flags():
    """``tools/grid_outputs.py`` imports the sweep store settings from
    ``tests/conftest.py`` and cpes's CLI; ``--help`` runs those imports
    without writing the grid."""
    argv = [sys.executable, "tools/grid_outputs.py", "--help"]
    env = os.environ | {"PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr


def test_grid_outputs_split_store_is_shared_out(tmp_path, score_threads):
    """The store of ``tools/grid_outputs.py``'s split case is above
    SPLIT_VALUES patch values, so on two threads its check goes to the pool,
    and the NaN in its last record is found and named."""
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import grid_outputs
    finally:
        sys.path.remove(str(ROOT / "tools"))
    pool = score_threads(2)
    grid_outputs.split(tmp_path)
    assert pool.futures
    assert (tmp_path / "split" / "clean.txt").read_text().startswith("exit 0\n")
    assert (tmp_path / "split" / "nan_last_record.txt").read_text() == (
        "exit 3\nstdout:\nstderr:\nerror: record 39 contains NaN/Inf\n"
    )
