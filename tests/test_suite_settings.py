"""The suite's own pytest settings, as pyproject.toml states them."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_given_test_does_not_end_the_run(tmp_path):
    """Under the suite's warning filters, a failing hypothesis test is reported as a failure, and
    the test after it still runs: the report of the failure raises no warning that ends the
    session in INTERNALERROR."""
    (tmp_path / "test_given.py").write_text(textwrap.dedent("""
        from pathlib import Path

        from hypothesis import given, settings, strategies as st


        @settings(database=None)
        @given(st.integers())
        def test_fails(x):
            assert x != x


        def test_runs_after():
            Path(__file__).with_name("ran").touch()
    """))
    command = [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
               "-q", str(tmp_path / "test_given.py")]
    result = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert (tmp_path / "ran").exists(), result.stdout + result.stderr
    assert result.returncode == 1 and "1 failed, 1 passed" in result.stdout, result.stdout
