"""The repository's pytest settings turn every warning into an error, and
still report a failing property test as a failure with its example."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

ALWAYS_FAILS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(x):
    assert False
"""


def test_a_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    (tmp_path / "test_fails.py").write_text(ALWAYS_FAILS, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = done.stdout + done.stderr
    assert "INTERNALERROR" not in output
    assert done.returncode == 1, output  # tests failed; 3 is an internal error
    assert "Falsifying example" in output and "1 failed" in output
