"""The pytest settings of ``pyproject.toml``: a falsified Hypothesis test is
reported as a failure, not as an ``INTERNALERROR`` that ends the session."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FALSIFIED = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(n):
    assert n < 10


def test_passes():
    pass
'''


def test_falsified_given_test_is_reported(tmp_path):
    (tmp_path / "test_falsified.py").write_text(FALSIFIED)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "test_falsified.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
