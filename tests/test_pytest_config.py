"""The suite's own pytest settings (pyproject.toml): a failing test is
reported as one failure, and the tests after it still run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 10


def test_passes():
    assert True
'''


def test_failing_property_does_not_abort_the_run(tmp_path):
    # a failing property runs Hypothesis's explain phase, which imports
    # libcst and so mypy_extensions, whose DeprecationWarning the settings
    # would turn into an INTERNALERROR that stops every later test
    (tmp_path / "test_probe.py").write_text(PROBE)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), str(tmp_path / "test_probe.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = result.stdout + result.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out, out
