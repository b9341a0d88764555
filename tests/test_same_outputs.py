"""tools/same_outputs.py: the byte-for-byte comparison of two source trees."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "same_outputs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tree_matches_itself_on_tiny_configs(tmp_path):
    result = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--tiny", "--work", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    names = [name for name, _, _ in _tool().CASES]
    assert len(lines) == len(names)
    for line, name in zip(lines, names):
        # each verdict carries both children's peak RSS
        match = re.fullmatch(
            rf"{re.escape(name)}: same \(peak RSS (\d+\.\d) MB against (\d+\.\d) MB\)", line
        )
        assert match, line
        assert all(float(mb) > 1.0 for mb in match.groups()), line
    for name in ("default-seed5", "sweep-snr-checkpoint", "sweep-snr-large-test"):
        assert (tmp_path / "b" / name / "metrics.csv").stat().st_size > 0
    assert (tmp_path / "a" / "default-seed5" / "checkpoint.txt").exists()
    # the diverged case exits 3 on both sides and keeps its epoch-0 row
    assert len((tmp_path / "b" / "diverged" / "metrics.csv").read_text().splitlines()) == 2


def test_differences_name_each_file(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for side in (a, b):
        side.mkdir()
        (side / "metrics.csv").write_text("x\n")
    assert _tool().differences(a, b) == []
    (b / "metrics.csv").write_text("y\n")
    (a / "checkpoint.txt").write_text("c\n")
    assert _tool().differences(a, b) == [
        "metrics.csv differs", "checkpoint.txt exists on one side only",
    ]
