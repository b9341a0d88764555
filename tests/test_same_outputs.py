"""tools/same_outputs.py: the byte-for-byte comparison of two source trees."""

import re
import subprocess
import sys
from pathlib import Path

import same_outputs

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "same_outputs.py"


def test_tree_matches_itself_on_tiny_configs(tmp_path):
    result = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--tiny", "--work", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    *lines, exported = result.stdout.splitlines()
    names = [name for name, _, _ in same_outputs.CASES]
    assert len(lines) == len(names)
    # every case leaves a metrics.csv, whose exports match across the trees
    assert exported == f"exports of {len(names)} metrics files: same"
    for line, name in zip(lines, names):
        # each verdict carries both children's peak RSS and CPU seconds
        match = re.fullmatch(
            rf"{re.escape(name)}: same \(peak RSS (\d+\.\d) MB against (\d+\.\d) MB, "
            rf"CPU (\d+\.\d\d) s against (\d+\.\d\d) s\)", line
        )
        assert match, line
        assert all(float(mb) > 1.0 for mb in match.groups()[:2]), line
        assert all(float(cpu) > 0.0 for cpu in match.groups()[2:]), line
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
    assert same_outputs.differences(a, b) == []
    (b / "metrics.csv").write_text("y\n")
    (a / "checkpoint.txt").write_text("c\n")
    assert same_outputs.differences(a, b) == [
        "metrics.csv differs from line 1", "checkpoint.txt exists on one side only",
    ]
    # the first differing line is named, a missing last line too
    (a / "metrics.csv").write_text("x\ny\nz\n")
    (b / "metrics.csv").write_text("x\ny\nw\n")
    assert same_outputs.differences(a, b)[0] == "metrics.csv differs from line 3"
    (b / "metrics.csv").write_text("x\ny\n")
    assert same_outputs.differences(a, b)[0] == "metrics.csv differs from line 3"
    (b / "metrics.csv").write_text("x\ny\nz")
    assert same_outputs.differences(a, b)[0] == "metrics.csv differs from line 3"


def test_export_difference_names_the_metrics_file(tmp_path):
    head = f"== {tmp_path / 'a' / 'one' / 'metrics.csv'}\nk=1\n"
    second = f"== {tmp_path / 'a' / 'two' / 'metrics.csv'}\n"
    text_a = (head + second + "k=2\nk=3\n").encode()
    assert same_outputs.export_difference(text_a, text_a, tmp_path) == "same"
    text_b = (head + second + "k=2\nk=4\n").encode()
    assert same_outputs.export_difference(text_a, text_b, tmp_path) == (
        "differ from line 2 of the export of a/two/metrics.csv")
