"""tools/same_law.py: the seed-by-seed law comparison of two source trees."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "same_law.py"


def _tool():
    sys.path.insert(0, str(TOOL.parent))  # it imports same_outputs beside it
    try:
        spec = importlib.util.spec_from_file_location("same_law", TOOL)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(TOOL.parent))
    return module


def test_tree_has_its_own_law_on_tiny_configs(tmp_path):
    result = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--tiny", "--seeds", "2",
         "--work", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    # each seed, tree and criterion prints its numbers and its verdict
    for seed in (0, 1):
        for side in ("parent", "child"):
            for number in (7, 8, 9, 10):
                assert sum(line.startswith(f"seed {seed} {side:6s} c{number:<2d} ")
                           for line in lines) == 1
    assert not any("run failed" in line or "missing" in line for line in lines)
    # a tree against itself differs by nothing, so every clause holds
    assert any(line.startswith("c10 error beta=0.1 ") and "+0.0000" in line for line in lines)
    assert lines[-2] == "example clause, no pass count falls (information only): holds"
    assert lines[-1] == "verdict: same law"


def test_fisher_p_of_a_falling_pass_count():
    fisher = _tool().fisher_lower
    # 9 of 10 against 6 of 10: (C(10,5) + C(10,6) * C(10,9)) / C(20,15)
    assert abs(fisher(9, 6, 10) - 2352 / 15504) < 1e-15
    assert fisher(9, 2, 10) < 0.05
    assert fisher(5, 5, 10) > 0.5 and fisher(10, 10, 10) == 1.0
    assert fisher(3, 9, 10) > 0.99
