"""tools/same_law.py: the seed-by-seed law comparison of two source trees,
and the pass rules of tools/criteria.py that it shares with the acceptance gate."""

import subprocess
import sys
from pathlib import Path

import criteria
import pytest
import same_law

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "same_law.py"
# one error step on the default 128 test samples
STEP = 1 / 128


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
    fisher = same_law.fisher_lower
    # 9 of 10 against 6 of 10: (C(10,5) + C(10,6) * C(10,9)) / C(20,15)
    assert abs(fisher(9, 6, 10) - 2352 / 15504) < 1e-15
    assert fisher(9, 2, 10) < 0.05
    assert fisher(5, 5, 10) > 0.5 and fisher(10, 10, 10) == 1.0
    assert fisher(3, 9, 10) > 0.99


def _snr_sweep(errors):
    dbs = ("-inf", "-6.0", "0.0")
    return criteria.snr_sweep([{"ebn0_db": db, "error_rate": e} for db, e in zip(dbs, errors)])


def _mismatch(errors):
    epsilons = ("0.1", "0.15", "0.2")
    return criteria.mismatch([{"epsilon": x, "error_rate": e} for x, e in zip(epsilons, errors)])


def _sparsity(rates, errors):
    """Two beta points, each an epoch that fires and errs at 1, outside the
    rate window, then RATE_EPOCHS epochs at its rate, the last at its error."""
    return criteria.sparsity([
        {"point": point, "beta": beta, "spike_rate": 1.0 if epoch < 0 else rate,
         "error_rate": error if epoch == criteria.RATE_EPOCHS - 1 else 1.0}
        for point, (beta, rate, error) in enumerate(zip(("0.0001", "0.1"), rates, errors))
        for epoch in range(-1, criteria.RATE_EPOCHS)
    ])


def test_rules_read_and_name_their_numbers():
    rows = [{"error_rate": e} for e in (0.5, 0.1, 0.0)]
    assert criteria.convergence(rows) == ({"best error": 0.1}, True)
    assert list(_snr_sweep([0.75, 0.0, 0.0])[0]) == ["error -inf dB", "error -6 dB", "error 0 dB"]
    assert list(_mismatch([0.0, 0.0, 0.0])[0]) == ["error 0.10", "error 0.15", "error 0.20"]
    assert _sparsity([0.25, 0.125], [0.0, 0.0])[0] == {
        "rate beta=0.0001": 0.25, "rate beta=0.1": 0.125,
        "error beta=0.0001": 0.0, "error beta=0.1": 0.0}


# (clause, its bound, the value the README states, the rule's verdict with
# the clause's number at x and every other clause holding)
CLAUSES = (
    ("c7 best error", criteria.C7_ERROR, 0.10,
     lambda x: criteria.convergence([{"error_rate": x}])),
    ("c8 rise", criteria.C8_RISE, 0.03, lambda x: _snr_sweep([criteria.CHANCE, 0.25, 0.25 + x])),
    ("c8 chance above", criteria.C8_CHANCE, 0.05,
     lambda x: _snr_sweep([criteria.CHANCE + x, 0.0, 0.0])),
    ("c8 chance below", criteria.C8_CHANCE, 0.05,
     lambda x: _snr_sweep([criteria.CHANCE - x, 0.0, 0.0])),
    ("c9 lower neighbour", criteria.C9_DEGRADATION, 0.05,
     lambda x: _mismatch([0.125 + x, 0.125, 0.0])),
    ("c9 upper neighbour", criteria.C9_DEGRADATION, 0.05,
     lambda x: _mismatch([0.0, 0.125, 0.125 + x])),
    ("c10 rate rise", criteria.C10_RATE_RISE, 0.02,
     lambda x: _sparsity([0.25, 0.25 + x], [0.0, 0.0])),
    ("c10 spread", criteria.C10_SPREAD, 0.03, lambda x: _sparsity([0.25, 0.25], [0.0, x])),
)


@pytest.mark.parametrize("bound, stated, verdict", [c[1:] for c in CLAUSES],
                         ids=[c[0] for c in CLAUSES])
def test_rule_clause_passes_at_its_bound_and_fails_one_step_past(bound, stated, verdict):
    assert bound == stated
    assert verdict(bound)[1]
    assert not verdict(bound + STEP)[1]
