#!/usr/bin/env python3
"""Check that two spikelink source trees train to the same law, seed by seed.

    python3 tools/same_law.py PARENT CHILD [--tiny] [--seeds N] [--work DIR]

PARENT and CHILD are checkout roots.  A change that reorders float sums
moves every sampled trajectory, so the two trees' outputs differ byte for
byte (tools/same_outputs.py) even when nothing is wrong.  This tool asks a
weaker question: do the two trees pass the behavioural criteria 7-10 of
tests/test_acceptance.py as often, and read the same numbers up to the
spread the parent already shows across seeds?

For each seed 0 .. N-1 (N = 10 by default) and each tree, it drives the CLI
in child processes with PYTHONPATH at that tree's src/, `timing = off` and
BLAS at one thread, and reads metrics.csv:

    criterion 7   `train` at the default config.  The best test error up to
                  the first epoch at or below 0.10; it passes at or below
                  0.10.
    criterion 8   `sweep-snr` over the default Eb/N0 grid.  The error at
                  each point; it passes when no point's error rises more
                  than 0.03 over the previous one and the first (epsilon
                  0.5) lies within 0.05 of chance, 1 - 1/classes.
    criterion 9   `mismatch --epsilon 0.15 --epsilon-grid=0.10,0.15,0.20`.
                  The three errors; it passes when neither neighbour's
                  error exceeds the trained point's by more than 0.05.
    criterion 10  `sweep-beta` with init_rate = 0.3, baseline = on and
                  epochs = 40.  Per beta, the mean spike rate of the last 5
                  epochs and the last epoch's error; it passes when no rate
                  rises more than 0.02 from one beta to the next and the
                  errors spread at most 0.03.

It prints every number each criterion reads, per seed and per tree, with
its pass or fail; then each criterion's pass counts, and for each number
the two trees' medians over seeds, the median of the paired differences
(child - parent) and the parent's quartiles q1-q3
(statistics.quantiles(n=4)).

The rule.  The law is the same when both clauses hold:

    (a) for each criterion, the child's pass count is not lower than the
        parent's by a one-sided Fisher exact test at p < 0.05: p is the
        chance, with both trees' passes pooled, that the child's seeds
        hold at most as many of them as they do;
    (b) for each number, |median over seeds of (child - parent)| is at
        most the parent's q3 - q1.

It also prints, for information only, the clause "no pass count falls".
That clause is too strict to decide on: when the parent passes 9 of 10
seeds, a child with the very same law passes it only 74%, 38% or 24% of
the time at per-seed pass rates of 0.9, 0.8 or 0.75.  A child run that
does not exit 0 fails its criterion at that seed, and a number it leaves
missing fails clause (b).

--tiny shrinks every run to a few samples, two epochs and T = 6, for a
smoke test.  Exit status 0 when the law is the same, 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import math
import statistics
import sys
import tempfile
from pathlib import Path

from same_outputs import TINY, run_case, source_dir

SEEDS = 10
SNR_GRID = ("-inf", "-6", "-4", "-2", "0", "2", "4")
MISMATCH_GRID = ("0.10", "0.15", "0.20")
BETA_GRID = ("0.0001", "0.001", "0.01", "0.1")
CLASSES = 4
P_VALUE = 0.05
# (criterion, verb and flags, config values); every run also gets its seed
# and timing = off
RUNS = (
    (7, ["train"], {}),
    (8, ["sweep-snr"], {}),
    (9, ["mismatch", "--epsilon", "0.15", f"--epsilon-grid={','.join(MISMATCH_GRID)}"], {}),
    (10, ["sweep-beta"], {"init_rate": 0.3, "baseline": "on", "epochs": 40}),
)


def read_rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def criterion_7(rows):
    """Best error up to the first epoch at or below 0.10, and whether it got there."""
    best = math.inf
    for row in rows:
        best = min(best, float(row["error_rate"]))
        if best <= 0.10:
            break
    return {"best error": best}, best <= 0.10


def criterion_8(rows):
    errors = [float(row["error_rate"]) for row in rows]
    shape = all(b <= a + 0.03 for a, b in zip(errors, errors[1:]))
    chance = abs(errors[0] - (1.0 - 1.0 / CLASSES)) <= 0.05
    return {f"error {db} dB": e for db, e in zip(SNR_GRID, errors)}, shape and chance


def criterion_9(rows):
    low, trained, high = (float(row["error_rate"]) for row in rows)
    return ({f"error {eps}": e for eps, e in zip(MISMATCH_GRID, (low, trained, high))},
            max(low - trained, high - trained) <= 0.05)


def criterion_10(rows):
    rates, errors = [], []
    for point in range(len(BETA_GRID)):
        run = [row for row in rows if int(row["point"]) == point]
        last = [float(row["spike_rate"]) for row in run[-5:]]
        rates.append(sum(last) / len(last))
        errors.append(float(run[-1]["error_rate"]))
    spread = max(errors) - min(errors)
    passed = all(b <= a + 0.02 for a, b in zip(rates, rates[1:])) and spread <= 0.03
    numbers = {f"rate beta={b}": r for b, r in zip(BETA_GRID, rates)}
    numbers.update({f"error beta={b}": e for b, e in zip(BETA_GRID, errors)})
    return numbers, passed


READ = {7: criterion_7, 8: criterion_8, 9: criterion_9, 10: criterion_10}


def fisher_lower(parent: int, child: int, n: int) -> float:
    """One-sided Fisher exact p of the child passing `child` of n seeds, or
    fewer, against the parent's `parent` of n, the passes pooled."""
    total = parent + child
    return sum(math.comb(n, x) * math.comb(n, total - x)
               for x in range(max(0, total - n), child + 1)) / math.comb(2 * n, total)


def run_seed(src: Path, out: Path, seed: int, tiny: bool) -> dict:
    """criterion -> (numbers by name, or {} if its run failed; passed) at one seed."""
    results = {}
    for number, flags, config in RUNS:
        config = {**config, "seed": seed, **(TINY if tiny else {})}
        case = out / f"c{number}"
        code, _ = run_case(src, case, flags, config)
        if code != 0:
            results[number] = ({}, False)
            continue
        results[number] = READ[number](read_rows(case / "metrics.csv"))
    return results


def _fmt(numbers: dict) -> str:
    return " ".join(f"{name} {value:.4f}" for name, value in numbers.items()) or "run failed"


def compare(parent: str, child: str, seeds: int, tiny: bool, work: Path) -> bool:
    srcs = {"parent": source_dir(parent), "child": source_dir(child)}
    results = {side: [] for side in srcs}
    for seed in range(seeds):
        for side, src in srcs.items():
            results[side].append(run_seed(src, work / side / f"seed{seed}", seed, tiny))
            for number, (numbers, passed) in results[side][-1].items():
                verdict = "pass" if passed else "FAIL"
                print(f"seed {seed} {side:6s} c{number:<2d} {verdict}: {_fmt(numbers)}", flush=True)
    failures = []
    falls = []
    print()
    print("criterion  parent  child  Fisher p  (a)")
    for number, _, _ in RUNS:
        counts = [sum(r[number][1] for r in results[side]) for side in srcs]
        p = fisher_lower(*counts, seeds)
        ok = p >= P_VALUE
        print(f"c{number:<9d} {counts[0]:>2d}/{seeds:<3d} {counts[1]:>2d}/{seeds:<3d} "
              f"{p:8.3f}  {'holds' if ok else 'FAILS'}")
        if not ok:
            failures.append(f"c{number} passes {counts[0]} -> {counts[1]} of {seeds}, p = {p:.3f}")
        if counts[1] < counts[0]:
            falls.append(f"c{number} {counts[0]} -> {counts[1]}")
    print()
    print("number                    parent median  child median  median diff  "
          "parent q1-q3     q3-q1  (b)")
    for number, _, _ in RUNS:
        names = next((list(r[number][0]) for side in srcs for r in results[side]
                      if r[number][0]), [])
        for name in names:
            label = f"c{number} {name}"
            values = {side: [r[number][0].get(name) for r in results[side]] for side in srcs}
            missing = [s for s in range(seeds)
                       if values["parent"][s] is None or values["child"][s] is None]
            if missing:
                print(f"{label:25s} missing at seeds {missing}  FAILS")
                failures.append(f"{label} missing at seeds {missing}")
                continue
            q1, _, q3 = statistics.quantiles(values["parent"], n=4)
            diff = statistics.median(c - p for p, c in zip(values["parent"], values["child"]))
            ok = abs(diff) <= q3 - q1
            print(f"{label:25s} {statistics.median(values['parent']):13.4f} "
                  f"{statistics.median(values['child']):13.4f} {diff:+12.4f}  "
                  f"{q1:.4f}-{q3:.4f}  {q3 - q1:8.4f}  {'holds' if ok else 'FAILS'}")
            if not ok:
                failures.append(f"{label} median diff {diff:+.4f} > q3-q1 {q3 - q1:.4f}")
    print()
    print("example clause, no pass count falls (information only): "
          + ("holds" if not falls else "fails at " + ", ".join(falls)))
    print("verdict: " + ("same law" if not failures else "differs: " + "; ".join(failures)),
          flush=True)
    return not failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("child")
    parser.add_argument("--seeds", type=int, default=SEEDS, help="seeds 0 .. N-1 (default 10)")
    parser.add_argument("--tiny", action="store_true", help="a few samples and two epochs per run")
    parser.add_argument("--work", help="keep the run directories here (default: a temporary one)")
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("--seeds needs at least 2 seeds for quartiles")
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(args.work or scratch)
        return 0 if compare(args.parent, args.child, args.seeds, args.tiny, work) else 1


if __name__ == "__main__":
    sys.exit(main())
