#!/usr/bin/env python3
"""Check that two spikelink source trees train to the same law, seed by seed.

    python3 tools/same_law.py PARENT CHILD [--tiny] [--seeds N] [--work DIR]

PARENT and CHILD are checkout roots.  A change that reorders float sums
moves every sampled trajectory, so the two trees' outputs differ byte for
byte (tools/same_outputs.py) even when nothing is wrong.  This tool asks a
weaker question: do the two trees pass the behavioural criteria 7-10 as
often, and read the same numbers up to the spread the parent already shows
across seeds?  tools/criteria.py holds each criterion's protocol and its
pass rule, which tests/test_acceptance.py gates on at seed 0.

For each seed 0 .. N-1 (N = 10 by default) and each tree, it runs each
criterion's protocol through the CLI in child processes with PYTHONPATH at
that tree's src/, `timing = off` and BLAS at one thread, and reads the
criterion's numbers and verdict from metrics.csv by its pass rule.

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
import math
import statistics
import sys
import tempfile
from pathlib import Path

from criteria import PROTOCOLS, read_rows
from same_outputs import TINY, run_case, source_dir

SEEDS = 10
P_VALUE = 0.05


def fisher_lower(parent: int, child: int, n: int) -> float:
    """One-sided Fisher exact p of the child passing `child` of n seeds, or
    fewer, against the parent's `parent` of n, the passes pooled."""
    total = parent + child
    return sum(math.comb(n, x) * math.comb(n, total - x)
               for x in range(max(0, total - n), child + 1)) / math.comb(2 * n, total)


def run_seed(src: Path, out: Path, seed: int, tiny: bool) -> dict:
    """criterion -> (numbers by name, or {} if its run failed; passed) at one seed."""
    results = {}
    for number, (flags, config, rule) in PROTOCOLS.items():
        config = {**config, "seed": seed, **(TINY if tiny else {})}
        case = out / f"c{number}"
        code, _, _ = run_case(src, case, flags, config)
        if code != 0:
            results[number] = ({}, False)
            continue
        results[number] = rule(read_rows(case / "metrics.csv"))
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
    for number in PROTOCOLS:
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
    for number in PROTOCOLS:
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
