#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size, and checks that fail.

    python3 benchmarks/selftest.py

Runs each workload once untraced and once traced with every check on, and
requires the reported metric names to be exactly those in BENCHMARK.json.
Then it shows the checks can fail: a checkpoint whose decoder weights were
corrupted must disagree with the reference evaluator, and an event file
with one shifted timestamp must bin differently from the benchmark's own
events.  Exits 0 when everything behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import replace

import numpy as np

import run as bench
import reference as ref

SEED = 0


def tiny_workloads() -> list[bench.Workload]:
    w = bench.WORKLOADS
    small = {"train_per_class": 64, "test_per_class": 8, "epochs": 3}
    return [
        replace(w["train-default"], config={**w["train-default"].config, **small}),
        replace(w["sweep-large-test"], config={**w["sweep-large-test"].config, **small,
                                                "test_per_class": 128}),
        replace(w["train-events-wide"], wide_counts=(256, 32),
                config={**w["train-events-wide"].config, "epochs": 2}),
    ]


def expect(ok: bool, what: str, failures: list[str]) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {what}")
    if not ok:
        failures.append(what)


def workloads_pass(failures: list[str]) -> None:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    names = {trace: {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
             for trace in (False, True)}
    for w in tiny_workloads():
        for trace in (False, True):
            result = bench.run_workload(w, SEED, 0.0, trace)
            label = f"{w.name} tiny, trace={int(trace)}"
            expect(result["correct"] and result["failed"] == 0, f"{label}: all checks hold", failures)
            expect(set(result["metrics"]) == names[trace],
                   f"{label}: reports exactly the BENCHMARK.json metrics", failures)


def corrupted_checkpoint_rejected(failures: list[str]) -> None:
    w = tiny_workloads()[0]
    run = bench.Run(w, SEED, bench.OUT / "selftest-corrupt")
    shutil.rmtree(run.dir, ignore_errors=True)
    run.dir.mkdir(parents=True)
    run.prepare()
    inv = bench.invoke("run", run.cli_args(), run.dir / "inv")
    path = inv.out / "checkpoint.txt"
    lines = path.read_text().splitlines()
    i = lines.index(next(line for line in lines if line.startswith("block decoder.w2 "))) + 1
    while not lines[i].startswith(("block", "end")):
        lines[i] = " ".join((-float.fromhex(v)).hex() for v in lines[i].split())
        i += 1
    path.write_text("\n".join(lines) + "\n")
    run.check(inv)
    expect(any("reference" in p for p in run.problems),
           "a checkpoint with corrupted decoder weights is rejected", failures)
    shutil.rmtree(run.dir)


def shifted_timestamp_rejected(failures: list[str]) -> None:
    w = tiny_workloads()[2]
    task, steps = w.wide, w.config["T"]
    records = ref.wide_records(task, 8, SEED, 1)
    expected = ref.bin_records(records, task, steps)
    rec = records[0]
    before = expected[0][0]
    for i in range(1, len(rec.ts)):
        ts = rec.ts.copy()
        ts[i] = ts[i - 1]  # keeps the order non-decreasing, so the file stays valid
        after = ref.bin_events(ts, rec.xs, rec.ys, rec.pol, task.width, task.height,
                               task.duration_us, steps)
        if not np.array_equal(after, before):
            break
    shifted = [replace(rec, ts=ts)] + records[1:]
    out = bench.OUT / "selftest-shift"
    out.mkdir(parents=True, exist_ok=True)
    path = out / "shifted.events"
    ref.write_event_file(path, shifted, task)
    problems: list[str] = []
    bench.check_program_binning(w, [path], [expected], problems)
    expect(bool(problems), "an event file with a shifted timestamp is rejected", failures)
    shutil.rmtree(out)


def main() -> int:
    if not (bench.SRC / "spikelink" / "cli.py").is_file():
        print(f"error: no spikelink sources under {bench.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(bench.SRC))
    failures: list[str] = []
    workloads_pass(failures)
    corrupted_checkpoint_rejected(failures)
    shifted_timestamp_rejected(failures)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
