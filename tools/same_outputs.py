#!/usr/bin/env python3
"""Check that two spikelink source trees produce the same outputs, byte for byte.

    python3 tools/same_outputs.py TREE_A TREE_B [--tiny] [--work DIR]

TREE_A and TREE_B are checkout roots.  Each case runs one CLI invocation
per tree, in a child process with PYTHONPATH at that tree's src/,
`timing = off` and BLAS at one thread; then its exit codes are compared,
with each other and with the code the case expects (0, or 3 for the
`diverged` case, whose learning rate blows training up), and its
metrics.csv and checkpoint.txt are diffed byte for byte.  Beside
each verdict it prints the two children's peak RSS (from wait4), so a
memory change shows on every case.  The cases run in order, so
`sweep-snr-checkpoint` and `sweep-snr-large-test` evaluate the checkpoint
TREE_A wrote in `default-seed5` on both trees: they compare evaluation
alone, the second on 2048 test records at each of the 7 default grid
points.  The
`event-files` case trains on train and test event files that the tool
writes once into the work directory, so both trees parse the same bytes.
--tiny shrinks every case to a few samples and two epochs, for a smoke
test.
Exit status 0 when every case matches, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

# (name, verb and flags, config values); every case also gets timing = off
CASES = (
    ("default-seed5", ["train"], {"seed": 5}),
    ("default-seed7", ["train"], {"seed": 7}),
    ("momentum-baseline", ["train"], {"seed": 1, "momentum": 0.9, "baseline": "on"}),
    ("softmax-clip", ["train"], {"seed": 2, "output": "softmax", "grad_clip": 1.0}),
    ("epsilon0", ["train"], {"seed": 3, "epsilon": 0.0}),
    ("criterion10-beta0.1", ["train"],
     {"seed": 0, "beta": 0.1, "init_rate": 0.3, "baseline": "on", "epochs": 40}),
    ("sweep-beta", ["sweep-beta"], {"seed": 4, "momentum": 0.9, "baseline": "on"}),
    ("train-per-point", ["sweep-snr", "--train-per-point", "--ebn0-grid-db=0,2"], {"seed": 6}),
    ("mismatch", ["mismatch"], {"seed": 8}),
    ("sweep-snr-checkpoint", ["sweep-snr"], {"seed": 5}),
    ("sweep-snr-large-test", ["sweep-snr"], {"seed": 5, "test_per_class": 512}),
    ("event-files", ["train"], {"seed": 9, "dataset": "events"}),
    ("diverged", ["train"], {"seed": 10, "eta": 1e200}),
)
# the exit code each case should end with, if not 0: a diverged run exits 3
# and keeps the rows it finished (none at full size, epoch 0 under --tiny)
EXPECTED_EXIT = {"diverged": 3}
CHECKPOINT_FROM = "default-seed5"
FROM_CHECKPOINT = ("sweep-snr-checkpoint", "sweep-snr-large-test")
TINY = {"height": 8, "width": 8, "train_per_class": 4, "test_per_class": 3,
        "k": 4, "T": 6, "hidden": 8, "epochs": 2}
COMPARED = ("metrics.csv", "checkpoint.txt")


def write_event_files(work: Path, tiny: bool) -> dict:
    """Train and test event files of a four-class bar task, in the block
    text format; returns their config values.

    The events come from a fixed stdlib stream, not from either tree, and
    the full-size train file spans many of the parser's read pieces.
    """
    side, counts = (8, (8, 6)) if tiny else (16, (256, 128))
    duration = 20000
    rng = random.Random(2024)
    values = {}
    for split, n in zip(("train", "test"), counts):
        lines = []
        for i in range(n):
            label = i % 4
            events = []
            for y in range(side):
                for x in range(side):
                    # distance from the class's bar: row, column, diagonal, anti-diagonal
                    offsets = (y - side // 2, x - side // 2, y - x, x + y - (side - 1))
                    on_bar = abs(offsets[label]) < 2
                    for _ in range(rng.randint(0, 6) if on_bar else int(rng.random() < 0.1)):
                        events.append((rng.randint(0, duration), x, y, int(rng.random() < 0.7)))
            events.sort()
            lines.append(f"# record label={label} w={side} h={side} dur_us={duration}\n")
            lines.extend(f"{t} {x} {y} {p}\n" for t, x, y, p in events)
            lines.append("\n")
        path = work / f"{split}.events"
        path.write_text("".join(lines))
        values[f"{split}_events"] = str(path)
    return values


def source_dir(tree: str) -> Path:
    """TREE/src, which holds the spikelink package."""
    src = Path(tree).resolve() / "src"
    if not (src / "spikelink" / "cli.py").is_file():
        raise SystemExit(f"error: no spikelink sources under {src}")
    return src


def run_case(src: Path, out: Path, flags: list[str], config: dict) -> tuple[int, float]:
    """Exit code and peak RSS in MB of one CLI invocation."""
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "run.cfg"
    cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in {**config, "timing": "off"}.items()))
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, "-m", "spikelink.cli", *flags,
           "--config", str(cfg_path), "--out", str(out)]
    with (out / "stderr.txt").open("w") as err:
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    # reaped here, so Popen must not wait for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def differences(a: Path, b: Path) -> list[str]:
    """Names of the compared files that differ or exist on one side only."""
    found = []
    for name in COMPARED:
        fa, fb = a / name, b / name
        if fa.exists() != fb.exists():
            found.append(f"{name} exists on one side only")
        elif fa.exists() and fa.read_bytes() != fb.read_bytes():
            found.append(f"{name} differs")
    return found


def compare(tree_a: str, tree_b: str, tiny: bool, work: Path) -> bool:
    srcs = {"a": source_dir(tree_a), "b": source_dir(tree_b)}
    work.mkdir(parents=True, exist_ok=True)
    event_files = write_event_files(work, tiny)
    same = True
    for name, flags, config in CASES:
        config = {**config, **TINY} if tiny else config
        if config.get("dataset") == "events":
            config = {**config, **event_files}
        if name in FROM_CHECKPOINT:
            flags = flags + ["--checkpoint", str(work / "a" / CHECKPOINT_FROM / "checkpoint.txt")]
        runs = {side: run_case(src, work / side / name, flags, config)
                for side, src in srcs.items()}
        codes = {side: code for side, (code, _) in runs.items()}
        found = differences(work / "a" / name, work / "b" / name)
        if codes["a"] != codes["b"]:
            found.insert(0, f"exit {codes['a']} against {codes['b']}")
        elif codes["a"] != EXPECTED_EXIT.get(name, 0):
            found.insert(0, f"both exited {codes['a']}")
        same = same and not found
        verdict = "same" if not found else "; ".join(found)
        rss = f"peak RSS {runs['a'][1]:.1f} MB against {runs['b'][1]:.1f} MB"
        print(f"{name}: {verdict} ({rss})", flush=True)
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    parser.add_argument("--tiny", action="store_true", help="a few samples and two epochs per case")
    parser.add_argument("--work", help="keep the run directories here (default: a temporary one)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(args.work or scratch)
        return 0 if compare(args.tree_a, args.tree_b, args.tiny, work) else 1


if __name__ == "__main__":
    sys.exit(main())
