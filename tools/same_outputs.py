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
points.  The `event-files` case trains on train and test event files that
the tool writes once into the work directory, so both trees parse the
same bytes.  `long-feedback-window` trains at T = 30 with a feedback
window of 25, the one case whose feedback taps run past the rollout's
table of partial sums (12 taps).  `long-input-window` does the same with
an input window of 25, the one case whose input taps run past the 16-step
history codes that training looks its input traces up from.  Under
--tiny, T = 6 cuts both windows to 6.  `high-crossover` trains at
epsilon = 0.45, where 90% of the spike thresholds are infinite and the
factor 1 - 2 * epsilon magnifies the rounding of the finite ones; every
other training case runs at epsilon 0.1 or below.  `momentum-clip` is the
one case whose clipped gradients feed a momentum velocity (sigmoid head,
baseline on), where `softmax-clip` has no momentum and `momentum-baseline`
no clip: at its grad_clip of 0.5 the clip fires on 107 of the 480
encoder batches and 79 of the 480 decoder batches, most in early epochs.
`train-per-point-untrained` runs --train-per-point at 0 epochs (a flag,
so --tiny keeps it), where each point's row comes from evaluating its
initial models rather than from its last epoch.
After the cases, one child per tree reads TREE_A's metrics.csv of every
case and renders it through export_metrics as key=value and as CSV text;
the two trees' texts must match, which checks the exporters and the
metrics reader.  --tiny shrinks every case to a few samples and two
epochs, for a smoke test.
Exit status 0 when every case and the exports match, 1 otherwise.
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
    ("momentum-clip", ["train"],
     {"seed": 14, "momentum": 0.9, "baseline": "on", "grad_clip": 0.5}),
    ("epsilon0", ["train"], {"seed": 3, "epsilon": 0.0}),
    ("criterion10-beta0.1", ["train"],
     {"seed": 0, "beta": 0.1, "init_rate": 0.3, "baseline": "on", "epochs": 40}),
    ("sweep-beta", ["sweep-beta"], {"seed": 4, "momentum": 0.9, "baseline": "on"}),
    ("train-per-point", ["sweep-snr", "--train-per-point", "--ebn0-grid-db=0,2"], {"seed": 6}),
    ("train-per-point-untrained",
     ["sweep-snr", "--train-per-point", "--epsilon-grid=0.1,0.3", "--epochs=0"], {"seed": 6}),
    ("mismatch", ["mismatch"], {"seed": 8}),
    ("sweep-snr-checkpoint", ["sweep-snr"], {"seed": 5}),
    ("sweep-snr-large-test", ["sweep-snr"], {"seed": 5, "test_per_class": 512}),
    ("event-files", ["train"], {"seed": 9, "dataset": "events"}),
    ("long-feedback-window", ["train"], {"seed": 11, "T": 30, "window_fb": 25}),
    ("long-input-window", ["train"], {"seed": 12, "T": 30, "window_ff": 25}),
    ("high-crossover", ["train"], {"seed": 13, "epsilon": 0.45}),
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
# reads each metrics file named on the command line and writes its kv and
# csv exports to stdout
EXPORT = """
import sys
from spikelink.metrics import export_metrics, read_metrics
for path in sys.argv[1:]:
    rows = read_metrics(path)
    sys.stdout.write(export_metrics(rows, "kv") + export_metrics(rows, "csv"))
"""


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


def child_env(src: Path) -> dict:
    """The environment of a child that imports spikelink from src, BLAS at one thread."""
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_case(src: Path, out: Path, flags: list[str], config: dict) -> tuple[int, float]:
    """Exit code and peak RSS in MB of one CLI invocation."""
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "run.cfg"
    cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in {**config, "timing": "off"}.items()))
    cmd = [sys.executable, "-m", "spikelink.cli", *flags,
           "--config", str(cfg_path), "--out", str(out)]
    with (out / "stderr.txt").open("w") as err:
        proc = subprocess.Popen(cmd, env=child_env(src), stdout=subprocess.DEVNULL, stderr=err)
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


def exports(src: Path, paths: list[str]) -> tuple[int, bytes]:
    """Exit code and output of one child rendering the metrics files' exports."""
    proc = subprocess.run([sys.executable, "-c", EXPORT, *paths], env=child_env(src),
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return proc.returncode, proc.stdout


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
    metrics = [work / "a" / name / "metrics.csv" for name, _, _ in CASES]
    paths = [str(path) for path in metrics if path.exists()]
    (code_a, text_a), (code_b, text_b) = (exports(src, paths) for src in srcs.values())
    if code_a or code_b:
        verdict = f"exit {code_a} against {code_b}"
    else:
        verdict = "same" if text_a == text_b else "differ"
    print(f"exports of {len(paths)} metrics files: {verdict}", flush=True)
    return same and verdict == "same"


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
