#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the spikelink CLI.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each operation is one `spikelink`
invocation in a child process (benchmarks/child.py around
`spikelink.cli.main`, with PYTHONPATH at the checkout's src/), one at a
time.  Set-up makes the workload's inputs from the seed; the timed part
then runs whole rounds until S seconds have passed.  With --trace 0 a
round is a set-up probe (an invocation stopped at its first training
call) plus a full invocation, and the run reports the end-to-end metrics;
with --trace 1 a round is an untraced plus a traced invocation, and the
run reports the per-layer metrics.  Throughputs and
cpu_s are on the child's CPU clock, because the hypervisor of a shared
VM steals wall time in bursts.  Every invocation's outputs are checked
(see README.md).  The last line of stdout is the JSON result; the line
before it carries the machine block and the raw samples.
"""

from __future__ import annotations

import os

# NumPy reads these when it is first imported, here and in every child.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field, fields, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
from child import LAYERS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
INVOCATION_TIMEOUT_S = 150.0

METRICS_HEADER = ["experiment", "point", "epoch", "epsilon", "ebn0_db", "beta", "k",
                  "error_rate", "spike_rate", "seconds"]
SNR_GRID_DB = (float("-inf"), -6.0, -4.0, -2.0, 0.0, 2.0, 4.0)

# The documented defaults, written out in full so the workloads stay the
# same even if a default changes.
DEFAULT_CONFIG = {
    "dataset": "synthetic", "classes": 4, "height": 16, "width": 16,
    "duration_us": 20000, "events_per_pixel": 8.0, "background_events": 0.3,
    "bar_halfwidth": 2, "train_per_class": 64, "test_per_class": 32,
    "k": 16, "T": 20, "hidden": 64, "tau_ff": 5.0, "window_ff": 10,
    "tau_fb": 5.0, "window_fb": 10, "beta": 1e-3, "eta": 0.05, "epochs": 30,
    "batch_size": 16, "init_rate": 0.1, "prior_rate": 0.3, "momentum": 0.0,
    "grad_clip": 0.0, "baseline": "off", "output": "sigmoid", "epsilon": 0.1,
    "mapping": "linear", "timing": "on",
}
SYNTHETIC_KEYS = ("classes", "height", "width", "duration_us", "events_per_pixel",
                  "background_events", "bar_halfwidth", "train_per_class", "test_per_class")


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str                          # "train" or "sweep-snr" (from a checkpoint)
    config: dict                       # config file of the timed invocation
    wide: ref.BarTask | None = None    # event files written in set-up
    wide_counts: tuple[int, int] = (0, 0)
    max_final_error: float = 0.10

    def task(self) -> ref.BarTask:
        if self.wide is not None:
            return self.wide
        return ref.BarTask(**{f.name: self.config[f.name] for f in fields(ref.BarTask)})

    @property
    def n_train(self) -> int:
        return self.wide_counts[0] if self.wide else self.config["classes"] * self.config["train_per_class"]

    @property
    def n_test(self) -> int:
        return self.wide_counts[1] if self.wide else self.config["classes"] * self.config["test_per_class"]

    @property
    def grid(self) -> list[tuple[float, float | None]]:
        """(epsilon, ebn0_db) of each metrics row's channel point."""
        if self.verb == "train":
            return [(self.config["epsilon"], None)]
        return [(ebn0_epsilon(db), db) for db in SNR_GRID_DB]


def ebn0_epsilon(db: float) -> float:
    """The documented `linear` mapping eps = Q(2 * Eb/N0)."""
    return 0.5 * math.erfc(2.0 * 10.0 ** (db / 10.0) / math.sqrt(2.0))


WORKLOADS = {
    w.name: w for w in (
        Workload("train-default", "train", dict(DEFAULT_CONFIG)),
        Workload("sweep-large-test", "sweep-snr", {**DEFAULT_CONFIG, "test_per_class": 512}),
        Workload("train-events-wide", "train",
                 {**{k: v for k, v in DEFAULT_CONFIG.items() if k not in SYNTHETIC_KEYS},
                  "dataset": "events", "epochs": 5},
                 wide=ref.BarTask(width=32, height=32), wide_counts=(512, 256),
                 max_final_error=0.375),
    )
}


# ---------------------------------------------------------------------------
# child invocations


@dataclass
class Invocation:
    mode: str
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    started: float
    record: dict
    out: Path

    def setup_s(self) -> float:
        return self.record["training_calls"][0][1] - self.started

    def cpu_rate(self, samples: float, calls: str = "training_calls") -> float:
        """Samples per CPU second of this child over the recorded calls."""
        return samples / sum(c[4] - c[3] for c in self.record[calls])


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def invoke(mode: str, cli_args: list[str], out: Path) -> Invocation:
    """Run one CLI invocation and reap it with wait4 for its own peak RSS."""
    out.mkdir(parents=True, exist_ok=True)
    record_path = out / "record.json"
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--record", str(record_path),
           "--mode", mode, "--", *cli_args, "--out", str(out)]
    with (out / "stdout.txt").open("w") as so, (out / "stderr.txt").open("w") as se:
        started = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        ended = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    return Invocation(mode, proc.returncode, ended - started, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, started, record, out)


# ---------------------------------------------------------------------------
# checks


def write_config(path: Path, config: dict) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))


def read_rows(path: Path, problems: list[str]) -> list[dict]:
    with path.open(newline="") as fh:
        table = list(csv.reader(fh))
    if not table or table[0] != METRICS_HEADER:
        problems.append(f"{path}: header is {table[:1]}")
        return []
    return [dict(zip(METRICS_HEADER, row)) for row in table[1:]]


def check_rows(w: Workload, rows: list[dict], problems: list[str]) -> None:
    """Row count, finiteness and the columns the workload fixes."""
    expected = w.config["epochs"] if w.verb == "train" else len(SNR_GRID_DB)
    if len(rows) != expected:
        problems.append(f"{len(rows)} metrics rows, expected {expected}")
        return
    for i, row in enumerate(rows):
        eps, db = w.grid[0] if w.verb == "train" else w.grid[i]
        values = {c: float(row[c]) for c in ("epsilon", "beta", "error_rate", "spike_rate", "seconds")}
        if not all(math.isfinite(v) for v in values.values()):
            problems.append(f"row {i}: non-finite value {row}")
            continue
        fixed = (row["experiment"] == ("train" if w.verb == "train" else "sweep-snr")
                 and int(row["point"]) == (0 if w.verb == "train" else i)
                 and int(row["epoch"]) == (i if w.verb == "train" else w.config["epochs"])
                 and int(row["k"]) == w.config["k"]
                 and values["beta"] == w.config["beta"]
                 and abs(values["epsilon"] - eps) <= 1e-12
                 and (row["ebn0_db"] == "" if db is None else float(row["ebn0_db"]) == db)
                 and 0.0 <= values["error_rate"] <= 1.0
                 and 0.0 <= values["spike_rate"] <= 1.0
                 and values["seconds"] > 0.0)
        if not fixed:
            problems.append(f"row {i} does not match the workload: {row}")


def check_checkpoint(w: Workload, path: Path, problems: list[str]):
    """Shapes and meta lines against the config; returns (meta, blocks)."""
    meta, blocks = ref.read_checkpoint(path)
    c, task = w.config, w.task()
    k, steps, hidden, classes = c["k"], c["T"], c["hidden"], task.classes
    n_in = 2 * task.height * task.width
    shapes = {
        "encoder.ff_weights": (k, n_in), "encoder.fb_weights": (k,), "encoder.bias": (k,),
        "encoder.kernel_ff": (c["window_ff"],), "encoder.kernel_fb": (c["window_fb"],),
        "decoder.w1": (hidden, k * steps), "decoder.b1": (hidden,),
        "decoder.w2": (classes, hidden), "decoder.b2": (classes,),
    }
    got = {name: arr.shape for name, arr in blocks.items()}
    if got != shapes:
        problems.append(f"checkpoint shapes {got}, expected {shapes}")
    want_meta = {"k": str(k), "T": str(steps), "hidden": str(hidden), "classes": str(classes),
                 "input_dim": str(n_in), "output": c["output"]}
    if meta != want_meta:
        problems.append(f"checkpoint meta {meta}, expected {want_meta}")
    if not all(np.all(np.isfinite(arr)) for arr in blocks.values()):
        problems.append("checkpoint holds non-finite values")
    return meta, blocks


def check_reference(w: Workload, rows: list[dict], ckpt, inputs, labels, seed: int,
                    problems: list[str]) -> None:
    """The independent evaluator agrees with each checked row within one test sample.

    A spike comparison that rounding tips the other way changes that neuron's
    later bits only, since feedback is per neuron: at most T bits of one
    sample, 1/(n*k) of the spike rate, and at most one prediction.
    """
    meta, blocks = ckpt
    checked = rows[-1:] if w.verb == "train" else rows
    epsilons = [float(r["epsilon"]) for r in checked]
    expected = ref.reference_evaluate(blocks, meta["output"], inputs, labels, epsilons, seed)
    n, k = len(labels), w.config["k"]
    for row, (error, rate) in zip(checked, expected):
        if (abs(float(row["error_rate"]) - error) > 1.0 / n + 1e-12
                or abs(float(row["spike_rate"]) - rate) > 1.0 / (n * k) + 1e-12):
            problems.append(f"row at epsilon {row['epsilon']}: program ({row['error_rate']}, "
                            f"{row['spike_rate']}) vs reference ({float(error)!r}, {float(rate)!r})")


def check_curve(w: Workload, rows: list[dict], problems: list[str]) -> None:
    errors = [float(r["error_rate"]) for r in rows]
    chance = 1.0 - 1.0 / w.task().classes
    if w.verb == "train":
        if errors[-1] > w.max_final_error:
            problems.append(f"final test error {errors[-1]} above {w.max_final_error}")
        return
    if len({r["spike_rate"] for r in rows}) != 1:
        problems.append("spike_rate differs across channel points")
    if abs(errors[0] - chance) > 0.05:
        problems.append(f"error {errors[0]} at epsilon 0.5 is not within 0.05 of chance {chance}")
    for a, b in zip(errors, errors[1:]):
        if b > a + 0.03:
            problems.append(f"error rises from {a} to {b} as Eb/N0 grows")


def check_program_binning(w: Workload, paths, expected, problems: list[str]) -> None:
    """spikelink's frames_to_inputs(load_events(...)) equals the benchmark's binning."""
    from spikelink.events import frames_to_inputs, load_events

    for path, (frames, labels) in zip(paths, expected):
        try:
            x, y = frames_to_inputs(load_events(path), w.config["T"])
        except ValueError as exc:
            problems.append(f"{path.name}: the program rejects the file: {exc}")
            continue
        if not (np.array_equal(x, frames) and np.array_equal(y, labels)):
            problems.append(f"{path.name}: program binning differs from the benchmark's")


def check_invocation(w: Workload, inv: Invocation, reference_rows: list[dict] | None,
                     problems: list[str]) -> list[dict]:
    rows = read_rows(inv.out / "metrics.csv", problems)
    check_rows(w, rows, problems)
    if rows and reference_rows is not None:
        strip = [{k: v for k, v in r.items() if k != "seconds"} for r in rows]
        if strip != [{k: v for k, v in r.items() if k != "seconds"} for r in reference_rows]:
            problems.append(f"{inv.out.name}: rows differ from the run's first invocation")
    return rows


# ---------------------------------------------------------------------------
# one run


@dataclass
class Run:
    w: Workload
    seed: int
    dir: Path
    problems: list[str] = field(default_factory=list)
    invocations: list[Invocation] = field(default_factory=list)
    setup_train: Invocation | None = None
    test_inputs: np.ndarray | None = None
    test_labels: np.ndarray | None = None
    first_rows: list[dict] | None = None
    first_out: Path | None = None

    def cli_args(self) -> list[str]:
        args = [self.w.verb, "--config", str(self.dir / "run.cfg")]
        if self.w.verb == "sweep-snr":
            args += ["--checkpoint", str(self.dir / "setup-train" / "checkpoint.txt")]
        return args

    def prepare(self) -> None:
        """Write the inputs and reference test inputs; train the sweep's checkpoint."""
        w, config = self.w, {**self.w.config, "seed": self.seed}
        if w.wide:
            files, expected = [], []
            for split, count in enumerate(w.wide_counts, start=1):
                records = ref.wide_records(w.wide, count, self.seed, split)
                files.append(self.dir / f"split{split}.events")
                ref.write_event_file(files[-1], records, w.wide)
                expected.append(ref.bin_records(records, w.wide, config["T"]))
            config.update(train_events=str(files[0]), test_events=str(files[1]))
            check_program_binning(w, files, expected, self.problems)
            self.test_inputs, self.test_labels = expected[1]
        else:
            self.test_inputs, self.test_labels = ref.synthetic_inputs(
                w.task(), config["test_per_class"], self.seed, "test", config["T"])
        write_config(self.dir / "run.cfg", config)
        if w.verb == "sweep-snr":
            self.train_checkpoint()

    def train_checkpoint(self) -> None:
        """The sweep's checkpoint: a default training run, checked like train-default."""
        trainer = replace(self.w, verb="train",
                          config={**self.w.config, "test_per_class": DEFAULT_CONFIG["test_per_class"]})
        write_config(self.dir / "setup-train.cfg", {**trainer.config, "seed": self.seed})
        inv = invoke("run", ["train", "--config", str(self.dir / "setup-train.cfg")],
                     self.dir / "setup-train")
        self.setup_train = inv
        if inv.code != 0:
            self.problems.append(f"set-up training exited {inv.code}")
            return
        inputs, labels = ref.synthetic_inputs(trainer.task(), trainer.config["test_per_class"],
                                              self.seed, "test", trainer.config["T"])
        try:
            rows = check_invocation(trainer, inv, None, self.problems)
            ckpt = check_checkpoint(trainer, inv.out / "checkpoint.txt", self.problems)
            if rows and ckpt:
                check_reference(trainer, rows, ckpt, inputs, labels, self.seed, self.problems)
                check_curve(trainer, rows, self.problems)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            self.problems.append(f"set-up training: malformed output: {exc!r}")

    def check(self, inv: Invocation) -> None:
        """Check a finished invocation; the first one is also checked against the reference."""
        if inv.code != 0:
            return
        try:
            self._check(inv)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            self.problems.append(f"{inv.out.name}: malformed output: {exc!r}")

    def _check(self, inv: Invocation) -> None:
        rows = check_invocation(self.w, inv, self.first_rows, self.problems)
        if self.first_rows is not None:
            if self.w.verb == "train":
                ckpt = (inv.out / "checkpoint.txt").read_bytes()
                if ckpt != (self.first_out / "checkpoint.txt").read_bytes():
                    self.problems.append(f"{inv.out.name}: checkpoint differs from {self.first_out.name}")
            return
        if not rows:
            return
        self.first_rows, self.first_out = rows, inv.out
        ckpt_dir = inv.out if self.w.verb == "train" else self.dir / "setup-train"
        ckpt = check_checkpoint(self.w, ckpt_dir / "checkpoint.txt", self.problems)
        if ckpt:
            check_reference(self.w, rows, ckpt, self.test_inputs, self.test_labels,
                            self.seed, self.problems)
        check_curve(self.w, rows, self.problems)

    def measure(self, seconds: float, trace: bool) -> None:
        modes = ("run", "trace") if trace else ("setup", "run")
        started = time.monotonic()
        while not self.invocations or time.monotonic() - started < seconds:
            for mode in modes:
                inv = invoke(mode, self.cli_args(), self.dir / f"inv-{len(self.invocations)}-{mode}")
                self.invocations.append(inv)
                if mode != "setup":
                    self.check(inv)

    def full(self, mode: str) -> list[Invocation]:
        return [i for i in self.invocations if i.mode == mode and i.code == 0]

    def end_to_end(self) -> dict:
        runs = self.full("run")
        w = self.w
        if w.verb == "train":
            train = [i.cpu_rate(w.n_train * w.config["epochs"]) for i in runs]
            evals = [i.cpu_rate(sum(c[0] for c in i.record["evaluate_calls"]), "evaluate_calls")
                     for i in runs]
        else:
            train = [self.setup_train.cpu_rate(w.n_train * w.config["epochs"])]
            evals = [i.cpu_rate(w.n_test * len(w.grid)) for i in runs]
        return {
            "setup_s": (statistics.median(i.setup_s() for i in self.invocations if i.code == 0), "s"),
            "cpu_s": (statistics.median(i.cpu_s for i in runs), "s"),
            "train_samples_per_s": (statistics.median(train), "samples/s"),
            "eval_samples_per_s": (statistics.median(evals), "samples/s"),
            "peak_rss_mb": (statistics.median(i.rss_mb for i in runs), "MB"),
        }

    def per_layer(self) -> dict:
        traced = [layer_metrics(i.record) for i in self.full("trace")]
        out = {name: (statistics.median(t[name][0] for t in traced), traced[0][name][1])
               for name in traced[0]}
        for key, attr in (("trace.overhead_s", "wall_s"), ("trace.overhead_cpu_s", "cpu_s")):
            out[key] = (statistics.median(getattr(i, attr) for i in self.full("trace"))
                        - statistics.median(getattr(i, attr) for i in self.full("run")), "s")
        return out


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(record: dict) -> dict:
    """Per-layer metrics from one traced invocation's spans."""
    spans = record["spans"]
    dur = [end - start for _, start, end, _ in spans]
    children = [0.0] * len(spans)
    epoch_children = [0.0] * len(spans)
    for i, (name, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent] += dur[i]
            if name.startswith("decoder.") or name == "training.evaluate":
                epoch_children[parent] += dur[i]
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def total(name):
        return float(sum(dur[i] for i in by_name.get(name, ())))

    def calls(name):
        return len(by_name.get(name, ()))

    epochs = by_name.get("training.train_epoch", [])
    counts = record["counts"]
    out = {
        "events.synthetic_records_s": (total("events.synthetic_records"), "s"),
        "events.frames_to_inputs_s": (total("events.frames_to_inputs"), "s"),
        "events.load_events_s": (total("events.load_events"), "s"),
        "events.records": (counts.get("events.records", 0), "count"),
        "events.events": (counts.get("events.events", 0), "count"),
        "events.bytes_read": (counts.get("events.bytes_read", 0), "bytes"),
        "training.train_epoch_s": (_median([dur[i] for i in epochs]), "s"),
        "training.train_epoch_self_s": (_median([dur[i] - epoch_children[i] for i in epochs]), "s"),
        "training.evaluate_s": (_median([dur[i] for i in by_name.get("training.evaluate", [])]), "s"),
        "training.evaluate_calls": (calls("training.evaluate"), "count"),
        "training.sgd_update_s": (total("training.sgd_update"), "s"),
        "decoder.forward_batch_s": (total("decoder.forward_batch"), "s"),
        "decoder.backward_batch_s": (total("decoder.backward_batch"), "s"),
        "decoder.calls": (sum(calls(n) for n in by_name if n.startswith("decoder.")), "count"),
        "encoder.grad_u_log_prob_noisy_s": (total("encoder.grad_u_log_prob_noisy"), "s"),
        "encoder.grad_u_log_prob_noisy_calls": (calls("encoder.grad_u_log_prob_noisy"), "count"),
        "numerics.sigmoid_s": (total("numerics.sigmoid"), "s"),
        "numerics.sigmoid_calls": (calls("numerics.sigmoid"), "count"),
        "checkpoint.save_s": (total("checkpoint.save_checkpoint"), "s"),
        "checkpoint.bytes": (counts.get("checkpoint.bytes", 0), "bytes"),
        "checkpoint.load_s": (total("checkpoint.load_checkpoint"), "s"),
        "metrics.write_s": (total("metrics.write_metrics"), "s"),
        "trace.spans": (len(spans), "count"),
    }
    for layer in LAYERS:
        self_s = float(sum(dur[i] - children[i] for i, s in enumerate(spans)
                           if s[0].startswith(layer + ".")))
        out[f"{layer}.self_s"] = (self_s, "s")
    return out


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": BLAS_THREADS,
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and check one run; returns the result object."""
    run_dir = OUT / f"{w.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    run = Run(w, seed, run_dir)
    run.prepare()
    if not run.problems:
        run.measure(seconds, trace)
    attempted = len(run.invocations)
    failed = sum(1 for i in run.invocations if i.code != 0)
    if not run.problems and not all(run.full(m) for m in (("run", "trace") if trace else ("run",))):
        run.problems.append("no invocation of some kind succeeded")
    metrics = {}
    if not run.problems:
        metrics = run.per_layer() if trace else run.end_to_end()
    samples = {i.out.name: {"code": i.code, "wall_s": i.wall_s, "cpu_s": i.cpu_s,
                            "rss_mb": i.rss_mb} for i in run.invocations}
    print(json.dumps({"machine": machine(), "workload": w.name, "seed": seed,
                      "invocations": samples, "problems": run.problems}))
    if run.problems or failed:
        print(f"outputs kept in {run_dir}", file=sys.stderr)
    else:
        shutil.rmtree(run_dir)
    return {
        "correct": not run.problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spikelink" / "cli.py").is_file():
        print(f"error: no spikelink sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spikelink.cli  # noqa: F401  (also compiles the package once before any child)

    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
