"""Run one spikelink CLI invocation for the benchmark and record what it did.

    python3 benchmarks/child.py --record FILE --mode MODE -- <spikelink args>

The spikelink package comes from PYTHONPATH, which run.py points at the
checkout's src/.  Every mode records the calls the CLI makes into the
training module and the calls into training.evaluate, each with its wall
start and end on CLOCK_MONOTONIC (which the parent reads too) and its
process CPU time, so the parent can split the run into set-up, loop and
evaluation.  In run and setup mode those are the only wrappers, a few
dozen calls per invocation.

Modes:
    run     the whole invocation
    setup   stop at the first call into the training module, so only the
            invocation's set-up runs
    trace   as run, and also wrap every module-level public function of
            every layer, recording one span per call (name, start, end,
            parent) in memory; spans go to FILE when the CLI returns
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys
import time

LAYERS = ("events", "training", "encoder", "decoder", "numerics", "channel",
          "checkpoint", "metrics", "config", "cli")


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class SetupDone(BaseException):
    """Raised at the first training call in setup mode.  It is not an
    Exception, so the CLI's error handlers let it through."""


class Recorder:
    def __init__(self):
        # [name or samples, start, end, cpu start, cpu end]; wall times on
        # CLOCK_MONOTONIC, CPU times of this process
        self.training_calls: list[list] = []  # calls from cli into training
        self.evaluate_calls: list[list] = []  # training.evaluate, any caller
        self.spans: list = []                 # [name, start, end, parent]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def mark_training(self, fn, stop_at_first: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = [fn.__name__, clock(), None, time.process_time(), None]
            self.training_calls.append(entry)
            if stop_at_first:
                raise SetupDone
            try:
                return fn(*args, **kwargs)
            finally:
                entry[2], entry[4] = clock(), time.process_time()
        return wrapper

    def mark_evaluate(self, fn):
        @functools.wraps(fn)
        def wrapper(encoder, decoder, inputs, *args, **kwargs):
            entry = [len(inputs), clock(), None, time.process_time(), None]
            self.evaluate_calls.append(entry)
            try:
                return fn(encoder, decoder, inputs, *args, **kwargs)
            finally:
                entry[2], entry[4] = clock(), time.process_time()
        return wrapper

    def span(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = [name, clock(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(entry)
            try:
                result = fn(*args, **kwargs)
            finally:
                entry[2] = clock()
                stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result
        return wrapper


def _count_records(counts, args, records):
    counts["events.records"] = counts.get("events.records", 0) + len(records)
    counts["events.events"] = counts.get("events.events", 0) + sum(
        len(getattr(r, "events", ())) for r in records)


def _count_load(counts, args, records):
    _count_records(counts, args, records)
    counts["events.bytes_read"] = counts.get("events.bytes_read", 0) + os.path.getsize(args[0])


def _count_save(counts, args, result):
    counts["checkpoint.bytes"] = counts.get("checkpoint.bytes", 0) + os.path.getsize(args[0])


COUNTERS = {
    "events.synthetic_records": _count_records,
    "events.load_events": _count_load,
    "checkpoint.save_checkpoint": _count_save,
}


def _rebind(modules, original, wrapper) -> None:
    """Point every module-level name bound to `original` at `wrapper`."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install_tracing(rec: Recorder) -> None:
    import importlib

    modules = [importlib.import_module("spikelink")]
    modules += [importlib.import_module(f"spikelink.{layer}") for layer in LAYERS]
    for layer, mod in zip(LAYERS, modules[1:]):
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            _rebind(modules, fn, rec.span(name, fn, COUNTERS.get(name)))


def install_marks(rec: Recorder, stop_at_first: bool) -> None:
    import spikelink.cli as cli
    import spikelink.training as training

    for attr, fn in list(vars(cli).items()):
        if inspect.isfunction(fn) and fn.__module__ == training.__name__:
            setattr(cli, attr, rec.mark_training(fn, stop_at_first))
    # train_epoch calls the module's own evaluate once per epoch
    training.evaluate = rec.mark_evaluate(training.evaluate)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--record", required=True)
    parser.add_argument("--mode", choices=("run", "setup", "trace"), required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import spikelink.cli as cli

    rec = Recorder()
    if args.mode == "trace":
        install_tracing(rec)
    install_marks(rec, stop_at_first=args.mode == "setup")
    code = 0
    try:
        code = cli.main(cli_args)
    except SetupDone:
        pass
    finally:
        with open(args.record, "w") as fh:
            json.dump({
                "training_calls": rec.training_calls,
                "evaluate_calls": rec.evaluate_calls,
                "spans": rec.spans,
                "counts": rec.counts,
            }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
