"""Computations the benchmark checks spikelink against, written apart from it.

Nothing here imports spikelink.  Each function follows a documented
contract rather than the program's code:

* ``SeededRng``: a stream is ``PCG64(SeedSequence([seed, stream_id]))`` and
  a substream id is a blake2b fold of type-tagged parts (README,
  "Reproducibility"; ``numerics.fold_stream_id``).
* ``synthetic_inputs``: the oriented-bar task, one record per
  ``substream("data", tag, label, index)``: Poisson counts per cell, then
  uniform integer timestamps in ``[0, dur_us]``.
* ``bin_events``: bin ``floor(ts * T / dur)`` clamped to the last bin, line
  ``p*H*W + y*W + x``, a bin spikes if it holds an event (README, "Event
  files").
* ``reference_evaluate``: the paper's two-stage evaluation path, one sample
  and one step at a time, with draws from ``substream("eval", i)``: spike
  uniforms first, flip uniforms second (``training.evaluate`` docstring).
* ``read_checkpoint``: the tagged hex-float text format
  (``checkpoint.py`` module docstring).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------------------
# seeded streams


def fold_stream_id(*parts) -> int:
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, int):
            h.update(b"i" + part.to_bytes(16, "big", signed=True))
        else:
            data = part.encode("utf-8")
            h.update(b"s" + len(data).to_bytes(4, "big") + data)
    return int.from_bytes(h.digest(), "big")


def stream(seed: int, *parts) -> np.random.Generator:
    """Generator of ``SeededRng(seed).substream(*parts)``."""
    seq = np.random.SeedSequence([seed, fold_stream_id(0, *parts)])
    return np.random.Generator(np.random.PCG64(seq))


# ---------------------------------------------------------------------------
# event binning and the synthetic bar task


def bin_events(ts, xs, ys, pol, width, height, duration_us, steps) -> np.ndarray:
    """Binary frames of one record, shape (steps, 2*height*width), uint8."""
    ts = np.asarray(ts, dtype=np.int64)
    bins = np.minimum(ts * steps // duration_us, steps - 1)
    lines = (np.asarray(pol) * height + np.asarray(ys)) * width + np.asarray(xs)
    out = np.zeros((steps, 2 * height * width), dtype=np.uint8)
    out[bins, lines] = 1
    return out


@dataclass(frozen=True)
class BarTask:
    """The synthetic task's knobs, named as in the config file."""

    classes: int = 4
    width: int = 16
    height: int = 16
    duration_us: int = 20_000
    events_per_pixel: float = 8.0
    background_events: float = 0.3
    bar_halfwidth: int = 2

    def rates(self, label: int) -> np.ndarray:
        """Expected events per (polarity, y, x) for one class."""
        h, w, hw = self.height, self.width, self.bar_halfwidth
        ys, xs = np.mgrid[0:h, 0:w]
        masks = (
            np.abs(ys - h // 2) < hw,
            np.abs(xs - w // 2) < hw,
            np.abs(ys - xs) < hw,
            np.abs(ys + xs - (w - 1)) < hw,
        )
        on = (0.8, 0.6, 0.4, 0.2)[label]
        rates = np.full((2, h, w), self.background_events / 2.0)
        rates[1] += masks[label] * self.events_per_pixel * on
        rates[0] += masks[label] * self.events_per_pixel * (1.0 - on)
        return rates


def synthetic_inputs(task: BarTask, per_class: int, seed: int, tag: str, steps: int):
    """Binned inputs (n, steps, lines) uint8 and labels of one synthetic split."""
    frames, labels = [], []
    for label in range(task.classes):
        rates = task.rates(label)
        for idx in range(per_class):
            gen = stream(seed, "data", tag, label, idx)
            counts = gen.poisson(rates)
            pol, ys, xs = np.nonzero(counts)
            reps = counts[pol, ys, xs]
            ts = gen.integers(0, task.duration_us + 1, size=int(counts.sum()))
            frames.append(bin_events(ts, np.repeat(xs, reps), np.repeat(ys, reps),
                                     np.repeat(pol, reps), task.width, task.height,
                                     task.duration_us, steps))
            labels.append(label)
    return np.stack(frames), np.array(labels, dtype=np.int64)


# ---------------------------------------------------------------------------
# event files written by the benchmark itself


@dataclass
class EventRecord:
    label: int
    ts: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    pol: np.ndarray


def wide_records(task: BarTask, count: int, seed: int, split: int) -> list[EventRecord]:
    """``count`` bar records with interleaved labels, from the benchmark's own stream.

    The draw order is the benchmark's (one NumPy Generator per split), not
    spikelink's, so the files are inputs the program has never generated.
    """
    gen = np.random.default_rng([seed, split])
    records = []
    for i in range(count):
        label = i % task.classes
        counts = gen.poisson(task.rates(label))
        pol, ys, xs = np.nonzero(counts)
        reps = counts[pol, ys, xs]
        ts = gen.integers(0, task.duration_us + 1, size=int(counts.sum()))
        order = np.argsort(ts, kind="stable")
        records.append(EventRecord(label, ts[order], np.repeat(xs, reps)[order],
                                   np.repeat(ys, reps)[order], np.repeat(pol, reps)[order]))
    return records


def write_event_file(path, records: list[EventRecord], task: BarTask) -> None:
    """Write records in the documented block text format."""
    with Path(path).open("w") as fh:
        for rec in records:
            fh.write(f"# record label={rec.label} w={task.width} h={task.height} "
                     f"dur_us={task.duration_us}\n")
            rows = np.stack([rec.ts, rec.xs, rec.ys, rec.pol], axis=1).tolist()
            fh.write("".join(f"{t} {x} {y} {p}\n" for t, x, y, p in rows))
            fh.write("\n")


def bin_records(records: list[EventRecord], task: BarTask, steps: int):
    frames = np.stack([
        bin_events(r.ts, r.xs, r.ys, r.pol, task.width, task.height, task.duration_us, steps)
        for r in records
    ])
    return frames, np.array([r.label for r in records], dtype=np.int64)


# ---------------------------------------------------------------------------
# checkpoints


class FormatError(ValueError):
    pass


def read_checkpoint(path) -> tuple[dict, dict]:
    """Return (meta, blocks) from a checkpoint text file."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].split() != ["spikelink-checkpoint", "1"]:
        raise FormatError("bad checkpoint magic line")
    meta, blocks = {}, {}
    i = 1
    while i < len(lines):
        parts = lines[i].split()
        i += 1
        if parts == ["end"]:
            return meta, blocks
        if parts[0] == "meta" and len(parts) == 3:
            meta[parts[1]] = parts[2]
        elif parts[0] == "block":
            ndim = int(parts[2])
            shape = tuple(int(p) for p in parts[3:3 + ndim])
            values: list[float] = []
            while len(values) < math.prod(shape):
                values.extend(float.fromhex(v) for v in lines[i].split())
                i += 1
            if len(values) != math.prod(shape):
                raise FormatError(f"block {parts[1]}: value count")
            blocks[parts[1]] = np.array(values).reshape(shape)
        else:
            raise FormatError(f"line {i}: unexpected {lines[i - 1]!r}")
    raise FormatError("checkpoint has no end line")


# ---------------------------------------------------------------------------
# evaluation


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def reference_evaluate(blocks: dict, output: str, inputs, labels, epsilons, seed: int):
    """(error_rate, spike_rate) at each epsilon, per sample and per step.

    u[t] = W_ff (a * x)[t] + w_fb * sum_{d>=1} b[d] z[t-d] + bias;
    z[t] = 1 if the spike uniform < sigmoid(u[t]); the received bit is z
    XOR (flip uniform < eps); the decoder is dense ReLU then a sigmoid or
    softmax head, and the prediction is the first largest probability.
    """
    w_ff, w_fb, bias = blocks["encoder.ff_weights"], blocks["encoder.fb_weights"], blocks["encoder.bias"]
    a, b = blocks["encoder.kernel_ff"], blocks["encoder.kernel_fb"]
    w1, b1, w2, b2 = (blocks[f"decoder.{n}"] for n in ("w1", "b1", "w2", "b2"))
    n, steps, _ = inputs.shape
    k = w_ff.shape[0]
    wrong = np.zeros(len(epsilons))
    spikes = 0
    for i in range(n):
        gen = stream(seed, "eval", i)
        spike_u = gen.random((steps, k))
        flip_u = gen.random((steps, k))
        x = inputs[i].astype(np.float64)
        z = np.zeros((steps, k))
        for t in range(steps):
            trace = sum(a[d] * x[t - d] for d in range(min(a.size, t + 1)))
            fb = sum((b[d] * z[t - d] for d in range(1, min(b.size, t + 1))), np.zeros(k))
            u = w_ff @ trace + w_fb * fb + bias
            z[t] = spike_u[t] < _sigmoid(u)
        spikes += z.sum()
        for j, eps in enumerate(epsilons):
            received = np.logical_xor(z, flip_u < eps).reshape(-1).astype(np.float64)
            logits = w2 @ np.maximum(w1 @ received + b1, 0.0) + b2
            if output == "softmax":
                probs = np.exp(logits - logits.max())
                probs /= probs.sum()
            else:
                probs = _sigmoid(logits)
            wrong[j] += int(np.argmax(probs)) != labels[i]
    rate = spikes / float(n * steps * k)
    return [(wrong[j] / n, rate) for j in range(len(epsilons))]
