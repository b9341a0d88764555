"""Bit-exact parameter checkpoints.

One text file holds tagged blocks for the encoder and the decoder.  Layout:

    spikelink-checkpoint 1
    meta <key> <value>          (zero or more; strings without spaces)
    block <name> <ndim> <d0> [<d1> ...]
    <hex floats, 8 per line, row-major>
    ...
    end

Values are written with float.hex(), so loading reproduces every bit of
every float64.  Unknown versions, missing blocks, truncated value streams,
non-finite values and arrays that do not form a model all raise
CheckpointError.  A save writes a temporary file and renames it over the
target, so an interrupted save keeps the old file.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .decoder import DecoderParams
from .encoder import EncoderParams
from .metrics import _atomic_open
from .numerics import Kernel

__all__ = ["CheckpointError", "save_checkpoint", "load_checkpoint"]

_MAGIC = "spikelink-checkpoint"
_VERSION = 1
_PER_LINE = 8

# every block the model needs, with its number of dimensions
BLOCK_NDIM = {
    "encoder.ff_weights": 2, "encoder.fb_weights": 1, "encoder.bias": 1,
    "encoder.kernel_ff": 1, "encoder.kernel_fb": 1,
    "decoder.w1": 2, "decoder.b1": 1, "decoder.w2": 2, "decoder.b2": 1,
}


class CheckpointError(ValueError):
    """Raised for unreadable or internally inconsistent checkpoint files."""


def _write_block(fh, name: str, arr: np.ndarray) -> None:
    arr = np.asarray(arr, dtype=np.float64)
    dims = " ".join(str(d) for d in arr.shape)
    fh.write(f"block {name} {arr.ndim} {dims}\n")
    # as Python floats: float.hex gives np.float64.hex's text without a scalar per value
    flat = arr.reshape(-1).tolist()
    for start in range(0, len(flat), _PER_LINE):
        fh.write(" ".join(map(float.hex, flat[start : start + _PER_LINE])))
        fh.write("\n")


def save_checkpoint(path, encoder: EncoderParams, decoder: DecoderParams,
                    meta: dict | None = None) -> None:
    """Write both parameter sets and optional string metadata."""
    path = Path(path)
    with _atomic_open(path) as fh:
        fh.write(f"{_MAGIC} {_VERSION}\n")
        items = {"output": decoder.output, **(meta or {})}
        for key in sorted(items):
            key, value = str(key), str(items[key])
            if not (key and value) or any(c.isspace() for c in key + value):
                raise CheckpointError(f"meta entries must be non-empty, without spaces: {key!r}")
            fh.write(f"meta {key} {value}\n")
        _write_block(fh, "encoder.ff_weights", encoder.ff_weights)
        _write_block(fh, "encoder.fb_weights", encoder.fb_weights)
        _write_block(fh, "encoder.bias", encoder.bias)
        _write_block(fh, "encoder.kernel_ff", encoder.kernel_ff.coefficients)
        _write_block(fh, "encoder.kernel_fb", encoder.kernel_fb.coefficients)
        _write_block(fh, "decoder.w1", decoder.w1)
        _write_block(fh, "decoder.b1", decoder.b1)
        _write_block(fh, "decoder.w2", decoder.w2)
        _write_block(fh, "decoder.b2", decoder.b2)
        fh.write("end\n")


def load_checkpoint(path) -> tuple[EncoderParams, DecoderParams, dict]:
    """Read a checkpoint; returns (encoder, decoder, meta) bit-identical to save."""
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise CheckpointError("empty checkpoint file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != _MAGIC:
        raise CheckpointError("not a checkpoint file")
    if head[1] != str(_VERSION):
        raise CheckpointError(f"unsupported checkpoint version {head[1]!r}")

    meta: dict = {}
    blocks: dict[str, np.ndarray] = {}
    i = 1
    ended = False
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line:
            continue
        if line == "end":
            ended = True
            break
        parts = line.split()
        if parts[0] == "meta":
            if len(parts) != 3:
                raise CheckpointError(f"line {i}: malformed meta entry")
            meta[parts[1]] = parts[2]
            continue
        if parts[0] != "block":
            raise CheckpointError(f"line {i}: expected block, meta, or end")
        if len(parts) < 3:
            raise CheckpointError(f"line {i}: malformed block header")
        name = parts[1]
        try:
            ndim = int(parts[2])
            shape = tuple(int(p) for p in parts[3 : 3 + ndim])
        except ValueError:
            raise CheckpointError(f"line {i}: non-integer block shape")
        if len(shape) != ndim:
            raise CheckpointError(f"line {i}: block header dimension mismatch")
        if any(d < 0 for d in shape):
            raise CheckpointError(f"line {i}: negative block dimension")
        total = math.prod(shape)
        values: list[float] = []
        while len(values) < total:
            if i >= len(lines):
                raise CheckpointError(f"block {name}: value stream truncated")
            row = lines[i].split()
            i += 1
            try:
                values.extend(float.fromhex(v) for v in row)
            except (ValueError, OverflowError):
                raise CheckpointError(f"line {i}: bad or out-of-range hex float in block {name}")
        if len(values) != total:
            raise CheckpointError(f"block {name}: expected {total} values")
        if not all(map(math.isfinite, values)):
            raise CheckpointError(f"block {name}: non-finite value")
        blocks[name] = np.array(values, dtype=np.float64).reshape(shape)
    if not ended:
        raise CheckpointError("checkpoint missing end marker")

    missing = [b for b in BLOCK_NDIM if b not in blocks]
    if missing:
        raise CheckpointError(f"checkpoint missing blocks: {missing}")
    for name, ndim in BLOCK_NDIM.items():
        if blocks[name].ndim != ndim:
            raise CheckpointError(f"block {name}: expected {ndim} dimensions")
    try:
        encoder = EncoderParams(
            ff_weights=blocks["encoder.ff_weights"],
            fb_weights=blocks["encoder.fb_weights"],
            bias=blocks["encoder.bias"],
            kernel_ff=Kernel(blocks["encoder.kernel_ff"]),
            kernel_fb=Kernel(blocks["encoder.kernel_fb"]),
        )
        decoder = DecoderParams(
            w1=blocks["decoder.w1"],
            b1=blocks["decoder.b1"],
            w2=blocks["decoder.w2"],
            b2=blocks["decoder.b2"],
            output=meta.get("output", "sigmoid"),
        )
    except ValueError as exc:
        raise CheckpointError(f"checkpoint arrays do not form a model: {exc}") from exc
    return encoder, decoder, meta
