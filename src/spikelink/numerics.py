"""Shared numerics: stable element-wise math, causal filters, seeded randomness.

Everything downstream (encoder, channel, decoder, trainer) pulls its math
from here so that stability fixes and reproducibility rules live in one
place.  All float work is double precision.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "sigmoid",
    "log_sigmoid",
    "softplus",
    "gaussian_q",
    "db_to_linear",
    "ebn0_to_epsilon",
    "Kernel",
    "exponential_kernel",
    "FlatParams",
    "fold_stream_id",
    "SeededRng",
]


def sigmoid(x):
    """Logistic function 1 / (1 + exp(-x)), stable for |x| up to ~745.

    Returns a new float64 array of x's shape, 0-d for a scalar.  Large
    positive x saturates to 1.0 and large negative x underflows to 0.0
    without ever overflowing exp.  With e = exp(-x) where x >= 0 and
    exp(x) elsewhere, it is 1 / (1 + e) where x >= 0 and e / (1 + e)
    elsewhere: the operands of the two-branch form exactly, so selecting
    with masks changes no bit (a nan keeps its sign, which exp(-|x|)
    would flip).
    """
    arr = np.asarray(x, dtype=np.float64)
    out = np.empty_like(arr)
    pos = arr >= 0
    # -x where x >= 0, else x; minimum hands back a nan x itself
    np.negative(arr, out=out)
    np.minimum(arr, out, out=out)
    np.exp(out, out=out)
    denom = 1.0 + out
    np.copyto(out, 1.0, where=pos)
    return np.divide(out, denom, out=out)


def softplus(x):
    """log(1 + exp(x)) without overflow; equals logaddexp(0, x)."""
    return np.logaddexp(0.0, np.asarray(x, dtype=np.float64))


def log_sigmoid(x):
    """log(sigmoid(x)) computed as -softplus(-x); never returns -inf for finite x."""
    return -np.logaddexp(0.0, -np.asarray(x, dtype=np.float64))


def gaussian_q(x: float) -> float:
    """Standard normal tail probability Q(x) = P(N(0,1) > x).

    Computed through the complementary error function, accurate to well
    below 1e-12 absolute over the whole real line.
    """
    return 0.5 * math.erfc(float(x) / math.sqrt(2.0))


def db_to_linear(db: float) -> float:
    """Decibel to linear power ratio; -inf dB maps to 0."""
    return float(10.0 ** (float(db) / 10.0))


# the forms ebn0_to_epsilon knows
EBN0_FORMS = ("linear", "bpsk")


def ebn0_to_epsilon(ebn0_linear: float, form: str = "linear") -> float:
    """Map a linear Eb/N0 to a binary symmetric channel crossover probability.

    The default "linear" form is Q(2 * Eb/N0), with Q applied to the linear
    ratio itself.  The conventional coherent BPSK form Q(sqrt(2 * Eb/N0))
    is available as form="bpsk" so callers can swap the mapping without
    touching the rest of the pipeline.

    Args:
        ebn0_linear: linear (not dB) Eb/N0, must be >= 0.
        form: "linear" or "bpsk".

    Returns:
        Crossover probability in [0, 0.5]; exactly 0.5 at Eb/N0 = 0.
    """
    x = float(ebn0_linear)
    if not math.isfinite(x) and x > 0:
        return 0.0
    if x < 0 or math.isnan(x):
        raise ValueError(f"Eb/N0 must be non-negative, got {ebn0_linear!r}")
    if form == "linear":
        return gaussian_q(2.0 * x)
    if form == "bpsk":
        return gaussian_q(math.sqrt(2.0 * x))
    raise ValueError(f"unknown Eb/N0 mapping form {form!r}")


@dataclass(frozen=True, eq=False)
class Kernel:
    """Finite causal filter; coefficients[d] weighs the value d steps back.

    Two kernels are equal when their coefficients are.
    """

    coefficients: np.ndarray

    def __post_init__(self):
        coeff = np.asarray(self.coefficients, dtype=np.float64)
        if coeff.ndim != 1 or coeff.size == 0:
            raise ValueError("kernel needs a non-empty 1-d coefficient array")
        if not np.all(np.isfinite(coeff)):
            raise ValueError("kernel coefficients must be finite")
        object.__setattr__(self, "coefficients", coeff)

    def __eq__(self, other):
        if not isinstance(other, Kernel):
            return NotImplemented
        return np.array_equal(self.coefficients, other.coefficients)


def exponential_kernel(tau: float = 5.0, window: int = 10) -> Kernel:
    """Kernel with coefficients exp(-d / tau) for d = 0 .. window-1."""
    if tau <= 0 or window < 1:
        raise ValueError("tau must be positive and window at least 1")
    return Kernel(np.exp(-np.arange(window, dtype=np.float64) / float(tau)))


class FlatParams:
    """Base of a model whose learnable fields, named in order in LEARNED,
    are views into one contiguous float64 `vector`, so an in-place change
    to the vector changes them.  Gradients and velocities are vectors of
    that layout, and split names their parts."""

    LEARNED: tuple[str, ...] = ()

    def _flatten(self) -> None:
        """Pack the LEARNED fields as float64 into a fresh vector of views."""
        arrays = [np.asarray(getattr(self, name), dtype=np.float64) for name in self.LEARNED]
        self.vector = np.concatenate([a.ravel() for a in arrays])
        for name, view in self.split(self.vector).items():
            setattr(self, name, view)

    def split(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Views of a vector of this model's layout, by field name."""
        if np.shape(vector) != self.vector.shape:
            raise ValueError(f"expected a vector of shape {self.vector.shape}")
        views, start = {}, 0
        for name in self.LEARNED:
            shape = np.shape(getattr(self, name))
            size = math.prod(shape)
            views[name] = vector[start : start + size].reshape(shape)
            start += size
        return views


def fold_stream_id(*parts) -> int:
    """Fold strings and ints into a stable 64-bit stream id.

    Uses blake2b over type-tagged encodings, so ("a", 1) and ("a1",) cannot
    collide and the result never depends on the process hash seed.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, (bool, np.bool_)):
            raise TypeError("stream id parts must be ints or strings")
        if isinstance(part, (int, np.integer)):
            h.update(b"i")
            h.update(int(part).to_bytes(16, "big", signed=True))
        elif isinstance(part, str):
            data = part.encode("utf-8")
            h.update(b"s")
            h.update(len(data).to_bytes(4, "big"))
            h.update(data)
        else:
            raise TypeError(f"cannot fold {type(part).__name__} into a stream id")
    return int.from_bytes(h.digest(), "big")


class SeededRng:
    """Deterministic random stream addressed by (seed, stream_id).

    The same pair always replays the identical draw sequence; distinct
    stream ids under one seed give statistically independent streams.
    Substreams are derived by hash-folding structured tags, which keeps
    per-sample and per-epoch draws decoupled from loop order.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._gen = None

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            seq = np.random.SeedSequence([self.seed, self.stream_id])
            self._gen = np.random.Generator(np.random.PCG64(seq))
        return self._gen

    def substream(self, *parts) -> "SeededRng":
        return SeededRng(self.seed, fold_stream_id(self.stream_id, *parts))

    def uniform(self, size=None) -> np.ndarray:
        return self.generator.random(size)

    def poisson(self, lam) -> np.ndarray:
        return self.generator.poisson(lam)

    def integers(self, low, high, size=None) -> np.ndarray:
        return self.generator.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self.generator.permutation(n)

    def uniform_range(self, low: float, high: float, size=None) -> np.ndarray:
        return self.generator.uniform(low, high, size)

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed}, stream_id={self.stream_id})"
