"""Shared numerics: stable element-wise math, the causal filter, seeded randomness.

Everything downstream (encoder, channel, decoder, trainer) pulls its math
from here so that stability fixes and reproducibility rules live in one
place.  All float work is double precision.  A Kernel is the one causal
filter, a banded product, with what it reads cached on it.

A random stream (seed, stream_id) is NumPy's
Generator(PCG64(SeedSequence([seed, stream_id]))), draw for draw.  SeededRng
is such an address and draws nothing itself: it hands out the stream's
Generator, and every function that draws takes a numpy.random.Generator.
SeededRng seeds it without NumPy's per-stream constructors: SeedSequence's
mix and PCG64's seeding run here, in uint32 array arithmetic over a block
of streams, so a split or an evaluation chunk, one stream per record or
sample, pays for its seeding a block at a time.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field

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
    "SEED_BLOCK",
    "SeededRng",
]


def sigmoid(x):
    """Logistic function 1 / (1 + exp(-x)), as that one expression.

    Returns a new float64 array of x's shape, a float64 for a scalar.
    Below about -709.78, exp(-x) overflows to inf and the result is 0.0,
    where the exact value is subnormal (the overflow is not reported);
    large positive x gives 1.0.  For x < 0 it differs from the two-branch
    form e / (1 + e), e = exp(x), by float rounding alone: each is within a
    few ulp of the exact value.
    """
    arr = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-arr))


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
    """Decibel to linear power ratio; -inf dB maps to 0, and a ratio past
    the float range (above about 3,083 dB) to inf, as +inf dB does."""
    try:
        return float(10.0 ** (float(db) / 10.0))
    except OverflowError:
        return math.inf


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


# the output steps of one block of the banded product: no (steps, steps) matrix is made
FILTER_BLOCK = 64
# feedback taps read from a table of 2**m partial sums: 4096 entries (32 KB)
# at most, so a window past 13 adds its further taps one at a time
FB_TABLE_TAPS = 12


@dataclass(frozen=True, eq=False)
class Kernel:
    """Finite causal filter; coefficients[d] weighs the value d steps back.

    Two kernels are equal when their coefficients are.  Its band of each
    lag (band) and its feedback taps' partial sums (feedback_table) are
    built once and kept on it, for every copy of a model that shares it.
    """

    coefficients: np.ndarray
    _bands: dict = field(default_factory=dict, init=False, repr=False)

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

    def band(self, lag: int) -> np.ndarray:
        """A block's rows of the filter, C-contiguous and read-only: float64
        (FILTER_BLOCK, lag + FILTER_BLOCK), columns the lag steps before the
        block and then its own, band[t, lag + t - d] = coefficients[d]
        wherever that column exists, zeros elsewhere."""
        band = self._bands.get(lag)
        if band is None:
            d = lag + np.arange(FILTER_BLOCK)[:, None] - np.arange(lag + FILTER_BLOCK)
            taps = np.append(self.coefficients, 0.0)
            band = taps[np.where((d >= 0) & (d < taps.size - 1), d, -1)]
            band.flags.writeable = False
            self._bands[lag] = band
        return band

    @functools.cached_property
    def feedback_table(self) -> np.ndarray:
        """Read-only partial sums of taps 1 .. min(size - 1, FB_TABLE_TAPS):
        table[i] adds c_d for each set bit d - 1 of i, d = 1 first onto
        +0.0, the tap loop's own sum."""
        table = np.zeros(1)
        for d in range(1, min(self.coefficients.size - 1, FB_TABLE_TAPS) + 1):
            table = np.concatenate([table, table + self.coefficients[d]])
        table.flags.writeable = False
        return table

    def filter(self, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        """The causal filter of float64 x (n, steps, columns) along its
        steps, as a new array: step t is c0*x_t + c1*x_{t-1} + ..., history
        before step 0 reading zero; transpose runs the adjoint, backward in
        time.  Each block of FILTER_BLOCK output steps is one matrix product
        of the band of lag = min(size, steps) - 1 with the block's steps and
        the lag before them; the adjoint adds the band's transpose times
        each block onto those steps.  The band's zeros are multiplied too,
        so a non-finite value may spread through its column, earlier steps
        included: a caller must treat a drive with any non-finite value as
        diverged, never read its finite part."""
        steps = x.shape[1]
        lag = min(self.coefficients.size, steps) - 1
        out = np.zeros(x.shape) if transpose else np.empty(x.shape)
        for start in range(0, steps, FILTER_BLOCK):
            stop = min(start + FILTER_BLOCK, steps)
            first = max(start - lag, 0)
            rows = stop - start
            part = self.band(lag)[:rows, first - start + lag : rows + lag]
            if transpose:
                out[:, first:stop] += np.matmul(part.T, x[:, start:stop])
            else:
                np.matmul(part, x[:, first:stop], out=out[:, start:stop])
        return out


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


def _stream_hash(*parts, prefix=None):
    """blake2b state after the type-tagged encodings of parts, so ("a", 1)
    and ("a1",) cannot collide; given a prefix state, a copy of it goes on
    with parts."""
    h = hashlib.blake2b(digest_size=8) if prefix is None else prefix.copy()
    for part in parts:
        if isinstance(part, (bool, np.bool_)):
            raise TypeError("stream id parts must be ints or strings")
        if isinstance(part, (int, np.integer)):
            h.update(b"i" + int(part).to_bytes(16, "big", signed=True))
        elif isinstance(part, str):
            data = part.encode("utf-8")
            h.update(b"s" + len(data).to_bytes(4, "big") + data)
        else:
            raise TypeError(f"cannot fold {type(part).__name__} into a stream id")
    return h


def _stream_id(h) -> int:
    return int.from_bytes(h.digest(), "big")


def fold_stream_id(*parts) -> int:
    """Fold strings and ints into a stable 64-bit stream id.

    Uses blake2b over type-tagged encodings, so ("a", 1) and ("a1",) cannot
    collide and the result never depends on the process hash seed.
    """
    return _stream_id(_stream_hash(*parts))


# Replicated from NumPy, so that a block of streams is seeded in array
# arithmetic: SeedSequence's pool size, shift, hash and mix constants
# (numpy/random/bit_generator.pyx), and PCG64's multiplier and seeding
# (pcg64_set_seed, numpy/random/src/pcg64): from generate_state(4, uint64)
# words w, initstate = w[0] << 64 | w[1], initseq = w[2] << 64 | w[3],
# inc = (initseq << 1) | 1 and state = ((inc + initstate) * mult + inc)
# mod 2**128.  Checked against NumPy 2.4.6, whose wheels ship no .pyx
# sources; tests/test_numerics.py pins the streams to NumPy's constructors.
_POOL_SIZE, _XSHIFT = 4, 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1

# streams seeded together: bounds the states held at once
SEED_BLOCK = 64


def _words(n: int) -> list[int]:
    """n as little-endian 32-bit words, [0] for 0, as SeedSequence reads it."""
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash_calls(init: int, mult: int, calls) -> list[tuple[np.ndarray, np.ndarray]]:
    """Read-only (xor, multiplier) uint32 columns for each list of hash
    call numbers in calls: call j of a hash sequence from init xors in
    init * mult**j and then multiplies by init * mult**(j + 1), mod 2**32."""
    consts = [init]
    for _ in range(max(max(c) for c in calls) + 1):
        consts.append(consts[-1] * mult & _MASK32)
    column = np.array(consts, dtype=np.uint32)[:, None]
    pairs = [(column[list(c)], column[[j + 1 for j in c]]) for c in calls]
    for xor, mult in pairs:
        xor.flags.writeable = mult.flags.writeable = False
    return pairs


@functools.cache
def _mix_calls(size: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The hash constants of SeedSequence's mix of size entropy words, one
    column pair per step: filling the pool, then each source word src in
    turn, hashed once for each pool word it is mixed into (for a pool
    word, the three others in order, and a stand-in for its own row)."""
    pool = range(_POOL_SIZE)
    cross = [[_POOL_SIZE + (_POOL_SIZE - 1) * src + dst - (dst >= src) for dst in pool]
             for src in pool]
    extra = [[_POOL_SIZE * src + dst for dst in pool] for src in range(_POOL_SIZE, size)]
    return _hash_calls(_INIT_A, _MULT_A, [pool, *cross, *extra])


# generate_state's 8 words of 32 bits, read from the pool twice over
_STATE_CALLS = _hash_calls(_INIT_B, _MULT_B, [range(2 * _POOL_SIZE)])[0]


def _hash(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    out = (values ^ xor) * mult
    return out ^ (out >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_MULT_L * x - _MIX_MULT_R * y
    return out ^ (out >> _XSHIFT)


def _seed_state_words(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(row).generate_state(4, np.uint64) of each row of a
    (streams, words) uint32 entropy array, as (streams, 4) little-endian
    uint64 words.  The pool is held as (4, streams), and each step of
    SeedSequence's mix is one array operation over the streams and the
    pool words it reaches."""
    words = entropy.T
    fill, *steps = _mix_calls(len(words))
    pool = np.zeros((_POOL_SIZE, len(entropy)), dtype=np.uint32)
    pool[: len(words)] = words[:_POOL_SIZE]
    pool = _hash(pool, *fill)
    for src, consts in enumerate(steps):
        if src < _POOL_SIZE:
            mixed = _mix(pool, _hash(pool[src], *consts))
            mixed[src] = pool[src]
            pool = mixed
        else:
            pool = _mix(pool, _hash(words[src], *consts))
    state = _hash(np.tile(pool, (2, 1)), *_STATE_CALLS)
    return state.T.astype("<u4", order="C").view("<u8")


def _pcg64_states(seed: int, stream_ids) -> list[tuple[int, int]]:
    """(state, inc) of PCG64(SeedSequence([seed, i])) for each i of the
    list stream_ids, in order.  The streams are seeded together, grouped by
    their entropy's word count; a negative seed or id raises ValueError,
    as SeedSequence does."""
    head = _words(seed)
    groups: dict[int, list[tuple[int, list[int]]]] = {}
    for row, stream_id in enumerate(stream_ids):
        entropy = head + _words(stream_id)
        groups.setdefault(len(entropy), []).append((row, entropy))
    states = [None] * len(stream_ids)
    for rows in groups.values():
        words = _seed_state_words(np.array([entropy for _, entropy in rows], dtype=np.uint32))
        for (row, _), (s0, s1, q0, q1) in zip(rows, words.tolist()):
            inc = ((q0 << 64 | q1) << 1 | 1) & _MASK128
            states[row] = ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128, inc
    return states


def _generators(seed: int, id_blocks):
    """For each block of stream ids in turn, seed the block at once and
    yield the Generator of each (seed, id) stream.  One PCG64 and its
    Generator are made per call and reloaded for each stream (its 32-bit
    buffer emptied), so a yielded Generator is valid until the next one."""
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    for ids in id_blocks:
        for state, inc in _pcg64_states(seed, ids):
            bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            yield gen


class SeededRng:
    """The address (seed, stream_id) of a deterministic random stream.

    The same pair always replays the identical draw sequence; distinct
    stream ids under one seed give statistically independent streams.
    Substreams are derived by hash-folding structured tags, which keeps
    per-sample and per-epoch draws decoupled from loop order.  It draws
    nothing itself: generator is the stream's numpy.random.Generator, made
    on first read, which equals NumPy's PCG64(SeedSequence([seed,
    stream_id])), and substreams yields a block of substreams' Generators.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._gen = None

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = next(_generators(self.seed, [[self.stream_id]]))
        return self._gen

    def substreams(self, *parts, indices: range):
        """Yield the Generator of substream(*parts, i) for each i of
        indices, in order, each valid until the next is yielded.  The
        tagged prefix is hashed once, and SEED_BLOCK streams are seeded at
        a time."""
        prefix = _stream_hash(self.stream_id, *parts)
        blocks = ([_stream_id(_stream_hash(i, prefix=prefix)) for i in indices[b : b + SEED_BLOCK]]
                  for b in range(0, len(indices), SEED_BLOCK))
        return _generators(self.seed, blocks)

    def substream(self, *parts) -> "SeededRng":
        return SeededRng(self.seed, fold_stream_id(self.stream_id, *parts))

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed}, stream_id={self.stream_id})"
