"""Event streams: the synthetic bar task, text parsing, binning.

An event is (timestamp in microseconds, x, y, polarity).  A record keeps
its events as integer columns in one structured array of EVENT_DTYPE, so
generation, validation, parsing and binning are array operations.  Records
are accumulated into a fixed number of uniform time bins per polarity and
binarized: a count is 1 where an event fell.  synthetic_frames and
load_frames bin a split as each record is drawn or parsed, straight into
the index of its nonzero counts (encoder.ActiveCounts), the only
preprocessing the encoder sees before its input filter: no list of records
and no dense counts are held.  A scratch buffer too large to allocate
raises NumPy's own MemoryError, which carries its shape and dtype.  The
bar task reads its settings from the RunConfig; each synthetic record
draws from its own seeded stream, and the streams of a class are seeded a
block at a time (numerics.SeededRng.substreams).  load_events and
frames_to_inputs (a record list's index written out as dense uint8
counts) are kept for the benchmark's binning check and the tests.  Vendor
formats are out of scope; converters should target the text format below.

Text format, one record per block:

    # record label=<int> w=<int> h=<int> dur_us=<int>
    <timestamp_us> <x> <y> <polarity>
    ...

A blank line (or end of file) closes the record.  Each header key is given
once, and its value is a decimal integer within int64.  Event fields are
decimal integers with an optional sign, at most 18 digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .encoder import ActiveCounts
from .numerics import SeededRng

if TYPE_CHECKING:
    from .config import RunConfig

__all__ = [
    "EVENT_DTYPE",
    "EventRecord",
    "EventFormatError",
    "class_rate_map",
    "synthetic_frames",
    "frames_to_inputs",
    "load_events",
    "load_frames",
]

EVENT_DTYPE = np.dtype(
    [("timestamp", np.int64), ("x", np.int64), ("y", np.int64), ("polarity", np.int64)]
)


class EventFormatError(ValueError):
    """Raised on malformed event text, with the offending line number."""


@dataclass(eq=False)
class EventRecord:
    """One labelled event stream with its sensor geometry and duration.

    events is coerced to a 1-D array of EVENT_DTYPE; anything that converts
    (an array of that dtype, or a sequence of (timestamp, x, y, polarity)
    tuples) is accepted.  Records compare by identity: compare the columns
    of two records with NumPy.
    """

    events: np.ndarray
    label: int
    width: int
    height: int
    duration_us: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1 or self.duration_us < 1:
            raise ValueError("geometry and duration must be positive")
        if self.label < 0:
            raise ValueError("label must be non-negative")
        ev = np.asarray(self.events, dtype=EVENT_DTYPE)
        if ev.ndim != 1:
            raise ValueError("events must be one-dimensional")
        self.events = ev
        ts, x, y, pol = ev["timestamp"], ev["x"], ev["y"], ev["polarity"]
        off_sensor = (x < 0) | (x >= self.width) | (y < 0) | (y >= self.height)
        bad_polarity = (pol != 0) & (pol != 1)
        outside = (ts < 0) | (ts > self.duration_us)
        unsorted = np.zeros(len(ev), dtype=bool)
        unsorted[1:] = ts[1:] < ts[:-1]
        bad = np.flatnonzero(off_sensor | bad_polarity | outside | unsorted)
        if bad.size:
            # the first bad event, named by its first failing check
            i = int(bad[0])
            if off_sensor[i]:
                raise ValueError(f"event {i} at ({x[i]}, {y[i]}) is off-sensor")
            if bad_polarity[i]:
                raise ValueError(f"event {i} polarity must be 0 or 1")
            if outside[i]:
                raise ValueError(f"event {i} timestamp outside the record duration")
            raise ValueError(f"event {i} breaks timestamp order")


_INT64_MAX = 2**63 - 1


def _bins(ts, duration_us: int, steps: int) -> np.ndarray:
    """The time bin of each timestamp: floor(ts * steps / duration) clamped
    to the last bin, so a timestamp equal to the duration still lands
    in-range.  Integer math keeps the edges exact; ts <= duration bounds
    the product.
    """
    if duration_us > _INT64_MAX // steps:
        raise ValueError("record duration too long to bin in 64-bit integers")
    return np.minimum(ts * steps // duration_us, steps - 1)


class _IndexSink:
    """Bins records straight into the index of their counts
    (encoder.ActiveCounts).

    open refuses a geometry of more lines than an index numbers, then fixes
    the geometry and allocates one (steps, lines) bool scratch buffer, in
    which add marks a record's (bin, line) positions, reads them back in
    order and clears them; they are kept offset by the record's place in
    the split.  record is the parser's way in: a mix of geometries, or a
    duration too long to bin, is raised by result(), so every record is
    seen (and, when parsing, every line checked) first.
    """

    def __init__(self, steps: int):
        if steps < 1:
            raise ValueError("steps must be positive")
        self.steps, self.geometry = steps, None
        self.positions, self.labels = [], []  # each record's positions and label
        self.mixed, self.too_long = False, None

    def open(self, height: int, width: int) -> None:
        ActiveCounts.check_width(2 * height * width, f"sensor geometry w={width} h={height}: ")
        self.geometry = (height, width)
        self.marks = np.zeros((self.steps, 2 * height * width), dtype=bool).reshape(-1)

    def add(self, bins: np.ndarray, lines: np.ndarray, label: int) -> None:
        """One record, as each event's time bin and line."""
        self.marks[bins * (self.marks.size // self.steps) + lines] = True
        found = np.flatnonzero(self.marks)
        self.marks[found] = False
        self.positions.append(found + len(self.labels) * self.marks.size)
        self.labels.append(label)

    def record(self, record: EventRecord) -> None:
        if self.geometry is None:
            self.open(record.height, record.width)
        if (record.height, record.width) != self.geometry:
            self.mixed = True
        elif self.too_long is None:
            (h, w), ev = self.geometry, record.events
            try:
                bins = _bins(ev["timestamp"], record.duration_us, self.steps)
            except ValueError as exc:
                self.too_long = exc
            else:
                self.add(bins, (ev["polarity"] * h + ev["y"]) * w + ev["x"], record.label)

    def result(self) -> tuple[tuple[int, int], ActiveCounts, np.ndarray]:
        """The (h, w) geometry, the index of the (records, steps, lines)
        counts and the labels of the records seen; no record gives an
        empty index of geometry 0 x 0."""
        if self.mixed:
            raise ValueError("records mix sensor geometries")
        if self.too_long is not None:
            raise self.too_long
        h, w = self.geometry or (0, 0)
        n, lines = len(self.labels), 2 * h * w
        positions = np.concatenate([np.empty(0, dtype=np.intp), *self.positions])
        self.positions = []  # freed before the lines are made
        offsets = np.searchsorted(positions, np.arange(n * self.steps + 1) * lines)
        line_of = np.remainder(positions, lines, out=np.empty(positions.size, dtype=np.int32))
        return ((h, w), ActiveCounts((n, self.steps, lines), line_of, offsets),
                np.array(self.labels, dtype=np.int64))


def frames_to_inputs(records, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Stack records into (n, steps, 2*H*W) uint8 counts plus labels.

    All records must share one sensor geometry.  They are binned into
    their index, as load_frames bins a file's, which is written out as
    counts of 0 or 1, a byte each.  One record is a batch of one.
    """
    records = list(records)
    sink = _IndexSink(steps)
    if not records:
        raise ValueError("no records")
    for record in records:
        sink.record(record)
    _, index, labels = sink.result()
    counts = np.zeros(index.shape, dtype=np.uint8)
    for r, record in enumerate(counts):  # no temporary of the split's size
        part = index[r : r + 1]
        record[np.repeat(np.arange(steps), np.diff(part.offsets)), part.lines] = 1
    return counts, labels


# ---------------------------------------------------------------------------
# synthetic task


def class_rate_map(label: int, config: RunConfig) -> np.ndarray:
    """Expected event counts per record of the Poisson oriented-bar task,
    shape (2, height, width).

    Each class lights up one bar pattern; events_per_pixel is the expected
    event count per active pixel over the record, split across polarities
    by a class-dependent fraction, on top of a uniform background rate.
    """
    if not 0 <= label < config.classes:
        raise ValueError(f"label {label} out of range")
    h, w = config.height, config.width
    ys, xs = np.mgrid[0:h, 0:w]
    hw = config.bar_halfwidth
    if label == 0:
        mask = np.abs(ys - h // 2) < hw
    elif label == 1:
        mask = np.abs(xs - w // 2) < hw
    elif label == 2:
        mask = np.abs(ys - xs) < hw
    else:
        mask = np.abs(ys + xs - (w - 1)) < hw
    on_fraction = (0.8, 0.6, 0.4, 0.2)[label]
    rates = np.full((2, h, w), config.background_events / 2.0)
    rates[1] += mask * config.events_per_pixel * on_fraction
    rates[0] += mask * config.events_per_pixel * (1.0 - on_fraction)
    return rates


def _draw_cells(rates: np.ndarray, config: RunConfig,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One record's events from rng: Poisson counts per cell of rates, then
    one uniform timestamp per event.  Returns the timestamps and each
    event's flat cell index into rates, the cells in C order."""
    counts = rng.poisson(rates).ravel()
    cells = np.flatnonzero(counts)
    events = np.repeat(cells, counts[cells])
    return rng.integers(0, config.duration_us + 1, size=len(events)), events


def synthetic_frames(config: RunConfig,
                     tag: str) -> tuple[tuple[int, int], ActiveCounts, np.ndarray]:
    """The "train" or "test" split of the bar task, binned into config.T
    steps as each record is drawn: the (height, width) geometry, the index
    of the (records, T, lines) counts, class by class, and the labels.

    Its per-class count is train_per_class or test_per_class; record idx
    of class label draws from substream("data", tag, label, idx) of
    config.seed, whose Generator SeededRng.substreams seeds a block at a
    time.  The scratch buffer is allocated before any record is drawn.
    Binning does not depend on event order, and the draws are in range by
    construction.
    """
    per_class = config.train_per_class if tag == "train" else config.test_per_class
    sink = _IndexSink(config.T)
    sink.open(config.height, config.width)
    root = SeededRng(config.seed)
    for label in range(config.classes):
        rates = class_rate_map(label, config)
        for gen in root.substreams("data", tag, label, indices=range(per_class)):
            stamps, cells = _draw_cells(rates, config, gen)
            sink.add(_bins(stamps, config.duration_us, config.T), cells, label)
    return sink.result()


# ---------------------------------------------------------------------------
# text parsing


def _parse_header(line: str, lineno: int) -> dict:
    body = line[1:].strip()
    parts = body.split()
    if not parts or parts[0] != "record":
        raise EventFormatError(f"line {lineno}: expected '# record ...' header")
    fields = {}
    for item in parts[1:]:
        key, sep, value = item.partition("=")
        if not sep:
            raise EventFormatError(f"line {lineno}: bad header field {item!r}")
        if key in fields:
            raise EventFormatError(f"line {lineno}: duplicate header key {key!r}")
        try:
            fields[key] = int(value)
        except ValueError:
            raise EventFormatError(f"line {lineno}: non-integer header value {item!r}")
        if not -(2**63) <= fields[key] < 2**63:
            raise EventFormatError(f"line {lineno}: header value {item!r} outside int64")
    missing = {"label", "w", "h", "dur_us"} - fields.keys()
    if missing:
        raise EventFormatError(f"line {lineno}: header missing {sorted(missing)}")
    return fields


# Byte classes of event lines.  A non-ASCII character, or an undecodable
# byte (read as U+FFFD), arrives as "?", an OTHER byte.
_SPACE, _NEWLINE, _DIGIT, _SIGN, _OTHER = range(5)
_BYTE_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_BYTE_CLASS[list(b" \t\r\x0b\x0c")] = _SPACE
_BYTE_CLASS[ord("\n")] = _NEWLINE
_BYTE_CLASS[list(b"0123456789")] = _DIGIT
_BYTE_CLASS[list(b"+-")] = _SIGN
_MAX_DIGITS = 18  # every 18-digit decimal fits in int64


def _parse_event_lines(chunk: np.ndarray, first_lineno: int) -> np.ndarray:
    """Parse a run of event lines into an (n,) array of EVENT_DTYPE.

    chunk holds the lines as ASCII bytes, each ending in a newline.  Every
    line must hold four tokens of the form [+-]?[0-9]{1,18}; the first line
    that does not is reported by its number.  Only then is the text handed
    to NumPy's parser, whose own grammar is looser.
    """
    cls = _BYTE_CLASS.take(chunk)
    in_token = cls >= _DIGIT
    # token edges alternate start, stop; the chunk ends in a newline
    edges = np.flatnonzero(in_token[1:] != in_token[:-1]) + 1
    if in_token[0]:
        edges = np.r_[0, edges]
    starts, stops = edges[0::2], edges[1::2]
    newlines = np.flatnonzero(cls == _NEWLINE)
    fields = np.diff(np.searchsorted(starts, newlines), prepend=0)
    signed = cls.take(starts) == _SIGN
    n_digits = stops - starts - signed
    stray = cls >= _SIGN  # a sign may only lead a token
    stray[starts[signed]] = False
    non_integer = np.zeros(len(newlines), dtype=bool)
    non_integer[np.searchsorted(newlines, np.flatnonzero(stray))] = True
    non_integer[np.searchsorted(newlines, starts[n_digits < 1])] = True
    too_long = np.zeros(len(newlines), dtype=bool)
    too_long[np.searchsorted(newlines, starts[n_digits > _MAX_DIGITS])] = True
    bad = (fields != 4) | non_integer | too_long
    if bad.any():
        i = int(np.argmax(bad))
        lineno = first_lineno + i
        if fields[i] != 4:
            raise EventFormatError(f"line {lineno}: expected 4 fields, got {fields[i]}")
        if non_integer[i]:
            raise EventFormatError(f"line {lineno}: non-integer event field")
        raise EventFormatError(f"line {lineno}: event field out of range")
    values = np.fromstring(chunk.tobytes(), dtype=np.int64, sep=" ")
    return values.view(EVENT_DTYPE)


_PIECE_CHARS = 1 << 16  # read size: keeps each buffer under malloc's mmap threshold


class _BlockReader:
    """The parser's state between pieces of a file; each record goes to
    sink as it closes."""

    def __init__(self, sink):
        self.sink = sink
        self.header: dict | None = None
        self.header_line = 0
        self.parts: list[np.ndarray] = []  # parsed event lines of the open record
        self.lines_done = 0

    def feed(self, text: str) -> None:
        """Consume whole lines; text is empty or ends with a newline."""
        buf = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)
        # line k (0-based) is buf[begins[k]:begins[k + 1]], newline included
        begins = np.r_[0, np.flatnonzero(buf == ord("\n")) + 1]
        first = buf[begins[:-1]]
        run = 0  # first line of the pending run of event lines
        for k in np.flatnonzero((first < ord("0")) | (first > ord("9"))).tolist():
            line = text[begins[k] : begins[k + 1]].strip()
            if line and not line.startswith("#"):
                continue  # an event line that does not start with a digit
            self._events(buf[begins[run] : begins[k]], run)
            run = k + 1
            self.close()
            if line:
                self.header = _parse_header(line, self.lines_done + k + 1)
                self.header_line = self.lines_done + k + 1
        self._events(buf[begins[run] :], run)
        self.lines_done += len(begins) - 1

    def _events(self, chunk: np.ndarray, first: int) -> None:
        if not chunk.size:
            return
        lineno = self.lines_done + first + 1
        if self.header is None:
            raise EventFormatError(f"line {lineno}: event before any record header")
        self.parts.append(_parse_event_lines(chunk, lineno))

    def close(self) -> None:
        """End the open record, if any, and validate it."""
        if self.header is None:
            return
        events = np.concatenate(self.parts) if self.parts else np.empty(0, EVENT_DTYPE)
        h = self.header
        try:
            record = EventRecord(events, h["label"], h["w"], h["h"], h["dur_us"])
        except ValueError as exc:
            raise EventFormatError(
                f"record starting at line {self.header_line}: {exc}"
            ) from exc
        self.header = None
        self.parts = []
        self.sink(record)


def _read_records(path, sink) -> None:
    """Parse the block text format, handing each record to sink as it closes.

    The file is read in pieces.  A line that starts with a digit is an
    event line; only the others (headers, blank lines, anything unusual)
    become Python strings, and runs of event lines are parsed into columns
    a piece at a time.
    """
    reader = _BlockReader(sink)
    with Path(path).open(encoding="utf-8", errors="replace") as fh:
        carry = ""
        while piece := fh.read(_PIECE_CHARS):
            text = carry + piece
            cut = text.rfind("\n") + 1
            reader.feed(text[:cut])
            carry = text[cut:]
        if carry:
            reader.feed(carry + "\n")
    reader.close()


def load_events(path) -> list[EventRecord]:
    """Parse the block text format; malformed input names the bad line."""
    records: list[EventRecord] = []
    _read_records(path, records.append)
    return records


def load_frames(path, steps: int) -> tuple[tuple[int, int], ActiveCounts, np.ndarray]:
    """load_events binned as each record is parsed, with no record list:
    the (h, w) geometry, the index of frames_to_inputs(load_events(path),
    steps)'s counts and the labels, raising its errors in the same order.
    The scratch buffer is allocated when the first record closes."""
    sink = _IndexSink(steps)
    _read_records(path, sink.record)
    return sink.result()
