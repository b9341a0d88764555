"""Line-oriented experiment metrics and their CSV / key-value export."""

from __future__ import annotations

import contextlib
import csv
import io
import os
from dataclasses import dataclass
from pathlib import Path

__all__ = ["MetricsRow", "write_metrics", "read_metrics", "export_metrics"]

# column order is fixed; everything that writes or parses metrics uses this
CSV_HEADER = (
    "experiment", "point", "epoch", "epsilon", "ebn0_db", "beta", "k",
    "error_rate", "spike_rate", "seconds",
)


@dataclass(frozen=True)
class MetricsRow:
    experiment: str
    point: int
    epoch: int
    epsilon: float
    ebn0_db: float | None
    beta: float
    k: int
    error_rate: float
    spike_rate: float
    seconds: float

    def to_fields(self) -> list[str]:
        # repr round-trips float64 exactly, which keeps exports lossless
        return [
            self.experiment,
            str(self.point),
            str(self.epoch),
            repr(float(self.epsilon)),
            "" if self.ebn0_db is None else repr(float(self.ebn0_db)),
            repr(float(self.beta)),
            str(self.k),
            repr(float(self.error_rate)),
            repr(float(self.spike_rate)),
            repr(float(self.seconds)),
        ]

    @classmethod
    def from_fields(cls, fields: list[str]) -> "MetricsRow":
        if len(fields) != len(CSV_HEADER):
            raise ValueError(f"expected {len(CSV_HEADER)} fields, got {len(fields)}")
        return cls(
            experiment=fields[0],
            point=int(fields[1]),
            epoch=int(fields[2]),
            epsilon=float(fields[3]),
            ebn0_db=None if fields[4] == "" else float(fields[4]),
            beta=float(fields[5]),
            k=int(fields[6]),
            error_rate=float(fields[7]),
            spike_rate=float(fields[8]),
            seconds=float(fields[9]),
        )


@contextlib.contextmanager
def _atomic_open(path: Path, **kwargs):
    """Text file handle whose contents replace `path` only if the block succeeds.

    Writes a temporary file in the target directory, then os.replace()s it,
    so a crash leaves either the old file or the new one, never a mix.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_csv(fh, rows) -> None:
    """The header and one line per row, quoted where a field needs it."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(row.to_fields() for row in rows)


def write_metrics(path, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with _atomic_open(path, newline="") as fh:
        _write_csv(fh, rows)


def read_metrics(path) -> list[MetricsRow]:
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty metrics file")
        if tuple(header) != CSV_HEADER:
            raise ValueError(f"{path}: unexpected metrics header {header}")
        try:
            return [MetricsRow.from_fields(row) for row in reader if row]
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None


def export_metrics(rows, fmt: str = "csv") -> str:
    """Render rows as CSV (default) or `key=value` lines, one row per line."""
    if fmt == "csv":
        text = io.StringIO()
        _write_csv(text, rows)
        return text.getvalue()
    if fmt == "kv":
        lines = []
        for row in rows:
            pairs = zip(CSV_HEADER, row.to_fields())
            lines.append(" ".join(f"{k}={v}" for k, v in pairs))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown export format {fmt!r}")
