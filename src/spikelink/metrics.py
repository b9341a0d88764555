"""Line-oriented experiment metrics and their CSV / key-value export."""

from __future__ import annotations

import contextlib
import csv
import io
import os
from dataclasses import dataclass, fields
from pathlib import Path

__all__ = ["MetricsRow", "write_metrics", "read_metrics", "export_metrics"]

# each column's text form by its field's annotated type, one table per
# direction; repr round-trips float64 exactly, which keeps exports lossless
_FORMAT = {"str": str, "int": str, "float": lambda v: repr(float(v)),
           "float | None": lambda v: "" if v is None else repr(float(v))}
_PARSE = {"str": str, "int": int, "float": float,
          "float | None": lambda text: None if text == "" else float(text)}


@dataclass(frozen=True)
class MetricsRow:
    """One metrics line; its fields, in order, are the columns."""

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
        return [_FORMAT[kind](getattr(self, name)) for name, kind in _COLUMNS]

    @classmethod
    def from_fields(cls, fields: list[str]) -> "MetricsRow":
        if len(fields) != len(_COLUMNS):
            raise ValueError(f"expected {len(_COLUMNS)} fields, got {len(fields)}")
        return cls(**{name: _PARSE[kind](text) for (name, kind), text in zip(_COLUMNS, fields)})


# (name, annotated type) of each column, in MetricsRow's field order, which
# is the order everything that writes or parses metrics uses
_COLUMNS = tuple((f.name, f.type) for f in fields(MetricsRow))
CSV_HEADER = tuple(name for name, _ in _COLUMNS)


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
            header = next(reader, None)
            if header is not None and tuple(header) == CSV_HEADER:
                return [MetricsRow.from_fields(row) for row in reader if row]
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if header is None:
        raise ValueError(f"{path}: empty metrics file")
    raise ValueError(f"{path}: unexpected metrics header {header}")


def export_metrics(rows, fmt: str = "csv") -> str:
    """Render rows as CSV (default) or `key=value` lines, one row per line
    (no rows: the CSV header alone, or no key=value text at all)."""
    if fmt == "csv":
        text = io.StringIO()
        _write_csv(text, rows)
        return text.getvalue()
    if fmt == "kv":
        return "".join(
            " ".join(f"{k}={v}" for k, v in zip(CSV_HEADER, row.to_fields())) + "\n"
            for row in rows
        )
    raise ValueError(f"unknown export format {fmt!r}")
