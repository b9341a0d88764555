"""Flat run configuration: key = value files plus command-line overrides.

Every experiment is described by one RunConfig, the only settings object:
training and the synthetic bar task (events.synthetic_frames) read its
values by name, and crossover() resolves its channel point.  Files use
`key = value` lines with `#` comments; unknown keys are rejected so typos
fail loudly, and each value is parsed by its field's annotated type.
A RunConfig checks every value as it is built (dataclasses.replace builds
anew), before any dataset, output directory or model state exists.  The
bar task's settings are checked only for dataset = synthetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .decoder import OUTPUT_HEADS
from .numerics import EBN0_FORMS, Kernel, db_to_linear, ebn0_to_epsilon, exponential_kernel

__all__ = ["ConfigError", "RunConfig", "parse_config_file", "build_run_config"]


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("on", "true", "1", "yes"):
        return True
    if low in ("off", "false", "0", "no"):
        return False
    raise ValueError(f"expected on/off, got {raw!r}")


@dataclass(frozen=True)
class RunConfig:
    """One experiment's worth of settings; defaults are the desk-scale task."""

    dataset: str = "synthetic"
    classes: int = 4
    height: int = 16
    width: int = 16
    duration_us: int = 20_000
    events_per_pixel: float = 8.0
    background_events: float = 0.3
    bar_halfwidth: int = 2
    train_per_class: int = 64
    test_per_class: int = 32
    train_events: str = ""
    test_events: str = ""

    k: int = 16
    T: int = 20
    hidden: int = 64
    tau_ff: float = 5.0
    window_ff: int = 10
    tau_fb: float = 5.0
    window_fb: int = 10

    beta: float = 1e-3
    eta: float = 0.05
    epochs: int = 30
    batch_size: int = 16
    seed: int = 0
    init_rate: float = 0.1
    prior_rate: float = 0.3
    momentum: float = 0.0
    grad_clip: float = 0.0
    baseline: bool = False
    output: str = "sigmoid"

    epsilon: float | None = 0.1
    ebn0_db: float | None = None
    mapping: str = "linear"

    timing: bool = True
    out: str = "runs/latest"

    def __post_init__(self):
        if self.dataset not in ("synthetic", "events"):
            raise ConfigError(f"dataset must be synthetic or events, got {self.dataset!r}")
        if self.dataset == "events" and not (self.train_events and self.test_events):
            raise ConfigError("events dataset needs train_events and test_events paths")
        for f in fields(self):
            value = getattr(self, f.name)
            if _KINDS[f.name] == "float" and value is not None and math.isnan(value):
                raise ConfigError(f"{f.name} must be a number, got nan")
        for key in ("beta", "eta", "grad_clip"):
            if math.isinf(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)}")
        checks = [
            (min(self.k, self.T, self.hidden) >= 1, "k, T, and hidden must be positive"),
            # the kernels are checked by value: a config builds nothing
            # whose size a setting picks
            (self.tau_ff > 0 and self.tau_fb > 0, "tau_ff and tau_fb must be positive"),
            (min(self.window_ff, self.window_fb) >= 1, "window_ff and window_fb must be at least 1"),
            (0.0 < self.init_rate < 1.0, "init_rate must be in (0, 1)"),
            ((self.epsilon is None) != (self.ebn0_db is None),
             "set exactly one of epsilon and ebn0_db"),
            (self.epsilon is None or 0.0 <= self.epsilon <= 0.5,
             f"epsilon must be in [0, 0.5], got {self.epsilon}"),
            (self.mapping in EBN0_FORMS,
             f"mapping must be one of {EBN0_FORMS}, got {self.mapping!r}"),
            (self.beta > 0, f"beta must be positive, got {self.beta}"),
            (self.eta > 0, f"eta must be positive, got {self.eta}"),
            (self.epochs >= 0, f"epochs must be >= 0, got {self.epochs}"),
            (self.batch_size >= 1, f"batch_size must be positive, got {self.batch_size}"),
            (self.seed >= 0, f"seed must be non-negative, got {self.seed}"),
            (0.0 < self.prior_rate < 1.0, "prior_rate must be in (0, 1)"),
            (0.0 <= self.momentum < 1.0, "momentum must be in [0, 1)"),
            (self.grad_clip >= 0.0, "grad_clip must be non-negative (0 disables)"),
            (self.output in OUTPUT_HEADS,
             f"output must be one of {OUTPUT_HEADS}, got {self.output!r}"),
        ]
        if self.dataset == "synthetic":
            checks += [
                (getattr(self, key) >= 1, f"{key} must be at least 1, got {getattr(self, key)}")
                for key in ("train_per_class", "test_per_class")
            ] + [
                (2 <= self.classes <= 4, "the bar task defines 2 to 4 classes"),
                (min(self.width, self.height) >= 4, "sensor too small for bar patterns"),
                (self.duration_us >= 1, "duration must be positive"),
                (min(self.events_per_pixel, self.background_events) >= 0,
                 "rates must be non-negative"),
            ] + [
                # Generator.poisson refuses a cell rate past about 9.2e18,
                # and a record's event count is summed in int64
                (getattr(self, key) * self.height * self.width <= 2.0**60,
                 f"{key} = {getattr(self, key)} expects more than 2**60 events per record")
                for key in ("events_per_pixel", "background_events")
            ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)

    def crossover(self) -> float:
        """The channel point as a crossover probability: epsilon, or ebn0_db through mapping."""
        if self.epsilon is not None:
            return float(self.epsilon)
        return ebn0_to_epsilon(db_to_linear(self.ebn0_db), form=self.mapping)

    def training_crossover(self) -> float:
        """crossover(), refused at 0.5 or more: there the received bits do
        not depend on the encoder, so its score is undefined.  A RunConfig
        allows such a point, because a trained model may be evaluated there."""
        eps = self.crossover()
        if eps >= 0.5:
            raise ConfigError(f"cannot train at epsilon {eps:.6g} >= 0.5: the score is undefined")
        return eps

    # taps at or past T never reach a trace, so a window longer than T is
    # cut to T taps: a huge window costs nothing
    def kernel_ff(self) -> Kernel:
        return exponential_kernel(self.tau_ff, min(self.window_ff, self.T))

    def kernel_fb(self) -> Kernel:
        return exponential_kernel(self.tau_fb, min(self.window_fb, self.T))


# each key's type from its annotation: "float | None" parses as a float
_KINDS = {f.name: f.type.split(" | ")[0] for f in fields(RunConfig)}
_PARSERS = {"bool": _parse_bool, "int": int, "float": float, "str": str}


def _coerce(key: str, raw: str):
    if key not in _KINDS:
        raise ConfigError(f"unknown config key {key!r}")
    try:
        return _PARSERS[_KINDS[key]](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc


def parse_config_file(path) -> dict:
    """Read `key = value` lines into a typed dict; `#` starts a comment."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep or not key or not value:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = _coerce(key, value)
    return values


def build_run_config(file_values: dict | None = None, overrides: dict | None = None) -> RunConfig:
    """Merge defaults, file values, and CLI overrides into a validated config.

    A channel point given at a later layer displaces one given earlier, so
    a --ebn0-db flag beats an epsilon from the file, and vice versa.
    """
    merged: dict = {}
    for layer in (file_values or {}), (overrides or {}):
        if "epsilon" in layer and "ebn0_db" in layer:
            raise ConfigError("set exactly one of epsilon and ebn0_db")
        if "epsilon" in layer:
            merged["ebn0_db"] = None
        if "ebn0_db" in layer:
            merged["epsilon"] = None
        merged.update(layer)
    unknown = set(merged) - set(_KINDS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**merged)
