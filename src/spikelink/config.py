"""Flat run configuration: key = value files plus command-line overrides.

Every experiment is described by one RunConfig.  Files use `key = value`
lines with `#` comments; unknown keys are rejected so typos fail loudly,
and the whole config is validated before any model state is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .channel import ChannelConfig
from .events import SyntheticConfig
from .numerics import Kernel, exponential_kernel
from .training import TrainConfig

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

    def validate(self) -> "RunConfig":
        if self.dataset not in ("synthetic", "events"):
            raise ConfigError(f"dataset must be synthetic or events, got {self.dataset!r}")
        if self.dataset == "events" and not (self.train_events and self.test_events):
            raise ConfigError("events dataset needs train_events and test_events paths")
        for key in _FLOAT_KEYS:
            value = getattr(self, key)
            if value is not None and math.isnan(value):
                raise ConfigError(f"{key} must be a number, got nan")
        for key in ("beta", "eta", "grad_clip"):
            if math.isinf(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)}")
        if self.k < 1 or self.T < 1 or self.hidden < 1:
            raise ConfigError("k, T, and hidden must be positive")
        if not 0.0 < self.init_rate < 1.0:
            raise ConfigError("init_rate must be in (0, 1)")
        if (self.epsilon is None) == (self.ebn0_db is None):
            raise ConfigError("set exactly one of epsilon and ebn0_db")
        try:
            self.channel_config()
            self.train_config()
            if self.dataset == "synthetic":
                self.synthetic_config()
            self.kernel_ff()
            self.kernel_fb()
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc
        return self

    def channel_config(self) -> ChannelConfig:
        return ChannelConfig(epsilon=self.epsilon, ebn0_db=self.ebn0_db, mapping=self.mapping)

    def synthetic_config(self) -> SyntheticConfig:
        return SyntheticConfig(
            n_classes=self.classes,
            width=self.width,
            height=self.height,
            duration_us=self.duration_us,
            events_per_pixel=self.events_per_pixel,
            background_events=self.background_events,
            bar_halfwidth=self.bar_halfwidth,
        )

    # taps at or past T never reach a trace, so a window longer than T is
    # cut to T taps: a huge window costs nothing
    def kernel_ff(self) -> Kernel:
        return exponential_kernel(self.tau_ff, min(self.window_ff, self.T))

    def kernel_fb(self) -> Kernel:
        return exponential_kernel(self.tau_fb, min(self.window_fb, self.T))

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            beta=self.beta,
            eta=self.eta,
            epochs=self.epochs,
            batch_size=self.batch_size,
            seed=self.seed,
            channel=self.channel_config(),
            prior_rate=self.prior_rate,
            momentum=self.momentum,
            grad_clip=self.grad_clip,
            baseline=self.baseline,
        )


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_BOOL_KEYS = {"baseline", "timing"}
_FLOAT_KEYS = {
    "events_per_pixel", "background_events", "tau_ff", "tau_fb", "beta", "eta",
    "init_rate", "prior_rate", "momentum", "grad_clip", "epsilon", "ebn0_db",
}
_INT_KEYS = {
    "classes", "height", "width", "duration_us", "bar_halfwidth", "train_per_class",
    "test_per_class", "k", "T", "hidden", "window_ff", "window_fb", "epochs",
    "batch_size", "seed",
}
_STR_KEYS = {"dataset", "train_events", "test_events", "output", "mapping", "out"}


def _coerce(key: str, raw: str):
    try:
        if key in _BOOL_KEYS:
            return _parse_bool(raw)
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _STR_KEYS:
            return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc
    raise ConfigError(f"unknown config key {key!r}")


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
    unknown = set(merged) - set(_FIELD_TYPES)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**merged).validate()
