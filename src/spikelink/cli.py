"""Experiment harness.

Verbs:
    train       fit encoder and decoder, write metrics.csv and checkpoint.txt
    sweep-snr   train once (or load a checkpoint), evaluate across a channel grid
    mismatch    train at the configured point, evaluate across a test grid
    sweep-beta  full training run per beta value, per-epoch metrics
    export      re-emit a metrics file as csv or key=value text

Every verb takes --config (flat key = value file) plus overriding flags and
is reproducible: the same config and seed give the same outputs, apart from
wall-clock seconds unless `timing = off`.

The verbs return nothing; main alone maps an ending to an exit code: 0
success, 1 filesystem trouble, 2 bad configuration or input, 3 training
diverged, 130 interrupted (Ctrl-C, or SIGTERM while main runs).  An array
too large to allocate, whichever setting sized it (T, the splits, the
sensor geometry, k, hidden or the class count), is bad input: main names
its shape, dtype and bytes where NumPy gives them, and a geometry of more
lines than a split's index numbers by its w and h.  A diverged or
interrupted run keeps the metrics rows its verb finished: each epoch of
train and sweep-beta, each --train-per-point point, none of a one-model
sweep.  Each split is binned straight into the index of its counts.
"""

from __future__ import annotations

import argparse
import math
import signal
import sys
import time
from dataclasses import replace
from pathlib import Path

from .checkpoint import load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig, build_run_config, parse_config_file
from .decoder import init_decoder_params
from .encoder import init_encoder_params
from .events import load_frames, synthetic_frames
from .metrics import MetricsRow, _atomic_open, export_metrics, read_metrics, write_metrics
from .numerics import SeededRng, db_to_linear, ebn0_to_epsilon
from .training import Dataset, TrainState, TrainingDiverged, evaluate, train_epoch

DEFAULT_SNR_GRID_DB = (float("-inf"), -6.0, -4.0, -2.0, 0.0, 2.0, 4.0)
DEFAULT_MISMATCH_GRID = (0.05, 0.10, 0.15, 0.20, 0.25)
DEFAULT_BETA_GRID = (1e-4, 1e-3, 1e-2, 1e-1)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _split(cfg: RunConfig, tag: str):
    """The "train" or "test" split's (h, w) geometry, the index of its
    counts (records, T, lines) and its labels, binned as each record is
    drawn or parsed: no split holds its records or dense counts."""
    if cfg.dataset == "synthetic":
        return synthetic_frames(cfg, tag)
    split = load_frames(cfg.train_events if tag == "train" else cfg.test_events, cfg.T)
    if not len(split[2]):
        raise ConfigError("event files contain no records")
    return split


def _build_dataset(cfg: RunConfig) -> Dataset:
    """Both splits' counts, as one Dataset for every run of a command."""
    train_geometry, train_x, train_y = _split(cfg, "train")
    test_geometry, test_x, test_y = _split(cfg, "test")
    if train_geometry != test_geometry:
        (train_h, train_w), (test_h, test_w) = train_geometry, test_geometry
        raise ConfigError(
            f"train events have sensor geometry w={train_w} h={train_h} "
            f"but test events have w={test_w} h={test_h}"
        )
    if cfg.dataset == "synthetic":
        n_classes = cfg.classes
    else:
        n_classes = int(max(train_y.max(), test_y.max())) + 1
    return Dataset(train_x, train_y, test_x, test_y, n_classes)


def _init_models(cfg: RunConfig, data: Dataset):
    root = SeededRng(cfg.seed)
    encoder = init_encoder_params(
        data.input_dim,
        cfg.k,
        root.substream("init", "encoder").generator,
        kernel_ff=cfg.kernel_ff(),
        kernel_fb=cfg.kernel_fb(),
        init_rate=cfg.init_rate,
    )
    decoder = init_decoder_params(
        cfg.k * cfg.T,
        data.n_classes,
        root.substream("init", "decoder").generator,
        hidden_dim=cfg.hidden,
        output=cfg.output,
    )
    return encoder, decoder


def _train_run(cfg: RunConfig, data: Dataset, experiment: str, point: int,
               rows: list[MetricsRow]):
    """Full training loop on _build_dataset's dataset, whose evaluation
    draws every run of the command shares; appends each epoch's metrics row
    to `rows` as it ends and returns the params.  A divergence or an
    interruption in an epoch is raised again naming the experiment, point
    and epoch."""
    eps = cfg.crossover()
    state = TrainState(*_init_models(cfg, data))
    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        try:
            state, metrics = train_epoch(state, data, cfg)
        except TrainingDiverged as exc:
            raise TrainingDiverged(f"{experiment} point {point} epoch {epoch}: {exc}") from exc
        except KeyboardInterrupt:
            raise KeyboardInterrupt(f"{experiment} point {point} epoch {epoch}") from None
        seconds = time.perf_counter() - started if cfg.timing else 0.0
        rows.append(
            MetricsRow(
                experiment=experiment,
                point=point,
                epoch=epoch,
                epsilon=eps,
                ebn0_db=cfg.ebn0_db,
                beta=cfg.beta,
                k=cfg.k,
                error_rate=metrics.test_error,
                spike_rate=metrics.spike_rate,
                seconds=seconds,
            )
        )
        _log(
            f"{experiment} point={point} epoch={epoch} "
            f"error={metrics.test_error:.4f} rate={metrics.spike_rate:.4f} "
            f"objective={metrics.objective:.4f}"
        )
    return state.encoder, state.decoder


def _parse_grid(args, mapping: str, epsilon_grid=(), ebn0_grid_db=()):
    """Channel grid as (epsilon, ebn0_db or None) pairs; the verb's default
    grid, given as either keyword, applies when no grid flag is given."""
    if args.epsilon_grid and args.ebn0_grid_db:
        raise ConfigError("give only one of --epsilon-grid and --ebn0-grid-db")
    if args.epsilon_grid or args.ebn0_grid_db:
        epsilon_grid, ebn0_grid_db = args.epsilon_grid or (), args.ebn0_grid_db or ()
    for eps in epsilon_grid:
        if not 0.0 <= eps <= 0.5:
            raise ConfigError(f"grid epsilon {eps} outside [0, 0.5]")
    for i, db in enumerate(ebn0_grid_db):
        if math.isnan(db):
            raise ConfigError(f"--ebn0-grid-db point {i}: Eb/N0 must be a number of dB, got {db}")
    return [(eps, None) for eps in epsilon_grid] + [
        (ebn0_to_epsilon(db_to_linear(db), form=mapping), db) for db in ebn0_grid_db
    ]


def _point_configs(cfg: RunConfig, what: str, changes: list[dict]) -> list[RunConfig]:
    """The run config of each grid point, every one built (so checked) and
    checked trainable before any work."""
    configs = []
    for i, change in enumerate(changes):
        try:
            point_cfg = replace(cfg, **change)
            point_cfg.training_crossover()
            configs.append(point_cfg)
        except ConfigError as exc:
            raise ConfigError(f"{what} point {i}: {exc}") from exc
    return configs


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _checkpoint_meta(cfg: RunConfig, data: Dataset) -> dict:
    return {
        "k": cfg.k,
        "T": cfg.T,
        "hidden": cfg.hidden,
        "classes": data.n_classes,
        "input_dim": data.input_dim,
    }


def _check_checkpoint(cfg: RunConfig, encoder, decoder, test_x, test_y) -> None:
    """Refuse a checkpoint whose arrays do not fit the config or the test split.

    Each fact is read once, from the arrays: k (encoder.n_out), k * T
    (decoder.input_dim), hidden, classes (for synthetic data) and the test
    split's width (encoder.n_in).  The meta lines only describe the run.
    Event-file labels must all be below the decoder's class count.
    A kernel or output head that differs from the config's only warns: the
    checkpoint's is used, also to make the test split's drive.
    """
    checks = [
        ("k", encoder.n_out, cfg.k, "config's k"),
        ("k * T", decoder.input_dim, cfg.k * cfg.T, "config's k * T"),
        ("hidden", decoder.hidden_dim, cfg.hidden, "config's hidden"),
    ]
    if cfg.dataset == "synthetic":
        checks.append(("classes", decoder.n_classes, cfg.classes, "config's classes"))
    checks.append(("encoder.n_in", encoder.n_in, test_x.shape[2], "test split's width"))
    for name, got, want, source in checks:
        if got != want:
            raise ConfigError(f"checkpoint {name} = {got} does not match the {source} = {want}")
    top = int(test_y.max(initial=0))
    if top >= decoder.n_classes:
        raise ConfigError(
            f"test label {top} is not below the checkpoint's classes = {decoder.n_classes}"
        )
    for name, got, want in (("kernel_ff", encoder.kernel_ff, cfg.kernel_ff()),
                            ("kernel_fb", encoder.kernel_fb, cfg.kernel_fb()),
                            ("output", decoder.output, cfg.output)):
        if got != want:
            _log(f"warning: checkpoint {name} differs from the config's; using the checkpoint's")


def cmd_train(cfg: RunConfig, args, rows: list[MetricsRow]) -> None:
    cfg.training_crossover()
    data = _build_dataset(cfg)
    out = _out_dir(cfg)
    meta = _checkpoint_meta(cfg, data)
    encoder, decoder = _train_run(cfg, data, "train", 0, rows)
    # nothing evaluates after the last epoch: free the splits' indexes and
    # the evaluation draws before the writes make their temporaries
    del data
    write_metrics(out / "metrics.csv", rows)
    save_checkpoint(out / "checkpoint.txt", encoder, decoder, meta)
    if rows:
        print(f"final test error {rows[-1].error_rate:.4f}, "
              f"spike rate {rows[-1].spike_rate:.4f}")
    else:
        print("no epochs requested; wrote initial checkpoint")


def _sweep_train_per_point(cfg: RunConfig, grid, rows: list[MetricsRow]) -> None:
    # an Eb/N0 point keeps its dB value, so it trains through cfg.mapping
    changes = [{"epsilon": eps if db is None else None, "ebn0_db": db} for eps, db in grid]
    configs = _point_configs(cfg, "grid", changes)
    data = _build_dataset(cfg)
    out = _out_dir(cfg)
    for i, ((eps, db), point_cfg) in enumerate(zip(grid, configs)):
        started = time.perf_counter()
        trained: list[MetricsRow] = []
        encoder, decoder = _train_run(point_cfg, data, "sweep-snr", i, trained)
        if trained:  # the last epoch evaluated the point at its own crossover and seed
            error, rate = trained[-1].error_rate, trained[-1].spike_rate
        else:
            [(error, rate)] = evaluate(
                encoder, decoder, data.test_inputs, data.test_labels, [eps], cfg.seed, data.draws)
        seconds = time.perf_counter() - started if cfg.timing else 0.0
        rows.append(
            MetricsRow("sweep-snr", i, cfg.epochs, eps, db, cfg.beta, cfg.k,
                       error, rate, seconds)
        )
        _log(f"sweep-snr point={i} epsilon={eps:.6g} error={error:.4f}")
    write_metrics(out / "metrics.csv", rows)


def _sweep_one_model(cfg: RunConfig, grid, experiment: str, rows: list[MetricsRow],
                     checkpoint: str | None = None) -> None:
    """Evaluate one model across the grid in one evaluate call on the
    test split's counts: the checkpoint's model, or one trained here at the
    configured point (saved as checkpoint.txt), whose Dataset's draws the
    grid reads back.  Each row gets an even share of the grid's time.  From
    a checkpoint nothing trains, so only the test split is built."""
    if checkpoint:
        encoder, decoder, _ = load_checkpoint(checkpoint)
        _, test_x, test_y = _split(cfg, "test")
        _check_checkpoint(cfg, encoder, decoder, test_x, test_y)
        out = _out_dir(cfg)
    else:
        cfg.training_crossover()
        data = _build_dataset(cfg)
        out = _out_dir(cfg)
        encoder, decoder = _train_run(cfg, data, "train", 0, [])
        save_checkpoint(out / "checkpoint.txt", encoder, decoder, _checkpoint_meta(cfg, data))
        test_x, test_y = data.test_inputs, data.test_labels
    started = time.perf_counter()
    try:
        results = evaluate(encoder, decoder, test_x, test_y, [e for e, _ in grid], cfg.seed,
                           None if checkpoint else data.draws)
    except TrainingDiverged as exc:
        if not checkpoint:
            raise
        # a loaded model whose drive overflows is bad input, not a training run
        raise ConfigError(f"checkpoint {checkpoint}: {exc}") from exc
    seconds = (time.perf_counter() - started) / len(grid) if cfg.timing else 0.0
    for i, ((eps, db), (error, rate)) in enumerate(zip(grid, results)):
        rows.append(MetricsRow(experiment, i, cfg.epochs, eps, db, cfg.beta, cfg.k,
                               error, rate, seconds))
        _log(f"{experiment} point={i} epsilon={eps:.6g} error={error:.4f}")
    write_metrics(out / "metrics.csv", rows)


def cmd_sweep_snr(cfg: RunConfig, args, rows: list[MetricsRow]) -> None:
    if args.train_per_point and args.checkpoint:
        raise ConfigError("give only one of --train-per-point and --checkpoint")
    grid = _parse_grid(args, cfg.mapping, ebn0_grid_db=DEFAULT_SNR_GRID_DB)
    if args.train_per_point:
        _sweep_train_per_point(cfg, grid, rows)
    else:
        _sweep_one_model(cfg, grid, "sweep-snr", rows, args.checkpoint)
    print(f"swept {len(grid)} channel points; metrics in {Path(cfg.out) / 'metrics.csv'}")


def cmd_mismatch(cfg: RunConfig, args, rows: list[MetricsRow]) -> None:
    grid = _parse_grid(args, cfg.mapping, epsilon_grid=DEFAULT_MISMATCH_GRID)
    _sweep_one_model(cfg, grid, "mismatch", rows)
    print(f"trained at epsilon {cfg.crossover():.6g}, evaluated {len(grid)} points")


def cmd_sweep_beta(cfg: RunConfig, args, rows: list[MetricsRow]) -> None:
    betas = args.beta_grid or DEFAULT_BETA_GRID
    configs = _point_configs(cfg, "beta grid", [{"beta": beta} for beta in betas])
    data = _build_dataset(cfg)
    out = _out_dir(cfg)
    for i, point_cfg in enumerate(configs):
        _train_run(point_cfg, data, "sweep-beta", i, rows)
    write_metrics(out / "metrics.csv", rows)
    print(f"swept {len(betas)} beta values; metrics in {out / 'metrics.csv'}")


def cmd_export(args) -> None:
    rows = read_metrics(args.metrics)
    text = export_metrics(rows, args.format)
    if args.out:
        out = Path(args.out)
        if out.is_dir():
            raise IsADirectoryError(f"--out {args.out} is a directory")
        # the write replaces the path: a link's target would stay untouched
        if out.is_symlink() or (out.exists() and not out.is_file()):
            raise OSError(f"--out {args.out} is not a regular file")
        out.parent.mkdir(parents=True, exist_ok=True)
        with _atomic_open(out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _float_list(raw: str) -> list[float]:
    values = [float(part) for part in raw.split(",") if part.strip()]
    if not values:
        raise argparse.ArgumentTypeError("the grid is empty")
    return values


_LIST_FLAGS = ("--epsilon-grid", "--ebn0-grid-db", "--beta-grid")


def _attach_list_values(argv: list[str]) -> list[str]:
    """Spell `--flag value` as `--flag=value` for the comma-list flags.

    argparse takes a separate value that starts with "-" for another
    option unless it looks like one negative number, so
    `--ebn0-grid-db '-inf,-2,0,2'` would otherwise be refused.
    """
    out: list[str] = []
    rest = iter(argv)
    for arg in rest:
        value = next(rest, None) if arg in _LIST_FLAGS else None
        out.append(arg if value is None else f"{arg}={value}")
    return out


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--epsilon", type=float, help="channel crossover probability")
    parser.add_argument("--ebn0-db", type=float, help="channel Eb/N0 in dB")
    parser.add_argument("--beta", type=float, help="rate term weight")
    parser.add_argument("--k", type=int, help="encoder read-out neurons")
    parser.add_argument("--T", type=int, help="time steps per sequence")
    parser.add_argument("--epochs", type=int)


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikelink",
        description="spiking encoder / noisy link / edge decoder experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for verb in ("train", "sweep-snr", "mismatch", "sweep-beta"):
        p = sub.add_parser(verb)
        _add_common(p)
        if verb in ("sweep-snr", "mismatch"):
            p.add_argument("--epsilon-grid", type=_float_list,
                           help="comma-separated epsilon grid")
            p.add_argument("--ebn0-grid-db", type=_float_list,
                           help="comma-separated Eb/N0 grid in dB (-inf allowed)")
        if verb == "sweep-snr":
            p.add_argument("--train-per-point", action="store_true",
                           help="retrain at every grid point instead of reusing one model")
            p.add_argument("--checkpoint", help="evaluate this checkpoint instead of training")
        if verb == "sweep-beta":
            p.add_argument("--beta-grid", type=_float_list,
                           help="comma-separated beta grid")

    p = sub.add_parser("export")
    p.add_argument("--metrics", required=True, help="metrics csv to export")
    p.add_argument("--format", default="csv", choices=("csv", "kv"))
    p.add_argument("--out", help="write here instead of stdout")
    return parser


def _overrides(args) -> dict:
    over: dict = {}
    for key in ("seed", "out", "epsilon", "ebn0_db", "beta", "k", "T", "epochs"):
        value = getattr(args, key, None)
        if value is not None:
            over[key] = value
    return over


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv=None) -> int:
    """Run one verb; the only place that turns its ending into an exit code."""
    parser = _make_parser()
    args = parser.parse_args(_attach_list_values(sys.argv[1:] if argv is None else argv))
    cfg = None
    rows: list[MetricsRow] = []
    previous = signal.signal(signal.SIGTERM, _interrupt)  # restored on return
    try:
        if args.command == "export":
            cmd_export(args)
            return 0
        file_values = parse_config_file(args.config) if args.config else {}
        cfg = build_run_config(file_values, _overrides(args))
        verb = {"train": cmd_train, "sweep-snr": cmd_sweep_snr,
                "mismatch": cmd_mismatch, "sweep-beta": cmd_sweep_beta}[args.command]
        try:
            verb(cfg, args, rows)
        except TrainingDiverged as exc:
            # keep the finished rows; a failed write is the OSError handler's
            write_metrics(Path(cfg.out) / "metrics.csv", rows)
            _log(f"training aborted at {exc}")
            return 3
        except KeyboardInterrupt:
            if rows:  # rows exist only once the verb made its output directory
                write_metrics(Path(cfg.out) / "metrics.csv", rows)
            raise
        return 0
    except KeyboardInterrupt as exc:
        _log(f"interrupted at {exc}" if exc.args else "interrupted")
        return 130
    except (ValueError, MemoryError) as exc:
        # NumPy's MemoryError carries the array's shape and dtype; its
        # ValueError for a byte count or dimension that overflows does not
        message = str(exc)
        overflow = ("array is too big", "Maximum allowed dimension exceeded")
        if isinstance(exc, MemoryError) or message.startswith(overflow):
            shape, dtype = getattr(exc, "shape", None), getattr(exc, "dtype", None)
            what = "an array"
            if shape is not None and dtype is not None:
                size = math.prod(shape) * dtype.itemsize
                what += f" of shape {tuple(shape)} and dtype {dtype} ({size} bytes)"
            sizes = "" if cfg is None else f"; T = {cfg.T}, k = {cfg.k}, hidden = {cfg.hidden}"
            message = f"{what} is too large to allocate{sizes}"
        _log(f"error: {message}")
        return 2
    except OSError as exc:
        _log(f"error: {exc}")
        return 1
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
