"""Config files, metrics files, and the command-line verbs end to end."""

import math
import os
import re
import signal
import stat
import tracemalloc
import weakref
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import allocation_error, bar_records, parse_kv_metrics, write_events

import spikelink.cli as cli
from spikelink import training
from spikelink.checkpoint import load_checkpoint, save_checkpoint
from spikelink.cli import DEFAULT_MISMATCH_GRID, main
from spikelink.config import ConfigError, RunConfig, build_run_config, parse_config_file
from spikelink.encoder import ActiveCounts
from spikelink.events import synthetic_frames
from spikelink.numerics import Kernel, SeededRng, exponential_kernel
from spikelink.training import TrainingDiverged, evaluate
from spikelink.metrics import (
    CSV_HEADER,
    MetricsRow,
    export_metrics,
    read_metrics,
    write_metrics,
)


class TestConfigFile:
    def test_parses_typed_values(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# experiment setup\n"
            "k = 8\n"
            "beta = 1e-2   # inline comment\n"
            "timing = off\n"
            "dataset = synthetic\n"
            "\n"
        )
        values = parse_config_file(path)
        assert values == {"k": 8, "beta": 0.01, "timing": False, "dataset": "synthetic"}

    def test_rejects_duplicate_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("k = 8\nk = 9\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_file(path)

    def test_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("neurons = 8\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_file(path)

    def test_rejects_bad_value_with_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("k = eight\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config_file(tmp_path / "absent.cfg")

    def test_bool_spellings(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("timing = on\nbaseline = FALSE\n")
        values = parse_config_file(path)
        assert values["timing"] is True and values["baseline"] is False


class TestBuildRunConfig:
    def test_defaults_validate(self):
        cfg = build_run_config()
        assert cfg.epsilon == 0.1 and cfg.ebn0_db is None

    def test_override_replaces_channel_source(self):
        cfg = build_run_config({"epsilon": 0.2}, {"ebn0_db": 0.0})
        assert cfg.epsilon is None and cfg.ebn0_db == 0.0
        cfg = build_run_config({"ebn0_db": 0.0}, {"epsilon": 0.2})
        assert cfg.epsilon == 0.2 and cfg.ebn0_db is None

    def test_rejects_both_in_one_layer(self):
        with pytest.raises(ConfigError, match="exactly one"):
            build_run_config({"epsilon": 0.2, "ebn0_db": 0.0})

    def test_rejects_unknown_override(self):
        with pytest.raises(ConfigError, match="unknown"):
            build_run_config({}, {"mystery": 1})

    def test_events_dataset_needs_paths(self):
        with pytest.raises(ConfigError, match="events"):
            build_run_config({"dataset": "events"})

    def test_every_config_is_checked_as_it_is_built(self):
        # a bare RunConfig and a replace() of one are checked too, not only
        # configs that come through build_run_config
        with pytest.raises(ConfigError, match="^k, T, and hidden must be positive$"):
            replace(RunConfig(), k=0)
        with pytest.raises(ConfigError, match="^beta must be a number, got nan$"):
            RunConfig(beta=float("nan"))

    @pytest.mark.parametrize("key, value, message", [
        ("classes", 1, "the bar task defines 2 to 4 classes"),
        ("classes", 5, "the bar task defines 2 to 4 classes"),
        ("width", 3, "sensor too small for bar patterns"),
        ("height", 3, "sensor too small for bar patterns"),
        ("duration_us", 0, "duration must be positive"),
        ("events_per_pixel", -1, "rates must be non-negative"),
        ("background_events", -0.5, "rates must be non-negative"),
    ], ids=["classes-1", "classes-5", "width", "height", "duration", "events", "background"])
    def test_bar_task_checked_for_synthetic_data_only(self, tmp_path, capsys, key, value,
                                                      message):
        config = tmp_path / "bar.cfg"
        config.write_text(f"{key} = {value}\n")
        out = tmp_path / "o"
        assert _main("train", "--config", str(config), "--out", str(out)) == 2
        assert _refusal(capsys) == f"error: {message}"
        assert not out.exists()
        # event files bring their own geometry and rates: the keys are unused
        events = {"dataset": "events", "train_events": "a", "test_events": "b"}
        assert getattr(build_run_config({**events, key: value}), key) == value

    @pytest.mark.parametrize("key, value", [
        ("events_per_pixel", "1e18"), ("events_per_pixel", "1e300"),
        ("events_per_pixel", "inf"), ("background_events", "1e30"),
    ])
    def test_bar_task_rates_past_numpy_refused_by_key(self, tiny_config, tmp_path, capsys,
                                                      key, value):
        # NumPy's Poisson draw refuses such a rate, or the int64 sum of a
        # record's counts wraps negative; the key is named instead
        config = tmp_path / "rates.cfg"
        config.write_text(tiny_config.read_text() + f"{key} = {value}\n")
        out = tmp_path / "o"
        assert _main("train", "--config", str(config), "--out", str(out)) == 2
        assert _refusal(capsys) == (
            f"error: {key} = {float(value)} expects more than 2**60 events per record"
        )
        assert not out.exists()

    def test_seed_must_be_non_negative(self, tiny_config, tmp_path, capsys, monkeypatch):
        with pytest.raises(ConfigError, match="^seed must be non-negative, got -1$"):
            build_run_config({"seed": -1})
        # refused by name before any work, not by NumPy halfway through
        # the dataset build
        built = []
        monkeypatch.setattr(cli, "_split", lambda cfg, tag: built.append(tag))
        out = tmp_path / "o"
        assert _main("train", "--config", str(tiny_config), "--out", str(out), "--seed=-1") == 2
        assert _refusal(capsys) == "error: seed must be non-negative, got -1"
        assert built == [] and not out.exists()
        assert build_run_config({"seed": 0}).seed == 0

    @pytest.mark.parametrize("key", ["train_per_class", "test_per_class"])
    def test_synthetic_split_needs_a_record_per_class(self, tiny_config, tmp_path, capsys, key):
        for value in (0, -2):
            with pytest.raises(ConfigError, match=f"^{key} must be at least 1, got {value}$"):
                build_run_config({key: value})
        out = tmp_path / "o"
        path = tmp_path / "zero.cfg"
        path.write_text(re.sub(rf"^{key} = .*$", f"{key} = 0", tiny_config.read_text(),
                               flags=re.M))
        assert _main("train", "--config", str(path), "--out", str(out)) == 2
        assert f"{key} must be at least 1" in capsys.readouterr().err
        assert not out.exists()
        # event files bring their own records; the synthetic counts go unread
        build_run_config({"dataset": "events", "train_events": "a", "test_events": "b", key: 0})

    def test_init_rate_bounds(self):
        with pytest.raises(ConfigError, match="init_rate"):
            build_run_config({"init_rate": 1.5})

    def test_sub_config_errors_become_config_errors(self):
        with pytest.raises(ConfigError):
            build_run_config({"epsilon": 0.9})
        with pytest.raises(ConfigError):
            build_run_config({"classes": 9})

    @pytest.mark.parametrize("key", ["window_ff", "window_fb"])
    def test_window_longer_than_T_is_cut_to_T_taps(self, key):
        # taps at or past T never reach a trace, so a 10**9 window costs T
        # taps in validation, not 7.45 GiB
        def kernel(values):
            return getattr(build_run_config(values), key.replace("window", "kernel"))()

        tracemalloc.start()
        try:
            cut = kernel({key: 10**9, "T": 7})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6, f"peak {peak} bytes"
        assert cut == exponential_kernel(5.0, 7)
        # a window shorter than T keeps its length, and --T 5 still takes
        # the default window of 10
        assert kernel({"T": 30}).coefficients.size == 10
        assert kernel({"T": 5}).coefficients.size == 5


def test_readme_config_tables_list_every_field():
    # the key cells of README's Configuration tables name each RunConfig field once
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    keys = [
        key
        for line in section.splitlines()
        if line.startswith("| `")
        for key in re.findall(r"`([^`]+)`", line.split("|")[1])
    ]
    assert sorted(keys) == sorted(f.name for f in fields(RunConfig))


class TestMetricsFiles:
    def _rows(self):
        return [
            MetricsRow("train", 0, 0, 0.1, None, 1e-3, 16, 0.25, 0.123456789012345, 1.5),
            MetricsRow("sweep-snr", 1, 30, 0.5, float("-inf"), 1e-3, 16, 0.75, 0.2, 0.0),
        ]

    def test_interrupted_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "metrics.csv"
        write_metrics(path, self._rows())
        before = path.read_bytes()
        real = MetricsRow.to_fields
        written = []

        def failing(row):
            if written:
                raise OSError("disk full")
            written.append(row)
            return real(row)

        monkeypatch.setattr(MetricsRow, "to_fields", failing)
        with pytest.raises(OSError, match="disk full"):
            write_metrics(path, self._rows()[::-1])
        assert written
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_csv_round_trip_lossless(self, tmp_path):
        rows = self._rows()
        path = tmp_path / "metrics.csv"
        write_metrics(path, rows)
        back = read_metrics(path)
        assert back == rows

    def test_header_checked(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_metrics(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_metrics(path)

    def test_kv_round_trip(self):
        rows = self._rows()
        text = export_metrics(rows, "kv")
        assert parse_kv_metrics(text) == rows

    def test_kv_oracle_reads_hand_written_lines(self):
        # the oracle alone, on text written out by hand: keys in any order,
        # blank lines skipped, a missing key read as empty
        text = (
            "point=0 experiment=train epoch=3 epsilon=0.1 ebn0_db= beta=0.001 k=16 "
            "error_rate=0.25 spike_rate=0.5 seconds=0.0\n\n"
            "experiment=sweep-snr point=2 epoch=30 epsilon=0.5 beta=0.1 k=4 "
            "error_rate=0.75 spike_rate=0.125 seconds=1.5 ebn0_db=-inf\n"
        )
        assert parse_kv_metrics(text) == [
            MetricsRow("train", 0, 3, 0.1, None, 1e-3, 16, 0.25, 0.5, 0.0),
            MetricsRow("sweep-snr", 2, 30, 0.5, float("-inf"), 0.1, 4, 0.75, 0.125, 1.5),
        ]
        with pytest.raises(ValueError):
            parse_kv_metrics("experiment=train point\n")

    def test_csv_export_matches_file_format(self, tmp_path):
        rows = self._rows()
        path = tmp_path / "metrics.csv"
        write_metrics(path, rows)
        assert export_metrics(rows, "csv") == path.read_text()

    def test_csv_export_quotes_like_the_file(self, tmp_path):
        # a field holding the delimiter or a quote is quoted, so the
        # exported text reads back as the same rows
        rows = [replace(row, experiment='a,"b"') for row in self._rows()]
        path = tmp_path / "exported.csv"
        path.write_text(export_metrics(rows, "csv"))
        assert read_metrics(path) == rows
        write_metrics(tmp_path / "metrics.csv", rows)
        assert (tmp_path / "metrics.csv").read_text() == path.read_text()

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            export_metrics([], "json")

    def test_field_count_enforced(self):
        with pytest.raises(ValueError, match="fields"):
            MetricsRow.from_fields(["train", "0"])


TINY_CFG = """
classes = 2
height = 8
width = 8
train_per_class = 6
test_per_class = 4
k = 4
T = 5
hidden = 8
epochs = 2
batch_size = 4
timing = off
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return path


def _main(*argv) -> int:
    return main(list(argv))


def _refusal(capsys) -> str:
    """The one line a refused run writes to stderr, which holds no traceback."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    [line] = [line for line in err.splitlines() if line.startswith("error:")]
    return line


class TestNonFiniteValues:
    FLOAT_KEYS = [
        "events_per_pixel", "background_events", "tau_ff", "tau_fb", "beta", "eta",
        "init_rate", "prior_rate", "momentum", "grad_clip", "epsilon", "ebn0_db",
    ]

    def _train(self, tiny_config, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(tiny_config.read_text() + line + "\n")
        out = tmp_path / "run"
        code = _main("train", "--config", str(path), "--out", str(out))
        assert not (out / "metrics.csv").exists()
        return code

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_nan_refused(self, tiny_config, tmp_path, capsys, key):
        assert self._train(tiny_config, tmp_path, f"{key} = nan") == 2
        assert f"{key} must be a number, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "-inf"])
    @pytest.mark.parametrize("key", ["beta", "eta", "grad_clip"])
    def test_infinity_refused(self, tiny_config, tmp_path, capsys, key, value):
        assert self._train(tiny_config, tmp_path, f"{key} = {value}") == 2
        assert f"{key} must be finite, got {value}" in capsys.readouterr().err

    def test_ebn0_infinities_stay_valid(self):
        assert build_run_config({"ebn0_db": math.inf}).ebn0_db == math.inf
        assert build_run_config({"ebn0_db": -math.inf}).ebn0_db == -math.inf


class TestCliTrain:
    def test_writes_metrics_and_checkpoint(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "run1"
        code = _main("train", "--config", str(tiny_config), "--out", str(out))
        assert code == 0
        rows = read_metrics(out / "metrics.csv")
        assert [r.epoch for r in rows] == [0, 1]
        assert all(r.experiment == "train" and r.k == 4 for r in rows)
        assert all(r.seconds == 0.0 for r in rows)
        enc, dec, meta = load_checkpoint(out / "checkpoint.txt")
        assert enc.n_out == 4 and dec.input_dim == 20
        assert meta["classes"] == "2"
        assert "final test error" in capsys.readouterr().out

    def test_byte_identical_reruns(self, tiny_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert _main("train", "--config", str(tiny_config), "--out", str(out1)) == 0
        assert _main("train", "--config", str(tiny_config), "--out", str(out2)) == 0
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
        assert (out1 / "checkpoint.txt").read_bytes() == (out2 / "checkpoint.txt").read_bytes()

    def test_seed_changes_outputs(self, tiny_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        _main("train", "--config", str(tiny_config), "--out", str(out1))
        _main("train", "--config", str(tiny_config), "--out", str(out2), "--seed", "9")
        assert (out1 / "metrics.csv").read_bytes() != (out2 / "metrics.csv").read_bytes()

    def test_zero_epochs_writes_initial_checkpoint(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "zero"
        code = _main(
            "train", "--config", str(tiny_config), "--out", str(out), "--epochs", "0"
        )
        assert code == 0
        assert read_metrics(out / "metrics.csv") == []
        load_checkpoint(out / "checkpoint.txt")
        assert "no epochs" in capsys.readouterr().out

    def test_dataset_is_released_before_the_writes(self, tiny_config, tmp_path, monkeypatch):
        # nothing evaluates after the last epoch, so the command's Dataset
        # (its splits' indexes and evaluation draws) is gone before
        # metrics.csv and checkpoint.txt make their temporaries
        built, alive = [], []
        real_build = cli._build_dataset

        def build(cfg):
            data = real_build(cfg)
            built.append(weakref.ref(data))
            return data

        def spy(real):
            def write(*args):
                alive.append(built[0]() is not None)
                return real(*args)
            return write

        monkeypatch.setattr(cli, "_build_dataset", build)
        monkeypatch.setattr(cli, "write_metrics", spy(cli.write_metrics))
        monkeypatch.setattr(cli, "save_checkpoint", spy(cli.save_checkpoint))
        assert _main("train", "--config", str(tiny_config), "--out", str(tmp_path / "t")) == 0
        assert alive == [False, False]
        assert load_checkpoint(tmp_path / "t" / "checkpoint.txt")[2]["input_dim"] == "128"

    @staticmethod
    def _blowing_up(tiny_config, tmp_path) -> Path:
        # one batch per epoch: epoch 0 finishes with a single huge step,
        # and epoch 1's first losses are no longer finite
        path = tmp_path / "diverging.cfg"
        text = tiny_config.read_text().replace("batch_size = 4", "batch_size = 12")
        path.write_text(text + "eta = 1e200\n")
        return path

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_keeps_finished_epochs(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "diverged"
        config = self._blowing_up(tiny_config, tmp_path)
        assert _main("train", "--config", str(config), "--out", str(out)) == 3
        rows = read_metrics(out / "metrics.csv")
        assert [(r.experiment, r.point, r.epoch) for r in rows] == [("train", 0, 0)]
        assert not (out / "checkpoint.txt").exists()
        assert capsys.readouterr().err.splitlines()[-1] == (
            "training aborted at train point 0 epoch 1: non-finite sample loss"
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_update_diverges_without_checkpoint(self, tmp_path, capsys):
        # one batch, one epoch: a finite gradient times eta = 1.7e308
        # overflows an encoder weight to +-inf; the run must not end 0
        # with a checkpoint that load_checkpoint then refuses
        config = tmp_path / "overflow.cfg"
        config.write_text("height = 8\nwidth = 8\ntrain_per_class = 4\ntest_per_class = 3\n"
                          "k = 4\nT = 6\nhidden = 8\nbatch_size = 64\nepochs = 1\n"
                          "eta = 1.7e308\ntiming = off\n")
        out = tmp_path / "overflow"
        assert _main("train", "--config", str(config), "--out", str(out)) == 3
        assert read_metrics(out / "metrics.csv") == []
        assert not (out / "checkpoint.txt").exists()
        assert capsys.readouterr().err.splitlines()[-1] == (
            "training aborted at train point 0 epoch 0: "
            "non-finite weight in EncoderParams after the update"
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_divergence_write_is_io_error(self, tiny_config, tmp_path, capsys,
                                                 monkeypatch):
        def failing(path, rows):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "write_metrics", failing)
        out = tmp_path / "diverged"
        config = self._blowing_up(tiny_config, tmp_path)
        assert _main("train", "--config", str(config), "--out", str(out)) == 1
        assert _refusal(capsys) == "error: [Errno 28] No space left on device"
        assert not (out / "metrics.csv").exists()


class TestCliSweeps:
    def test_snr_sweep_from_checkpoint(self, tiny_config, tmp_path):
        train_out = tmp_path / "train"
        _main("train", "--config", str(tiny_config), "--out", str(train_out))
        sweep_out = tmp_path / "sweep"
        code = _main(
            "sweep-snr", "--config", str(tiny_config), "--out", str(sweep_out),
            "--checkpoint", str(train_out / "checkpoint.txt"),
            "--epsilon-grid", "0.0,0.25,0.5",
        )
        assert code == 0
        rows = read_metrics(sweep_out / "metrics.csv")
        assert [r.epsilon for r in rows] == [0.0, 0.25, 0.5]
        assert all(r.experiment == "sweep-snr" for r in rows)

    def test_snr_sweep_default_grid_maps_db(self, tiny_config, tmp_path):
        out = tmp_path / "sweep"
        code = _main(
            "sweep-snr", "--config", str(tiny_config), "--out", str(out),
            "--epochs", "1",
        )
        assert code == 0
        rows = read_metrics(out / "metrics.csv")
        assert len(rows) == 7
        assert rows[0].ebn0_db == float("-inf") and rows[0].epsilon == 0.5
        # 0 dB maps through the printed relation to Q(2)
        assert rows[4].epsilon == pytest.approx(0.0227501319481792072, rel=1e-12)
        # higher Eb/N0 gives a smaller crossover
        eps = [r.epsilon for r in rows]
        assert eps == sorted(eps, reverse=True)

    def test_snr_sweep_from_checkpoint_builds_only_test_split(
        self, tiny_config, tmp_path, monkeypatch
    ):
        # sweeping in the process that trained gives the reference rows
        trained = tmp_path / "trained"
        grid = ("--epsilon-grid", "0.0,0.1,0.5")
        assert _main("sweep-snr", "--config", str(tiny_config), "--out", str(trained), *grid) == 0
        tags = []

        def recording(cfg, tag):
            tags.append(tag)
            return synthetic_frames(cfg, tag)

        monkeypatch.setattr(cli, "synthetic_frames", recording)
        swept = tmp_path / "swept"
        code = _main(
            "sweep-snr", "--config", str(tiny_config), "--out", str(swept),
            "--checkpoint", str(trained / "checkpoint.txt"), *grid,
        )
        assert code == 0
        assert tags == ["test"]
        assert (swept / "metrics.csv").read_bytes() == (trained / "metrics.csv").read_bytes()

    def test_ebn0_grid_readme_spelling(self, tiny_config, tmp_path):
        train_out = tmp_path / "train"
        _main("train", "--config", str(tiny_config), "--out", str(train_out))
        out = tmp_path / "sweep"
        code = _main(
            "sweep-snr", "--config", str(tiny_config), "--out", str(out),
            "--checkpoint", str(train_out / "checkpoint.txt"),
            "--ebn0-grid-db", "-inf,-2,0,2",
        )
        assert code == 0
        rows = read_metrics(out / "metrics.csv")
        assert [r.ebn0_db for r in rows] == [float("-inf"), -2.0, 0.0, 2.0]

    def test_ebn0_past_float_range_is_noiseless(self, tiny_config, tiny_checkpoint, tmp_path):
        # 4000 dB overflows a float as a linear ratio: that point reads
        # epsilon 0, as +inf dB does, and decodes the same
        out = tmp_path / "sweep"
        code = _main("sweep-snr", "--config", str(tiny_config), "--out", str(out),
                     "--checkpoint", str(tiny_checkpoint), "--ebn0-grid-db", "inf,4000")
        assert code == 0
        rows = read_metrics(out / "metrics.csv")
        assert [(r.ebn0_db, r.epsilon) for r in rows] == [(math.inf, 0.0), (4000.0, 0.0)]
        assert rows[0].error_rate == rows[1].error_rate

    def test_train_per_point_rejects_half(
        self, tiny_config, tmp_path, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(cli, "train_epoch", lambda *a, **k: calls.append(a))
        out = tmp_path / "x"
        code = _main(
            "sweep-snr", "--config", str(tiny_config), "--out", str(out),
            "--train-per-point", "--epsilon-grid", "0.1,0.5",
        )
        assert code == 2
        assert calls == []
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("timing", ["on", "off"])
    def test_train_per_point_seconds_follow_timing(self, tiny_config, tmp_path, timing):
        cfg = tmp_path / "timed.cfg"
        cfg.write_text(tiny_config.read_text().replace("timing = off", f"timing = {timing}"))
        out = tmp_path / "tpp"
        code = _main(
            "sweep-snr", "--config", str(cfg), "--out", str(out), "--epochs", "1",
            "--train-per-point", "--epsilon-grid", "0.1,0.2",
        )
        assert code == 0
        seconds = [r.seconds for r in read_metrics(out / "metrics.csv")]
        assert len(seconds) == 2
        if timing == "on":
            assert all(s > 0.0 for s in seconds)
        else:
            assert seconds == [0.0, 0.0]

    def test_checkpoint_width_mismatch(self, tiny_config, tmp_path):
        train_out = tmp_path / "train"
        _main("train", "--config", str(tiny_config), "--out", str(train_out))
        code = _main(
            "sweep-snr", "--config", str(tiny_config), "--out", str(tmp_path / "y"),
            "--checkpoint", str(train_out / "checkpoint.txt"), "--T", "7",
        )
        assert code == 2

    @pytest.fixture
    def tiny_checkpoint(self, tiny_config, tmp_path):
        out = tmp_path / "trained"
        assert _main("train", "--config", str(tiny_config), "--out", str(out), "--epochs", "0") == 0
        return out / "checkpoint.txt"

    def _sweep(self, config, checkpoint, tmp_path, *flags) -> int:
        return _main(
            "sweep-snr", "--config", str(config), "--out", str(tmp_path / "sweep"),
            "--checkpoint", str(checkpoint), "--epsilon-grid", "0.1", *flags,
        )

    def _edited(self, tiny_config, tmp_path, **values):
        text = tiny_config.read_text()
        for key, value in values.items():
            text = "\n".join(
                line for line in text.splitlines() if not line.startswith(f"{key} =")
            ) + f"\n{key} = {value}\n"
        path = tmp_path / "edited.cfg"
        path.write_text(text)
        return path

    @pytest.mark.parametrize("edit, message", [
        # same k * T as the checkpoint, different split
        ({"k": 2, "T": 10}, "checkpoint k = 4 does not match the config's k = 2"),
        ({"hidden": 16}, "checkpoint hidden = 8 does not match the config's hidden = 16"),
        ({"classes": 3}, "checkpoint classes = 2 does not match the config's classes = 3"),
        ({"height": 6, "width": 6},
         "checkpoint encoder.n_in = 128 does not match the test split's width = 72"),
    ])
    def test_checkpoint_checked_against_config(
        self, tiny_config, tiny_checkpoint, tmp_path, capsys, edit, message
    ):
        config = self._edited(tiny_config, tmp_path, **edit)
        assert self._sweep(config, tiny_checkpoint, tmp_path) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "sweep" / "metrics.csv").exists()

    def test_checkpoint_of_other_shape_against_config(self, tiny_config, tmp_path, capsys):
        other = tmp_path / "other"
        flags = ("--k", "2", "--T", "10", "--epochs", "0")
        assert _main("train", "--config", str(tiny_config), "--out", str(other), *flags) == 0
        assert self._sweep(tiny_config, other / "checkpoint.txt", tmp_path) == 2
        assert "checkpoint k = 2 does not match the config's k = 4" in capsys.readouterr().err

    def test_checkpoint_without_meta_checked_by_shape(
        self, tiny_config, tiny_checkpoint, tmp_path, capsys
    ):
        lines = tiny_checkpoint.read_text().splitlines(keepends=True)
        tiny_checkpoint.write_text("".join(l for l in lines if not l.startswith("meta")))
        assert self._sweep(tiny_config, tiny_checkpoint, tmp_path, "--k", "2", "--T", "10") == 2
        assert "checkpoint k = 4 does not match the config's k = 2" in capsys.readouterr().err

    def test_checkpoint_meta_lines_are_descriptive(
        self, tiny_config, tiny_checkpoint, tmp_path
    ):
        # the arrays fit the config, so a hand-edited meta k line changes
        # nothing: the sweep reads the arrays alone
        assert self._sweep(tiny_config, tiny_checkpoint, tmp_path) == 0
        unedited = (tmp_path / "sweep" / "metrics.csv").read_bytes()
        text = tiny_checkpoint.read_text()
        assert "meta k 4\n" in text
        tiny_checkpoint.write_text(text.replace("meta k 4\n", "meta k 99\n"))
        (tmp_path / "sweep" / "metrics.csv").unlink()
        assert self._sweep(tiny_config, tiny_checkpoint, tmp_path) == 0
        assert (tmp_path / "sweep" / "metrics.csv").read_bytes() == unedited

    def test_event_labels_must_fit_checkpoint_classes(self, tiny_checkpoint, tmp_path, capsys):
        test_path = tmp_path / "test.events"
        write_events(test_path, bar_records(6, seed=1, classes=3, width=8, height=8,
                                            duration_us=4000))
        config = tmp_path / "ev.cfg"
        config.write_text(
            f"dataset = events\ntrain_events = {test_path}\ntest_events = {test_path}\n"
            "k = 4\nT = 5\nhidden = 8\ntiming = off\n"
        )
        assert self._sweep(config, tiny_checkpoint, tmp_path) == 2
        assert "test label 2 is not below the checkpoint's classes = 2" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, name", [
        ({"tau_fb": 2.0}, "kernel_fb"),
        ({"output": "softmax"}, "output"),
    ], ids=["kernel_fb", "output"])
    def test_checkpoint_kernel_mismatch_warns(
        self, tiny_config, tiny_checkpoint, tmp_path, capsys, edit, name
    ):
        # the checkpoint's kernel or head is used: the rows equal a sweep
        # under the config that trained it
        assert self._sweep(tiny_config, tiny_checkpoint, tmp_path) == 0
        matching = (tmp_path / "sweep" / "metrics.csv").read_bytes()
        capsys.readouterr()
        config = self._edited(tiny_config, tmp_path, **edit)
        assert self._sweep(config, tiny_checkpoint, tmp_path) == 0
        warnings = [l for l in capsys.readouterr().err.splitlines() if "warning" in l]
        assert warnings == [
            f"warning: checkpoint {name} differs from the config's; using the checkpoint's"
        ]
        assert (tmp_path / "sweep" / "metrics.csv").read_bytes() == matching

    def test_checkpoint_kernel_filters_the_test_split(
        self, tiny_config, tiny_checkpoint, tmp_path, capsys
    ):
        # a differing tau_ff warns once, and the test split's drive is
        # filtered with the checkpoint's kernel, not the config's
        config = self._edited(tiny_config, tmp_path, tau_ff=2.0)
        assert self._sweep(config, tiny_checkpoint, tmp_path, "--epsilon-grid", "0.0,0.2") == 0
        warnings = [l for l in capsys.readouterr().err.splitlines() if "warning" in l]
        assert warnings == [
            "warning: checkpoint kernel_ff differs from the config's; using the checkpoint's"
        ]
        cfg = build_run_config(parse_config_file(config))
        encoder, decoder, _ = load_checkpoint(tiny_checkpoint)

        def swept(kernel):
            _, test_x, test_y = cli._split(cfg, "test")
            return evaluate(replace(encoder, kernel_ff=kernel), decoder, test_x, test_y,
                            [0.0, 0.2], cfg.seed)

        rows = read_metrics(tmp_path / "sweep" / "metrics.csv")
        assert [(r.error_rate, r.spike_rate) for r in rows] == swept(encoder.kernel_ff)
        assert swept(encoder.kernel_ff) != swept(cfg.kernel_ff())

    def test_checkpoint_whose_drive_overflows_refused(
        self, tiny_config, tiny_checkpoint, tmp_path, capsys
    ):
        # finite weights of 1e308 overflow the test split's projection, and
        # the filter's product spreads the inf as nan: the sweep exits 2
        # with one line naming the checkpoint, and writes no row
        encoder, decoder, meta = load_checkpoint(tiny_checkpoint)
        encoder.ff_weights[:] = 1e308
        huge = tmp_path / "huge.txt"
        save_checkpoint(huge, encoder, decoder, meta)
        assert self._sweep(tiny_config, huge, tmp_path) == 2
        assert _refusal(capsys) == f"error: checkpoint {huge}: non-finite feedforward drive"
        assert not (tmp_path / "sweep" / "metrics.csv").exists()

    @pytest.mark.parametrize("argv", [
        ("sweep-beta", "--beta-grid", "0.001,0.01"),
        ("sweep-snr", "--train-per-point", "--epsilon-grid", "0.1,0.2"),
    ])
    def test_each_split_filtered_once_per_process(self, tiny_config, tmp_path, monkeypatch, argv):
        built = []
        real = cli._split

        def spy(cfg, tag):
            geometry, counts, labels = real(cfg, tag)
            built.append((tag, len(labels)))
            return geometry, counts, labels

        monkeypatch.setattr(cli, "_split", spy)
        verb, *flags = argv
        out = tmp_path / "twice"
        assert _main(verb, "--config", str(tiny_config), "--out", str(out), *flags) == 0
        # two training runs, but one build of the train split's 2 * 6
        # records and one of the test split's 2 * 4
        assert built == [("train", 12), ("test", 8)]

    @staticmethod
    def _diverge_at(monkeypatch, epsilon):
        real = cli.train_epoch

        def train_epoch(state, data, config):
            if epsilon is None or config.crossover() == epsilon:
                raise TrainingDiverged("non-finite sample loss")
            return real(state, data, config)

        monkeypatch.setattr(cli, "train_epoch", train_epoch)

    def test_train_per_point_divergence_keeps_rows(self, tiny_config, tmp_path, monkeypatch):
        self._diverge_at(monkeypatch, 0.2)
        out = tmp_path / "tpp"
        code = _main(
            "sweep-snr", "--config", str(tiny_config), "--out", str(out),
            "--train-per-point", "--epsilon-grid", "0.1,0.2,0.3",
        )
        assert code == 3
        rows = read_metrics(out / "metrics.csv")
        assert [(r.point, r.epsilon) for r in rows] == [(0, 0.1)]

    @pytest.mark.parametrize("verb", ["sweep-snr", "mismatch"])
    def test_divergence_before_grid_writes_empty_metrics(
        self, tiny_config, tmp_path, monkeypatch, verb
    ):
        self._diverge_at(monkeypatch, None)
        out = tmp_path / "diverged"
        assert _main(verb, "--config", str(tiny_config), "--out", str(out)) == 3
        assert read_metrics(out / "metrics.csv") == []
        assert not (out / "checkpoint.txt").exists()

    def test_beta_sweep_divergence_keeps_finished_epochs(
        self, tiny_config, tmp_path, monkeypatch, capsys
    ):
        # diverge in the second epoch of the second beta point
        real = cli.train_epoch
        seen = []

        def train_epoch(state, data, config):
            seen.append(config.beta)
            if seen.count(0.2) == 2:
                raise TrainingDiverged("non-finite sample loss")
            return real(state, data, config)

        monkeypatch.setattr(cli, "train_epoch", train_epoch)
        out = tmp_path / "beta"
        code = _main("sweep-beta", "--config", str(tiny_config), "--out", str(out),
                    "--beta-grid", "0.1,0.2,0.3")
        assert code == 3
        rows = read_metrics(out / "metrics.csv")
        assert [(r.point, r.epoch, r.beta) for r in rows] == [
            (0, 0, 0.1), (0, 1, 0.1), (1, 0, 0.2),
        ]
        assert capsys.readouterr().err.splitlines()[-1] == (
            "training aborted at sweep-beta point 1 epoch 1: non-finite sample loss"
        )

    @pytest.mark.parametrize("verb, flags, epsilon, where", [
        ("sweep-snr", ["--train-per-point", "--epsilon-grid", "0.1,0.2"], 0.2,
         "sweep-snr point 1 epoch 0"),
        ("mismatch", [], None, "train point 0 epoch 0"),
    ], ids=["train-per-point", "one-model"])
    def test_abort_line_names_experiment_point_and_epoch(
        self, tiny_config, tmp_path, monkeypatch, capsys, verb, flags, epsilon, where
    ):
        # a one-model sweep names the training run of its model
        self._diverge_at(monkeypatch, epsilon)
        out = tmp_path / "diverged"
        assert _main(verb, "--config", str(tiny_config), "--out", str(out), *flags) == 3
        aborted = [line for line in capsys.readouterr().err.splitlines()
                   if line.startswith("training aborted")]
        assert aborted == [f"training aborted at {where}: non-finite sample loss"]

    @pytest.mark.parametrize("verb, flags, calls, kept, where", [
        ("train", ["--epochs", "3"], 3, 2, "train point 0 epoch 2"),
        ("sweep-beta", ["--epochs", "3", "--beta-grid", "0.1,0.2"], 6, 5,
         "sweep-beta point 1 epoch 2"),
    ], ids=["train", "sweep-beta"])
    @pytest.mark.parametrize("how", ["keyboard", "sigterm"])
    def test_interruption_keeps_finished_rows(
        self, tiny_config, tmp_path, monkeypatch, capsys, verb, flags, calls, kept, where, how
    ):
        # the interruption arrives in the third epoch of the last point
        whole = tmp_path / "whole"
        assert _main(verb, "--config", str(tiny_config), "--out", str(whole), *flags) == 0
        real = cli.train_epoch
        seen = []

        def train_epoch(*args):
            seen.append(1)
            if len(seen) == calls:
                if how == "keyboard":
                    raise KeyboardInterrupt
                os.kill(os.getpid(), signal.SIGTERM)
            return real(*args)

        monkeypatch.setattr(cli, "train_epoch", train_epoch)
        before = signal.getsignal(signal.SIGTERM)
        out = tmp_path / "cut"
        assert _main(verb, "--config", str(tiny_config), "--out", str(out), *flags) == 130
        assert signal.getsignal(signal.SIGTERM) is before
        assert read_metrics(out / "metrics.csv") == read_metrics(whole / "metrics.csv")[:kept]
        assert not (out / "checkpoint.txt").exists()
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"interrupted at {where}" and "Traceback" not in err

    def test_interruption_before_output_directory_writes_nothing(
        self, tiny_config, tmp_path, monkeypatch, capsys
    ):
        def interrupted(cfg):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_build_dataset", interrupted)
        out = tmp_path / "o"
        assert _main("train", "--config", str(tiny_config), "--out", str(out)) == 130
        assert capsys.readouterr().err.splitlines() == ["interrupted"]
        assert not out.exists()

    def test_checkpoint_sweep_never_holds_the_split_traces(self, tmp_path):
        # 2048 test records of 2 x 4 x 8 lines over 20 steps: their float64
        # traces would take 21 MB, their uint8 counts 2.6 MB
        config = tmp_path / "large.cfg"
        config.write_text("classes = 4\nheight = 4\nwidth = 8\ntrain_per_class = 1\n"
                          "test_per_class = 512\nk = 4\nT = 20\nhidden = 8\ntiming = off\n")
        cfg = build_run_config(parse_config_file(config))
        shape = SimpleNamespace(input_dim=64, n_classes=4)
        encoder, decoder = cli._init_models(cfg, shape)
        checkpoint = tmp_path / "checkpoint.txt"
        save_checkpoint(checkpoint, encoder, decoder, cli._checkpoint_meta(cfg, shape))
        traces = 2048 * 20 * 64 * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            code = _main("sweep-snr", "--config", str(config), "--out", str(tmp_path / "s"),
                        "--checkpoint", str(checkpoint), "--epsilon-grid", "0.0,0.2")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(read_metrics(tmp_path / "s" / "metrics.csv")) == 2
        # the counts and one chunk's traces set the peak; a sweep that made
        # the split's traces would hold them all at once
        assert peak < traces, f"peak {peak} bytes"

    def test_training_run_never_holds_the_test_split_traces(self, tmp_path, monkeypatch):
        # the same 2048 test records under two epochs of training: the
        # test split is held as the index of its counts, and no filter call
        # sees more than one chunk's projected drive, (1, T, records * k);
        # a training batch filters its projected drive, k columns a record,
        # never the input lines, and its score's adjoint filters the
        # batch's (records, T, k) score
        config = tmp_path / "large.cfg"
        config.write_text("classes = 4\nheight = 4\nwidth = 8\ntrain_per_class = 2\n"
                          "test_per_class = 512\nk = 4\nT = 20\nhidden = 8\nepochs = 2\n"
                          "timing = off\n")
        filtered, adjoints = [], []
        real_filter = Kernel.filter

        def spy(kernel, x, transpose=False):
            (adjoints if transpose else filtered).append(x.shape)
            return real_filter(kernel, x, transpose)

        monkeypatch.setattr(Kernel, "filter", spy)
        test_types = []
        real_epoch = cli.train_epoch

        def train_epoch(state, data, config):
            test_types.append(type(data.test_counts))
            return real_epoch(state, data, config)

        monkeypatch.setattr(cli, "train_epoch", train_epoch)
        traces = 2048 * 20 * 64 * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            code = _main("train", "--config", str(config), "--out", str(tmp_path / "t"))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert code == 0
        assert test_types == [ActiveCounts, ActiveCounts]
        # k = 4 columns a record: the one training batch of 8 records makes
        # a drive (1, T, 8 * k), then each test chunk a drive, in each epoch
        chunk_drive = training.EVAL_CHUNK * 20 * 4
        assert all(shape[2] % 4 == 0 and math.prod(shape) <= chunk_drive for shape in filtered)
        assert filtered[:2] == [(1, 20, 8 * 4), (1, 20, training.EVAL_CHUNK * 4)]
        assert len(filtered) == 2 * (1 + 2048 // training.EVAL_CHUNK)
        assert adjoints == [(8, 20, 4)] * 2
        # the counts, the kept uniforms (2.6 MB) and one chunk set the peak;
        # the split's traces alone would be 21 MB
        assert peak < traces / 2, f"peak {peak} bytes"

    @staticmethod
    def _split_peak(cfg, tag):
        """The split cli._split builds, and its tracemalloc peak."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            split = cli._split(cfg, tag)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return split, peak

    def test_synthetic_split_build_holds_no_record_list(self, tmp_path):
        # 512 records of 16 x 16 pixels over 20 steps: 5.2 MB of dense
        # uint8 counts, and their EventRecord list would take 32 bytes an
        # event, about 7.4 MB.  The split is binned straight into its index.
        config = tmp_path / "split.cfg"
        config.write_text("test_per_class = 128\nT = 20\n")
        cfg = build_run_config(parse_config_file(config))
        cli._split(replace(cfg, test_per_class=1), "test")  # imports and caches
        (_, index, labels), peak = self._split_peak(cfg, "test")
        assert index.shape == (512, 20, 512) and labels.shape == (512,)
        dense = math.prod(index.shape)
        assert peak < dense, f"peak {peak} bytes against {dense} of dense counts"

    def test_event_split_build_holds_no_record_list(self, tmp_path):
        # the same 512-record split shape read from an event file: the
        # records are binned into the index as they are parsed
        path = tmp_path / "split.events"
        write_events(path, bar_records(512, seed=1, width=16, height=16))
        cfg = build_run_config({"dataset": "events", "train_events": str(path),
                                "test_events": str(path), "T": 20})
        (geometry, index, labels), peak = self._split_peak(cfg, "test")
        assert geometry == (16, 16) and index.shape == (512, 20, 512) and labels.shape == (512,)
        dense = math.prod(index.shape)
        assert peak < dense, f"peak {peak} bytes against {dense} of dense counts"

    def test_sweep_seconds_split_grid_time(self, tiny_config, tiny_checkpoint, tmp_path):
        config = self._edited(tiny_config, tmp_path, timing="on")
        code = _main(
            "sweep-snr", "--config", str(config), "--out", str(tmp_path / "sweep"),
            "--checkpoint", str(tiny_checkpoint), "--epsilon-grid", "0.0,0.1,0.5",
        )
        assert code == 0
        seconds = {r.seconds for r in read_metrics(tmp_path / "sweep" / "metrics.csv")}
        assert len(seconds) == 1 and seconds.pop() > 0.0

    @pytest.mark.parametrize("verb, flags", [
        ("sweep-snr", ["--train-per-point", "--epsilon-grid", "0.1,0.2"]),
        ("sweep-snr", ["--train-per-point", "--epsilon-grid", "0.1,0.2", "--epochs", "0"]),
        ("sweep-beta", ["--beta-grid", "0.1,0.2"]),
        ("mismatch", []),
    ], ids=["train-per-point", "train-per-point-untrained", "sweep-beta", "mismatch"])
    def test_command_draws_each_test_chunk_once(
        self, tiny_config, tmp_path, monkeypatch, verb, flags
    ):
        # two points (trained for two epochs, or untrained), two betas, or
        # one run and its grid evaluation share the command's draws: one
        # pass over each of the 8 test samples' 3 chunks in all
        starts = []
        real = training._eval_uniforms

        def recording(root, start, *rest):
            starts.append(start)
            return real(root, start, *rest)

        monkeypatch.setattr(training, "_eval_uniforms", recording)
        monkeypatch.setattr(training, "EVAL_CHUNK", 3)
        assert _main(verb, "--config", str(tiny_config), "--out", str(tmp_path / "o"), *flags) == 0
        assert sorted(starts) == [0, 3, 6]

    def test_train_per_point_rows_are_last_epochs(self, tiny_config, tmp_path, monkeypatch):
        # a point that trained is not evaluated again: its row is its last
        # epoch's, which equals a fresh evaluation of the model it returned
        grid_calls, runs = [], []

        def grid_spy(*args):
            grid_calls.append(args)
            return evaluate(*args)

        monkeypatch.setattr(cli, "evaluate", grid_spy)
        real = cli._train_run

        def recording(point_cfg, data, *rest):
            runs.append((point_cfg, data, real(point_cfg, data, *rest)))
            return runs[-1][2]

        monkeypatch.setattr(cli, "_train_run", recording)
        out = tmp_path / "tpp"
        assert _main("sweep-snr", "--config", str(tiny_config), "--out", str(out),
                     "--train-per-point", "--epsilon-grid", "0.1,0.2") == 0
        assert grid_calls == []
        rows = read_metrics(out / "metrics.csv")
        assert [(r.point, r.epoch) for r in rows] == [(0, 2), (1, 2)]
        for row, (point_cfg, data, (encoder, decoder)) in zip(rows, runs, strict=True):
            assert evaluate(encoder, decoder, data.test_counts, data.test_labels,
                            [row.epsilon], point_cfg.seed) == [(row.error_rate, row.spike_rate)]

    @pytest.mark.parametrize("verb, flags, grid", [
        ("sweep-snr", ["--train-per-point", "--epsilon-grid", "0.1,0.3"], (0.1, 0.3)),
        ("mismatch", [], DEFAULT_MISMATCH_GRID),
    ], ids=["train-per-point", "mismatch"])
    def test_untrained_rows_evaluate_initial_models(self, tiny_config, tmp_path, verb, flags,
                                                    grid):
        out = tmp_path / "untrained"
        assert _main(verb, "--config", str(tiny_config), "--out", str(out), "--epochs", "0",
                     *flags) == 0
        rows = read_metrics(out / "metrics.csv")
        cfg = build_run_config(parse_config_file(tiny_config), {"epochs": 0})
        data = cli._build_dataset(cfg)
        encoder, decoder = cli._init_models(cfg, data)
        expected = evaluate(encoder, decoder, data.test_counts, data.test_labels, grid,
                            cfg.seed)
        assert [(r.point, r.epoch, r.epsilon) for r in rows] == [
            (i, 0, eps) for i, eps in enumerate(grid)
        ]
        assert [(r.error_rate, r.spike_rate) for r in rows] == expected

    def test_mismatch_uses_default_grid(self, tiny_config, tmp_path):
        out = tmp_path / "mm"
        code = _main(
            "mismatch", "--config", str(tiny_config), "--out", str(out), "--epochs", "1"
        )
        assert code == 0
        rows = read_metrics(out / "metrics.csv")
        assert [r.epsilon for r in rows] == list(DEFAULT_MISMATCH_GRID)

    def test_grid_flags_are_exclusive(self, tiny_config, tmp_path):
        code = _main(
            "mismatch", "--config", str(tiny_config), "--out", str(tmp_path / "z"),
            "--epsilon-grid", "0.1", "--ebn0-grid-db", "0",
        )
        assert code == 2

    def test_beta_sweep_rows(self, tiny_config, tmp_path):
        out = tmp_path / "beta"
        code = _main(
            "sweep-beta", "--config", str(tiny_config), "--out", str(out),
            "--beta-grid", "0.001,0.01", "--epochs", "1",
        )
        assert code == 0
        rows = read_metrics(out / "metrics.csv")
        assert [(r.point, r.beta) for r in rows] == [(0, 0.001), (1, 0.01)]

    def test_beta_sweep_rejects_nonpositive(self, tiny_config, tmp_path):
        code = _main(
            "sweep-beta", "--config", str(tiny_config), "--out", str(tmp_path / "nb"),
            "--beta-grid", "0.001,0",
        )
        assert code == 2

    @pytest.mark.parametrize("value, message", [
        ("nan", "beta grid point 1: beta must be a number, got nan"),
        ("inf", "beta grid point 1: beta must be finite, got inf"),
    ], ids=["nan", "inf"])
    def test_beta_sweep_validates_every_point_before_training(
        self, tiny_config, tmp_path, monkeypatch, capsys, value, message
    ):
        calls = []
        monkeypatch.setattr(cli, "train_epoch", lambda *a, **k: calls.append(a))
        out = tmp_path / "nb"
        code = _main(
            "sweep-beta", "--config", str(tiny_config), "--out", str(out),
            "--beta-grid", f"0.001,{value}",
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("verb", ["sweep-snr", "mismatch"])
    def test_nan_db_grid_point_names_the_flag(self, tiny_config, tmp_path, capsys, verb):
        out = tmp_path / "grid"
        code = _main(verb, "--config", str(tiny_config), "--out", str(out),
                     "--ebn0-grid-db", "0,nan")
        assert code == 2
        assert _refusal(capsys) == (
            "error: --ebn0-grid-db point 1: Eb/N0 must be a number of dB, got nan")
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["sweep-snr", "mismatch"])
    def test_bad_grid_creates_no_output(self, tiny_config, tmp_path, capsys, verb):
        out = tmp_path / "grid"
        code = _main(verb, "--config", str(tiny_config), "--out", str(out), "--epsilon-grid", "0.7")
        assert code == 2
        assert "grid epsilon 0.7 outside [0, 0.5]" in capsys.readouterr().err
        assert not out.exists()


class TestCliExport:
    def test_kv_export_round_trip(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "run"
        _main("train", "--config", str(tiny_config), "--out", str(out))
        rows = read_metrics(out / "metrics.csv")
        capsys.readouterr()  # drop the train verb's stdout
        code = _main("export", "--metrics", str(out / "metrics.csv"), "--format", "kv")
        assert code == 0
        text = capsys.readouterr().out
        assert parse_kv_metrics(text) == rows

    def test_export_of_no_rows(self, tiny_config, tmp_path, capsys):
        # a run of 0 epochs writes the header alone: its CSV export is that
        # header and its key=value export is empty, not one blank line
        out = tmp_path / "zero"
        assert _main("train", "--config", str(tiny_config), "--out", str(out),
                     "--epochs", "0") == 0
        capsys.readouterr()
        exported = {}
        for fmt in ("csv", "kv"):
            assert _main("export", "--metrics", str(out / "metrics.csv"), "--format", fmt) == 0
            exported[fmt] = capsys.readouterr().out
        assert exported == {"csv": (out / "metrics.csv").read_text(), "kv": ""}
        assert exported["csv"] == ",".join(CSV_HEADER) + "\n"

    def test_csv_export_to_file_is_identity(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        _main("train", "--config", str(tiny_config), "--out", str(out))
        dest = tmp_path / "copy.csv"
        code = _main(
            "export", "--metrics", str(out / "metrics.csv"),
            "--format", "csv", "--out", str(dest),
        )
        assert code == 0
        assert dest.read_text() == (out / "metrics.csv").read_text()

    def test_failed_write_keeps_previous_file(self, tiny_config, tmp_path, monkeypatch):
        out = tmp_path / "run"
        _main("train", "--config", str(tiny_config), "--out", str(out))
        dest = tmp_path / "export" / "copy.kv"
        assert _main("export", "--metrics", str(out / "metrics.csv"), "--format", "kv",
                    "--out", str(dest)) == 0
        before = dest.read_bytes()
        # text that cannot be encoded fails its write after the output file
        # was opened; opening the target itself would already have emptied it
        monkeypatch.setattr(cli, "export_metrics", lambda rows, fmt: "partial\n\udcff\n")
        code = _main("export", "--metrics", str(out / "metrics.csv"), "--format", "kv",
                    "--out", str(dest))
        assert code == 2
        assert dest.read_bytes() == before
        assert list(dest.parent.iterdir()) == [dest]

    def test_missing_metrics_is_io_error(self, tmp_path):
        code = _main("export", "--metrics", str(tmp_path / "none.csv"))
        assert code == 1

    @pytest.mark.parametrize("row, message", [
        ("train,0,1", "expected 10 fields, got 3"),
        ("train,a,1,0.1,,0.01,16,0.0,0.1,1.0", "invalid literal for int() with base 10: 'a'"),
        ("train,0,1,x,,0.01,16,0.0,0.1,1.0", "could not convert string to float: 'x'"),
        ("x" * 200_000, "field larger than field limit (131072)"),
    ])
    def test_malformed_row_names_file_and_line(self, tmp_path, capsys, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_HEADER) + "\ntrain,0,0,0.1,,0.01,16,0.5,0.1,1.0\n"
                        + row + "\n")
        assert _main("export", "--metrics", str(path)) == 2
        assert _refusal(capsys) == f"error: {path}: line 3: {message}"

    def test_oversized_header_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x" * 200_000 + "\n")
        assert _main("export", "--metrics", str(path)) == 2
        assert _refusal(capsys) == (
            f"error: {path}: line 1: field larger than field limit (131072)"
        )

    def test_out_naming_a_directory_is_refused(self, tmp_path, capsys):
        metrics = tmp_path / "m.csv"
        write_metrics(metrics, [])
        dest = tmp_path / "x"
        dest.mkdir()
        assert _main("export", "--metrics", str(metrics), "--out", str(dest)) == 1
        assert _refusal(capsys) == f"error: --out {dest} is a directory"
        assert sorted(tmp_path.iterdir()) == [metrics, dest] and not any(dest.iterdir())

    @pytest.mark.parametrize("kind", ["symlink", "fifo"])
    def test_out_naming_no_regular_file_is_refused(self, tmp_path, capsys, kind):
        # writing would swap the path for a regular file: a link's target
        # would be left as it was, a FIFO's readers never see the text
        metrics = tmp_path / "m.csv"
        write_metrics(metrics, [])
        target = tmp_path / "target.txt"
        target.write_text("kept\n")
        dest = tmp_path / "x"
        if kind == "symlink":
            dest.symlink_to(target)
        else:
            os.mkfifo(dest)
        assert _main("export", "--metrics", str(metrics), "--out", str(dest)) == 1
        assert _refusal(capsys) == f"error: --out {dest} is not a regular file"
        mode = dest.lstat().st_mode
        assert stat.S_ISLNK(mode) if kind == "symlink" else stat.S_ISFIFO(mode)
        assert target.read_text() == "kept\n"
        assert sorted(tmp_path.iterdir()) == sorted([metrics, target, dest])


class TestCliErrors:
    def test_bad_config_file(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("nonsense = 1\n")
        assert _main("train", "--config", str(path), "--out", str(tmp_path / "o")) == 2

    def test_conflicting_channel_flags(self, tiny_config, tmp_path):
        code = _main(
            "train", "--config", str(tiny_config), "--out", str(tmp_path / "o"),
            "--epsilon", "0.1", "--ebn0-db", "0",
        )
        assert code == 2

    @pytest.mark.parametrize("line, message", [
        ("output = bogus", "output must be one of ('sigmoid', 'softmax'), got 'bogus'"),
        ("mapping = bogus", "mapping must be one of ('linear', 'bpsk'), got 'bogus'"),
    ], ids=["output", "mapping"])
    def test_bad_choice_refused_before_any_work(
        self, tiny_config, tmp_path, capsys, line, message
    ):
        path = tmp_path / "bad.cfg"
        path.write_text(tiny_config.read_text() + "epsilon = 0.1\n" + line + "\n")
        out = tmp_path / "o"
        assert _main("train", "--config", str(path), "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_train_at_half_epsilon(self, tiny_config, tmp_path):
        code = _main(
            "train", "--config", str(tiny_config), "--out", str(tmp_path / "o"),
            "--epsilon", "0.5",
        )
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (("train", "--epsilon", "0.5"), "cannot train at epsilon 0.5 >= 0.5"),
        (("train", "--ebn0-db=-inf"), "cannot train at epsilon 0.5 >= 0.5"),
        (("mismatch", "--epsilon", "0.5"), "cannot train at epsilon 0.5 >= 0.5"),
        (("sweep-snr", "--epsilon", "0.5"), "cannot train at epsilon 0.5 >= 0.5"),
        (("sweep-beta", "--epsilon", "0.5", "--beta-grid", "0.001,0.01"),
         "beta grid point 0: cannot train at epsilon 0.5 >= 0.5"),
        (("sweep-snr", "--train-per-point", "--epsilon-grid", "0.1,0.5"),
         "grid point 1: cannot train at epsilon 0.5 >= 0.5"),
    ], ids=["train", "train-ebn0", "mismatch", "sweep-snr", "sweep-beta", "train-per-point"])
    def test_untrainable_point_refused_before_any_work(
        self, tiny_config, tmp_path, monkeypatch, capsys, argv, message
    ):
        built = []
        monkeypatch.setattr(cli, "_build_dataset", lambda cfg: built.append(cfg))
        out = tmp_path / "o"
        code = _main(argv[0], "--config", str(tiny_config), "--out", str(out), *argv[1:])
        assert code == 2
        assert message in capsys.readouterr().err
        assert built == [] and not out.exists()

    def test_checkpoint_sweep_may_carry_an_untrainable_point(self, tiny_config, tmp_path):
        trained = tmp_path / "t"
        assert _main("train", "--config", str(tiny_config), "--out", str(trained)) == 0
        code = _main(
            "sweep-snr", "--config", str(tiny_config), "--out", str(tmp_path / "s"),
            "--epsilon", "0.5", "--checkpoint", str(trained / "checkpoint.txt"),
        )
        assert code == 0

    def test_huge_T_refused_without_allocating(self, tiny_config, tmp_path, capsys,
                                               monkeypatch):
        # the binning's scratch buffer of 10**13 steps x 128 lines: far
        # beyond any address space, so NumPy refuses the allocation without
        # touching memory.  The windows of 10**13 taps are checked by value,
        # never built.
        path = tmp_path / "huge.cfg"
        path.write_text(tiny_config.read_text() + "window_ff = 10000000000000\n"
                        "window_fb = 10000000000000\n")
        out = tmp_path / "o"
        # every synthetic record is drawn from its own ("data", ...) stream,
        # seeded by SeededRng.substreams
        drawn = []
        real = SeededRng.substreams

        def substreams(self, *parts, indices):
            if parts[0] == "data":
                drawn.append(parts)
            return real(self, *parts, indices=indices)

        monkeypatch.setattr(SeededRng, "substreams", substreams)
        tracemalloc.start()
        try:
            code = _main("train", "--config", str(path), "--out", str(out), "--T", str(10**13))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert _refusal(capsys) == (
            "error: an array of shape (10000000000000, 128) and dtype bool "
            "(1280000000000000 bytes) is too large to allocate; "
            "T = 10000000000000, k = 4, hidden = 8"
        )
        assert not out.exists()
        # the scratch buffer is allocated before the first record is drawn
        assert drawn == []
        # NumPy's allocation tracing records the refused request's size
        # (at address 0) although no memory came back; all else is small.
        # The scratch buffer is bool, a byte a (step, line).
        refused = 10**13 * 128
        assert peak - refused < 10**7, f"peak {peak - refused} bytes besides the refused request"

    @pytest.mark.parametrize("split, shape", [
        ("train", (1, 5, 16)), ("test", (1, 5, 32)),
    ], ids=["train-0", "test-1"])
    def test_traces_too_large_refused(self, tiny_config, tmp_path, capsys, monkeypatch,
                                      split, shape):
        # uint8 counts that fit can still have larger arrays that do not:
        # the first training batch's float64 drive of 4 records x k = 4
        # columns (the first filter call, from encoder.drive_from_counts),
        # or the first test chunk's, of 8 records, in the first epoch's
        # evaluation, after the epoch's 3 batches each filtered a drive; the
        # failing allocation is simulated, never made
        made = []
        real_filter = Kernel.filter

        def failing(kernel, x, transpose=False):
            if not transpose:
                if x.shape == shape:
                    raise allocation_error(shape)
                made.append(x.shape)
            return real_filter(kernel, x, transpose)

        monkeypatch.setattr(Kernel, "filter", failing)
        out = tmp_path / "o"
        assert _main("train", "--config", str(tiny_config), "--out", str(out)) == 2
        assert len(made) == {"train": 0, "test": 3}[split]
        assert _refusal(capsys) == (
            f"error: an array of shape {shape} and dtype float64 ({math.prod(shape) * 8} bytes) "
            "is too large to allocate; T = 5, k = 4, hidden = 8"
        )
        assert not (out / "metrics.csv").exists()

    def test_checkpoint_chunk_traces_too_large_refused(
        self, tiny_config, tmp_path, capsys, monkeypatch
    ):
        trained = tmp_path / "t"
        assert _main("train", "--config", str(tiny_config), "--out", str(trained),
                    "--epochs", "0") == 0

        def failing(kernel, x, transpose=False):
            raise allocation_error(x.shape)

        # the chunk's drive filters its projected columns (drive_from_counts):
        # 8 records x k = 4, time-major
        monkeypatch.setattr(Kernel, "filter", failing)
        code = _main("sweep-snr", "--config", str(tiny_config), "--out", str(tmp_path / "s"),
                    "--checkpoint", str(trained / "checkpoint.txt"))
        assert code == 2
        assert _refusal(capsys) == (
            "error: an array of shape (1, 5, 32) and dtype float64 (1280 bytes) "
            "is too large to allocate; T = 5, k = 4, hidden = 8"
        )
        assert not (tmp_path / "s" / "metrics.csv").exists()

    @pytest.mark.parametrize("dataset, key, value, shape, dtype", [
        # the (T, lines) scratch buffer that bins the synthetic or the
        # event-file records
        ("synthetic", "T", 10**13, (10**13, 128), np.bool_),
        ("events", "T", 10**13, (10**13, 32), np.bool_),
        # the encoder's feedforward weights (k, lines)
        ("synthetic", "k", 10**13, (10**13, 128), np.float64),
        # the decoder's first layer (hidden, k * T)
        ("synthetic", "hidden", 10**13, (10**13, 20), np.float64),
        # the decoder's last layer (classes, hidden): an event label sets
        # the class count
        ("events", "label", 10**15, (10**15 + 1, 8), np.float64),
        # arrays whose byte count overflows: NumPy refuses them with a
        # ValueError that gives no shape
        ("synthetic", "T", 10**18, None, None),
        ("synthetic", "k", 10**18, None, None),
        # a geometry of more lines than an index numbers: refused by name,
        # before any array is sized by it
        ("events", "w", 10**18, None, None),
        # a dimension beyond int64
        ("synthetic", "hidden", 10**19, None, None),
    ], ids=["T-synthetic", "T-events", "k", "hidden", "label",
            "T-overflow", "k-overflow", "w-overflow", "hidden-beyond-int64"])
    def test_every_size_refused_by_one_handler(self, tiny_config, tmp_path, capsys,
                                               dataset, key, value, shape, dtype):
        # each array is far beyond any address space, so NumPy refuses it
        # without touching memory
        text = tiny_config.read_text()
        if dataset == "events":
            geometry = dict(classes=2, width=4, height=4)
            records = bar_records(4, seed=1, **geometry)
            if key == "label":
                records[-1].label = value
            if key == "w":
                records[0].width = value
            write_events(tmp_path / "train.events", records)
            write_events(tmp_path / "test.events", bar_records(2, seed=2, **geometry))
            text += (f"dataset = events\ntrain_events = {tmp_path / 'train.events'}\n"
                     f"test_events = {tmp_path / 'test.events'}\n")
        sizes = {"T": 5, "k": 4, "hidden": 8}
        if key in sizes:
            sizes[key] = value
            text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        path = tmp_path / "run.cfg"
        path.write_text(text)
        out = tmp_path / "o"
        assert _main("train", "--config", str(path), "--out", str(out)) == 2
        what = "an array"
        if shape is not None:
            size = math.prod(shape) * np.dtype(dtype).itemsize
            what += f" of shape {shape} and dtype {np.dtype(dtype)} ({size} bytes)"
        expected = (f"error: {what} is too large to allocate; T = {sizes['T']}, "
                    f"k = {sizes['k']}, hidden = {sizes['hidden']}")
        if key == "w":
            expected = (f"error: sensor geometry w={value} h=4: {8 * value} input lines "
                        "exceed the 2147483647 an index numbers in int32")
        assert _refusal(capsys) == expected
        assert not (out / "metrics.csv").exists()

    def test_too_wide_geometry_refused_by_name(self, tiny_config, tmp_path, capsys):
        # w = 2**31 gives 2**32 lines, more than an index's int32 lines
        # number: one line naming w and h, and nothing sized by the width
        wide = tmp_path / "wide.events"
        wide.write_text("# record label=0 w=2147483648 h=1 dur_us=10\n0 0 0 1\n")
        path = tmp_path / "run.cfg"
        path.write_text(tiny_config.read_text() + f"dataset = events\ntrain_events = {wide}\n"
                        f"test_events = {wide}\n")
        out = tmp_path / "o"
        tracemalloc.start()
        try:
            code = _main("train", "--config", str(path), "--out", str(out), "--T", "1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert _refusal(capsys) == (
            "error: sensor geometry w=2147483648 h=1: 4294967296 input lines exceed the "
            "2147483647 an index numbers in int32"
        )
        assert peak < 10**7, f"peak {peak} bytes"
        assert not out.exists()

    def test_bare_memory_error_refused_without_a_config(self, tmp_path, capsys, monkeypatch):
        # export builds no config, and a bare MemoryError has no shape
        def failing(path):
            raise MemoryError

        monkeypatch.setattr(cli, "read_metrics", failing)
        assert _main("export", "--metrics", str(tmp_path / "m.csv")) == 2
        assert _refusal(capsys) == "error: an array is too large to allocate"

    @pytest.mark.parametrize("values, message", [
        ({"tau_ff": 0.0}, "tau_ff and tau_fb must be positive"),
        ({"tau_fb": -1.0}, "tau_ff and tau_fb must be positive"),
        ({"window_ff": 0}, "window_ff and window_fb must be at least 1"),
        ({"window_fb": -3}, "window_ff and window_fb must be at least 1"),
    ])
    def test_kernel_settings_checked_by_value(self, values, message):
        with pytest.raises(ConfigError, match=message):
            build_run_config(values)

    def test_train_per_point_with_checkpoint_refused_before_any_work(
        self, tiny_config, tmp_path, monkeypatch, capsys
    ):
        trained = tmp_path / "t"
        assert _main("train", "--config", str(tiny_config), "--out", str(trained),
                    "--epochs", "0") == 0
        tiny_checkpoint = trained / "checkpoint.txt"
        built = []
        monkeypatch.setattr(cli, "_build_dataset", lambda cfg: built.append(cfg))
        monkeypatch.setattr(cli, "_split", lambda cfg, tag: built.append(tag))
        out = tmp_path / "o"
        for checkpoint in (tiny_checkpoint, tmp_path / "missing.txt"):
            code = _main(
                "sweep-snr", "--config", str(tiny_config), "--out", str(out),
                "--train-per-point", "--checkpoint", str(checkpoint),
            )
            assert code == 2
            assert "give only one of --train-per-point and --checkpoint" in capsys.readouterr().err
        assert built == [] and not out.exists()

    @pytest.mark.parametrize("verb, flag, value", [
        ("sweep-beta", "--beta-grid", ""),
        ("sweep-snr", "--epsilon-grid", ","),
        ("sweep-snr", "--ebn0-grid-db", ""),
        ("mismatch", "--epsilon-grid", " , "),
    ], ids=["beta", "snr-epsilon", "snr-ebn0", "mismatch-epsilon"])
    def test_empty_grid_names_its_flag(
        self, tiny_config, tmp_path, monkeypatch, capsys, verb, flag, value
    ):
        built = []
        monkeypatch.setattr(cli, "_build_dataset", lambda cfg: built.append(cfg))
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            _main(verb, "--config", str(tiny_config), "--out", str(out), flag, value)
        assert exc.value.code == 2
        assert f"argument {flag}: the grid is empty" in capsys.readouterr().err
        assert built == [] and not out.exists()

    def test_missing_checkpoint_path(self, tiny_config, tmp_path):
        code = _main(
            "sweep-snr", "--config", str(tiny_config), "--out", str(tmp_path / "o"),
            "--checkpoint", str(tmp_path / "missing.txt"),
        )
        assert code == 2


class TestEventsDatasetFlow:
    def test_train_on_event_files(self, tmp_path):
        # write a bar-task corpus as event text, then train from the files
        task = dict(classes=2, width=8, height=8, duration_us=4000)
        train_path = tmp_path / "train.events"
        test_path = tmp_path / "test.events"
        write_events(train_path, bar_records(10, seed=2, split=0, **task))
        write_events(test_path, bar_records(6, seed=2, split=1, **task))
        cfg_path = tmp_path / "ev.cfg"
        cfg_path.write_text(
            "dataset = events\n"
            f"train_events = {train_path}\n"
            f"test_events = {test_path}\n"
            "k = 4\nT = 5\nhidden = 8\nepochs = 1\nbatch_size = 4\ntiming = off\n"
        )
        out = tmp_path / "run"
        assert _main("train", "--config", str(cfg_path), "--out", str(out)) == 0
        rows = read_metrics(out / "metrics.csv")
        assert len(rows) == 1


    @pytest.mark.parametrize("verb, train_geometry, test_geometry", [
        ("train", (8, 8), (16, 16)),
        ("mismatch", (8, 8), (16, 16)),
        ("sweep-beta", (8, 8), (16, 16)),
        ("sweep-snr", (16, 16), (8, 8)),
        # the same 128 input lines, so only the check tells them apart
        ("train", (16, 4), (8, 8)),
    ])
    def test_train_and_test_geometries_must_match(
        self, tmp_path, capsys, verb, train_geometry, test_geometry
    ):
        paths = {}
        for split, (tag, (w, h)) in enumerate((("train", train_geometry),
                                               ("test", test_geometry))):
            paths[tag] = tmp_path / f"{tag}.events"
            write_events(paths[tag], bar_records(4, seed=2, split=split, classes=2, width=w,
                                                 height=h, duration_us=4000))
        cfg_path = tmp_path / "ev.cfg"
        cfg_path.write_text(
            f"dataset = events\ntrain_events = {paths['train']}\n"
            f"test_events = {paths['test']}\n"
            "k = 4\nT = 5\nhidden = 8\nepochs = 1\nbatch_size = 4\ntiming = off\n"
        )
        out = tmp_path / "run"
        assert _main(verb, "--config", str(cfg_path), "--out", str(out)) == 2
        (tw, th), (sw, sh) = train_geometry, test_geometry
        assert (f"error: train events have sensor geometry w={tw} h={th} "
                f"but test events have w={sw} h={sh}") in capsys.readouterr().err
        assert not out.exists()


_PROPERTY = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
# each key's value type, from the RunConfig annotations ("float | None" is a float)
_KIND = {f.name: f.type.split(" ")[0] for f in fields(RunConfig)}
_VALUES = {
    # bounded so a drawn kernel window stays small
    "int": st.integers(-10**5, 10**5),
    "float": st.floats(allow_nan=False),
    "bool": st.booleans(),
    "str": st.text(
        st.characters(min_codepoint=33, max_codepoint=126, blacklist_characters="#"),
        min_size=1, max_size=12,
    ),
}


def _written(value) -> str:
    if isinstance(value, bool):
        return "on" if value else "off"
    return repr(value) if isinstance(value, float) else str(value)


@st.composite
def _config_values(draw):
    keys = draw(st.lists(st.sampled_from(sorted(_KIND)), unique=True, max_size=8))
    return {key: draw(_VALUES[_KIND[key]]) for key in keys}


@_PROPERTY
@given(_config_values())
def test_config_file_round_trip(tmp_path, values):
    path = tmp_path / "fuzz.cfg"
    path.write_text("".join(f"{key} = {_written(value)}\n" for key, value in values.items()))
    assert parse_config_file(path) == values
    try:
        cfg = build_run_config(values)
    except ConfigError:
        return
    for key, value in values.items():
        assert getattr(cfg, key) == value


_LINE = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(sorted(_KIND)), st.text(max_size=12)),
    st.text(max_size=20),
)


@_PROPERTY
@given(st.lists(_LINE, max_size=6), st.binary(max_size=8))
def test_damaged_config_is_refused_or_valid(tmp_path, lines, junk):
    path = tmp_path / "fuzz.cfg"
    path.write_bytes("\n".join(lines).encode("utf-8", "surrogatepass") + junk)
    try:
        build_run_config(parse_config_file(path))
    except ConfigError:
        pass
