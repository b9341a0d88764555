"""Smoke test of the benchmark: the harness and its independent reference
evaluator run every workload at a tiny size and accept this checkout, and
its set-up boundary falls where its attribution expects."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "benchmarks/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


def _child():
    """benchmarks/child.py, imported as it is."""
    spec = importlib.util.spec_from_file_location("bench_child", ROOT / "benchmarks" / "child.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("verb, stop", [("train", "train_epoch"),
                                        ("sweep-snr", "evaluate")])
def test_setup_stops_at_the_first_training_call(tmp_path, monkeypatch, verb, stop):
    # the benchmark's setup mode ends set-up at the CLI's first call into
    # spikelink.training: at the first epoch, after both splits are built
    # and the train split coded, when training; at the grid's evaluation
    # from a checkpoint
    import spikelink.cli as cli
    import spikelink.training as training

    child = _child()
    config = tmp_path / "tiny.cfg"
    config.write_text("classes = 2\nheight = 8\nwidth = 8\ntrain_per_class = 6\n"
                      "test_per_class = 4\nk = 4\nT = 5\nhidden = 8\nepochs = 1\n"
                      "batch_size = 4\ntiming = off\n")
    argv = [verb, "--config", str(config), "--out", str(tmp_path / "o")]
    if verb == "sweep-snr":
        trained = tmp_path / "t"
        assert cli.main(["train", "--config", str(config), "--out", str(trained)]) == 0
        argv += ["--checkpoint", str(trained / "checkpoint.txt")]
    # install_marks rebinds names in both modules; monkeypatch restores them
    for attr, fn in list(vars(cli).items()):
        monkeypatch.setattr(cli, attr, fn)
    monkeypatch.setattr(training, "evaluate", training.evaluate)
    built = []
    split_inputs = cli._split_inputs
    monkeypatch.setattr(cli, "_split_inputs",
                        lambda cfg, tag: built.append(tag) or split_inputs(cfg, tag))
    rec = child.Recorder()
    child.install_marks(rec, stop_at_first=True)
    with pytest.raises(child.SetupDone):
        cli.main(argv)
    assert [call[0] for call in rec.training_calls] == [stop]
    assert built == (["train", "test"] if verb == "train" else ["test"])
    assert not (tmp_path / "o" / "metrics.csv").exists()
