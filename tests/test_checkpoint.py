"""Checkpoint round-trips and corruption handling."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import spikelink.checkpoint as checkpoint
from spikelink.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from spikelink.decoder import DecoderParams, init_decoder_params
from spikelink.encoder import EncoderParams, init_encoder_params
from spikelink.numerics import Kernel, SeededRng


def _models(seed=0, output="sigmoid"):
    root = SeededRng(seed)
    enc = init_encoder_params(6, 3, root.substream("e").generator)
    dec = init_decoder_params(3 * 4, 2, root.substream("d").generator, hidden_dim=5, output=output)
    return enc, dec


def _assert_bit_identical(a, b, fields):
    for f in fields:
        left = np.asarray(getattr(a, f))
        right = np.asarray(getattr(b, f))
        # exact bit equality, not approximate
        np.testing.assert_array_equal(
            left.view(np.uint64), right.view(np.uint64), err_msg=f
        )


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        enc, dec = _models()
        # make values awkward: denormals, negative zero, many digits
        enc.ff_weights[0, 0] = 5e-324
        enc.bias[0] = -0.0
        enc.fb_weights[0] = 1.0 / 3.0
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, enc, dec, meta={"k": "3", "T": "4"})
        enc2, dec2, meta = load_checkpoint(path)
        _assert_bit_identical(enc, enc2, ("ff_weights", "fb_weights", "bias"))
        _assert_bit_identical(dec, dec2, ("w1", "b1", "w2", "b2"))
        np.testing.assert_array_equal(
            enc.kernel_ff.coefficients, enc2.kernel_ff.coefficients
        )
        assert meta["k"] == "3" and meta["T"] == "4"

    def test_output_head_restored(self, tmp_path):
        enc, dec = _models(output="softmax")
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, enc, dec)
        _, dec2, meta = load_checkpoint(path)
        assert dec2.output == "softmax"
        assert meta["output"] == "softmax"

    def test_save_load_save_is_stable(self, tmp_path):
        enc, dec = _models(seed=1)
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        save_checkpoint(p1, enc, dec)
        enc2, dec2, meta = load_checkpoint(p1)
        save_checkpoint(p2, enc2, dec2, meta=meta)
        assert p1.read_text() == p2.read_text()

    def test_meta_rejects_spaces(self, tmp_path):
        enc, dec = _models()
        with pytest.raises(CheckpointError, match="spaces"):
            save_checkpoint(tmp_path / "x.txt", enc, dec, meta={"note": "two words"})
        # an empty value would be written as a line the loader cannot read
        with pytest.raises(CheckpointError, match="non-empty"):
            save_checkpoint(tmp_path / "x.txt", enc, dec, meta={"note": ""})
        assert list(tmp_path.iterdir()) == []

    def test_interrupted_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, *_models(seed=0))
        before = path.read_bytes()
        real = checkpoint._write_block

        def failing(fh, name, arr):
            if name.startswith("decoder."):
                raise OSError("disk full")
            real(fh, name, arr)

        monkeypatch.setattr(checkpoint, "_write_block", failing)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, *_models(seed=1))
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


class TestCorruption:
    def _saved(self, tmp_path):
        enc, dec = _models()
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, enc, dec)
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "absent.txt")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(CheckpointError, match="empty"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("something-else 1\nend\n")
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = self._saved(tmp_path)
        text = path.read_text().replace("spikelink-checkpoint 1", "spikelink-checkpoint 2", 1)
        path.write_text(text)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncated_values(self, tmp_path):
        path = self._saved(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3]) + "\n")
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_missing_end_marker(self, tmp_path):
        path = self._saved(tmp_path)
        text = path.read_text().rsplit("end", 1)[0]
        path.write_text(text)
        with pytest.raises(CheckpointError, match="end"):
            load_checkpoint(path)

    def test_bad_hex_value(self, tmp_path):
        path = self._saved(tmp_path)
        lines = path.read_text().splitlines()
        # first value line follows the first block header
        for i, line in enumerate(lines):
            if line.startswith("block"):
                parts = lines[i + 1].split()
                parts[0] = "0xnotahex"
                lines[i + 1] = " ".join(parts)
                break
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="hex"):
            load_checkpoint(path)

    def test_missing_block(self, tmp_path):
        path = self._saved(tmp_path)
        lines = path.read_text().splitlines()
        out = []
        skipping = False
        for line in lines:
            if line.startswith("block decoder.b2"):
                skipping = True
                continue
            if skipping:
                if line == "end" or line.startswith(("block", "meta")):
                    skipping = False
                else:
                    continue
            out.append(line)
        path.write_text("\n".join(out) + "\n")
        with pytest.raises(CheckpointError, match="missing blocks"):
            load_checkpoint(path)

    def test_stray_line_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        lines = path.read_text().splitlines()
        lines.insert(1, "garbage entry here")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="expected block"):
            load_checkpoint(path)


_PROPERTY = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_TOKEN = st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=8)


@st.composite
def _model(draw):
    k, n_in, width, hidden, classes = (draw(st.integers(1, 3)) for _ in range(5))

    def values(*shape):
        return draw(arrays(np.float64, shape, elements=_FINITE))

    encoder = EncoderParams(
        ff_weights=values(k, n_in), fb_weights=values(k), bias=values(k),
        kernel_ff=Kernel(values(draw(st.integers(1, 4)))),
        kernel_fb=Kernel(values(draw(st.integers(1, 4)))),
    )
    decoder = DecoderParams(
        w1=values(hidden, width), b1=values(hidden), w2=values(classes, hidden),
        b2=values(classes), output=draw(st.sampled_from(["sigmoid", "softmax"])),
    )
    meta = draw(st.dictionaries(_TOKEN.filter(lambda key: key != "output"), _TOKEN, max_size=4))
    return encoder, decoder, meta


@_PROPERTY
@given(_model())
def test_round_trip_is_bit_exact(tmp_path, model):
    encoder, decoder, meta = model
    path = tmp_path / "rt.txt"
    save_checkpoint(path, encoder, decoder, meta)
    enc2, dec2, meta2 = load_checkpoint(path)
    _assert_bit_identical(encoder, enc2, ("ff_weights", "fb_weights", "bias"))
    _assert_bit_identical(encoder.kernel_ff, enc2.kernel_ff, ("coefficients",))
    _assert_bit_identical(encoder.kernel_fb, enc2.kernel_fb, ("coefficients",))
    _assert_bit_identical(decoder, dec2, ("w1", "b1", "w2", "b2"))
    assert dec2.output == decoder.output
    assert meta2 == {**meta, "output": decoder.output}


def _damaged(text, kind, data):
    """The checkpoint text with one kind of damage; returns (text, must_fail)."""
    lines = text.splitlines()
    values = [i for i, line in enumerate(lines) if line[:2] in ("0x", "-0")]
    headers = [i for i, line in enumerate(lines) if line.startswith("block ")]
    if kind == "truncate":
        cut = data.draw(st.integers(0, len(text) - 2))
        return text[:cut], True
    if kind in ("non_finite", "overflow"):
        i = data.draw(st.sampled_from(values))
        row = lines[i].split()
        row[data.draw(st.integers(0, len(row) - 1))] = (
            data.draw(st.sampled_from(["nan", "inf", "-inf", "-nan"]))
            if kind == "non_finite" else data.draw(st.sampled_from(["0x1p99999", "-0x1p1024"]))
        )
        lines[i] = " ".join(row)
        return "\n".join(lines) + "\n", True
    # a header, block header or value line replaced by arbitrary tokens
    i = data.draw(st.sampled_from([0] + headers + values))
    lines[i] = " ".join(data.draw(st.lists(_TOKEN, max_size=5)))
    return "\n".join(lines) + "\n", False


@_PROPERTY
@given(
    _model(),
    st.sampled_from(["truncate", "non_finite", "overflow", "bad_line"]),
    st.data(),
)
def test_damaged_text_is_refused(tmp_path, model, kind, data):
    path = tmp_path / "fuzz.txt"
    save_checkpoint(path, *model)
    text, must_fail = _damaged(path.read_text(), kind, data)
    path.write_text(text)
    try:
        load_checkpoint(path)
    except CheckpointError:
        return
    assert not must_fail, f"{kind} damage loaded"


@_PROPERTY
@given(_model(), st.data())
def test_random_byte_damage_is_refused_or_loads(tmp_path, model, data):
    path = tmp_path / "bytes.txt"
    save_checkpoint(path, *model)
    raw = bytearray(path.read_bytes())
    for _ in range(data.draw(st.integers(1, 4))):
        raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
    path.write_bytes(bytes(raw))
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass
