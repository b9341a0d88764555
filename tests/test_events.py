"""Event records, frame binning, synthetic task, text round-trip."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import bar_records, dense_counts, reference, write_events

from spikelink.config import ConfigError, RunConfig
from spikelink.events import (
    EVENT_DTYPE,
    EventFormatError,
    EventRecord,
    _draw_cells,
    class_rate_map,
    frames_to_inputs,
    load_events,
    load_frames,
    synthetic_frames,
)
from spikelink.numerics import SeededRng


def _record(events, label=0, w=4, h=4, dur=1000):
    return EventRecord(events, label, w, h, dur)


def _frames(rec, steps):
    """One record binned as a batch of one, shape (steps, 2, h, w)."""
    inputs, _ = frames_to_inputs([rec], steps)
    return inputs.reshape(steps, 2, rec.height, rec.width)


def _same_events(a, b):
    """Exact column-wise equality of two records' events."""
    return a.events.dtype == b.events.dtype == EVENT_DTYPE and all(
        np.array_equal(a.events[n], b.events[n]) for n in EVENT_DTYPE.names
    )


class TestEventRecord:
    def test_accepts_well_formed(self):
        rec = _record([(0, 0, 0, 1), (500, 3, 2, 0), (1000, 1, 1, 1)])
        assert len(rec.events) == 3

    def test_rejects_off_sensor(self):
        with pytest.raises(ValueError, match="off-sensor"):
            _record([(0, 4, 0, 1)])
        with pytest.raises(ValueError, match="off-sensor"):
            _record([(0, 0, -1, 1)])

    def test_rejects_bad_polarity(self):
        with pytest.raises(ValueError, match="polarity"):
            _record([(0, 0, 0, 2)])

    def test_rejects_timestamp_outside_duration(self):
        with pytest.raises(ValueError, match="timestamp"):
            _record([(1001, 0, 0, 1)])
        with pytest.raises(ValueError, match="timestamp"):
            _record([(-1, 0, 0, 1)])

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="order"):
            _record([(500, 0, 0, 1), (499, 0, 0, 1)])

    def test_names_first_bad_event_and_its_first_failing_check(self):
        good = (10, 0, 0, 1)
        with pytest.raises(ValueError, match=r"^event 2 at \(9, 0\) is off-sensor$"):
            _record([good, good, (10, 9, 0, 7), (5, 9, 0, 1)])
        with pytest.raises(ValueError, match=r"^event 1 polarity"):
            _record([good, (-1, 0, 0, 2), (5, 0, 0, 1)])
        # ts=-1 at event 0 is outside the duration, not out of order
        with pytest.raises(ValueError, match=r"^event 0 timestamp"):
            _record([(-1, 0, 0, 1)])
        with pytest.raises(ValueError, match=r"^event 3 breaks timestamp order$"):
            _record([good, good, (20, 0, 0, 1), (19, 0, 0, 1)])

    def test_columns_are_int64_structured(self):
        rec = _record(np.array([(5, 1, 2, 1)], dtype=EVENT_DTYPE))
        assert rec.events.dtype == EVENT_DTYPE
        assert rec.events["x"][0] == 1 and rec.events["y"][0] == 2
        with pytest.raises(ValueError, match="one-dimensional"):
            _record(np.zeros((2, 2), dtype=EVENT_DTYPE))

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            EventRecord([], 0, 0, 4, 1000)
        with pytest.raises(ValueError):
            EventRecord([], -1, 4, 4, 1000)


class TestFrameBinning:
    def test_bin_edges_integer_math(self):
        # duration 1000, 4 bins of 250: ts=249 -> bin 0, ts=250 -> bin 1
        rec = _record([(249, 0, 0, 1), (250, 1, 0, 1)])
        frames = _frames(rec, 4)
        assert frames[0, 1, 0, 0] == 1
        assert frames[1, 1, 0, 1] == 1
        assert frames.sum() == 2

    def test_timestamp_at_duration_lands_in_last_bin(self):
        rec = _record([(1000, 2, 3, 0)])
        frames = _frames(rec, 4)
        assert frames[3, 0, 3, 2] == 1

    def test_binarizes_repeats(self):
        rec = _record([(10, 0, 0, 1), (11, 0, 0, 1), (12, 0, 0, 1)])
        frames = _frames(rec, 2)
        assert frames[0, 1, 0, 0] == 1
        assert frames.sum() == 1

    def test_polarities_use_separate_channels(self):
        rec = _record([(10, 0, 0, 0), (11, 0, 0, 1)])
        frames = _frames(rec, 1)
        assert frames[0, 0, 0, 0] == 1 and frames[0, 1, 0, 0] == 1

    def test_empty_record_gives_zero_frames(self):
        frames = _frames(_record([]), 5)
        assert frames.shape == (5, 2, 4, 4)
        assert frames.sum() == 0

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError, match="steps"):
            _frames(_record([]), -1)

    def test_flat_steps_layout(self):
        # polarity-major flattening: index = p*H*W + y*W + x
        rec = _record([(0, 1, 2, 1)])
        flat = frames_to_inputs([rec], 1)[0][0]
        assert flat.shape == (1, 2 * 4 * 4)
        assert flat[0, 1 * 16 + 2 * 4 + 1] == 1
        assert flat.sum() == 1

    def test_rejects_duration_that_overflows_binning(self):
        rec = _record([(2**62, 0, 0, 1)], dur=2**62)
        with pytest.raises(ValueError, match="too long"):
            _frames(rec, 4)


class TestFramesToInputs:
    def test_stacks_and_labels(self):
        recs = [
            _record([(0, 0, 0, 1)], label=0),
            _record([(0, 1, 1, 0)], label=2),
        ]
        inputs, labels = frames_to_inputs(recs, 3)
        assert inputs.shape == (2, 3, 32)
        # binary counts, a byte each
        assert inputs.dtype == np.uint8
        assert inputs.sum() == 2 and set(np.unique(inputs)) == {0, 1}
        assert inputs[0, 0, 16] == 1 and inputs[1, 0, 5] == 1
        np.testing.assert_array_equal(labels, [0, 2])

    def test_equals_per_event_loop_oracle(self):
        # independent oracle: bin floor(ts*T/dur) clamped, line p*H*W + y*W + x,
        # one event at a time in Python integers
        recs = bar_records(12, seed=4, width=6, height=5, duration_us=997)
        recs.append(_record([(0, 0, 0, 0), (1000, 3, 3, 1)], label=1, w=6, h=5, dur=1000))
        recs.append(_record([], label=2, w=6, h=5, dur=7))
        for steps in (1, 7, 20):
            expected = np.zeros((len(recs), steps, 2 * 5 * 6))
            for i, rec in enumerate(recs):
                for ts, x, y, pol in rec.events.tolist():
                    b = min(ts * steps // rec.duration_us, steps - 1)
                    expected[i, b, pol * 30 + y * 6 + x] = 1.0
            inputs, labels = frames_to_inputs(recs, steps)
            assert inputs.dtype == np.uint8
            assert np.array_equal(inputs, expected)
            np.testing.assert_array_equal(labels, [r.label for r in recs])
            for i, rec in enumerate(recs):
                # a record binned alone equals its row of the batch
                assert np.array_equal(frames_to_inputs([rec], steps)[0][0], inputs[i])

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError, match="steps"):
            frames_to_inputs([_record([])], 0)

    def test_rejects_mixed_geometry(self):
        recs = [_record([], w=4, h=4), _record([], w=5, h=4)]
        with pytest.raises(ValueError, match="geometr"):
            frames_to_inputs(recs, 3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            frames_to_inputs([], 3)


def _binned(path_or_records, steps):
    """frames_to_inputs' counts and labels of records or of an event file."""
    records = path_or_records
    if not isinstance(records, list):
        records = load_events(records)
    return frames_to_inputs(records, steps)


def _reference_binned(records, steps):
    """The benchmark's own binning (reference.bin_events) of EventRecords,
    record by record, and their labels."""
    inputs = [reference.bin_events(*(r.events[name] for name in EVENT_DTYPE.names),
                                   r.width, r.height, r.duration_us, steps) for r in records]
    return np.stack(inputs), np.array([r.label for r in records], dtype=np.int64)


class TestSplitFrames:
    """synthetic_frames and load_frames bin as they draw or parse, straight
    into the index of the split's counts, with no record list and no dense
    counts: the benchmark's reference draws and bins the same bar-task
    split, or bins the records of the same event file, on its own."""

    @pytest.mark.parametrize("steps, seed, per_class", [
        pytest.param(1, 4, 4, id="1"),
        pytest.param(7, 4, 4, id="7"),
        pytest.param(20, 4, 4, id="20"),
        # a seed of three 32-bit words, and classes that cross a seeding block
        pytest.param(7, 2**64 + 4, 4, id="seed-2^64+4"),
        pytest.param(7, 4, 70, id="70-per-class"),
    ])
    def test_synthetic_frames_equal_binned_records(self, steps, seed, per_class):
        task = dict(classes=3, width=6, height=5, duration_us=997)
        cfg = RunConfig(**task, test_per_class=per_class, seed=seed, T=steps)
        geometry, index, labels = synthetic_frames(cfg, "test")
        inputs, expected = reference.synthetic_inputs(reference.BarTask(**task), per_class, seed,
                                                      "test", steps)
        assert geometry == (5, 6) and index.shape == (3 * per_class, steps, 60)
        assert index.lines.dtype == np.int32
        assert np.array_equal(dense_counts(index), inputs)
        assert labels.dtype == expected.dtype and np.array_equal(labels, expected)

    def test_synthetic_frames_too_large_names_the_split(self):
        # NumPy's own error leaves, carrying the shape and dtype of the
        # binning's (T, lines) scratch buffer for the CLI to report
        with pytest.raises(MemoryError) as exc:
            synthetic_frames(RunConfig(train_per_class=3, T=10**13), "train")
        assert exc.value.shape == (10**13, 512) and exc.value.dtype == np.bool_

    @pytest.mark.parametrize("steps", [1, 7, 20])
    def test_load_frames_equal_binned_records(self, tmp_path, steps):
        # the benchmark's own records and file writer, and its binning
        task = reference.BarTask(width=6, height=5, duration_us=997)
        records = reference.wide_records(task, 12, seed=4, split=0)
        path = tmp_path / "split.events"
        reference.write_event_file(path, records, task)
        geometry, index, labels = load_frames(path, steps)
        inputs, expected = reference.bin_records(records, task, steps)
        assert geometry == (5, 6) and index.shape == (12, steps, 60)
        assert np.array_equal(dense_counts(index), inputs) and np.array_equal(labels, expected)
        # an event at the record's duration, an empty record, and another duration
        edges = [_record([(0, 0, 0, 0), (1000, 3, 3, 1)], label=1, w=6, h=5, dur=1000),
                 _record([], label=2, w=6, h=5, dur=7)]
        write_events(path, edges)
        _, index, labels = load_frames(path, steps)
        inputs, expected = _reference_binned(edges, steps)
        assert np.array_equal(dense_counts(index), inputs) and np.array_equal(labels, expected)

    def test_load_frames_cut_to_the_records_parsed(self, tmp_path):
        # a header key may hold a "#": the labels are gathered as records
        # are parsed, and no array is sized by a count of "#"s
        path = tmp_path / "hash.events"
        path.write_text("# record label=1 w=2 h=3 dur_us=10 #note=4\n3 1 2 1\n")
        geometry, index, labels = load_frames(path, 2)
        assert geometry == (3, 2) and index.shape == (1, 2, 12) and labels.tolist() == [1]
        assert np.array_equal(dense_counts(index), _reference_binned(load_events(path), 2)[0])

    def test_load_frames_of_no_records(self, tmp_path):
        path = tmp_path / "empty.events"
        path.write_text("\n")
        geometry, index, labels = load_frames(path, 3)
        assert geometry == (0, 0) and index.shape == (0, 3, 0) and labels.shape == (0,)
        assert index.lines.size == 0 and index.offsets.tolist() == [0]

    @pytest.mark.parametrize("text, error, message", [
        # the mix is found at record 2, but the parse error of record 3 wins,
        # as it does for frames_to_inputs(load_events(path), steps)
        ("# record label=0 w=4 h=4 dur_us=10\n1 0 0 1\n"
         "# record label=0 w=5 h=4 dur_us=10\n"
         "# record label=0 w=4 h=4 dur_us=10\n1 0 0\n",
         EventFormatError, "^line 5: expected 4 fields, got 3"),
        # a duration too long to bin, then a mix: the mix is reported
        (f"# record label=0 w=4 h=4 dur_us={2**62}\n"
         "# record label=0 w=5 h=4 dur_us=10\n",
         ValueError, "^records mix sensor geometries"),
        (f"# record label=0 w=4 h=4 dur_us=10\n\n# record label=0 w=4 h=4 dur_us={2**62}\n",
         ValueError, "^record duration too long to bin"),
    ], ids=["parse-error-first", "mix-before-duration", "duration"])
    def test_load_frames_reports_errors_in_load_then_bin_order(
        self, tmp_path, text, error, message
    ):
        path = tmp_path / "bad.events"
        path.write_text(text)
        for load in (lambda: _binned(path, 4), lambda: load_frames(path, 4)):
            with pytest.raises(error, match=message):
                load()

    def test_load_frames_too_large_names_the_split(self, tmp_path):
        path = tmp_path / "split.events"
        write_events(path, bar_records(8, seed=1, width=4, height=4))
        with pytest.raises(MemoryError) as exc:
            load_frames(path, 10**13)
        assert exc.value.shape == (10**13, 32) and exc.value.dtype == np.bool_


class TestSyntheticTask:
    def test_rate_map_geometry(self):
        cfg = RunConfig()
        for label in range(cfg.classes):
            rates = class_rate_map(label, cfg)
            assert rates.shape == (2, cfg.height, cfg.width)
            assert (rates >= 0).all()
            # the bar region must dominate the background
            assert rates.max() > cfg.background_events

    def test_rate_maps_distinguish_classes(self):
        cfg = RunConfig()
        maps = [class_rate_map(lab, cfg) for lab in range(cfg.classes)]
        for i in range(len(maps)):
            for j in range(i + 1, len(maps)):
                assert not np.allclose(maps[i], maps[j])

    def test_rate_map_rejects_bad_label(self):
        with pytest.raises(ValueError):
            class_rate_map(4, RunConfig())

    def test_generate_event_count_tracks_rates(self):
        cfg = RunConfig()
        rates = class_rate_map(0, cfg)
        expected = rates.sum()
        counts = [
            _draw_cells(rates, cfg, SeededRng(7).substream("d", i).generator)[0].size
            for i in range(50)
        ]
        mean = np.mean(counts)
        # Poisson total: sd of the mean of 50 draws
        sd = np.sqrt(expected / 50)
        assert abs(mean - expected) < 5 * sd

    def test_generate_respects_record_invariants(self):
        cfg = RunConfig(classes=3, width=7, height=5)
        ts, cells = _draw_cells(class_rate_map(2, cfg), cfg, SeededRng(11).generator)
        pol, y, x = np.unravel_index(cells, (2, 5, 7))
        assert ts.size > 0 and x.size == y.size == pol.size == ts.size
        assert ts.min() >= 0 and ts.max() <= cfg.duration_us
        assert x.min() >= 0 and x.max() < 7 and y.min() >= 0 and y.max() < 5
        assert set(pol.tolist()) == {0, 1}

    def test_synthetic_frames_shape_and_determinism(self):
        cfg = RunConfig(train_per_class=3, seed=5)
        geometry, index, labels = synthetic_frames(cfg, "train")
        _, again, _ = synthetic_frames(cfg, "train")
        assert geometry == (cfg.height, cfg.width)
        assert index.shape == (cfg.classes * 3, cfg.T, 2 * cfg.height * cfg.width)
        assert labels.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]
        assert index.lines.size and np.array_equal(dense_counts(index), dense_counts(again))

    def test_train_and_test_tags_differ(self):
        cfg = RunConfig(train_per_class=2, test_per_class=2, seed=5)
        _, train, _ = synthetic_frames(cfg, "train")
        _, test, _ = synthetic_frames(cfg, "test")
        assert not np.array_equal(dense_counts(train), dense_counts(test))

    def test_config_validation(self):
        for bad in ({"classes": 5}, {"width": 2}, {"events_per_pixel": -1.0}):
            with pytest.raises(ConfigError):
                RunConfig(**bad)


class TestTextFormat:
    def test_round_trip(self, tmp_path):
        recs = bar_records(8, seed=3, width=8, height=8, duration_us=5000)
        path = tmp_path / "events.txt"
        write_events(path, recs)
        back = load_events(path)
        assert len(back) == len(recs)
        for a, b in zip(recs, back):
            assert a.label == b.label
            assert (a.width, a.height, a.duration_us) == (b.width, b.height, b.duration_us)
            assert _same_events(a, b)

    def test_empty_record_round_trip(self, tmp_path):
        path = tmp_path / "e.txt"
        write_events(path, [_record([], label=3)])
        back = load_events(path)
        assert len(back) == 1
        assert back[0].label == 3 and len(back[0].events) == 0

    def test_reports_line_numbers(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# record label=0 w=4 h=4 dur_us=100\n5 0 0\n")
        with pytest.raises(EventFormatError, match="line 2"):
            load_events(path)

    def test_rejects_event_before_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("5 0 0 1\n")
        with pytest.raises(EventFormatError, match="line 1"):
            load_events(path)

    def test_rejects_missing_header_field(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# record label=0 w=4 h=4\n")
        with pytest.raises(EventFormatError, match="dur_us"):
            load_events(path)

    @pytest.mark.parametrize("header, message", [
        ("label=100000000000000000000000 w=4 h=4 dur_us=100",
         "header value 'label=100000000000000000000000' outside int64"),
        ("label=0 w=100000000000000000000 h=4 dur_us=100",
         "header value 'w=100000000000000000000' outside int64"),
        ("label=0 w=4 h=4 dur_us=-9223372036854775809",
         "header value 'dur_us=-9223372036854775809' outside int64"),
        ("label=0 w=4 h=4 w=5 dur_us=100", "duplicate header key 'w'"),
        # int() would read these as 10, 1000 and 4
        ("label=1_0 w=4 h=4 dur_us=100", "non-integer header value 'label=1_0'"),
        ("label=0 w=4 h=4 dur_us=1_000", "non-integer header value 'dur_us=1_000'"),
        ("label=0 w=\u0664 h=4 dur_us=100", "non-integer header value 'w=\u0664'"),
    ], ids=["label-int64", "w-int64", "dur-int64", "duplicate", "label-underscore",
            "dur-underscore", "w-arabic-indic-digit"])
    def test_rejects_bad_header_value(self, tmp_path, header, message):
        path = tmp_path / "bad.txt"
        path.write_text(f"# record label=0 w=4 h=4 dur_us=100\n\n# record {header}\n1 0 0 1\n")
        for load in (load_events, lambda p: load_frames(p, 4)):
            with pytest.raises(EventFormatError, match=f"^line 3: {message}$"):
                load(path)
        # the int64 bounds themselves are values
        path.write_text("# record label=0 w=4 h=4 dur_us=9223372036854775807\n")
        assert load_events(path)[0].duration_us == 2**63 - 1

    def test_rejects_non_integer_field(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# record label=0 w=4 h=4 dur_us=100\n1 x 0 1\n")
        with pytest.raises(EventFormatError, match="non-integer"):
            load_events(path)

    def test_invalid_record_names_header_line(self, tmp_path):
        # off-sensor coordinate caught when the record closes
        path = tmp_path / "bad.txt"
        path.write_text("# record label=0 w=4 h=4 dur_us=100\n1 9 0 1\n")
        with pytest.raises(EventFormatError, match="line 1"):
            load_events(path)

    def test_two_records_without_blank_line(self, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text(
            "# record label=0 w=4 h=4 dur_us=100\n"
            "1 0 0 1\n"
            "# record label=1 w=4 h=4 dur_us=100\n"
            "2 1 1 0\n"
        )
        back = load_events(path)
        assert [r.label for r in back] == [0, 1]
        assert len(back[0].events) == 1 and len(back[1].events) == 1

    def test_signs_indentation_and_line_endings(self, tmp_path):
        path = tmp_path / "odd.txt"
        path.write_bytes(
            b"# record label=1 w=4 h=4 dur_us=100\r\n"
            b"  +5 0\t3 1  \r\n"
            b"007 1 1 0\r\n"
            b"\r\n"
            b"# record label=0 w=4 h=4 dur_us=100\n"
            b"9 2 2 1"
        )
        back = load_events(path)
        assert [r.label for r in back] == [1, 0]
        assert back[0].events.tolist() == [(5, 0, 3, 1), (7, 1, 1, 0)]
        assert back[1].events.tolist() == [(9, 2, 2, 1)]

    def test_negative_field_is_a_record_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("\n# record label=0 w=4 h=4 dur_us=100\n1 -2 0 1\n")
        with pytest.raises(EventFormatError, match=r"^record starting at line 2: event 0 at \(-2, 0\)"):
            load_events(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("1 2-3 0 1", "line 3: non-integer"),
            ("1 + 0 1", "line 3: non-integer"),
            ("1 0 0 1.0", "line 3: non-integer"),
            ("1 0 0 \u00b9", "line 3: non-integer"),
            ("1 0 0 1_0", "line 3: non-integer"),
            ("1234567890123456789 0 0 1", "line 3: event field out of range"),
            ("1 0 0 1 1", "line 3: expected 4 fields, got 5"),
        ],
    )
    def test_line_errors(self, tmp_path, line, message):
        path = tmp_path / "bad.txt"
        path.write_text(f"# record label=0 w=4 h=4 dur_us=100\n0 0 0 1\n{line}\n2 0 0 1\n")
        with pytest.raises(EventFormatError, match=f"^{message}"):
            load_events(path)

    def test_non_utf8_byte_is_named_by_its_line(self, tmp_path):
        # an undecodable byte reads as "?", so its line fails the event grammar
        path = tmp_path / "bad.txt"
        path.write_bytes(b"# record label=0 w=4 h=4 dur_us=100\n0 0 0 1\n\xff\n2 0 0 1\n")
        for load in (load_events, lambda p: load_frames(p, 4)):
            with pytest.raises(EventFormatError, match="^line 3: expected 4 fields, got 1$"):
                load(path)
        path.write_bytes(b"# record label=0 w=4 h=4 dur_us=100\n0 0 0 \xc3\n")
        for load in (load_events, lambda p: load_frames(p, 4)):
            with pytest.raises(EventFormatError, match="^line 2: non-integer event field$"):
                load(path)

    def test_event_after_closed_record(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# record label=0 w=4 h=4 dur_us=100\n1 0 0 1\n\n2 0 0 1\n")
        with pytest.raises(EventFormatError, match="^line 4: event before any record header"):
            load_events(path)

    def test_record_error_comes_before_later_line_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(
            "# record label=0 w=4 h=4 dur_us=100\n5 0 0 1\n4 0 0 1\n"
            "# record label=0 w=4 h=4 dur_us=100\n1 0 0\n"
        )
        with pytest.raises(EventFormatError, match="^record starting at line 1: event 1 breaks"):
            load_events(path)


# ---------------------------------------------------------------------------
# property tests of the text format


@st.composite
def _records(draw):
    w = draw(st.integers(1, 6))
    h = draw(st.integers(1, 6))
    dur = draw(st.integers(1, 10**12))
    n = draw(st.integers(0, 25))
    stamps = sorted(draw(st.lists(st.integers(0, dur), min_size=n, max_size=n)))
    events = [
        (ts, draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1)), draw(st.integers(0, 1)))
        for ts in stamps
    ]
    return EventRecord(events, draw(st.integers(0, 9)), w, h, dur)


_PROPERTY = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@_PROPERTY
@given(st.lists(_records(), min_size=1, max_size=4))
def test_round_trip_is_exact(tmp_path, records):
    path = tmp_path / "rt.txt"
    write_events(path, records)
    back = load_events(path)
    assert len(back) == len(records)
    for a, b in zip(records, back):
        assert (a.label, a.width, a.height, a.duration_us) == (
            b.label, b.width, b.height, b.duration_us
        )
        assert _same_events(a, b)
    again = tmp_path / "again.txt"
    write_events(again, back)
    assert again.read_bytes() == path.read_bytes()


_DAMAGE = ("drop_field", "extra_field", "non_integer", "off_sensor", "out_of_order")


@_PROPERTY
@given(st.lists(_records(), min_size=1, max_size=3), st.data())
def test_damaged_line_is_named(tmp_path, records, data):
    records = [r for r in records if len(r.events)]
    if not records:
        records = [EventRecord([(0, 0, 0, 1)], 0, 1, 1, 1)]
    path = tmp_path / "fuzz.txt"
    write_events(path, records)
    lines = path.read_text().splitlines()
    # 1-based line numbers of each record's header and event lines
    targets, lineno = [], 1
    for rec in records:
        for i in range(len(rec.events)):
            targets.append((lineno, lineno + 1 + i, rec, i))
        lineno += len(rec.events) + 2
    header_line, line_no, rec, i = data.draw(st.sampled_from(targets))
    damage = data.draw(st.sampled_from(_DAMAGE))
    ts, x, y, pol = rec.events[i].tolist()
    if damage == "out_of_order" and (i == 0 or rec.events["timestamp"][i - 1] == 0):
        damage = "off_sensor"
    fields = [str(ts), str(x), str(y), str(pol)]
    if damage == "drop_field":
        fields.pop(data.draw(st.integers(0, 3)))
    elif damage == "extra_field":
        fields.append("0")
    elif damage == "non_integer":
        fields[data.draw(st.integers(0, 3))] = data.draw(st.sampled_from(["x", "1.5", "--1", "+"]))
    elif damage == "off_sensor":
        fields[1] = str(rec.width)
    else:
        fields[0] = str(int(rec.events["timestamp"][i - 1]) - 1)
    lines[line_no - 1] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n")
    if damage in ("off_sensor", "out_of_order"):
        expected = rf"^record starting at line {header_line}: event {i} "
    else:
        expected = rf"^line {line_no}: "
    with pytest.raises(EventFormatError, match=expected):
        load_events(path)
    with pytest.raises(EventFormatError, match=expected):
        load_frames(path, 3)


@_PROPERTY
@given(st.lists(_records(), min_size=1, max_size=4), st.integers(1, 9))
def test_load_frames_bins_as_frames_to_inputs(tmp_path, records, steps):
    # the benchmark's binning of the records, or frames_to_inputs' error
    # for a geometry mix
    path = tmp_path / "split.txt"
    write_events(path, records)
    try:
        inputs, labels = frames_to_inputs(records, steps)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{exc}$"):
            load_frames(path, steps)
        return
    _, index, got = load_frames(path, steps)
    expected, expected_labels = _reference_binned(records, steps)
    assert np.array_equal(dense_counts(index), expected) and np.array_equal(inputs, expected)
    assert np.array_equal(got, expected_labels) and np.array_equal(labels, expected_labels)
