"""Labeled series CSV: block structure, round-trips, error reporting."""

from __future__ import annotations

import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trifault import dataset
from trifault.dataset import (
    _LABEL_TIME_TOL,
    DATASET_HEADER,
    DatasetFormatError,
    SeriesBlock,
    _parse_series_comment,
    block_from_series,
    block_to_series,
    read_dataset,
    training_rows,
    write_dataset,
)
from trifault.simulate import NO_FAULT, FaultLabel, SimConfig, simulate, timeline_masks

L2 = FaultLabel.from_switches([2])


def reference_read_dataset(path) -> list[SeriesBlock]:
    """Line-by-line reader with a block state dict: the reader that
    block-at-a-time reading replaced, kept as its reference. It accepts
    a file whose blocks repeat a series id."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != DATASET_HEADER:
        raise DatasetFormatError(f"line 1: expected header {DATASET_HEADER!r}")

    blocks: list[SeriesBlock] = []
    current: dict | None = None

    def finish(block_info) -> None:
        if block_info is None:
            return
        if not block_info["t"]:
            raise DatasetFormatError(
                f"line {block_info['line']}: series {block_info['id']} has no rows"
            )
        t, masks = np.array(block_info["t"]), np.array(block_info["labels"], dtype=np.uint8)
        timeline = block_info["timeline"]
        wrong = np.flatnonzero(
            (masks != timeline_masks(timeline, t - _LABEL_TIME_TOL))
            & (masks != timeline_masks(timeline, t + _LABEL_TIME_TOL))
        )
        if wrong.size:
            k = int(wrong[0])
            raise DatasetFormatError(
                f"line {block_info['line'] + 1 + k}: label {masks[k]:06b} at t = {float(t[k])!r} s"
                " disagrees with the series timeline"
            )
        blocks.append(
            SeriesBlock(
                series_id=block_info["id"],
                sample_rate=block_info["rate"],
                fault_timeline=timeline,
                t=t,
                i_a=np.array(block_info["ia"]),
                i_b=np.array(block_info["ib"]),
                i_c=np.array(block_info["ic"]),
                labels=masks,
            )
        )

    for line_no, line in enumerate(lines[1:], start=2):
        if line.startswith("#"):
            series_id, rate, timeline = _parse_series_comment(line, line_no)
            finish(current)
            current = {
                "id": series_id,
                "rate": rate,
                "timeline": timeline,
                "line": line_no,
                "t": [],
                "ia": [],
                "ib": [],
                "ic": [],
                "labels": [],
            }
            continue
        if current is None:
            raise DatasetFormatError(f"line {line_no}: data row before any series comment")
        fields = line.split(",")
        if len(fields) != 5:
            raise DatasetFormatError(f"line {line_no}: expected 5 fields, got {len(fields)}")
        try:
            t_val = float(fields[0])
            row = [float(fields[1]), float(fields[2]), float(fields[3])]
            mask = FaultLabel.from_string(fields[4]).mask
        except ValueError as exc:
            raise DatasetFormatError(f"line {line_no}: {exc}") from exc
        if not all(map(math.isfinite, (t_val, *row))):
            raise DatasetFormatError(f"line {line_no}: time and currents must be finite")
        if current["t"] and t_val <= current["t"][-1]:
            raise DatasetFormatError(f"line {line_no}: row times must increase within a series")
        current["t"].append(t_val)
        current["ia"].append(row[0])
        current["ib"].append(row[1])
        current["ic"].append(row[2])
        current["labels"].append(mask)
    finish(current)
    if not blocks:
        raise DatasetFormatError("line 1: dataset holds no series")
    return blocks


def sample_block(with_fault=True, n=64):
    timeline = ((0.001, L2),) if with_fault else ()
    series = simulate(
        SimConfig(amplitude=5.0, noise_sigma=0.02, seed=7), timeline, n / 25600.0
    )
    return block_from_series(series, series_id=3)


class TestBlockConstruction:
    def test_labels_follow_timeline(self):
        block = sample_block()
        assert block.labels.dtype == np.uint8
        for t, mask in zip(block.t, block.labels):
            assert mask == (L2 if t >= 0.001 else NO_FAULT).mask

    def test_rejects_mismatched_columns(self):
        # a short channel is refused by TriPhaseSeries, short labels by the block
        for i_a, n_labels, message in (
            ([1.0], 2, "channels must have the same length as t"),
            ([1.0, 2.0], 3, "labels and t must share one length"),
        ):
            with pytest.raises(ValueError, match=message):
                SeriesBlock(
                    series_id=0,
                    sample_rate=100.0,
                    fault_timeline=(),
                    t=np.array([0.0, 0.01]),
                    i_a=np.array(i_a),
                    i_b=np.array([1.0, 2.0]),
                    i_c=np.array([1.0, 2.0]),
                    labels=np.zeros(n_labels, dtype=np.uint8),
                )

    @pytest.mark.parametrize(
        "labels",
        [
            (NO_FAULT, NO_FAULT),
            np.zeros(2, dtype=np.int64),
            np.zeros((2, 1), dtype=np.uint8),
            np.array([0, 64], dtype=np.uint8),
        ],
        ids=["label-tuple", "int64", "2-d", "mask-64"],
    )
    def test_refuses_labels_that_are_not_a_mask_array(self, labels):
        with pytest.raises(ValueError, match="label mask"):
            SeriesBlock(
                series_id=0,
                sample_rate=100.0,
                fault_timeline=(),
                t=np.array([0.0, 0.01]),
                i_a=np.array([1.0, 2.0]),
                i_b=np.array([1.0, 2.0]),
                i_c=np.array([1.0, 2.0]),
                labels=labels,
            )

    def test_block_to_series_round_trip(self):
        block = sample_block()
        series = block_to_series(block)
        assert series.sample_rate == block.sample_rate
        assert np.array_equal(series.i_a, block.i_a)
        assert series.fault_timeline == block.fault_timeline
        assert timeline_masks(series.fault_timeline, series.t[-1]) == L2.mask

    def test_block_to_series_refuses_gapped_rows(self):
        # ten samples missing at 25.6 kHz; one at 1 MHz, where a gap moves
        # the later rows by one sample spacing, 1e-6 s
        series_1mhz = simulate(SimConfig(amplitude=5.0, sample_rate=1e6), ((32e-6, L2),), 64e-6)
        for block, gap in ((sample_block(), 10), (block_from_series(series_1mhz, series_id=3), 1)):
            keep = np.r_[0:10, 10 + gap : block.n_rows]
            gapped = SeriesBlock(
                series_id=0,
                sample_rate=block.sample_rate,
                fault_timeline=block.fault_timeline,
                t=block.t[keep],
                i_a=block.i_a[keep],
                i_b=block.i_b[keep],
                i_c=block.i_c[keep],
                labels=block.labels[keep],
            )
            block_to_series(block)
            with pytest.raises(ValueError):
                block_to_series(gapped)

    @pytest.mark.parametrize("rate", [25600.0, 1e6, 2e6, 1e8])
    def test_written_series_reads_back_onto_its_grid(self, tmp_path, rate):
        series = simulate(SimConfig(amplitude=5.0, sample_rate=rate), (), 4096 / rate)
        path = tmp_path / "d.csv"
        write_dataset(path, [block_from_series(series, series_id=0)])
        assert block_to_series(read_dataset(path)[0]).n_samples == 4096


class TestFileRoundTrip:
    def test_write_read_write_is_byte_stable(self, tmp_path):
        blocks = [sample_block(with_fault=False), sample_block()]
        blocks[0] = SeriesBlock(
            series_id=0,
            sample_rate=blocks[0].sample_rate,
            fault_timeline=blocks[0].fault_timeline,
            t=blocks[0].t,
            i_a=blocks[0].i_a,
            i_b=blocks[0].i_b,
            i_c=blocks[0].i_c,
            labels=blocks[0].labels,
        )
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_dataset(p1, blocks)
        loaded = read_dataset(p1)
        write_dataset(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_values_survive_at_written_precision(self, tmp_path):
        block = sample_block()
        path = tmp_path / "d.csv"
        write_dataset(path, [block])
        loaded = read_dataset(path)[0]
        assert loaded.series_id == block.series_id
        assert loaded.sample_rate == block.sample_rate
        assert loaded.fault_timeline == block.fault_timeline
        assert loaded.labels.dtype == np.uint8
        assert np.array_equal(loaded.labels, block.labels)
        # written at 9 / 6 decimal places: half-ulp of the last digit
        assert np.max(np.abs(loaded.t - block.t)) <= 6e-10
        assert np.max(np.abs(loaded.i_a - block.i_a)) <= 6e-7

    def test_row_written_just_below_its_fault_instant_reads_back(self, tmp_path):
        # k / 25600 s with k = 1025 is 0.0400390625 exactly, the fault
        # instant, and is written rounded down to 0.040039062
        series = simulate(SimConfig(amplitude=5.0), ((0.0400390625, L2),), 0.05)
        path, again = tmp_path / "d.csv", tmp_path / "e.csv"
        write_dataset(path, [block_from_series(series, series_id=0)])
        assert "0.040039062," in path.read_text().splitlines()[1027]
        assert path.read_text().splitlines()[1027].endswith(f",{L2}")
        write_dataset(again, read_dataset(path))
        assert again.read_bytes() == path.read_bytes()

    def test_long_file_reads_across_text_chunks(self, tmp_path):
        # two 1 s series are over 2 MB of text, read a chunk at a time: the
        # bytes come back, and a defect past the first chunks names its line
        series = simulate(SimConfig(amplitude=5.0), ((0.5, L2),), 1.0)
        path, again = tmp_path / "d.csv", tmp_path / "e.csv"
        write_dataset(path, [block_from_series(series, 0), block_from_series(series, 1)])
        assert path.stat().st_size > 2 << 20
        write_dataset(again, read_dataset(path))
        assert again.read_bytes() == path.read_bytes()
        lines = path.read_text().splitlines()
        lines[45000] = lines[45000].replace(",", ";", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="^line 45001: expected 5 fields, got 4$"):
            read_dataset(path)

    def test_non_ascii_byte_past_the_first_chunk_names_its_line(self, tmp_path):
        series = simulate(SimConfig(amplitude=5.0), (), 1.0)
        path = tmp_path / "d.csv"
        write_dataset(path, [block_from_series(series, 0)])
        data = bytearray(path.read_bytes())
        at = (1 << 20) + 5000
        assert len(data) > at
        data[at] = 0xE9
        path.write_bytes(data)
        line, column = data.count(b"\n", 0, at) + 1, at - data.rfind(b"\n", 0, at)
        with pytest.raises(DatasetFormatError, match=f"^line {line}: byte 0xe9 at column {column} is not ASCII$"):
            read_dataset(path)

    def test_repeated_series_id_is_refused_before_the_file_opens(self, tmp_path):
        blocks = [sample_block(), sample_block()]
        assert blocks[0].series_id == blocks[1].series_id
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        old.write_text("kept\n")
        for path in (new, old):
            with pytest.raises(ValueError, match=f"^series id {blocks[0].series_id} is given twice$"):
                write_dataset(path, blocks)
        assert not new.exists() and old.read_text() == "kept\n"

    def test_header_line(self, tmp_path):
        path = tmp_path / "d.csv"
        write_dataset(path, [sample_block()])
        assert path.read_text().splitlines()[0] == DATASET_HEADER


class TestParseErrors:
    def write(self, tmp_path, lines):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_missing_header(self, tmp_path):
        path = self.write(tmp_path, ["nope", "# series 0 rate=100.0 timeline=none"])
        with pytest.raises(DatasetFormatError, match="line 1"):
            read_dataset(path)

    def test_row_before_any_block(self, tmp_path):
        path = self.write(
            tmp_path, [DATASET_HEADER, "0.0,1.0,2.0,3.0,000000"]
        )
        with pytest.raises(DatasetFormatError, match="line 2"):
            read_dataset(path)

    def test_wrong_field_count(self, tmp_path):
        path = self.write(
            tmp_path,
            [DATASET_HEADER, "# series 0 rate=100.0 timeline=none", "0.0,1.0,2.0"],
        )
        with pytest.raises(DatasetFormatError, match="line 3"):
            read_dataset(path)

    def test_non_increasing_time(self, tmp_path):
        path = self.write(
            tmp_path,
            [
                DATASET_HEADER,
                "# series 0 rate=100.0 timeline=none",
                "0.010000000,1.0,1.0,1.0,000000",
                "0.010000000,1.0,1.0,1.0,000000",
            ],
        )
        with pytest.raises(DatasetFormatError, match="line 4"):
            read_dataset(path)

    def test_bad_label(self, tmp_path):
        path = self.write(
            tmp_path,
            [
                DATASET_HEADER,
                "# series 0 rate=100.0 timeline=none",
                "0.0,1.0,1.0,1.0,00000",
            ],
        )
        with pytest.raises(DatasetFormatError, match="line 3"):
            read_dataset(path)

    def test_label_that_contradicts_the_timeline(self, tmp_path):
        # rows before t_fault + 1e-9 may carry the label before the fault
        path = self.write(
            tmp_path,
            [
                DATASET_HEADER,
                "# series 0 rate=100.0 timeline=0.0:100000",
                "0.000000000,1.0,1.0,1.0,000000",
                "0.010000000,1.0,1.0,1.0,010000",
                "0.020000000,1.0,1.0,1.0,000000",
            ],
        )
        with pytest.raises(DatasetFormatError, match=r"line 4: label 010000 at t = 0\.01 s"):
            read_dataset(path)

    @pytest.mark.parametrize(
        "comment, row, bad_line",
        [
            ("# series 0 rate=nan timeline=none", "0.0,1.0,1.0,1.0,000000", 2),
            ("# series 0 rate=0.0 timeline=none", "0.0,1.0,1.0,1.0,000000", 2),
            ("# series 0 rate=-100.0 timeline=none", "0.0,1.0,1.0,1.0,000000", 2),
            ("# series 0 rate=inf timeline=none", "0.0,1.0,1.0,1.0,000000", 2),
            ("# series 0 rate=100.0 timeline=none", "nan,1.0,1.0,1.0,000000", 4),
            ("# series 0 rate=100.0 timeline=none", "inf,1.0,1.0,1.0,000000", 4),
            ("# series 0 rate=100.0 timeline=none", "0.02,nan,1.0,1.0,000000", 4),
            ("# series 0 rate=100.0 timeline=none", "0.02,1.0,inf,1.0,000000", 4),
            ("# series 0 rate=100.0 timeline=none", "0.02,1.0,1.0,-inf,000000", 4),
            ("# series 0 rate=100.0 timeline=nan:100000", "0.02,1.0,1.0,1.0,000000", 2),
            ("# series 0 rate=100.0 timeline=inf:100000", "0.02,1.0,1.0,1.0,000000", 2),
            ("# series 0 rate=100.0 timeline=-1.0:100000", "0.02,1.0,1.0,1.0,000000", 2),
            (
                "# series 0 rate=100.0 timeline=0.5:100000;0.1:010000",
                "0.02,1.0,1.0,1.0,000000",
                2,
            ),
            # a series comment names each of its two keys once
            ("# series 0 rate=100.0 rate=200.0 timeline=none", "0.02,1.0,1.0,1.0,000000", 2),
            ("# series 0 rate=100.0 timeline=none timeline=none", "0.02,1.0,1.0,1.0,000000", 2),
            ("# series 0 rate=100.0 timeline=none colour=blue", "0.02,1.0,1.0,1.0,000000", 2),
        ],
        ids=["rate-nan", "rate-zero", "rate-negative", "rate-inf", "t-nan", "t-inf",
             "ia-nan", "ib-inf", "ic-neg-inf", "timeline-nan", "timeline-inf",
             "timeline-negative", "timeline-decreasing", "rate-twice", "timeline-twice",
             "unknown-key"],
    )
    def test_non_finite_or_non_positive_numbers(self, tmp_path, comment, row, bad_line):
        lines = [DATASET_HEADER, comment, "0.01,1.0,1.0,1.0,000000", row]
        with pytest.raises(DatasetFormatError, match=f"line {bad_line}"):
            read_dataset(self.write(tmp_path, lines))

    def test_empty_dataset(self, tmp_path):
        path = self.write(tmp_path, [DATASET_HEADER])
        with pytest.raises(DatasetFormatError):
            read_dataset(path)

    def test_repeated_series_id(self, tmp_path):
        path = self.write(
            tmp_path,
            [
                DATASET_HEADER,
                "# series 0 rate=100.0 timeline=none",
                "0.0,1.0,1.0,1.0,000000",
                "# series 0 rate=100.0 timeline=none",
                "0.0,1.0,1.0,1.0,000000",
            ],
        )
        with pytest.raises(DatasetFormatError, match="line 4: series id 0 repeats line 2"):
            read_dataset(path)

    def test_lines_split_as_splitlines_splits_them(self, tmp_path):
        # a form feed ends a line, so the row after it is empty
        path = tmp_path / "ff.csv"
        rows = ["# series 0 rate=100.0 timeline=none", "0.0,1.0,2.0,3.0,000000\x0c"]
        path.write_text("\n".join([DATASET_HEADER, *rows]) + "\n")
        with pytest.raises(DatasetFormatError, match="^line 4: expected 5 fields, got 1$"):
            read_dataset(path)

    def test_block_without_rows(self, tmp_path):
        path = self.write(
            tmp_path, [DATASET_HEADER, "# series 0 rate=100.0 timeline=none"]
        )
        with pytest.raises(DatasetFormatError):
            read_dataset(path)

    @pytest.mark.parametrize("chunk_chars", [1, 64, 1 << 20])
    @pytest.mark.parametrize(
        "bad_row, message",
        [(False, "line 9: byte 0xe9 at column 1 is not ASCII"), (True, "line 6: expected 5 fields, got 4")],
    )
    def test_non_ascii_byte_is_refused_in_line_order(self, tmp_path, chunk_chars, bad_row, message):
        # a bad row before the byte is refused first, wherever the chunks fall
        path = tmp_path / "d.csv"
        write_dataset(path, [sample_block()])
        lines = path.read_bytes().split(b"\n")
        lines[8] = b"\xe9" + lines[8]
        if bad_row:
            lines[5] = lines[5].replace(b",", b";", 1)
        path.write_bytes(b"\n".join(lines))
        with mock.patch.object(dataset, "_CHUNK_CHARS", chunk_chars):
            with pytest.raises(DatasetFormatError, match=f"^{message}$"):
                read_dataset(path)


def mutation_base_lines() -> list[str]:
    """A valid two-block file: series 0 healthy, series 10 with a fault
    timeline. Deleting a character of "10" gives a repeated id."""
    rate = 25600.0
    healthy = simulate(SimConfig(amplitude=5.0, noise_sigma=0.02, seed=7), (), 6 / rate)
    faulted = simulate(SimConfig(amplitude=5.0, noise_sigma=0.02, seed=8), ((2.5 / rate, L2),), 6 / rate)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "base.csv"
        write_dataset(path, [block_from_series(healthy, 0), block_from_series(faulted, 10)])
        return path.read_text().splitlines()


MUTATION_BASE = mutation_base_lines()
FIELD_VALUES = ["nan", "inf", "x", "", " 1.0", "1_0", "00000", "0000000", "111111"]
MUTATIONS = st.tuples(
    st.sampled_from(["drop", "duplicate", "swap", "delete-char", "append-comma", "replace-field"]),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.sampled_from(FIELD_VALUES),
)


def mutate(lines: list[str], kind: str, a: int, b: int, value: str) -> list[str]:
    lines = list(lines)
    i, j = a % len(lines), b % len(lines)
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "delete-char" and lines[i]:
        k = b % len(lines[i])
        lines[i] = lines[i][:k] + lines[i][k + 1 :]
    elif kind == "append-comma":
        lines[i] += ","
    elif kind == "replace-field":
        fields = lines[i].split(",")
        fields[b % len(fields)] = value
        lines[i] = ",".join(fields)
    return lines


def read_outcome(reader, path):
    try:
        return reader(path), None
    except DatasetFormatError as exc:
        return None, str(exc)


def error_line(message: str) -> int:
    return int(re.match(r"line (\d+):", message).group(1))


class TestReaderMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(MUTATIONS, min_size=1, max_size=2))
    # "# series 10" on line 9 loses its "1": the reference reads two series 0
    @example([("delete-char", 8, 9, "x")])
    # series 10's comment doubled, the copy made unreadable: the first
    # copy has no rows, which the reference finds only after the second
    @example([("duplicate", 8, 0, "x"), ("append-comma", 9, 0, "x")])
    def test_mutated_files(self, mutations):
        lines = MUTATION_BASE
        for mutation in mutations:
            lines = mutate(lines, *mutation)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            path.write_text("\n".join(lines) + "\n")
            expected, expected_error = read_outcome(reference_read_dataset, path)
            got, error = read_outcome(read_dataset, path)
        if error is not None and "repeats line" in error:
            # a repeated id is refused where the reference accepted it or
            # was still to find a later defect
            series_id = int(re.search(r"series id (-?\d+)", error).group(1))
            ids = [block.series_id for block in expected] if expected else None
            assert ids is None or ids.count(series_id) > 1
            repeat_line, first_line = map(int, re.findall(r"line (\d+)", error))
            assert first_line < repeat_line
            for line_no in (first_line, repeat_line):
                assert _parse_series_comment(lines[line_no - 1], line_no)[0] == series_id
        elif expected_error is not None and error != expected_error:
            # the reference parsed block k + 1's comment before checking
            # block k's rows against its timeline; the reader checks block
            # k whole first, as the reference does on the file cut there
            cut = error_line(expected_error)
            assert lines[cut - 1].startswith("#") and error_line(error) < cut
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "cut.csv"
                path.write_text("\n".join(lines[: cut - 1]) + "\n")
                assert read_outcome(reference_read_dataset, path)[1] == error
        else:
            assert error == expected_error
            assert got is None or len(got) == len(expected)
            # a repeated id the reference accepted must have been refused
            assert got is None or len({block.series_id for block in got}) == len(got)
            for block, ref in zip(got or (), expected or ()):
                assert (block.series_id, block.sample_rate, block.fault_timeline) == (
                    ref.series_id,
                    ref.sample_rate,
                    ref.fault_timeline,
                )
                for name in ("t", "i_a", "i_b", "i_c", "labels"):
                    column, ref_column = getattr(block, name), getattr(ref, name)
                    assert column.dtype == ref_column.dtype
                    assert column.tobytes() == ref_column.tobytes()


class TestTrainingRows:
    def test_stacks_all_blocks(self):
        blocks = [sample_block(with_fault=False, n=32), sample_block(n=48)]
        X, labels = training_rows(blocks)
        assert X.shape == (80, 3)
        assert labels.shape == (80,)
        assert X.dtype == np.float64
        assert labels.dtype == np.uint8
        assert labels[0] == NO_FAULT.mask
