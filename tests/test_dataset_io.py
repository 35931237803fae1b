"""Labeled series CSV: block structure, round-trips, error reporting."""

from __future__ import annotations

import numpy as np
import pytest

from trifault.dataset import (
    DATASET_HEADER,
    DatasetFormatError,
    SeriesBlock,
    block_from_series,
    block_to_series,
    read_dataset,
    training_rows,
    write_dataset,
)
from trifault.simulate import NO_FAULT, FaultLabel, SimConfig, simulate, timeline_masks

L2 = FaultLabel.from_switches([2])


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
        with pytest.raises(ValueError):
            SeriesBlock(
                series_id=0,
                sample_rate=100.0,
                fault_timeline=(),
                t=np.array([0.0, 0.01]),
                i_a=np.array([1.0]),
                i_b=np.array([1.0, 2.0]),
                i_c=np.array([1.0, 2.0]),
                labels=np.zeros(2, dtype=np.uint8),
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
        block = sample_block()
        gapped = SeriesBlock(
            series_id=0,
            sample_rate=block.sample_rate,
            fault_timeline=block.fault_timeline,
            t=np.concatenate([block.t[:10], block.t[20:]]),
            i_a=np.concatenate([block.i_a[:10], block.i_a[20:]]),
            i_b=np.concatenate([block.i_b[:10], block.i_b[20:]]),
            i_c=np.concatenate([block.i_c[:10], block.i_c[20:]]),
            labels=np.concatenate([block.labels[:10], block.labels[20:]]),
        )
        with pytest.raises(ValueError):
            block_to_series(gapped)


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

    def test_block_without_rows(self, tmp_path):
        path = self.write(
            tmp_path, [DATASET_HEADER, "# series 0 rate=100.0 timeline=none"]
        )
        with pytest.raises(DatasetFormatError):
            read_dataset(path)


class TestTrainingRows:
    def test_stacks_all_blocks(self):
        blocks = [sample_block(with_fault=False, n=32), sample_block(n=48)]
        X, labels = training_rows(blocks)
        assert X.shape == (80, 3)
        assert labels.shape == (80,)
        assert X.dtype == np.float64
        assert labels.dtype == np.uint8
        assert labels[0] == NO_FAULT.mask
