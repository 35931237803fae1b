"""Labeled current-sample CSV files.

One file holds one or more series blocks. Each block starts with a
comment line

    # series <id> rate=<hz> timeline=<t:label[;t:label...]|none>

followed by data rows `t,i_a,i_b,i_c,label` under the single file
header. Times are printed with 9 decimals, currents with 6, labels as
six-character bit strings, so writing is reproducible byte for byte.
Timeline times keep full precision (repr) because they are ground
truth, not measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .simulate import FaultLabel, TriPhaseSeries, label_at_time

DATASET_HEADER = "t,i_a,i_b,i_c,label"
FEATURE_COLUMNS = ("i_a", "i_b", "i_c")
# a series row may sit this far off its uniform grid, in absolute seconds
# plus this fraction of the sample spacing (times are written with 9 decimals)
_SPACING_TOL = 1e-6


class DatasetFormatError(ValueError):
    """Malformed dataset file; message carries the 1-based line number."""


@dataclass(frozen=True)
class SeriesBlock:
    """One recorded series: samples, labels and fault ground truth."""

    series_id: int
    sample_rate: float
    fault_timeline: tuple[tuple[float, FaultLabel], ...]
    t: np.ndarray
    i_a: np.ndarray
    i_b: np.ndarray
    i_c: np.ndarray
    labels: tuple[FaultLabel, ...]

    def __post_init__(self) -> None:
        n = len(self.t)
        if any(len(getattr(self, f)) != n for f in ("i_a", "i_b", "i_c")) or len(self.labels) != n:
            raise ValueError("block channels, labels and t must share one length")

    @property
    def n_rows(self) -> int:
        return len(self.t)


def block_from_series(series: TriPhaseSeries, series_id: int) -> SeriesBlock:
    """Wrap a simulated series, labeling rows from its own timeline."""
    return SeriesBlock(
        series_id=series_id,
        sample_rate=series.sample_rate,
        fault_timeline=series.fault_timeline,
        t=np.asarray(series.t, dtype=float),
        i_a=np.asarray(series.i_a, dtype=float),
        i_b=np.asarray(series.i_b, dtype=float),
        i_c=np.asarray(series.i_c, dtype=float),
        labels=tuple(label_at_time(series.fault_timeline, float(t)) for t in series.t),
    )


def block_to_series(block: SeriesBlock) -> TriPhaseSeries:
    """Back to a TriPhaseSeries; refuses blocks with a gapped time grid."""
    if block.n_rows < 2:
        raise DatasetFormatError(f"series {block.series_id} has fewer than 2 rows")
    expected = block.t[0] + np.arange(block.n_rows) / block.sample_rate
    if np.max(np.abs(block.t - expected)) > _SPACING_TOL / block.sample_rate + _SPACING_TOL:
        raise DatasetFormatError(
            f"series {block.series_id} is not uniformly sampled at {block.sample_rate} Hz"
        )
    return TriPhaseSeries(
        t=block.t,
        i_a=block.i_a,
        i_b=block.i_b,
        i_c=block.i_c,
        sample_rate=block.sample_rate,
        fault_timeline=block.fault_timeline,
    )


def _timeline_text(timeline) -> str:
    if not timeline:
        return "none"
    return ";".join(f"{repr(float(t))}:{label}" for t, label in timeline)


def _parse_timeline(text: str, line_no: int):
    if text == "none":
        return ()
    out = []
    for part in text.split(";"):
        try:
            t_text, label_text = part.split(":")
            out.append((float(t_text), FaultLabel.from_string(label_text)))
        except ValueError as exc:
            raise DatasetFormatError(f"line {line_no}: bad timeline entry {part!r}") from exc
    return tuple(out)


def write_dataset(path, blocks) -> None:
    lines = [DATASET_HEADER]
    for block in blocks:
        lines.append(
            f"# series {block.series_id} rate={repr(float(block.sample_rate))}"
            f" timeline={_timeline_text(block.fault_timeline)}"
        )
        for k in range(block.n_rows):
            lines.append(
                f"{block.t[k]:.9f},{block.i_a[k]:.6f},{block.i_b[k]:.6f},"
                f"{block.i_c[k]:.6f},{block.labels[k]}"
            )
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def _parse_series_comment(line: str, line_no: int) -> tuple[int, float, tuple]:
    parts = line.split()
    if len(parts) < 3 or parts[0] != "#" or parts[1] != "series":
        raise DatasetFormatError(f"line {line_no}: bad series comment {line!r}")
    try:
        series_id = int(parts[2])
    except ValueError as exc:
        raise DatasetFormatError(f"line {line_no}: bad series id {parts[2]!r}") from exc
    meta = {}
    for token in parts[3:]:
        if "=" not in token:
            raise DatasetFormatError(f"line {line_no}: bad metadata token {token!r}")
        key, value = token.split("=", 1)
        meta[key] = value
    if "rate" not in meta or "timeline" not in meta:
        raise DatasetFormatError(f"line {line_no}: series comment needs rate= and timeline=")
    try:
        rate = float(meta["rate"])
    except ValueError as exc:
        raise DatasetFormatError(f"line {line_no}: bad rate {meta['rate']!r}") from exc
    if not (math.isfinite(rate) and rate > 0.0):
        raise DatasetFormatError(f"line {line_no}: rate must be finite and > 0, got {rate!r}")
    return series_id, rate, _parse_timeline(meta["timeline"], line_no)


def read_dataset(path) -> list[SeriesBlock]:
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
        blocks.append(
            SeriesBlock(
                series_id=block_info["id"],
                sample_rate=block_info["rate"],
                fault_timeline=block_info["timeline"],
                t=np.array(block_info["t"]),
                i_a=np.array(block_info["ia"]),
                i_b=np.array(block_info["ib"]),
                i_c=np.array(block_info["ic"]),
                labels=tuple(block_info["labels"]),
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
            label = FaultLabel.from_string(fields[4])
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
        current["labels"].append(label)
    finish(current)
    if not blocks:
        raise DatasetFormatError("line 1: dataset holds no series")
    return blocks


def training_rows(blocks) -> tuple[np.ndarray, tuple[FaultLabel, ...]]:
    """All rows of all blocks as one (n, 3) matrix plus labels."""
    X = np.concatenate([np.column_stack([b.i_a, b.i_b, b.i_c]) for b in blocks])
    labels = tuple(lab for b in blocks for lab in b.labels)
    return X, labels
