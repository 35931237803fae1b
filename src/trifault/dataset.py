"""Labeled current-sample CSV files.

One file holds one or more series blocks. Each block starts with a
comment line

    # series <id> rate=<hz> timeline=<t:label[;t:label...]|none>

followed by data rows `t,i_a,i_b,i_c,label` under the single file
header. Times are printed with 9 decimals, currents with 6, labels as
six-character bit strings, so writing is reproducible byte for byte.
Timeline times keep full precision (repr) because they are ground
truth, not measurements.

Reading takes one block at a time straight from the open file, from its
comment line up to the next one, so it holds no more than one block's
rows, as one float buffer. It checks each row by one rule, in this
order: 5 fields, four floats, a label, all finite, and a time above the
row before. Then it refuses a row whose label is not the timeline's
label at its time, 1e-9 s either side, and a block whose series id an
earlier block holds. A byte that is not ASCII is refused once the rows
before it are read, naming its line.
A block is a TriPhaseSeries with a series id and row labels. Taking it
as a series to diagnose refuses any row more than a quarter sample
spacing off the grid t0 + k / rate, so a missing sample is seen at any
rate, and so is a pool block, whose rows are picked from a series.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .simulate import FaultLabel, TriPhaseSeries, check_label_masks, label_mask, timeline_masks

DATASET_HEADER = "t,i_a,i_b,i_c,label"
FEATURE_COLUMNS = ("i_a", "i_b", "i_c")
# a row's written time may be this far, in seconds, from the instant it
# was labelled at, since times are rounded to 9 decimals
_LABEL_TIME_TOL = 1e-9


class DatasetFormatError(ValueError):
    """Malformed dataset file; message carries the 1-based line number."""


@dataclass(frozen=True)
class SeriesBlock(TriPhaseSeries):
    """One recorded series with its series id and row label masks
    (uint8). A pool block holds rows picked from a series, so its times
    need not lie on one grid."""

    series_id: int = field(kw_only=True)
    labels: np.ndarray = field(kw_only=True)

    def __post_init__(self) -> None:
        super().__post_init__()
        check_label_masks(self.labels)
        if len(self.labels) != len(self.t):
            raise ValueError("block labels and t must share one length")

    @property
    def n_rows(self) -> int:
        return len(self.t)


def block_from_series(series: TriPhaseSeries, series_id: int) -> SeriesBlock:
    """Wrap a simulated series, labeling rows from its own timeline."""
    return SeriesBlock(
        series.t, series.i_a, series.i_b, series.i_c, series.sample_rate, series.fault_timeline,
        series_id=series_id, labels=timeline_masks(series.fault_timeline, series.t),
    )


def block_to_series(block: SeriesBlock) -> TriPhaseSeries:
    """The block itself, as the series it is; refuses a block of fewer
    than 2 rows or with a gapped time grid, such as a pool block."""
    if block.n_rows < 2:
        raise DatasetFormatError(f"series {block.series_id} has fewer than 2 rows")
    expected = block.t[0] + np.arange(block.n_rows) / block.sample_rate
    if np.max(np.abs(block.t - expected)) * block.sample_rate > 0.25:
        raise DatasetFormatError(
            f"series {block.series_id} is not uniformly sampled at {block.sample_rate} Hz"
        )
    return block


def _timeline_text(timeline) -> str:
    if not timeline:
        return "none"
    return ";".join(f"{repr(float(t))}:{label}" for t, label in timeline)


def _parse_timeline(text: str, line_no: int):
    """Timeline entries; their times must be finite, >= 0 and in order."""
    if text == "none":
        return ()
    out = []
    for part in text.split(";"):
        try:
            t_text, label_text = part.split(":")
            out.append((float(t_text), FaultLabel.from_string(label_text)))
        except ValueError as exc:
            raise DatasetFormatError(f"line {line_no}: bad timeline entry {part!r}") from exc
        t_fault = out[-1][0]
        if not (math.isfinite(t_fault) and t_fault >= 0.0):
            raise DatasetFormatError(
                f"line {line_no}: timeline time must be finite and >= 0, got {part!r}"
            )
        if len(out) > 1 and t_fault < out[-2][0]:
            raise DatasetFormatError(f"line {line_no}: timeline times decrease at {part!r}")
    return tuple(out)


_ROW = "{:.9f},{:.6f},{:.6f},{:.6f},{:06b}".format


def write_dataset(path, blocks) -> None:
    """Write the blocks; a series id given twice is refused before path is opened."""
    lines, seen = [DATASET_HEADER], set()
    for block in blocks:
        if block.series_id in seen:
            raise ValueError(f"series id {block.series_id} is given twice")
        seen.add(block.series_id)
        lines.append(
            f"# series {block.series_id} rate={repr(float(block.sample_rate))}"
            f" timeline={_timeline_text(block.fault_timeline)}"
        )
        columns = (block.t, block.i_a, block.i_b, block.i_c, block.labels)
        lines.extend(map(_ROW, *(column.tolist() for column in columns)))
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
        if key not in ("rate", "timeline"):
            raise DatasetFormatError(f"line {line_no}: unknown series key {key!r}")
        if key in meta:
            raise DatasetFormatError(f"line {line_no}: series key {key!r} given twice")
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


# bytes that _ascii_line_chunks reads at a time
_CHUNK_CHARS = 1 << 18


def _ascii_line_chunks(path):
    """The ASCII file at path, which it opens and closes, read
    _CHUNK_CHARS bytes at a time, as (data, starts, ends): bytes, and
    where each line that they hold whole starts and ends; these are the
    lines that str.splitlines gives on the whole text. A byte that is not
    ASCII splits no line and raises DatasetFormatError naming its line, its
    column and its value, after the lines before it: an error that a reader
    finds in those lines comes first, wherever the reads fall."""
    done, tail = 0, b""
    with open(path, "rb") as fh:
        while data := tail + (fh.read(_CHUNK_CHARS) or tail and b"\n"):  # the last line may lack its end
            code = np.frombuffer(data, np.uint8)
            ends = np.flatnonzero(code <= 30)  # the bytes that may end a line
            now, before = code.take(ends), code.take(ends - 1, mode="clip")
            # the \n of a \r\n ends no line, nor does a \r that ends a read, as its \n may be next
            ends = ends[np.isin(now, (10, 11, 12, 13, 28, 29, 30)) & ((now != 10) | (before != 13))]
            ends = ends[:-1] if data[-1] == 13 else ends
            bounds = np.append(0, ends + 1 + ((code.take(ends) == 13) & (code.take(ends + 1, mode="clip") == 10)))
            if not data.isascii():
                bad = int(np.argmax(code >= 128))
                k = int(np.searchsorted(ends, bad))  # the bad byte's line
                yield data, bounds[:k], ends[:k]
                col = bad - bounds[k] + 1
                raise DatasetFormatError(f"line {done + k + 1}: byte 0x{data[bad]:02x} at column {col} is not ASCII")
            done, tail = done + ends.size, data[bounds[-1] :]
            yield data, bounds[:-1], ends


def _lines(path):
    """The lines of the ASCII file at path, as str.splitlines gives them."""
    chunks = _ascii_line_chunks(path)
    return chain.from_iterable(data[s[0] : e[-1] + 1].decode().splitlines() for data, s, e in chunks if s.size)


def _read_block(comment, lines):
    """The block whose comment is the numbered line comment = (line
    number, text) and whose rows are the numbered lines after it, up to
    the next comment; returns the block and that next numbered comment
    line, or None at the end of the file."""
    first, text = comment
    series_id, rate, timeline = _parse_series_comment(text, first)
    values, t_prev, after = array("d"), -math.inf, None
    for line_no, line in lines:
        if line.startswith("#"):
            after = (line_no, line)
            break
        fields = line.split(",")
        if len(fields) != 5:
            raise DatasetFormatError(f"line {line_no}: expected 5 fields, got {len(fields)}")
        try:
            row = [*map(float, fields[:4]), label_mask(fields[4])]
        except ValueError as exc:
            raise DatasetFormatError(f"line {line_no}: {exc}") from exc
        if not all(map(math.isfinite, row)):
            raise DatasetFormatError(f"line {line_no}: time and currents must be finite")
        if row[0] <= t_prev:
            raise DatasetFormatError(f"line {line_no}: row times must increase within a series")
        values.fromlist(row)
        t_prev = row[0]
    if not values:
        raise DatasetFormatError(f"line {first}: series {series_id} has no rows")
    t, i_a, i_b, i_c, masks = np.array(np.frombuffer(values).reshape(-1, 5), order="F").T
    masks = masks.astype(np.uint8)
    wrong = np.flatnonzero(
        (masks != timeline_masks(timeline, t - _LABEL_TIME_TOL))
        & (masks != timeline_masks(timeline, t + _LABEL_TIME_TOL))
    )
    if wrong.size:
        k = int(wrong[0])
        raise DatasetFormatError(
            f"line {first + 1 + k}: label {masks[k]:06b} at t = {float(t[k])!r} s"
            " disagrees with the series timeline"
        )
    block = SeriesBlock(
        t=t, i_a=i_a, i_b=i_b, i_c=i_c, sample_rate=rate, fault_timeline=timeline, series_id=series_id, labels=masks
    )
    return block, after


def read_dataset(path) -> list[SeriesBlock]:
    lines = enumerate(_lines(path), start=1)
    if next(lines, (1, None))[1] != DATASET_HEADER:
        raise DatasetFormatError(f"line 1: expected header {DATASET_HEADER!r}")
    comment = next(lines, None)
    if comment is None:
        raise DatasetFormatError("line 1: dataset holds no series")
    if not comment[1].startswith("#"):
        raise DatasetFormatError("line 2: data row before any series comment")
    blocks, line_of_id = [], {}
    while comment is not None:
        block, after = _read_block(comment, lines)
        seen = line_of_id.setdefault(block.series_id, comment[0])
        if seen != comment[0]:
            raise DatasetFormatError(f"line {comment[0]}: series id {block.series_id} repeats line {seen}")
        blocks.append(block)
        comment = after
    return blocks


def training_rows(blocks) -> tuple[np.ndarray, np.ndarray]:
    """All rows of all blocks as one (n, 3) matrix plus their label masks."""
    X = np.concatenate([np.column_stack([b.i_a, b.i_b, b.i_c]) for b in blocks])
    return X, np.concatenate([b.labels for b in blocks])
