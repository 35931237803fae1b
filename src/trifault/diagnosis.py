"""Multi-time-scale online diagnosis over a trained forest.

Pipeline: resample the acquired series down to the classifier rate,
2.5 kHz by default, calibrate each phase, classify every sample,
debounce the label stream, dropping label runs shorter than 1.2 ms, then
fuse period-aligned windows. The calibration takes each phase as
(x - offset) * gain, with the offset and gain of a whole period of the
stream that passes a model-free check, so that a stream at another load
or with a sensor's gain or offset off reaches the forest at the model's
healthy_rms; a faulted period fails the check and calibrates nothing (see
Diagnoser). A sample is classified with the forest's stop for streams:
one whose leader holds enough of the votes at a look, after 16, 32, 64,
... trees, takes that label, and any other the full forest's. A
Diagnoser takes the stream chunk by chunk and works through the
classifier grid _BLOCK_ROWS rows at a time, so it holds no per-sample
array of the whole stream; run_diagnosis pushes one series as one chunk.
Between chunks it carries the calibration in force, the last whole
period's statistics and the rows of the current period, which wait until
the period is whole; and, since windows advance only at their
boundaries, the raw masks since the last window out, debounced after
that window's last mask. Windows, regions and calibration periods sit
on phase a's angle, measured from the first clean zero crossing of phase
a, b or c; a series with none, such as an all-zero one, is refused.
Inside the pipeline a label is its 6-bit FaultLabel.mask (S1 is bit 5,
S6 bit 0), so the whole windows of a block are one (windows x samples)
uint8 array. Fusion keeps the bits that each sample's 60-degree region
can expose, from a six-entry mask table, and ORs them along each window.
One loop then takes each window's masks and fused mask: it carries the
run of equal fused masks from window to window and from push to push,
and the first run of _CONFIRM_WINDOWS equal non-empty fused masks
latches the fault set. A window keeps its debounced masks as bytes, one
per sample, and a window with the masks of the one before shares its
bytes object. The windows given out are a WindowHistory, which holds
those masks and the fused masks and builds each WindowRecord when read;
only WindowRecord.labels looks the masks up in LABELS, when read.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .forest import _SPAN_ROWS, RandomForestModel, _stream_stop, predict_batch
from .simulate import (
    LABELS,
    PHASE_OFFSETS_DEG,
    FaultLabel,
    TriPhaseSeries,
    exposed_switches,
    phase_sines,
    refuse_non_finite,
    region_indices,
)

# fraction of the observed peak a zero crossing must swing through on
# both sides to count as a clean phase reference
_CROSSING_QUALITY = 0.3

# equal non-empty fused windows in a row that latch a fault set
_CONFIRM_WINDOWS = 2

# the shortest run of equal sample labels the debounce keeps, in seconds:
# DiagnosisConfig.debounce_run grid samples, 3 on the default 2.5 kHz grid
_DEBOUNCE_S = 0.0012

# the lowest stream frequency, as a share of the fundamental, whose period
# the reference scan holds
_LOWEST_FREQUENCY = 0.9

# the check that lets a period calibrate the stream: each phase's mean
# within _MEAN_SHIFT standard deviations of its offset, the
# calibrated RMS values within a factor of _RMS_SPREAD of each other and
# above _RMS_FLOOR of the trained RMS, the model's healthy_rms
_MEAN_SHIFT = 0.2
_RMS_SPREAD = 1.5
_RMS_FLOOR = 0.2

# offsets and gains of a stream taken as it is
_UNCALIBRATED = ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))

# classifier grid rows a Diagnoser resamples, classifies and windows at a
# time: whole forest spans, which share out evenly over 1, 2 or 4 cores
_BLOCK_ROWS = 4 * _SPAN_ROWS

# the switches each region exposes, at its mid-angle; by region_indices
# index SI..SVI: {2,3,6} {2,3,5} {2,4,5} {1,4,5} {1,4,6} {1,3,6}
_EXPOSED = exposed_switches(phase_sines(np.radians(60.0 * np.arange(6) + 30.0)))


@dataclass(frozen=True)
class DiagnosisConfig:
    """Online pipeline settings.

    A window is one fundamental period, window_samples = target_rate /
    fundamental, a whole number of at least 6 (one per 60-degree region).
    The default 2.5 kHz grid gives 50 samples a period; as 50 is not a
    multiple of 6, grid points land on at most two of the six 60-degree
    region boundaries, 180 degrees apart (a 3 kHz grid, 10 samples a
    region, lands on every one, and was measured far more often wrong at
    zero leakage). The phase reference is measured from the
    series, and the RMS the calibration scales each phase to is the
    model's healthy_rms: neither is configured. Nor are the debounce and
    the latch run: the debounce is the duration _DEBOUNCE_S, debounce_run
    samples on this grid, and the latch run the module constant
    _CONFIRM_WINDOWS.
    """

    target_rate: float = 2500.0
    fundamental: float = 50.0

    def __post_init__(self) -> None:
        refuse_non_finite(self)
        if not self.fundamental > 0.0:
            raise ValueError("fundamental must be > 0")
        if not (self.target_rate / self.fundamental).is_integer():
            raise ValueError("target_rate must be a whole multiple of the fundamental frequency")
        if self.window_samples < 6:
            raise ValueError(f"a {self.window_samples}-sample window cannot cover the six regions")

    @property
    def window_samples(self) -> int:
        return round(self.target_rate / self.fundamental)

    @property
    def debounce_run(self) -> int:
        """The shortest run of equal sample labels the debounce keeps: the
        grid samples in _DEBOUNCE_S, and at least 1."""
        return max(1, round(_DEBOUNCE_S * self.target_rate))


@dataclass(frozen=True, slots=True)
class WindowRecord:
    """Diagnosis trace of one period-aligned window: its index in the
    stream, its start time, its debounced label masks, one byte per
    sample, and its fused label. A WindowHistory builds one on each read."""

    index: int
    start_time: float
    masks: bytes
    fused: FaultLabel

    @property
    def labels(self) -> tuple[FaultLabel, ...]:
        """The debounced FaultLabel of each sample, built on each read."""
        return tuple(LABELS[m] for m in self.masks)


def _window_start(grid: tuple[float, int, int, float], index: int) -> float:
    """Start time of window index on a stream's grid: its first time, the
    grid row of window 0, the rows of a window and the grid's rate."""
    t0, start, ws, rate = grid
    return t0 + (start + index * ws) / rate


class WindowHistory(Sequence):
    """The WindowRecords of windows in a row of one stream, kept as
    columns: each window's masks, the bytes object it shares with the
    window before when their masks are equal, and its fused mask. The
    windows start one window_samples apart on the stream's grid, so a
    window's index and start time follow from the first window's index
    and the grid, and its record is built on each read. A window costs a
    reference and a byte, where a WindowRecord kept whole costs about 115
    bytes. A history compares, hashes and prints as the tuple of its
    records, and a history followed by the next adds up to one."""

    __slots__ = ("_grid", "_first", "_masks", "_fused")

    def __init__(self, grid: tuple[float, int, int, float], first: int, masks, fused) -> None:
        self._grid = grid  # as _window_start takes it
        self._first = first
        self._masks = tuple(masks)
        self._fused = bytes(fused)

    def _record(self, k: int) -> WindowRecord:
        index = self._first + k
        return WindowRecord(index, _window_start(self._grid, index), self._masks[k], LABELS[self._fused[k]])

    def __len__(self) -> int:
        return len(self._fused)

    def __iter__(self):
        return map(self._record, range(len(self)))

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self)[k]
        return self._record(range(len(self))[k])

    def __add__(self, other: WindowHistory) -> WindowHistory:
        if not (self and other):
            return self if self else other
        if (other._grid, other._first) != (self._grid, self._first + len(self)):
            raise ValueError("the second history does not follow the first")
        return WindowHistory(self._grid, self._first, self._masks + other._masks, self._fused + other._fused)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class FaultReport:
    """The verdict of a stream: the latched fault set, the start of the
    first window of the run that latched it and the end of its last
    window, when the latch decided (both None when nothing latched), and
    the window records, whose labels give each window's FaultLabels."""

    fault_set: frozenset[int]
    first_detect_time: float | None
    decision_time: float | None
    per_window_history: WindowHistory

    @property
    def protection_signal(self) -> bool:
        return bool(self.fault_set)


def _grid_count(t0: float, t_last: float, rate: float) -> int:
    """Number of grid points t0 + k / rate, k = 0, 1, ..., at or before t_last."""
    n = int(math.floor((t_last - t0) * rate)) + 1
    # the floor of the span in grid steps can round one step either way
    while t0 + n / rate <= t_last:
        n += 1
    while n > 0 and t0 + (n - 1) / rate > t_last:
        n -= 1
    return n


def _refuse_bad_times(t: np.ndarray, first: int) -> None:
    """Raise ValueError naming the first acquired sample, counted from
    first, whose time is not finite or not after the time before it. The
    times are checked _BLOCK_ROWS at a time, so no temporary spans a long
    series."""
    for lo in range(0, t.size, _BLOCK_ROWS):
        span = t[lo : lo + _BLOCK_ROWS + 1]  # and the first of the next slice
        bad = ~np.isfinite(span)
        bad[1:] |= ~(span[1:] > span[:-1])
        if bad.any():
            k = lo + int(np.argmax(bad))
            why = "not finite"
            if np.isfinite(t[k]):
                why = f"not after sample {first + k - 1} at t = {float(t[k - 1]):.9g} s"
            raise ValueError(f"acquired sample {first + k} has the time t = {float(t[k]):.9g} s, {why}")


def _refuse_non_finite_samples(series: TriPhaseSeries, first: int) -> None:
    """Raise ValueError naming the first sample with a non-finite current,
    counted from first, the index of the series' first acquired sample:
    interpolation would smear it over its neighbours."""
    phases = (series.i_a, series.i_b, series.i_c)
    # a sum is finite only if every term is, and it needs no per-sample array
    with np.errstate(over="ignore", invalid="ignore"):
        if all(np.isfinite(np.sum(i)) for i in phases):
            return
    bad = np.flatnonzero(~np.logical_and.reduce([np.isfinite(i) for i in phases]))
    if bad.size:
        k = int(bad[0])
        raise ValueError(
            f"acquired sample {first + k} at t = {float(series.t[k]):.9g} s is not finite: "
            f"{[float(i[k]) for i in phases]}"
        )


def _columns(series: TriPhaseSeries) -> tuple[np.ndarray, ...]:
    return series.t, series.i_a, series.i_b, series.i_c


def resample(series: TriPhaseSeries, target_rate: float) -> TriPhaseSeries:
    """Linear-interpolation resample onto a uniform grid at target_rate.

    The grid is t0 + k / target_rate, from the input's first timestamp t0
    up to and including its last one. Equal input and output rates return
    the samples as they are. Upsampling is refused, and so are a time
    that is not finite or not after the one before it and a non-finite
    current, which interpolation would smear over its neighbours.
    """
    if series.n_samples < 2:
        raise ValueError("resample needs at least 2 samples")
    if target_rate > series.sample_rate:
        raise ValueError("resample does not upsample")
    _refuse_bad_times(series.t, 0)
    _refuse_non_finite_samples(series, 0)
    t0 = float(series.t[0])
    t_grid = t0 + np.arange(_grid_count(t0, float(series.t[-1]), target_rate)) / target_rate
    currents = (np.interp(t_grid, series.t, i) for i in (series.i_a, series.i_b, series.i_c))
    return TriPhaseSeries(t_grid, *currents, target_rate, series.fault_timeline)


def _period_stats(rows, lo: int, n: int, period: int) -> list:
    """(means, standard deviations) of the three phase rows over each of n
    whole periods from row lo, as float tuples. Each period's sums run
    along its own contiguous row, so they do not depend on n."""
    whole = [x[lo : lo + n * period].reshape(n, period) for x in rows]
    means = [x.mean(axis=1) for x in whole]
    stds = [np.sqrt(np.square(x - m[:, None]).mean(axis=1)) for x, m in zip(whole, means)]
    return list(zip(zip(*(x.tolist() for x in means)), zip(*(x.tolist() for x in stds))))


def classify_stream(model: RandomForestModel, series: TriPhaseSeries) -> np.ndarray:
    """Per-sample forest label masks (uint8) for an already-resampled series.

    A sample takes its leader without walking the other trees when, at a
    look after 16, 32, 64, ... trees, the chance that the trees left
    overturn or tie that leader is at most 1e-4 (forest._stream_stop; with
    the desk forest's 264 trees, 15 of 16 votes, 26 of 32, 46 of 64 or 80
    of 128). Over the 5 looks a sample's label differs from the full
    forest's with a chance of at most 5e-4 if the trees are independent
    draws; any other sample gets the full forest's label. The label of a
    sample depends on its own currents only, so any cut of a stream into
    chunks labels it alike.
    """
    if model.n_features != 3:
        raise ValueError("streaming classification expects a 3-feature model")
    return predict_batch(model, series.currents(), _stop=_stream_stop)


def _runs(items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start index and length of each run of equal items of a 1-D array."""
    starts = np.flatnonzero(np.concatenate(([True], items[1:] != items[:-1])))
    return starts, np.diff(starts, append=items.size)


def debounce(labels, min_run: int):
    """Suppress runs shorter than min_run.

    A short run is replaced by the most recent accepted label; the first
    run is always accepted. Takes any 1-D sequence (label masks or
    FaultLabels) and returns its items, of the same length: a uint8 array
    for a uint8 array, a list for anything else. The filter is idempotent.
    """
    if min_run < 1:
        raise ValueError("min_run must be >= 1")
    items = np.asarray(labels)
    if items.ndim != 1:
        raise ValueError(f"debounce expects a 1-D label sequence, got shape {items.shape}")
    starts, lengths = _runs(items)
    # each run copies the start of the last run long enough to be accepted;
    # a short run maps to 0, the first run's start, so the first run is kept
    accepted = np.maximum.accumulate(np.where(lengths >= min_run, starts, 0))
    out = items[np.repeat(accepted, lengths)]
    return out if isinstance(labels, np.ndarray) and labels.dtype == np.uint8 else out.tolist()


def fuse_window(labels, regions) -> np.uint8 | np.ndarray:
    """OR of label masks, each gated by the switches its region index
    exposes (_EXPOSED), along the last axis: one window fuses to one mask,
    (windows x samples) to one each."""
    masks = np.asarray(labels, dtype=np.uint8)
    regions = np.asarray(regions, dtype=np.intp)
    if masks.shape != regions.shape:
        raise ValueError("labels and regions are misaligned")
    return np.bitwise_or.reduce(masks & _EXPOSED[regions], axis=-1)


def _clean_crossings(x: np.ndarray, swing: int, level: float) -> tuple[np.ndarray, np.ndarray]:
    """The clean upward zero crossings of x, each as the sample k before it
    and its fraction of the step to k + 1: x swings below -level swing
    samples before k and above level swing samples after it."""
    k = np.flatnonzero((x[:-1] < 0.0) & (x[1:] >= 0.0))
    k = k[(k >= swing) & (k + swing < x.size)]
    k = k[(x[k - swing] < -level) & (x[k + swing] > level)]
    return k, -x[k] / (x[k + 1] - x[k])


def _reference_crossings(series: TriPhaseSeries, fundamental: float):
    """The phase that gives the phase reference, as its index, and its clean
    upward crossings over the whole series, the first of them within the
    first two periods; or None."""
    per = int(round(series.sample_rate / fundamental))
    scan = min(series.n_samples, 2 * per + 1)
    swing = max(1, per // 8)
    for p, current in enumerate((series.i_a, series.i_b, series.i_c)):
        peak = float(np.max(np.abs(current[:scan]))) if scan else 0.0
        if peak <= 0.0:
            continue
        k, frac = _clean_crossings(current, swing, _CROSSING_QUALITY * peak)
        if k.size and k[0] + swing < scan:
            return p, k, frac
    return None


def estimate_phase_reference(series: TriPhaseSeries, fundamental: float) -> float | None:
    """Time at which phase a is at 0 degrees, or None if no phase shows it.

    The first clean upward zero crossing of i_a in the first two periods,
    else of i_b, else of i_c, shifted by its phase's offset. A crossing is
    clean when the current swings well below zero before it and well above
    zero after it, which rejects a phase whose positive or negative
    half-cycle is faulted away. Two open switches leave at least one leg
    whole in this four-wire model, so only a flat or idle series has none.
    """
    found = _reference_crossings(series, fundamental)
    if found is None:
        return None
    p, k, frac = found
    return float(series.t[k[0]]) + frac[0] / series.sample_rate + PHASE_OFFSETS_DEG[p] / 360.0 / fundamental


def _measured_period(series: TriPhaseSeries, fundamental: float) -> int | None:
    """Samples from the reference crossing to the next clean upward crossing
    of the same phase, rounded, or None if the series holds no second one."""
    found = _reference_crossings(series, fundamental)
    if found is None or found[1].size < 2:
        return None
    _, k, frac = found
    return round(float(k[1] + frac[1]) - float(k[0] + frac[0]))


class Diagnoser:
    """The online pipeline over a stream that arrives chunk by chunk.

    push(chunk) takes the next acquired samples, a TriPhaseSeries whose
    first time follows the last one pushed, and returns the WindowHistory
    of the windows that became final with them. finish() ends the stream and returns the
    FaultReport; its per_window_history holds only the windows that became
    final at the end, since push gave out the others. After finish(), the
    stream has ended: a push or a second finish() raises. Any cut of a series
    into chunks gives the windows and the report of pushing it whole, and
    the refusals of resample and run_diagnosis, raised by the push or the
    finish() that can first tell.

    Each phase reaches the forest calibrated, as (x - offset) * gain, so
    that a stream at another load, or with a sensor's gain or offset off,
    looks like the trained one. Offset and gain come from the mean and the
    RMS about it over a whole period of P grid samples, P measured in the
    reference scan (_measured_period); the gain takes that RMS to the
    model's healthy_rms, so a model without one is refused, as is one
    that does not read three features, the phase currents. Period k,
    counted from the phase reference, is classified with period k - 1's
    calibration when both periods pass _passes against the calibration in
    force, and with the calibration in force otherwise, so a faulted
    period never calibrates the rows around it. The rows before the
    reference take the first period's calibration if it passes, and none
    otherwise. A row is classified once its period is whole; at finish() a
    partial period keeps the calibration in force.

    Stream state advances only at period and window boundaries. Between
    chunks it carries the last acquired sample, which the next grid points
    interpolate from; the unclassified grid rows, which are the reference
    scan until it fixes the phase reference and the period, then the rows
    of the current period; the calibration in force and the last whole
    period's statistics; and the tail, the raw masks classified since the
    last window it gave out, or since the stream began until the first
    window is out. Once a window is out the tail holds fewer than
    window_samples + debounce_run masks: the rest of a window and the
    last label run, which debounce cannot decide while it is shorter than
    the config's debounce_run. Besides those it keeps the run towards the latch, as
    its mask, length and start time, and the last window's masks, whose
    last byte is the debounce lead: nothing it keeps grows with the stream.
    """

    def __init__(self, model: RandomForestModel, config: DiagnosisConfig):
        if model.healthy_rms is None:
            raise ValueError("the model has no healthy_rms to calibrate to: no healthy training row had current")
        if model.n_features != 3:
            raise ValueError("streaming classification expects a 3-feature model")
        self.model = model
        self.config = config
        self._acquired = 0  # samples pushed
        self._t0 = 0.0  # time of the first, where the grid starts
        self._last: tuple[np.ndarray, ...] = ()  # columns of the last one
        self._grid = 0  # grid points interpolated
        # phase currents of the grid rows from _grid - _rows[0].size on, not
        # yet classified
        self._rows: tuple[np.ndarray, ...] = (np.empty(0),) * 3
        self._t_zero: float | None = None  # phase a's 0 degrees
        self._start = 0  # grid index of the first window and the first period
        self._period = config.window_samples  # P, measured with the reference
        self._cal = _UNCALIBRATED  # the calibration in force
        self._stats: tuple | None = None  # the last whole period's
        # raw masks up to the first unclassified row, not yet windowed
        self._tail = np.empty(0, dtype=np.uint8)
        self._windows = 0  # windows given out
        self._masks = b""  # the last window's masks
        # the last run of equal fused masks: mask, windows, its start time;
        # frozen once it latches, at _decision, the end of its last window
        self._run: tuple[int, int, float] = (0, 0, 0.0)
        self._decision: float | None = None
        self._ended = False  # finish() was called

    def push(self, chunk: TriPhaseSeries) -> WindowHistory:
        """Diagnose the next acquired samples; returns the windows they finished."""
        return self._push(chunk, last=False)

    def _push(self, chunk: TriPhaseSeries, last: bool) -> WindowHistory:
        """push; if last, no chunk follows, and once the phase reference is
        fixed the last block is classified and windowed as finish() would,
        in one classify_stream call with its whole periods."""
        if self._ended:
            raise ValueError("the stream has ended: finish() was called")
        first = self._windows
        if chunk.n_samples == 0:
            return self._history(first, [], b"")
        rate = self.config.target_rate
        if rate > chunk.sample_rate:
            raise ValueError("resample does not upsample")
        _refuse_bad_times(chunk.t, self._acquired)
        _refuse_non_finite_samples(chunk, self._acquired)
        if not self._acquired:
            self._t0 = float(chunk.t[0])
        elif not chunk.t[0] > self._last[0][0]:
            raise ValueError(
                f"a chunk starting at t = {float(chunk.t[0]):.9g} s does not follow"
                f" the last sample pushed, at t = {float(self._last[0][0]):.9g} s"
            )
        # a grid point waits for a sample at or after it: np.interp would
        # hold the last sample's value past it
        n_grid = _grid_count(self._t0, float(chunk.t[-1]), rate)
        masks: list[bytes] = []
        fused = bytearray()
        while self._grid < n_grid:
            # with the carried rows a block classifies _BLOCK_ROWS rows at
            # most, whole forest spans, unless they alone fill one
            carried = self._rows[0].size
            size = _BLOCK_ROWS - carried if carried < _BLOCK_ROWS else _BLOCK_ROWS
            self._interpolate(chunk, min(self._grid + size, n_grid))
            if self._t_zero is None and self._grid >= self._scan_rows():
                self._find_reference()
            self._classify(masks, fused, final=last and self._grid == n_grid)
        self._acquired += chunk.n_samples
        self._last = tuple(x[-1:].copy() for x in _columns(chunk))
        return self._history(first, masks, fused)

    def _history(self, first: int, masks, fused) -> WindowHistory:
        """The windows from index first on, given out with masks and fused."""
        return WindowHistory(self._windows_grid(), first, masks, fused)

    def _windows_grid(self) -> tuple[float, int, int, float]:
        """The grid the windows start on, as _window_start takes it."""
        return self._t0, self._start, self.config.window_samples, self.config.target_rate

    def _interpolate(self, chunk: TriPhaseSeries, hi: int) -> None:
        """Carry the grid rows up to index hi, interpolated from the chunk
        and the last sample pushed before it."""
        t_grid = self._t0 + np.arange(self._grid, hi) / self.config.target_rate
        # the acquired samples around the rows, from the last one at or
        # before the first, which may be the last one pushed before
        j_lo = int(np.searchsorted(chunk.t, t_grid[0], side="right")) - 1
        j_hi = int(np.searchsorted(chunk.t, t_grid[-1], side="left")) + 1
        t, *around = [x[max(j_lo, 0) : j_hi] for x in _columns(chunk)]
        if j_lo < 0:
            t, *around = [np.concatenate(pair) for pair in zip(self._last, (t, *around))]
        self._rows = tuple(
            np.concatenate((carried, np.interp(t_grid, t, x))) for carried, x in zip(self._rows, around)
        )
        self._grid = hi

    def finish(self) -> FaultReport:
        """End the stream: the verdict, with the windows only the end made final."""
        if self._ended:
            raise ValueError("the stream has ended: finish() was called")
        self._ended = True
        if self._acquired < 2:
            raise ValueError("resample needs at least 2 samples")
        if self._t_zero is None:
            self._find_reference()
        first, masks, fused = self._windows, [], bytearray()
        self._classify(masks, fused, final=True)
        if not self._windows:
            ws, start = self.config.window_samples, self._start
            raise ValueError(
                f"series too short: {self._grid} samples at {self.config.target_rate:g} Hz, one"
                f" window needs {start + ws} ({ws} after the phase reference at sample {start})"
            )
        mask, _, start = self._run
        latched = self._decision is not None
        return FaultReport(
            fault_set=LABELS[mask].switches if latched else frozenset(),
            first_detect_time=start if latched else None,
            decision_time=self._decision,
            per_window_history=self._history(first, masks, fused),
        )

    def _scan_rows(self) -> int:
        """Grid rows of the reference scan: the two periods the reference is
        searched in, and one more period at the lowest frequency, which
        holds the next crossing of the reference phase."""
        ws = self.config.window_samples
        return 2 * ws + math.ceil(ws / _LOWEST_FREQUENCY) + 1

    def _find_reference(self) -> None:
        """Fix the phase reference, the first window and the period, from
        the grid scanned so far (every row is unclassified until then)."""
        rate, f0 = self.config.target_rate, self.config.fundamental
        n = min(self._grid, self._scan_rows())
        scanned = TriPhaseSeries(self._t0 + np.arange(n) / rate, *(x[:n] for x in self._rows), rate)
        t_zero = estimate_phase_reference(scanned, f0)
        if t_zero is None:
            raise ValueError(
                "no phase current crosses zero cleanly in the first two periods"
                f" ({2.0 / f0:g} s): a flat or idle series has no phase reference"
            )
        # first sample at or after phase a's 0 degrees; a reference before the
        # first sample moves on by whole windows, each one period
        start = int(math.ceil((t_zero - self._t0) * rate - 1e-9))
        if start < 0:
            start %= self.config.window_samples
        self._t_zero, self._start = t_zero, start
        self._period = _measured_period(scanned, f0) or self.config.window_samples

    def _passes(self, stats, cal) -> bool:
        """The model-free check of one period's (means, standard deviations)
        against a calibration (offsets, gains): each phase's mean lies
        within _MEAN_SHIFT standard deviations of its offset, and the
        calibrated RMS values lie within a factor of _RMS_SPREAD of each
        other and above _RMS_FLOOR of the trained RMS."""
        (means, stds), (offsets, gains) = stats, cal
        rms = [s * g for s, g in zip(stds, gains)]
        return (
            all(abs(m - o) <= _MEAN_SHIFT * s for m, o, s in zip(means, offsets, stds))
            and max(rms) <= _RMS_SPREAD * min(rms)
            and min(rms) > _RMS_FLOOR * self.model.healthy_rms
        )

    def _calibrations(self, stats) -> list:
        """The calibration of each next whole period, from its statistics and
        those of the period before; the last one stays in force."""
        target = self.model.healthy_rms
        cals = []
        for now in stats:
            before = self._stats or now  # the first period stands in for its own
            if self._passes(before, self._cal) and self._passes(now, self._cal):
                self._cal = (before[0], tuple(target / s for s in before[1]))
            self._stats = now
            cals.append(self._cal)
        return cals

    def _classify(self, masks_out: list[bytes], fused_out: bytearray, final: bool) -> None:
        """Calibrate and classify the carried rows whose period is whole, or
        every row if final, and window their masks into masks_out and
        fused_out."""
        if self._t_zero is None:
            return
        P, size = self._period, self._rows[0].size
        lo = self._grid - size  # grid index of the first carried row
        before = min(max(self._start - lo, 0), size)  # rows before the reference
        n = (size - before) // P  # whole periods
        if not (n or final):
            return
        cals = self._calibrations(_period_stats(self._rows, before, n, P))
        # the rows before the reference take the first period's calibration,
        # and the rows of a partial period at the end the one in force
        m = size if final else before + n * P
        counts = [before, *[P] * n, m - before - n * P]
        cals = [cals[0] if cals else self._cal, *cals, self._cal]
        offsets, gains = (np.array(c).T for c in zip(*cals))
        currents = [
            (x[:m] - np.repeat(o, counts)) * np.repeat(g, counts)
            for x, o, g in zip(self._rows, offsets, gains)
        ]
        self._rows = tuple(x[m:].copy() for x in self._rows)
        masks = np.empty(0, dtype=np.uint8)
        if m:
            t = self._t0 + np.arange(lo, lo + m) / self.config.target_rate
            masks = classify_stream(self.model, TriPhaseSeries(t, *currents, self.config.target_rate))
        self._window(masks, final, masks_out, fused_out)

    def _window(self, masks: np.ndarray, final: bool, masks_out: list[bytes], fused_out: bytearray) -> None:
        """Append the masks and the fused mask of each window that the next
        raw masks complete to masks_out and fused_out.

        The tail debounces behind a lead, the last mask given out, which is
        what a short run at the tail's start takes in the whole stream. As
        the first run the lead is accepted, so the tail debounces as it
        would in the whole stream. Before the first window there is no lead:
        the tail starts the stream. Unless final, the last run stays
        undecided while it is shorter than the config's debounce_run and
        not the first: the next masks may make it long enough. The decided whole
        windows go out, and the tail keeps what follows them.
        """
        self._tail = np.concatenate((self._tail, masks))
        ws, min_run = self.config.window_samples, self.config.debounce_run
        # until the first window is out, the tail starts the stream
        skip = 0 if self._windows else self._start
        lead = np.frombuffer(self._masks[-1:], dtype=np.uint8)
        seq = np.concatenate((lead, self._tail))
        end = seq.size
        if not final:
            last = int(_runs(seq)[0][-1])
            if last and end - last < min_run:
                end = last
        lo = lead.size + skip
        n = max(end - lo, 0) // ws
        if not n:
            return
        windows = debounce(seq[:end], min_run)[lo : lo + n * ws].reshape(n, ws)
        # the first window's grid index: the tail ends at the first carried row
        at = self._grid - self._rows[0].size - self._tail.size + skip
        self._tail = self._tail[skip + n * ws :].copy()
        rate, f0 = self.config.target_rate, self.config.fundamental
        t = self._t0 + np.arange(at, at + n * ws) / rate
        regions = region_indices(360.0 * f0 * (t - self._t_zero)).reshape(n, ws)
        fused = fuse_window(windows, regions)
        fused_out += fused.tobytes()
        grid = self._windows_grid()
        for row, f in zip(map(bytes, windows), fused.tolist()):
            # a window with the masks of the one before shares its bytes
            if row != self._masks:
                self._masks = row
            masks_out.append(self._masks)
            self._windows += 1
            if self._decision is None:
                mask, length, start = self._run
                # the run's start, and the decision at the end of this window
                if f == mask:
                    self._run = (f, length + 1, start)
                else:
                    self._run = (f, 1, _window_start(grid, self._windows - 1))
                if f and self._run[1] >= _CONFIRM_WINDOWS:
                    self._decision = _window_start(grid, self._windows)


def run_diagnosis(
    model: RandomForestModel, series: TriPhaseSeries, config: DiagnosisConfig
) -> FaultReport:
    """Full online pipeline over one acquired series: one Diagnoser, one
    push of the whole series and finish(). As no chunk follows, the push
    classifies the rows of the last partial period with the rest.

    Args:
        model: forest over instantaneous (i_a, i_b, i_c) samples, with the
            healthy_rms the calibration scales each phase to.
        series: acquired currents at or above config.target_rate; it
            must hold a phase reference (see estimate_phase_reference)
            and at least one whole window after it.
        config: pipeline settings.

    Returns:
        FaultReport with the confirmed fault set, detection time (start of
        the first window of the agreeing run) and the per-window
        history of debounced masks, in which equal windows in a row share
        one bytes object.

    The working memory does not grow with the series: the Diagnoser
    resamples, classifies and windows _BLOCK_ROWS grid rows at a time.
    What grows is the history, a reference and a byte per window.
    """
    diagnoser = Diagnoser(model, config)
    history = diagnoser._push(series, last=True)
    report = diagnoser.finish()
    return replace(report, per_window_history=history + report.per_window_history)
