"""Multi-time-scale online diagnosis over a trained forest.

Pipeline: resample the acquired series down to the classifier rate,
classify every sample, debounce the label stream, then fuse all
period-aligned windows at once. Windows and regions sit on phase a's
angle, measured from the first clean zero crossing of phase a, b or c;
a series with none, such as an all-zero one, is refused. Inside the
pipeline a label is its 6-bit FaultLabel.mask (S1 is bit 5, S6 bit 0),
so the windowed stream is one (windows x samples) uint8 array. Fusion
keeps the bits that each sample's 60-degree region can expose, from a
six-entry mask table, and ORs them along each window. The first run of
_CONFIRM_WINDOWS equal non-empty fused masks latches the fault set. Only
the report looks masks up in LABELS, and windows with equal masks share
one labels tuple there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forest import RandomForestModel, predict_batch
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
_CONFIRM_WINDOWS = 1

# the switches each region exposes, at its mid-angle; by region_indices
# index SI..SVI: {2,3,6} {2,3,5} {2,4,5} {1,4,5} {1,4,6} {1,3,6}
_EXPOSED = exposed_switches(phase_sines(np.radians(60.0 * np.arange(6) + 30.0)))


@dataclass(frozen=True)
class DiagnosisConfig:
    """Online pipeline settings.

    A window is one fundamental period, window_samples = target_rate /
    fundamental, a whole number of at least 6 (one per 60-degree region).
    The phase reference is measured from the series, never configured.
    """

    target_rate: float = 10000.0
    fundamental: float = 50.0
    debounce_min_run: int = 5

    def __post_init__(self) -> None:
        refuse_non_finite(self)
        if not self.fundamental > 0.0:
            raise ValueError("fundamental must be > 0")
        if not (self.target_rate / self.fundamental).is_integer():
            raise ValueError("target_rate must be a whole multiple of the fundamental frequency")
        if self.window_samples < 6:
            raise ValueError(f"a {self.window_samples}-sample window cannot cover the six regions")
        if self.debounce_min_run < 1:
            raise ValueError("debounce_min_run must be >= 1")

    @property
    def window_samples(self) -> int:
        return round(self.target_rate / self.fundamental)


@dataclass(frozen=True)
class WindowRecord:
    """Diagnosis trace of one period-aligned window."""

    index: int
    start_time: float
    labels: tuple[FaultLabel, ...]
    fused: FaultLabel


@dataclass(frozen=True)
class FaultReport:
    fault_set: frozenset[int]
    first_detect_time: float | None
    per_window_history: tuple[WindowRecord, ...]

    @property
    def protection_signal(self) -> bool:
        return bool(self.fault_set)


def resample(series: TriPhaseSeries, target_rate: float) -> TriPhaseSeries:
    """Linear-interpolation resample onto a uniform grid at target_rate.

    The output spans the same time range, starting at the input's first
    timestamp. Equal input and output rates return the samples as they
    are. Upsampling is refused, and so is a non-finite current, which
    interpolation would smear over its neighbours.
    """
    if series.n_samples < 2:
        raise ValueError("resample needs at least 2 samples")
    if target_rate > series.sample_rate:
        raise ValueError("resample does not upsample")
    phases = (series.i_a, series.i_b, series.i_c)
    bad = np.flatnonzero(~np.logical_and.reduce([np.isfinite(i) for i in phases]))
    if bad.size:
        k = int(bad[0])
        raise ValueError(
            f"acquired sample {k} at t = {float(series.t[k]):.9g} s is not finite: "
            f"{[float(i[k]) for i in phases]}"
        )
    t0 = float(series.t[0])
    span = float(series.t[-1]) - t0
    n_out = int(math.floor(span * target_rate)) + 1
    t_out = t0 + np.arange(n_out) / target_rate
    return TriPhaseSeries(
        t=t_out,
        i_a=np.interp(t_out, series.t, series.i_a),
        i_b=np.interp(t_out, series.t, series.i_b),
        i_c=np.interp(t_out, series.t, series.i_c),
        sample_rate=target_rate,
        fault_timeline=series.fault_timeline,
    )


def classify_stream(model: RandomForestModel, series: TriPhaseSeries) -> np.ndarray:
    """Per-sample forest label masks (uint8) for an already-resampled series."""
    if model.n_features != 3:
        raise ValueError("streaming classification expects a 3-feature model")
    return predict_batch(model, series.currents())


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


def _latch(fused: np.ndarray, min_run: int) -> int | None:
    """First window of the first run of at least min_run equal non-zero
    fused masks, or None; a healthy run (mask 0) never latches."""
    starts, lengths = _runs(fused)
    hits = starts[(lengths >= min_run) & (fused[starts] != 0)]
    return int(hits[0]) if hits.size else None


def estimate_phase_reference(series: TriPhaseSeries, fundamental: float) -> float | None:
    """Time at which phase a is at 0 degrees, or None if no phase shows it.

    The first clean upward zero crossing of i_a in the first two periods,
    else of i_b, else of i_c, shifted by its phase's offset. A crossing is
    clean when the current swings well below zero before it and well above
    zero after it, which rejects a phase whose positive or negative
    half-cycle is faulted away. Two open switches leave at least one leg
    whole in this four-wire model, so only a flat or idle series has none.
    """
    per = int(round(series.sample_rate / fundamental))
    scan = min(series.n_samples, 2 * per + 1)
    swing = max(1, per // 8)
    for current, off in zip((series.i_a, series.i_b, series.i_c), PHASE_OFFSETS_DEG):
        x = current[:scan]
        peak = float(np.max(np.abs(x))) if scan else 0.0
        if peak <= 0.0:
            continue
        for k in np.nonzero((x[:-1] < 0.0) & (x[1:] >= 0.0))[0]:
            j1, j2 = k - swing, k + swing
            if j1 < 0 or j2 >= scan:
                continue
            if x[j1] < -_CROSSING_QUALITY * peak and x[j2] > _CROSSING_QUALITY * peak:
                frac = -x[k] / (x[k + 1] - x[k])
                return float(series.t[k]) + frac / series.sample_rate + off / 360.0 / fundamental
    return None


def run_diagnosis(
    model: RandomForestModel, series: TriPhaseSeries, config: DiagnosisConfig
) -> FaultReport:
    """Full online pipeline over one acquired series.

    Args:
        model: forest over instantaneous (i_a, i_b, i_c) samples.
        series: acquired currents at or above config.target_rate; it
            must hold a phase reference (see estimate_phase_reference)
            and at least one whole window after it.
        config: pipeline settings.

    Returns:
        FaultReport with the confirmed fault set, detection time (start of
        the first window of the agreeing run) and the per-window
        debounced label history, in which windows with equal masks share
        one labels tuple.

    Working memory grows by about 57 bytes per classified sample: the
    resampled series, the stacked currents the forest reads and a byte of
    labels; predict_batch walks them in spans of bounded size.
    """
    rs = resample(series, config.target_rate)
    masks = debounce(classify_stream(model, rs), config.debounce_min_run)

    f0 = config.fundamental
    t_zero = estimate_phase_reference(rs, f0)
    if t_zero is None:
        raise ValueError(
            "no phase current crosses zero cleanly in the first two periods"
            f" ({2.0 / f0:g} s): a flat or idle series has no phase reference"
        )
    ws = config.window_samples
    # first sample at or after phase a's 0 degrees; a reference before the
    # first sample moves on by whole windows, each one period
    start = int(math.ceil((t_zero - float(rs.t[0])) * config.target_rate - 1e-9))
    if start < 0:
        start %= ws
    n_windows = (rs.n_samples - start) // ws
    if n_windows < 1:
        raise ValueError(
            f"series too short: {rs.n_samples} samples at {config.target_rate:g} Hz, one"
            f" window needs {start + ws} ({ws} after the phase reference at sample {start})"
        )
    span = slice(start, start + n_windows * ws)
    windows = masks[span].reshape(n_windows, ws)
    regions = region_indices(360.0 * f0 * (rs.t[span] - t_zero)).reshape(n_windows, ws)
    fused = fuse_window(windows, regions)
    # windows with equal masks share one labels tuple, keyed by their bytes
    shared: dict[bytes, tuple[FaultLabel, ...]] = {}
    records = []
    for w, (t_lo, row, f) in enumerate(zip(rs.t[span][::ws].tolist(), map(bytes, windows), fused.tolist())):
        labels = shared.get(row)
        if labels is None:
            labels = shared[row] = tuple(LABELS[m] for m in row)
        records.append(WindowRecord(w, t_lo, labels, LABELS[f]))
    history = tuple(records)
    hit = _latch(fused, _CONFIRM_WINDOWS)
    return FaultReport(
        fault_set=frozenset() if hit is None else history[hit].fused.switches,
        first_detect_time=None if hit is None else history[hit].start_time,
        per_window_history=history,
    )
