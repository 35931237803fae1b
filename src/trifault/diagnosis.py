"""Multi-time-scale online diagnosis over a trained forest.

Pipeline: resample the acquired series down to the classifier rate,
classify every sample, debounce the label stream, then fuse each
period-aligned window. Fusion only accepts a reported switch when the
sample's 60-degree region can physically expose that switch, and ORs
the accepted bits over the window. A protection signal latches after
confirm_windows consecutive windows agree on the same non-empty fused
fault set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forest import RandomForestModel, predict_batch
from .simulate import (
    REGIONS,
    FaultLabel,
    TriPhaseSeries,
    detectable_faults,
    refuse_non_finite,
    region_indices,
)

# fraction of the observed peak a zero crossing must swing through on
# both sides to count as a clean phase reference
_CROSSING_QUALITY = 0.3


@dataclass(frozen=True)
class DiagnosisConfig:
    """Online pipeline settings.

    A window is one fundamental period, window_samples = target_rate /
    fundamental, a whole number of at least 6 (one per 60-degree region).
    phase_fallback_deg is the assumed electrical angle of phase a at
    the first sample, used when no clean zero crossing exists (for
    example when the series is faulted from t=0).
    """

    target_rate: float = 10000.0
    fundamental: float = 50.0
    debounce_min_run: int = 5
    confirm_windows: int = 1
    phase_fallback_deg: float = 0.0

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
        if self.confirm_windows < 1:
            raise ValueError("confirm_windows must be >= 1")

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
    protection_signal: bool

    def __post_init__(self) -> None:
        if bool(self.fault_set) != self.protection_signal:
            raise ValueError("fault_set must be non-empty exactly when protection fires")


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


def classify_stream(model: RandomForestModel, series: TriPhaseSeries) -> list[FaultLabel]:
    """Per-sample forest labels for an already-resampled series."""
    if model.n_features != 3:
        raise ValueError("streaming classification expects a 3-feature model")
    return predict_batch(model, series.currents())


def debounce(labels, min_run: int):
    """Suppress runs shorter than min_run.

    A short run is replaced by the most recent accepted label; the first
    run is always accepted. Output length equals input length and the
    filter is idempotent.
    """
    if min_run < 1:
        raise ValueError("min_run must be >= 1")
    labels = list(labels)
    if not labels:
        return []
    runs: list[tuple[object, int]] = []
    for lab in labels:
        if runs and runs[-1][0] == lab:
            runs[-1] = (lab, runs[-1][1] + 1)
        else:
            runs.append((lab, 1))
    out: list = []
    accepted = runs[0][0]
    for k, (lab, length) in enumerate(runs):
        if k == 0 or length >= min_run:
            accepted = lab
        out.extend([accepted] * length)
    return out


def fuse_window(labels, regions) -> FaultLabel:
    """OR of the reported switch bits that their sample's region can expose."""
    labels = list(labels)
    regions = list(regions)
    if len(labels) != len(regions):
        raise ValueError("labels and regions are misaligned")
    bits = [0] * 6
    for lab, region in zip(labels, regions):
        if lab.is_normal:
            continue
        allowed = detectable_faults(region)
        for s in lab.switches:
            if s in allowed:
                bits[s - 1] = 1
    return FaultLabel(tuple(bits))


def estimate_phase_reference(series: TriPhaseSeries, fundamental: float) -> float | None:
    """Time of the first clean upward i_a zero crossing, or None.

    Scans the first two fundamental periods. A crossing counts as clean
    when the current swings well below zero before it and well above
    zero after it, which rejects series whose positive or negative
    half-cycle is already faulted away.
    """
    per = int(round(series.sample_rate / fundamental))
    scan = min(series.n_samples, 2 * per + 1)
    ia = series.i_a[:scan]
    peak = float(np.max(np.abs(ia))) if scan else 0.0
    if peak <= 0.0:
        return None
    swing = per // 8
    for i in np.nonzero((ia[:-1] < 0.0) & (ia[1:] >= 0.0))[0]:
        j1, j2 = i - swing, i + swing
        if j1 < 0 or j2 >= scan:
            continue
        if ia[j1] < -_CROSSING_QUALITY * peak and ia[j2] > _CROSSING_QUALITY * peak:
            frac = -ia[i] / (ia[i + 1] - ia[i])
            return float(series.t[i]) + frac / series.sample_rate
    return None


def run_diagnosis(
    model: RandomForestModel, series: TriPhaseSeries, config: DiagnosisConfig
) -> FaultReport:
    """Full online pipeline over one acquired series.

    Args:
        model: forest over instantaneous (i_a, i_b, i_c) samples.
        series: acquired currents at or above config.target_rate; it
            must hold at least one whole window after the phase reference.
        config: pipeline settings.

    Returns:
        FaultReport with the latched fault set, detection time (start of
        the first window of the agreeing run), the per-window debounced
        label history, and the protection flag.
    """
    rs = resample(series, config.target_rate)
    labels = debounce(classify_stream(model, rs), config.debounce_min_run)

    f0 = config.fundamental
    t_zero = estimate_phase_reference(rs, f0)
    if t_zero is None:
        offset_deg = (360.0 - config.phase_fallback_deg % 360.0) % 360.0
        t_zero = float(rs.t[0]) + offset_deg / 360.0 / f0
    # first sample at or after the theta=0 reference
    start = max(0, int(math.ceil((t_zero - float(rs.t[0])) * config.target_rate - 1e-9)))

    ws = config.window_samples
    n_windows = (rs.n_samples - start) // ws
    if n_windows < 1:
        raise ValueError(
            f"series too short: {rs.n_samples} samples at {config.target_rate:g} Hz, one"
            f" window needs {start + ws} ({ws} after the phase reference at sample {start})"
        )
    regions = np.array(REGIONS, dtype=object)[region_indices(360.0 * f0 * (rs.t - t_zero))]

    history: list[WindowRecord] = []
    fault_set: frozenset[int] = frozenset()
    first_detect: float | None = None
    latched = False
    run_fused: FaultLabel | None = None
    run_len = 0
    run_start_time = 0.0

    for w in range(n_windows):
        lo = start + w * ws
        window_labels = tuple(labels[lo : lo + ws])
        fused = fuse_window(window_labels, regions[lo : lo + ws])
        history.append(
            WindowRecord(index=w, start_time=float(rs.t[lo]), labels=window_labels, fused=fused)
        )
        if latched:
            continue
        if fused.is_normal:
            run_fused = None
            run_len = 0
            continue
        if run_fused is not None and fused == run_fused:
            run_len += 1
        else:
            run_fused = fused
            run_len = 1
            run_start_time = float(rs.t[lo])
        if run_len >= config.confirm_windows:
            latched = True
            fault_set = run_fused.switches
            first_detect = run_start_time

    return FaultReport(
        fault_set=fault_set,
        first_detect_time=first_detect,
        per_window_history=tuple(history),
        protection_signal=latched,
    )
