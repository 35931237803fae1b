"""Behavioral simulator for three-phase four-wire converter phase currents.

Generates balanced sinusoidal currents (phase a leads, b lags by 120
degrees, c leads by 120 degrees) and applies open-switch fault
signatures. Each phase leg carries two switches: the odd-numbered upper
switch conducts the negative half-cycle, the even-numbered lower switch
the positive half-cycle. An open upper switch therefore suppresses its
phase's negative half-cycle, an open lower switch the positive one, and
a leg with both switches open leaves the phase carrying no current at
all. Measurement noise, a common switching ripple tone and a slow
per-period load drift are optional.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, fields

import numpy as np

N_SWITCHES = 6
# electrical angle offsets of phases a, b, c in degrees
PHASE_OFFSETS_DEG = (0.0, -120.0, 120.0)

_LABEL_WIDTH = N_SWITCHES
# drift knots are clipped so the load never collapses or reverses
_MIN_DRIFT_GAIN = 0.05


def switch_phase_index(switch: int) -> int:
    """Phase index (0=a, 1=b, 2=c) carrying the given switch (1..6)."""
    _check_switch(switch)
    return (switch - 1) // 2


def switch_is_upper(switch: int) -> bool:
    """True for the odd-numbered (upper) switch of a leg."""
    _check_switch(switch)
    return switch % 2 == 1


def switch_name(switch: int) -> str:
    _check_switch(switch)
    return f"S{switch}"


def _check_switch(switch: int) -> None:
    if not isinstance(switch, (int, np.integer)) or not 1 <= switch <= N_SWITCHES:
        raise ValueError(f"switch id must be an integer in 1..{N_SWITCHES}, got {switch!r}")


def refuse_non_finite(settings) -> None:
    """Raise ValueError naming the first float field of a settings
    dataclass that holds NaN or an infinity."""
    for f in fields(settings):
        value = getattr(settings, f.name)
        if f.type in ("float", float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True, order=True)
class FaultLabel:
    """Six-bit open-switch indicator; bit k set means switch S(k+1) is open.

    Labels compare lexicographically on their bit tuple, so the all-zero
    healthy label sorts first. That ordering is used to break ties in
    tree leaves and forest votes.
    """

    bits: tuple[int, int, int, int, int, int]

    def __post_init__(self) -> None:
        if len(self.bits) != _LABEL_WIDTH:
            raise ValueError(f"fault label needs {_LABEL_WIDTH} bits, got {len(self.bits)}")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"fault label bits must be 0 or 1, got {self.bits!r}")

    @classmethod
    def from_string(cls, text: str) -> "FaultLabel":
        text = text.strip()
        if len(text) != _LABEL_WIDTH or any(ch not in "01" for ch in text):
            raise ValueError(f"fault label must be {_LABEL_WIDTH} chars of 0/1, got {text!r}")
        return cls(tuple(int(ch) for ch in text))  # type: ignore[arg-type]

    @classmethod
    def from_switches(cls, switches) -> "FaultLabel":
        bits = [0] * _LABEL_WIDTH
        for s in switches:
            _check_switch(s)
            bits[s - 1] = 1
        return cls(tuple(bits))  # type: ignore[arg-type]

    @property
    def switches(self) -> frozenset[int]:
        return frozenset(k + 1 for k, b in enumerate(self.bits) if b)

    @property
    def is_normal(self) -> bool:
        return not any(self.bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


NO_FAULT = FaultLabel((0, 0, 0, 0, 0, 0))


@dataclass(frozen=True)
class SimConfig:
    """Waveform generator settings.

    amplitude        peak of the healthy phase current, > 0
    frequency        fundamental in Hz
    sample_rate      output rate in Hz, at least 20x the fundamental
    noise_sigma      std dev of additive Gaussian measurement noise
    ripple_amplitude peak of a single common switching-ripple tone
    ripple_frequency ripple tone frequency in Hz
    amplitude_drift  relative load-variation bound per period; the gain
                     is piecewise linear between per-period knots
    leakage          fraction of the pre-noise current that survives in
                     a suppressed half-cycle
    seed             RNG seed for noise and drift
    """

    amplitude: float
    frequency: float = 50.0
    sample_rate: float = 25600.0
    noise_sigma: float = 0.0
    ripple_amplitude: float = 0.0
    ripple_frequency: float = 3200.0
    amplitude_drift: float = 0.0
    leakage: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        refuse_non_finite(self)
        if self.amplitude <= 0:
            raise ValueError("amplitude must be > 0")
        if self.frequency <= 0:
            raise ValueError("frequency must be > 0")
        if self.sample_rate < 20.0 * self.frequency:
            raise ValueError("sample_rate must be at least 20x the fundamental frequency")
        for name in ("noise_sigma", "ripple_amplitude", "amplitude_drift"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.ripple_frequency <= 0:
            raise ValueError("ripple_frequency must be > 0")
        if not 0.0 <= self.leakage < 1.0:
            raise ValueError("leakage must be in [0, 1)")


@dataclass(frozen=True)
class TriPhaseSeries:
    """Sampled three-phase currents plus the fault timeline that made them."""

    t: np.ndarray
    i_a: np.ndarray
    i_b: np.ndarray
    i_c: np.ndarray
    sample_rate: float
    fault_timeline: tuple[tuple[float, FaultLabel], ...] = ()

    def __post_init__(self) -> None:
        n = len(self.t)
        for name in ("i_a", "i_b", "i_c"):
            if len(getattr(self, name)) != n:
                raise ValueError("all channels must have the same length as t")
        times = [entry[0] for entry in self.fault_timeline]
        if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("fault_timeline timestamps must be non-decreasing")

    @property
    def n_samples(self) -> int:
        return len(self.t)

    @property
    def duration(self) -> float:
        return self.n_samples / self.sample_rate

    def currents(self) -> np.ndarray:
        """Samples stacked as an (n, 3) array in phase order a, b, c."""
        return np.column_stack([self.i_a, self.i_b, self.i_c])


@dataclass(frozen=True)
class Region:
    """One 60-degree sextant of the fundamental period.

    sign_pattern holds the healthy polarity of (i_a, i_b, i_c) inside
    the sextant as +1 / -1.
    """

    index: int
    name: str
    sign_pattern: tuple[int, int, int]


def _build_regions() -> tuple[Region, ...]:
    names = ("SI", "SII", "SIII", "SIV", "SV", "SVI")
    regions = []
    for k, name in enumerate(names):
        mid = 60.0 * k + 30.0
        pattern = tuple(
            1 if math.sin(math.radians(mid + off)) > 0 else -1 for off in PHASE_OFFSETS_DEG
        )
        regions.append(Region(index=k + 1, name=name, sign_pattern=pattern))
    return tuple(regions)


REGIONS = _build_regions()


def region_of(theta_deg: float) -> Region:
    """Region containing the electrical angle theta (degrees, any range)."""
    if not math.isfinite(theta_deg):
        raise ValueError(f"theta must be finite, got {theta_deg!r}")
    th = theta_deg % 360.0
    return REGIONS[int(th // 60.0) % 6]


def region_indices(theta_deg) -> np.ndarray:
    """Index into REGIONS of each angle: the array form of region_of."""
    theta = np.asarray(theta_deg, dtype=float)
    if not np.isfinite(theta).all():
        raise ValueError("theta must be finite")
    return (np.mod(theta, 360.0) // 60.0).astype(np.intp) % 6


def detectable_faults(region: Region) -> frozenset[int]:
    """Switches whose open-circuit signature can show inside the region.

    A phase that is healthy-positive in the region can only reveal its
    lower switch (which should be conducting); a healthy-negative phase
    can only reveal its upper switch.
    """
    ids = set()
    for p, sign in enumerate(region.sign_pattern):
        ids.add(2 * p + 1 if sign < 0 else 2 * p + 2)
    return frozenset(ids)


def label_at_time(fault_timeline, t: float) -> FaultLabel:
    """Label active at time t: the last timeline entry with t_fault <= t,
    or NO_FAULT before the first entry."""
    times = [entry[0] for entry in fault_timeline]
    k = bisect.bisect_right(times, t)
    if k == 0:
        return NO_FAULT
    return fault_timeline[k - 1][1]


def true_label_at(series: TriPhaseSeries, t: float) -> FaultLabel:
    """Ground-truth fault label of a series at time t."""
    if series.n_samples == 0:
        raise ValueError("series is empty")
    lo, hi = float(series.t[0]), float(series.t[-1])
    if not lo - 1e-9 <= t <= hi + 1e-9:
        raise ValueError(f"t={t} outside series span [{lo}, {hi}]")
    return label_at_time(series.fault_timeline, t)


def _validated_timeline(fault_timeline, duration: float):
    timeline = []
    prev = None
    for entry in fault_timeline:
        t_fault, label = entry
        t_fault = float(t_fault)
        if not isinstance(label, FaultLabel):
            label = FaultLabel.from_string(str(label))
        if not 0.0 <= t_fault < duration:
            raise ValueError(f"fault time {t_fault} outside [0, {duration})")
        if prev is not None and t_fault < prev:
            raise ValueError("fault_timeline must be sorted by time")
        prev = t_fault
        timeline.append((t_fault, label))
    return tuple(timeline)


def _switch_state(timeline, t: np.ndarray, phase: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample open/closed state of the phase's upper and lower switch."""
    n = len(t)
    upper = np.zeros(n, dtype=bool)
    lower = np.zeros(n, dtype=bool)
    starts = [np.searchsorted(t, tf, side="left") for tf, _ in timeline]
    starts.append(n)
    for k, (_, label) in enumerate(timeline):
        seg = slice(starts[k], starts[k + 1])
        upper[seg] = label.bits[2 * phase]
        lower[seg] = label.bits[2 * phase + 1]
    return upper, lower


def simulate(config: SimConfig, fault_timeline, duration: float) -> TriPhaseSeries:
    """Simulate three phase currents over [0, duration) with faults applied.

    Args:
        config: waveform settings.
        fault_timeline: iterable of (t_fault, FaultLabel) sorted by time;
            each label takes effect at the first sample with t >= t_fault
            and stays active until the next entry.
        duration: span in seconds, > 0.

    Returns:
        TriPhaseSeries sampled at config.sample_rate.

    The suppression decision uses the sign of the ideal fundamental, so
    half-cycle boundaries fall exactly on the 60-degree region grid. A
    suppressed sample keeps leakage * (fundamental + ripple) plus noise;
    a leg with both switches open is forced to zero plus noise. Noise
    and drift are drawn from config.seed in a fixed order, so two runs
    with the same config and timeline are bit-identical and a timeline
    of all-zero labels equals the no-fault waveform sample for sample.
    """
    if duration <= 0:
        raise ValueError("duration must be > 0")
    timeline = _validated_timeline(fault_timeline, duration)
    n = int(round(duration * config.sample_rate))
    if n < 2:
        raise ValueError("duration too short for the sample rate")
    t = np.arange(n) / config.sample_rate

    rng = np.random.default_rng(config.seed)
    n_periods = max(1, math.ceil(duration * config.frequency))
    if config.amplitude_drift > 0:
        knot_t = np.arange(n_periods + 1) / config.frequency
        knots = 1.0 + rng.uniform(-config.amplitude_drift, config.amplitude_drift, n_periods + 1)
        gain = np.interp(t, knot_t, np.clip(knots, _MIN_DRIFT_GAIN, None))
    else:
        gain = np.ones(n)
    if config.noise_sigma > 0:
        noise = rng.normal(0.0, config.noise_sigma, (3, n))
    else:
        noise = np.zeros((3, n))
    if config.ripple_amplitude > 0:
        ripple = config.ripple_amplitude * np.sin(2.0 * np.pi * config.ripple_frequency * t)
    else:
        ripple = np.zeros(n)

    theta = 2.0 * np.pi * config.frequency * t
    channels = []
    for p, off in enumerate(PHASE_OFFSETS_DEG):
        s = np.sin(theta + math.radians(off))
        pre = gain * config.amplitude * s + ripple
        upper, lower = _switch_state(timeline, t, p)
        suppressed = (upper & (s < 0)) | (lower & (s > 0))
        out = np.where(suppressed, config.leakage * pre, pre)
        out = np.where(upper & lower, 0.0, out)
        channels.append(out + noise[p])

    return TriPhaseSeries(
        t=t,
        i_a=channels[0],
        i_b=channels[1],
        i_c=channels[2],
        sample_rate=config.sample_rate,
        fault_timeline=timeline,
    )
