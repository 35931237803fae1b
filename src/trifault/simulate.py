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

import math
from dataclasses import dataclass, fields

import numpy as np

N_SWITCHES = 6
# electrical angle offsets of phases a, b, c in degrees
PHASE_OFFSETS_DEG = (0.0, -120.0, 120.0)

# drift knots are clipped so the load never collapses or reverses
_MIN_DRIFT_GAIN = 0.05


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


# the mask of each label's bit string
_MASK_OF_TEXT = {f"{mask:06b}": mask for mask in range(1 << N_SWITCHES)}


def label_mask(text: str) -> int:
    """The mask a label's bit string spells, surrounding whitespace
    ignored: the one label-text rule of labels and dataset rows."""
    mask = _MASK_OF_TEXT.get(text.strip())
    if mask is None:
        raise ValueError(f"fault label must be {N_SWITCHES} chars of 0/1, got {text.strip()!r}")
    return mask


@dataclass(frozen=True, order=True)
class FaultLabel:
    """Open-switch indicator held as a 6-bit mask: switch Sk is open when
    bit 6 - k is set, so the mask is the number its bit string spells
    ("101000", S1 and S3 open, is mask 40).

    Labels compare by mask, so the healthy label (mask 0) sorts first.
    That ordering is used to break ties in tree leaves and forest votes.
    """

    mask: int

    def __post_init__(self) -> None:
        if type(self.mask) is not int or not 0 <= self.mask < 1 << N_SWITCHES:
            raise ValueError(f"fault label mask must be an int in 0..63, got {self.mask!r}")

    @classmethod
    def from_string(cls, text: str) -> "FaultLabel":
        return cls(label_mask(text))

    @classmethod
    def from_switches(cls, switches) -> "FaultLabel":
        mask = 0
        for s in switches:
            _check_switch(s)
            if mask >> (N_SWITCHES - int(s)) & 1:
                raise ValueError(f"switch S{s} is named twice")
            mask |= 1 << (N_SWITCHES - int(s))
        return cls(mask)

    @property
    def switches(self) -> frozenset[int]:
        return frozenset(s for s in range(1, N_SWITCHES + 1) if self.mask >> (N_SWITCHES - s) & 1)

    @property
    def is_normal(self) -> bool:
        return self.mask == 0

    def __str__(self) -> str:
        return f"{self.mask:06b}"


# the label of each mask
LABELS = tuple(FaultLabel(mask) for mask in range(1 << N_SWITCHES))
NO_FAULT = LABELS[0]


def check_label_masks(labels) -> None:
    """Refuse row labels that are not a 1-D uint8 array of 6-bit masks.
    Nothing is converted: a tuple of FaultLabels is refused too."""
    if not isinstance(labels, np.ndarray) or labels.dtype != np.uint8 or labels.ndim != 1:
        got = f"{labels.ndim}-D {labels.dtype}" if isinstance(labels, np.ndarray) else type(labels).__name__
        raise ValueError(f"labels must be a 1-D uint8 array of label masks, got {got}")
    if labels.size and labels.max() >= 1 << N_SWITCHES:
        raise ValueError(f"label masks must be below {1 << N_SWITCHES}, got {labels.max()}")


def phase_sines(theta) -> np.ndarray:
    """sin(theta + offset) of phases a, b, c, stacked along a new first
    axis, for each electrical angle theta of phase a in radians."""
    return np.stack([np.sin(theta + math.radians(off)) for off in PHASE_OFFSETS_DEG])


def exposed_switches(sines) -> np.ndarray:
    """Mask of the switches whose open circuit shows at each angle, from
    its phase_sines: phase p's upper switch S(2p+1) where its sine is
    negative, its lower switch S(2p+2) where it is positive. The one
    half-cycle rule of simulate, the training pool and the region gate.
    """
    exposed = np.zeros(np.shape(sines)[1:], dtype=np.uint8)
    for p, s in enumerate(sines):
        upper, lower = np.uint8(32 >> 2 * p), np.uint8(16 >> 2 * p)
        exposed |= (s < 0) * upper | (s > 0) * lower
    return exposed


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

    def currents(self) -> np.ndarray:
        """Samples stacked as an (n, 3) array in phase order a, b, c."""
        return np.column_stack([self.i_a, self.i_b, self.i_c])


def region_indices(theta_deg) -> np.ndarray:
    """Index 0..5 (SI..SVI) of the 60-degree sextant holding each
    electrical angle of phase a (degrees, any range): sextant k spans
    60k to 60(k + 1) degrees."""
    theta = np.asarray(theta_deg, dtype=float)
    if not np.isfinite(theta).all():
        raise ValueError("theta must be finite")
    return (np.mod(theta, 360.0) // 60.0).astype(np.intp) % 6


def timeline_masks(fault_timeline, t) -> np.ndarray:
    """Mask of the label active at each time t: the last timeline entry
    with t_fault <= t, or 0 before the first entry."""
    times = np.array([entry[0] for entry in fault_timeline], dtype=float)
    masks = np.array([0, *(entry[1].mask for entry in fault_timeline)], dtype=np.uint8)
    return masks[np.searchsorted(times, t, side="right")]


def _validated_timeline(fault_timeline, duration: float):
    timeline = []
    prev = None
    for k, entry in enumerate(fault_timeline):
        t_fault, label = entry
        t_fault = float(t_fault)
        if not isinstance(label, FaultLabel):
            raise ValueError(f"fault_timeline entry {k}: label must be a FaultLabel, got {label!r}")
        if not 0.0 <= t_fault < duration:
            raise ValueError(f"fault time {t_fault} outside [0, {duration})")
        if prev is not None and t_fault < prev:
            raise ValueError("fault_timeline must be sorted by time")
        prev = t_fault
        timeline.append((t_fault, label))
    return tuple(timeline)


def simulate(config: SimConfig, fault_timeline, duration: float) -> TriPhaseSeries:
    """Simulate three phase currents over [0, duration) with faults applied.

    Args:
        config: waveform settings.
        fault_timeline: iterable of (t_fault, FaultLabel) sorted by time;
            each label takes effect at the first sample with t >= t_fault
            and stays active until the next entry. A label of any other
            type is refused, not converted.
        duration: span in seconds, finite and > 0.

    Returns:
        TriPhaseSeries sampled at config.sample_rate.

    An open switch suppresses where exposed_switches of the ideal
    fundamental exposes it, so half-cycle boundaries fall exactly on the
    60-degree region grid. A suppressed sample keeps leakage *
    (fundamental + ripple) plus noise; a leg with both switches open is
    forced to zero plus noise. Noise
    and drift are drawn from config.seed in a fixed order, so two runs
    with the same config and timeline are bit-identical and a timeline
    of all-zero labels equals the no-fault waveform sample for sample.
    """
    if not (math.isfinite(duration) and duration > 0):
        raise ValueError("duration must be finite and > 0")
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

    sines = phase_sines(2.0 * np.pi * config.frequency * t)
    masks = timeline_masks(timeline, t)
    suppressed = masks & exposed_switches(sines)
    channels = []
    for p, s in enumerate(sines):
        leg = 48 >> 2 * p  # the bits of phase p's two switches
        pre = gain * config.amplitude * s + ripple
        out = np.where(suppressed & leg, config.leakage * pre, pre)
        out = np.where((masks & leg) == leg, 0.0, out)
        channels.append(out + noise[p])

    return TriPhaseSeries(
        t=t,
        i_a=channels[0],
        i_b=channels[1],
        i_c=channels[2],
        sample_rate=config.sample_rate,
        fault_timeline=timeline,
    )
