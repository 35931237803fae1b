"""Twelve time-domain statistics of a sampled window.

The six dimensionless indices follow the conventions of the rotating
machinery condition-monitoring literature, including two quirks kept on
purpose: kurtosis and skewness are normalized by powers of the window
RMS (not the standard deviation), and the crest / impulse / margin
indices use the signed maximum in the numerator rather than the peak
absolute value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

DEGENERATE_EPS = 1e-12

FEATURE_NAMES = (
    "x_max",
    "x_min",
    "x_pp",
    "mean",
    "variance",
    "std",
    "kurtosis",
    "skewness",
    "waveform_index",
    "crest_index",
    "impulse_index",
    "margin_index",
)


class DegenerateWindowError(ValueError):
    """Raised when the ratio-based indices are requested for a ~zero window."""


@dataclass(frozen=True)
class TimeDomainFeatures:
    """The twelve statistics of one window.

    The first six moments always exist. The six ratio-based indices are
    None when the window RMS or mean |x| is at most DEGENERATE_EPS (an
    all-zero window, say); as_vector() refuses such a partial result.
    """

    x_max: float
    x_min: float
    x_pp: float
    mean: float
    variance: float
    std: float
    kurtosis: float | None
    skewness: float | None
    waveform_index: float | None
    crest_index: float | None
    impulse_index: float | None
    margin_index: float | None

    def as_vector(self) -> np.ndarray:
        values = [getattr(self, f.name) for f in fields(self)]
        if any(v is None for v in values):
            raise DegenerateWindowError("window too close to zero for the ratio indices")
        return np.array(values, dtype=float)


def time_domain_features(window) -> TimeDomainFeatures:
    """Compute the twelve statistics of a window of at least 2 samples.

    Population definitions throughout: variance uses 1/N, kurtosis is
    mean(((x - mean)/rms)^4), skewness mean(((x - mean)/rms)^3). The
    waveform index is rms / mean|x|, crest x_max / rms, impulse
    x_max / mean|x|, margin x_max / mean(sqrt|x|)^2. The ratio indices are
    None when the RMS or mean|x| is at most DEGENERATE_EPS.
    """
    x = np.asarray(window, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("window must be one-dimensional with at least 2 samples")

    x_max = float(np.max(x))
    x_min = float(np.min(x))
    mean = float(np.mean(x))
    variance = float(np.mean(np.square(x - mean)))
    std = math.sqrt(variance)
    rms = math.sqrt(float(np.mean(np.square(x))))
    mean_abs = float(np.mean(np.abs(x)))
    root_amp = float(np.mean(np.sqrt(np.abs(x)))) ** 2

    if rms <= DEGENERATE_EPS or mean_abs <= DEGENERATE_EPS:
        kurt = skew = waveform = crest = impulse = margin = None
    else:
        centered = (x - mean) / rms
        kurt = float(np.mean(centered**4))
        skew = float(np.mean(centered**3))
        waveform = rms / mean_abs
        crest = x_max / rms
        impulse = x_max / mean_abs
        margin = x_max / root_amp

    return TimeDomainFeatures(
        x_max=x_max,
        x_min=x_min,
        x_pp=x_max - x_min,
        mean=mean,
        variance=variance,
        std=std,
        kurtosis=kurt,
        skewness=skew,
        waveform_index=waveform,
        crest_index=crest,
        impulse_index=impulse,
        margin_index=margin,
    )
