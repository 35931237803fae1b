"""Independent reference implementations used to cross-check features.

Everything here is written with plain Python loops and the math module,
deliberately avoiding numpy so that agreement with the library is
evidence of correctness rather than shared code paths.
"""

from __future__ import annotations

import math


def stats_oracle(window) -> dict[str, float]:
    """The twelve time-domain statistics by direct summation."""
    xs = [float(v) for v in window]
    n = len(xs)
    if n < 2:
        raise ValueError("need at least 2 samples")

    x_max = xs[0]
    x_min = xs[0]
    total = 0.0
    total_sq = 0.0
    total_abs = 0.0
    total_sqrt_abs = 0.0
    for v in xs:
        x_max = max(x_max, v)
        x_min = min(x_min, v)
        total += v
        total_sq += v * v
        total_abs += abs(v)
        total_sqrt_abs += math.sqrt(abs(v))

    mean = total / n
    rms = math.sqrt(total_sq / n)
    mean_abs = total_abs / n
    root_amp = (total_sqrt_abs / n) ** 2

    var = 0.0
    third = 0.0
    fourth = 0.0
    for v in xs:
        d = v - mean
        var += d * d
        third += d * d * d
        fourth += d * d * d * d
    var /= n
    third /= n
    fourth /= n

    return {
        "x_max": x_max,
        "x_min": x_min,
        "x_pp": x_max - x_min,
        "mean": mean,
        "variance": var,
        "std": math.sqrt(var),
        "kurtosis": fourth / rms**4,
        "skewness": third / rms**3,
        "waveform_index": rms / mean_abs,
        "crest_index": x_max / rms,
        "impulse_index": x_max / mean_abs,
        "margin_index": x_max / root_amp,
    }


def haar_pair_oracle(a: float, b: float) -> tuple[float, float]:
    """One average/detail pair of the orthonormal two-tap filter."""
    return (a + b) / math.sqrt(2.0), (a - b) / math.sqrt(2.0)


def dq_oracle(i_a: float, i_b: float, i_c: float) -> tuple[float, float]:
    """Two-axis projection by direct evaluation."""
    return (2.0 * i_a - i_b - i_c) / 3.0, (i_b - i_c) / math.sqrt(3.0)


def sector_area_oracle(radii, angles_deg, closed=False) -> float:
    """Sum of circular-sector areas, unsigned steps capped at 180."""
    pairs = list(zip(radii, angles_deg))
    total = 0.0
    steps = range(len(pairs) - 1) if not closed else range(len(pairs))
    for k in steps:
        r, th = pairs[k]
        th_next = pairs[(k + 1) % len(pairs)][1]
        d = abs(th_next - th) % 360.0
        rho = min(d, 360.0 - d)
        total += math.pi * r * r * rho / 360.0
    return total


# the switches whose open circuit shows in region SI..SVI (region index
# 0..5): each phase's upper switch where it is negative, lower where positive
REGION_SWITCHES = ({2, 3, 6}, {2, 3, 5}, {2, 4, 5}, {1, 4, 5}, {1, 4, 6}, {1, 3, 6})
