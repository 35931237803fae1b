"""Haar filter bank: pairwise average/difference decomposition.

One step maps a length-2m signal onto m averages (a[2k] + a[2k+1]) / sqrt(2)
and m details (a[2k] - a[2k+1]) / sqrt(2). The orthonormal scaling keeps
the squared-sample energy of every level equal to the input energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class HaarLevel:
    """Averages and details produced by one filter-bank step."""

    averages: np.ndarray
    details: np.ndarray

    def __post_init__(self) -> None:
        if len(self.averages) != len(self.details):
            raise ValueError("averages and details must have equal length")


def _as_pow2_array(values) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    if a.ndim != 1:
        raise ValueError("input must be one-dimensional")
    n = a.size
    if n < 2 or n & (n - 1):
        raise ValueError(f"input length must be a power of two >= 2, got {n}")
    return a


def haar_step(values) -> HaarLevel:
    """One decomposition step on a power-of-two length signal."""
    a = _as_pow2_array(values)
    return HaarLevel(
        averages=(a[0::2] + a[1::2]) / _SQRT2,
        details=(a[0::2] - a[1::2]) / _SQRT2,
    )


def haar_decompose(values, levels: int) -> list[HaarLevel]:
    """Repeatedly filter the running averages; returns levels finest-first.

    The last list entry is the coarsest level. levels must be between 1
    and log2(len(values)).
    """
    a = _as_pow2_array(values)
    max_levels = int(math.log2(a.size))
    if not 1 <= levels <= max_levels:
        raise ValueError(f"levels must be in 1..{max_levels} for length {a.size}")
    out: list[HaarLevel] = []
    for _ in range(levels):
        step = haar_step(a)
        out.append(step)
        a = step.averages
    return out
