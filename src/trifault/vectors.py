"""Current-vector features on the d-q plane.

The two-axis transform used here is
    i_d = (2*i_a - i_b - i_c) / 3
    i_q = (i_b - i_c) / sqrt(3)
which maps balanced sinusoids of amplitude A onto a circle of radius A.
The trajectory feature, the swept surface, is normally taken on unit
vectors so it responds to shape, not load level. Faulted trajectories
pass through the origin, so it skips degenerate samples instead of
failing the whole window.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

DEGENERATE_EPS = 1e-9
_SQRT3 = math.sqrt(3.0)


class DegenerateVectorError(ValueError):
    """Raised when a vector (or a whole trajectory) has no usable magnitude."""


class CurrentVector(NamedTuple):
    i_d: float
    i_q: float


def dq_transform(i_a, i_b, i_c) -> CurrentVector:
    """Two-axis current vector; accepts scalars or equal-shaped arrays."""
    i_d = (2.0 * np.asarray(i_a) - np.asarray(i_b) - np.asarray(i_c)) / 3.0
    i_q = (np.asarray(i_b) - np.asarray(i_c)) / _SQRT3
    if np.ndim(i_d) == 0:
        return CurrentVector(float(i_d), float(i_q))
    return CurrentVector(i_d, i_q)


def unit_vector(v) -> CurrentVector:
    """v scaled to unit magnitude; a magnitude <= DEGENERATE_EPS raises."""
    i_d, i_q = v
    mag = np.hypot(i_d, i_q)
    if np.any(mag <= DEGENERATE_EPS):
        raise DegenerateVectorError(f"vector magnitude <= {DEGENERATE_EPS}")
    if np.ndim(mag) == 0:
        return CurrentVector(float(i_d) / float(mag), float(i_q) / float(mag))
    return CurrentVector(np.asarray(i_d) / mag, np.asarray(i_q) / mag)


def vector_angle(v) -> float:
    """Four-quadrant angle of v in degrees, in [0, 360); |v| <= DEGENERATE_EPS raises."""
    i_d, i_q = float(v[0]), float(v[1])
    if math.hypot(i_d, i_q) <= DEGENERATE_EPS:
        raise DegenerateVectorError(f"vector magnitude <= {DEGENERATE_EPS}")
    ang = math.degrees(math.atan2(i_q, i_d)) % 360.0
    return 0.0 if ang >= 360.0 else ang


def vector_surface_area(trajectory, closed: bool = False) -> float:
    """Area swept by the trajectory, summed sector by sector.

    Each consecutive sample pair contributes pi * r^2 * rho / 360 where
    r is the leading sample's radius and rho is the unsigned angular
    step between the two samples (never more than 180 degrees). With
    closed=True the step from the last sample back to the first is
    included as well; use that for a trajectory covering one full
    fundamental period. Samples within DEGENERATE_EPS of 0 are skipped.
    """
    pts = list(trajectory)
    if len(pts) < 2:
        raise ValueError("trajectory needs at least 2 samples")
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("trajectory must be a sequence of (i_d, i_q) pairs")
    radii = np.hypot(pts[:, 0], pts[:, 1])
    keep = radii > DEGENERATE_EPS
    radii, angles = radii[keep], np.degrees(np.arctan2(pts[keep, 1], pts[keep, 0])) % 360.0
    if radii.size < 2:
        return 0.0
    d = np.abs(np.diff(angles))
    if closed:
        d = np.append(d, abs(angles[-1] - angles[0]))
        radii_lead = radii
    else:
        radii_lead = radii[:-1]
    rho = np.minimum(d, 360.0 - d)
    return float(np.sum(np.pi * np.square(radii_lead) * rho / 360.0))
