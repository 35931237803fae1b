"""Two-axis current-vector geometry features."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import dq_oracle, sector_area_oracle
from trifault.vectors import (
    DegenerateVectorError,
    dq_transform,
    unit_vector,
    vector_angle,
    vector_surface_area,
)


def balanced_trajectory(amplitude, n, endpoint=False):
    th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=endpoint)
    i_a = amplitude * np.sin(th)
    i_b = amplitude * np.sin(th - 2.0 * np.pi / 3.0)
    i_c = amplitude * np.sin(th + 2.0 * np.pi / 3.0)
    d, q = dq_transform(i_a, i_b, i_c)
    return np.stack([d, q], axis=1)


class TestDqTransform:
    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            ia, ib, ic = rng.normal(scale=10.0, size=3)
            d, q = dq_transform(ia, ib, ic)
            od, oq = dq_oracle(ia, ib, ic)
            assert abs(d - od) <= 1e-12
            assert abs(q - oq) <= 1e-12

    def test_balanced_input_traces_circle(self):
        traj = balanced_trajectory(16.5, 360)
        radii_sq = np.sum(np.square(traj), axis=1)
        assert np.max(np.abs(radii_sq - 16.5**2)) <= 1e-9

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(9)
        ia, ib, ic = rng.normal(size=(3, 40))
        d, q = dq_transform(ia, ib, ic)
        for k in range(40):
            dk, qk = dq_transform(float(ia[k]), float(ib[k]), float(ic[k]))
            assert abs(d[k] - dk) <= 1e-12
            assert abs(q[k] - qk) <= 1e-12


class TestUnitVector:
    def test_examples(self):
        assert unit_vector((3.0, 4.0)) == pytest.approx((0.6, 0.8), abs=1e-12)
        assert unit_vector((1.0, 0.0)) == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_magnitude_is_one(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            v = rng.normal(scale=5.0, size=2)
            if np.hypot(*v) <= 1e-9:
                continue
            u = unit_vector(tuple(v))
            assert abs(np.hypot(*u) - 1.0) <= 1e-12

    def test_zero_vector_raises(self):
        with pytest.raises(DegenerateVectorError):
            unit_vector((0.0, 0.0))


class TestVectorAngle:
    def test_quadrant_examples(self):
        assert vector_angle((1.0, 1.0)) == pytest.approx(45.0, abs=1e-12)
        assert vector_angle((0.0, 1.0)) == pytest.approx(90.0, abs=1e-12)
        assert vector_angle((-1.0, 0.0)) == pytest.approx(180.0, abs=1e-12)

    def test_range_half_open(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            v = rng.normal(size=2)
            if np.hypot(*v) <= 1e-9:
                continue
            ang = vector_angle(tuple(v))
            assert 0.0 <= ang < 360.0

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateVectorError):
            vector_angle((0.0, 0.0))


class TestSurfaceArea:
    def test_full_unit_circle_closed(self):
        th = np.deg2rad(np.arange(360.0))
        circle = np.stack([np.cos(th), np.sin(th)], axis=1)
        assert vector_surface_area(circle, closed=True) == pytest.approx(np.pi, abs=1e-6)

    def test_half_circle_radius_two_open(self):
        th = np.deg2rad(np.arange(181.0))
        half = 2.0 * np.stack([np.cos(th), np.sin(th)], axis=1)
        assert vector_surface_area(half) == pytest.approx(2.0 * np.pi, abs=1e-6)

    def test_all_origin_is_zero(self):
        assert vector_surface_area(np.zeros((10, 2))) == 0.0

    def test_matches_sector_oracle_on_random_trajectories(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            radii = rng.uniform(0.5, 3.0, size=n)
            angles = rng.uniform(0.0, 360.0, size=n)
            traj = np.stack(
                [radii * np.cos(np.deg2rad(angles)), radii * np.sin(np.deg2rad(angles))],
                axis=1,
            )
            for closed in (False, True):
                want = sector_area_oracle(radii, angles, closed=closed)
                got = vector_surface_area(traj, closed=closed)
                assert abs(got - want) <= 1e-9 * max(1.0, want)

    def test_rejects_short_trajectory(self):
        with pytest.raises(ValueError):
            vector_surface_area(np.zeros((1, 2)))

    def test_healthy_period_equals_circle_area(self):
        traj = balanced_trajectory(4.0, 500)
        assert vector_surface_area(traj, closed=True) == pytest.approx(
            np.pi * 16.0, rel=1e-3
        )

