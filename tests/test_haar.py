"""Two-tap orthonormal filter bank: decomposition and energy."""

from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import haar_pair_oracle
from trifault.haar import haar_decompose, haar_step

WORKED_INPUT = [48.0, 34.0, 24.0, 60.0, 72.0, 28.0, 55.0, 121.0]


class TestSingleStep:
    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = 2 ** int(rng.integers(1, 7))
            vals = rng.normal(size=n)
            level = haar_step(vals)
            for k in range(n // 2):
                oa, od = haar_pair_oracle(vals[2 * k], vals[2 * k + 1])
                assert abs(level.averages[k] - oa) <= 1e-12
                assert abs(level.details[k] - od) <= 1e-12

    def test_halves_length(self):
        level = haar_step([1.0, 2.0, 3.0, 4.0])
        assert len(level.averages) == len(level.details) == 2

    def test_rejects_odd_and_short_input(self):
        with pytest.raises(ValueError):
            haar_step([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            haar_step([1.0])


class TestDecompose:
    def test_worked_example_finest_level(self):
        levels = haar_decompose(WORKED_INPUT, 2)
        assert np.allclose(
            levels[0].details, [9.8995, -25.4558, 31.1127, -46.6690], atol=1e-4
        )
        assert np.allclose(
            levels[0].averages, [57.9828, 59.3970, 70.7107, 124.4508], atol=1e-4
        )

    def test_worked_example_coarse_level_exact(self):
        levels = haar_decompose(WORKED_INPUT, 2)
        assert np.max(np.abs(levels[1].averages - np.array([83.0, 138.0]))) <= 1e-9
        assert np.max(np.abs(levels[1].details - np.array([-1.0, -38.0]))) <= 1e-9

    def test_level_count_and_lengths(self):
        levels = haar_decompose(WORKED_INPUT, 3)
        assert [len(lv.averages) for lv in levels] == [4, 2, 1]
        assert [len(lv.details) for lv in levels] == [4, 2, 1]

    def test_rejects_too_many_levels(self):
        with pytest.raises(ValueError):
            haar_decompose(WORKED_INPUT, 4)
        with pytest.raises(ValueError):
            haar_decompose(WORKED_INPUT, 0)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            haar_decompose([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 1)


class TestEnergyAndReconstruction:
    def test_energy_conserved_per_level(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = 2 ** int(rng.integers(2, 9))
            vals = rng.normal(scale=4.0, size=n)
            current = vals
            for level in haar_decompose(vals, int(math.log2(n))):
                e_in = float(np.sum(np.square(current)))
                e_out = float(
                    np.sum(np.square(level.averages)) + np.sum(np.square(level.details))
                )
                assert abs(e_in - e_out) <= 1e-9 * max(1.0, e_in)
                current = level.averages
