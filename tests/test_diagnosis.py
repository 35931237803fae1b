"""Online stage: resampling, debounce, region-gated fusion, latching."""

from __future__ import annotations

import numpy as np
import pytest

from trifault.config import ExperimentConfig
from trifault.diagnosis import (
    DiagnosisConfig,
    debounce,
    estimate_phase_reference,
    fuse_window,
    resample,
    run_diagnosis,
)
from trifault.forest import ForestParams, TrainingSet, train_forest
from trifault.simulate import (
    NO_FAULT,
    FaultLabel,
    SimConfig,
    TriPhaseSeries,
    region_of,
    simulate,
)

L1 = FaultLabel.from_switches([1])
L3 = FaultLabel.from_switches([3])
L13 = FaultLabel.from_switches([1, 3])


class TestConfig:
    def test_fundamental_frequency(self):
        cfg = DiagnosisConfig()
        assert cfg.fundamental == pytest.approx(50.0)
        assert cfg.window_samples == 200

    def test_rejects_upsampling_config(self):
        # the default acquisition rate is 25.6 kHz
        with pytest.raises(ValueError, match="must not exceed sample_rate"):
            ExperimentConfig(target_rate=30000.0)

    def test_rejects_tiny_window(self):
        with pytest.raises(ValueError, match="5-sample window"):
            DiagnosisConfig(target_rate=10000.0, fundamental=2000.0)


class TestRunDiagnosis:
    @staticmethod
    def tiny_model():
        X = np.array([[0.0, 1.0, -1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0], [1.0, -1.0, 0.0]])
        train = TrainingSet(X, (NO_FAULT, L1, NO_FAULT, L1), ("i_a", "i_b", "i_c"))
        return train_forest(train, ForestParams(n_trees=2, seed=1))

    def test_refuses_stream_shorter_than_one_window(self):
        short = simulate(SimConfig(amplitude=16.5), ((0.0, L1),), 0.015)
        with pytest.raises(ValueError, match="one window needs"):
            run_diagnosis(self.tiny_model(), short, DiagnosisConfig())

    @pytest.mark.parametrize(
        "fallback_deg, n_windows, first_start", [(0.0, 5, 0.0), (90.0, 4, 0.015)]
    )
    def test_phase_fallback_places_windows_without_a_crossing(
        self, fallback_deg, n_windows, first_start
    ):
        # both switches of phase a open from t = 0 leave it flat: no zero
        # crossing, so phase a is taken to be at fallback_deg at t = 0
        s12 = FaultLabel.from_switches([1, 2])
        series = simulate(SimConfig(amplitude=16.5, leakage=0.0), ((0.0, s12),), 0.1)
        rs = resample(series, 10000.0)
        assert estimate_phase_reference(rs, 50.0) is None
        config = DiagnosisConfig(phase_fallback_deg=fallback_deg)
        history = run_diagnosis(self.tiny_model(), series, config).per_window_history
        assert len(history) == n_windows
        assert history[0].start_time == pytest.approx(first_start, abs=1e-12)

    def test_refuses_non_finite_current(self):
        series = simulate(SimConfig(amplitude=16.5), (), 0.1)
        series.i_b[1000] = np.nan
        # the acquired sample is named, not the row of the resampled stream
        with pytest.raises(ValueError, match=r"sample 1000 at t = 0\.0390625 s"):
            run_diagnosis(self.tiny_model(), series, DiagnosisConfig())


class TestResample:
    def test_twenty_ms_downsample_yields_exactly_200(self):
        s = simulate(SimConfig(amplitude=1.0, sample_rate=25600.0), (), 0.02)
        assert s.n_samples == 512
        rs = resample(s, 10000.0)
        assert rs.n_samples == 200
        assert rs.sample_rate == 10000.0

    def test_equal_rate_is_identity(self):
        s = simulate(SimConfig(amplitude=2.0, noise_sigma=0.03, seed=1), (), 0.03)
        rs = resample(s, s.sample_rate)
        assert np.array_equal(rs.i_a, s.i_a)
        assert np.array_equal(rs.t, s.t)

    def test_refuses_upsampling(self):
        s = simulate(SimConfig(amplitude=1.0, sample_rate=10000.0), (), 0.02)
        with pytest.raises(ValueError):
            resample(s, 25600.0)

    def test_linear_interpolation_on_ramp(self):
        s = simulate(SimConfig(amplitude=1.0, sample_rate=20000.0), (), 0.01)
        rs = resample(s, 5000.0)
        # a sine sampled this densely is locally linear; spot-check grid values
        assert np.allclose(rs.t, np.arange(rs.n_samples) / 5000.0, atol=1e-12)
        assert np.allclose(rs.i_a, np.interp(rs.t, s.t, s.i_a), atol=1e-15)

    def test_keeps_fault_timeline(self):
        s = simulate(SimConfig(amplitude=1.0), ((0.01, L1),), 0.04)
        rs = resample(s, 10000.0)
        assert rs.fault_timeline == s.fault_timeline

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_non_finite_current(self, bad):
        s = simulate(SimConfig(amplitude=1.0), (), 0.02)
        s.i_c[7] = bad
        with pytest.raises(ValueError, match="acquired sample 7 at t = 0.0002734375 s"):
            resample(s, 10000.0)

    def test_rejects_too_short_series(self):
        one = np.zeros(1)
        s = TriPhaseSeries(t=one, i_a=one, i_b=one, i_c=one, sample_rate=25600.0)
        with pytest.raises(ValueError, match="at least 2 samples"):
            resample(s, 10000.0)


class TestDebounce:
    def test_short_runs_replaced_by_previous_accepted(self):
        labs = [NO_FAULT] * 6 + [L1] * 2 + [NO_FAULT] * 6
        out = debounce(labs, 5)
        assert out == [NO_FAULT] * 14

    def test_long_runs_accepted(self):
        labs = [NO_FAULT] * 6 + [L1] * 5 + [NO_FAULT] * 6
        out = debounce(labs, 5)
        assert out == [NO_FAULT] * 6 + [L1] * 5 + [NO_FAULT] * 6

    def test_first_run_always_accepted(self):
        labs = [L1] * 2 + [NO_FAULT] * 8
        assert debounce(labs, 5)[:2] == [L1] * 2

    def test_preserves_length(self):
        rng = np.random.default_rng(31)
        alphabet = [NO_FAULT, L1, L3, L13]
        for _ in range(200):
            labs = [alphabet[k] for k in rng.integers(0, 4, size=int(rng.integers(1, 60)))]
            assert len(debounce(labs, int(rng.integers(1, 7)))) == len(labs)

    def test_idempotent(self):
        rng = np.random.default_rng(32)
        alphabet = [NO_FAULT, L1, L3, L13]
        for _ in range(500):
            labs = [alphabet[k] for k in rng.integers(0, 4, size=int(rng.integers(1, 60)))]
            min_run = int(rng.integers(1, 7))
            once = debounce(labs, min_run)
            assert debounce(once, min_run) == once

    def test_min_run_one_is_identity(self):
        labs = [L1, NO_FAULT, L3, L3, NO_FAULT]
        assert debounce(labs, 1) == labs

    def test_empty_input(self):
        assert debounce([], 5) == []


class TestFuseWindow:
    def test_gates_by_region_membership(self):
        # S1 is undetectable where phase a is positive, detectable where negative
        region_pos = region_of(30.0)  # phase a positive here
        region_neg = region_of(210.0)  # phase a negative here
        fused = fuse_window([L1, L1], [region_pos, region_neg])
        assert fused == L1
        fused_blocked = fuse_window([L1], [region_pos])
        assert fused_blocked == NO_FAULT

    def test_multi_switch_label_contributes_per_switch(self):
        region = region_of(330.0)  # S1 and S3 both detectable here
        assert fuse_window([L13], [region]) == L13
        region_s3_only = region_of(30.0)
        assert fuse_window([L13], [region_s3_only]) == L3

    def test_normal_labels_skipped(self):
        region = region_of(210.0)
        assert fuse_window([NO_FAULT, NO_FAULT], [region, region]) == NO_FAULT

    def test_accumulates_across_samples(self):
        regions = [region_of(30.0), region_of(210.0)]
        assert fuse_window([L3, L1], regions) == L13

    def test_rejects_misaligned_inputs(self):
        with pytest.raises(ValueError):
            fuse_window([L1], [])


class TestPhaseReference:
    def test_clean_sine_crossing_at_period_boundary(self):
        s = simulate(SimConfig(amplitude=16.5), (), 0.1)
        t_zero = estimate_phase_reference(s, 50.0)
        assert t_zero is not None
        # the first interior upward crossing with clean swings sits at one period
        assert t_zero == pytest.approx(0.02, abs=2e-4)

    def test_noise_tolerant(self):
        s = simulate(SimConfig(amplitude=16.5, noise_sigma=0.05, seed=3), (), 0.1)
        t_zero = estimate_phase_reference(s, 50.0)
        assert t_zero is not None
        assert t_zero == pytest.approx(0.02, abs=5e-4)

    def test_flat_signal_returns_none(self):
        s = simulate(SimConfig(amplitude=1.0, leakage=0.0), ((0.0, FaultLabel.from_switches([1, 2])),), 0.1)
        assert estimate_phase_reference(s, 50.0) is None
