"""Waveform simulator: labels, regions, suppression behavior."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from oracles import REGION_SWITCHES
from trifault.diagnosis import fuse_window
from trifault.simulate import (
    LABELS,
    N_SWITCHES,
    NO_FAULT,
    PHASE_OFFSETS_DEG,
    FaultLabel,
    SimConfig,
    exposed_switches,
    phase_sines,
    region_indices,
    simulate,
    switch_name,
    timeline_masks,
)


def region_of(theta_deg):
    """Index of the region holding one angle in degrees, one sextant per
    60 degrees: the scalar reference for region_indices."""
    return int((theta_deg % 360.0) // 60.0) % 6


def one_switch_faults(cfg, duration):
    """Currents of a healthy series and of each single-switch fault from t = 0."""
    healthy = simulate(cfg, (), duration).currents()
    faulted = [
        simulate(cfg, ((0.0, FaultLabel.from_switches([s])),), duration).currents()
        for s in range(1, N_SWITCHES + 1)
    ]
    return healthy, faulted


def reference_simulate(config, fault_timeline, duration):
    """simulate with the per-leg suppression rule that exposed_switches
    replaced, kept as its reference: the (3, n) phase currents."""
    n = int(round(duration * config.sample_rate))
    t = np.arange(n) / config.sample_rate
    rng = np.random.default_rng(config.seed)
    n_periods = max(1, math.ceil(duration * config.frequency))
    knot_t = np.arange(n_periods + 1) / config.frequency
    knots = 1.0 + rng.uniform(-config.amplitude_drift, config.amplitude_drift, n_periods + 1)
    gain = np.interp(t, knot_t, np.clip(knots, 0.05, None))
    noise = rng.normal(0.0, config.noise_sigma, (3, n))
    ripple = config.ripple_amplitude * np.sin(2.0 * np.pi * config.ripple_frequency * t)
    theta = 2.0 * np.pi * config.frequency * t
    masks = timeline_masks(fault_timeline, t)
    channels = []
    for p, off in enumerate(PHASE_OFFSETS_DEG):
        s = np.sin(theta + math.radians(off))
        pre = gain * config.amplitude * s + ripple
        upper, lower = masks & (32 >> 2 * p) != 0, masks & (16 >> 2 * p) != 0
        suppressed = (upper & (s < 0)) | (lower & (s > 0))
        out = np.where(suppressed, config.leakage * pre, pre)
        out = np.where(upper & lower, 0.0, out)
        channels.append(out + noise[p])
    return np.stack(channels)


class TestFaultLabel:
    def test_round_trip_string(self):
        lab = FaultLabel.from_string("101000")
        assert str(lab) == "101000"
        assert lab.switches == frozenset({1, 3})

    def test_from_switches(self):
        assert str(FaultLabel.from_switches([3, 1])) == "101000"
        assert str(FaultLabel.from_switches([])) == "000000"

    def test_normal_is_all_zero(self):
        assert NO_FAULT.is_normal
        assert NO_FAULT.switches == frozenset()
        assert not FaultLabel.from_switches([2]).is_normal

    def test_sorts_normal_first(self):
        labs = [FaultLabel.from_switches([6]), NO_FAULT, FaultLabel.from_switches([1])]
        assert sorted(labs)[0] is labs[1]

    def test_rejects_bad_strings(self):
        with pytest.raises(ValueError):
            FaultLabel.from_string("10100")
        with pytest.raises(ValueError):
            FaultLabel.from_string("10100x")

    def test_rejects_bad_switch_numbers(self):
        with pytest.raises(ValueError):
            FaultLabel.from_switches([0])
        with pytest.raises(ValueError):
            FaultLabel.from_switches([7])
        with pytest.raises(ValueError, match="^switch S6 is named twice$"):
            FaultLabel.from_switches(np.array([6, 2, 6]))

    def test_mask_is_the_number_its_bit_string_spells(self):
        assert [str(lab) for lab in LABELS] == [f"{m:06b}" for m in range(64)]
        assert [lab.mask for lab in LABELS] == list(range(64))
        assert FaultLabel.from_switches([1, 3]).mask == 0b101000
        assert FaultLabel.from_switches(np.array([6])).mask == 1
        assert sorted(LABELS, key=lambda lab: [int(ch) for ch in str(lab)]) == list(LABELS)

    @pytest.mark.parametrize("bad", [True, np.uint8(3), np.int64(3), (0, 0, 0, 0, 0, 1), -1, 64])
    def test_refuses_a_mask_that_is_not_an_int_in_range(self, bad):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            FaultLabel(bad)


class TestSwitchNaming:
    def test_phase_assignment(self):
        # an open switch changes only the current of its own leg's phase
        healthy, faulted = one_switch_faults(SimConfig(amplitude=10.0), 0.02)
        changed = [np.flatnonzero((f != healthy).any(axis=0)).tolist() for f in faulted]
        assert changed == [[0], [0], [1], [1], [2], [2]]

    def test_upper_lower_alternation(self):
        # the odd (upper) switch of a leg carries its negative half-cycle
        healthy, faulted = one_switch_faults(SimConfig(amplitude=10.0), 0.02)
        upper = []
        for s, f in enumerate(faulted, start=1):
            phase = (s - 1) // 2
            lost = f[:, phase] != healthy[:, phase]
            upper.append(bool(lost.any() and np.all(healthy[lost, phase] < 0)))
        assert upper == [True, False] * 3

    def test_names(self):
        assert [switch_name(s) for s in range(1, 7)] == ["S1", "S2", "S3", "S4", "S5", "S6"]


class TestRegions:
    def test_sextant_boundaries(self):
        assert region_indices([30, 90, 150, 210, 270, 330]).tolist() == [0, 1, 2, 3, 4, 5]

    def test_wraps_angles(self):
        assert region_indices([390.0, 30.0, -30.0]).tolist() == [0, 0, 5]

    def test_array_form_matches_region_of(self):
        edges = [60.0 * k for k in range(6)]
        thetas = [*edges, 360.0, -30.0, 390.0]
        thetas += [np.nextafter(e, -np.inf) for e in edges + [360.0]]
        thetas += [np.nextafter(e, np.inf) for e in edges]
        thetas += list(np.random.default_rng(5).uniform(-720.0, 720.0, size=2000))
        expected = [region_of(float(th)) for th in thetas]
        assert region_indices(thetas).tolist() == expected

    def test_array_form_refuses_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            region_indices([0.0, np.nan])

    def test_detectable_sets(self):
        # every switch open in every sample: the region gate keeps the
        # switches that region SI..SVI exposes
        detectable = [LABELS[int(fuse_window([0b111111], [k]))].switches for k in range(6)]
        assert detectable == list(REGION_SWITCHES)


class TestExposedSwitches:
    def test_matches_each_phase_sign_on_a_fine_grid(self):
        # 0.01-degree steps over two turns, every zero crossing included
        theta_deg = np.arange(-36000, 36001) / 100.0
        exposed = exposed_switches(phase_sines(np.radians(theta_deg)))
        assert exposed.dtype == np.uint8 and exposed.shape == theta_deg.shape
        for k in range(0, theta_deg.size, 7):
            th = math.radians(float(theta_deg[k]))
            expected = set()
            for p, off in enumerate(PHASE_OFFSETS_DEG):
                sine = math.sin(th + math.radians(off))
                if sine < 0:
                    expected.add(2 * p + 1)  # upper switch: the negative half-cycle
                elif sine > 0:
                    expected.add(2 * p + 2)  # lower switch: the positive half-cycle
            assert LABELS[int(exposed[k])].switches == expected, theta_deg[k]

    def test_simulate_matches_the_per_leg_rule_for_every_mask(self):
        cfg = SimConfig(
            amplitude=16.5,
            noise_sigma=0.04,
            ripple_amplitude=0.12,
            amplitude_drift=0.01,
            leakage=0.12,
            seed=4,
        )
        for mask in range(64):
            timeline = ((0.0073, LABELS[mask]),)
            got = simulate(cfg, timeline, 0.045).currents().T
            assert got.tobytes() == reference_simulate(cfg, timeline, 0.045).tobytes(), mask


class TestSimConfigValidation:
    def test_rejects_nonpositive_amplitude(self):
        with pytest.raises(ValueError):
            SimConfig(amplitude=0.0)

    def test_rejects_low_sample_rate(self):
        with pytest.raises(ValueError):
            SimConfig(amplitude=1.0, sample_rate=400.0)

    def test_rejects_leakage_out_of_range(self):
        with pytest.raises(ValueError):
            SimConfig(amplitude=1.0, leakage=1.0)
        with pytest.raises(ValueError):
            SimConfig(amplitude=1.0, leakage=-0.1)


class TestHealthyWaveform:
    def test_sample_count_and_grid(self):
        s = simulate(SimConfig(amplitude=2.0), (), 0.04)
        assert s.n_samples == round(0.04 * 25600)
        assert np.allclose(np.diff(s.t), 1.0 / 25600.0)

    def test_zero_sum_without_noise(self):
        s = simulate(SimConfig(amplitude=16.5), (), 0.04)
        assert np.max(np.abs(s.i_a + s.i_b + s.i_c)) <= 1e-9

    def test_zero_sum_bound_with_noise(self):
        cfg = SimConfig(amplitude=16.5, noise_sigma=0.05, ripple_amplitude=0.12)
        s = simulate(cfg, (), 0.1)
        bound = 3.0 * (cfg.noise_sigma * 6.0 + cfg.ripple_amplitude)
        assert np.max(np.abs(s.i_a + s.i_b + s.i_c)) <= bound

    def test_matches_closed_form(self):
        s = simulate(SimConfig(amplitude=3.0, frequency=50.0), (), 0.02)
        theta = 2.0 * math.pi * 50.0 * s.t
        assert np.allclose(s.i_a, 3.0 * np.sin(theta), atol=1e-9)
        assert np.allclose(s.i_b, 3.0 * np.sin(theta - 2 * math.pi / 3), atol=1e-9)
        assert np.allclose(s.i_c, 3.0 * np.sin(theta + 2 * math.pi / 3), atol=1e-9)

    def test_determinism(self):
        cfg = SimConfig(amplitude=16.5, noise_sigma=0.04, amplitude_drift=0.01, seed=5)
        a = simulate(cfg, (), 0.05)
        b = simulate(cfg, (), 0.05)
        assert np.array_equal(a.i_a, b.i_a)
        assert np.array_equal(a.i_b, b.i_b)
        assert np.array_equal(a.i_c, b.i_c)


class TestSuppression:
    def test_upper_switch_clamps_negative_half(self):
        lab = FaultLabel.from_switches([1])
        s = simulate(SimConfig(amplitude=10.0, leakage=0.0), ((0.0, lab),), 0.04)
        healthy = 10.0 * np.sin(2 * math.pi * 50.0 * s.t)
        neg = healthy < 0
        assert np.max(np.abs(s.i_a[neg])) <= 1e-9
        assert np.allclose(s.i_a[~neg], healthy[~neg], atol=1e-9)

    def test_lower_switch_clamps_positive_half(self):
        lab = FaultLabel.from_switches([4])
        s = simulate(SimConfig(amplitude=10.0, leakage=0.0), ((0.0, lab),), 0.04)
        healthy = 10.0 * np.sin(2 * math.pi * 50.0 * s.t - 2 * math.pi / 3)
        pos = healthy > 0
        assert np.max(np.abs(s.i_b[pos])) <= 1e-9
        assert np.allclose(s.i_b[pos == False], healthy[pos == False], atol=1e-9)  # noqa: E712

    def test_leakage_bound(self):
        lab = FaultLabel.from_switches([1])
        cfg = SimConfig(amplitude=10.0, leakage=0.12)
        s = simulate(cfg, ((0.0, lab),), 0.04)
        healthy = 10.0 * np.sin(2 * math.pi * 50.0 * s.t)
        neg = healthy < 0
        assert np.max(np.abs(s.i_a[neg])) <= cfg.leakage * cfg.amplitude + 1e-9

    def test_other_phases_untouched(self):
        lab = FaultLabel.from_switches([1])
        cfg = SimConfig(amplitude=10.0, noise_sigma=0.03, seed=2)
        healthy = simulate(cfg, (), 0.04)
        faulted = simulate(cfg, ((0.0, lab),), 0.04)
        assert np.array_equal(healthy.i_b, faulted.i_b)
        assert np.array_equal(healthy.i_c, faulted.i_c)

    def test_both_switches_null_the_phase(self):
        lab = FaultLabel.from_switches([1, 2])
        cfg = SimConfig(amplitude=10.0, leakage=0.12)
        s = simulate(cfg, ((0.0, lab),), 0.04)
        assert np.max(np.abs(s.i_a)) <= 1e-9

    def test_mid_run_injection(self):
        lab = FaultLabel.from_switches([1])
        cfg = SimConfig(amplitude=10.0)
        s = simulate(cfg, ((0.015, lab),), 0.04)
        healthy = 10.0 * np.sin(2 * math.pi * 50.0 * s.t)
        pre = s.t < 0.015
        assert np.allclose(s.i_a[pre], healthy[pre], atol=1e-9)
        # at 15 ms the healthy value sits in the suppressed negative half
        k = np.searchsorted(s.t, 0.015)
        assert healthy[k] < 0
        assert abs(s.i_a[k]) <= 1e-9

    def test_all_zero_timeline_equals_no_fault(self):
        cfg = SimConfig(amplitude=16.5, noise_sigma=0.04, amplitude_drift=0.01, seed=9)
        plain = simulate(cfg, (), 0.05)
        zeroed = simulate(cfg, ((0.0, NO_FAULT),), 0.05)
        assert np.array_equal(plain.i_a, zeroed.i_a)
        assert np.array_equal(plain.i_b, zeroed.i_b)
        assert np.array_equal(plain.i_c, zeroed.i_c)


class TestTimeline:
    def test_label_at_time_steps(self):
        lab1 = FaultLabel.from_switches([2])
        lab2 = FaultLabel.from_switches([2, 5])
        timeline = ((0.01, lab1), (0.03, lab2))
        times = [0.0, 0.01, 0.0299, 0.03, 1.0]
        expected = [NO_FAULT, lab1, lab1, lab2, lab2]
        assert timeline_masks(timeline, times).tolist() == [lab.mask for lab in expected]
        assert [int(timeline_masks(timeline, t)) for t in times] == [lab.mask for lab in expected]
        assert timeline_masks((), times).tolist() == [0] * 5
        # of two entries at one instant the later one holds from there on
        same = ((0.01, lab1), (0.01, lab2))
        assert timeline_masks(same, [0.0, 0.01]).tolist() == [0, lab2.mask]

    def test_rejects_unsorted_timeline(self):
        lab = FaultLabel.from_switches([1])
        with pytest.raises(ValueError):
            simulate(SimConfig(amplitude=1.0), ((0.02, lab), (0.01, lab)), 0.04)

    @pytest.mark.parametrize("label", ["100000", 32, (0.0, 1)])
    def test_refuses_a_label_that_is_not_a_fault_label(self, label):
        timeline = ((0.0, FaultLabel.from_switches([2])), (0.01, label))
        with pytest.raises(ValueError, match=f"fault_timeline entry 1: .*{re.escape(repr(label))}"):
            simulate(SimConfig(amplitude=1.0), timeline, 0.04)

    def test_rejects_negative_fault_time(self):
        lab = FaultLabel.from_switches([1])
        with pytest.raises(ValueError):
            simulate(SimConfig(amplitude=1.0), ((-0.01, lab),), 0.04)

    def test_timeline_recorded_on_series(self):
        lab = FaultLabel.from_switches([3])
        s = simulate(SimConfig(amplitude=1.0), ((0.01, lab),), 0.04)
        assert s.fault_timeline == ((0.01, lab),)
        assert timeline_masks(s.fault_timeline, [0.005, 0.02]).tolist() == [0, lab.mask]
