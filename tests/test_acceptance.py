"""Acceptance suite: one test per shipped guarantee.

 1. Filter-bank worked example: both decomposition levels match direct
    evaluation of the averaging and differencing filters.
 2. Twelve window statistics match an independent direct-summation
    oracle to 1e-12 relative on 1000 random windows, plus identities.
 3. Two-axis transform invariants: circle radius, unit-vector surface
    area over a period, amplitude-invariant angles.
 4. Desk-scale experiment: 24000-sample pool over 22 classes, 264 trees
    trained on 8000 rows, held-out accuracy at least 0.95 in under
    five minutes.
 5. Accuracy rises with forest size then plateaus over 1/8/64/264 trees.
 6. Two-switch scenario: joint fault reported exactly, single-switch
    verdicts visible on the way, no false protection on healthy data.
 7. Byte-level determinism of generation, training, sweeping, and the
    model/dataset file round-trips; parallel training matches sequential.
 8. Debounce idempotence and the exact 20 ms resample count.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from oracles import stats_oracle
from trifault.cli import main
from trifault.config import ExperimentConfig, parse_class_token
from trifault.cli import generate_series_block
from trifault.dataset import block_to_series, read_dataset, write_dataset
from trifault.diagnosis import debounce, resample, run_diagnosis
from trifault.forest import load_model, save_model
from trifault.haar import haar_decompose
from trifault.simulate import FaultLabel, NO_FAULT, SimConfig, simulate
from trifault.timestats import FEATURE_NAMES, time_domain_features
from trifault.vectors import dq_transform, unit_vector, vector_angle, vector_surface_area

RUNTIME_BUDGET_SECONDS = 300.0


def test_criterion_1_filter_bank_worked_example():
    values = [48.0, 34.0, 24.0, 60.0, 72.0, 28.0, 55.0, 121.0]
    levels = haar_decompose(values, 2)

    coarse = levels[1]
    assert np.max(np.abs(coarse.averages - np.array([83.0, 138.0]))) <= 1e-9
    assert np.max(np.abs(coarse.details - np.array([-1.0, -38.0]))) <= 1e-9

    fine = levels[0]
    expected_details = [9.8995, -25.4558, 31.1127, -46.6690]
    assert np.max(np.abs(fine.details - np.array(expected_details))) <= 1e-4

    # Direct evaluation of the averaging filter on the last two input
    # pairs: (72+28)/sqrt(2) and (55+121)/sqrt(2).
    expected_tail = [100.0 / math.sqrt(2.0), 176.0 / math.sqrt(2.0)]
    assert expected_tail == pytest.approx([70.7107, 124.4508], abs=1e-4)
    assert np.max(np.abs(fine.averages[2:] - np.array(expected_tail))) <= 1e-9
    assert np.max(np.abs(fine.averages[2:] - np.array([70.7107, 124.4508]))) <= 1e-4


def test_criterion_2_window_statistics_match_independent_oracle():
    rng = np.random.default_rng(424242)
    for _ in range(1000):
        n = int(rng.integers(8, 513))
        loc = float(rng.uniform(0.5, 3.0)) * (1 if rng.random() < 0.5 else -1)
        window = rng.normal(loc=loc, scale=abs(loc) / 5.0, size=n)

        feats = time_domain_features(window)
        got = dict(zip(FEATURE_NAMES, feats.as_vector()))
        want = stats_oracle(window)
        for name in FEATURE_NAMES:
            a, b = got[name], want[name]
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b)), name

        rms = math.sqrt(sum(v * v for v in window) / n)
        mean_abs = sum(abs(v) for v in window) / n
        assert abs(feats.waveform_index * mean_abs - rms) <= 1e-12 * max(1.0, rms)
        ratio = feats.crest_index / feats.impulse_index
        assert abs(ratio - mean_abs / rms) <= 1e-12 * max(1.0, abs(ratio))


def test_criterion_3_two_axis_transform_invariants():
    amplitude = 16.5
    t = np.arange(200) / 10000.0
    theta = 2.0 * math.pi * 50.0 * t
    i_a = amplitude * np.sin(theta)
    i_b = amplitude * np.sin(theta - 2.0 * math.pi / 3.0)
    i_c = amplitude * np.sin(theta + 2.0 * math.pi / 3.0)

    d, q = dq_transform(i_a, i_b, i_c)
    assert np.max(np.abs(d * d + q * q - amplitude**2)) <= 1e-9

    units = np.stack([d, q], axis=1) / np.hypot(d, q)[:, None]
    assert abs(vector_surface_area(units, closed=True) - math.pi) <= 1e-3

    for k in (0.5, 2.0, 7.3):
        dk, qk = dq_transform(k * i_a, k * i_b, k * i_c)
        for j in range(0, 200, 17):
            u = unit_vector((d[j], q[j]))
            uk = unit_vector((dk[j], qk[j]))
            assert abs(vector_angle(u) - vector_angle(uk)) <= 1e-9


def test_criterion_4_desk_scale_accuracy_and_runtime(desk_experiment):
    exp = desk_experiment
    assert exp.config.dataset_samples == 24000
    assert len(exp.config.classes) == 22
    assert exp.n_train == 8000
    assert exp.n_test == 16000
    assert exp.model.n_trees == 264

    total = exp.gen_seconds + exp.train_seconds + exp.eval_seconds
    assert total < RUNTIME_BUDGET_SECONDS, f"pipeline took {total:.1f}s"
    assert exp.held_out_accuracy >= 0.95, f"held-out accuracy {exp.held_out_accuracy:.4f}"


def test_criterion_5_accuracy_rises_then_plateaus(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("dataset_samples = 4400\ncv_folds = 3\n")
    pool = tmp_path / "pool.csv"
    out = tmp_path / "sweep.csv"
    assert main(["gen", "--config", str(cfg), "--out", str(pool)]) == 0
    assert (
        main(
            [
                "sweep-trees",
                str(pool),
                "--config",
                str(cfg),
                "--counts",
                "1,8,64,264",
                "--out",
                str(out),
            ]
        )
        == 0
    )

    lines = out.read_text().splitlines()
    assert lines[0] == "n_trees,accuracy"
    table = {int(n): float(a) for n, a in (ln.split(",") for ln in lines[1:])}
    assert set(table) == {1, 8, 64, 264}
    for acc in table.values():
        assert len(f"{acc:.4f}") == 6  # four decimal places as written
    assert table[64] >= table[1]
    assert abs(table[264] - table[64]) <= 0.02


def test_criterion_6_joint_fault_scenario_and_healthy_stream(desk_experiment):
    exp = desk_experiment
    joint = parse_class_token("S1+S3")
    s1_only = FaultLabel.from_switches([1])
    s3_only = FaultLabel.from_switches([3])
    fault_time = 0.04
    period = 1.0 / exp.config.frequency

    block = generate_series_block(exp.config, joint, fault_time, 0.2)
    report = run_diagnosis(exp.model, block_to_series(block), exp.config.diagnosis_config())

    assert report.protection_signal
    assert report.fault_set == frozenset({1, 3})
    assert report.first_detect_time is not None
    assert fault_time <= report.first_detect_time <= fault_time + 2.0 * period

    detect_idx = next(
        w.index
        for w in report.per_window_history
        if w.start_time == report.first_detect_time
    )
    assert report.per_window_history[detect_idx].fused == joint
    upstream = [w for w in report.per_window_history if w.index <= detect_idx]
    assert any(s3_only in w.labels for w in upstream)
    assert any(s1_only in w.labels for w in upstream)

    healthy = generate_series_block(exp.config, NO_FAULT, 0.0, 50.0 * period)
    healthy_report = run_diagnosis(
        exp.model, block_to_series(healthy), exp.config.diagnosis_config()
    )
    assert not healthy_report.protection_signal
    assert healthy_report.fault_set == frozenset()
    assert healthy_report.first_detect_time is None


def test_criterion_7_byte_determinism_and_round_trips(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("dataset_samples = 2200\ntrain_samples = 1100\nn_trees = 24\ncv_folds = 3\n")

    pool_a, pool_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["gen", "--config", str(cfg), "--out", str(pool_a)]) == 0
    assert main(["gen", "--config", str(cfg), "--out", str(pool_b)]) == 0
    assert pool_a.read_bytes() == pool_b.read_bytes()

    model_a, model_b, model_p = (tmp_path / n for n in ("ma.txt", "mb.txt", "mp.txt"))
    base = ["train", str(pool_a), "--config", str(cfg)]
    assert main(base + ["--out", str(model_a)]) == 0
    assert main(base + ["--out", str(model_b)]) == 0
    assert main(base + ["--out", str(model_p), "--jobs", "2"]) == 0
    assert model_a.read_bytes() == model_b.read_bytes()
    assert model_a.read_bytes() == model_p.read_bytes()

    sweep_a, sweep_b = tmp_path / "sa.csv", tmp_path / "sb.csv"
    sweep = ["sweep-trees", str(pool_a), "--config", str(cfg), "--counts", "1,4"]
    assert main(sweep + ["--out", str(sweep_a)]) == 0
    assert main(sweep + ["--out", str(sweep_b)]) == 0
    assert sweep_a.read_bytes() == sweep_b.read_bytes()

    model = load_model(model_a)
    save_model(model, tmp_path / "resaved.txt")
    assert (tmp_path / "resaved.txt").read_bytes() == model_a.read_bytes()
    save_model(load_model(tmp_path / "resaved.txt"), tmp_path / "twice.txt")
    assert (tmp_path / "twice.txt").read_bytes() == model_a.read_bytes()

    blocks = read_dataset(pool_a)
    write_dataset(tmp_path / "rt.csv", blocks)
    assert (tmp_path / "rt.csv").read_bytes() == pool_a.read_bytes()


def test_criterion_8_debounce_idempotence_and_resample_count():
    rng = np.random.default_rng(20240814)
    alphabet = [
        NO_FAULT,
        FaultLabel.from_switches([1]),
        FaultLabel.from_switches([3]),
        FaultLabel.from_switches([1, 3]),
        FaultLabel.from_switches([2, 5]),
    ]
    for _ in range(1000):
        labels = [
            alphabet[k] for k in rng.integers(0, len(alphabet), size=int(rng.integers(1, 80)))
        ]
        min_run = int(rng.integers(1, 8))
        once = debounce(labels, min_run)
        assert len(once) == len(labels)
        assert debounce(once, min_run) == once

    series = simulate(SimConfig(amplitude=16.5, sample_rate=25600.0), (), 0.02)
    assert series.n_samples == 512
    assert resample(series, 10000.0).n_samples == 200
