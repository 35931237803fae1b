"""Experiment configuration text format and derived sub-configs."""

from __future__ import annotations

import re
from dataclasses import fields, replace

import pytest

from trifault.config import (
    ExperimentConfig,
    class_token,
    config_text,
    default_class_labels,
    load_config,
    parse_class_token,
    parse_config,
    save_config,
)
from trifault.diagnosis import DiagnosisConfig
from trifault.simulate import NO_FAULT, FaultLabel, SimConfig


def float_fields(cls):
    return [(cls, f.name) for f in fields(cls) if f.type == "float"]


def make_settings(cls, name, value):
    if cls is ExperimentConfig:  # through the config file parser
        return parse_config(f"{name} = {value!r}")
    if cls is SimConfig:
        return SimConfig(**{"amplitude": 1.0, name: value})
    return cls(**{name: value})


class TestClassTokens:
    def test_default_composition(self):
        classes = default_class_labels()
        assert len(classes) == 22
        assert classes[0] is NO_FAULT
        assert str(classes[1]) == "100000"
        assert sum(1 for c in classes if len(c.switches) == 1) == 6
        assert sum(1 for c in classes if len(c.switches) == 2) == 15
        assert len(set(classes)) == 22

    def test_token_round_trip(self):
        for lab in default_class_labels():
            assert parse_class_token(class_token(lab)) == lab

    def test_parse_variants(self):
        assert parse_class_token("normal") is NO_FAULT
        assert parse_class_token("S2") == FaultLabel.from_switches([2])
        assert parse_class_token("s1+s3") == FaultLabel.from_switches([1, 3])
        assert parse_class_token("101000") == FaultLabel.from_switches([1, 3])

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_class_token("X9")
        # a part is S or s and ASCII digits, and the refusal names the token
        for token in ["S", "Sx", "S1.5", "S\u0663", "S 1", "S1+S"]:
            with pytest.raises(ValueError, match=f"^bad class token {re.escape(repr(token))}$"):
                parse_class_token(token)
        with pytest.raises(ValueError):
            parse_class_token("S0")
        for token, switch in [("S1+S1", "S1"), ("s3+S2+S3", "S3")]:
            with pytest.raises(ValueError, match=f"^switch {switch} is named twice$"):
                parse_class_token(token)


class TestParseConfig:
    def test_defaults_from_empty_text(self):
        cfg = parse_config("")
        assert cfg == ExperimentConfig()

    def test_key_value_lines(self):
        cfg = parse_config("n_trees = 32\nnoise_sigma = 0.01\nm_try = none\n")
        assert cfg.n_trees == 32
        assert cfg.noise_sigma == 0.01
        assert cfg.m_try is None

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# comment\n\nseed = 4\n")
        assert cfg.seed == 4

    def test_classes_line(self):
        cfg = parse_config("classes = normal S1 S1+S3\ndataset_samples = 30\n")
        assert cfg.classes == (
            NO_FAULT,
            FaultLabel.from_switches([1]),
            FaultLabel.from_switches([1, 3]),
        )

    def test_unknown_key_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config("seed = 1\nbogus = 3\n")

    @pytest.mark.parametrize(
        "key", ["window_samples", "phase_fallback_deg", "confirm_windows", "debounce_min_run", "normal_weight"]
    )
    def test_removed_keys_are_unknown(self, key):
        with pytest.raises(ValueError, match=f"line 1: unknown key '{key}'"):
            parse_config(f"{key} = 2\n")
        with pytest.raises(TypeError, match=key):
            ExperimentConfig(**{key: 2})

    def test_repeated_key_reports_both_lines(self):
        with pytest.raises(ValueError, match="line 3: key 'n_trees' already given on line 1"):
            parse_config("n_trees = 10\nseed = 1\nn_trees = 20\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config("n_trees = many\n")
        with pytest.raises(ValueError, match="^config line 2: bad value for 'classes': switch S1 is named twice$"):
            parse_config("seed = 1\nclasses = normal S1+S1\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config("just some text\n")


class TestValidation:
    def test_rejects_duplicate_classes(self):
        with pytest.raises(ValueError):
            ExperimentConfig(classes=(NO_FAULT, NO_FAULT), dataset_samples=10)

    def test_rejects_dataset_smaller_than_classes(self):
        with pytest.raises(ValueError):
            ExperimentConfig(dataset_samples=10)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("seed = -1", "seed must be >= 0"),
            ("amplitude = -2", "amplitude must be > 0"),
            ("n_trees = 0", "n_trees must be >= 1"),
            ("leakage = 1.5", r"leakage must be in \[0, 1\)"),
            ("m_try = 0", "m_try must be >= 1"),
            ("max_depth = 0", "max_depth must be >= 1"),
            ("classes =", "classes must name at least one class"),
        ],
    )
    def test_rejects_out_of_range_value_at_load(self, line, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_config(line + "\n")

    @pytest.mark.parametrize(
        "cls, name",
        float_fields(ExperimentConfig) + float_fields(SimConfig) + float_fields(DiagnosisConfig),
        ids=lambda v: getattr(v, "__name__", v),
    )
    def test_rejects_non_finite_float(self, cls, name):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                make_settings(cls, name, value)


class TestRoundTrip:
    def test_text_round_trip(self):
        cfg = ExperimentConfig(
            amplitude=12.0,
            frequency=60.0,
            sample_rate=24000.0,
            noise_sigma=0.02,
            ripple_amplitude=0.1,
            ripple_frequency=3000.0,
            amplitude_drift=0.02,
            leakage=0.07,
            seed=11,
            classes=(NO_FAULT, FaultLabel.from_switches([2]), FaultLabel.from_switches([1, 4])),
            dataset_samples=90,
            train_samples=40,
            n_trees=40,
            m_try=2,
            max_depth=9,
            min_samples_leaf=3,
            cv_folds=4,
            target_rate=12000.0,
        )
        default = ExperimentConfig()
        assert all(getattr(cfg, f.name) != getattr(default, f.name) for f in fields(cfg))
        assert parse_config(config_text(cfg)) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = ExperimentConfig(noise_sigma=0.02, m_try=2)
        path = tmp_path / "exp.cfg"
        save_config(cfg, path)
        assert load_config(path) == cfg


# a value for every SimConfig and ForestParams field, each unlike the
# field's default there and in ExperimentConfig
CARRIED = dict(
    amplitude=5.0,
    frequency=60.0,
    sample_rate=24000.0,
    noise_sigma=0.01,
    ripple_amplitude=0.3,
    ripple_frequency=2000.0,
    amplitude_drift=0.02,
    leakage=0.05,
    seed=3,
    n_trees=10,
    m_try=2,
    max_depth=7,
    min_samples_leaf=4,
)


def assert_carries_every_field(derived):
    defaults = ExperimentConfig()
    for f in fields(derived):
        assert CARRIED[f.name] not in (f.default, getattr(defaults, f.name)), f.name
        assert getattr(derived, f.name) == CARRIED[f.name], f.name


class TestDerivedConfigs:
    def test_sim_config_carries_waveform_fields(self):
        # 12 kHz holds a whole number of 60 Hz periods
        cfg = ExperimentConfig(target_rate=12000.0, **CARRIED)
        sim = cfg.sim_config()
        assert_carries_every_field(sim)
        assert cfg.sim_config(seed=9) == replace(sim, seed=9)

    def test_forest_params(self):
        assert_carries_every_field(ExperimentConfig(target_rate=12000.0, **CARRIED).forest_params())

    def test_diagnosis_config(self):
        for cfg in (
            ExperimentConfig(frequency=60.0, target_rate=12000.0),
            parse_config("frequency = 60.0\ntarget_rate = 12000.0\n"),
        ):
            diag = cfg.diagnosis_config()
            assert diag.fundamental == 60.0
            assert diag.window_samples == 200
        # the default 2.5 kHz holds no whole number of 60 Hz periods
        with pytest.raises(ValueError, match="whole multiple"):
            ExperimentConfig(frequency=60.0)
