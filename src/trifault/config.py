"""Experiment configuration: one flat key = value text file.

Covers waveform generation, dataset composition, forest training and
the online diagnosis pipeline. Every key is an ExperimentConfig field
and is parsed by the parser of its declared type. Lines starting with
# and blank lines are ignored; unknown keys are rejected. Class lists
use tokens like `normal`, `S2`, or `S1+S3` (a bit string such as
`101000` also works). The diagnosis window is derived, not set: one
fundamental period, target_rate / frequency samples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields, replace

from .diagnosis import DiagnosisConfig
from .forest import ForestParams
from .simulate import NO_FAULT, N_SWITCHES, FaultLabel, SimConfig, refuse_non_finite


def default_class_labels() -> tuple[FaultLabel, ...]:
    """Healthy, all six single-switch faults, all fifteen double faults."""
    singles = [FaultLabel.from_switches([s]) for s in range(1, N_SWITCHES + 1)]
    doubles = [
        FaultLabel.from_switches(pair)
        for pair in itertools.combinations(range(1, N_SWITCHES + 1), 2)
    ]
    return (NO_FAULT, *singles, *doubles)


def class_token(label: FaultLabel) -> str:
    if label.is_normal:
        return "normal"
    return "+".join(f"S{s}" for s in sorted(label.switches))


def parse_class_token(token: str) -> FaultLabel:
    text = token.strip()
    if text.lower() == "normal":
        return NO_FAULT
    if set(text) <= {"0", "1"}:
        return FaultLabel.from_string(text)
    switches = []
    for part in text.split("+"):
        part = part.strip().upper()
        if not part.startswith("S"):
            raise ValueError(f"bad class token {token!r}")
        switches.append(int(part[1:]))
    return FaultLabel.from_switches(switches)


@dataclass(frozen=True)
class ExperimentConfig:
    # waveform
    amplitude: float = 16.5
    frequency: float = 50.0
    sample_rate: float = 25600.0
    noise_sigma: float = 0.04
    ripple_amplitude: float = 0.12
    ripple_frequency: float = 3200.0
    amplitude_drift: float = 0.01
    leakage: float = 0.12
    seed: int = 0
    # dataset
    classes: tuple[FaultLabel, ...] = field(default_factory=default_class_labels)
    dataset_samples: int = 24000
    train_samples: int = 8000
    # weight of the healthy class in the dataset split; the online stream
    # is dominated by healthy-looking instants (pre-fault segments and the
    # intact half-cycles of faulted phases), so the healthy class gets a
    # proportionally larger share of training rows
    normal_weight: int = 4
    # forest
    n_trees: int = 264
    m_try: int | None = None
    max_depth: int | None = None
    min_samples_leaf: int = 1
    cv_folds: int = 5
    # diagnosis; a window is one period, target_rate / frequency samples
    target_rate: float = 10000.0
    debounce_min_run: int = 5
    confirm_windows: int = 1
    phase_fallback_deg: float = 0.0

    def __post_init__(self) -> None:
        refuse_non_finite(self)
        if self.dataset_samples < len(self.classes):
            raise ValueError("dataset_samples must cover every class at least once")
        if not 0 < self.train_samples:
            raise ValueError("train_samples must be > 0")
        if self.cv_folds < 2:
            raise ValueError("cv_folds must be >= 2")
        if self.normal_weight < 1:
            raise ValueError("normal_weight must be >= 1")
        if len(set(self.classes)) != len(self.classes):
            raise ValueError("duplicate class labels")
        if self.target_rate > self.sample_rate:
            raise ValueError("target_rate must not exceed sample_rate")
        self.diagnosis_config()  # a bad window or latch setting fails at load

    def sim_config(self, seed: int | None = None) -> SimConfig:
        return SimConfig(
            amplitude=self.amplitude,
            frequency=self.frequency,
            sample_rate=self.sample_rate,
            noise_sigma=self.noise_sigma,
            ripple_amplitude=self.ripple_amplitude,
            ripple_frequency=self.ripple_frequency,
            amplitude_drift=self.amplitude_drift,
            leakage=self.leakage,
            seed=self.seed if seed is None else seed,
        )

    def forest_params(self, seed: int | None = None) -> ForestParams:
        return ForestParams(
            n_trees=self.n_trees,
            m_try=self.m_try,
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            seed=self.seed if seed is None else seed,
        )

    def diagnosis_config(self) -> DiagnosisConfig:
        return DiagnosisConfig(
            target_rate=self.target_rate,
            fundamental=self.frequency,
            debounce_min_run=self.debounce_min_run,
            confirm_windows=self.confirm_windows,
            phase_fallback_deg=self.phase_fallback_deg,
        )

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, seed=seed)


def _optional_int(text: str) -> int | None:
    return None if text.lower() == "none" else int(text)


def _class_list(text: str) -> tuple[FaultLabel, ...]:
    return tuple(parse_class_token(tok) for tok in text.split())


# one parser per declared field type (annotations are strings here)
_TYPE_PARSERS = {
    "float": float,
    "int": int,
    "int | None": _optional_int,
    "tuple[FaultLabel, ...]": _class_list,
}
_KEY_PARSERS = {f.name: _TYPE_PARSERS[f.type] for f in fields(ExperimentConfig)}


def parse_config(text: str) -> ExperimentConfig:
    values: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {line_no}: expected key = value, got {raw!r}")
        key, _, value_text = line.partition("=")
        key = key.strip()
        if key not in _KEY_PARSERS:
            raise ValueError(f"config line {line_no}: unknown key {key!r}")
        try:
            values[key] = _KEY_PARSERS[key](value_text.strip())
        except ValueError as exc:
            raise ValueError(f"config line {line_no}: bad value for {key!r}: {exc}") from None
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def config_text(config: ExperimentConfig) -> str:
    lines = []
    for f in fields(config):
        value = getattr(config, f.name)
        if f.name == "classes":
            text = " ".join(class_token(lab) for lab in value)
        elif value is None:
            text = "none"
        else:
            text = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"


def save_config(config: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config_text(config))
