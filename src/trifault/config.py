"""Experiment configuration: one flat key = value text file.

Covers waveform generation, dataset composition, forest training and
the online diagnosis pipeline. Every key is an ExperimentConfig field
and is parsed by the parser of its declared type. Lines starting with
# and blank lines are ignored; an unknown key, or a key given twice, is
rejected. Class lists use tokens like `normal`, `S2`, or `S1+S3` (a bit
string such as `101000` also works). The diagnosis window is derived,
not set: one fundamental period, target_rate / frequency samples; the
pool's healthy weight and the debounce run are pipeline constants.

SimConfig and ForestParams are built by field name: each of their fields
takes the value of the ExperimentConfig field of the same name, so a field
added to either without a key here fails at load instead of being dropped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields

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
        part = part.strip()
        digits = part[1:]
        if part[:1] not in ("S", "s") or not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"bad class token {token!r}")
        switches.append(int(digits))
    return FaultLabel.from_switches(switches)


@dataclass(frozen=True)
class ExperimentConfig:
    # waveform; diagnose takes the amplitude from the model, not from here
    amplitude: float = 16.5
    frequency: float = SimConfig.frequency
    sample_rate: float = SimConfig.sample_rate
    noise_sigma: float = 0.04
    ripple_amplitude: float = 0.12
    ripple_frequency: float = SimConfig.ripple_frequency
    amplitude_drift: float = 0.01
    leakage: float = 0.12
    seed: int = SimConfig.seed
    # dataset
    classes: tuple[FaultLabel, ...] = field(default_factory=default_class_labels)
    dataset_samples: int = 24000
    train_samples: int = 8000
    # forest
    n_trees: int = ForestParams.n_trees
    m_try: int | None = ForestParams.m_try
    max_depth: int | None = ForestParams.max_depth
    min_samples_leaf: int = ForestParams.min_samples_leaf
    cv_folds: int = 5
    # diagnosis; a window is one period, target_rate / frequency samples
    target_rate: float = DiagnosisConfig.target_rate

    def __post_init__(self) -> None:
        refuse_non_finite(self)
        if not self.classes:
            raise ValueError("classes must name at least one class")
        if self.dataset_samples < len(self.classes):
            raise ValueError("dataset_samples must cover every class at least once")
        if not 0 < self.train_samples:
            raise ValueError("train_samples must be > 0")
        if self.cv_folds < 2:
            raise ValueError("cv_folds must be >= 2")
        if len(set(self.classes)) != len(self.classes):
            raise ValueError("duplicate class labels")
        if self.target_rate > self.sample_rate:
            raise ValueError("target_rate must not exceed sample_rate")
        # a bad waveform, forest or window setting fails at load
        self.sim_config()
        self.forest_params()
        self.diagnosis_config()

    def _by_field_name(self, cls, **given):
        """A cls built from this config's values of cls's field names."""
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls)} | given)

    def sim_config(self, seed: int | None = None) -> SimConfig:
        return self._by_field_name(SimConfig, seed=self.seed if seed is None else seed)

    def forest_params(self) -> ForestParams:
        return self._by_field_name(ForestParams)

    def diagnosis_config(self) -> DiagnosisConfig:
        return DiagnosisConfig(target_rate=self.target_rate, fundamental=self.frequency)


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
    seen_on: dict[str, int] = {}  # the line each key was given on
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
        if key in seen_on:
            raise ValueError(
                f"config line {line_no}: key {key!r} already given on line {seen_on[key]}"
            )
        seen_on[key] = line_no
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
