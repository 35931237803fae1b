"""Open-switch fault diagnosis for three-phase power converters.

The package covers the full desk-scale pipeline:

- :mod:`trifault.simulate` — behavioral waveform model of a three-phase
  converter with open-switch faults injected on a timeline.
- :mod:`trifault.haar`, :mod:`trifault.vectors`, :mod:`trifault.timestats` —
  transient feature families (Haar filter bank, current-vector geometry,
  time-domain statistics) over sample windows, kept as a feature library;
  the forest reads instantaneous samples, not these.
- :mod:`trifault.forest` — a deterministic random-forest classifier over
  instantaneous current samples, with a text model format and
  cross-validation helpers.
- :mod:`trifault.diagnosis` — the online stage: resampling, per-sample
  classification, debouncing, region-gated vote fusion, and the latched
  protection signal.
- :mod:`trifault.dataset`, :mod:`trifault.config`, :mod:`trifault.cli` —
  dataset file I/O, experiment configuration, and the command line front
  end (``trifault gen | train | eval | sweep-trees | diagnose``).
"""

from .config import ExperimentConfig, default_class_labels, load_config, parse_class_token
from .diagnosis import DiagnosisConfig, FaultReport, resample, run_diagnosis
from .forest import (
    ForestParams,
    RandomForestModel,
    TrainingSet,
    cross_validate,
    load_model,
    predict,
    predict_batch,
    save_model,
    train_forest,
)
from .simulate import (
    NO_FAULT,
    FaultLabel,
    SimConfig,
    TriPhaseSeries,
    detectable_faults,
    region_of,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "DiagnosisConfig",
    "ExperimentConfig",
    "FaultLabel",
    "FaultReport",
    "ForestParams",
    "NO_FAULT",
    "RandomForestModel",
    "SimConfig",
    "TrainingSet",
    "TriPhaseSeries",
    "cross_validate",
    "default_class_labels",
    "detectable_faults",
    "load_config",
    "load_model",
    "parse_class_token",
    "predict",
    "predict_batch",
    "region_of",
    "resample",
    "run_diagnosis",
    "save_model",
    "simulate",
    "train_forest",
    "__version__",
]
