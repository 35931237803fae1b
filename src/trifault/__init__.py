"""Open-switch fault diagnosis for three-phase power converters.

The package covers the full desk-scale pipeline:

- :mod:`trifault.simulate` — behavioral waveform model of a three-phase
  converter with open-switch faults injected on a timeline, and the six
  60-degree regions of the fundamental period.
- :mod:`trifault.haar`, :mod:`trifault.vectors`, :mod:`trifault.timestats` —
  transient feature families (Haar filter bank, current-vector geometry,
  time-domain statistics) over sample windows, pinned by acceptance
  criteria 1-3; no pipeline reads them yet, and the forest reads
  instantaneous samples.
- :mod:`trifault.forest` — a deterministic random-forest classifier over
  instantaneous current samples, with a model file of text header lines
  and binary node columns, and stratified k-fold accuracies;
  ``predict_batch`` gives any number of rows, one row included, one uint8
  label mask each, as training sets and dataset blocks hold them.
- :mod:`trifault.diagnosis` — the online stage: resampling, per-sample
  classification, debouncing, region-gated vote fusion, and the latch
  that confirms a fault set over agreeing windows; a ``Diagnoser`` runs
  it on a stream pushed chunk by chunk.
- :mod:`trifault.dataset`, :mod:`trifault.config`, :mod:`trifault.cli` —
  dataset file I/O, experiment configuration, and the command line front
  end (``trifault gen | train | eval | sweep-trees | diagnose``).
"""

from .config import ExperimentConfig, default_class_labels, load_config, parse_class_token
from .diagnosis import Diagnoser, DiagnosisConfig, FaultReport, resample, run_diagnosis
from .forest import (
    ForestParams,
    RandomForestModel,
    TrainingSet,
    cross_validate,
    load_model,
    predict_batch,
    save_model,
    train_forest,
)
from .simulate import (
    NO_FAULT,
    FaultLabel,
    SimConfig,
    TriPhaseSeries,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "Diagnoser",
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
    "load_config",
    "load_model",
    "parse_class_token",
    "predict_batch",
    "resample",
    "run_diagnosis",
    "save_model",
    "simulate",
    "train_forest",
    "__version__",
]
