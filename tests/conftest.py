"""Shared fixtures.

The desk-scale experiment (24000-row pool, 264-tree forest) is built
once per session and reused by every test that needs a trained model;
its wall-clock timings are recorded so the runtime budget can be
asserted without retraining.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pytest

from trifault.cli import generate_training_pool, train_split
from trifault.config import ExperimentConfig
from trifault.dataset import training_rows
from trifault.forest import RandomForestModel, TrainingSet, predict_batch, train_forest


@dataclass(frozen=True)
class DeskExperiment:
    config: ExperimentConfig
    model: RandomForestModel
    held_out_accuracy: float
    n_train: int
    n_test: int
    gen_seconds: float
    train_seconds: float
    eval_seconds: float


@pytest.fixture(scope="session")
def desk_experiment() -> DeskExperiment:
    config = ExperimentConfig()

    t0 = time.perf_counter()
    blocks = generate_training_pool(config)
    gen_seconds = time.perf_counter() - t0

    X, labels = training_rows(blocks)
    assert len(labels) == config.dataset_samples

    train_idx, test_idx = train_split(config, len(labels))
    train_set = TrainingSet(
        features=X[train_idx], labels=labels[train_idx], feature_names=("i_a", "i_b", "i_c")
    )

    t0 = time.perf_counter()
    model = train_forest(train_set, config.forest_params())
    train_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    predicted = predict_batch(model, X[test_idx])
    eval_seconds = time.perf_counter() - t0
    accuracy = float(np.mean(predicted == labels[test_idx]))

    return DeskExperiment(
        config=config,
        model=model,
        held_out_accuracy=accuracy,
        n_train=len(train_idx),
        n_test=len(test_idx),
        gen_seconds=gen_seconds,
        train_seconds=train_seconds,
        eval_seconds=eval_seconds,
    )
