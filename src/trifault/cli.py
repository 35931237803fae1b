"""Command line front end.

Subcommands:
  gen          write a labeled training pool (or one continuous series)
  train        fit a forest on a dataset split and save the model
  eval         score a saved model against a dataset
  sweep-trees  cross-validated accuracy over several forest sizes
  diagnose     run the online pipeline over each series in a file

Fault-class rows in the training pool are taken from instants where the
fault actually distorts the waveform (at least one open switch is
suppressing its half-cycle). Outside those instants an open switch
leaves the currents identical to the healthy ones, so such samples
carry no class information and would only poison the classifier.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from .config import ExperimentConfig, load_config, parse_class_token
from .dataset import (
    FEATURE_COLUMNS,
    DatasetFormatError,
    SeriesBlock,
    block_from_series,
    block_to_series,
    read_dataset,
    training_rows,
    write_dataset,
)
from .diagnosis import resample, run_diagnosis
from .forest import (
    ModelFormatError,
    TrainingSet,
    cross_validate,
    load_model,
    predict_batch,
    save_model,
    train_forest,
)
from .simulate import FaultLabel, exposed_switches, phase_sines, simulate, switch_name

_GEN_STREAM = 0xD5
_SPLIT_STREAM = 0x5B

# weight of the healthy class in the training pool: the online stream is mostly
# healthy-looking instants (pre-fault segments, intact half-cycles of faulted phases)
_NORMAL_WEIGHT = 4

# a phase sine this near zero is taken as on its zero crossing: far above
# the rounding of the angle over a pool's span, far below any grid step
_ON_CROSSING = 1e-9


def split_class_counts(total: int, weights: list[int]) -> list[int]:
    """Per-class row counts proportional to weights and summing exactly
    to total; the rounding remainder goes one row each to the leading
    classes, and every class receives at least one row."""
    if total < len(weights):
        raise ValueError("total must cover every class at least once")
    full = sum(weights)
    counts = [total * w // full for w in weights]
    rem = total - sum(counts)
    for k in range(rem):
        counts[k % len(counts)] += 1
    for k, count in enumerate(counts):
        if count == 0:
            counts[counts.index(max(counts))] -= 1
            counts[k] = 1
    return counts


def _expressed_mask(label: FaultLabel, t: np.ndarray, frequency: float) -> np.ndarray:
    """Samples where every faulted phase is visibly distorted at once.

    A lone open switch only distorts its half-cycle; a sample from the
    other half is indistinguishable from the healthy waveform, and a
    sample where only one switch of a two-phase pair is suppressing is
    indistinguishable from that single-switch fault. Training rows are
    therefore restricted to the samples that expose every open switch
    (phases with both switches open are clamped to zero throughout, so
    they do not constrain the window). A sample on a phase's zero
    crossing, where rounding alone picks the sine's sign, exposes neither
    of its switches, so every period of a uniform grid marks alike."""
    whole = label.mask & label.mask >> 1 & 0b010101  # lower bit of each leg with both open
    need = label.mask & ~(whole | whole << 1)
    sines = phase_sines(2.0 * np.pi * frequency * t)
    exposed = exposed_switches(np.where(np.abs(sines) < _ON_CROSSING, 0.0, sines))
    return (exposed & need) == need


def generate_training_pool(config: ExperimentConfig) -> list[SeriesBlock]:
    """One series block per class, subsampled to the configured totals.

    Each class simulates ceil(n / k) + 3 periods for its n rows, where k is
    the number of classifier grid samples in one period that express it
    (_expressed_mask), and twice as many as often as that falls short."""
    weights = [_NORMAL_WEIGHT if lab.is_normal else 1 for lab in config.classes]
    counts = split_class_counts(config.dataset_samples, weights)
    master = np.random.default_rng([config.seed, _GEN_STREAM])
    period = 1.0 / config.frequency
    grid = np.arange(config.diagnosis_config().window_samples) / config.target_rate
    blocks = []
    for ci, label in enumerate(config.classes):
        n_c = counts[ci]
        if label.is_normal:
            t_fault = 0.0
            timeline = ()
        else:
            t_fault = float(master.uniform(0.0, period))
            timeline = ((t_fault, label),)
        sim_seed = int(master.integers(0, 2**31 - 1))

        # the grid samples of one period that express the class; the fault
        # instant may cost the first period
        per_period = np.count_nonzero(_expressed_mask(label, grid, config.frequency))
        if not per_period:
            raise RuntimeError(f"could not collect {n_c} expressed samples for {label}: no angle expresses it")
        periods = math.ceil(n_c / per_period) + 3
        for _ in range(4):
            sim = simulate(config.sim_config(seed=sim_seed), timeline, periods * period)
            rs = resample(sim, config.target_rate)
            eligible = np.nonzero(
                _expressed_mask(label, rs.t, config.frequency) & (rs.t >= t_fault)
            )[0]
            if len(eligible) >= n_c:
                break
            periods *= 2
        else:
            raise RuntimeError(f"could not collect {n_c} expressed samples for {label}")

        pick = np.sort(master.choice(len(eligible), size=n_c, replace=False))
        rows = eligible[pick]
        blocks.append(
            SeriesBlock(
                series_id=ci,
                sample_rate=config.target_rate,
                fault_timeline=timeline,
                t=rs.t[rows],
                i_a=rs.i_a[rows],
                i_b=rs.i_b[rows],
                i_c=rs.i_c[rows],
                labels=np.full(n_c, label.mask, dtype=np.uint8),
            )
        )
    return blocks


def generate_series_block(
    config: ExperimentConfig, label: FaultLabel, fault_time: float, duration: float
) -> SeriesBlock:
    """One continuous series with the fault injected at fault_time."""
    timeline = () if label.is_normal else ((fault_time, label),)
    sim = simulate(config.sim_config(), timeline, duration)
    return block_from_series(sim, series_id=0)


def _dataset_training_set(path) -> TrainingSet:
    X, labels = training_rows(read_dataset(path))
    return TrainingSet(features=X, labels=labels, feature_names=FEATURE_COLUMNS)


def train_split(config: ExperimentConfig, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted train and held-out row indices: the first train_samples rows
    of a permutation drawn from (seed, _SPLIT_STREAM), and the rest."""
    n_train = config.train_samples
    if n_train >= n_rows:
        raise ValueError(f"train_samples = {n_train} must be below the {n_rows} dataset rows")
    perm = np.random.default_rng([config.seed, _SPLIT_STREAM]).permutation(n_rows)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def _accuracy(model, X, labels) -> tuple[float, np.ndarray, np.ndarray]:
    """Share of rows labelled right, the confusion matrix and its sorted
    label masks."""
    predicted = predict_batch(model, X)
    # true labels the model never saw still get their own row
    universe = np.union1d([lab.mask for lab in model.label_universe], labels)
    n = universe.size
    cells = np.searchsorted(universe, labels) * n + np.searchsorted(universe, predicted)
    confusion = np.bincount(cells, minlength=n * n).reshape(n, n)
    return np.count_nonzero(predicted == labels) / labels.size, confusion, universe


def _print_confusion(confusion: np.ndarray, universe) -> None:
    print("confusion matrix (rows true, cols predicted; labels sorted):")
    print("  " + " ".join(f"{m:06b}" for m in universe))
    for m, row in zip(universe, confusion):
        print(f"  {m:06b}: " + " ".join(str(v) for v in row))


def _load_experiment_config(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config


def cmd_gen(args) -> int:
    config = _load_experiment_config(args)
    if args.series is not None:
        label = parse_class_token(args.series)
        block = generate_series_block(config, label, args.fault_time, args.duration)
        write_dataset(args.out, [block])
        print(f"wrote series ({label}, {block.n_rows} rows) to {args.out}")
        return 0
    blocks = generate_training_pool(config)
    write_dataset(args.out, blocks)
    total = sum(b.n_rows for b in blocks)
    print(f"wrote {total} rows over {len(blocks)} classes to {args.out}")
    return 0


def cmd_train(args) -> int:
    config = _load_experiment_config(args)
    ts = _dataset_training_set(args.dataset)
    train_idx, test_idx = train_split(config, ts.n_rows)
    sub = TrainingSet(ts.features[train_idx], ts.labels[train_idx], ts.feature_names)
    model = train_forest(sub, config.forest_params(), n_jobs=args.jobs)
    save_model(model, args.out)

    acc, confusion, universe = _accuracy(model, ts.features[test_idx], ts.labels[test_idx])
    print(f"trained {model.n_trees} trees on {len(train_idx)} rows, model saved to {args.out}")
    print(f"held-out rows: {len(test_idx)}")
    print(f"held-out accuracy: {acc:.4f}")
    _print_confusion(confusion, universe)
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.model)
    ts = _dataset_training_set(args.dataset)
    acc, confusion, universe = _accuracy(model, ts.features, ts.labels)
    print(f"rows: {ts.n_rows}")
    print(f"accuracy: {acc:.4f}")
    _print_confusion(confusion, universe)
    return 0


def cmd_sweep_trees(args) -> int:
    config = _load_experiment_config(args)
    ts = _dataset_training_set(args.dataset)
    counts = [int(tok) for tok in args.counts.split(",") if tok.strip()]
    if not counts:
        raise ValueError("no tree counts given")
    lines = ["n_trees,accuracy"]
    for n_trees in counts:
        params = replace(config.forest_params(), n_trees=n_trees)
        accuracy = np.mean(cross_validate(ts, params, k_folds=config.cv_folds))
        lines.append(f"{n_trees},{accuracy:.4f}")
        print(lines[-1])
    with open(args.out, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
    return 0


def cmd_diagnose(args) -> int:
    config = _load_experiment_config(args)
    model = load_model(args.model)
    blocks = read_dataset(args.series_file)
    diag = config.diagnosis_config()
    records = []
    for block in blocks:
        series = block_to_series(block)
        report = run_diagnosis(model, series, diag)
        records.append(
            {
                "series": block.series_id,
                "fault_set": [switch_name(s) for s in sorted(report.fault_set)],
                "first_detect_time": report.first_detect_time,
                "decision_time": report.decision_time,
                "protection_signal": report.protection_signal,
            }
        )
    for record in records:
        print(json.dumps(record))
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="\n") as fh:
            for record in records:
                fh.write(json.dumps(record))
                fh.write("\n")
    return 1 if any(record["protection_signal"] for record in records) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trifault",
        description="Open-switch fault diagnosis for three-phase converters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", default=None, help="experiment config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_gen = sub.add_parser("gen", help="generate a labeled dataset")
    add_common(p_gen)
    p_gen.add_argument("--out", required=True, help="output dataset CSV")
    p_gen.add_argument(
        "--series",
        default=None,
        help="write one continuous series for this class token instead of a training pool",
    )
    p_gen.add_argument("--fault-time", type=float, default=0.0, help="series fault time [s]")
    p_gen.add_argument("--duration", type=float, default=0.2, help="series duration [s]")
    p_gen.set_defaults(func=cmd_gen)

    p_train = sub.add_parser("train", help="train a forest on a dataset")
    add_common(p_train)
    p_train.add_argument("dataset", help="dataset CSV from gen")
    p_train.add_argument("--out", required=True, help="output model file")
    p_train.add_argument("--jobs", type=int, default=1, help="parallel tree workers")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="score a model against a dataset")
    add_common(p_eval)
    p_eval.add_argument("model", help="model file from train")
    p_eval.add_argument("dataset", help="dataset CSV")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep-trees", help="cross-validated accuracy vs forest size")
    add_common(p_sweep)
    p_sweep.add_argument("dataset", help="dataset CSV")
    p_sweep.add_argument("--out", required=True, help="output CSV (n_trees,accuracy)")
    p_sweep.add_argument("--counts", default="1,8,64,264", help="comma-separated tree counts")
    p_sweep.set_defaults(func=cmd_sweep_trees)

    p_diag = sub.add_parser("diagnose", help="run online diagnosis over recorded series")
    add_common(p_diag)
    p_diag.add_argument("model", help="model file from train")
    p_diag.add_argument("series_file", help="dataset CSV of continuous series")
    p_diag.add_argument("--out", default=None, help="optional JSON-lines report file")
    p_diag.set_defaults(func=cmd_diagnose)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, DatasetFormatError, ModelFormatError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
