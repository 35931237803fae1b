"""The trifault workloads: inputs from the seed, set-up, one timed operation, checks.

Each workload is a closed loop with one caller: the next operation
starts when the previous one returns. Inputs are generated from the
workload seed before timing starts; the program sees only those inputs.

- ``train``: in-process ``trifault gen`` then ``trifault train --jobs 1`` on
  the default desk config (24 000-row pool, 264 trees on 8 000 rows,
  16 000 held-out rows). The offline path, dominated by tree growth in
  ``forest``. ``--jobs 1`` is the single-threaded reference path; parallel
  training is left out because its workers would share the benchmark's
  cores.
- ``events``: many short records diagnosed one after another with
  ``run_diagnosis`` and a model already in memory. Per-call fixed cost
  dominates, and faulted windows keep ``diagnosis.fuse_window`` busy.
- ``healthy_long``: one ``run_diagnosis`` call on a long healthy stream at
  the trained amplitude. Per-row throughput of ``forest`` and ``debounce``
  dominates, per-call cost disappears, and long-stream false alarms and
  memory growth show.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from trifault.config import ExperimentConfig, default_class_labels, save_config
from trifault.diagnosis import FaultReport
from trifault.simulate import NO_FAULT, FaultLabel, TriPhaseSeries, simulate

RECORD_S = 0.2
# 21 fault records and 7 healthy ones per block of the events schedule
BLOCK_HEALTHY_EVERY = 4
BLOCK_RECORDS = 28
# load amplitude range of the events records, as a share of the trained value
AMPLITUDE_RANGE = (0.5, 1.5)
# prime strides that deal the amplitude and fault-instant strata out
# across fault classes, independently of each other
AMPLITUDE_STRIDE = 61
INSTANT_STRIDE = 47
_EVENTS_STREAM = 0xE7
_LONG_STREAM = 0x1B


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark run.

    config: desk config for gen and train and for the diagnosis model.
    event_blocks: blocks of the events schedule; six cover every fault
        class in every 60-degree region.
    min_records: events records per run; p90 needs ten beyond it.
    stream_s: signal length of the healthy_long stream.
    min_accuracy: held-out accuracy gate of train (acceptance criterion 4).
    """

    config: ExperimentConfig
    event_blocks: int
    min_records: int
    stream_s: float
    min_accuracy: float


FULL = Scale(ExperimentConfig(), event_blocks=6, min_records=100, stream_s=12.0, min_accuracy=0.95)
# plumbing-only sizes for the smoke test
TINY = Scale(
    ExperimentConfig(dataset_samples=2200, train_samples=800, n_trees=8),
    event_blocks=1,
    min_records=6,
    stream_s=1.0,
    min_accuracy=0.8,
)


def source_digest(src: Path) -> str:
    """sha256 over the package sources, in path order."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cli_config_args(scale: Scale, work: Path) -> list[str]:
    if scale.config == ExperimentConfig():
        return []
    path = work / "desk.cfg"
    save_config(scale.config, path)
    return ["--config", str(path)]


def desk_model(scale: Scale, src: Path, build: Path) -> Path:
    """Model file of the diagnosis workloads, trained once per source tree.

    ``trifault gen`` and ``trifault train --jobs 1`` run in a child process,
    so the training memory does not count toward a run's peak RSS.
    """
    key = hashlib.sha256((source_digest(src) + repr(scale.config)).encode()).hexdigest()
    path = build / f"model-{key[:16]}.txt"
    if path.exists():
        return path
    work = build / f"model-build-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    pool, model = work / "pool.csv", work / "model.txt"
    config_args = _cli_config_args(scale, work)
    env = dict(os.environ, PYTHONPATH=str(src))
    for argv in (
        ["gen", *config_args, "--out", str(pool)],
        ["train", str(pool), *config_args, "--out", str(model), "--jobs", "1"],
    ):
        subprocess.run(
            [sys.executable, "-m", "trifault.cli", *argv],
            check=True,
            env=env,
            stdout=subprocess.DEVNULL,
            timeout=600,
        )
    os.replace(model, path)
    shutil.rmtree(work)
    return path


def _metric(value, unit: str, n: int) -> dict:
    return {"value": value, "unit": unit, "n": n}


def percentile_ms(walls, q: float) -> float:
    return float(np.percentile(walls, q)) * 1000.0 if walls else 0.0


@dataclass(frozen=True)
class TrainOutcome:
    gen_rc: int
    train_rc: int
    heldout_accuracy: float
    heldout_rows: int
    model_sha256: str
    model_bytes: int


class Train:
    """``trifault gen`` then ``trifault train --jobs 1`` through the CLI entry point, in-process."""

    name = "train"

    def __init__(self, scale: Scale, src: Path, build: Path, work: Path):
        self.scale = scale
        self.work = work
        self.min_ops = 1
        self.config_args = _cli_config_args(scale, work)

    def inputs(self, seed: int) -> list[int]:
        # gen derives the pool from the seed; generating it is part of the timed flow
        return [seed]

    def setup(self, api):
        return None

    def op(self, api, state, seed: int) -> tuple[int, int, str]:
        pool, model = self.work / "pool.csv", self.work / "model.txt"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            gen_rc = api.cli_main(["gen", *self.config_args, "--seed", str(seed), "--out", str(pool)])
            train_rc = api.cli_main(
                ["train", str(pool), *self.config_args, "--seed", str(seed),
                 "--out", str(model), "--jobs", "1"]
            )
        return gen_rc, train_rc, out.getvalue()

    def outcome(self, seed: int, raw) -> TrainOutcome:
        gen_rc, train_rc, text = raw
        model = self.work / "model.txt"
        acc = re.search(r"^held-out accuracy: ([0-9.]+)$", text, re.M)
        rows = re.search(r"^held-out rows: (\d+)$", text, re.M)
        data = model.read_bytes() if model.exists() else b""
        (self.work / "pool.csv").unlink(missing_ok=True)
        model.unlink(missing_ok=True)
        return TrainOutcome(
            gen_rc=gen_rc,
            train_rc=train_rc,
            heldout_accuracy=float(acc.group(1)) if acc else 0.0,
            heldout_rows=int(rows.group(1)) if rows else 0,
            model_sha256=hashlib.sha256(data).hexdigest(),
            model_bytes=len(data),
        )

    def checks(self, seed: int, outcome: TrainOutcome) -> dict[str, bool]:
        return {
            "gen_exit_0": outcome.gen_rc == 0,
            "train_exit_0": outcome.train_rc == 0,
            "heldout_accuracy_gate": outcome.heldout_accuracy >= self.scale.min_accuracy,
        }

    def summary(self, items, outcomes, walls) -> tuple[dict, float]:
        done = [o for o in outcomes if o is not None]
        acc = float(np.mean([o.heldout_accuracy for o in done])) if done else 0.0
        rows = done[0].heldout_rows if done else 0
        metrics = {
            "train_s": _metric(float(np.median(walls)) if walls else 0.0, "s", len(walls)),
            "heldout_accuracy": _metric(acc, "share", rows),
            "model_bytes": _metric(done[0].model_bytes if done else 0, "bytes", len(done)),
        }
        return metrics, acc

    def run_checks(self, outcomes) -> dict[str, bool]:
        digests = {o.model_sha256 for o in outcomes if o is not None}
        return {"model_bytes_repeat": len(digests) <= 1}


@dataclass(frozen=True)
class Record:
    series: TriPhaseSeries
    truth: FaultLabel


def _window_check(series, report: FaultReport, diag) -> bool:
    """Window count equals the whole periods after the phase reference.

    Phase a of the simulator crosses zero upward at every whole period;
    the crossing at t=0 has no samples before it, so the first clean
    reference is one period in. The first window must start within one
    classifier sample of it.
    """
    history = report.per_window_history
    if not history:
        return False
    rate = diag.target_rate
    n_resampled = int(math.floor((float(series.t[-1]) - float(series.t[0])) * rate)) + 1
    start = round((history[0].start_time - float(series.t[0])) * rate)
    on_reference = abs(history[0].start_time - 1.0 / diag.fundamental) <= 1.5 / rate
    return on_reference and len(history) == (n_resampled - start) // diag.window_samples


class _Diagnosis:
    """Shared set-up of the two diagnosis workloads: a desk model in memory."""

    def __init__(self, scale: Scale, src: Path, build: Path, work: Path):
        self.scale = scale
        self.model_path = desk_model(scale, src, build)
        self.diag = scale.config.diagnosis_config()
        self.warm_rows = None

    def setup(self, api):
        """load_model plus the first predict_batch, which finishes lazy set-up."""
        model = api.load_model(self.model_path)
        api.first_predict(model, self.warm_rows)
        return model

    def op(self, api, model, record: Record) -> FaultReport:
        return api.run_diagnosis(model, record.series, self.diag)

    def outcome(self, record: Record, report) -> FaultReport:
        return report

    def checks(self, record: Record, report) -> dict[str, bool]:
        returned = isinstance(report, FaultReport)
        return {
            "report_returned": returned,
            "windows_whole_periods": returned and _window_check(record.series, report, self.diag),
        }

    def run_checks(self, outcomes) -> dict[str, bool]:
        return {}

    def _sim(self, rng, amplitude_share: float):
        config = self.scale.config.sim_config(seed=int(rng.integers(0, 2**31 - 1)))
        return replace(config, amplitude=config.amplitude * amplitude_share)


class Events(_Diagnosis):
    """Short records over the whole fault space, one after another.

    The schedule is stratified so that every seed gives the same mix:
    blocks of 21 fault records (one per fault class) with a healthy
    record after every third, fault instants in all six 60-degree
    regions after the two-period phase-reference scan, and per record one
    stratum of the load amplitude (0.5-1.5x the trained value) and one of
    the instant inside its region. The seed draws the position inside
    each stratum and the noise.
    """

    name = "events"

    def __init__(self, scale: Scale, src: Path, build: Path, work: Path):
        super().__init__(scale, src, build, work)
        self.min_ops = scale.min_records

    def inputs(self, seed: int) -> list[Record]:
        rng = np.random.default_rng([seed, _EVENTS_STREAM])
        faults = [lab for lab in default_class_labels() if not lab.is_normal]
        f0 = self.scale.config.frequency
        lo, hi = AMPLITUDE_RANGE
        n = self.scale.event_blocks * BLOCK_RECORDS
        records = []
        n_fault = 0
        for i in range(n):
            share = lo + (hi - lo) * ((i * AMPLITUDE_STRIDE) % n + rng.uniform()) / n
            if i % BLOCK_HEALTHY_EVERY == BLOCK_HEALTHY_EVERY - 1:
                truth, timeline = NO_FAULT, ()
            else:
                truth = faults[n_fault % len(faults)]
                region = (n_fault + n_fault // len(faults)) % 6
                offset = ((i * INSTANT_STRIDE) % n + rng.uniform()) / n
                t_fault = (2.0 + (region + offset) / 6.0) / f0
                timeline = ((t_fault, truth),)
                n_fault += 1
            series = simulate(self._sim(rng, share), timeline, RECORD_S)
            records.append(Record(series=series, truth=truth))
        self.warm_rows = records[0].series.currents()[: self.diag.window_samples]
        return records

    def summary(self, items, outcomes, walls) -> tuple[dict, float]:
        exact = alarms = n_fault = n_healthy = 0
        for k, report in enumerate(outcomes):
            if report is None:
                continue
            truth = items[k % len(items)].truth
            if truth.is_normal:
                n_healthy += 1
                alarms += report.protection_signal
            else:
                n_fault += 1
                exact += report.fault_set == truth.switches
        signal_s = RECORD_S * len(walls)
        right = exact + n_healthy - alarms
        metrics = {
            "series_ms.p50": _metric(percentile_ms(walls, 50), "ms", len(walls)),
            "series_ms.p90": _metric(percentile_ms(walls, 90), "ms", len(walls)),
            "rtf": _metric(signal_s / sum(walls) if walls else 0.0, "x", len(walls)),
            "exact_set_rate": _metric(exact / n_fault if n_fault else 0.0, "share", n_fault),
            "false_alarms": _metric(alarms, "count", n_healthy),
        }
        return metrics, right / (n_fault + n_healthy) if n_fault + n_healthy else 0.0


class HealthyLong(_Diagnosis):
    """One long healthy stream at the trained amplitude."""

    name = "healthy_long"

    def __init__(self, scale: Scale, src: Path, build: Path, work: Path):
        super().__init__(scale, src, build, work)
        self.min_ops = 1

    def inputs(self, seed: int) -> list[Record]:
        rng = np.random.default_rng([seed, _LONG_STREAM])
        series = simulate(self._sim(rng, 1.0), (), self.scale.stream_s)
        self.warm_rows = series.currents()[: self.diag.window_samples]
        return [Record(series=series, truth=NO_FAULT)]

    def summary(self, items, outcomes, walls) -> tuple[dict, float]:
        done = [r for r in outcomes if r is not None]
        windows = sum(len(r.per_window_history) for r in done)
        clean = sum(w.fused.is_normal for r in done for w in r.per_window_history)
        signal_s = self.scale.stream_s * len(walls)
        metrics = {
            "diagnose_ms.p50": _metric(percentile_ms(walls, 50), "ms", len(walls)),
            "rtf": _metric(signal_s / sum(walls) if walls else 0.0, "x", len(walls)),
            "false_alarms": _metric(sum(r.protection_signal for r in done), "count", len(done)),
            "healthy_window_share": _metric(clean / windows if windows else 0.0, "share", windows),
        }
        return metrics, clean / windows if windows else 0.0


WORKLOADS = {w.name: w for w in (Train, Events, HealthyLong)}
