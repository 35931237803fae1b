"""Online stage: resampling, debounce, region-gated fusion, latching."""

from __future__ import annotations

import gc
import math
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction
from itertools import chain, repeat
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import REGION_SWITCHES
from trifault.cli import generate_series_block
from trifault.config import ExperimentConfig, default_class_labels
from trifault.dataset import block_to_series
from trifault import diagnosis
from trifault.diagnosis import (
    DiagnosisConfig,
    Diagnoser,
    WindowRecord,
    classify_stream,
    debounce,
    estimate_phase_reference,
    fuse_window,
    resample,
    run_diagnosis,
)
from trifault import forest
from trifault.forest import ForestParams, TrainingSet, predict_batch, train_forest
from trifault.simulate import (
    LABELS,
    NO_FAULT,
    FaultLabel,
    SimConfig,
    TriPhaseSeries,
    region_indices,
    simulate,
)

L1 = FaultLabel.from_switches([1])
L3 = FaultLabel.from_switches([3])
L13 = FaultLabel.from_switches([1, 3])
# a label mask is the label's bit string read as a binary number
M1, M3, M13 = 0b100000, 0b001000, 0b101000
LABEL_OF_MASK = [FaultLabel.from_string(f"{m:06b}") for m in range(64)]


def region_at(theta_deg: float) -> int:
    return int(region_indices(theta_deg))


def debounce_runs(min_run: int, config: DiagnosisConfig):
    """Patch the debounce duration so that config's debounce_run is
    min_run grid samples."""
    return mock.patch.object(diagnosis, "_DEBOUNCE_S", min_run / config.target_rate)


def reference_debounce(labels, min_run):
    """Debounce over a list of runs, one sample at a time: the filter that
    run-length debounce replaced, kept as its reference."""
    labels = list(labels)
    if not labels:
        return []
    runs: list[tuple[object, int]] = []
    for lab in labels:
        if runs and runs[-1][0] == lab:
            runs[-1] = (lab, runs[-1][1] + 1)
        else:
            runs.append((lab, 1))
    out: list = []
    accepted = runs[0][0]
    for k, (lab, length) in enumerate(runs):
        if k == 0 or length >= min_run:
            accepted = lab
        out.extend([accepted] * length)
    return out


def reference_fuse_window(labels, regions) -> FaultLabel:
    """Per-sample fusion of FaultLabels gated by the detectable switches of
    each region index: the fusion that the region mask table replaced."""
    kept = set()
    for lab, region in zip(labels, regions):
        kept |= lab.switches & REGION_SWITCHES[region]
    return FaultLabel.from_switches(kept)


def reference_latch(fused, min_run):
    """The latch state machine of the per-window loop, kept as its
    reference: the index of the window that starts the latching run, or
    None."""
    run_fused = run_len = run_start = 0
    for w, f in enumerate(fused):
        # a run of equal fused masks; a healthy run (mask 0) never latches
        if f != run_fused:
            run_fused, run_len, run_start = f, 0, w
        run_len += 1
        if run_fused and run_len >= min_run:
            return run_start
    return None


def reference_calibrated(rs, start, period, target):
    """The calibration rule period by period over a whole resampled stream,
    kept as the reference of the Diagnoser's block-by-block one: period k
    from the grid row start takes period k - 1's mean and the trained RMS,
    target, over its RMS when both periods pass the check against the
    calibration in force, the first period its own, and the rows before it
    the first period's; a partial period at the end keeps the one in
    force."""
    phases = [rs.i_a, rs.i_b, rs.i_c]
    n = (rs.n_samples - start) // period
    stats = []
    for k in range(n):
        rows = [x[start + k * period : start + (k + 1) * period] for x in phases]
        stats.append(([float(np.mean(x)) for x in rows], [float(np.std(x)) for x in rows]))

    def passes(period_stats, cal):
        (means, stds), (offsets, gains) = period_stats, cal
        rms = [s * g for s, g in zip(stds, gains)]
        return (
            all(abs(m - o) <= 0.2 * s for m, o, s in zip(means, offsets, stds))
            and max(rms) <= 1.5 * min(rms)
            and min(rms) > 0.2 * target
        )

    cal = ([0.0] * 3, [1.0] * 3)
    per_row = []
    for k in range(n):
        before = stats[k - 1] if k else stats[k]
        if passes(before, cal) and passes(stats[k], cal):
            cal = (before[0], [target / s for s in before[1]])
        per_row += [cal] * (period + (start if k == 0 else 0))
    per_row += [cal] * (rs.n_samples - len(per_row))
    offsets = np.array([c[0] for c in per_row])
    gains = np.array([c[1] for c in per_row])
    calibrated = (rs.currents() - offsets) * gains
    return replace(rs, i_a=calibrated[:, 0], i_b=calibrated[:, 1], i_c=calibrated[:, 2])


def reference_run_diagnosis(model, series, config):
    """The per-window loop that whole-stream window arrays replaced, kept
    as its reference: (fault_set, first_detect_time, decision_time,
    protection_signal, per_window_history). The stream is at the
    fundamental frequency, so the calibration period is one window."""
    rs = resample(series, config.target_rate)
    f0 = config.fundamental
    t_zero = estimate_phase_reference(rs, f0)
    ws = config.window_samples
    # a reference before the first sample moves on by whole periods
    start = int(math.ceil((t_zero - float(rs.t[0])) * config.target_rate - 1e-9))
    while start < 0:
        start += ws
    calibrated = reference_calibrated(rs, start, ws, model.healthy_rms)
    masks = np.array(debounce(classify_stream(model, calibrated), config.debounce_run), dtype=np.uint8)
    regions = region_indices(360.0 * f0 * (rs.t - t_zero))
    history, fused = [], []
    for w in range((rs.n_samples - start) // ws):
        lo = start + w * ws
        window = masks[lo : lo + ws]
        fused.append(int(fuse_window(window, regions[lo : lo + ws])))
        history.append(WindowRecord(w, float(rs.t[lo]), window.tobytes(), LABELS[fused[-1]]))
    latched = reference_latch(fused, diagnosis._CONFIRM_WINDOWS)
    if latched is None:
        return frozenset(), None, None, False, tuple(history)
    decided = start + (latched + diagnosis._CONFIRM_WINDOWS) * ws  # the grid row after the run
    decision_time = float(rs.t[0]) + decided / config.target_rate
    return LABELS[fused[latched]].switches, history[latched].start_time, decision_time, True, tuple(history)


class TestConfig:
    def test_fundamental_frequency(self):
        cfg = DiagnosisConfig()
        assert cfg.fundamental == pytest.approx(50.0)
        assert cfg.target_rate == 2500.0 and cfg.window_samples == 50

    @pytest.mark.parametrize("rate, run", [(2500.0, 3), (5000.0, 6), (10000.0, 12), (300.0, 1)])
    def test_the_debounce_is_a_duration(self, rate, run):
        # 1.2 ms of grid samples, and at least one
        assert DiagnosisConfig(target_rate=rate).debounce_run == run
        assert ExperimentConfig(target_rate=rate).diagnosis_config().debounce_run == run

    def test_rejects_upsampling_config(self):
        # the default acquisition rate is 25.6 kHz
        with pytest.raises(ValueError, match="must not exceed sample_rate"):
            ExperimentConfig(target_rate=30000.0)

    def test_rejects_tiny_window(self):
        with pytest.raises(ValueError, match="5-sample window"):
            DiagnosisConfig(target_rate=10000.0, fundamental=2000.0)


class TestRunDiagnosis:
    @staticmethod
    def tiny_model():
        X = np.array([[0.0, 1.0, -1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0], [1.0, -1.0, 0.0]])
        masks = np.array([NO_FAULT.mask, L1.mask, NO_FAULT.mask, L1.mask], dtype=np.uint8)
        train = TrainingSet(X, masks, ("i_a", "i_b", "i_c"))
        return train_forest(train, ForestParams(n_trees=2, seed=1))

    def test_refuses_stream_shorter_than_one_window(self):
        short = simulate(SimConfig(amplitude=16.5), ((0.0, L1),), 0.015)
        with pytest.raises(ValueError, match="one window needs"):
            run_diagnosis(self.tiny_model(), short, DiagnosisConfig())

    @pytest.mark.parametrize(
        "start_deg, first_start, reference",
        [(0.0, 0.0, 0.0), (90.0, 0.015, 0.015), (30.0, 0.02 - 43 / 25600, -43 / 25600)],
    )
    def test_phase_fallback_places_windows_without_a_crossing(self, start_deg, first_start, reference):
        # both switches of phase a open from t = 0 leave it flat: no zero
        # crossing, so the reference falls back to phase b's first clean
        # upward crossing, at 120 degrees. The stream starts with phase a
        # at start_deg; at 90 degrees phase b's first crossing lies too
        # near the start to be clean, and its next one places phase a's
        # 0 degrees 270 degrees (15 ms) into the stream. At 30 degrees (43
        # samples in) phase a's 0 degrees lies before the first sample, so
        # the windows start one period after it. They start at the first
        # grid point at or after first_start, and run whole to the end
        s12 = FaultLabel.from_switches([1, 2])
        series = simulate(SimConfig(amplitude=16.5, leakage=0.0), ((0.0, s12),), 0.1)
        k = round(start_deg / 360.0 * 0.02 * series.sample_rate)
        series = TriPhaseSeries(
            t=series.t[k:], i_a=series.i_a[k:], i_b=series.i_b[k:], i_c=series.i_c[k:],
            sample_rate=series.sample_rate,
        )
        config = DiagnosisConfig()
        t0, step = float(series.t[0]), 1.0 / config.target_rate
        rs = resample(series, config.target_rate)
        assert estimate_phase_reference(rs, 50.0) == pytest.approx(t0 + reference, abs=1e-6)
        history = run_diagnosis(self.tiny_model(), series, config).per_window_history
        start = round((history[0].start_time - t0) / step)
        assert first_start - 1e-12 <= start * step < first_start + step
        assert len(history) == (rs.n_samples - start) // config.window_samples

    def test_refuses_a_model_without_healthy_rms(self):
        # a model trained without healthy rows holds no trained amplitude
        model = replace(self.tiny_model(), healthy_rms=None)
        series = simulate(SimConfig(amplitude=16.5), (), 0.1)
        with mock.patch.object(diagnosis, "classify_stream", side_effect=AssertionError("classified")):
            with pytest.raises(ValueError, match="the model has no healthy_rms"):
                run_diagnosis(model, series, DiagnosisConfig())

    def test_refuses_a_model_of_two_features_when_built(self):
        # refused before any sample is pushed, not after the reference scan
        X = np.array([[0.0, 1.0], [1.0, 0.0], [-1.0, 1.0], [1.0, -1.0]])
        masks = np.array([NO_FAULT.mask, L1.mask, NO_FAULT.mask, L1.mask], dtype=np.uint8)
        model = train_forest(TrainingSet(X, masks, ("i_a", "i_b")), ForestParams(n_trees=2, m_try=1, seed=1))
        with pytest.raises(ValueError, match="expects a 3-feature model"):
            Diagnoser(model, DiagnosisConfig())

    def test_refuses_an_all_zero_stream(self):
        t = np.arange(2560) / 25600.0
        zero = np.zeros(t.size)
        series = TriPhaseSeries(t=t, i_a=zero, i_b=zero, i_c=zero, sample_rate=25600.0)
        with pytest.raises(ValueError, match="no phase current crosses zero cleanly"):
            run_diagnosis(self.tiny_model(), series, DiagnosisConfig())

    def test_s1_s3_from_t0_takes_its_reference_from_phase_c(self, desk_experiment):
        # phase a and b each lose their negative half-cycle from t = 0;
        # phase c's first upward crossing, at 240 degrees, places phase
        # a's 0 degrees one period in
        exp = desk_experiment
        config = exp.config.diagnosis_config()
        series = simulate(exp.config.sim_config(seed=3), ((0.0, L13),), 0.2)
        rs = resample(series, config.target_rate)
        one_sample = 1.0 / config.target_rate
        assert estimate_phase_reference(rs, config.fundamental) == pytest.approx(0.02, abs=one_sample)
        report = run_diagnosis(exp.model, series, config)
        assert report.per_window_history[0].start_time == pytest.approx(0.02, abs=one_sample)
        assert report.fault_set == frozenset({1, 3})

    def test_equal_windows_share_one_masks_object(self, desk_experiment):
        # healthy for 0.2 s past the grid row where the default blocks
        # meet, then S1+S3 for 0.2 s: the blocks meet inside the healthy
        # run, and blocks of 61 rows meet inside most windows
        exp = desk_experiment
        config = exp.config.diagnosis_config()
        t_fault = diagnosis._BLOCK_ROWS / config.target_rate + 0.2
        series = simulate(exp.config.sim_config(seed=4), ((t_fault, L13),), t_fault + 0.2)
        ws = config.window_samples
        for block_rows in (61, diagnosis._BLOCK_ROWS):
            with mock.patch.object(diagnosis, "_BLOCK_ROWS", block_rows):
                history = run_diagnosis(exp.model, series, config).per_window_history
            start = round((history[0].start_time - float(series.t[0])) * config.target_rate)
            across = 0
            for a, b in zip(history, history[1:]):
                assert (a.masks is b.masks) == (a.masks == b.masks)
                blocks = {(start + w.index * ws) // block_rows for w in (a, b)}
                across += a.masks == b.masks and len(blocks) == 2
            assert across, block_rows

    def test_a_long_stream_leaves_one_masks_object(self):
        # 60 s at 10 kHz, S1 open from 1 s, pushed 20 ms at a time: under
        # noise the tiny model's labels differ from window to window (162
        # distinct windows of 2998), and a Diagnoser that kept the masks of
        # each distinct window would hold hundreds
        config = DiagnosisConfig()
        sim = SimConfig(amplitude=16.5, noise_sigma=0.3, sample_rate=10000.0, seed=9)
        series = simulate(sim, ((1.0, L1),), 60.0)
        diagnoser = Diagnoser(self.tiny_model(), config)
        distinct = set()
        for lo in range(0, series.n_samples, 200):
            distinct.update(w.masks for w in diagnoser.push(piece(series, lo, lo + 200)))
        assert len(distinct) > 100 and diagnoser.finish().protection_signal
        state = list(vars(diagnoser).values())
        assert len(held(state, lambda x: isinstance(x, bytes))) <= 1
        assert not held(state, lambda x: isinstance(x, tuple) and x and isinstance(x[0], FaultLabel))

    def test_labels_are_the_masks_looked_up(self, desk_experiment):
        exp = desk_experiment
        report = run_diagnosis(exp.model, faulted_stream(exp), exp.config.diagnosis_config())
        assert {w.fused for w in report.per_window_history} == {NO_FAULT, L13}
        for w in report.per_window_history:
            assert type(w.masks) is bytes and len(w.masks) == exp.config.diagnosis_config().window_samples
            assert w.labels == tuple(LABELS[m] for m in w.masks)

    def test_an_events_record_keeps_little(self, desk_experiment):
        # 0.2 s of S2 at 1.3x the trained load, as a benchmark events record:
        # with a tuple of 200 FaultLabels per window the report kept 15 kB
        exp = desk_experiment
        sim = exp.config.sim_config(seed=11)
        s2 = FaultLabel.from_switches([2])
        series = simulate(replace(sim, amplitude=sim.amplitude * 1.3), ((0.047, s2),), 0.2)
        tracemalloc.start()
        try:
            report = run_diagnosis(exp.model, series, exp.config.diagnosis_config())
            gc.collect()
            with_report = tracemalloc.get_traced_memory()[0]
            n_windows, fault_set = len(report.per_window_history), report.fault_set
            del report
            gc.collect()
            kept = with_report - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert n_windows == 9 and fault_set == frozenset({2})
        assert kept <= 4000

    def test_a_healthy_report_keeps_a_reference_and_a_byte_a_window(self, desk_experiment):
        # 6 s at the trained load, 299 windows with one masks object: a
        # tuple of WindowRecords kept about 115 bytes a window
        exp = desk_experiment
        series = simulate(exp.config.sim_config(seed=5), (), 6.0)
        run_diagnosis(exp.model, series, exp.config.diagnosis_config())  # builds the walk tables
        tracemalloc.start()
        try:
            report = run_diagnosis(exp.model, series, exp.config.diagnosis_config())
            gc.collect()
            with_report = tracemalloc.get_traced_memory()[0]
            n_windows = len(report.per_window_history)
            del report
            gc.collect()
            kept = with_report - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert n_windows == 299
        assert kept <= 20 * n_windows

    def test_a_history_reads_as_the_tuple_of_its_records(self, desk_experiment):
        # pushed in two chunks: each push's history, the two added up and
        # run_diagnosis's agree with the records read one by one
        exp = desk_experiment
        series, config = faulted_stream(exp), exp.config.diagnosis_config()
        diagnoser = Diagnoser(exp.model, config)
        first, second = diagnoser.push(piece(series, 0, 2048)), diagnoser.push(piece(series, 2048, N_RAW))
        report = diagnoser.finish()
        whole = run_diagnosis(exp.model, series, config).per_window_history
        records = tuple(whole[k] for k in range(len(whole)))
        assert len(first) and len(second)
        assert first + second + report.per_window_history == whole == records
        assert whole[-1] == records[-1] and whole[1:] == records[1:]
        assert repr(whole) == repr(records) and hash(whole) == hash(records)
        assert [w.index for w in records] == list(range(len(records)))
        with pytest.raises(ValueError, match="does not follow"):
            second + first

    @pytest.mark.parametrize(
        "name", ["classify_stream", "predict_batch", "debounce", "estimate_phase_reference", "fuse_window"]
    )
    def test_calls_each_traced_stage_through_the_module(self, name):
        # the benchmark's tracer times these stages by wrapping the module
        # globals; a stage the pipeline stops calling through them reads 0
        series = simulate(SimConfig(amplitude=16.5, seed=2), ((0.047, L13),), 0.1)
        with mock.patch.object(diagnosis, name, wraps=getattr(diagnosis, name)) as stage:
            run_diagnosis(self.tiny_model(), series, DiagnosisConfig())
        assert stage.called

    @staticmethod
    def traced_peak(exp, seconds, runs=1, sample_rate=None):
        """Highest traced peak over runs of run_diagnosis on one healthy
        stream with two walking threads, acquired at sample_rate or the
        config's, and the retained bytes and the report of the last."""
        sim = exp.config.sim_config(seed=5)
        series = simulate(replace(sim, sample_rate=sample_rate or sim.sample_rate), (), seconds)
        predict_batch(exp.model, series.currents()[:10])  # builds the walk tables
        peaks = []
        with mock.patch.object(forest, "_cores", lambda: 2):
            for _ in range(runs):
                tracemalloc.start()
                try:
                    report = run_diagnosis(exp.model, series, exp.config.diagnosis_config())
                    gc.collect()
                    retained, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                peaks.append(peak)
        return max(peaks), retained, report

    def test_memory_of_a_six_second_healthy_stream(self, desk_experiment):
        # Traced on the desk model with two walking threads: the peak was
        # 17.7 MB while the forest held a (rows x classes) vote matrix and a
        # scaled copy of the stream, 12.0-12.1 MB voting span by span over
        # the whole resampled stream, and is 9.8 MB diagnosing it block by
        # block; the report kept 0.54 MB with a labels tuple per window,
        # 0.05 MB with equal windows sharing one, and keeps 0.03 MB with
        # each window's masks as bytes.
        peak, retained, report = self.traced_peak(desk_experiment, 6.0)
        assert len(report.per_window_history) == 299 and not report.protection_signal
        assert peak < 11.5e6
        assert retained < 0.2e6

    def test_peak_does_not_grow_with_the_stream(self, desk_experiment):
        # on a 10 kHz grid whole-stream arrays put 12 s at 15.5 MB and 3 s
        # at 9.6 MB; block by block they peak at 9.9 and 9.7 MB. A block's
        # traced peak varies with how the two threads' spans overlap, so
        # each side takes the worst of seven full 16 384-row blocks: the
        # long stream holds seven, and each short run one. The streams are
        # acquired at 10 kHz to keep the long one's input small
        config = desk_experiment.config.diagnosis_config()
        block_s = diagnosis._BLOCK_ROWS / config.target_rate
        long_s, short_s = math.ceil(7 * block_s), math.ceil(block_s)
        long_peak, _, long_report = self.traced_peak(desk_experiment, long_s, sample_rate=10000.0)
        short_peak, _, short_report = self.traced_peak(desk_experiment, short_s, runs=7, sample_rate=10000.0)
        # one window a period from the phase reference, one period in
        for seconds, report in [(long_s, long_report), (short_s, short_report)]:
            assert len(report.per_window_history) == round(seconds * config.fundamental) - 1
        assert long_peak - short_peak < 1e6

    @pytest.mark.parametrize(
        "times, message",
        [
            # once taken for a 2000-row grid and a 9-window report
            (
                {2000: 2001 / 25600, 2001: 2000 / 25600},
                r"2001 has the time t = 0\.078125 s, not after sample 2000 at t = 0\.0781640625 s",
            ),
            # once refused for a NaN grid count, or for a resampled row
            ({-1: np.nan}, r"5119 has the time t = nan s, not finite"),
            ({3000: np.nan}, r"3000 has the time t = nan s, not finite"),
        ],
        ids=["swapped", "last-nan", "nan"],
    )
    @pytest.mark.parametrize("block_rows", [2000, 2001, diagnosis._BLOCK_ROWS])
    def test_refuses_times_that_do_not_increase(self, times, message, block_rows):
        # checked block_rows samples at a time: 2000 and 2001 put the
        # swapped pair on either side of a slice boundary
        series = simulate(SimConfig(amplitude=16.5), (), 0.2)
        for k, t in times.items():
            series.t[k] = t
        message = "acquired sample " + message
        model, config = self.tiny_model(), DiagnosisConfig()
        with mock.patch.object(diagnosis, "_BLOCK_ROWS", block_rows):
            with pytest.raises(ValueError, match=message):
                resample(series, config.target_rate)
            with pytest.raises(ValueError, match=message):
                run_diagnosis(model, series, config)
            # a stream counts its samples from its start
            diagnoser = Diagnoser(model, config)
            diagnoser.push(piece(series, 0, 1000))
            with pytest.raises(ValueError, match=message):
                diagnoser.push(piece(series, 1000, series.n_samples))

    def test_refuses_non_finite_current(self):
        series = simulate(SimConfig(amplitude=16.5), (), 0.1)
        series.i_b[1000] = np.nan
        # the acquired sample is named, not the row of the resampled stream
        with pytest.raises(ValueError, match=r"sample 1000 at t = 0\.0390625 s"):
            run_diagnosis(self.tiny_model(), series, DiagnosisConfig())


def held(value, kind) -> set[int]:
    """ids of the objects for which kind is true that a value holds:
    itself, or in its tuples, lists and dicts, at any depth."""
    if kind(value):
        return {id(value)}
    if isinstance(value, dict):
        value = [*value.keys(), *value.values()]
    if isinstance(value, (tuple, list)):
        return set().union(*(held(x, kind) for x in value))
    return set()


def piece(series, lo, hi):
    """Samples lo..hi - 1 of a series, copied."""
    return TriPhaseSeries(
        t=series.t[lo:hi].copy(), i_a=series.i_a[lo:hi].copy(), i_b=series.i_b[lo:hi].copy(),
        i_c=series.i_c[lo:hi].copy(), sample_rate=series.sample_rate,
    )


# samples of faulted_stream, at 25.6 kHz
N_RAW = 2560


# a stream's load as a share of the trained amplitude, and one phase's
# sensor gain and offset, the offset as a share of the trained amplitude
AS_TRAINED = (1.0, 0, 1.0, 0.0)
# half the trained load: faulted_stream's labels then hold a long run
# after the first one
HALF_LOAD = (0.5, 0, 1.0, 0.0)

# the window and the debounce run on the default grid
WINDOW = DiagnosisConfig().window_samples
DEBOUNCE_RUN = DiagnosisConfig().debounce_run


def faulted_stream(exp, scene=AS_TRAINED):
    """0.1 s that fault S1+S3 in the third period, at the load and with the
    sensor error of scene; on the desk model, as trained, the classifier's
    labels there change in runs shorter than debounce keeps."""
    load, phase, gain, offset = scene
    sim = exp.config.sim_config(seed=7)
    series = simulate(replace(sim, amplitude=sim.amplitude * load), ((0.047, L13),), 0.1)
    name = ("i_a", "i_b", "i_c")[phase]
    return replace(series, **{name: getattr(series, name) * gain + offset * sim.amplitude})


def classified_masks(model, series, config):
    """The masks classify_stream gave run_diagnosis of a series, one per
    grid row."""
    seen = []

    def spy(model, rs):
        seen.append(classify_stream(model, rs))
        return seen[-1]

    with mock.patch.object(diagnosis, "classify_stream", spy):
        run_diagnosis(model, series, config)
    return np.concatenate(seen)


def pushed(model, series, config, cuts):
    """The windows that push returned and the finish() report, by repr, of
    the series pushed in chunks that end before each cut."""
    diagnoser = Diagnoser(model, config)
    bounds = [0, *cuts, series.n_samples]
    windows = []
    for lo, hi in zip(bounds, bounds[1:]):
        windows += diagnoser.push(piece(series, lo, hi))
    return repr(tuple(windows)), repr(diagnoser.finish())


class TestClassifyStream:
    def test_takes_the_stream_stop(self):
        # 64 one-leaf trees: the first 16 vote S1 and the other 48 healthy;
        # the stream keeps the settled leader of the first 16
        codes = np.array([1] * 16 + [0] * 48, dtype=np.int8)
        model = forest.RandomForestModel(
            nodes=forest.NodeTable(np.full(64, -1, dtype=np.int8), np.zeros(64), codes),
            roots=np.arange(64),
            feature_names=("i_a", "i_b", "i_c"),
            healthy_rms=None,
            label_universe=(NO_FAULT, L1),
            params=ForestParams(n_trees=64),
        )
        series = simulate(SimConfig(amplitude=16.5), (), 0.01)
        assert classify_stream(model, series).tolist() == [M1] * series.n_samples
        assert predict_batch(model, series.currents()).tolist() == [NO_FAULT.mask] * series.n_samples

    @pytest.mark.parametrize("timeline", [(), ((0.05, L13),)], ids=["healthy", "S1+S3"])
    def test_desk_labels_are_the_full_forests(self, desk_experiment, timeline):
        exp = desk_experiment
        config = exp.config.diagnosis_config()
        rs = resample(simulate(exp.config.sim_config(seed=61), timeline, 1.0), config.target_rate)
        full = forest._vote_codes(exp.model, rs.currents())
        masks = np.array([lab.mask for lab in exp.model.label_universe], dtype=np.uint8)
        assert np.array_equal(classify_stream(exp.model, rs), masks[np.argmax(full, axis=1)])
        # most rows stop after the first 16 trees
        walked = forest._vote_codes(exp.model, rs.currents(), forest._stream_stop).sum(axis=1)
        assert np.mean(walked == forest._TREE_BLOCK) > 0.5

    @pytest.mark.parametrize("share", [0.5, 1.0, 1.5])
    def test_short_records_at_any_load_keep_the_full_forests_labels(self, desk_experiment, share):
        # 0.2 s records at and off the trained amplitude, healthy and with
        # each fault class from 50 ms: off it many rows stay unsettled past
        # the first looks, so a stop rule that changes labels shows here (a
        # per-look bound of 1e-2 in place of 1e-4 changes two of them)
        exp = desk_experiment
        config = exp.config.diagnosis_config()
        timelines = [()] + [((0.05, label),) for label in default_class_labels() if not label.is_normal]
        for k, timeline in enumerate(timelines):
            sim = exp.config.sim_config(seed=100 + k)
            sim = replace(sim, amplitude=sim.amplitude * share)
            rs = resample(simulate(sim, timeline, 0.2), config.target_rate)
            assert np.array_equal(classify_stream(exp.model, rs), predict_batch(exp.model, rs.currents()))


class TestDiagnoser:
    @settings(max_examples=25, deadline=None)
    @given(
        cuts=st.lists(st.integers(1, N_RAW - 1), max_size=12, unique=True).map(sorted),
        block_rows=st.sampled_from([61, 997, diagnosis._BLOCK_ROWS]),
        confirm=st.sampled_from([1, 2, 3]),
        min_run=st.sampled_from([1, DEBOUNCE_RUN, 37, 250]),
        scene=st.tuples(
            st.floats(0.5, 1.5), st.integers(0, 2), st.floats(0.8, 1.1), st.floats(-0.1, 0.1)
        ),
    )
    @example(cuts=list(range(1, N_RAW)), block_rows=diagnosis._BLOCK_ROWS, confirm=2, min_run=DEBOUNCE_RUN, scene=AS_TRAINED)  # one sample each
    @example(cuts=list(range(300, N_RAW, 300)), block_rows=997, confirm=2, min_run=DEBOUNCE_RUN, scene=AS_TRAINED)  # shorter than a window
    @example(cuts=[500], block_rows=diagnosis._BLOCK_ROWS, confirm=1, min_run=DEBOUNCE_RUN, scene=AS_TRAINED)  # inside the phase-reference scan
    @example(cuts=[1886], block_rows=diagnosis._BLOCK_ROWS, confirm=1, min_run=DEBOUNCE_RUN, scene=AS_TRAINED)  # just after a short label run
    @example(cuts=[256, 267, 1792, 1803], block_rows=61, confirm=1, min_run=DEBOUNCE_RUN, scene=AS_TRAINED)  # one sample before a grid point
    # inside a label run across two window starts, still short at the cut
    @example(cuts=[1077], block_rows=diagnosis._BLOCK_ROWS, confirm=1, min_run=250, scene=HALF_LOAD)
    # half the load and phase b's sensor off; cut just after the reference
    # scan and one row short of the third calibration period's end
    @example(cuts=[1600, 2048], block_rows=997, confirm=2, min_run=DEBOUNCE_RUN, scene=(0.5, 1, 0.85, 0.08))
    def test_any_chunks_give_the_windows_and_report_of_one_push(
        self, desk_experiment, cuts, block_rows, confirm, min_run, scene
    ):
        # the cuts of the examples are pinned by test_the_examples_cut_where_they_say;
        # a debounce run over the window lets an undecided run span a
        # whole window and a push, as at the cut of 1077
        exp = desk_experiment
        series = faulted_stream(exp, scene)
        config = exp.config.diagnosis_config()
        with (
            mock.patch.object(diagnosis, "_CONFIRM_WINDOWS", confirm),
            debounce_runs(min_run, config),
        ):
            whole = pushed(exp.model, series, config, [])
            with mock.patch.object(diagnosis, "_BLOCK_ROWS", block_rows):
                assert pushed(exp.model, series, config, cuts) == whole

    def test_the_examples_cut_where_they_say(self, desk_experiment):
        exp = desk_experiment
        series = faulted_stream(exp)
        config = exp.config.diagnosis_config()
        rs = resample(series, config.target_rate)
        masks = classified_masks(exp.model, series, config)
        assert series.n_samples == N_RAW and config.window_samples == 50
        # sample 500 comes before the last grid point the reference scans
        assert series.t[500] < rs.t[2 * 50]
        # the cut at 1886 puts grid point 184 last before it: a one-point
        # run, which the debounce suppresses
        assert rs.t[184] <= series.t[1885] < rs.t[185]
        assert masks[183] != masks[184] != masks[185]
        assert 1 < DEBOUNCE_RUN
        # each cut leaves a grid point one sample ahead, on a sample or
        # between two
        for cut, k in [(256, 25), (267, 26), (1792, 175), (1803, 176)]:
            assert series.t[cut - 1] < rs.t[k] <= series.t[cut]
        assert rs.t[25] == series.t[256] and rs.t[175] == series.t[1792]
        # at half the load, the cut at 1077 ends the first push at grid
        # point 105, inside the 82-point run from 27 across the window
        # starts 51 and 101: the 79 points seen are short of a debounce run
        # of 250, and the window that ends at 101 must wait for the run to
        # be decided
        assert rs.t[105] <= series.t[1076] < rs.t[106]
        half = faulted_stream(exp, HALF_LOAD)
        starts, lengths = diagnosis._runs(classified_masks(exp.model, half, config))
        assert (27, 82) in zip(starts.tolist(), lengths.tolist())
        diagnoser = Diagnoser(exp.model, config)
        diagnoser.push(half)
        assert diagnoser._start == 51
        # the reference scan holds 157 grid points, and the calibration
        # periods run 50 points each from the first window's start at
        # 51: the cut at 1600 comes just after point 156, the scan's last,
        # the cut at 2048 between the points 199 and 200, one short of the
        # third period's end, and the last period, from 201, is partial at
        # the end
        diagnoser = Diagnoser(exp.model, config)
        diagnoser.push(piece(series, 0, 1600))
        assert diagnoser._scan_rows() == 157 and rs.t[156] <= series.t[1599] < rs.t[157]
        assert (diagnoser._start, diagnoser._period) == (51, 50)
        assert rs.t[199] <= series.t[2047] < rs.t[200] and rs.n_samples == 250
        # confirm 2 latches across a cut between windows, confirm 3 never
        report = run_diagnosis(exp.model, series, config)
        assert [w.fused for w in report.per_window_history] == [NO_FAULT, L13, L13]
        assert report.per_window_history[0].start_time == rs.t[51]

    @pytest.mark.parametrize("min_run", [DEBOUNCE_RUN, 250])
    def test_the_carry_stays_bounded(self, desk_experiment, min_run):
        # what a Diagnoser carries between pushes is the rest of a window and
        # the last label run, which is undecided while shorter than min_run,
        # and the rows of a calibration period that is not yet whole
        exp = desk_experiment
        config = exp.config.diagnosis_config()
        series = simulate(exp.config.sim_config(seed=7), ((0.047, L13),), 0.5)
        step = round(0.02 * series.sample_rate)
        diagnoser = Diagnoser(exp.model, config)
        windows = 0
        with debounce_runs(min_run, config):
            for lo in range(0, series.n_samples, step):
                windows += len(diagnoser.push(piece(series, lo, lo + step)))
                if windows:
                    assert diagnoser._tail.size < config.window_samples + min_run
                    assert diagnoser._rows[0].size < diagnoser._period
            windows += len(diagnoser.finish().per_window_history)
        assert windows == 23

    def test_refusals_of_a_stream(self, desk_experiment):
        exp = desk_experiment
        series = faulted_stream(exp)
        config = exp.config.diagnosis_config()
        diagnoser = Diagnoser(exp.model, config)
        diagnoser.push(piece(series, 0, 1000))
        with pytest.raises(ValueError, match=r"starting at t = 0\.0390234375 s does not follow"):
            diagnoser.push(piece(series, 999, 2000))
        # the acquired sample is counted from the start of the stream
        bad = piece(series, 1000, 2000)
        bad.i_a[500] = np.nan
        with pytest.raises(ValueError, match=r"acquired sample 1500 at t = 0\.05859375 s"):
            diagnoser.push(bad)
        one = Diagnoser(exp.model, config)
        one.push(piece(series, 0, 1))
        with pytest.raises(ValueError, match="at least 2 samples"):
            one.finish()
        slow = replace(piece(series, 0, 100), sample_rate=config.target_rate / 2)
        with pytest.raises(ValueError, match="does not upsample"):
            Diagnoser(exp.model, config).push(slow)

    def test_the_stream_ends_with_finish(self, desk_experiment):
        # finish() decided the last label run; a push after it would carry
        # on from that state and could give other windows
        exp = desk_experiment
        series = faulted_stream(exp)
        diagnoser = Diagnoser(exp.model, exp.config.diagnosis_config())
        diagnoser.push(piece(series, 0, 1300))
        diagnoser.finish()
        for later in (piece(series, 1300, N_RAW), piece(series, 1300, 1300)):
            with pytest.raises(ValueError, match="the stream has ended"):
                diagnoser.push(later)
        with pytest.raises(ValueError, match="the stream has ended"):
            diagnoser.finish()


def spied_inputs(model, series, config):
    """run_diagnosis of a series, and the currents it handed classify_stream."""
    seen = []

    def spy(model, rs):
        seen.append(rs.currents())
        return classify_stream(model, rs)

    with mock.patch.object(diagnosis, "classify_stream", spy):
        report = run_diagnosis(model, series, config)
    return report, np.concatenate(seen)


# a known defect: at light load a phase with a sensor offset never
# calibrates; the mend turns these cases into an XPASS, which fails
ITEM_1_OPEN = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: the first calibration is checked against offset 0 and gain 1",
)


# the light-load offset cases that the 2.5 kHz grid and pool diagnose
# right, as (seed, phase, sign)
LIGHT_LOAD_RIGHT = {(0, "b", 1), (0, "c", -1), (1, "b", 1), (1, "c", -1), (2, "b", 1), (3, "b", 1), (4, "b", 1), (4, "c", -1)}


def offset_cases():
    """(seed, phase, sign, load) of the healthy offset records: at 0.6x
    load a known defect, but for LIGHT_LOAD_RIGHT."""
    for load in (0.6, 1.0):
        for case in [(s, p, g) for s in range(5) for p in "abc" for g in (1, -1)]:
            open_defect = load == 0.6 and case not in LIGHT_LOAD_RIGHT
            yield pytest.param(*case, load, marks=ITEM_1_OPEN if open_defect else ())


def offset_record(exp, seed, load, phase, sign, timeline):
    """A 0.2 s record at load times the trained amplitude, with 10 % of the
    trained amplitude added to one phase's current, as a sensor offset."""
    sim = exp.config.sim_config(seed=seed)
    series = simulate(replace(sim, amplitude=sim.amplitude * load), timeline, 0.2)
    current = getattr(series, f"i_{phase}")
    return replace(series, **{f"i_{phase}": current + sign * 0.1 * exp.model.healthy_rms * math.sqrt(2.0)})


class TestCalibration:
    def test_an_events_block_at_any_load(self, desk_experiment):
        # the benchmark's events mix in one block: each of the 21 fault
        # classes in its own 60-degree region after the reference scan, a
        # healthy record after every third, 0.2 s each, at loads spread
        # over 0.5-1.5x the trained one. Taken as they are, about a third
        # of these records come out right
        exp = desk_experiment
        config = exp.config.diagnosis_config()
        faults = [label for label in default_class_labels() if not label.is_normal]
        wrong = []
        for k in range(28):
            sim = exp.config.sim_config(seed=300 + k)
            sim = replace(sim, amplitude=sim.amplitude * (0.5 + ((11 * k) % 28 + 0.5) / 28))
            if k % 4 == 3:
                truth, timeline = NO_FAULT, ()
            else:
                j = k - k // 4  # faults so far
                truth = faults[j]
                timeline = (((2.0 + (j % 6 + 0.5) / 6.0) / config.fundamental, truth),)
            report = run_diagnosis(exp.model, simulate(sim, timeline, 0.2), config)
            if report.fault_set != truth.switches:
                wrong.append((str(truth), round(sim.amplitude, 2), sorted(report.fault_set)))
        assert wrong == []

    def test_a_series_faulted_from_the_start_is_taken_as_it_is(self, desk_experiment):
        # no period passes the check, so the classifier gets the resampled
        # currents bit for bit, offset 0 and gain 1, whatever the load
        exp = desk_experiment
        config = exp.config.diagnosis_config()
        faults = [label for label in default_class_labels() if not label.is_normal]
        for k, label in enumerate(faults):
            sim = exp.config.sim_config(seed=400 + k)
            sim = replace(sim, amplitude=sim.amplitude * (0.7 if k % 2 else 1.3))
            series = simulate(sim, ((0.0, label),), 0.1)
            _, inputs = spied_inputs(exp.model, series, config)
            assert np.array_equal(inputs, resample(series, config.target_rate).currents()), str(label)

    def test_a_noise_only_period_sets_no_gain(self, desk_experiment):
        # at half the trained load, one stream idle for its first period and
        # one idle from 0.101 s to 0.201 s, 10 rows into the fifth
        # calibration period, carry only the measurement noise there; a
        # gain taken over an idle period would lift the noise to the
        # trained amplitude, about 290 times. With no load drift and no
        # ripple the whole healthy periods leave offsets near 0, so the
        # whole idle periods pass the check on the means and only the RMS
        # floor holds them back
        exp = desk_experiment
        config = exp.config.diagnosis_config()
        sim = exp.config.sim_config(seed=12)
        sim = replace(sim, amplitude=sim.amplitude / 2, amplitude_drift=0.0, ripple_amplitude=0.0)
        for idle_from, idle_to in [(0.0, 0.02), (0.101, 0.201)]:
            rng = np.random.default_rng(12)
            series = simulate(sim, (), 0.3)
            idle = (series.t >= idle_from) & (series.t < idle_to)
            for x in (series.i_a, series.i_b, series.i_c):
                x[idle] = rng.normal(0.0, sim.noise_sigma, idle.sum())
            _, inputs = spied_inputs(exp.model, series, config)
            rs = resample(series, config.target_rate)
            # the grid rows at either end mix a busy sample in
            idle_rows = inputs[(rs.t >= idle_from + 2e-4) & (rs.t < idle_to - 2e-4)]
            assert np.abs(idle_rows).max() < 1.0, idle_from
            # two periods on, the rest is taken to the trained amplitude
            busy = inputs[rs.t >= idle_to + 0.04]
            assert np.sqrt(np.mean(busy**2)) == pytest.approx(sim.amplitude * 2 / math.sqrt(2), rel=0.05)

    @pytest.mark.parametrize("frequency", [45.0, 55.0])
    def test_off_frequency_faults_get_their_exact_sets(self, desk_experiment, frequency):
        # the calibration period is measured in the reference scan, as a
        # whole number of grid samples: within one of the true period,
        # which at 45 Hz on the 2.5 kHz grid is 55.56 samples, so that a
        # crossing's drift of 0.02 ms rounds it either way. Every class,
        # faulted 0.5 s into a stream 10 % off the fundamental
        exp = desk_experiment
        config = exp.config.diagnosis_config()
        period = config.target_rate / frequency
        wrong = []
        for k, label in enumerate(default_class_labels()):
            sim = replace(exp.config.sim_config(seed=200 + k), frequency=frequency)
            series = simulate(sim, () if label.is_normal else ((0.5, label),), 0.6)
            diagnoser = Diagnoser(exp.model, config)
            diagnoser.push(series)
            assert abs(diagnoser._period - period) < 1
            if diagnoser.finish().fault_set != label.switches:
                wrong.append(str(label))
        assert wrong == []

    def test_decision_time_ends_the_latching_window(self, desk_experiment):
        # criterion 6's record: S1+S3 at 40 ms latches on two windows, so
        # the decision comes two periods after the first of them starts
        exp = desk_experiment
        config = exp.config.diagnosis_config()
        block = generate_series_block(exp.config, L13, 0.04, 0.2)
        report = run_diagnosis(exp.model, block_to_series(block), config)
        assert diagnosis._CONFIRM_WINDOWS == 2 and report.fault_set == frozenset({1, 3})
        assert report.decision_time == pytest.approx(report.first_detect_time + 2 / config.fundamental, abs=1e-12)
        healthy = generate_series_block(exp.config, NO_FAULT, 0.0, 0.2)
        assert run_diagnosis(exp.model, block_to_series(healthy), config).decision_time is None

    @pytest.mark.parametrize("seed, phase, sign, load", offset_cases())
    def test_a_healthy_record_with_a_sensor_offset_raises_no_alarm(self, desk_experiment, load, seed, phase, sign):
        exp = desk_experiment
        series = offset_record(exp, seed, load, phase, sign, ())
        assert run_diagnosis(exp.model, series, exp.config.diagnosis_config()).fault_set == frozenset()

    @ITEM_1_OPEN
    @pytest.mark.parametrize("seed, sign", [(s, g) for s in range(3) for g in (1, -1)])
    def test_s1_with_a_sensor_offset_at_light_load_gets_its_exact_set(self, desk_experiment, seed, sign):
        exp = desk_experiment
        series = offset_record(exp, seed, 0.6, "a", sign, ((0.05, L1),))
        assert run_diagnosis(exp.model, series, exp.config.diagnosis_config()).fault_set == {1}


class TestLowLeakage:
    def test_faults_at_low_leakage_mostly_get_their_exact_sets(self, desk_experiment):
        # each fault class in each 60-degree region after the reference
        # scan, 0.2 s records at the trained load, with the open switches
        # leaking 0, 2 and 5 % of the healthy current; the model is
        # trained at 12 %. On a 10 kHz grid and pool 47 of the 378 were
        # wrong, on the 2.5 kHz ones 2, each a superset of the right set
        exp = desk_experiment
        config = exp.config.diagnosis_config()
        faults = [label for label in default_class_labels() if not label.is_normal]
        wrong = []
        for leakage in (0.0, 0.02, 0.05):
            for k, label in enumerate(faults):
                for region in range(6):
                    sim = replace(exp.config.sim_config(seed=500 + 6 * k + region), leakage=leakage)
                    t_fault = (2.0 + (region + 0.5) / 6.0) / config.fundamental
                    report = run_diagnosis(exp.model, simulate(sim, ((t_fault, label),), 0.2), config)
                    if report.fault_set != label.switches:
                        wrong.append((leakage, str(label), region, sorted(report.fault_set)))
        assert len(wrong) <= 11, wrong


class TestRunDiagnosisMatchesReference:
    def test_every_class_at_varied_load_and_fault_instant(self, desk_experiment):
        exp = desk_experiment
        config = exp.config.diagnosis_config()
        for k, label in enumerate(default_class_labels()):
            # fault instants spread over the period, load from 0.5x to 1.5x
            sim = exp.config.sim_config(seed=k)
            sim = replace(sim, amplitude=sim.amplitude * (0.5 + k / 21))
            timeline = () if label.is_normal else ((0.021 + 0.0017 * k, label),)
            series = simulate(sim, timeline, 0.1)
            for confirm in (1, 2, 3):
                with mock.patch.object(diagnosis, "_CONFIRM_WINDOWS", confirm):
                    report = run_diagnosis(exp.model, series, config)
                    got = (
                        report.fault_set,
                        report.first_detect_time,
                        report.decision_time,
                        report.protection_signal,
                        report.per_window_history,
                    )
                    assert got == reference_run_diagnosis(exp.model, series, config), (str(label), confirm)


class TestResample:
    def test_twenty_ms_downsample_yields_exactly_200(self):
        s = simulate(SimConfig(amplitude=1.0, sample_rate=25600.0), (), 0.02)
        assert s.n_samples == 512
        rs = resample(s, 10000.0)
        assert rs.n_samples == 200
        assert rs.sample_rate == 10000.0

    def test_equal_rate_is_identity(self):
        s = simulate(SimConfig(amplitude=2.0, noise_sigma=0.03, seed=1), (), 0.03)
        rs = resample(s, s.sample_rate)
        assert np.array_equal(rs.i_a, s.i_a)
        assert np.array_equal(rs.t, s.t)

    def test_refuses_upsampling(self):
        s = simulate(SimConfig(amplitude=1.0, sample_rate=10000.0), (), 0.02)
        with pytest.raises(ValueError):
            resample(s, 25600.0)

    def test_linear_interpolation_on_ramp(self):
        s = simulate(SimConfig(amplitude=1.0, sample_rate=20000.0), (), 0.01)
        rs = resample(s, 5000.0)
        # a sine sampled this densely is locally linear; spot-check grid values
        assert np.allclose(rs.t, np.arange(rs.n_samples) / 5000.0, atol=1e-12)
        assert np.allclose(rs.i_a, np.interp(rs.t, s.t, s.i_a), atol=1e-15)

    @pytest.mark.parametrize(
        "n, rate", [(30, 25600.0), (58, 25600.0), (59, 12800.0), (115, 12800.0), (117, 6400.0)]
    )
    def test_the_grid_runs_up_to_the_last_sample(self, n, rate):
        # (n - 1) / 25600 * rate, the span in grid steps, is a whole number
        # that floating point can round just below it
        t = np.arange(n) / 25600.0
        s = TriPhaseSeries(t=t, i_a=np.sin(t), i_b=np.cos(t), i_c=-np.sin(t), sample_rate=25600.0)
        rs = resample(s, rate)
        assert rs.n_samples == math.floor(Fraction(n - 1, 25600) * Fraction(rate)) + 1
        assert rs.t[-1] <= t[-1] < rs.t[-1] + 1.0 / rate
        if rate == s.sample_rate:
            assert np.array_equal(rs.t, t) and np.array_equal(rs.i_b, s.i_b)

    def test_keeps_fault_timeline(self):
        s = simulate(SimConfig(amplitude=1.0), ((0.01, L1),), 0.04)
        rs = resample(s, 10000.0)
        assert rs.fault_timeline == s.fault_timeline

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_non_finite_current(self, bad):
        s = simulate(SimConfig(amplitude=1.0), (), 0.02)
        s.i_c[7] = bad
        with pytest.raises(ValueError, match="acquired sample 7 at t = 0.0002734375 s"):
            resample(s, 10000.0)

    def test_huge_finite_currents_are_kept(self):
        # their sums overflow, which alone does not make a sample non-finite
        t = np.arange(64) / 25600.0
        big = np.full(t.size, 1.7e308)
        s = TriPhaseSeries(t=t, i_a=big, i_b=-big, i_c=big, sample_rate=25600.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resample(s, 25600.0).i_b.tolist() == (-big).tolist()

    def test_rejects_too_short_series(self):
        one = np.zeros(1)
        s = TriPhaseSeries(t=one, i_a=one, i_b=one, i_c=one, sample_rate=25600.0)
        with pytest.raises(ValueError, match="at least 2 samples"):
            resample(s, 10000.0)


class TestDebounce:
    def test_short_runs_replaced_by_previous_accepted(self):
        labs = [NO_FAULT] * 6 + [L1] * 2 + [NO_FAULT] * 6
        out = debounce(labs, 5)
        assert out == [NO_FAULT] * 14

    def test_long_runs_accepted(self):
        labs = [NO_FAULT] * 6 + [L1] * 5 + [NO_FAULT] * 6
        out = debounce(labs, 5)
        assert out == [NO_FAULT] * 6 + [L1] * 5 + [NO_FAULT] * 6

    def test_first_run_always_accepted(self):
        labs = [L1] * 2 + [NO_FAULT] * 8
        assert debounce(labs, 5)[:2] == [L1] * 2

    def test_preserves_length(self):
        rng = np.random.default_rng(31)
        alphabet = [NO_FAULT, L1, L3, L13]
        for _ in range(200):
            labs = [alphabet[k] for k in rng.integers(0, 4, size=int(rng.integers(1, 60)))]
            assert len(debounce(labs, int(rng.integers(1, 7)))) == len(labs)

    def test_idempotent(self):
        rng = np.random.default_rng(32)
        alphabet = [NO_FAULT, L1, L3, L13]
        for _ in range(500):
            labs = [alphabet[k] for k in rng.integers(0, 4, size=int(rng.integers(1, 60)))]
            min_run = int(rng.integers(1, 7))
            once = debounce(labs, min_run)
            assert debounce(once, min_run) == once

    def test_min_run_one_is_identity(self):
        labs = [L1, NO_FAULT, L3, L3, NO_FAULT]
        assert debounce(labs, 1) == labs

    def test_empty_input(self):
        assert debounce([], 5) == []

    def test_a_uint8_array_comes_back_as_one(self):
        masks = np.array([0, 0, 0, M1, 0, 0, 0, M3, M3, M3], dtype=np.uint8)
        out = debounce(masks, 3)
        assert isinstance(out, np.ndarray) and out.dtype == np.uint8
        assert out.tolist() == [0] * 7 + [M3] * 3
        assert isinstance(debounce(masks.astype(np.int64), 3), list)


class TestFuseWindow:
    def test_gates_by_region_membership(self):
        # S1 is undetectable where phase a is positive, detectable where negative
        region_pos = region_at(30.0)  # phase a positive here
        region_neg = region_at(210.0)  # phase a negative here
        assert fuse_window([M1, M1], [region_pos, region_neg]) == M1
        assert fuse_window([M1], [region_pos]) == 0

    def test_multi_switch_label_contributes_per_switch(self):
        region = region_at(330.0)  # S1 and S3 both detectable here
        assert fuse_window([M13], [region]) == M13
        region_s3_only = region_at(30.0)
        assert fuse_window([M13], [region_s3_only]) == M3

    def test_normal_labels_skipped(self):
        region = region_at(210.0)
        assert fuse_window([0, 0], [region, region]) == 0

    def test_accumulates_across_samples(self):
        regions = [region_at(30.0), region_at(210.0)]
        assert fuse_window([M3, M1], regions) == M13

    def test_rejects_misaligned_inputs(self):
        with pytest.raises(ValueError, match="misaligned"):
            fuse_window([M1], [])

    def test_fuses_every_row_of_a_window_array(self):
        rng = np.random.default_rng(17)
        masks = rng.integers(0, 64, size=(9, 12)).astype(np.uint8)
        regions = rng.integers(0, 6, size=(9, 12))
        per_row = [fuse_window(m, r) for m, r in zip(masks, regions)]
        assert fuse_window(masks, regions).tolist() == per_row


# 26 periods of a healthy stream acquired at the default classifier rate,
# so that its grid is its samples: 25 or 24 whole windows after the phase
# reference, near one period in
LATCH_STREAM = simulate(SimConfig(amplitude=16.5, sample_rate=DiagnosisConfig().target_rate), (), 0.52)
# the model of a Diagnoser whose classify_stream is patched: no tree is
# walked, the calibration reads only the trained RMS, LATCH_STREAM's, and
# the Diagnoser checks that it reads the three phase currents
UNWALKED_MODEL = SimpleNamespace(healthy_rms=16.5 / math.sqrt(2.0), n_features=3)


class TestLatch:
    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(st.sampled_from([0, M1, M3, M13]), min_size=1, max_size=24),
        st.integers(min_value=1, max_value=4),
        st.lists(st.integers(1, LATCH_STREAM.n_samples - 1), max_size=8, unique=True).map(sorted),
    )
    @example([0, 0, 0, 0], 1, [])  # all healthy
    @example([M1, M1, 0, 0, M3, M3], 3, [])  # the run that would latch is cut off at the end
    @example([M1, M1, 0, M1, M1], 3, [])  # a healthy run between equal faulted runs
    @example([M1, M1, 0, M1, M1, M1], 3, list(range(2 * WINDOW, 10 * WINDOW, WINDOW)))  # a push per window
    def test_matches_window_loop(self, fused, min_run, cuts):
        # the windows fuse to the drawn masks, then to 0; classify_stream
        # is patched, so no model is walked
        masks = chain(fused, repeat(0))
        bounds = [0, *cuts, LATCH_STREAM.n_samples]
        diagnoser = Diagnoser(UNWALKED_MODEL, DiagnosisConfig())
        with (
            mock.patch.object(diagnosis, "_CONFIRM_WINDOWS", min_run),
            mock.patch.object(diagnosis, "classify_stream", lambda _, rs: np.zeros(rs.n_samples, np.uint8)),
            mock.patch.object(diagnosis, "fuse_window", lambda w, _: np.array([next(masks) for _ in w], np.uint8)),
        ):
            windows = [w for lo, hi in zip(bounds, bounds[1:]) for w in diagnoser.push(piece(LATCH_STREAM, lo, hi))]
            report = diagnoser.finish()
        windows += report.per_window_history
        assert len(windows) >= len(fused)
        expected = reference_latch(fused, min_run)
        if expected is None:
            assert report.first_detect_time is None and report.fault_set == frozenset()
        else:
            assert report.first_detect_time == windows[expected].start_time
            assert report.fault_set == LABELS[fused[expected]].switches


class TestDebounceAcrossChunks:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from([0, M1, M3, M13]), st.integers(1, 300)), min_size=1, max_size=40),
        st.sampled_from([1, 5, 37, 250]),
        st.lists(st.integers(1, LATCH_STREAM.n_samples - 1), max_size=8, unique=True).map(sorted),
    )
    # a run across the first window's start at 50, short at a cut after
    # that window's end and long in the end
    @example([(0, 40), (M1, 300)], 250, [105])
    def test_any_chunks_debounce_the_whole_stream(self, runs, min_run, cuts):
        # the classifier gives the drawn runs, then healthy masks; the grid
        # is the acquired samples, so no model is walked
        masks = np.concatenate([np.full(n, m, np.uint8) for m, n in runs])
        masks = np.concatenate((masks, np.zeros(LATCH_STREAM.n_samples, np.uint8)))

        def classified(_, rs):
            return masks[np.rint((rs.t - LATCH_STREAM.t[0]) * rs.sample_rate).astype(int)]

        config = DiagnosisConfig()
        with (
            mock.patch.object(diagnosis, "classify_stream", classified),
            debounce_runs(min_run, config),
        ):
            whole = pushed(UNWALKED_MODEL, LATCH_STREAM, config, [])
            assert pushed(UNWALKED_MODEL, LATCH_STREAM, config, cuts) == whole
            history = run_diagnosis(UNWALKED_MODEL, LATCH_STREAM, config).per_window_history
        start = round((history[0].start_time - LATCH_STREAM.t[0]) * config.target_rate)
        expected = debounce(masks[: LATCH_STREAM.n_samples], min_run)[start:].tolist()
        got = [m for w in history for m in w.masks]
        assert got == expected[: len(got)]


class TestMaskPipelineMatchesReference:
    def test_mask_order_is_sorted_label_order(self):
        assert sorted(LABEL_OF_MASK) == LABEL_OF_MASK
        assert [int(str(lab), 2) for lab in LABEL_OF_MASK] == list(range(64))

    def test_random_streams(self):
        rng = np.random.default_rng(20261018)
        seen = set()
        for _ in range(1500):
            # a few distinct masks per stream, so that runs of every length
            # occur; over the trials every one of the 64 masks is drawn
            alphabet = rng.choice(64, size=int(rng.integers(1, 9)), replace=False)
            masks = alphabet[rng.integers(0, alphabet.size, size=int(rng.integers(0, 81)))]
            masks = masks.astype(np.uint8)
            labels = [LABEL_OF_MASK[m] for m in masks]
            seen.update(masks.tolist())
            min_run = int(rng.integers(1, 9))

            expected = reference_debounce(labels, min_run)
            assert debounce(labels, min_run) == expected
            assert [LABEL_OF_MASK[m] for m in debounce(masks, min_run)] == expected

            regions = rng.integers(0, 6, size=masks.size)
            fused = reference_fuse_window(labels, regions)
            assert LABEL_OF_MASK[fuse_window(masks, regions)] == fused
        assert len(seen) == 64

    def test_debounce_refuses_non_1d_input(self):
        with pytest.raises(ValueError, match="1-D"):
            debounce(np.zeros((2, 3), dtype=np.uint8), 2)
        with pytest.raises(ValueError, match="1-D"):
            debounce(M1, 2)


class TestPhaseReference:
    def test_clean_sine_crossing_at_period_boundary(self):
        s = simulate(SimConfig(amplitude=16.5), (), 0.1)
        t_zero = estimate_phase_reference(s, 50.0)
        assert t_zero is not None
        # the first interior upward crossing with clean swings sits at one period
        assert t_zero == pytest.approx(0.02, abs=2e-4)

    def test_noise_tolerant(self):
        s = simulate(SimConfig(amplitude=16.5, noise_sigma=0.05, seed=3), (), 0.1)
        t_zero = estimate_phase_reference(s, 50.0)
        assert t_zero is not None
        assert t_zero == pytest.approx(0.02, abs=5e-4)

    @pytest.mark.parametrize("rate", [300.0, 350.0])
    def test_six_or_seven_samples_per_period(self, rate):
        # a period of 6 or 7 samples still swings one sample either side
        s = resample(simulate(SimConfig(amplitude=16.5), (), 0.1), rate)
        assert estimate_phase_reference(s, 50.0) == pytest.approx(0.02, abs=1e-9)

    def test_flat_signal_returns_none(self):
        t = np.arange(1000) / 10000.0
        flat = np.zeros(t.size)
        s = TriPhaseSeries(t=t, i_a=flat, i_b=flat + 1.0, i_c=flat - 1.0, sample_rate=10000.0)
        assert estimate_phase_reference(s, 50.0) is None
