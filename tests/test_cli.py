"""Command line flows on a reduced configuration."""

from __future__ import annotations

import json
import math
from unittest import mock

import numpy as np
import pytest

from trifault import cli
from trifault.cli import generate_training_pool, main, split_class_counts
from trifault.config import ExperimentConfig
from trifault.dataset import SeriesBlock, read_dataset, write_dataset
from trifault.simulate import NO_FAULT

SMALL_CFG = "dataset_samples = 2200\ntrain_samples = 1100\nn_trees = 24\ncv_folds = 3\n"


@pytest.fixture(scope="module")
def small_env(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "small.cfg"
    cfg.write_text(SMALL_CFG)
    pool = root / "pool.csv"
    model = root / "model.txt"
    assert main(["gen", "--config", str(cfg), "--out", str(pool)]) == 0
    assert main(["train", str(pool), "--config", str(cfg), "--out", str(model)]) == 0
    return {"root": root, "cfg": cfg, "pool": pool, "model": model}


class TestSplitCounts:
    def test_sums_to_total(self):
        counts = split_class_counts(24000, [4] + [1] * 21)
        assert sum(counts) == 24000
        assert counts[0] > counts[1]
        assert len(set(counts[1:])) == 1

    def test_remainder_spread_to_leading_classes(self):
        counts = split_class_counts(10, [1, 1, 1])
        assert counts == [4, 3, 3]

    def test_every_class_gets_a_row(self):
        counts = split_class_counts(5, [10, 1, 1, 1, 1])
        assert min(counts) >= 1
        assert sum(counts) == 5

    def test_rejects_impossible_total(self):
        with pytest.raises(ValueError):
            split_class_counts(2, [1, 1, 1])


class TestGen:
    def test_pool_counts_and_labels(self, small_env):
        blocks = read_dataset(small_env["pool"])
        assert len(blocks) == 22
        assert sum(b.n_rows for b in blocks) == 2200
        normal_rows = [b for b in blocks if b.labels[0] == 0][0].n_rows
        fault_rows = max(b.n_rows for b in blocks if b.labels[0] != 0)
        assert normal_rows > fault_rows
        for b in blocks:
            assert np.unique(b.labels).size == 1  # one class per block

    def test_each_class_simulates_the_periods_its_rows_need(self):
        # a class whose label k grid samples of a period express needs
        # ceil(n / k) periods for its n rows, and 3 more for the one its
        # fault instant may cut and the edges; on the desk config no class
        # falls short and simulates again. Sized for a double fault in every
        # class, the healthy one simulated 483 periods
        config = ExperimentConfig()
        periods = []
        real = cli.simulate

        def spy(sim_config, timeline, duration):
            periods.append(duration * config.frequency)
            return real(sim_config, timeline, duration)

        with mock.patch.object(cli, "simulate", spy):
            blocks = generate_training_pool(config)
        one_period = np.arange(config.diagnosis_config().window_samples) / config.target_rate
        needed = []
        for label, block in zip(config.classes, blocks):
            k = np.count_nonzero(cli._expressed_mask(label, one_period, config.frequency))
            needed.append(math.ceil(block.n_rows / k) + 3)
        assert needed[0] == math.ceil(3840 / 50) + 3
        assert periods == pytest.approx(needed, abs=1e-9)

    def test_a_class_no_angle_expresses_is_refused(self, tmp_path, capsys):
        # the three upper switches show together only where all three
        # phases are negative, which is nowhere
        cfg = tmp_path / "c.cfg"
        cfg.write_text("classes = normal S1+S3+S5\ndataset_samples = 100\ntrain_samples = 50\n")
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "pool.csv")]) == 2
        assert "no angle expresses it" in capsys.readouterr().err

    def test_deterministic_output(self, small_env, tmp_path):
        out = tmp_path / "pool2.csv"
        assert main(["gen", "--config", str(small_env["cfg"]), "--out", str(out)]) == 0
        assert out.read_bytes() == small_env["pool"].read_bytes()

    def test_seed_flag_changes_output(self, small_env, tmp_path):
        out = tmp_path / "pool3.csv"
        args = ["gen", "--config", str(small_env["cfg"]), "--out", str(out), "--seed", "1"]
        assert main(args) == 0
        assert out.read_bytes() != small_env["pool"].read_bytes()

    def test_single_series_mode(self, tmp_path):
        out = tmp_path / "series.csv"
        args = [
            "gen",
            "--series",
            "S2",
            "--fault-time",
            "0.01",
            "--duration",
            "0.05",
            "--out",
            str(out),
        ]
        assert main(args) == 0
        block = read_dataset(out)[0]
        assert block.n_rows == round(0.05 * 25600)
        assert np.unique(block.labels).size == 2  # healthy prefix then the fault


class TestTrainEval:
    def test_train_reports_accuracy(self, small_env, capsys):
        capsys.readouterr()
        code = main(
            [
                "eval",
                str(small_env["model"]),
                str(small_env["pool"]),
                "--config",
                str(small_env["cfg"]),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "accuracy:" in out
        acc = float(next(ln for ln in out.splitlines() if ln.startswith("accuracy")).split()[-1])
        assert acc > 0.9

    def test_confusion_gives_unseen_true_labels_their_own_row(self, tmp_path, capsys):
        sizes = "dataset_samples = 300\ntrain_samples = 150\nn_trees = 4\n"
        seen_cfg, wider_cfg = tmp_path / "seen.cfg", tmp_path / "wider.cfg"
        seen_cfg.write_text(sizes + "classes = normal S1 S2\n")
        wider_cfg.write_text(sizes + "classes = normal S1 S2 S3\n")
        pool, wider, model = tmp_path / "pool.csv", tmp_path / "wider.csv", tmp_path / "m.txt"
        assert main(["gen", "--config", str(seen_cfg), "--out", str(pool)]) == 0
        assert main(["train", str(pool), "--config", str(seen_cfg), "--out", str(model)]) == 0
        assert main(["gen", "--config", str(wider_cfg), "--out", str(wider)]) == 0
        capsys.readouterr()
        assert main(["eval", str(model), str(wider)]) == 0
        rows = {}
        for line in capsys.readouterr().out.splitlines():
            if line.startswith("  ") and ":" in line:
                label, counts = line.split(":")
                rows[label.strip()] = [int(v) for v in counts.split()]
        true_counts = {f"{b.labels[0]:06b}": b.n_rows for b in read_dataset(wider)}
        assert "001000" in rows
        assert sum(rows["001000"]) == true_counts["001000"]
        assert sum(rows["100000"]) == true_counts["100000"]

    def test_train_rejects_oversized_split(self, small_env, tmp_path, capsys):
        cfg = tmp_path / "oversized.cfg"
        cfg.write_text(SMALL_CFG.replace("train_samples = 1100", "train_samples = 99999"))
        code = main(
            ["train", str(small_env["pool"]), "--config", str(cfg), "--out", str(tmp_path / "m.txt")]
        )
        assert code == 2
        assert "error: train_samples = 99999" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_train_rejects_jobs_below_one(self, small_env, tmp_path, capsys, jobs):
        code = main(
            [
                "train",
                str(small_env["pool"]),
                "--config",
                str(small_env["cfg"]),
                "--out",
                str(tmp_path / "m.txt"),
                "--jobs",
                jobs,
            ]
        )
        assert code == 2
        assert "error: n_jobs must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()


class TestSweep:
    def test_sweep_csv_format(self, small_env, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep-trees",
                str(small_env["pool"]),
                "--config",
                str(small_env["cfg"]),
                "--counts",
                "1,4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n_trees,accuracy"
        assert len(lines) == 3
        for ln in lines[1:]:
            n, acc = ln.split(",")
            assert n in {"1", "4"}
            assert len(acc.split(".")[1]) == 4


class TestDiagnose:
    def test_faulted_series_fires_protection(self, small_env, tmp_path, capsys):
        series = tmp_path / "s.csv"
        assert (
            main(
                [
                    "gen",
                    "--series",
                    "S2",
                    "--fault-time",
                    "0.0",
                    "--duration",
                    "0.2",
                    "--out",
                    str(series),
                ]
            )
            == 0
        )
        capsys.readouterr()
        report_path = tmp_path / "report.jsonl"
        code = main(
            [
                "diagnose",
                str(small_env["model"]),
                str(series),
                "--out",
                str(report_path),
            ]
        )
        assert code == 1  # protection fired
        record = json.loads(report_path.read_text().splitlines()[0])
        assert record["fault_set"] == ["S2"]
        assert record["protection_signal"] is True
        assert record["first_detect_time"] is not None
        assert record["decision_time"] > record["first_detect_time"]

    def test_healthy_series_exits_zero(self, small_env, tmp_path, capsys):
        series = tmp_path / "h.csv"
        assert (
            main(["gen", "--series", "normal", "--duration", "0.2", "--out", str(series)])
            == 0
        )
        capsys.readouterr()
        code = main(["diagnose", str(small_env["model"]), str(series)])
        out = capsys.readouterr().out
        assert code == 0
        record = json.loads(out.splitlines()[0])
        assert record["fault_set"] == []
        assert record["first_detect_time"] is None
        assert record["decision_time"] is None
        assert record["protection_signal"] is False

    def test_all_zero_series_is_refused(self, small_env, tmp_path, capsys):
        t = np.arange(5120) / 25600.0
        zero = np.zeros(t.size)
        labels = np.zeros(t.size, dtype=np.uint8)
        block = SeriesBlock(
            series_id=0, sample_rate=25600.0, fault_timeline=(), t=t, i_a=zero, i_b=zero, i_c=zero, labels=labels
        )
        series = tmp_path / "zero.csv"
        write_dataset(series, [block])
        assert main(["diagnose", str(small_env["model"]), str(series)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: no phase current crosses zero cleanly")

    def test_pool_file_is_refused(self, small_env, capsys):
        # a pool block holds rows picked from a series, off one time grid
        assert main(["diagnose", str(small_env["model"]), str(small_env["pool"])]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: series 0 is not uniformly sampled")


class TestErrorPaths:
    @pytest.mark.parametrize(
        "argv",
        [["train", "--train-count", "5"], ["sweep-trees", "--folds", "3"]],
        ids=["train-count", "folds"],
    )
    def test_config_values_have_no_flag(self, argv, capsys):
        # train_samples and cv_folds come from the config file only
        command, *flag = argv
        with pytest.raises(SystemExit) as exc:
            main([command, "pool.csv", "--out", "out.txt", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_missing_dataset_file(self, tmp_path, capsys):
        code = main(["train", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.txt")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("duration", ["inf", "nan"])
    def test_gen_refuses_non_finite_duration(self, tmp_path, capsys, duration):
        out = tmp_path / "x.csv"
        code = main(["gen", "--series", "S1", "--duration", duration, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: duration")

    def test_bad_class_token(self, tmp_path, capsys):
        code = main(["gen", "--series", "Q9", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        capsys.readouterr()
        assert main(["gen", "--series", "Sx", "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == "error: bad class token 'Sx'\n"
        assert main(["gen", "--series", "S1+S1", "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == "error: switch S1 is named twice\n"
        assert not (tmp_path / "x.csv").exists()

    def test_bad_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nope = 1\n")
        code = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("share", [1.2, 1 / 1.2], ids=["1.2x", "1/1.2x"])
    def test_diagnose_reads_no_amplitude_from_the_config(self, small_env, tmp_path, capsys, share):
        # the calibration target is the model's healthy_rms, so a config
        # amplitude off the trained 16.5 changes nothing
        off = tmp_path / "off.cfg"
        off.write_text(SMALL_CFG + f"amplitude = {16.5 * share!r}\n")
        series = tmp_path / "s.csv"
        assert main(["gen", "--series", "S2", "--fault-time", "0.01", "--out", str(series)]) == 0
        capsys.readouterr()
        outputs = []
        for cfg in (small_env["cfg"], off):
            assert main(["diagnose", str(small_env["model"]), str(series), "--config", str(cfg)]) == 1
            outputs.append(capsys.readouterr().out)
        assert outputs[1] == outputs[0]

    def test_diagnose_refuses_model_trained_without_healthy_rows(self, tmp_path, capsys):
        cfg = tmp_path / "faults.cfg"
        cfg.write_text("classes = S1 S2 S3\ndataset_samples = 300\ntrain_samples = 200\nn_trees = 2\n")
        pool, model, series = tmp_path / "pool.csv", tmp_path / "model.txt", tmp_path / "h.csv"
        assert main(["gen", "--config", str(cfg), "--out", str(pool)]) == 0
        assert main(["train", str(pool), "--config", str(cfg), "--out", str(model)]) == 0
        assert b"\nhealthy_rms none\n" in model.read_bytes()
        assert main(["gen", "--series", "normal", "--duration", "0.2", "--out", str(series)]) == 0
        capsys.readouterr()
        assert main(["diagnose", str(model), str(series)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the model has no healthy_rms")

    @pytest.mark.parametrize("k, line", [(2, ""), (1, "n_trees 0"), (2, "feature_names"), (8, "healthy_rms nan")])
    def test_diagnose_refuses_model_with_bad_header_line(
        self, small_env, tmp_path, capsys, k, line
    ):
        # the ten header lines, then the node columns as bytes
        lines = small_env["model"].read_bytes().split(b"\n", 10)
        lines[k] = line.encode("ascii")
        model = tmp_path / "bad_model.txt"
        model.write_bytes(b"\n".join(lines))
        series = tmp_path / "h.csv"
        assert main(["gen", "--series", "normal", "--duration", "0.2", "--out", str(series)]) == 0
        capsys.readouterr()
        assert main(["diagnose", str(model), str(series)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(line) in err
