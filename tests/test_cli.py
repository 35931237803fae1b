"""Command line flows on a reduced configuration."""

from __future__ import annotations

import json

import numpy as np
import pytest

from trifault.cli import main, split_class_counts
from trifault.dataset import read_dataset
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
        normal_rows = [b for b in blocks if b.labels[0].is_normal][0].n_rows
        fault_rows = max(b.n_rows for b in blocks if not b.labels[0].is_normal)
        assert normal_rows > fault_rows
        for b in blocks:
            assert len(set(b.labels)) == 1  # one class per block

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
        labels = set(block.labels)
        assert len(labels) == 2  # healthy prefix then the fault


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
        true_counts = {str(b.labels[0]): b.n_rows for b in read_dataset(wider)}
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
        assert record["protection_signal"] is False


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

    def test_bad_class_token(self, tmp_path, capsys):
        code = main(["gen", "--series", "Q9", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_bad_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nope = 1\n")
        code = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("k, line", [(2, ""), (1, "n_trees 0"), (4, "scaler abc")])
    def test_diagnose_refuses_model_with_bad_header_line(
        self, small_env, tmp_path, capsys, k, line
    ):
        lines = small_env["model"].read_text(encoding="ascii").splitlines()
        lines[k] = line
        model = tmp_path / "bad_model.txt"
        model.write_text("\n".join(lines) + "\n", encoding="ascii")
        series = tmp_path / "h.csv"
        assert main(["gen", "--series", "normal", "--duration", "0.2", "--out", str(series)]) == 0
        capsys.readouterr()
        assert main(["diagnose", str(model), str(series)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(line) in err
