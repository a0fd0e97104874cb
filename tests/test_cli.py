import csv
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from rigcn import cli, data, geom, model, nnet

ROOT = Path(__file__).resolve().parent.parent


def write_config(tmp_path, name="cfg.json", **overrides):
    payload = {
        "experiment_id": "t",
        "seed": 3,
        "out_dir": str(tmp_path / "out"),
        "model": {
            "num_points": 64,
            "num_classes": 3,
            "levels": 2,
            "level_sizes": [16, 6],
            "channels": [8, 16],
            "k_range": [4, 6],
            "d_range": [1, 2],
            "khat_range": [3, 5],
            "g_hidden": 6,
            "classifier_hidden": 12,
        },
        "dataset": {
            "kind": "synthetic",
            "classes": ["sphere", "cube", "torus"],
            "instances_per_class": 5,
            "points_per_cloud": 64,
        },
        "training": {"epochs": 2, "learning_rate": 1e-3, "train_rotation": "z", "test_rotation": "so3"},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(payload.get(key), dict):
            payload[key].update(value)
        else:
            payload[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


# config.json as ``train`` echoes write_config(out_dir="out") with 0 epochs.
CONFIG_ECHO = """\
{
  "dataset": {
    "classes": [
      "sphere",
      "cube",
      "torus"
    ],
    "instances_per_class": 5,
    "kind": "synthetic",
    "path": null,
    "points_per_cloud": 64,
    "scale_jitter": [
      0.7,
      1.3
    ],
    "train_fraction": 0.8
  },
  "deterministic": false,
  "experiment_id": "t",
  "model": {
    "abstraction": "gcn",
    "channels": [
      8,
      16
    ],
    "classifier_hidden": 12,
    "d_range": [
      1,
      2
    ],
    "g_hidden": 6,
    "k_range": [
      4,
      6
    ],
    "khat_range": [
      3,
      5
    ],
    "level_sizes": [
      16,
      6
    ],
    "levels": 2,
    "num_classes": 3,
    "num_points": 64,
    "seed": 3,
    "stochastic_d": true,
    "stochastic_k": true,
    "stochastic_khat": true,
    "transform_scope": "local"
  },
  "out_dir": "out",
  "seed": 3,
  "training": {
    "epochs": 0,
    "learning_rate": 0.001,
    "lr_decay": 1.0,
    "test_rotation": "so3",
    "train_rotation": "z"
  }
}
"""


def manifest_with_edited_cloud(tmp_path, source_id, edit):
    """A generated dataset whose cloud ``source_id`` has its lines replaced
    by ``edit(lines)``; cube_0000 is a train cloud, cube_0004 a test one."""
    gen_cfg = write_config(tmp_path, name="gen.json", out_dir=str(tmp_path / "ds"))
    assert cli.main(["gen-data", "--config", str(gen_cfg)]) == 0
    xyz = tmp_path / "ds" / "clouds" / f"{source_id}.xyz"
    xyz.write_text("".join(edit(xyz.read_text().splitlines(keepends=True))))
    return tmp_path / "ds" / "manifest.csv"


def manifest_with_short_cloud(tmp_path):
    """A generated dataset whose first cube cloud is cut to 10 points."""
    return manifest_with_edited_cloud(tmp_path, "cube_0000", lambda lines: lines[:10])


def exit_code(argv):
    """``cli.main``'s return code, or the code argparse exits with."""
    try:
        return cli.main(argv)
    except SystemExit as e:
        return e.code


def read_metrics(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestTrain:
    def test_twice_with_same_seed_gives_identical_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["train", "--config", str(cfg), "--deterministic"]) == 0
        metrics_a = (tmp_path / "out" / "metrics.csv").read_bytes()
        ckpt_a = (tmp_path / "out" / "model.ckpt").read_bytes()
        assert cli.main(["train", "--config", str(cfg), "--deterministic"]) == 0
        assert (tmp_path / "out" / "metrics.csv").read_bytes() == metrics_a
        assert (tmp_path / "out" / "model.ckpt").read_bytes() == ckpt_a

    def test_zero_epochs_writes_initial_checkpoint_and_empty_metrics(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["train", "--config", str(cfg), "--epochs", "0"]) == 0
        rows = read_metrics(tmp_path / "out" / "metrics.csv")
        assert rows == []
        loaded = model.load_model(tmp_path / "out" / "model.ckpt")
        fresh = model.RiGcnModel(loaded.config)
        for a, b in zip(loaded.parameters(), fresh.parameters()):
            np.testing.assert_array_equal(a.value, b.value)

    @pytest.mark.parametrize("where", ["missing_parent", "directory"])
    def test_unusable_checkpoint_path_exits_2_before_writing(self, tmp_path, capsys, where):
        (tmp_path / "dir").mkdir()
        ckpt = {"missing_parent": tmp_path / "nope" / "m.ckpt", "directory": tmp_path / "dir"}[where]
        cfg = write_config(tmp_path)
        assert cli.main(["train", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 2
        assert str(ckpt) in capsys.readouterr().err
        assert not (tmp_path / "out" / "config.json").exists()

    def test_checkpoint_may_go_into_the_new_output_directory(self, tmp_path):
        cfg = write_config(tmp_path)
        ckpt = tmp_path / "out" / "m.ckpt"
        assert cli.main(["train", "--config", str(cfg), "--epochs", "0", "--checkpoint", str(ckpt)]) == 0
        assert model.load_model(ckpt).config.level_sizes == (16, 6)

    def test_global_transform_ablation_runs(self, tmp_path):
        cfg = write_config(tmp_path)
        code = cli.main(
            ["train", "--config", str(cfg), "--epochs", "1", "--ablation", "transform_scope=global"]
        )
        assert code == 0
        echoed = json.loads((tmp_path / "out" / "config.json").read_text())
        assert echoed["model"]["transform_scope"] == "global"

    def test_metrics_rows_are_monotone_in_epoch(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["train", "--config", str(cfg)]) == 0
        rows = read_metrics(tmp_path / "out" / "metrics.csv")
        train_epochs = [int(r["epoch"]) for r in rows if r["split"] == "train"]
        assert train_epochs == sorted(train_epochs)
        assert all(0.0 <= float(r["accuracy"]) <= 1.0 for r in rows)

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, typo_section={"a": 1})
        assert cli.main(["train", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "overrides",
        [
            {"seed": [1]},
            {"model": {"k_range": 5}},
            {"model": {"levels": "3"}},
            {"dataset": {"instances_per_class": "5"}},
            {"model": []},
            {"deterministic": "false"},
            {"dataset": {"classes": "sphere"}},
        ],
        ids=["seed-list", "k_range-int", "levels-str", "instances-str", "model-list",
             "deterministic-str", "classes-str"],
    )
    def test_wrongly_typed_config_value_exits_2(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path, **overrides)
        assert cli.main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: config.")
        assert not (tmp_path / "out").exists()

    def test_config_echo_is_pinned(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, out_dir="out")
        assert cli.main(["train", "--config", str(cfg), "--epochs", "0"]) == 0
        assert (tmp_path / "out" / "config.json").read_text() == CONFIG_ECHO

    @pytest.mark.parametrize(
        "key, raw, expected",
        [
            ("stochastic_k", "false", False),
            ("stochastic_d", "0", False),
            ("stochastic_khat", "TRUE", True),
            ("g_hidden", "4", 4),
            ("k_range", "3,5", (3, 5)),
            ("abstraction", "mlp", "mlp"),
            ("level_sizes", "128,32,16,8", (128, 32, 16, 8)),
            ("channels", "16", (16,)),
        ],
    )
    def test_ablation_sets_a_typed_field(self, key, raw, expected):
        cfg = cli._set_model_field(model.RiGcnConfig(), key, raw)
        assert getattr(cfg, key) == expected
        assert type(getattr(cfg, key)) is type(expected)

    @pytest.mark.parametrize("item", ["levels=abc", "stochastic_k=yes", "nope=1", "levels=2,3", "noequals"])
    def test_bad_ablation_exits_2(self, tmp_path, item):
        cfg = write_config(tmp_path)
        assert cli.main(["train", "--config", str(cfg), "--ablation", item]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides, ablation",
        [({"model": {"k_range": [2, 2]}}, []), ({}, ["--ablation", "k_range=2,4"])],
        ids=["config", "ablation"],
    )
    def test_k_range_below_three_exits_2_and_writes_nothing(self, tmp_path, capsys, overrides, ablation):
        cfg = write_config(tmp_path, **overrides)
        assert cli.main(["train", "--config", str(cfg)] + ablation) == 2
        assert "k_range lower bound" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_config_file_exits_2(self, tmp_path):
        assert cli.main(["train", "--config", str(tmp_path / "nope.json")]) == 2

    def test_config_that_is_a_directory_exits_2(self, tmp_path, capsys):
        assert cli.main(["train", "--config", str(tmp_path), "--out", str(tmp_path / "out")]) == 2
        assert "directory" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides, flags, field",
        [
            ({}, ["--epochs", "-2"], "epochs"),
            ({"training": {"learning_rate": -1.0}}, [], "learning_rate"),
            ({"training": {"learning_rate": 0.0}}, [], "learning_rate"),
            ({"training": {"learning_rate": float("nan")}}, [], "learning_rate"),
            ({"training": {"lr_decay": 0.0}}, [], "lr_decay"),
            ({"training": {"lr_decay": float("inf")}}, [], "lr_decay"),
        ],
        ids=["negative_epochs", "negative_lr", "zero_lr", "nan_lr", "zero_decay", "inf_decay"],
    )
    def test_bad_training_value_exits_2_and_writes_nothing(self, tmp_path, capsys, overrides, flags, field):
        cfg = write_config(tmp_path, **overrides)
        assert cli.main(["train", "--config", str(cfg)] + flags) == 2
        assert f"training.{field}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_dataset_class_mismatch_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, model={"num_classes": 5})
        assert cli.main(["train", "--config", str(cfg)]) == 2

    def test_model_seed_other_than_the_seed_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, model={"seed": 5})
        assert cli.main(["train", "--config", str(cfg)]) == 2
        assert "config.model.seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_echoed_config_with_its_model_seed_is_valid_input(self, tmp_path):
        cfg = write_config(tmp_path, model={"seed": 3})
        assert cli.main(["train", "--config", str(cfg), "--seed", "9", "--epochs", "0"]) == 0
        echo = tmp_path / "out" / "config.json"
        loaded = cli.load_experiment_config(echo)
        assert loaded.seed == loaded.model.seed == 9
        assert cli.main(["train", "--config", str(echo), "--epochs", "0"]) == 0

    def test_short_manifest_cloud_exits_2_before_training(self, tmp_path, capsys):
        manifest = manifest_with_short_cloud(tmp_path)
        cfg = write_config(tmp_path, name="cfg2.json", dataset={"kind": "manifest", "path": str(manifest)})
        assert cli.main(["train", "--config", str(cfg)]) == 2
        assert "cube_0000" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_nonfinite_manifest_cloud_exits_2_before_training(self, tmp_path, capsys):
        manifest = manifest_with_edited_cloud(tmp_path, "cube_0000", lambda lines: ["nan 0 0\n"] + lines[1:])
        cfg = write_config(tmp_path, name="cfg2.json", dataset={"kind": "manifest", "path": str(manifest)})
        assert cli.main(["train", "--config", str(cfg)]) == 2
        assert "cube_0000" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scale", [1e200, 1e-170])
    def test_manifest_cloud_beyond_float_range_exits_2_before_training(self, tmp_path, capsys, scale):
        def rescale(lines):
            return [" ".join(repr(float(t) * scale) for t in line.split()) + "\n" for line in lines]

        manifest = manifest_with_edited_cloud(tmp_path, "cube_0000", rescale)
        cfg = write_config(tmp_path, name="cfg2.json", dataset={"kind": "manifest", "path": str(manifest)})
        with np.errstate(over="ignore"):
            assert cli.main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "cube_0000" in err and "extent out of range" in err
        assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("trained")
    cfg = write_config(tmp_path, training={"epochs": 3})
    assert cli.main(["train", "--config", str(cfg)]) == 0
    return cfg, tmp_path / "out" / "model.ckpt", tmp_path


class TestEvaluate:
    def test_rotation_modes_agree_by_invariance(self, trained):
        cfg, ckpt, tmp_path = trained
        code = cli.main(
            ["evaluate", "--config", str(cfg), "--checkpoint", str(ckpt), "--modes", "none,z,so3"]
        )
        assert code == 0
        rows = read_metrics(tmp_path / "out" / "evaluation.csv")
        assert len(rows) == 3
        assert len({r["accuracy"] for r in rows}) == 1

    def test_per_class_weighted_sum_matches_accuracy(self, trained):
        cfg, ckpt, tmp_path = trained
        cli.main(["evaluate", "--config", str(cfg), "--checkpoint", str(ckpt), "--modes", "none"])
        row = read_metrics(tmp_path / "out" / "evaluation.csv")[0]
        split = data.generate_synthetic_dataset(
            data.SyntheticSpec(
                classes=("sphere", "cube", "torus"), instances_per_class=5, points_per_cloud=64
            ),
            np.random.default_rng([3, 1]),
        )
        _, labels = split.arrays("test")
        counts = np.bincount(labels, minlength=3)
        per_class = dict(part.split("=") for part in row["per_class_accuracy"].split("|"))
        weighted = sum(
            float(per_class[name]) * counts[i] for i, name in enumerate(split.class_names)
        )
        assert weighted / counts.sum() == pytest.approx(float(row["accuracy"]), abs=1e-12)

    def test_empty_test_split_exits_2(self, trained, tmp_path):
        cfg, ckpt, _ = trained
        cfg2 = write_config(tmp_path, dataset={"train_fraction": 1.0})
        for command in ("evaluate", "robustness"):
            assert cli.main([command, "--config", str(cfg2), "--checkpoint", str(ckpt)]) == 2
            assert not (tmp_path / "out").exists()

    def test_checkpoint_config_mismatch_exits_2(self, trained, tmp_path):
        cfg, ckpt, _ = trained
        cfg2 = write_config(
            tmp_path,
            model={"num_classes": 2},
            dataset={"classes": ["sphere", "cube"]},
        )
        assert cli.main(["evaluate", "--config", str(cfg2), "--checkpoint", str(ckpt)]) == 2

    def test_short_cloud_checked_against_checkpoint_config(self, trained, tmp_path, capsys):
        # The experiment config's level 0 (8) fits the 10-point cloud; the
        # checkpoint's (16) does not, and the checkpoint is what runs.
        _, ckpt, _ = trained
        manifest = manifest_with_short_cloud(tmp_path)
        cfg = write_config(
            tmp_path,
            name="cfg2.json",
            model={"level_sizes": [8, 4]},
            dataset={"kind": "manifest", "path": str(manifest)},
        )
        assert cli.main(["evaluate", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 2
        assert "cube_0000" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_nonfinite_test_cloud_exits_2_before_writing(self, trained, tmp_path, capsys):
        _, ckpt, _ = trained
        manifest = manifest_with_edited_cloud(tmp_path, "cube_0004", lambda lines: lines[:-1] + ["0 inf 0\n"])
        cfg = write_config(tmp_path, name="cfg2.json", dataset={"kind": "manifest", "path": str(manifest)})
        assert cli.main(["evaluate", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 2
        assert "cube_0004" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "evaluate", "robustness"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_exits_2_before_writing(self, trained, tmp_path, capsys, command, source):
        _, ckpt, _ = trained
        manifest = manifest_with_edited_cloud(tmp_path, "cube_0000", lambda lines: lines)
        overrides = {"seed": -1} if source == "config" else {}
        dataset = {"kind": "manifest", "path": str(manifest)}
        cfg = write_config(tmp_path, name="cfg2.json", dataset=dataset, **overrides)
        argv = [command, "--config", str(cfg)] + (["--seed", "-1"] if source == "flag" else [])
        argv += [] if command == "train" else ["--checkpoint", str(ckpt)]
        assert cli.main(argv) == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_requires_checkpoint(self, trained):
        cfg, _, _ = trained
        assert cli.main(["evaluate", "--config", str(cfg)]) == 2

    def test_checkpoint_with_trailing_bytes_exits_2(self, trained, tmp_path, capsys):
        _, ckpt, _ = trained
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(ckpt.read_bytes() + b"x")
        cfg = write_config(tmp_path)
        assert cli.main(["evaluate", "--config", str(cfg), "--checkpoint", str(bad)]) == 2
        assert "trailing" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda header: header.pop("params"),
            lambda header: header["params"][0].update(shape=5),
            # Headers once held null for a config that left the sizes out;
            # such a checkpoint is rejected, never read as the default.
            lambda header: header["config"].update(level_sizes=None),
            # Well typed, but fails RiGcnConfig.validate.
            lambda header: header["config"].update(levels=3),
        ],
        ids=["without_params", "scalar_shape", "null_level_sizes", "levels_without_sizes"],
    )
    def test_malformed_checkpoint_header_exits_2(self, trained, tmp_path, capsys, edit):
        _, ckpt, _ = trained
        blob = ckpt.read_bytes()
        start = len(nnet.CHECKPOINT_MAGIC) + 8
        end = start + int.from_bytes(blob[start - 8 : start], "little")
        header = json.loads(blob[start:end])
        edit(header)
        text = json.dumps(header).encode()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob[: start - 8] + len(text).to_bytes(8, "little") + text + blob[end:])
        cfg = write_config(tmp_path)
        assert cli.main(["evaluate", "--config", str(cfg), "--checkpoint", str(bad)]) == 2
        assert str(bad) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestInvarianceCheck:
    def test_fresh_init_passes(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["invariance-check", "--config", str(cfg), "--trials", "10"]) == 0

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_trials_exits_2(self, tmp_path, capsys, trials):
        cfg = write_config(tmp_path)
        assert cli.main(["invariance-check", "--config", str(cfg), "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert "--trials" in captured.err and "PASSED" not in captured.out

    def test_identity_rotations_give_zero_deviation(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(geom, "random_rotation", lambda rng, mode: np.eye(3))
        cfg = write_config(tmp_path)
        assert cli.main(["invariance-check", "--config", str(cfg), "--trials", "4"]) == 0
        assert "max_relative_deviation=0.000e+00" in capsys.readouterr().out

    def test_global_transform_scope_also_invariant(self, tmp_path):
        cfg = write_config(tmp_path)
        code = cli.main(
            [
                "invariance-check",
                "--config",
                str(cfg),
                "--trials",
                "10",
                "--ablation",
                "transform_scope=global",
            ]
        )
        assert code == 0

    def test_trained_checkpoint_passes(self, trained):
        cfg, ckpt, _ = trained
        code = cli.main(
            ["invariance-check", "--config", str(cfg), "--checkpoint", str(ckpt), "--trials", "10"]
        )
        assert code == 0


class TestRobustness:
    def test_clean_cell_equals_evaluate(self, trained):
        cfg, ckpt, tmp_path = trained
        assert (
            cli.main(
                [
                    "robustness",
                    "--config",
                    str(cfg),
                    "--checkpoint",
                    str(ckpt),
                    "--sigmas",
                    "0",
                    "--outliers",
                    "0",
                ]
            )
            == 0
        )
        rows = read_metrics(tmp_path / "out" / "robustness.csv")
        assert len(rows) == 1
        cli.main(
            ["evaluate", "--config", str(cfg), "--checkpoint", str(ckpt), "--modes", "so3"]
        )
        eval_row = read_metrics(tmp_path / "out" / "evaluation.csv")[0]
        assert rows[0]["accuracy"] == eval_row["accuracy"]

    def test_grid_shape_and_order(self, trained):
        cfg, ckpt, tmp_path = trained
        code = cli.main(
            [
                "robustness",
                "--config",
                str(cfg),
                "--checkpoint",
                str(ckpt),
                "--sigmas",
                "0.02,0",
                "--outliers",
                "5,0",
            ]
        )
        assert code == 0
        rows = read_metrics(tmp_path / "out" / "robustness.csv")
        assert len(rows) == 4
        got = [(float(r["sigma"]), int(r["outliers"])) for r in rows]
        assert got == [(0.0, 0), (0.0, 5), (0.02, 0), (0.02, 5)]

    @pytest.mark.parametrize("classes", [["sphere", "cube"], ["sphere", "cube", "torus", "cone", "helix"]])
    def test_class_count_mismatch_exits_2_before_writing(self, trained, tmp_path, classes):
        # The checkpoint has 3 classes: 2 used to score, 5 failed mid-sweep.
        _, ckpt, _ = trained
        cfg = write_config(tmp_path, model={"num_classes": len(classes)}, dataset={"classes": classes})
        assert cli.main(["robustness", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 2
        assert not (tmp_path / "out").exists()

    def test_negative_sigma_exits_2(self, trained):
        cfg, ckpt, _ = trained
        code = cli.main(
            ["robustness", "--config", str(cfg), "--checkpoint", str(ckpt), "--sigmas", "-0.1"]
        )
        assert code == 2

    @pytest.mark.parametrize("flag, value", [("--outliers", "2.7"), ("--sigmas", "nan"), ("--sigmas", "inf")])
    def test_bad_grid_value_exits_2_and_writes_nothing(self, trained, tmp_path, flag, value):
        _, ckpt, _ = trained
        cfg = write_config(tmp_path)
        assert cli.main(["robustness", "--config", str(cfg), "--checkpoint", str(ckpt), flag, value]) == 2
        assert not (tmp_path / "out").exists()


class TestExportGraphs:
    def test_per_level_files(self, trained, tmp_path):
        cfg, ckpt, _ = trained
        cloud_path = tmp_path / "cloud.xyz"
        rng = np.random.default_rng(0)
        data.write_xyz(geom.normalize_unit_sphere(rng.normal(size=(64, 3))), cloud_path)
        out = tmp_path / "graphs"
        code = cli.main(
            [
                "export-graphs",
                "--config",
                str(cfg),
                "--checkpoint",
                str(ckpt),
                "--cloud",
                str(cloud_path),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        for level, expect in ((0, 16), (1, 6)):
            nodes = (out / f"level{level}_nodes.txt").read_text().splitlines()
            assert len(nodes) == expect
            edges = (out / f"level{level}_edges.txt").read_text().splitlines()
            for line in edges:
                i, j, w = line.split()
                assert 0 <= int(i) < int(j) < expect
                assert 0.0 <= float(w) <= 1.0

    def test_rerun_is_identical(self, trained, tmp_path):
        cfg, ckpt, _ = trained
        cloud_path = tmp_path / "cloud.xyz"
        data.write_xyz(
            geom.normalize_unit_sphere(np.random.default_rng(1).normal(size=(64, 3))), cloud_path
        )
        out = tmp_path / "g2"
        args = [
            "export-graphs",
            "--config",
            str(cfg),
            "--checkpoint",
            str(ckpt),
            "--cloud",
            str(cloud_path),
            "--out",
            str(out),
        ]
        assert cli.main(args) == 0
        first = {p.name: p.read_bytes() for p in out.glob("level*")}
        assert cli.main(args) == 0
        assert {p.name: p.read_bytes() for p in out.glob("level*")} == first


    @pytest.mark.parametrize("with_checkpoint", [False, True])
    def test_short_cloud_exits_2_before_writing(self, trained, tmp_path, capsys, with_checkpoint):
        # With the checkpoint loaded, the experiment config's level 0 (8)
        # fits the 10-point cloud; the checkpoint's (16), which runs, does not.
        _, ckpt, _ = trained
        cfg = write_config(tmp_path, model={"level_sizes": [8, 4]} if with_checkpoint else {})
        cloud_path = tmp_path / "short.xyz"
        data.write_xyz(np.random.default_rng(2).normal(size=(10, 3)), cloud_path)
        out = tmp_path / "graphs"
        args = ["export-graphs", "--config", str(cfg), "--cloud", str(cloud_path), "--out", str(out)]
        if with_checkpoint:
            args += ["--checkpoint", str(ckpt)]
        assert cli.main(args) == 2
        assert "short.xyz" in capsys.readouterr().err
        assert not (out / "config.json").exists()

    def test_non_finite_cloud_exits_2_naming_the_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        cloud = np.random.default_rng(2).normal(size=(64, 3))
        cloud[5, 1] = np.nan
        cloud_path = tmp_path / "holes.xyz"
        data.write_xyz(cloud, cloud_path)
        out = tmp_path / "graphs"
        args = ["export-graphs", "--config", str(cfg), "--cloud", str(cloud_path), "--out", str(out)]
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert str(cloud_path) in err and "non-finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("scale", [1e200, 1e-170])
    def test_cloud_beyond_float_range_exits_2_naming_the_file(self, tmp_path, capsys, scale):
        cfg = write_config(tmp_path)
        cloud_path = tmp_path / "extreme.xyz"
        data.write_xyz(np.random.default_rng(2).normal(size=(64, 3)) * scale, cloud_path)
        out = tmp_path / "graphs"
        args = ["export-graphs", "--config", str(cfg), "--cloud", str(cloud_path), "--out", str(out)]
        with np.errstate(over="ignore"):
            assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert str(cloud_path) in err and "extent out of range" in err
        assert not out.exists()

    def test_cloud_that_is_a_directory_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "graphs"
        args = ["export-graphs", "--config", str(cfg), "--cloud", str(tmp_path), "--out", str(out)]
        assert cli.main(args) == 2
        assert "directory" in capsys.readouterr().err
        assert not out.exists()


class TestGradcheck:
    def test_default_small_config_passes(self, capsys):
        assert cli.main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "PASSED" in out

    def test_report_lists_every_block_once(self, capsys):
        assert cli.main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        net = model.RiGcnModel(cli._gradcheck_config(0))
        names = [p.name for p in net.parameters()]
        lines = out.splitlines()
        for name in names:
            assert sum(1 for line in lines if line.startswith(name + " ")) == 1

    # gcn_layer carries the GCN weights, dense every MLP weight; each keeps
    # its weight as parents[0].
    @pytest.mark.parametrize("layer", ["gcn_layer", "dense"])
    def test_corrupted_backward_fails_with_exit_1(self, monkeypatch, layer):
        original = getattr(nnet, layer)

        def corrupted(*args, **kwargs):
            node = original(*args, **kwargs)
            (p, vjp_w), rest = node.parents[0], node.parents[1:]
            node.parents = ((p, lambda g: 2.0 * vjp_w(g)),) + rest
            return node

        monkeypatch.setattr(nnet, layer, corrupted)
        assert cli.main(["gradcheck"]) == 1


class TestGenData:
    def test_writes_manifest_and_clouds(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["gen-data", "--config", str(cfg)]) == 0
        manifest = tmp_path / "out" / "manifest.csv"
        split = data.load_manifest(manifest)
        assert len(split.train) == 12
        assert len(split.test) == 3

    def test_manifest_round_trip_through_training(self, tmp_path):
        gen_cfg = write_config(tmp_path, out_dir=str(tmp_path / "ds"))
        assert cli.main(["gen-data", "--config", str(gen_cfg)]) == 0
        train_cfg = write_config(
            tmp_path,
            name="cfg2.json",
            dataset={"kind": "manifest", "path": str(tmp_path / "ds" / "manifest.csv")},
        )
        assert cli.main(["train", "--config", str(train_cfg), "--epochs", "1"]) == 0


class TestRemovedSettings:
    @pytest.mark.parametrize(
        "base, removed, overrides",
        [
            (["evaluate", "--checkpoint", "{ckpt}"], ["--deterministic"], {}),
            (["invariance-check"], ["--deterministic"], {}),
            (["robustness", "--checkpoint", "{ckpt}"], ["--deterministic"], {}),
            (["export-graphs", "--cloud", "{cloud}"], ["--deterministic"], {}),
            (["gradcheck"], ["--deterministic"], {}),
            (["gen-data"], ["--deterministic"], {}),
            (["gen-data"], ["--checkpoint", "{ckpt}"], {}),
            (["gradcheck"], ["--checkpoint", "{ckpt}"], {}),
            (["invariance-check"], ["--out", "{out}"], {}),
            (["gradcheck"], ["--out", "{out}"], {}),
            (["invariance-check"], ["--transform-scope", "global"], {}),
            (["invariance-check", "--checkpoint", "{ckpt}"], ["--ablation", "abstraction=mlp"], {}),
            (["train"], [], {"training": {"optimizer": "adam"}}),
        ],
        ids=[
            "evaluate--deterministic",
            "invariance-check--deterministic",
            "robustness--deterministic",
            "export-graphs--deterministic",
            "gradcheck--deterministic",
            "gen-data--deterministic",
            "gen-data--checkpoint",
            "gradcheck--checkpoint",
            "invariance-check--out",
            "gradcheck--out",
            "invariance-check--transform-scope",
            "invariance-check--checkpoint-with--ablation",
            "training.optimizer",
        ],
    )
    def test_exits_2_and_writes_nothing(self, trained, tmp_path, base, removed, overrides):
        _, ckpt, _ = trained
        cloud = tmp_path / "cloud.xyz"
        data.write_xyz(geom.normalize_unit_sphere(np.random.default_rng(0).normal(size=(64, 3))), cloud)
        cfg = write_config(tmp_path, **overrides)
        paths = {"ckpt": ckpt, "cloud": cloud, "out": tmp_path / "out"}
        base = [base[0], "--config", str(cfg)] + [a.format(**paths) for a in base[1:]]
        # Without the removed setting the command line is accepted.
        cli.build_parser().parse_args(base)
        assert exit_code(base + [a.format(**paths) for a in removed]) == 2
        assert not (tmp_path / "out").exists()


class TestAblationScript:
    def test_every_variant_builds_a_valid_config(self, tmp_path, monkeypatch):
        spec = importlib.util.spec_from_file_location("run_ablations", ROOT / "scripts" / "run_ablations.py")
        script = importlib.util.module_from_spec(spec)
        monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts src on it
        spec.loader.exec_module(script)
        models = {}
        for name in script.VARIANTS:
            argv = script.variant_argv(name, tmp_path / name, seed=7, epochs=1)
            args = cli.build_parser().parse_args(argv)
            cfg = cli._apply_overrides(cli.load_experiment_config(args.config), args)
            cfg.model.validate()
            assert cfg.out_dir == str(tmp_path / name)
            models[name] = cfg.model
        assert not any(tmp_path.iterdir())
        # Each variant is a different model.
        assert len(set(models.values())) == len(models)


def load_perfbench(name, monkeypatch):
    """The benchmark module ``perfbench/<name>.py``, imported from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the file executes.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkHooks:
    """What the benchmark uses of the package, so that removing it fails
    here and not only when the benchmark runs."""

    def test_every_span_target_resolves(self, monkeypatch):
        spans = load_perfbench("spans", monkeypatch)
        for module, attr, _, _ in spans.COMPUTE_TARGETS + spans.DATA_TARGETS:
            assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"

    def test_traced_ops_count_every_layer(self, monkeypatch):
        # One evaluate op and one training op with every compute span
        # installed, as a traced benchmark run makes them.
        spans = load_perfbench("spans", monkeypatch)
        workloads = load_perfbench("workloads", monkeypatch)
        cfg = model.RiGcnConfig(**workloads.DESK_CONFIG)
        seeds = workloads.seeds(workloads.WORKLOADS["infer_desk"], 1)
        _, clouds, labels = workloads.request(workloads.desk_test_pool(seeds["data"], None), 0)
        net = workloads.desk_model(seeds["model_seed"])
        opt = nnet.OptimizerState(learning_rate=workloads.LEARNING_RATE)
        recorder = spans.Recorder("test")
        with recorder.installed(spans.COMPUTE_TARGETS):
            workloads.infer_op(net, clouds, labels, seeds["ops"])
            eval_counts = dict(recorder.counts)
            workloads.train_op(net, opt, clouds, labels, seeds["ops"])
        n = len(clouds)
        per_cloud = {
            "fps_points": cfg.num_points + sum(cfg.level_sizes[:-1]),
            "anchors": 3 * cfg.levels,  # len() of each call's result
            "lrf_frames": cfg.level_sizes[0],
            "graph_nodes": sum(cfg.level_sizes),
        }
        # Inference builds no graph, so each forward is one DAG node.
        assert eval_counts == {**{k: n * v for k, v in per_cloud.items()}, "dag_nodes": n}
        # Training keeps the 42-node graph of a desk forward.
        assert recorder.counts == {**{k: 2 * n * v for k, v in per_cloud.items()}, "dag_nodes": n * (1 + 42)}
        names = {span[0] for span in recorder.spans}
        assert {"model.forward", "geom.fps", "graph.build", "nnet.backward"} <= names

    def test_desk_config_validates(self, monkeypatch):
        workloads = load_perfbench("workloads", monkeypatch)
        model.RiGcnConfig(**workloads.DESK_CONFIG).validate()


class TestDeskPreset:
    def test_model_section_is_the_benchmarked_desk_model(self, monkeypatch):
        workloads = load_perfbench("workloads", monkeypatch)
        preset = json.loads((ROOT / "configs" / "desk.json").read_text())
        assert preset["model"] == json.loads(json.dumps(workloads.DESK_CONFIG))

    def test_preset_loads(self):
        cfg = cli.load_experiment_config(ROOT / "configs" / "desk.json")
        assert cfg.model.level_sizes == (128, 32, 8)
        assert cfg.model.classifier_hidden == 64
