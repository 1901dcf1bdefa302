import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import myogest
from myogest import cli, harness
from myogest.architectures import build_architecture
from myogest.augment import TECHNIQUES
from myogest.dataset import build_split, load_dataset, slice_windows
from myogest.errors import NumericalError
from myogest.features import feature_matrix
from myogest.harness import SPLIT_KEYS, run_experiment, transform_windows
from myogest.nn import TrainConfig, load_network
from myogest.nn.layers import DEFAULT_SUBJECT
from myogest.synthetic import generate_synthetic_dataset

TRAIN = json.dumps({"max_epochs": 1, "patience_epochs": 2, "batch_size": 16})
SEEDS = [3, 7]


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """Pre-training subjects 3-4 and evaluation subjects 1-2, every one rotated differently."""
    root = tmp_path_factory.mktemp("cli")
    generate_synthetic_dataset(
        root / "pre", subjects=(3, 4), rounds=1, cycles=4, n_samples=72,
        rotations={3: 1, 4: 6}, seed=21,
    )
    generate_synthetic_dataset(
        root / "eval", subjects=(1, 2), rounds=3, cycles=4, n_samples=72,
        rotations={1: 5, 2: 3}, seed=22,
    )
    (root / "seeds.json").write_text(json.dumps({"seeds": SEEDS}))
    return root


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    return code, capsys.readouterr().out


@pytest.fixture(scope="module")
def source(data):
    """A cwt source pre-trained on subjects 3-4."""
    path = data / "source.json"
    assert cli.main(["--out", str(path), "pretrain", "--dataset", str(data / "pre"),
                     "--model", "cwt", "--train-overrides", TRAIN]) == 0
    return path


def _in_older_form(src, dst):
    """Copy checkpoint ``src`` to ``dst`` in the form older checkpoints were saved in.

    Those also held three metadata keys, and a unit ``__default__`` bank in
    every BatchNorm that training gave none.
    """
    state = json.loads(src.read_text())
    state["metadata"].update(input_shape=[12, 8, 7], branch_count=4, learning_rate_default=0.1)
    for node in state["nodes"]:
        if node["kind"] == "batch-norm":
            width = node["config"]["num_features"]
            node["extra"]["banks"].setdefault(
                DEFAULT_SUBJECT, {"mean": [0.0] * width, "var": [1.0] * width}
            )
    dst.write_text(json.dumps(state))
    return dst


@pytest.mark.parametrize("transfer", [True, False])
def test_saved_models_score_the_report(data, tmp_path, capsys, request, transfer):
    extra = ["--transfer", "--source", request.getfixturevalue("source")] if transfer else []
    models = tmp_path / "models"
    code, _ = run(capsys, "--config", data / "seeds.json", "--out", tmp_path / "run", "train",
                  "--dataset", data / "eval", "--model", "cwt", "--cycles", 2,
                  "--train-overrides", TRAIN, "--save-models", models, *extra)
    assert code == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["seeds"] == SEEDS
    recordings = load_dataset(data / "eval")
    for subject in (1, 2):
        path = models / f"model_s{subject}_seed{SEEDS[0]}.json"
        meta = load_network(path).metadata
        assert meta["subject"] == subject
        assert meta.get("transfer", False) == transfer
        assert isinstance(meta["channel_shift"], int)
        if not transfer:
            assert meta["channel_shift"] == 0
        assert {k: meta[k] for k in SPLIT_KEYS} == {
            "protocol": "myo-eval", "cycles": 2, "repetitions": 4, "gesture_subset": None,
            "stride": 5,
        }
        code, out = run(capsys, "evaluate", "--dataset", data / "eval", "--checkpoint", path)
        assert code == 0
        result = json.loads(out)
        assert result["test_accuracy"] == report["accuracies"][str(subject)][0]
        older = _in_older_form(path, tmp_path / f"older{subject}.json")
        code, out = run(capsys, "evaluate", "--dataset", data / "eval", "--checkpoint", older)
        assert code == 0 and json.loads(out) == result
        recs = [r for r in recordings if r.subject_id == subject]
        assert result["n_windows"] == len(build_split(recs, "myo-eval", cycles=2).test)
        rec = next(r for r in recs if r.round == 2)
        session = tmp_path / f"session{subject}.csv"
        rows = [[t / 200.0, rec.gesture, *column] for t, column in enumerate(rec.samples.T)]
        np.savetxt(session, np.array(rows), delimiter=",")
        code, out = run(capsys, "replay", "--session", session, "--checkpoint", path,
                        "--include-first-second")
        assert code == 0
        assert json.loads(out)["holds"] == 1
        code, older_out = run(capsys, "replay", "--session", session, "--checkpoint", older,
                              "--include-first-second")
        assert code == 0 and older_out == out
    assert sorted(p.name for p in models.iterdir()) == [
        f"model_s{s}_seed{SEEDS[0]}.json" for s in (1, 2)
    ]


def test_evaluate_rebuilds_the_split_of_the_run(data, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"seeds": SEEDS, "stride": 10}))
    models = tmp_path / "models"
    code, _ = run(capsys, "--config", config, "--out", tmp_path / "run", "train",
                  "--dataset", data / "eval", "--model", "raw-1d", "--cycles", 2,
                  "--train-overrides", TRAIN, "--save-models", models)
    assert code == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    recordings = load_dataset(data / "eval")
    for subject in (1, 2):
        recs = [r for r in recordings if r.subject_id == subject]
        scored = build_split(recs, "myo-eval", cycles=2, stride=10).test
        code, out = run(capsys, "evaluate", "--dataset", data / "eval", "--checkpoint",
                        models / f"model_s{subject}_seed{SEEDS[0]}.json")
        assert code == 0
        result = json.loads(out)
        assert result["n_windows"] == len(scored)
        assert result["test_accuracy"] == report["accuracies"][str(subject)][0]


def test_evaluate_out_of_sample_checkpoint(ninapro_dataset, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"seeds": [SEEDS[0]], "gesture_subset": [0, 2, 4]}))
    models = tmp_path / "models"
    code, _ = run(capsys, "--config", config, "--out", tmp_path / "run", "train",
                  "--dataset", ninapro_dataset, "--protocol", "out-of-sample", "--model", "raw-1d",
                  "--repetitions", 2, "--train-overrides", TRAIN, "--save-models", models)
    assert code == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    code, out = run(capsys, "evaluate", "--dataset", ninapro_dataset, "--checkpoint",
                    models / f"model_s1_seed{SEEDS[0]}.json")
    assert code == 0
    result = json.loads(out)
    assert result["test_accuracy"] == report["accuracies"]["1"][0]
    scored = build_split(load_dataset(ninapro_dataset), "out-of-sample", repetitions=2,
                         gesture_subset=[0, 2, 4]).test
    assert result["n_windows"] == len(scored)


def _with_metadata(src, dst, **changes):
    """Copy checkpoint ``src`` to ``dst`` with metadata keys set (None deletes one)."""
    state = json.loads(src.read_text())
    for key, value in changes.items():
        state["metadata"].pop(key, None)
        if value is not None:
            state["metadata"][key] = value
    dst.write_text(json.dumps(state))
    return dst


def test_checkpoint_without_split_keys_evaluates_on_the_default_split(data, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"seeds": [SEEDS[0]], "subjects": [1]}))
    models = tmp_path / "models"
    code, _ = run(capsys, "--config", config, "--out", tmp_path / "run", "train",
                  "--dataset", data / "eval", "--protocol", "ninapro", "--repetitions", 2,
                  "--model", "raw-1d", "--train-overrides", TRAIN, "--save-models", models)
    assert code == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    saved = models / f"model_s1_seed{SEEDS[0]}.json"
    recs = [r for r in load_dataset(data / "eval") if r.subject_id == 1]
    results = {}
    for name, changes in [
        ("recorded", {}),
        ("stripped", {"protocol": None, "cycles": None, "repetitions": None}),
        ("defaults", {"protocol": "myo-eval", "cycles": 4, "repetitions": 4}),
    ]:
        path = _with_metadata(saved, tmp_path / f"{name}.json", **changes)
        code, out = run(capsys, "evaluate", "--dataset", data / "eval", "--checkpoint", path)
        assert code == 0
        results[name] = json.loads(out)
    assert results["recorded"]["test_accuracy"] == report["accuracies"]["1"][0]
    assert results["recorded"]["n_windows"] == len(build_split(recs, "ninapro", repetitions=2).test)
    assert results["stripped"] == results["defaults"]
    assert results["stripped"]["n_windows"] == len(build_split(recs, "myo-eval").test)
    assert results["stripped"]["n_windows"] != results["recorded"]["n_windows"]


def test_evaluate_takes_no_split_flags(data, tmp_path, capsys, checkpoint):
    with pytest.raises(SystemExit) as exc:
        cli.main(["evaluate", "--dataset", str(data / "eval"), "--checkpoint", str(checkpoint),
                  "--cycles", "2"])
    assert exc.value.code == cli.EXIT_CONFIG
    assert "--cycles" in capsys.readouterr().err


def test_extract_writes_the_feature_matrix(data, tmp_path, capsys):
    out = tmp_path / "features.csv"
    code, _ = run(capsys, "--out", out, "extract", "--dataset", data / "eval",
                  "--feature-set", "EnhancedTD", "--stride", 10)
    assert code == 0
    windows = [w for rec in load_dataset(data / "eval") for w in slice_windows(rec, 10)]
    matrix, layout = feature_matrix(windows, "EnhancedTD")
    header = out.read_text().splitlines()[0].split(",")
    keys = ["subject", "round", "cycle", "label", "offset"]
    assert header[:9] == keys + ["mav_ch0_0", "zc_ch0_0", "ssc_ch0_0", "wl_ch0_0"]
    assert header == keys + [f"{name}_ch{ch}_{i}" for name, ch, i in layout]
    table = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    assert table[:, :5].tolist() == [
        [w.subject_id, w.round, w.cycle, w.label, w.offset] for w in windows
    ]
    assert np.array_equal(table[:, 5:], matrix)


@pytest.mark.parametrize(
    "model,protocol", [("TD+lda", "myo-eval"), ("cwt", "augmentation-ablation")]
)
def test_save_models_needs_a_scored_network(data, tmp_path, capsys, model, protocol):
    models = tmp_path / "models"
    code, _ = run(capsys, "train", "--dataset", data / "eval", "--model", model,
                  "--protocol", protocol, "--save-models", models)
    assert code == cli.EXIT_CONFIG
    assert not models.exists() or not any(models.iterdir())


REMOVED_CONFIG_KEYS = {"knn_k", "augmentation", "ablation_techniques"}


@pytest.fixture(scope="module")
def one_subject(tmp_path_factory):
    """One subject, 3 rounds x 4 cycles of 300-sample holds."""
    root = tmp_path_factory.mktemp("one") / "data"
    generate_synthetic_dataset(root, subjects=(1,), rounds=3, cycles=4, n_samples=300, seed=23)
    return root


def _protocol_report(one_subject, tmp_path, capsys, protocol, model):
    code, _ = run(capsys, "--seed", 3, "--out", tmp_path / "run", "train", "--dataset", one_subject,
                  "--protocol", protocol, "--model", model, "--train-overrides", TRAIN)
    assert code == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert not REMOVED_CONFIG_KEYS & set(report["config"])
    return report


def test_augmentation_ablation_reports_every_technique(one_subject, tmp_path, capsys):
    report = _protocol_report(one_subject, tmp_path, capsys, "augmentation-ablation", "raw-1d")
    assert list(report["columns"]) == sorted(TECHNIQUES)
    assert all(list(col) == ["1"] and len(col["1"]) == 1 for col in report["columns"].values())
    assert report["method"] == "raw-1d@sliding-window"
    assert report["accuracies"] == report["columns"]["sliding-window"]


def test_dim_reduction_reports_both_columns(one_subject, tmp_path, capsys):
    report = _protocol_report(one_subject, tmp_path, capsys, "dim-reduction", "TD+lda")
    assert list(report["columns"]) == ["with-reduction", "without-reduction"]
    assert report["method"] == "TD+lda@with-reduction"
    assert report["accuracies"] == report["columns"]["with-reduction"]


@pytest.mark.parametrize(
    "protocol,model,cycles,what",
    [
        ("myo-eval", "TD+lda", (1, 2, 3, 4), "test"),
        ("myo-eval", "raw-1d", (1, 2, 3, 4), "test"),
        ("augmentation-ablation", "raw-1d", (1, 2), "validation"),
        ("augmentation-ablation", "raw-1d", (1, 2, 3), "test"),
    ],
)
def test_a_gesture_missing_from_training_is_a_data_error(tmp_path, capsys, protocol, model, cycles,
                                                          what):
    root = tmp_path / "data"
    generate_synthetic_dataset(root, subjects=(1, 2), rounds=3, cycles=4, n_samples=72, seed=24)
    for cycle in cycles:  # subject 1, scored first, lacks gesture 2 in these cycles of round 1
        (root / "subject_1" / "round_1" / f"cycle_{cycle}" / "gesture_2.csv").unlink()
    code = cli.main(["train", "--dataset", str(root), "--protocol", protocol, "--model", model,
                     "--train-overrides", TRAIN])
    assert code == cli.EXIT_DATA == 3
    assert f"subject 1: {what} gestures [2] are not in the training set" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "pretrain"])
def test_subjects_the_dataset_lacks_are_a_data_error(data, tmp_path, capsys, command):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"subjects": [1, 99, 98]}))
    code = cli.main(["--config", str(config), command, "--dataset", str(data / "eval"),
                     "--model", "raw-1d", "--train-overrides", TRAIN])
    assert code == cli.EXIT_DATA
    assert "dataset has no recordings of subjects [98, 99]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "settings,match",
    [
        ({"model": "TD+lda", "transfer": True}, "transfer needs a network model"),
        ({"model": "raw-1d", "protocol": "augmentation-ablation", "transfer": True},
         "transfer needs a network model and one of ('myo-eval', 'ninapro', 'out-of-sample')"),
        ({"model": "TD+lda", "protocol": "dim-reduction", "transfer": True},
         "transfer needs a network model"),
        ({"model": "TD+lda", "gesture_subset": [0, 2]}, "gesture_subset is for ninapro"),
        ({"model": "raw-1d", "protocol": "augmentation-ablation", "gesture_subset": [0, 2]},
         "not augmentation-ablation"),
        ({"model": "TD+lda", "protocol": "dim-reduction", "gesture_subset": [0, 2]},
         "not dim-reduction"),
    ],
    ids=["baseline-transfer", "ablation-transfer", "dim-reduction-transfer",
         "myo-eval-subset", "ablation-subset", "dim-reduction-subset"],
)
def test_a_setting_the_protocol_would_ignore_is_a_config_error(tmp_path, capsys, settings, match):
    # neither the source nor the dataset exists: reading either would exit 3
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"source_checkpoint": str(tmp_path / "source.json"), **settings}))
    code = cli.main(["--config", str(config), "train", "--dataset", str(tmp_path / "data")])
    assert code == cli.EXIT_CONFIG
    assert match in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,settings,flags,match",
    [
        ("train", {"model": "TD+lda", "protocol": "ninapro"}, ["--cycles", "1"],
         "a ninapro run of TD+lda never reads cycles, so 1 would be ignored"),
        ("train", {"model": "raw-1d"}, ["--repetitions", "2"], "never reads repetitions, so 2"),
        ("train", {"model": "raw-1d", "dim_reduction": False}, [], "never reads dim_reduction"),
        ("train", {"model": "TD+lda", "protocol": "dim-reduction", "dim_reduction": False}, [],
         "a dim-reduction run of TD+lda never reads dim_reduction"),
        ("train", {"model": "raw-1d", "protocol": "augmentation-ablation", "stride": 3}, [],
         "never reads stride, so 3"),
        ("train", {"model": "raw-1d", "source_checkpoint": "source.json"}, [],
         "a myo-eval run of raw-1d never reads source_checkpoint"),
        ("pretrain", {"model": "raw-1d", "cycles": 2}, [], "pre-training never reads cycles, so 2"),
        ("pretrain", {"model": "raw-1d", "protocol": "ninapro"}, [], "never reads protocol"),
        ("pretrain", {"model": "raw-1d", "out_dir": "runs"}, [], "never reads out_dir"),
    ],
    ids=["ninapro-cycles", "myo-eval-repetitions", "network-dim-reduction",
         "dim-reduction-dim-reduction", "ablation-stride", "source-without-transfer",
         "pretrain-cycles", "pretrain-protocol", "pretrain-out-dir"],
)
def test_a_setting_the_run_never_reads_is_a_config_error(tmp_path, capsys, command, settings, flags,
                                                         match):
    # the dataset does not exist: reading it would exit 3
    config = tmp_path / "run.json"
    config.write_text(json.dumps(settings))
    code = cli.main(["--config", str(config), command, "--dataset", str(tmp_path / "data"), *flags])
    assert code == cli.EXIT_CONFIG
    assert match in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags,match",
    [
        (["--cycles", "9"], "cycles must be in [1, 4], got 9"),
        (["--protocol", "ninapro", "--repetitions", "5"], "repetitions must be in [1, 4], got 5"),
        (["--protocol", "out-of-sample"], "out-of-sample protocol requires a gesture subset"),
    ],
    ids=["cycles-9", "repetitions-5", "out-of-sample-without-subset"],
)
def test_an_out_of_range_split_is_a_config_error_before_the_dataset_is_read(tmp_path, capsys,
                                                                            flags, match):
    code = cli.main(["train", "--dataset", str(tmp_path / "missing"), "--model", "raw-1d", *flags])
    assert code == cli.EXIT_CONFIG == 2
    assert match in capsys.readouterr().err


def test_pretraining_on_a_subject_without_every_gesture_is_a_data_error(tmp_path, capsys):
    root = tmp_path / "pre"
    generate_synthetic_dataset(root, subjects=(3, 4), rounds=1, cycles=4, n_samples=72, seed=21)
    for path in root.glob("subject_4/round_1/cycle_*/gesture_6.csv"):
        path.unlink()
    code = cli.main(["pretrain", "--dataset", str(root), "--model", "raw-1d",
                     "--train-overrides", TRAIN])
    assert code == cli.EXIT_DATA
    assert "subject 4: gesture set differs from the pooled dataset's" in capsys.readouterr().err


@pytest.mark.parametrize("protocol", ["nope", "session-replay"])
def test_exit_code_bad_protocol(data, capsys, protocol):
    code = cli.main(["train", "--dataset", str(data / "eval"), "--protocol", protocol])
    assert code == cli.EXIT_CONFIG == 2
    assert f"unknown protocol '{protocol}'" in capsys.readouterr().err


def test_transfer_from_a_source_whose_widths_disagree_with_its_layers(data, source, tmp_path,
                                                                     capsys):
    state = json.loads(source.read_text())
    state["metadata"]["widths"]["c3"] = 16  # the source's c3 stage has 32 channels
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(state))
    code = cli.main(["--seed", "3", "train", "--dataset", str(data / "eval"), "--model", "cwt",
                     "--cycles", "2", "--train-overrides", TRAIN, "--transfer", "--source",
                     str(bad)])
    assert code == cli.EXIT_CONFIG
    assert "sum port shape mismatch" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["train"], {"model": "TD+lda", "protocol": "ninapro", "cycles": 2, "repetitions": 3}),
        (["train", "--model", "raw-1d", "--protocol", "myo-eval", "--cycles", "3",
          "--repetitions", "4"],
         {"model": "raw-1d", "protocol": "myo-eval", "cycles": 3, "repetitions": 4}),
        (["pretrain"], {"model": "TD+lda"}),
        (["pretrain", "--model", "raw-1d"], {"model": "raw-1d"}),
    ],
    ids=["train-file", "train-flags", "pretrain-file", "pretrain-flag"],
)
def test_config_file_values_apply_and_flags_override_them(data, tmp_path, monkeypatch, capsys,
                                                         argv, expected):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(
        {"model": "TD+lda", "protocol": "ninapro", "cycles": 2, "repetitions": 3}
    ))
    seen = []

    def capture(cfg, *args, **kwargs):
        seen.append(cfg)
        raise NumericalError("stop after the config")

    monkeypatch.setattr(cli, "run_experiment", capture)
    monkeypatch.setattr(cli, "pretrain_source", capture)
    code = cli.main(["--config", str(config), *argv, "--dataset", str(data / "eval")])
    assert code == cli.EXIT_NUMERICAL
    (cfg,) = seen
    assert {k: getattr(cfg, k) for k in expected} == expected


def test_exit_code_batch_size_one(data, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"seeds": [SEEDS[0]], "train": {"batch_size": 1}}))
    code = cli.main(["--config", str(config), "train", "--dataset", str(data / "eval"),
                     "--model", "raw-1d", "--cycles", "2"])
    assert code == cli.EXIT_CONFIG == 2
    assert "batch_size" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content,match",
    [
        (json.dumps({"knn_kk": 3}).encode(), "knn_kk"),
        (json.dumps({"knn_k": 3}).encode(), "knn_k"),
        (json.dumps([{"seeds": [1]}]).encode(), "JSON object"),
        (None, "run.json"),
        (b"\xff{}", "run.json"),
    ],
    ids=["unknown-key", "removed-key", "top-level-list", "missing-file", "not-utf8"],
)
def test_exit_code_bad_config_file(data, tmp_path, capsys, content, match):
    config = tmp_path / "run.json"
    if content is not None:
        config.write_bytes(content)
    code = cli.main(["--config", str(config), "train", "--dataset", str(data / "eval"),
                     "--model", "TD+lda"])
    assert code == cli.EXIT_CONFIG
    assert match in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides", ['{"max_epoch": 1}', '{"finalize": false}'], ids=["unknown-key", "removed-key"]
)
def test_exit_code_unknown_train_override(data, capsys, overrides):
    code = cli.main(["train", "--dataset", str(data / "eval"), "--model", "raw-1d",
                     "--cycles", "2", "--train-overrides", overrides])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert json.loads(overrides).popitem()[0] in err and "patience_epochs" in err


@pytest.mark.parametrize(
    "option,payload",
    [
        ("--config", {"cycles": "4"}),
        ("--config", {"seeds": 3}),
        ("--config", {"seeds": [0, True]}),
        ("--config", {"gesture_subset": [0, 2.0]}),
        ("--config", {"dim_reduction": 1}),
        ("--config", {"stride": None}),
        ("--train-overrides", {"batch_size": "16"}),
        ("--train-overrides", {"max_epochs": 1.5}),
        ("--train-overrides", {"learning_rate": True}),
        ("--train-overrides", {"dropout_rate": None}),
    ],
    ids=["config-cycles-str", "config-seeds-int", "config-seeds-bool-element",
         "config-gesture_subset-float-element", "config-dim_reduction-int", "config-stride-null",
         "overrides-batch_size-str", "overrides-max_epochs-float", "overrides-learning_rate-bool",
         "overrides-dropout_rate-null"],
)
def test_a_json_value_of_the_wrong_type_is_a_config_error(data, tmp_path, capsys, option, payload):
    if option == "--config":
        path = tmp_path / "run.json"
        path.write_text(json.dumps(payload))
        argv = ["--config", path, "train", "--protocol", "ninapro"]
    else:
        argv = ["train", "--cycles", "2", "--train-overrides", json.dumps(payload)]
    code = cli.main([str(a) for a in [*argv, "--dataset", data / "eval", "--model", "raw-1d"]])
    assert code == cli.EXIT_CONFIG
    assert f"key '{next(iter(payload))}' must be" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pretrain", "train"])
def test_train_overrides_are_checked_before_any_data_is_read(tmp_path, capsys, command):
    code = cli.main(["--out", str(tmp_path / "out"), command, "--dataset", str(tmp_path / "missing"),
                     "--model", "cwt", "--train-overrides", '{"max_epochs": "2"}'])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "max_epochs" in err and "manifest" not in err


def test_exit_code_invalid_json_override(data, capsys):
    code = cli.main(["train", "--dataset", str(data / "eval"), "--model", "raw-1d",
                     "--train-overrides", "{max_epochs: 1}"])
    assert code == cli.EXIT_CONFIG
    assert "--train-overrides" in capsys.readouterr().err


def test_docstring_lists_every_train_override():
    names = [f.name for f in dataclasses.fields(TrainConfig)]
    assert all(name in cli.__doc__ and name in cli.TRAIN_OVERRIDES_HELP for name in names)


def test_docs_name_every_saved_metadata_key(capsys):
    helps = []  # the subcommand list (evaluate's help, not the module docstring), train's options
    for argv in (["--help"], ["train", "--help"]):
        with pytest.raises(SystemExit):
            cli.main(argv)
        helps.append(" ".join(capsys.readouterr().out.split("positional arguments:")[-1].split()))
    for key in ("subject", "channel_shift", *SPLIT_KEYS):
        for text in (cli.__doc__, run_experiment.__doc__, *helps):
            assert key in text, (key, text[:60])


def test_exit_code_missing_manifest(tmp_path, capsys):
    code, _ = run(capsys, "train", "--dataset", tmp_path, "--model", "TD+lda")
    assert code == cli.EXIT_DATA == 3


@pytest.mark.parametrize("text", ["{not json", "7"], ids=["not-json", "not-an-object"])
def test_exit_code_malformed_manifest(tmp_path, capsys, text):
    (tmp_path / "manifest.json").write_text(text)
    code = cli.main(["train", "--dataset", str(tmp_path), "--model", "TD+lda"])
    assert code == cli.EXIT_DATA
    assert "manifest.json" in capsys.readouterr().err


def test_exit_code_numerical_failure(data, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise NumericalError("diverged")

    monkeypatch.setattr(cli, "run_experiment", fail)
    code, _ = run(capsys, "train", "--dataset", data / "eval")
    assert code == cli.EXIT_NUMERICAL == 4


def test_train_on_a_nan_input_window_exits_numerical(data, capsys, monkeypatch):
    def with_nan(windows, architecture):
        X = transform_windows(windows, architecture)
        X[0] = np.nan
        return X

    monkeypatch.setattr(harness, "transform_windows", with_nan)
    code = cli.main(["train", "--dataset", str(data / "eval"), "--model", "raw-1d",
                     "--train-overrides", TRAIN])
    assert code == cli.EXIT_NUMERICAL == 4
    assert "numerical failure: epoch 1: train loss nan" in capsys.readouterr().err


LAYOUT_FILES = {"flat": "s2_r1_c3_g4.txt", "csv-tree": "subject_2/round_1/cycle_3/gesture_4.txt"}


def _raw_input(tmp_path, text, layout="flat"):
    src = tmp_path / "raw"
    path = src / LAYOUT_FILES[layout]
    path.parent.mkdir(parents=True)
    path.write_text(text)
    return src


@pytest.mark.parametrize("layout", sorted(LAYOUT_FILES))
def test_convert_reads_whitespace_txt_with_float_integers(tmp_path, capsys, layout):
    rows = np.arange(-60, 60).reshape(15, 8)
    text = "\n".join(" ".join(f"{v}.0" for v in row) for row in rows) + "\n"
    src = _raw_input(tmp_path, text, layout)
    code, _ = run(capsys, "--out", tmp_path / "out", "convert", "--input", src, "--format", layout)
    assert code == 0
    (rec,) = load_dataset(tmp_path / "out")
    assert (rec.subject_id, rec.round, rec.cycle, rec.gesture) == (2, 1, 3, 4)
    assert rec.samples.dtype == np.int64
    assert np.array_equal(rec.samples, rows.T)


@pytest.mark.parametrize("value", ["3.5", "128", "-129", "nan"])
def test_convert_rejects_bad_samples(tmp_path, capsys, value):
    row = ["0"] * 8
    row[4] = value
    src = _raw_input(tmp_path, "\n".join([" ".join(["1"] * 8), " ".join(row)]) + "\n")
    code, _ = run(capsys, "--out", tmp_path / "out", "convert", "--input", src, "--format", "flat")
    assert code == cli.EXIT_DATA


def test_convert_rejects_empty_file(tmp_path, capsys):
    src = _raw_input(tmp_path, "")
    code, _ = run(capsys, "--out", tmp_path / "out", "convert", "--input", src, "--format", "flat")
    assert code == cli.EXIT_DATA


# ---- report / stats: the statistics payloads on fixed tables ---------------

PINNED_ACCURACIES = {
    "cwt": [0.50, 0.62, 0.58, 0.71, 0.66, 0.54],
    "cwt+TL": [0.61, 0.70, 0.57, 0.83, 0.75, 0.69],
    "raw-1d": [0.55, 0.60, 0.52, 0.74, 0.60, 0.58],
}
FRIEDMAN_COMPARISONS = [
    {"method": "cwt", "z": 2.0207259421636903, "raw_p": 0.04330814281079198,
     "adjusted_p": 0.04330814281079198, "reject_h0": True},
    {"method": "raw-1d", "z": 2.309401076758503, "raw_p": 0.020921335337793945,
     "adjusted_p": 0.04184267067558789, "reject_h0": True},
]


def assert_same(got, expected):
    """Equal keys in the same order, equal lists, floats to 1e-12."""
    if isinstance(expected, dict):
        assert list(got) == list(expected)
        for key in expected:
            assert_same(got[key], expected[key])
    elif isinstance(expected, list):
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert_same(g, e)
    elif isinstance(expected, float):
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-15)
    else:
        assert got == expected and type(got) is type(expected)


def test_report_pins_table_and_statistics(tmp_path, capsys):
    from myogest.harness import RunReport

    inputs = []
    for method, accs in PINNED_ACCURACIES.items():
        report = RunReport(
            config={}, method=method, subjects=list(range(1, 7)), seeds=[0],
            accuracies={s: [a] for s, a in zip(range(1, 7), accs)},
            mean=float(np.mean(accs)), pooled_std=float(np.std(accs, ddof=1)),
            wall_clock_s=0.0, dataset_hash="fixed",
        )
        inputs.append(tmp_path / f"{method}.json")
        inputs[-1].write_text(report.to_json())
    code, out = run(capsys, "--out", tmp_path / "cmp", "report", "--inputs", *inputs)
    assert code == 0
    table = [
        {"method": "cwt", "mean": 0.6016666666666667, "pooled_std": 0.07756717518813397,
         "subjects": 6},
        {"method": "cwt+TL", "mean": 0.6916666666666668, "pooled_std": 0.09389710680668849,
         "subjects": 6},
        {"method": "raw-1d", "mean": 0.5983333333333334, "pooled_std": 0.07600438583836241,
         "subjects": 6},
    ]
    assert_same(json.loads(out), table)
    stats = {
        "friedman": {
            "methods": ["cwt", "cwt+TL", "raw-1d"],
            "mean_ranks": [2.3333333333333335, 1.1666666666666667, 2.5],
            "statistic": 6.333333333333343,
            "p_value": 0.04214384350927619,
            "best": "cwt+TL",
            "comparisons": FRIEDMAN_COMPARISONS,
        },
        "wilcoxon": [
            {"comparison": "cwt+TL > cwt", "statistic": 20.0, "p_value": 0.03125,
             "reject_h0": True, "n": 6},
        ],
    }
    written = json.loads((tmp_path / "cmp" / "comparison.json").read_text())
    # comparison.json is written with sorted keys
    assert_same(written, json.loads(json.dumps({"stats": stats, "table": table}, sort_keys=True)))
    csv_rows = (tmp_path / "cmp" / "comparison.csv").read_text().splitlines()
    assert csv_rows[0] == "method,mean,pooled_std,subjects"
    assert [r.split(",")[0] for r in csv_rows[1:]] == list(PINNED_ACCURACIES)


@pytest.fixture
def pinned_table(tmp_path):
    path = tmp_path / "table.csv"
    acc = PINNED_ACCURACIES
    path.write_text("subject,cwt+TL,cwt,raw-1d\n" + "".join(
        f"{s},{acc['cwt+TL'][i]},{acc['cwt'][i]},{acc['raw-1d'][i]}\n" for i, s in enumerate(range(1, 7))
    ))
    return path


def test_stats_pins_wilcoxon_payload(pinned_table, tmp_path, capsys):
    code, out = run(capsys, "--out", tmp_path / "w.json", "stats", "--table", pinned_table)
    assert code == 0
    expected = {"test": "wilcoxon-one-tail", "alternative": "cwt+TL > cwt", "statistic": 20.0,
                "p_value": 0.03125, "reject_h0": True, "n": 6, "method": "exact"}
    assert_same(json.loads(out), expected)
    assert (tmp_path / "w.json").read_text() == out


def test_stats_pins_friedman_payload(pinned_table, capsys):
    code, out = run(capsys, "stats", "--table", pinned_table, "--test", "friedman")
    assert code == 0
    expected = {
        "test": "friedman+holm",
        "methods": ["cwt+TL", "cwt", "raw-1d"],
        "mean_ranks": [1.1666666666666667, 2.3333333333333335, 2.5],
        "statistic": 6.333333333333343,
        "p_value": 0.04214384350927619,
        "best": "cwt+TL",
        "comparisons": FRIEDMAN_COMPARISONS,
    }
    assert_same(json.loads(out), expected)


# ---- readers fail with the documented exit codes ---------------------------


@pytest.mark.parametrize(
    "old,new", [("0.7,", "n/a,"), (",raw-1d", "")], ids=["non-numeric-cell", "short-header"]
)
def test_stats_malformed_table_is_a_data_error(pinned_table, capsys, old, new):
    pinned_table.write_text(pinned_table.read_text().replace(old, new, 1))
    code = cli.main(["stats", "--table", str(pinned_table), "--test", "friedman"])
    assert code == cli.EXIT_DATA
    assert "table.csv" in capsys.readouterr().err


def test_stats_unknown_column_is_a_config_error(pinned_table, capsys):
    code = cli.main(["stats", "--table", str(pinned_table), "--columns", "cwt", "zz"])
    assert code == cli.EXIT_CONFIG
    assert "zz" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    ["", "subject,cwt,raw-1d\n", "subject,cwt,raw-1d\n\n  \n"],
    ids=["empty", "header-only", "blank-rows"],
)
def test_stats_empty_table_is_a_data_error(tmp_path, capsys, text):
    table = tmp_path / "table.csv"
    table.write_text(text)
    code = cli.main(["stats", "--table", str(table)])
    assert code == cli.EXIT_DATA
    assert "empty" in capsys.readouterr().err


@pytest.fixture
def checkpoint(tmp_path):
    path = tmp_path / "model.json"
    build_architecture("raw-1d", num_classes=7, seed=5).save(path)
    return path


@pytest.mark.parametrize(
    "text",
    ["0.0,1,2,3,4,5,6,7,8,x\n", "", "0.0,1,nan,3,4,5,6,7,8,9\n", "0.0,1,500,3,4,5,6,7,8,9\n",
     "0.0,1,3.5,3,4,5,6,7,8,9\n", "0.0,1.5,2,3,4,5,6,7,8,9\n", "0.0,inf,2,3,4,5,6,7,8,9\n"],
    ids=["non-numeric", "empty", "nan-sample", "sample-500", "fractional-sample", "fractional-label",
         "inf-label"],
)
def test_replay_bad_session_is_a_data_error(tmp_path, capsys, checkpoint, text):
    session = tmp_path / "session.csv"
    session.write_text(text)
    code = cli.main(["replay", "--session", str(session), "--checkpoint", str(checkpoint)])
    assert code == cli.EXIT_DATA
    assert "session.csv" in capsys.readouterr().err


def test_replay_through_a_network_without_statistics_exits_config(tmp_path, capsys, checkpoint):
    session = tmp_path / "session.csv"
    session.write_text("".join(f"{i / 200},1" + ",3" * 8 + "\n" for i in range(300)))
    code = cli.main(["replay", "--session", str(session), "--checkpoint", str(checkpoint)])
    assert code == cli.EXIT_CONFIG == 2
    assert "batch-norm has no statistics for subject __default__" in capsys.readouterr().err


def _spoil(path):
    """Overwrite the first byte of ``path`` with 0xff, which no UTF-8 text holds."""
    path.write_bytes(b"\xff" + path.read_bytes()[1:])
    return path


@pytest.mark.parametrize("command", ["extract", "stats", "replay"])
def test_non_utf8_input_is_a_data_error(tmp_path, capsys, pinned_table, checkpoint, command):
    if command == "extract":
        root = tmp_path / "data"
        generate_synthetic_dataset(root, subjects=(1,), rounds=1, cycles=1, n_samples=60, seed=3)
        bad = _spoil(root / "subject_1" / "round_1" / "cycle_1" / "gesture_2.csv")
        argv = ["--out", tmp_path / "features.csv", "extract", "--dataset", root]
    elif command == "stats":
        bad = _spoil(pinned_table)
        argv = ["stats", "--table", bad]
    else:
        bad = tmp_path / "session.csv"
        bad.write_bytes(b"\xff.0,1" + b",0" * 8 + b"\n")
        argv = ["replay", "--session", bad, "--checkpoint", checkpoint]
    code = cli.main([str(a) for a in argv])
    assert code == cli.EXIT_DATA
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,value",
    [
        ("channel_shift", "abc"),
        ("channel_shift", 9),
        ("channel_shift", 1.5),
        ("channel_shift", -1),
        ("subject", True),
        ("subject", "1"),
        ("cycles", "2"),
        ("gesture_subset", [0, "2"]),
        ("stride", 2.5),
        ("protocol", 3),
        ("protocol", "augmentation-ablation"),
    ],
    ids=["shift-str", "shift-9", "shift-float", "shift-negative", "subject-bool", "subject-str",
         "cycles-str", "gesture_subset-str-element", "stride-float", "protocol-int",
         "protocol-ablation"],
)
def test_malformed_checkpoint_metadata_is_a_data_error(data, tmp_path, capsys, checkpoint, key,
                                                       value):
    path = _with_metadata(checkpoint, tmp_path / "bad.json", **{key: value})
    session = tmp_path / "session.csv"
    session.write_text("".join(f"{i / 200},1" + ",3" * 8 + "\n" for i in range(300)))
    for argv in (["evaluate", "--dataset", data / "eval", "--checkpoint", path],
                 ["replay", "--session", session, "--checkpoint", path]):
        code = cli.main([str(a) for a in argv])
        assert code == cli.EXIT_DATA
        assert f"bad.json: checkpoint metadata key '{key}' must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "changes,message",
    [
        ({"cycles": 9}, "cycles must be in [1, 4], got 9"),
        ({"protocol": "ninapro", "repetitions": 5}, "repetitions must be in [1, 4], got 5"),
        ({"stride": 0}, "stride must be >= 1, got 0"),
    ],
    ids=["cycles-9", "repetitions-5", "stride-0"],
)
def test_an_out_of_range_split_key_in_a_checkpoint_is_a_data_error(data, tmp_path, capsys,
                                                                   checkpoint, changes, message):
    path = _with_metadata(checkpoint, tmp_path / "bad.json", **changes)
    code = cli.main(["evaluate", "--dataset", str(data / "eval"), "--checkpoint", str(path)])
    assert code == cli.EXIT_DATA
    assert f"bad.json: checkpoint metadata: {message}" in capsys.readouterr().err


def test_an_out_of_range_checkpoint_split_is_named_before_the_dataset_is_read(tmp_path, capsys,
                                                                              checkpoint):
    path = _with_metadata(checkpoint, tmp_path / "bad.json", cycles=9)
    code = cli.main(["evaluate", "--dataset", str(tmp_path / "missing"), "--checkpoint", str(path)])
    assert code == cli.EXIT_DATA
    assert "bad.json: checkpoint metadata: cycles must be in [1, 4], got 9" in capsys.readouterr().err


def _checkpoint_text(version=None, drop_metadata=()):
    state = build_architecture("raw-1d", num_classes=7, seed=5).state_dict()
    state["metadata"] = {k: v for k, v in state["metadata"].items() if k not in drop_metadata}
    return json.dumps({**state, "version": version or state["version"]})


@pytest.mark.parametrize(
    "content",
    [
        None,
        "not json",
        "{}",
        "[1, 2]",
        _checkpoint_text(version=99),
        _checkpoint_text(drop_metadata=("architecture",)),
    ],
    ids=["missing", "not-json", "no-nodes", "list", "version-99", "no-architecture"],
)
def test_bad_checkpoint_is_a_data_error(data, tmp_path, capsys, content):
    path = tmp_path / "model.json"
    if content is not None:
        path.write_text(content)
    session = tmp_path / "session.csv"
    session.write_text("0.0,1" + ",0" * 8 + "\n")
    for argv in (["evaluate", "--dataset", data / "eval", "--checkpoint", path],
                 ["replay", "--session", session, "--checkpoint", path]):
        code = cli.main([str(a) for a in argv])
        assert code == cli.EXIT_DATA
        assert "model.json" in capsys.readouterr().err


def _scipy_modules_after(code):
    """The scipy modules loaded once ``code`` has run in a fresh interpreter."""
    listing = "print(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')))"
    env = dict(os.environ, PYTHONPATH=str(Path(myogest.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", f"import json, sys\n{code}\n{listing}"], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_importing_the_package_and_cli_loads_no_scipy():
    assert _scipy_modules_after("import myogest, myogest.cli") == []


@pytest.mark.parametrize("model,loads_linalg", [("raw-1d", False), ("TD+lda", True)])
def test_scipy_loads_only_for_a_model_that_reads_it(data, model, loads_linalg):
    argv = ["--seed", "3", "train", "--dataset", str(data / "eval"), "--model", model,
            "--cycles", "2", "--train-overrides", TRAIN]
    modules = _scipy_modules_after(f"from myogest import cli\nassert cli.main({argv!r}) == 0")
    assert ("scipy.linalg" in modules) == loads_linalg
    assert bool(modules) == loads_linalg


# ---- one settings table: ranges, unread flags and seeds --------------------


@pytest.mark.parametrize(
    "before,after,match",
    [
        (["--seed", "-1"], [], "--seed must be >= 0, got -1"),
        ([], ["--train-overrides", '{"learning_rate": -1}'], "learning_rate must be in (0, inf), got -1"),
        ([], ["--train-overrides", '{"learning_rate": NaN}'], "learning_rate must be in (0, inf), got nan"),
        ([], ["--train-overrides", '{"max_epochs": -3}'], "max_epochs must be >= 0, got -3"),
        ([], ["--train-overrides", '{"patience_epochs": 0}'], "patience_epochs must be >= 1, got 0"),
        (["--config", "run.json"], [], "subjects must hold at least one value"),
    ],
    ids=["seed-negative", "learning_rate-negative", "learning_rate-nan", "max_epochs-negative",
         "patience_epochs-zero", "subjects-empty"],
)
def test_an_out_of_range_setting_exits_config_before_any_data_is_read(tmp_path, capsys, before,
                                                                       after, match):
    (tmp_path / "run.json").write_text(json.dumps({"subjects": []}))
    before = [tmp_path / a if a == "run.json" else a for a in before]
    code = cli.main([str(a) for a in [*before, "train", "--dataset", tmp_path / "missing",
                                      "--model", "raw-1d", *after]])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert match in err and "manifest" not in err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["--seed", "3", "--config", "/nonexistent.json", "--out", "ev.json", "evaluate"], "--config"),
        (["--seed", "3", "evaluate"], "--seed"),
        (["--out", "ev.json", "evaluate"], "--out"),
        (["--config", "run.json", "stats"], "--config"),
        (["--seed", "3", "replay"], "--seed"),
    ],
    ids=["evaluate-all", "evaluate-seed", "evaluate-out", "stats-config", "replay-seed"],
)
def test_a_global_flag_the_subcommand_never_reads_is_a_config_error(data, tmp_path, capsys,
                                                                    checkpoint, argv, flag):
    command = {"evaluate": ["--dataset", data / "eval", "--checkpoint", checkpoint],
               "stats": ["--table", tmp_path / "table.csv"],
               "replay": ["--session", tmp_path / "session.csv", "--checkpoint", checkpoint]}
    argv = [a.replace("ev.json", str(tmp_path / "ev.json")) for a in argv]
    code = cli.main([str(a) for a in argv + command[argv[-1]]])
    assert code == cli.EXIT_CONFIG
    assert f"{argv[-1]} never reads {flag}, so" in capsys.readouterr().err
    assert not (tmp_path / "ev.json").exists()


def test_pretraining_refuses_a_second_seed_before_any_data_is_read(tmp_path, capsys):
    (tmp_path / "run.json").write_text(json.dumps({"seeds": [5, 6]}))
    code = cli.main(["--config", str(tmp_path / "run.json"), "pretrain", "--dataset",
                     str(tmp_path / "missing"), "--model", "raw-1d"])
    assert code == cli.EXIT_CONFIG
    assert "pre-training reads one seed, so seeds [6] would be ignored" in capsys.readouterr().err


def test_pretraining_with_no_seed_given_trains_at_seed_0(data, tmp_path, capsys):
    paths = [tmp_path / "unset.json", tmp_path / "seed0.json"]
    for path, seed in zip(paths, ([], ["--seed", "0"])):
        assert cli.main([*seed, "--out", str(path), "pretrain", "--dataset", str(data / "pre"),
                         "--model", "raw-1d", "--train-overrides", TRAIN]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize(
    "content,match",
    [(None, "FileNotFoundError"), ("{not json", "JSONDecodeError"),
     (json.dumps({"method": "cwt"}), "KeyError: 'accuracies'")],
    ids=["missing", "not-json", "not-a-run-report"],
)
def test_report_on_a_bad_input_file_is_a_data_error(tmp_path, capsys, content, match):
    path = tmp_path / "in.json"
    if content is not None:
        path.write_text(content)
    code = cli.main(["report", "--inputs", str(path)])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert f"{path}: not a readable run report" in err and match in err
