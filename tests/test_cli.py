import json

import numpy as np
import pytest

from myogest import cli
from myogest.dataset import build_split, load_dataset, slice_windows
from myogest.errors import NumericalError
from myogest.features import feature_matrix
from myogest.nn import load_network
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


@pytest.mark.parametrize("transfer", [True, False])
def test_saved_models_score_the_report(data, tmp_path, capsys, transfer):
    extra = []
    if transfer:
        source = tmp_path / "source.json"
        code, _ = run(capsys, "--out", source, "pretrain", "--dataset", data / "pre",
                      "--model", "cwt", "--train-overrides", TRAIN)
        assert code == 0
        extra = ["--transfer", "--source", source]
    models = tmp_path / "models"
    code, _ = run(capsys, "--config", data / "seeds.json", "--out", tmp_path / "run", "train",
                  "--dataset", data / "eval", "--model", "cwt", "--cycles", 2,
                  "--train-overrides", TRAIN, "--save-models", models, *extra)
    assert code == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["seeds"] == SEEDS
    for subject in (1, 2):
        path = models / f"model_s{subject}_seed{SEEDS[0]}.json"
        meta = load_network(path).metadata
        assert meta["subject"] == subject
        assert meta.get("transfer", False) == transfer
        assert isinstance(meta["channel_shift"], int)
        if not transfer:
            assert meta["channel_shift"] == 0
        code, out = run(capsys, "evaluate", "--dataset", data / "eval", "--checkpoint", path,
                        "--cycles", 2)
        assert code == 0
        assert json.loads(out)["test_accuracy"] == report["accuracies"][str(subject)][0]
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
                        models / f"model_s{subject}_seed{SEEDS[0]}.json", "--cycles", 2)
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
                  "--train-overrides", TRAIN, "--save-models", models)
    assert code == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    code, out = run(capsys, "evaluate", "--dataset", ninapro_dataset, "--checkpoint",
                    models / f"model_s1_seed{SEEDS[0]}.json", "--protocol", "out-of-sample")
    assert code == 0
    assert json.loads(out)["test_accuracy"] == report["accuracies"]["1"][0]


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
    assert table[:, :5].tolist() == [list(w.key()[:3]) + [w.label, w.offset] for w in windows]
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


def test_exit_code_bad_protocol(data, capsys):
    code, _ = run(capsys, "train", "--dataset", data / "eval", "--protocol", "nope")
    assert code == cli.EXIT_CONFIG == 2


def test_exit_code_batch_size_one(data, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"seeds": [SEEDS[0]], "train": {"batch_size": 1}}))
    code = cli.main(["--config", str(config), "train", "--dataset", str(data / "eval"),
                     "--model", "raw-1d", "--cycles", "2"])
    assert code == cli.EXIT_CONFIG == 2
    assert "batch_size" in capsys.readouterr().err


def test_exit_code_missing_manifest(tmp_path, capsys):
    code, _ = run(capsys, "train", "--dataset", tmp_path, "--model", "TD+lda")
    assert code == cli.EXIT_DATA == 3


def test_exit_code_numerical_failure(data, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise NumericalError("diverged")

    monkeypatch.setattr(cli, "run_experiment", fail)
    code, _ = run(capsys, "train", "--dataset", data / "eval")
    assert code == cli.EXIT_NUMERICAL == 4


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
