import math
import pickle

import numpy as np
import pytest

from myogest import harness
from myogest.architectures import build_architecture
from myogest.augment import TECHNIQUES
from myogest.dataset import load_dataset
from myogest.harness import (
    ExperimentConfig,
    dataset_content_hash,
    run_experiment,
    run_session_replay,
)
from myogest.nn import TrainConfig, finalize_bn
from myogest.synthetic import generate_synthetic_dataset


def raw_1d_input(samples, shift, stride=5):
    """Rotate channels, cut 52-sample windows at ``stride``, scale by 1/128."""
    rotated = samples[(np.arange(8) + shift) % 8]
    X = np.stack([rotated[:, o : o + 52] for o in range(0, rotated.shape[1] - 51, stride)]) / 128.0
    return X[:, :, None, :]


def predictions(net, samples, shift):
    return net.predict(raw_1d_input(samples, shift))


def test_session_replay_applies_channel_shift_and_skips_short_holds(tmp_path):
    rng = np.random.default_rng(0)
    scale = np.arange(8)[:, None] * 12.0 + 2.0  # channels differ, so a rotation shows
    holds = [np.rint(rng.normal(0.0, 1.0, (8, n)) * scale).clip(-128, 127) for n in (300, 251, 252)]
    net = build_architecture("raw-1d", num_classes=7, seed=5)
    finalize_bn(net, raw_1d_input(holds[0], 0))  # the statistics an untrained model predicts with
    net.metadata["channel_shift"] = 3
    net.save(tmp_path / "model.json")
    shifted = predictions(net, holds[0][:, 200:], 3)
    label = int(np.bincount(shifted).argmax())
    labels = [label, (label + 1) % 7, label]
    expected = float(np.mean(shifted == label))
    assert expected != float(np.mean(predictions(net, holds[0][:, 200:], 0) == label))

    rows, t = [], 0
    for hold, lab in zip(holds, labels):
        for column in hold.T:
            rows.append([t / 200.0, lab, *column])
            t += 1
    np.savetxt(tmp_path / "session.csv", np.array(rows), delimiter=",")

    timeline = run_session_replay(tmp_path / "session.csv", tmp_path / "model.json")
    assert [h["label"] for h in timeline] == labels
    assert [h["t_start"] for h in timeline] == [0.0, 1.5, 2.755]
    assert [h["n_windows"] for h in timeline] == [10, 0, 1]
    assert timeline[0]["accuracy"] == expected
    assert math.isnan(timeline[1]["accuracy"])
    last = predictions(net, holds[2][:, 200:], 3)
    assert timeline[2]["accuracy"] == float(last[0] == label)


def test_the_report_hash_is_the_content_hash_of_the_tree_scored(small_dataset):
    cfg = ExperimentConfig(model="TD+lda", dataset=str(small_dataset), seeds=[0], subjects=[1])
    assert run_experiment(cfg).dataset_hash == dataset_content_hash(cfg.dataset)


def test_dim_reduction_columns_equal_myo_eval_runs_with_and_without_reduction(tmp_path):
    root = tmp_path / "noisy"
    generate_synthetic_dataset(root, subjects=(1, 2), rounds=3, cycles=4, n_samples=72,
                               noises={1: 30.0, 2: 40.0}, seed=25)

    def run(**settings):
        cfg = ExperimentConfig(model="TD+knn", dataset=str(root), seeds=[0, 1], **settings)
        return run_experiment(cfg)

    columns = run(protocol="dim-reduction").columns
    with_, without = columns["with-reduction"], columns["without-reduction"]
    assert with_ == run(dim_reduction=True).accuracies
    assert without == run(dim_reduction=False).accuracies
    # noisy enough that the projection changes every subject's accuracy
    assert all(with_[s] != without[s] for s in (1, 2))


@pytest.fixture(scope="module")
def ablation_tests(small_dataset):
    """The (inputs, labels) each augmentation-ablation column of subject 1 was scored on."""
    scored = []

    def score(cfg, spec, source, subject, train_set, val, test, *rest):
        scored.append(test)
        return [0.0] * len(cfg.seeds)

    cfg = ExperimentConfig(protocol="augmentation-ablation", model="raw-1d",
                           dataset=str(small_dataset), seeds=[0], subjects=[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_score", score)
        report = run_experiment(cfg)
    return dict(zip(report.columns, scored))


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_every_ablation_column_is_scored_on_the_unaugmented_test_cycle(small_dataset,
                                                                       ablation_tests, technique):
    # cycle 4 of round 1, cut into non-overlapping windows, gestures 0-6 in order
    holds = [r for r in load_dataset(small_dataset) if (r.subject_id, r.round, r.cycle) == (1, 1, 4)]
    X, y = ablation_tests[technique]
    expected = [raw_1d_input(rec.samples, 0, stride=52) for rec in holds]
    assert np.array_equal(X, np.concatenate(expected))
    assert y.tolist() == [rec.gesture for rec, x in zip(holds, expected) for _ in x]


def test_json_values_that_fit_their_fields_pass_the_type_check():
    overrides = {"learning_rate": 1, "dropout_rate": 0.25, "max_epochs": 3}  # an int is a float
    assert harness.check_keys(TrainConfig, overrides, "overrides") is overrides
    # None only where the default is None
    config = {"gesture_subset": None, "subjects": [2, 1], "transfer": False, "train": {}}
    assert harness.check_keys(ExperimentConfig, config, "config") is config


def test_a_config_keeps_its_defaults_apart_from_the_values_it_was_given():
    cfg = ExperimentConfig(seeds=[0, 1, 2], cycles=2)
    unset = ExperimentConfig(cycles=2)
    assert cfg == unset and cfg.seeds is not unset.seeds  # equal values; the default is a copy
    assert cfg.given == {"seeds", "cycles"} and unset.given == {"cycles"}
    for config in (cfg, TrainConfig(max_epochs=0)):
        assert pickle.loads(pickle.dumps(config)) == config
