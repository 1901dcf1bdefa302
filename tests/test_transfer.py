import json

import numpy as np
import pytest

import oracles
from myogest.architectures import ARCHITECTURES, INPUT_SHAPES, build_architecture
from myogest.errors import ConfigError
from myogest.harness import load_source_checkpoint, save_source_checkpoint
from myogest.nn import TrainConfig, finalize_bn
from myogest.nn.layers import DEFAULT_SUBJECT
from myogest.transfer import (
    SECOND_PREFIX,
    SOURCE_PREFIX,
    SourceNetwork,
    build_target,
    pretrain,
    prepare_target_subject,
    train_target,
)

WIDTHS = {"c1": 3, "c2": 3, "c3": 4, "fc4": 6, "fc5": 6}
CLASSES = 4
NEW_SUBJECT = 3


def _data(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, *INPUT_SHAPES["cwt"])), np.arange(n) % CLASSES


def _cfg(seed=0, max_epochs=2):
    return TrainConfig(
        learning_rate=0.01, batch_size=16, max_epochs=max_epochs, patience_epochs=3, seed=seed
    )


@pytest.fixture(scope="module")
def source():
    X, y = _data(96, seed=1)
    subjects = np.repeat([1, 2], 48)
    net = build_architecture("cwt", num_classes=CLASSES, widths=WIDTHS, seed=0)
    return pretrain(net, X, y, subjects, _cfg())


def source_parameter_snapshot(net, prefix):
    """Bytes of every frozen (non-BN) source parameter, for freeze auditing."""
    return {
        (node.name, pname): arr.tobytes()
        for node in net.nodes
        if node.name.startswith(prefix) and node.layer.kind != "batch-norm"
        for pname, arr in node.layer.params.items()
    }


def _source_banks(target, subjects):
    return {
        (node.name, s, stat): node.layer.banks[s][stat].copy()
        for node in target.network.nodes
        if node.name.startswith(SOURCE_PREFIX) and node.layer.kind == "batch-norm"
        for s in subjects
        for stat in ("mean", "var")
    }


def test_train_target_leaves_the_source_frozen(source):
    target = build_target(source, seed=4)
    before = source_parameter_snapshot(target.network, SOURCE_PREFIX)
    second_before = {
        (n, p): target.network.node(n).layer.params[p].copy()
        for n, p in target.network.trainable_parameters()
    }
    train_target(target, *_data(64, seed=2), subject=NEW_SUBJECT, cfg=_cfg(1))
    assert before and source_parameter_snapshot(target.network, SOURCE_PREFIX) == before
    assert any(
        not np.array_equal(target.network.node(n).layer.params[p], v)
        for (n, p), v in second_before.items()
    )


def test_zeroed_scalars_give_the_second_network_alone(source):
    target = build_target(source, seed=4)
    for node in target.network.nodes:
        if node.layer.kind == "scalar-scale":
            node.layer.set_param("coeff", 0.0)
    second = build_architecture(
        "cwt", num_classes=CLASSES, widths=WIDTHS, activation="pelu", seed=4
    )
    X, _ = _data(10, seed=3)
    # statistics of X; the second network's BatchNorms see the same inputs in both
    finalize_bn(target.network, X)
    finalize_bn(second, X)
    np.testing.assert_array_equal(target.network.forward(X), second.forward(X))


def test_pretraining_banks_survive_a_new_subject(source):
    assert source.pretrain_subjects == [1, 2]
    target = build_target(source, seed=4)
    before = _source_banks(target, source.pretrain_subjects)
    train_target(target, *_data(64, seed=2), subject=NEW_SUBJECT, cfg=_cfg(1))
    after = _source_banks(target, source.pretrain_subjects)
    assert before.keys() == after.keys()
    for key, value in before.items():
        np.testing.assert_array_equal(after[key], value, err_msg=str(key))
    new_bank = _source_banks(target, [NEW_SUBJECT])
    assert any(not np.array_equal(v, after[(n, 1, stat)]) for (n, _, stat), v in new_bank.items())


def test_pruned_backward_matches_an_unfrozen_clone(source):
    target = build_target(source, seed=4)
    prepare_target_subject(target, NEW_SUBJECT)
    net = target.network
    full = net.clone()
    for node in full.nodes:
        node.layer.frozen = False
    X, y = _data(16, seed=5)
    for model in (net, full):
        model.zero_grads()
        model.train_batch(X, y, subject=NEW_SUBJECT, rng=np.random.default_rng(9))
    frozen = [node for node in net.nodes if node.layer.frozen and node.layer.params]
    assert frozen
    for node in frozen:
        for g in node.layer.grads.values():
            assert np.all(g == 0), node.name
    names = list(net.trainable_parameters())
    assert names
    for name, pname in names:
        np.testing.assert_array_equal(
            net.node(name).layer.grads[pname],
            full.node(name).layer.grads[pname],
            err_msg=f"{name}.{pname}",
        )


def test_gradcheck_merged_target():
    # an untrained frozen source is enough for the gradients; narrow widths keep it quick
    narrow = {"c1": 2, "c2": 2, "c3": 2, "fc4": 3, "fc5": 3}
    net = build_architecture("cwt", num_classes=3, widths=narrow, seed=0)
    net.freeze(lambda node: node.layer.kind != "batch-norm")
    target = build_target(SourceNetwork(net, pretrain_subjects=[]), seed=4)
    target.network.set_dropout_rate(0.0)
    X, _ = _data(6, seed=0)
    worst, failures = oracles.gradcheck(target.network, X, np.arange(6) % 3)
    assert failures == []
    assert worst < 1e-4


@pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
def test_build_target_reads_stage_widths_without_running_the_source(arch):
    # a narrow fully connected stage keeps the raw nets' two million weights out
    widths = {"fc": 16} if arch in ("raw", "enhanced-raw", "raw-1d") else None
    net = build_architecture(arch, num_classes=3, widths=widths, seed=1)
    for node in net.nodes:
        if node.layer.kind == "batch-norm":
            node.layer.banks.clear()  # no bank an eval run could fall back on
    before = net.to_json()
    target = build_target(SourceNetwork(net, pretrain_subjects=[]), seed=2)
    assert net.to_json() == before
    widths = {}
    for node in net.nodes:
        def record(xs, ctx, _name=node.name, _inner=node.layer.forward):
            out, cache = _inner(xs, ctx)
            widths[_name] = out.shape[1]
            return out, cache

        node.layer.forward = record
    net.forward(np.zeros((2, *INPUT_SHAPES[arch])), mode="finalize")
    scales = {
        node.inputs[0]: node.layer.num_features
        for node in target.network.nodes
        if node.layer.kind == "scalar-scale"
    }
    stages = [name for group in net.metadata["stage_outputs"] for name in group]
    assert scales == {SOURCE_PREFIX + name: widths[name] for name in stages}


def test_raw_1d_source_saved_with_in_channels_still_transfers(tmp_path):
    # raw-1d checkpoints once recorded the fixed 8 input channels as metadata
    net = build_architecture("raw-1d", num_classes=3, widths={"fc": 16}, seed=1)
    net.metadata["in_channels"] = 8
    save_source_checkpoint(SourceNetwork(net, pretrain_subjects=[1]), tmp_path / "source.json")
    target = build_target(load_source_checkpoint(tmp_path / "source.json"), seed=2)
    X = np.zeros((2, *INPUT_SHAPES["raw-1d"]))
    finalize_bn(target.network, X)
    assert target.network.predict(X).shape == (2,)


def _bank_keys(net, prefix=""):
    return {
        node.name: set(node.layer.banks)
        for node in net.nodes
        if node.layer.kind == "batch-norm" and node.name.startswith(prefix)
    }


def test_a_pretrained_source_keeps_banks_for_its_pretraining_subjects_only(source):
    keys = _bank_keys(source.network)
    assert keys and all(k == {1, 2} for k in keys.values())


def test_building_a_target_creates_no_bank(source):
    target = build_target(source, seed=4)
    source_keys = _bank_keys(target.network, SOURCE_PREFIX)
    second_keys = _bank_keys(target.network, SECOND_PREFIX)
    assert source_keys and all(k == {1, 2} for k in source_keys.values())
    assert second_keys and all(k == set() for k in second_keys.values())


def test_a_target_predicts_only_for_a_subject_it_has_statistics_of(source):
    target = build_target(source, seed=4)
    X, y = _data(64, seed=2)
    train_target(target, X, y, subject=NEW_SUBJECT, cfg=_cfg(1))
    assert target.network.predict(X, subject=NEW_SUBJECT).shape == (64,)
    assert all(DEFAULT_SUBJECT not in k for k in _bank_keys(target.network).values())
    with pytest.raises(ConfigError, match="subject __default__"):
        target.network.predict(X)
    with pytest.raises(ConfigError, match="subject 9"):
        target.network.predict(X, subject=9)


def test_zero_epochs_seed_and_finalize_the_new_subject_and_take_no_step(source):
    X, y = _data(64, seed=2)
    target = build_target(source, seed=4)
    train_target(target, X, y, subject=NEW_SUBJECT, cfg=_cfg(1, max_epochs=0))
    expected = build_target(source, seed=4)
    prepare_target_subject(expected, NEW_SUBJECT)
    finalize_bn(expected.network, X, np.full(len(y), NEW_SUBJECT))
    assert target.network.to_json() == expected.network.to_json()
    assert target.network.predict(X, subject=NEW_SUBJECT).shape == (64,)


def test_a_source_saved_with_a_default_bank_transfers_as_one_without(source, tmp_path):
    path = save_source_checkpoint(
        SourceNetwork(source.network.clone(), source.pretrain_subjects), tmp_path / "source.json"
    )
    state = json.loads(path.read_text())
    for node in state["nodes"]:
        if node["kind"] == "batch-norm":  # the unit bank a construction run once left
            width = node["config"]["num_features"]
            node["extra"]["banks"][DEFAULT_SUBJECT] = {"mean": [0.0] * width, "var": [1.0] * width}
    older = tmp_path / "older.json"
    older.write_text(json.dumps(state))
    targets = [build_target(load_source_checkpoint(p), seed=4) for p in (path, older)]
    for target in targets:
        prepare_target_subject(target, NEW_SUBJECT)
    assert targets[0].network.to_json() == targets[1].network.to_json()


def test_a_subject_the_validation_holdout_strands_is_named_before_training():
    # the holdout takes one of subject 3's two windows, leaving it no batch of 2
    rng = np.random.default_rng(1)
    X = rng.standard_normal((62, *INPUT_SHAPES["raw-1d"]))
    y = rng.integers(0, 3, 62)
    subjects = np.repeat([1, 2, 3], [30, 30, 2])
    net = build_architecture("raw-1d", num_classes=3, seed=1)
    before = net.to_json()
    cfg = TrainConfig(batch_size=2, max_epochs=1, seed=1)
    with pytest.raises(ConfigError, match=r"leaves subject 3 with 1 training window"):
        pretrain(net, X, y, subjects, cfg)
    assert net.to_json() == before
