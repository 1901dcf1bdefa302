import json
import tracemalloc
import weakref

import numpy as np
import pytest

import oracles
from myogest.architectures import INPUT_SHAPES, build_architecture
from myogest.errors import ConfigError, NumericalError
from myogest.nn import (
    PELU,
    BatchNorm,
    Context,
    Conv2d,
    Dense,
    Adam,
    Dropout,
    Flatten,
    MaxPool,
    Network,
    Node,
    PReLU,
    ScalarScale,
    Sum,
    TrainConfig,
    finalize_bn,
    train,
)
from myogest.nn.layers import BN_EPS, DEFAULT_SUBJECT, subject_key
from myogest.nn.network import EVAL_BLOCK
from myogest.transfer import (
    SourceNetwork,
    TargetNetwork,
    build_target,
    prepare_target_subject,
)

# narrow widths keep every architecture at a few hundred parameters
NARROW = {
    "spectrogram": {"c1": 2, "c2": 2, "c3": 2, "fc4": 4, "fc5": 4},
    "cwt": {"c1": 2, "c2": 2, "c3": 3, "fc4": 4, "fc5": 4},
    "raw": {"c1": 1, "fc": 4},
    "enhanced-raw": {"c1": 2, "c2": 2, "fc": 4},
    "raw-1d": {"c1": 3, "c2": 3, "fc": 8},
}


def _batch(arch, n=6, classes=3, seed=2):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, *INPUT_SHAPES[arch])), np.arange(n) % classes


@pytest.mark.parametrize("arch", sorted(NARROW))
def test_gradcheck_architecture(arch):
    net = build_architecture(arch, num_classes=3, widths=NARROW[arch], seed=1)
    net.set_dropout_rate(0.0)
    x, y = _batch(arch)
    worst, failures = oracles.gradcheck(net, x, y)
    assert failures == []
    assert worst < 1e-4


def test_conv2d_matches_direct_loops():
    rng = np.random.default_rng(7)
    conv = Conv2d(3, 4, 2, 3, rng=rng)
    conv.set_param("bias", rng.standard_normal(4))
    x = rng.standard_normal((2, 3, 5, 6))
    out, cache = conv.forward([x], Context(mode="train"))
    expected = oracles.conv2d_direct(x, conv.params["weight"], conv.params["bias"])
    np.testing.assert_allclose(out, expected, atol=1e-12)
    dout = rng.standard_normal(out.shape)
    conv.zero_grads()
    (dx,) = conv.backward(dout, cache, True)
    dx_ref, dw_ref, db_ref = oracles.conv2d_grads_direct(x, conv.params["weight"], dout)
    np.testing.assert_allclose(dx, dx_ref, atol=1e-12)
    np.testing.assert_allclose(conv.grads["weight"], dw_ref, atol=1e-12)
    np.testing.assert_allclose(conv.grads["bias"], db_ref, atol=1e-12)


def _param_layers(rng):
    """(layer, input) pairs covering every layer kind that holds parameters."""
    maps = rng.standard_normal((4, 3, 5, 6))
    return [
        (Conv2d(3, 2, 2, 2, rng=rng), maps),
        (Dense(5, 3, rng=rng), rng.standard_normal((4, 5))),
        (BatchNorm(3), maps),
        (PReLU(3), maps),
        (PELU(3), maps),
        (ScalarScale(3, init=0.7), maps),
    ]


def test_frozen_layers_keep_zero_grads_and_the_same_input_gradient():
    rng = np.random.default_rng(3)
    for layer, x in _param_layers(rng):
        out, cache = layer.forward([x], Context(mode="train"))
        dout = rng.standard_normal(out.shape)
        layer.zero_grads()
        (dx_live,) = layer.backward(dout, cache, True)
        assert any(np.any(g != 0) for g in layer.grads.values()), layer.kind
        layer.zero_grads()
        layer.frozen = True
        (dx_frozen,) = layer.backward(dout, cache, True)
        assert np.array_equal(dx_frozen, dx_live), layer.kind
        assert layer.backward(dout, cache, False) == [None], layer.kind
        assert all(np.all(g == 0) for g in layer.grads.values()), layer.kind


def test_backward_skips_what_no_parameter_reads():
    net = build_architecture("spectrogram", num_classes=3, widths=NARROW["spectrogram"], seed=1)
    net.freeze(lambda node: node.name in ("b0_c1_conv", "head"))
    calls = {}
    for node in net.nodes:
        def record(dout, cache, need_dx, _name=node.name, _inner=node.layer.backward):
            calls[_name] = need_dx
            return _inner(dout, cache, need_dx)

        node.layer.backward = record
    x, y = _batch("spectrogram")
    net.zero_grads()
    net.train_batch(x, y, rng=np.random.default_rng(0))
    # slices read the network input; first-stage convs and the BN under a frozen conv need no dx
    assert "b0_slice" not in calls and "b1_slice" not in calls
    assert calls["b1_c1_conv"] is False
    assert "b0_c1_conv" not in calls
    assert calls["b0_c1_bn"] is False
    assert calls["b0_c2_conv"] is True and calls["head"] is True
    for name in ("b0_c1_conv", "head"):
        assert all(np.all(g == 0) for g in net.node(name).layer.grads.values())


def test_caches_are_kept_in_train_mode_only():
    net = build_architecture("raw-1d", num_classes=3, widths=NARROW["raw-1d"], seed=1)
    x, _ = _batch("raw-1d")
    assert net._forward_full(x, "finalize", None, None)[1] == {}
    _, caches = net._forward_full(x, "train", None, np.random.default_rng(0))
    assert set(caches) == {node.name for node in net.nodes}


def test_train_and_finalize_skip_the_source_head_that_cannot_reach_the_logits():
    rng = np.random.default_rng(18)
    net = _merged_cwt_target(rng)
    x, _ = _batch("cwt")
    ran = _record_forward_calls(net)
    assert net._forward_full(x, "finalize", 3, None)[1] == {}
    _, caches = net._forward_full(x, "train", 3, np.random.default_rng(0))
    others = [node.name for node in net.nodes if node.name != "src/head"]
    assert set(caches) == set(others) and ran == others + others


@pytest.mark.parametrize(
    "kwargs", [{"batch_size": 1}, {"batch_size": 0}, {"dropout_rate": 1.0}, {"dropout_rate": -0.1}]
)
def test_train_config_rejects_silent_misconfiguration(kwargs):
    with pytest.raises(ConfigError):
        TrainConfig(**kwargs)


@pytest.mark.parametrize("layer,inputs", [(Sum(), ["input"]), (Flatten(), ["input", "input"])])
def test_a_node_with_the_wrong_number_of_inputs_is_refused(layer, inputs):
    with pytest.raises(ConfigError, match="node 'bad' has"):
        Network([Node("bad", layer, inputs)])


def test_train_config_accepts_the_edges():
    TrainConfig(batch_size=2, dropout_rate=0.0)
    TrainConfig(dropout_rate=0.99)


@pytest.mark.parametrize("arch", [a for a in sorted(NARROW) if a != "raw"])  # raw has no BatchNorm
def test_a_network_never_run_has_no_statistics_to_evaluate_with(arch):
    net = build_architecture(arch, num_classes=3, widths=NARROW[arch], seed=1)
    banks = [node.layer.banks for node in net.nodes if node.layer.kind == "batch-norm"]
    assert banks and all(b == {} for b in banks)
    x, _ = _batch(arch)
    with pytest.raises(ConfigError, match="subject __default__"):
        net.predict(x)
    with pytest.raises(ConfigError, match="subject 1"):
        net.forward(x[:1], subject=1)


def test_zero_epochs_finalize_the_statistics_and_take_no_step():
    net = build_architecture("cwt", num_classes=3, widths=NARROW["cwt"], seed=1)
    x, y = _batch("cwt", n=40)
    expected = net.clone()
    history = train(net, x, y, TrainConfig(batch_size=16, max_epochs=0))
    finalize_bn(expected, x)
    assert history.train_loss == [] and history.stopped_epoch == 0
    assert net.to_json() == expected.to_json()
    assert np.array_equal(net.predict(x), expected.predict(x))


@pytest.mark.parametrize("where", ["train", "validation"])
def test_a_nan_input_window_is_a_numerical_error(where):
    net = build_architecture("raw-1d", num_classes=3, widths=NARROW["raw-1d"], seed=1)
    x, y = _batch("raw-1d", n=40)
    x_val, y_val = x[:8].copy(), y[:8]
    (x if where == "train" else x_val)[5] = np.nan
    with pytest.raises(NumericalError, match=f"epoch 1: .*{where} loss nan"):
        train(net, x, y, TrainConfig(batch_size=16, max_epochs=3), val=(x_val, y_val))


# ---- eval: every needed layer runs its own forward ------------------------


def _randomize(net, rng, subjects):
    """Non-trivial biases, BN affine parameters and one BN bank per subject."""
    for node in net.nodes:
        layer = node.layer
        if "bias" in layer.params:
            layer.set_param("bias", rng.standard_normal(layer.params["bias"].shape))
        if layer.kind == "batch-norm":
            width = layer.num_features
            layer.set_param("gamma", rng.uniform(0.5, 2.0, width))
            layer.set_param("beta", rng.standard_normal(width))
            _random_banks(layer, rng, subjects)


def _random_banks(bn, rng, subjects):
    for s in subjects:
        bn.set_bank(s, rng.standard_normal(bn.num_features), rng.uniform(0.2, 3.0, bn.num_features))


def _assert_matches_oracle(net, x, subjects):
    # batch 1, as streaming runs it, and the whole batch
    for s in subjects:
        for xb in (x[:1], x):
            ref = oracles.eval_forward_direct(net, xb, s)
            np.testing.assert_allclose(net.forward(xb, subject=s), ref, rtol=0, atol=1e-12)
            assert np.array_equal(net.predict(xb, subject=s), ref.argmax(axis=1))


def _merged_cwt_target(rng, widths=NARROW["cwt"]):
    source = build_architecture("cwt", num_classes=3, widths=widths, seed=1)
    _randomize(source, rng, subjects=(1, 2))
    source.freeze(lambda node: node.layer.kind != "batch-norm")
    target = build_target(SourceNetwork(network=source, pretrain_subjects=[1, 2]), seed=2)
    prepare_target_subject(target, 3)
    for node in target.network.nodes:
        if node.layer.kind == "batch-norm":  # the second network's have no bank yet
            missing = [s for s in (1, 2, 3) if s not in node.layer.banks]
            _random_banks(node.layer, rng, subjects=missing)
    return target.network


@pytest.mark.parametrize("arch", sorted(NARROW))
def test_folded_eval_matches_unfolded_oracle(arch):
    rng = np.random.default_rng(11)
    net = build_architecture(arch, num_classes=5, seed=3)
    _randomize(net, rng, subjects=(DEFAULT_SUBJECT, 1, 2))
    x = rng.standard_normal((9, *INPUT_SHAPES[arch]))
    _assert_matches_oracle(net, x, (None, 1, 2))


def test_folded_eval_matches_oracle_on_merged_target_per_subject_bank():
    rng = np.random.default_rng(12)
    net = _merged_cwt_target(rng)
    x = rng.standard_normal((9, *INPUT_SHAPES["cwt"]))
    _assert_matches_oracle(net, x, (1, 2, 3))
    # distinct banks give distinct logits, so each subject's bank was read
    assert not np.allclose(net.forward(x, subject=1), net.forward(x, subject=2))


def test_narrow_and_merged_eval_logits_match_the_unfolded_oracle():
    rng = np.random.default_rng(13)
    nets = [build_architecture(a, num_classes=3, widths=NARROW[a], seed=1) for a in sorted(NARROW)]
    for net in nets + [_merged_cwt_target(rng)]:
        _randomize(net, rng, subjects=(1,))
        x = rng.standard_normal((4, *INPUT_SHAPES[net.metadata["architecture"]]))
        logits = net.forward(x, subject=1)
        np.testing.assert_allclose(logits, oracles.eval_forward_direct(net, x, 1), atol=1e-12)


def test_fold_follows_every_parameter_and_bank_change():
    rng = np.random.default_rng(14)
    net = build_architecture("spectrogram", num_classes=3, widths=NARROW["spectrogram"], seed=1)
    _randomize(net, rng, subjects=(1,))
    x = rng.standard_normal((5, *INPUT_SHAPES["spectrogram"]))
    net.forward(x, subject=1)
    bn = net.node("c3_bn").layer
    bn.set_bank(1, bn.banks[1]["mean"] + 0.5, bn.banks[1]["var"])
    bn.set_param("gamma", bn.params["gamma"] * 1.5)
    conv, fc = net.node("c3_conv").layer, net.node("fc4_fc").layer
    conv.set_param("weight", conv.params["weight"] * -1.0)
    fc.set_param("bias", fc.params["bias"] + 2.0)
    _assert_matches_oracle(net, x, (1,))
    net.forward(x, mode="finalize", subject=1)  # rewrites subject 1's banks
    _assert_matches_oracle(net, x, (1,))


# ---- every writer stores fresh read-only arrays, and eval follows them ------


def _served(net, x, subject):
    """The logits eval serves ``subject``, checked against the unfolded oracle."""
    logits = net.forward(x, subject=subject)
    np.testing.assert_allclose(logits, oracles.eval_forward_direct(net, x, subject), rtol=0, atol=1e-12)
    return logits


def _assert_follows(net, x, subject, write):
    """``write()`` changes the logits served ``subject`` and no other subject's."""
    others = {s: _served(net, x, s) for s in (1, 2, 3) if s != subject}
    before = _served(net, x, subject)
    write()
    assert not np.allclose(_served(net, x, subject), before)
    for s, logits in others.items():
        assert _served(net, x, s).tobytes() == logits.tobytes(), s


def test_every_writer_changes_the_logits_it_serves(tmp_path):
    rng = np.random.default_rng(34)
    net = _merged_cwt_target(rng)
    x = rng.standard_normal((5, *INPUT_SHAPES["cwt"]))
    checkpoint = tmp_path / "model.json"
    net.save(checkpoint)
    saved = _served(net, x, 3)

    pelu = net.node("snd/fc4_act").layer
    pelu.set_param("a", np.full(pelu.num_features, 2 * PELU.FLOOR))
    opt = Adam(net, lr=0.05)
    net.zero_grads()
    for name, pname in net.trainable_parameters():
        grad = net.node(name).layer.grads[pname]
        grad[...] = rng.standard_normal(grad.shape)
    pelu.grads["a"][...] = 1.0  # the first step moves every a down by lr, below the floor
    before = _served(net, x, 3)
    opt.step()
    assert np.all(pelu.params["a"] == PELU.FLOOR)
    assert not np.allclose(_served(net, x, 3), before)

    net.load_state_dict(json.loads(checkpoint.read_text()))
    assert _served(net, x, 3).tobytes() == saved.tobytes()

    train_rng = np.random.default_rng(0)
    _assert_follows(net, x, 3, lambda: net.forward(x, mode="train", subject=3, rng=train_rng))
    _assert_follows(net, x, 3, lambda: net.forward(2 * x + 1, mode="finalize", subject=3))
    _assert_follows(net, x, 3, lambda: prepare_target_subject(TargetNetwork(net), 3))


def test_parameters_and_banks_refuse_in_place_writes():
    rng = np.random.default_rng(35)
    net = _merged_cwt_target(rng)
    x = rng.standard_normal((3, *INPUT_SHAPES["cwt"]))
    served = _served(net, x, 1)
    conv, bn = net.node("snd/c3_conv").layer, net.node("src/c3_bn").layer
    with pytest.raises(ValueError, match="read-only"):
        conv.params["weight"][...] *= 2.0
    with pytest.raises(ValueError, match="read-only"):
        bn.banks[1]["mean"] += 0.5
    arrays = [arr for _, _, arr in net.named_parameters()]
    arrays += [arr for node in net.nodes if node.layer.kind == "batch-norm"
               for bank in node.layer.banks.values() for arr in bank.values()]
    assert arrays and not any(arr.flags.writeable for arr in arrays)
    assert _served(net, x, 1).tobytes() == served.tobytes()


def test_each_subject_is_served_by_its_own_bank():
    rng = np.random.default_rng(36)
    net = _merged_cwt_target(rng)
    x = rng.standard_normal((4, *INPUT_SHAPES["cwt"]))
    logits = {s: _served(net, x, s) for s in (1, 2)}
    assert not np.allclose(logits[1], logits[2])
    program = net._eval_program(1)
    assert net._eval_program(2) is not program
    for node in net.nodes:  # a new bank for subject 2 only
        if node.layer.kind == "batch-norm":
            node.layer.set_bank(2, node.layer.banks[2]["mean"] + 1.0, node.layer.banks[2]["var"])
    assert not np.allclose(_served(net, x, 2), logits[2])
    assert net._eval_program(1) is program
    assert _served(net, x, 1).tobytes() == logits[1].tobytes()
    with pytest.raises(ConfigError, match="no statistics for subject 9"):
        net.predict(x, subject=9)


def test_a_bank_removed_by_loading_a_checkpoint_is_never_served():
    rng = np.random.default_rng(37)
    net = _merged_cwt_target(rng)
    x = rng.standard_normal((3, *INPUT_SHAPES["cwt"]))
    full, state = net.state_dict(), net.state_dict()
    for entry in state["nodes"]:
        entry["extra"].get("banks", {}).pop("2", None)
    served = _served(net, x, 1)
    _served(net, x, 2)
    net.load_state_dict(state)
    with pytest.raises(ConfigError, match="no statistics for subject 2"):
        net.predict(x, subject=2)
    assert _served(net, x, 1).tobytes() == served.tobytes()
    # the banks alone, with no parameter written
    net.load_state_dict(full)
    _served(net, x, 2)
    for node, entry in zip(net.nodes, state["nodes"]):
        node.layer.load_extra(entry["extra"])
    with pytest.raises(ConfigError, match="no statistics for subject 2"):
        net.predict(x, subject=2)
    assert _served(net, x, 1).tobytes() == served.tobytes()


# ---- eval runs a long input in blocks of EVAL_BLOCK windows ----------------


def _assert_blocked_eval_matches_oracle(net, x, subject):
    blocks = []
    program = net._eval_program(subject)
    run_block = program.run

    def recorded(xb):
        blocks.append(len(xb))
        return run_block(xb)

    program.run = recorded
    logits = net.forward(x, subject=subject)
    pred = net.predict(x, subject=subject)
    del program.run
    assert blocks == [EVAL_BLOCK, EVAL_BLOCK, 3] * 2
    ref = oracles.eval_forward_direct(net, x, subject)
    np.testing.assert_allclose(logits, ref, rtol=0, atol=1e-12)
    assert np.array_equal(pred, ref.argmax(axis=1))


@pytest.mark.parametrize("arch", sorted(NARROW))
def test_blocked_eval_matches_the_whole_set_oracle(arch):
    rng = np.random.default_rng(30)
    net = build_architecture(arch, num_classes=5, seed=3)
    _randomize(net, rng, subjects=(DEFAULT_SUBJECT,))
    x = rng.standard_normal((2 * EVAL_BLOCK + 3, *INPUT_SHAPES[arch]))
    _assert_blocked_eval_matches_oracle(net, x, None)


def test_blocked_eval_matches_the_whole_set_oracle_on_the_merged_target():
    rng = np.random.default_rng(31)
    net = _merged_cwt_target(rng)
    x = rng.standard_normal((2 * EVAL_BLOCK + 3, *INPUT_SHAPES["cwt"]))
    for subject in (1, 3):
        _assert_blocked_eval_matches_oracle(net, x, subject)


def test_eval_memory_stays_at_one_block_whatever_the_set_size():
    # a whole-set pass over 4 blocks peaked at about 4x one block's
    rng = np.random.default_rng(32)
    net = build_architecture("spectrogram", seed=1)
    _randomize(net, rng, subjects=(DEFAULT_SUBJECT,))
    x = rng.standard_normal((4 * EVAL_BLOCK, *INPUT_SHAPES["spectrogram"]))
    net.forward(x[:EVAL_BLOCK])  # fills the cached im2col indices first
    one = _peak_mb(lambda: net.forward(x[:EVAL_BLOCK]))
    four = _peak_mb(lambda: net.forward(x))
    assert four < 1.5 * one


# ---- sibling nodes share one eval step, and grouping changes no bit ----------


def _walk_eval_steps(net, x, subject):
    """The logits of ``net`` with every node run alone through its one-layer eval
    step (views through its ``eval_views``), in blocks of ``EVAL_BLOCK`` windows."""
    key = subject_key(subject)

    def block(xb):
        values = {"input": xb}
        for node in net.nodes:
            ins = [values[ref] for ref in node.inputs]
            views = node.layer.eval_views()
            if views is None:
                step = oracles.eval_step(node.layer, key)
                values[node.name] = step(ins[0] if len(ins) == 1 else tuple(ins))
                continue
            out = ins[0][None]
            for view in views:
                out = view(out)
            values[node.name] = out[0]
        return values[net.output_name]

    return np.concatenate([block(x[i : i + EVAL_BLOCK]) for i in range(0, len(x), EVAL_BLOCK)])


def _assert_grouped_equals_the_walk(net, x, subject):
    for xb in (x[:1], x):
        assert net.forward(xb, subject=subject).tobytes() == _walk_eval_steps(net, xb, subject).tobytes()


@pytest.mark.parametrize("arch", sorted(NARROW))
def test_grouped_eval_equals_a_node_by_node_walk_of_its_steps(arch):
    rng = np.random.default_rng(38)
    net = build_architecture(arch, num_classes=5, seed=3)
    _randomize(net, rng, subjects=(DEFAULT_SUBJECT,))
    x = rng.standard_normal((2 * EVAL_BLOCK + 3, *INPUT_SHAPES[arch]))
    _assert_grouped_equals_the_walk(net, x, None)


def test_grouped_eval_equals_a_node_by_node_walk_of_its_steps_on_the_merged_target():
    rng = np.random.default_rng(39)
    net = _merged_cwt_target(rng, widths=None)
    x = rng.standard_normal((2 * EVAL_BLOCK + 3, *INPUT_SHAPES["cwt"]))
    for subject in (1, 2, 3):
        _assert_grouped_equals_the_walk(net, x, subject)


@pytest.mark.parametrize(
    "member,written,write,moved",
    [
        ("snd/b2_c1_conv", "snd/b2_c1_conv",
         lambda layer: layer.set_param("weight", layer.params["weight"] * -1.5), (1, 2, 3)),
        ("src/b1_c1_bn", "src/b1_c1_bn",
         lambda layer: layer.set_bank(3, layer.banks[3]["mean"] + 1.0, layer.banks[3]["var"]), (3,)),
        # the merge's step is its ScalarScale's
        ("merge1_3", "scale1_3", lambda layer: layer.set_param("coeff", layer.params["coeff"] * 0.5 - 0.25),
         (1, 2, 3)),
    ],
    ids=["conv-weight", "bank", "coeff"],
)
def test_writing_one_member_rebuilds_its_programs_and_moves_only_its_logits(member, written, write, moved):
    rng = np.random.default_rng(40)
    net = _merged_cwt_target(rng)
    x = rng.standard_normal((5, *INPUT_SHAPES["cwt"]))
    before = {s: net.forward(x, subject=s) for s in (1, 2, 3)}
    programs = {s: net._eval_program(s) for s in (1, 2, 3)}
    assert len(next(step for step in programs[3].steps if member in step.names).names) > 1
    write(net.node(written).layer)
    for s in (1, 2, 3):
        logits = net.forward(x, subject=s)
        # the walk reads every node's constants as they are now, so only the written member moved
        assert logits.tobytes() == _walk_eval_steps(net, x, s).tobytes(), s
        assert (net._eval_program(s) is programs[s]) == (s not in moved), s
        assert (logits.tobytes() == before[s].tobytes()) == (s not in moved), s


def test_siblings_share_an_eval_step():
    rng = np.random.default_rng(41)
    merged = _merged_cwt_target(rng, widths=None)
    steps = merged._eval_program(3).steps
    assert len(steps) <= 40
    first_convs = sorted(f"{side}/b{i}_c1_conv" for side in ("src", "snd") for i in range(4))
    assert sorted(steps[0].names) == first_convs
    spectrogram = build_architecture("spectrogram", seed=1)
    _randomize(spectrogram, rng, subjects=(DEFAULT_SUBJECT,))
    assert len(spectrogram._eval_program(None).steps) <= 17


def test_members_reading_one_input_slice_gather_its_patches_once(monkeypatch):
    rng = np.random.default_rng(42)
    net = _merged_cwt_target(rng, widths=None)
    x = rng.standard_normal((3, *INPUT_SHAPES["cwt"]))
    stage1 = [net.node(name).layer for name in net._eval_program(3).steps[0].names]
    gathered = []
    im2col = Conv2d._im2col
    monkeypatch.setattr(Conv2d, "_im2col", lambda conv, *a: (gathered.append(conv), im2col(conv, *a))[1])
    logits = net.forward(x, subject=3)
    # src/b<i>_c1_conv and snd/b<i>_c1_conv read slice i: 4 gathers for the 8 stage-1 convs
    assert sum(conv in stage1 for conv in gathered) == 4
    assert len(gathered) == sum(node.layer.kind == "conv2d" for node in net.nodes) - 4
    monkeypatch.undo()
    assert logits.tobytes() == _walk_eval_steps(net, x, 3).tobytes()
    np.testing.assert_allclose(logits, oracles.eval_forward_direct(net, x, 3), rtol=0, atol=1e-12)


def _record_forward_calls(net):
    """Names of the nodes whose layer ``forward`` runs, in call order."""
    calls = []
    for node in net.nodes:
        def record(*args, _name=node.name, _inner=node.layer.forward):
            calls.append(_name)
            return _inner(*args)

        node.layer.forward = record
    return calls


def _record_eval_steps(net, subject):
    """Names of the nodes whose eval program steps run for ``subject``, in call
    order: a step that runs a group of nodes records each member's name."""
    calls = []
    program = net._eval_program(subject)

    def recorded(step):
        def fn(x):
            calls.extend(step.names)
            return step.fn(x)

        return step._replace(fn=fn)

    program.steps = [recorded(step) for step in program.steps]
    return calls


def _kind_names(net, kind):
    return [node.name for node in net.nodes if node.layer.kind == kind]


def test_eval_runs_each_needed_batch_norm_once_and_no_dropout_layer():
    rng = np.random.default_rng(15)
    net = _merged_cwt_target(rng)
    calls = _record_eval_steps(net, 3)
    needed = {net.output_name}
    for node in reversed(net.nodes):
        if node.name in needed:
            needed.update(node.inputs)
    batch_norms = sorted(name for name in _kind_names(net, "batch-norm") if name in needed)
    assert batch_norms
    x = rng.standard_normal((64, *INPUT_SHAPES["cwt"]))
    for xb in (x[:1], x):
        calls.clear()
        net.predict(xb, subject=3)
        assert sorted(c for c in calls if c in batch_norms) == batch_norms, len(xb)
        assert calls and not set(_kind_names(net, "dropout")) & set(calls), len(xb)
    calls = _record_forward_calls(net)
    net.forward(x, mode="train", subject=3, rng=np.random.default_rng(0))
    assert set(calls) == needed - {"input"}


def test_eval_skips_the_source_head_that_cannot_reach_the_logits():
    rng = np.random.default_rng(18)
    net = _merged_cwt_target(rng)
    calls = _record_eval_steps(net, 3)
    x = rng.standard_normal((4, *INPUT_SHAPES["cwt"]))
    net.predict(x, subject=3)
    assert "src/head" not in calls and "snd/head" in calls


def test_batch_norm_that_cannot_fold_runs_its_own_eval_forward():
    rng = np.random.default_rng(16)
    # conv is read by bn and by the sum port; bn2 reads a dropout, not its producer
    net = Network(
        [
            Node("conv", Conv2d(2, 3, 2, 2, rng=rng), ["input"]),
            Node("bn", BatchNorm(3), ["conv"]),
            Node("sum", Sum(), ["bn", "conv"]),
            Node("flat", Flatten(), ["sum"]),
            Node("fc", Dense(3 * 3 * 4, 4, rng=rng), ["flat"]),
            Node("drop", Dropout(0.5), ["fc"]),
            Node("bn2", BatchNorm(4), ["drop"]),
            Node("head", Dense(4, 3, rng=rng), ["bn2"]),
        ]
    )
    _randomize(net, rng, subjects=(7,))
    x = rng.standard_normal((6, 2, 4, 5))
    calls = _record_eval_steps(net, 7)
    _assert_matches_oracle(net, x, (7,))
    assert calls.count("bn") == calls.count("bn2") == 4  # 2 batch sizes x (forward, predict)


# ---- each output lives until its last reader, no longer --------------------


def _cached_arrays(caches):
    """Ids of the arrays a list of layer caches holds, and of their bases."""
    ids = set()
    for cache in caches:
        for item in cache if isinstance(cache, tuple) else (cache,):
            if isinstance(item, np.ndarray):
                ids.update((id(item), id(item.base)))
    return ids


class _LifetimeSpy:
    """Wraps every layer's ``forward``, or with ``eval_subject`` every step of
    that subject's eval program, and notes, at each call, which earlier outputs live.
    A step that runs a group of nodes writes one output, noted once per member.

    Outputs are held by weak reference only.  Each live output is noted with
    whether a train cache holds it (the network keeps those for backward)
    and which live outputs are it or a view of it.  Once the run is over,
    ``stale()`` names the outputs that were alive at a call after their last
    reader although no cache held them and no output still to be read
    viewed them.
    """

    def __init__(self, net, eval_subject=None):
        self.names, self.outputs, self.last_read, self.notes = [], [], [], []
        self.caches = []
        if eval_subject is not None:
            program = net._eval_program(eval_subject)
            program.steps = [step._replace(fn=self._step_spy(step)) for step in program.steps]
            return
        for node in net.nodes:
            def spy(xs, ctx, *rest, _name=node.name, _inner=node.layer.forward):
                out, cache = self._call((_name,), xs, lambda: _inner(xs, ctx, *rest))
                if ctx.mode == "train":
                    self.caches.append(cache)
                return out, cache

            node.layer.forward = spy

    def _step_spy(self, step):
        def spy(x):
            xs = x if isinstance(x, tuple) else (x,)
            return self._call(step.names, xs, lambda: (step.fn(x), None))[0]

        return spy

    def _call(self, names, xs, run):
        self._note(xs)
        out, cache = run()
        for name in names:
            self.names.append(name)
            self.outputs.append(weakref.ref(out))
            self.last_read.append(-1)
        return out, cache

    def _note(self, xs):
        j = len(self.outputs)
        live = [(k, ref()) for k, ref in enumerate(self.outputs)]
        live = [(k, out) for k, out in live if out is not None]
        cached = _cached_arrays(self.caches)
        for k, out in live:
            if any(x is out for x in xs):
                self.last_read[k] = j
            holders = [m for m, other in live if m != k and (other is out or other.base is out)]
            self.notes.append((j, k, id(out) in cached, holders))

    def stale(self):
        return sorted(
            {
                self.names[k]
                for j, k, cached, holders in self.notes
                if j > self.last_read[k]
                and not cached
                and not any(self.last_read[m] >= j for m in holders)
            }
        )

    def finish(self):
        """Drop the train caches, then the names of the outputs still alive."""
        self.caches.clear()
        return [name for name, ref in zip(self.names, self.outputs) if ref() is not None]


@pytest.mark.parametrize("arch", ["merged-cwt", "spectrogram"])
@pytest.mark.parametrize("run", ["predict-1", "predict-64", "finalize", "train"])
def test_no_output_outlives_its_last_reader(arch, run):
    rng = np.random.default_rng(19)
    if arch == "merged-cwt":
        net = _merged_cwt_target(rng)
    else:
        net = build_architecture(arch, num_classes=3, widths=NARROW[arch], seed=1)
        _randomize(net, rng, subjects=(3,))
    x = rng.standard_normal((64, *INPUT_SHAPES[net.metadata["architecture"]]))
    spy = _LifetimeSpy(net, eval_subject=3 if run.startswith("predict") else None)
    if run.startswith("predict"):
        net.predict(x[: int(run.split("-")[1])], subject=3)
    elif run == "finalize":
        net.forward(x, mode="finalize", subject=3)
    else:
        net.train_batch(x, np.arange(64) % 3, subject=3, rng=np.random.default_rng(0))
    assert len(spy.outputs) > len(net.nodes) // 2
    assert spy.stale() == []
    assert spy.finish() == []


def _peak_mb(fn):
    """Peak traced memory of ``fn()`` above what was allocated before it, in MB."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        tracemalloc.stop()


def test_merged_cwt_target_peak_memory_is_bounded():
    # full widths; the peaks were 80 MB (predict) and 57 MB (train step) when
    # every output stayed alive to the end of the forward pass, 20 and 36 MB after
    rng = np.random.default_rng(20)
    net = _merged_cwt_target(rng, widths=None)
    x = rng.standard_normal((512, *INPUT_SHAPES["cwt"]))
    y = np.arange(128) % 3
    net.predict(x[:2], subject=3)
    assert _peak_mb(lambda: net.predict(x, subject=3)) < 32
    train_rng = np.random.default_rng(0)
    assert _peak_mb(lambda: net.train_batch(x[:128], y, subject=3, rng=train_rng)) < 45


@pytest.mark.parametrize("arch", ["spectrogram", "merged-cwt"])
def test_a_train_step_keeps_no_patch_matrix_or_float_mask_alive(arch):
    # full widths, batch 128: 44 and 36 MB when each conv cached its patch matrix,
    # dropout its float64 mask, and backward held every cache to its end; 20 and 20 MB after
    rng = np.random.default_rng(21)
    net = _merged_cwt_target(rng, widths=None) if arch == "merged-cwt" else build_architecture(arch)
    subject = 3 if arch == "merged-cwt" else None
    x = rng.standard_normal((128, *INPUT_SHAPES[net.metadata["architecture"]]))
    y = np.arange(128) % 3
    train_rng = np.random.default_rng(0)
    net.train_batch(x, y, subject=subject, rng=train_rng)
    assert _peak_mb(lambda: net.train_batch(x, y, subject=subject, rng=train_rng)) < 28


# ---- im2col gathers exactly the strided view's patch matrix ----------------


@pytest.mark.parametrize("n", [1, 128])
@pytest.mark.parametrize("layout", ["c", "conv", "slice"])
@pytest.mark.parametrize("kh,kw,h,w", [(3, 3, 6, 5), (1, 5, 1, 12)])
def test_im2col_equals_the_strided_view(kh, kw, h, w, layout, n):
    rng = np.random.default_rng(26)
    c = 4
    if layout == "slice":
        x = rng.standard_normal((n, c + 3, h, w))[:, 1 : 1 + c]
    else:
        x = _map(rng, (n, c, h, w), layout)
    cols = Conv2d(c, 2, kh, kw, rng=rng)._im2col(x, h - kh + 1, w - kw + 1)
    ref = oracles.im2col_direct(x, kh, kw)
    assert cols.shape == ref.shape and cols.strides == ref.strides
    assert cols.tobytes() == ref.tobytes()


# ---- activation, batch-norm and dropout equal their select forms bit for bit ----

# (shape, input layout, output-gradient layout); "conv" is a conv output's
# layout, an (n, h, w, c) array seen as (n, c, h, w).  61 440 elements is past
# the size from which numpy reuses a temporary's buffer in place.
LAYOUT_CASES = [
    (shape, x_layout, d_layout)
    for shape in ((4, 3, 5, 6), (128, 16, 6, 5))
    for x_layout in ("c", "conv")
    for d_layout in ("c", "conv")
] + [((6, 5), "c", "c"), ((4096, 10), "c", "c")]


def _map(rng, shape, layout):
    if layout == "c":
        return rng.standard_normal(shape)
    n, c, h, w = shape
    return rng.standard_normal((n, h, w, c)).transpose(0, 3, 1, 2)


def _with_edges(x):
    """Exact zeros of both signs, a subnormal and values whose exp(x / b) underflows."""
    for start, value in enumerate((0.0, -0.0, -5e-324, -800.0, -1.0)):
        x[np.unravel_index(np.arange(start, x.size, 97), x.shape)] = value
    return x


def _assert_bits(new, ref, signed_zero_ok=None):
    """Same layout and bytes; elements under ``signed_zero_ok`` need only equal values."""
    assert new.shape == ref.shape and new.strides == ref.strides
    free = np.zeros(new.shape, bool) if signed_zero_ok is None else signed_zero_ok
    assert new[~free].tobytes() == ref[~free].tobytes()
    assert np.array_equal(new[free], ref[free])


def _assert_grads(layer, ref):
    for name, g in ref.items():
        assert layer.grads[name].tobytes() == (np.zeros_like(g) + g).tobytes(), name


def _train_pass(layer, x, dout):
    layer.zero_grads()
    out, cache = layer.forward([x], Context(mode="train"))
    (dx,) = layer.backward(dout, cache, True)
    return out, dx


@pytest.mark.parametrize("shape,x_layout,d_layout", LAYOUT_CASES)
def test_prelu_equals_its_select_form(shape, x_layout, d_layout):
    rng = np.random.default_rng(21)
    x = _with_edges(_map(rng, shape, x_layout))
    dout = _map(rng, shape, d_layout)
    layer = PReLU(shape[1])
    layer.set_param("alpha", rng.uniform(0.05, 0.5, shape[1]))
    out, dx = _train_pass(layer, x, dout)
    ref_out, ref_dx, ref_grads = oracles.prelu_direct(x, layer.params["alpha"], dout)
    # max(x, 0) + alpha min(x, 0) is +0 where the select gives -0: at x = -0
    # and where alpha x underflows
    alpha = layer.params["alpha"].reshape((1, -1) + (1,) * (x.ndim - 2))
    _assert_bits(out, ref_out, signed_zero_ok=(alpha * x == 0))
    _assert_bits(dx, ref_dx)
    _assert_grads(layer, ref_grads)


@pytest.mark.parametrize("shape,x_layout,d_layout", LAYOUT_CASES)
def test_pelu_equals_its_select_form(shape, x_layout, d_layout):
    rng = np.random.default_rng(22)
    x = _with_edges(_map(rng, shape, x_layout))
    dout = _map(rng, shape, d_layout)
    layer = PELU(shape[1])
    a, b = rng.uniform(0.5, 2.0, shape[1]), rng.uniform(0.5, 2.0, shape[1])
    a[0] = b[0] = PELU.FLOOR
    layer.set_param("a", a)
    layer.set_param("b", b)
    out, dx = _train_pass(layer, x, dout)
    ref_out, ref_dx, ref_grads = oracles.pelu_direct(x, layer.params["a"], layer.params["b"], dout)
    # (a/b) max(x, 0) + a (exp - 1) is +0 at x = -0, where the select gives -0
    _assert_bits(out, ref_out, signed_zero_ok=(x == 0))
    _assert_bits(dx, ref_dx)
    _assert_grads(layer, ref_grads)
    assert np.any(x < -700) and np.all(np.isfinite(out))


@pytest.mark.parametrize("shape,x_layout,d_layout", LAYOUT_CASES)
def test_batch_norm_train_equals_its_textbook_form(shape, x_layout, d_layout):
    rng = np.random.default_rng(23)
    x = _map(rng, shape, x_layout) * 3.0 + 1.0
    dout = _map(rng, shape, d_layout)
    layer = BatchNorm(shape[1])
    layer.set_param("gamma", rng.uniform(0.5, 2.0, shape[1]))
    layer.set_param("beta", rng.standard_normal(shape[1]))
    out, dx = _train_pass(layer, x, dout)
    ref_out, ref_dx, ref_grads, (mean, var) = oracles.batch_norm_train_direct(
        x, layer.params["gamma"], layer.params["beta"], dout, BN_EPS
    )
    _assert_bits(out, ref_out)
    _assert_bits(dx, ref_dx)
    _assert_grads(layer, ref_grads)
    layer.forward([x], Context(mode="finalize"))
    bank = layer.banks[DEFAULT_SUBJECT]
    assert bank["mean"].tobytes() == mean.tobytes() and bank["var"].tobytes() == var.tobytes()


@pytest.mark.parametrize("layout", ["c", "conv"])
def test_dropout_mask_equals_the_select_form_from_the_same_stream(layout):
    rng = np.random.default_rng(24)
    x = _map(rng, (128, 16, 6, 5), layout)
    layer = Dropout(0.3)
    ctx = Context(mode="train", rng=np.random.default_rng(5))
    out, cache = layer.forward([x], ctx)
    ref_rng = np.random.default_rng(5)
    ref_mask = oracles.dropout_mask_direct(ref_rng, x.shape, 0.3)
    dout = _map(rng, x.shape, layout)
    (dx,) = layer.backward(dout, cache, True)
    _assert_bits(dx, dout * ref_mask)
    _assert_bits(out, x * ref_mask)
    assert ctx.rng.random() == ref_rng.random()


# ---- max pooling: the first max wins, and eval computes no index ------------


@pytest.mark.parametrize("layout", ["c", "conv"])
@pytest.mark.parametrize("kh,kw,h,w", [(1, 3, 2, 17), (2, 2, 5, 7)])
def test_maxpool_equals_the_loop_form_with_ties_and_cropped_remainders(kh, kw, h, w, layout):
    rng = np.random.default_rng(27)
    n, c = 4, 3
    # five levels and zeros of both signs, so most windows hold a tie
    x = rng.integers(-2, 3, (n, h, w, c)) * rng.choice([1.0, -1.0], (n, h, w, c))
    x = x.transpose(0, 3, 1, 2) if layout == "conv" else np.ascontiguousarray(x.transpose(0, 3, 1, 2))
    dout = rng.standard_normal((n, c, h // kh, w // kw))
    ref_out, ref_dx = oracles.maxpool_direct(x, kh, kw, dout)
    layer = MaxPool(kh, kw)
    out, cache = layer.forward([x], Context(mode="train"))
    assert out.tobytes() == ref_out.tobytes()
    (dx,) = layer.backward(dout, cache, True)
    assert dx.tobytes() == ref_dx.tobytes()
    final_out, final_cache = layer.forward([x], Context(mode="finalize"))
    assert final_cache is None
    eval_out = oracles.eval_step(layer, DEFAULT_SUBJECT)(x)
    for out in (final_out, eval_out):
        assert out.shape == ref_out.shape and np.array_equal(out, ref_out)


@pytest.mark.parametrize("arch", ["raw-1d", "enhanced-raw"])
def test_finalize_pools_without_an_index_and_writes_the_same_banks(arch):
    rng = np.random.default_rng(29)
    net = build_architecture(arch, num_classes=3, widths=NARROW[arch], seed=1)
    conv = net.node("c1_conv").layer
    # integer inputs and weights tie many pooled values, as in the max-pooling test
    conv.set_param("weight", rng.integers(-1, 2, conv.params["weight"].shape))
    shape = (64, *INPUT_SHAPES[arch])
    x = rng.integers(-2, 3, shape) * rng.choice([1.0, -1.0], shape)
    indexed = net.clone()
    for node in indexed.nodes:
        if node.layer.kind == "maxpool":  # pool as train does: argmax, then gather
            def pool(xs, ctx, _train=node.layer.forward):
                return _train(xs, Context(mode="train"))[0], None

            node.layer.forward = pool
    for model in (net, indexed):
        model.forward(x, mode="finalize", subject=1)
    banks = [json.dumps(node.layer.state_extra()) for node in net.nodes]
    assert banks == [json.dumps(node.layer.state_extra()) for node in indexed.nodes]
    assert any("banks" in b for b in banks)


def test_frozen_conv_keeps_no_patch_matrix_and_refuses_a_late_unfreeze():
    rng = np.random.default_rng(25)
    x = rng.standard_normal((4, 3, 5, 6))
    conv = Conv2d(3, 2, 2, 2, rng=rng)
    out, live_cache = conv.forward([x], Context(mode="train"))
    dout = rng.standard_normal(out.shape)
    (dx_live,) = conv.backward(dout, live_cache, True)
    conv.frozen = True
    _, cache = conv.forward([x], Context(mode="train"))
    assert any(isinstance(v, np.ndarray) for v in live_cache)
    assert not any(isinstance(v, np.ndarray) for v in cache)
    (dx,) = conv.backward(dout, cache, True)
    assert np.array_equal(dx, dx_live)
    conv.frozen = False
    with pytest.raises(ConfigError):
        conv.backward(dout, cache, True)


def _adam_matches_the_textbook_update(net, x, y, subject, steps=20):
    """Every step's parameters and moments equal ``oracles.adam_update_direct``, byte for byte."""
    opt = Adam(net, lr=0.01)
    rng = np.random.default_rng(5)
    m = {key: np.zeros_like(arr) for key, arr in opt.m.items()}
    v = {key: np.zeros_like(arr) for key, arr in opt.v.items()}
    for t in range(1, steps + 1):
        net.zero_grads()
        net.train_batch(x, y, subject=subject, rng=rng)
        want = {}
        for key in opt.m:
            layer = net.node(key[0]).layer
            if layer.frozen:
                continue
            grad = layer.grads[key[1]]
            want[key], m[key], v[key] = oracles.adam_update_direct(
                layer.params[key[1]], grad, m[key], v[key], t, opt.lr)
            if layer.kind == "pelu":
                want[key] = np.maximum(want[key], PELU.FLOOR)
        opt.step()
        assert want
        for key, param in want.items():
            assert net.node(key[0]).layer.params[key[1]].tobytes() == param.tobytes(), (t, key)
            assert opt.m[key].tobytes() == m[key].tobytes(), (t, key)
            assert opt.v[key].tobytes() == v[key].tobytes(), (t, key)


def test_adam_steps_equal_the_textbook_update_on_spectrogram():
    net = build_architecture("spectrogram", num_classes=3, widths=NARROW["spectrogram"], seed=1)
    x, y = _batch("spectrogram")
    _adam_matches_the_textbook_update(net, x, y, subject=None)


def test_adam_steps_equal_the_textbook_update_on_the_merged_cwt_target():
    rng = np.random.default_rng(36)
    net = _merged_cwt_target(rng)
    x = rng.standard_normal((6, *INPUT_SHAPES["cwt"]))
    y = rng.integers(0, 3, 6)
    _adam_matches_the_textbook_update(net, x, y, subject=3)
