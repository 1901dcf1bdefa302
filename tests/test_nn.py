import numpy as np
import pytest

import oracles
from myogest.architectures import INPUT_SHAPES, build_architecture
from myogest.errors import ConfigError
from myogest.nn import PELU, BatchNorm, Context, Conv2d, Dense, PReLU, ScalarScale, TrainConfig

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
    conv.params["bias"] = rng.standard_normal(4)
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
    for mode in ("eval", "finalize"):
        assert net._forward_full(x, mode, None, None)[2] == {}
    _, values, caches = net._forward_full(x, "train", None, np.random.default_rng(0))
    assert set(caches) == {node.name for node in net.nodes}
    assert set(values) == {"input"} | set(caches)


@pytest.mark.parametrize(
    "kwargs", [{"batch_size": 1}, {"batch_size": 0}, {"dropout_rate": 1.0}, {"dropout_rate": -0.1}]
)
def test_train_config_rejects_silent_misconfiguration(kwargs):
    with pytest.raises(ConfigError):
        TrainConfig(**kwargs)


def test_train_config_accepts_the_edges():
    TrainConfig(batch_size=2, dropout_rate=0.0)
    TrainConfig(dropout_rate=0.99)
