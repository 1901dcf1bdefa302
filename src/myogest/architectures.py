"""Concrete network builders: slow-fusion spectrogram/CWT nets and raw nets.

The published figures give total learnable-parameter counts (67 179 for the
spectrogram net, 30 219 for the CWT net, 549 091 for the enhanced raw net)
but not every layer dimension; stage widths here are chosen to land within
20% of those counts and are recorded in the network metadata.  Convolutions
are 3x3 (time-frequency nets) or 1x5 (raw nets), valid padding; raw nets
pool with non-overlapping 1x3 windows.

Slow fusion splits the input tensor along the time axis (the leading axis,
mapped to image channels): the spectrogram net runs two branches over
time-halves, the CWT net four branches over time-quarters fused pairwise.
Conv stages use PReLU and fully connected stages PELU, except when a
builder is asked for PELU-only activations (the transfer second network).
"""

from __future__ import annotations

import numpy as np

from .dataset import WINDOW_LENGTH
from .errors import ConfigError
from .nn import (
    BatchNorm,
    Conv2d,
    Dense,
    Dropout,
    Flatten,
    MaxPool,
    Network,
    Node,
    PELU,
    PReLU,
    SliceChannels,
    Sum,
)

PARAM_TARGETS = {"spectrogram": 67_179, "cwt": 30_219, "enhanced-raw": 549_091}
LEARNING_RATES = {
    "spectrogram": 0.00681292,
    "cwt": 0.0879923,
    "raw": 1.1288378916846883e-5,
    "enhanced-raw": 0.002335721469090121,
    "raw-1d": 0.002335721469090121,
}
INPUT_SHAPES = {
    "spectrogram": (4, 8, 14),
    "cwt": (12, 8, 7),
    "raw": (1, 8, WINDOW_LENGTH),
    "enhanced-raw": (1, 8, WINDOW_LENGTH),
    "raw-1d": (8, 1, WINDOW_LENGTH),
}


class _Builder:
    """Accumulates nodes with unique names and a stage-output record."""

    def __init__(self, seed):
        self.nodes = []
        self.rng = np.random.default_rng(seed)
        self.stage_outputs = []  # list of lists of node names

    def add(self, name, layer, inputs):
        self.nodes.append(Node(name=name, layer=layer, inputs=list(inputs)))
        return name

    def conv_stage(self, tag, src, c_in, c_out, kh, kw, activation, pool=None, bn=True, dropout=True):
        out = self.add(f"{tag}_conv", Conv2d(c_in, c_out, kh, kw, rng=self.rng), [src])
        if bn:
            out = self.add(f"{tag}_bn", BatchNorm(c_out), [out])
        out = self.add(f"{tag}_act", self._activation(activation, c_out), [out])
        if pool is not None:
            out = self.add(f"{tag}_pool", MaxPool(*pool), [out])
        if dropout:
            out = self.add(f"{tag}_drop", Dropout(0.5), [out])
        return out

    def fc_stage(self, tag, src, n_in, n_out, activation, bn=True, dropout=True):
        out = self.add(f"{tag}_fc", Dense(n_in, n_out, rng=self.rng), [src])
        if bn:
            out = self.add(f"{tag}_bn", BatchNorm(n_out), [out])
        out = self.add(f"{tag}_act", self._activation(activation, n_out), [out])
        if dropout:
            out = self.add(f"{tag}_drop", Dropout(0.5), [out])
        return out

    def _activation(self, kind, width):
        if kind == "prelu":
            return PReLU(width)
        if kind == "pelu":
            return PELU(width)
        if kind == "relu":
            return PReLU(width, alpha_init=0.0, frozen=True)
        raise ConfigError(f"unknown activation '{kind}'")


def _finish(builder, name, num_classes, widths):
    """The built network; it is not run, so its BatchNorms hold no statistics yet."""
    return Network(
        nodes=builder.nodes,
        metadata={
            "architecture": name,
            "num_classes": num_classes,
            "stage_outputs": builder.stage_outputs,
            "widths": widths,
        },
    )


def build_spectrogram_net(num_classes=7, widths=None, activation="mixed", seed=0) -> Network:
    """Two time-half branches, three conv stages (fused after stage 2), two FC stages."""
    w = {"c1": 16, "c2": 24, "c3": 32, "fc4": 80, "fc5": 80}
    w.update(widths or {})
    conv_act = "prelu" if activation == "mixed" else activation
    fc_act = "pelu" if activation == "mixed" else activation
    b = _Builder(seed)
    halves = []
    c1_outs, c2_outs = [], []
    for i in range(2):
        s = b.add(f"b{i}_slice", SliceChannels(2 * i, 2 * i + 2), ["input"])
        c1 = b.conv_stage(f"b{i}_c1", s, 2, w["c1"], 3, 3, conv_act)
        c1_outs.append(c1)
        c2 = b.conv_stage(f"b{i}_c2", c1, w["c1"], w["c2"], 3, 3, conv_act)
        c2_outs.append(c2)
        halves.append(c2)
    merged = b.add("fuse", Sum(), halves)
    c3 = b.conv_stage("c3", merged, w["c2"], w["c3"], 3, 3, conv_act)
    flat = b.add("flatten", Flatten(), [c3])
    fc4 = b.fc_stage("fc4", flat, w["c3"] * 2 * 8, w["fc4"], fc_act)
    fc5 = b.fc_stage("fc5", fc4, w["fc4"], w["fc5"], fc_act)
    b.add("head", Dense(w["fc5"], num_classes, rng=b.rng), [fc5])
    b.stage_outputs = [c1_outs, c2_outs, [c3], [fc4], [fc5]]
    return _finish(b, "spectrogram", num_classes, w)


def build_cwt_net(num_classes=7, widths=None, activation="mixed", seed=0) -> Network:
    """Four time-quarter branches fused pairwise (4 -> 2 -> 1), then two FC stages."""
    w = {"c1": 16, "c2": 24, "c3": 32, "fc4": 80, "fc5": 80}
    w.update(widths or {})
    conv_act = "prelu" if activation == "mixed" else activation
    fc_act = "pelu" if activation == "mixed" else activation
    b = _Builder(seed)
    c1_outs = []
    for i in range(4):
        s = b.add(f"b{i}_slice", SliceChannels(3 * i, 3 * i + 3), ["input"])
        c1 = b.conv_stage(f"b{i}_c1", s, 3, w["c1"], 3, 3, conv_act)
        c1_outs.append(c1)
    pair0 = b.add("fuse01", Sum(), [c1_outs[0], c1_outs[1]])
    pair1 = b.add("fuse23", Sum(), [c1_outs[2], c1_outs[3]])
    c2_outs = [
        b.conv_stage("p0_c2", pair0, w["c1"], w["c2"], 3, 3, conv_act),
        b.conv_stage("p1_c2", pair1, w["c1"], w["c2"], 3, 3, conv_act),
    ]
    merged = b.add("fuse_all", Sum(), c2_outs)
    c3 = b.conv_stage("c3", merged, w["c2"], w["c3"], 3, 3, conv_act)
    flat = b.add("flatten", Flatten(), [c3])
    fc4 = b.fc_stage("fc4", flat, w["c3"] * 2 * 1, w["fc4"], fc_act)
    fc5 = b.fc_stage("fc5", fc4, w["fc4"], w["fc5"], fc_act)
    b.add("head", Dense(w["fc5"], num_classes, rng=b.rng), [fc5])
    b.stage_outputs = [c1_outs, c2_outs, [c3], [fc4], [fc5]]
    return _finish(b, "cwt", num_classes, w)


def build_raw_net(num_classes=7, widths=None, activation=None, seed=0) -> Network:
    """Single conv + pool + wide FC with plain ReLU; the reference raw net."""
    w = {"c1": 32, "fc": 500}
    w.update(widths or {})
    b = _Builder(seed)
    c1 = b.conv_stage("c1", "input", 1, w["c1"], 1, 5, "relu", pool=(1, 3), bn=False, dropout=False)
    flat = b.add("flatten", Flatten(), [c1])
    fc = b.fc_stage("fc4", flat, w["c1"] * 8 * 16, w["fc"], "relu", bn=False, dropout=False)
    b.add("head", Dense(w["fc"], num_classes, rng=b.rng), [fc])
    b.stage_outputs = [[c1], [fc]]
    return _finish(b, "raw", num_classes, w)


def build_enhanced_raw_net(num_classes=7, widths=None, activation="mixed", seed=0) -> Network:
    """Raw net plus a second conv/pool stage, BN, dropout and PReLU."""
    w = {"c1": 32, "c2": 32, "fc": 500}
    w.update(widths or {})
    act = "prelu" if activation == "mixed" else activation
    b = _Builder(seed)
    c1 = b.conv_stage("c1", "input", 1, w["c1"], 1, 5, act, pool=(1, 3))
    c2 = b.conv_stage("c2", c1, w["c1"], w["c2"], 1, 5, act, pool=(1, 3))
    flat = b.add("flatten", Flatten(), [c2])
    fc = b.fc_stage("fc4", flat, w["c2"] * 8 * 4, w["fc"], act)
    b.add("head", Dense(w["fc"], num_classes, rng=b.rng), [fc])
    b.stage_outputs = [[c1], [c2], [fc]]
    return _finish(b, "enhanced-raw", num_classes, w)


def build_raw_1d_net(num_classes=7, widths=None, activation="mixed", seed=0) -> Network:
    """1-D variant treating the 8 EMG channels as image channels; FC width 256."""
    w = {"c1": 32, "c2": 32, "fc": 256}
    w.update(widths or {})
    act = "prelu" if activation == "mixed" else activation
    b = _Builder(seed)
    c1 = b.conv_stage("c1", "input", 8, w["c1"], 1, 5, act, pool=(1, 3))
    c2 = b.conv_stage("c2", c1, w["c1"], w["c2"], 1, 5, act, pool=(1, 3))
    flat = b.add("flatten", Flatten(), [c2])
    fc = b.fc_stage("fc4", flat, w["c2"] * 1 * 4, w["fc"], act)
    b.add("head", Dense(w["fc"], num_classes, rng=b.rng), [fc])
    b.stage_outputs = [[c1], [c2], [fc]]
    return _finish(b, "raw-1d", num_classes, w)


ARCHITECTURES = {
    "spectrogram": build_spectrogram_net,
    "cwt": build_cwt_net,
    "raw": build_raw_net,
    "enhanced-raw": build_enhanced_raw_net,
    "raw-1d": build_raw_1d_net,
}


def build_architecture(name, num_classes=7, widths=None, activation=None, seed=0) -> Network:
    if name not in ARCHITECTURES:
        raise ConfigError(f"unknown architecture '{name}' (choose from {sorted(ARCHITECTURES)})")
    builder = ARCHITECTURES[name]
    if activation is None:
        return builder(num_classes=num_classes, widths=widths, seed=seed)
    return builder(num_classes=num_classes, widths=widths, activation=activation, seed=seed)
