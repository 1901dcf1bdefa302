"""Multi-stream batch-norm transfer learning with a frozen source network.

Pre-training aggregates all subjects into a single shared network while
keeping one batch-norm statistic bank per subject (batches stay
subject-homogeneous so the right bank updates).  After pre-training every
parameter is frozen except batch-norm gamma/beta and the statistic banks,
which must stay adaptable to new users.

For a new user a second network with the same topology but PELU-only
activations is initialized independently and connected to the source by
element-wise summation at each stage output; the source contribution into
every sum passes through a learned per-channel (or per-neuron) scaling
layer initialized at 1.  Setting all scaling coefficients to zero makes the
combined network behave exactly like the second network alone.

Nothing here runs a network it builds: the source's batch-norm banks are its
pre-training subjects', ``train_target`` adds the new user's, and no
``__default__`` bank exists, so the merged network predicts only per subject.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .architectures import build_architecture
from .errors import ConfigError
from .nn import Network, Node, ScalarScale, Sum, TrainConfig, train

log = logging.getLogger(__name__)

SOURCE_PREFIX = "src/"
SECOND_PREFIX = "snd/"
PRETRAIN_DROPOUT = 0.35
TARGET_DROPOUT = 0.50


@dataclass
class SourceNetwork:
    network: Network
    pretrain_subjects: list
    reference_profile: np.ndarray = field(default=None, repr=False)


@dataclass
class TargetNetwork:
    network: Network


def _is_bn(node: Node) -> bool:
    return node.layer.kind == "batch-norm"


def pretrain(net: Network, X, y, subjects, cfg: TrainConfig) -> SourceNetwork:
    """Train the shared source network over all subjects, then freeze it.

    Subjects contributing fewer windows than one batch are dropped with a
    warning.  Batch-norm statistics are finalized per subject; afterwards
    every non-BN parameter is frozen.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    subjects = np.asarray(subjects, dtype=np.int64)
    counts = {s: int((subjects == s).sum()) for s in sorted(set(subjects.tolist()))}
    kept = [s for s, c in counts.items() if c >= cfg.batch_size]
    dropped = sorted(set(counts) - set(kept))
    if dropped:  # the only copy of the input: with every subject kept it is trained as given
        log.warning("dropping subjects with fewer than one batch of windows: %s", dropped)
        mask = np.isin(subjects, kept)
        X, y, subjects = X[mask], y[mask], subjects[mask]
    if not kept:
        raise ConfigError("no subject has at least one batch of windows")
    train(net, X, y, cfg, subjects=subjects)
    net.freeze(lambda node: not _is_bn(node))
    return SourceNetwork(network=net, pretrain_subjects=kept)


def _feature_width(net: Network, name: str) -> int:
    """Channels (or neurons) of node ``name``'s output.

    Read from the ``num_features`` of the nearest layer feeding it (PReLU,
    PELU or BatchNorm); pooling and dropout between keep the width.
    """
    node = net.node(name)
    while not hasattr(node.layer, "num_features"):
        node = net.node(node.inputs[0])
    return node.layer.num_features


def build_target(source: SourceNetwork, num_classes: int = None, seed: int = 1) -> TargetNetwork:
    """Wire a fresh PELU-only second network onto the frozen source.

    The second network's output at each stage is summed with the source's
    output at that stage, scaled per channel (or neuron) by a ScalarScale
    initialized at 1 whose width is the source stage's ``_feature_width``.
    Neither the caller's source network (it is cloned) nor the merged one
    is run: a source whose ``widths`` disagree with its layers fails the
    first forward pass, at a sum port's shape check (ConfigError).
    """
    src_net = source.network
    md = src_net.metadata
    num_classes = num_classes if num_classes is not None else md["num_classes"]
    second = build_architecture(
        md["architecture"],
        num_classes=num_classes,
        widths=md["widths"],
        activation="pelu",
        seed=seed,
    )

    # source layers are shared state; copy them so target training can't alias
    nodes = [
        Node(
            name=SOURCE_PREFIX + node.name,
            layer=node.layer,
            inputs=[_prefix_ref(r, SOURCE_PREFIX) for r in node.inputs],
        )
        for node in src_net.clone().nodes
    ]

    # Second-network nodes, with stage outputs rerouted through sum ports
    merge_of = {}  # second stage-output name -> merge node name
    src_stages = md["stage_outputs"]
    snd_stages = second.metadata["stage_outputs"]
    if [len(g) for g in src_stages] != [len(g) for g in snd_stages]:
        raise ConfigError("source and second networks disagree on stage structure")

    def rewired(ref):
        if ref == "input":
            return ref
        mapped = SECOND_PREFIX + ref
        return merge_of.get(mapped, mapped)

    snd_nodes = list(second.nodes)
    stage_by_node = {}
    for k, group in enumerate(snd_stages):
        for j, name in enumerate(group):
            stage_by_node[SECOND_PREFIX + name] = (k, j)

    for node in snd_nodes:
        new_name = SECOND_PREFIX + node.name
        nodes.append(
            Node(name=new_name, layer=node.layer, inputs=[rewired(r) for r in node.inputs])
        )
        if new_name in stage_by_node:
            k, j = stage_by_node[new_name]
            src_out = SOURCE_PREFIX + src_stages[k][j]
            width = _feature_width(src_net, src_stages[k][j])
            scale_name = f"scale{k + 1}_{j}"
            merge_name = f"merge{k + 1}_{j}"
            nodes.append(Node(name=scale_name, layer=ScalarScale(width, init=1.0), inputs=[src_out]))
            nodes.append(Node(name=merge_name, layer=Sum(), inputs=[new_name, scale_name]))
            merge_of[new_name] = merge_name

    merged = Network(
        nodes=nodes,
        metadata={
            **second.metadata,
            "architecture": md["architecture"],
            "transfer": True,
            "source_num_classes": md["num_classes"],
        },
    )
    return TargetNetwork(network=merged)


def _prefix_ref(ref, prefix):
    return ref if ref == "input" else prefix + ref


def prepare_target_subject(target: TargetNetwork, subject: int):
    """Seed the new subject's source BN banks from the mean of the pre-training banks."""
    for node in target.network.nodes:
        if _is_bn(node) and node.name.startswith(SOURCE_PREFIX) and node.layer.banks:
            pools = node.layer.banks.values()
            node.layer.set_bank(
                int(subject),
                np.mean([p["mean"] for p in pools], axis=0),
                np.mean([p["var"] for p in pools], axis=0),
            )


def train_target(target: TargetNetwork, X, y, subject: int, cfg: TrainConfig) -> TargetNetwork:
    """Train the second network, scalar layers and BN parameters on a new user.

    Source non-BN parameters stay frozen; the new subject gets its own BN
    statistics so pre-training subjects' banks are never overwritten.  With
    ``max_epochs`` 0 they are only seeded and then finalized on ``X``.
    """
    prepare_target_subject(target, subject)
    subjects = np.full(len(y), int(subject), dtype=np.int64)
    train(target.network, X, y, cfg, subjects=subjects)
    return target
