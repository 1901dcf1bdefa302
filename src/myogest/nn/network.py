"""Layered network container: a small DAG evaluated in topological order.

Nodes are (name, layer, input-names); the reserved name ``input`` denotes
the network input.  The final node's output is the logits.  Checkpoints are
a versioned JSON container (parameters base64-encoded as little-endian
float64) so identical state always serializes to identical bytes.
"""

from __future__ import annotations

import base64
import json
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, DataError
from .layers import Context, layer_from_config

CHECKPOINT_VERSION = 1
INPUT = "input"
FOLDABLE = ("conv2d", "fully-connected")  # layer kinds a following BatchNorm folds into


@dataclass
class Node:
    name: str
    layer: object
    inputs: list


@dataclass
class Network:
    nodes: list
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self._index = {}
        seen = {INPUT}
        for node in self.nodes:
            if node.name in seen:
                raise ConfigError(f"duplicate node name '{node.name}'")
            for ref in node.inputs:
                if ref not in seen:
                    raise ConfigError(f"node '{node.name}' uses undefined input '{ref}'")
            seen.add(node.name)
            self._index[node.name] = node
        names = [node.name for node in self.nodes]
        self._released = _released([node.inputs for node in self.nodes], names, self.output_name)
        self._eval_plan = self._plan_eval()

    def _plan_eval(self):
        """Eval steps ``(node, output name, folded BatchNorm or None, passes through, released)``.

        Only nodes whose output reaches the logits get a step.  A BatchNorm
        can fold into its input when that input is a Conv2d/Dense node read
        by nothing else: the producer's step then writes the normalized
        output under the BatchNorm's name, and the BatchNorm has no step of
        its own.  Dropout is the identity at eval and passes its input
        through.  ``released`` names the step's inputs that no later step reads.
        """
        needed = {self.output_name}
        for node in reversed(self.nodes):
            if node.name in needed:
                needed.update(node.inputs)
        readers = Counter(ref for node in self.nodes for ref in node.inputs)
        folds = {}  # producer name -> the BatchNorm node that reads it
        for node in self.nodes:
            src = self._index.get(node.inputs[0]) if node.inputs else None
            if (
                node.layer.kind == "batch-norm"
                and src is not None
                and src.layer.kind in FOLDABLE
                and readers[src.name] == 1
            ):
                folds[src.name] = node
        folded = {bn.name for bn in folds.values()}
        steps = []
        for node in self.nodes:
            if node.name not in needed:
                continue
            bn = folds.get(node.name)
            if bn is not None:
                steps.append((node, bn.name, bn.layer, False))
            elif node.name not in folded:
                steps.append((node, node.name, None, node.layer.kind == "dropout"))
        released = _released(
            [node.inputs for node, *_ in steps], [out for _, out, *_ in steps], self.output_name
        )
        return [(*step, names) for step, names in zip(steps, released)]

    # ---- structure ----------------------------------------------------

    def node(self, name) -> Node:
        return self._index[name]

    @property
    def output_name(self):
        return self.nodes[-1].name

    def named_parameters(self):
        for node in self.nodes:
            for pname, arr in node.layer.params.items():
                yield node.name, pname, arr

    def parameter_count(self) -> int:
        return sum(arr.size for _, _, arr in self.named_parameters())

    def trainable_parameters(self):
        for node in self.nodes:
            if node.layer.frozen:
                continue
            for pname in node.layer.params:
                yield node.name, pname

    def zero_grads(self):
        for node in self.nodes:
            node.layer.zero_grads()

    def set_dropout_rate(self, rate):
        for node in self.nodes:
            if node.layer.kind == "dropout":
                node.layer.rate = float(rate)

    def freeze(self, predicate=None):
        """Freeze layers for which predicate(node) is true (default: all)."""
        for node in self.nodes:
            if predicate is None or predicate(node):
                node.layer.frozen = True

    # ---- execution -----------------------------------------------------

    def forward(self, x, mode="eval", subject=None, rng=None):
        """Logits of ``x``.

        Eval runs the plan of ``_plan_eval``: nodes that cannot reach the
        logits are skipped, and a foldable BatchNorm is folded into its
        producer's weights, recomputed from the current parameters and the
        subject's bank on every call, whenever the weights are no larger
        than the producer's output for this batch (``_fold_pays``);
        otherwise the producer and the BatchNorm run as they are.  Each
        BatchNorm reads ``subject``'s bank through ``BatchNorm.eval_affine``,
        so eval raises ConfigError on a network never trained or finalized.
        Train and finalize run every node through ``_forward_full``.  In every
        mode each output is dropped as soon as its last reader has run: a
        layer may keep in its cache what ``backward`` needs, but the network
        keeps no output alive past its last reader.
        """
        if mode == "eval":
            return self._forward_eval(np.asarray(x, dtype=np.float64), subject)
        return self._forward_full(x, mode, subject, rng)[0]

    def _forward_eval(self, x, subject):
        ctx = Context(mode="eval", subject=subject)
        key = ctx.subject_key()
        values = {INPUT: x}
        for node, out_name, bn, passes, released in self._eval_plan:
            ins = [values[ref] for ref in node.inputs]
            for name in released:  # inputs no later step reads; ``ins`` holds them for now
                del values[name]
            if passes:
                values[out_name] = ins[0]
            elif bn is None:
                values[out_name] = node.layer.forward(ins, ctx)[0]
            elif _fold_pays(node.layer.params["weight"], ins[0]):
                folded = _folded(node.layer.params, *bn.eval_affine(key))
                values[out_name] = node.layer.forward(ins, ctx, folded)[0]
            else:
                ins = [node.layer.forward(ins, ctx)[0]]  # frees the producer's inputs
                values[out_name] = bn.forward(ins, ctx)[0]
        return values[self.output_name]

    def _forward_full(self, x, mode, subject, rng):
        """Run every node in train or finalize mode; returns ``(logits, caches)``.

        Layer caches are kept in train mode only, the one mode
        backpropagated.  Each output leaves ``values`` right after its last
        reader has run: a layer may keep in its cache what ``backward``
        needs, but ``values`` does not keep it alive.
        """
        ctx = Context(mode=mode, subject=subject, rng=rng)
        values = {INPUT: np.asarray(x, dtype=np.float64)}
        caches = {}
        for node, released in zip(self.nodes, self._released):
            ins = [values[ref] for ref in node.inputs]
            if mode == "train":
                values[node.name], caches[node.name] = node.layer.forward(ins, ctx)
            else:
                values[node.name] = node.layer.forward(ins, ctx)[0]
            for name in released:
                del values[name]
        return values[self.output_name], caches

    def _reaches_trainable(self):
        """Names of the nodes whose output gradient reaches an unfrozen parameter."""
        live = set()
        for node in self.nodes:
            if (node.layer.params and not node.layer.frozen) or any(r in live for r in node.inputs):
                live.add(node.name)
        return live

    def backward_from(self, dlogits, caches):
        """Backpropagate d(loss)/d(logits) into the grads of the unfrozen parameters.

        Only nodes whose output gradient reaches an unfrozen parameter are
        visited, and each computes its input gradient only when one of its
        inputs is such a node; nothing flows back into the network input.
        """
        live = self._reaches_trainable()
        grad_at = {self.output_name: dlogits}
        for node in reversed(self.nodes):
            dout = grad_at.pop(node.name, None)
            if dout is None or node.name not in live:
                continue
            wanted = [ref in live for ref in node.inputs]
            dins = node.layer.backward(dout, caches[node.name], any(wanted))
            if len(dins) != len(node.inputs):
                raise ConfigError(f"node '{node.name}' returned wrong gradient arity")
            for ref, want, g in zip(node.inputs, wanted, dins):
                if not want:
                    continue
                if ref in grad_at:
                    grad_at[ref] = grad_at[ref] + g
                else:
                    grad_at[ref] = g

    def train_batch(self, x, y, subject=None, rng=None):
        """Forward in train mode, softmax cross-entropy backward. Returns loss."""
        logits, caches = self._forward_full(x, "train", subject, rng)
        loss, dlogits = softmax_cross_entropy(logits, y)
        self.backward_from(dlogits, caches)
        return loss, logits

    def predict(self, x, subject=None):
        """Argmax of the eval logits; softmax is monotone, so it is skipped."""
        return self.forward(x, mode="eval", subject=subject).argmax(axis=1)

    # ---- persistence ---------------------------------------------------

    def state_dict(self):
        state = {
            "version": CHECKPOINT_VERSION,
            "metadata": self.metadata,
            "nodes": [],
        }
        for node in self.nodes:
            entry = {
                "name": node.name,
                "kind": node.layer.kind,
                "config": node.layer.get_config(),
                "inputs": list(node.inputs),
                "frozen": bool(node.layer.frozen),
                "params": {k: _encode(v) for k, v in node.layer.params.items()},
                "extra": node.layer.state_extra(),
            }
            state["nodes"].append(entry)
        return state

    def load_state_dict(self, state):
        if state.get("version") != CHECKPOINT_VERSION:
            raise DataError(f"unsupported checkpoint version {state.get('version')}")
        by_name = {e["name"]: e for e in state["nodes"]}
        if set(by_name) != set(self._index):
            raise DataError("checkpoint structure does not match network")
        for node in self.nodes:
            entry = by_name[node.name]
            if entry["kind"] != node.layer.kind:
                raise DataError(f"layer kind mismatch at '{node.name}'")
            for k, payload in entry["params"].items():
                node.layer.params[k][...] = _decode(payload)
            node.layer.frozen = bool(entry["frozen"])
            node.layer.load_extra(entry.get("extra", {}))
            node.layer.zero_grads()

    def to_json(self) -> str:
        return json.dumps(self.state_dict(), sort_keys=True, separators=(",", ":"))

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    def clone(self) -> "Network":
        return network_from_state(self.state_dict())


def _released(reads, writes, keep):
    """Per step, the value names that no later step reads, ``keep`` excepted.

    Step ``i`` reads the names ``reads[i]`` and writes ``writes[i]``; a name
    is released after its last reader, or right after it is written when
    nothing reads it.
    """
    last = {}
    for i, (ins, out) in enumerate(zip(reads, writes)):
        for name in (*ins, out):
            last[name] = i
    released = [[] for _ in writes]
    for name, i in last.items():
        if name != keep:
            released[i].append(name)
    return [tuple(names) for names in released]


def _fold_pays(weight, x):
    """Whether a Conv2d/Dense ``weight`` is no larger than its output on ``x``.

    Folding scales every weight while normalizing the output touches every
    output element, so eval folds only when the weights are no larger: a
    wide Dense layer at batch 1 normalizes its few outputs instead.
    """
    spatial = math.prod(h - k + 1 for h, k in zip(x.shape[2:], weight.shape[2:]))
    return weight.size <= len(x) * weight.shape[0] * spatial


def _folded(params, scale, shift):
    """Conv2d/Dense parameters with a BatchNorm's eval ``(scale, shift)`` folded in."""
    weight = params["weight"]
    return {
        "weight": weight * scale.reshape((-1,) + (1,) * (weight.ndim - 1)),
        "bias": params["bias"] * scale + shift,
    }


def network_from_state(state) -> Network:
    """Build the layers from their configs, then load the state into them."""
    nodes = [
        Node(name=e["name"], layer=layer_from_config(e["kind"], e["config"]), inputs=list(e["inputs"]))
        for e in state["nodes"]
    ]
    net = Network(nodes=nodes, metadata=dict(state.get("metadata", {})))
    net.load_state_dict(state)
    return net


def load_network(path) -> Network:
    """Rebuild a saved network; a missing or malformed checkpoint is a DataError."""
    try:
        with open(path) as fh:
            state = json.loads(fh.read())
        return network_from_state(state)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{path}: not a checkpoint ({type(exc).__name__}: {exc})") from None
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _encode(arr: np.ndarray):
    arr = np.ascontiguousarray(arr, dtype="<f8")
    return {"shape": list(arr.shape), "data": base64.b64encode(arr.tobytes()).decode("ascii")}


def _decode(payload) -> np.ndarray:
    raw = base64.b64decode(payload["data"])
    return np.frombuffer(raw, dtype="<f8").reshape(payload["shape"])


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and its gradient w.r.t. the logits."""
    n, c = logits.shape
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= c:
        raise DataError(f"label out of range [0, {c})")
    p = softmax(logits)
    loss = float(-np.mean(np.log(p[np.arange(n), labels] + 1e-300)))
    dlogits = p
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n
