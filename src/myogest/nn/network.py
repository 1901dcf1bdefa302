"""Layered network container: a small DAG evaluated in topological order.

Nodes are (name, layer, input-names); the reserved name ``input`` denotes
the network input.  The final node's output is the logits.  Checkpoints are
a versioned JSON container (parameters base64-encoded as little-endian
float64) so identical state always serializes to identical bytes.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, DataError
from .layers import Context, layer_from_config

CHECKPOINT_VERSION = 1
INPUT = "input"


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

    def forward(self, x, mode="eval", subject=None, rng=None, trace=False):
        logits, values, _ = self._forward_full(x, mode, subject, rng)
        return (logits, values) if trace else logits

    def _forward_full(self, x, mode, subject, rng):
        ctx = Context(mode=mode, subject=subject, rng=rng)
        values = {INPUT: np.asarray(x, dtype=np.float64)}
        caches = {}
        for node in self.nodes:
            ins = [values[ref] for ref in node.inputs]
            out, cache = node.layer.forward(ins, ctx)
            values[node.name] = out
            caches[node.name] = cache
        return values[self.output_name], values, caches

    def backward_from(self, dlogits, caches):
        """Backpropagate from d(loss)/d(logits); accumulates parameter grads."""
        grad_at = {self.output_name: dlogits}
        for node in reversed(self.nodes):
            dout = grad_at.pop(node.name, None)
            if dout is None:
                continue
            dins = node.layer.backward(dout, caches[node.name])
            if len(dins) != len(node.inputs):
                raise ConfigError(f"node '{node.name}' returned wrong gradient arity")
            for ref, g in zip(node.inputs, dins):
                if ref in grad_at:
                    grad_at[ref] = grad_at[ref] + g
                else:
                    grad_at[ref] = g
        return grad_at.get(INPUT)

    def train_batch(self, x, y, subject=None, rng=None):
        """Forward in train mode, softmax cross-entropy backward. Returns loss."""
        logits, _, caches = self._forward_full(x, "train", subject, rng)
        loss, dlogits = softmax_cross_entropy(logits, y)
        self.backward_from(dlogits, caches)
        return loss, logits

    def predict_proba(self, x, subject=None):
        """Class probabilities in deterministic eval mode."""
        return softmax(self.forward(x, mode="eval", subject=subject))

    def predict(self, x, subject=None):
        return self.predict_proba(x, subject).argmax(axis=1)

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


def network_from_state(state) -> Network:
    nodes = []
    for entry in state["nodes"]:
        layer = layer_from_config(entry["kind"], entry["config"], entry["frozen"])
        node = Node(name=entry["name"], layer=layer, inputs=list(entry["inputs"]))
        for k, payload in entry["params"].items():
            layer.params[k] = _decode(payload)
        layer.load_extra(entry.get("extra", {}))
        layer.zero_grads()
        nodes.append(node)
    return Network(nodes=nodes, metadata=dict(state.get("metadata", {})))


def load_network(path) -> Network:
    with open(path) as fh:
        state = json.loads(fh.read())
    return network_from_state(state)


def _encode(arr: np.ndarray):
    arr = np.ascontiguousarray(arr, dtype="<f8")
    return {"shape": list(arr.shape), "data": base64.b64encode(arr.tobytes()).decode("ascii")}


def _decode(payload) -> np.ndarray:
    raw = base64.b64decode(payload["data"])
    return np.frombuffer(raw, dtype="<f8").reshape(payload["shape"]).copy()


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
