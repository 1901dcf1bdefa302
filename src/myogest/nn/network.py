"""Layered network container: a small DAG evaluated in topological order.

Nodes are (name, layer, input-names); the reserved name ``input`` denotes
the network input.  The final node's output is the logits.  Checkpoints are
a versioned JSON container (parameters base64-encoded as little-endian
float64) so identical state always serializes to identical bytes.
"""

from __future__ import annotations

import base64
import json
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from ..errors import ConfigError, DataError
from .layers import Context, ScalarScale, SliceChannels, Sum, layer_from_config, subject_key, write_counts

CHECKPOINT_VERSION = 1
INPUT = "input"
EVAL_BLOCK = 256  # windows per eval pass; bounds eval memory whatever the set size


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
            arity_ok = len(node.inputs) >= 2 if isinstance(node.layer, Sum) else len(node.inputs) == 1
            if not arity_ok:
                raise ConfigError(f"node '{node.name}' has {len(node.inputs)} inputs")
            seen.add(node.name)
            self._index[node.name] = node
        needed = {self.output_name}
        for node in reversed(self.nodes):
            if node.name in needed:
                needed.update(node.inputs)
        self._needed = [node for node in self.nodes if node.name in needed]  # reach the logits
        names = [node.name for node in self._needed]
        self._released = _released([node.inputs for node in self._needed], names, self.output_name)
        self._eval_plan = self._plan_eval()
        self._eval_programs = {}  # bank key -> EvalProgram

    def _plan_eval(self):
        """The layout of every eval program, whatever its batch-norm bank.

        Only nodes whose output reaches the logits are planned.  A layer with
        ``eval_views`` takes no step: its readers read its input through
        those views.  Nor does a ScalarScale that only a two-input Sum
        reads: the sum's step is its ``eval_scale_add``.  Sibling nodes share
        one step.  They have the same class, configuration and step function
        and the same depth (the longest path from the input, counted in
        steps), and input by input they read one slot through equal view
        chains; members of a class that steps member by member may also read
        it through different channel slices of one width.

        Returns ``(steps, (output slot, output read))``.  Step ``k`` is
        ``(node names, layers, bind, input slots, input reads, overwrite,
        released slots)``: ``bind(layers, key, overwrite)`` gives its
        function, and it writes slot ``k``, the stack of its members'
        outputs; slot 0 holds the input as a stack of one.  A read takes a
        slot's stack to what the step reads from it (None: the stack as it
        is).  ``overwrite`` marks a step that reads members of one stack
        through no view when no later step reads them: it may write its
        output over them.  A step releases the slots that no later step
        reads.
        """
        readers = Counter(ref for node in self._needed for ref in node.inputs)
        held = {INPUT: (INPUT, ())}  # value name -> (step whose output holds it, view layers)
        steps = {}  # step name -> (layer, bind, value names read)
        for node in self._needed:
            views = node.layer.eval_views()
            if views is not None:  # dropout has none: it is the identity
                step, seen = held[node.inputs[0]]
                held[node.name] = (step, seen + (node.layer,) if views else seen)
                continue
            layer, bind, refs = node.layer, type(node.layer).eval_group, node.inputs
            for i, ref in enumerate(refs if isinstance(layer, Sum) and len(refs) == 2 else ()):
                scale = self._index.get(ref)  # None for the network input
                if scale and isinstance(scale.layer, ScalarScale) and readers[ref] == 1:
                    del steps[ref]
                    layer, bind = scale.layer, ScalarScale.eval_scale_add
                    refs = [scale.inputs[0], refs[1 - i]]
                    break
            steps[node.name] = (layer, bind, refs)
            held[node.name] = (node.name, ())

        depth = {INPUT: 0}
        for name, (_, _, refs) in steps.items():
            depth[name] = 1 + max(depth[held[ref][0]] for ref in refs)
        place = {INPUT: (0, 0)}  # step name -> (slot, member)
        groups = []  # (sibling key, step names) of slot k + 1
        for name in sorted(steps, key=depth.get):
            layer, bind, refs = steps[name]
            loose = layer.eval_per_member
            key = (depth[name], bind, layer.get_config(),
                   [(place[held[ref][0]][0], _chain_key(held[ref][1], loose)) for ref in refs])
            slot = next((k for k, (other, _) in enumerate(groups, 1) if other == key), None)
            if slot is None:
                groups.append((key, []))
                slot = len(groups)
            names = groups[slot - 1][1]
            place[name] = (slot, len(names))
            names.append(name)

        size = [1] + [len(names) for _, names in groups]  # members per slot
        # last[slot, member]: the last step reading it; plain: per step, the
        # (slot, members) of its one input when read through no view
        layout, plain, last = [], [], {}
        for k, (_, names) in enumerate(groups, 1):
            _, bind, refs = steps[names[0]]
            ins, reads = [], []
            for i in range(len(refs)):
                sources = [held[steps[name][2][i]] for name in names]  # (step, views) per member
                slot = place[sources[0][0]][0]
                members = [place[step][1] for step, _ in sources]
                chains = [views for _, views in sources]
                ins.append(slot)
                reads.append(_read(members, chains, size[slot]))
                last.update(((slot, m), k) for m in members)
            plain.append((slot, members) if len(refs) == 1 and slot and not any(chains) else None)
            layout.append((tuple(names), [steps[name][0] for name in names], bind, ins, reads))
        out_step, out_views = held[self.output_name]
        out_slot, member = place[out_step]
        last[out_slot, member] = len(layout) + 1
        out_read = _read([member], [out_views], size[out_slot])
        released = _released([step[3] for step in layout], range(1, len(layout) + 1), out_slot)
        overwrite = [
            read is not None and all(last[read[0], m] == k for m in read[1]) for k, read in enumerate(plain, 1)
        ]
        return [(*step, *rest) for step, *rest in zip(layout, overwrite, released)], (out_slot, out_read)

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

        Eval runs ``subject``'s ``EvalProgram``, built from the layout of
        ``_plan_eval`` with every layer's constants bound for that subject's
        batch-norm bank and cached until a parameter or that bank is
        written (``write_counts``).  Nodes that cannot reach the logits are
        skipped; dropout, flatten and channel slices take no step, and each
        ScalarScale runs with the sum port that reads it.  Sibling nodes,
        such as the slow-fusion branches or the transfer target's source
        and second networks at one depth, run as one step over the stack of
        their maps; each member's conv or Dense product has the operands
        and row count it would have alone, so the logits are those of a
        node-by-node walk, bit for bit.  Each BatchNorm
        reads the bank through ``BatchNorm.eval_affine``, so eval raises
        ConfigError for a subject without one.  An input of more than
        ``EVAL_BLOCK`` windows runs the program on consecutive blocks of
        that many and concatenates their logits, so no activation or patch
        matrix ever holds more than one block.  Eval mixes nothing across
        windows, so blocking changes a window's logits by rounding at most:
        BLAS may take another kernel for a matrix of another size.
        Train and finalize run the same nodes, one at a time, through
        ``_forward_full``.  In every mode each output is dropped as soon as
        its last reader has run: a layer may keep in its cache what
        ``backward`` needs, but the network keeps no output alive past its
        last reader.
        """
        if mode == "eval":
            x = np.asarray(x, dtype=np.float64)
            run = self._eval_program(subject).run
            if len(x) <= EVAL_BLOCK:
                return run(x)
            return np.concatenate([run(x[i : i + EVAL_BLOCK]) for i in range(0, len(x), EVAL_BLOCK)])
        if mode not in ("train", "finalize"):
            raise ConfigError(f"unknown mode '{mode}'")
        return self._forward_full(x, mode, subject, rng)[0]

    def _eval_program(self, subject):
        """``subject``'s cached eval program, rebuilt once a parameter or its bank was written."""
        key = subject_key(subject)
        program = self._eval_programs.get(key)
        if program is None or program.stale():
            program = EvalProgram(self._eval_plan, key)
            # a stale program may hold replaced arrays alive; drop every one
            self._eval_programs = {k: p for k, p in self._eval_programs.items() if not p.stale()}
            self._eval_programs[key] = program
        return program

    def _forward_full(self, x, mode, subject, rng):
        """Run the nodes that reach the logits in train or finalize mode; returns
        ``(logits, caches)``.

        Layer caches are kept in train mode only, the one mode
        backpropagated.  Each output leaves ``values`` right after its last
        reader has run: a layer may keep in its cache what ``backward``
        needs, but ``values`` does not keep it alive.
        """
        ctx = Context(mode=mode, subject=subject, rng=rng)
        values = {INPUT: np.asarray(x, dtype=np.float64)}
        caches = {}
        for node, released in zip(self._needed, self._released):
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
        Each node's cache leaves ``caches`` as the walk reaches the node, so
        it is freed before the next node's backward runs.
        """
        live = self._reaches_trainable()
        grad_at = {self.output_name: dlogits}
        for node in reversed(self.nodes):
            cache = caches.pop(node.name, None)
            dout = grad_at.pop(node.name, None)
            if dout is None or node.name not in live:
                continue
            wanted = [ref in live for ref in node.inputs]
            dins = node.layer.backward(dout, cache, any(wanted))
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
                node.layer.set_param(k, _decode(payload))
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


Step = namedtuple("Step", "fn read out released names")


class EvalProgram:
    """One batch-norm bank's eval steps over integer slots, constants bound.

    Each ``Step`` runs the group of nodes ``names``: it calls ``fn`` on what
    ``read`` takes from the slots (the one input stack, or a tuple of
    several), writes the stack of the members' outputs to slot ``out`` and
    then clears the slots ``released``.  It is ``stale`` once
    ``write_counts(key)`` has moved since it bound its constants.
    """

    def __init__(self, plan, key):
        layout, (self.out, self.out_read) = plan
        self.key, self.writes = key, write_counts(key)
        self.slots = len(layout) + 1
        self.steps = []
        for k, (names, layers, bind, ins, reads, overwrite, released) in enumerate(layout, 1):
            fn = _reading(bind(layers, key, overwrite), reads)
            self.steps.append(Step(fn, itemgetter(*ins), k, released, names))

    def stale(self):
        return write_counts(self.key) != self.writes

    def run(self, x):
        slots = [None] * self.slots
        slots[0] = x[None]
        for fn, read, out, released, _ in self.steps:
            slots[out] = fn(read(slots))
            for i in released:
                slots[i] = None
        out = slots[self.out]
        return (out if self.out_read is None else self.out_read(out))[0]


def _chain_key(chain, loose):
    """What sibling reads through the view layers ``chain`` must share: each
    view's kind and configuration, or with ``loose`` only a channel slice's width."""
    return [
        (view.kind, view.stop - view.start if loose and isinstance(view, SliceChannels) else view.get_config())
        for view in chain
    ]


def _read(members, chains, size):
    """What a group reads from a stack of ``size``, as a function of it.

    Member ``g`` reads member ``members[g]`` through the view layers
    ``chains[g]``.  Equal chains give one stack: the stack itself (None)
    when every member reads its own, a view when the members are evenly
    spaced in it, else a copy.  Chains that differ (channel slices of one
    width) give a list of the members' inputs, in which members that read
    one member through equal chains share one view object.
    """
    views = [[view for layer in chain for view in layer.eval_views()] for chain in chains]
    keys = [(m, _chain_key(chain, False)) for m, chain in zip(members, chains)]
    if any(key[1] != keys[0][1] for key in keys):
        first = [keys.index(key) for key in keys]  # the first member reading each view

        def read(stack):
            xs = []
            for g, (m, v, f) in enumerate(zip(members, views, first)):
                xs.append(xs[f] if f < g else _seen(stack[m : m + 1], v)[0])
            return xs

        return read
    views = views[0]
    pick = members
    spacing = members[1] - members[0] if len(members) > 1 else 1
    if members == list(range(size)):
        if not views:
            return None
        pick = slice(None)
    elif spacing > 0 and members == list(range(members[0], members[-1] + 1, spacing)):
        pick = slice(members[0], members[-1] + 1, spacing)
    if not views:
        return itemgetter(pick)
    return lambda stack: _seen(stack[pick], views)


def _seen(x, views):
    """``x`` through each of ``views`` in turn."""
    for view in views:
        x = view(x)
    return x


def _whole(stack):
    return stack


def _reading(fn, reads):
    """``fn`` reading each input slot through its read (None: as it is)."""
    if not any(reads):
        return fn
    reads = [read or _whole for read in reads]
    if len(reads) == 1:
        (read,) = reads
        return lambda x: fn(read(x))
    return lambda xs: fn(tuple([read(x) for read, x in zip(reads, xs)]))


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
