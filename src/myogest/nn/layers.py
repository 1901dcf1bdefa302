"""Network layers with hand-written forward/backward passes.

``forward(xs, ctx)`` returns ``(output, cache)``.  ``backward(dout, cache,
need_dx)`` consumes that cache and returns one gradient per input:

- a layer with parameters accumulates their gradients into ``layer.grads``
  unless it is frozen, so a frozen layer's grads stay exactly zero;
- when ``need_dx`` is false no input gradient has a reader, and a layer
  with parameters returns ``[None]`` without computing it.  Layers without
  parameters are only visited when one of their inputs needs a gradient.

``Network.backward_from`` is the only caller and sets ``need_dx``.  A layer
may keep in its cache what ``backward`` needs, but ``Network`` keeps nothing
alive for it: each output leaves the network's values as soon as its last
reader has run, and past that point lives on only inside a cache, which
``backward_from`` drops once the layer's backward has run.  A cache may
hold the layer's input itself, so no train-mode layer writes over its input.

Convolutions are valid (no padding), stride 1, and run as im2col matrix
products.  Forward gathers the (kh, kw) patch matrix with one ``np.take``
through a flat index cached per map shape and memory layout, and multiplies
it by the weights; the weight gradient multiplies the transposed output
gradient by the same patch matrix, gathered again from the input, and the
input gradient multiplies the output gradient by the weights and
scatter-adds each (kh, kw) tap back onto the input map.

Forward context carries the execution mode of ``forward``:

- ``train``     batch statistics, active dropout
- ``finalize``  full-batch statistics written into the subject's bank,
                dropout as identity, max pooling without the argmax index
                that only backward reads

Eval does not call ``forward``.  ``Network`` runs an eval program per
subject whose steps each run a group of sibling layers of one class, a
single layer being a group of one.  Eval values are stacks: member ``g`` of
a (G, N, ...) array is the map its ``g``-th layer reads or writes, and a
conv output stack is (G, rows, channels) in memory.  Each class supplies
``eval_group(layers, key, overwrite)``, the group's step as a function of
its stacked input, with the members' constants bound for batch-norm bank
``key`` and stacked to (G, 1, C).  Elementwise kinds run one ufunc call per
operation over the whole stack, and with ``overwrite`` write their output
over the input members that nothing reads after the step; the values are
the same either way.  Conv2d and Dense run each member's own matrix
product into its block of the output stack, with the same operands and
row count as a lone layer, so grouping changes no bit; they also take a
list of member inputs, read through different channel slices, where
members that read one view get one object.  Conv2d gathers one patch
matrix per distinct input object, which every member reading it
multiplies.  Dropout, Flatten and SliceChannels take no step
(``eval_views``): dropout is the identity at eval, and the others hand
their input stack on as a view that the reading step takes.  A
ScalarScale read only by a two-input Sum runs with it in one
``eval_scale_add`` step.

BatchNorm keeps a statistics bank per subject (``__default__`` for none) that
only train and finalize create; eval reads it only through
``BatchNorm.eval_affine``, which raises ConfigError for a subject without one.

Parameter and bank arrays are read-only.  Every writer (the optimizer,
constraint projection, checkpoint loading, the train and finalize bank
updates, a new transfer subject's banks) goes through ``Layer.set_param``,
``BatchNorm.set_bank`` or ``BatchNorm.drop_bank``, which count the writes
to any parameter and to each bank key over every network (``write_counts``).
An eval program rebuilds once its counts move, at worst needlessly, and a
stray in-place write raises ValueError rather than slip past the counts.

Only ``train`` mode is ever backpropagated, and its caches hold no more
than backward reads.  A Conv2d keeps its input, not its patch matrix, which
is kh * kw times larger and is gathered again over the whole batch in
backward, so the weight gradient keeps its bits; a frozen Conv2d keeps no
input, since its backward reads only the weights.  Dropout keeps its
boolean keep mask, an eighth of the float mask, which backward rebuilds as
forward built it.

PReLU, PELU, BatchNorm and Dropout avoid ``np.where`` on data-dependent
masks, which branches per element, and allocate few, reused temporaries:
a piecewise form becomes ``max(x, 0)`` and ``min(x, 0)`` terms of which
one is exactly zero at every element, so the sum is exact.  They still
give the select forms' values and gradients bit for bit (``tests/oracles.py``
holds those forms), up to the sign of an exact zero.  That also needs the
same memory layout, because numpy sums in memory order: an elementwise
result takes its operands' layout (C order when they disagree), and a
large temporary on the left of an operator is overwritten in place, so
its layout wins.  A gradient that is summed into a parameter, or passed
back as ``dx``, is therefore either built by the same operator expression
as the select form or written into a buffer laid out as numpy lays out
``x * dout``.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
DEFAULT_SUBJECT = "__default__"
_writes = Counter()  # None: parameter writes; a bank key: that bank's writes and removals


def write_counts(key):
    """(parameter writes, writes of bank ``key``) so far, over every layer."""
    return _writes[None], _writes[key]


def subject_key(subject):
    """The batch-norm bank key of ``subject``: ``__default__`` for None."""
    return DEFAULT_SUBJECT if subject is None else int(subject)


@dataclass
class Context:
    mode: str = "eval"
    subject: object = None
    rng: np.random.Generator = None


def _read_only(value):
    """A fresh read-only float64 copy of ``value``."""
    arr = np.array(value, dtype=np.float64)
    arr.flags.writeable = False
    return arr


class Layer:
    kind = "abstract"
    # the group step runs member by member, so members may read one slot
    # through different channel slices and pass a list of their inputs
    eval_per_member = False

    def __init__(self):
        self.params = {}
        self.grads = {}
        self.frozen = False

    def forward(self, xs, ctx):
        raise NotImplementedError

    def backward(self, dout, cache, need_dx):
        raise NotImplementedError

    def zero_grads(self):
        for k in self.params:
            self.grads[k] = np.zeros_like(self.params[k])

    def set_param(self, name, value):
        """Store ``value``, broadcast to the parameter's shape, as a fresh read-only array.

        The only way a parameter changes: the arrays are read-only, and the
        write is counted, so every eval program rebuilds.
        """
        self.params[name] = _read_only(np.broadcast_to(value, self.params[name].shape))
        _writes[None] += 1

    @classmethod
    def eval_group(cls, layers, key, overwrite=False):
        """The eval step of sibling ``layers`` of this class, with the
        constants for batch-norm bank ``key`` bound: a function of their
        stacked input (a tuple of several) giving their stacked output.
        With ``overwrite`` the step may write its output over its input
        stack, which nothing reads after it."""
        raise NotImplementedError

    def eval_views(self):
        """None for a layer that takes an eval step; for an alias of its input,
        the views (functions of a stack) through which its readers see it."""
        return None

    def project(self):
        """Constraint projection applied after each optimizer update."""

    def get_config(self):
        return {}

    def state_extra(self):
        """Non-parameter state to persist (e.g. BN banks)."""
        return {}

    def load_extra(self, extra):
        pass


def _channel_shape(ndim):
    """Broadcast shape of a per-channel vector against an (N, C) or (N, C, H, W) map."""
    return (1, -1, 1, 1) if ndim == 4 else (1, -1)


def _per_channel(vs):
    """The members' channel vectors ``vs`` stacked against a (G, N, C) and a
    (G, N, C, H, W) stack, keyed by ``ndim``."""
    v = np.stack(vs)
    return {3: v[:, None, :], 5: v[:, None, :, None, None]}


def _stacked(layers, name):
    """Parameter ``name`` of every member, stacked against its maps by ``_per_channel``."""
    return _per_channel([layer.params[name] for layer in layers])


def _like_product(x, dout):
    """Uninitialised array in the memory layout numpy gives ``x * dout``."""
    it = np.nditer(
        [x, dout, None],
        op_flags=[["readonly"], ["readonly"], ["writeonly", "allocate"]],
        order="K",
    )
    return it.operands[2]


def _single(xs):
    if len(xs) != 1:
        raise ConfigError(f"layer expects one input, got {len(xs)}")
    return xs[0]


@functools.lru_cache(maxsize=64)
def _patch_index(c, h, w, kh, kw, channels_last):
    """Flat index of every (kh, kw) patch in one sample's map, in im2col order.

    The index runs over (oh, ow, c, kh, kw) in C order, the layout of
    ``cols``; the sample is read flat in (c, h, w) order, or (h, w, c) when
    ``channels_last``.
    """
    oh, ow = h - kh + 1, w - kw + 1
    step_c, step_h, step_w = (1, w * c, c) if channels_last else (h * w, w, 1)
    # the map row, column and channel each tap reads, broadcast to (oh, ow, c, kh, kw)
    rows = np.arange(oh).reshape(-1, 1, 1, 1, 1) + np.arange(kh).reshape(-1, 1)
    columns = np.arange(ow).reshape(-1, 1, 1, 1) + np.arange(kw)
    channels = np.arange(c).reshape(-1, 1, 1)
    index = (channels * step_c + rows * step_h + columns * step_w).ravel()
    index.flags.writeable = False
    return index


class Conv2d(Layer):
    """Valid, stride-1 convolution as an im2col matrix product.

    The train cache holds the input, from which backward gathers the patch
    matrix again for the weight gradient; a frozen conv's holds no array.
    """

    kind = "conv2d"
    eval_per_member = True

    def __init__(self, in_channels, out_channels, kh, kw, rng=None):
        super().__init__()
        self.in_channels, self.out_channels = in_channels, out_channels
        self.kh, self.kw = kh, kw
        rng = rng or np.random.default_rng(0)
        fan_in = in_channels * kh * kw
        scale = np.sqrt(2.0 / fan_in)
        self.params["weight"] = _read_only(rng.standard_normal((out_channels, in_channels, kh, kw)) * scale)
        self.params["bias"] = _read_only(np.zeros(out_channels))
        self.zero_grads()

    def forward(self, xs, ctx):
        x = _single(xs)
        oh, ow = self._out_hw(x)
        out = self._im2col(x, oh, ow) @ self._weight_matrix()  # (n*oh*ow, c*kh*kw) patches
        out += self.params["bias"]
        out = out.reshape(len(x), oh, ow, self.out_channels).transpose(0, 3, 1, 2)
        # backward gathers the patches again from x; a frozen conv's reads only the weights
        return out, (x.shape, None if self.frozen else x, (oh, ow))

    @classmethod
    def eval_group(cls, layers, key, overwrite=False):
        # each member keeps its transposed weight view: a contiguous copy
        # would take another BLAS path and change bits
        w_ts = [layer._weight_matrix() for layer in layers]
        bias = _stacked(layers, "bias")[3]
        conv = layers[0]

        def step(xs):
            n, (oh, ow) = len(xs[0]), conv._out_hw(xs[0])
            out = np.empty((len(w_ts), n * oh * ow, conv.out_channels))
            # id of an input -> (the input, held so that no other takes its id, its members)
            readers = {}
            for g in range(len(w_ts)):  # indexing beats iterating a stack
                x = xs[g]
                readers.setdefault(id(x), (x, []))[1].append(g)
            for x, members in readers.values():  # one patch matrix per distinct input
                cols = conv._im2col(x, oh, ow)
                for g in members:
                    np.matmul(cols, w_ts[g], out=out[g])
            out += bias
            return out.reshape(len(w_ts), n, oh, ow, -1).transpose(0, 1, 4, 2, 3)

        return step

    def _weight_matrix(self):
        """The (c * kh * kw, out_channels) transposed view of the weights."""
        return self.params["weight"].reshape(self.out_channels, -1).T

    def _out_hw(self, x):
        """``(oh, ow)`` of the output map over ``x``, which must fit the kernel."""
        _, c, h, w = x.shape
        if c != self.in_channels:
            raise ConfigError(f"conv2d expects {self.in_channels} channels, got {c}")
        oh, ow = h - self.kh + 1, w - self.kw + 1
        if oh < 1 or ow < 1:
            raise ConfigError(f"conv kernel {self.kh}x{self.kw} larger than map {h}x{w}")
        return oh, ow

    def _im2col(self, x, oh, ow):
        n, c, h, w = x.shape
        # a conv output is an (n, h, w, c) array seen as (n, c, h, w); reading
        # it in that order keeps the reshape a view (any other layout is copied)
        channels_last = x.strides[1] < x.strides[3]
        flat = (x.transpose(0, 2, 3, 1) if channels_last else x).reshape(n, -1)
        index = _patch_index(c, h, w, self.kh, self.kw, channels_last)
        return flat.take(index, axis=1).reshape(n * oh * ow, -1)

    def backward(self, dout, cache, need_dx):
        x_shape, x, (oh, ow) = cache
        dout_mat = dout.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
        if not self.frozen:
            if x is None:
                raise ConfigError("conv2d was unfrozen after a frozen forward pass")
            # the forward's gather over the whole batch gives its patch matrix bit for bit
            d_weight = dout_mat.T @ self._im2col(x, oh, ow)
            self.grads["weight"] += d_weight.reshape(self.params["weight"].shape)
            self.grads["bias"] += dout_mat.sum(axis=0)
        if not need_dx:
            return [None]
        # col2im: every output position's patch gradient, scattered back tap by tap
        n, c, h, w = x_shape
        w_mat = self.params["weight"].transpose(0, 2, 3, 1).reshape(self.out_channels, -1)
        dcols = (dout_mat @ w_mat).reshape(n, oh, ow, self.kh, self.kw, c)
        dx = np.zeros((n, h, w, c))
        for i in range(self.kh):
            for j in range(self.kw):
                dx[:, i : i + oh, j : j + ow] += dcols[:, :, :, i, j]
        return [dx.transpose(0, 3, 1, 2)]

    def get_config(self):
        return {
            "in_channels": self.in_channels,
            "out_channels": self.out_channels,
            "kh": self.kh,
            "kw": self.kw,
        }


class Dense(Layer):
    kind = "fully-connected"
    eval_per_member = True

    def __init__(self, in_features, out_features, rng=None):
        super().__init__()
        self.in_features, self.out_features = in_features, out_features
        rng = rng or np.random.default_rng(0)
        scale = np.sqrt(2.0 / in_features)
        self.params["weight"] = _read_only(rng.standard_normal((out_features, in_features)) * scale)
        self.params["bias"] = _read_only(np.zeros(out_features))
        self.zero_grads()

    def forward(self, xs, ctx):
        x = _single(xs)
        out = x @ self.params["weight"].T
        out += self.params["bias"]
        return out, x

    @classmethod
    def eval_group(cls, layers, key, overwrite=False):
        w_ts = [layer.params["weight"].T for layer in layers]
        bias = _stacked(layers, "bias")[3]
        width = layers[0].out_features

        def step(xs):
            out = np.empty((len(w_ts), len(xs[0]), width))
            for g, w_t in enumerate(w_ts):
                np.matmul(xs[g], w_t, out=out[g])
            out += bias
            return out

        return step

    def backward(self, dout, cache, need_dx):
        if not self.frozen:
            self.grads["weight"] += dout.T @ cache
            self.grads["bias"] += dout.sum(axis=0)
        return [dout @ self.params["weight"] if need_dx else None]

    def get_config(self):
        return {"in_features": self.in_features, "out_features": self.out_features}


class BatchNorm(Layer):
    """Batch normalization with per-subject running-statistic banks.

    gamma/beta are shared learned parameters; (mean, var) statistics live in
    a dict keyed by subject so distinct subjects never mix.  ``finalize``
    mode writes the current subject's entry with exact full-batch
    moments, which is how final inference statistics are produced.
    """

    kind = "batch-norm"

    def __init__(self, num_features):
        super().__init__()
        self.num_features = num_features
        self.params["gamma"] = _read_only(np.ones(num_features))
        self.params["beta"] = _read_only(np.zeros(num_features))
        self.banks = {}
        self.zero_grads()

    @staticmethod
    def _axes(x):
        if x.ndim == 4:
            return (0, 2, 3)
        if x.ndim == 2:
            return (0,)
        raise ConfigError(f"batch-norm expects 2-d or 4-d input, got {x.ndim}-d")

    def _reshape(self, v, ndim):
        return v[None, :, None, None] if ndim == 4 else v[None, :]

    def eval_affine(self, key):
        """Eval statistics as ``(scale, shift)``: ``out = x * scale + shift``.

        A ``key`` with no bank, never trained or finalized, raises ConfigError.
        """
        if key not in self.banks:
            raise ConfigError(f"batch-norm has no statistics for subject {key}: {list(self.banks)}")
        bank = self.banks[key]
        scale = self.params["gamma"] / np.sqrt(bank["var"] + BN_EPS)
        return scale, self.params["beta"] - bank["mean"] * scale

    def set_bank(self, key, mean, var):
        """Store fresh read-only copies of ``mean`` and ``var`` as bank ``key``."""
        self.banks[key] = {"mean": _read_only(mean), "var": _read_only(var)}
        _writes[key] += 1

    def drop_bank(self, key):
        """Remove bank ``key``, if there is one, counting the write."""
        self.banks.pop(key, None)
        _writes[key] += 1

    @classmethod
    def eval_group(cls, layers, key, overwrite=False):
        scale, shift = map(_per_channel, zip(*(layer.eval_affine(key) for layer in layers)))

        def step(x):
            out = np.multiply(x, scale[x.ndim], out=x if overwrite else None)
            out += shift[x.ndim]
            return out

        return step

    def forward(self, xs, ctx):
        x = _single(xs)
        axes = self._axes(x)
        key = subject_key(ctx.subject)
        if ctx.mode not in ("train", "finalize"):
            raise ConfigError(f"batch-norm forward runs in train or finalize mode, not '{ctx.mode}'")
        mean = x.mean(axis=axes)
        centered = x - self._reshape(mean, x.ndim)
        out = centered * centered  # the squares, later overwritten by the output
        var = out.mean(axis=axes)
        if ctx.mode == "finalize":
            self.set_bank(key, mean, var)
        else:
            bank = self.banks.get(key, {"mean": np.zeros(self.num_features), "var": np.ones(self.num_features)})
            self.set_bank(
                key,
                (1 - BN_MOMENTUM) * bank["mean"] + BN_MOMENTUM * mean,
                (1 - BN_MOMENTUM) * bank["var"] + BN_MOMENTUM * var,
            )
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        x_hat = centered
        x_hat *= self._reshape(inv_std, x.ndim)
        np.multiply(x_hat, self._reshape(self.params["gamma"], x.ndim), out=out)
        out += self._reshape(self.params["beta"], x.ndim)
        return out, (x_hat, inv_std, axes)

    def backward(self, dout, cache, need_dx):
        x_hat, inv_std, axes = cache
        if self.frozen and not need_dx:
            return [None]
        # one product feeds the gamma gradient and the statistics term of dx
        d_xhat = dout * x_hat
        sum_dxhat = d_xhat.sum(axis=axes)
        sum_d = dout.sum(axis=axes)
        if not self.frozen:
            self.grads["gamma"] += sum_dxhat
            self.grads["beta"] += sum_d
        if not need_dx:
            return [None]
        # gradient through the batch statistics; the means are sum / count, as
        # np.mean computes them, and the product's buffer is reused for x_hat's term
        count = dout.size // dout.shape[1]
        x_hat_term = np.multiply(x_hat, self._reshape(sum_dxhat / count, dout.ndim), out=d_xhat)
        dx = (dout - self._reshape(sum_d / count, dout.ndim)) - x_hat_term
        dx *= self._reshape(self.params["gamma"], dout.ndim) * self._reshape(inv_std, dout.ndim)
        return [dx]

    def get_config(self):
        return {"num_features": self.num_features}

    def state_extra(self):
        return {
            "banks": {
                str(k): {"mean": v["mean"].tolist(), "var": v["var"].tolist()}
                for k, v in self.banks.items()
            }
        }

    def load_extra(self, extra):
        for key in list(self.banks):
            self.drop_bank(key)
        for k, v in extra.get("banks", {}).items():
            self.set_bank(k if k == DEFAULT_SUBJECT else int(k), v["mean"], v["var"])


class Dropout(Layer):
    """Inverted dropout: stochastic in train mode, identity at eval.

    The train cache is the boolean keep mask and the keep probability; the
    float mask, 1/keep where kept and 0 elsewhere, is built from them in
    forward and again in backward.
    """

    kind = "dropout"

    def __init__(self, rate=0.5):
        super().__init__()
        self.rate = float(rate)

    def forward(self, xs, ctx):
        x = _single(xs)
        if self.rate <= 0.0 or ctx.mode == "finalize":
            return x, None
        if ctx.mode != "train":
            raise ConfigError(f"unknown mode '{ctx.mode}'")
        if ctx.rng is None:
            raise ConfigError("stochastic dropout needs an rng in the context")
        keep = 1.0 - self.rate
        draw = ctx.rng.random(x.shape)
        kept = draw < keep
        return x * np.divide(kept, keep, out=draw), (kept, keep)

    def backward(self, dout, cache, need_dx):
        if cache is None:
            return [dout]
        kept, keep = cache
        return [dout * (kept / keep)]  # forward's float mask, bit for bit

    def eval_views(self):
        return ()

    def get_config(self):
        return {"rate": self.rate}


class PReLU(Layer):
    kind = "prelu"

    def __init__(self, num_features, alpha_init=0.25, frozen=False):
        super().__init__()
        self.num_features = num_features
        self.alpha_init = float(alpha_init)
        self.params["alpha"] = _read_only(np.full(num_features, float(alpha_init)))
        self.frozen = frozen
        self.zero_grads()

    def forward(self, xs, ctx):
        x = _single(xs)
        return self._prelu(x, self.params["alpha"].reshape(_channel_shape(x.ndim))), x

    @classmethod
    def eval_group(cls, layers, key, overwrite=False):
        alpha = _stacked(layers, "alpha")
        return lambda x: cls._prelu(x, alpha[x.ndim], out=x if overwrite else None)

    @staticmethod
    def _prelu(x, alpha, out=None):
        # max(x, 0) + alpha min(x, 0): one term is zero at every element
        neg_part = np.minimum(x, 0.0)
        out = np.maximum(x, 0.0, out=out)
        neg_part *= alpha
        out += neg_part
        return out

    def backward(self, dout, cache, need_dx):
        x = cache
        if not self.frozen:
            axes = (0, 2, 3) if x.ndim == 4 else (0,)
            d_alpha = np.minimum(x, 0.0, out=_like_product(x, dout))
            d_alpha *= dout
            self.grads["alpha"] += d_alpha.sum(axis=axes)
        if not need_dx:
            return [None]
        alpha = self.params["alpha"].reshape(_channel_shape(x.ndim))
        # slope (1 - neg) + neg * alpha on a 0/1 mask of x < 0
        neg = np.less(x, 0.0, out=_like_product(x, dout))
        dx = np.subtract(1.0, neg)
        neg *= alpha
        dx += neg
        dx *= dout
        return [dx]

    def get_config(self):
        return {
            "num_features": self.num_features,
            "alpha_init": self.alpha_init,
            "frozen": self.frozen,
        }


class PELU(Layer):
    """Parametric ELU: (a/b) x for x >= 0, a (exp(x/b) - 1) otherwise.

    a and b stay positive via projection to a small floor after updates.
    """

    kind = "pelu"
    FLOOR = 1e-3

    def __init__(self, num_features):
        super().__init__()
        self.num_features = num_features
        self.params["a"] = _read_only(np.ones(num_features))
        self.params["b"] = _read_only(np.ones(num_features))
        self.zero_grads()

    def forward(self, xs, ctx):
        x = _single(xs)
        shape = _channel_shape(x.ndim)
        a = self.params["a"].reshape(shape)
        b = self.params["b"].reshape(shape)
        expx = self._exp_neg(x, b)
        out = self._pelu(x, expx - 1.0, a, a / b)
        return out, (x, expx)

    @classmethod
    def eval_group(cls, layers, key, overwrite=False):
        a, b = _stacked(layers, "a"), _stacked(layers, "b")
        a_b = {ndim: a[ndim] / b[ndim] for ndim in a}

        def step(x):
            expx = cls._exp_neg(x, b[x.ndim])
            expx -= 1.0  # no backward reads it, so it becomes the negative part
            return cls._pelu(x, expx, a[x.ndim], a_b[x.ndim], out=x if overwrite else None)

        return step

    @staticmethod
    def _exp_neg(x, b):
        """exp(min(x, 0) / b): exactly 1.0 wherever x >= 0."""
        expx = np.minimum(x, 0.0)
        expx /= b
        return np.exp(expx, out=expx)

    @staticmethod
    def _pelu(x, neg_part, a, a_b, out=None):
        """(a/b) max(x, 0) + a (expx - 1), given ``neg_part`` = expx - 1, which it scales.

        One term is zero at every element, so the sum is exact.
        """
        out = np.maximum(x, 0.0, out=out)
        out *= a_b
        neg_part *= a
        out += neg_part
        return out

    def backward(self, dout, cache, need_dx):
        x, expx = cache
        shape = _channel_shape(x.ndim)
        a = self.params["a"].reshape(shape)
        b = self.params["b"].reshape(shape)
        if not self.frozen:
            axes = (0, 2, 3) if x.ndim == 4 else (0,)
            # d/da: max(x, 0)/b + (expx - 1) is exact as in forward; d/db is
            # -a x expx / b^2 on both sides of 0 because expx = 1 on x >= 0
            self.grads["a"] += ((np.maximum(x, 0.0) / b + (expx - 1.0)) * dout).sum(axis=axes)
            self.grads["b"] += (-a * x * expx / b**2 * dout).sum(axis=axes)
        if not need_dx:
            return [None]
        return [(a / b) * expx * dout]

    def project(self):
        self.set_param("a", np.maximum(self.params["a"], self.FLOOR))
        self.set_param("b", np.maximum(self.params["b"], self.FLOOR))

    def get_config(self):
        return {"num_features": self.num_features}


class MaxPool(Layer):
    """Non-overlapping max pooling; trailing remainder columns are cropped."""

    kind = "maxpool"

    def __init__(self, kh=1, kw=3):
        super().__init__()
        self.kh, self.kw = kh, kw

    def forward(self, xs, ctx):
        x = _single(xs)
        flat = self._windows(x)
        if ctx.mode == "finalize":  # nothing reads an index
            return flat.max(axis=-1), None
        # the running maximum keeps the earlier value on a tie (np.maximum
        # returns its second operand there), so it is the first max, sign
        # of zero included; the index counts the taps before the first one
        # equal to it, as argmax does
        taps = [flat[..., k] for k in range(flat.shape[-1])]
        out = functools.reduce(lambda best, tap: np.maximum(tap, best), taps)
        below = taps[0] != out
        arg = below.astype(np.intp)
        for tap in taps[1:-1]:
            below &= tap != out
            arg += below
        return out, (x.shape, arg)

    @classmethod
    def eval_group(cls, layers, key, overwrite=False):
        return lambda x: layers[0]._windows(x).max(axis=-1)

    def _windows(self, x):
        """The (..., oh, ow, kh * kw) pooling windows of ``x``, a map or a stack of maps.

        Their max equals the first max, the one ``argmax`` picks, but for
        the sign of an exact zero.
        """
        *lead, h, w = x.shape
        oh, ow = h // self.kh, w // self.kw
        view = x[..., : oh * self.kh, : ow * self.kw].reshape(*lead, oh, self.kh, ow, self.kw)
        return view.swapaxes(-3, -2).reshape(*lead, oh, ow, self.kh * self.kw)

    def backward(self, dout, cache, need_dx):
        shape, arg = cache
        n, c, h, w = shape
        oh, ow = h // self.kh, w // self.kw
        dflat = np.zeros((n, c, oh, ow, self.kh * self.kw))
        np.put_along_axis(dflat, arg[..., None], dout[..., None], axis=-1)
        dview = dflat.reshape(n, c, oh, ow, self.kh, self.kw).transpose(0, 1, 2, 4, 3, 5)
        dx = np.zeros(shape)
        dx[:, :, : oh * self.kh, : ow * self.kw] = dview.reshape(
            n, c, oh * self.kh, ow * self.kw
        )
        return [dx]

    def get_config(self):
        return {"kh": self.kh, "kw": self.kw}


class Flatten(Layer):
    kind = "flatten"

    def forward(self, xs, ctx):
        x = _single(xs)
        return x.reshape(len(x), -1), x.shape

    def backward(self, dout, cache, need_dx):
        return [dout.reshape(cache)]

    def eval_views(self):
        return (lambda stack: stack.reshape(*stack.shape[:2], -1),)


class Sum(Layer):
    """Element-wise sum port merging equal-shaped feature maps."""

    kind = "elementwise-sum-port"

    def forward(self, xs, ctx):
        return self._sum(xs), len(xs)

    @classmethod
    def eval_group(cls, layers, key, overwrite=False):
        return cls._sum

    @staticmethod
    def _sum(xs):
        if len(xs) < 2:
            raise ConfigError("sum port needs at least two inputs")
        shape = xs[0].shape
        for x in xs[1:]:
            if x.shape != shape:
                raise ConfigError(f"sum port shape mismatch: {shape} vs {x.shape}")
        out = np.add(xs[0], xs[1], out=np.empty(shape))
        for x in xs[2:]:
            out += x
        return out

    def backward(self, dout, cache, need_dx):
        return [dout] * cache


class ScalarScale(Layer):
    """Per-channel (or per-neuron) learned scaling coefficients."""

    kind = "scalar-scale"

    def __init__(self, num_features, init=1.0):
        super().__init__()
        self.num_features = num_features
        self.init = float(init)
        self.params["coeff"] = _read_only(np.full(num_features, float(init)))
        self.zero_grads()

    def forward(self, xs, ctx):
        x = _single(xs)
        return x * self.params["coeff"].reshape(_channel_shape(x.ndim)), x

    @classmethod
    def eval_group(cls, layers, key, overwrite=False):
        coeff = _stacked(layers, "coeff")
        return lambda x: np.multiply(x, coeff[x.ndim], out=x if overwrite else None)

    @classmethod
    def eval_scale_add(cls, layers, key, overwrite=False):
        """The eval step of these layers, each with the two-input Sum that alone reads it.

        Its input is ``(x, other)``: the layers' inputs and the sums' other
        ones.  IEEE addition commutes exactly, so ``x * coeff + other``
        equals the sum port's result in either input order bit for bit.
        """
        coeff = _stacked(layers, "coeff")

        def step(xs):
            x, other = xs
            out = x * coeff[x.ndim]
            if out.shape != other.shape:
                raise ConfigError(f"sum port shape mismatch: {other.shape} vs {out.shape}")
            out += other
            return out

        return step

    def backward(self, dout, cache, need_dx):
        x = cache
        if not self.frozen:
            axes = (0, 2, 3) if x.ndim == 4 else (0,)
            self.grads["coeff"] += (dout * x).sum(axis=axes)
        if not need_dx:
            return [None]
        return [dout * self.params["coeff"].reshape(_channel_shape(x.ndim))]

    def get_config(self):
        return {"num_features": self.num_features, "init": self.init}


class SliceChannels(Layer):
    """Take channels [start, stop) of the input; used to split time branches."""

    kind = "slice-channels"

    def __init__(self, start, stop):
        super().__init__()
        self.start, self.stop = start, stop

    def forward(self, xs, ctx):
        x = _single(xs)
        return x[:, self.start : self.stop], x.shape

    def backward(self, dout, cache, need_dx):
        dx = np.zeros(cache)
        dx[:, self.start : self.stop] = dout
        return [dx]

    def eval_views(self):
        return (lambda stack: stack[:, :, self.start : self.stop],)

    def get_config(self):
        return {"start": self.start, "stop": self.stop}


LAYER_REGISTRY = {
    cls.kind: cls
    for cls in (
        Conv2d,
        Dense,
        BatchNorm,
        Dropout,
        PReLU,
        PELU,
        MaxPool,
        Flatten,
        Sum,
        ScalarScale,
        SliceChannels,
    )
}


def layer_from_config(kind, config):
    cls = LAYER_REGISTRY[kind]
    if kind in ("conv2d", "fully-connected"):
        return cls(rng=np.random.default_rng(0), **config)
    return cls(**config)
