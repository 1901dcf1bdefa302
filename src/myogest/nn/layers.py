"""Network layers with hand-written forward/backward passes.

Every layer returns (output, cache) from forward and consumes that cache in
backward, which returns one gradient per input and accumulates parameter
gradients into ``layer.grads``.  Convolutions are valid (no padding), stride
1; the maps involved are tiny (at most 8 x 52) so the (kh, kw) loop with
tensordot is plenty fast.

Forward context carries the execution mode:

- ``train``     batch statistics, active dropout
- ``eval``      stored statistics, dropout as identity (inverted scaling)
- ``finalize``  full-batch statistics written into the subject's bank
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
DEFAULT_SUBJECT = "__default__"


@dataclass
class Context:
    mode: str = "eval"
    subject: object = None
    rng: np.random.Generator = None

    def subject_key(self):
        return DEFAULT_SUBJECT if self.subject is None else int(self.subject)


class Layer:
    kind = "abstract"

    def __init__(self):
        self.params = {}
        self.grads = {}
        self.frozen = False

    def forward(self, xs, ctx):
        raise NotImplementedError

    def backward(self, dout, cache):
        raise NotImplementedError

    def zero_grads(self):
        for k in self.params:
            self.grads[k] = np.zeros_like(self.params[k])

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


def _single(xs):
    if len(xs) != 1:
        raise ConfigError(f"layer expects one input, got {len(xs)}")
    return xs[0]


class Conv2d(Layer):
    kind = "conv2d"

    def __init__(self, in_channels, out_channels, kh, kw, rng=None):
        super().__init__()
        self.in_channels, self.out_channels = in_channels, out_channels
        self.kh, self.kw = kh, kw
        rng = rng or np.random.default_rng(0)
        fan_in = in_channels * kh * kw
        scale = np.sqrt(2.0 / fan_in)
        self.params["weight"] = rng.standard_normal((out_channels, in_channels, kh, kw)) * scale
        self.params["bias"] = np.zeros(out_channels)
        self.zero_grads()

    def forward(self, xs, ctx):
        x = _single(xs)
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ConfigError(f"conv2d expects {self.in_channels} channels, got {c}")
        oh, ow = h - self.kh + 1, w - self.kw + 1
        if oh < 1 or ow < 1:
            raise ConfigError(f"conv kernel {self.kh}x{self.kw} larger than map {h}x{w}")
        cols = self._im2col(x, oh, ow)  # (n*oh*ow, c*kh*kw)
        w_mat = self.params["weight"].reshape(self.out_channels, -1)
        out = cols @ w_mat.T + self.params["bias"]
        out = out.reshape(n, oh, ow, self.out_channels).transpose(0, 3, 1, 2)
        return out, (x.shape, cols, (oh, ow))

    def _im2col(self, x, oh, ow):
        n, c = x.shape[:2]
        s0, s1, s2, s3 = x.strides
        view = np.lib.stride_tricks.as_strided(
            x,
            shape=(n, c, self.kh, self.kw, oh, ow),
            strides=(s0, s1, s2, s3, s2, s3),
            writeable=False,
        )
        return view.transpose(0, 4, 5, 1, 2, 3).reshape(n * oh * ow, -1)

    def backward(self, dout, cache):
        x_shape, cols, (oh, ow) = cache
        n, _, h, w = x_shape
        w_mat = self.params["weight"].reshape(self.out_channels, -1)
        dout_mat = dout.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
        self.grads["weight"] += (dout_mat.T @ cols).reshape(self.params["weight"].shape)
        self.grads["bias"] += dout_mat.sum(axis=0)
        # dx is the full correlation of dout with the flipped kernel
        pad = np.zeros((n, self.out_channels, h + self.kh - 1, w + self.kw - 1))
        pad[:, :, self.kh - 1 : self.kh - 1 + oh, self.kw - 1 : self.kw - 1 + ow] = dout
        s0, s1, s2, s3 = pad.strides
        view = np.lib.stride_tricks.as_strided(
            pad,
            shape=(n, self.out_channels, self.kh, self.kw, h, w),
            strides=(s0, s1, s2, s3, s2, s3),
            writeable=False,
        )
        cols_b = view.transpose(0, 4, 5, 1, 2, 3).reshape(n * h * w, -1)
        w_flip = self.params["weight"][:, :, ::-1, ::-1].transpose(0, 2, 3, 1).reshape(-1, self.in_channels)
        dx = (cols_b @ w_flip).reshape(n, h, w, self.in_channels).transpose(0, 3, 1, 2)
        return [dx]

    def get_config(self):
        return {
            "in_channels": self.in_channels,
            "out_channels": self.out_channels,
            "kh": self.kh,
            "kw": self.kw,
        }


class Dense(Layer):
    kind = "fully-connected"

    def __init__(self, in_features, out_features, rng=None):
        super().__init__()
        self.in_features, self.out_features = in_features, out_features
        rng = rng or np.random.default_rng(0)
        scale = np.sqrt(2.0 / in_features)
        self.params["weight"] = rng.standard_normal((out_features, in_features)) * scale
        self.params["bias"] = np.zeros(out_features)
        self.zero_grads()

    def forward(self, xs, ctx):
        x = _single(xs)
        return x @ self.params["weight"].T + self.params["bias"], x

    def backward(self, dout, cache):
        x = cache
        self.grads["weight"] += dout.T @ x
        self.grads["bias"] += dout.sum(axis=0)
        return [dout @ self.params["weight"]]

    def get_config(self):
        return {"in_features": self.in_features, "out_features": self.out_features}


class BatchNorm(Layer):
    """Batch normalization with per-subject running-statistic banks.

    gamma/beta are shared learned parameters; (mean, var) statistics live in
    a dict keyed by subject so distinct subjects never mix.  ``finalize``
    mode overwrites the current subject's entry with exact full-batch
    moments, which is how final inference statistics are produced.
    """

    kind = "batch-norm"

    def __init__(self, num_features):
        super().__init__()
        self.num_features = num_features
        self.params["gamma"] = np.ones(num_features)
        self.params["beta"] = np.zeros(num_features)
        self.banks = {}
        self.zero_grads()

    def _bank(self, key):
        if key not in self.banks:
            self.banks[key] = {
                "mean": np.zeros(self.num_features),
                "var": np.ones(self.num_features),
            }
        return self.banks[key]

    @staticmethod
    def _axes(x):
        if x.ndim == 4:
            return (0, 2, 3)
        if x.ndim == 2:
            return (0,)
        raise ConfigError(f"batch-norm expects 2-d or 4-d input, got {x.ndim}-d")

    def _reshape(self, v, ndim):
        return v[None, :, None, None] if ndim == 4 else v[None, :]

    def forward(self, xs, ctx):
        x = _single(xs)
        axes = self._axes(x)
        key = ctx.subject_key()
        if ctx.mode in ("train", "finalize"):
            mean = x.mean(axis=axes)
            centered = x - self._reshape(mean, x.ndim)
            var = np.mean(centered * centered, axis=axes)
            bank = self._bank(key)
            if ctx.mode == "finalize":
                bank["mean"] = mean.copy()
                bank["var"] = var.copy()
            else:
                bank["mean"] = (1 - BN_MOMENTUM) * bank["mean"] + BN_MOMENTUM * mean
                bank["var"] = (1 - BN_MOMENTUM) * bank["var"] + BN_MOMENTUM * var
        else:
            bank = self.banks.get(key) or self._bank(DEFAULT_SUBJECT)
            mean, var = bank["mean"], bank["var"]
            centered = x - self._reshape(mean, x.ndim)
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        x_hat = centered * self._reshape(inv_std, x.ndim)
        out = self._reshape(self.params["gamma"], x.ndim) * x_hat + self._reshape(
            self.params["beta"], x.ndim
        )
        m = int(np.prod([x.shape[a] for a in axes]))
        return out, (x_hat, inv_std, axes, m, ctx.mode)

    def backward(self, dout, cache):
        x_hat, inv_std, axes, m, mode = cache
        g = self._reshape(self.params["gamma"], dout.ndim)
        inv = self._reshape(inv_std, dout.ndim)
        self.grads["gamma"] += (dout * x_hat).sum(axis=axes)
        self.grads["beta"] += dout.sum(axis=axes)
        if mode != "train":
            return [dout * g * inv]
        # gradient through the batch statistics
        mean_d = dout.mean(axis=axes)
        mean_dx = (dout * x_hat).mean(axis=axes)
        dx = (
            g
            * inv
            * (
                dout
                - self._reshape(mean_d, dout.ndim)
                - x_hat * self._reshape(mean_dx, dout.ndim)
            )
        )
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
        self.banks = {}
        for k, v in extra.get("banks", {}).items():
            key = k if k == DEFAULT_SUBJECT else int(k)
            self.banks[key] = {
                "mean": np.asarray(v["mean"], dtype=np.float64),
                "var": np.asarray(v["var"], dtype=np.float64),
            }


class Dropout(Layer):
    """Inverted dropout: stochastic in train mode, identity at eval."""

    kind = "dropout"

    def __init__(self, rate=0.5):
        super().__init__()
        self.rate = float(rate)

    def forward(self, xs, ctx):
        x = _single(xs)
        if self.rate <= 0.0 or ctx.mode in ("eval", "finalize"):
            return x, None
        if ctx.mode != "train":
            raise ConfigError(f"unknown mode '{ctx.mode}'")
        if ctx.rng is None:
            raise ConfigError("stochastic dropout needs an rng in the context")
        keep = 1.0 - self.rate
        mask = (ctx.rng.random(x.shape) < keep) / keep
        return x * mask, mask

    def backward(self, dout, cache):
        if cache is None:
            return [dout]
        return [dout * cache]

    def get_config(self):
        return {"rate": self.rate}


class PReLU(Layer):
    kind = "prelu"

    def __init__(self, num_features, alpha_init=0.25, frozen=False):
        super().__init__()
        self.num_features = num_features
        self.alpha_init = float(alpha_init)
        self.params["alpha"] = np.full(num_features, float(alpha_init))
        self.frozen = frozen
        self.zero_grads()

    def forward(self, xs, ctx):
        x = _single(xs)
        alpha = self.params["alpha"].reshape(_channel_shape(x.ndim))
        return np.where(x >= 0, x, alpha * x), x

    def backward(self, dout, cache):
        x = cache
        alpha = self.params["alpha"].reshape(_channel_shape(x.ndim))
        neg = x < 0
        axes = (0, 2, 3) if x.ndim == 4 else (0,)
        self.grads["alpha"] += np.where(neg, dout * x, 0.0).sum(axis=axes)
        return [np.where(neg, alpha * dout, dout)]

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
        self.params["a"] = np.ones(num_features)
        self.params["b"] = np.ones(num_features)
        self.zero_grads()

    def forward(self, xs, ctx):
        x = _single(xs)
        shape = _channel_shape(x.ndim)
        a = self.params["a"].reshape(shape)
        b = self.params["b"].reshape(shape)
        expx = np.exp(np.minimum(x, 0.0) / b)
        out = np.where(x >= 0, (a / b) * x, a * (expx - 1.0))
        return out, (x, expx)

    def backward(self, dout, cache):
        x, expx = cache
        shape = _channel_shape(x.ndim)
        a = self.params["a"].reshape(shape)
        b = self.params["b"].reshape(shape)
        pos = x >= 0
        axes = (0, 2, 3) if x.ndim == 4 else (0,)
        dx = np.where(pos, a / b, (a / b) * expx) * dout
        da_full = np.where(pos, x / b, expx - 1.0) * dout
        db_full = np.where(pos, -a * x / b**2, -a * x * expx / b**2) * dout
        self.grads["a"] += da_full.sum(axis=axes)
        self.grads["b"] += db_full.sum(axis=axes)
        return [dx]

    def project(self):
        np.maximum(self.params["a"], self.FLOOR, out=self.params["a"])
        np.maximum(self.params["b"], self.FLOOR, out=self.params["b"])

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
        n, c, h, w = x.shape
        oh, ow = h // self.kh, w // self.kw
        view = x[:, :, : oh * self.kh, : ow * self.kw].reshape(
            n, c, oh, self.kh, ow, self.kw
        )
        flat = view.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, oh, ow, self.kh * self.kw)
        arg = flat.argmax(axis=-1)
        out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
        return out, (x.shape, arg)

    def backward(self, dout, cache):
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
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, dout, cache):
        return [dout.reshape(cache)]


class Sum(Layer):
    """Element-wise sum port merging equal-shaped feature maps."""

    kind = "elementwise-sum-port"

    def forward(self, xs, ctx):
        if len(xs) < 2:
            raise ConfigError("sum port needs at least two inputs")
        shape = xs[0].shape
        for x in xs[1:]:
            if x.shape != shape:
                raise ConfigError(f"sum port shape mismatch: {shape} vs {x.shape}")
        out = xs[0].copy()
        for x in xs[1:]:
            out += x
        return out, len(xs)

    def backward(self, dout, cache):
        return [dout] * cache


class ScalarScale(Layer):
    """Per-channel (or per-neuron) learned scaling coefficients."""

    kind = "scalar-scale"

    def __init__(self, num_features, init=1.0):
        super().__init__()
        self.num_features = num_features
        self.init = float(init)
        self.params["coeff"] = np.full(num_features, float(init))
        self.zero_grads()

    def forward(self, xs, ctx):
        x = _single(xs)
        return x * self.params["coeff"].reshape(_channel_shape(x.ndim)), x

    def backward(self, dout, cache):
        x = cache
        axes = (0, 2, 3) if x.ndim == 4 else (0,)
        self.grads["coeff"] += (dout * x).sum(axis=axes)
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

    def backward(self, dout, cache):
        dx = np.zeros(cache)
        dx[:, self.start : self.stop] = dout
        return [dx]

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


def layer_from_config(kind, config, frozen=False):
    cls = LAYER_REGISTRY[kind]
    if kind in ("conv2d", "fully-connected"):
        layer = cls(rng=np.random.default_rng(0), **config)
    else:
        layer = cls(**config)
    layer.frozen = bool(frozen) or getattr(layer, "frozen", False)
    return layer
