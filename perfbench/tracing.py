"""Span tracing of myogest from outside the package.

``Tracer.install()`` replaces the public functions of the pipeline modules,
a few public methods of ``Network`` and ``Adam``, and every layer's
``forward``/``backward`` with wrappers that record one span per call:
name, start, end and parent.  Spans stay in memory (flat arrays) until the
run ends; ``uninstall()`` puts every original back so untraced passes run
the program unmodified.

Per-channel signal primitives (``features.mav``, ``timefreq.mdwt`` and the
like) are not spanned: a feature pass calls them ~10^5 times, and a span
each would cost more than the work it measures.  Their time is self time of
the per-window span that called them (``features.assemble_feature_set``).
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

# module -> group name used as the span prefix and for self time
MODULES = {
    "myogest.dataset": "dataset",
    "myogest.harness": "harness",
    "myogest.timefreq": "timefreq",
    "myogest.features": "features",
    "myogest.stats": "stats",
    "myogest.architectures": "architectures",
    "myogest.transfer": "transfer",
    "myogest.nn.train": "nn",
    "myogest.nn.network": "nn",
    "myogest.nn.optim": "nn",
    "myogest.nn.layers": "nn",
}
GROUPS = tuple(dict.fromkeys(MODULES.values()))

PER_CHANNEL = {
    "myogest.features": {
        "mav", "iemg", "rms", "wl", "ssc", "zc", "skewness", "hjorth", "autocorrelation",
        "ar_coefficients", "sampen", "hist", "cepstral_from_ar", "cepstral",
    },
    "myogest.timefreq": {
        "hann_window", "spectrogram_channel", "mexican_hat", "cwt_channel", "dwt_db7",
        "idwt_db7", "mdwt", "mdwt_from_coefficients", "mdwt_length",
    },
}
NETWORK_METHODS = (
    "forward", "backward_from", "train_batch", "predict", "predict_proba",
    "state_dict", "load_state_dict", "save", "zero_grads",
)
ADAM_METHODS = ("step", "reset_moments")
LAYER_KINDS = (
    "conv2d", "fully-connected", "batch-norm", "prelu", "pelu", "maxpool", "dropout",
    "flatten", "elementwise-sum-port", "scalar-scale", "slice-channels",
)
FEATURE_SETS = ("TD", "EnhancedTD", "NinaPro", "SampEnPipeline")


def _count_windows(counts, args, kwargs, result, seconds):
    counts["dataset.windows"] += len(result)


def _count_transform(counts, args, kwargs, result, seconds):
    counts["timefreq.windows"] += len(args[0])


def _count_features(counts, args, kwargs, result, seconds):
    set_name = args[1] if len(args) > 1 else kwargs["set_name"]
    counts[f"features.{set_name}.windows"] += len(args[0])
    counts[f"features.{set_name}.s"] += seconds


def _count_epochs(counts, args, kwargs, result, seconds):
    counts["nn.epochs"] += len(result.train_loss)


HOOKS = {
    "dataset.slice_windows": _count_windows,
    "timefreq.spectrogram_batch": _count_transform,
    "timefreq.cwt_batch": _count_transform,
    "features.feature_matrix": _count_features,
    "nn.train": _count_epochs,
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self._stack = []
        self._patches = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start[idx] = time.perf_counter()
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """Record one span around benchmark code."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    # ---- wrapping -----------------------------------------------------

    def _wrap(self, fn, name):
        tracer, nid, hook = self, self._id(name), HOOKS.get(name)

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer.counts, args, kwargs, result, tracer.end[idx] - tracer.start[idx])
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_layer_method(self, fn, direction):
        tracer, ids = self, {}

        def traced(layer, *args, **kwargs):
            nid = ids.get(layer.kind)
            if nid is None:
                nid = ids[layer.kind] = tracer._id(f"nn.{direction}.{layer.kind}")
            idx = tracer._open(nid)
            try:
                return fn(layer, *args, **kwargs)
            finally:
                tracer._close(idx)

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap the program's public functions and methods in place."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        loaded = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "myogest" or name.startswith("myogest."))
        ]
        for mod_name, group in MODULES.items():
            mod = importlib.import_module(mod_name)
            skip = PER_CHANNEL.get(mod_name, set())
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or attr in skip
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod_name
                ):
                    continue
                traced = self._wrap(fn, f"{group}.{attr}")
                # every module that imported the name holds its own reference
                for holder in loaded:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, name, traced)
        from myogest.nn.layers import LAYER_REGISTRY
        from myogest.nn.network import Network
        from myogest.nn.optim import Adam

        for cls, methods in ((Network, NETWORK_METHODS), (Adam, ADAM_METHODS)):
            for meth in methods:
                if hasattr(cls, meth):  # a method a later version drops is not traced
                    traced = self._wrap(getattr(cls, meth), f"nn.{cls.__name__}.{meth}")
                    self._patch(cls, meth, traced)
        for cls in LAYER_REGISTRY.values():
            for direction in ("forward", "backward"):
                if direction in vars(cls):
                    traced = self._wrap_layer_method(vars(cls)[direction], direction)
                    self._patch(cls, direction, traced)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # ---- analysis -----------------------------------------------------

    def mark(self):
        """Position to pass to ``layer_metrics`` for the spans recorded after now."""
        self.counts = Counter()
        return len(self.start)

    def layer_metrics(self, first: int) -> dict:
        """Per-layer metrics over the spans recorded since ``mark()``."""
        last = len(self.start)
        names = np.asarray(self.name_id[first:last], dtype=np.int64)
        parent = np.asarray(self.parent[first:last], dtype=np.int64) - first
        dur = np.asarray(self.end[first:last]) - np.asarray(self.start[first:last])
        n = len(dur)
        inner = parent >= 0
        child_time = np.bincount(parent[inner], weights=dur[inner], minlength=n)
        self_time = dur - child_time
        group_of = np.array([name.split(".", 1)[0] for name in self.names], dtype=object)[names]
        counts = self.counts

        def total(*span_names):
            """Inclusive time of the outermost spans among ``span_names``."""
            ids = [self._ids[s] for s in span_names if s in self._ids]
            if not ids:
                return 0.0
            hit = np.isin(names, ids)
            outer = hit.copy()
            for i in np.nonzero(hit)[0]:
                p = parent[i]
                while p >= 0:
                    if hit[p]:
                        outer[i] = False
                        break
                    p = parent[p]
            return float(dur[outer].sum())

        def durations(name):
            nid = self._ids.get(name)
            return dur[names == nid] if nid is not None else np.zeros(0)

        def p50_ms(name):
            d = durations(name)
            return float(np.median(d) * 1e3) if len(d) else 0.0

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        m = {}
        for kind in LAYER_KINDS:
            m[f"nn.forward.{kind}_s"] = total(f"nn.forward.{kind}")
            m[f"nn.backward.{kind}_s"] = total(f"nn.backward.{kind}")
        m["nn.train_s"] = total("nn.train")
        m["nn.epochs"] = counts["nn.epochs"]
        m["nn.batches"] = len(durations("nn.Network.train_batch"))
        m["nn.train_batch_ms.p50"] = p50_ms("nn.Network.train_batch")
        m["nn.adam_step_ms.p50"] = p50_ms("nn.Adam.step")
        m["nn.eval_loss_s"] = total("nn.evaluate_loss")
        m["nn.finalize_s"] = total("nn.finalize_bn")
        m["nn.predict_s"] = total("nn.Network.predict")
        # snapshots: state_dict / load_state_dict called directly by train()
        train_id = self._ids.get("nn.train", -2)
        snap_ids = [
            self._ids.get(f"nn.Network.{meth}", -2) for meth in ("state_dict", "load_state_dict")
        ]
        snap = np.isin(names, snap_ids) & inner
        snap &= names[np.where(inner, parent, 0)] == train_id
        m["nn.snapshot_s"] = float(dur[snap].sum())
        m["nn.snapshots"] = int(snap.sum())
        m["timefreq.batch_s"] = total("timefreq.spectrogram_batch", "timefreq.cwt_batch")
        m["timefreq.windows_per_s"] = rate(counts["timefreq.windows"], m["timefreq.batch_s"])
        m["harness.transform_s"] = total("harness.transform_windows")
        m["features.matrix_s"] = total("features.feature_matrix")
        for set_name in FEATURE_SETS:
            m[f"features.{set_name}.windows_per_s"] = rate(
                counts[f"features.{set_name}.windows"], counts[f"features.{set_name}.s"]
            )
        m["stats.lda_fit_s"] = total("stats.lda_fit")
        m["stats.lda_project_s"] = total("stats.lda_project")
        m["stats.lda_classify_s"] = total("stats.lda_classify")
        m["stats.knn_s"] = total("stats.knn_classify")
        m["dataset.load_s"] = total("dataset.load_dataset")
        m["dataset.split_s"] = total("dataset.build_split")
        m["dataset.windows"] = counts["dataset.windows"]
        m["dataset.align_s"] = total(
            "dataset.compute_activation_profile",
            "dataset.activation_profile_from_windows",
            "dataset.find_alignment",
            "dataset.apply_shift",
        )
        m["harness.hash_s"] = total("harness.dataset_content_hash")
        m["harness.run_experiment_s"] = total("harness.run_experiment")
        m["harness.load_source_s"] = total("harness.load_source_checkpoint")
        m["architectures.build_s"] = total(
            "architectures.build_architecture",
            *[f"architectures.{fn}" for fn in (
                "build_spectrogram_net", "build_cwt_net", "build_raw_net",
                "build_enhanced_raw_net", "build_raw_1d_net",
            )],
        )
        m["transfer.pretrain_s"] = total("transfer.pretrain")
        m["transfer.build_target_s"] = total("transfer.build_target")
        m["transfer.train_target_s"] = total("transfer.train_target")
        for group in GROUPS:
            m[f"{group}.self_s"] = float(self_time[group_of == group].sum())
        return m
