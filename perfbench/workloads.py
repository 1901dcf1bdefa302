"""The benchmark's three workloads, run through myogest's public API.

Every workload has the same shape.  ``write_datasets`` is the set-up: it
writes seeded synthetic Myo datasets.  ``run_pass`` is one timed pass:

1. ``prepare``: work the deployed user needs first (the transfer source is
   pre-trained by ``harness.pretrain_source``);
2. the deployed user: one subject gets a classifier fitted through the
   public building blocks (``adapt_s``);
3. the research protocol: ``harness.run_experiment`` steps over the other
   subjects, one call per model (and per subject for the ConvNets), with the
   deployed user's stream in bursts before, between and after them.  The
   stream sends that user's test windows one at a time through transform
   and predict, in a closed loop with one caller, at least ``stream_min``
   windows per pass (the test list repeats when it is shorter).

Calls go through module attributes (``harness.run_experiment``), never
through names imported into this file, so the tracer's wrappers see them.
Work per pass is fixed: ``patience_epochs`` exceeds ``max_epochs``, so
neither annealing nor early stopping changes the number of epochs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from myogest import architectures, dataset, features, harness, nn, stats, synthetic, transfer

WINDOW_PERIOD_MS = 25.0  # a new 52-sample window every 5 samples at 200 Hz
GESTURES = 7
# per-subject channel rotation, amplitude and noise of the synthetic armband
SUBJECTS = {
    1: (0, 40.0, 3.0),
    2: (3, 30.0, 4.0),
    3: (6, 50.0, 2.5),
    4: (1, 35.0, 2.0),
    5: (5, 45.0, 3.5),
}


def fixed_epochs(epochs, **extra):
    return {"max_epochs": epochs, "patience_epochs": epochs + 1, **extra}


# Sizes per profile.  "full" is the benchmark; "tiny" keeps the self-test
# fast (smaller holds and batches, so its accuracy floor is 0).  The full
# floor, 0.3, is about twice chance (1/7).  ``redeploy`` fits the user again
# before every stream burst, for more samples of ``adapt_s``; it is off where
# one fit per pass already gives 3-5 fits per run.
PROFILES = {
    "scratch-convnets": {
        "full": dict(subjects=(1, 2, 3), hold=150, epochs={"spectrogram": 1, "raw-1d": 3},
                     batch=128, stream_min=1000, redeploy=False, floor=0.3, min_passes=3),
        "tiny": dict(subjects=(1, 2, 3), hold=72, epochs={"spectrogram": 1, "raw-1d": 1},
                     batch=32, stream_min=40, redeploy=False, floor=0.0, min_passes=2),
    },
    "feature-baselines": {
        "full": dict(subjects=(1, 2), hold=100, stream_min=1000, redeploy=True, floor=0.3,
                     min_passes=3),
        "tiny": dict(subjects=(1, 2), hold=60, stream_min=40, redeploy=True, floor=0.0,
                     min_passes=2),
    },
    "transfer-stream": {
        "full": dict(subjects=(1, 3, 2), pretrain_subjects=(4, 5), pretrain_hold=150, hold=150,
                     cycles=2, pretrain_epochs=5, epochs=3, batch=128, stream_min=1000,
                     redeploy=True, floor=0.3, min_passes=3),
        "tiny": dict(subjects=(1, 2), pretrain_subjects=(4, 5), pretrain_hold=72, hold=72,
                     cycles=2, pretrain_epochs=1, epochs=1, batch=16, stream_min=40,
                     redeploy=True, floor=0.0, min_passes=2),
    },
}


@dataclass
class PassResult:
    run_s: float
    adapt_s: list  # one fit of the deployed user per deployment
    cells: dict  # (model, subject, seed) or ("deploy", user, seed, burst) -> accuracy
    latencies_ms: list  # wall clock per streamed window
    cpu_ms: list  # CPU time of the calling thread per streamed window
    stream_mismatches: int
    dataset_hashes: list

    @property
    def accuracy(self) -> float:
        return float(np.mean(list(self.cells.values())))


def write_synthetic(root, subjects, hold, seed, rounds=3):
    synthetic.generate_synthetic_dataset(
        root,
        subjects=subjects,
        rounds=rounds,
        cycles=4,
        gestures=GESTURES,
        n_samples=hold,
        rotations={s: SUBJECTS[s][0] for s in subjects},
        amplitudes={s: SUBJECTS[s][1] for s in subjects},
        noises={s: SUBJECTS[s][2] for s in subjects},
        seed=seed,
    )


def _labels(windows):
    return np.array([w.label for w in windows], dtype=np.int64)


class Workload:
    name = ""

    def __init__(self, root: Path, seed: int, profile: str):
        self.root = Path(root)
        self.seed = seed
        self.p = PROFILES[self.name][profile]

    @property
    def protocol_subjects(self):
        return list(self.p["subjects"][:-1])

    @property
    def user(self):
        return self.p["subjects"][-1]

    def datasets(self):
        return [self.root / "eval"]

    def write_datasets(self):
        write_synthetic(self.root / "eval", self.p["subjects"], self.p["hold"], self.seed)

    def _user_split(self, cycles=4):
        recs = [r for r in dataset.load_dataset(self.root / "eval") if r.subject_id == self.user]
        return dataset.build_split(recs, "myo-eval", cycles=cycles)

    def _experiment(self, model, subjects, **kwargs):
        return harness.ExperimentConfig(
            protocol="myo-eval",
            model=model,
            dataset=str(self.root / "eval"),
            seeds=[self.seed],
            subjects=subjects,
            **kwargs,
        )

    def prepare(self):
        """Work the deployed user needs before adaptation (none by default)."""

    def run_pass(self) -> PassResult:
        """Deploy one user, then stream its windows in bursts between protocol steps.

        Spreading the stream over the whole pass samples its latency across
        the pass instead of in one burst.  With ``redeploy`` the user's
        classifier is fitted again before every burst, for more samples of a
        short fit.
        """
        started = time.perf_counter()
        self.prepare()
        steps = self.protocol_steps()
        adapt_s, cells, hashes = [], {}, []
        lat, cpu, mismatches = [], [], 0
        burst = -(-self.p["stream_min"] // (len(steps) + 1))
        for k in range(len(steps) + 1):
            if k == 0 or self.p["redeploy"]:
                t0 = time.perf_counter()
                classify_one, batch_pred, test, acc = self.deploy()
                adapt_s.append(time.perf_counter() - t0)
                cells[("deploy", self.user, self.seed, k)] = acc
            for i in range(burst):  # closed loop, one caller
                c = time.thread_time()
                t = time.perf_counter()
                pred = classify_one(test[i % len(test)])
                lat.append((time.perf_counter() - t) * 1e3)
                cpu.append((time.thread_time() - c) * 1e3)
                # every streamed prediction must equal the batched one
                mismatches += int(pred != batch_pred[i % len(test)])
            if k < len(steps):
                model, report = steps[k]()
                for subject, per_seed in report.accuracies.items():
                    for seed, value in zip(report.seeds, per_seed):
                        cells[(model, subject, seed)] = value
                hashes.append(report.dataset_hash)
        run_s = time.perf_counter() - started
        return PassResult(run_s, adapt_s, cells, lat, cpu, mismatches, hashes)


class ScratchConvnets(Workload):
    """spectrogram (3x3 convs) and raw-1d (1x5 convs) trained from scratch."""

    name = "scratch-convnets"
    deployed = "spectrogram"

    def train_cfg(self, model):
        return fixed_epochs(self.p["epochs"][model], batch_size=self.p["batch"])

    def protocol_steps(self):
        def step(model, subject):
            cfg = self._experiment(model, [subject], train=self.train_cfg(model))
            return model, harness.run_experiment(cfg)

        return [
            lambda m=model, s=subject: step(m, s)
            for model in ("spectrogram", "raw-1d")
            for subject in self.protocol_subjects
        ]

    def deploy(self):
        arch = self.deployed
        split = self._user_split()
        X = harness.transform_windows(split.train, arch)
        net = architectures.build_architecture(arch, num_classes=GESTURES, seed=self.seed)
        tc = harness.make_train_config(net.metadata, self.train_cfg(arch), self.seed)
        nn.train(net, X, _labels(split.train), tc)
        batch = net.predict(harness.transform_windows(split.test, arch))
        acc = float((batch == _labels(split.test)).mean())

        def classify_one(w):
            return net.predict(harness.transform_windows([w], arch))[0]

        return classify_one, batch, split.test, acc


class FeatureBaselines(Workload):
    """The four feature sets with LDA/KNN; dimensionality reduction on."""

    name = "feature-baselines"
    models = ("TD+lda", "EnhancedTD+lda", "NinaPro+knn", "SampEnPipeline+lda")
    deployed = "TD"

    def protocol_steps(self):
        return [
            lambda m=model: (
                m, harness.run_experiment(
                    self._experiment(m, self.protocol_subjects, dim_reduction=True))
            )
            for model in self.models
        ]

    def deploy(self):
        set_name = self.deployed
        split = self._user_split()
        y = _labels(split.train)
        F, _ = features.feature_matrix(split.train, set_name)
        proj = stats.lda_fit(F, y)
        model = stats.lda_fit(stats.lda_project(proj, F), y)
        F_te, _ = features.feature_matrix(split.test, set_name)
        batch = stats.lda_classify(model, stats.lda_project(proj, F_te))
        acc = float((batch == _labels(split.test)).mean())

        def classify_one(w):
            f, _ = features.feature_matrix([w], set_name)
            return stats.lda_classify(model, stats.lda_project(proj, f))[0]

        return classify_one, batch, split.test, acc


class TransferStream(Workload):
    """cwt source pre-trained on other subjects, batch-norm transfer to new users."""

    name = "transfer-stream"
    arch = "cwt"

    def datasets(self):
        return [self.root / "eval", self.root / "pretrain"]

    def write_datasets(self):
        super().write_datasets()
        write_synthetic(
            self.root / "pretrain", self.p["pretrain_subjects"], self.p["pretrain_hold"], self.seed,
            rounds=1,
        )

    def train_cfg(self, epochs):
        return fixed_epochs(epochs, batch_size=self.p["batch"])

    def prepare(self):
        pre_cfg = harness.ExperimentConfig(
            model=self.arch,
            dataset=str(self.root / "pretrain"),
            seeds=[self.seed],
            train=self.train_cfg(self.p["pretrain_epochs"]),
        )
        self.source = harness.pretrain_source(pre_cfg)
        harness.save_source_checkpoint(self.source, self.root / "source.json")

    def protocol_steps(self):
        def step(subject):
            cfg = self._experiment(
                self.arch,
                [subject],
                transfer=True,
                source_checkpoint=str(self.root / "source.json"),
                cycles=self.p["cycles"],
                train=self.train_cfg(self.p["epochs"]),
            )
            return self.arch + "+TL", harness.run_experiment(cfg)

        return [lambda s=subject: step(s) for subject in self.protocol_subjects]

    def deploy(self):
        arch, user, source = self.arch, self.user, self.source
        split = self._user_split(self.p["cycles"])
        profile = dataset.activation_profile_from_windows(split.train)
        shift = dataset.find_alignment(source.reference_profile, profile)
        train_w = [dataset.apply_shift(w, shift) for w in split.train]
        target = transfer.build_target(source, num_classes=GESTURES, seed=self.seed)
        tc = harness.make_train_config(
            target.network.metadata,
            {"dropout_rate": transfer.TARGET_DROPOUT, **self.train_cfg(self.p["epochs"])},
            self.seed,
        )
        X = harness.transform_windows(train_w, arch)
        transfer.train_target(target, X, _labels(train_w), user, tc)
        net = target.network
        test_w = [dataset.apply_shift(w, shift) for w in split.test]
        batch = net.predict(harness.transform_windows(test_w, arch), subject=user)
        acc = float((batch == _labels(split.test)).mean())

        def classify_one(w):
            x = harness.transform_windows([dataset.apply_shift(w, shift)], arch)
            return net.predict(x, subject=user)[0]

        return classify_one, batch, split.test, acc


WORKLOADS = {cls.name: cls for cls in (ScratchConvnets, FeatureBaselines, TransferStream)}
