"""Experiment orchestration: one cell runner for every protocol, session replay and reports.

A run scores its subjects one at a time, each through one or more cells
``(column, train, val, test, classes, shift, reduce)``: (inputs, labels) to
train on, to validate on (None holds out a random fraction of ``train``)
and to test on, the class count, the channel shift applied to the windows
and whether a baseline LDA-projects its features.  A split protocol gives
one cell in column None, aligned to the source under transfer;
``augmentation-ablation`` one per technique, sharing one validation and one
test set; ``dim-reduction`` a ``with-reduction`` and a ``without-reduction``
cell on the myo-eval split.  A network is trained per seed (a transfer
target, else from scratch at its published learning rate); a feature-set
baseline is deterministic, so it is scored once and every seed repeats it.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .augment import TECHNIQUES, augment_dataset
from .architectures import ARCHITECTURES, LEARNING_RATES, build_architecture
from .dataset import (
    NUM_CHANNELS,
    SAMPLE_RATE,
    WINDOW_LENGTH,
    EmgRecording,
    activation_profile_from_windows,
    apply_shift,
    build_split,
    check_gestures_trained,
    dataset_content_hash,  # re-exported: hashes a tree without loading it
    find_alignment,
    integer_samples,
    load_dataset,
    read_rows,
    slice_windows,
    window_count,
)
from .errors import ConfigError, DataError
from .features import FEATURE_SETS, feature_matrix
from .nn import TrainConfig, load_network, train
from .nn.layers import DEFAULT_SUBJECT
from .settings import SPLIT_KEYS, check_keys, check_run, check_split, config_class, is_int
from .stats import (
    friedman_holm,
    friedman_payload,
    knn_classify,
    lda_classify,
    lda_fit,
    lda_project,
    wilcoxon_one_tail,
    wilcoxon_payload,
)
from .timefreq import cwt_batch, spectrogram_batch
from .transfer import (
    PRETRAIN_DROPOUT,
    TARGET_DROPOUT,
    SourceNetwork,
    build_target,
    pretrain,
    train_target,
)

# protocols scored in named columns -> headline column (sliding-window: the production default)
HEADLINES = {"augmentation-ablation": "sliding-window", "dim-reduction": "with-reduction"}
CLASSIFIERS = ("lda", "knn")
ExperimentConfig = config_class("ExperimentConfig", __name__, "One run's settings (``settings.TABLE``).")


@dataclass
class RunReport:
    config: dict
    method: str
    subjects: list
    seeds: list
    accuracies: dict  # subject -> [per-seed accuracy]
    mean: float
    pooled_std: float
    wall_clock_s: float
    dataset_hash: str
    flags: list = field(default_factory=list)
    columns: dict = field(default_factory=dict)  # extra named columns (ablation etc.)

    def to_json(self) -> str:
        payload = asdict(self)
        return json.dumps(payload, indent=2, sort_keys=True)

    def save(self, out_dir, stem="report"):
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{stem}.json").write_text(self.to_json() + "\n")
        with open(out / f"{stem}_accuracy.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["subject"] + [f"seed_{s}" for s in self.seeds])
            for subj in self.subjects:
                writer.writerow([subj] + list(self.accuracies[subj]))
        return out / f"{stem}.json"


def run_report_from_json(payload) -> RunReport:
    if isinstance(payload, (str, bytes)):
        payload = json.loads(payload)
    payload = dict(payload)
    payload["accuracies"] = {int(k): v for k, v in payload["accuracies"].items()}
    payload["columns"] = {
        name: {int(k): v for k, v in col.items()} for name, col in payload.get("columns", {}).items()
    }
    return RunReport(**payload)


INPUT_SCALE = 1.0 / 128.0  # armband samples are integers in [-128, 127]


def transform_windows(windows, architecture: str) -> np.ndarray:
    """Window list -> network input tensor for the given architecture.

    Samples are scaled to [-1, 1] by the fixed armband range first; a
    constant scale keeps transfer consistent across subjects and datasets.
    """
    X = np.stack([w.data for w in windows], dtype=np.float64)
    X *= INPUT_SCALE
    if architecture == "spectrogram":
        return spectrogram_batch(X)
    if architecture == "cwt":
        return cwt_batch(X)
    if architecture in ("raw", "enhanced-raw"):
        return X[:, None, :, :]
    if architecture == "raw-1d":
        return X[:, :, None, :]
    raise ConfigError(f"unknown architecture '{architecture}'")


def parse_model(model: str):
    """'cwt' -> ('net', 'cwt'); 'TD+lda' -> ('baseline', ('TD', 'lda'))."""
    if model in ARCHITECTURES:
        return "net", model
    if "+" in model:
        set_name, clf = model.split("+", 1)
        matches = [s for s in FEATURE_SETS if s.lower() == set_name.lower()]
        if matches and clf.lower() in CLASSIFIERS:
            return "baseline", (matches[0], clf.lower())
    raise ConfigError(
        f"unknown model '{model}': use an architecture {sorted(ARCHITECTURES)} "
        f"or '<feature-set>+<lda|knn>' with sets {FEATURE_SETS}"
    )


def make_train_config(net_metadata: dict, overrides: dict, seed: int) -> TrainConfig:
    learning_rate = LEARNING_RATES[net_metadata["architecture"]]
    return TrainConfig(**{"learning_rate": learning_rate, "seed": seed, **(overrides or {})})


def save_source_checkpoint(source: SourceNetwork, path):
    net = source.network
    net.metadata["pretrain_subjects"] = [int(s) for s in source.pretrain_subjects]
    if source.reference_profile is not None:
        net.metadata["reference_profile"] = np.asarray(source.reference_profile).tolist()
    net.save(path)
    return path


def load_model_checkpoint(path):
    """A saved model, its architecture and the split (SPLIT_KEYS, a missing key at its
    default) it was scored on.  Metadata without an architecture, or whose split keys,
    ``subject`` (an int) or ``channel_shift`` (in [0, 8)) are refused, is a DataError."""
    net = load_network(path)
    md = net.metadata
    arch = md.get("architecture")
    if arch is None:
        raise DataError(f"{path}: checkpoint metadata has no 'architecture'")
    what = f"{path}: checkpoint metadata"
    recorded = {k: md[k] for k in SPLIT_KEYS if k in md}
    split = check_split(check_keys(ExperimentConfig, recorded, what, DataError), what, DataError)
    subject, shift = md.get("subject"), md.get("channel_shift", 0)
    if subject is not None and not is_int(subject):
        raise DataError(f"{what} key 'subject' must be an int, got {subject!r}")
    if not (is_int(shift) and 0 <= shift < NUM_CHANNELS):
        raise DataError(f"{what} key 'channel_shift' must be an int in [0, 8), got {shift!r}")
    return net, arch, split


def load_source_checkpoint(path) -> SourceNetwork:
    net = load_network(path)
    for node in net.nodes:
        # sources saved when building ran the network carry an unused unit bank
        if node.layer.kind == "batch-norm":
            node.layer.drop_bank(DEFAULT_SUBJECT)
    profile = net.metadata.get("reference_profile")
    return SourceNetwork(
        network=net,
        pretrain_subjects=net.metadata.get("pretrain_subjects", []),
        reference_profile=None if profile is None else np.asarray(profile, dtype=float),
    )


def pretrain_source(cfg: ExperimentConfig) -> SourceNetwork:
    """Pre-train a shared source network on every subject of the dataset at its first seed.

    A run that ``check_run`` refuses is a ConfigError, raised before any data is read.
    """
    kind, spec = parse_model(cfg.model)
    check_run(cfg, "pretrain", kind)
    recordings, subjects, _ = _grouped_recordings(cfg)
    windows = [w for rec in recordings for w in slice_windows(rec, cfg.stride)]
    reference = activation_profile_from_windows(windows)
    # each subject is aligned to the profile of all subjects pooled
    aligned = []
    for subj in subjects:
        shift, subj_windows, _ = _align(reference, [w for w in windows if w.subject_id == subj])
        if shift is None:
            raise DataError(f"subject {subj}: gesture set differs from the pooled dataset's")
        aligned.extend(subj_windows)
    num_classes = len({w.label for w in aligned})
    X = transform_windows(aligned, spec)
    y = np.array([w.label for w in aligned], dtype=np.int64)
    subj_arr = np.array([w.subject_id for w in aligned], dtype=np.int64)
    net = build_architecture(spec, num_classes=num_classes, seed=cfg.seeds[0])
    tc = make_train_config(
        net.metadata, {"dropout_rate": PRETRAIN_DROPOUT, **(cfg.train or {})}, cfg.seeds[0]
    )
    source = pretrain(net, X, y, subj_arr, tc)
    source.reference_profile = reference
    return source


def _align(reference, windows, held_out=(), expect_contiguous=True):
    """(shift, windows, held_out) aligned to profile ``reference``; shift None if labels differ."""
    profile = activation_profile_from_windows(windows, expect_contiguous)
    if profile.shape != reference.shape:
        return None, windows, held_out
    shift = find_alignment(reference, profile)
    return (shift, [apply_shift(w, shift) for w in windows],
            [apply_shift(w, shift) for w in held_out])


def _label_mapping(windows):
    labels = sorted({w.label for w in windows})
    return {lab: i for i, lab in enumerate(labels)}


def _xy(windows, spec, label_map):
    """Inputs and labels of ``windows``: a network's input tensor or a baseline's features."""
    y = np.array([label_map[w.label] for w in windows], dtype=np.int64)
    if isinstance(spec, tuple):
        return feature_matrix(windows, spec[0])[0], y
    return transform_windows(windows, spec), y


def _subject_split(recordings, subject, settings: dict):
    """``subject``'s split (every recording's when None) under the SPLIT_KEYS ``settings``."""
    if subject is not None:
        recordings = [r for r in recordings if r.subject_id == subject]
    if not recordings:
        raise DataError(f"dataset has no recordings of subject {subject}")
    return build_split(recordings, **settings)


def _predict(net, X, subject):
    """Predictions of ``net``; only a transfer model keeps per-subject batch-norm banks."""
    return net.predict(X, subject=subject if net.metadata.get("transfer") else None)


def _accuracy(net, X, y, subject) -> float:
    return float((_predict(net, X, subject) == y).mean())


def run_experiment(cfg: ExperimentConfig, models_dir=None) -> RunReport:
    """Run the configured protocol and return (and optionally save) its report.

    With ``models_dir`` the network scored at the first seed is saved per
    subject as ``model_s<subject>_seed<seed>.json``: the merged target
    network under transfer, the plain network otherwise.  Its metadata
    records ``subject``, ``channel_shift`` (the alignment shift applied to
    that subject's windows, 0 when none was), and the split it was scored
    on: ``protocol``, ``cycles``, ``repetitions``, ``gesture_subset`` and
    ``stride``.  ``evaluate_checkpoint`` rebuilds that split from them.
    A run that ``check_run`` refuses is a ConfigError, raised before any data is read.
    """
    started = time.time()
    kind, spec = parse_model(cfg.model)
    check_run(cfg, "train", kind, save_models=models_dir is not None)
    if models_dir is not None:
        models_dir = Path(models_dir)
        models_dir.mkdir(parents=True, exist_ok=True)
    source = load_source_checkpoint(cfg.source_checkpoint) if cfg.transfer else None
    recordings, subjects, dataset_hash = _grouped_recordings(cfg)
    columns, flags = {}, []
    for subject in subjects:
        for column, *cell in _cells(cfg, spec, recordings, subject, source, flags):
            columns.setdefault(column, {})[subject] = _score(cfg, spec, source, subject, *cell,
                                                             models_dir)
        del cell  # the next subject's arrays are built after this one's are released
    headline = HEADLINES.get(cfg.protocol)
    method = f"{cfg.model}@{headline}" if headline else cfg.model + ("+TL" if cfg.transfer else "")
    values = np.array([columns[headline][s] for s in subjects], dtype=float).ravel()
    report = RunReport(
        config=asdict(cfg),
        method=method,
        subjects=subjects,
        seeds=list(cfg.seeds),
        accuracies=columns[headline],
        mean=float(values.mean()),
        pooled_std=float(values.std(ddof=1)) if values.size > 1 else 0.0,
        wall_clock_s=time.time() - started,
        dataset_hash=dataset_hash,
        flags=flags,
        columns=columns if headline else {},
    )
    if cfg.out_dir:
        report.save(cfg.out_dir)
    return report


def _split_settings(cfg: ExperimentConfig) -> dict:
    """``cfg``'s ``build_split`` settings: dim-reduction scores the myo-eval split."""
    settings = {k: getattr(cfg, k) for k in SPLIT_KEYS}
    if cfg.protocol == "dim-reduction":
        settings["protocol"] = "myo-eval"
    return settings


def _grouped_recordings(cfg: ExperimentConfig):
    """The run's recordings, their sorted subjects and the content hash of the tree read."""
    recordings = load_dataset(cfg.dataset)
    present = {r.subject_id for r in recordings}
    missing = sorted(set(cfg.subjects or ()) - present)
    if missing:
        raise DataError(f"dataset has no recordings of subjects {missing}")
    subjects = sorted(set(cfg.subjects) if cfg.subjects else present)
    if not subjects:
        raise DataError("dataset has no recordings")
    kept = [r for r in recordings if r.subject_id in subjects]
    return kept, subjects, recordings.sha256


def _cells(cfg, spec, recordings, subject, source, flags):
    """Yield ``subject``'s cells (column, train, val, test, classes, shift, reduce).

    The augmentation ablation trains on cycles 1-2 of round 1, augmented by
    each technique, validates on cycle 3 and tests on cycle 4.  Its baseline
    examples are non-overlapping windows (stride WINDOW_LENGTH); every other
    technique doubles the training count per the multiplier contract.
    """
    if cfg.protocol == "augmentation-ablation":
        recs = [r for r in recordings if r.subject_id == subject and r.round == 1]
        cycles = [[r for r in recs if r.cycle == c] for c in (1, 2, 3, 4)]
        if not all(cycles):
            raise DataError(f"subject {subject}: ablation needs cycles 1-4 in round 1")
        base_train, val_w, test_w = (
            [w for r in group for w in slice_windows(r, WINDOW_LENGTH)]
            for group in (cycles[0] + cycles[1], cycles[2], cycles[3])
        )
        check_gestures_trained(base_train, val_w, "validation")
        check_gestures_trained(base_train, test_w, "test")
        label_map = _label_mapping(base_train)
        val, test = _xy(val_w, spec, label_map), _xy(test_w, spec, label_map)
        for technique in TECHNIQUES:
            train_set = _xy(augment_dataset(base_train, technique, recs), spec, label_map)
            yield technique, train_set, val, test, len(label_map), 0, None
        return
    split = _subject_split(recordings, subject, _split_settings(cfg))
    shift, train_w, test_w = 0, split.train, split.test
    if source is not None and source.reference_profile is not None:
        shift, train_w, test_w = _align(source.reference_profile, train_w, test_w,
                                        expect_contiguous=cfg.gesture_subset is None)
        if shift is None:
            flags.append(f"subject {subject}: unaligned (gesture sets differ)")
            shift = 0
    label_map = _label_mapping(train_w)
    train_set, test = _xy(train_w, spec, label_map), _xy(test_w, spec, label_map)
    if cfg.protocol == "dim-reduction":
        yield "with-reduction", train_set, None, test, len(label_map), shift, True
        yield "without-reduction", train_set, None, test, len(label_map), shift, False
    else:
        yield None, train_set, None, test, len(label_map), shift, cfg.dim_reduction


def _score(cfg, spec, source, subject, train_set, val, test, classes, shift, reduce, models_dir):
    """A cell's test accuracy per seed; a baseline is scored once and every seed repeats it."""
    if isinstance(spec, tuple):
        return [_baseline_accuracy(spec[1], train_set, test, reduce)] * len(cfg.seeds)
    per_seed = []
    for seed in cfg.seeds:
        net = _fit(cfg, spec, source, train_set, val, subject, classes, seed)
        per_seed.append(_accuracy(net, *test, subject))
        if models_dir is not None and seed == cfg.seeds[0]:
            net.metadata.update(_split_settings(cfg), subject=int(subject), channel_shift=int(shift))
            net.save(models_dir / f"model_s{subject}_seed{seed}.json")
    return per_seed


def _fit(cfg, spec, source, train_set, val, subject, classes, seed):
    """A network trained at ``seed``: a transfer target of ``source``, else one from scratch."""
    if source is not None:
        target = build_target(source, num_classes=classes, seed=seed)
        overrides = {"dropout_rate": TARGET_DROPOUT, **(cfg.train or {})}
        tc = make_train_config(target.network.metadata, overrides, seed)
        train_target(target, *train_set, subject=subject, cfg=tc)
        return target.network
    net = build_architecture(spec, num_classes=classes, seed=seed)
    train(net, *train_set, make_train_config(net.metadata, cfg.train, seed), val=val)
    return net


def _baseline_accuracy(clf, train_set, test, reduce) -> float:
    """Accuracy of classifier ``clf`` on feature matrices, LDA-projected first when ``reduce``."""
    (F_tr, y_tr), (F_te, y_te) = train_set, test
    if reduce:
        proj = lda_fit(F_tr, y_tr)
        F_tr, F_te = lda_project(proj, F_tr), lda_project(proj, F_te)
    if clf == "lda":
        return float((lda_classify(lda_fit(F_tr, y_tr), F_te) == y_te).mean())
    return float((knn_classify(F_tr, y_tr, F_te) == y_te).mean())


def evaluate_checkpoint(dataset, checkpoint_path) -> dict:
    """Score a model saved by ``run_experiment`` on the split it was scored on.

    The split, subject and channel shift come from the checkpoint's metadata,
    as ``load_model_checkpoint`` checks them before the dataset is read.
    """
    net, arch, settings = load_model_checkpoint(checkpoint_path)
    md = net.metadata
    subject = md.get("subject")
    split = _subject_split(load_dataset(dataset), subject, settings)
    test_w = [apply_shift(w, md.get("channel_shift", 0)) for w in split.test]
    X_te, y_te = _xy(test_w, arch, _label_mapping(split.train))
    acc = _accuracy(net, X_te, y_te, subject)
    return {"subject": subject, "test_accuracy": acc, "n_windows": len(y_te)}

# ---------------------------------------------------------------------------
# Session replay


def read_session_file(path):
    """Rows of (timestamp, requested gesture, 8 samples) -> list of holds.

    A hold is a maximal run of consecutive rows with the same gesture.
    Returns (timestamps, labels, samples) per hold.  Samples are checked as
    a gesture file's are (``integer_samples``), and a label that is not an
    integer is a DataError naming ``path``.
    """
    _, rows = read_rows(path, "session file")
    if rows.shape[1] != 10:
        raise DataError(f"{path}: expected 10 columns (t, label, 8 samples)")
    labels = rows[:, 1]
    if not np.all(np.isfinite(labels) & (labels == np.rint(labels))):
        raise DataError(f"{path}: non-integer gesture labels")
    samples = integer_samples(path, rows[:, 2:])
    holds = []
    start = 0
    for i in range(1, len(rows) + 1):
        if i == len(rows) or labels[i] != labels[start]:
            holds.append(
                {
                    "t_start": float(rows[start, 0]),
                    "label": int(labels[start]),
                    "samples": samples[start:i].T,  # (8, T)
                }
            )
            start = i
    return holds


def run_session_replay(session_file, checkpoint_path, skip_first_second=True, out_path=None):
    """Classify a recorded session hold by hold; returns the accuracy timeline.

    The checkpoint's ``channel_shift`` is applied to every hold before it is
    windowed at ``DEFAULT_STRIDE``; ``skip_first_second`` drops each hold's
    first ``SAMPLE_RATE`` samples; a hold too short for one window gets NaN
    accuracy.  Only a transfer model is run with the checkpoint's ``subject``.
    """
    net, arch, _ = load_model_checkpoint(checkpoint_path)
    subject = net.metadata.get("subject")
    shift = net.metadata.get("channel_shift", 0)
    timeline = []
    for idx, hold in enumerate(read_session_file(session_file)):
        samples = hold["samples"]
        if skip_first_second:
            samples = samples[:, SAMPLE_RATE:]
        entry = {
            "hold": idx,
            "t_start": hold["t_start"],
            "label": hold["label"],
            "n_windows": window_count(samples.shape[1]),
            "accuracy": float("nan"),
        }
        if entry["n_windows"]:
            rec = EmgRecording(
                subject_id=-1, round=0, cycle=0, gesture=hold["label"], samples=samples
            )
            windows = slice_windows(apply_shift(rec, shift))
            pred = _predict(net, transform_windows(windows, arch), subject)
            entry["accuracy"] = int((pred == hold["label"]).sum()) / len(windows)
        timeline.append(entry)
    if out_path:
        with open(out_path, "w", newline="") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["hold", "t_start", "label", "n_windows", "accuracy"]
            )
            writer.writeheader()
            writer.writerows(timeline)
    return timeline


# ---------------------------------------------------------------------------
# Report aggregation


def emit_report(reports, out_dir=None):
    """Aggregate RunReports into method comparison tables plus statistics.

    Wilcoxon (one-tail) compares each method against its '+TL' variant over
    per-subject mean accuracies; Friedman + Holm ranks all methods when at
    least three are present on common subjects.
    """
    if not reports:
        raise ConfigError("no reports to aggregate")
    methods = [r.method for r in reports]
    if len(set(methods)) != len(methods):
        methods = [f"{r.method}#{i}" for i, r in enumerate(reports)]
    per_subject = {}
    for name, rep in zip(methods, reports):
        per_subject[name] = {s: float(np.mean(rep.accuracies[s])) for s in rep.subjects}

    table_rows = [
        {
            "method": name,
            "mean": float(np.mean(list(per_subject[name].values()))),
            "pooled_std": rep.pooled_std,
            "subjects": len(rep.subjects),
        }
        for name, rep in zip(methods, reports)
    ]

    stats_out = {"wilcoxon": [], "friedman": None}
    for name in methods:
        tl = name + "+TL"
        if tl in per_subject:
            common = sorted(set(per_subject[name]) & set(per_subject[tl]))
            if len(common) >= 5:
                res = wilcoxon_one_tail(
                    [per_subject[tl][s] for s in common],
                    [per_subject[name][s] for s in common],
                )
                stats_out["wilcoxon"].append(
                    {"comparison": f"{tl} > {name}", **wilcoxon_payload(res)}
                )
    common = sorted(set.intersection(*(set(per_subject[m]) for m in methods)))
    if len(methods) >= 2 and len(common) >= 2:
        matrix = np.array([[per_subject[m][s] for m in methods] for s in common])
        stats_out["friedman"] = friedman_payload(friedman_holm(matrix), methods)
    result = {"table": table_rows, "stats": stats_out}
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "comparison.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        with open(out / "comparison.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["method", "mean", "pooled_std", "subjects"])
            writer.writeheader()
            writer.writerows(table_rows)
    return result
