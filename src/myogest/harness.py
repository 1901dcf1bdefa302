"""Experiment orchestration: protocol runners, session replay and reports.

A run trains one model per subject per seed under the selected protocol and
collects the test accuracies into a RunReport (JSON + CSV).  Deep models go
through the training loop with their published default learning rates;
feature-set baselines (optionally LDA-projected) are deterministic, so every
seed repeats the same value.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .augment import TECHNIQUES, AugmentationConfig, augment_dataset
from .architectures import ARCHITECTURES, build_architecture
from .dataset import (
    DatasetSplit,
    EmgRecording,
    activation_profile_from_windows,
    apply_shift,
    build_split,
    find_alignment,
    load_dataset,
    slice_windows,
    window_count,
    windows_to_arrays,
)
from .errors import ConfigError, DataError
from .features import FEATURE_SETS, FeatureConfig, feature_matrix
from .nn import TrainConfig, load_network, train
from .stats import friedman_holm, knn_classify, lda_classify, lda_fit, lda_project, wilcoxon_one_tail
from .timefreq import cwt_batch, spectrogram_batch
from .transfer import (
    PRETRAIN_DROPOUT,
    TARGET_DROPOUT,
    SourceNetwork,
    build_target,
    pretrain,
    train_target,
)

SPLIT_PROTOCOLS = ("myo-eval", "ninapro", "out-of-sample")  # one train/test split per subject
PROTOCOLS = SPLIT_PROTOCOLS + ("augmentation-ablation", "dim-reduction", "session-replay")
CLASSIFIERS = ("lda", "knn")


@dataclass
class ExperimentConfig:
    protocol: str = "myo-eval"
    model: str = "cwt"
    dataset: str = ""
    transfer: bool = False
    source_checkpoint: str = None
    cycles: int = 4
    repetitions: int = 4
    gesture_subset: list = None
    seeds: list = field(default_factory=lambda: [0, 1, 2])
    knn_k: int = 5
    dim_reduction: bool = True
    augmentation: dict = field(default_factory=dict)
    ablation_techniques: list = None
    train: dict = field(default_factory=dict)
    subjects: list = None
    stride: int = 5
    out_dir: str = None

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"unknown protocol '{self.protocol}'")
        if self.transfer and not self.source_checkpoint:
            raise ConfigError("transfer=true requires a source checkpoint path")
        if not self.seeds:
            raise ConfigError("at least one seed is required")


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


def dataset_content_hash(root) -> str:
    """SHA-256 over the manifest and every gesture file (sorted paths)."""
    root = Path(root)
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


INPUT_SCALE = 1.0 / 128.0  # armband samples are integers in [-128, 127]


def transform_windows(windows, architecture: str) -> np.ndarray:
    """Window list -> network input tensor for the given architecture.

    Samples are scaled to [-1, 1] by the fixed armband range first; a
    constant scale keeps transfer consistent across subjects and datasets.
    """
    X, _, _ = windows_to_arrays(windows)
    X = X * INPUT_SCALE
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
    kwargs = {
        "learning_rate": net_metadata.get("learning_rate_default", 0.002),
        "seed": seed,
    }
    kwargs.update(overrides or {})
    return TrainConfig(**kwargs)


def save_source_checkpoint(source: SourceNetwork, path):
    net = source.network
    net.metadata["pretrain_subjects"] = [int(s) for s in source.pretrain_subjects]
    if source.reference_profile is not None:
        net.metadata["reference_profile"] = np.asarray(source.reference_profile).tolist()
    net.save(path)
    return path


def load_source_checkpoint(path) -> SourceNetwork:
    net = load_network(path)
    profile = net.metadata.get("reference_profile")
    return SourceNetwork(
        network=net,
        pretrain_subjects=net.metadata.get("pretrain_subjects", []),
        reference_profile=None if profile is None else np.asarray(profile, dtype=float),
    )


def pretrain_source(cfg: ExperimentConfig) -> SourceNetwork:
    """Pre-train a shared source network on every subject of the dataset."""
    kind, spec = parse_model(cfg.model)
    if kind != "net":
        raise ConfigError("pre-training requires a network model, not a baseline")
    recordings, subjects = _grouped_recordings(cfg)
    windows = []
    for rec in recordings:
        windows.extend(slice_windows(rec, cfg.stride))
    reference = activation_profile_from_windows(windows)
    # each subject is aligned to the profile of all subjects pooled
    aligned = []
    for subj in subjects:
        subj_windows = [w for w in windows if w.subject_id == subj]
        profile = activation_profile_from_windows(subj_windows)
        shift = find_alignment(reference, profile)
        aligned.extend(apply_shift(w, shift) for w in subj_windows)
    num_classes = len({w.label for w in aligned})
    X = transform_windows(aligned, spec)
    _, y, subj_arr = windows_to_arrays(aligned)
    net = build_architecture(spec, num_classes=num_classes, seed=cfg.seeds[0])
    tc = make_train_config(
        net.metadata, {"dropout_rate": PRETRAIN_DROPOUT, **(cfg.train or {})}, cfg.seeds[0]
    )
    source = pretrain(net, X, y, subj_arr, tc)
    source.reference_profile = reference
    return source


def _label_mapping(windows):
    labels = sorted({w.label for w in windows})
    return {lab: i for i, lab in enumerate(labels)}


def _xy(windows, architecture, label_map):
    X = transform_windows(windows, architecture)
    y = np.array([label_map[w.label] for w in windows], dtype=np.int64)
    return X, y


def run_experiment(cfg: ExperimentConfig, models_dir=None) -> RunReport:
    """Run the configured protocol and return (and optionally save) its report.

    With ``models_dir`` the network scored at the first seed is saved per
    subject as ``model_s<subject>_seed<seed>.json``: the merged target
    network under transfer, the plain network otherwise.  Its metadata
    records ``subject``, ``channel_shift`` (the alignment shift applied to
    that subject's windows, 0 when none was), and the ``stride`` and
    ``gesture_subset`` the split was built with.
    """
    started = time.time()
    if models_dir is not None:
        if cfg.protocol not in SPLIT_PROTOCOLS or parse_model(cfg.model)[0] != "net":
            raise ConfigError(f"saving models needs a network model and one of {SPLIT_PROTOCOLS}")
        models_dir = Path(models_dir)
        models_dir.mkdir(parents=True, exist_ok=True)
    if cfg.protocol in SPLIT_PROTOCOLS:
        report = _run_protocol(cfg, models_dir)
    elif cfg.protocol == "augmentation-ablation":
        report = _run_ablation(cfg)
    elif cfg.protocol == "dim-reduction":
        report = _run_dim_reduction(cfg)
    else:
        raise ConfigError("session replay runs through run_session_replay / the replay command")
    report.wall_clock_s = time.time() - started
    if cfg.out_dir:
        report.save(cfg.out_dir)
    return report


def _grouped_recordings(cfg: ExperimentConfig):
    recordings = load_dataset(cfg.dataset)
    if cfg.subjects:
        recordings = [r for r in recordings if r.subject_id in set(cfg.subjects)]
    subjects = sorted({r.subject_id for r in recordings})
    if not subjects:
        raise DataError("dataset has no subjects after filtering")
    return recordings, subjects


def _report(cfg, method, subjects, accuracies, flags=(), columns=None) -> RunReport:
    """Build the run's report; mean and pooled std run over every subject x seed cell."""
    cells = np.array([accuracies[s] for s in subjects], dtype=float).ravel()
    return RunReport(
        config=asdict(cfg),
        method=method,
        subjects=subjects,
        seeds=list(cfg.seeds),
        accuracies=accuracies,
        mean=float(cells.mean()),
        pooled_std=float(cells.std(ddof=1)) if cells.size > 1 else 0.0,
        wall_clock_s=0.0,
        dataset_hash=dataset_content_hash(cfg.dataset),
        flags=list(flags),
        columns=columns or {},
    )


def _run_protocol(cfg: ExperimentConfig, models_dir) -> RunReport:
    kind, spec = parse_model(cfg.model)
    source = load_source_checkpoint(cfg.source_checkpoint) if cfg.transfer else None
    recordings, subjects = _grouped_recordings(cfg)
    flags = []
    accuracies = {}
    for subject in subjects:
        recs = [r for r in recordings if r.subject_id == subject]
        split = build_split(
            recs,
            cfg.protocol,
            cycles=cfg.cycles,
            repetitions=cfg.repetitions,
            gesture_subset=cfg.gesture_subset,
            stride=cfg.stride,
        )
        train_w, test_w = split.train, split.test
        shift = 0
        if cfg.transfer and source is not None and source.reference_profile is not None:
            profile = activation_profile_from_windows(
                train_w, expect_contiguous=cfg.gesture_subset is None
            )
            if profile.shape == source.reference_profile.shape:
                shift = find_alignment(source.reference_profile, profile).shift
                train_w = [apply_shift(w, shift) for w in train_w]
                test_w = [apply_shift(w, shift) for w in test_w]
            else:
                flags.append(f"subject {subject}: unaligned (gesture sets differ)")
        label_map = _label_mapping(train_w)
        num_classes = len(label_map)
        if kind == "baseline":
            acc = _baseline_accuracy(cfg, spec, train_w, test_w, label_map)
            accuracies[subject] = [acc for _ in cfg.seeds]
            continue
        X_tr, y_tr = _xy(train_w, spec, label_map)
        X_te, y_te = _xy(test_w, spec, label_map)
        per_seed = []
        for seed in cfg.seeds:
            if cfg.transfer:
                target = build_target(source, num_classes=num_classes, seed=seed)
                net = target.network
                tc = make_train_config(
                    net.metadata, {"dropout_rate": TARGET_DROPOUT, **(cfg.train or {})}, seed
                )
                train_target(target, X_tr, y_tr, subject=subject, cfg=tc)
            else:
                net = build_architecture(spec, num_classes=num_classes, seed=seed)
                tc = make_train_config(net.metadata, cfg.train, seed)
                train(net, X_tr, y_tr, tc)
            pred = net.predict(X_te, subject=subject if cfg.transfer else None)
            per_seed.append(float((pred == y_te).mean()))
            if models_dir is not None and seed == cfg.seeds[0]:
                net.metadata.update(
                    subject=int(subject),
                    channel_shift=int(shift),
                    stride=int(cfg.stride),
                    gesture_subset=cfg.gesture_subset,
                )
                net.save(models_dir / f"model_s{subject}_seed{seed}.json")
        accuracies[subject] = per_seed
    method = cfg.model + ("+TL" if cfg.transfer else "")
    return _report(cfg, method, subjects, accuracies, flags=flags)


def _baseline_accuracy(cfg, spec, train_w, test_w, label_map, dim_reduction=None):
    set_name, clf = spec
    fc = FeatureConfig()
    F_tr, _ = feature_matrix(train_w, set_name, fc)
    F_te, _ = feature_matrix(test_w, set_name, fc)
    y_tr = np.array([label_map[w.label] for w in train_w])
    y_te = np.array([label_map[w.label] for w in test_w])
    reduce = cfg.dim_reduction if dim_reduction is None else dim_reduction
    if reduce:
        proj = lda_fit(F_tr, y_tr)
        F_tr = lda_project(proj, F_tr)
        F_te = lda_project(proj, F_te)
    if clf == "lda":
        model = lda_fit(F_tr, y_tr)
        pred = lda_classify(model, F_te)
    else:
        pred = knn_classify(F_tr, y_tr, F_te, k=cfg.knn_k)
    return float((pred == y_te).mean())


def _run_ablation(cfg: ExperimentConfig) -> RunReport:
    """Augmentation comparison: train cycles 1-2 (augmented), validate on 3, test on 4.

    Baseline examples are non-overlapping windows (stride 52); every other
    technique doubles the training count per the multiplier contract.
    """
    kind, spec = parse_model(cfg.model)
    if kind != "net":
        raise ConfigError("the ablation protocol trains a network model")
    recordings, subjects = _grouped_recordings(cfg)
    techniques = cfg.ablation_techniques or list(TECHNIQUES)
    base_aug = dict(cfg.augmentation or {})
    base_aug.pop("technique", None)
    columns = {t: {} for t in techniques}
    for subject in subjects:
        recs = [r for r in recordings if r.subject_id == subject and r.round == 1]
        cyc = lambda c: [r for r in recs if r.cycle == c]
        if not (cyc(1) and cyc(2) and cyc(3) and cyc(4)):
            raise DataError(f"subject {subject}: ablation needs cycles 1-4 in round 1")
        base_train = [w for c in (1, 2) for r in cyc(c) for w in slice_windows(r, 52)]
        val_w = [w for r in cyc(3) for w in slice_windows(r, 52)]
        test_w = [w for r in cyc(4) for w in slice_windows(r, 52)]
        label_map = _label_mapping(base_train)
        split = DatasetSplit(train=base_train, test=test_w, subjects=[subject], cycles_used=2)
        X_val, y_val = _xy(val_w, spec, label_map)
        X_te, y_te = _xy(test_w, spec, label_map)
        for technique in techniques:
            aug_cfg = AugmentationConfig(technique=technique, **base_aug)
            augmented = augment_dataset(split, aug_cfg, recordings=recs)
            X_tr, y_tr = _xy(augmented.train, spec, label_map)
            per_seed = []
            for seed in cfg.seeds:
                net = build_architecture(spec, num_classes=len(label_map), seed=seed)
                tc = make_train_config(net.metadata, cfg.train, seed)
                train(net, X_tr, y_tr, tc, val=(X_val, y_val))
                pred = net.predict(X_te)
                per_seed.append(float((pred == y_te).mean()))
            columns[technique][subject] = per_seed
    # the headline accuracies use the production default (sliding-window)
    headline = "sliding-window" if "sliding-window" in techniques else techniques[0]
    return _report(cfg, f"{cfg.model}@{headline}", subjects, columns[headline], columns=columns)


def _run_dim_reduction(cfg: ExperimentConfig) -> RunReport:
    """Appendix-style comparison: the same baseline with and without projection."""
    kind, spec = parse_model(cfg.model)
    if kind != "baseline":
        raise ConfigError("dim-reduction protocol expects a '<feature-set>+<classifier>' model")
    recordings, subjects = _grouped_recordings(cfg)
    columns = {"with-reduction": {}, "without-reduction": {}}
    for subject in subjects:
        recs = [r for r in recordings if r.subject_id == subject]
        split = build_split(recs, "myo-eval", cycles=cfg.cycles, stride=cfg.stride)
        label_map = _label_mapping(split.train)
        for name, reduce in (("with-reduction", True), ("without-reduction", False)):
            acc = _baseline_accuracy(cfg, spec, split.train, split.test, label_map, reduce)
            columns[name][subject] = [acc for _ in cfg.seeds]
    return _report(
        cfg, f"{cfg.model}@with-reduction", subjects, columns["with-reduction"], columns=columns
    )


# ---------------------------------------------------------------------------
# Session replay


def read_session_file(path):
    """Rows of (timestamp, requested gesture, 8 samples) -> list of holds.

    A hold is a maximal run of consecutive rows with the same gesture.
    Returns (timestamps, labels, samples) per hold.
    """
    rows = np.loadtxt(path, delimiter=",", ndmin=2)
    if rows.shape[1] != 10:
        raise DataError(f"{path}: expected 10 columns (t, label, 8 samples)")
    holds = []
    start = 0
    for i in range(1, len(rows) + 1):
        if i == len(rows) or rows[i, 1] != rows[start, 1]:
            chunk = rows[start:i]
            holds.append(
                {
                    "t_start": float(chunk[0, 0]),
                    "label": int(chunk[0, 1]),
                    "samples": chunk[:, 2:].T,  # (8, T)
                }
            )
            start = i
    return holds


def run_session_replay(
    session_file,
    checkpoint_path,
    skip_first_second: bool = True,
    stride: int = 5,
    sample_rate: int = 200,
    out_path=None,
):
    """Classify a recorded session hold by hold; returns the accuracy timeline.

    The checkpoint's ``channel_shift`` is applied to every hold before it is
    windowed; a hold too short for one window gets NaN accuracy.
    """
    net = load_network(checkpoint_path)
    arch = net.metadata["architecture"]
    subject = net.metadata.get("subject")
    shift = net.metadata.get("channel_shift", 0)
    timeline = []
    for idx, hold in enumerate(read_session_file(session_file)):
        samples = hold["samples"]
        if skip_first_second:
            samples = samples[:, sample_rate:]
        entry = {
            "hold": idx,
            "t_start": hold["t_start"],
            "label": hold["label"],
            "n_windows": window_count(samples.shape[1], stride),
            "accuracy": float("nan"),
        }
        if entry["n_windows"]:
            rec = EmgRecording(
                subject_id=-1, round=0, cycle=0, gesture=hold["label"], samples=samples
            )
            windows = slice_windows(apply_shift(rec, shift), stride)
            pred = net.predict(transform_windows(windows, arch), subject=subject)
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


def emit_report(reports, out_dir=None, alpha=0.05):
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
                    alpha=alpha,
                )
                stats_out["wilcoxon"].append(
                    {
                        "comparison": f"{tl} > {name}",
                        "statistic": res.statistic,
                        "p_value": res.p_value,
                        "reject_h0": bool(res.reject_h0),
                        "n": res.n,
                    }
                )
    common = sorted(set.intersection(*(set(per_subject[m]) for m in methods)))
    if len(methods) >= 2 and len(common) >= 2:
        matrix = np.array([[per_subject[m][s] for m in methods] for s in common])
        fr = friedman_holm(matrix, alpha=alpha)
        stats_out["friedman"] = {
            "methods": methods,
            "mean_ranks": fr.mean_ranks.tolist(),
            "statistic": fr.statistic,
            "p_value": fr.p_value,
            "best": methods[fr.best_index],
            "comparisons": [
                {
                    "method": methods[j],
                    "z": z,
                    "raw_p": p,
                    "adjusted_p": ap,
                    "reject_h0": bool(rej),
                }
                for j, z, p, ap, rej in fr.comparisons
            ],
        }
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
