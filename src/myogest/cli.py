"""Command-line interface.

Subcommands: convert, extract, pretrain, train, evaluate, replay, report,
stats.  A JSON config file (--config) supplies ExperimentConfig fields;
explicit flags override it.  ``train --save-models DIR`` saves, per subject,
the model scored at the first seed (the merged transfer network under
--transfer); its metadata records ``subject`` and ``channel_shift``, which
evaluate and replay apply, and the ``stride`` and ``gesture_subset`` that
evaluate rebuilds the test split with.  Exit codes: 0 success, 2
configuration error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import harness
from .dataset import (
    DEFAULT_STRIDE,
    EmgRecording,
    apply_shift,
    build_split,
    load_dataset,
    read_samples,
    save_recording,
    slice_windows,
    write_manifest,
)
from .errors import ConfigError, DataError, MyogestError, NumericalError
from .features import FeatureConfig, feature_matrix
from .harness import (
    ExperimentConfig,
    emit_report,
    pretrain_source,
    run_experiment,
    run_report_from_json,
    run_session_replay,
    save_source_checkpoint,
)
from .nn import load_network
from .stats import friedman_holm, wilcoxon_one_tail

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _experiment_config(args, **overrides) -> ExperimentConfig:
    payload = {}
    if args.config:
        with open(args.config) as fh:
            payload.update(json.load(fh))
    payload.update({k: v for k, v in overrides.items() if v is not None})
    if args.seed is not None:
        payload["seeds"] = [args.seed]
    if args.out:
        payload["out_dir"] = args.out
    return ExperimentConfig(**payload)


# ---------------------------------------------------------------------------
# convert

# format -> (glob over the input directory, file-path pattern, what a match looks like)
_LAYOUTS = {
    "csv-tree": (
        "**/*",
        re.compile(r"subject_(\d+)/round_(\d+)/cycle_(\d+)/gesture_(\d+)\.(csv|txt)$"),
        "gesture files matching the csv-tree layout",
    ),
    "flat": (
        "*",
        re.compile(r"s(\d+)_r(\d+)_c(\d+)_g(\d+)\.(csv|txt)$"),
        "files named s<k>_r<r>_c<c>_g<g>.csv/.txt",
    ),
}


def cmd_convert(args):
    src = Path(args.input)
    if not src.is_dir():
        raise DataError(f"input directory not found: {src}")
    glob, pattern, expected = _LAYOUTS[args.format]
    files = sorted(p for p in src.glob(glob) if pattern.search(p.as_posix()))
    if not files:
        raise DataError(f"{src}: no {expected}")
    converted = []
    for path in files:
        m = pattern.search(path.as_posix())
        subject, rnd, cycle, gesture = (int(g) for g in m.groups()[:4])
        converted.append(EmgRecording(subject, rnd, cycle, gesture, read_samples(path)))
    out = Path(args.out or "converted")
    gestures = sorted({rec.gesture for rec in converted})
    write_manifest(out, [f"gesture_{g}" for g in gestures], schema=args.schema)
    for rec in converted:
        save_recording(out, rec)
    print(f"converted {len(converted)} recordings -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# extract


def cmd_extract(args):
    recordings = load_dataset(args.dataset)
    if not recordings:
        raise DataError(f"{args.dataset}: empty dataset")
    cfg = FeatureConfig()
    out_path = Path(args.out or "features.csv")
    header = None
    rows = []
    for rec in recordings:
        windows = slice_windows(rec, args.stride)
        matrix, layout = feature_matrix(windows, args.feature_set, cfg)
        if header is None:
            header = ["subject", "round", "cycle", "label", "offset"] + [
                f"{name}_ch{ch}_{i}" for name, ch, i in layout
            ]
        for w, values in zip(windows, matrix):
            rows.append([w.subject_id, w.round, w.cycle, w.label, w.offset] + values.tolist())
    with open(out_path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    print(f"wrote {len(rows)} feature rows -> {out_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# pretrain / train / evaluate


def cmd_pretrain(args):
    cfg = _experiment_config(
        args,
        dataset=args.dataset,
        model=args.model,
        protocol="myo-eval",
        train=json.loads(args.train_overrides) if args.train_overrides else None,
    )
    source = pretrain_source(cfg)
    out = Path(args.out or "source_checkpoint.json")
    save_source_checkpoint(source, out)
    print(f"pre-trained on subjects {source.pretrain_subjects} -> {out}")
    return EXIT_OK


def cmd_train(args):
    cfg = _experiment_config(
        args,
        dataset=args.dataset,
        model=args.model,
        protocol=args.protocol,
        transfer=args.transfer or None,
        source_checkpoint=args.source,
        cycles=args.cycles,
        repetitions=args.repetitions,
        train=json.loads(args.train_overrides) if args.train_overrides else None,
    )
    report = run_experiment(cfg, models_dir=args.save_models)
    print(json.dumps({"method": report.method, "mean": report.mean, "pooled_std": report.pooled_std}))
    return EXIT_OK


def cmd_evaluate(args):
    net = load_network(args.checkpoint)
    arch = net.metadata["architecture"]
    subject = net.metadata.get("subject")
    recordings = load_dataset(args.dataset)
    if subject is not None:
        recordings = [r for r in recordings if r.subject_id == subject]
    if not recordings:
        raise DataError("no recordings for the checkpoint's subject")
    # checkpoints saved before the split settings were recorded used the defaults
    split = build_split(
        recordings,
        args.protocol,
        cycles=args.cycles,
        repetitions=args.repetitions,
        gesture_subset=net.metadata.get("gesture_subset"),
        stride=net.metadata.get("stride", DEFAULT_STRIDE),
    )
    label_map = harness._label_mapping(split.train)
    shift = net.metadata.get("channel_shift", 0)
    test_w = [apply_shift(w, shift) for w in split.test]
    X_te, y_te = harness._xy(test_w, arch, label_map)
    pred = net.predict(X_te, subject=subject)
    acc = float((pred == y_te).mean())
    print(json.dumps({"subject": subject, "test_accuracy": acc, "n_windows": len(y_te)}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# replay / report / stats


def cmd_replay(args):
    timeline = run_session_replay(
        args.session,
        args.checkpoint,
        skip_first_second=not args.include_first_second,
        out_path=args.out,
    )
    accs = [h["accuracy"] for h in timeline if h["n_windows"] > 0]
    print(
        json.dumps(
            {"holds": len(timeline), "mean_accuracy": float(np.mean(accs)) if accs else None}
        )
    )
    return EXIT_OK


def cmd_report(args):
    reports = []
    for path in args.inputs:
        with open(path) as fh:
            reports.append(run_report_from_json(fh.read()))
    result = emit_report(reports, out_dir=args.out)
    print(json.dumps(result["table"], indent=2))
    return EXIT_OK


def cmd_stats(args):
    table, header = _load_table(args.table)
    if args.test == "wilcoxon":
        cols = args.columns or header[:2]
        if len(cols) != 2:
            raise ConfigError("wilcoxon needs exactly two columns")
        idx = [header.index(c) for c in cols]
        res = wilcoxon_one_tail(table[:, idx[0]], table[:, idx[1]])
        payload = {
            "test": "wilcoxon-one-tail",
            "alternative": f"{cols[0]} > {cols[1]}",
            "statistic": res.statistic,
            "p_value": res.p_value,
            "reject_h0": bool(res.reject_h0),
            "n": res.n,
            "method": res.method,
        }
    else:
        res = friedman_holm(table)
        payload = {
            "test": "friedman+holm",
            "methods": header,
            "mean_ranks": res.mean_ranks.tolist(),
            "statistic": res.statistic,
            "p_value": res.p_value,
            "best": header[res.best_index],
            "comparisons": [
                {"method": header[j], "z": z, "raw_p": p, "adjusted_p": ap, "reject_h0": bool(r)}
                for j, z, p, ap, r in res.comparisons
            ],
        }
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return EXIT_OK


def _load_table(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if header and header[0].lower() in ("subject", "dataset", "id"):
        header = header[1:]
        data = data[:, 1:]
    return data, header


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="myogest", description=__doc__)
    parser.add_argument("--config", help="JSON file with experiment configuration")
    parser.add_argument("--seed", type=int, help="single seed shortcut")
    parser.add_argument("--out", help="output file or directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert raw exports to the canonical layout")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("csv-tree", "flat"), default="csv-tree")
    p.add_argument("--schema", choices=("myo", "ninapro-converted"), default="myo")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("extract", help="emit a feature matrix CSV")
    p.add_argument("--dataset", required=True)
    p.add_argument("--feature-set", default="TD")
    p.add_argument("--stride", type=int, default=5)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("pretrain", help="pre-train a shared source network")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", default="cwt")
    p.add_argument("--train-overrides", help="JSON dict of TrainConfig overrides")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train", help="run a training protocol end to end")
    p.add_argument("--dataset", required=True)
    p.add_argument("--protocol", default="myo-eval")
    p.add_argument("--model", default="cwt")
    p.add_argument("--transfer", action="store_true")
    p.add_argument("--source", help="source checkpoint for --transfer")
    p.add_argument("--cycles", type=int, default=4)
    p.add_argument("--repetitions", type=int, default=4)
    p.add_argument("--train-overrides", help="JSON dict of TrainConfig overrides")
    p.add_argument(
        "--save-models",
        help="directory for the model scored at the first seed, one per subject, "
        "with subject and channel_shift metadata",
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a saved model checkpoint")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--protocol", default="myo-eval")
    p.add_argument("--cycles", type=int, default=4)
    p.add_argument("--repetitions", type=int, default=4)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("replay", help="replay a recorded session against a model")
    p.add_argument("--session", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--include-first-second", action="store_true")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("report", help="aggregate run reports into comparison tables")
    p.add_argument("--inputs", nargs="+", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("stats", help="run statistical tests on an accuracy table")
    p.add_argument("--table", required=True, help="CSV with a method-name header row")
    p.add_argument("--test", choices=("wilcoxon", "friedman"), default="wilcoxon")
    p.add_argument("--columns", nargs="*")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MyogestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
