"""Command-line interface.

Subcommands: convert, extract, pretrain, train, evaluate, replay, report,
stats.  A JSON config file (--config) supplies ExperimentConfig fields; a
flag that is given overrides the file, and a field that neither sets keeps
ExperimentConfig's default.  ``train --save-models DIR`` saves, per
subject, the model scored at the first seed (the merged transfer network
under --transfer); its metadata records ``subject`` and ``channel_shift``,
which evaluate and replay apply, and the ``protocol``, ``cycles``,
``repetitions``, ``gesture_subset`` and ``stride`` that evaluate rebuilds
the test split with, so evaluate takes only --dataset and --checkpoint.
A checkpoint without those split keys is scored on the defaults
(myo-eval, 4 cycles, 4 repetitions, all gestures, stride 5).
Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.  The settings below are checked before any data is read.  A
checkpoint that cannot be read, names no architecture or records a split
that the table refuses exits 3, as does an input file that is missing or
malformed.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from .dataset import (
    DEFAULT_STRIDE,
    EmgRecording,
    load_dataset,
    read_rows,
    read_samples,
    save_recording,
    slice_windows,
    write_manifest,
)
from .errors import ConfigError, DataError, MyogestError, NumericalError
from .features import feature_matrix
from .harness import (
    ExperimentConfig,
    emit_report,
    evaluate_checkpoint,
    pretrain_source,
    run_experiment,
    run_report_from_json,
    run_session_replay,
    save_source_checkpoint,
)
from .settings import ROWS, check_keys, check_reads, help_text, rows
from .stats import friedman_holm, friedman_payload, wilcoxon_one_tail, wilcoxon_payload

__doc__ = (__doc__ or "") + "\n" + help_text()

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _json(text, what):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON ({exc})") from None


def _experiment_config(args, **flags) -> ExperimentConfig:
    """The --config file's settings, overridden by the subcommand's flags named after a
    setting, then by ``flags``, then by --seed; a flag that is not given overrides none."""
    payload = {}
    if args.config:
        try:
            text = Path(args.config).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config} ({exc})") from None
        payload.update(check_keys(ExperimentConfig, _json(text, args.config), "config"))
    given = {row.name: getattr(args, row.name, None) for row in rows("ExperimentConfig")}
    given.update(train=_json(args.train, "--train-overrides") if args.train else None, **flags)
    payload.update({k: v for k, v in given.items() if v is not None})
    if args.seed is not None:
        payload["seeds"] = [args.seed]
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
    out_path = Path(args.out or "features.csv")
    header = None
    rows = []
    for rec in recordings:
        windows = slice_windows(rec, args.stride)
        matrix, layout = feature_matrix(windows, args.feature_set)
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
    source = pretrain_source(_experiment_config(args))
    out = Path(args.out or "source_checkpoint.json")
    save_source_checkpoint(source, out)
    print(f"pre-trained on subjects {source.pretrain_subjects} -> {out}")
    return EXIT_OK


def cmd_train(args):
    report = run_experiment(_experiment_config(args, out_dir=args.out), models_dir=args.save_models)
    print(json.dumps({"method": report.method, "mean": report.mean, "pooled_std": report.pooled_std}))
    return EXIT_OK


def cmd_evaluate(args):
    print(json.dumps(evaluate_checkpoint(args.dataset, args.checkpoint)))
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
        try:
            reports.append(run_report_from_json(Path(path).read_text()))
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            raise DataError(f"{path}: not a readable run report "
                            f"({type(exc).__name__}: {exc})") from None
    result = emit_report(reports, out_dir=args.out)
    print(json.dumps(result["table"], indent=2))
    return EXIT_OK


def cmd_stats(args):
    table, header = _load_table(args.table)
    if args.test == "wilcoxon":
        cols = args.columns or header[:2]
        if len(cols) != 2:
            raise ConfigError("wilcoxon needs exactly two columns")
        missing = [c for c in cols if c not in header]
        if missing:
            raise ConfigError(f"columns {missing} not in the table header {header}")
        idx = [header.index(c) for c in cols]
        res = wilcoxon_one_tail(table[:, idx[0]], table[:, idx[1]])
        payload = {
            "test": "wilcoxon-one-tail",
            "alternative": f"{cols[0]} > {cols[1]}",
            **wilcoxon_payload(res),
            "method": res.method,
        }
    else:
        payload = {"test": "friedman+holm", **friedman_payload(friedman_holm(table), header)}
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return EXIT_OK


def _load_table(path):
    (first,), data = read_rows(path, "accuracy table", skip=1)
    header = first.strip().split(",")
    if len(header) != data.shape[1]:
        raise DataError(f"{path}: {len(header)} header names for {data.shape[1]} columns")
    if header[0].lower() in ("subject", "dataset", "id"):
        header = header[1:]
        data = data[:, 1:]
    return data, header


# ---------------------------------------------------------------------------


TRAIN_OVERRIDES_HELP = (f"JSON object of TrainConfig keys "
                        f"({', '.join(row.name for row in rows('TrainConfig'))}); see train.<key>")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="myogest", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
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
    p.add_argument("--stride", type=int, default=DEFAULT_STRIDE)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("pretrain", help="pre-train a shared source network")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model")
    p.add_argument("--train-overrides", dest="train", help=TRAIN_OVERRIDES_HELP)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train", help="run a training protocol end to end")
    p.add_argument("--dataset", required=True)
    for name in ("protocol", "model", "cycles", "repetitions"):
        p.add_argument(f"--{name}", type=ROWS[name].kind)
    p.add_argument("--transfer", action="store_true", default=None)
    p.add_argument("--source", dest="source_checkpoint", help="source checkpoint for --transfer")
    p.add_argument("--train-overrides", dest="train", help=TRAIN_OVERRIDES_HELP)
    p.add_argument(
        "--save-models",
        help="directory for the model scored at the first seed, one per subject; its "
        "metadata records subject, channel_shift, protocol, cycles, repetitions, "
        "gesture_subset and stride",
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "evaluate",
        help="score a saved model on the test split its metadata records (subject, "
        "channel_shift, protocol, cycles, repetitions, gesture_subset, stride)",
    )
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
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
        flags = {row.name: getattr(args, row.name[2:]) for row in rows("global")}
        check_reads(check_keys("global", flags, "command line"), args.command, args.command)
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
