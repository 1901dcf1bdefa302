"""Every setting a run can be given, declared once in ``TABLE``, and its checker.

A row is an ``ExperimentConfig`` field, a ``TrainConfig`` field (a run's
``train`` object) or a global flag: its owner, kind, range (``rule``) and
default, and the runs that read it: subcommands and, under ``train``,
protocols and model kinds (``net``, ``baseline``, or ``transfer`` for a
network under transfer).  An int passes as a float and a bool as neither;
null passes only where the default is null.  A range is a tuple of choices,
``>= a`` or ``in`` an interval such as ``[0, 1)``; NaN is in none, and a
list needs a value, each in range.
"""

from __future__ import annotations

import copy
import json
import numbers
from collections import namedtuple
from dataclasses import make_dataclass

from .errors import ConfigError

COMMANDS = ("convert", "extract", "pretrain", "train", "evaluate", "replay", "report", "stats")
SPLIT_PROTOCOLS = ("myo-eval", "ninapro", "out-of-sample")  # one train/test split per subject
PROTOCOLS = SPLIT_PROTOCOLS + ("augmentation-ablation", "dim-reduction")
# the ExperimentConfig fields build_split takes; a saved model records them
SPLIT_KEYS = ("protocol", "cycles", "repetitions", "gesture_subset", "stride")
DEFAULT_STRIDE = 5  # samples between window starts: 25 ms at 200 Hz
NET, BASELINE, TRANSFER = "net", "baseline", "transfer"
RUNS = ("pretrain", "train")
Setting = namedtuple("Setting", "name owner kind default rule commands protocols kinds",
                     defaults=(None, None, RUNS, PROTOCOLS, (NET, BASELINE)))

_E, _T, _TRAIN = "ExperimentConfig", "TrainConfig", ("train",)
TABLE = (
    Setting("protocol", _E, str, "myo-eval", PROTOCOLS, _TRAIN),
    Setting("model", _E, str, "cwt"),
    Setting("dataset", _E, str, ""),
    Setting("transfer", _E, bool, False, None, _TRAIN, SPLIT_PROTOCOLS, (NET,)),
    Setting("source_checkpoint", _E, str, None, None, _TRAIN, SPLIT_PROTOCOLS, (TRANSFER,)),
    Setting("cycles", _E, int, 4, "in [1, 4]", _TRAIN, ("myo-eval", "dim-reduction")),
    Setting("repetitions", _E, int, 4, "in [1, 4]", _TRAIN, ("ninapro", "out-of-sample")),
    Setting("gesture_subset", _E, list, None, None, _TRAIN, ("ninapro", "out-of-sample")),
    Setting("seeds", _E, list, [0, 1, 2], ">= 0"),  # pre-training reads one
    Setting("dim_reduction", _E, bool, True, None, _TRAIN, SPLIT_PROTOCOLS, (BASELINE,)),
    # accepted with a baseline, so that one object serves every model of a comparison
    Setting("train", _E, dict, {}),
    Setting("subjects", _E, list, None),
    Setting("stride", _E, int, DEFAULT_STRIDE, ">= 1", RUNS, SPLIT_PROTOCOLS + ("dim-reduction",)),
    Setting("out_dir", _E, str, None, None, _TRAIN),
    Setting("learning_rate", _T, float, 0.002, "in (0, inf)", kinds=(NET,)),
    Setting("batch_size", _T, int, 128, ">= 2", kinds=(NET,)),  # batch-norm needs two windows
    Setting("dropout_rate", _T, float, 0.5, "in [0, 1)", kinds=(NET,)),
    Setting("patience_epochs", _T, int, 5, ">= 1", kinds=(NET,)),
    Setting("max_epochs", _T, int, 100, ">= 0", kinds=(NET,)),
    Setting("seed", _T, int, 0, ">= 0", kinds=(NET,)),
    Setting("--config", "global", str),
    Setting("--seed", "global", int, None, ">= 0"),
    Setting("--out", "global", str, None, None, tuple(c for c in COMMANDS if c != "evaluate")),
)
ROWS = {row.name: row for row in TABLE}


def rows(owner: str) -> list:
    return [row for row in TABLE if row.owner == owner]


def is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


_KINDS = {  # kind -> (what a value must be, its test)
    bool: ("true or false", lambda v: isinstance(v, bool)),
    int: ("an int", is_int),
    float: ("a number", lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    dict: ("a JSON object", lambda v: isinstance(v, dict)),
    list: ("a list of ints", lambda v: isinstance(v, list) and all(map(is_int, v))),
}


def _within(value, rule: str) -> bool:
    if rule.startswith(">= "):
        return value >= float(rule[3:])
    lo, hi = map(float, rule[4:-1].split(","))  # "in [lo, hi)", say
    return (lo < value if rule[3] == "(" else lo <= value) and (value < hi if rule[-1] == ")" else value <= hi)


def _check_range(row, value, what, error):
    if row.kind is list and not value:
        raise error(f"{what}: {row.name} must hold at least one value")
    for v in value if row.kind is list else [value]:
        if isinstance(row.rule, tuple) and v not in row.rule:
            raise error(f"{what}: unknown {row.name} {v!r}; one of {', '.join(row.rule)}")
        if isinstance(row.rule, str) and not _within(v, row.rule):
            raise error(f"{what}: {row.name} must be {row.rule}, got {v!r}")


def check_keys(owner, payload, what: str, error=ConfigError) -> dict:
    """``payload`` if it is a dict of settings of ``owner`` (a config class, its name or
    "global"), each of its kind and in range (a ``train`` object's too), else ``error``."""
    if not isinstance(payload, dict):
        raise error(f"{what} must be a JSON object, got {type(payload).__name__}")
    owned = {row.name: row for row in rows(getattr(owner, "__name__", owner))}
    unknown = sorted(set(payload) - set(owned))
    if unknown:
        raise error(f"unknown {what} key(s) {unknown}; accepted: {list(owned)}")
    for key, value in payload.items():
        row = owned[key]
        name, accepts = _KINDS[row.kind]
        if value is None and row.default is None:
            continue
        if not accepts(value):
            raise error(f"{what} key '{key}' must be {name}, got {value!r}")
        if row.kind is dict:
            check_keys(_T, value, _T, error)
        _check_range(row, value, what, error)
    return payload


def config_class(owner: str, module: str, doc: str):
    """A dataclass of ``owner``'s settings built from keywords that ``check_keys`` accepts:
    one not given takes a copy of its default, and ``given`` names those given."""
    def __init__(self, **given):
        check_keys(owner, given, owner)
        for row in rows(owner):
            setattr(self, row.name, given[row.name] if row.name in given else copy.copy(row.default))
        self.given = frozenset(given)

    cls = make_dataclass(owner, [(row.name, row.kind) for row in rows(owner)], init=False,
                         namespace={"__init__": __init__, "__doc__": doc})
    cls.__module__ = module  # so that pickle finds the class where it is bound
    return cls


def check_split(settings, what: str, error=ConfigError) -> dict:
    """The SPLIT_KEYS of mapping ``settings`` (a missing one at its default), else ``error``
    if no split can be built from them; their kinds are not checked."""
    split = {k: settings.get(k, ROWS[k].default) for k in SPLIT_KEYS}
    if split["protocol"] not in SPLIT_PROTOCOLS:
        raise error(f"{what} key 'protocol' must be one of {SPLIT_PROTOCOLS}, got {split['protocol']!r}")
    for key in ("cycles", "repetitions", "stride"):
        _check_range(ROWS[key], split[key], what, error)
    if split["protocol"] == "out-of-sample" and split["gesture_subset"] is None:
        raise error(f"{what}: out-of-sample protocol requires a gesture subset")
    return split


def check_reads(values: dict, run: str, command: str, protocol=None, kinds=None):
    """ConfigError naming a value of ``values`` (name -> value) other than its default that
    ``run`` never reads: first by command, then by ``protocol``, then by model ``kinds``."""
    unread = []
    for name, value in values.items():
        row = ROWS[name]
        if value == row.default:
            continue
        if command not in row.commands:
            unread.append((0, name, ""))
        elif protocol is not None and protocol not in row.protocols:
            unread.append((1, name, f": {name} is for {' and '.join(row.protocols)}, not {protocol}"))
        elif kinds is not None and not set(kinds) & set(row.kinds):
            unread.append((2, name, f": {name} is read only with a {' or '.join(row.kinds)} model"))
    if unread:
        _, name, reason = min(unread, key=lambda u: u[0])
        raise ConfigError(f"{run} never reads {name}, so {values[name]!r} would be ignored{reason}")


def check_run(cfg, command: str, kind: str, save_models: bool = False):
    """ConfigError for a train or pretrain run of ``cfg`` with a ``kind`` model that
    never reads a setting it was given or breaks a rule on more than one setting:
      augmentation-ablation scores a net, dim-reduction a baseline;
      transfer and --save-models need a net and a split protocol;
      transfer needs a source_checkpoint, and out-of-sample a gesture_subset;
      pretrain needs a net and reads one seed, so a second seed given is refused.
    """
    if command == "pretrain":
        if kind != NET:
            raise ConfigError("pre-training requires a network model, not a baseline")
        if "seeds" in cfg.given and len(cfg.seeds) > 1:
            raise ConfigError(f"pre-training reads one seed, so seeds {cfg.seeds[1:]} would be ignored")
        run, protocol, kinds = "pre-training", None, (kind,)
    else:
        needed = {"augmentation-ablation": NET, "dim-reduction": BASELINE}.get(cfg.protocol, kind)
        if kind != needed:
            raise ConfigError(f"protocol '{cfg.protocol}' scores a {needed} model, not '{cfg.model}'")
        for what, wanted in (("transfer", cfg.transfer), ("saving models", save_models)):
            if wanted and (kind != NET or cfg.protocol not in SPLIT_PROTOCOLS):
                raise ConfigError(f"{what} needs a network model and one of {SPLIT_PROTOCOLS}")
        if cfg.transfer and not cfg.source_checkpoint:
            raise ConfigError("transfer=true requires a source checkpoint path")
        if cfg.protocol in SPLIT_PROTOCOLS:
            check_split(vars(cfg), _E)
        run, protocol = f"a {cfg.protocol} run of {cfg.model}", cfg.protocol
        kinds = (kind, TRANSFER) if cfg.transfer else (kind,)
    check_reads({row.name: getattr(cfg, row.name) for row in rows(_E)}, run, command, protocol, kinds)


def help_text() -> str:
    """The table as text, each setting's kind, range, default and readers, and check_run's rules."""
    lines = ["Settings (a config file's keys, with train's also --train-overrides keys):"]
    for row in TABLE:
        rule = f"in {{{', '.join(row.rule)}}}" if isinstance(row.rule, tuple) else row.rule
        kind = " ".join(filter(None, (_KINDS[row.kind][0], rule)))
        reads = ", ".join(row.commands)
        if "train" in row.commands and row.protocols != PROTOCOLS:
            reads += f" under {', '.join(row.protocols)}"
        if row.kinds != (NET, BASELINE):
            reads += f" with a {' or '.join(row.kinds)} model"
        name = f"train.{row.name}" if row.owner == _T else row.name
        lines += [f"  {name:<22}{kind}, default {json.dumps(row.default)}",
                  f"  {'':<22}read by {reads}"]
    rules = (check_run.__doc__ or ":\n").split(":\n", 1)[1]  # docstrings are gone under -OO
    return "\n".join(lines) + "\nRules on more than one setting:\n" + rules
