"""Dataset loading, windowing, channel alignment and protocol splits.

Canonical on-disk layout::

    root/manifest.json
    root/subject_<k>/round_<r>/cycle_<c>/gesture_<g>.csv

The manifest carries ``sample_rate``, ``num_channels``, ``gesture_names`` and
``schema`` (``myo`` or ``ninapro-converted``).  The rate must be the armband's
200 Hz and the channel count its 8: a manifest that says otherwise is
rejected, not windowed as if it were 200 Hz.  Gesture CSV files contain one
time sample per line as 8 comma-separated integers in [-128, 127], the raw
output range of the armband.  Samples stay integer on disk and become floats
when sliced into windows.

``load_dataset`` hashes the tree as ``dataset_content_hash`` does, one
file's bytes at a time.  Parses are memoized on that SHA-256, never on paths
or modification times, so any changed byte parses the tree again; the memo
keeps the last ``_MEMO_SIZE`` (2) trees, an evaluation and a pre-training
set, as one read-only int64 array per recording.  A load the memo misses
reads the tree a second time to parse it.  Loaded ``samples`` are therefore
read-only; copy them to write.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, DegenerateProfileError
from .settings import DEFAULT_STRIDE, check_split

NUM_CHANNELS = 8
WINDOW_LENGTH = 52
SAMPLE_RATE = 200

_SCHEMAS = ("myo", "ninapro-converted")


@dataclass
class EmgRecording:
    """One continuous gesture hold: 8 x T integer samples at 200 Hz."""

    subject_id: int
    round: int
    cycle: int
    gesture: int
    samples: np.ndarray  # int array, shape (8, T)

    def __post_init__(self):
        self.samples = np.asarray(self.samples)
        if self.samples.ndim != 2 or self.samples.shape[0] != NUM_CHANNELS:
            raise DataError(
                f"recording must have {NUM_CHANNELS} channels, got shape {self.samples.shape}"
            )

    @property
    def num_samples(self) -> int:
        return self.samples.shape[1]


@dataclass
class Window:
    """An 8 x 52 float slice; the atomic classified example."""

    data: np.ndarray  # float array, shape (8, 52)
    label: int
    subject_id: int
    round: int = 0
    cycle: int = 0
    offset: int = 0


@dataclass
class DatasetSplit:
    train: list
    test: list


def write_manifest(root, gesture_names, schema="myo"):
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    manifest = {
        "sample_rate": SAMPLE_RATE,
        "num_channels": NUM_CHANNELS,
        "gesture_names": list(gesture_names),
        "schema": schema,
    }
    with open(root / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def read_manifest(root, data: bytes = None) -> dict:
    """Validate ``root``'s manifest, from ``data`` when its bytes were read already."""
    path = Path(root) / "manifest.json"
    if data is None:
        data = path.read_bytes()
    try:
        # universal newlines, as a text read gives them, keep JSON error offsets
        manifest = json.loads(data.decode().replace("\r\n", "\n").replace("\r", "\n"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: manifest is not valid JSON ({exc})") from None
    if not isinstance(manifest, dict):
        raise DataError(f"{path}: manifest must be a JSON object")
    for key in ("sample_rate", "num_channels", "gesture_names", "schema"):
        if key not in manifest:
            raise DataError(f"{path}: manifest missing field '{key}'")
    if manifest["num_channels"] != NUM_CHANNELS:
        raise DataError(f"{path}: num_channels must be {NUM_CHANNELS}")
    if manifest["sample_rate"] != SAMPLE_RATE:
        raise DataError(f"{path}: sample_rate must be {SAMPLE_RATE}")
    if manifest["schema"] not in _SCHEMAS:
        raise DataError(f"{path}: unknown schema '{manifest['schema']}'")
    return manifest


def read_rows(path, what: str, delimiter=",", skip: int = 0, data: bytes = None):
    """The first ``skip`` lines of a text file and its numeric rows after them.

    Returns ``(header lines, rows)`` with the rows as a 2-D array.  ``data``
    is the file's bytes when the caller has read them; otherwise ``path`` is
    read.  A missing, non-UTF-8, empty or non-numeric file raises DataError
    naming ``path`` and ``what`` it was read as.
    """
    path = Path(path)
    try:
        lines = (path.read_bytes() if data is None else data).decode().splitlines()
    except OSError as exc:
        raise DataError(f"{path}: cannot read {what} ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {what} is not UTF-8 text (byte {exc.start})") from None
    head, lines = lines[:skip], lines[skip:]
    # numpy warns before returning no rows, so an empty file stops here
    if not any(line.strip() for line in lines):
        raise DataError(f"{path}: empty {what}")
    try:
        return head, np.loadtxt(lines, delimiter=delimiter, ndmin=2)
    except ValueError as exc:
        raise DataError(f"{path}: could not parse {what} ({exc})") from None


def read_samples(path, data: bytes = None) -> np.ndarray:
    """Read one gesture file (or its bytes ``data``) into an (8, T) int64 array.

    Each row is one time sample of 8 numbers that ``integer_samples``
    accepts.  ``.csv`` files are comma-separated; any other suffix is
    whitespace-separated.
    """
    path = Path(path)
    _, raw = read_rows(path, "gesture file", "," if path.suffix == ".csv" else None, data=data)
    if raw.size == 0:
        raise DataError(f"{path}: empty gesture file")
    if raw.shape[1] != NUM_CHANNELS:
        raise DataError(f"{path}: expected {NUM_CHANNELS} columns, got {raw.shape[1]}")
    return integer_samples(path, raw).T  # file rows are time samples; recordings are channel-major


def integer_samples(path, values) -> np.ndarray:
    """``values`` read from ``path`` as int64 armband samples.

    Every value must be integer-valued (``3.0`` is, ``3.5``, nan and inf are
    not) and in [-128, 127]; otherwise DataError names ``path``.
    """
    rounded = np.rint(values)
    # the negated form also rejects nan and inf
    if not np.all(np.abs(values - rounded) <= 1e-9):
        raise DataError(f"{path}: non-integer sample values")
    if rounded.min() < -128 or rounded.max() > 127:
        bad = int(rounded[(rounded < -128) | (rounded > 127)][0])
        raise DataError(f"{path}: sample value {bad} outside [-128, 127]")
    return rounded.astype(np.int64)


_PATH_RE = re.compile(r"subject_(\d+)/round_(\d+)/cycle_(\d+)/gesture_(\d+)\.csv$")


def _gesture_files(root) -> list:
    """Every gesture file of the canonical tree under ``root``, in sorted path order."""
    return sorted(Path(root).glob("subject_*/round_*/cycle_*/gesture_*.csv"))


def _tree_files(root) -> list:
    """The files ``load_dataset`` reads, in sorted path order (``manifest.json`` sorts first)."""
    manifest = root / "manifest.json"
    if not manifest.is_file():
        raise DataError(f"missing manifest: {manifest}")
    return [manifest, *_gesture_files(root)]


def _sha256(root, paths, blobs) -> str:
    """The content hash of ``paths`` and their bytes, which ``blobs`` yields one at a time."""
    h = hashlib.sha256()
    for path, data in zip(paths, blobs):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(data)
    return h.hexdigest()


def dataset_content_hash(root) -> str:
    """SHA-256 over the relative path and bytes of each file ``load_dataset`` reads."""
    root = Path(root)
    paths = _tree_files(root)
    return _sha256(root, paths, (path.read_bytes() for path in paths))


class Recordings(list):
    """``load_dataset``'s recordings and ``sha256``, the content hash of the bytes parsed."""

    def __init__(self, recordings, sha256: str):
        super().__init__(recordings)
        self.sha256 = sha256


_MEMO_SIZE = 2  # an evaluation tree and a pre-training tree
# content hash -> ((subject, round, cycle, gesture, read-only samples), ...), oldest first
_parsed = OrderedDict()


def _parse_tree(root, paths) -> tuple:
    """Read, validate and parse a tree's files: ``(content hash, parsed recordings)``.

    The hash is that of the bytes parsed.
    """
    parsed = []

    def parsed_blobs():
        """Each file's bytes, parsed before the hash takes them."""
        for path in paths:
            try:
                data = path.read_bytes()
            except OSError:
                data = None  # its reader reads it again and reports the error
            if path == paths[0]:
                read_manifest(root, data)
                yield data
                continue
            m = _PATH_RE.search(path.as_posix())
            if m is None:
                raise DataError(f"{path}: unrecognized file placement")
            samples = read_samples(path, data)
            samples.flags.writeable = False
            parsed.append((*(int(g) for g in m.groups()), samples))
            yield data

    sha256 = _sha256(root, paths, parsed_blobs())
    parsed.sort(key=lambda fields: fields[:4])  # subject, round, cycle, gesture
    return sha256, tuple(parsed)


def load_dataset(root_path) -> list:
    """Load every recording under the canonical directory tree.

    The tree is hashed as ``dataset_content_hash`` does, in sorted path
    order and holding one file's bytes at a time; the result is a
    ``Recordings`` list carrying that hash.  A tree whose content was parsed
    by one of the last ``_MEMO_SIZE`` successful loads is not parsed again;
    any other is read again and parsed.  Every call returns new
    ``EmgRecording``s whose ``samples`` are read-only.
    """
    root = Path(root_path)
    paths = _tree_files(root)
    try:
        sha256 = _sha256(root, paths, (path.read_bytes() for path in paths))
    except OSError:
        sha256 = None  # the parse reads the file again and reports it in its turn
    parsed = _parsed.get(sha256)
    if parsed is None:
        sha256, parsed = _parse_tree(root, paths)
        _parsed[sha256] = parsed
        while len(_parsed) > _MEMO_SIZE:
            _parsed.popitem(last=False)
    else:
        _parsed.move_to_end(sha256)
    return Recordings([EmgRecording(*fields) for fields in parsed], sha256)


def save_recording(root, rec: EmgRecording):
    """Write one recording into the canonical tree (used by converters).

    The file has one line per time sample: its 8 values formatted with
    ``%d``, joined by commas and ended by ``\\n``.  Those are the bytes of
    ``np.savetxt(path, rec.samples.T, fmt="%d", delimiter=",")``; here the
    whole recording is formatted by one ``%`` and written at once.
    """
    root = Path(root)
    path = (
        root
        / f"subject_{rec.subject_id}"
        / f"round_{rec.round}"
        / f"cycle_{rec.cycle}"
        / f"gesture_{rec.gesture}.csv"
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    row = ",".join(["%d"] * NUM_CHANNELS) + "\n"
    path.write_text(row * rec.num_samples % tuple(rec.samples.T.ravel().tolist()))
    return path


def slice_windows(rec: EmgRecording, stride: int = DEFAULT_STRIDE) -> list:
    """Slide a 52-sample window along the recording.

    Offsets are 0, stride, 2*stride, ... while offset + 52 <= T, so a 5 s
    recording at 200 Hz with the default stride yields 190 windows.
    """
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    T = rec.num_samples
    if T < WINDOW_LENGTH:
        raise DataError(
            f"recording too short to window: T={T} < {WINDOW_LENGTH} "
            f"(subject {rec.subject_id}, gesture {rec.gesture})"
        )
    data = rec.samples.astype(np.float64)
    windows = []
    for offset in range(0, T - WINDOW_LENGTH + 1, stride):
        windows.append(
            Window(
                data=data[:, offset : offset + WINDOW_LENGTH],
                label=rec.gesture,
                subject_id=rec.subject_id,
                round=rec.round,
                cycle=rec.cycle,
                offset=offset,
            )
        )
    return windows


def window_count(T: int, stride: int = DEFAULT_STRIDE) -> int:
    if T < WINDOW_LENGTH:
        return 0
    return (T - WINDOW_LENGTH) // stride + 1


def activation_profile_from_windows(windows, expect_contiguous: bool = True) -> np.ndarray:
    """Per-gesture, per-channel mean IEMG of the windows, rows L1-normalized.

    The profile drives inter-subject channel alignment: the most active
    channel per gesture should line up across subjects after shifting.
    ``expect_contiguous=False`` permits gesture subsets (rows are then the
    sorted labels actually present).
    """
    labels = sorted({w.label for w in windows})
    if not labels:
        raise DataError("no windows given")
    if expect_contiguous:
        missing = sorted(set(range(max(labels) + 1)) - set(labels))
        if missing:
            raise DataError(f"missing gestures for activation profile: {missing}")
    row = {label: i for i, label in enumerate(labels)}
    rows = np.array([row[w.label] for w in windows])
    profile = np.zeros((len(labels), NUM_CHANNELS))
    # np.add.at adds in window order, so each row sums in the order a loop over windows would
    np.add.at(profile, rows, [np.sum(np.abs(w.data), axis=1) for w in windows])
    profile /= np.bincount(rows, minlength=len(labels))[:, None]
    row_sums = profile.sum(axis=1)
    if np.any(row_sums <= 0):
        dead = np.nonzero(row_sums <= 0)[0].tolist()
        raise DegenerateProfileError(f"all-zero activation for gestures {dead}")
    return profile / row_sums[:, None]


def _channel_order(shift: int) -> np.ndarray:
    """Channel i of a shift by ``shift`` is channel (i + shift) mod 8."""
    return (np.arange(NUM_CHANNELS) + shift) % NUM_CHANNELS


def find_alignment(reference: np.ndarray, candidate: np.ndarray) -> int:
    """The shift in [0, 8) that aligns ``candidate`` to ``reference``.

    It is the shift whose ``apply_shift`` of the candidate profile's channels
    gives the least total L1 distance to the reference; ties break toward the
    smallest shift so the result is deterministic.
    """
    reference = np.asarray(reference, dtype=float)
    candidate = np.asarray(candidate, dtype=float)
    if reference.shape != candidate.shape:
        raise ConfigError(
            f"profile shapes differ: {reference.shape} vs {candidate.shape}"
        )
    costs = [
        float(np.abs(reference - candidate[..., _channel_order(s)]).sum())
        for s in range(NUM_CHANNELS)
    ]
    return int(np.argmin(costs))  # argmin returns the first (smallest) index on ties


def apply_shift(item, shift: int) -> "Window | EmgRecording":
    """Return a copy with channel i replaced by channel (i + shift) mod 8."""
    idx = _channel_order(int(shift))
    if isinstance(item, EmgRecording):
        return replace(item, samples=item.samples[idx])
    if isinstance(item, Window):
        return replace(item, data=item.data[idx])
    raise ConfigError(f"cannot shift object of type {type(item).__name__}")


def _windows_for(recordings, pred, stride):
    out = []
    for rec in recordings:
        if pred(rec):
            out.extend(slice_windows(rec, stride))
    return out


def build_split(
    recordings,
    protocol: str,
    cycles: int = 4,
    repetitions: int = 4,
    gesture_subset=None,
    stride: int = DEFAULT_STRIDE,
) -> DatasetSplit:
    """Assemble train/test windows for one of the evaluation protocols.

    ``myo-eval``: train on the first ``cycles`` cycles of round 1, test on
    rounds 2-3.  ``ninapro``: repetitions are stored as cycles of round 1;
    train on the first ``repetitions``, test on the last two.  ``out-of-sample``
    is the ninapro split restricted to a gesture subset.  Settings that
    ``settings.check_split`` rejects raise ConfigError before any recording
    is read.
    """
    check_split({"protocol": protocol, "cycles": cycles, "repetitions": repetitions,
                 "gesture_subset": gesture_subset, "stride": stride}, "split")
    recs = list(recordings)
    if not recs:
        raise DataError("empty recording list")

    if protocol == "myo-eval":
        available = sorted({r.cycle for r in recs if r.round == 1})
        if len(available) < cycles:
            raise ConfigError(
                f"requested {cycles} training cycles but round 1 has {len(available)}"
            )
        train_cycles = set(available[:cycles])
        train = _windows_for(recs, lambda r: r.round == 1 and r.cycle in train_cycles, stride)
        test = _windows_for(recs, lambda r: r.round in (2, 3), stride)
    else:
        reps = sorted({r.cycle for r in recs if r.round == 1})
        if len(reps) < repetitions + 2:
            raise ConfigError(
                f"need {repetitions} training + 2 test repetitions, found {len(reps)}"
            )
        train_reps = set(reps[:repetitions])
        test_reps = set(reps[-2:])
        keep = (lambda r: r.gesture in gesture_subset) if gesture_subset is not None else (lambda r: True)
        train = _windows_for(
            recs, lambda r: r.round == 1 and r.cycle in train_reps and keep(r), stride
        )
        test = _windows_for(
            recs, lambda r: r.round == 1 and r.cycle in test_reps and keep(r), stride
        )

    if not train or not test:
        raise DataError(f"protocol '{protocol}' produced an empty split")
    check_gestures_trained(train, test, "test")
    return DatasetSplit(train=train, test=test)


def check_gestures_trained(train, held_out, what: str):
    """DataError naming the subjects and gestures of ``held_out`` windows that no ``train`` window has.

    A classifier can never predict a gesture it was not trained on, and its
    label mapping has no class for one.
    """
    missing = sorted({w.label for w in held_out} - {w.label for w in train})
    if missing:
        subjects = sorted({w.subject_id for w in held_out if w.label in missing})
        raise DataError(
            f"subject {', '.join(map(str, subjects))}: {what} gestures {missing} are not in the training set"
        )

