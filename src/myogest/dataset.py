"""Dataset loading, windowing, channel alignment and protocol splits.

Canonical on-disk layout::

    root/manifest.json
    root/subject_<k>/round_<r>/cycle_<c>/gesture_<g>.csv

The manifest carries ``sample_rate``, ``num_channels``, ``gesture_names`` and
``schema`` (``myo`` or ``ninapro-converted``).  Gesture CSV files contain one
time sample per line as 8 comma-separated integers in [-128, 127], the raw
output range of the armband.  Samples stay integer on disk and become floats
when sliced into windows.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, DegenerateProfileError

NUM_CHANNELS = 8
WINDOW_LENGTH = 52
DEFAULT_STRIDE = 5
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
    sample_rate: int = SAMPLE_RATE

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

    def key(self) -> tuple:
        return (self.subject_id, self.round, self.cycle, self.label, self.offset)


@dataclass
class DatasetSplit:
    train: list
    test: list
    subjects: list
    cycles_used: int


@dataclass
class AlignmentShift:
    """Circular channel shift that maps a subject onto the reference wearing."""

    shift: int
    reference_profile: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if not 0 <= self.shift < NUM_CHANNELS:
            raise ConfigError(f"shift must be in [0, {NUM_CHANNELS - 1}], got {self.shift}")


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


def read_manifest(root) -> dict:
    path = Path(root) / "manifest.json"
    if not path.is_file():
        raise DataError(f"missing manifest: {path}")
    with open(path) as fh:
        manifest = json.load(fh)
    for key in ("sample_rate", "num_channels", "gesture_names", "schema"):
        if key not in manifest:
            raise DataError(f"{path}: manifest missing field '{key}'")
    if manifest["num_channels"] != NUM_CHANNELS:
        raise DataError(f"{path}: num_channels must be {NUM_CHANNELS}")
    if manifest["schema"] not in _SCHEMAS:
        raise DataError(f"{path}: unknown schema '{manifest['schema']}'")
    return manifest


def read_samples(path) -> np.ndarray:
    """Read one gesture file into an (8, T) int64 array.

    Each row is one time sample of 8 integer-valued numbers in [-128, 127]
    (``3.0`` is accepted, ``3.5`` is not).  ``.csv`` files are
    comma-separated; any other suffix is whitespace-separated.
    """
    path = Path(path)
    try:
        text = path.read_text()
        # numpy warns before returning no rows, so an empty file stops here
        if not text.strip():
            raise DataError(f"{path}: empty gesture file")
        raw = np.loadtxt(
            text.splitlines(), delimiter="," if path.suffix == ".csv" else None, ndmin=2
        )
    except ValueError as exc:
        raise DataError(f"{path}: could not parse samples ({exc})") from None
    if raw.size == 0:
        raise DataError(f"{path}: empty gesture file")
    if raw.shape[1] != NUM_CHANNELS:
        raise DataError(f"{path}: expected {NUM_CHANNELS} columns, got {raw.shape[1]}")
    rounded = np.rint(raw)
    # the negated form also rejects nan and inf
    if not np.all(np.abs(raw - rounded) <= 1e-9):
        raise DataError(f"{path}: non-integer sample values")
    if rounded.min() < -128 or rounded.max() > 127:
        bad = int(rounded[(rounded < -128) | (rounded > 127)][0])
        raise DataError(f"{path}: sample value {bad} outside [-128, 127]")
    return rounded.astype(np.int64).T  # file rows are time samples; recordings are channel-major


_PATH_RE = re.compile(r"subject_(\d+)/round_(\d+)/cycle_(\d+)/gesture_(\d+)\.csv$")


def load_dataset(root_path, schema=None) -> list:
    """Load every recording under the canonical directory tree.

    Files are discovered in sorted path order so results are deterministic.
    ``schema`` may be given to assert the manifest matches expectations.
    """
    root = Path(root_path)
    manifest = read_manifest(root)
    if schema is not None and manifest["schema"] != schema:
        raise DataError(f"{root}: manifest schema '{manifest['schema']}' != requested '{schema}'")
    recordings = []
    for path in sorted(root.glob("subject_*/round_*/cycle_*/gesture_*.csv")):
        m = _PATH_RE.search(path.as_posix())
        if m is None:
            raise DataError(f"{path}: unrecognized file placement")
        subject, rnd, cycle, gesture = (int(g) for g in m.groups())
        samples = read_samples(path)
        recordings.append(
            EmgRecording(
                subject_id=subject,
                round=rnd,
                cycle=cycle,
                gesture=gesture,
                samples=samples,
                sample_rate=manifest["sample_rate"],
            )
        )
    recordings.sort(key=lambda r: (r.subject_id, r.round, r.cycle, r.gesture))
    return recordings


def save_recording(root, rec: EmgRecording):
    """Write one recording into the canonical tree (used by converters)."""
    root = Path(root)
    path = (
        root
        / f"subject_{rec.subject_id}"
        / f"round_{rec.round}"
        / f"cycle_{rec.cycle}"
        / f"gesture_{rec.gesture}.csv"
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savetxt(path, rec.samples.T, fmt="%d", delimiter=",")
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


def compute_activation_profile(recordings, stride: int = DEFAULT_STRIDE) -> np.ndarray:
    """Per-gesture, per-channel mean IEMG, rows L1-normalized.

    The profile drives inter-subject channel alignment: the most active
    channel per gesture should line up across subjects after shifting.
    """
    recordings = list(recordings)
    if not recordings:
        raise DataError("no recordings given")
    windows = []
    for rec in recordings:
        windows.extend(slice_windows(rec, stride))
    return activation_profile_from_windows(windows)


def activation_profile_from_windows(windows, expect_contiguous: bool = True) -> np.ndarray:
    """Same profile as compute_activation_profile, from pre-sliced windows.

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
    profile = np.zeros((len(labels), NUM_CHANNELS))
    counts = np.zeros(len(labels))
    for w in windows:
        profile[labels.index(w.label)] += np.sum(np.abs(w.data), axis=1)
        counts[labels.index(w.label)] += 1
    profile /= counts[:, None]
    row_sums = profile.sum(axis=1)
    if np.any(row_sums <= 0):
        dead = np.nonzero(row_sums <= 0)[0].tolist()
        raise DegenerateProfileError(f"all-zero activation for gestures {dead}")
    return profile / row_sums[:, None]


def _rotate_channels(row: np.ndarray, shift: int) -> np.ndarray:
    idx = (np.arange(NUM_CHANNELS) + shift) % NUM_CHANNELS
    return row[..., idx]


def find_alignment(reference: np.ndarray, candidate: np.ndarray) -> AlignmentShift:
    """Circular shift of the candidate minimizing total L1 profile distance.

    Ties break toward the smallest shift so the result is deterministic.
    """
    reference = np.asarray(reference, dtype=float)
    candidate = np.asarray(candidate, dtype=float)
    if reference.shape != candidate.shape:
        raise ConfigError(
            f"profile shapes differ: {reference.shape} vs {candidate.shape}"
        )
    costs = [
        float(np.abs(reference - _rotate_channels(candidate, s)).sum())
        for s in range(NUM_CHANNELS)
    ]
    best = int(np.argmin(costs))  # argmin returns the first (smallest) index on ties
    return AlignmentShift(shift=best, reference_profile=reference)


def apply_shift(item, shift) -> "Window | EmgRecording":
    """Return a copy with channel i replaced by channel (i + s) mod 8."""
    s = shift.shift if isinstance(shift, AlignmentShift) else int(shift) % NUM_CHANNELS
    idx = (np.arange(NUM_CHANNELS) + s) % NUM_CHANNELS
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
    is the ninapro split restricted to a gesture subset.
    """
    recs = list(recordings)
    if not recs:
        raise DataError("empty recording list")
    subjects = sorted({r.subject_id for r in recs})

    if protocol == "myo-eval":
        if not 1 <= cycles <= 4:
            raise ConfigError(f"cycles must be in [1, 4], got {cycles}")
        available = sorted({r.cycle for r in recs if r.round == 1})
        if len(available) < cycles:
            raise ConfigError(
                f"requested {cycles} training cycles but round 1 has {len(available)}"
            )
        train_cycles = set(available[:cycles])
        train = _windows_for(recs, lambda r: r.round == 1 and r.cycle in train_cycles, stride)
        test = _windows_for(recs, lambda r: r.round in (2, 3), stride)
        used = cycles
    elif protocol in ("ninapro", "out-of-sample"):
        if not 1 <= repetitions <= 4:
            raise ConfigError(f"repetitions must be in [1, 4], got {repetitions}")
        reps = sorted({r.cycle for r in recs if r.round == 1})
        if len(reps) < repetitions + 2:
            raise ConfigError(
                f"need {repetitions} training + 2 test repetitions, found {len(reps)}"
            )
        train_reps = set(reps[:repetitions])
        test_reps = set(reps[-2:])
        keep = (lambda r: r.gesture in gesture_subset) if gesture_subset is not None else (lambda r: True)
        if protocol == "out-of-sample" and gesture_subset is None:
            raise ConfigError("out-of-sample protocol requires a gesture subset")
        train = _windows_for(
            recs, lambda r: r.round == 1 and r.cycle in train_reps and keep(r), stride
        )
        test = _windows_for(
            recs, lambda r: r.round == 1 and r.cycle in test_reps and keep(r), stride
        )
        used = repetitions
    else:
        raise ConfigError(f"unknown protocol '{protocol}'")

    if not train or not test:
        raise DataError(f"protocol '{protocol}' produced an empty split")
    return DatasetSplit(train=train, test=test, subjects=subjects, cycles_used=used)


def windows_to_arrays(windows):
    """Stack windows into (N, 8, 52) float data plus label and subject vectors."""
    X = np.stack([w.data for w in windows]).astype(np.float64)
    y = np.array([w.label for w in windows], dtype=np.int64)
    subjects = np.array([w.subject_id for w in windows], dtype=np.int64)
    return X, y, subjects
