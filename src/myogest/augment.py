"""Training-set augmentation: noise, spectral fatigue, electrode displacement.

``augment_dataset`` takes the training windows alone, so no technique can
reach a test set; every technique preserves labels, and each one but
``baseline`` doubles the training windows (``MULTIPLIER``).  A synthesized
window is a copy of its source ``Window`` with new data.  The synthetic
techniques work on the 52-sample window rfft with the paper's fixed
parameters (Cote-Allard et al., "Deep Learning for Electromyographic Hand
Gesture Signal Classification Using Transfer Learning"): muscle fatigue
hits each channel with probability ``FATIGUE_PROBABILITY`` and moves
``FATIGUE_FRACTION`` of each bin's power down, electrode displacement moves
``DISPLACEMENT_FRACTION`` of each channel's magnitude to its neighbour, and
Gaussian noise is added at ``SNR_DB``.  Sliding-window augmentation
densifies the slicing stride instead of synthesizing samples, so it needs
the source recordings.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .dataset import WINDOW_LENGTH, Window, slice_windows, window_count
from .errors import ConfigError

TECHNIQUES = (
    "baseline",
    "sliding-window",
    "muscle-fatigue",
    "electrode-displacement",
    "gaussian-noise",
    "aggregated",
)

MULTIPLIER = 2
FATIGUE_PROBABILITY = 0.5
FATIGUE_FRACTION = 0.35
DISPLACEMENT_FRACTION = 0.35
SNR_DB = 25.0


def augment_gaussian(w: Window, snr_db: float, seed: int) -> Window:
    """Additive white Gaussian noise at the requested SNR per channel.

    Noise power is signal_power / 10^(snr_db / 10); zero-power channels come
    back unchanged.
    """
    rng = np.random.default_rng(seed)
    data = w.data.copy()
    for c in range(data.shape[0]):
        power = float(np.mean(data[c] ** 2))
        if power == 0.0:
            continue
        noise_std = np.sqrt(power / 10.0 ** (snr_db / 10.0))
        data[c] = data[c] + noise_std * rng.standard_normal(data.shape[1])
    return replace(w, data=data)


def _weights(n_bins: int) -> np.ndarray:
    # Parseval weights of the rfft half-spectrum for an even-length signal:
    # DC and Nyquist count once, interior bins twice.
    wgt = np.full(n_bins, 2.0)
    wgt[0] = 1.0
    wgt[-1] = 1.0
    return wgt


def augment_fatigue(w: Window, probability: float, fraction: float, seed: int) -> Window:
    """Emulate muscle fatigue by cascading spectral power downward.

    Per channel (with the given probability) each bin passes `fraction` of
    its accumulated power to the next lower bin, sweeping from the highest
    bin down, which lowers the median frequency while conserving total
    power.  Phases are kept.
    """
    rng = np.random.default_rng(seed)
    data = w.data.copy()
    for c in range(data.shape[0]):
        if rng.random() >= probability:
            continue
        spec = np.fft.rfft(data[c])
        wgt = _weights(len(spec))
        power = wgt * np.abs(spec) ** 2
        for k in range(len(power) - 1, 0, -1):
            moved = fraction * power[k]
            power[k] -= moved
            power[k - 1] += moved
        mag = np.sqrt(power / wgt)
        phase = np.angle(spec)
        data[c] = np.fft.irfft(mag * np.exp(1j * phase), n=data.shape[1])
    return replace(w, data=data)


def augment_displacement(w: Window, fraction: float, seed: int) -> Window:
    """Emulate electrode displacement by rotating spectral magnitude.

    For every frequency bin, `fraction` of each channel's magnitude moves to
    the next channel (circularly, simultaneously for all channels); each
    channel keeps its own phases.
    """
    data = w.data
    spec = np.fft.rfft(data, axis=1)
    mag = np.abs(spec)
    phase = np.angle(spec)
    new_mag = (1.0 - fraction) * mag + fraction * np.roll(mag, 1, axis=0)
    out = np.fft.irfft(new_mag * np.exp(1j * phase), n=data.shape[1], axis=1)
    return replace(w, data=out)


def _synthesize(w: Window, technique: str, seed: int) -> Window:
    if technique == "gaussian-noise":
        return augment_gaussian(w, SNR_DB, seed)
    if technique == "muscle-fatigue":
        return augment_fatigue(w, FATIGUE_PROBABILITY, FATIGUE_FRACTION, seed)
    if technique == "electrode-displacement":
        return augment_displacement(w, DISPLACEMENT_FRACTION, seed)
    out = augment_fatigue(w, FATIGUE_PROBABILITY, FATIGUE_FRACTION, seed)
    out = augment_displacement(out, DISPLACEMENT_FRACTION, seed)
    return augment_gaussian(out, SNR_DB, seed + 1)


def _densified_windows(recordings, base_windows):
    """Re-slice the same recordings densely enough to reach MULTIPLIER x count.

    A hold too short for its share gives every stride-1 window it has and
    the longer holds make up the rest.
    """
    target = MULTIPLIER * len(base_windows)
    keys = {(w.subject_id, w.round, w.cycle, w.label) for w in base_windows}
    recs = [
        r for r in recordings if (r.subject_id, r.round, r.cycle, r.gesture) in keys
    ]
    capacity = [window_count(r.num_samples, 1) for r in recs]
    if sum(capacity) < target:
        raise ConfigError(
            f"recordings too short to densify to {MULTIPLIER}x "
            f"({sum(capacity)} of {target} windows available)"
        )
    # water-filling: the lowest per-hold quota that reaches the target;
    # ceil(target / holds) when every hold has that many
    remaining, quota = target, 0
    for k, cap in enumerate(sorted(capacity)):
        quota = -(-remaining // (len(recs) - k))  # ceil
        if cap >= quota:
            break
        remaining -= cap
    out = []
    for rec, cap in zip(recs, capacity):
        n = min(cap, quota)
        # for n >= 2, window_count(T, s) >= n exactly when s <= (T - 52) // (n - 1):
        # the widest stride that gives n windows
        stride = max(1, (rec.num_samples - WINDOW_LENGTH) // max(1, n - 1))
        out.extend(slice_windows(rec, stride)[:n])
    return out[:target]


def augment_dataset(train: list, technique: str, recordings) -> list:
    """The training windows grown to MULTIPLIER x their count (baseline keeps them)."""
    if technique not in TECHNIQUES:
        raise ConfigError(f"unknown augmentation '{technique}'")
    if not train:
        raise ConfigError("cannot augment an empty training set")
    if technique == "baseline":
        return list(train)
    if technique == "sliding-window":
        return _densified_windows(recordings, train)
    # MULTIPLIER 2: one synthesized copy of each window, seeded by its index
    return list(train) + [_synthesize(w, technique, i) for i, w in enumerate(train)]
