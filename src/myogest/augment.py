"""Training-set augmentation: noise, spectral fatigue, electrode displacement.

Every technique preserves labels and never touches the test set.  Synthetic
techniques operate on the 52-sample window rfft; window counts follow the
multiplier contract (train grows to multiplier x the original count).
Sliding-window augmentation densifies the slicing stride instead of
synthesizing samples, so it needs the source recordings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import WINDOW_LENGTH, DatasetSplit, Window, slice_windows
from .errors import ConfigError

TECHNIQUES = (
    "baseline",
    "sliding-window",
    "muscle-fatigue",
    "electrode-displacement",
    "gaussian-noise",
    "aggregated",
)


@dataclass
class AugmentationConfig:
    technique: str = "sliding-window"
    fatigue_probability: float = 0.5
    fatigue_fraction: float = 0.35
    displacement_fraction: float = 0.35
    snr_db: float = 25.0
    multiplier: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.technique not in TECHNIQUES:
            raise ConfigError(f"unknown augmentation '{self.technique}'")
        for name in ("fatigue_probability", "fatigue_fraction", "displacement_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        if self.multiplier < 1:
            raise ConfigError("multiplier must be >= 1")


def _copy_window(w: Window, data: np.ndarray) -> Window:
    return replace(w, data=data)


def augment_gaussian(w: Window, snr_db: float = 25.0, seed: int = 0) -> Window:
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
    return _copy_window(w, data)


def _weights(n_bins: int) -> np.ndarray:
    # Parseval weights of the rfft half-spectrum for an even-length signal:
    # DC and Nyquist count once, interior bins twice.
    wgt = np.full(n_bins, 2.0)
    wgt[0] = 1.0
    wgt[-1] = 1.0
    return wgt


def augment_fatigue(
    w: Window, probability: float = 0.5, fraction: float = 0.35, seed: int = 0
) -> Window:
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
    return _copy_window(w, data)


def augment_displacement(w: Window, fraction: float = 0.35, seed: int = 0) -> Window:
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
    return _copy_window(w, out)


def _synthesize(w: Window, technique: str, cfg: AugmentationConfig, seed: int) -> Window:
    if technique == "gaussian-noise":
        return augment_gaussian(w, cfg.snr_db, seed)
    if technique == "muscle-fatigue":
        return augment_fatigue(w, cfg.fatigue_probability, cfg.fatigue_fraction, seed)
    if technique == "electrode-displacement":
        return augment_displacement(w, cfg.displacement_fraction, seed)
    if technique == "aggregated":
        out = augment_fatigue(w, cfg.fatigue_probability, cfg.fatigue_fraction, seed)
        out = augment_displacement(out, cfg.displacement_fraction, seed)
        return augment_gaussian(out, cfg.snr_db, seed + 1)
    raise ConfigError(f"technique '{technique}' cannot synthesize windows")


def _densified_windows(recordings, base_windows, multiplier):
    """Re-slice the same recordings densely enough to reach multiplier x count."""
    target = multiplier * len(base_windows)
    keys = {(w.subject_id, w.round, w.cycle, w.label) for w in base_windows}
    recs = [
        r for r in recordings if (r.subject_id, r.round, r.cycle, r.gesture) in keys
    ]
    per_rec_target = -(-target // len(recs))  # ceil
    out = []
    for rec in recs:
        T = rec.num_samples
        span = T - WINDOW_LENGTH
        stride = max(1, span // max(1, per_rec_target - 1)) if span > 0 else 1
        dense = slice_windows(rec, stride)
        while len(dense) < per_rec_target and stride > 1:
            stride -= 1
            dense = slice_windows(rec, stride)
        out.extend(dense[:per_rec_target])
    if len(out) < target:
        raise ConfigError(
            f"recordings too short to densify to {multiplier}x "
            f"({len(out)} of {target} windows available)"
        )
    return out[:target]


def augment_dataset(
    split: DatasetSplit, cfg: AugmentationConfig, recordings=None
) -> DatasetSplit:
    """Grow the training set to multiplier x its size; test is untouched."""
    if not split.train:
        raise ConfigError("cannot augment an empty training set")
    if cfg.technique == "baseline" or cfg.multiplier == 1:
        train = list(split.train)
    elif cfg.technique == "sliding-window":
        if recordings is None:
            raise ConfigError("sliding-window augmentation needs the source recordings")
        train = _densified_windows(recordings, split.train, cfg.multiplier)
    else:
        train = list(split.train)
        for round_idx in range(cfg.multiplier - 1):
            for i, w in enumerate(split.train):
                seed = (cfg.seed * 1_000_003 + round_idx * 131_071 + i) & 0x7FFFFFFF
                train.append(_synthesize(w, cfg.technique, cfg, seed))
    return DatasetSplit(
        train=train,
        test=split.test,
        subjects=split.subjects,
        cycles_used=split.cycles_used,
    )
