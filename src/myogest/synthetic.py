"""Synthetic armband-like datasets for smoke tests and the acceptance suite.

Each gesture drives one dominant channel (plus a weaker neighbor) with a
gesture-specific carrier frequency, so both spatial and spectral structure
separate the classes.  Subjects differ by a circular channel rotation, an
amplitude factor and their noise level, which exercises alignment and the
per-subject batch-norm banks end to end.
"""

from __future__ import annotations

import numpy as np

from .dataset import SAMPLE_RATE, EmgRecording, apply_shift, save_recording, write_manifest

GESTURE_FREQS = [12.0, 24.0, 36.0, 48.0, 60.0, 72.0, 84.0]


def synth_recording(
    subject_id: int,
    round_idx: int,
    cycle: int,
    gesture: int,
    n_samples: int = 250,
    rotation: int = 0,
    amplitude: float = 40.0,
    noise: float = 3.0,
    seed: int = 0,
) -> EmgRecording:
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, subject_id, round_idx, cycle, gesture])
    )
    t = np.arange(n_samples) / SAMPLE_RATE
    freq = GESTURE_FREQS[gesture % len(GESTURE_FREQS)]
    data = rng.normal(0.0, noise, size=(8, n_samples))
    main = gesture % 8
    carrier = np.sin(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
    burst = 0.75 + 0.25 * np.sin(2 * np.pi * 1.5 * t + rng.uniform(0, 2 * np.pi))
    data[main] += amplitude * carrier * burst
    data[(main + 1) % 8] += 0.45 * amplitude * carrier * burst
    samples = np.clip(np.rint(data), -128, 127).astype(np.int64)
    return apply_shift(EmgRecording(subject_id, round_idx, cycle, gesture, samples), rotation)


def generate_synthetic_recordings(
    subjects=(1, 2),
    rounds=3,
    cycles=4,
    gestures=7,
    n_samples=250,
    rotations=None,
    amplitudes=None,
    noises=None,
    seed=0,
):
    rotations = rotations or {}
    amplitudes = amplitudes or {}
    noises = noises or {}
    recs = []
    for subject in subjects:
        for rnd in range(1, rounds + 1):
            for cycle in range(1, cycles + 1):
                for gesture in range(gestures):
                    recs.append(
                        synth_recording(
                            subject,
                            rnd,
                            cycle,
                            gesture,
                            n_samples=n_samples,
                            rotation=rotations.get(subject, 0),
                            amplitude=amplitudes.get(subject, 40.0),
                            noise=noises.get(subject, 3.0),
                            seed=seed,
                        )
                    )
    return recs


def generate_synthetic_dataset(root, schema="myo", gestures=7, **kwargs):
    """Write a synthetic dataset in the canonical directory layout."""
    recs = generate_synthetic_recordings(gestures=gestures, **kwargs)
    write_manifest(root, [f"gesture_{g}" for g in range(gestures)], schema=schema)
    for rec in recs:
        save_recording(root, rec)
    return recs
