from collections import Counter

import numpy as np
import pytest

from myogest.augment import MULTIPLIER, TECHNIQUES, augment_dataset, augment_fatigue
from myogest.dataset import EmgRecording, build_split, load_dataset, slice_windows
from myogest.errors import ConfigError

GROWING = [t for t in TECHNIQUES if t != "baseline"]


@pytest.fixture(scope="module")
def subject_data(small_dataset):
    recs = [r for r in load_dataset(small_dataset) if r.subject_id == 1]
    return recs, build_split(recs, "myo-eval", cycles=2)


def _augment(subject_data, technique):
    recs, split = subject_data
    return augment_dataset(split.train, technique, recs)


@pytest.mark.parametrize("technique", GROWING)
@pytest.mark.parametrize("multiplier", [MULTIPLIER])
def test_train_grows_to_multiplier_times_base(subject_data, technique, multiplier):
    base = len(subject_data[1].train)
    assert len(_augment(subject_data, technique)) == multiplier * base


def test_unknown_technique_is_a_config_error(subject_data):
    recs, split = subject_data
    with pytest.raises(ConfigError, match="sliding_window"):
        augment_dataset(split.train, "sliding_window", recs)


def test_baseline_keeps_the_training_set(subject_data):
    split = subject_data[1]
    assert _augment(subject_data, "baseline") == split.train


@pytest.mark.parametrize("technique", [t for t in GROWING if t != "sliding-window"])
def test_synthesized_windows_keep_their_source_label(subject_data, technique):
    split = subject_data[1]
    base = len(split.train)
    train = _augment(subject_data, technique)
    assert train[:base] == split.train
    for i, w in enumerate(train[base:]):
        src = split.train[i % base]
        origin = (w.label, w.subject_id, w.round, w.cycle)
        assert origin == (src.label, src.subject_id, src.round, src.cycle)
        assert w.data.shape == src.data.shape


def test_sliding_windows_come_from_the_training_recordings_in_proportion(subject_data):
    split = subject_data[1]
    train = _augment(subject_data, "sliding-window")
    base_keys = {(w.subject_id, w.round, w.cycle, w.label) for w in split.train}
    assert {(w.subject_id, w.round, w.cycle, w.label) for w in train} == base_keys
    base_labels = Counter(w.label for w in split.train)
    assert Counter(w.label for w in train) == {k: 2 * v for k, v in base_labels.items()}


def test_sliding_windows_take_the_widest_stride_that_fills_each_hold():
    # cycle c holds gesture c; the cycle-5 hold is not in the training set
    lengths = {1: 64, 2: 70, 3: 90, 4: 157, 5: 300}
    recs = [EmgRecording(1, 1, c, c, np.zeros((8, t), dtype=np.int64)) for c, t in lengths.items()]
    base = [w for rec in recs[:4] for w in slice_windows(rec, 10)]  # 2 + 2 + 4 + 11 windows
    train = augment_dataset(base, "sliding-window", recs)
    # 38 windows, 10 per hold: strides 1, 2, 4 and 11, the last hold cut to 8
    offsets = {1: range(0, 10), 2: range(0, 20, 2), 3: range(0, 40, 4), 4: range(0, 88, 11)}
    expected = [(1, c, c, o) for c, cycle_offsets in offsets.items() for o in cycle_offsets]
    assert [(w.subject_id, w.cycle, w.label, w.offset) for w in train] == expected


def test_longer_holds_make_up_a_short_holds_shortfall():
    recs = [
        EmgRecording(1, 1, c, c, np.zeros((8, t), dtype=np.int64)) for c, t in ((1, 60), (2, 400))
    ]
    base = [w for rec in recs for w in slice_windows(rec, 5)]  # 2 + 70 windows
    train = augment_dataset(base, "sliding-window", recs)
    # the 60-sample hold gives all 9 of its stride-1 windows, the other 135 at stride 2
    assert len(train) == 144
    assert [w.offset for w in train if w.cycle == 1] == list(range(9))
    assert [w.offset for w in train if w.cycle == 2] == list(range(0, 270, 2))


def test_densifying_past_every_stride_1_window_names_the_true_count():
    lengths = ((1, 60), (2, 60), (3, 151))
    recs = [EmgRecording(1, 1, c, c, np.zeros((8, t), dtype=np.int64)) for c, t in lengths]
    # 9 + 9 + 50 windows, so 136 are asked for; stride 1 gives 9 + 9 + 100
    base = [w for rec, s in zip(recs, (1, 1, 2)) for w in slice_windows(rec, s)]
    with pytest.raises(ConfigError, match=r"\(118 of 136 windows available\)"):
        augment_dataset(base, "sliding-window", recs)


def test_fatigue_conserves_channel_power(subject_data):
    for w in subject_data[1].train[:10]:
        out = augment_fatigue(w, probability=1.0, fraction=0.35, seed=0)
        np.testing.assert_allclose(
            (out.data**2).sum(axis=1), (w.data**2).sum(axis=1), rtol=1e-10
        )
        assert not np.allclose(out.data, w.data)
