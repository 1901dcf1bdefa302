import numpy as np
import pytest

from myogest.dataset import (
    AlignmentShift,
    EmgRecording,
    Window,
    apply_shift,
    build_split,
    compute_activation_profile,
    find_alignment,
    load_dataset,
    read_samples,
    slice_windows,
    save_recording,
    window_count,
    write_manifest,
)
from myogest.errors import ConfigError, DataError, DegenerateProfileError


def make_rec(gesture=0, T=120, value=1, subject=1, rnd=1, cycle=1):
    samples = np.full((8, T), value, dtype=np.int64)
    return EmgRecording(subject_id=subject, round=rnd, cycle=cycle, gesture=gesture, samples=samples)


class TestLoadDataset:
    def test_empty_dataset_with_manifest(self, tmp_path):
        write_manifest(tmp_path, ["a"])
        assert load_dataset(tmp_path) == []

    def test_fixture_tree_loads_in_order(self, tmp_path):
        write_manifest(tmp_path, [f"g{i}" for i in range(7)])
        for g in range(7):
            save_recording(tmp_path, make_rec(gesture=g))
        recs = load_dataset(tmp_path)
        assert len(recs) == 7
        assert [r.gesture for r in recs] == list(range(7))

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="manifest"):
            load_dataset(tmp_path)

    def test_out_of_range_sample_names_file(self, tmp_path):
        write_manifest(tmp_path, ["a"])
        path = tmp_path / "subject_1" / "round_1" / "cycle_1" / "gesture_0.csv"
        path.parent.mkdir(parents=True)
        rows = ["0,0,0,0,0,0,0,0"] * 60
        rows[10] = "0,0,200,0,0,0,0,0"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataError, match="gesture_0.csv"):
            load_dataset(tmp_path)

    def test_wrong_channel_count(self, tmp_path):
        write_manifest(tmp_path, ["a"])
        path = tmp_path / "subject_1" / "round_1" / "cycle_1" / "gesture_0.csv"
        path.parent.mkdir(parents=True)
        path.write_text("\n".join(["1,2,3"] * 60) + "\n")
        with pytest.raises(DataError, match="8 columns"):
            load_dataset(tmp_path)

    def test_schema_mismatch(self, tmp_path):
        write_manifest(tmp_path, ["a"], schema="myo")
        with pytest.raises(DataError, match="schema"):
            load_dataset(tmp_path, schema="ninapro-converted")


class TestReadSamples:
    def write_gesture(self, root, text):
        write_manifest(root, ["a"])
        path = root / "subject_1" / "round_1" / "cycle_1" / "gesture_0.csv"
        path.parent.mkdir(parents=True)
        path.write_text(text)
        return path

    def test_float_integers_accepted(self, tmp_path):
        self.write_gesture(tmp_path, "\n".join(["3.0,-128,127,0,1,2,-3.0,4"] * 60) + "\n")
        (rec,) = load_dataset(tmp_path)
        assert rec.samples.dtype == np.int64
        assert rec.samples.shape == (8, 60)
        assert rec.samples[:, 0].tolist() == [3, -128, 127, 0, 1, 2, -3, 4]

    @pytest.mark.parametrize(
        "value,match",
        [("3.5", "non-integer"), ("128", "128"), ("-129", "-129"), ("nan", "non-integer")],
    )
    def test_bad_sample_rejected(self, tmp_path, value, match):
        rows = ["0,0,0,0,0,0,0,0"] * 60
        rows[7] = f"0,0,0,{value},0,0,0,0"
        self.write_gesture(tmp_path, "\n".join(rows) + "\n")
        with pytest.raises(DataError, match=match):
            load_dataset(tmp_path)

    def test_empty_file_rejected(self, tmp_path):
        self.write_gesture(tmp_path, "")
        with pytest.raises(DataError, match="empty"):
            load_dataset(tmp_path)

    def test_whitespace_only_file_rejected(self, tmp_path):
        self.write_gesture(tmp_path, " \n\t\n\n")
        with pytest.raises(DataError, match="empty"):
            load_dataset(tmp_path)

    def test_non_csv_suffix_is_whitespace_separated(self, tmp_path):
        path = tmp_path / "hold.txt"
        path.write_text("1 2 3 4 5 6 7 8\n-1\t-2 -3 -4 -5 -6 -7 -8.0\n")
        assert read_samples(path).tolist() == [[k, -k] for k in range(1, 9)]
        path.write_text("1,2,3,4,5,6,7,8\n")
        with pytest.raises(DataError, match="hold.txt"):
            read_samples(path)


class TestSliceWindows:
    def test_five_seconds_stride_5_gives_190(self):
        rec = make_rec(T=1000)
        assert len(slice_windows(rec, 5)) == 190

    def test_minimum_length_single_window(self):
        rec = make_rec(T=52)
        ws = slice_windows(rec, 5)
        assert len(ws) == 1 and ws[0].offset == 0

    def test_non_overlapping_stride(self):
        # count = floor((1000-52)/52)+1 = 19, checked by explicit enumeration
        rec = make_rec(T=1000)
        ws = slice_windows(rec, 52)
        offsets = [o for o in range(0, 1000) if o % 52 == 0 and o + 52 <= 1000]
        assert len(ws) == 19 == len(offsets)

    def test_too_short_errors(self):
        with pytest.raises(DataError, match="too short"):
            slice_windows(make_rec(T=51))

    def test_window_shape_and_metadata(self):
        rec = make_rec(T=80, gesture=3, subject=9, rnd=2, cycle=4)
        w = slice_windows(rec, 7)[1]
        assert w.data.shape == (8, 52)
        assert w.data.dtype == np.float64
        assert (w.label, w.subject_id, w.round, w.cycle, w.offset) == (3, 9, 2, 4, 7)

    @pytest.mark.parametrize("T,stride", [(52, 1), (53, 1), (200, 3), (997, 5), (2000, 52)])
    def test_count_formula_by_enumeration(self, T, stride):
        rec = make_rec(T=T)
        ws = slice_windows(rec, stride)
        brute = sum(1 for off in range(0, T, stride) if off + 52 <= T)
        assert len(ws) == brute == window_count(T, stride)


class TestActivationProfile:
    def test_all_zero_is_degenerate(self):
        recs = [make_rec(gesture=g, value=0) for g in range(3)]
        with pytest.raises(DegenerateProfileError):
            compute_activation_profile(recs)

    def test_one_hot_channel(self):
        recs = []
        for g in range(2):
            samples = np.zeros((8, 120), dtype=np.int64)
            samples[2] = 5
            recs.append(EmgRecording(1, 1, 1, g, samples))
        profile = compute_activation_profile(recs)
        expected = np.zeros(8)
        expected[2] = 1.0
        assert np.allclose(profile, np.stack([expected, expected]))

    def test_known_amplitudes_normalize(self):
        # channel c held at amplitude c+1 -> row (1..8)/36
        samples = np.tile(np.arange(1, 9, dtype=np.int64)[:, None], (1, 120))
        rec = EmgRecording(1, 1, 1, 0, samples)
        profile = compute_activation_profile([rec])
        assert np.allclose(profile[0], np.arange(1, 9) / 36.0, atol=1e-12)

    def test_missing_gesture_reported(self):
        recs = [make_rec(gesture=0), make_rec(gesture=2)]
        with pytest.raises(DataError, match=r"\[1\]"):
            compute_activation_profile(recs)


class TestAlignment:
    def test_identity(self, rng):
        profile = rng.random((7, 8))
        profile /= profile.sum(axis=1, keepdims=True)
        assert find_alignment(profile, profile).shift == 0

    def test_recovers_rotation(self, rng):
        profile = rng.random((7, 8))
        profile /= profile.sum(axis=1, keepdims=True)
        for r in range(8):
            rotated = profile[:, (np.arange(8) + r) % 8]
            s = find_alignment(profile, rotated).shift
            undone = rotated[:, (np.arange(8) + s) % 8]
            assert np.abs(profile - undone).sum() < 1e-12

    def test_tie_breaks_to_smallest_shift(self):
        # period-2 profile: shifts 0,2,4,6 all have zero cost -> pick 0
        row = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]) / 4
        profile = np.tile(row, (3, 1))
        costs = [np.abs(profile - profile[:, (np.arange(8) + s) % 8]).sum() for s in range(8)]
        assert min(costs) == costs[0]  # enumerated by hand: even shifts tie at 0
        assert find_alignment(profile, profile).shift == 0

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            find_alignment(np.zeros((7, 8)), np.zeros((6, 8)))


class TestApplyShift:
    def test_zero_shift_identity(self):
        rec = make_rec()
        rec.samples[3, 7] = 42
        out = apply_shift(rec, AlignmentShift(0))
        assert np.array_equal(out.samples, rec.samples)

    def test_shift_eight_is_identity(self):
        rec = make_rec()
        assert np.array_equal(apply_shift(rec, 8).samples, rec.samples)

    def test_three_then_five_restores(self, rng):
        rec = make_rec()
        rec.samples[:] = rng.integers(-128, 128, rec.samples.shape)
        out = apply_shift(apply_shift(rec, 3), 5)
        assert np.array_equal(out.samples, rec.samples)

    def test_round_trip_with_alignment(self, rng):
        samples = rng.integers(-100, 100, (8, 120))
        recs = [EmgRecording(1, 1, 1, g, samples * (g + 1) // 4) for g in range(3)]
        for g, rec in enumerate(recs):
            rec.samples[g] += 50  # distinct per-gesture activation
        reference = compute_activation_profile(recs)
        for r in range(8):
            shifted = [apply_shift(rec, r) for rec in recs]
            cand = compute_activation_profile(shifted)
            s = find_alignment(reference, cand)
            aligned = [apply_shift(rec, s) for rec in shifted]
            assert np.allclose(compute_activation_profile(aligned), reference, atol=1e-12)

    def test_window_shift(self):
        w = Window(data=np.arange(8)[:, None] * np.ones((8, 52)), label=0, subject_id=1)
        out = apply_shift(w, 2)
        assert out.data[0, 0] == 2 and out.data[6, 0] == 0


class TestBuildSplit:
    def test_myo_eval_test_rounds(self, small_dataset):
        recs = [r for r in load_dataset(small_dataset) if r.subject_id == 1]
        split = build_split(recs, "myo-eval", cycles=4)
        assert {w.round for w in split.train} == {1}
        assert {w.round for w in split.test} == {2, 3}

    def test_myo_eval_cycle_subsets(self, small_dataset):
        recs = [r for r in load_dataset(small_dataset) if r.subject_id == 1]
        split = build_split(recs, "myo-eval", cycles=2)
        assert {w.cycle for w in split.train} == {1, 2}
        assert split.cycles_used == 2

    def test_ninapro_single_repetition(self, ninapro_dataset):
        recs = load_dataset(ninapro_dataset)
        split = build_split(recs, "ninapro", repetitions=1)
        assert {w.cycle for w in split.train} == {1}
        assert {w.cycle for w in split.test} == {5, 6}

    def test_out_of_sample_filters_labels(self, ninapro_dataset):
        recs = load_dataset(ninapro_dataset)
        subset = {2, 3, 5}
        split = build_split(recs, "out-of-sample", repetitions=2, gesture_subset=subset)
        assert {w.label for w in split.train} <= subset
        assert {w.label for w in split.test} <= subset

    def test_split_disjoint(self, small_dataset, ninapro_dataset):
        recs = [r for r in load_dataset(small_dataset) if r.subject_id == 2]
        for protocol, kwargs in [
            ("myo-eval", {"cycles": 4}),
            ("myo-eval", {"cycles": 1}),
        ]:
            split = build_split(recs, protocol, **kwargs)
            train_keys = {w.key() for w in split.train}
            test_keys = {w.key() for w in split.test}
            assert not train_keys & test_keys
        nina = load_dataset(ninapro_dataset)
        split = build_split(nina, "ninapro", repetitions=4)
        assert not {w.key() for w in split.train} & {w.key() for w in split.test}

    def test_too_many_cycles_errors(self, small_dataset):
        recs = [r for r in load_dataset(small_dataset) if r.subject_id == 1]
        with pytest.raises(ConfigError):
            build_split(recs, "myo-eval", cycles=5)

    def test_balanced_classes(self, small_dataset):
        recs = [r for r in load_dataset(small_dataset) if r.subject_id == 1]
        split = build_split(recs, "myo-eval", cycles=4)
        counts = np.bincount([w.label for w in split.train])
        assert len(set(counts.tolist())) == 1
