import hashlib
import json
import shutil
import tracemalloc

import numpy as np
import pytest

import oracles
from myogest import dataset
from myogest.dataset import (
    EmgRecording,
    Window,
    activation_profile_from_windows,
    apply_shift,
    build_split,
    dataset_content_hash,
    find_alignment,
    load_dataset,
    read_samples,
    slice_windows,
    save_recording,
    window_count,
    write_manifest,
)
from myogest.errors import ConfigError, DataError, DegenerateProfileError


def profile_of(recordings):
    """Activation profile of the recordings' default-stride windows."""
    return activation_profile_from_windows([w for rec in recordings for w in slice_windows(rec)])


def window_key(w):
    return (w.subject_id, w.round, w.cycle, w.label, w.offset)


def make_rec(gesture=0, T=120, value=1, subject=1, rnd=1, cycle=1):
    samples = np.full((8, T), value, dtype=np.int64)
    return EmgRecording(subject_id=subject, round=rnd, cycle=cycle, gesture=gesture, samples=samples)


def every_file_hash(root):
    """SHA-256 over every file under ``root``: relative path then bytes, in sorted path order."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


class TestContentHash:
    def test_canonical_tree_hashes_every_file(self, small_dataset):
        assert dataset_content_hash(small_dataset) == every_file_hash(small_dataset)

    def test_only_the_files_the_loader_reads_count(self, small_dataset, tmp_path):
        root = tmp_path / "data"
        shutil.copytree(small_dataset, root)
        before = dataset_content_hash(root)
        cycle = root / "subject_1" / "round_1" / "cycle_1"
        (root / "notes.txt").write_text("not data\n")
        (cycle / "gesture_0.csv.bak").write_text("1,2,3,4,5,6,7,8\n")
        (root / "subject_1" / "gesture_0.csv").write_text("1,2,3,4,5,6,7,8\n")
        assert dataset_content_hash(root) == before
        gesture = cycle / "gesture_0.csv"
        text = gesture.read_bytes()
        gesture.write_bytes(text.replace(b"1", b"2", 1))
        assert dataset_content_hash(root) != before


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

    @pytest.mark.parametrize("T", [1, 52, 300])
    def test_saved_bytes_are_those_of_savetxt(self, tmp_path, T):
        rng = np.random.default_rng(T)
        samples = rng.integers(-128, 128, size=(8, T))
        samples[:3, 0] = (-128, 127, 0)
        path = save_recording(tmp_path, EmgRecording(1, 1, 1, 0, samples))
        np.savetxt(tmp_path / "savetxt.csv", samples.T, fmt="%d", delimiter=",")
        assert path.read_bytes() == (tmp_path / "savetxt.csv").read_bytes()

    def test_missing_manifest_fails_the_hash_as_it_fails_the_load(self, tmp_path):
        messages = []
        for read in (load_dataset, dataset_content_hash):
            with pytest.raises(DataError, match="missing manifest: ") as err:
                read(tmp_path)
            messages.append(str(err.value))
        assert messages[0] == messages[1] == f"missing manifest: {tmp_path / 'manifest.json'}"

    def test_manifest_sample_rate_other_than_200_rejected(self, tmp_path):
        write_manifest(tmp_path, ["a"])
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "sample_rate": 1000}))
        with pytest.raises(DataError, match="manifest.json: sample_rate must be 200"):
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


class TestReadOnce:
    def copy_of(self, small_dataset, tmp_path, name="data"):
        root = tmp_path / name
        shutil.copytree(small_dataset, root)
        return root

    def count_parses(self, monkeypatch):
        calls = []
        parse = dataset.read_samples

        def counted(path, data=None):
            calls.append(path)
            return parse(path, data)

        monkeypatch.setattr(dataset, "read_samples", counted)
        return calls

    def test_an_unchanged_tree_is_parsed_once(self, small_dataset, tmp_path, monkeypatch):
        root = self.copy_of(small_dataset, tmp_path)
        first = load_dataset(root)
        calls = self.count_parses(monkeypatch)
        again = load_dataset(root)
        assert calls == []
        assert again == first and again is not first
        assert all(a is not b for a, b in zip(again, first))
        assert again.sha256 == first.sha256 == dataset_content_hash(root)

    def test_a_rewritten_file_is_parsed_again(self, small_dataset, tmp_path, monkeypatch):
        root = self.copy_of(small_dataset, tmp_path)
        before = load_dataset(root)
        path = root / "subject_2" / "round_3" / "cycle_4" / "gesture_6.csv"
        rows = ["1,2,3,4,5,6,7,8"] * 60
        path.write_text("\n".join(rows) + "\n")
        calls = self.count_parses(monkeypatch)
        after = load_dataset(root)
        assert len(calls) == len(after) == len(before)
        assert after.sha256 == dataset_content_hash(root) != before.sha256
        (rec,) = [r for r in after if (r.subject_id, r.round, r.cycle, r.gesture) == (2, 3, 4, 6)]
        assert rec.samples.tolist() == [[k] * 60 for k in range(1, 9)]

    def test_the_memo_keeps_the_last_two_trees(self, small_dataset, tmp_path, monkeypatch):
        roots = [self.copy_of(small_dataset, tmp_path, name) for name in "abc"]
        for k, root in enumerate(roots[1:], 1):
            path = root / "subject_1" / "round_1" / "cycle_1" / "gesture_0.csv"
            path.write_text(path.read_text() + f"{k},0,0,0,0,0,0,0\n")
        for root in roots:
            load_dataset(root)
        calls = self.count_parses(monkeypatch)
        load_dataset(roots[2])
        load_dataset(roots[1])
        assert calls == []
        load_dataset(roots[0])
        assert len(calls) == len(load_dataset(roots[0]))

    def test_a_warm_load_holds_less_than_the_tree(self, small_dataset, tmp_path):
        # the tree's bytes were all held at once just to hash them
        root = self.copy_of(small_dataset, tmp_path)
        load_dataset(root)
        total = sum(path.stat().st_size for path in root.rglob("*") if path.is_file())
        tracemalloc.start()
        try:
            load_dataset(root)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < total

    def test_loaded_samples_are_read_only(self, small_dataset, tmp_path):
        root = self.copy_of(small_dataset, tmp_path)
        for _ in range(2):
            rec = load_dataset(root)[0]
            with pytest.raises(ValueError, match="read-only"):
                rec.samples[0, 0] = 1
            assert apply_shift(rec, 3).samples.flags.writeable

    def test_a_bad_tree_fails_alike_on_every_load(self, small_dataset, tmp_path):
        root = self.copy_of(small_dataset, tmp_path)
        (root / "subject_1" / "round_2" / "cycle_3" / "gesture_4.csv").write_text("1,2,3\n")
        messages = []
        for _ in range(2):
            with pytest.raises(DataError, match="gesture_4.csv: expected 8 columns") as err:
                load_dataset(root)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

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
            profile_of(recs)

    def test_one_hot_channel(self):
        recs = []
        for g in range(2):
            samples = np.zeros((8, 120), dtype=np.int64)
            samples[2] = 5
            recs.append(EmgRecording(1, 1, 1, g, samples))
        profile = profile_of(recs)
        expected = np.zeros(8)
        expected[2] = 1.0
        assert np.allclose(profile, np.stack([expected, expected]))

    def test_known_amplitudes_normalize(self):
        # channel c held at amplitude c+1 -> row (1..8)/36
        samples = np.tile(np.arange(1, 9, dtype=np.int64)[:, None], (1, 120))
        rec = EmgRecording(1, 1, 1, 0, samples)
        profile = profile_of([rec])
        assert np.allclose(profile[0], np.arange(1, 9) / 36.0, atol=1e-12)

    def test_missing_gesture_reported(self):
        recs = [make_rec(gesture=0), make_rec(gesture=2)]
        with pytest.raises(DataError, match=r"\[1\]"):
            profile_of(recs)

    @pytest.mark.parametrize("gestures", [range(7), [1, 4, 6]])
    def test_matches_the_window_by_window_oracle(self, small_dataset, gestures):
        windows = [
            w for rec in load_dataset(small_dataset) if rec.gesture in gestures
            for w in slice_windows(rec)
        ]
        # shuffled labels interleave the gestures' windows
        labels = np.random.default_rng(3).permutation([w.label for w in windows])
        windows = [Window(w.data, int(label), w.subject_id) for w, label in zip(windows, labels)]
        profile = activation_profile_from_windows(windows, expect_contiguous=False)
        assert profile.tobytes() == oracles.activation_profile_direct(windows).tobytes()


class TestAlignment:
    def test_identity(self, rng):
        profile = rng.random((7, 8))
        profile /= profile.sum(axis=1, keepdims=True)
        assert find_alignment(profile, profile) == 0

    def test_recovers_rotation(self, rng):
        profile = rng.random((7, 8))
        profile /= profile.sum(axis=1, keepdims=True)
        for r in range(8):
            rotated = profile[:, (np.arange(8) + r) % 8]
            s = find_alignment(profile, rotated)
            assert type(s) is int and s == (8 - r) % 8
            undone = rotated[:, (np.arange(8) + s) % 8]
            assert np.abs(profile - undone).sum() < 1e-12

    def test_tie_breaks_to_smallest_shift(self):
        # period-2 profile: shifts 0,2,4,6 all have zero cost -> pick 0
        row = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]) / 4
        profile = np.tile(row, (3, 1))
        costs = [np.abs(profile - profile[:, (np.arange(8) + s) % 8]).sum() for s in range(8)]
        assert min(costs) == costs[0]  # enumerated by hand: even shifts tie at 0
        assert find_alignment(profile, profile) == 0

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            find_alignment(np.zeros((7, 8)), np.zeros((6, 8)))


class TestApplyShift:
    def test_zero_shift_identity(self):
        rec = make_rec()
        rec.samples[3, 7] = 42
        out = apply_shift(rec, 0)
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
        reference = profile_of(recs)
        for r in range(8):
            shifted = [apply_shift(rec, r) for rec in recs]
            cand = profile_of(shifted)
            s = find_alignment(reference, cand)
            aligned = [apply_shift(rec, s) for rec in shifted]
            assert np.allclose(profile_of(aligned), reference, atol=1e-12)

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
            train_keys = {window_key(w) for w in split.train}
            test_keys = {window_key(w) for w in split.test}
            assert not train_keys & test_keys
        nina = load_dataset(ninapro_dataset)
        split = build_split(nina, "ninapro", repetitions=4)
        assert not {window_key(w) for w in split.train} & {window_key(w) for w in split.test}

    def test_too_many_cycles_errors(self, small_dataset):
        recs = [r for r in load_dataset(small_dataset) if r.subject_id == 1]
        with pytest.raises(ConfigError):
            build_split(recs, "myo-eval", cycles=5)

    def test_balanced_classes(self, small_dataset):
        recs = [r for r in load_dataset(small_dataset) if r.subject_id == 1]
        split = build_split(recs, "myo-eval", cycles=4)
        counts = np.bincount([w.label for w in split.train])
        assert len(set(counts.tolist())) == 1
