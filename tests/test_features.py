import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from myogest.dataset import Window
from myogest import features
from myogest.errors import ConfigError, DataError
from myogest.features import (
    FEATURE_SETS,
    _ar,
    _cepstral,
    _cepstral_from_ar,
    _hist,
    _hjorth,
    _iemg,
    _mav,
    _rms,
    _sampen,
    _skewness,
    _ssc,
    _wl,
    _zc,
    feature_matrix,
)
from myogest.timefreq import _mdwt_rows, _wavedec


def one(kernel, x, *args):
    """A row kernel on a single channel."""
    return kernel(np.asarray(x, dtype=np.float64)[None], *args)[0]


def random_channel(rng, n=52):
    return rng.standard_normal(n) * rng.uniform(0.5, 30.0)


class TestScalarExamples:
    def test_mav(self):
        assert one(_mav, [-2, -2, -2, -2]) == 2.0
        assert one(_mav, np.zeros(10)) == 0.0
        assert one(_mav, [1, -2, 3, -4]) == 2.5

    def test_iemg(self):
        assert one(_iemg, [1, -2, 3]) == 6.0
        assert one(_iemg, np.zeros(5)) == 0.0

    def test_iemg_equals_length_times_mav(self, rng):
        x = random_channel(rng)
        assert np.isclose(one(_iemg, x), len(x) * one(_mav, x), atol=1e-9)

    def test_rms(self):
        assert np.isclose(one(_rms, [3, 4]), np.sqrt(12.5), atol=1e-12)
        assert one(_rms, np.zeros(7)) == 0.0

    def test_rms_activity_identity(self, rng):
        x = random_channel(rng)
        activity, _, _ = one(_hjorth, x)
        assert np.isclose(one(_rms, x), np.sqrt(activity + x.mean() ** 2), atol=1e-9)

    def test_wl(self):
        assert one(_wl, [0, 1, 0, 1]) == 3.0
        assert one(_wl, np.full(9, 4.0)) == 0.0
        assert one(_wl, np.arange(52.0)) == 51.0

    def test_ssc(self):
        assert one(_ssc, [0, 1, 0, 1, 0], 0.0) == 3
        assert one(_ssc, [0, 1, 2, 3], 0.0) == 0
        # flat steps and plateau tops are not extrema
        assert one(_ssc, np.full(52, 5.0), 0.0) == 0
        assert one(_ssc, [1, 1, 2, 2, 1, 1], 0.0) == 0
        assert one(_ssc, [0, 2, 2, 0, 1, 0], 0.0) == 2
        with pytest.raises(DataError):
            one(_ssc, [1, 2], 0.0)

    def test_zc(self):
        assert one(_zc, [1, -1, 1, -1], 0.0) == 3
        assert one(_zc, [1, 2, 3, 0.5], 0.0) == 0

    def test_zc_zero_counts_as_positive(self):
        assert one(_zc, [0, -1], 0.0) == 1
        assert one(_zc, [0, 1], 0.0) == 0

    def test_skewness(self):
        assert one(_skewness, [1, 2, 3]) == 0.0
        assert np.isclose(one(_skewness, [0, 0, 1]), 1 / np.sqrt(2), atol=1e-12)
        assert one(_skewness, np.full(10, 3.3)) == 0.0

    def test_hjorth_pattern(self):
        activity, mobility, complexity = one(_hjorth, [1, 3, 1, 3])
        assert activity == 1.0
        assert mobility > 0 and complexity > 0

    def test_hjorth_constant_degenerate(self):
        assert tuple(one(_hjorth, np.full(8, 2.0))) == (0.0, 0.0, 0.0)

    def test_sampen_periodic_is_zero(self):
        x = np.tile([1.0, 2.0], 26)
        assert one(_sampen, x, 2, 0.2) == 0.0

    def test_sampen_constant_degenerate(self):
        assert one(_sampen, np.ones(52), 2, 0.2) == 0.0

    def test_sampen_caps_without_matches(self):
        # 2 templates, 2 ordered pairs: no 2-sample match (B = 0) gives ln 2
        assert one(_sampen, [0.0, 1.0, 0.0, -1.0], 2, 0.2) == np.log(2)
        # 3 templates, 6 ordered pairs: B = 2 but A = 0 gives ln 2 + ln 6
        assert one(_sampen, [0.0, 0.0, 0.0, 9.0, -9.0], 2, 0.2) == np.log(2) + np.log(6)

    def test_sampen_distance_equal_to_r_is_a_match(self):
        # 26 zeros and 26 ones: sigma = 0.5 and r = 2 * 0.5 = 1 exactly, so every pair matches
        x = np.random.default_rng(0).permutation(np.resize([0.0, 1.0], 52))
        assert one(_sampen, x, 2, 2.0) == oracles.sampen_direct(x, 2, 2.0) == 0.0

    def test_hist_constant_center_bin(self):
        counts = one(_hist, np.full(52, 5.0), 20, 3.0)
        assert counts[9] == 52 and counts.sum() == 52

    def test_hist_symmetric_two_bins(self):
        x = np.tile([3.0, -3.0], 26)
        counts = one(_hist, x, 20, 3.0)
        assert counts[6] == 26 and counts[13] == 26 and counts.sum() == 52

    def test_cepstral_recursion_values(self):
        c = one(_cepstral_from_ar, [0.5, 0.1, 0.0, 0.0], 4)
        assert np.isclose(c[0], -0.5, atol=1e-12)
        assert np.isclose(c[1], 0.025, atol=1e-12)

    def test_cepstral_zero_ar(self):
        assert np.all(one(_cepstral_from_ar, np.zeros(4), 4) == 0.0)


class TestAr:
    def test_ar1_process_recovers_coefficient(self):
        x = np.array([0.5**k for k in range(400)])
        rho = one(_ar, x, 1)
        assert abs(rho[0] - 0.5) < 0.05

    def test_zero_signal_degenerate(self):
        assert np.all(one(_ar, np.zeros(52), 4) == 0.0)

    def test_order2_matches_direct_yule_walker_solve(self, rng):
        for _ in range(25):
            x = random_channel(rng)
            assert np.allclose(one(_ar, x, 2), oracles.ar_direct(x, 2), atol=1e-9)

    def test_order11_matches_direct_solve(self, rng):
        for _ in range(25):
            x = random_channel(rng)
            assert np.allclose(one(_ar, x, 11), oracles.ar_direct(x, 11), atol=1e-8)

    def test_too_short(self):
        with pytest.raises(DataError):
            one(_ar, np.ones(4), 4)


class TestOracleSuite:
    """Every feature equals its independent brute-force oracle (1000 windows)."""

    N_WINDOWS = 1000

    @pytest.fixture(scope="class")
    def channels(self):
        rng = np.random.default_rng(7)
        return [rng.standard_normal(52) * rng.uniform(0.2, 50.0) for _ in range(self.N_WINDOWS)]

    def test_mav(self, channels):
        for x in channels:
            assert abs(one(_mav, x) - oracles.mav_direct(x)) < 1e-9

    def test_iemg(self, channels):
        for x in channels:
            assert abs(one(_iemg, x) - oracles.iemg_direct(x)) < 1e-9

    def test_rms(self, channels):
        for x in channels:
            assert abs(one(_rms, x) - oracles.rms_direct(x)) < 1e-9

    def test_wl(self, channels):
        for x in channels:
            assert abs(one(_wl, x) - oracles.wl_direct(x)) < 1e-9

    def test_ssc(self, channels):
        for x in channels:
            assert one(_ssc, x, 0.5) == oracles.ssc_direct(x, 0.5)
            assert one(_ssc, x, 0.0) == oracles.ssc_direct(x, 0.0)

    def test_zc(self, channels):
        for x in channels:
            assert one(_zc, x, 0.3) == oracles.zc_direct(x, 0.3)
            assert one(_zc, x, 0.0) == oracles.zc_direct(x, 0.0)

    @pytest.fixture(scope="class")
    def int_channels(self):
        """Myo int8-range windows: rounded Gaussians, so ties and exact sums abound."""
        rng = np.random.default_rng(8)
        return [
            np.clip(np.rint(rng.standard_normal(52) * rng.uniform(0.5, 60.0)), -128, 127)
            for _ in range(self.N_WINDOWS)
        ]

    def test_ssc_integer(self, int_channels):
        for x in int_channels:
            assert one(_ssc, x, 0.5) == oracles.ssc_direct(x, 0.5)
            assert one(_ssc, x, 0.0) == oracles.ssc_direct(x, 0.0)

    def test_zc_integer(self, int_channels):
        for x in int_channels:
            assert one(_zc, x, 0.3) == oracles.zc_direct(x, 0.3)
            assert one(_zc, x, 0.0) == oracles.zc_direct(x, 0.0)

    def test_skewness_integer(self, int_channels):
        for x in int_channels:
            assert abs(one(_skewness, x) - oracles.skewness_direct(x)) < 1e-9
            # negating the signal negates every deviation, so the sign flips exactly
            assert one(_skewness, -x) == -one(_skewness, x)

    def test_skewness(self, channels):
        for x in channels:
            assert abs(one(_skewness, x) - oracles.skewness_direct(x)) < 1e-9

    def test_hjorth(self, channels):
        for x in channels:
            got = one(_hjorth, x)
            want = oracles.hjorth_direct(x)
            assert np.allclose(got, want, atol=1e-9)

    def test_ar(self, channels):
        for x in channels[:200]:
            assert np.allclose(one(_ar, x, 11), oracles.ar_direct(x, 11), atol=1e-8)

    def test_cepstral(self, channels):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = rng.uniform(-0.9, 0.9, 4)
            want = oracles.cepstral_direct(a, 4)
            assert np.allclose(one(_cepstral_from_ar, a, 4), want, atol=1e-12)
        for x in channels[:100]:
            want = oracles.cepstral_direct(one(_ar, x, 4), 4)
            assert np.allclose(one(_cepstral, x, 4), want, atol=1e-9)

    def test_sampen(self, channels):
        # the match counts are exact integers, so the value is too
        for x in channels[:300]:
            assert one(_sampen, x, 2, 0.2) == oracles.sampen_direct(x)

    def test_sampen_integer(self, int_channels):
        for x in int_channels[:300]:
            assert one(_sampen, x, 2, 0.2) == oracles.sampen_direct(x)

    @pytest.mark.parametrize("m", [1, 3])
    def test_sampen_other_template_lengths(self, channels, int_channels, m):
        for x in channels[:20] + int_channels[:20]:
            assert one(_sampen, x, m, 0.2) == oracles.sampen_direct(x, m, 0.2)

    def test_sampen_block_with_walk_extremes(self, channels, int_channels):
        """Rows that end the sorted walk at once, at its last offset, or never
        start it, in one block: each equals its oracle and its one-row value."""
        step = np.zeros(52)
        step[-2:] = [5.0, -5.0]  # 50 equal first coordinates: the walk reaches k = 49
        ties = np.resize([0.0, 1.0, 0.0, -1.0], 52)  # r = 0.14: only exact ties match
        spread = np.arange(52.0) ** 3  # no first coordinates within r but neighbours
        nan = channels[3].copy()
        nan[17] = np.nan
        block = np.stack([channels[0], np.zeros(52), step, int_channels[1], np.full(52, 7.0),
                          ties, spread, nan, channels[2]])
        got = _sampen(block, 2, 0.2)
        for row, value in zip(block, got):
            assert value == oracles.sampen_direct(row) == one(_sampen, row, 2, 0.2)

    def test_hist(self, channels):
        for x in channels[:300]:
            assert np.array_equal(one(_hist, x, 20, 3.0), oracles.hist_direct(x))

    def test_mdwt(self, channels):
        for x in channels[:300]:
            want = oracles.mdwt_direct(np.concatenate(_wavedec(x)))
            assert np.allclose(_mdwt_rows(x), want, atol=1e-9)


class TestScalingProperties:
    ALPHA = 3.0

    def test_linear_features_scale(self, rng):
        x = random_channel(rng)
        for kernel in (_mav, _rms, _wl, _iemg):
            assert np.isclose(one(kernel, self.ALPHA * x), self.ALPHA * one(kernel, x), atol=1e-9)

    def test_scale_invariant_features(self, rng):
        x = random_channel(rng)
        assert one(_zc, self.ALPHA * x, 0.0) == one(_zc, x, 0.0)
        assert one(_ssc, self.ALPHA * x, 0.0) == one(_ssc, x, 0.0)
        assert np.isclose(one(_skewness, self.ALPHA * x), one(_skewness, x), atol=1e-9)
        assert np.isclose(one(_sampen, self.ALPHA * x, 2, 0.2), one(_sampen, x, 2, 0.2), atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_hist_scale_invariant(self, seed):
        x = np.random.default_rng(seed).standard_normal(52)
        if np.std(x) == 0:
            return
        assert np.array_equal(one(_hist, self.ALPHA * x, 20, 3.0), one(_hist, x, 20, 3.0))


class TestAssemble:
    """One window's feature vector: the single row of its feature matrix."""

    def make_window(self, rng=None, data=None):
        if data is None:
            data = rng.standard_normal((8, 52)) * 10
        return Window(data=data, label=0, subject_id=1)

    def vector(self, window, set_name):
        matrix, layout = feature_matrix([window], set_name)
        return matrix[0], layout

    def test_td_zero_window(self):
        values, _ = self.vector(self.make_window(data=np.zeros((8, 52))), "TD")
        assert len(values) == 32
        assert np.all(values == 0.0)

    def test_enhanced_td_length(self, rng):
        values, _ = self.vector(self.make_window(rng), "EnhancedTD")
        assert len(values) == (4 + 1 + 1 + 1 + 11 + 3) * 8 == 168

    def test_ninapro_length(self, rng):
        values, _ = self.vector(self.make_window(rng), "NinaPro")
        assert len(values) == (1 + 6 + 20 + 4) * 8 == 248

    def test_sampen_pipeline_length(self, rng):
        values, _ = self.vector(self.make_window(rng), "SampEnPipeline")
        assert len(values) == (1 + 4 + 1 + 1) * 8 == 56

    def test_layout_unique_and_covering(self, rng):
        for name in FEATURE_SETS:
            values, layout = self.vector(self.make_window(rng), name)
            assert len(set(layout)) == len(layout) == len(values)

    def test_layout_is_a_fresh_list_per_call(self, rng):
        _, layout = self.vector(self.make_window(rng), "TD")
        expected = list(layout)
        layout.clear()
        assert self.vector(self.make_window(rng), "TD")[1] == expected

    def test_channel_permutation_permutes_blocks(self, rng):
        data = rng.standard_normal((8, 52))
        perm = (np.arange(8) + 3) % 8
        base, layout = self.vector(self.make_window(data=data), "TD")
        swapped, _ = self.vector(self.make_window(data=data[perm]), "TD")
        for out_ch in range(8):
            src_ch = perm[out_ch]
            for i, (name, ch, _) in enumerate(layout):
                if ch == src_ch:
                    j = layout.index((name, out_ch, 0))
                    assert swapped[j] == base[i]

    def test_unknown_set(self, rng):
        with pytest.raises(ConfigError):
            feature_matrix([self.make_window(rng)], "Bogus")

    def test_feature_matrix_shape(self, rng):
        ws = [self.make_window(rng) for _ in range(5)]
        M, layout = feature_matrix(ws, "TD")
        assert M.shape == (5, 32) and len(layout) == 32


class TestFeatureMatrix:
    """The batched path against single windows and the oracles, window by window.

    Window 40 has one zero channel and window 41 is constant.  Even windows
    are int8-range integers (ties abound), odd ones Gaussian.
    """

    N_WINDOWS, ZERO_WINDOW, ZERO_CHANNEL, CONSTANT_WINDOW = 77, 40, 5, 41
    # the paper's parameters: eps 0, AR order 11, 20 bins at +/-3 sigma,
    # SampEn m = 2 and r = 0.2 sigma, 4 cepstral coefficients
    ORACLES = {
        "mav": oracles.mav_direct,
        "iemg": oracles.iemg_direct,
        "rms": oracles.rms_direct,
        "wl": oracles.wl_direct,
        "zc": lambda x: oracles.zc_direct(x, 0.0),
        "ssc": lambda x: oracles.ssc_direct(x, 0.0),
        "skewness": oracles.skewness_direct,
        "hjorth": oracles.hjorth_direct,
        "ar": lambda x: oracles.ar_direct(x, 11),
        "mdwt": lambda x: oracles.mdwt_direct(np.concatenate(_wavedec(x))),
        "hist": lambda x: oracles.hist_direct(x, 20, 3.0),
        "sampen": lambda x: oracles.sampen_direct(x, 2, 0.2),
        "cepstral": lambda x: oracles.cepstral_direct(oracles.ar_direct(x, 4), 4),
    }
    WIDTHS = {"TD": 32, "EnhancedTD": 168, "NinaPro": 248, "SampEnPipeline": 56}
    # integer counts, and SampEn, whose value is a function of two counts
    EXACT = {"zc", "ssc", "hist", "sampen"}

    @pytest.fixture(scope="class")
    def windows(self):
        rng = np.random.default_rng(41)
        scale = rng.uniform(0.5, 60.0, (self.N_WINDOWS, 1, 1))
        data = rng.standard_normal((self.N_WINDOWS, 8, 52)) * scale
        data[::2] = np.clip(np.rint(data[::2]), -128, 127)
        data[self.ZERO_WINDOW, self.ZERO_CHANNEL] = 0.0
        data[self.CONSTANT_WINDOW] = 7.0
        return [Window(data=d, label=0, subject_id=1) for d in data]

    @pytest.fixture(scope="class")
    def oracle_values(self, windows):
        """(feature, window, channel) -> oracle values, computed once for every set."""
        cache = {}

        def get(name, n, ch):
            if (name, n, ch) not in cache:
                cache[name, n, ch] = np.atleast_1d(self.ORACLES[name](windows[n].data[ch]))
            return cache[name, n, ch]

        return get

    @pytest.mark.parametrize("set_name", FEATURE_SETS)
    def test_rows_equal_single_window_matrices(self, windows, set_name):
        M, layout = feature_matrix(windows, set_name)
        assert M.shape == (self.N_WINDOWS, self.WIDTHS[set_name])
        for n, w in enumerate(windows):
            row, row_layout = feature_matrix([w], set_name)
            assert row_layout == layout
            assert np.array_equal(row[0], M[n])

    @pytest.mark.parametrize("set_name", FEATURE_SETS)
    def test_columns_equal_oracles(self, windows, oracle_values, set_name):
        M, layout = feature_matrix(windows, set_name)
        for col, (name, ch, i) in enumerate(layout):
            want = np.array([oracle_values(name, n, ch)[i] for n in range(self.N_WINDOWS)])
            if name in self.EXACT:
                assert np.array_equal(M[:, col], want), (name, ch, i)
            else:
                tol = 1e-8 if name == "ar" else 1e-9
                assert np.allclose(M[:, col], want, rtol=0, atol=tol), (name, ch, i)

    @pytest.mark.parametrize("set_name", FEATURE_SETS)
    def test_any_chunk_size_gives_the_same_matrix(self, windows, set_name, monkeypatch):
        """Chunks of 5 leave a short last chunk of 2 windows, and SampEn's
        sorted walk ends at a different offset in each chunk."""
        M, _ = feature_matrix(windows, set_name)
        monkeypatch.setattr(features, "_CHUNK", 5)
        assert feature_matrix(windows, set_name)[0].tobytes() == M.tobytes()

    def test_mixed_lengths_rejected(self, windows):
        short = Window(data=np.ones((8, 40)), label=0, subject_id=1)
        with pytest.raises(DataError, match="one length"):
            feature_matrix(windows[:3] + [short], "TD")

    def test_ninapro_needs_52_samples(self):
        with pytest.raises(DataError, match="mdwt"):
            feature_matrix([Window(data=np.ones((8, 60)), label=0, subject_id=1)], "NinaPro")

    def test_non_8_channel_window_rejected(self, windows):
        with pytest.raises(DataError, match="8-channel"):
            feature_matrix(windows[:40] + [np.ones((7, 52))], "TD")
