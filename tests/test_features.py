import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from myogest.dataset import Window
from myogest.errors import ConfigError, DataError
from myogest.features import (
    FEATURE_SETS,
    FeatureConfig,
    ar_coefficients,
    assemble_feature_set,
    cepstral,
    cepstral_from_ar,
    feature_matrix,
    feature_set_length,
    hist,
    hjorth,
    iemg,
    mav,
    rms,
    sampen,
    skewness,
    ssc,
    wl,
    zc,
)
from myogest.timefreq import dwt_db7, mdwt


def random_channel(rng, n=52):
    return rng.standard_normal(n) * rng.uniform(0.5, 30.0)


class TestScalarExamples:
    def test_mav(self):
        assert mav([-2, -2, -2, -2]) == 2.0
        assert mav(np.zeros(10)) == 0.0
        assert mav([1, -2, 3, -4]) == 2.5

    def test_iemg(self):
        assert iemg([1, -2, 3]) == 6.0
        assert iemg(np.zeros(5)) == 0.0

    def test_iemg_equals_length_times_mav(self, rng):
        x = random_channel(rng)
        assert np.isclose(iemg(x), len(x) * mav(x), atol=1e-9)

    def test_rms(self):
        assert np.isclose(rms([3, 4]), np.sqrt(12.5), atol=1e-12)
        assert rms(np.zeros(7)) == 0.0

    def test_rms_activity_identity(self, rng):
        x = random_channel(rng)
        activity, _, _ = hjorth(x)
        assert np.isclose(rms(x), np.sqrt(activity + x.mean() ** 2), atol=1e-9)

    def test_wl(self):
        assert wl([0, 1, 0, 1]) == 3.0
        assert wl(np.full(9, 4.0)) == 0.0
        assert wl(np.arange(52.0)) == 51.0

    def test_ssc(self):
        assert ssc([0, 1, 0, 1, 0], 0.0) == 3
        assert ssc([0, 1, 2, 3], 0.0) == 0
        # flat steps and plateau tops are not extrema
        assert ssc(np.full(52, 5.0), 0.0) == 0
        assert ssc([1, 1, 2, 2, 1, 1], 0.0) == 0
        assert ssc([0, 2, 2, 0, 1, 0], 0.0) == 2
        with pytest.raises(DataError):
            ssc([1, 2], 0.0)

    def test_zc(self):
        assert zc([1, -1, 1, -1], 0.0) == 3
        assert zc([1, 2, 3, 0.5], 0.0) == 0

    def test_zc_zero_counts_as_positive(self):
        assert zc([0, -1], 0.0) == 1
        assert zc([0, 1], 0.0) == 0

    def test_skewness(self):
        assert skewness([1, 2, 3]) == 0.0
        assert np.isclose(skewness([0, 0, 1]), 1 / np.sqrt(2), atol=1e-12)
        assert skewness(np.full(10, 3.3)) == 0.0

    def test_hjorth_pattern(self):
        activity, mobility, complexity = hjorth([1, 3, 1, 3])
        assert activity == 1.0
        assert mobility > 0 and complexity > 0

    def test_hjorth_constant_degenerate(self):
        assert hjorth(np.full(8, 2.0)) == (0.0, 0.0, 0.0)

    def test_sampen_periodic_is_zero(self):
        x = np.tile([1.0, 2.0], 26)
        assert sampen(x) == 0.0

    def test_sampen_constant_degenerate(self):
        assert sampen(np.ones(52)) == 0.0

    def test_hist_constant_center_bin(self):
        counts = hist(np.full(52, 5.0))
        assert counts[9] == 52 and counts.sum() == 52

    def test_hist_symmetric_two_bins(self):
        x = np.tile([3.0, -3.0], 26)
        counts = hist(x)
        assert counts[6] == 26 and counts[13] == 26 and counts.sum() == 52

    def test_cepstral_recursion_values(self):
        c = cepstral_from_ar([0.5, 0.1, 0.0, 0.0], 4)
        assert np.isclose(c[0], -0.5, atol=1e-12)
        assert np.isclose(c[1], 0.025, atol=1e-12)

    def test_cepstral_zero_ar(self):
        assert np.all(cepstral_from_ar(np.zeros(4), 4) == 0.0)

    def test_cepstral_order_exceeds(self):
        with pytest.raises(ConfigError):
            cepstral_from_ar([0.1], 2)


class TestAr:
    def test_ar1_process_recovers_coefficient(self):
        x = np.array([0.5**k for k in range(400)])
        rho = ar_coefficients(x, 1)
        assert abs(rho[0] - 0.5) < 0.05

    def test_zero_signal_degenerate(self):
        assert np.all(ar_coefficients(np.zeros(52), 4) == 0.0)

    def test_order2_matches_direct_yule_walker_solve(self, rng):
        for _ in range(25):
            x = random_channel(rng)
            assert np.allclose(ar_coefficients(x, 2), oracles.ar_direct(x, 2), atol=1e-9)

    def test_order11_matches_direct_solve(self, rng):
        for _ in range(25):
            x = random_channel(rng)
            assert np.allclose(ar_coefficients(x, 11), oracles.ar_direct(x, 11), atol=1e-8)

    def test_too_short(self):
        with pytest.raises(DataError):
            ar_coefficients(np.ones(4), 4)


class TestOracleSuite:
    """Every feature equals its independent brute-force oracle (1000 windows)."""

    N_WINDOWS = 1000

    @pytest.fixture(scope="class")
    def channels(self):
        rng = np.random.default_rng(7)
        return [rng.standard_normal(52) * rng.uniform(0.2, 50.0) for _ in range(self.N_WINDOWS)]

    def test_mav(self, channels):
        for x in channels:
            assert abs(mav(x) - oracles.mav_direct(x)) < 1e-9

    def test_iemg(self, channels):
        for x in channels:
            assert abs(iemg(x) - oracles.iemg_direct(x)) < 1e-9

    def test_rms(self, channels):
        for x in channels:
            assert abs(rms(x) - oracles.rms_direct(x)) < 1e-9

    def test_wl(self, channels):
        for x in channels:
            assert abs(wl(x) - oracles.wl_direct(x)) < 1e-9

    def test_ssc(self, channels):
        for x in channels:
            assert ssc(x, 0.5) == oracles.ssc_direct(x, 0.5)
            assert ssc(x, 0.0) == oracles.ssc_direct(x, 0.0)

    def test_zc(self, channels):
        for x in channels:
            assert zc(x, 0.3) == oracles.zc_direct(x, 0.3)
            assert zc(x, 0.0) == oracles.zc_direct(x, 0.0)

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
            assert ssc(x, 0.5) == oracles.ssc_direct(x, 0.5)
            assert ssc(x, 0.0) == oracles.ssc_direct(x, 0.0)

    def test_zc_integer(self, int_channels):
        for x in int_channels:
            assert zc(x, 0.3) == oracles.zc_direct(x, 0.3)
            assert zc(x, 0.0) == oracles.zc_direct(x, 0.0)

    def test_skewness_integer(self, int_channels):
        for x in int_channels:
            assert abs(skewness(x) - oracles.skewness_direct(x)) < 1e-9
            # negating the signal negates every deviation, so the sign flips exactly
            assert skewness(-x) == -skewness(x)

    def test_skewness(self, channels):
        for x in channels:
            assert abs(skewness(x) - oracles.skewness_direct(x)) < 1e-9

    def test_hjorth(self, channels):
        for x in channels:
            got = hjorth(x)
            want = oracles.hjorth_direct(x)
            assert np.allclose(got, want, atol=1e-9)

    def test_ar(self, channels):
        for x in channels[:200]:
            assert np.allclose(ar_coefficients(x, 11), oracles.ar_direct(x, 11), atol=1e-8)

    def test_cepstral(self, channels):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = rng.uniform(-0.9, 0.9, 4)
            assert np.allclose(cepstral_from_ar(a, 4), oracles.cepstral_direct(a, 4), atol=1e-12)
        for x in channels[:100]:
            assert np.allclose(cepstral(x, 4), oracles.cepstral_direct(ar_coefficients(x, 4), 4), atol=1e-9)

    def test_sampen(self, channels):
        for x in channels[:120]:
            assert abs(sampen(x) - oracles.sampen_direct(x)) < 1e-6

    def test_hist(self, channels):
        for x in channels[:300]:
            assert np.array_equal(hist(x), oracles.hist_direct(x))

    def test_mdwt(self, channels):
        from myogest.timefreq import dwt_db7

        for x in channels[:300]:
            assert np.allclose(mdwt(x), oracles.mdwt_direct(dwt_db7(x).coefficients), atol=1e-9)


class TestScalingProperties:
    ALPHA = 3.0

    def test_linear_features_scale(self, rng):
        x = random_channel(rng)
        for fn in (mav, rms, wl, iemg):
            assert np.isclose(fn(self.ALPHA * x), self.ALPHA * fn(x), atol=1e-9)

    def test_scale_invariant_features(self, rng):
        x = random_channel(rng)
        assert zc(self.ALPHA * x, 0.0) == zc(x, 0.0)
        assert ssc(self.ALPHA * x, 0.0) == ssc(x, 0.0)
        assert np.isclose(skewness(self.ALPHA * x), skewness(x), atol=1e-9)
        assert np.isclose(sampen(self.ALPHA * x), sampen(x), atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_hist_scale_invariant(self, seed):
        x = np.random.default_rng(seed).standard_normal(52)
        if np.std(x) == 0:
            return
        assert np.array_equal(hist(self.ALPHA * x), hist(x))


class TestAssemble:
    def make_window(self, rng=None, data=None):
        if data is None:
            data = rng.standard_normal((8, 52)) * 10
        return Window(data=data, label=0, subject_id=1)

    def test_td_zero_window(self):
        fv = assemble_feature_set(self.make_window(data=np.zeros((8, 52))), "TD")
        assert len(fv.values) == 32
        assert np.all(fv.values == 0.0)

    def test_enhanced_td_length(self, rng):
        fv = assemble_feature_set(self.make_window(rng), "EnhancedTD")
        assert len(fv.values) == (4 + 1 + 1 + 1 + 11 + 3) * 8 == 168
        assert feature_set_length("EnhancedTD") == 168

    def test_ninapro_length(self, rng):
        fv = assemble_feature_set(self.make_window(rng), "NinaPro")
        assert len(fv.values) == (1 + 6 + 20 + 4) * 8 == 248

    def test_sampen_pipeline_length(self, rng):
        fv = assemble_feature_set(self.make_window(rng), "SampEnPipeline")
        assert len(fv.values) == (1 + 4 + 1 + 1) * 8 == 56

    def test_layout_unique_and_covering(self, rng):
        for name in ("TD", "EnhancedTD", "NinaPro", "SampEnPipeline"):
            fv = assemble_feature_set(self.make_window(rng), name)
            assert len(set(fv.layout)) == len(fv.layout) == len(fv.values)

    def test_degenerate_flags_propagate(self):
        fv = assemble_feature_set(self.make_window(data=np.zeros((8, 52))), "EnhancedTD")
        assert ("skewness", 0, "zero variance") in fv.flags
        assert len(fv.flags) == 3 * 8

    def test_channel_permutation_permutes_blocks(self, rng):
        data = rng.standard_normal((8, 52))
        perm = (np.arange(8) + 3) % 8
        base = assemble_feature_set(self.make_window(data=data), "TD")
        swapped = assemble_feature_set(self.make_window(data=data[perm]), "TD")
        for out_ch in range(8):
            src_ch = perm[out_ch]
            for i, (name, ch, _) in enumerate(base.layout):
                if ch == src_ch:
                    j = base.layout.index((name, out_ch, 0))
                    assert swapped.values[j] == base.values[i]

    def test_unknown_set(self, rng):
        with pytest.raises(ConfigError):
            assemble_feature_set(self.make_window(rng), "Bogus")

    def test_feature_matrix_shape(self, rng):
        ws = [self.make_window(rng) for _ in range(5)]
        M, layout = feature_matrix(ws, "TD")
        assert M.shape == (5, 32) and len(layout) == 32


CFG = FeatureConfig()


class TestFeatureMatrix:
    """The batched path against single windows and the oracles, window by window.

    77 windows are not a multiple of the chunk size; window 40 has one zero
    channel and window 41 is constant.  Even windows are int8-range integers
    (ties abound), odd ones Gaussian.
    """

    N_WINDOWS, ZERO_WINDOW, ZERO_CHANNEL, CONSTANT_WINDOW = 77, 40, 5, 41
    ORACLES = {
        "mav": oracles.mav_direct,
        "iemg": oracles.iemg_direct,
        "rms": oracles.rms_direct,
        "wl": oracles.wl_direct,
        "zc": lambda x: oracles.zc_direct(x, CFG.epsilon_zc),
        "ssc": lambda x: oracles.ssc_direct(x, CFG.epsilon_ssc),
        "skewness": oracles.skewness_direct,
        "hjorth": oracles.hjorth_direct,
        "ar": lambda x: oracles.ar_direct(x, CFG.ar_order),
        "mdwt": lambda x: oracles.mdwt_direct(dwt_db7(x).coefficients),
        "hist": lambda x: oracles.hist_direct(x, CFG.hist_bins, CFG.hist_threshold),
        "sampen": lambda x: oracles.sampen_direct(x, CFG.sampen_m, CFG.sampen_r_coeff),
        "cepstral": lambda x: oracles.cepstral_direct(
            oracles.ar_direct(x, CFG.cepstral_order), CFG.cepstral_order
        ),
    }
    COUNTS = {"zc", "ssc", "hist"}

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
        assert M.shape == (self.N_WINDOWS, feature_set_length(set_name))
        for n, w in enumerate(windows):
            row, row_layout = feature_matrix([w], set_name)
            assert row_layout == layout
            assert np.array_equal(row[0], M[n])

    @pytest.mark.parametrize("set_name", FEATURE_SETS)
    def test_columns_equal_oracles(self, windows, oracle_values, set_name):
        M, layout = feature_matrix(windows, set_name)
        for col, (name, ch, i) in enumerate(layout):
            want = np.array([oracle_values(name, n, ch)[i] for n in range(self.N_WINDOWS)])
            if name in self.COUNTS:
                assert np.array_equal(M[:, col], want), (name, ch, i)
            else:
                tol = 1e-8 if name == "ar" else 1e-9
                assert np.allclose(M[:, col], want, rtol=0, atol=tol), (name, ch, i)

    def test_degenerate_flags(self, windows):
        zero, constant = windows[self.ZERO_WINDOW], windows[self.CONSTANT_WINDOW]
        assert assemble_feature_set(zero, "TD").flags == []
        assert assemble_feature_set(zero, "EnhancedTD").flags == [
            ("skewness", 5, "zero variance"),
            ("hjorth", 5, "zero variance"),
            ("ar", 5, "zero variance"),
        ]
        assert assemble_feature_set(constant, "NinaPro").flags == [
            ("hist", ch, "zero variance") for ch in range(8)
        ]
        assert assemble_feature_set(constant, "SampEnPipeline").flags == [
            (name, ch, "zero variance") for ch in range(8) for name in ("sampen", "cepstral")
        ]

    def test_assembled_vector_is_the_matrix_row(self, windows):
        for set_name in FEATURE_SETS:
            M, layout = feature_matrix(windows, set_name)
            for n in (0, self.ZERO_WINDOW, self.CONSTANT_WINDOW, self.N_WINDOWS - 1):
                fv = assemble_feature_set(windows[n], set_name)
                assert fv.layout == layout
                assert np.array_equal(fv.values, M[n])

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
