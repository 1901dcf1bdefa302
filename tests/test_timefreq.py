import numpy as np
import pytest

import oracles
from myogest.errors import DataError
from myogest.timefreq import (
    DB7_DEC_HI,
    DB7_DEC_LO,
    cwt_batch,
    cwt_channel,
    cwt_example,
    dwt_db7,
    hann_window,
    idwt_db7,
    mdwt,
    mdwt_from_coefficients,
    mdwt_length,
    mexican_hat,
    spectrogram_batch,
    spectrogram_channel,
    spectrogram_example,
)


class TestSpectrogram:
    def test_zero_signal(self):
        assert np.all(spectrogram_channel(np.zeros(52)) == 0.0)
        assert spectrogram_channel(np.zeros(52)).shape == (4, 15)

    def test_constant_concentrates_at_dc(self):
        # The Hann window's spectrum is not a delta: its main lobe covers the
        # DC-adjacent bin, so a constant cannot land in bin 0 alone.  What
        # does hold: bin 0 dominates, leakage decays monotonically with
        # frequency, and beyond the main lobe it is below 1e-3 of the peak.
        frames = spectrogram_channel(np.full(52, 3.0))
        assert np.all(frames[:, 0] > 0)
        assert np.all(frames[:, 0:1] > frames[:, 1:].max(axis=1, keepdims=True))
        assert np.all(np.diff(frames[:, 1:], axis=1) <= 1e-12)
        assert np.all(frames[:, 2:] <= 1e-3 * frames[:, :1])

    def test_impulse_against_direct_dft(self):
        sig = np.zeros(52)
        sig[0] = 1.0
        got = spectrogram_channel(sig)
        want = oracles.spectrogram_direct(sig, hann_window())
        assert np.allclose(got, want, atol=1e-12)
        assert np.abs(got[1:]).max() == 0.0  # impulse not covered by frames 1..3

    def test_random_against_direct_dft(self, rng):
        sig = rng.standard_normal(52)
        got = spectrogram_channel(sig)
        want = oracles.spectrogram_direct(sig, hann_window())
        assert np.allclose(got, want, atol=1e-9)

    def test_wrong_length(self):
        with pytest.raises(DataError):
            spectrogram_channel(np.zeros(51))

    def test_parseval_per_frame(self, rng):
        sig = rng.standard_normal(52)
        frames = spectrogram_channel(sig)
        win = hann_window()
        for i in range(4):
            seg = sig[i * 8 : i * 8 + 28] * win
            full = frames[i, 0] + 2 * frames[i, 1:14].sum() + frames[i, 14]
            assert abs(full - 28 * np.sum(seg**2)) <= 1e-6 * abs(28 * np.sum(seg**2))

    def test_example_shape_and_channel_independence(self, rng):
        w = np.zeros((8, 52))
        w[3] = rng.standard_normal(52)
        tensor = spectrogram_example(w)
        assert tensor.shape == (4, 8, 14)
        others = [c for c in range(8) if c != 3]
        assert np.all(tensor[:, others, :] == 0.0)
        assert np.any(tensor[:, 3, :] != 0.0)

    def test_zero_window(self):
        assert np.all(spectrogram_example(np.zeros((8, 52))) == 0.0)

    def test_quadratic_scaling(self, rng):
        w = rng.standard_normal((8, 52))
        assert np.allclose(spectrogram_example(2.0 * w), 4.0 * spectrogram_example(w), atol=1e-9)

    def test_batch_matches_single(self, rng):
        # spectrogram_example wraps spectrogram_batch, so the reference is the
        # oracle-checked per-channel transform, DC band dropped
        W = rng.standard_normal((4, 8, 52))
        batch = spectrogram_batch(W)
        for n in range(4):
            for c in range(8):
                want = spectrogram_channel(W[n, c])[:, 1:]
                assert np.allclose(batch[n, :, c, :], want, atol=1e-12)

    def test_channel_shift_equivariance(self, rng):
        w = rng.standard_normal((8, 52))
        shifted = w[(np.arange(8) + 3) % 8]
        assert np.allclose(
            spectrogram_example(shifted), spectrogram_example(w)[:, (np.arange(8) + 3) % 8, :]
        )


class TestCwt:
    def test_zero_signal(self):
        assert np.all(cwt_channel(np.zeros(52)) == 0.0)

    def test_output_shape(self, rng):
        assert cwt_channel(rng.standard_normal(52)).shape == (32, 52)

    def test_impulse_gives_sampled_wavelet(self):
        sig = np.zeros(52)
        sig[26] = 1.0
        rows = cwt_channel(sig)
        for a in (1, 4, 32):
            want = mexican_hat((np.arange(52) - 26) / a) / np.sqrt(a)
            assert np.allclose(rows[a - 1], want, atol=1e-12)

    def test_against_naive_convolution(self, rng):
        sig = rng.standard_normal(52)
        got = cwt_channel(sig)
        want = oracles.cwt_direct(sig, 32)
        assert np.allclose(got, want, atol=1e-9)

    def test_linear_scaling(self, rng):
        sig = rng.standard_normal(52)
        assert np.allclose(cwt_channel(2.0 * sig), 2.0 * cwt_channel(sig), atol=1e-9)

    def test_wrong_length(self):
        with pytest.raises(DataError):
            cwt_channel(np.zeros(53))

    def test_example_shape(self, rng):
        assert cwt_example(rng.standard_normal((8, 52))).shape == (12, 8, 7)

    def test_zero_window(self):
        assert np.all(cwt_example(np.zeros((8, 52))) == 0.0)

    def test_downsample_is_nearest_origin_zero(self, rng):
        # ramp along time: order-0 downsample picks indices 0,4,...,48
        w = np.tile(np.arange(52.0), (8, 1))
        full = cwt_channel(w[0])
        tensor = cwt_example(w)
        picked = full[::4, ::4][:-1, :-1]  # (scale 7, time 12)
        assert np.allclose(tensor[:, 0, :], picked.T, atol=1e-12)

    def test_downsample_indices_of_plain_ramp(self):
        ramp = np.arange(52.0)
        assert np.array_equal(ramp[::4], np.arange(0, 52, 4))

    def test_batch_matches_single(self, rng):
        # cwt_example wraps cwt_batch, so the reference is the oracle-checked
        # per-channel transform, downsampled by 4 with the last scale and time dropped
        W = rng.standard_normal((3, 8, 52))
        batch = cwt_batch(W)
        for n in range(3):
            for c in range(8):
                picked = cwt_channel(W[n, c])[::4, ::4][:-1, :-1]  # (scale 7, time 12)
                assert np.allclose(batch[n, :, c, :], picked.T, atol=1e-12)

    def test_channel_shift_equivariance(self, rng):
        w = rng.standard_normal((8, 52))
        shifted = w[(np.arange(8) + 5) % 8]
        assert np.allclose(cwt_example(shifted), cwt_example(w)[:, (np.arange(8) + 5) % 8, :])


class TestDwt:
    def test_filter_is_orthonormal_with_vanishing_moments(self):
        assert len(DB7_DEC_LO) == 14
        assert abs(DB7_DEC_LO.sum() - np.sqrt(2)) < 1e-12
        assert abs(np.dot(DB7_DEC_LO, DB7_DEC_LO) - 1.0) < 1e-12
        for shift in range(1, 7):
            assert abs(np.dot(DB7_DEC_LO[: -2 * shift], DB7_DEC_LO[2 * shift :])) < 1e-12
        for moment in range(7):
            acc = sum(DB7_DEC_HI[k] * k**moment for k in range(14))
            assert abs(acc) < 1e-8

    def test_zero_signal(self):
        dec = dwt_db7(np.zeros(52))
        assert np.all(dec.coefficients == 0.0)

    def test_band_lengths_for_52(self):
        dec = dwt_db7(np.zeros(52))
        assert dec.band_lengths == (17, 17, 22, 32)
        assert len(dec.coefficients) == 88

    def test_constant_kills_details(self):
        dec = dwt_db7(np.full(52, 2.5))
        for band in dec.bands()[1:]:
            assert np.abs(band).max() < 1e-8

    def test_interior_details_vanish_for_cubic(self):
        # db7 has 7 vanishing moments; interior level-1 coefficients of a
        # cubic are zero, only extension boundaries react
        x = np.polyval([0.002, -0.01, 0.3, 1.0], np.arange(52, dtype=float))
        _, cd1 = (dwt_db7(x, level=1).bands()[i] for i in (0, 1))
        interior = cd1[7:-7]
        direct = np.convolve(x, DB7_DEC_HI[::-1], mode="valid")  # no-extension reference
        assert np.abs(interior).max() < 1e-8
        assert np.abs(direct).max() < 1e-8

    def test_perfect_reconstruction(self, rng):
        for n in (52, 40, 33):
            x = rng.standard_normal(n)
            assert np.abs(idwt_db7(dwt_db7(x)) - x).max() < 1e-9

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            dwt_db7(np.array([]))


class TestMdwt:
    def test_zero_signal(self):
        out = mdwt(np.zeros(52))
        assert out.shape == (6,)
        assert np.all(out == 0.0)

    def test_matches_pseudocode_oracle(self, rng):
        for _ in range(20):
            sig = rng.standard_normal(52)
            coeffs = dwt_db7(sig).coefficients
            assert np.allclose(mdwt(sig), oracles.mdwt_direct(coeffs), atol=1e-9)

    def test_all_ones_prefix_sums(self):
        sig = np.ones(52)
        coeffs = dwt_db7(sig).coefficients
        want = oracles.mdwt_direct(coeffs)
        assert np.allclose(mdwt(sig), want, atol=1e-12)

    def test_output_length_is_floor_log2(self):
        assert mdwt_length() == 6  # N = 88 for the 52-sample db7/level-3 cascade
        assert len(mdwt(np.ones(52))) == 6

    def test_prefix_bounds(self, rng):
        coeffs = rng.standard_normal(96)
        out = mdwt_from_coefficients(coeffs)
        assert len(out) == 6
        assert np.all(np.diff(out) <= 1e-12)  # shorter prefixes cannot exceed longer
