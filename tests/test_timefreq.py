import numpy as np
import pytest

import oracles
from myogest.errors import DataError
from myogest.timefreq import (
    _CWT_KEPT,
    DB7_DEC_HI,
    DB7_DEC_LO,
    _mdwt_rows,
    _wavedec,
    cwt_batch,
    hann_window,
    mdwt_from_coefficients,
    mdwt_length,
    mexican_hat,
    spectrogram_batch,
)


def one_channel(signal, channel=0):
    """A single (1, 8, 52) window holding `signal` on one channel, zeros elsewhere."""
    w = np.zeros((1, 8, 52))
    w[0, channel] = signal
    return w


class TestSpectrogram:
    def test_zero_signal(self, rng):
        w = rng.standard_normal((1, 8, 52))
        w[0, 3] = 0.0
        out = spectrogram_batch(w)
        assert out.shape == (1, 4, 8, 14)
        assert np.all(out[0, :, 3, :] == 0.0)

    def test_constant_concentrates_at_dc(self):
        # The Hann window's spectrum is not a delta: its main lobe covers the
        # DC-adjacent bin, so a constant cannot land in bin 0 alone.  What
        # does hold: bin 0 dominates, leakage decays monotonically with
        # frequency, and beyond the main lobe it is below 1e-3 of the peak.
        # The network input drops bin 0, so the full spectrum is the oracle's.
        sig = np.full(52, 3.0)
        frames = oracles.spectrogram_direct(sig, hann_window())
        got = spectrogram_batch(one_channel(sig))[0, :, 0, :]
        assert np.allclose(got, frames[:, 1:], atol=1e-9)
        assert np.all(frames[:, 0] > 0)
        assert np.all(frames[:, 0:1] > frames[:, 1:].max(axis=1, keepdims=True))
        assert np.all(np.diff(frames[:, 1:], axis=1) <= 1e-12)
        assert np.all(frames[:, 2:] <= 1e-3 * frames[:, :1])

    def test_impulse_against_direct_dft(self):
        sig = np.zeros(52)
        sig[0] = 1.0
        got = spectrogram_batch(one_channel(sig))[0, :, 0, :]
        want = oracles.spectrogram_direct(sig, hann_window())[:, 1:]
        assert np.allclose(got, want, atol=1e-12)
        assert np.abs(got[1:]).max() == 0.0  # impulse not covered by frames 1..3

    def test_random_against_direct_dft(self, rng):
        w = rng.standard_normal((1, 8, 52))
        got = spectrogram_batch(w)[0]
        for c in range(8):
            want = oracles.spectrogram_direct(w[0, c], hann_window())[:, 1:]
            assert np.allclose(got[:, c, :], want, atol=1e-9)

    def test_wrong_length(self):
        for shape in [(1, 8, 51), (1, 8, 60), (1, 4, 52), (8, 52)]:
            with pytest.raises(DataError, match="spectrogram"):
                spectrogram_batch(np.zeros(shape))

    def test_parseval_per_frame(self, rng):
        sig = rng.standard_normal(52)
        frames = spectrogram_batch(one_channel(sig))[0, :, 0, :]  # bins 1..14
        win = hann_window()
        for i in range(4):
            seg = sig[i * 8 : i * 8 + 28] * win
            dc = seg.sum() ** 2
            full = dc + 2 * frames[i, :13].sum() + frames[i, 13]
            assert abs(full - 28 * np.sum(seg**2)) <= 1e-6 * abs(28 * np.sum(seg**2))

    def test_example_shape_and_channel_independence(self, rng):
        w = one_channel(rng.standard_normal(52), channel=3)
        tensor = spectrogram_batch(w)[0]
        assert tensor.shape == (4, 8, 14)
        others = [c for c in range(8) if c != 3]
        assert np.all(tensor[:, others, :] == 0.0)
        assert np.any(tensor[:, 3, :] != 0.0)

    def test_zero_window(self):
        assert np.all(spectrogram_batch(np.zeros((1, 8, 52))) == 0.0)

    def test_quadratic_scaling(self, rng):
        w = rng.standard_normal((1, 8, 52))
        assert np.allclose(spectrogram_batch(2.0 * w), 4.0 * spectrogram_batch(w), atol=1e-9)

    def test_batch_matches_single(self, rng):
        W = rng.standard_normal((4, 8, 52))
        batch = spectrogram_batch(W)
        for n in range(4):
            assert np.array_equal(spectrogram_batch(W[n : n + 1])[0], batch[n])
            for c in range(8):
                want = oracles.spectrogram_direct(W[n, c], hann_window())[:, 1:]
                assert np.allclose(batch[n, :, c, :], want, atol=1e-9)

    def test_channel_shift_equivariance(self, rng):
        w = rng.standard_normal((1, 8, 52))
        shifted = w[:, (np.arange(8) + 3) % 8]
        assert np.allclose(
            spectrogram_batch(shifted), spectrogram_batch(w)[:, :, (np.arange(8) + 3) % 8, :]
        )


def picked(full):
    """(..., 32, 52) full transforms downsampled to cwt_batch's (..., time 12, scale 7)."""
    return np.swapaxes(full[..., ::4, ::4][..., :-1, :-1], -1, -2)


class TestCwt:
    def test_zero_signal(self, rng):
        w = rng.standard_normal((1, 8, 52))
        w[0, 5] = 0.0
        assert np.all(cwt_batch(w)[0, :, 5, :] == 0.0)

    def test_output_shape(self, rng):
        assert cwt_batch(rng.standard_normal((5, 8, 52))).shape == (5, 12, 8, 7)

    def test_impulse_gives_sampled_wavelet(self):
        sig = np.zeros(52)
        sig[26] = 1.0
        tensor = cwt_batch(one_channel(sig))[0, :, 0, :]  # (time 12, scale 7)
        for s, a in enumerate(range(1, 26, 4)):
            want = mexican_hat((np.arange(0, 48, 4) - 26) / a) / np.sqrt(a)
            assert np.allclose(tensor[:, s], want, atol=1e-12)

    def test_against_naive_convolution(self, rng):
        sig = rng.standard_normal(52)
        want = oracles.cwt_direct(sig, 32)
        assert np.allclose(oracles.cwt_bank(sig), want, atol=1e-9)
        assert np.allclose(cwt_batch(one_channel(sig))[0, :, 0, :], picked(want), atol=1e-9)

    def test_kept_bank_is_the_full_bank_sliced(self):
        # byte for byte, so transformed inputs, checkpoints and accuracies match
        # those of the full 32-scale transform sliced afterwards
        full = oracles.cwt_kernel_bank(32, 52, wavelet=mexican_hat)  # (scale, time n, sample m)
        kept = full[::4, ::4][:-1, :-1].transpose(2, 1, 0).reshape(52, -1).copy()
        assert _CWT_KEPT.shape == (52, 84)
        assert _CWT_KEPT.tobytes() == kept.tobytes()

    def test_linear_scaling(self, rng):
        w = rng.standard_normal((1, 8, 52))
        assert np.allclose(cwt_batch(2.0 * w), 2.0 * cwt_batch(w), atol=1e-9)

    def test_wrong_length(self):
        for shape in [(1, 8, 53), (1, 8, 51), (8, 52)]:
            with pytest.raises(DataError, match="cwt"):
                cwt_batch(np.zeros(shape))

    def test_example_shape(self, rng):
        assert cwt_batch(rng.standard_normal((1, 8, 52)))[0].shape == (12, 8, 7)

    def test_zero_window(self):
        assert np.all(cwt_batch(np.zeros((1, 8, 52))) == 0.0)

    def test_downsample_is_nearest_origin_zero(self):
        # ramp along time: order-0 downsample picks indices 0,4,...,48
        w = np.tile(np.arange(52.0), (1, 8, 1))
        full = oracles.cwt_bank(w[0, 0])
        tensor = cwt_batch(w)[0]
        assert np.allclose(tensor[:, 0, :], picked(full), atol=1e-12)

    def test_downsample_indices_of_plain_ramp(self):
        ramp = np.arange(52.0)
        assert np.array_equal(ramp[::4], np.arange(0, 52, 4))

    def test_batch_matches_single(self, rng):
        W = rng.standard_normal((3, 8, 52))
        batch = cwt_batch(W)
        full = oracles.cwt_bank(W)  # (3, 8, 32, 52)
        for n in range(3):
            assert np.array_equal(cwt_batch(W[n : n + 1])[0], batch[n])
            for c in range(8):
                assert np.allclose(batch[n, :, c, :], picked(full[n, c]), atol=1e-12)

    @pytest.mark.parametrize("n", [1, 128, 2000])
    def test_batch_equals_full_transform_then_slice(self, n):
        # armband-range integer samples scaled to [-1, 1], as the harness feeds them
        W = np.random.default_rng(n).integers(-128, 128, (n, 8, 52)) / 128.0
        want = picked(oracles.cwt_bank(W)).transpose(0, 2, 1, 3)  # (N, time, channel, scale)
        np.testing.assert_allclose(cwt_batch(W), want, rtol=0, atol=1e-12)

    def test_batch_rejects_wrong_window_length(self):
        with pytest.raises(DataError):
            cwt_batch(np.zeros((3, 4, 104)))

    def test_channel_shift_equivariance(self, rng):
        w = rng.standard_normal((1, 8, 52))
        shifted = w[:, (np.arange(8) + 5) % 8]
        assert np.allclose(cwt_batch(shifted), cwt_batch(w)[:, :, (np.arange(8) + 5) % 8, :])


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
        assert all(np.all(band == 0.0) for band in _wavedec(np.zeros(52)))

    def test_band_lengths_for_52(self):
        bands = _wavedec(np.zeros(52))
        assert tuple(len(b) for b in bands) == (17, 17, 22, 32)
        assert len(np.concatenate(bands)) == 88

    def test_constant_kills_details(self):
        for band in _wavedec(np.full(52, 2.5))[1:]:
            assert np.abs(band).max() < 1e-8

    def test_interior_details_vanish_for_cubic(self):
        # db7 has 7 vanishing moments; interior level-1 coefficients of a
        # cubic are zero, only extension boundaries react
        x = np.polyval([0.002, -0.01, 0.3, 1.0], np.arange(52, dtype=float))
        _, cd1 = _wavedec(x, level=1)
        interior = cd1[7:-7]
        direct = np.convolve(x, DB7_DEC_HI[::-1], mode="valid")  # no-extension reference
        assert np.abs(interior).max() < 1e-8
        assert np.abs(direct).max() < 1e-8

    def test_perfect_reconstruction(self, rng):
        for n in (52, 40, 33):
            x = rng.standard_normal(n)
            assert np.abs(oracles.idwt_db7(_wavedec(x), n) - x).max() < 1e-9


class TestMdwt:
    def test_zero_signal(self):
        out = _mdwt_rows(np.zeros(52))
        assert out.shape == (6,)
        assert np.all(out == 0.0)

    def test_matches_pseudocode_oracle(self, rng):
        for _ in range(20):
            sig = rng.standard_normal(52)
            coeffs = np.concatenate(_wavedec(sig))
            assert np.allclose(_mdwt_rows(sig), oracles.mdwt_direct(coeffs), atol=1e-9)

    def test_all_ones_prefix_sums(self):
        sig = np.ones(52)
        want = oracles.mdwt_direct(np.concatenate(_wavedec(sig)))
        assert np.allclose(_mdwt_rows(sig), want, atol=1e-12)

    def test_output_length_is_floor_log2(self):
        assert mdwt_length() == 6  # N = 88 for the 52-sample db7/level-3 cascade
        assert len(_mdwt_rows(np.ones(52))) == 6

    def test_prefix_bounds(self, rng):
        coeffs = rng.standard_normal(96)
        out = mdwt_from_coefficients(coeffs)
        assert len(out) == 6
        assert np.all(np.diff(out) <= 1e-12)  # shorter prefixes cannot exceed longer
