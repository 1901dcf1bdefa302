"""Time-frequency transforms: STFT spectrogram, Mexican Hat CWT and db7 DWT.

All three operate channel-wise on 52-sample windows and never mix channels.
The spectrogram uses Hann windows of length 28 hopped by 8 (4 fully interior
frames, 15 rfft bins); dropping the DC band gives the 4x8x14 network input.
The CWT uses 32 integer scales of the Mexican Hat wavelet; an order-0
downsample by 4 on both axes, then dropping the last scale row and time
column, gives the 12x8x7 input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import WINDOW_LENGTH
from .errors import DataError

# STFT geometry
STFT_WIN = 28
STFT_HOP = 8
STFT_FRAMES = 4
STFT_BINS = STFT_WIN // 2 + 1

# CWT geometry
CWT_SCALES = 32

# db7 decomposition low-pass filter (14 taps, ascending index), standard
# orthonormal Daubechies tabulation: sum = sqrt(2), unit L2 norm, and the
# quadrature mirror has 7 vanishing moments.
DB7_DEC_LO = np.array(
    [
        3.537137999745202e-04,
        -1.801640704047491e-03,
        4.295779729213665e-04,
        1.255099855609984e-02,
        -1.657454163066688e-02,
        -3.802993693501441e-02,
        8.061260915108307e-02,
        7.130921926683026e-02,
        -2.240361849938750e-01,
        -1.439060039285650e-01,
        4.697822874051931e-01,
        7.291320908462351e-01,
        3.965393194819173e-01,
        7.785205408500918e-02,
    ]
)
DB7_DEC_HI = np.array(
    [(-1) ** k * DB7_DEC_LO[len(DB7_DEC_LO) - 1 - k] for k in range(len(DB7_DEC_LO))]
)
DB7_REC_LO = DB7_DEC_LO[::-1].copy()
DB7_REC_HI = DB7_DEC_HI[::-1].copy()
DWT_LEVEL = 3


def hann_window(n: int = STFT_WIN) -> np.ndarray:
    """Symmetric Hann window, w[k] = 0.5 (1 - cos(2 pi k / (n-1)))."""
    return np.hanning(n)


def spectrogram_channel(signal: np.ndarray) -> np.ndarray:
    """Squared-magnitude STFT of one channel: 4 frames x 15 bins."""
    signal = np.asarray(signal, dtype=np.float64)
    if signal.shape != (WINDOW_LENGTH,):
        raise DataError(f"spectrogram expects length {WINDOW_LENGTH}, got {signal.shape}")
    win = hann_window()
    frames = np.empty((STFT_FRAMES, STFT_BINS))
    for i in range(STFT_FRAMES):
        seg = signal[i * STFT_HOP : i * STFT_HOP + STFT_WIN] * win
        frames[i] = np.abs(np.fft.rfft(seg)) ** 2
    return frames


def spectrogram_example(window_data: np.ndarray) -> np.ndarray:
    """Stack per-channel spectrograms, DC band removed: (time 4, channel 8, freq 14)."""
    return spectrogram_batch(_one_window(window_data)[None])[0]


def _one_window(window_data: np.ndarray) -> np.ndarray:
    window_data = np.asarray(window_data, dtype=np.float64)
    if window_data.shape != (8, WINDOW_LENGTH):
        raise DataError(f"expected 8x{WINDOW_LENGTH} window, got {window_data.shape}")
    return window_data


def mexican_hat(t: np.ndarray) -> np.ndarray:
    """psi(t) = 2 / (sqrt(3) pi^(1/4)) (1 - t^2) exp(-t^2 / 2)."""
    t = np.asarray(t, dtype=np.float64)
    norm = 2.0 / (np.sqrt(3.0) * np.pi**0.25)
    return norm * (1.0 - t**2) * np.exp(-(t**2) / 2.0)


def _cwt_kernel_bank(length: int = WINDOW_LENGTH, scales: int = CWT_SCALES) -> np.ndarray:
    """Precomputed (scales, length, length) bank: row a is conv with psi_a.

    K[a, n, m] = psi((m - n) / a) / sqrt(a), i.e. the wavelet at scale a
    centered on output position n, zero outside the window (zero padding).
    """
    offsets = np.subtract.outer(np.arange(length), np.arange(length))  # n - m
    bank = np.empty((scales, length, length))
    for a in range(1, scales + 1):
        bank[a - 1] = mexican_hat(offsets / a) / np.sqrt(a)
    return bank


_CWT_BANK = _cwt_kernel_bank()


def cwt_channel(signal: np.ndarray, scales: int = CWT_SCALES) -> np.ndarray:
    """Mexican Hat CWT of one channel: (32 scales, 52 translations)."""
    signal = np.asarray(signal, dtype=np.float64)
    if signal.shape != (WINDOW_LENGTH,):
        raise DataError(f"cwt expects length {WINDOW_LENGTH}, got {signal.shape}")
    bank = _CWT_BANK if scales == CWT_SCALES else _cwt_kernel_bank(WINDOW_LENGTH, scales)
    return bank @ signal


def cwt_example(window_data: np.ndarray) -> np.ndarray:
    """CWT tensor for one window: (time 12, channel 8, scale 7)."""
    return cwt_batch(_one_window(window_data)[None])[0]


def spectrogram_batch(windows: np.ndarray) -> np.ndarray:
    """Spectrogram tensors of (N, 8, 52) windows -> (N, 4, 8, 14)."""
    windows = np.asarray(windows, dtype=np.float64)
    n = windows.shape[0]
    win = hann_window()
    frames = np.empty((n, 8, STFT_FRAMES, STFT_WIN))
    for i in range(STFT_FRAMES):
        frames[:, :, i, :] = windows[:, :, i * STFT_HOP : i * STFT_HOP + STFT_WIN] * win
    spec = np.abs(np.fft.rfft(frames, axis=-1)) ** 2  # (N, 8, 4, 15)
    return spec[:, :, :, 1:].transpose(0, 2, 1, 3)


def cwt_batch(windows: np.ndarray) -> np.ndarray:
    """CWT tensors of (N, 8, 52) windows -> (N, 12, 8, 7).

    Per channel the 32x52 CWT is downsampled by 4 on both axes with order-0
    (nearest, origin 0) interpolation to 8x13, then the last scale row and
    the last time column are dropped.
    """
    windows = np.asarray(windows, dtype=np.float64)
    coeffs = np.einsum("atm,bcm->bcat", _CWT_BANK, windows, optimize=True)
    ds = coeffs[:, :, ::4, ::4][:, :, :-1, :-1]
    return ds.transpose(0, 3, 1, 2)


def _symmetric_ext(x: np.ndarray, n: int) -> np.ndarray:
    # half-sample symmetric over the last axis:
    # ... x1 x0 | x0 x1 ... x_{N-1} | x_{N-1} x_{N-2} ...
    length = x.shape[-1]
    idx = np.arange(-n, length + n)
    m = np.mod(idx, 2 * length)
    m = np.where(m >= length, 2 * length - 1 - m, m)
    return x[..., m]


def _dwt_step(x: np.ndarray):
    """One analysis stage over the last axis: (approximation, detail).

    Output j is the 14-tap sum h[k] * ext[2j + 14 - k], i.e. the odd samples
    of the valid convolution of the symmetric extension with h, taken as
    strided slices so every leading axis is filtered at once.
    """
    fl = len(DB7_DEC_LO)
    ext = _symmetric_ext(x, fl - 1)
    n_out = (ext.shape[-1] - fl + 1) // 2
    ca = cd = 0.0
    for k in range(fl):
        tap = ext[..., fl - k : fl - k + 2 * n_out - 1 : 2]
        ca = ca + DB7_DEC_LO[k] * tap
        cd = cd + DB7_DEC_HI[k] * tap
    return ca, cd


def _wavedec(x: np.ndarray, level: int = DWT_LEVEL) -> list:
    """Bands [CA, CD_level, ..., CD_1] of the db7 cascade over the last axis."""
    details = []
    approx = x
    for _ in range(level):
        approx, cd = _dwt_step(approx)
        details.append(cd)
    return [approx] + details[::-1]


def _idwt_step(ca: np.ndarray, cd: np.ndarray, out_len: int) -> np.ndarray:
    fl = len(DB7_REC_LO)
    up_a = np.zeros(2 * len(ca))
    up_a[1::2] = ca
    up_d = np.zeros(2 * len(cd))
    up_d[1::2] = cd
    y = np.convolve(up_a, DB7_REC_LO) + np.convolve(up_d, DB7_REC_HI)
    return y[fl - 1 : fl - 1 + out_len]


@dataclass
class WaveletDecomposition:
    """db7 level-3 analysis: flat coefficients ordered [CA, CD3, CD2, CD1]."""

    coefficients: np.ndarray
    band_lengths: tuple  # (len CA, len CD3, len CD2, len CD1)
    signal_length: int
    level: int = DWT_LEVEL
    wavelet: str = "db7"

    def bands(self):
        out = []
        pos = 0
        for n in self.band_lengths:
            out.append(self.coefficients[pos : pos + n])
            pos += n
        return out


def dwt_db7(signal: np.ndarray, level: int = DWT_LEVEL) -> WaveletDecomposition:
    """Cascade of db7 analysis filters with half-sample symmetric extension.

    Each stage halves the approximation band (length floor((n + 13) / 2));
    details are concatenated coarsest-first after the final approximation.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise DataError("dwt expects a non-empty 1-d signal")
    parts = _wavedec(x, level)
    return WaveletDecomposition(
        coefficients=np.concatenate(parts),
        band_lengths=tuple(len(p) for p in parts),
        signal_length=len(x),
        level=level,
    )


def idwt_db7(dec: WaveletDecomposition) -> np.ndarray:
    """Inverse of dwt_db7; reconstructs the original signal length."""
    bands = dec.bands()
    approx = bands[0]
    details = bands[1:]  # coarsest first
    # target lengths going back up the cascade
    lengths = [dec.signal_length]
    for _ in range(dec.level - 1):
        lengths.append((lengths[-1] + len(DB7_DEC_LO) - 1) // 2)
    lengths = lengths[::-1]
    for cd, out_len in zip(details, lengths):
        approx = _idwt_step(approx, cd, out_len)
    return approx


def mdwt(signal: np.ndarray) -> np.ndarray:
    """Cumulative absolute coefficient sums per dyadic level.

    With the full db7 level-3 coefficient vector of length N laid out
    [CA, CD3, CD2, CD1], returns for s = 1..floor(log2(N)) the sum of
    |coefficients[u]| over u = 0 .. N / 2^s - 1.  For 52-sample windows
    N = 88 so the feature has 6 values.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.shape != (WINDOW_LENGTH,):
        raise DataError(f"mdwt expects length {WINDOW_LENGTH}, got {x.shape}")
    return _mdwt_rows(x)


def _mdwt_rows(x: np.ndarray) -> np.ndarray:
    """mdwt of every (..., 52) row at once -> (..., 6)."""
    if x.shape[-1] != WINDOW_LENGTH:
        raise DataError(f"mdwt expects length {WINDOW_LENGTH}, got {x.shape}")
    return mdwt_from_coefficients(np.concatenate(_wavedec(x), axis=-1))


def mdwt_from_coefficients(coeffs: np.ndarray) -> np.ndarray:
    """Prefix sums of |coeffs| over the last axis, one per dyadic level."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    n = coeffs.shape[-1]
    s_max = int(np.floor(np.log2(n)))
    absc = np.abs(coeffs)
    return np.stack([absc[..., : n // 2**s].sum(axis=-1) for s in range(1, s_max + 1)], axis=-1)


def mdwt_length(signal_length: int = WINDOW_LENGTH, level: int = DWT_LEVEL) -> int:
    n = signal_length
    total = 0
    for _ in range(level):
        ca_len = (n + len(DB7_DEC_LO) - 1) // 2
        total += ca_len  # detail band has the same length as the approximation
        n = ca_len
    total += n  # final approximation band
    return int(np.floor(np.log2(total)))
