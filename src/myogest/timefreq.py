"""Time-frequency transforms: STFT spectrogram, Mexican Hat CWT and db7 DWT.

All three operate channel-wise on 52-sample windows and never mix channels.
The spectrogram uses Hann windows of length 28 hopped by 8 (4 fully interior
frames, 15 rfft bins); dropping the DC band gives the 4x8x14 network input.
The CWT uses 32 integer scales of the Mexican Hat wavelet; an order-0
downsample by 4 on both axes, then dropping the last scale row and time
column, gives the 12x8x7 input.  ``cwt_batch`` computes only those kept
coefficients, with a precomputed bank of the 7 kept scales x 12 kept
translations.  The db7 level-3 cascade feeds the marginal DWT feature
(``_mdwt_rows``).
"""

from __future__ import annotations

import numpy as np

from .dataset import WINDOW_LENGTH
from .errors import DataError

# STFT geometry
STFT_WIN = 28
STFT_HOP = 8
STFT_FRAMES = 4

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
DWT_LEVEL = 3


def hann_window() -> np.ndarray:
    """Symmetric Hann window of the STFT, w[k] = 0.5 (1 - cos(2 pi k / 27))."""
    return np.hanning(STFT_WIN)


def mexican_hat(t: np.ndarray) -> np.ndarray:
    """psi(t) = 2 / (sqrt(3) pi^(1/4)) (1 - t^2) exp(-t^2 / 2)."""
    t = np.asarray(t, dtype=np.float64)
    norm = 2.0 / (np.sqrt(3.0) * np.pi**0.25)
    return norm * (1.0 - t**2) * np.exp(-(t**2) / 2.0)


def _cwt_kept_bank() -> np.ndarray:
    """(52, 12 * 7) bank of the kept scales 1, 5, ..., 25 x translations 0, 4, ..., 44.

    Column (n, a) holds psi((m - n) / a) / sqrt(a) over m: the wavelet at
    scale a centered on output position n, zero outside the window (zero
    padding).
    """
    offsets = np.subtract.outer(np.arange(0, 48, 4), np.arange(WINDOW_LENGTH))  # n - m
    bank = np.stack([mexican_hat(offsets / a) / np.sqrt(a) for a in range(1, 26, 4)])
    return bank.transpose(2, 1, 0).reshape(WINDOW_LENGTH, -1)


_CWT_KEPT = _cwt_kept_bank()


def _checked(windows: np.ndarray, name: str) -> np.ndarray:
    windows = np.asarray(windows, dtype=np.float64)
    if windows.shape[1:] != (8, WINDOW_LENGTH):
        raise DataError(f"{name} expects (N, 8, {WINDOW_LENGTH}) windows, got {windows.shape}")
    return windows


def spectrogram_batch(windows: np.ndarray) -> np.ndarray:
    """Spectrogram tensors of (N, 8, 52) windows -> (N, 4, 8, 14)."""
    windows = _checked(windows, "spectrogram")
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
    the last time column are dropped.  Only those 7 scales x 12 translations
    are computed: one matrix product of the windows with the kept rows of
    the wavelet bank, read out in the (time, channel, scale) layout.
    """
    windows = _checked(windows, "cwt")
    n = windows.shape[0]
    coeffs = windows.reshape(n * 8, WINDOW_LENGTH) @ _CWT_KEPT  # (N * 8, 12 * 7)
    return coeffs.reshape(n, 8, 12, 7).transpose(0, 2, 1, 3)


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


def _mdwt_rows(x: np.ndarray) -> np.ndarray:
    """Marginal DWT of every (..., 52) row: cumulative absolute coefficient sums.

    With the db7 level-3 coefficients of a row laid out [CA, CD3, CD2, CD1]
    (N = 88 values for 52 samples), returns for s = 1..floor(log2(N)) the
    sum of |coefficients[u]| over u = 0 .. N / 2^s - 1: (..., 6).
    """
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


def mdwt_length() -> int:
    """Values of the marginal DWT of one 52-sample row."""
    n = WINDOW_LENGTH
    total = 0
    for _ in range(DWT_LEVEL):
        ca_len = (n + len(DB7_DEC_LO) - 1) // 2
        total += ca_len  # detail band has the same length as the approximation
        n = ca_len
    total += n  # final approximation band
    return int(np.floor(np.log2(total)))
