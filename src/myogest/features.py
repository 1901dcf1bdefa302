"""Hand-crafted sEMG features and the four classic feature sets.

Every feature is one private kernel over rows: it takes an array of shape
(..., L) (L = 52 in production, any L in tests), reduces the last axis and
returns (...) for a scalar feature or (..., d) for a d-valued one.
`feature_matrix` runs each kernel once per chunk of windows on the stacked
(n, 8, L) array; the public per-channel functions (`mav`, `ar_coefficients`,
...) are thin wrappers that run the same kernel on one row.

Moments are population moments (1/L scaling).  Degenerate inputs (zero
variance, vanishing match counts) follow documented conventions and are
reported through flags on the assembled vector instead of raising.  Ties
never count as events: a flat step is neither a zero crossing (ZC) nor a
slope-sign change (SSC), so a constant window scores 0 on both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .timefreq import _mdwt_rows, mdwt_length

FEATURE_SETS = ("TD", "EnhancedTD", "NinaPro", "SampEnPipeline")

# Windows per feature_matrix chunk and rows per SampEn distance block: they
# bound the kernels' temporaries, so peak memory does not grow with N.
_CHUNK = 32
_SAMPEN_BLOCK = 16

_TD = ("mav", "zc", "ssc", "wl")
_SET_FEATURES = {
    "TD": _TD,
    "EnhancedTD": _TD + ("skewness", "rms", "iemg", "ar", "hjorth"),
    "NinaPro": ("rms", "mdwt", "hist") + _TD,
    "SampEnPipeline": ("sampen", "cepstral", "rms", "wl"),
}
# features whose value is a convention, not a measurement, on a zero-variance channel
_NEEDS_SIGMA = {
    "TD": (),
    "EnhancedTD": ("skewness", "hjorth", "ar"),
    "NinaPro": ("hist",),
    "SampEnPipeline": ("sampen", "cepstral"),
}


@dataclass
class FeatureConfig:
    epsilon_zc: float = 0.0
    epsilon_ssc: float = 0.0
    ar_order: int = 11
    cepstral_order: int = 4
    sampen_m: int = 2
    sampen_r_coeff: float = 0.2
    hist_bins: int = 20
    hist_threshold: float = 3.0  # in units of sigma

    def __post_init__(self):
        if self.epsilon_zc < 0 or self.epsilon_ssc < 0:
            raise ConfigError("thresholds must be non-negative")
        if self.ar_order < 1 or self.hist_bins < 1:
            raise ConfigError("ar_order and hist_bins must be >= 1")


@dataclass
class FeatureVector:
    values: np.ndarray
    layout: list  # (feature_name, channel, index) per entry
    flags: list = field(default_factory=list)  # (feature_name, channel, reason)


# ---------------------------------------------------------------------------
# kernels over (..., L) rows


def _need(x, n: int, name: str):
    if x.shape[-1] < n:
        raise DataError(f"{name} needs at least {n} samples")


def _activity(v):
    """Population variance of each row."""
    return np.mean((v - v.mean(axis=-1, keepdims=True)) ** 2, axis=-1)


def _mav(x):
    return np.mean(np.abs(x), axis=-1)


def _iemg(x):
    return np.sum(np.abs(x), axis=-1)


def _rms(x):
    return np.sqrt(np.mean(x**2, axis=-1))


def _wl(x):
    _need(x, 2, "wl")
    return np.sum(np.abs(np.diff(x, axis=-1)), axis=-1)


def _ssc(x, epsilon=0.0):
    _need(x, 3, "ssc")
    prod = (x[..., 1:-1] - x[..., :-2]) * (x[..., 1:-1] - x[..., 2:])
    return np.count_nonzero(prod >= epsilon if epsilon > 0 else prod > 0, axis=-1)


def _zc(x, epsilon=0.0):
    _need(x, 2, "zc")
    a, b = x[..., :-1], x[..., 1:]
    big_enough = np.abs(a - b) >= epsilon
    opposite = (a >= 0) != (b >= 0)
    return np.count_nonzero(big_enough & opposite, axis=-1)


def _skewness(x):
    d = x - x.mean(axis=-1, keepdims=True)
    sigma = np.sqrt(np.mean(d * d, axis=-1))
    with np.errstate(divide="ignore", invalid="ignore"):
        skew = np.mean(d * d * d, axis=-1) / sigma**3
    return np.where(sigma == 0.0, 0.0, skew)


def _hjorth(x):
    _need(x, 3, "hjorth")
    d1 = np.diff(x, axis=-1)
    a0, a1, a2 = _activity(x), _activity(d1), _activity(np.diff(d1, axis=-1))
    with np.errstate(divide="ignore", invalid="ignore"):
        mobility = np.sqrt(a1 / a0)
        complexity = np.sqrt(a2 / a1) / mobility
    mobility = np.where(a0 == 0.0, 0.0, mobility)
    complexity = np.where((a0 == 0.0) | (a1 == 0.0), 0.0, complexity)
    return np.stack([a0, mobility, complexity], axis=-1)


def _autocorrelation(x, max_lag):
    L = x.shape[-1]
    lags = [np.sum(x[..., : L - k] * x[..., k:], axis=-1) / L for k in range(max_lag + 1)]
    return np.stack(lags, axis=-1)


def _ar(x, order):
    """Levinson-Durbin over every row; a row stops where the scalar loop would."""
    if x.shape[-1] <= order:
        raise DataError(f"ar order {order} needs more than {order} samples")
    r = _autocorrelation(x - x.mean(axis=-1, keepdims=True), order)
    lead = r.shape[:-1]
    r = r.reshape(-1, order + 1)
    # error-filter polynomial 1 + a_1 z^-1 + ...; zero variance keeps a = 0
    a = np.zeros_like(r)
    a[:, 0] = 1.0
    err = r[:, 0].copy()
    live = r[:, 0] != 0.0
    for k in range(1, order + 1):
        live &= err > 0.0
        acc = r[:, k] + np.sum(a[:, 1:k] * r[:, k - 1 : 0 : -1], axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = np.where(live, -acc / err, 0.0)
        a[:, 1:k] = a[:, 1:k] + lam[:, None] * a[:, k - 1 : 0 : -1]
        a[:, k] = lam
        err = err * (1.0 - lam * lam)
    return -a[:, 1:].reshape(lead + (order,))


def _sampen(x, m=2, r_coeff=0.2, cap=None):
    L = x.shape[-1]
    if L <= m + 1:
        raise DataError(f"sampen needs more than m+1={m + 1} samples")
    rows = x.reshape(-1, L)
    sigma = np.sqrt(_activity(rows))
    r = r_coeff * sigma
    n_templates = L - m
    pair_space = n_templates * (n_templates - 1)
    off_diagonal = ~np.eye(n_templates, dtype=bool)
    A = np.empty(len(rows), dtype=np.int64)
    B = np.empty(len(rows), dtype=np.int64)
    for s in range(0, len(rows), _SAMPEN_BLOCK):
        block = rows[s : s + _SAMPEN_BLOCK]
        # Chebyshev distance over all template pairs, built incrementally
        diff = np.abs(block[:, :, None] - block[:, None, :])
        dist = np.zeros((len(block), n_templates, n_templates))
        for k in range(m):
            np.maximum(dist, diff[:, k : k + n_templates, k : k + n_templates], out=dist)
        r_b = r[s : s + _SAMPEN_BLOCK, None, None]
        B[s : s + len(block)] = np.count_nonzero((dist <= r_b) & off_diagonal, axis=(1, 2))
        np.maximum(dist, diff[:, m : m + n_templates, m : m + n_templates], out=dist)
        A[s : s + len(block)] = np.count_nonzero((dist <= r_b) & off_diagonal, axis=(1, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        value = -np.log(A / B)
        if cap is None:
            value = np.where(A == 0, np.log(B) + np.log(pair_space), value)
            value = np.where(B == 0, np.log(pair_space), value)
        else:  # B = 0 implies A = 0
            value = np.where(A == 0, cap, value)
    value = np.where(sigma == 0.0, 0.0, value)
    return value.reshape(x.shape[:-1])


def _hist(x, bins=20, threshold=3.0):
    L = x.shape[-1]
    rows = x.reshape(-1, L)
    mu = rows.mean(axis=-1, keepdims=True)
    sigma = np.sqrt(_activity(rows))[:, None]
    flat = sigma == 0.0
    lo = mu - threshold * sigma
    width = np.where(flat, 1.0, 2.0 * threshold * sigma / bins)
    idx = np.clip(np.floor((rows - lo) / width).astype(int), 0, bins - 1)
    idx = np.where(flat, (bins - 1) // 2, idx)
    idx += bins * np.arange(len(rows))[:, None]
    counts = np.bincount(idx.ravel(), minlength=bins * len(rows)).astype(np.float64)
    return counts.reshape(x.shape[:-1] + (bins,))


def _cepstral_from_ar(a, order):
    c = np.zeros(a.shape[:-1] + (order,))
    for i in range(1, order + 1):
        acc = -a[..., i - 1]
        for n in range(1, i):
            acc = acc - (1.0 - n / i) * a[..., n - 1] * c[..., i - n - 1]
        c[..., i - 1] = acc
    return c


def _cepstral(x, order):
    return _cepstral_from_ar(_ar(x, order), order)


# ---------------------------------------------------------------------------
# per-channel functions: one row through its kernel


def _row(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).reshape(1, -1)


def mav(x) -> float:
    """Mean of the fully-rectified signal."""
    return float(_mav(_row(x))[0])


def iemg(x) -> float:
    """Sum of the fully-rectified signal."""
    return float(_iemg(_row(x))[0])


def rms(x) -> float:
    return float(_rms(_row(x))[0])


def wl(x) -> float:
    """Waveform length: sum of absolute consecutive differences."""
    return float(_wl(_row(x))[0])


def ssc(x, epsilon: float = 0.0) -> int:
    """Count of slope-sign changes: strict local extrema with product >= eps.

    Sample x_k counts when it is above both neighbours or below both
    (Hudgins et al., 1993), i.e. (x_k - x_{k-1})(x_k - x_{k+1}) > 0, and that
    product is at least eps.  Flat steps and the edges of a plateau give a
    zero product and never count, so a constant window has SSC = 0.
    """
    return int(_ssc(_row(x), epsilon)[0])


def zc(x, epsilon: float = 0.0) -> int:
    """Zero crossings: adjacent samples of opposite sign at least eps apart.

    Zero is treated as positive, so a 0 -> 0 step never counts.
    """
    return int(_zc(_row(x), epsilon)[0])


def skewness(x) -> float:
    """Third standardized central moment with population sigma; 0 if sigma = 0.

    The deviations are cubed by multiplication before dividing by sigma^3:
    d*d*d is exactly odd in d, so deviations that are symmetric about the
    mean cancel exactly, whereas numpy's `** 3` on the standardised values
    is not always sign-symmetric and leaves a residue of a few ULP.
    """
    return float(_skewness(_row(x))[0])


def hjorth(x) -> tuple:
    """(activity, mobility, complexity); all 0 when activity vanishes.

    The derivative is the first-order difference, so it shortens the signal
    by one sample at each level.
    """
    return tuple(float(v) for v in _hjorth(_row(x))[0])


def autocorrelation(x, max_lag: int) -> np.ndarray:
    """Biased autocorrelation r[0..max_lag], r[k] = (1/L) sum x_t x_{t+k}."""
    return _autocorrelation(_row(x), max_lag)[0]


def ar_coefficients(x, order: int) -> np.ndarray:
    """Yule-Walker AR estimates via Levinson-Durbin on biased autocorrelation.

    Returns rho such that x_k ~ sum_j rho_j x_{k-j}.  Zero-variance input
    yields the zero vector (degenerate).
    """
    return _ar(_row(x), order)[0]


def sampen(x, m: int = 2, r_coeff: float = 0.2, cap: float = None) -> float:
    """Sample entropy -ln(A/B) with Chebyshev distance, self-matches excluded.

    Both template lengths use the same N - m start positions.  r is
    r_coeff * population sigma.  Conventions: sigma = 0 is degenerate and
    returns 0; A = 0 returns a cap (default treats A as one count short of
    the ordered-pair space); B = 0 returns ln of the pair space.
    """
    return float(_sampen(_row(x), m, r_coeff, cap)[0])


def hist(x, bins: int = 20, threshold: float = 3.0) -> np.ndarray:
    """Counts over `bins` equal bins spanning mean +/- threshold * sigma.

    Out-of-range samples clip into the edge bins.  A constant signal is
    degenerate (sigma = 0): all mass goes to the center bin by convention.
    """
    return _hist(_row(x), bins, threshold)[0]


def cepstral_from_ar(a, order: int = None) -> np.ndarray:
    """Cepstral coefficients from AR coefficients.

    c_1 = -a_1 and c_i = -a_i - sum_{n=1}^{i-1} (1 - n/i) a_n c_{i-n}.
    """
    a = np.asarray(a, dtype=np.float64)
    p = len(a)
    order = p if order is None else order
    if order > p:
        raise ConfigError(f"cepstral order {order} exceeds AR order {p}")
    return _cepstral_from_ar(a, order)


def cepstral(x, order: int = 4) -> np.ndarray:
    return _cepstral(_row(x), order)[0]


# ---------------------------------------------------------------------------
# feature sets


def _plan(set_name: str, cfg: FeatureConfig) -> list:
    """(name, kernel, kernel arguments, values per channel) in declared order."""
    if set_name not in _SET_FEATURES:
        raise ConfigError(f"unknown feature set '{set_name}' (choose from {FEATURE_SETS})")
    specs = {
        "mav": (_mav, (), 1),
        "zc": (_zc, (cfg.epsilon_zc,), 1),
        "ssc": (_ssc, (cfg.epsilon_ssc,), 1),
        "wl": (_wl, (), 1),
        "skewness": (_skewness, (), 1),
        "rms": (_rms, (), 1),
        "iemg": (_iemg, (), 1),
        "ar": (_ar, (cfg.ar_order,), cfg.ar_order),
        "hjorth": (_hjorth, (), 3),
        "mdwt": (_mdwt_rows, (), mdwt_length()),
        "hist": (_hist, (cfg.hist_bins, cfg.hist_threshold), cfg.hist_bins),
        "sampen": (_sampen, (cfg.sampen_m, cfg.sampen_r_coeff), 1),
        "cepstral": (_cepstral, (cfg.cepstral_order,), cfg.cepstral_order),
    }
    return [(name, *specs[name]) for name in _SET_FEATURES[set_name]]


def feature_set_length(set_name: str, cfg: FeatureConfig = None) -> int:
    cfg = cfg or FeatureConfig()
    return 8 * sum(width for *_, width in _plan(set_name, cfg))


def _window_data(window) -> np.ndarray:
    data = window if isinstance(window, np.ndarray) else getattr(window, "data", window)
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] != 8:
        raise DataError(f"expected 8-channel window, got shape {data.shape}")
    return data


def assemble_feature_set(window, set_name: str, cfg: FeatureConfig = None) -> FeatureVector:
    """Per-channel features concatenated channel-major in declared order.

    Zero-variance channels are flagged, channel by channel, for each feature
    of the set whose value there is a convention.
    """
    cfg = cfg or FeatureConfig()
    data = _window_data(window)
    matrix, layout = feature_matrix([data], set_name, cfg)
    flat = np.flatnonzero(_activity(data) == 0.0)
    flags = [(name, int(ch), "zero variance") for ch in flat for name in _NEEDS_SIGMA[set_name]]
    return FeatureVector(values=matrix[0], layout=layout, flags=flags)


def feature_matrix(windows, set_name: str, cfg: FeatureConfig = None):
    """Feature vectors of every window as rows of (N, D); returns (matrix, layout).

    Each kernel runs once per chunk of `_CHUNK` windows on the stacked
    (n, 8, L) array; all windows must share one length L.
    """
    cfg = cfg or FeatureConfig()
    plan = _plan(set_name, cfg)
    width = sum(w for *_, w in plan)
    layout = [(name, ch, i) for ch in range(8) for name, *_, w in plan for i in range(w)]
    windows = list(windows)
    matrix = np.empty((len(windows), 8 * width))
    per_channel = matrix.reshape(len(windows), 8, width)
    lengths = set()
    for start in range(0, len(windows), _CHUNK):
        chunk = [_window_data(w) for w in windows[start : start + _CHUNK]]
        lengths.update(d.shape[1] for d in chunk)
        if len(lengths) > 1:
            raise DataError(f"windows of one matrix must share one length, got {sorted(lengths)}")
        x = np.stack(chunk)
        col = 0
        for _, kernel, args, w in plan:
            out = kernel(x, *args)
            per_channel[start : start + len(chunk), :, col : col + w] = out.reshape(len(chunk), 8, w)
            col += w
    return matrix, layout
