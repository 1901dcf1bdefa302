"""Hand-crafted sEMG features and the four classic feature sets.

Every feature is one private kernel over rows: it takes an array of shape
(..., L) (L = 52 in production, any L in tests), reduces the last axis and
returns (...) for a scalar feature or (..., d) for a d-valued one.
`feature_matrix` runs each kernel of a set once per chunk of windows on the
stacked (n, 8, L) array, with the paper's fixed parameters from `_FEATURES`.
Every kernel's temporaries are O(rows x L), so a chunk bounds peak memory
whatever the number of windows.

Moments are population moments (1/L scaling).  Degenerate inputs (zero
variance, vanishing match counts) take the value documented on their kernel
instead of raising.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError
from .timefreq import _mdwt_rows, mdwt_length

FEATURE_SETS = ("TD", "EnhancedTD", "NinaPro", "SampEnPipeline")

# Windows per feature_matrix chunk: its 8 * _CHUNK rows bound the kernels'
# temporaries, and are enough rows that numpy's per-call overhead is small.
# 128 was slower end to end, with more than twice the page faults.
_CHUNK = 64


# ---------------------------------------------------------------------------
# kernels over (..., L) rows


def _need(x, n: int, name: str):
    if x.shape[-1] < n:
        raise DataError(f"{name} needs at least {n} samples")


def _activity(v):
    """Population variance of each row."""
    return np.mean((v - v.mean(axis=-1, keepdims=True)) ** 2, axis=-1)


def _mav(x):
    """Mean of the fully-rectified signal."""
    return np.mean(np.abs(x), axis=-1)


def _iemg(x):
    """Sum of the fully-rectified signal."""
    return np.sum(np.abs(x), axis=-1)


def _rms(x):
    return np.sqrt(np.mean(x**2, axis=-1))


def _wl(x):
    """Waveform length: sum of absolute consecutive differences."""
    _need(x, 2, "wl")
    return np.sum(np.abs(np.diff(x, axis=-1)), axis=-1)


def _ssc(x, epsilon):
    """Count of slope-sign changes: strict local extrema with product >= eps.

    Sample x_k counts when it is above both neighbours or below both
    (Hudgins et al., 1993), i.e. (x_k - x_{k-1})(x_k - x_{k+1}) > 0, and that
    product is at least eps.  Flat steps and the edges of a plateau give a
    zero product and never count, so a constant window has SSC = 0.
    """
    _need(x, 3, "ssc")
    prod = (x[..., 1:-1] - x[..., :-2]) * (x[..., 1:-1] - x[..., 2:])
    return np.count_nonzero(prod >= epsilon if epsilon > 0 else prod > 0, axis=-1)


def _zc(x, epsilon):
    """Zero crossings: adjacent samples of opposite sign at least eps apart.

    Zero is treated as positive, so a 0 -> 0 step never counts and a
    constant window has ZC = 0.
    """
    _need(x, 2, "zc")
    a, b = x[..., :-1], x[..., 1:]
    big_enough = np.abs(a - b) >= epsilon
    opposite = (a >= 0) != (b >= 0)
    return np.count_nonzero(big_enough & opposite, axis=-1)


def _skewness(x):
    """Third standardized central moment with population sigma; 0 if sigma = 0.

    The deviations are cubed by multiplication before dividing by sigma^3:
    d*d*d is exactly odd in d, so deviations that are symmetric about the
    mean cancel exactly, whereas numpy's `** 3` on the standardised values
    is not always sign-symmetric and leaves a residue of a few ULP.
    """
    d = x - x.mean(axis=-1, keepdims=True)
    sigma = np.sqrt(np.mean(d * d, axis=-1))
    with np.errstate(divide="ignore", invalid="ignore"):
        skew = np.mean(d * d * d, axis=-1) / sigma**3
    return np.where(sigma == 0.0, 0.0, skew)


def _hjorth(x):
    """(activity, mobility, complexity) in the last axis.

    The derivative is the first-order difference, so it shortens the signal
    by one sample at each level.  Zero activity (sigma = 0) gives all three
    0; a zero-variance derivative gives complexity 0.
    """
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
    """Biased autocorrelation r[0..max_lag], r[k] = (1/L) sum x_t x_{t+k}."""
    L = x.shape[-1]
    lags = [np.sum(x[..., : L - k] * x[..., k:], axis=-1) / L for k in range(max_lag + 1)]
    return np.stack(lags, axis=-1)


def _ar(x, order):
    """Yule-Walker AR estimates via Levinson-Durbin on biased autocorrelation.

    Returns rho such that x_k ~ sum_j rho_j x_{k-j}.  Every row runs at
    once and stops where the scalar recursion would; a zero-variance row
    (sigma = 0) gives the zero vector.
    """
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


def _sampen(x, m, r_coeff):
    """Sample entropy -ln(A/B) with Chebyshev distance, self-matches excluded.

    Both template lengths use the same L - m start positions, and r is
    r_coeff * population sigma.  Conventions: sigma = 0 gives 0; A = 0 gives
    ln B + ln of the ordered-pair space; B = 0 gives ln of the pair space.

    The matches of Richman & Moorman (2000) are counted by sorted
    neighbours: each row's templates are sorted on their first coordinate,
    and the pairs (p, p + k) of sorted positions are walked for
    k = 1, 2, ...  The sorted difference s[p+k] - s[p] is exactly
    |x_i - x_j| (IEEE subtraction is sign-symmetric) and never falls as k
    grows, so the walk ends at the first k where no row has a
    first-coordinate match.  The other m coordinates (m >= 1) are checked
    on the same pairs.  Every unordered pair is visited once in any sorted
    order, ties included, so A and B (doubled to ordered pairs) are exact
    integers and temporaries stay O(rows x L).
    """
    L = x.shape[-1]
    if L <= m + 1:
        raise DataError(f"sampen needs more than m+1={m + 1} samples")
    rows = x.reshape(-1, L)
    sigma = np.sqrt(_activity(rows))
    # a constant row is 0 whatever it counts, so it never matches (and never
    # lengthens the walk); a NaN radius matches nothing either
    r = np.where(sigma == 0.0, -np.inf, r_coeff * sigma)
    n_templates = L - m
    pair_space = n_templates * (n_templates - 1)
    # coords[t][p, row]: coordinate t of the row's p-th template in sorted
    # order, rows last and C-ordered so that every offset slice is contiguous
    starts = np.argsort(rows[:, :n_templates], axis=-1).T.copy()
    starts += L * np.arange(len(rows))
    flat = rows.ravel()
    coords = [flat[t:][starts] for t in range(m + 1)]
    del starts  # not held through the walk
    # matches per sorted position p (at most n_templates - 1 each), and one
    # difference buffer and two masks that every offset k reuses
    per_a = np.zeros((n_templates - 1, len(rows)), np.min_scalar_type(n_templates))
    per_b = np.zeros_like(per_a)
    diff = np.empty(per_a.shape)
    match, near = np.empty(per_a.shape, bool), np.empty(per_a.shape, bool)

    def within(t, k, out):
        """|coordinate t of sorted template p + k minus that of p| <= r, for every p."""
        d = np.subtract(coords[t][k:], coords[t][:-k], out=diff[: n_templates - k])
        # coordinate 0 is sorted, so its differences are already >= 0
        return np.less_equal(np.abs(d, out=d) if t else d, r, out=out[: n_templates - k])

    for k in range(1, n_templates):
        hit = within(0, k, match)
        if not hit.any():
            break
        for t in range(1, m):
            hit &= within(t, k, near)
        per_b[: n_templates - k] += hit
        hit &= within(m, k, near)
        per_a[: n_templates - k] += hit
    A = 2 * per_a.sum(axis=0, dtype=np.int64)
    B = 2 * per_b.sum(axis=0, dtype=np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = -np.log(A / B)
        value = np.where(A == 0, np.log(B) + np.log(pair_space), value)
        value = np.where(B == 0, np.log(pair_space), value)
    value = np.where(sigma == 0.0, 0.0, value)
    return value.reshape(x.shape[:-1])


def _hist(x, bins, threshold):
    """Counts over `bins` equal bins spanning mean +/- threshold * sigma.

    Out-of-range samples clip into the edge bins.  A constant row
    (sigma = 0) puts all its mass in bin (bins - 1) // 2.
    """
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
    """Cepstral coefficients from the first `order` AR coefficients.

    c_1 = -a_1 and c_i = -a_i - sum_{n=1}^{i-1} (1 - n/i) a_n c_{i-n}.
    """
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
# feature sets

# name -> (kernel, fixed arguments, values per channel), the paper's settings
_FEATURES = {
    "mav": (_mav, (), 1),
    "zc": (_zc, (0.0,), 1),
    "ssc": (_ssc, (0.0,), 1),
    "wl": (_wl, (), 1),
    "skewness": (_skewness, (), 1),
    "rms": (_rms, (), 1),
    "iemg": (_iemg, (), 1),
    "ar": (_ar, (11,), 11),
    "hjorth": (_hjorth, (), 3),
    "mdwt": (_mdwt_rows, (), mdwt_length()),
    "hist": (_hist, (20, 3.0), 20),
    "sampen": (_sampen, (2, 0.2), 1),
    "cepstral": (_cepstral, (4,), 4),
}
_TD = ("mav", "zc", "ssc", "wl")
_SET_FEATURES = {
    "TD": _TD,
    "EnhancedTD": _TD + ("skewness", "rms", "iemg", "ar", "hjorth"),
    "NinaPro": ("rms", "mdwt", "hist") + _TD,
    "SampEnPipeline": ("sampen", "cepstral", "rms", "wl"),
}
# set name -> the name of each matrix column, as (feature, channel, index)
_SET_LAYOUTS = {
    set_name: tuple(
        (name, ch, i) for ch in range(8) for name in names for i in range(_FEATURES[name][2])
    )
    for set_name, names in _SET_FEATURES.items()
}


def _window_data(window) -> np.ndarray:
    data = window if isinstance(window, np.ndarray) else getattr(window, "data", window)
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] != 8:
        raise DataError(f"expected 8-channel window, got shape {data.shape}")
    return data


def feature_matrix(windows, set_name: str):
    """Feature vectors of every window as rows of (N, D); returns (matrix, layout).

    A row holds each channel's features in turn, in the set's declared
    order; `layout` names each column as (feature, channel, index).  Each
    kernel runs once per chunk of `_CHUNK` windows on the stacked (n, 8, L)
    array, so the values never depend on the chunking; all windows must
    share one length L.
    """
    if set_name not in _SET_FEATURES:
        raise ConfigError(f"unknown feature set '{set_name}' (choose from {FEATURE_SETS})")
    names = _SET_FEATURES[set_name]
    layout = _SET_LAYOUTS[set_name]
    width = len(layout) // 8
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
        for name in names:
            kernel, args, w = _FEATURES[name]
            out = kernel(x, *args)
            per_channel[start : start + len(chunk), :, col : col + w] = out.reshape(len(chunk), 8, w)
            col += w
    return matrix, list(layout)
