"""Independent brute-force reference implementations used as test oracles.

Everything here is written against the mathematical definitions directly
(plain loops, direct DFT, Toeplitz solves), deliberately avoiding the code
paths of the package under test.
"""

import numpy as np


# ---------------------------------------------------------------------------
# transforms


def dft_direct(x):
    n = len(x)
    out = np.zeros(n, dtype=complex)
    for k in range(n):
        for t in range(n):
            out[k] += x[t] * np.exp(-2j * np.pi * k * t / n)
    return out


def spectrogram_direct(signal, win, hop=8, frames=4):
    n = len(win)
    out = np.zeros((frames, n // 2 + 1))
    for i in range(frames):
        seg = signal[i * hop : i * hop + n] * win
        spec = dft_direct(seg)
        out[i] = np.abs(spec[: n // 2 + 1]) ** 2
    return out


def mexican_hat_direct(t):
    return (2.0 / (np.sqrt(3.0) * np.pi**0.25)) * (1 - t * t) * np.exp(-t * t / 2.0)


def cwt_direct(signal, scales):
    L = len(signal)
    out = np.zeros((scales, L))
    for a in range(1, scales + 1):
        for n in range(L):
            acc = 0.0
            for m in range(L):
                acc += signal[m] * mexican_hat_direct((m - n) / a) / np.sqrt(a)
            out[a - 1, n] = acc
    return out


def cwt_kernel_bank(scales, length, wavelet=mexican_hat_direct):
    """(scales, length, length) bank: K[a - 1, n, m] = psi((n - m) / a) / sqrt(a)."""
    offsets = np.subtract.outer(np.arange(length), np.arange(length))  # n - m
    return np.stack([wavelet(offsets / a) / np.sqrt(a) for a in range(1, scales + 1)])


def cwt_bank(signals, scales=32):
    """``cwt_direct`` of every (..., L) row as one product with the kernel bank -> (..., scales, L).

    The Mexican Hat is even, so the bank's n - m gives the same wavelet as m - n.
    """
    signals = np.asarray(signals, float)
    bank = cwt_kernel_bank(scales, signals.shape[-1])
    return np.tensordot(signals, bank, axes=([-1], [2]))


def idwt_db7(bands, signal_length):
    """Inverse of the db7 cascade: bands [CA, CD_level, ..., CD_1] -> the signal.

    Each stage upsamples both bands and convolves them with the time-reversed
    analysis filters (the perfect-reconstruction synthesis pair).
    """
    from myogest.timefreq import DB7_DEC_HI, DB7_DEC_LO

    approx, details = bands[0], bands[1:]  # details coarsest first
    fl = len(DB7_DEC_LO)
    lengths = [signal_length]  # target lengths going back up the cascade
    for _ in range(len(details) - 1):
        lengths.append((lengths[-1] + fl - 1) // 2)
    for cd, out_len in zip(details, lengths[::-1]):
        up_a = np.zeros(2 * len(approx))
        up_a[1::2] = approx
        up_d = np.zeros(2 * len(cd))
        up_d[1::2] = cd
        y = np.convolve(up_a, DB7_DEC_LO[::-1]) + np.convolve(up_d, DB7_DEC_HI[::-1])
        approx = y[fl - 1 : fl - 1 + out_len]
    return approx


def mdwt_direct(coefficients):
    """Literal transcription of the cumulative-sum pseudo-code."""
    N = len(coefficients)
    s_max = int(np.floor(np.log2(N)))
    out = []
    for s in range(1, s_max + 1):
        c_max = N // (2**s) - 1
        val = 0.0
        for u in range(0, c_max + 1):
            val += abs(coefficients[u])
        out.append(val)
    return np.array(out)


# ---------------------------------------------------------------------------
# channel alignment


def activation_profile_direct(windows):
    """Per-gesture mean of each window's per-channel |x| sums, rows L1-normalized.

    Rows are the sorted labels present; each window is added to its row one
    at a time, in window order.
    """
    labels = sorted({w.label for w in windows})
    profile = np.zeros((len(labels), 8))
    counts = np.zeros(len(labels))
    for w in windows:
        row = labels.index(w.label)
        profile[row] += np.sum(np.abs(w.data), axis=1)
        counts[row] += 1
    profile /= counts[:, None]
    return profile / profile.sum(axis=1)[:, None]


# ---------------------------------------------------------------------------
# features


def mav_direct(x):
    return sum(abs(v) for v in x) / len(x)


def iemg_direct(x):
    return sum(abs(v) for v in x)


def rms_direct(x):
    return (sum(v * v for v in x) / len(x)) ** 0.5


def wl_direct(x):
    return sum(abs(x[k] - x[k - 1]) for k in range(1, len(x)))


def ssc_direct(x, eps=0.0):
    """Hudgins' rule: x_k is a strict local maximum or minimum, product >= eps."""
    count = 0
    for k in range(1, len(x) - 1):
        peak = x[k] > x[k - 1] and x[k] > x[k + 1]
        valley = x[k] < x[k - 1] and x[k] < x[k + 1]
        if (peak or valley) and (x[k] - x[k - 1]) * (x[k] - x[k + 1]) >= eps:
            count += 1
    return count


def zc_direct(x, eps=0.0):
    count = 0
    for k in range(len(x) - 1):
        same_sign = (x[k] >= 0) == (x[k + 1] >= 0)
        if abs(x[k] - x[k + 1]) >= eps and not same_sign:
            count += 1
    return count


def skewness_direct(x):
    x = np.asarray(x, float)
    mu = x.mean()
    sigma = np.sqrt(((x - mu) ** 2).mean())
    if sigma == 0:
        return 0.0
    return (((x - mu) / sigma) ** 3).mean()


def hjorth_direct(x):
    x = np.asarray(x, float)

    def var(v):
        return ((v - v.mean()) ** 2).mean()

    a0 = var(x)
    if a0 == 0:
        return 0.0, 0.0, 0.0
    d1 = np.diff(x)
    d2 = np.diff(d1)
    mob = np.sqrt(var(d1) / a0)
    if var(d1) == 0:
        return a0, mob, 0.0
    mob_d = np.sqrt(var(d2) / var(d1))
    return a0, mob, mob_d / mob


def ar_direct(x, order):
    """Yule-Walker by direct Toeplitz solve on the biased autocorrelation."""
    x = np.asarray(x, float)
    x = x - x.mean()
    L = len(x)
    r = np.array([(x[: L - k] * x[k:]).sum() / L for k in range(order + 1)])
    if r[0] == 0:
        return np.zeros(order)
    R = np.empty((order, order))
    for i in range(order):
        for j in range(order):
            R[i, j] = r[abs(i - j)]
    return np.linalg.solve(R, r[1 : order + 1])


def sampen_direct(x, m=2, r_coeff=0.2):
    x = np.asarray(x, float)
    L = len(x)
    sigma = np.sqrt(((x - x.mean()) ** 2).mean())
    if sigma == 0:
        return 0.0
    r = r_coeff * sigma
    nt = L - m
    B = 0
    A = 0
    for i in range(nt):
        for j in range(nt):
            if i == j:
                continue
            dm = max(abs(x[i + t] - x[j + t]) for t in range(m))
            if dm <= r:
                B += 1
                dm1 = max(dm, abs(x[i + m] - x[j + m]))
                if dm1 <= r:
                    A += 1
    if B == 0:
        return np.log(nt * (nt - 1))
    if A == 0:
        return np.log(B) + np.log(nt * (nt - 1))
    return -np.log(A / B)


def hist_direct(x, bins=20, threshold=3.0):
    x = np.asarray(x, float)
    mu = x.mean()
    sigma = np.sqrt(((x - mu) ** 2).mean())
    counts = np.zeros(bins)
    if sigma == 0:
        counts[(bins - 1) // 2] = len(x)
        return counts
    lo = mu - threshold * sigma
    hi = mu + threshold * sigma
    width = (hi - lo) / bins
    for v in x:
        idx = int(np.floor((v - lo) / width))
        idx = min(max(idx, 0), bins - 1)
        counts[idx] += 1
    return counts


def cepstral_direct(a, order):
    c = []
    for i in range(1, order + 1):
        val = -a[i - 1]
        for n in range(1, i):
            val -= (1 - n / i) * a[n - 1] * c[i - n - 1]
        c.append(val)
    return np.array(c)


# ---------------------------------------------------------------------------
# statistics


def wilcoxon_exact_enum(diffs):
    """Exact one-tail p by brute force over sign assignments (independent code)."""
    diffs = [d for d in diffs if d != 0]
    n = len(diffs)
    mags = [abs(d) for d in diffs]
    order = sorted(range(n), key=lambda i: mags[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and mags[order[j + 1]] == mags[order[i]]:
            j += 1
        for t in range(i, j + 1):
            ranks[order[t]] = (i + j) / 2 + 1
        i = j + 1
    w_obs = sum(r for r, d in zip(ranks, diffs) if d > 0)
    count = 0
    for mask in range(2**n):
        w = sum(ranks[i] for i in range(n) if (mask >> i) & 1)
        if w >= w_obs - 1e-12:
            count += 1
    return count / 2.0**n


def knn_classify_direct(train_features, train_labels, queries, k=5):
    """k-NN vote (majority, then smaller mean distance, then smaller label)
    over the whole (queries x training x features) difference tensor at once."""
    X = np.asarray(train_features, dtype=np.float64)
    y = np.asarray(train_labels)
    Q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    dist = np.sqrt(((Q[:, None, :] - X[None, :, :]) ** 2).sum(axis=2))
    out = np.empty(len(Q), dtype=y.dtype)
    for i, row in enumerate(dist):
        nearest = np.argsort(row, kind="stable")[:k]
        labels = y[nearest]
        candidates, votes = np.unique(labels, return_counts=True)
        tied = candidates[votes == votes.max()]
        mean_dist = np.array([row[nearest[labels == c]].mean() for c in tied])
        out[i] = tied[np.lexsort((tied, mean_dist))][0]
    return out


def lda_scores_direct(train_features, train_labels, queries):
    """Gaussian discriminant scores with a pooled covariance (Hastie et al.,
    The Elements of Statistical Learning, eq. 4.10):
    x' S^-1 mu_c - mu_c' S^-1 mu_c / 2 + ln(n_c / n), one column per sorted class."""
    X = np.asarray(train_features, dtype=np.float64)
    y = np.asarray(train_labels)
    classes = sorted(set(y.tolist()))
    means = [X[y == c].mean(axis=0) for c in classes]
    scatter = sum((X[y == c] - mu).T @ (X[y == c] - mu) for c, mu in zip(classes, means))
    inv = np.linalg.inv(scatter / (len(X) - len(classes)))
    Q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    return np.stack(
        [Q @ inv @ mu - 0.5 * mu @ inv @ mu + np.log(np.mean(y == c)) for c, mu in zip(classes, means)],
        axis=1,
    )


# ---------------------------------------------------------------------------
# convolution


def conv2d_direct(x, weight, bias):
    """Valid, stride-1 cross-correlation by plain loops."""
    n, c, h, w = x.shape
    co, _, kh, kw = weight.shape
    out = np.zeros((n, co, h - kh + 1, w - kw + 1))
    for b in range(n):
        for o in range(co):
            for i in range(h - kh + 1):
                for j in range(w - kw + 1):
                    out[b, o, i, j] = np.sum(x[b, :, i : i + kh, j : j + kw] * weight[o]) + bias[o]
    return out


def conv2d_grads_direct(x, weight, dout):
    """(dx, dweight, dbias) of ``conv2d_direct`` for an output gradient ``dout``."""
    _, _, kh, kw = weight.shape
    dx = np.zeros_like(x)
    dw = np.zeros_like(weight)
    for b in range(dout.shape[0]):
        for o in range(dout.shape[1]):
            for i in range(dout.shape[2]):
                for j in range(dout.shape[3]):
                    g = dout[b, o, i, j]
                    dx[b, :, i : i + kh, j : j + kw] += g * weight[o]
                    dw[o] += g * x[b, :, i : i + kh, j : j + kw]
    return dx, dw, dout.sum(axis=(0, 2, 3))


def im2col_direct(x, kh, kw):
    """Patch matrix (n*oh*ow, c*kh*kw) of ``x`` read through one strided view.

    Row (b, i, j) holds the patch x[b, :, i:i+kh, j:j+kw] flattened in
    (c, kh, kw) order; the reshape copies the view into C order.
    """
    n, c, h, w = x.shape
    oh, ow = h - kh + 1, w - kw + 1
    s0, s1, s2, s3 = x.strides
    view = np.lib.stride_tricks.as_strided(
        x, shape=(n, c, kh, kw, oh, ow), strides=(s0, s1, s2, s3, s2, s3), writeable=False
    )
    return view.transpose(0, 4, 5, 1, 2, 3).reshape(n * oh * ow, -1)


def maxpool_direct(x, kh, kw, dout):
    """Non-overlapping max pooling ``(out, dx)`` by plain loops.

    Each (kh, kw) window is scanned row by row and its first maximum wins a
    tie; it alone receives the window's output gradient.  Trailing rows and
    columns that fill no window are cropped and get a zero gradient.
    """
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // kh, w // kw))
    dx = np.zeros_like(x)
    for b in range(n):
        for ch in range(c):
            for i in range(h // kh):
                for j in range(w // kw):
                    best = None
                    for r in range(i * kh, (i + 1) * kh):
                        for col in range(j * kw, (j + 1) * kw):
                            if best is None or x[b, ch, r, col] > x[b, ch, best[0], best[1]]:
                                best = (r, col)
                    out[b, ch, i, j] = x[b, ch, best[0], best[1]]
                    dx[b, ch, best[0], best[1]] = dout[b, ch, i, j]
    return out, dx


# ---------------------------------------------------------------------------
# activation, batch-norm and dropout layers in their textbook select forms


def _channel(v, ndim):
    return v.reshape((1, -1, 1, 1) if ndim == 4 else (1, -1))


def _reduce_axes(ndim):
    return (0, 2, 3) if ndim == 4 else (0,)


def prelu_direct(x, alpha, dout):
    """PReLU ``(out, dx, {"alpha": grad})``, each branch chosen by ``np.where``."""
    alpha = _channel(alpha, x.ndim)
    neg = x < 0
    out = np.where(x >= 0, x, alpha * x)
    d_alpha = np.where(neg, dout * x, 0.0).sum(axis=_reduce_axes(x.ndim))
    return out, np.where(neg, alpha * dout, dout), {"alpha": d_alpha}


def pelu_direct(x, a, b, dout):
    """PELU ``(out, dx, {"a": grad, "b": grad})``: (a/b) x for x >= 0, a (exp(x/b) - 1) below."""
    a, b = _channel(a, x.ndim), _channel(b, x.ndim)
    pos = x >= 0
    expx = np.exp(np.minimum(x, 0.0) / b)
    out = np.where(pos, (a / b) * x, a * (expx - 1.0))
    axes = _reduce_axes(x.ndim)
    da = (np.where(pos, x / b, expx - 1.0) * dout).sum(axis=axes)
    db = (np.where(pos, -a * x / b**2, -a * x * expx / b**2) * dout).sum(axis=axes)
    dx = np.where(pos, a / b, (a / b) * expx) * dout
    return out, dx, {"a": da, "b": db}


def batch_norm_train_direct(x, gamma, beta, dout, eps):
    """Train-mode batch norm ``(out, dx, {"gamma", "beta"}, (mean, var))`` over batch statistics."""
    axes = _reduce_axes(x.ndim)
    mean = x.mean(axis=axes)
    centered = x - _channel(mean, x.ndim)
    var = np.mean(centered * centered, axis=axes)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = centered * _channel(inv_std, x.ndim)
    g = _channel(gamma, x.ndim)
    out = g * x_hat + _channel(beta, x.ndim)
    grads = {"gamma": (dout * x_hat).sum(axis=axes), "beta": dout.sum(axis=axes)}
    mean_d = dout.mean(axis=axes)
    mean_dx = (dout * x_hat).mean(axis=axes)
    inv = _channel(inv_std, x.ndim)
    dx = g * inv * (dout - _channel(mean_d, x.ndim) - x_hat * _channel(mean_dx, x.ndim))
    return out, dx, grads, (mean, var)


def dropout_mask_direct(rng, shape, rate):
    """Inverted-dropout mask: 1/keep where a uniform draw falls below keep, else 0."""
    keep = 1.0 - rate
    return (rng.random(shape) < keep) / keep


# ---------------------------------------------------------------------------
# inference


def eval_forward_direct(net, x, subject=None):
    """Eval-mode logits with every node run on its own, nothing folded.

    BatchNorm nodes apply the textbook (x - mean) / sqrt(var + eps) * gamma
    + beta with the subject's bank (``__default__`` when ``subject`` is
    None), dropout nodes are the identity, and every other node runs its
    own layer.
    """
    from myogest.nn.layers import BN_EPS, DEFAULT_SUBJECT, Context

    ctx = Context(mode="eval", subject=subject)
    key = DEFAULT_SUBJECT if subject is None else int(subject)
    values = {"input": np.asarray(x, dtype=np.float64)}
    for node in net.nodes:
        ins = [values[ref] for ref in node.inputs]
        layer = node.layer
        if layer.kind == "batch-norm":
            bank = layer.banks[key]
            shape = (1, -1, 1, 1) if ins[0].ndim == 4 else (1, -1)
            mean, var = bank["mean"].reshape(shape), bank["var"].reshape(shape)
            gamma = layer.params["gamma"].reshape(shape)
            beta = layer.params["beta"].reshape(shape)
            values[node.name] = (ins[0] - mean) / np.sqrt(var + BN_EPS) * gamma + beta
        elif layer.kind == "dropout":
            values[node.name] = ins[0]
        else:
            values[node.name] = layer.forward(ins, ctx)[0]
    return values[net.output_name]


def eval_step(layer, key):
    """``layer``'s eval output as a function of one unstacked input (a tuple
    of several): its ``eval_group`` step with a group of one."""
    step = type(layer).eval_group([layer], key)
    return lambda x: step(tuple(v[None] for v in x) if isinstance(x, tuple) else x[None])[0]


# ---------------------------------------------------------------------------
# gradients


def adam_update_direct(param, grad, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update (Kingma & Ba, 2015) as fresh arrays: (param, m, v)."""
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return param - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def numeric_param_grads(net, x, y, eps=1e-5):
    """Central finite differences of the train-mode cross-entropy per trainable parameter."""
    from myogest.nn.network import softmax_cross_entropy

    def perturbed(idx, value):
        bumped = arr.copy()
        bumped[idx] = value
        return bumped

    grads = {}
    for name, pname in net.trainable_parameters():
        layer = net.node(name).layer
        arr = layer.params[pname]
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            old = arr[idx]
            layer.set_param(pname, perturbed(idx, old + eps))
            lp, _ = softmax_cross_entropy(net.forward(x, mode="train"), y)
            layer.set_param(pname, perturbed(idx, old - eps))
            lm, _ = softmax_cross_entropy(net.forward(x, mode="train"), y)
            layer.set_param(pname, arr)
            g[idx] = (lp - lm) / (2 * eps)
        grads[(name, pname)] = g
    return grads


def gradcheck(net, x, y, tol=1e-4):
    """Return the worst relative error between analytic and numeric grads.

    Train mode only.  Frozen parameters are not compared with numeric
    gradients: their analytic gradient must be exactly zero, and any other
    value is reported as a failure with infinite error.
    """
    from myogest.nn.network import softmax_cross_entropy

    net.zero_grads()
    logits, caches = net._forward_full(x, "train", None, None)
    _, dlogits = softmax_cross_entropy(logits, y)
    net.backward_from(dlogits, caches)
    failures = [
        ((node.name, pname), float("inf"))
        for node in net.nodes
        if node.layer.frozen
        for pname, g in node.layer.grads.items()
        if np.any(g != 0)
    ]
    worst = float("inf") if failures else 0.0
    for key, g_num in numeric_param_grads(net, x, y).items():
        g_ana = net.node(key[0]).layer.grads[key[1]]
        denom = max(np.abs(g_num).max(), np.abs(g_ana).max(), 1e-6)
        rel = float(np.abs(g_num - g_ana).max() / denom)
        worst = max(worst, rel)
        if rel > tol:
            failures.append((key, rel))
    return worst, failures
