"""Shallow baselines (LDA, KNN) and nonparametric statistical tests.

The Wilcoxon signed-rank test is exact for every n, ties included: it
counts the distribution of the signed-rank sum over doubled ranks.
Friedman ranks treat rank 1 as best; the post-hoc comparisons against the
best-ranked method are Holm step-down adjusted two-sided z tests, matching
the usual multi-classifier comparison recipe.

scipy is imported inside the two functions that read it, ``lda_fit``
(``scipy.linalg.eigh``) and ``friedman_holm`` (``scipy.special.gammaincc``):
loading ``scipy.special`` takes longer than the rest of ``import myogest``,
and a ConvNet run calls neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericalError

ALPHA = 0.05


# ---------------------------------------------------------------------------
# Linear discriminant analysis


@dataclass
class LdaModel:
    classes: np.ndarray
    projection_basis: np.ndarray  # (D, C-1)
    score_weights: np.ndarray = field(repr=False)  # covariance^-1 means^T, (D, C)
    score_offsets: np.ndarray = field(repr=False)  # per-class score offset, (C,)


def lda_fit(features, labels) -> LdaModel:
    """Fit a shared-covariance discriminant with a Fisher projection basis.

    A singular pooled covariance gets ridge regularization with
    lambda = 1e-6 trace / d.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    classes, counts = np.unique(y, return_counts=True)
    if len(classes) < 2:
        raise DataError("lda needs at least two classes")
    n, d = X.shape
    means = np.stack([X[y == c].mean(axis=0) for c in classes])

    within = np.zeros((d, d))
    for i, c in enumerate(classes):
        diff = X[y == c] - means[i]
        within += diff.T @ diff
    denom = max(1, n - len(classes))
    within /= denom

    ridge = 1e-6 * np.trace(within) / d if np.trace(within) > 0 else 1e-6
    for attempt in range(2):
        try:
            np.linalg.cholesky(within)
            break
        except np.linalg.LinAlgError:
            within = within + ridge * np.eye(d)
    else:
        raise NumericalError("covariance not positive definite after regularization")

    grand = X.mean(axis=0)
    between = np.zeros((d, d))
    for i, c in enumerate(classes):
        diff = (means[i] - grand)[:, None]
        between += counts[i] * (diff @ diff.T)
    between /= n

    from scipy.linalg import eigh

    vals, vecs = eigh(between, within)
    order = np.argsort(vals)[::-1][: len(classes) - 1]
    basis = vecs[:, order]

    weights = np.linalg.solve(within, means.T)
    offsets = -0.5 * np.einsum("cd,dc->c", means, weights) + np.log(counts / n)
    return LdaModel(classes, basis, weights, offsets)


def lda_project(model: LdaModel, features) -> np.ndarray:
    """Project onto the <= C-1 Fisher directions."""
    return np.asarray(features, dtype=np.float64) @ model.projection_basis


def lda_classify(model: LdaModel, features) -> np.ndarray:
    X = np.asarray(features, dtype=np.float64)
    lin = X @ model.score_weights  # (N, C)
    return model.classes[np.argmax(lin + model.score_offsets, axis=1)]


# ---------------------------------------------------------------------------
# K-nearest neighbors


KNN_BLOCK = 64  # queries per distance block


def knn_classify(train_features, train_labels, queries, k=5):
    """Majority vote among the k nearest; ties break by smaller mean distance,
    then by smaller label.

    Distances are computed for ``KNN_BLOCK`` queries at a time, so memory
    holds one (block x training x features) difference tensor, never the
    whole query set's; each distance is the same per-row reduction either way.
    One stable argsort per block ranks every query's neighbours; the stable
    order is unique, so ties go to the lowest training index.
    """
    X = np.asarray(train_features, dtype=np.float64)
    y = np.asarray(train_labels)
    Q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if k > len(X):
        raise ConfigError(f"k={k} exceeds training size {len(X)}")
    out = np.empty(len(Q), dtype=y.dtype)
    for start in range(0, len(Q), KNN_BLOCK):
        block = Q[start : start + KNN_BLOCK]
        dist = np.sqrt(((block[:, None, :] - X[None, :, :]) ** 2).sum(axis=2))
        nearest = np.argsort(dist, axis=1, kind="stable")[:, :k]
        for i, (row, idx) in enumerate(zip(dist, nearest), start):
            out[i] = _vote(row, idx, y)
    return out


def _vote(dist, nearest, y):
    """Label of one query given its distances and its k nearest, nearest first."""
    labels = y[nearest]
    candidates, votes = np.unique(labels, return_counts=True)
    tied = candidates[votes == votes.max()]
    if len(tied) == 1:
        return tied[0]
    mean_dist = np.array([dist[nearest[labels == c]].mean() for c in tied])
    return tied[np.lexsort((tied, mean_dist))][0]


# ---------------------------------------------------------------------------
# Statistical tests


@dataclass
class StatResult:
    statistic: float
    p_value: float
    reject_h0: bool
    n: int = 0
    method: str = ""  # "exact" or "degenerate"


def _rank_with_ties(values: np.ndarray) -> np.ndarray:
    """Average ranks, 1-based."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _phi(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def wilcoxon_one_tail(a, b) -> StatResult:
    """One-tail Wilcoxon signed-rank test of the alternative ``a > b`` at ``ALPHA``.

    Zero differences are dropped.  The p-value is exact with ties: doubled
    average ranks are integers, and the null distribution of their positive
    sum over the 2^n equally likely sign patterns is built by one numpy
    shift-and-add per rank, halved each time, so that it holds probabilities
    (exact dyadic fractions up to n = 53).  That costs O(n^3) element
    operations: about 1 ms at n = 100 and 2 s at n = 1000 on one 2-core host.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ConfigError("paired samples must have equal length")
    d = a - b
    d = d[d != 0.0]
    n = len(d)
    if n == 0:
        return StatResult(0.0, 1.0, False, n=0, method="degenerate")
    if n < 5:
        raise DataError(f"need at least 5 non-zero differences, got {n}")
    ranks = _rank_with_ties(np.abs(d))
    w_plus = float(ranks[d > 0].sum())

    doubled = np.rint(2.0 * ranks).astype(np.int64)
    dist = np.zeros(int(doubled.sum()) + 1)  # P(doubled positive-rank sum = index)
    dist[0] = 1.0
    for r in doubled:
        dist *= 0.5
        dist[r:] += dist[:-r]  # numpy buffers the overlapping operands
    p = float(dist[int(round(2.0 * w_plus)):].sum())
    return StatResult(w_plus, p, p < ALPHA, n=n, method="exact")


def wilcoxon_payload(res: StatResult) -> dict:
    """JSON fields of a Wilcoxon result, shared by reports and the stats command."""
    return {
        "statistic": res.statistic,
        "p_value": res.p_value,
        "reject_h0": bool(res.reject_h0),
        "n": res.n,
    }


def holm_adjust(p_values) -> np.ndarray:
    """Holm step-down adjusted p-values, monotone in the sorted order."""
    p = np.asarray(p_values, dtype=np.float64)
    m = len(p)
    order = np.argsort(p, kind="stable")
    adjusted = np.empty(m)
    running = 0.0
    for i, idx in enumerate(order):
        running = max(running, min(1.0, (m - i) * p[idx]))
        adjusted[idx] = running
    return adjusted


@dataclass
class FriedmanResult:
    mean_ranks: np.ndarray
    statistic: float
    p_value: float
    best_index: int
    comparisons: list  # (method_index, z, raw_p, adjusted_p, reject)


def friedman_holm(accuracy_table) -> FriedmanResult:
    """Friedman mean ranks plus Holm post-hoc comparisons against the best.

    Rows are datasets (e.g. subjects), columns are methods.  Rank 1 is the
    highest accuracy; adjusted p-values below ``ALPHA`` reject.
    """
    table = np.asarray(accuracy_table, dtype=np.float64)
    if table.ndim != 2 or table.shape[0] < 2 or table.shape[1] < 2:
        raise ConfigError("need at least 2 datasets x 2 methods")
    from scipy.special import gammaincc

    n, k = table.shape
    mean_ranks = np.stack([_rank_with_ties(-row) for row in table]).mean(axis=0)

    chi2 = 12.0 * n / (k * (k + 1)) * (np.sum(mean_ranks**2) - k * (k + 1) ** 2 / 4.0)
    p_value = float(gammaincc((k - 1) / 2.0, max(chi2, 0.0) / 2.0))

    best = int(np.argmin(mean_ranks))
    se = math.sqrt(k * (k + 1) / (6.0 * n))
    raw = []
    others = [j for j in range(k) if j != best]
    for j in others:
        z = (mean_ranks[j] - mean_ranks[best]) / se
        raw.append(2.0 * (1.0 - _phi(abs(z))))
    adjusted = holm_adjust(raw) if raw else np.array([])
    comparisons = [
        (j, (mean_ranks[j] - mean_ranks[best]) / se, raw[i], float(adjusted[i]), adjusted[i] < ALPHA)
        for i, j in enumerate(others)
    ]
    return FriedmanResult(
        mean_ranks=mean_ranks,
        statistic=float(chi2),
        p_value=p_value,
        best_index=best,
        comparisons=comparisons,
    )


def friedman_payload(res: FriedmanResult, methods) -> dict:
    """JSON form of a Friedman + Holm result, methods named by column."""
    return {
        "methods": list(methods),
        "mean_ranks": res.mean_ranks.tolist(),
        "statistic": res.statistic,
        "p_value": res.p_value,
        "best": methods[res.best_index],
        "comparisons": [
            {"method": methods[j], "z": z, "raw_p": p, "adjusted_p": ap, "reject_h0": bool(rej)}
            for j, z, p, ap, rej in res.comparisons
        ],
    }
