"""Shallow baselines (LDA, KNN) and nonparametric statistical tests.

The Wilcoxon signed-rank test enumerates all 2^n sign assignments exactly
for n <= 12 and falls back to the normal approximation with continuity and
tie corrections above.  Friedman ranks treat rank 1 as best; the post-hoc
comparisons against the best-ranked method are Holm step-down adjusted
two-sided z tests, matching the usual multi-classifier comparison recipe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np
from scipy.special import gammaincc

from .errors import ConfigError, DataError, NumericalError

ALPHA = 0.05


# ---------------------------------------------------------------------------
# Linear discriminant analysis


@dataclass
class LdaModel:
    classes: np.ndarray
    class_means: np.ndarray  # (C, D)
    covariance: np.ndarray  # (D, D), pooled within-class, regularized if needed
    projection_basis: np.ndarray  # (D, C-1)
    priors: np.ndarray
    regularized: bool = False
    _solve: np.ndarray = field(default=None, repr=False)  # covariance^-1 means^T


def lda_fit(features, labels) -> LdaModel:
    """Fit a shared-covariance discriminant with a Fisher projection basis.

    A singular pooled covariance gets ridge regularization with
    lambda = 1e-6 trace / d (flagged on the model).
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    classes, counts = np.unique(y, return_counts=True)
    if len(classes) < 2:
        raise DataError("lda needs at least two classes")
    n, d = X.shape
    means = np.stack([X[y == c].mean(axis=0) for c in classes])
    priors = counts / n

    within = np.zeros((d, d))
    for i, c in enumerate(classes):
        diff = X[y == c] - means[i]
        within += diff.T @ diff
    denom = max(1, n - len(classes))
    within /= denom

    regularized = False
    ridge = 1e-6 * np.trace(within) / d if np.trace(within) > 0 else 1e-6
    for attempt in range(2):
        try:
            np.linalg.cholesky(within)
            break
        except np.linalg.LinAlgError:
            within = within + ridge * np.eye(d)
            regularized = True
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

    model = LdaModel(
        classes=classes,
        class_means=means,
        covariance=within,
        projection_basis=basis,
        priors=priors,
        regularized=regularized,
    )
    model._solve = np.linalg.solve(within, means.T)  # (D, C)
    return model


def lda_project(model: LdaModel, features) -> np.ndarray:
    """Project onto the <= C-1 Fisher directions."""
    return np.asarray(features, dtype=np.float64) @ model.projection_basis


def lda_classify(model: LdaModel, features) -> np.ndarray:
    X = np.asarray(features, dtype=np.float64)
    lin = X @ model._solve  # (N, C)
    const = -0.5 * np.einsum("cd,dc->c", model.class_means, model._solve) + np.log(
        model.priors
    )
    return model.classes[np.argmax(lin + const, axis=1)]


# ---------------------------------------------------------------------------
# K-nearest neighbors


def knn_classify(train_features, train_labels, queries, k=5):
    """Majority vote among the k nearest; ties break by smaller mean distance,
    then by smaller label."""
    X = np.asarray(train_features, dtype=np.float64)
    y = np.asarray(train_labels)
    Q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if k > len(X):
        raise ConfigError(f"k={k} exceeds training size {len(X)}")
    dist = np.sqrt(((Q[:, None, :] - X[None, :, :]) ** 2).sum(axis=2))
    out = np.empty(len(Q), dtype=y.dtype)
    for i in range(len(Q)):
        # stable sort keeps ties deterministic (lowest training index first)
        nearest = np.argsort(dist[i], kind="stable")[:k]
        labels = y[nearest]
        candidates, votes = np.unique(labels, return_counts=True)
        best_votes = votes.max()
        tied = candidates[votes == best_votes]
        if len(tied) == 1:
            out[i] = tied[0]
            continue
        mean_dist = np.array([dist[i][nearest[labels == c]].mean() for c in tied])
        best = tied[np.lexsort((tied, mean_dist))][0]
        out[i] = best
    return out


# ---------------------------------------------------------------------------
# Statistical tests


@dataclass
class StatResult:
    statistic: float
    p_value: float
    reject_h0: bool
    ranks: np.ndarray = None
    n: int = 0
    method: str = ""
    degenerate: bool = False


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


def wilcoxon_one_tail(a, b, alpha: float = ALPHA) -> StatResult:
    """One-tail Wilcoxon signed-rank test of the alternative ``a > b``.

    Zero differences are dropped.  Exact enumeration of the 2^n sign
    assignments for n <= 12; otherwise normal approximation with tie
    variance correction and continuity correction.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ConfigError("paired samples must have equal length")
    d = a - b
    d = d[d != 0.0]
    n = len(d)
    if n == 0:
        return StatResult(0.0, 1.0, False, n=0, method="degenerate", degenerate=True)
    if n < 5:
        raise DataError(f"need at least 5 non-zero differences, got {n}")
    ranks = _rank_with_ties(np.abs(d))
    w_plus = float(ranks[d > 0].sum())

    if n <= 12:
        count = 0
        for signs in product((0.0, 1.0), repeat=n):
            if float(np.dot(signs, ranks)) >= w_plus - 1e-12:
                count += 1
        p = count / 2.0**n
        method = "exact"
    else:
        mu = n * (n + 1) / 4.0
        var = n * (n + 1) * (2 * n + 1) / 24.0
        _, tie_counts = np.unique(ranks, return_counts=True)
        var -= np.sum(tie_counts**3 - tie_counts) / 48.0
        if var <= 0:
            return StatResult(w_plus, 1.0, False, ranks=ranks, n=n, method="degenerate", degenerate=True)
        z = (w_plus - mu - 0.5) / math.sqrt(var)
        p = 1.0 - _phi(z)
        method = "normal-approximation"
    return StatResult(w_plus, float(p), p < alpha, ranks=ranks, n=n, method=method)


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
    rank_table: np.ndarray


def friedman_holm(accuracy_table, alpha: float = ALPHA, higher_is_better: bool = True) -> FriedmanResult:
    """Friedman mean ranks plus Holm post-hoc comparisons against the best.

    Rows are datasets (e.g. subjects), columns are methods.  Rank 1 is best.
    """
    table = np.asarray(accuracy_table, dtype=np.float64)
    if table.ndim != 2 or table.shape[0] < 2 or table.shape[1] < 2:
        raise ConfigError("need at least 2 datasets x 2 methods")
    n, k = table.shape
    signed = -table if higher_is_better else table
    rank_table = np.stack([_rank_with_ties(row) for row in signed])
    mean_ranks = rank_table.mean(axis=0)

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
        (j, (mean_ranks[j] - mean_ranks[best]) / se, raw[i], float(adjusted[i]), adjusted[i] < alpha)
        for i, j in enumerate(others)
    ]
    return FriedmanResult(
        mean_ranks=mean_ranks,
        statistic=float(chi2),
        p_value=p_value,
        best_index=best,
        comparisons=comparisons,
        rank_table=rank_table,
    )
