import tracemalloc

import numpy as np
import pytest
from scipy.stats import friedmanchisquare, wilcoxon

import oracles
from myogest.stats import (
    KNN_BLOCK,
    friedman_holm,
    holm_adjust,
    knn_classify,
    lda_classify,
    lda_fit,
    wilcoxon_one_tail,
)


@pytest.mark.parametrize("n", range(5, 13))
def test_wilcoxon_exact_matches_enumeration_with_ties_and_zeros(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        # small integer magnitudes force tied ranks; zeros must be dropped
        diffs = rng.integers(1, 5, n) * rng.choice([-1, 1], n)
        diffs = np.concatenate([diffs, np.zeros(rng.integers(0, 3))])
        rng.shuffle(diffs)
        a = rng.integers(50, 100, len(diffs)).astype(float)  # exact differences
        res = wilcoxon_one_tail(a + diffs, a)
        assert res.method == "exact" and res.n == n
        assert res.p_value == pytest.approx(oracles.wilcoxon_exact_enum(list(diffs)), abs=1e-12)


@pytest.mark.parametrize("n", [13, 17])
def test_wilcoxon_is_exact_past_12_differences(n):
    # the paper compares over 17 and 10 subjects; scipy's exact mode takes no ties
    rng = np.random.default_rng(n)
    for _ in range(20):
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        res = wilcoxon_one_tail(a, b)
        assert res.method == "exact" and res.n == n
        expected = wilcoxon(a, b, alternative="greater", method="exact").pvalue
        assert res.p_value == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("shape", [(6, 3), (10, 4), (8, 6)])
def test_friedman_matches_scipy_without_ties_in_a_row(shape):
    rng = np.random.default_rng(shape[0] * 10 + shape[1])
    # a permutation per row: no two methods tie on one dataset
    table = np.stack([rng.permutation(shape[1]) for _ in range(shape[0])]) / shape[1]
    table = table + rng.uniform(0, 0.01, shape[0])[:, None]
    res = friedman_holm(table)
    ref = friedmanchisquare(*table.T)
    assert res.statistic == pytest.approx(ref.statistic, rel=1e-12)
    assert res.p_value == pytest.approx(ref.pvalue, rel=1e-9)


@pytest.mark.parametrize("m", [1, 2, 5, 17])
def test_holm_adjust_is_monotone_and_bounded(m):
    rng = np.random.default_rng(m)
    for _ in range(20):
        p = rng.uniform(0, 1, m) ** 3
        p[rng.integers(0, m)] = p[0]  # a tied pair
        adj = holm_adjust(p)
        assert np.all(adj >= p) and np.all(adj <= 1.0)
        assert np.all(np.diff(adj[np.argsort(p, kind="stable")]) >= 0)


def test_lda_classify_takes_the_best_discriminant_score_with_unequal_priors():
    rng = np.random.default_rng(12)
    y = np.repeat([0, 1, 2], [40, 15, 5])  # the priors move the boundaries
    X = rng.standard_normal((60, 4)) + 0.8 * y[:, None]
    Q = rng.standard_normal((300, 4)) + 0.8
    scores = oracles.lda_scores_direct(X, y, Q)
    top2 = np.sort(scores, axis=1)[:, -2:]
    clear = top2[:, 1] - top2[:, 0] > 1e-6  # no query the rounding could flip
    assert clear.sum() > 250
    got = lda_classify(lda_fit(X, y), Q)
    assert np.array_equal(got[clear], scores.argmax(axis=1)[clear])


def _knn_1d(train, query, k):
    X = np.array([[x] for x, _ in train], dtype=float)
    y = np.array([label for _, label in train])
    return int(knn_classify(X, y, [[query]], k=k)[0])


def test_knn_majority_wins_even_when_farther():
    assert _knn_1d([(0.5, 4), (1.2, 9), (1.5, 9)], 0.0, k=3) == 9


def test_knn_tied_votes_go_to_the_smaller_mean_distance():
    # label 2 at distances 1 and 4 (mean 2.5), label 5 at 2 and 2.2 (mean 2.1)
    train = [(1.0, 2), (4.0, 2), (-2.0, 5), (2.2, 5), (9.0, 0)]
    assert _knn_1d(train, 0.0, k=4) == 5


def test_knn_tied_votes_and_mean_distance_go_to_the_smaller_label():
    # label 7 at distances 1 and 3, label 3 at 2 and 2: both means are 2
    train = [(1.0, 7), (3.0, 7), (-2.0, 3), (2.0, 3), (9.0, 0)]
    assert _knn_1d(train, 0.0, k=4) == 3


@pytest.mark.parametrize("k", [1, 4, 5])
def test_knn_in_query_blocks_equals_the_whole_tensor_form(k):
    rng = np.random.default_rng(k)
    # small integer coordinates give tied distances and tied votes
    X = rng.integers(0, 4, (60, 3)).astype(float)
    y = rng.integers(0, 4, 60)
    Q = rng.integers(0, 4, (2 * KNN_BLOCK + 7, 3)).astype(float)
    assert np.array_equal(knn_classify(X, y, Q, k=k), oracles.knn_classify_direct(X, y, Q, k=k))
    X, Q = rng.standard_normal((200, 16)), rng.standard_normal((KNN_BLOCK + 1, 16))
    y = rng.integers(0, 7, 200)
    assert np.array_equal(knn_classify(X, y, Q, k=k), oracles.knn_classify_direct(X, y, Q, k=k))


def test_knn_peak_memory_is_one_query_block():
    # the whole-tensor form holds all 1000 x 300 x 16 differences at once
    # (41 MB peak); one block of 64 queries peaks at 3 MB
    rng = np.random.default_rng(6)
    X, y = rng.standard_normal((300, 16)), rng.integers(0, 7, 300)
    Q = rng.standard_normal((1000, 16))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        knn_classify(X, y, Q)
        peak_mb = (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        tracemalloc.stop()
    assert peak_mb < 8
