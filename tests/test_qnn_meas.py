"""Tests for pool-observable feature extraction and the LASSO fit."""

from dataclasses import replace

import numpy as np
import pytest

from artifact.dataset import Dataset, generate_dataset
from artifact.optim import accuracy
from artifact.qnn_meas import (
    extract_feature_matrix,
    lasso_fit,
    lasso_scores,
    soft_threshold,
)
from artifact.statevec import forrelation
from artifact.symmetry import build_pool
from oracles import lambda_max, lasso_objective, structured_features


def random_pairs(rng, n, count):
    """count random labelled pairs of n-qubit barcodes."""
    N = 2 ** n
    bits = rng.integers(0, 2, (count, 2, N)).astype(np.uint8)
    y = np.array([rng.integers(0, 2) for _ in bits], dtype=float)
    return Dataset(bits[:, 0], bits[:, 1], y, n, 1.0, 0)


def feature_row(x1, x2, pool):
    n = x1.size.bit_length() - 1
    pair = Dataset(x1[None], x2[None], np.zeros(1), n, 1.0, 0)
    return extract_feature_matrix(pair, pool)[0]


# ------------------------------------------------------------ features


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fast_path_matches_structured_path(n):
    """One batched call against the simulator, pair by pair."""
    pool = build_pool(n)
    pairs = random_pairs(np.random.default_rng(42), n, 60)
    F = extract_feature_matrix(pairs, pool)
    assert F.shape == (60, len(pool.entries))
    for row, s in zip(F, pairs):
        np.testing.assert_allclose(row, structured_features(s.x1, s.x2, pool),
                                   rtol=0, atol=1e-10)


def test_swap_wht_feature_is_forrelation():
    pool = build_pool(3)
    k = pool.names().index("swap_wht")
    pairs = random_pairs(np.random.default_rng(7), 3, 10)
    F = extract_feature_matrix(pairs, pool)
    for row, s in zip(F, pairs):
        assert abs(row[k] - forrelation(s.x1, s.x2)) <= 1e-12


def test_zero_valued_features_on_phase_states():
    """Single-Y and Z-diagonal observables vanish on any phase-state pair."""
    pool = build_pool(3)
    names = pool.names()
    for s in random_pairs(np.random.default_rng(3), 3, 5):
        feats = structured_features(s.x1, s.x2, pool)
        for zero_name in ("sum_y", "sum_zz", "z_all"):
            assert abs(feats[names.index(zero_name)]) <= 1e-12


def test_swap_feature_is_squared_overlap():
    pool = build_pool(2)
    k = pool.names().index("swap")
    x = np.array([0, 1, 1, 0], dtype=np.uint8)
    assert abs(feature_row(x, x, pool)[k] - 1.0) <= 1e-12


def test_feature_rows_invariant_under_exchange_and_complement():
    """Rows are unchanged by (x1, x2) -> (x2, x1) and by complementing both
    barcodes, over 120 random pairs at each of n = 3, 4, 5."""
    rng = np.random.default_rng(11)
    for n in (3, 4, 5):
        pool = build_pool(n)
        pairs = random_pairs(rng, n, 120)
        base = extract_feature_matrix(pairs, pool)
        exchanged = replace(pairs, X1=pairs.X2, X2=pairs.X1)
        complemented = replace(pairs, X1=1 - pairs.X1, X2=1 - pairs.X2)
        for variant in (exchanged, complemented):
            np.testing.assert_allclose(extract_feature_matrix(variant, pool),
                                       base, rtol=0, atol=1e-12)


def test_extract_rejects_length_mismatch():
    pool = build_pool(3)
    x = np.array([0, 1, 0, 0], dtype=np.uint8)  # length 4 but pool wants 8
    with pytest.raises(ValueError, match="register size"):
        feature_row(x, x, pool)


def test_feature_matrix_shape_and_rows():
    """A row depends on its own pair alone: each row of a batch equals the
    one-pair matrix of that pair."""
    ds = generate_dataset(n=3, epsilon=None, count_per_class=4, seed=9)
    pool = build_pool(3)
    F = extract_feature_matrix(ds, pool)
    assert F.shape == (8, 10)
    for row, s in zip(F, ds):
        np.testing.assert_allclose(row, feature_row(s.x1, s.x2, pool),
                                   rtol=1e-15, atol=1e-15)


# --------------------------------------------------------------- LASSO


def test_soft_threshold_examples():
    assert soft_threshold(3.0, 1.0) == 2.0
    assert soft_threshold(-3.0, 1.0) == -2.0
    assert soft_threshold(0.5, 1.0) == 0.0
    assert soft_threshold(-0.5, 1.0) == 0.0
    assert soft_threshold(2.0, 0.0) == 2.0


def test_lasso_zero_penalty_recovers_least_squares():
    rng = np.random.default_rng(0)
    M, K = 60, 5
    F = rng.standard_normal((M, K))
    y = rng.standard_normal(M)
    model = lasso_fit(F, y, lam=0.0, max_sweeps=5000, tol=1e-12)
    assert model.converged
    Z = (F - model.mu) / model.sd
    ref, *_ = np.linalg.lstsq(
        np.hstack([Z, np.ones((M, 1))]), y, rcond=None)
    np.testing.assert_allclose(model.alpha, ref[:K], atol=1e-8)
    assert abs(model.intercept - ref[K]) <= 1e-8


def test_lasso_null_model_at_lambda_max():
    rng = np.random.default_rng(1)
    F = rng.standard_normal((40, 6))
    y = (rng.random(40) > 0.5).astype(float)
    lmax = lambda_max(F, y)
    model = lasso_fit(F, y, lam=lmax * 1.0001)
    assert np.all(model.alpha == 0.0)
    assert model.intercept == pytest.approx(y.mean())
    below = lasso_fit(F, y, lam=lmax * 0.5)
    assert np.any(below.alpha != 0.0)


def test_lasso_sparsity_monotone_in_lambda():
    rng = np.random.default_rng(2)
    F = rng.standard_normal((50, 8))
    w = np.array([2.0, -1.5, 0.0, 0.0, 1.0, 0.0, 0.0, 0.5])
    y = F @ w + 0.05 * rng.standard_normal(50)
    sizes = []
    for lam in (1e-4, 1e-3, 1e-2, 1e-1):
        model = lasso_fit(F, y, lam=lam)
        sizes.append(int(np.sum(model.alpha != 0.0)))
    assert sizes == sorted(sizes, reverse=True)


def test_lasso_objective_non_increasing():
    rng = np.random.default_rng(3)
    F = rng.standard_normal((30, 7))
    y = (rng.random(30) > 0.5).astype(float)
    model = lasso_fit(F, y, lam=0.01)
    hist = np.asarray(model.objective_history)
    assert np.all(np.diff(hist) <= 1e-12)
    # history endpoint matches a recomputation from the final parameters
    Z = (F - model.mu) / model.sd
    recomputed = lasso_objective(Z, y, model.alpha, model.intercept, 0.01)
    assert abs(hist[-1] - recomputed) <= 1e-12


def test_lasso_constant_column_gets_zero_weight():
    rng = np.random.default_rng(4)
    F = rng.standard_normal((25, 4))
    F[:, 2] = 7.0  # constant feature
    y = rng.standard_normal(25)
    model = lasso_fit(F, y, lam=0.01)
    assert model.alpha[2] == 0.0
    assert model.sd[2] == 1.0


def test_lasso_scores_standardization_round_trip():
    """Scores computed on raw features match scores on pre-standardized ones."""
    rng = np.random.default_rng(5)
    F = rng.standard_normal((20, 3)) * np.array([10.0, 0.1, 1.0]) + 5.0
    y = (rng.random(20) > 0.5).astype(float)
    model = lasso_fit(F, y, lam=0.02)
    Z = (F - model.mu) / model.sd
    np.testing.assert_allclose(lasso_scores(model, F),
                               Z @ model.alpha + model.intercept, atol=1e-12)


def test_lasso_input_validation():
    with pytest.raises(ValueError):
        lasso_fit(np.zeros((4, 2)), np.zeros(5))
    with pytest.raises(ValueError):
        lasso_fit(np.zeros((4, 2)), np.zeros(4), lam=-0.1)
    with pytest.raises(ValueError):
        lasso_fit(np.zeros((4, 2)), np.zeros(4), feature_names=("a",))


# -------------------------------------------------- end-to-end smoke


def test_lasso_separates_encoded_pairs_at_n4():
    train = generate_dataset(n=4, epsilon=None, count_per_class=10, seed=101)
    test = generate_dataset(n=4, epsilon=None, count_per_class=40, seed=202)
    pool = build_pool(4)
    Ftr = extract_feature_matrix(train, pool)
    Fte = extract_feature_matrix(test, pool)
    y_train, y_test = train.y, test.y
    model = lasso_fit(Ftr, y_train, feature_names=tuple(pool.names()))
    assert model.converged
    train_acc = accuracy(lasso_scores(model, Ftr), y_train)
    test_acc = accuracy(lasso_scores(model, Fte), y_test)
    assert train_acc >= 0.9
    assert test_acc >= 0.85
    # the forrelation-style product observable should be among the survivors
    assert "swap_wht" in model.nonzero_features()
