"""Tests for the Siamese baselines: backprop correctness and training."""

import numpy as np
import pytest

from artifact.classical import (
    CnnSpec,
    MlpSpec,
    SiameseModel,
    _pool_backward,
    _pool_forward,
    cnn_spec_for,
    train_siamese,
)
from artifact.dataset import generate_dataset


def fd_gradient_full(model, X1, X2, y, h=1e-5):
    """Central-difference gradient of the loss for every parameter entry."""
    grads = []
    for p in model.params():
        p = np.atleast_1d(np.asarray(p, dtype=float))
        g = np.zeros_like(p)
        grads.append(g)
    values = [np.array(p, dtype=float, copy=True) for p in model.params()]
    for i, base in enumerate(values):
        flat = base.reshape(-1) if base.ndim else base.reshape(1)
        gflat = grads[i].reshape(-1)
        for j in range(flat.size):
            for sign in (+1, -1):
                perturbed = [np.array(v, copy=True) for v in values]
                pf = perturbed[i].reshape(-1) if perturbed[i].ndim else perturbed[i].reshape(1)
                pf[j] += sign * h
                model.set_params(perturbed)
                p, _ = model.forward(X1, X2)
                loss = float(np.mean((p - y) ** 2))
                if sign > 0:
                    lp = loss
                else:
                    lm = loss
            gflat[j] = (lp - lm) / (2 * h)
    model.set_params(values)
    return grads


def flatten_all(arrays):
    return np.concatenate([np.atleast_1d(np.asarray(a, dtype=float)).ravel()
                           for a in arrays])


# ------------------------------------------------------------ gradients


def test_mlp_backprop_full_fd_sweep():
    """Every parameter of a tiny Siamese MLP against central differences."""
    rng = np.random.default_rng(0)
    model = SiameseModel(MlpSpec(16, (4, 3, 2)), rng)
    X1 = rng.standard_normal((5, 16))
    X2 = rng.standard_normal((5, 16))
    y = rng.integers(0, 2, 5).astype(float)
    _, _, analytic = model.loss_and_gradients(X1, X2, y)
    numeric = fd_gradient_full(model, X1, X2, y)
    ga = flatten_all(analytic)
    gn = flatten_all(numeric)
    rel = np.linalg.norm(ga - gn) / np.linalg.norm(gn)
    assert rel <= 1e-6, f"norm-wise relative gradient error {rel:.3e}"


def test_cnn_backprop_fd_sweep():
    """Siamese CNN at 16x16 against central differences (all tensors)."""
    rng = np.random.default_rng(1)
    model = SiameseModel(CnnSpec(16), rng)
    X1 = rng.standard_normal((3, 256))
    X2 = rng.standard_normal((3, 256))
    y = np.array([0.0, 1.0, 1.0])
    _, _, analytic = model.loss_and_gradients(X1, X2, y)
    numeric = fd_gradient_full(model, X1, X2, y)
    ga = flatten_all(analytic)
    gn = flatten_all(numeric)
    rel = np.linalg.norm(ga - gn) / np.linalg.norm(gn)
    assert rel <= 1e-6, f"norm-wise relative gradient error {rel:.3e}"


def test_identical_inputs_give_zero_encoder_gradient():
    rng = np.random.default_rng(3)
    model = SiameseModel(MlpSpec(8, (4, 2)), rng)
    X = rng.standard_normal((6, 8))
    y = rng.integers(0, 2, 6).astype(float)
    _, p, grads = model.loss_and_gradients(X, X.copy(), y)
    # d == 0 for every pair, so the branch gradients cancel exactly
    for g in grads[:-2]:
        assert np.max(np.abs(g)) == 0.0
    # but the head bias still learns
    assert float(grads[-1]) != 0.0
    np.testing.assert_allclose(p, 1.0 / (1.0 + np.exp(1.0)), atol=1e-12)


# ---------------------------------------------------------- model basics


def test_prediction_symmetric_under_argument_swap():
    rng = np.random.default_rng(4)
    model = SiameseModel(MlpSpec(16, (8, 4)), rng)
    X1 = rng.integers(0, 2, (7, 16)).astype(float)
    X2 = rng.integers(0, 2, (7, 16)).astype(float)
    p12, _ = model.forward(X1, X2)
    p21, _ = model.forward(X2, X1)
    np.testing.assert_allclose(p12, p21, atol=1e-12)


def test_zero_encoder_weights_give_zero_embedding():
    rng = np.random.default_rng(5)
    model = SiameseModel(MlpSpec(8, (4, 2)), rng)
    zeros = [np.zeros_like(p) for p in model.encoder.params()]
    model.encoder.set_params(zeros)
    X = rng.standard_normal((3, 8))
    np.testing.assert_array_equal(model.encoder.forward(X)[0], np.zeros((3, 2)))
    p, _ = model.forward(X, rng.standard_normal((3, 8)))
    np.testing.assert_allclose(p, 1.0 / (1.0 + np.exp(1.0)), atol=1e-12)


def test_embedding_layer_scaled_down_at_init():
    rng = np.random.default_rng(6)
    model = SiameseModel(MlpSpec(64), rng)
    final = model.encoder.W[-1]
    lim = np.sqrt(6.0 / 64.0) * 0.011  # He-uniform limit times the 0.01 scale
    assert np.max(np.abs(final)) <= lim


def test_pool_backward_routes_a_tie_to_the_first_maximum():
    """Binary pixels repeat 3x3 patches, so two positive entries of a pool
    block can tie; the whole gradient goes to the first of them."""
    X = np.array([[0.2, 0.7, 0.7, 0.1],
                  [0.7, 0.7, 0.3, 0.7]]).reshape(1, 2, 4, 1)
    out, cache = _pool_forward(X)
    np.testing.assert_array_equal(out.ravel(), [0.7, 0.7])
    g = np.array([3.0, -2.0]).reshape(out.shape)
    gX = _pool_backward(g, cache)
    expect = np.zeros_like(X)
    expect[0, 0, 1, 0] = 3.0   # block 0: ties at (0, 1), (1, 0), (1, 1)
    expect[0, 0, 2, 0] = -2.0  # block 1: ties at (0, 2), (1, 3)
    np.testing.assert_array_equal(gX, expect)


def test_cnn_spec_for_sizes():
    assert cnn_spec_for(8).side == 16
    assert cnn_spec_for(10).side == 32
    with pytest.raises(ValueError, match="not square"):
        cnn_spec_for(9)
    with pytest.raises(ValueError, match="below the minimum"):
        cnn_spec_for(6)
    with pytest.raises(ValueError, match="below the minimum"):
        cnn_spec_for(4)


def test_cnn_flat_after_stack():
    assert CnnSpec(16).flat_after_stack() == 2 * 2 * 16
    assert CnnSpec(32).flat_after_stack() == 6 * 6 * 16


# ------------------------------------------------------------- training


def separable_pairs(n, count, rng):
    """Pairs where label 0 means identical inputs, label 1 complements."""
    from artifact.dataset import SamplePair
    out = []
    for _ in range(count):
        x = rng.integers(0, 2, 2 ** n).astype(np.uint8)
        out.append(SamplePair(x, x.copy(), 0))
        out.append(SamplePair(x, (1 - x).astype(np.uint8), 1))
    return out


def test_training_reaches_perfect_accuracy_and_stops_early():
    rng = np.random.default_rng(7)
    samples = separable_pairs(4, 4, rng)
    result = train_siamese(samples, MlpSpec(16), seed=11, epochs=300)
    assert result.records[-1].train_acc == 1.0
    assert result.stopped_early
    assert result.records[-1].epoch >= 50  # the early-stop floor
    assert result.records[-1].epoch < 300


def test_training_records_schema_and_determinism():
    ds = generate_dataset(n=4, epsilon=None, count_per_class=3, seed=31)
    te = generate_dataset(n=4, epsilon=None, count_per_class=3, seed=32)
    r1 = train_siamese(ds.samples, MlpSpec(16), seed=1, epochs=40,
                       test_samples=te.samples, record_every=10)
    r2 = train_siamese(ds.samples, MlpSpec(16), seed=1, epochs=40,
                       test_samples=te.samples, record_every=10)
    assert [rec.epoch for rec in r1.records] == [0, 10, 20, 30, 40]
    for a, b in zip(r1.records, r2.records):
        assert a == b  # test set present, so records contain no NaN
    assert all(0.0 <= rec.test_acc <= 1.0 for rec in r1.records)


def test_training_loss_drops_on_real_data():
    ds = generate_dataset(n=4, epsilon=None, count_per_class=5, seed=41)
    result = train_siamese(ds.samples, MlpSpec(16), seed=3, epochs=150)
    assert result.records[-1].train_loss < result.records[0].train_loss
    assert result.records[-1].train_acc >= 0.9


def test_cnn_training_smoke():
    ds = generate_dataset(n=8, epsilon=None, count_per_class=2, seed=51)
    result = train_siamese(ds.samples, cnn_spec_for(8), seed=5, epochs=10,
                           record_every=5)
    assert np.isfinite(result.records[-1].train_loss)
    assert [rec.epoch for rec in result.records] == [0, 5, 10]
