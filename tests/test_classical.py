"""Tests for the Siamese baselines: backprop correctness and training."""

import tracemalloc

import numpy as np
import pytest

from artifact.classical import (
    EVAL_BLOCK,
    CnnEncoder,
    CnnSpec,
    MlpEncoder,
    MlpSpec,
    SiameseModel,
    _conv_backward,
    _im2col,
    _pool_backward,
    _pool_forward,
    _pool_max,
    cnn_spec_for,
    train_siamese,
)
from artifact.dataset import generate_dataset
from oracles import (
    argmax_pool_backward,
    argmax_pool_forward,
    loop_conv_backward,
    mlp_backward,
    reference_cnn_gradients,
)


def fd_gradient_full(model, X1, X2, y, h=1e-5):
    """Central-difference gradient of the loss for every entry of the
    model's parameter vector."""
    grads = np.zeros_like(model.params)
    for j, base in enumerate(model.params.copy()):
        losses = []
        for value in (base + h, base - h):
            model.params[j] = value
            p, _ = model.forward(X1, X2)
            losses.append(float(np.mean((p - y) ** 2)))
        model.params[j] = base
        grads[j] = (losses[0] - losses[1]) / (2 * h)
    return grads


# ------------------------------------------------------------ gradients


def test_mlp_backprop_full_fd_sweep():
    """Every parameter of a tiny Siamese MLP against central differences."""
    rng = np.random.default_rng(0)
    model = SiameseModel(MlpSpec(16, (4, 3, 2)), rng)
    X1 = rng.standard_normal((5, 16))
    X2 = rng.standard_normal((5, 16))
    y = rng.integers(0, 2, 5).astype(float)
    ga = model.loss_and_gradients(X1, X2, y)[2].copy()
    gn = fd_gradient_full(model, X1, X2, y)
    rel = np.linalg.norm(ga - gn) / np.linalg.norm(gn)
    assert rel <= 1e-6, f"norm-wise relative gradient error {rel:.3e}"


def test_cnn_backprop_fd_sweep():
    """Siamese CNN at 16x16 against central differences (all tensors)."""
    rng = np.random.default_rng(1)
    model = SiameseModel(CnnSpec(16), rng)
    X1 = rng.standard_normal((3, 256))
    X2 = rng.standard_normal((3, 256))
    y = np.array([0.0, 1.0, 1.0])
    ga = model.loss_and_gradients(X1, X2, y)[2].copy()
    gn = fd_gradient_full(model, X1, X2, y)
    rel = np.linalg.norm(ga - gn) / np.linalg.norm(gn)
    assert rel <= 1e-6, f"norm-wise relative gradient error {rel:.3e}"


def test_identical_inputs_give_zero_encoder_gradient():
    rng = np.random.default_rng(3)
    model = SiameseModel(MlpSpec(8, (4, 2)), rng)
    X = rng.standard_normal((6, 8))
    y = rng.integers(0, 2, 6).astype(float)
    _, p, grads = model.loss_and_gradients(X, X.copy(), y)
    # d == 0 for every pair, so the branch gradients cancel exactly
    assert np.max(np.abs(grads[:-2])) == 0.0
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
    model.params[:-2] = 0.0  # every encoder tensor is a view into params
    X = rng.standard_normal((3, 8))
    np.testing.assert_array_equal(model.encoder.forward(X)[0], np.zeros((3, 2)))
    p, _ = model.forward(X, rng.standard_normal((3, 8)))
    np.testing.assert_allclose(p, 1.0 / (1.0 + np.exp(1.0)), atol=1e-12)


def test_embedding_layer_scaled_down_at_init():
    rng = np.random.default_rng(6)
    model = SiameseModel(MlpSpec(64), rng)
    final = model.encoder.tensors[2]  # the last of W0, W1, W2
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


def plant_positive_ties(X, rng):
    """Give a third of the 2x2 pool blocks 2 to 4 entries tied at a value
    above every other entry."""
    M, H, W, C = X.shape
    for _ in range(M * (H // 2) * (W // 2) * C // 3):
        m, i, j, c = (rng.integers(M), rng.integers(H // 2),
                      rng.integers(W // 2), rng.integers(C))
        value = 10.0 + rng.random()
        for pos in rng.choice(4, rng.integers(2, 5), replace=False):
            X[m, 2 * i + pos // 2, 2 * j + pos % 2, c] = value
    return X


@pytest.mark.parametrize("shape", [(2, 13, 13, 3), (2, 30, 30, 8),
                                   (3, 14, 9, 2)])
def test_strided_pool_matches_the_argmax_oracle_bit_for_bit(shape):
    """Odd sides drop the trailing row/col; ReLU zeros tie whole blocks.
    The routing mask also carries the ReLU's derivative, so the backward
    equals the oracle's routing times (X > 0); it is compared by value,
    because the mask's multiply leaves -0.0 where the oracle has +0.0."""
    rng = np.random.default_rng(sum(shape))
    X = plant_positive_ties(np.maximum(rng.standard_normal(shape), 0.0), rng)
    out, mask = _pool_forward(X)
    ref_out, ref_cache = argmax_pool_forward(X)
    assert out.tobytes() == ref_out.tobytes()
    assert _pool_max(X)[0].tobytes() == ref_out.tobytes()
    g = rng.standard_normal(out.shape)
    np.testing.assert_array_equal(
        _pool_backward(g, mask), argmax_pool_backward(g, ref_cache) * (X > 0))


def test_pool_block_of_zeros_routes_no_gradient():
    """A block that ReLU zeroed entirely passes no gradient back; the
    block beside it still routes its gradient to its maximum."""
    X = np.array([[0.0, 0.0, 0.0, 0.4],
                  [0.0, 0.0, 0.0, 0.0]]).reshape(1, 2, 4, 1)
    out, mask = _pool_forward(X)
    np.testing.assert_array_equal(out.ravel(), [0.0, 0.4])
    gX = _pool_backward(np.array([5.0, -2.0]).reshape(out.shape), mask)
    expect = np.zeros_like(X)
    expect[0, 0, 3, 0] = -2.0
    np.testing.assert_array_equal(gX, expect)


@pytest.mark.parametrize("side", [16, 32])
@pytest.mark.parametrize("M", [1, 3, 20])
def test_conv_backward_matches_the_loop_oracle_bit_for_bit(side, M):
    """Layer 2's per-offset input gradient against one wide column
    gradient scattered back in nine slices, at the layer-2 input side."""
    rng = np.random.default_rng(side + M)
    s = (side - 2) // 2
    X = rng.standard_normal((M, s, s, 8))
    W = rng.standard_normal((3, 3, 8, 16))
    g = rng.standard_normal((M, s - 2, s - 2, 16))
    cache = (X.shape, _im2col(X, 3))
    for got, ref in zip(_conv_backward(g, W, cache),
                        loop_conv_backward(g, W, cache)):
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [8, 10])
def test_cnn_encoder_matches_the_reference_route_bit_for_bit(n):
    """Columns built once, strided pool routing and the weight-only layer-1
    backward against the loop im2col, argmax pool and loop conv backward."""
    rng = np.random.default_rng(n)
    encoder = CnnEncoder(cnn_spec_for(n), rng)
    X = rng.integers(0, 2, (3, 2 ** n)).astype(float)
    g_emb = rng.standard_normal((3, encoder.spec.dense))
    emb, cache = encoder.forward(encoder.prepare(X))
    grads = [np.zeros_like(t) for t in encoder.tensors]
    encoder.backward(cache, g_emb, grads)
    ref_emb, ref_grads = reference_cnn_gradients(encoder, X, g_emb)
    np.testing.assert_array_equal(emb, ref_emb)
    for got, ref in zip(grads, ref_grads):
        np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("widths", [(128, 64, 32), (5,), (6, 3)])
def test_mlp_backward_matches_the_full_backward_bit_for_bit(widths):
    """The weight-only first layer against the backward that carries the
    gradient on to the input, accumulated over two calls."""
    rng = np.random.default_rng(len(widths))
    encoder = MlpEncoder(MlpSpec(64, widths), rng)
    grads = [np.zeros_like(t) for t in encoder.tensors]
    ref = [np.zeros_like(t) for t in encoder.tensors]
    for _ in range(2):
        emb, acts = encoder.forward(rng.integers(0, 2, (7, 64)))
        g_emb = rng.standard_normal(emb.shape)
        encoder.backward(acts, g_emb, grads)
        mlp_backward(encoder, acts, g_emb, ref)
    for got, want in zip(grads, ref):
        assert got.tobytes() == want.tobytes()


def test_siamese_tensors_are_views_of_one_parameter_vector():
    """Encoder tensors, then w_out and c_out, end to end in params; the
    gradient vector has the same layout."""
    for spec in (MlpSpec(16, (4, 3)), cnn_spec_for(8)):
        model = SiameseModel(spec, np.random.default_rng(0))
        parts = model.encoder.tensors + [model.w_out, model.c_out]
        assert all(np.shares_memory(t, model.params) for t in parts)
        assert sum(np.size(t) for t in parts) == model.params.size
        assert model.params[-2:].tolist() == [1.0, -1.0]
        assert model.grads.shape == model.params.shape


@pytest.mark.parametrize("spec", [MlpSpec(64), cnn_spec_for(8),
                                  cnn_spec_for(10)], ids=["mlp", "cnn8",
                                                          "cnn10"])
def test_cache_free_forward_equals_the_training_forward(spec):
    """The test-split forward keeps no caches, on raw or prepared inputs."""
    rng = np.random.default_rng(9)
    model = SiameseModel(spec, rng)
    N = 64 if isinstance(spec, MlpSpec) else spec.side ** 2
    X1, X2 = (rng.integers(0, 2, (6, N)).astype(np.uint8) for _ in range(2))
    p_train, caches = model.forward(X1, X2)
    prepare = model.encoder.prepare
    p_eval, none = model.forward(prepare(X1), prepare(X2), cache=False)
    assert caches is not None and none is None
    assert p_eval.tobytes() == p_train.tobytes()
    assert model.forward(X1, X2, cache=False)[0].tobytes() == p_train.tobytes()
    assert len(set(p_train)) == len(p_train)  # the pairs are told apart
    emb = model.encoder.forward(X1)[0]
    assert model.encoder.forward(X1, cache=False)[0].tobytes() == emb.tobytes()


@pytest.mark.parametrize("n", [8, 10])
@pytest.mark.parametrize("M", [1, EVAL_BLOCK - 1, EVAL_BLOCK, EVAL_BLOCK + 1,
                               2 * EVAL_BLOCK + 3, 80])
def test_blocked_evaluation_equals_the_training_forward(n, M):
    """The cache-free forward runs the conv/pool stack EVAL_BLOCK images at
    a time (the last block may be partial) and the dense layer over all
    rows at once, so its embeddings equal the training forward's."""
    rng = np.random.default_rng(M + n)
    encoder = CnnEncoder(cnn_spec_for(n), rng)
    X = rng.integers(0, 2, (M, 2 ** n)).astype(np.uint8)
    emb = encoder.forward(X, cache=True)[0]
    assert encoder.forward(X, cache=False)[0].tobytes() == emb.tobytes()


def test_cnn_rejects_a_barcode_of_the_wrong_length():
    """A 512-pixel barcode would reshape into two images of side 16; the
    check stops it, and prepared columns still pass through."""
    rng = np.random.default_rng(12)
    model = SiameseModel(cnn_spec_for(8), rng)
    X = rng.integers(0, 2, (1, 512)).astype(float)
    with pytest.raises(ValueError, match="256 pixels, got 512"):
        model.encoder.prepare(X)
    with pytest.raises(ValueError, match="256 pixels, got 512"):
        model.loss_and_gradients(X, X, np.array([1.0]))
    cols = model.encoder.prepare(rng.integers(0, 2, (2, 256)))
    assert model.encoder.prepare(cols) is cols


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
    from artifact.dataset import Dataset
    X = np.repeat(rng.integers(0, 2, (count, 2 ** n)).astype(np.uint8), 2, 0)
    X2 = X.copy()
    X2[1::2] = 1 - X2[1::2]
    return Dataset(X, X2, np.tile([0.0, 1.0], count), n, 1.0, 0)


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
    r1 = train_siamese(ds, MlpSpec(16), seed=1, epochs=40, test_samples=te,
                       record_every=10)
    r2 = train_siamese(ds, MlpSpec(16), seed=1, epochs=40, test_samples=te,
                       record_every=10)
    assert [rec.epoch for rec in r1.records] == [0, 10, 20, 30, 40]
    for a, b in zip(r1.records, r2.records):
        assert a == b  # test set present, so records contain no NaN
    assert all(0.0 <= rec.test_acc <= 1.0 for rec in r1.records)


def test_training_loss_drops_on_real_data():
    ds = generate_dataset(n=4, epsilon=None, count_per_class=5, seed=41)
    result = train_siamese(ds, MlpSpec(16), seed=3, epochs=150)
    assert result.records[-1].train_loss < result.records[0].train_loss
    assert result.records[-1].train_acc >= 0.9


def test_cnn_training_smoke():
    ds = generate_dataset(n=8, epsilon=None, count_per_class=2, seed=51)
    result = train_siamese(ds, cnn_spec_for(8), seed=5, epochs=10,
                           record_every=5)
    assert np.isfinite(result.records[-1].train_loss)
    assert [rec.epoch for rec in result.records] == [0, 5, 10]


# ------------------------------------------------- byte-sized CNN columns


def float_columns(encoder, X):
    """First-layer columns built from the barcodes as float64, the route
    that the byte-sized columns must reproduce."""
    s = encoder.spec.side
    return _im2col(np.asarray(X, dtype=float).reshape(-1, s, s, 1),
                   encoder.spec.kernel)


def test_prepare_keeps_the_barcode_dtype():
    """uint8 barcodes give uint8 columns, 1/8 of the float bytes; float and
    int64 barcodes are never narrowed."""
    encoder = CnnEncoder(cnn_spec_for(10), np.random.default_rng(13))
    X = np.random.default_rng(14).integers(0, 2, (5, 1024)).astype(np.uint8)
    cols = encoder.prepare(X)
    assert cols.dtype == np.uint8
    assert cols.shape == (5, 30, 30, 9)
    assert cols.nbytes == 5 * 900 * 9
    assert np.array_equal(cols, float_columns(encoder, X))
    for dtype in (np.float64, np.int64):
        assert encoder.prepare(X.astype(dtype)).dtype == dtype
    assert encoder.prepare(cols) is cols


@pytest.mark.parametrize("dtype", [np.uint8, np.float64],
                         ids=["uint8", "float"])
@pytest.mark.parametrize("n", [8, 10])
@pytest.mark.parametrize("M", [1, EVAL_BLOCK - 1, EVAL_BLOCK + 1, 23, 80])
def test_byte_columns_match_the_float_column_route(dtype, n, M):
    """The training loss, gradients and predictions, and the cache-free
    predictions, are the float-column route's bytes: a cast of 0/1 pixels
    is exact, and each block is cast before it is multiplied."""
    rng = np.random.default_rng(100 * n + M)
    model = SiameseModel(cnn_spec_for(n), rng)
    X1, X2 = (rng.integers(0, 2, (M, 2 ** n)).astype(dtype) for _ in range(2))
    y = rng.integers(0, 2, M).astype(float)
    F1, F2 = (float_columns(model.encoder, X) for X in (X1, X2))
    loss, p, grads = model.loss_and_gradients(X1, X2, y)
    grads = grads.copy()
    ref_loss, ref_p, ref_grads = model.loss_and_gradients(F1, F2, y)
    assert loss == ref_loss
    assert p.tobytes() == ref_p.tobytes()
    assert grads.tobytes() == ref_grads.tobytes()
    prepare = model.encoder.prepare
    p_eval = model.forward(prepare(X1), prepare(X2), cache=False)[0]
    ref_eval = model.forward(F1, F2, cache=False)[0]
    assert p_eval.tobytes() == ref_eval.tobytes()


# the traced peak of train_siamese at side 32 with 20 training and 80 test
# pairs: about 11.4 MB with uint8 test columns, 20.4 MB with float64 ones
CNN_TRAIN_PEAK_BYTES = 14_000_000


def test_cnn_training_peak_memory():
    train = generate_dataset(n=10, epsilon=None, count_per_class=10, seed=71)
    test = generate_dataset(n=10, epsilon=None, count_per_class=40, seed=72)
    tracemalloc.start()
    try:
        train_siamese(train, cnn_spec_for(10), seed=3, epochs=2,
                      test_samples=test)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < CNN_TRAIN_PEAK_BYTES, f"traced peak {peak:,} bytes"
