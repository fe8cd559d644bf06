"""Reference routes that the production fast paths are tested against.

Finite differences and parameter shift share no code with the adjoint
sweep they check, nor do pool features on the explicit product state with
qnn_meas's closed forms. The term-by-term circuit shares
statevec.apply_observable with qnn_var's ansatz; test_statevec checks that
against dense matrices, and test_qnn_var checks the ansatz against scipy
expm of the dense generators. The Siamese CNN's reference route builds its
im2col columns in a loop on every forward, max-pools by transpose and
argmax, applies each ReLU's derivative as its own multiply, scatters one
wide column gradient back to the conv input, and runs the full
convolution backward at layer 1; its MLP
reference backward also computes the unused input gradient. Adam's
reference is the per-tensor update that optim.adam_step does in place on
one flat vector. The staged Walsh-Hadamard transform copies both halves
at every butterfly stage, and the two-readout qnn_u gradient applies the
readout once for <O> and once more for the adjoint seed. The per-epoch
qnn_u training runs loss_and_gradient and model_eval at every epoch even
when no block is live, where train_qnn_u computes <O> once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from artifact.optim import accuracy, fit, lay_out
from artifact.qnn_meas import standardize
from artifact.qnn_var import (
    AnsatzSpec,
    QnnUParams,
    adjoint_angle_gradient,
    ansatz_factors,
    apply_ansatz,
    encode_pairs,
    generator_entries,
    init_params,
    loss_and_gradient,
    model_eval,
    mse_loss,
    pruned_blocks,
)
from artifact.statevec import (
    apply_observable,
    expectation,
    expectation_batch,
    phase_state,
    product_state,
)


SQRT2_INV = 1.0 / np.sqrt(2.0)


def staged_fwht(a: np.ndarray, axis: int = 0) -> np.ndarray:
    """Orthonormal fast Walsh-Hadamard transform along one axis.

    Applies H^(x)m (1/sqrt(2) per qubit) to an axis of length 2**m.
    Returns a new array; does not modify the input.
    """
    a = np.asarray(a)
    b = np.moveaxis(a, axis, 0)
    K = b.shape[0]
    if K & (K - 1):
        raise ValueError(f"axis length must be a power of two, got {K}")
    tail = b.shape[1:]
    b = b.reshape(K, -1).astype(np.result_type(b.dtype, np.float64), copy=True)
    h = 1
    while h < K:
        b = b.reshape(K // (2 * h), 2, h, -1)
        top = b[:, 0].copy()
        bot = b[:, 1].copy()
        b[:, 0] = (top + bot) * SQRT2_INV
        b[:, 1] = (top - bot) * SQRT2_INV
        b = b.reshape(K, -1)
        h *= 2
    return np.moveaxis(b.reshape((K,) + tail), 0, axis)


def apply_exp_generator(states, entry, theta, n, term_shift=None):
    """exp(-i theta G) for G = sum of commuting involutory factors.

    term_shift = (j, delta) moves the angle of exp-term j alone by delta.
    """
    j_shift, delta = term_shift or (None, 0.0)
    v = np.asarray(states, dtype=complex)
    for j, term in enumerate(entry.exp_terms):
        ang = theta + delta if j == j_shift else theta
        v = (math.cos(ang) * v
             - 1j * math.sin(ang) * apply_observable(v, term, n))
    return v


def reference_ansatz(states, thetas, pool, spec, shift=None):
    """The layered circuit as a chain of apply_exp_generator calls.

    shift = (k, j, delta) moves term j of angle k by delta.
    """
    entries = generator_entries(pool, spec)
    for k, theta in enumerate(thetas):
        term_shift = shift[1:] if shift is not None and shift[0] == k else None
        states = apply_exp_generator(states, entries[k % len(entries)],
                                     float(theta), pool.n, term_shift)
    return states


def reference_h(states, thetas, pool, spec, observable, shift=None):
    """<O> per sample after reference_ansatz."""
    v = reference_ansatz(states, thetas, pool, spec, shift)
    return expectation_batch(v, observable.expr, pool.n)


def shift_gradient_h(states, thetas, pool, spec, observable, k):
    """d<O>/d theta_k per sample by the parameter-shift rule.

    For an angle shared by L commuting involutory factors, the derivative is
    the sum over factors of [h(factor angle + pi/4) - h(factor angle - pi/4)].
    """
    entry = generator_entries(pool, spec)[k % len(spec.generator_names)]

    def h(j, delta):
        return reference_h(states, thetas, pool, spec, observable, (k, j, delta))

    return sum(h(j, math.pi / 4) - h(j, -math.pi / 4)
               for j in range(len(entry.exp_terms)))


def fd_angle_gradient(states, labels, params, pool, spec, observable,
                      step=1e-4):
    """dL/dtheta of the MSE loss by central finite differences."""
    def loss(thetas):
        h = reference_h(states, thetas, pool, spec, observable)
        return mse_loss(params.a * h + params.b, labels)

    return np.array([(loss(params.thetas + d) - loss(params.thetas - d))
                     / (2 * step) for d in step * np.eye(params.thetas.size)])


def shift_angle_gradient(states, labels, params, pool, spec, observable):
    """dL/dtheta of the MSE loss by the parameter-shift rule."""
    h = reference_h(states, params.thetas, pool, spec, observable)
    dz = 2.0 * (params.a * h + params.b - labels) / np.size(labels)
    return np.array([params.a * float(np.dot(dz, shift_gradient_h(
        states, params.thetas, pool, spec, observable, k)))
        for k in range(params.thetas.size)])


def two_readout_loss_and_gradient(states, labels, params, pool, spec,
                                  observable, factors=None):
    """qnn_var.loss_and_gradient with the readout O applied twice: once
    inside expectation_batch for <O> and once more for the adjoint seed."""
    if factors is None:
        factors = ansatz_factors(pool, spec)
    y = np.asarray(labels, dtype=float)
    phi = apply_ansatz(states, params.thetas, pool, spec, factors)
    h = expectation_batch(phi, observable.expr, pool.n)
    preds = params.a * h + params.b
    dz = 2.0 * (preds - y) / y.size  # dL/dpreds
    lam = apply_observable(phi, observable.expr, pool.n) * (params.a * dz)
    gt = adjoint_angle_gradient(phi, lam, params.thetas, factors, pool.n)
    return (mse_loss(preds, y), gt, float(np.dot(dz, h)), float(np.sum(dz)),
            preds)


def per_epoch_train_qnn_u(train_samples, pool, observable_name, epochs,
                          lr, seed, test_samples=None, record_every=1):
    """qnn_var.train_qnn_u with every epoch through loss_and_gradient and
    every recorded test accuracy through model_eval, on the factors left
    after pruning (none when every block commutes with the readout);
    returns (records, thetas, a, b)."""
    spec = AnsatzSpec()
    observable = pool.entry(observable_name)
    factors = ansatz_factors(pool, spec, spec.param_count()
                             - pruned_blocks(pool, spec, observable))
    init = init_params(spec, np.random.default_rng(seed))
    params, grads, (thetas, a, b), (g_thetas, g_a, g_b) = lay_out(
        [init.thetas, init.a, init.b])
    live = QnnUParams(thetas, a, b)
    states, y = encode_pairs(train_samples, pool.n)

    def loss_and_grad():
        loss, g_thetas[:], g_a[...], g_b[...], preds = loss_and_gradient(
            states, y, live, pool, spec, observable, factors=factors)
        return loss, preds

    def test_acc():
        if test_samples is None:
            return float("nan")
        test_states, y_test = encode_pairs(test_samples, pool.n)
        return accuracy(model_eval(test_states, live, pool, spec, observable,
                                   factors), y_test)

    records, _ = fit(params, grads, loss_and_grad, y, test_acc, epochs, lr,
                     record_every)
    return records, thetas, float(a), float(b)


def structured_features(x1, x2, pool):
    """Pool features as expectations on the explicit product state."""
    state = product_state(phase_state(x1), phase_state(x2))
    return np.array([expectation(state, e.expr, pool.n) for e in pool.entries])


def lasso_objective(Z, y, alpha, intercept, lam) -> float:
    r = y - intercept - Z @ alpha
    return float(0.5 / y.size * np.dot(r, r) + lam * np.sum(np.abs(alpha)))


def lambda_max(features, labels) -> float:
    """Smallest lam at which the fitted weight vector is identically zero."""
    Z = standardize(np.asarray(features, dtype=float))[0]
    y = np.asarray(labels, dtype=float)
    return float(np.max(np.abs(Z.T @ (y - y.mean()))) / y.size)


def loop_conv_forward(X, W, b):
    """Valid 2-D convolution, stride 1, with its im2col columns built in a
    loop over the kernel offsets. X (M,H,W,Cin), W (k,k,Cin,Cout)."""
    M, H, Wd, Cin = X.shape
    k = W.shape[0]
    Cout = W.shape[3]
    Ho, Wo = H - k + 1, Wd - k + 1
    cols = np.empty((M, Ho, Wo, k * k * Cin))
    idx = 0
    for di in range(k):
        for dj in range(k):
            cols[..., idx * Cin:(idx + 1) * Cin] = X[:, di:di + Ho, dj:dj + Wo, :]
            idx += 1
    out = cols @ W.reshape(k * k * Cin, Cout) + b
    return out, (X.shape, cols)


def loop_conv_backward(g, W, cache):
    """g (M,Ho,Wo,Cout) -> (gX, gW, gb) of loop_conv_forward, gX by one
    k*k*Cin-wide column gradient scattered back in nine slices (None for a
    cache without an input shape)."""
    Xshape, cols = cache
    k = W.shape[0]
    Cin, Cout = W.shape[2], W.shape[3]
    M, Ho, Wo, _ = g.shape
    gW = (cols.reshape(-1, k * k * Cin).T @ g.reshape(-1, Cout)).reshape(W.shape)
    gb = g.sum(axis=(0, 1, 2))
    if Xshape is None:
        return None, gW, gb
    gcols = g @ W.reshape(k * k * Cin, Cout).T
    gX = np.zeros(Xshape)
    idx = 0
    for di in range(k):
        for dj in range(k):
            gX[:, di:di + Ho, dj:dj + Wo, :] += gcols[..., idx * Cin:(idx + 1) * Cin]
            idx += 1
    return gX, gW, gb


def argmax_pool_forward(X):
    """2x2 max pool, stride 2, floor division, routed by argmax over each
    block's four entries (the first maximum wins a tie)."""
    M, H, W, C = X.shape
    Ho, Wo = H // 2, W // 2
    blocks = (X[:, :2 * Ho, :2 * Wo, :]
              .reshape(M, Ho, 2, Wo, 2, C)
              .transpose(0, 1, 3, 5, 2, 4)
              .reshape(M, Ho, Wo, C, 4))
    arg = blocks.argmax(axis=-1)
    out = np.take_along_axis(blocks, arg[..., None], axis=-1)[..., 0]
    return out, (X.shape, arg)


def argmax_pool_backward(g, cache):
    Xshape, arg = cache
    M, H, W, C = Xshape
    Ho, Wo = H // 2, W // 2
    gblocks = np.zeros((M, Ho, Wo, C, 4))
    np.put_along_axis(gblocks, arg[..., None], g[..., None], axis=-1)
    gX = np.zeros(Xshape)
    gX[:, :2 * Ho, :2 * Wo, :] = (gblocks
                                  .reshape(M, Ho, Wo, C, 2, 2)
                                  .transpose(0, 1, 4, 2, 5, 3)
                                  .reshape(M, 2 * Ho, 2 * Wo, C))
    return gX


def reference_cnn_gradients(encoder, X, g_emb):
    """(embedding, [gW1, gb1, gW2, gb2, gWd, gbd]) of a CnnEncoder on raw
    barcodes X for the embedding gradient g_emb, by the reference route."""
    M = X.shape[0]
    s = encoder.spec.side
    W1, b1, W2, b2, Wd, bd = encoder.tensors
    z1, cache1 = loop_conv_forward(X.reshape(M, s, s, 1), W1, b1)
    p1, pcache1 = argmax_pool_forward(np.maximum(z1, 0.0))
    z2, cache2 = loop_conv_forward(p1, W2, b2)
    p2, pcache2 = argmax_pool_forward(np.maximum(z2, 0.0))
    flat = p2.reshape(M, -1)
    emb = flat @ Wd + bd
    g = argmax_pool_backward((g_emb @ Wd.T).reshape(p2.shape), pcache2)
    g, gW2, gb2 = loop_conv_backward(g * (z2 > 0), W2, cache2)
    g = argmax_pool_backward(g, pcache1)
    _, gW1, gb1 = loop_conv_backward(g * (z1 > 0), W1, cache1)
    return emb, [gW1, gb1, gW2, gb2, flat.T @ g_emb, g_emb.sum(axis=0)]


def mlp_backward(encoder, acts, g_emb, grads):
    """MlpEncoder.backward that carries the gradient on through the first
    layer to the (unused) input."""
    g = g_emb
    L = len(encoder.tensors) // 2
    for i in reversed(range(L)):
        if i < L - 1:
            g = g * (acts[i + 1] > 0)
        grads[i] += acts[i].T @ g
        grads[L + i] += g.sum(axis=0)
        g = g @ encoder.tensors[i].T
    return g


@dataclass
class AdamState:
    m: list  # first-moment estimates, one array per parameter
    v: list  # second-moment estimates
    t: int = 0


def adam_init(params) -> AdamState:
    return AdamState([np.zeros_like(p) for p in params],
                     [np.zeros_like(p) for p in params], 0)


def adam_step(params, grads, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """One Adam update over a list of tensors; returns the new parameter
    list (state mutates)."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params/grads/state length mismatch")
    state.t += 1
    t = state.t
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        g = np.asarray(g, dtype=float)
        state.m[i] = beta1 * state.m[i] + (1.0 - beta1) * g
        state.v[i] = beta2 * state.v[i] + (1.0 - beta2) * g * g
        m_hat = state.m[i] / (1.0 - beta1 ** t)
        v_hat = state.v[i] / (1.0 - beta2 ** t)
        out.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
    return out
