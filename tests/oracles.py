"""Reference routes that the production fast paths are tested against.

Finite differences and parameter shift share no code with the adjoint
sweep they check, nor do pool features on the explicit product state with
qnn_meas's closed forms. The term-by-term circuit shares
statevec.apply_observable with qnn_var's ansatz; test_statevec checks that
against dense matrices, and test_qnn_var checks the ansatz against scipy
expm of the dense generators. The Siamese CNN's reference route builds its
im2col columns in a loop on every forward, max-pools by transpose and
argmax, and runs the full convolution backward at layer 1.
"""

from __future__ import annotations

import math

import numpy as np

from artifact.classical import _conv_backward
from artifact.qnn_meas import standardize
from artifact.qnn_var import generator_entries, mse_loss
from artifact.statevec import (
    apply_observable,
    expectation,
    expectation_batch,
    phase_state,
    product_state,
)


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
    z1, cache1 = loop_conv_forward(X.reshape(M, s, s, 1), encoder.W1,
                                   encoder.b1)
    p1, pcache1 = argmax_pool_forward(np.maximum(z1, 0.0))
    z2, cache2 = loop_conv_forward(p1, encoder.W2, encoder.b2)
    p2, pcache2 = argmax_pool_forward(np.maximum(z2, 0.0))
    flat = p2.reshape(M, -1)
    emb = flat @ encoder.Wd + encoder.bd
    g = argmax_pool_backward((g_emb @ encoder.Wd.T).reshape(p2.shape), pcache2)
    g, gW2, gb2 = _conv_backward(g * (z2 > 0), encoder.W2, cache2)
    g = argmax_pool_backward(g, pcache1)
    _, gW1, gb1 = _conv_backward(g * (z1 > 0), encoder.W1, cache1)
    return emb, [gW1, gb1, gW2, gb2, flat.T @ g_emb, g_emb.sum(axis=0)]
