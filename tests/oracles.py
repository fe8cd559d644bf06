"""Reference routes that the production fast paths are tested against.

Finite differences and parameter shift share no code with the adjoint
sweep they check, nor do pool features on the explicit product state with
qnn_meas's closed forms. The term-by-term circuit shares
statevec.apply_observable with qnn_var's ansatz; test_statevec checks that
against dense matrices, and test_qnn_var checks the ansatz against scipy
expm of the dense generators.
"""

from __future__ import annotations

import math

import numpy as np

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
