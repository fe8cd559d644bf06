"""Measurement-based quantum model: pool-observable features + sparse linear fit.

Each barcode pair is encoded as a product of two phase states; the feature
vector collects the expectation value of every pool observable on that
state. A LASSO-regularized linear regression (coordinate descent over
standardized features) maps the feature vector to the class label; a pair
is predicted uncorrelated when its regression score exceeds 1/2
(optim.accuracy, the rule every model is scored by).

Features come from closed forms that never build the 4^n-dimensional pair
state: every pool observable acts on a product of real states, so its
expectation reduces to dot products on the two 2^n-dimensional register
vectors (Walsh-Hadamard transforms included). Every pool entry has one.
The tests check them against every observable applied to the explicit
product state by the simulator (tests/oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .statevec import fwht, phase_rows
from .symmetry import OperatorPool

DEFAULT_LAMBDA = 0.03


# ------------------------------------------------------------ features


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def extract_feature_matrix(pairs: Dataset, pool: OperatorPool) -> np.ndarray:
    """(S, K) features of S pairs, one column per pool observable: its
    expectation on |a1> (x) |a2>, from the closed forms over all rows at
    once."""
    n, N = pool.n, 2 ** pool.n
    if pairs.n != n:
        raise ValueError("barcode length does not match the pool register size")
    A1, A2 = phase_rows(pairs.X1), phase_rows(pairs.X2)
    idx = np.arange(N)

    def parity_sign(mask):
        return 1.0 - 2.0 * (np.bitwise_count(idx & mask) & 1)

    # nearest-neighbour qubit pairs (i, i+1) of each register: XX flips both
    # bits, YY flips them with the sign of their parity, ZZ is that sign
    xx = yy = zz = 0.0
    for A in (A1, A2):
        for i in range(n - 1):
            mask = 0b11 << (n - 2 - i)
            flipped, signed = A[:, idx ^ mask], parity_sign(mask) * A
            xx = xx + _rowdot(A, flipped)
            yy = yy - _rowdot(signed, flipped)
            zz = zz + _rowdot(signed, A)
    z = parity_sign(N - 1)
    W2 = fwht(A2, axis=1)
    closed = {
        # single-Y terms pair (j, j^m) with opposite signs: identically zero
        "sum_y": np.zeros(len(A1)),
        "sum_xx": xx, "sum_yy": yy, "sum_zz": zz,
        # X^(x)n reverses basis order: j -> ~j
        "x_all": _rowdot(A1, A1[:, ::-1]) * _rowdot(A2, A2[:, ::-1]),
        "z_all": _rowdot(z * A1, A1) * _rowdot(z * A2, A2),
        "swap": _rowdot(A1, A2) ** 2,
        "wht_all": _rowdot(A1, fwht(A1, axis=1)) * _rowdot(A2, W2),
        "swap_x_all": _rowdot(A1, A2[:, ::-1]) ** 2,
        "swap_wht": _rowdot(A1, W2) ** 2,
    }
    return np.column_stack([closed[name] for name in pool.names()])


# --------------------------------------------------------------- LASSO


def soft_threshold(x: float, lam: float) -> float:
    if x > lam:
        return x - lam
    if x < -lam:
        return x + lam
    return 0.0


def standardize(F: np.ndarray):
    """Column-wise (Z, mu, sd); constant columns get scale 1, so Z = 0."""
    mu = F.mean(axis=0)
    sd = F.std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    return (F - mu) / sd, mu, sd


@dataclass(frozen=True)
class LassoModel:
    feature_names: tuple
    alpha: np.ndarray  # weights on standardized features
    intercept: float
    mu: np.ndarray  # per-feature centering
    sd: np.ndarray  # per-feature scale (1.0 for constant features)
    lam: float
    sweeps_used: int
    converged: bool
    objective_history: tuple  # objective value after each sweep

    def nonzero_features(self):
        return [name for name, a in zip(self.feature_names, self.alpha)
                if a != 0.0]


def lasso_fit(features: np.ndarray, labels: np.ndarray, feature_names=None,
              lam: float = DEFAULT_LAMBDA, max_sweeps: int = 1000,
              tol: float = 1e-8) -> LassoModel:
    """Coordinate descent for (1/2M) ||Z a + b - y||^2 + lam ||a||_1.

    Features are standardized column-wise (constant columns get scale 1 and
    necessarily zero weight); the intercept is unpenalized and equals the
    label mean because the standardized columns have zero mean.
    """
    F = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if F.ndim != 2 or y.ndim != 1 or F.shape[0] != y.size:
        raise ValueError("features must be (M, K) with matching labels (M,)")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    M, K = F.shape
    if feature_names is None:
        feature_names = tuple(f"f{k}" for k in range(K))
    feature_names = tuple(feature_names)
    if len(feature_names) != K:
        raise ValueError("feature_names length does not match feature count")

    Z, mu, sd = standardize(F)
    col_norm = (Z * Z).mean(axis=0)  # 1.0 for standardized, 0.0 for constant

    intercept = float(y.mean())
    alpha = np.zeros(K)
    r = y - intercept  # residual y - intercept - Z @ alpha
    history = []
    sweeps_used = 0
    converged = False
    for sweep in range(max_sweeps):
        max_delta = 0.0
        for k in range(K):
            if col_norm[k] <= 1e-15:
                continue
            zk = Z[:, k]
            rho = float(np.dot(zk, r)) / M + col_norm[k] * alpha[k]
            new = soft_threshold(rho, lam) / col_norm[k]
            delta = new - alpha[k]
            if delta != 0.0:
                r = r - zk * delta
                alpha[k] = new
                max_delta = max(max_delta, abs(delta))
        history.append(float(0.5 / M * np.dot(r, r) + lam * np.sum(np.abs(alpha))))
        sweeps_used = sweep + 1
        if max_delta < tol:
            converged = True
            break
    return LassoModel(feature_names, alpha, intercept, mu, sd, lam,
                      sweeps_used, converged, tuple(history))


def lasso_scores(model: LassoModel, features: np.ndarray) -> np.ndarray:
    F = np.asarray(features, dtype=float)
    Z = (F - model.mu) / model.sd
    return Z @ model.alpha + model.intercept

