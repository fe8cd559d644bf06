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

from .statevec import fwht, phase_state
from .symmetry import OperatorPool

DEFAULT_LAMBDA = 0.03


# ------------------------------------------------------------ features


def _pair_masks(n: int):
    """XOR masks for nearest-neighbour qubit pairs (i, i+1), i = 0..n-2."""
    return [0b11 << (n - 2 - i) for i in range(n - 1)]


def _fast_feature(name: str, a1: np.ndarray, a2: np.ndarray, n: int) -> float:
    """Expectation of the named pool observable on |a1> (x) |a2>, real inputs."""
    idx = np.arange(a1.size)
    if name == "sum_y":
        # single-Y terms pair (j, j^m) with opposite signs: identically zero
        return 0.0
    if name in ("sum_xx", "sum_yy", "sum_zz"):
        total = 0.0
        for a in (a1, a2):
            for m in _pair_masks(n):
                sign = 1.0 - 2.0 * (np.bitwise_count(idx & m) & 1)
                if name == "sum_xx":
                    total += float(np.dot(a, a[idx ^ m]))
                elif name == "sum_yy":
                    total -= float(np.dot(sign * a, a[idx ^ m]))
                else:
                    total += float(np.dot(sign * a, a))
        return total
    if name == "x_all":
        # X^(x)n reverses basis order: j -> ~j
        return float(np.dot(a1, a1[::-1]) * np.dot(a2, a2[::-1]))
    if name == "z_all":
        sign = 1.0 - 2.0 * (np.bitwise_count(idx) & 1)
        return float(np.dot(sign * a1, a1) * np.dot(sign * a2, a2))
    if name == "swap":
        return float(np.dot(a1, a2) ** 2)
    if name == "wht_all":
        return float(np.dot(a1, fwht(a1)) * np.dot(a2, fwht(a2)))
    if name == "swap_x_all":
        return float(np.dot(a1, a2[::-1]) ** 2)
    if name == "swap_wht":
        return float(np.dot(a1, fwht(a2)) ** 2)
    raise ValueError(f"pool entry {name!r} has no closed-form feature")


def extract_features(x1, x2, pool: OperatorPool) -> np.ndarray:
    """Feature vector (one entry per pool observable) for a barcode pair."""
    a1 = phase_state(x1)
    a2 = phase_state(x2)
    if a1.size != 2 ** pool.n or a2.size != 2 ** pool.n:
        raise ValueError("barcode length does not match the pool register size")
    return np.array([_fast_feature(entry.name, a1, a2, pool.n)
                     for entry in pool.entries])


def extract_feature_matrix(samples, pool: OperatorPool) -> np.ndarray:
    """Stack extract_features over an iterable of sample pairs -> (M, K)."""
    return np.asarray([extract_features(s.x1, s.x2, pool) for s in samples])


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

