"""Measurement-based quantum model: pool-observable features + sparse linear fit.

Each barcode pair is encoded as a product of two phase states; the feature
vector collects the expectation value of every pool observable on that
state. A LASSO-regularized linear regression (coordinate descent over
standardized features) maps the feature vector to the class label, and
prediction thresholds the regression score at 1/2.

Features come from closed forms that never build the 4^n-dimensional pair
state: every pool observable acts on a product of real states, so its
expectation reduces to dot products on the two 2^n-dimensional register
vectors (Walsh-Hadamard transforms included). Every Hermitian pool entry
has one. structured_features, which applies each observable to the
explicit product state via the simulator, is their oracle in the tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .statevec import as_bits, expectation, fwht, phase_state, product_state
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


def _pair_features(x1, x2, pool: OperatorPool, feature) -> np.ndarray:
    """feature(entry, a1, a2) for every pool observable, after the checks."""
    a1 = phase_state(as_bits(x1))
    a2 = phase_state(as_bits(x2))
    if a1.size != 2 ** pool.n or a2.size != 2 ** pool.n:
        raise ValueError("barcode length does not match the pool register size")
    out = np.empty(len(pool.entries))
    for k, entry in enumerate(pool.entries):
        if not entry.usable_as_observable:
            raise ValueError(f"pool entry {entry.name!r} is not Hermitian and "
                             "cannot be used as an observable")
        out[k] = feature(entry, a1, a2)
    return out


def extract_features(x1, x2, pool: OperatorPool) -> np.ndarray:
    """Feature vector (one entry per pool observable) for a barcode pair."""
    return _pair_features(x1, x2, pool, lambda entry, a1, a2:
                          _fast_feature(entry.name, a1, a2, pool.n))


def structured_features(x1, x2, pool: OperatorPool) -> np.ndarray:
    """extract_features through the simulator: the closed forms' oracle."""
    return _pair_features(x1, x2, pool, lambda entry, a1, a2: expectation(
        product_state(a1, a2), entry.expr, pool.n))


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


def lasso_objective(Z, y, alpha, intercept, lam) -> float:
    r = y - intercept - Z @ alpha
    M = y.size
    return float(0.5 / M * np.dot(r, r) + lam * np.sum(np.abs(alpha)))


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


def lasso_predict(model: LassoModel, features: np.ndarray) -> np.ndarray:
    """Class labels: score above 1/2 predicts class 1."""
    return (lasso_scores(model, features) > 0.5).astype(int)


def lambda_max(features: np.ndarray, labels: np.ndarray) -> float:
    """Smallest lam at which the fitted weight vector is identically zero."""
    Z = standardize(np.asarray(features, dtype=float))[0]
    y = np.asarray(labels, dtype=float)
    return float(np.max(np.abs(Z.T @ (y - y.mean()))) / y.size)


# -------------------------------------------------------- serialization


def lasso_to_dict(model: LassoModel) -> dict:
    return {
        "feature_names": list(model.feature_names),
        "alpha": model.alpha.tolist(),
        "intercept": model.intercept,
        "mu": model.mu.tolist(),
        "sd": model.sd.tolist(),
        "lam": model.lam,
        "sweeps_used": model.sweeps_used,
        "converged": model.converged,
        "objective_history": list(model.objective_history),
    }


def lasso_from_dict(d: dict) -> LassoModel:
    return LassoModel(
        feature_names=tuple(d["feature_names"]),
        alpha=np.asarray(d["alpha"], dtype=float),
        intercept=float(d["intercept"]),
        mu=np.asarray(d["mu"], dtype=float),
        sd=np.asarray(d["sd"], dtype=float),
        lam=float(d["lam"]),
        sweeps_used=int(d["sweeps_used"]),
        converged=bool(d["converged"]),
        objective_history=tuple(float(v) for v in d["objective_history"]),
    )


def save_lasso(model: LassoModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(lasso_to_dict(model), fh, indent=1)


def load_lasso(path) -> LassoModel:
    with open(path, encoding="utf-8") as fh:
        return lasso_from_dict(json.load(fh))
