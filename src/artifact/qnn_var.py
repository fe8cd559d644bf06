"""Variational quantum model: layered equivariant ansatz on the pair state.

The circuit alternates exponentials of pool generators, one angle per
(layer, generator). Every generator is a sum of mutually commuting
involutory factors T_k, so each exponential is applied exactly as

    exp(-i theta G) = prod_k (cos(theta) I - i sin(theta) T_k),

with no Trotter error. Because each generator commutes with both symmetry
representations, so does the whole circuit, and predictions are invariant
under exchanging the two barcodes. Each factor of the default generators
is a signed permutation (Pauli strings, the SWAP network), so its action
is precomputed once per training run as T v = phase * sign * v[src].

The readout is an affine-rescaled pool-observable expectation
y_hat = a <O> + b trained by MSE against the 0/1 class labels with Adam
(optim.fit).
Angle gradients come from an exact adjoint sweep by default: one forward
pass, then one backward pass that un-applies each factor (Jones & Gacon,
arXiv:2009.02823). Central finite differences and the parameter-shift rule
(each commuting factor shifted by +-pi/4) remain as its oracles in the test
suite. The (a, b) gradients are analytic.

The default `swap` readout commutes with every generator, so the angles
cannot change any prediction and their gradient is identically zero: with
it, training moves only the readout scale and offset (a, b). This is the
limit of a unitary parametrization that the `fig3` comparison shows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optim import accuracy, fit
from .statevec import (
    ObservableExpr,
    apply_observable,
    expectation_batch,
    phase_state,
    product_state,
    signed_permutation,
)
from .symmetry import OperatorPool, PoolEntry, require_observable

DEFAULT_GENERATORS = ("sum_y", "sum_xx", "sum_yy", "swap")
DEFAULT_LAYERS = 3
DEFAULT_EPOCHS = 200
DEFAULT_LR = 0.1
FD_STEP = 1e-4
GRAD_METHODS = ("adjoint", "fd", "shift")


@dataclass(frozen=True)
class AnsatzSpec:
    layers: int = DEFAULT_LAYERS
    generator_names: tuple = DEFAULT_GENERATORS

    def param_count(self) -> int:
        return self.layers * len(self.generator_names)


@dataclass(frozen=True)
class QnnUParams:
    thetas: np.ndarray
    a: float
    b: float


@dataclass(frozen=True)
class QnnUResult:
    params: QnnUParams
    records: tuple  # of optim.EpochRecord; epoch 0 is the baseline


def init_params(spec: AnsatzSpec, rng) -> QnnUParams:
    return QnnUParams(rng.uniform(-0.1, 0.1, spec.param_count()), 1.0, 0.0)


def generator_entries(pool: OperatorPool, spec: AnsatzSpec):
    entries = []
    for name in spec.generator_names:
        entry = pool.entry(name)
        if not entry.usable_as_generator:
            raise ValueError(f"pool entry {name!r} cannot be used as a "
                             "generator (not Hermitian)")
        entries.append(entry)
    return entries


def encode_pairs(samples, n: int) -> np.ndarray:
    """Stack encoded pair states column-wise: (4**n, S) complex."""
    cols = [product_state(phase_state(s.x1), phase_state(s.x2)) for s in samples]
    return np.asarray(cols, dtype=complex).T


def apply_exp_generator(states: np.ndarray, entry: PoolEntry, theta: float,
                        n: int) -> np.ndarray:
    """Apply exp(-i theta G) for G = sum of commuting involutory factors.

    Every factor goes through apply_observable: this is the reference that
    the precomputed factors of apply_ansatz are tested against.
    """
    if not entry.exp_terms:
        raise ValueError(f"pool entry {entry.name!r} has no exponential "
                         "structure")
    v = np.asarray(states, dtype=complex)
    for term in entry.exp_terms:
        v = math.cos(theta) * v - 1j * math.sin(theta) * apply_observable(v, term, n)
    return v


@dataclass(frozen=True, eq=False)
class Factor:
    """One involutory factor T of the circuit, applied as cos - i sin T.

    param indexes its angle and term its place in the generator's
    exp_terms. T v = phase * unphased(v): for a signed permutation the
    scalar phase is a power of i and unphased(v) = sign * v[src], both
    precomputed; otherwise src is None, phase is 1 and T goes through
    apply_observable. Callers fold phase into their scalar coefficients.
    """

    param: int
    term: int
    expr: ObservableExpr
    n: int
    src: np.ndarray = None
    sign: np.ndarray = None
    phase: complex = 1.0

    def unphased(self, v: np.ndarray) -> np.ndarray:
        if self.src is None:
            return apply_observable(v, self.expr, self.n)
        return v[self.src] * (self.sign if v.ndim == 1 else self.sign[:, None])


def ansatz_factors(pool: OperatorPool, spec: AnsatzSpec) -> tuple:
    """The circuit's factors in application order.

    The layers share one (src, sign) pair per exp-term, 5 bytes per
    amplitude: at n = 10 the 57 terms of the default generators hold about
    300 MB. Callers therefore build the factors once per training run
    rather than caching them per pool.
    """
    actions = []
    for entry in generator_entries(pool, spec):
        if not entry.exp_terms:
            raise ValueError(f"pool entry {entry.name!r} has no exponential "
                             "structure")
        actions.append([(term, signed_permutation(term, pool.n)
                         or (None, None, 1.0))
                        for term in entry.exp_terms])
    factors = []
    k = 0
    for _layer in range(spec.layers):
        for terms in actions:
            factors.extend(Factor(k, j, term, pool.n, *action)
                           for j, (term, action) in enumerate(terms))
            k += 1
    return tuple(factors)


def apply_ansatz(states: np.ndarray, thetas: np.ndarray, pool: OperatorPool,
                 spec: AnsatzSpec, shift_at=None, factors=None) -> np.ndarray:
    """Full layered circuit; shift_at = (param_idx, term_idx, delta) or None.

    factors, from ansatz_factors(pool, spec), spares rebuilding them.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.size != spec.param_count():
        raise ValueError("theta vector length does not match the ansatz")
    if factors is None:
        factors = ansatz_factors(pool, spec)
    v = np.asarray(states, dtype=complex)
    for f in factors:
        ang = float(thetas[f.param])
        if shift_at is not None and (f.param, f.term) == shift_at[:2]:
            ang += shift_at[2]
        v = math.cos(ang) * v - 1j * math.sin(ang) * f.phase * f.unphased(v)
    return v


def expectations(states: np.ndarray, thetas: np.ndarray, pool: OperatorPool,
                 spec: AnsatzSpec, observable: PoolEntry,
                 shift_at=None, factors=None) -> np.ndarray:
    v = apply_ansatz(states, thetas, pool, spec, shift_at, factors)
    return expectation_batch(v, observable.expr, pool.n)


def model_eval(states: np.ndarray, params: QnnUParams, pool: OperatorPool,
               spec: AnsatzSpec, observable: PoolEntry,
               factors=None) -> np.ndarray:
    h = expectations(states, params.thetas, pool, spec, observable,
                     factors=factors)
    return params.a * h + params.b


def mse_loss(preds: np.ndarray, labels: np.ndarray) -> float:
    d = np.asarray(preds) - np.asarray(labels)
    return float(np.mean(d * d))


def shift_gradient_h(states: np.ndarray, thetas: np.ndarray,
                     pool: OperatorPool, spec: AnsatzSpec,
                     observable: PoolEntry, k: int,
                     factors=None) -> np.ndarray:
    """Exact d<O>/d theta_k per sample via the parameter-shift rule.

    For an angle shared by L commuting involutory factors, the derivative is
    the sum over factors of [h(factor angle + pi/4) - h(factor angle - pi/4)].
    """
    entries = generator_entries(pool, spec)
    entry = entries[k % len(entries)]
    total = np.zeros(states.shape[1] if states.ndim > 1 else 1)
    for j in range(len(entry.exp_terms)):
        plus = expectations(states, thetas, pool, spec, observable,
                            shift_at=(k, j, math.pi / 4), factors=factors)
        minus = expectations(states, thetas, pool, spec, observable,
                             shift_at=(k, j, -math.pi / 4), factors=factors)
        total = total + (plus - minus)
    return total


def adjoint_angle_gradient(phi: np.ndarray, lam: np.ndarray,
                           thetas: np.ndarray, factors) -> np.ndarray:
    """All angle gradients from one reverse sweep (arXiv:2009.02823).

    phi is the circuit's output, one state per column, and lam seeds the
    backward state with w_s O phi_s in column s; the result is the gradient
    of sum_s w_s <phi_s|O|phi_s>. A factor U = cos - i sin T has
    dU/dtheta = -i T U, which adds 2 Im <lam|T phi> to its angle, taken
    where both states sit just after U; then U^dag = cos + i sin T moves
    both back past it.
    """
    grad = np.zeros(np.size(thetas))
    for f in reversed(factors):
        ang = float(thetas[f.param])
        c, s = math.cos(ang), 1j * math.sin(ang) * f.phase
        t_phi = f.unphased(phi)
        grad[f.param] += 2.0 * (f.phase * np.vdot(lam, t_phi)).imag
        phi = c * phi + s * t_phi
        lam = c * lam + s * f.unphased(lam)
    return grad


def loss_and_gradient(states: np.ndarray, labels: np.ndarray,
                      params: QnnUParams, pool: OperatorPool,
                      spec: AnsatzSpec, observable: PoolEntry,
                      grad_method: str = "adjoint", factors=None):
    """Returns (loss, grad_thetas, grad_a, grad_b, preds).

    "adjoint" costs about three circuit passes for all angles; "fd" (two
    passes per angle) and "shift" (two per factor) are its test oracles.
    """
    if grad_method not in GRAD_METHODS:
        raise ValueError(f"unknown grad_method {grad_method!r}")
    if factors is None:
        factors = ansatz_factors(pool, spec)
    y = np.asarray(labels, dtype=float)
    M = y.size
    phi = apply_ansatz(states, params.thetas, pool, spec, factors=factors)
    h = expectation_batch(phi, observable.expr, pool.n)
    preds = params.a * h + params.b
    loss = mse_loss(preds, y)
    dz = 2.0 * (preds - y) / M  # dL/dpreds
    grad_a = float(np.dot(dz, h))
    grad_b = float(np.sum(dz))
    if grad_method == "adjoint":
        lam = apply_observable(phi, observable.expr, pool.n) * (params.a * dz)
        gt = adjoint_angle_gradient(phi, lam, params.thetas, factors)
        return loss, gt, grad_a, grad_b, preds
    gt = np.zeros_like(params.thetas)
    if grad_method == "fd":
        for k in range(gt.size):
            tp = params.thetas.copy()
            tm = params.thetas.copy()
            tp[k] += FD_STEP
            tm[k] -= FD_STEP
            lp = mse_loss(params.a * expectations(
                states, tp, pool, spec, observable, factors=factors)
                + params.b, y)
            lm = mse_loss(params.a * expectations(
                states, tm, pool, spec, observable, factors=factors)
                + params.b, y)
            gt[k] = (lp - lm) / (2.0 * FD_STEP)
    else:
        for k in range(gt.size):
            dh = shift_gradient_h(states, params.thetas, pool, spec,
                                  observable, k, factors)
            gt[k] = params.a * float(np.dot(dz, dh))
    return loss, gt, grad_a, grad_b, preds


def train_qnn_u(train_samples, pool: OperatorPool, spec: AnsatzSpec = None,
                observable_name: str = "swap", epochs: int = DEFAULT_EPOCHS,
                lr: float = DEFAULT_LR, seed: int = 0, test_samples=None,
                record_every: int = 1) -> QnnUResult:
    """Adam training of the variational model on encoded pairs (optim.fit).

    Records the pre-training baseline as epoch 0 and the state after every
    record_every-th epoch (the final epoch is always recorded).
    """
    if spec is None:
        spec = AnsatzSpec()
    observable = require_observable(pool, observable_name)
    factors = ansatz_factors(pool, spec)
    init = init_params(spec, np.random.default_rng(seed))
    states = encode_pairs(train_samples, pool.n)
    y = np.asarray([s.label for s in train_samples], dtype=float)
    if test_samples is not None:
        test_states = encode_pairs(test_samples, pool.n)
        y_test = np.asarray([s.label for s in test_samples], dtype=float)

    def unpack(p) -> QnnUParams:
        return QnnUParams(p[0], float(p[1]), float(p[2]))

    def loss_and_grad(p):
        loss, gt, ga, gb, preds = loss_and_gradient(
            states, y, unpack(p), pool, spec, observable, factors=factors)
        return loss, preds, [gt, np.float64(ga), np.float64(gb)]

    def test_acc(p):
        if test_samples is None:
            return float("nan")
        return accuracy(model_eval(test_states, unpack(p), pool, spec,
                                   observable, factors), y_test)

    params, records, _ = fit(
        [init.thetas, np.float64(init.a), np.float64(init.b)], loss_and_grad,
        y, test_acc, epochs, lr, record_every)
    return QnnUResult(unpack(params), records)
