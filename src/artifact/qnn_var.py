"""Variational quantum model: layered equivariant ansatz on the pair state.

The circuit alternates exponentials of pool generators, one angle per
(layer, generator). Every generator is a sum of mutually commuting
involutory factors T_k, so each exponential is applied exactly as

    exp(-i theta G) = prod_k (cos(theta) I - i sin(theta) T_k),

with no Trotter error. Because each generator commutes with both symmetry
representations, so does the whole circuit, and predictions are invariant
under exchanging the two barcodes. Each factor T is an exp-term of the
pool entry, applied with statevec.apply_observable.

The readout is an affine-rescaled pool-observable expectation
y_hat = a <O> + b trained by MSE against the 0/1 class labels with Adam
(optim.fit), in place on one float64 vector: the angles, then a and b.
Angle gradients come from an exact adjoint sweep: one forward pass, then
one backward pass that un-applies each factor (Jones & Gacon,
arXiv:2009.02823). The (a, b) gradients are analytic. The test suite checks
the circuit against scipy expm of the dense generators and a term-by-term
reference chain, and the adjoint against central finite differences and the
parameter-shift rule (tests/oracles.py).

A trailing block whose generator commutes with the readout O cannot move
<O>: U^dag O U is unchanged without it. train_qnn_u therefore drops the
trailing run of such blocks (pruned_blocks, checked once per call at the
run's register size) and simulates only the rest; the dropped angles get
gradient exactly 0 and keep their initial values. The default `swap`
readout commutes with every generator, so training moves only the readout
scale and offset (a, b), the limit of a unitary parametrization that `fig3`
shows. With no live block, <O> is the readout's column of
qnn_meas.extract_feature_matrix (qnn_m's closed form; no 4^n pair state is
built), and each epoch applies only the affine readout (readout_loss).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .optim import accuracy, fit, lay_out
from .qnn_meas import extract_feature_matrix
from .statevec import (
    apply_observable,
    commutes,
    expectation_batch,
    expectation_from,
    phase_rows,
)
from .symmetry import OperatorPool, PoolEntry

DEFAULT_GENERATORS = ("sum_y", "sum_xx", "sum_yy", "swap")
DEFAULT_LAYERS = 3
DEFAULT_EPOCHS = 200
DEFAULT_LR = 0.1


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
    pruned_blocks: int  # trailing blocks skipped as commuting with the readout


def init_params(spec: AnsatzSpec, rng) -> QnnUParams:
    return QnnUParams(rng.uniform(-0.1, 0.1, spec.param_count()), 1.0, 0.0)


def generator_entries(pool: OperatorPool, spec: AnsatzSpec):
    return [pool.entry(name) for name in spec.generator_names]


def encode_pairs(pairs: Dataset, n: int):
    """(states, y): the pairs' product states column-wise, (4**n, S)
    complex, and their labels. Amplitude (j, k) of a pair is a1[j] * a2[k],
    the one multiply of np.kron."""
    if pairs.n != n:
        raise ValueError("barcode length does not match the register size")
    A1, A2 = phase_rows(pairs.X1), phase_rows(pairs.X2)
    states = (A1[:, :, None] * A2[:, None, :]).reshape(len(A1), -1)
    return np.asarray(states, dtype=complex).T, pairs.y


def pruned_blocks(pool: OperatorPool, spec: AnsatzSpec,
                  observable: PoolEntry) -> int:
    """Length of the trailing run of blocks whose generator commutes with
    the readout O, checked at the pool's own register size.

    A block is the factors of one (layer, generator), sharing angle k. If
    the last block's generator G commutes with O, so does exp(-i theta G),
    and U^dag O U keeps its value with the block removed; repeating this
    from the end drops the whole run, whose angles then have exactly zero
    gradient.
    """
    commuting = [commutes(e.expr, observable.expr, pool.n)
                 for e in generator_entries(pool, spec)]
    count = 0
    for k in reversed(range(spec.param_count())):
        if not commuting[k % len(commuting)]:
            break
        count += 1
    return count


def ansatz_factors(pool: OperatorPool, spec: AnsatzSpec,
                   blocks: int = None) -> tuple:
    """The factors of the circuit's first `blocks` blocks (all by default)
    in application order, as (angle index, exp-term) pairs.
    """
    if blocks is None:
        blocks = spec.param_count()
    entries = generator_entries(pool, spec)
    return tuple((k, term) for k in range(blocks)
                 for term in entries[k % len(entries)].exp_terms)


def apply_ansatz(states: np.ndarray, thetas: np.ndarray, pool: OperatorPool,
                 spec: AnsatzSpec, factors=None) -> np.ndarray:
    """The layered circuit: the full one by default, or the given factors
    from ansatz_factors, which may stop before the last block."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.size != spec.param_count():
        raise ValueError("theta vector length does not match the ansatz")
    if factors is None:
        factors = ansatz_factors(pool, spec)
    v = np.asarray(states, dtype=complex)
    for k, term in factors:
        ang = float(thetas[k])
        v = math.cos(ang) * v - 1j * math.sin(ang) * apply_observable(
            v, term, pool.n)
    return v


def model_eval(states: np.ndarray, params: QnnUParams, pool: OperatorPool,
               spec: AnsatzSpec, observable: PoolEntry,
               factors=None) -> np.ndarray:
    v = apply_ansatz(states, params.thetas, pool, spec, factors)
    return params.a * expectation_batch(v, observable.expr, pool.n) + params.b


def mse_loss(preds: np.ndarray, labels: np.ndarray) -> float:
    d = np.asarray(preds) - np.asarray(labels)
    return float(np.mean(d * d))


def adjoint_angle_gradient(phi: np.ndarray, lam: np.ndarray,
                           thetas: np.ndarray, factors, n: int) -> np.ndarray:
    """All angle gradients from one reverse sweep (arXiv:2009.02823).

    phi is the circuit's output, one state per column, and lam seeds the
    backward state with w_s O phi_s in column s; the result is the gradient
    of sum_s w_s <phi_s|O|phi_s>. A factor U = cos - i sin T has
    dU/dtheta = -i T U, which adds 2 Im <lam|T phi> to its angle, taken
    where both states sit just after U; then U^dag = cos + i sin T moves
    both back past it.
    """
    grad = np.zeros(np.size(thetas))
    for k, term in reversed(factors):
        ang = float(thetas[k])
        c, s = math.cos(ang), 1j * math.sin(ang)
        t_phi = apply_observable(phi, term, n)
        grad[k] += 2.0 * np.vdot(lam, t_phi).imag
        phi = c * phi + s * t_phi
        lam = c * lam + s * apply_observable(lam, term, n)
    return grad


def readout_loss(h: np.ndarray, y: np.ndarray, a, b):
    """(loss, grad_a, grad_b, preds, dz) of the affine readout
    preds = a h + b under the MSE against y, with dz = dL/dpreds."""
    preds = a * h + b
    dz = 2.0 * (preds - y) / y.size
    return (mse_loss(preds, y), float(np.dot(dz, h)), float(np.sum(dz)),
            preds, dz)


def loss_and_gradient(states: np.ndarray, labels: np.ndarray,
                      params: QnnUParams, pool: OperatorPool,
                      spec: AnsatzSpec, observable: PoolEntry, factors=None):
    """Returns (loss, grad_thetas, grad_a, grad_b, preds).

    The readout O is applied once: O phi gives both <O> and the adjoint
    seed. The adjoint sweep costs about three circuit passes for all
    angles. An angle with no factor in factors gets gradient exactly 0.
    """
    if factors is None:
        factors = ansatz_factors(pool, spec)
    y = np.asarray(labels, dtype=float)
    phi = apply_ansatz(states, params.thetas, pool, spec, factors)
    o_phi = apply_observable(phi, observable.expr, pool.n)
    h = expectation_from(phi, o_phi, observable.expr)
    loss, grad_a, grad_b, preds, dz = readout_loss(h, y, params.a, params.b)
    lam = o_phi * (params.a * dz)
    gt = adjoint_angle_gradient(phi, lam, params.thetas, factors, pool.n)
    return loss, gt, grad_a, grad_b, preds


def train_qnn_u(train_samples, pool: OperatorPool, spec: AnsatzSpec = None,
                observable_name: str = "swap", epochs: int = DEFAULT_EPOCHS,
                lr: float = DEFAULT_LR, seed: int = 0, test_samples=None,
                record_every: int = 1) -> QnnUResult:
    """Adam training of the variational model on barcode pairs (optim.fit)
    over one flat vector (optim.lay_out) that the angles, a and b view.

    Records the pre-training baseline as epoch 0 and the state after every
    record_every-th epoch (the final epoch is always recorded). The trailing
    blocks that commute with the readout are never simulated; their angles
    keep their initial values. With none left, no pair is encoded.
    """
    if spec is None:
        spec = AnsatzSpec()
    observable = pool.entry(observable_name)
    pruned = pruned_blocks(pool, spec, observable)
    factors = ansatz_factors(pool, spec, spec.param_count() - pruned)
    init = init_params(spec, np.random.default_rng(seed))
    params, grads, (thetas, a, b), (g_thetas, g_a, g_b) = lay_out(
        [init.thetas, init.a, init.b])
    live = QnnUParams(thetas, a, b)  # views that fit's Adam updates in place
    y = train_samples.y
    if factors:
        states = encode_pairs(train_samples, pool.n)[0]
        if test_samples is not None:
            test_states = encode_pairs(test_samples, pool.n)[0]

        def loss_and_grad():
            loss, g_thetas[:], g_a[...], g_b[...], preds = loss_and_gradient(
                states, y, live, pool, spec, observable, factors=factors)
            return loss, preds

        def test_preds():
            return model_eval(test_states, live, pool, spec, observable,
                              factors)
    else:
        # no live block: <O> is a constant of the call; angle gradients stay 0
        column = pool.names().index(observable_name)
        h = extract_feature_matrix(train_samples, pool)[:, column]
        if test_samples is not None:
            h_test = extract_feature_matrix(test_samples, pool)[:, column]

        def loss_and_grad():
            loss, g_a[...], g_b[...], preds, _ = readout_loss(h, y, a, b)
            return loss, preds

        def test_preds():
            return a * h_test + b

    def test_acc():
        if test_samples is None:
            return float("nan")
        return accuracy(test_preds(), test_samples.y)

    records, _ = fit(params, grads, loss_and_grad, y, test_acc, epochs, lr,
                     record_every)
    return QnnUResult(QnnUParams(thetas, float(a), float(b)), records, pruned)
