"""Adam and the one full-batch training loop shared by all trainers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NonFiniteLossError(ValueError):
    """A training loss that is NaN or infinite (maps to CLI exit code 1)."""


@dataclass
class AdamState:
    m: list  # first-moment estimates, one array per parameter
    v: list  # second-moment estimates
    t: int = 0


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    train_acc: float
    test_acc: float


def accuracy(preds, labels) -> float:
    """Fraction of scores on the right side of 1/2 for 0/1 labels."""
    return float(np.mean((np.asarray(preds) > 0.5).astype(int)
                         == np.asarray(labels)))


def adam_init(params) -> AdamState:
    return AdamState([np.zeros_like(p) for p in params],
                     [np.zeros_like(p) for p in params], 0)


def adam_step(params, grads, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """One Adam update; returns the new parameter list (state mutates)."""
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


def fit(params, loss_and_grad, labels, test_acc, epochs: int, lr: float,
        record_every: int = 1, min_epochs_before_stop: int = None):
    """Full-batch Adam over a parameter list; returns
    (params, records, stopped_early).

    loss_and_grad(params) returns (loss, preds, grads) and test_acc(params)
    the test accuracy. Epoch 0 records the starting point; each later call
    of loss_and_grad gives both that epoch's train loss and accuracy and
    the next step's gradient, so an E-epoch run makes E + 1 calls. Every
    record_every-th epoch and the last one are recorded, and test_acc runs
    only there. With min_epochs_before_stop, training ends at the first
    epoch at or after it with perfect train accuracy. A train loss that is
    not finite raises NonFiniteLossError naming its epoch.
    """
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    state = adam_init(params)
    records = []
    for epoch in range(epochs + 1):
        if epoch:
            params = adam_step(params, grads, state, lr)
        loss, preds, grads = loss_and_grad(params)
        if not np.isfinite(loss):
            raise NonFiniteLossError(f"train loss is {loss} at epoch {epoch}")
        acc = accuracy(preds, labels)
        stop = (min_epochs_before_stop is not None and acc == 1.0
                and epoch >= min_epochs_before_stop)
        if epoch % record_every == 0 or stop or epoch == epochs:
            records.append(EpochRecord(epoch, loss, acc, test_acc(params)))
        if stop:
            return params, tuple(records), epoch < epochs
    return params, tuple(records), False
