"""Adam, in place on one flat parameter vector, and the one full-batch
training loop shared by all trainers."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NonFiniteLossError(ValueError):
    """A training loss that is NaN or infinite (maps to CLI exit code 1)."""


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


def lay_out(tensors):
    """(params, grads, views, grad_views): the tensors copied end to end
    into one float64 vector params, a zeroed vector grads of the same
    layout, and each tensor's reshaped view into params and into grads
    (0-d views for scalars)."""
    shapes = [np.shape(t) for t in tensors]
    params = np.concatenate([np.ravel(t) for t in tensors]).astype(float)
    grads = np.zeros_like(params)
    views, grad_views, start = [], [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(params[start:stop].reshape(shape))
        grad_views.append(grads[start:stop].reshape(shape))
        start = stop
    return params, grads, views, grad_views


def adam_step(params, grads, m, v, scratch, t: int, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """Adam step t (from 1), in place on params and the moments m and v,
    through two scratch vectors; operation for operation the textbook
    p -= lr (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)."""
    s, u = scratch
    m *= beta1
    m += np.multiply(grads, 1.0 - beta1, out=s)
    v *= beta2
    np.multiply(grads, 1.0 - beta2, out=s)
    v += np.multiply(s, grads, out=s)
    np.divide(m, 1.0 - beta1 ** t, out=s)
    np.divide(v, 1.0 - beta2 ** t, out=u)
    np.sqrt(u, out=u)
    u += eps
    s *= lr
    s /= u
    params -= s


def fit(params, grads, loss_and_grad, labels, test_acc, epochs: int,
        lr: float, record_every: int = 1, min_epochs_before_stop: int = None):
    """Full-batch Adam, in place on the flat vector params; returns
    (records, stopped_early).

    loss_and_grad() returns (loss, preds) for the current params and leaves
    the gradient in grads, a vector laid out like params; test_acc() gives
    the test accuracy. Epoch 0 records the starting point; each later call
    of loss_and_grad gives both that epoch's train loss and accuracy and
    the next step's gradient, so an E-epoch run makes E + 1 calls and E
    adam_step calls. Every record_every-th epoch and the last one are
    recorded, and test_acc runs only there. With min_epochs_before_stop,
    training ends at the first epoch at or after it with perfect train
    accuracy. A train loss that is not finite raises NonFiniteLossError
    naming its epoch.
    """
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    m, v, *scratch = np.zeros((4, params.size))
    records = []
    for epoch in range(epochs + 1):
        if epoch:
            adam_step(params, grads, m, v, scratch, epoch, lr)
        loss, preds = loss_and_grad()
        if not np.isfinite(loss):
            raise NonFiniteLossError(f"train loss is {loss} at epoch {epoch}")
        acc = accuracy(preds, labels)
        stop = (min_epochs_before_stop is not None and acc == 1.0
                and epoch >= min_epochs_before_stop)
        if epoch % record_every == 0 or stop or epoch == epochs:
            records.append(EpochRecord(epoch, loss, acc, test_acc()))
        if stop:
            return tuple(records), epoch < epochs
    return tuple(records), False
