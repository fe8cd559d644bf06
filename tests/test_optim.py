"""Tests for Adam and the shared training loop optim.fit."""

import numpy as np
import pytest

import oracles
from artifact import optim
from artifact.optim import (
    EpochRecord,
    NonFiniteLossError,
    accuracy,
    adam_step,
    fit,
    lay_out,
)

LABELS = np.array([0.0, 1.0, 1.0, 0.0])


class Stub:
    """loss_and_grad and test_acc for fit, counting their calls.

    The parameter vector is [w], starting at 1; the loss is w**2 and the
    predictions are perfect from epoch perfect_from on (None: never). Call
    k is epoch k - 1.
    """

    def __init__(self, perfect_from=None):
        self.params = np.array([1.0])
        self.grads = np.zeros(1)
        self.calls = 0
        self.test_calls = []
        self.perfect_from = perfect_from

    def loss_and_grad(self):
        self.calls += 1
        w = float(self.params[0])
        perfect = (self.perfect_from is not None
                   and self.calls - 1 >= self.perfect_from)
        preds = LABELS if perfect else 1.0 - LABELS
        self.grads[0] = 2.0 * w
        return w * w, preds

    def test_acc(self):
        self.test_calls.append(self.calls - 1)  # the epoch being recorded
        return 0.25

    def fit(self, epochs, *args, loss_and_grad=None, **kwargs):
        """optim.fit on this stub with learning rate 0.1."""
        return fit(self.params, self.grads,
                   loss_and_grad or self.loss_and_grad, LABELS, self.test_acc,
                   epochs, 0.1, *args, **kwargs)


def test_accuracy_thresholds_at_one_half():
    assert accuracy([0.2, 0.7, 0.51, 0.5], [0, 1, 1, 1]) == 0.75


@pytest.mark.parametrize("epochs, every, schedule", [
    (10, 3, [0, 3, 6, 9, 10]),
    (9, 3, [0, 3, 6, 9]),
    (4, 1, [0, 1, 2, 3, 4]),
    (2, 5, [0, 2]),
])
def test_fit_makes_one_call_per_epoch_and_tests_only_on_schedule(
        epochs, every, schedule):
    stub = Stub()
    records, stopped = stub.fit(epochs, every)
    assert stub.calls == epochs + 1
    assert [r.epoch for r in records] == schedule
    assert stub.test_calls == schedule
    assert all(isinstance(r, EpochRecord) and r.test_acc == 0.25
               and r.train_acc == 0.0 for r in records)
    assert not stopped


def test_fit_matches_hand_rolled_adam():
    stub = Stub()
    records, _ = stub.fit(5)
    p = [np.float64(1.0)]
    state = oracles.adam_init(p)
    losses = [1.0]
    for _ in range(5):
        p = oracles.adam_step(p, [np.float64(2.0 * float(p[0]))], state, 0.1)
        losses.append(float(p[0]) ** 2)
    assert float(stub.params[0]) == float(p[0])
    assert [r.train_loss for r in records] == losses


@pytest.mark.parametrize("epochs", [1, 7])
def test_fit_calls_adam_step_through_the_module_global_once_per_epoch(
        monkeypatch, epochs):
    """A tracer that wraps artifact.optim.adam_step sees every step."""
    steps = []

    def counting(*args, **kwargs):
        steps.append(args[5])  # t
        return adam_step(*args, **kwargs)

    monkeypatch.setattr(optim, "adam_step", counting)
    stub = Stub()
    stub.fit(epochs)
    assert steps == list(range(1, epochs + 1))
    assert stub.params[0] != 1.0


def test_flat_adam_step_equals_the_per_tensor_oracle_bit_for_bit():
    """250 steps on random shape lists with 0-d scalars, gradients of mixed
    scale and sign (zeros included), at several learning rates."""
    rng = np.random.default_rng(2024)
    steps = 0
    for _ in range(10):
        shapes = [tuple(int(d) for d in rng.integers(1, 5, rng.integers(0, 4)))
                  for _ in range(rng.integers(1, 6))] + [()]
        rng.shuffle(shapes)
        start = [rng.standard_normal(shape) for shape in shapes]
        params, grads, _, grad_views = lay_out(start)
        ref = [np.float64(t) if t.ndim == 0 else t.copy() for t in start]
        state = oracles.adam_init(ref)
        m, v, *scratch = np.zeros((4, params.size))
        lr = float(10.0 ** rng.uniform(-4, 0))
        for t in range(1, 26):
            step = [rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 3)
                    * (rng.random(shape) > 0.2) for shape in shapes]
            for view, g in zip(grad_views, step):
                view[...] = g
            adam_step(params, grads, m, v, scratch, t, lr)
            ref = oracles.adam_step(ref, step, state, lr)
            flat = np.concatenate([np.ravel(r) for r in ref])
            assert params.tobytes() == flat.tobytes()
            assert m.tobytes() == np.concatenate(
                [np.ravel(x) for x in state.m]).tobytes()
            assert v.tobytes() == np.concatenate(
                [np.ravel(x) for x in state.v]).tobytes()
            steps += 1
    assert steps >= 200


def test_lay_out_views_share_the_two_vectors():
    params, grads, views, grad_views = lay_out([np.ones((2, 3)), 5.0,
                                                np.arange(2.0)])
    assert params.tolist() == [1.0] * 6 + [5.0, 0.0, 1.0]
    assert [v.shape for v in views] == [(2, 3), (), (2,)]
    assert [g.shape for g in grad_views] == [(2, 3), (), (2,)]
    params *= 2.0
    assert float(views[1]) == 10.0 and views[0][1, 2] == 2.0
    grad_views[2] += 3.0
    assert grads.tolist() == [0.0] * 7 + [3.0, 3.0]


@pytest.mark.parametrize("perfect_from, floor, stop_epoch", [
    (3, 5, 5),  # perfect before the floor: stop at the floor
    (7, 5, 7),  # perfect after the floor: stop at the first perfect epoch
    (0, 1, 1),
])
def test_fit_stops_early_at_first_perfect_epoch_past_the_floor(
        perfect_from, floor, stop_epoch):
    stub = Stub(perfect_from)
    records, stopped = stub.fit(20, record_every=4,
                                min_epochs_before_stop=floor)
    assert stopped
    assert stub.calls == stop_epoch + 1
    assert records[-1].epoch == stop_epoch
    assert records[-1].train_acc == 1.0
    assert stub.test_calls[-1] == stop_epoch


def test_fit_without_floor_never_stops_early():
    stub = Stub(perfect_from=0)
    records, stopped = stub.fit(6, record_every=4)
    assert not stopped
    assert [r.epoch for r in records] == [0, 4, 6]


def test_fit_stop_on_the_last_epoch_is_not_early():
    stub = Stub(perfect_from=6)
    records, stopped = stub.fit(6, record_every=4, min_epochs_before_stop=1)
    assert not stopped
    assert [r.epoch for r in records] == [0, 4, 6]


@pytest.mark.parametrize("every", [0, -1])
def test_fit_rejects_record_every_below_one(every):
    stub = Stub()
    with pytest.raises(ValueError, match="record_every"):
        stub.fit(3, every)
    assert stub.calls == 0


@pytest.mark.parametrize("epochs", [-1, -7])
def test_fit_rejects_negative_epochs(epochs):
    stub = Stub()
    with pytest.raises(ValueError, match="epochs must be >= 0"):
        stub.fit(epochs)
    assert stub.calls == 0 and stub.test_calls == []


def test_fit_with_zero_epochs_records_only_the_start():
    stub = Stub()
    records, stopped = stub.fit(0)
    assert stub.calls == 1
    assert [r.epoch for r in records] == [0]
    assert stub.params[0] == 1.0 and not stopped
    assert records[0].train_loss == 1.0


@pytest.mark.parametrize("bad_epoch, bad_loss", [
    (0, float("nan")), (3, float("nan")), (2, float("inf")),
])
def test_fit_raises_naming_the_epoch_of_a_non_finite_train_loss(bad_epoch,
                                                                bad_loss):
    stub = Stub()

    def loss_and_grad():
        loss, preds = stub.loss_and_grad()
        return (bad_loss if stub.calls - 1 == bad_epoch else loss), preds

    with pytest.raises(NonFiniteLossError, match=f"at epoch {bad_epoch}$"):
        stub.fit(10, loss_and_grad=loss_and_grad)
    assert stub.calls == bad_epoch + 1  # stops at once
    assert issubclass(NonFiniteLossError, ValueError)  # the CLI's exit 1
