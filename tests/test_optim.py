"""Tests for Adam and the shared training loop optim.fit."""

import numpy as np
import pytest

from artifact.optim import (
    EpochRecord,
    NonFiniteLossError,
    accuracy,
    adam_init,
    adam_step,
    fit,
)

LABELS = np.array([0.0, 1.0, 1.0, 0.0])


class Stub:
    """loss_and_grad for fit that counts its calls.

    The parameter list is [w]; the loss is w**2 and the predictions are
    perfect from epoch perfect_from on (None: never). Call k is epoch k - 1.
    """

    def __init__(self, perfect_from=None):
        self.calls = 0
        self.test_calls = []
        self.perfect_from = perfect_from

    def loss_and_grad(self, params):
        self.calls += 1
        w = float(params[0])
        perfect = (self.perfect_from is not None
                   and self.calls - 1 >= self.perfect_from)
        preds = LABELS if perfect else 1.0 - LABELS
        return w * w, preds, [np.float64(2.0 * w)]

    def test_acc(self, params):
        self.test_calls.append(self.calls - 1)  # the epoch being recorded
        return 0.25


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
    params, records, stopped = fit([np.float64(1.0)], stub.loss_and_grad,
                                   LABELS, stub.test_acc, epochs, 0.1, every)
    assert stub.calls == epochs + 1
    assert [r.epoch for r in records] == schedule
    assert stub.test_calls == schedule
    assert all(isinstance(r, EpochRecord) and r.test_acc == 0.25
               and r.train_acc == 0.0 for r in records)
    assert not stopped
    assert len(params) == 1


def test_fit_matches_hand_rolled_adam():
    stub = Stub()
    params, records, _ = fit([np.float64(1.0)], stub.loss_and_grad, LABELS,
                             stub.test_acc, 5, 0.1)
    p = [np.float64(1.0)]
    state = adam_init(p)
    losses = [1.0]
    for _ in range(5):
        p = adam_step(p, [np.float64(2.0 * float(p[0]))], state, 0.1)
        losses.append(float(p[0]) ** 2)
    assert float(params[0]) == float(p[0])
    assert [r.train_loss for r in records] == losses


@pytest.mark.parametrize("perfect_from, floor, stop_epoch", [
    (3, 5, 5),  # perfect before the floor: stop at the floor
    (7, 5, 7),  # perfect after the floor: stop at the first perfect epoch
    (0, 1, 1),
])
def test_fit_stops_early_at_first_perfect_epoch_past_the_floor(
        perfect_from, floor, stop_epoch):
    stub = Stub(perfect_from)
    _, records, stopped = fit([np.float64(1.0)], stub.loss_and_grad, LABELS,
                              stub.test_acc, 20, 0.1, record_every=4,
                              min_epochs_before_stop=floor)
    assert stopped
    assert stub.calls == stop_epoch + 1
    assert records[-1].epoch == stop_epoch
    assert records[-1].train_acc == 1.0
    assert stub.test_calls[-1] == stop_epoch


def test_fit_without_floor_never_stops_early():
    stub = Stub(perfect_from=0)
    _, records, stopped = fit([np.float64(1.0)], stub.loss_and_grad, LABELS,
                              stub.test_acc, 6, 0.1, record_every=4)
    assert not stopped
    assert [r.epoch for r in records] == [0, 4, 6]


def test_fit_stop_on_the_last_epoch_is_not_early():
    stub = Stub(perfect_from=6)
    _, records, stopped = fit([np.float64(1.0)], stub.loss_and_grad, LABELS,
                              stub.test_acc, 6, 0.1, record_every=4,
                              min_epochs_before_stop=1)
    assert not stopped
    assert [r.epoch for r in records] == [0, 4, 6]


@pytest.mark.parametrize("every", [0, -1])
def test_fit_rejects_record_every_below_one(every):
    stub = Stub()
    with pytest.raises(ValueError, match="record_every"):
        fit([np.float64(1.0)], stub.loss_and_grad, LABELS, stub.test_acc, 3,
            0.1, every)
    assert stub.calls == 0


def test_fit_with_zero_epochs_records_only_the_start():
    stub = Stub()
    params, records, stopped = fit([np.float64(1.0)], stub.loss_and_grad,
                                   LABELS, stub.test_acc, 0, 0.1)
    assert stub.calls == 1
    assert [r.epoch for r in records] == [0]
    assert float(params[0]) == 1.0 and not stopped
    assert records[0].train_loss == 1.0


@pytest.mark.parametrize("bad_epoch, bad_loss", [
    (0, float("nan")), (3, float("nan")), (2, float("inf")),
])
def test_fit_raises_naming_the_epoch_of_a_non_finite_train_loss(bad_epoch,
                                                                bad_loss):
    stub = Stub()

    def loss_and_grad(params):
        loss, preds, grads = stub.loss_and_grad(params)
        return (bad_loss if stub.calls - 1 == bad_epoch else loss), preds, grads

    with pytest.raises(NonFiniteLossError, match=f"at epoch {bad_epoch}$"):
        fit([np.float64(1.0)], loss_and_grad, LABELS, stub.test_acc, 10, 0.1)
    assert stub.calls == bad_epoch + 1  # stops at once
    assert issubclass(NonFiniteLossError, ValueError)  # the CLI's exit 1
