"""Tests for the variational model: exact exponentials, gradients, training."""

import math

import numpy as np
import pytest
import scipy.linalg

from artifact import qnn_var
from artifact.dataset import generate_dataset
from artifact.optim import adam_init, adam_step
from artifact.qnn_var import (
    AnsatzSpec,
    QnnUParams,
    ansatz_factors,
    apply_ansatz,
    encode_pairs,
    init_params,
    loss_and_gradient,
    model_eval,
    mse_loss,
    pruned_blocks,
    train_qnn_u,
)
from artifact.statevec import (
    commutes,
    dense_observable,
    phase_state,
    product_state,
)
from artifact.symmetry import build_pool, complement_rep, exchange_rep
from oracles import (
    apply_exp_generator,
    fd_angle_gradient,
    reference_ansatz,
    reference_h,
    shift_angle_gradient,
    shift_gradient_h,
)
from test_golden_records import LOSS_RTOL

N_CHECK = 2
POOL2 = build_pool(N_CHECK)
POOL3 = build_pool(3)
POOL4 = build_pool(4)
# the default readout commutes with every generator (zero angle gradient);
# the other two do not, so the gradient oracles compare nonzero values
READOUTS = ("swap", "sum_zz", "swap_wht")
ALL_GENERATORS = tuple(POOL2.names())


def random_state(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


# ------------------------------------------------ exact exponentials


@pytest.mark.parametrize("name", ["sum_y", "sum_xx", "sum_yy", "swap",
                                  "x_all", "wht_all"])
def test_exp_generator_matches_expm(name):
    rng = np.random.default_rng(17)
    entry = POOL2.entry(name)
    G = dense_observable(entry.expr, N_CHECK)
    for theta in (0.3, -1.1, 2.0):
        U = scipy.linalg.expm(-1j * theta * G)
        st = random_state(rng, 16)
        got = apply_exp_generator(st, entry, theta, N_CHECK)
        np.testing.assert_allclose(got, U @ st, atol=1e-8)


def test_exp_generator_zero_angle_is_identity():
    rng = np.random.default_rng(1)
    st = random_state(rng, 16)
    for entry in POOL2.entries:
        got = apply_exp_generator(st, entry, 0.0, N_CHECK)
        np.testing.assert_allclose(got, st, atol=1e-12)


def test_exp_swap_at_half_pi_gives_minus_i_swap():
    rng = np.random.default_rng(2)
    b1 = rng.integers(0, 2, 4).astype(np.uint8)
    b2 = rng.integers(0, 2, 4).astype(np.uint8)
    st = product_state(phase_state(b1), phase_state(b2))
    swapped = product_state(phase_state(b2), phase_state(b1))
    got = apply_exp_generator(st, POOL2.entry("swap"), math.pi / 2, N_CHECK)
    np.testing.assert_allclose(got, -1j * swapped, atol=1e-12)


def test_ansatz_is_unitary_and_batched():
    rng = np.random.default_rng(3)
    spec = AnsatzSpec()
    thetas = rng.uniform(-1, 1, spec.param_count())
    states = np.stack([random_state(rng, 16) for _ in range(5)], axis=1)
    out = apply_ansatz(states, thetas, POOL2, spec)
    np.testing.assert_allclose(np.linalg.norm(out, axis=0), np.ones(5),
                               atol=1e-10)
    # column k of the batched result equals the single-state application
    one = apply_ansatz(states[:, 2], thetas, POOL2, spec)
    np.testing.assert_allclose(out[:, 2], one, atol=1e-12)


def test_ansatz_matches_dense_product_of_expm():
    """Against scipy expm of dense generators: an oracle that, unlike
    reference_ansatz, does not apply the factors with apply_observable.
    Beyond n = 2 the nearest-neighbour sums stop commuting pairwise."""
    rng = np.random.default_rng(4)
    for pool, names in ((POOL2, AnsatzSpec().generator_names),
                        (POOL3, ALL_GENERATORS)):
        spec = AnsatzSpec(layers=2, generator_names=names)
        D = 4 ** pool.n
        thetas = rng.uniform(-1, 1, spec.param_count())
        U = np.eye(D, dtype=complex)
        k = 0
        for _ in range(spec.layers):
            for name in spec.generator_names:
                G = dense_observable(pool.entry(name).expr, pool.n)
                U = scipy.linalg.expm(-1j * thetas[k] * G) @ U
                k += 1
        st = random_state(rng, D)
        np.testing.assert_allclose(apply_ansatz(st, thetas, pool, spec),
                                   U @ st, atol=1e-8)


def test_ansatz_commutes_with_symmetry_reps():
    rng = np.random.default_rng(5)
    spec = AnsatzSpec()
    thetas = rng.uniform(-1, 1, spec.param_count())
    st = random_state(rng, 16)
    for rep in (exchange_rep(N_CHECK), complement_rep(N_CHECK)):
        U = dense_observable(rep.expr, N_CHECK)
        a = apply_ansatz(U @ st, thetas, POOL2, spec)
        b = U @ apply_ansatz(st, thetas, POOL2, spec)
        np.testing.assert_allclose(a, b, atol=1e-8)


@pytest.mark.parametrize("pool", [POOL2, POOL4], ids=["n2", "n4"])
def test_ansatz_forward_matches_reference_exponentials(pool):
    rng = np.random.default_rng(12)
    D = 4 ** pool.n
    for names in (AnsatzSpec().generator_names, ALL_GENERATORS):
        spec = AnsatzSpec(layers=2, generator_names=names)
        thetas = rng.uniform(-1.5, 1.5, spec.param_count())
        states = rng.standard_normal((D, 4)) + 1j * rng.standard_normal((D, 4))
        np.testing.assert_array_equal(
            apply_ansatz(states, thetas, pool, spec),
            reference_ansatz(states, thetas, pool, spec))


def test_ansatz_rejects_wrong_theta_count():
    with pytest.raises(ValueError, match="theta vector"):
        apply_ansatz(np.ones(16, dtype=complex) / 4.0, np.zeros(3), POOL2,
                     AnsatzSpec())


# ------------------------------------------------------------ gradients


def test_parameter_shift_matches_finite_differences():
    rng = np.random.default_rng(6)
    spec = AnsatzSpec(layers=1)
    thetas = rng.uniform(-0.5, 0.5, spec.param_count())
    states = np.stack([random_state(rng, 16) for _ in range(3)], axis=1)
    h = 1e-5
    for name in READOUTS:
        obs = POOL2.entry(name)
        shifts = []
        for k, d in enumerate(h * np.eye(spec.param_count())):
            shift = shift_gradient_h(states, thetas, POOL2, spec, obs, k)
            fd = (reference_h(states, thetas + d, POOL2, spec, obs)
                  - reference_h(states, thetas - d, POOL2, spec, obs)) / (2 * h)
            np.testing.assert_allclose(shift, fd, atol=1e-4)
            shifts.append(shift)
        if name != "swap":
            assert np.max(np.abs(shifts)) > 1e-2, name


def test_encode_pairs_equals_the_kronecker_product_bit_for_bit():
    ds = generate_dataset(n=3, epsilon=None, count_per_class=4, seed=12)
    states, y = encode_pairs(ds.samples, 3)
    assert states.shape == (64, 8) and states.dtype == complex
    for col, s in zip(states.T, ds.samples):
        np.testing.assert_array_equal(
            col, product_state(phase_state(s.x1), phase_state(s.x2)))
    np.testing.assert_array_equal(y, [s.label for s in ds.samples])
    with pytest.raises(ValueError, match="register size"):
        encode_pairs(ds.samples, 4)


def test_loss_gradient_methods_agree():
    rng = np.random.default_rng(7)
    ds = generate_dataset(n=N_CHECK, epsilon=None, count_per_class=4, seed=12)
    states, y = encode_pairs(ds.samples, N_CHECK)
    spec = AnsatzSpec(layers=2)
    params = QnnUParams(rng.uniform(-0.5, 0.5, spec.param_count()), 1.3, -0.2)
    for name in READOUTS:
        obs = POOL2.entry(name)
        _, gt_ad, _, _, preds = loss_and_gradient(states, y, params, POOL2,
                                                  spec, obs)
        # the reference circuit reproduces the production forward pass
        np.testing.assert_array_equal(
            preds, params.a * reference_h(states, params.thetas, POOL2, spec,
                                          obs) + params.b)
        gt_fd = fd_angle_gradient(states, y, params, POOL2, spec, obs)
        gt_sh = shift_angle_gradient(states, y, params, POOL2, spec, obs)
        np.testing.assert_allclose(gt_fd, gt_sh, atol=1e-4)
        np.testing.assert_allclose(gt_ad, gt_sh, rtol=0, atol=1e-12)
        np.testing.assert_allclose(gt_ad, gt_fd, rtol=0, atol=1e-6)
        if name != "swap":
            assert np.max(np.abs(gt_ad)) > 1e-2, name


def test_adjoint_matches_parameter_shift_at_n4():
    rng = np.random.default_rng(14)
    ds = generate_dataset(n=4, epsilon=None, count_per_class=3, seed=4)
    states, y = encode_pairs(ds.samples, 4)
    spec = AnsatzSpec(layers=1)
    params = QnnUParams(rng.uniform(-1, 1, spec.param_count()), 0.8, 0.3)
    for name in READOUTS:
        obs = POOL4.entry(name)
        _, gt_ad, _, _, _ = loss_and_gradient(states, y, params, POOL4, spec,
                                              obs)
        gt_sh = shift_angle_gradient(states, y, params, POOL4, spec, obs)
        np.testing.assert_allclose(gt_ad, gt_sh, rtol=0, atol=1e-12)


def test_swap_readout_angle_gradient_vanishes():
    """SWAP commutes with every generator, so no angle changes <SWAP>."""
    rng = np.random.default_rng(15)
    spec = AnsatzSpec()
    obs = POOL2.entry("swap")
    for _ in range(25):
        states = np.stack([random_state(rng, 16) for _ in range(4)], axis=1)
        y = rng.integers(0, 2, 4).astype(float)
        params = QnnUParams(rng.uniform(-math.pi, math.pi,
                                        spec.param_count()),
                            rng.uniform(-2, 2), rng.uniform(-1, 1))
        _, gt, _, _, _ = loss_and_gradient(states, y, params, POOL2, spec,
                                           obs)
        assert np.max(np.abs(gt)) <= 1e-12


# ------------------------------------------------------- pruned blocks


@pytest.mark.parametrize("pool", [POOL2, POOL3], ids=["n2", "n3"])
@pytest.mark.parametrize("name", POOL2.names())
def test_pruned_circuit_matches_full_circuit(pool, name):
    rng = np.random.default_rng(16)
    ds = generate_dataset(n=pool.n, epsilon=None, count_per_class=3, seed=6)
    states, y = encode_pairs(ds.samples, pool.n)
    spec = AnsatzSpec()
    params = QnnUParams(rng.uniform(-1, 1, spec.param_count()), 1.2, -0.1)
    obs = pool.entry(name)
    live = spec.param_count() - pruned_blocks(pool, spec, obs)
    loss, gt, _, _, preds = loss_and_gradient(
        states, y, params, pool, spec, obs,
        factors=ansatz_factors(pool, spec, live))
    ref_preds = params.a * reference_h(states, params.thetas, pool, spec,
                                       obs) + params.b
    np.testing.assert_allclose(preds, ref_preds, rtol=0, atol=1e-12)
    assert loss == pytest.approx(mse_loss(ref_preds, y), rel=1e-12, abs=0.0)
    np.testing.assert_allclose(
        gt, shift_angle_gradient(states, y, params, pool, spec, obs),
        rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        gt[:live],
        fd_angle_gradient(states, y, params, pool, spec, obs)[:live],
        rtol=0, atol=1e-6)
    assert np.all(gt[live:] == 0.0)


@pytest.mark.parametrize("pool", [POOL3, POOL4], ids=["n3", "n4"])
def test_pruned_block_count_is_checked_at_run_size(pool):
    spec = AnsatzSpec()
    counts = {name: pruned_blocks(pool, spec, pool.entry(name))
              for name in ("swap", "sum_y", "sum_yy", "sum_zz")}
    assert counts == {"swap": 12, "sum_y": 2, "sum_yy": 2, "sum_zz": 1}


def test_nearest_neighbour_sums_commute_only_at_n2():
    """One pair per register at n = 2 makes sum_xx and sum_zz commute there;
    a check at that size would prune blocks that move the readout at n = 3.
    """
    for a, b in (("sum_xx", "sum_zz"), ("sum_xx", "sum_yy")):
        assert commutes(POOL2.entry(a).expr, POOL2.entry(b).expr, 2)
        assert not commutes(POOL3.entry(a).expr, POOL3.entry(b).expr, 3)
    assert pruned_blocks(POOL2, AnsatzSpec(), POOL2.entry("sum_yy")) == 12


def train_pruned_and_full(monkeypatch, observable_name):
    """One n = 3 training run with the pruned circuit, then the same run
    through the full factor tuple; checks that the records agree and
    returns the pruned result with the initial angles."""
    ds = generate_dataset(n=3, epsilon=None, count_per_class=4, seed=23)
    test = generate_dataset(n=3, epsilon=None, count_per_class=4, seed=24)
    kwargs = dict(observable_name=observable_name, epochs=20, seed=5,
                  test_samples=test.samples, record_every=5)
    pruned = train_qnn_u(ds.samples, POOL3, **kwargs)
    with monkeypatch.context() as m:
        m.setattr(qnn_var, "pruned_blocks", lambda *args: 0)
        full = train_qnn_u(ds.samples, POOL3, **kwargs)
    assert full.pruned_blocks == 0
    assert len(pruned.records) == len(full.records)
    for a, b in zip(pruned.records, full.records):
        assert (a.epoch, a.train_acc, a.test_acc) == (b.epoch, b.train_acc,
                                                      b.test_acc)
        assert a.train_loss == pytest.approx(b.train_loss, rel=LOSS_RTOL,
                                             abs=0.0)
    return pruned, init_params(AnsatzSpec(), np.random.default_rng(5)).thetas


def test_swap_training_simulates_no_block(monkeypatch):
    pruned, init = train_pruned_and_full(monkeypatch, "swap")
    assert pruned.pruned_blocks == 12
    np.testing.assert_array_equal(pruned.params.thetas, init)


def test_partly_pruned_training_matches_full_circuit(monkeypatch):
    """sum_zz prunes only the last block, so training runs live factors."""
    pruned, init = train_pruned_and_full(monkeypatch, "sum_zz")
    assert pruned.pruned_blocks == 1
    assert pruned.params.thetas[-1] == init[-1]
    assert np.all(pruned.params.thetas[:-1] != init[:-1])


def test_analytic_head_gradients():
    rng = np.random.default_rng(8)
    ds = generate_dataset(n=N_CHECK, epsilon=None, count_per_class=3, seed=5)
    states, y = encode_pairs(ds.samples, N_CHECK)
    spec = AnsatzSpec(layers=1)
    params = QnnUParams(rng.uniform(-0.5, 0.5, spec.param_count()), 0.7, 0.1)
    obs = POOL2.entry("swap")
    _, _, ga, gb, _ = loss_and_gradient(states, y, params, POOL2, spec, obs)
    h = 1e-6

    def loss_ab(a, b):
        preds = model_eval(states, QnnUParams(params.thetas, a, b), POOL2,
                           spec, obs)
        return mse_loss(preds, y)

    fd_a = (loss_ab(params.a + h, params.b) - loss_ab(params.a - h, params.b)) / (2 * h)
    fd_b = (loss_ab(params.a, params.b + h) - loss_ab(params.a, params.b - h)) / (2 * h)
    assert abs(ga - fd_a) <= 1e-6
    assert abs(gb - fd_b) <= 1e-6


# ----------------------------------------------------------------- Adam


def test_adam_first_step_size_is_learning_rate():
    params = [np.array([1.0, -2.0])]
    grads = [np.array([0.3, -0.7])]
    state = adam_init(params)
    new = adam_step(params, grads, state, lr=0.1)
    step = new[0] - params[0]
    # first Adam step is -lr * sign(grad) up to the eps regularizer
    np.testing.assert_allclose(np.abs(step), [0.1, 0.1], rtol=1e-6)
    assert step[0] < 0 and step[1] > 0


def test_adam_state_advances():
    params = [np.zeros(3)]
    state = adam_init(params)
    adam_step(params, [np.ones(3)], state, lr=0.01)
    assert state.t == 1
    assert np.all(state.m[0] != 0.0)


# ------------------------------------------------------------- training


def test_zero_learning_rate_keeps_model_constant():
    ds = generate_dataset(n=N_CHECK, epsilon=None, count_per_class=3, seed=3)
    result = train_qnn_u(ds.samples, POOL2, epochs=5, lr=0.0, seed=9)
    losses = [r.train_loss for r in result.records]
    assert max(losses) - min(losses) <= 1e-12


def test_training_records_and_loss_decrease():
    ds = generate_dataset(n=N_CHECK, epsilon=None, count_per_class=5, seed=21)
    test = generate_dataset(n=N_CHECK, epsilon=None, count_per_class=5, seed=22)
    result = train_qnn_u(ds.samples, POOL2, epochs=30, lr=0.1, seed=2,
                         test_samples=test.samples, record_every=10)
    epochs = [r.epoch for r in result.records]
    assert epochs == [0, 10, 20, 30]
    assert result.records[-1].train_loss < result.records[0].train_loss
    assert 0.0 <= result.records[-1].test_acc <= 1.0


def test_training_is_deterministic_given_seed():
    ds = generate_dataset(n=N_CHECK, epsilon=None, count_per_class=3, seed=7)
    r1 = train_qnn_u(ds.samples, POOL2, epochs=5, seed=13)
    r2 = train_qnn_u(ds.samples, POOL2, epochs=5, seed=13)
    np.testing.assert_array_equal(r1.params.thetas, r2.params.thetas)
    for a, b in zip(r1.records, r2.records):
        assert a.epoch == b.epoch
        assert a.train_loss == b.train_loss
        assert a.train_acc == b.train_acc
        assert (a.test_acc == b.test_acc
                or (math.isnan(a.test_acc) and math.isnan(b.test_acc)))


def test_predictions_invariant_under_input_exchange():
    rng = np.random.default_rng(10)
    spec = AnsatzSpec()
    params = QnnUParams(rng.uniform(-1, 1, spec.param_count()), 1.0, 0.0)
    obs = POOL2.entry("swap")
    for _ in range(5):
        b1 = rng.integers(0, 2, 4).astype(np.uint8)
        b2 = rng.integers(0, 2, 4).astype(np.uint8)
        st = product_state(phase_state(b1), phase_state(b2))[:, None]
        sw = product_state(phase_state(b2), phase_state(b1))[:, None]
        p1 = model_eval(st, params, POOL2, spec, obs)
        p2 = model_eval(sw, params, POOL2, spec, obs)
        assert abs(float(p1[0]) - float(p2[0])) <= 1e-10


def test_init_params_shape_and_range():
    spec = AnsatzSpec()
    params = init_params(spec, np.random.default_rng(0))
    assert params.thetas.shape == (12,)
    assert np.all(np.abs(params.thetas) <= 0.1)
    assert params.a == 1.0 and params.b == 0.0
