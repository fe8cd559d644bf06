"""Acceptance suite: end-to-end reproduction checks with pinned tolerances.

One test per acceptance criterion (the architecture comparison is split into
its two register sizes). Each test prints a single "ACCEPTANCE ...: PASS/FAIL"
line with the measured values before asserting, so verdicts stay legible in
captured output.

EXPECTED RED: test_acceptance_1b_architecture_comparison_4px fails by design.
At 4 pixels per barcode (n=2) the two label classes overlap heavily — the
Bayes-optimal test accuracy is ~0.86 and the measured model ceiling is ~0.68,
so the >= 0.95 bar is unattainable at that size. The test implements the bar
faithfully and is left failing on purpose; see README.md ("Known-red
acceptance test") for the analysis.

Runtime: the heavyweight experiment fixtures run once per module. The
sample-efficiency and size-scaling experiments run at reduced trial counts
(5 and 10) with the same per-trial protocol and seeding scheme as the full
configurations, to keep the suite inside a practical budget.
"""

import numpy as np
import pytest
import scipy.linalg

from artifact.classical import MlpSpec, SiameseModel
from artifact.dataset import SamplePair, generate_dataset, stack_pairs
from artifact.harness import make_config, run_experiment, summarize
from artifact.qnn_meas import extract_feature_matrix, lasso_fit, lasso_scores
from artifact.qnn_var import (
    AnsatzSpec,
    apply_ansatz,
    encode_pairs,
    init_params,
    loss_and_gradient,
    model_eval,
    train_qnn_u,
)
from artifact.statevec import dense_observable
from artifact.symmetry import (
    build_pool,
    check_equivariance,
    complement_rep,
    exchange_rep,
)
from oracles import fd_angle_gradient, lambda_max, shift_angle_gradient

ACCEPT_SEED = 0
REDUCED_FIG4_TRIALS = 5   # full config: 50
REDUCED_FIG5_TRIALS = 10  # full config: 50

COMMUTATOR_TOL = 1e-10
PREDICTION_INVARIANCE_TOL = 1e-10
IDENTITY_TOL = 1e-10
FLAT_TOL = 1e-12
ANSATZ_VS_EXPM_TOL = 1e-8
FD_VS_SHIFT_TOL = 1e-4
ADJOINT_VS_SHIFT_TOL = 1e-12
SIAMESE_GRAD_REL_TOL = 1e-6
OBJECTIVE_MONOTONE_TOL = 1e-12


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}")


def by_model(records):
    out = {}
    for row in summarize(records):
        out.setdefault(row["model"], []).append(row)
    return out


def qnn_u_loss_endpoints(records):
    """Mean initial (epoch 0) and mean final train loss across trials."""
    init, final = {}, {}
    for r in records:
        if r.model != "qnn_u":
            continue
        if r.epoch == 0:
            init[r.trial] = r.train_loss
        if r.trial not in final or r.epoch > final[r.trial][0]:
            final[r.trial] = (r.epoch, r.train_loss)
    return (float(np.mean(list(init.values()))),
            float(np.mean([v[1] for v in final.values()])))


# ------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def fig3_n4_records():
    return run_experiment(make_config("fig3", master_seed=ACCEPT_SEED))


@pytest.fixture(scope="module")
def fig3_n2_records():
    return run_experiment(make_config("fig3", n=2, master_seed=ACCEPT_SEED))


@pytest.fixture(scope="module")
def fig4_records():
    return run_experiment(make_config("fig4", trials=REDUCED_FIG4_TRIALS,
                                      master_seed=ACCEPT_SEED))


@pytest.fixture(scope="module")
def fig5_records():
    return run_experiment(make_config("fig5", trials=REDUCED_FIG5_TRIALS,
                                      master_seed=ACCEPT_SEED))


@pytest.fixture(scope="module")
def oracle_report():
    return run_experiment(make_config("oracle", master_seed=ACCEPT_SEED))


def _fig3_clauses(records):
    rows = by_model(records)
    qnn_m_mean = rows["qnn_m"][0]["test_mean"]
    qnn_u_mean = rows["qnn_u"][0]["test_mean"]
    loss_init, loss_final = qnn_u_loss_endpoints(records)
    return qnn_m_mean, qnn_u_mean, loss_init, loss_final


def _assert_fig3(name, records):
    qnn_m_mean, qnn_u_mean, loss_init, loss_final = _fig3_clauses(records)
    ok = (qnn_m_mean >= 0.95 and qnn_u_mean < 0.75
          and loss_final < loss_init)
    detail = (f"qnn_m mean test {qnn_m_mean:.3f} (need >= 0.95), "
              f"qnn_u mean test {qnn_u_mean:.3f} (need < 0.75), "
              f"qnn_u mean loss {loss_init:.3f} -> {loss_final:.3f} "
              f"(need decrease); 10 trials")
    verdict(name, ok, detail)
    assert qnn_m_mean >= 0.95, detail
    assert qnn_u_mean < 0.75, detail
    assert loss_final < loss_init, detail


def test_acceptance_1a_architecture_comparison_16px(fig3_n4_records):
    _assert_fig3("1a (architecture comparison, 16-pixel barcodes)",
                 fig3_n4_records)


def test_acceptance_1b_architecture_comparison_4px(fig3_n2_records):
    # EXPECTED RED: the accuracy bar exceeds the 4-pixel Bayes ceiling.
    _assert_fig3("1b (architecture comparison, 4-pixel barcodes)",
                 fig3_n2_records)


def test_acceptance_2_sample_efficiency_20_qubits(fig4_records):
    rows = by_model(fig4_records)
    qnn_m = {r["M"]: r for r in rows["qnn_m"]}
    failures = []
    if qnn_m[6]["test_mean"] < 0.90:
        failures.append(f"qnn_m at M=6: {qnn_m[6]['test_mean']:.3f} < 0.90")
    if qnn_m[20]["test_mean"] < 0.95:
        failures.append(f"qnn_m at M=20: {qnn_m[20]['test_mean']:.3f} < 0.95")
    worst_classical = ("", -1.0)
    for model in ("dnn", "cnn"):
        for r in rows[model]:
            if r["test_mean"] > worst_classical[1]:
                worst_classical = (f"{model} at M={r['M']}", r["test_mean"])
            if r["test_mean"] > 0.65:
                failures.append(f"{model} at M={r['M']}: test "
                                f"{r['test_mean']:.3f} > 0.65")
    for model in ("qnn_m", "dnn", "cnn"):
        for r in rows[model]:
            if r["train_mean"] != 1.0:
                failures.append(f"{model} at M={r['M']}: train "
                                f"{r['train_mean']:.3f} != 1.0")
    detail = (f"qnn_m test at M=6 {qnn_m[6]['test_mean']:.3f} "
              f"(need >= 0.90), at M=20 {qnn_m[20]['test_mean']:.3f} "
              f"(need >= 0.95); worst classical {worst_classical[0]} "
              f"{worst_classical[1]:.3f} (need <= 0.65); all train acc 1.0; "
              f"{REDUCED_FIG4_TRIALS} trials, M in 2..20")
    verdict("2 (sample efficiency, 20 qubits)", not failures, detail)
    assert not failures, "; ".join(failures)


def test_acceptance_3_size_scaling(fig5_records):
    rows = by_model(fig5_records)
    qnn_m_means = {r["n"]: r["test_mean"] for r in rows["qnn_m"]}
    spread = max(qnn_m_means.values()) - min(qnn_m_means.values())
    failures = []
    for n, mean in sorted(qnn_m_means.items()):
        if mean < 0.90:
            failures.append(f"qnn_m at n={n}: {mean:.3f} < 0.90")
    if spread > 0.1:
        failures.append(f"qnn_m spread {spread:.3f} > 0.1")
    for r in rows["dnn"]:
        if r["test_mean"] > 0.65:
            failures.append(f"dnn at n={r['n']}: {r['test_mean']:.3f} > 0.65")
    detail = (f"qnn_m test mean by n "
              f"{ {n: round(v, 3) for n, v in sorted(qnn_m_means.items())} } "
              f"(need >= 0.90 each), spread {spread:.3f} (need <= 0.1); "
              f"dnn max {max(r['test_mean'] for r in rows['dnn']):.3f} "
              f"(need <= 0.65); {REDUCED_FIG5_TRIALS} trials")
    verdict("3 (size scaling)", not failures, detail)
    assert not failures, "; ".join(failures)


def test_acceptance_4_observable_identity(oracle_report):
    identity = oracle_report["identity"]
    flat = oracle_report["flat_barcode"]
    worst_id = max(v["max_residual"] for v in identity.values())
    worst_flat = max(v["max_deviation"] for v in flat.values())
    ok = (all(v["pass"] for v in identity.values())
          and all(v["pass"] for v in flat.values()))
    detail = (f"swap+transform observable vs fast-transform overlap: worst "
              f"residual {worst_id:.2e} over 100 pairs at each n in (2,3,5) "
              f"(tol {IDENTITY_TOL:.0e}); flat-barcode value vs 1/N: worst "
              f"deviation {worst_flat:.2e} over 20 partners (tol "
              f"{FLAT_TOL:.0e})")
    verdict("4 (observable identity)", ok, detail)
    assert ok, detail


def test_acceptance_5_equivariance_and_invariance():
    n = 2
    dim = 4 ** n
    pool = build_pool(n)
    reps = (exchange_rep(n), complement_rep(n))

    worst_pool = 0.0
    for entry in pool.entries:
        worst_pool = max(worst_pool,
                         check_equivariance(entry.expr, reps, n_check=n))

    spec = AnsatzSpec()
    rng = np.random.default_rng(11)
    thetas = rng.uniform(-1.0, 1.0, spec.param_count())
    U = apply_ansatz(np.eye(dim, dtype=complex), thetas, pool, spec)
    worst_ansatz = 0.0
    for rep in reps:
        R = dense_observable(rep.expr, n)
        worst_ansatz = max(worst_ansatz,
                           float(np.linalg.norm(U @ R - R @ U)))

    train = generate_dataset(n, None, 8, seed=ACCEPT_SEED)
    exchanged = [SamplePair(s.x2, s.x1, s.label) for s in train.samples]
    complemented = [SamplePair(1 - s.x1, 1 - s.x2, s.label)
                    for s in train.samples]

    F = extract_feature_matrix(train.samples, pool)
    y = stack_pairs(train.samples)[2]
    lasso = lasso_fit(F, y, feature_names=tuple(pool.names()))
    worst_m = 0.0
    for variant in (exchanged, complemented):
        Fv = extract_feature_matrix(variant, pool)
        worst_m = max(worst_m, float(np.max(np.abs(
            lasso_scores(lasso, Fv) - lasso_scores(lasso, F)))))

    result = train_qnn_u(train.samples, pool, epochs=5, seed=ACCEPT_SEED)
    observable = pool.entry("swap")

    def qnn_u_predictions(samples):
        states = encode_pairs(samples, n)[0]
        return model_eval(states, result.params, pool, spec, observable)

    base = qnn_u_predictions(train.samples)
    worst_u = 0.0
    for variant in (exchanged, complemented):
        worst_u = max(worst_u, float(np.max(np.abs(
            qnn_u_predictions(variant) - base))))

    ok = (worst_pool <= COMMUTATOR_TOL and worst_ansatz <= COMMUTATOR_TOL
          and worst_m <= PREDICTION_INVARIANCE_TOL
          and worst_u <= PREDICTION_INVARIANCE_TOL)
    detail = (f"dense commutators at n=2: pool worst {worst_pool:.2e}, "
              f"ansatz worst {worst_ansatz:.2e} (tol {COMMUTATOR_TOL:.0e}); "
              f"prediction shifts under exchange/double-complement: qnn_m "
              f"{worst_m:.2e}, qnn_u {worst_u:.2e} "
              f"(tol {PREDICTION_INVARIANCE_TOL:.0e})")
    verdict("5 (equivariance and invariance)", ok, detail)
    assert ok, detail


def test_acceptance_6_numerical_cross_checks():
    n = 2
    dim = 4 ** n
    pool = build_pool(n)

    # (a) structured ansatz vs dense matrix-exponential oracle
    spec = AnsatzSpec(layers=2)
    rng = np.random.default_rng(5)
    thetas = rng.uniform(-1.5, 1.5, spec.param_count())
    U_struct = apply_ansatz(np.eye(dim, dtype=complex), thetas, pool, spec)
    U_dense = np.eye(dim, dtype=complex)
    k = 0
    for _ in range(spec.layers):
        for name in spec.generator_names:
            entry = pool.entry(name)
            G = np.zeros((dim, dim), dtype=complex)
            for term in entry.exp_terms:
                G += dense_observable(term, n)
            U_dense = scipy.linalg.expm(-1j * thetas[k] * G) @ U_dense
            k += 1
    ansatz_err = float(np.max(np.abs(U_struct - U_dense)))

    # (b) finite-difference and adjoint vs parameter-shift gradients on a
    # real loss; `swap` commutes with every generator (zero angle gradient),
    # the other readouts do not
    train = generate_dataset(n, None, 6, seed=3)
    states, y = encode_pairs(train.samples, n)
    params = init_params(AnsatzSpec(), np.random.default_rng(7))
    grad_err = 0.0
    adjoint_err = 0.0
    for name in ("swap", "sum_zz", "swap_wht"):
        args = (states, y, params, pool, AnsatzSpec(), pool.entry(name))
        shift = shift_angle_gradient(*args)
        grad_err = max(grad_err,
                       float(np.max(np.abs(fd_angle_gradient(*args) - shift))))
        adjoint_err = max(adjoint_err, float(np.max(np.abs(
            loss_and_gradient(*args)[1] - shift))))

    # (c) Siamese backprop vs central finite differences (norm-relative)
    rng = np.random.default_rng(9)
    model = SiameseModel(MlpSpec(16, (5, 3)), rng)
    x1 = rng.normal(size=(4, 16))
    x2 = rng.normal(size=(4, 16))
    yb = np.array([0.0, 1.0, 0.0, 1.0])
    _, _, grads = model.loss_and_gradients(x1, x2, yb)
    analytic = np.concatenate(
        [np.atleast_1d(np.asarray(g, dtype=float)).ravel() for g in grads])
    values = [np.array(p, dtype=float, copy=True) for p in model.params()]
    fd_parts = []
    h = 1e-5
    for i in range(len(values)):
        base = values[i]
        flat_view = base.reshape(-1) if base.ndim else base.reshape(1)
        g = np.zeros(flat_view.size)
        for j in range(flat_view.size):
            endpoint = {}
            for sign in (+1.0, -1.0):
                perturbed = [np.array(v, copy=True) for v in values]
                pf = (perturbed[i].reshape(-1) if perturbed[i].ndim
                      else perturbed[i].reshape(1))
                pf[j] += sign * h
                model.set_params(perturbed)
                p, _ = model.forward(x1, x2)
                endpoint[sign] = float(np.mean((p - yb) ** 2))
            g[j] = (endpoint[1.0] - endpoint[-1.0]) / (2 * h)
        fd_parts.append(g)
    model.set_params(values)
    fd = np.concatenate(fd_parts)
    siam_rel = float(np.linalg.norm(fd - analytic) / np.linalg.norm(fd))

    # (d) LASSO objective monotone per sweep; (e) null solution at lam_max
    Fm = extract_feature_matrix(train.samples, pool)
    fit = lasso_fit(Fm, y, lam=0.01)
    diffs = np.diff(fit.objective_history)
    max_rise = float(diffs.max()) if diffs.size else 0.0
    lam_star = lambda_max(Fm, y)
    null_fit = lasso_fit(Fm, y, lam=lam_star * 1.000001)
    null_ok = bool(np.all(null_fit.alpha == 0.0))

    ok = (ansatz_err <= ANSATZ_VS_EXPM_TOL and grad_err <= FD_VS_SHIFT_TOL
          and adjoint_err <= ADJOINT_VS_SHIFT_TOL
          and siam_rel <= SIAMESE_GRAD_REL_TOL
          and max_rise <= OBJECTIVE_MONOTONE_TOL and null_ok)
    detail = (f"ansatz vs expm {ansatz_err:.2e} (tol "
              f"{ANSATZ_VS_EXPM_TOL:.0e}); fd vs parameter-shift "
              f"{grad_err:.2e} (tol {FD_VS_SHIFT_TOL:.0e}); adjoint vs "
              f"parameter-shift {adjoint_err:.2e} (tol "
              f"{ADJOINT_VS_SHIFT_TOL:.0e}); siamese "
              f"backprop vs fd rel {siam_rel:.2e} (tol "
              f"{SIAMESE_GRAD_REL_TOL:.0e}); lasso objective max rise "
              f"{max_rise:.2e} (tol {OBJECTIVE_MONOTONE_TOL:.0e}); "
              f"null at lambda_max: {null_ok}")
    verdict("6 (numerical cross-checks)", ok, detail)
    assert ok, detail


def test_acceptance_7_class_separation(oracle_report):
    stats = oracle_report["class_stats"][5]
    sep = stats["separation_se"]
    unc = stats["uncorrelated_mean"]
    bound = stats["uncorrelated_bound"]
    ok = sep >= 5.0 and unc <= bound
    detail = (f"n=5, 200+200 samples: class separation {sep:.1f} standard "
              f"errors (need >= 5); uncorrelated mean F {unc:.5f} "
              f"(need <= 3/N = {bound:.5f})")
    verdict("7 (class separation)", ok, detail)
    assert ok, detail
