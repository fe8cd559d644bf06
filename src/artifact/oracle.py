"""Direct checks of the similarity functional (the product-observable
identity against the fast-transform route, the flat-barcode value, class
statistics, a bare threshold-on-F classifier against qnn_m) and the
operator pool's dense invariance report."""

from __future__ import annotations

import numpy as np

from .config import ExperimentConfig, make_config
from .dataset import Dataset, default_epsilon, sample_pair
from .harness import block_data, derive_seed, fit_block
from .statevec import expectation, forrelation, phase_state, product_state
from .symmetry import build_pool, check_invariance_conditions

ORACLE_IDENTITY_SIZES = (2, 3, 5)
ORACLE_PAIRS_PER_SIZE = 100
ORACLE_FLAT_CASES = 20
ORACLE_STATS_PER_CLASS = 200


def run_oracle_check(config: ExperimentConfig) -> dict:
    """Cross-checks between the structured simulator and the fast transform.

    All tolerances are recorded in the report alongside the measured values.
    """
    report = {"identity": {}, "flat_barcode": {}, "class_stats": {},
              "threshold_vs_qnn_m": {}}

    # 1. product-observable identity on random pairs, three register sizes
    for n in ORACLE_IDENTITY_SIZES:
        rng = np.random.default_rng(
            derive_seed(config.master_seed, "oracle", n, "identity"))
        swap_wht = build_pool(n).entry("swap_wht").expr
        worst = 0.0
        for _ in range(ORACLE_PAIRS_PER_SIZE):
            s = sample_pair(n, config.epsilon, bool(rng.integers(0, 2)), rng,
                            config.rounding, config.partner)
            state = product_state(phase_state(s.x1), phase_state(s.x2))
            lhs = expectation(state, swap_wht, n)
            rhs = forrelation(s.x1, s.x2)
            worst = max(worst, abs(lhs - rhs))
        report["identity"][n] = {"max_residual": worst, "tol": 1e-10,
                                 "pass": worst <= 1e-10}

    # 2. flat barcode: F(0^N, x2) must equal exactly 1/N
    for n in ORACLE_IDENTITY_SIZES:
        rng = np.random.default_rng(
            derive_seed(config.master_seed, "oracle", n, "flat"))
        N = 2 ** n
        flat = np.zeros(N, dtype=np.uint8)
        worst = 0.0
        for _ in range(ORACLE_FLAT_CASES):
            x2 = rng.integers(0, 2, N).astype(np.uint8)
            worst = max(worst, abs(forrelation(flat, x2) - 1.0 / N))
        report["flat_barcode"][n] = {"max_deviation": worst, "tol": 1e-12,
                                     "pass": worst <= 1e-12}

    # 3. class-conditional F statistics (always at n=5, plus the configured
    #    size): class separation in standard errors and the O(1/N)
    #    uncorrelated mean
    per_class = ORACLE_STATS_PER_CLASS
    for n in sorted({5, config.n}):
        rng = np.random.default_rng(
            derive_seed(config.master_seed, "oracle", n, "stats"))
        eps = (config.epsilon if config.epsilon is not None
               else default_epsilon(n))
        f_corr, f_unc = (_forrelations([
            sample_pair(n, eps, correlated, rng, config.rounding,
                        config.partner) for _ in range(per_class)])
            for correlated in (True, False))
        se = np.sqrt(f_corr.var(ddof=1) / per_class
                     + f_unc.var(ddof=1) / per_class)
        separation = (f_corr.mean() - f_unc.mean()) / se if se > 0 else np.inf
        report["class_stats"][n] = {
            "samples_per_class": per_class,
            "correlated_mean": float(f_corr.mean()),
            "correlated_std": float(f_corr.std(ddof=1)),
            "uncorrelated_mean": float(f_unc.mean()),
            "uncorrelated_std": float(f_unc.std(ddof=1)),
            "separation_se": float(separation),
            "uncorrelated_bound": 3.0 / 2 ** n,
            "pass": bool(f_unc.mean() <= 3.0 / 2 ** n and separation >= 5.0),
        }

    # 4. bare threshold on F versus the measurement-based model at n=5, on
    #    one fig3 block's training pool and test split
    n5 = 5
    cfg5 = make_config("fig3", n=n5, trials=1,
                       master_seed=derive_seed(config.master_seed, "oracle",
                                               "threshold"),
                       models=("qnn_m",), epsilon=config.epsilon,
                       lam=config.lam, rounding=config.rounding,
                       partner=config.partner)
    train_pool, test = block_data(cfg5, n5, 0)
    qnn_acc = fit_block(cfg5, n5, 0, train_pool, test)[0].test_acc
    thr_acc = _threshold_classifier_accuracy(train_pool, test)
    report["threshold_vs_qnn_m"] = {
        "n": n5, "threshold_acc": thr_acc, "qnn_m_acc": qnn_acc,
        "margin": 0.05, "pass": bool(thr_acc >= qnn_acc - 0.05),
    }

    report["pass"] = bool(
        all(v["pass"] for v in report["identity"].values())
        and all(v["pass"] for v in report["flat_barcode"].values())
        and all(v["pass"] for v in report["class_stats"].values())
        and report["threshold_vs_qnn_m"]["pass"])
    return report


def _forrelations(pairs) -> np.ndarray:
    """F of each pair of a sequence of pairs."""
    return np.array([forrelation(s.x1, s.x2) for s in pairs])


def _threshold_classifier_accuracy(train: Dataset, test: Dataset) -> float:
    """Best single threshold on F fit on the training split."""
    f_train = _forrelations(train)
    candidates = np.concatenate([[0.0], np.sort(f_train), [1.0]])
    best_thr, best_acc = 0.5, -1.0
    for i in range(candidates.size - 1):
        thr = 0.5 * (candidates[i] + candidates[i + 1])
        acc = float(np.mean((f_train < thr).astype(int) == train.y))
        if acc > best_acc:
            best_acc, best_thr = acc, thr
    f_test = _forrelations(test)
    return float(np.mean((f_test < best_thr).astype(int) == test.y))


def validate_pool_report(n: int) -> dict:
    """Pool build + dense invariance checks at n (2 or 3), as a report."""
    conditions = check_invariance_conditions(n_check=n)
    return {
        "n": n,
        "entries": build_pool(n).names(),
        "invariance_conditions": conditions,
        "pass": bool(conditions["pass"]),
    }
