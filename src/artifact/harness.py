"""Seeded experiment orchestration: the three studies plus the oracle check.

Experiments:

- fig3: architecture comparison at a fixed size (default n=4 per register):
  the measurement-based model (qnn_m) against the variational model (qnn_u),
  10 trials, 10 training pairs per class.
- fig4: sample-efficiency sweep at n=10 per register (20 qubits): qnn_m
  against the Siamese DNN and CNN over per-class training counts 1..10,
  50 trials. Each trial draws one 10-per-class training pool and the sweep
  takes class-balanced prefixes, so smaller budgets are nested in larger.
- fig5: system-size sweep (default n in {4, 5, 6, 7}) at 5 training pairs
  per class: qnn_m against the Siamese DNN (the fixed CNN stack does not
  fit these register sizes).
- oracle: direct checks of the similarity functional: the product-observable
  identity against the fast-transform route, the flat-barcode value,
  class-conditional statistics, and a bare threshold-on-F classifier
  compared with qnn_m.

Seeding: every random draw is derived from the master seed by hashing
(master, experiment, trial, role), so per-trial records are independent of
execution order, and re-running a configuration reproduces every column of
the CSV except wall_ms. Train/test splits are disjoint by construction:
test pairs that collide with a training-pool bitstring pair are resampled.

CSV schema: trial,model,n,M,epoch,train_loss,train_acc,test_acc,seed,wall_ms
(one row per recorded epoch; for qnn_m, a single row whose epoch column
holds the number of coordinate-descent sweeps used). M counts training
pairs over both classes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import numbers
import sys
import time
from dataclasses import dataclass

import numpy as np

from .classical import MlpSpec, cnn_spec_for, train_siamese
from .dataset import (
    DEFAULT_PARTNER,
    DEFAULT_ROUNDING,
    PARTNER_MODES,
    ROUNDING_MODES,
    Dataset,
    default_epsilon,
    generate_dataset,
    sample_pair,
    stack_pairs,
)
from .optim import EpochRecord, accuracy
from .qnn_meas import (
    DEFAULT_LAMBDA,
    extract_feature_matrix,
    lasso_fit,
    lasso_scores,
)
from .qnn_var import train_qnn_u
from .statevec import expectation, forrelation, phase_state, product_state
from .symmetry import build_pool, check_invariance_conditions

CSV_HEADER = ("trial", "model", "n", "M", "epoch", "train_loss",
              "train_acc", "test_acc", "seed", "wall_ms")
EXPERIMENTS = ("fig3", "fig4", "fig5", "oracle")
KNOWN_MODELS = ("qnn_m", "qnn_u", "dnn", "cnn")
ORACLE_IDENTITY_SIZES = (2, 3, 5)
ORACLE_PAIRS_PER_SIZE = 100
ORACLE_FLAT_CASES = 20
ORACLE_STATS_PER_CLASS = 200


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to CLI exit code 1)."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    n: int = None
    per_class_counts: tuple = None
    test_per_class: int = 40
    trials: int = None
    models: tuple = None
    epsilon: float = None  # None -> 1/(4 ln N)
    lam: float = DEFAULT_LAMBDA
    lr: float = None  # None -> per-model default
    epochs: int = None  # None -> per-model default
    master_seed: int = 0
    record_every: int = None
    sweep_n: tuple = None  # fig5 only
    rounding: str = DEFAULT_ROUNDING
    partner: str = DEFAULT_PARTNER


_DEFAULTS = {
    "fig3": dict(n=4, per_class_counts=(10,), trials=10,
                 models=("qnn_m", "qnn_u"), record_every=10),
    "fig4": dict(n=10, per_class_counts=tuple(range(1, 11)), trials=50,
                 models=("qnn_m", "dnn", "cnn"), record_every=5),
    "fig5": dict(n=None, per_class_counts=(5,), trials=50,
                 models=("qnn_m", "dnn"), record_every=5,
                 sweep_n=(4, 5, 6, 7)),
    "oracle": dict(n=10, per_class_counts=(10,), trials=1,
                   models=("qnn_m",), record_every=1),
}


_INT, _REAL = numbers.Integral, numbers.Real
# every config field and the type of its value; a field in brackets is a
# list or tuple of that type
_FIELD_TYPES = {
    "n": _INT, "test_per_class": _INT, "trials": _INT, "epochs": _INT,
    "master_seed": _INT, "record_every": _INT, "epsilon": _REAL,
    "lam": _REAL, "lr": _REAL, "rounding": str, "partner": str,
    "per_class_counts": [_INT], "sweep_n": [_INT], "models": [str],
}


def _has_type(value, kind) -> bool:
    if isinstance(kind, list):
        return (isinstance(value, (list, tuple))
                and all(_has_type(v, kind[0]) for v in value))
    return isinstance(value, kind) and not isinstance(value, bool)


def make_config(experiment: str, **overrides) -> ExperimentConfig:
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; expected one "
                          f"of {', '.join(EXPERIMENTS)}")
    merged = dict(_DEFAULTS[experiment])
    for key, value in overrides.items():
        if key == "lambda":  # JSON-facing alias
            key = "lam"
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config field {key!r}")
        if value is None:
            continue
        if not _has_type(value, _FIELD_TYPES[key]):
            raise ConfigError(f"config field {key!r} has the wrong type: "
                              f"{value!r}")
        if _FIELD_TYPES[key] is _REAL and not abs(value) <= sys.float_info.max:
            raise ConfigError(f"config field {key!r} is not a finite float")
        merged[key] = value
    for tup_field in ("per_class_counts", "models", "sweep_n"):
        if merged.get(tup_field) is not None:
            merged[tup_field] = tuple(merged[tup_field])
    config = ExperimentConfig(experiment=experiment, **merged)
    _validate_config(config)
    return config


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    if "experiment" not in raw:
        raise ConfigError("config file is missing the 'experiment' field")
    experiment = raw.pop("experiment")
    return make_config(experiment, **raw)


def _validate_config(c: ExperimentConfig) -> None:
    if c.trials is None or c.trials < 1:
        raise ConfigError("trials must be >= 1")
    if not c.per_class_counts or any(m < 1 for m in c.per_class_counts):
        raise ConfigError("per-class training counts must be positive")
    if c.test_per_class < 1:
        raise ConfigError("test_per_class must be >= 1")
    if not c.models:
        raise ConfigError("at least one model is required")
    for m in c.models:
        if m not in KNOWN_MODELS:
            raise ConfigError(f"unknown model {m!r}; expected one of "
                              f"{', '.join(KNOWN_MODELS)}")
    # a field the experiment would ignore is an error, not a no-op
    if c.experiment in ("fig3", "fig5") and len(c.per_class_counts) > 1:
        raise ConfigError(f"{c.experiment} takes one per-class training "
                          f"count, got {list(c.per_class_counts)}")
    if (c.experiment == "fig4"
            and len(set(c.per_class_counts)) < len(c.per_class_counts)):
        raise ConfigError("fig4 per-class training counts must not repeat")
    if c.experiment == "fig5":
        if not c.sweep_n or any(n < 2 for n in c.sweep_n):
            raise ConfigError("fig5 sweep_n must contain sizes >= 2")
        if c.n is not None:
            raise ConfigError("fig5 sweeps sweep_n; n must not be set")
    else:
        if c.n is None or c.n < 2:
            raise ConfigError("n must be >= 2")
        if c.sweep_n is not None and c.experiment != "oracle":
            raise ConfigError(f"{c.experiment} runs at one n; sweep_n is "
                              "for fig5 only")
    sizes = c.sweep_n if c.experiment == "fig5" else (c.n,)
    if "cnn" in c.models and any(n not in (8, 10) for n in sizes):
        raise ConfigError("cnn requires n in {8, 10}")
    if c.epsilon is not None and c.epsilon <= 0:
        raise ConfigError("epsilon must be positive")
    if c.lam < 0:
        raise ConfigError("lambda must be nonnegative")
    if c.record_every is not None and c.record_every < 1:
        raise ConfigError("record_every must be >= 1")
    if c.epochs is not None and c.epochs < 1:
        raise ConfigError("epochs must be >= 1")
    if c.lr is not None and c.lr < 0:
        raise ConfigError("lr must be nonnegative")
    for name, modes in (("rounding", ROUNDING_MODES),
                        ("partner", PARTNER_MODES)):
        if getattr(c, name) not in modes:
            raise ConfigError(f"unknown {name} mode {getattr(c, name)!r}; "
                              f"expected one of {', '.join(modes)}")


@dataclass(frozen=True)
class RunRecord:
    trial: int
    model: str
    n: int
    M: int
    epoch: int
    train_loss: float
    train_acc: float
    test_acc: float
    seed: int
    wall_ms: float

    def __post_init__(self):
        for name in ("train_acc", "test_acc"):
            v = getattr(self, name)
            if not np.isnan(v) and not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} outside [0, 1]: {v}")


def derive_seed(master_seed: int, *parts) -> int:
    """Order-independent trial seeding: hash of master seed and role tags."""
    text = "|".join([str(int(master_seed))] + [str(p) for p in parts])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _draw_disjoint_test(n, epsilon, per_class, seed, train_keys, rounding,
                        partner, max_tries: int = 1000) -> Dataset:
    """Fresh test split whose bitstring pairs avoid the training pool."""
    if epsilon is None:
        epsilon = default_epsilon(n)
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(per_class):
        for correlated in (True, False):
            for _attempt in range(max_tries):
                s = sample_pair(n, epsilon, correlated, rng, rounding, partner)
                if s.key() not in train_keys:
                    samples.append(s)
                    break
            else:
                raise RuntimeError("could not draw a test sample disjoint "
                                   "from the training pool")
    return Dataset(tuple(samples), n, float(epsilon), int(seed))


def _train_pool_and_test(config, n, trial, extra_tag=""):
    """Training pool, disjoint test split and, for qnn_m, both feature
    matrices (a row depends on its pair alone: prefixes share the pool's)."""
    data_seed = derive_seed(config.master_seed, config.experiment, trial,
                            extra_tag + "data")
    test_seed = derive_seed(config.master_seed, config.experiment, trial,
                            extra_tag + "test")
    pool_per_class = max(config.per_class_counts)
    train_pool = generate_dataset(n, config.epsilon, pool_per_class,
                                  data_seed, config.rounding, config.partner)
    train_keys = {s.key() for s in train_pool.samples}
    test = _draw_disjoint_test(n, config.epsilon, config.test_per_class,
                               test_seed, train_keys, config.rounding,
                               config.partner)
    features = None
    if "qnn_m" in config.models:
        pool = _operator_pool(n)
        features = (extract_feature_matrix(train_pool.samples, pool),
                    extract_feature_matrix(test.samples, pool))
    return train_pool, test, features


_POOL_CACHE = {}


def _operator_pool(n):
    if n not in _POOL_CACHE:
        _POOL_CACHE[n] = build_pool(n)
    return _POOL_CACHE[n]


def _run_qnn_m(train_samples, test_samples, config, n, features):
    pool = _operator_pool(n)
    F_pool, F_test = features
    F_train = F_pool[:len(train_samples)]
    y_train = stack_pairs(train_samples)[2]
    y_test = stack_pairs(test_samples)[2]
    model = lasso_fit(F_train, y_train, feature_names=tuple(pool.names()),
                      lam=config.lam)
    return [EpochRecord(model.sweeps_used, model.objective_history[-1],
                        accuracy(lasso_scores(model, F_train), y_train),
                        accuracy(lasso_scores(model, F_test), y_test))]


def _run_model(model_name, train_samples, test_samples, config, n, seed,
               features):
    if model_name == "qnn_m":
        return _run_qnn_m(train_samples, test_samples, config, n, features)
    # only the training fields the config sets; the trainers default the rest
    training = {name: getattr(config, name)
                for name in ("epochs", "lr", "record_every")
                if getattr(config, name) is not None}
    if model_name == "qnn_u":
        return train_qnn_u(train_samples, _operator_pool(n), seed=seed,
                           test_samples=test_samples, **training).records
    if model_name in ("dnn", "cnn"):
        spec = MlpSpec(2 ** n) if model_name == "dnn" else cnn_spec_for(n)
        return train_siamese(train_samples, spec, seed=seed,
                             test_samples=test_samples, **training).records
    raise ConfigError(f"unknown model {model_name!r}")


def _records_for_point(config, n, trial, train_samples, test_samples,
                       features, tag_prefix=""):
    rows = []
    M = len(train_samples)
    for model_name in config.models:
        seed = derive_seed(config.master_seed, config.experiment, trial,
                           f"{tag_prefix}model:{model_name}:M{M}")
        t0 = time.perf_counter()
        point_rows = _run_model(model_name, train_samples, test_samples,
                                config, n, seed, features)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        for r in point_rows:
            rows.append(RunRecord(trial, model_name, n, M, int(r.epoch),
                                  float(r.train_loss), float(r.train_acc),
                                  float(r.test_acc), seed, wall_ms))
    return rows


# ------------------------------------------------------------ oracle


def _swap_wht_expectation(s) -> float:
    n = int(np.log2(s.x1.size))
    pool = _operator_pool(max(n, 2))
    state = product_state(phase_state(s.x1), phase_state(s.x2))
    return expectation(state, pool.entry("swap_wht").expr, n)


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
        worst = 0.0
        for _ in range(ORACLE_PAIRS_PER_SIZE):
            s = sample_pair(n, config.epsilon, bool(rng.integers(0, 2)), rng,
                            config.rounding, config.partner)
            lhs = _swap_wht_expectation(s)
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
                        config.partner) for _ in range(per_class)])[0]
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

    # 4. bare threshold on F versus the measurement-based model at n=5
    n5 = 5
    cfg5 = make_config("fig3", n=n5, trials=1,
                       master_seed=derive_seed(config.master_seed, "oracle",
                                               "threshold"),
                       models=("qnn_m",), epsilon=config.epsilon,
                       lam=config.lam, rounding=config.rounding,
                       partner=config.partner)
    train_pool, test, feats = _train_pool_and_test(cfg5, n5, 0)
    train = train_pool.samples
    qnn_acc = _run_qnn_m(train, test.samples, cfg5, n5, feats)[0].test_acc
    thr_acc = _threshold_classifier_accuracy(train, test.samples)
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


def _forrelations(samples):
    """(F per pair, labels) of a sequence of sample pairs."""
    X1, X2, y = stack_pairs(samples)
    return np.array([forrelation(x1, x2) for x1, x2 in zip(X1, X2)]), y


def _threshold_classifier_accuracy(train_samples, test_samples) -> float:
    """Best single threshold on F fit on the training split."""
    f_train, y_train = _forrelations(train_samples)
    candidates = np.concatenate([[0.0], np.sort(f_train), [1.0]])
    best_thr, best_acc = 0.5, -1.0
    for i in range(candidates.size - 1):
        thr = 0.5 * (candidates[i] + candidates[i + 1])
        acc = float(np.mean((f_train < thr).astype(int) == y_train))
        if acc > best_acc:
            best_acc, best_thr = acc, thr
    f_test, y_test = _forrelations(test_samples)
    return float(np.mean((f_test < best_thr).astype(int) == y_test))


def run_experiment(config: ExperimentConfig):
    """Figure experiments return records, oracle returns a report.

    A figure runs one trial per (n, trial), each on one training pool and
    test split, and trains every model on the class-balanced prefix of each
    per-class count. fig5 tags its data and model seeds with the register
    size, fig4 its model seeds with M; fig3 tags neither.
    """
    if config.experiment == "oracle":
        return run_oracle_check(config)
    if config.experiment not in ("fig3", "fig4", "fig5"):
        raise ConfigError(f"unknown experiment {config.experiment!r}")
    fig5 = config.experiment == "fig5"
    records = []
    for n in config.sweep_n if fig5 else (config.n,):
        n_tag = f"n{n}:" if fig5 else ""
        for trial in range(config.trials):
            train_pool, test, feats = _train_pool_and_test(config, n, trial,
                                                           n_tag)
            for m_per in config.per_class_counts:
                model_tag = (f"M{2 * m_per}:" if config.experiment == "fig4"
                             else n_tag)
                train = train_pool.samples[:2 * m_per]  # interleaved: balanced
                records.extend(_records_for_point(config, n, trial, train,
                                                  test.samples, feats,
                                                  model_tag))
    return records


# --------------------------------------------------------------- CSV


def _fmt(value) -> str:
    if isinstance(value, float):
        if np.isnan(value):
            return "nan"
        return f"{value:.6g}"
    return str(value)


def emit_csv(records, path) -> None:
    """Deterministic row order: (trial, model, n, M, epoch)."""
    if not records:
        raise ValueError("no records to write")
    ordered = sorted(records, key=lambda r: (r.trial, r.model, r.n, r.M,
                                             r.epoch))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in ordered:
            writer.writerow([_fmt(getattr(r, name)) for name in CSV_HEADER])


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != list(CSV_HEADER):
            raise ValueError(f"unexpected CSV header {reader.fieldnames}")
        rows = []
        for raw in reader:
            rows.append(RunRecord(
                int(raw["trial"]), raw["model"], int(raw["n"]), int(raw["M"]),
                int(raw["epoch"]), float(raw["train_loss"]),
                float(raw["train_acc"]), float(raw["test_acc"]),
                int(raw["seed"]), float(raw["wall_ms"])))
    return rows


def final_records(records):
    """Last recorded epoch per (trial, model, n, M)."""
    finals = {}
    for r in records:
        key = (r.trial, r.model, r.n, r.M)
        if key not in finals or r.epoch > finals[key].epoch:
            finals[key] = r
    return list(finals.values())


def summarize(records):
    """Mean +- std of final train/test accuracy per (model, n, M)."""
    groups = {}
    for r in final_records(records):
        groups.setdefault((r.model, r.n, r.M), []).append(r)
    table = []
    for (model, n, M) in sorted(groups):
        rows = groups[(model, n, M)]
        train = np.array([r.train_acc for r in rows])
        test = np.array([r.test_acc for r in rows])
        table.append({
            "model": model, "n": n, "M": M, "trials": len(rows),
            "train_mean": float(train.mean()),
            "train_std": float(train.std(ddof=1)) if train.size > 1 else 0.0,
            "test_mean": float(test.mean()),
            "test_std": float(test.std(ddof=1)) if test.size > 1 else 0.0,
        })
    return table


def format_summary(table) -> str:
    lines = [f"{'model':8s} {'n':>3s} {'M':>4s} {'trials':>6s} "
             f"{'train acc':>16s} {'test acc':>16s}"]
    for row in table:
        lines.append(
            f"{row['model']:8s} {row['n']:3d} {row['M']:4d} "
            f"{row['trials']:6d} "
            f"{row['train_mean']:8.4f} +- {row['train_std']:5.4f} "
            f"{row['test_mean']:8.4f} +- {row['test_std']:5.4f}")
    return "\n".join(lines)


def validate_pool_report(n: int) -> dict:
    """Pool build + dense invariance checks at n (2 or 3), as a report."""
    conditions = check_invariance_conditions(n_check=n)
    pool = _operator_pool(n)
    return {
        "n": n,
        "entries": pool.names(),
        "invariance_conditions": conditions,
        "pass": bool(conditions["pass"]),
    }
