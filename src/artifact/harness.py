"""Seeded figure runs, one (n, trial) block at a time on arrays drawn once
per block (dataset.Dataset; prefixes are row slices), and CSV I/O and
summaries. Configs live in config, the oracle report in oracle.

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

Seeding: every random draw is derived from the master seed by hashing
(master, experiment, trial, role), so per-trial records are independent of
execution order. Re-running a configuration with the same BLAS build and
thread count reproduces every column of the CSV except wall_ms; another
thread count may move the cnn train_loss in its last bits. Train/test
splits are disjoint by construction: test pairs that collide with a
training-pool bitstring pair are resampled.

CSV schema: trial,model,n,M,epoch,train_loss,train_acc,test_acc,seed,wall_ms
(one row per recorded epoch; for qnn_m, a single row whose epoch column
holds the number of coordinate-descent sweeps used). M counts training
pairs over both classes.
"""

from __future__ import annotations

import csv
import hashlib
import time
from dataclasses import dataclass

import numpy as np

from .classical import MlpSpec, cnn_spec_for, train_siamese
from .config import ConfigError, ExperimentConfig
from .dataset import Dataset, default_epsilon, generate_dataset, sample_pair
from .optim import EpochRecord, accuracy
from .qnn_meas import extract_feature_matrix, lasso_fit, lasso_scores
from .qnn_var import train_qnn_u
from .symmetry import build_pool

CSV_HEADER = ("trial", "model", "n", "M", "epoch", "train_loss",
              "train_acc", "test_acc", "seed", "wall_ms")


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
                        partner) -> Dataset:
    """Fresh test split whose bitstring pairs avoid the training pool.

    Raises ConfigError when 1000 draws in a row for one test pair all land
    in the training pool: at small n the pool can cover nearly every pair
    of a class."""
    if epsilon is None:
        epsilon = default_epsilon(n)
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(per_class):
        for correlated in (True, False):
            for _attempt in range(1000):
                s = sample_pair(n, epsilon, correlated, rng, rounding, partner)
                if s.key() not in train_keys:
                    samples.append(s)
                    break
            else:
                raise ConfigError(
                    f"cannot draw a test split (test_per_class={per_class}) "
                    f"at n={n} disjoint from a training pool of "
                    f"{len(train_keys)} distinct pairs; lower test_per_class "
                    "or per_class_counts")
    return Dataset.from_pairs(samples, n, epsilon, seed)


def _block_seed(config: ExperimentConfig, n: int, trial: int, role: str):
    """A block's seed for one role. fig5 tags data and model seeds with n
    here, fit_block tags fig4's model roles with M, and fig3 tags neither."""
    tag = f"n{n}:" if config.experiment == "fig5" else ""
    return derive_seed(config.master_seed, config.experiment, trial,
                       tag + role)


def block_data(config: ExperimentConfig, n: int, trial: int):
    """The block's training pool (drawn first) and its disjoint test split."""
    train_pool = generate_dataset(n, config.epsilon,
                                  max(config.per_class_counts),
                                  _block_seed(config, n, trial, "data"),
                                  config.rounding, config.partner)
    test = _draw_disjoint_test(n, config.epsilon, config.test_per_class,
                               _block_seed(config, n, trial, "test"),
                               {s.key() for s in train_pool},
                               config.rounding, config.partner)
    return train_pool, test


def run_block(config: ExperimentConfig, n: int, trial: int) -> list:
    """One (n, trial) block's records, on the block's own data."""
    return fit_block(config, n, trial, *block_data(config, n, trial))


def fit_block(config: ExperimentConfig, n: int, trial: int,
              train_pool: Dataset, test: Dataset) -> list:
    """run_block on drawn data: every model trained on the class-balanced
    prefix of the training pool for each per-class count and tested on the
    test split. A qnn_m feature row depends on its pair alone, so the pool's
    and the test split's feature matrices are built once and each prefix
    takes their leading rows."""
    if {"qnn_m", "qnn_u"} & set(config.models):
        pool = build_pool(n)
    if "qnn_m" in config.models:
        F_pool = extract_feature_matrix(train_pool, pool)
        F_test = extract_feature_matrix(test, pool)
    # only the training fields the config sets; the trainers default the rest
    training = {name: getattr(config, name)
                for name in ("epochs", "lr", "record_every")
                if getattr(config, name) is not None}
    records = []
    for m_per in config.per_class_counts:
        M = 2 * m_per
        train = train_pool[:M]  # interleaved: balanced
        m_tag = f"M{M}:" if config.experiment == "fig4" else ""
        for model_name in config.models:
            seed = _block_seed(config, n, trial,
                               f"{m_tag}model:{model_name}:M{M}")
            t0 = time.perf_counter()
            if model_name == "qnn_m":
                F, y = F_pool[:M], train.y
                lasso = lasso_fit(F, y, feature_names=tuple(pool.names()),
                                  lam=config.lam)
                rows = [EpochRecord(
                    lasso.sweeps_used, lasso.objective_history[-1],
                    accuracy(lasso_scores(lasso, F), y),
                    accuracy(lasso_scores(lasso, F_test), test.y))]
            elif model_name == "qnn_u":
                rows = train_qnn_u(train, pool, seed=seed, test_samples=test,
                                   **training).records
            else:
                spec = (MlpSpec(2 ** n) if model_name == "dnn"
                        else cnn_spec_for(n))
                rows = train_siamese(train, spec, seed=seed, test_samples=test,
                                     **training).records
            wall_ms = (time.perf_counter() - t0) * 1000.0
            records.extend(
                RunRecord(trial, model_name, n, M, int(r.epoch),
                          float(r.train_loss), float(r.train_acc),
                          float(r.test_acc), seed, wall_ms) for r in rows)
    return records


def run_experiment(config: ExperimentConfig) -> list:
    """A figure's records: its (n, trial) blocks in order, concatenated."""
    if config.experiment not in ("fig3", "fig4", "fig5"):
        raise ConfigError(f"run_experiment runs fig3, fig4 and fig5, not "
                          f"{config.experiment!r}; the oracle report comes "
                          "from oracle.run_oracle_check")
    sizes = config.sweep_n if config.experiment == "fig5" else (config.n,)
    return [record for n in sizes for trial in range(config.trials)
            for record in run_block(config, n, trial)]


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
