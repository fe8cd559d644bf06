"""Output checks for the workbench records a benchmark run produced.

``check_structure`` holds for every seed: the set of (trial, model, n, M)
points, one seed per point equal to ``derive_seed``, the epoch schedule of
each model, accuracies that are whole counts of samples in [0, 1], and
finite losses. ``compare_golden`` compares against reference records stored
at full precision for a seed, with tolerances wide enough for numerically
equivalent rewrites (another summation order, exact gradients in place of
finite differences) and narrow enough that a wrong gradient or a leaked
train/test split fails.

A row is ``[trial, model, n, M, epoch, train_loss, train_acc, test_acc,
seed, wall_ms]``. Failures are counted per trial, that is per (trial, n).
"""

from __future__ import annotations

import math
from collections import defaultdict

# Reference comparison. Losses: |a - b| <= LOSS_ATOL + LOSS_RTOL * |b|;
# one ulp of reordering in every matmul moves them by at most 1e-13
# relative, a dropped gradient term by 1e-2. Accuracies may differ by
# ACC_FLIPS samples on a row, and each model's mean final test accuracy by
# MEAN_ACC_ATOL. qnn_m sweep counts may differ by LASSO_SWEEPS_ATOL, since
# the stopping test compares an update with a tolerance.
LOSS_RTOL = 1e-6
LOSS_ATOL = 1e-9
ACC_FLIPS = 1
MEAN_ACC_ATOL = 0.01
LASSO_SWEEPS_ATOL = 2


def expected_points(config):
    """(trial, n, M, seed tag) of every point the experiment produces."""
    top = 2 * max(config.per_class_counts)
    if config.experiment == "fig3":
        return [(t, config.n, top, "") for t in range(config.trials)]
    if config.experiment == "fig4":
        return [(t, config.n, 2 * m, f"M{2 * m}:")
                for t in range(config.trials)
                for m in config.per_class_counts]
    if config.experiment == "fig5":
        return [(t, n, top, f"n{n}:") for n in config.sweep_n
                for t in range(config.trials)]
    raise ValueError(f"no checks for experiment {config.experiment!r}")


def group(rows):
    groups = defaultdict(list)
    for row in rows:
        groups[(row[0], row[1], row[2], row[3])].append(row)
    for key in groups:
        groups[key].sort(key=lambda r: r[4])
    return groups


def _schedule(last, record_every):
    return [0] + [e for e in range(1, last + 1)
                  if e % record_every == 0 or e == last]


def _whole(value, count):
    return abs(value * count - round(value * count)) < 1e-9


def _group_errors(rows, model, M, seed, config, limits):
    errors = []
    test_count = 2 * config.test_per_class
    for r in rows:
        _, _, _, _, epoch, loss, tr_acc, te_acc, r_seed, wall = r
        if r_seed != seed:
            errors.append(f"seed {r_seed} != derive_seed {seed}")
        if not (math.isfinite(loss) and loss >= 0.0):
            errors.append(f"epoch {epoch}: loss {loss} not finite and >= 0")
        for name, acc, count in (("train_acc", tr_acc, M),
                                 ("test_acc", te_acc, test_count)):
            if not (0.0 <= acc <= 1.0 and _whole(acc, count)):
                errors.append(f"epoch {epoch}: {name} {acc} is not a count "
                              f"of {count} samples in [0, 1]")
        if not (math.isfinite(wall) and wall >= 0.0):
            errors.append(f"wall_ms {wall} not finite and >= 0")
    epochs = [r[4] for r in rows]
    every = config.record_every or 1
    if model == "qnn_m":
        if len(rows) != 1 or not 1 <= epochs[0] <= limits["lasso_sweeps"]:
            errors.append(f"qnn_m rows/sweeps {epochs}")
    elif model == "qnn_u":
        if epochs != _schedule(config.epochs or limits["qnn_u_epochs"],
                               every):
            errors.append(f"qnn_u epoch schedule {epochs}")
    else:
        cap = config.epochs or limits["siamese_epochs"]
        last = epochs[-1]
        if not 0 < last <= cap or epochs != _schedule(last, every):
            errors.append(f"{model} epoch schedule {epochs}")
        stops = [r[4] for r in rows
                 if r[6] == 1.0 and r[4] >= limits["min_stop_epoch"]]
        if last < cap and stops != [last]:
            errors.append(f"{model} stopped at {last} without perfect "
                          "training accuracy there and only there")
    return errors


def check_structure(rows, config):
    """{(trial, n): [error, ...]} for every trial with an error."""
    from artifact import classical, derive_seed, qnn_var

    limits = {"qnn_u_epochs": qnn_var.DEFAULT_EPOCHS,
              "siamese_epochs": classical.DEFAULT_EPOCHS,
              "min_stop_epoch": classical.MIN_EPOCHS_BEFORE_STOP,
              "lasso_sweeps": 1000}
    groups = group(rows)
    failures = defaultdict(list)
    expected = set()
    for trial, n, M, tag in expected_points(config):
        for model in config.models:
            key = (trial, model, n, M)
            expected.add(key)
            if key not in groups:
                failures[(trial, n)].append(f"missing {key}")
                continue
            seed = derive_seed(config.master_seed, config.experiment, trial,
                               f"{tag}model:{model}:M{M}")
            errors = _group_errors(groups[key], model, M, seed, config,
                                   limits)
            failures[(trial, n)].extend(f"{key}: {e}" for e in errors)
    for key in set(groups) - expected:
        failures[(key[0], key[2])].append(f"unexpected point {key}")
    return {k: v for k, v in failures.items() if v}


def _close(a, b, atol, rtol=0.0):
    return abs(a - b) <= atol + rtol * abs(b)


def compare_golden(rows, golden, test_count):
    """{(trial, n): [difference, ...]} against reference rows;
    ``test_count`` is the number of test pairs per point."""
    mine, ref = group(rows), group(golden)
    failures = defaultdict(list)
    for key, ref_rows in ref.items():
        point = (key[0], key[2])
        got = mine.get(key)
        if got is None:
            failures[point].append(f"missing {key}")
            continue
        if key[1] == "qnn_m":
            if not _close(got[0][4], ref_rows[0][4], LASSO_SWEEPS_ATOL):
                failures[point].append(f"{key}: sweeps {got[0][4]} vs "
                                       f"{ref_rows[0][4]}")
        elif [r[4] for r in got] != [r[4] for r in ref_rows]:
            failures[point].append(f"{key}: epochs differ")
            continue
        for g, r in zip(got, ref_rows):
            if not _close(g[5], r[5], LOSS_ATOL, LOSS_RTOL):
                failures[point].append(f"{key} epoch {r[4]}: loss {g[5]!r} "
                                       f"vs {r[5]!r}")
            for i, name, count in ((6, "train_acc", key[3]),
                                   (7, "test_acc", test_count)):
                if not _close(g[i], r[i], (ACC_FLIPS + 0.5) / count):
                    failures[point].append(f"{key} epoch {r[4]}: {name} "
                                           f"{g[i]!r} vs {r[i]!r}")
    got = final_test_acc(rows)
    for model, want in final_test_acc(golden).items():
        if not _close(got.get(model, -1.0), want, MEAN_ACC_ATOL):
            failures[("all", "")].append(
                f"mean final test_acc of {model}: {got.get(model)} vs {want}")
    return {k: v for k, v in failures.items() if v}


def final_test_acc(rows):
    """Mean final test accuracy per model over all its points."""
    by_model = defaultdict(list)
    for (_, model, _, _), g in group(rows).items():
        by_model[model].append(g[-1][7])
    return {m: sum(v) / len(v) for m, v in by_model.items()}


def differing_points(rows, other):
    """(trial, n) points whose records differ, ignoring wall_ms."""
    mine, theirs = group(rows), group(other)
    return sorted({(key[0], key[2]) for key in set(mine) | set(theirs)
                   if [r[:-1] for r in mine.get(key, [])]
                   != [r[:-1] for r in theirs.get(key, [])]})
