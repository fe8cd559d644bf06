"""Experiment configs: defaults, field types and validation, all checked
when a config is made, so a bad field fails before any draw."""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import dataclass

from .classical import DEFAULT_WIDTHS
from .dataset import (
    DEFAULT_PARTNER,
    DEFAULT_ROUNDING,
    PARTNER_MODES,
    ROUNDING_MODES,
)
from .qnn_meas import DEFAULT_LAMBDA

EXPERIMENTS = ("fig3", "fig4", "fig5", "oracle")
KNOWN_MODELS = ("qnn_m", "qnn_u", "dnn", "cnn")
# The largest single array a run may ask for, in bytes. A run's peak memory
# is a small multiple of its largest array, so a config past this cap fails
# when it is made (exit 1) instead of on an allocation mid-run (exit 2).
MAX_ARRAY_BYTES = 2 ** 30


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to CLI exit code 1)."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    n: int = None
    per_class_counts: tuple = None
    test_per_class: int = None
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
    "fig3": dict(n=4, per_class_counts=(10,), trials=10, test_per_class=40,
                 models=("qnn_m", "qnn_u"), record_every=10),
    "fig4": dict(n=10, per_class_counts=tuple(range(1, 11)), trials=50,
                 test_per_class=40, models=("qnn_m", "dnn", "cnn"),
                 record_every=5),
    "fig5": dict(n=None, per_class_counts=(5,), trials=50, test_per_class=40,
                 models=("qnn_m", "dnn"), record_every=5,
                 sweep_n=(4, 5, 6, 7)),
    "oracle": dict(n=10),
}
# the fields only the figures read; the oracle report must leave them unset
_FIGURE_FIELDS = ("sweep_n", "trials", "models", "per_class_counts",
                  "test_per_class", "epochs", "lr", "record_every")


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


def check_array_bytes(n: int, model: str, rows: int) -> None:
    """Raise ConfigError when the largest array that `model` allocates at
    register size n, on splits of at most `rows` pairs, passes
    MAX_ARRAY_BYTES. Counted: the float barcode rows every model builds
    (rows x 2**n float64), dnn's first-layer weights (2**n x 128 float64)
    and pruned_blocks' (4**n, 2) complex128 test block, the one 4**n array
    of a fully pruned qnn_u, which is every figure's qnn_u."""
    N = 2 ** n
    need = rows * N * 8
    if model == "dnn":
        need = max(need, N * DEFAULT_WIDTHS[0] * 8)
    elif model == "qnn_u":
        need = max(need, 32 * N * N)
    if need > MAX_ARRAY_BYTES:
        raise ConfigError(f"n={n} is too large for {model}: its largest "
                          f"array would take {need:,} bytes, over the "
                          f"{MAX_ARRAY_BYTES:,}-byte cap (MAX_ARRAY_BYTES)")


def _validate_config(c: ExperimentConfig) -> None:
    # a field the experiment would ignore is an error, not a no-op
    if c.experiment == "oracle":
        given = [f for f in _FIGURE_FIELDS if getattr(c, f) is not None]
        if given:
            raise ConfigError(f"the oracle report does not read "
                              f"{', '.join(given)}")
    else:
        _validate_figure(c)
    if c.experiment == "fig5":
        if not c.sweep_n or any(n < 2 for n in c.sweep_n):
            raise ConfigError("fig5 sweep_n must contain sizes >= 2")
        if c.n is not None:
            raise ConfigError("fig5 sweeps sweep_n; n must not be set")
    else:
        if c.n is None or c.n < 2:
            raise ConfigError("n must be >= 2")
        if c.sweep_n is not None:
            raise ConfigError(f"{c.experiment} runs at one n; sweep_n is "
                              "for fig5 only")
    if c.epsilon is not None and c.epsilon <= 0:
        raise ConfigError("epsilon must be positive")
    if c.lam < 0:
        raise ConfigError("lambda must be nonnegative")
    for name, modes in (("rounding", ROUNDING_MODES),
                        ("partner", PARTNER_MODES)):
        if getattr(c, name) not in modes:
            raise ConfigError(f"unknown {name} mode {getattr(c, name)!r}; "
                              f"expected one of {', '.join(modes)}")
    if c.experiment == "oracle":  # it draws and checks one pair at a time
        check_array_bytes(c.n, "the oracle report", 1)
        return
    rows = 2 * max(max(c.per_class_counts), c.test_per_class)
    for n in (c.sweep_n if c.experiment == "fig5" else (c.n,)):
        for model in c.models:
            check_array_bytes(n, model, rows)


def _validate_figure(c: ExperimentConfig) -> None:
    if c.trials is None or c.trials < 1:
        raise ConfigError("trials must be >= 1")
    if not c.per_class_counts or any(m < 1 for m in c.per_class_counts):
        raise ConfigError("per-class training counts must be positive")
    if c.test_per_class is None or c.test_per_class < 1:
        raise ConfigError("test_per_class must be >= 1")
    if not c.models:
        raise ConfigError("at least one model is required")
    for m in c.models:
        if m not in KNOWN_MODELS:
            raise ConfigError(f"unknown model {m!r}; expected one of "
                              f"{', '.join(KNOWN_MODELS)}")
    if c.experiment in ("fig3", "fig5") and len(c.per_class_counts) > 1:
        raise ConfigError(f"{c.experiment} takes one per-class training "
                          f"count, got {list(c.per_class_counts)}")
    if (c.experiment == "fig4"
            and len(set(c.per_class_counts)) < len(c.per_class_counts)):
        raise ConfigError("fig4 per-class training counts must not repeat")
    sizes = c.sweep_n if c.experiment == "fig5" else (c.n,)
    if "cnn" in c.models and any(n not in (8, 10) for n in sizes):
        raise ConfigError("cnn requires n in {8, 10}")
    if c.record_every is not None and c.record_every < 1:
        raise ConfigError("record_every must be >= 1")
    if c.epochs is not None and c.epochs < 1:
        raise ConfigError("epochs must be >= 1")
    if c.lr is not None and c.lr < 0:
        raise ConfigError("lr must be nonnegative")
