"""Labeled barcode-pair generation: correlated vs uncorrelated classes.

Correlated pairs (label 0) tie the second barcode to the first through the
orthonormal Walsh-Hadamard transform; uncorrelated pairs (label 1) are two
independent draws. Pixels come from truncated Gaussian vectors rounded to
bits. Two knobs control the construction:

rounding:
  "sign"        bit = 1 iff the value is negative; exact zeros are broken by
                a fair coin so pixel marginals stay unbiased. Scale-invariant
                in the Gaussian variance. Default.
  "randomized"  bit = 1 with probability (1 - t)/2 for truncated value t, so
                the encoded phase (-1)**bit has expectation t.

partner (correlated class only):
  "encoded"     x1 is rounded first; the partner vector is the transform of
                the sign vector s1 = (-1)**x1 that the first barcode actually
                encodes: z2 = WHT(s1). Concentrates the realized pair overlap
                near E|N(0,1)|. Default.
  "gaussian"    z2 = WHT(z1) applied to the raw Gaussian draw, both vectors
                rounded independently afterwards.

All sampling is reproducible from (seed, n, epsilon, count) plus the mode
knobs; the generator is numpy's PCG64 (``numpy.random.default_rng``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .statevec import as_bits, bits_to_string, fwht

ROUNDING_MODES = ("sign", "randomized")
PARTNER_MODES = ("encoded", "gaussian")
DEFAULT_ROUNDING = "sign"
DEFAULT_PARTNER = "encoded"


def default_epsilon(n: int) -> float:
    """Gaussian variance scale 1/(4 ln N); irrelevant under sign rounding."""
    return 1.0 / (4.0 * np.log(2.0 ** n))


@dataclass(frozen=True)
class SamplePair:
    x1: np.ndarray  # uint8 bits, length N
    x2: np.ndarray
    label: int  # 0 = correlated, 1 = uncorrelated

    def __post_init__(self):
        if self.x1.shape != self.x2.shape:
            raise ValueError("pair members have different lengths")
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")

    def key(self) -> bytes:
        """The bytes of both uint8 barcodes, x1 first: equal exactly when
        both barcodes are, used for train/test disjointness checks."""
        return self.x1.tobytes() + self.x2.tobytes()


@dataclass(frozen=True)
class Dataset:
    samples: tuple  # of SamplePair
    n: int
    epsilon: float
    seed: int

    def __post_init__(self):
        N = 2 ** self.n
        for s in self.samples:
            if s.x1.size != N:
                raise ValueError("sample length inconsistent with n")


def stack_pairs(samples):
    """(X1, X2, y): the pairs' barcodes as (S, N) uint8 rows and their
    labels as floats, the one route from sample pairs to arrays."""
    samples = tuple(samples)
    X1 = np.array([s.x1 for s in samples], dtype=np.uint8)
    X2 = np.array([s.x2 for s in samples], dtype=np.uint8)
    y = np.array([s.label for s in samples], dtype=float)
    return X1, X2, y


def truncate(z):
    """Clamp to [-1, 1]; rejects non-finite input."""
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("truncate requires finite input")
    return np.clip(z, -1.0, 1.0)


def round_to_bit(t, rng) -> np.ndarray:
    """Randomized rounding: P(bit=1) = (1-t)/2, so E[(-1)**bit] = t."""
    t = np.asarray(t, dtype=float)
    if np.any(t < -1.0) or np.any(t > 1.0):
        raise ValueError("round_to_bit requires values in [-1, 1]")
    u = rng.random(t.shape)
    return (u < (1.0 - t) / 2.0).astype(np.uint8)


def sign_round(z, rng) -> np.ndarray:
    """Deterministic sign rounding; exact zeros broken by a fair coin."""
    z = np.asarray(z, dtype=float)
    bits = (z < 0).astype(np.uint8)
    zero = z == 0.0
    if np.any(zero):
        bits[zero] = rng.integers(0, 2, int(zero.sum()), dtype=np.uint8)
    return bits


def _round_vector(z, rng, rounding: str) -> np.ndarray:
    if rounding == "sign":
        return sign_round(truncate(z), rng)
    return round_to_bit(truncate(z), rng)


def sample_pair(n: int, epsilon: float, correlated: bool, rng,
                rounding: str = DEFAULT_ROUNDING,
                partner: str = DEFAULT_PARTNER) -> SamplePair:
    """Draw one labeled pair.

    Uncorrelated: two independent N(0, epsilon I) vectors, truncated and
    rounded. Correlated: the second vector is the orthonormal WHT of either
    the encoded sign vector of x1 ("encoded") or the raw Gaussian draw
    ("gaussian"); in both modes the transform is applied, never re-sampled.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if rounding not in ROUNDING_MODES:
        raise ValueError(f"unknown rounding mode {rounding!r}")
    if partner not in PARTNER_MODES:
        raise ValueError(f"unknown partner mode {partner!r}")
    if epsilon is None:
        epsilon = default_epsilon(n)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    N = 2 ** n
    scale = np.sqrt(epsilon)
    z1 = rng.normal(0.0, scale, N)
    if not correlated:
        z2 = rng.normal(0.0, scale, N)
        x1 = _round_vector(z1, rng, rounding)
        x2 = _round_vector(z2, rng, rounding)
        return SamplePair(x1, x2, 1)
    if partner == "gaussian":
        z2 = fwht(z1)
        x1 = _round_vector(z1, rng, rounding)
        x2 = _round_vector(z2, rng, rounding)
    else:
        x1 = _round_vector(z1, rng, rounding)
        s1 = 1.0 - 2.0 * x1.astype(float)
        z2 = fwht(s1)
        x2 = _round_vector(z2, rng, rounding)
    return SamplePair(x1, x2, 0)


def generate_dataset(n: int, epsilon: float, count_per_class: int, seed: int,
                     rounding: str = DEFAULT_ROUNDING,
                     partner: str = DEFAULT_PARTNER) -> Dataset:
    """count_per_class of each label, interleaved correlated, uncorrelated,
    correlated, ... so every prefix is class-balanced."""
    if count_per_class < 1:
        raise ValueError("count_per_class must be >= 1")
    if epsilon is None:
        epsilon = default_epsilon(n)
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(count_per_class):
        samples.append(sample_pair(n, epsilon, True, rng, rounding, partner))
        samples.append(sample_pair(n, epsilon, False, rng, rounding, partner))
    return Dataset(tuple(samples), n, float(epsilon), int(seed))


class DatasetFormatError(ValueError):
    """Malformed dataset file; message names the offending location/field."""


def save_dataset(ds: Dataset, path) -> None:
    obj = {
        "n": ds.n,
        "epsilon": ds.epsilon,
        "seed": ds.seed,
        "samples": [
            {"x1": bits_to_string(s.x1), "x2": bits_to_string(s.x2), "y": s.label}
            for s in ds.samples
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
        fh.write("\n")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def load_dataset(path) -> Dataset:
    """Read a save_dataset file; every malformed field raises
    DatasetFormatError with the file name in the message."""
    def bad(message):
        return DatasetFormatError(f"{path}: {message}")

    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise bad(f"invalid JSON at line {exc.lineno}, column "
                      f"{exc.colno}") from exc
    if not isinstance(obj, dict):
        raise bad("top level must be a JSON object")
    for field_name in ("n", "epsilon", "seed", "samples"):
        if field_name not in obj:
            raise bad(f"missing field {field_name!r}")
    n, epsilon, seed = obj["n"], obj["epsilon"], obj["seed"]
    if not _is_int(n) or n < 1:
        raise bad("field 'n' must be a positive integer")
    if (not isinstance(epsilon, (int, float)) or isinstance(epsilon, bool)
            or not math.isfinite(epsilon) or epsilon <= 0):
        raise bad("field 'epsilon' must be a positive finite number")
    if not _is_int(seed):
        raise bad("field 'seed' must be an integer")
    if not isinstance(obj["samples"], list):
        raise bad("field 'samples' must be a list")
    N = 2 ** n
    samples = []
    for i, rec in enumerate(obj["samples"]):
        if not isinstance(rec, dict):
            raise bad(f"sample {i} must be a JSON object")
        for field_name in ("x1", "x2", "y"):
            if field_name not in rec:
                raise bad(f"sample {i} missing field {field_name!r}")
        if not (isinstance(rec["x1"], str) and isinstance(rec["x2"], str)):
            raise bad(f"sample {i}: barcodes must be bitstrings")
        try:
            x1 = as_bits(rec["x1"])
            x2 = as_bits(rec["x2"])
        except ValueError as exc:
            raise bad(f"sample {i}: {exc}") from exc
        if x1.size != N or x2.size != N:
            raise bad(f"sample {i}: barcode length != 2**n = {N}")
        if not _is_int(rec["y"]) or rec["y"] not in (0, 1):
            raise bad(f"sample {i}: label must be the integer 0 or 1")
        samples.append(SamplePair(x1, x2, rec["y"]))
    return Dataset(tuple(samples), n, float(epsilon), seed)
