"""Dataset generation: rounding laws, partner construction, persistence."""

import json

import numpy as np
import pytest

from artifact.dataset import (
    Dataset,
    DatasetFormatError,
    SamplePair,
    default_epsilon,
    generate_dataset,
    load_dataset,
    round_to_bit,
    sample_pair,
    save_dataset,
    sign_round,
    stack_pairs,
    truncate,
)
from artifact.statevec import forrelation, fwht


# --- truncate ---------------------------------------------------------------


def test_truncate_inside_interval():
    assert truncate(0.5) == 0.5


def test_truncate_clamps():
    assert truncate(3.2) == 1.0
    assert truncate(-2.0) == -1.0


def test_truncate_rejects_non_finite():
    with pytest.raises(ValueError):
        truncate(np.inf)
    with pytest.raises(ValueError):
        truncate([0.0, np.nan])


# --- rounding ---------------------------------------------------------------


def test_round_to_bit_deterministic_endpoints():
    rng = np.random.default_rng(0)
    assert np.all(round_to_bit(np.ones(100), rng) == 0)
    assert np.all(round_to_bit(-np.ones(100), rng) == 1)


def test_round_to_bit_zero_is_fair():
    rng = np.random.default_rng(1)
    bits = round_to_bit(np.zeros(100_000), rng)
    assert abs(bits.mean() - 0.5) < 0.01


def test_round_to_bit_phase_expectation():
    rng = np.random.default_rng(2)
    t = 0.6
    bits = round_to_bit(np.full(200_000, t), rng)
    phases = 1.0 - 2.0 * bits.astype(float)
    assert abs(phases.mean() - t) < 0.01


def test_round_to_bit_rejects_out_of_range():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        round_to_bit(1.5, rng)


def test_sign_round_breaks_zeros_fairly():
    rng = np.random.default_rng(4)
    bits = sign_round(np.zeros(100_000), rng)
    assert abs(bits.mean() - 0.5) < 0.01
    assert np.all(sign_round(np.array([0.3, -0.2, 1.0, -1.0]), rng)
                  == np.array([0, 1, 0, 1]))


# --- sample_pair ------------------------------------------------------------


def test_sample_pair_deterministic_under_seed():
    a = sample_pair(3, 1.0, True, np.random.default_rng(42))
    b = sample_pair(3, 1.0, True, np.random.default_rng(42))
    assert np.array_equal(a.x1, b.x1) and np.array_equal(a.x2, b.x2)
    assert a.label == b.label == 0


def test_sample_pair_labels():
    rng = np.random.default_rng(5)
    assert sample_pair(2, 1.0, True, rng).label == 0
    assert sample_pair(2, 1.0, False, rng).label == 1


def test_key_is_equal_exactly_when_both_barcodes_are():
    """Over all pairs of 2-qubit barcodes (16 x 16): keys collide exactly
    when both barcodes are bit-equal, and (x1, x2) differs from (x2, x1)."""
    codes = [np.array(bits, dtype=np.uint8)
             for bits in np.ndindex(2, 2, 2, 2)]
    pairs = [SamplePair(a, b, 0) for a in codes for b in codes]
    keys = [s.key() for s in pairs]
    assert len(set(keys)) == len(pairs)
    for s, k in zip(pairs, keys):
        assert SamplePair(s.x1.copy(), s.x2.copy(), 1).key() == k
        assert (SamplePair(s.x2, s.x1, 0).key() == k) == bool(
            np.array_equal(s.x1, s.x2))
    # a 3-qubit pair never shares a key with a 2-qubit one
    wide = SamplePair(np.zeros(8, np.uint8), np.zeros(8, np.uint8), 0)
    assert wide.key() not in set(keys)


def test_stack_pairs_rows_and_labels():
    ds = generate_dataset(n=3, epsilon=None, count_per_class=3, seed=4)
    X1, X2, y = stack_pairs(ds.samples)
    assert X1.shape == X2.shape == (6, 8)
    assert X1.dtype == X2.dtype == np.uint8
    assert y.dtype == float
    for i, s in enumerate(ds.samples):
        assert np.array_equal(X1[i], s.x1) and np.array_equal(X2[i], s.x2)
        assert y[i] == s.label
    assert list(y) == [0.0, 1.0] * 3


def test_sample_pair_validates_parameters():
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError):
        sample_pair(0, 1.0, True, rng)
    with pytest.raises(ValueError):
        sample_pair(2, -1.0, True, rng)


@pytest.mark.parametrize("correlated", [True, False])
@pytest.mark.parametrize("mode", [{"rounding": "floor"},
                                  {"partner": "nearest"}])
def test_sample_pair_rejects_unknown_mode_before_any_draw(correlated, mode):
    rng = np.random.default_rng(6)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="unknown"):
        sample_pair(2, 1.0, correlated, rng, **mode)
    assert rng.bit_generator.state == before


def test_correlated_partner_is_transform_not_resampled():
    """The partner vector is the exact WHT of its source, in both modes."""
    rng = np.random.default_rng(7)
    n, N = 4, 16
    # encoded mode: reconstruct z2 from x1 and check x2 is its sign rounding
    # (non-zero entries leave no coin freedom)
    for _ in range(20):
        pair = sample_pair(n, 1.0, True, rng, rounding="sign", partner="encoded")
        s1 = 1.0 - 2.0 * pair.x1.astype(float)
        z2 = fwht(s1)
        nz = z2 != 0
        assert np.all(pair.x2[nz] == (z2[nz] < 0).astype(np.uint8))


def test_gaussian_partner_mode_uses_wht_of_draw():
    # with randomized rounding and the same seed, reconstruct the draw
    rng = np.random.default_rng(8)
    n, N = 3, 8
    z1 = rng.normal(0.0, 1.0, N)
    z2 = fwht(z1)
    assert abs(np.linalg.norm(z2) - np.linalg.norm(z1)) < 1e-12  # orthogonal
    rng2 = np.random.default_rng(8)
    pair = sample_pair(n, 1.0, True, rng2, rounding="sign", partner="gaussian")
    nz1 = z1 != 0
    assert np.all(pair.x1[nz1] == (z1[nz1] < 0).astype(np.uint8))
    nz2 = z2 != 0
    assert np.all(pair.x2[nz2] == (z2[nz2] < 0).astype(np.uint8))


def test_correlated_separation_at_n5():
    """Correlated mean F beats uncorrelated mean F by >= 5 standard errors."""
    rng = np.random.default_rng(9)
    n = 5
    eps = default_epsilon(n)
    fc = [forrelation(p.x1, p.x2)
          for p in (sample_pair(n, eps, True, rng) for _ in range(200))]
    fu = [forrelation(p.x1, p.x2)
          for p in (sample_pair(n, eps, False, rng) for _ in range(200))]
    se = np.sqrt(np.var(fc, ddof=1) / 200 + np.var(fu, ddof=1) / 200)
    assert np.mean(fc) - np.mean(fu) >= 5 * se


def test_uncorrelated_mean_forrelation_small():
    rng = np.random.default_rng(10)
    n, N = 5, 32
    fu = [forrelation(p.x1, p.x2)
          for p in (sample_pair(n, default_epsilon(n), False, rng)
                    for _ in range(200))]
    assert np.mean(fu) <= 3.0 / N


def test_pixel_marginals_unbiased():
    """Each pixel's marginal mean over correlated samples is 0.5 +/- 0.02."""
    rng = np.random.default_rng(11)
    n, N, S = 4, 16, 10_000
    x1s = np.empty((S, N))
    x2s = np.empty((S, N))
    for i in range(S):
        p = sample_pair(n, default_epsilon(n), True, rng)
        x1s[i] = p.x1
        x2s[i] = p.x2
    assert np.all(np.abs(x1s.mean(0) - 0.5) < 0.02)
    assert np.all(np.abs(x2s.mean(0) - 0.5) < 0.02)


# --- generate_dataset -------------------------------------------------------


def test_generate_dataset_counts_and_interleaving():
    ds = generate_dataset(2, default_epsilon(2), 10, seed=1)
    assert len(ds.samples) == 20
    labels = [s.label for s in ds.samples]
    assert labels == [0, 1] * 10  # correlated, uncorrelated, ...
    # any prefix is class-balanced to within one sample
    for k in range(1, 21):
        ones = sum(labels[:k])
        assert abs(ones - k / 2) <= 0.5


def test_generate_dataset_deterministic():
    a = generate_dataset(3, 1.0, 5, seed=7)
    b = generate_dataset(3, 1.0, 5, seed=7)
    for sa, sb in zip(a.samples, b.samples):
        assert np.array_equal(sa.x1, sb.x1) and np.array_equal(sa.x2, sb.x2)


def test_generate_dataset_test_split_size():
    ds = generate_dataset(5, default_epsilon(5), 40, seed=3)
    assert len(ds.samples) == 80


def test_generate_dataset_validates_count():
    with pytest.raises(ValueError):
        generate_dataset(2, 1.0, 0, seed=1)


# --- persistence ------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    ds = generate_dataset(3, default_epsilon(3), 4, seed=11)
    path = tmp_path / "ds.json"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert loaded.n == ds.n and loaded.seed == ds.seed
    assert loaded.epsilon == pytest.approx(ds.epsilon)
    assert len(loaded.samples) == len(ds.samples)
    for sa, sb in zip(ds.samples, loaded.samples):
        assert np.array_equal(sa.x1, sb.x1)
        assert np.array_equal(sa.x2, sb.x2)
        assert sa.label == sb.label


def test_save_is_byte_identical_for_same_seed(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_dataset(generate_dataset(2, 1.0, 10, seed=5), p1)
    save_dataset(generate_dataset(2, 1.0, 10, seed=5), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_truncated_file_errors(tmp_path):
    path = tmp_path / "bad.json"
    save_dataset(generate_dataset(2, 1.0, 2, seed=1), path)
    raw = path.read_text()
    path.write_text(raw[: len(raw) // 2])
    with pytest.raises(DatasetFormatError, match="line"):
        load_dataset(path)


def test_load_rejects_non_power_of_two(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "epsilon": 1.0, "seed": 0, '
                    '"samples": [{"x1": "010", "x2": "010", "y": 0}]}')
    with pytest.raises(DatasetFormatError):
        load_dataset(path)


def test_load_rejects_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "epsilon": 1.0, "samples": []}')
    with pytest.raises(DatasetFormatError, match="seed"):
        load_dataset(path)


def test_load_rejects_wrong_length(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 3, "epsilon": 1.0, "seed": 0, '
                    '"samples": [{"x1": "0101", "x2": "0101", "y": 1}]}')
    with pytest.raises(DatasetFormatError, match="length"):
        load_dataset(path)


VALID = {"n": 1, "epsilon": 0.5, "seed": 3,
         "samples": [{"x1": "01", "x2": "11", "y": 1}]}


def _with(field, value):
    return {**VALID, field: value}


def _with_sample(field, value):
    return {**VALID, "samples": [{**VALID["samples"][0], field: value}]}


@pytest.mark.parametrize("content", [
    pytest.param(3, id="top-level-number"),
    pytest.param(["n"], id="top-level-list"),
    pytest.param(_with("n", True), id="n-bool"),
    pytest.param(_with("n", 1.0), id="n-float"),
    pytest.param(_with("epsilon", "abc"), id="epsilon-string"),
    pytest.param(_with("epsilon", -1), id="epsilon-negative"),
    pytest.param(_with("epsilon", float("nan")), id="epsilon-nan"),
    pytest.param(_with("epsilon", float("inf")), id="epsilon-inf"),
    pytest.param(_with("epsilon", True), id="epsilon-bool"),
    pytest.param(_with("seed", 1.7), id="seed-float"),
    pytest.param(_with("seed", float("nan")), id="seed-nan"),
    pytest.param(_with("seed", True), id="seed-bool"),
    pytest.param(_with("samples", "01"), id="samples-string"),
    pytest.param(_with("samples", {"x1": "01"}), id="samples-object"),
    pytest.param(_with("samples", ["01"]), id="sample-string"),
    pytest.param(_with_sample("y", True), id="y-bool"),
    pytest.param(_with_sample("y", 1.0), id="y-float"),
    pytest.param(_with_sample("y", 2), id="y-out-of-range"),
    pytest.param(_with_sample("x1", 5), id="x1-number"),
    pytest.param(_with_sample("x2", [True, False]), id="x2-bool-list"),
])
def test_load_rejects_malformed_field_naming_the_file(tmp_path, content):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(content))
    with pytest.raises(DatasetFormatError, match="malformed.json"):
        load_dataset(path)


def test_load_accepts_the_valid_template(tmp_path):
    path = tmp_path / "valid.json"
    path.write_text(json.dumps(VALID))
    ds = load_dataset(path)
    assert (ds.n, ds.epsilon, ds.seed) == (1, 0.5, 3)
    assert isinstance(ds.seed, int) and ds.samples[0].label == 1
