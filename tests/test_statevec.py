"""Statevector core: dense-matrix oracles, transform identities, forrelation."""

import numpy as np
import pytest

from artifact.statevec import (
    GlobalWHT,
    ObservableExpr,
    PauliString,
    PauliSum,
    SwapNetwork,
    apply_observable,
    apply_primitive,
    apply_wht,
    as_bits,
    dense_observable,
    dense_primitive,
    expectation,
    forrelation,
    fwht,
    phase_state,
    product_state,
)


def random_bits(rng, N):
    return rng.integers(0, 2, N).astype(np.uint8)


def random_state(rng, D, complex_=False):
    v = rng.standard_normal(D)
    if complex_:
        v = v + 1j * rng.standard_normal(D)
    return v / np.linalg.norm(v)


# --- phase states -----------------------------------------------------------


def test_phase_state_all_zero_is_uniform():
    np.testing.assert_allclose(phase_state("0000"), np.full(4, 0.5), atol=0)


def test_phase_state_single_flip():
    np.testing.assert_allclose(phase_state("01"), np.array([1.0, -1.0]) / np.sqrt(2))


def test_phase_state_complement_flips_global_sign():
    rng = np.random.default_rng(0)
    for _ in range(10):
        b = random_bits(rng, 16)
        np.testing.assert_allclose(phase_state(1 - b), -phase_state(b), atol=0)


def test_phase_state_normalized():
    rng = np.random.default_rng(1)
    for N in (4, 8, 32):
        b = random_bits(rng, N)
        s = phase_state(b)
        assert abs(np.linalg.norm(s) - 1.0) < 1e-12
        assert np.all(np.abs(np.abs(s) - 1 / np.sqrt(N)) < 1e-12)


def test_as_bits_accepts_float_and_bool_bits():
    for x in ([0.0, 1.0, 1.0, 0.0], [False, True, True, False]):
        assert as_bits(x).dtype == np.uint8
        np.testing.assert_array_equal(as_bits(x), [0, 1, 1, 0])


def test_as_bits_rejects_bad_input():
    with pytest.raises(ValueError):
        as_bits("0102")
    with pytest.raises(ValueError):
        as_bits("010")  # not a power of two
    with pytest.raises(ValueError):
        as_bits([0, 1, 2, 0])
    with pytest.raises(ValueError):
        as_bits([0.5, 1.0, 0.9, 0])  # a uint8 cast would truncate to 0 1 0 0
    with pytest.raises(ValueError):
        as_bits([0, 1, -1, 0])  # a uint8 cast would overflow


# --- product states ---------------------------------------------------------


def test_product_state_uniform():
    p = np.array([1.0, 1.0]) / np.sqrt(2)
    np.testing.assert_allclose(product_state(p, p), np.full(4, 0.5))


def test_product_state_norm_and_entries():
    rng = np.random.default_rng(2)
    p1 = phase_state(random_bits(rng, 4))
    p2 = phase_state(random_bits(rng, 4))
    out = product_state(p1, p2)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12
    # entry (i, j) equals p1[i] * p2[j] for all 16 indices
    for i in range(4):
        for j in range(4):
            assert out[4 * i + j] == pytest.approx(p1[i] * p2[j], abs=0)


def test_product_state_size_mismatch():
    with pytest.raises(ValueError):
        product_state(np.ones(4), np.ones(8))


# --- Walsh-Hadamard ---------------------------------------------------------


def test_fwht_single_qubit():
    np.testing.assert_allclose(fwht(np.array([1.0, 0.0])),
                               np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-15)


def test_fwht_involution():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(32)
    np.testing.assert_allclose(fwht(fwht(v)), v, atol=1e-12)


def test_fwht_matches_dense_oracle():
    rng = np.random.default_rng(4)
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    H = np.kron(np.kron(h1, h1), h1)
    v = rng.standard_normal(8)
    np.testing.assert_allclose(fwht(v), H @ v, atol=1e-12)


def test_fwht_preserves_norm():
    rng = np.random.default_rng(5)
    v = rng.standard_normal(64)
    assert abs(np.linalg.norm(fwht(v)) - np.linalg.norm(v)) < 1e-12


def test_apply_wht_matches_dense():
    n = 2
    rng = np.random.default_rng(6)
    v = random_state(rng, 16)
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    Hn = np.kron(h1, h1)
    np.testing.assert_allclose(apply_wht(v, n), np.kron(Hn, Hn) @ v,
                               atol=1e-12)


# --- primitives vs dense oracle --------------------------------------------


def nn_sum(letter, n):
    """Per-register nearest-neighbour two-qubit sums on 2n qubits."""
    nq = 2 * n
    terms = []
    for reg in (0, n):
        for i in range(n - 1):
            letters = ["I"] * nq
            letters[reg + i] = letter
            letters[reg + i + 1] = letter
            terms.append((1.0, PauliString("".join(letters))))
    return PauliSum(tuple(terms))


def single_sum(letter, n):
    nq = 2 * n
    terms = []
    for i in range(nq):
        letters = ["I"] * nq
        letters[i] = letter
        terms.append((1.0, PauliString("".join(letters))))
    return PauliSum(tuple(terms))


@pytest.mark.parametrize("prim", [
    PauliString("XIYZ"),
    PauliString("YYYY"),
    PauliString("ZZZZ"),
    PauliString("XXXX"),
    single_sum("Y", 2),
    nn_sum("X", 2),
    nn_sum("Y", 2),
    nn_sum("Z", 2),
    SwapNetwork(),
    GlobalWHT(),
])
def test_primitive_matches_dense_on_random_states(prim):
    n = 2
    rng = np.random.default_rng(7)
    M = dense_primitive(prim, n)
    for _ in range(20):
        v = random_state(rng, 16, complex_=True)
        np.testing.assert_allclose(apply_primitive(v, prim, n), M @ v, atol=1e-10)


def test_primitive_batch_matches_single():
    n = 2
    rng = np.random.default_rng(8)
    states = np.stack([random_state(rng, 16, complex_=True) for _ in range(5)], axis=1)
    for prim in (PauliString("XYZI"), SwapNetwork(), GlobalWHT(), nn_sum("Y", 2)):
        batch = apply_primitive(states, prim, n)
        for s in range(5):
            np.testing.assert_allclose(batch[:, s],
                                       apply_primitive(states[:, s], prim, n),
                                       atol=1e-12)


def test_swap_network_exchanges_registers():
    rng = np.random.default_rng(9)
    p1 = phase_state(random_bits(rng, 4))
    p2 = phase_state(random_bits(rng, 4))
    out = apply_primitive(product_state(p1, p2), SwapNetwork(), 2)
    np.testing.assert_allclose(out, product_state(p2, p1), atol=0)


def test_swap_and_wht_are_involutions():
    n = 3
    rng = np.random.default_rng(10)
    v = random_state(rng, 64, complex_=True)
    for prim in (SwapNetwork(), GlobalWHT()):
        w = apply_primitive(apply_primitive(v, prim, n), prim, n)
        np.testing.assert_allclose(w, v, atol=1e-12)


def test_z_string_on_all_zero_state():
    v = np.zeros(16)
    v[0] = 1.0
    out = apply_primitive(v, PauliString("ZZZZ"), 2)
    np.testing.assert_allclose(out, v, atol=0)


def test_primitives_preserve_norm():
    n = 2
    rng = np.random.default_rng(11)
    v = random_state(rng, 16, complex_=True)
    for prim in (PauliString("XYZY"), SwapNetwork(), GlobalWHT()):
        assert abs(np.linalg.norm(apply_primitive(v, prim, n)) - 1.0) < 1e-10


@pytest.mark.parametrize("factors", [
    (PauliString("XIYZ"),),
    (PauliString("YIII"),),
    (PauliString("IYIY"),),
    (PauliString("YYYZ"),),
    (SwapNetwork(),),
    (SwapNetwork(), PauliString("XYZI")),
    (PauliString("ZIYX"), SwapNetwork(), PauliString("YIIX")),
])
def test_signed_permutation_matches_dense(factors):
    """Pauli strings and the SWAP network compose to signed permutations;
    apply_observable, the one route for circuit factors, must match them."""
    n = 2
    rng = np.random.default_rng(18)
    expr = ObservableExpr("perm", factors)
    M = dense_observable(expr, n)
    v = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
    np.testing.assert_allclose(apply_observable(v, expr, n), M @ v,
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(apply_observable(v[:, 1], expr, n), M @ v[:, 1],
                               rtol=0, atol=1e-15)


def test_pauli_string_length_must_match_the_state():
    with pytest.raises(ValueError, match="state length"):
        apply_observable(np.ones(16), ObservableExpr("p", (PauliString("XX"),)),
                         2)


# --- expectation ------------------------------------------------------------


def test_expectation_swap_equals_squared_overlap():
    rng = np.random.default_rng(12)
    for _ in range(10):
        p1 = phase_state(random_bits(rng, 8))
        p2 = phase_state(random_bits(rng, 8))
        st = product_state(p1, p2)
        val = expectation(st, ObservableExpr("swap", (SwapNetwork(),)), 3)
        assert val == pytest.approx(float(np.dot(p1, p2)) ** 2, abs=1e-12)


def test_expectation_sum_y_vanishes_on_real_states():
    rng = np.random.default_rng(13)
    st = product_state(phase_state(random_bits(rng, 4)),
                       phase_state(random_bits(rng, 4)))
    val = expectation(st, ObservableExpr("sum_y", (single_sum("Y", 2),)), 2)
    assert abs(val) < 1e-12


def test_expectation_rejects_non_hermitian_composition():
    # H^(x)2n . Z^(x)2n is not Hermitian; a complex state exposes the residue
    rng = np.random.default_rng(14)
    v = random_state(rng, 16, complex_=True)
    expr = ObservableExpr("wht_z_all", (GlobalWHT(), PauliString("ZZZZ")))
    with pytest.raises(ValueError, match="not Hermitian"):
        expectation(v, expr, 2)


def test_expectation_matches_dense_for_composition():
    n = 2
    rng = np.random.default_rng(15)
    expr = ObservableExpr("swap_wht", (SwapNetwork(), GlobalWHT()))
    M = dense_observable(expr, n)
    for _ in range(10):
        v = random_state(rng, 16, complex_=True)
        assert expectation(v, expr, n) == pytest.approx(
            float(np.real(np.vdot(v, M @ v))), abs=1e-10)


def test_apply_observable_composes_right_to_left():
    n = 2
    rng = np.random.default_rng(16)
    v = random_state(rng, 16)
    expr = ObservableExpr("sx", (SwapNetwork(), PauliString("XXXX")))
    manual = apply_primitive(apply_primitive(v, PauliString("XXXX"), n),
                             SwapNetwork(), n)
    np.testing.assert_allclose(apply_observable(v, expr, n), manual, atol=0)


# --- forrelation ------------------------------------------------------------


def test_forrelation_uniform_bra_gives_1_over_N():
    rng = np.random.default_rng(17)
    N = 4
    for _ in range(20):
        x2 = random_bits(rng, N)
        assert forrelation(np.zeros(N, dtype=np.uint8), x2) == pytest.approx(
            1.0 / N, rel=1e-12)


def test_forrelation_symmetric():
    rng = np.random.default_rng(18)
    for _ in range(100):
        x1 = random_bits(rng, 16)
        x2 = random_bits(rng, 16)
        assert forrelation(x1, x2) == pytest.approx(forrelation(x2, x1), abs=1e-12)


def test_forrelation_matches_dense_oracle():
    rng = np.random.default_rng(19)
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    H = np.kron(np.kron(h1, h1), h1)
    for _ in range(20):
        x1 = random_bits(rng, 8)
        x2 = random_bits(rng, 8)
        val = float(phase_state(x1) @ H @ phase_state(x2)) ** 2
        assert forrelation(x1, x2) == pytest.approx(val, abs=1e-12)


def test_forrelation_invariant_under_double_complement():
    rng = np.random.default_rng(20)
    for _ in range(20):
        x1 = random_bits(rng, 16)
        x2 = random_bits(rng, 16)
        assert forrelation(1 - x1, 1 - x2) == pytest.approx(
            forrelation(x1, x2), abs=1e-14)


def test_forrelation_in_unit_interval():
    rng = np.random.default_rng(21)
    for _ in range(50):
        f = forrelation(random_bits(rng, 32), random_bits(rng, 32))
        assert -1e-12 <= f <= 1.0 + 1e-12


def test_swap_wht_expectation_equals_forrelation():
    rng = np.random.default_rng(22)
    expr = ObservableExpr("swap_wht", (SwapNetwork(), GlobalWHT()))
    for n in (2, 3):
        for _ in range(20):
            x1 = random_bits(rng, 2 ** n)
            x2 = random_bits(rng, 2 ** n)
            st = product_state(phase_state(x1), phase_state(x2))
            assert expectation(st, expr, n) == pytest.approx(
                forrelation(x1, x2), abs=1e-10)
