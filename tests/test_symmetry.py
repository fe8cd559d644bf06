"""Tests for the symmetry representations and the validated operator pool."""

import numpy as np
import pytest

from artifact import symmetry
from artifact.statevec import (
    GlobalWHT,
    ObservableExpr,
    PauliString,
    dense_observable,
    expectation,
    phase_state,
    product_state,
)
from artifact.symmetry import (
    build_pool,
    check_equivariance,
    check_invariance_conditions,
    complement_rep,
    exchange_rep,
    is_hermitian_dense,
    symmetry_reps,
)

EXPECTED_ORDER = [
    "sum_y", "sum_xx", "sum_yy", "sum_zz", "x_all",
    "z_all", "swap", "wht_all", "swap_x_all", "swap_wht",
]


def wht_z_all(n):
    """H^(x)2n . Z^(x)2n: commutes with both reps but is not Hermitian."""
    return ObservableExpr("wht_z_all", (GlobalWHT(), PauliString("Z" * 2 * n)))


def random_state(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------- reps


def test_exchange_rep_swaps_registers():
    n = 2
    rng = np.random.default_rng(5)
    b1 = rng.integers(0, 2, 2 ** n).astype(np.uint8)
    b2 = rng.integers(0, 2, 2 ** n).astype(np.uint8)
    U = dense_observable(exchange_rep(n).expr, n)
    st = product_state(phase_state(b1), phase_state(b2))
    swapped = product_state(phase_state(b2), phase_state(b1))
    np.testing.assert_allclose(U @ st, swapped, atol=1e-12)


def test_reps_are_unitary_and_involutory():
    n = 2
    D = 4 ** n
    for rep in symmetry_reps(n):
        U = dense_observable(rep.expr, n)
        np.testing.assert_allclose(U @ U.conj().T, np.eye(D), atol=1e-12)
        # both reps square to the identity (Y^(x)4n would too at even count)
        np.testing.assert_allclose(U @ U, np.eye(D), atol=1e-12)


def test_complement_rep_is_global_y_string():
    n = 2
    rep = complement_rep(n)
    (prim,) = rep.expr.factors
    assert isinstance(prim, PauliString)
    assert prim.letters == "Y" * (2 * n)


# ------------------------------------------------- equivariance checker


def test_sum_y_commutes_with_both_reps():
    pool = build_pool(2)
    assert check_equivariance(pool.entry("sum_y").expr, n_check=2) <= 1e-10


def test_swap_wht_commutes_with_both_reps():
    pool = build_pool(2)
    assert check_equivariance(pool.entry("swap_wht").expr, n_check=2) <= 1e-10


def test_single_qubit_x_is_not_equivariant():
    # X on qubit 0 only: moves under the exchange network
    expr = ObservableExpr("x0", (PauliString("XIII"),))
    assert check_equivariance(expr, n_check=2) > 0.5


def test_lopsided_zz_is_not_equivariant():
    # ZZ on register 1 only (no mirror term on register 2)
    expr = ObservableExpr("zz0", (PauliString("ZZII"),))
    assert check_equivariance(expr, n_check=2) > 0.5


def test_crossing_boundary_xx_is_not_equivariant():
    # nearest-neighbour pair straddling the register boundary, mirrored:
    # the exchange network maps X_1 X_2 to X_3 X_0, which is not in the sum
    from artifact.statevec import PauliSum
    crossing = PauliSum(((1.0, PauliString("IXXI")),))
    expr = ObservableExpr("xx_cross", (crossing,))
    assert check_equivariance(expr, n_check=2) > 0.5


# ----------------------------------------------------------- the pool


def test_pool_default_order_and_size():
    pool = build_pool(3)
    assert pool.names() == EXPECTED_ORDER


def test_all_default_entries_hermitian_and_equivariant():
    pool = build_pool(2)
    for entry in pool.entries:
        assert is_hermitian_dense(entry.expr, 2), entry.name
        assert check_equivariance(entry.expr, n_check=2) <= 1e-10, entry.name


def test_wht_z_all_really_is_non_hermitian():
    M = dense_observable(wht_z_all(2), 2)
    assert np.max(np.abs(M - M.conj().T)) > 0.4


def test_non_hermitian_entry_rejected_as_expectation():
    rng = np.random.default_rng(0)
    st = random_state(rng, 16)
    with pytest.raises(ValueError, match="not Hermitian"):
        expectation(st, wht_z_all(2), 2)


@pytest.mark.parametrize("name, factors, message", [
    ("wht_z_all", lambda n: wht_z_all(n).factors,
     "'wht_z_all' is not Hermitian"),
    ("x0", lambda n: (PauliString("X" + "I" * (2 * n - 1)),),
     "'x0' is not equivariant"),
])
def test_build_pool_rejects_bad_candidate(monkeypatch, name, factors, message):
    good = symmetry._pool_candidates
    monkeypatch.setattr(symmetry, "_pool_candidates",
                        lambda n: good(n) + [(name, factors(n))])
    with pytest.raises(ValueError, match=message):
        build_pool(3)


def test_certification_runs_once_per_candidate_list(monkeypatch):
    calls = []
    original = symmetry.is_hermitian_dense

    def counting(expr, *args):
        calls.append(expr.name)
        return original(expr, *args)

    monkeypatch.setattr(symmetry, "_CERTIFIED", set())
    monkeypatch.setattr(symmetry, "is_hermitian_dense", counting)
    pools = [build_pool(n) for n in (2, 3, 5, 2)]
    assert calls == EXPECTED_ORDER
    assert [p.n for p in pools] == [2, 3, 5, 2]
    assert all(p.names() == EXPECTED_ORDER for p in pools)
    good = symmetry._pool_candidates
    monkeypatch.setattr(symmetry, "_pool_candidates", lambda n: good(n)[:-1])
    build_pool(4)  # another candidate list is another certification
    assert calls == EXPECTED_ORDER + EXPECTED_ORDER[:-1]


def test_a_failed_certification_is_not_remembered(monkeypatch):
    monkeypatch.setattr(symmetry, "_CERTIFIED", set())
    monkeypatch.setattr(symmetry, "is_hermitian_dense", lambda *args: False)
    for _ in range(2):
        with pytest.raises(ValueError, match="'sum_y' is not Hermitian"):
            build_pool(2)
    assert not symmetry._CERTIFIED


def test_pool_k_bounds():
    with pytest.raises(ValueError):
        build_pool(1)


def test_exp_terms_sum_to_entry():
    """Dense check: the commuting involutory factors really sum to the entry."""
    pool = build_pool(2)
    for entry in pool.entries:
        M = dense_observable(entry.expr, 2)
        S = sum(dense_observable(t, 2) for t in entry.exp_terms)
        np.testing.assert_allclose(S, M, atol=1e-12, err_msg=entry.name)


def test_exp_terms_are_commuting_involutions():
    pool = build_pool(2)
    eye = np.eye(16)
    for entry in pool.entries:
        mats = [dense_observable(t, 2) for t in entry.exp_terms]
        for i, A in enumerate(mats):
            np.testing.assert_allclose(A @ A, eye, atol=1e-12,
                                       err_msg=f"{entry.name}[{i}]")
            for B in mats[i + 1:]:
                np.testing.assert_allclose(A @ B, B @ A, atol=1e-12,
                                           err_msg=entry.name)


def test_nn_sums_stay_within_registers():
    pool = build_pool(3)
    for name in ("sum_xx", "sum_yy", "sum_zz"):
        (psum,) = pool.entry(name).expr.factors
        assert len(psum.terms) == 4  # 2 per register at n=3
        for _, string in psum.terms:
            sites = [i for i, c in enumerate(string.letters) if c != "I"]
            assert len(sites) == 2 and sites[1] == sites[0] + 1
            # both sites on the same side of the register boundary
            assert (sites[0] < 3) == (sites[1] < 3)


def test_product_closure_spot_checks():
    """Products of equivariant operators stay equivariant (spot checks)."""
    pool = build_pool(2)
    for expr in (pool.entry("swap_x_all").expr, pool.entry("swap_wht").expr,
                 wht_z_all(2)):
        assert check_equivariance(expr, n_check=2) <= 1e-10


# ------------------------------------------- model-invariance conditions


def test_invariance_conditions_report():
    report = check_invariance_conditions(n_check=2, n_pairs=50, seed=3)
    assert report["pass"]
    assert report["initial_state_exchange"] <= 1e-10
    assert report["encoding_exchange"] <= 1e-10
    assert report["encoding_complement"] <= 1e-10
    assert report["observable_invariance"] <= 1e-10


def test_uniform_state_fixed_by_exchange():
    n = 3
    D = 4 ** n
    U = dense_observable(exchange_rep(n).expr, n)
    uniform = np.full(D, 1.0 / np.sqrt(D))
    np.testing.assert_allclose(U @ uniform, uniform, atol=1e-12)


def test_complemented_pair_encodes_to_same_state():
    rng = np.random.default_rng(11)
    for _ in range(20):
        b1 = rng.integers(0, 2, 4).astype(np.uint8)
        b2 = rng.integers(0, 2, 4).astype(np.uint8)
        st = product_state(phase_state(b1), phase_state(b2))
        comp = product_state(phase_state(1 - b1), phase_state(1 - b2))
        np.testing.assert_allclose(comp, st, atol=1e-15)


def test_observable_values_invariant_under_swap_of_inputs():
    """<O> is identical on the encoded pair and the exchanged pair."""
    rng = np.random.default_rng(7)
    pool = build_pool(2)
    for _ in range(10):
        b1 = rng.integers(0, 2, 4).astype(np.uint8)
        b2 = rng.integers(0, 2, 4).astype(np.uint8)
        st = product_state(phase_state(b1), phase_state(b2))
        sw = product_state(phase_state(b2), phase_state(b1))
        for entry in pool.entries:
            v1 = expectation(st, entry.expr, 2)
            v2 = expectation(sw, entry.expr, 2)
            assert abs(v1 - v2) <= 1e-10, entry.name
