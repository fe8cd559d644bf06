"""Symmetry group encoding and the equivariant operator pool.

Two symmetry representations act on the 2n-qubit pair register:

- exchange: the SWAP network exchanging the two barcode registers
  (swapping the pair members must not change a model's output);
- complement: Y on every qubit (flipping every pixel of both barcodes
  leaves the encoded pair state exactly invariant, since each register
  picks up a global sign; the Y-string is the operator-level
  representation that every pool entry must commute with).

The pool is a fixed, named, ordered list of ten structured operators.
build_pool is the one place that certifies them: it checks each family
numerically (densely, at a small register size, once per process) for
Hermiticity and for commutation with both representations, and raises on
any failure, so every entry it returns serves both as an ansatz generator
and as a measured observable. Nearest-neighbour two-qubit sums run within
each register (open line, i and i+1 in the same register): sums crossing
the register boundary do not commute with the exchange network and would
break equivariance.

Each entry also carries its exponentiation structure: a list of mutually
commuting involutory factors T_k with entry = sum_k T_k (or the single
involutory product itself), so exp(-i theta G) = prod_k (cos theta I -
i sin theta T_k) exactly. This is what the variational ansatz uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .statevec import (
    GlobalWHT,
    ObservableExpr,
    PauliString,
    PauliSum,
    SwapNetwork,
    dense_observable,
    phase_state,
    product_state,
)

VALIDATION_N = 2  # register size for dense certification
CERTIFY_TOL = 1e-10  # bound on the dense Hermiticity and commutator residues


@dataclass(frozen=True)
class SymmetryRep:
    name: str
    expr: ObservableExpr


@dataclass(frozen=True)
class PoolEntry:
    name: str
    expr: ObservableExpr
    exp_terms: tuple  # commuting involutory ObservableExprs summing to expr


@dataclass(frozen=True)
class OperatorPool:
    n: int
    entries: tuple  # of PoolEntry

    def names(self):
        return [e.name for e in self.entries]

    def entry(self, name: str) -> PoolEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(f"no pool entry named {name!r}")


def exchange_rep(n: int) -> SymmetryRep:
    return SymmetryRep("exchange", ObservableExpr("exchange", (SwapNetwork(),)))


def complement_rep(n: int) -> SymmetryRep:
    return SymmetryRep("complement",
                       ObservableExpr("complement", (PauliString("Y" * 2 * n),)))


def symmetry_reps(n: int):
    return (exchange_rep(n), complement_rep(n))


def _single_site_sum(letter: str, n: int) -> PauliSum:
    nq = 2 * n
    terms = []
    for i in range(nq):
        letters = ["I"] * nq
        letters[i] = letter
        terms.append((1.0, PauliString("".join(letters))))
    return PauliSum(tuple(terms))


def _register_nn_sum(letter: str, n: int) -> PauliSum:
    """Nearest-neighbour pairs within each register (open line per register)."""
    nq = 2 * n
    terms = []
    for reg_start in (0, n):
        for i in range(n - 1):
            letters = ["I"] * nq
            letters[reg_start + i] = letter
            letters[reg_start + i + 1] = letter
            terms.append((1.0, PauliString("".join(letters))))
    return PauliSum(tuple(terms))


def _pool_candidates(n: int):
    """The documented ordering as (name, factors) pairs."""
    x_all = PauliString("X" * 2 * n)
    return [
        ("sum_y", (_single_site_sum("Y", n),)),
        ("sum_xx", (_register_nn_sum("X", n),)),
        ("sum_yy", (_register_nn_sum("Y", n),)),
        ("sum_zz", (_register_nn_sum("Z", n),)),
        ("x_all", (x_all,)),
        ("z_all", (PauliString("Z" * 2 * n),)),
        ("swap", (SwapNetwork(),)),
        ("wht_all", (GlobalWHT(),)),
        ("swap_x_all", (SwapNetwork(), x_all)),
        ("swap_wht", (SwapNetwork(), GlobalWHT())),
    ]


def _exp_terms(expr: ObservableExpr) -> tuple:
    """One single-string term per Pauli-sum term (coefficients are all 1),
    otherwise the involutory entry itself."""
    if len(expr.factors) == 1 and isinstance(expr.factors[0], PauliSum):
        return tuple(ObservableExpr(f"{expr.name}[{i}]", (s,))
                     for i, (_, s) in enumerate(expr.factors[0].terms))
    return (expr,)


def is_hermitian_dense(expr: ObservableExpr, n_check: int = VALIDATION_N,
                       tol: float = 1e-10) -> bool:
    M = dense_observable(expr, n_check)
    return bool(np.max(np.abs(M - M.conj().T)) <= tol)


def check_equivariance(expr: ObservableExpr, reps=None,
                       n_check: int = VALIDATION_N) -> float:
    """Max Frobenius norm of [O, U_sigma] over the reps, dense at n_check."""
    if n_check > 3:
        raise ValueError("dense equivariance check limited to n_check <= 3")
    if reps is None:
        reps = symmetry_reps(n_check)
    M = dense_observable(expr, n_check)
    worst = 0.0
    for rep in reps:
        U = dense_observable(rep.expr, n_check)
        comm = M @ U - U @ M
        worst = max(worst, float(np.linalg.norm(comm)))
    return worst


# candidate lists at VALIDATION_N that passed _certify, so each process
# pays the dense check once per candidate list, not once per pool
_CERTIFIED = set()


def _certify(candidates: tuple) -> None:
    """Dense Hermiticity and equivariance of each (name, factors) candidate
    at VALIDATION_N; a failing entry raises ValueError naming it."""
    if candidates in _CERTIFIED:
        return
    reps_small = symmetry_reps(VALIDATION_N)
    for name, factors in candidates:
        expr_small = ObservableExpr(name, factors)
        if not is_hermitian_dense(expr_small, VALIDATION_N, CERTIFY_TOL):
            raise ValueError(f"pool entry {name!r} is not Hermitian")
        comm = check_equivariance(expr_small, reps_small, VALIDATION_N)
        if comm > CERTIFY_TOL:
            raise ValueError(f"pool entry {name!r} is not equivariant "
                             f"(commutator norm {comm:.3e})")
    _CERTIFIED.add(candidates)


def build_pool(n: int) -> OperatorPool:
    """The ten documented entries at register size n, certified densely.

    Hermiticity and equivariance are certified on the n_check=2 instance of
    each operator family (the families are index-uniform in n, so the small
    instance certifies the construction); a failing entry raises ValueError
    naming it. Every returned entry is therefore usable both as an ansatz
    generator and as a measured observable. The certification does not
    depend on n, so a process runs it once per candidate list.
    """
    if n < 2:
        raise ValueError("pool requires n >= 2 (nearest-neighbour sums)")
    _certify(tuple(_pool_candidates(VALIDATION_N)))
    exprs = [ObservableExpr(name, factors)
             for name, factors in _pool_candidates(n)]
    return OperatorPool(n, tuple(PoolEntry(e.name, e, _exp_terms(e))
                                 for e in exprs))


def check_invariance_conditions(n_check: int = VALIDATION_N, n_pairs: int = 50,
                                seed: int = 0, tol: float = 1e-10) -> dict:
    """Named residual checks for the model-invariance conditions.

    1. invariant initial state: the uniform state is fixed by the exchange
       network (the complement symmetry acts on encoded pairs as exact state
       identity, see check 3, so no separate initial-state condition arises
       for it at the state level).
    2. encoding equivariance, exchange: encoding the swapped pair equals the
       SWAP network applied to the encoded pair, exactly.
    3. encoding equivariance, complement: encoding the complemented pair
       equals the encoded pair up to a global phase (the two register signs
       cancel, so the phase is +1).
    4. observable invariance: U O U^dag = O for every pool observable and
       both representations (dense).
    """
    if n_check > 3:
        raise ValueError("dense invariance check limited to n_check <= 3")
    rng = np.random.default_rng(seed)
    N = 2 ** n_check
    D = 4 ** n_check
    ex = dense_observable(exchange_rep(n_check).expr, n_check)
    results = {}

    uniform = np.full(D, 1.0 / np.sqrt(D))
    results["initial_state_exchange"] = float(np.max(np.abs(ex @ uniform - uniform)))

    worst_ex = 0.0
    worst_co = 0.0
    for _ in range(n_pairs):
        b1 = rng.integers(0, 2, N).astype(np.uint8)
        b2 = rng.integers(0, 2, N).astype(np.uint8)
        st = product_state(phase_state(b1), phase_state(b2))
        swapped = product_state(phase_state(b2), phase_state(b1))
        worst_ex = max(worst_ex, float(np.max(np.abs(ex @ st - swapped))))
        comp = product_state(phase_state(1 - b1), phase_state(1 - b2))
        # global phase is +1: the two per-register sign flips cancel
        worst_co = max(worst_co, float(np.max(np.abs(comp - st))))
    results["encoding_exchange"] = worst_ex
    results["encoding_complement"] = worst_co

    pool = build_pool(n_check)
    worst_obs = 0.0
    for entry in pool.entries:
        M = dense_observable(entry.expr, n_check)
        for rep in symmetry_reps(n_check):
            U = dense_observable(rep.expr, n_check)
            worst_obs = max(worst_obs,
                            float(np.max(np.abs(U @ M @ U.conj().T - M))))
    results["observable_invariance"] = worst_obs

    results["pass"] = all(v <= tol for k, v in results.items() if k != "pass")
    return results
