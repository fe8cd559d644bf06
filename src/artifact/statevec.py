"""Exact statevector simulation of phase states and structured operators.

Conventions used throughout the package:

- A barcode is a length-N binary vector (N = 2**n) stored as uint8.
- Its phase state has amplitudes amps[j] = (-1)**bits[j] / sqrt(N).
- A pair state lives on 2n qubits; register 1 (the first barcode) occupies
  the n most significant index bits, register 2 the n least significant,
  so the pair state is the plain Kronecker product of the two registers.
- Qubits are numbered 0..2n-1 from most significant to least significant.

Operators are expressed as compositions of four structured primitives
(Pauli string, weighted Pauli sum, register-exchange SWAP network, global
Walsh-Hadamard), each applied in O(D * terms) without materializing
matrices. Dense matrix builders are provided for small-size validation.

All state-modifying functions accept arrays of shape (D,) or (D, S) so that
S states can be processed in one vectorized call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SQRT2_INV = 1.0 / np.sqrt(2.0)


# ---------------------------------------------------------------------------
# barcodes and states


def as_bits(x) -> np.ndarray:
    """Coerce a bitstring ("0101...") or sequence of 0/1 into a uint8 vector."""
    if isinstance(x, str):
        if not set(x) <= {"0", "1"}:
            raise ValueError(f"barcode string contains non-binary characters: {x!r}")
        bits = np.frombuffer(x.encode(), dtype=np.uint8) - ord("0")
    else:
        bits = np.asarray(x)
    if bits.ndim != 1:
        raise ValueError("barcode must be one-dimensional")
    n = int(bits.size)
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError(f"barcode length must be a power of two >= 2, got {n}")
    # checked before the cast, which would truncate 0.5 and wrap -1
    if not np.all((bits == 0) | (bits == 1)):
        raise ValueError("barcode entries must be 0 or 1")
    return bits.astype(np.uint8, copy=False)


def bits_to_string(bits: np.ndarray) -> str:
    """Serialize pixel 0 first (most-significant-pixel first)."""
    return "".join("1" if b else "0" for b in np.asarray(bits))


def phase_rows(bits: np.ndarray) -> np.ndarray:
    """amps[..., j] = (-1)**bits[..., j] / sqrt(N) along the last axis, so
    an (S, N) stack of barcodes gives S phase states as rows."""
    return np.where(bits == 0, 1.0, -1.0) / np.sqrt(bits.shape[-1])


def phase_state(bits) -> np.ndarray:
    """amps[j] = (-1)**bits[j] / sqrt(N); a real unit vector."""
    return phase_rows(as_bits(bits))


def product_state(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Kronecker product with register 1 on the most significant qubits."""
    p1 = np.asarray(p1)
    p2 = np.asarray(p2)
    if p1.shape != p2.shape:
        raise ValueError("register size mismatch")
    return np.kron(p1, p2)


# ---------------------------------------------------------------------------
# fast Walsh-Hadamard transform


def fwht(a: np.ndarray, axis: int = 0) -> np.ndarray:
    """Orthonormal fast Walsh-Hadamard transform along one axis.

    Applies H^(x)m (1/sqrt(2) per qubit) to an axis of length 2**m.
    Returns a new array; does not modify the input.
    """
    a = np.asarray(a)
    b = np.moveaxis(a, axis, 0)
    K = b.shape[0]
    if K & (K - 1):
        raise ValueError(f"axis length must be a power of two, got {K}")
    tail = b.shape[1:]
    b = b.reshape(K, -1).astype(np.result_type(b.dtype, np.float64), copy=True)
    h = 1
    while h < K:
        b = b.reshape(K // (2 * h), 2, h, -1)
        top = b[:, 0].copy()
        bot = b[:, 1].copy()
        b[:, 0] = (top + bot) * SQRT2_INV
        b[:, 1] = (top - bot) * SQRT2_INV
        b = b.reshape(K, -1)
        h *= 2
    return np.moveaxis(b.reshape((K,) + tail), 0, axis)


def apply_wht(state: np.ndarray, n: int) -> np.ndarray:
    """H^(x)2n on a 2n-qubit state of shape (4**n,) or (4**n, S)."""
    state = np.asarray(state)
    D = 2 ** (2 * n)
    if state.shape[0] != D:
        raise ValueError(f"state length {state.shape[0]} != 4**n = {D}")
    v = fwht(fwht(state.reshape(2 ** n, 2 ** n, -1), axis=0), axis=1)
    return v.reshape(state.shape)


# ---------------------------------------------------------------------------
# structured operator primitives


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit I/X/Y/Z, most significant qubit first."""

    letters: str

    def __post_init__(self):
        if set(self.letters) - set("IXYZ"):
            raise ValueError(f"invalid Pauli letters {self.letters!r}")


@dataclass(frozen=True)
class PauliSum:
    """Weighted sum of Pauli strings on the same qubit count."""

    terms: tuple  # of (coeff: float, PauliString)

    def __post_init__(self):
        lengths = {len(s.letters) for _, s in self.terms}
        if len(lengths) > 1:
            raise ValueError("PauliSum terms act on differing qubit counts")


@dataclass(frozen=True)
class SwapNetwork:
    """Product of SWAP_(i, i+n) over i = 0..n-1: exchanges the registers."""


@dataclass(frozen=True)
class GlobalWHT:
    """H^(x)2n on the full register pair."""


Primitive = (PauliString, PauliSum, SwapNetwork, GlobalWHT)


@dataclass(frozen=True)
class ObservableExpr:
    """Ordered composition of primitives: factors[0] @ factors[1] @ ...

    Application to a ket runs right-to-left. Hermiticity of the composition
    is not guaranteed by construction; pool building validates it densely.
    """

    name: str
    factors: tuple = field(default=())

    def __post_init__(self):
        for f in self.factors:
            if not isinstance(f, Primitive):
                raise TypeError(f"unsupported primitive {type(f).__name__}")


def _masks(letters: str):
    """Bit masks for flips (X/Y) and phases (Y/Z), plus the Y count."""
    nq = len(letters)
    flip = 0
    yz = 0
    ny = 0
    for i, c in enumerate(letters):
        bit = 1 << (nq - 1 - i)
        if c in "XY":
            flip |= bit
        if c in "YZ":
            yz |= bit
        if c == "Y":
            ny += 1
    return flip, yz, ny


def _parity(values: np.ndarray) -> np.ndarray:
    return (np.bitwise_count(values) & 1).astype(np.int8)


def _apply_pauli_string(state: np.ndarray, letters: str) -> np.ndarray:
    D = state.shape[0]
    nq = len(letters)
    if D != 2 ** nq:
        raise ValueError(f"state length {D} != 2**{nq}")
    flip, yz, ny = _masks(letters)
    src = np.arange(D, dtype=np.int64) ^ flip
    sign = 1 - 2 * _parity(src & yz)
    phase = (1j) ** ny
    if ny % 2 == 0:
        phase = phase.real  # keeps real states real under X/Z/even-Y strings
    return phase * (state[src] * sign.reshape((D,) + (1,) * (state.ndim - 1)))


def apply_primitive(state: np.ndarray, prim, n: int) -> np.ndarray:
    """Apply one primitive to a 2n-qubit state of shape (4**n,) or (4**n, S)."""
    state = np.asarray(state)
    if isinstance(prim, PauliString):
        return _apply_pauli_string(state, prim.letters)
    if isinstance(prim, PauliSum):
        out = None
        for coeff, s in prim.terms:
            term = coeff * _apply_pauli_string(state, s.letters)
            out = term if out is None else out + term
        if out is None:
            return np.zeros_like(state)
        return out
    if isinstance(prim, SwapNetwork):
        tail = state.shape[1:]
        v = state.reshape(2 ** n, 2 ** n, -1)
        return np.ascontiguousarray(v.swapaxes(0, 1)).reshape((state.shape[0],) + tail)
    if isinstance(prim, GlobalWHT):
        return apply_wht(state, n)
    raise TypeError(f"unsupported primitive {type(prim).__name__}")


def apply_observable(state: np.ndarray, expr: ObservableExpr, n: int) -> np.ndarray:
    """Apply expr (factors composed left-to-right) to a ket."""
    v = np.asarray(state)
    for prim in reversed(expr.factors):
        v = apply_primitive(v, prim, n)
    return v


def expectation(state: np.ndarray, expr: ObservableExpr, n: int,
                imag_tol: float = 1e-9) -> float:
    """<v|O|v> for one state: expectation_batch, which rejects the
    imaginary residue of a non-Hermitian composition."""
    return float(expectation_batch(np.asarray(state), expr, n, imag_tol))


def expectation_batch(states: np.ndarray, expr: ObservableExpr, n: int,
                      imag_tol: float = 1e-9) -> np.ndarray:
    """Column-wise expectations for states of shape (D, S) or (D,).

    A persistent imaginary part signals a non-Hermitian composition and
    raises rather than being silently discarded.
    """
    w = apply_observable(states, expr, n)
    vals = np.einsum("d...,d...->...", states.conj(), w)
    if np.max(np.abs(vals.imag)) >= imag_tol:
        raise ValueError(
            f"expectation of {expr.name!r} has imaginary residue; "
            "composition is not Hermitian")
    return vals.real


def commutes(a: ObservableExpr, b: ObservableExpr, n: int) -> bool:
    """Whether [A, B] = 0 at register size n, tested as [A, B] v = 0 on a
    fixed-seed random complex block v.

    A nonzero commutator annihilates a random v with probability 0, so the
    answer holds for the operators themselves. The test runs at n, not at a
    small certification size: two nearest-neighbour sums can commute at
    n = 2, where each register has one pair, and not at n >= 3.
    """
    rng = np.random.default_rng(0)
    v = rng.standard_normal((4 ** n, 2)) + 1j * rng.standard_normal((4 ** n, 2))
    ab = apply_observable(apply_observable(v, b, n), a, n)
    ba = apply_observable(apply_observable(v, a, n), b, n)
    scale = np.linalg.norm(ab) + np.linalg.norm(ba)
    # over the pool at n = 2..4: <= 2e-16 when commuting, >= 0.46 when not
    return bool(np.linalg.norm(ab - ba) <= 1e-10 * scale)


# ---------------------------------------------------------------------------
# forrelation


def forrelation(x1, x2) -> float:
    """F = |<phi_x1| H^(x)n |phi_x2>|^2 via one fast transform, O(N log N)."""
    a1 = phase_state(x1)
    a2 = phase_state(x2)
    if a1.size != a2.size:
        raise ValueError("barcode length mismatch")
    val = float(np.dot(a1, fwht(a2)))
    return val * val


# ---------------------------------------------------------------------------
# dense validation path (small n only)


_P2 = {
    "I": np.eye(2),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    "Z": np.diag([1.0, -1.0]),
}


def dense_primitive(prim, n: int) -> np.ndarray:
    """Dense matrix of one primitive on 2n qubits (validation path)."""
    nq = 2 * n
    if isinstance(prim, PauliString):
        if len(prim.letters) != nq:
            raise ValueError("Pauli string length != 2n")
        out = np.array([[1.0]])
        for c in prim.letters:
            out = np.kron(out, _P2[c])
        return out
    if isinstance(prim, PauliSum):
        D = 2 ** nq
        out = np.zeros((D, D), dtype=complex)
        for coeff, s in prim.terms:
            out = out + coeff * dense_primitive(s, n)
        return out
    if isinstance(prim, SwapNetwork):
        D = 2 ** nq
        out = np.zeros((D, D))
        half = 2 ** n
        for j in range(D):
            hi, lo = divmod(j, half)
            out[lo * half + hi, j] = 1.0
        return out
    if isinstance(prim, GlobalWHT):
        h = SQRT2_INV * np.array([[1.0, 1.0], [1.0, -1.0]])
        out = np.array([[1.0]])
        for _ in range(nq):
            out = np.kron(out, h)
        return out
    raise TypeError(f"unsupported primitive {type(prim).__name__}")


def dense_observable(expr: ObservableExpr, n: int) -> np.ndarray:
    D = 2 ** (2 * n)
    out = np.eye(D, dtype=complex)
    for prim in expr.factors:
        out = out @ dense_primitive(prim, n)
    return out
