"""Pauli index bookkeeping and the symplectic Walsh-Hadamard transform.

An n-qubit Pauli operator is labelled by an integer a in [0, 4^n).  The
binary layout packs the x bits in the high n positions and the z bits in
the low n positions, so a = 0 is the identity, and for n = 1 the indices
0, 1, 2, 3 are I, Z, X, Y.  Error-rate vectors and eigenvalue vectors of a
Pauli channel are related by the symplectic Walsh-Hadamard transform

    w_b = sum_a (-1)^<a, b> v_a,

where <a, b> is the symplectic inner product of the bit layouts.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PauliIndex",
    "eigenvalues_to_rates",
    "fwht",
    "num_paulis",
    "pauli_matrix",
    "product_probe",
    "random_valid_eigenvalues",
    "rates_to_eigenvalues",
    "sign_matrix",
    "symplectic_product",
    "validate_rates",
]

SIMPLEX_TOL = 1e-12
DENSE_QUBIT_LIMIT = 6


def num_paulis(n: int) -> int:
    """Number of n-qubit Pauli operators, 4^n."""
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n!r}")
    return 4**n


@dataclass(frozen=True)
class PauliIndex:
    """Index a in [0, 4^n) of an n-qubit Pauli operator."""

    a: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"qubit count must be >= 1, got {self.n!r}")
        if not 0 <= self.a < 4**self.n:
            raise ValueError(f"index {self.a!r} out of range for n={self.n!r}")

    @property
    def x_bits(self) -> int:
        return self.a >> self.n

    @property
    def z_bits(self) -> int:
        return self.a & ((1 << self.n) - 1)


def symplectic_product(a: PauliIndex, b: PauliIndex) -> int:
    """Symplectic inner product sum_k (a_xk*b_zk + a_zk*b_xk) mod 2.

    Zero exactly when the two Pauli operators commute.
    """
    if a.n != b.n:
        raise ValueError(f"mismatched qubit counts: {a.n} vs {b.n}")
    return (
        int(a.x_bits & b.z_bits).bit_count() + int(a.z_bits & b.x_bits).bit_count()
    ) % 2


def _qubit_count_for_length(size: int) -> int:
    n = round(math.log(size, 4)) if size > 1 else 0
    if n < 1 or 4**n != size:
        raise ValueError(f"length {size} is not a power of 4")
    return n


def fwht(v: np.ndarray) -> np.ndarray:
    """Fast symplectic Walsh-Hadamard transform along the last axis.

    Input length must be 4^n.  Implemented as the ordinary dyadic
    Hadamard butterfly followed by the index permutation that swaps the x
    and z halves of each index, which converts the dyadic pairing into the
    symplectic one.  Applying the transform twice multiplies by 4^n.  It
    runs on v.T and returns the result's transpose, contiguous for 1-D v.
    """
    v = np.asarray(v, dtype=float)
    buffers = np.empty((2,) + v.shape[::-1])
    buffers[0] = v.T
    return _fwht_buffers(buffers).T


def _fwht_buffers(buffers: np.ndarray) -> np.ndarray:
    """fwht along the leading axis of buffers[0], using buffers[1] as scratch.

    buffers is a C-contiguous float array of shape (2, 4^n, ...), batch
    axes trailing, so each butterfly stage is one np.add and one
    np.subtract over contiguous runs of h times the batch size.  Each stage
    writes from one half into the other, and the final permutation writes
    back, so the transform allocates nothing.  Returns the result's half.
    """
    size = buffers.shape[1]
    n = _qubit_count_for_length(size)
    src, dst = buffers[0], buffers[1]
    h = 1
    while h < size:
        a = src.reshape(size // (2 * h), 2, -1)
        b = dst.reshape(a.shape)
        np.add(a[:, 0], a[:, 1], out=b[:, 0])
        np.subtract(a[:, 0], a[:, 1], out=b[:, 1])
        src, dst = dst, src
        h *= 2
    return np.take(src, _swap_permutation(n), axis=0, out=dst, mode="clip")


@functools.cache
def _swap_permutation(n: int) -> np.ndarray:
    idx = np.arange(4**n)
    mask = (1 << n) - 1
    perm = ((idx & mask) << n) | (idx >> n)
    perm.flags.writeable = False  # cached: shared by every later call
    return perm


def sign_matrix(n: int) -> np.ndarray:
    """Dense K x K matrix S with S[x, a] = (-1)^<x, a>, K = 4^n.

    The x/z swap that fwht applies after its butterfly carries a's x bits
    to the low half and its z bits to the high half, so x & swap(a) holds
    exactly the bits of x_x & a_z and x_z & a_x, and <x, a> is its
    popcount mod 2.
    """
    idx = np.arange(num_paulis(n))
    parity = np.bitwise_count(idx[:, None] & _swap_permutation(n)) & 1
    return 1.0 - 2.0 * parity


def validate_rates(p: np.ndarray) -> np.ndarray:
    """Check that p is a probability vector of length 4^n and return it."""
    p = np.asarray(p, dtype=float)
    _qubit_count_for_length(p.shape[-1])
    if np.any(p < -SIMPLEX_TOL):
        raise ValueError(f"negative Pauli error rate: min={p.min()!r}")
    total = p.sum(axis=-1)
    if np.any(np.abs(total - 1.0) > SIMPLEX_TOL):
        raise ValueError(f"Pauli error rates must sum to 1, got {total!r}")
    return p


def rates_to_eigenvalues(p: np.ndarray) -> np.ndarray:
    """Pauli eigenvalues lam_b = sum_a (-1)^<a,b> p_a of an error-rate vector."""
    p = validate_rates(p)
    lam = fwht(p)
    lam[..., 0] = 1.0
    return lam


def eigenvalues_to_rates(lam: np.ndarray) -> np.ndarray:
    """Error rates p = fwht(lam) / 4^n; inverse of rates_to_eigenvalues.

    Raises ValueError unless lam_0 = 1, |lam_a| <= 1 and the channel is
    completely positive; that check reads the same transform it returns.
    """
    lam = np.asarray(lam, dtype=float)
    _qubit_count_for_length(lam.shape[-1])
    if abs(lam[0] - 1.0) > SIMPLEX_TOL:
        raise ValueError(f"eigenvalue of the identity must be 1, got {lam[0]!r}")
    if np.any(np.abs(lam) > 1.0 + SIMPLEX_TOL):
        raise ValueError("Pauli eigenvalues must lie in [-1, 1]")
    rates = fwht(lam) / lam.shape[-1]
    if np.any(rates < -SIMPLEX_TOL):
        raise ValueError(
            "not a channel: eigenvalues map to negative error rates "
            f"(min={rates.min()!r})"
        )
    return rates


_FACTORS = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    (0, 1): np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    (1, 1): np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
}


def pauli_matrix(index: PauliIndex) -> np.ndarray:
    """Dense 2^n x 2^n matrix of P_a = kron_k i^(x_k z_k) X^x_k Z^z_k."""
    n = index.n
    if n > DENSE_QUBIT_LIMIT:
        raise ValueError(f"dense Pauli matrices limited to n <= {DENSE_QUBIT_LIMIT}")
    mat = np.eye(1, dtype=complex)
    for k in range(n):
        x = (index.x_bits >> (n - 1 - k)) & 1
        z = (index.z_bits >> (n - 1 - k)) & 1
        mat = np.kron(mat, _FACTORS[(x, z)])
    return mat


def random_valid_eigenvalues(n: int, rng: np.random.Generator,
                             size: int | None = None) -> np.ndarray:
    """Draw a uniformly random valid Pauli channel, returned as eigenvalues.

    Samples error rates uniformly on the probability simplex and maps them
    through the Walsh-Hadamard transform.  Because that map is a linear
    bijection, this is distributed identically to rejection sampling of
    eigenvalue vectors from the hypercube, but runs in constant time.
    With size=k it returns a (k, 4^n) array from one Dirichlet call and
    one batched transform, row for row the bits of k calls without size.
    """
    rates = rng.dirichlet(np.ones(num_paulis(n)), size=size)
    return rates_to_eigenvalues(rates)


def product_probe(bloch_vectors: np.ndarray) -> np.ndarray:
    """Pauli expectation vector r of a product state with given Bloch vectors.

    bloch_vectors has shape (n, 3) with rows (b_x, b_y, b_z); each row of
    norm <= 1.  Returns r of length 4^n with r_0 = 1 and, for a Pauli
    string a, r_a equal to the product over qubits of the matching Bloch
    component (1 for identity factors).
    """
    bloch = np.atleast_2d(np.asarray(bloch_vectors, dtype=float))
    if bloch.shape[1] != 3:
        raise ValueError("bloch_vectors must have shape (n, 3)")
    norms = np.linalg.norm(bloch, axis=1)
    if np.any(norms > 1.0 + 1e-9):
        raise ValueError(f"Bloch vector norm exceeds 1: {norms.max()!r}")
    n = bloch.shape[0]
    size = num_paulis(n)
    idx = np.arange(size)
    r = np.ones(size)
    for k in range(n):
        x = (idx >> (n + (n - 1 - k))) & 1
        z = (idx >> (n - 1 - k)) & 1
        # crumb (x, z): (0,0) identity, (1,0) X, (1,1) Y, (0,1) Z
        factors = np.ones(size)
        factors[(x == 1) & (z == 0)] = bloch[k, 0]
        factors[(x == 1) & (z == 1)] = bloch[k, 1]
        factors[(x == 0) & (z == 1)] = bloch[k, 2]
        r *= factors
    return r
