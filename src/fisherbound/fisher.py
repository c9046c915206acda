"""Fisher information matrices, spectral utilities, and estimability tests.

The classical Fisher matrix of a model is the model's own analytic_fisher,
summed over every outcome, which fim checks for finiteness.  Alongside it
sit the structural Bell-measurement Fisher matrix U^T D U, the single-copy
trace bound on the Fisher diagonal at the maximally mixed state, and the
Moore-Penrose machinery, in which one split of F's eigenvalues at
RANK_TOL decides singularity and estimability.
"""

import math
from dataclasses import dataclass

import numpy as np

from .models import DomainError
from .pauli import PauliIndex, num_paulis, pauli_matrix, sign_matrix, validate_rates

__all__ = [
    "FimUndefinedError",
    "FisherMatrix",
    "TraceBoundResult",
    "bell_fim_structural",
    "fim",
    "single_copy_trace_bound",
]

RANK_TOL = 1e-10
SYMMETRY_TOL = 1e-10
PSD_TOL = 1e-10


class FimUndefinedError(ValueError):
    """The Fisher matrix does not exist at the requested parameter point."""


class FisherMatrix:
    """Symmetric PSD matrix with its inverse side, computed once as read-only values.

    Eigenvalues are stored ascending; those at or below RANK_TOL * lambda_max
    are null.  That one split, made here alone, decides is_singular; the
    Moore-Penrose pseudoinverse pinv and its diagonal inverse_diag;
    opnorm_inverse = lambda_max(pinv) = 1 / smallest kept eigenvalue (0.0
    when none is kept) and its eigenvector top_eigvec (None when none is
    kept, never a null direction); and estimable, whether e_a lies in the
    range of F: its projection onto the null eigenvectors has norm at most
    1e-8, so a nonsingular F, however ill-conditioned, has every coordinate
    estimable.  Every array, the matrix and eigh's included, is read-only.
    """

    def __init__(self, matrix):
        matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"expected a square matrix, got {matrix.shape}")
        scale = max(1.0, float(np.abs(matrix).max()))
        if np.abs(matrix - matrix.T).max() > SYMMETRY_TOL * scale:
            raise ValueError("matrix is not symmetric")
        self.matrix = 0.5 * (matrix + matrix.T)
        self.d = matrix.shape[0]
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(self.matrix)
        lam_max = float(self.eigenvalues[-1]) if self.d else 0.0
        if self.eigenvalues.size and self.eigenvalues[0] < -PSD_TOL * max(1.0, lam_max):
            raise ValueError(
                f"matrix is not positive semidefinite: min eigenvalue "
                f"{self.eigenvalues[0]!r}"
            )
        kept = self.eigenvalues > RANK_TOL * max(lam_max, 0.0)
        self.is_singular = not kept.all()
        inv_eigs = np.divide(1.0, self.eigenvalues, out=np.zeros(self.d), where=kept)
        self.pinv = (self.eigenvectors * inv_eigs) @ self.eigenvectors.T
        self.estimable = np.linalg.norm(self.eigenvectors[:, ~kept], axis=1) <= 1e-8
        for array in (self.matrix, self.eigenvalues, self.eigenvectors, self.pinv,
                      self.estimable):
            array.flags.writeable = False
        # views of read-only arrays, so read-only themselves
        self.inverse_diag = np.diag(self.pinv)
        kept_at = np.flatnonzero(kept)
        self.opnorm_inverse = 1.0 / float(self.eigenvalues[kept_at[0]]) if kept_at.size else 0.0
        self.top_eigvec = self.eigenvectors[:, kept_at[0]] if kept_at.size else None


def fim(model, theta) -> FisherMatrix:
    """Classical Fisher information matrix of a model at theta.

    The matrix is the model's analytic_fisher, a sum over every outcome.
    It is undefined at a point outside the open domain, and where it is
    not finite: near the domain boundary a score can overflow float64.
    """
    try:
        theta = model.validate_theta(np.asarray(theta, dtype=float))
    except DomainError as exc:
        raise FimUndefinedError(str(exc))
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = model.analytic_fisher(theta)
    if not np.isfinite(matrix).all():
        raise FimUndefinedError(f"{model.scheme}: Fisher matrix at parameter "
                                f"{theta!r} is not finite")
    return FisherMatrix(matrix)


def bell_fim_structural(p, n: int) -> FisherMatrix:
    """Fisher matrix of Bell-basis sampling, built from its U^T D U structure.

    The full matrix over all 4^n eigenvalue coordinates factors as
    U^T D U with U the orthonormal Walsh-Hadamard matrix and
    D = diag(1 / (p_a 4^n)); the matrix for the free coordinates is the
    principal submatrix that deletes row and column 0.  Its eigenvalues
    interlace the sorted diagonal of D.
    """
    p = validate_rates(p)
    if np.any(p <= 0.0):
        raise ValueError("structural Fisher matrix requires all rates positive")
    size = num_paulis(n)
    if p.shape != (size,):
        raise ValueError(f"expected {size} rates for n={n}")
    u = sign_matrix(n) / math.sqrt(size)
    d = 1.0 / (p * size)
    full = (u.T * d) @ u
    return FisherMatrix(full[1:, 1:])


@dataclass(frozen=True)
class TraceBoundResult:
    """Sum of Fisher diagonals at the maximally mixed state and its cap."""

    trace_sum: float
    bound: float
    witness_index: int
    witness_value: float


def single_copy_trace_bound(povm, n: int) -> TraceBoundResult:
    """Fisher-diagonal trace bound for single-copy Pauli expectation estimation.

    For any POVM measured on one copy of the maximally mixed n-qubit
    state, sum_a [F]_aa = 2^-n sum_x Tr[Pi_x P_a]^2 / Tr[Pi_x] over the
    non-identity Paulis is at most 2^n - 1, so some coordinate has
    [F]_aa <= (2^n - 1) / (4^n - 1); the returned witness attains the
    minimum diagonal.
    """
    if n > 3:
        raise ValueError("dense POVM evaluation limited to n <= 3")
    dim = 2**n
    povm = [np.asarray(e, dtype=complex) for e in povm]
    total = sum(povm)
    if np.abs(total - np.eye(dim)).max() > 1e-8:
        raise ValueError("POVM elements must sum to the identity")
    for element in povm:
        if np.abs(element - element.conj().T).max() > 1e-8:
            raise ValueError("POVM elements must be Hermitian")
        if np.linalg.eigvalsh(element).min() < -1e-8:
            raise ValueError("POVM elements must be positive semidefinite")

    paulis = [pauli_matrix(PauliIndex(a, n)) for a in range(1, num_paulis(n))]
    diag = np.zeros(len(paulis))
    for element in povm:
        weight = float(np.real(np.trace(element)))
        if weight <= 1e-14:
            continue
        for a, matrix in enumerate(paulis):
            overlap = float(np.real(np.trace(element @ matrix)))
            diag[a] += overlap**2 / weight
    diag /= dim
    bound = float(2**n - 1)
    trace_sum = float(diag.sum())
    if trace_sum > bound + 1e-8:
        raise AssertionError(
            f"trace bound violated: {trace_sum!r} > {bound!r}; "
            "the POVM evaluation is inconsistent"
        )
    witness = int(np.argmin(diag))
    return TraceBoundResult(
        trace_sum=trace_sum,
        bound=bound,
        witness_index=witness + 1,
        witness_value=float(diag[witness]),
    )

