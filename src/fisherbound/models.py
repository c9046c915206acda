"""Finite-outcome statistical models with analytic log-likelihood derivatives.

Each model exposes the outcome distribution p_theta(x), its first three
log-likelihood derivatives, its Fisher matrix (analytic_fisher) and a
closed-form maximum-likelihood estimator: mle_batch maps a (trials, K)
count matrix to C-ordered rows of estimates (the bits of mle_lab's l2
error norm depend on the row layout), and StatModel.mle applies it to
one count vector.  estimate_batch draws the counts of many trials at
once and returns their estimates.
The finite-sample bounds read outcome moments at a parameter point from
two methods: score_moments (V_H and the projected-score third moments,
the same for both error norms) and envelope_moments (the mean and
variance of the third-derivative envelope over the ball of one norm).
The defaults enumerate the outcomes; the Gaussian model overrides both
with closed forms.  The Pauli measurement schemes and the classical
textbook models (Bernoulli, multinomial, truncated Poisson, Gaussian with
known covariance) all fit this surface, each built by its own factory or
constructor.

Models whose outcome probabilities are affine in the parameters share
the LinearOutcomeModel machinery: for p(x) = b_x + A_x . theta the score
is g_x = A_x / p, the Fisher matrix sum_x g_x A_x^T over every outcome,
the Hessian the rank-one -g_x g_x^T, and the third derivative the
rank-one tensor 2 g_x^(3).  That makes the ball supremum of the
third-derivative operator norm available in closed form, and the
Hessian-fluctuation moment V_H = E||l''(x) + F||_F^2 a sum over the
K x d score matrix: no model builds the K x d x d Hessian stack on the
way to a bound.  Their domain, p > 0 within an inclusive theta box, is
constructor data that contains and probs read through one rule.  The
Pauli models are dense in 4^n x 4^n arrays; their size, like the
classical models' dim and truncation, is checked against physical memory
before allocating, with ValueError when the estimate exceeds it.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .pauli import _fwht_buffers, num_paulis, random_valid_eigenvalues, sign_matrix

__all__ = [
    "GaussianKnownCovModel",
    "LinearOutcomeModel",
    "PoissonTruncatedModel",
    "StatModel",
    "bernoulli_model",
    "entangled_pauli_model",
    "multinomial_model",
    "separable_pauli_model",
    "two_copy_bell_model",
]

DOMAIN_MARGIN = 1e-6
# random_points pulls its draws this far toward the depolarizing point: the
# supremum is taken over the shrunk interior because the Fisher machinery
# degenerates on the domain boundary
DOMAIN_SHRINK = 1e-6

# Most 4^n x 4^n float64 arrays that a command on a dense Pauli model holds
# at once, measured as the traced peak of `bounds` (`fisher` needs fewer).
# Bell models: 9 (building the sign matrix takes 4; A and the K x d score
# arrays of the Fisher matrix and the moments take the rest), that is
# 75 MB at n = 5 and 1.2 GB at n = 6 above the interpreter's 45 MB.  The
# separable model: 15, since its A has 2 * 4^n rows.
BELL_DENSE_ARRAYS = 9
SEPARABLE_DENSE_ARRAYS = 15
# Classical models: the larger traced peak of `bounds` and `fisher` at dim
# 200-800 and truncation 1e5-4e6, in arrays of dim x dim (multinomial,
# gaussian-known-var) and of truncation + 1 floats (poisson).
MULTINOMIAL_DENSE_ARRAYS = 9
GAUSSIAN_DENSE_ARRAYS = 8
POISSON_ARRAYS = 8


class DomainError(ValueError):
    """Parameter point lies outside the model's open domain."""


@dataclass
class StatModel:
    """Base statistical model: d parameters, K outcomes.

    Subclasses implement probs, dlogp, analytic_fisher, d2logp/d3logp,
    hessian_fluctuation, third_derivative_envelope and mle_batch, or
    override score_moments and envelope_moments.
    theta is always a length-d float vector interior to the domain.
    The Pauli models set qubits, the qubit count n, and give a closed-form
    inverse-Fisher diagonal; the Bell models also draw random points.
    """

    d: int
    K: int
    scheme: str
    qubits: int | None = None

    def probs(self, theta: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def dlogp(self, theta: np.ndarray, p=None) -> np.ndarray:
        """(K, d) score per outcome; p, when given, is probs(theta)."""
        raise NotImplementedError

    def d2logp(self, theta: np.ndarray) -> np.ndarray:
        """(K, d, d) log-likelihood Hessian per outcome."""
        raise NotImplementedError

    def d3logp(self, theta: np.ndarray) -> np.ndarray:
        """(K, d, d, d) third log-likelihood derivative per outcome."""
        raise NotImplementedError

    def third_derivative_envelope(self, theta, radius):
        """Per-outcome estimate of sup 0.5*||d3logp||_op over a ball.

        The supremum runs over parameter points within Euclidean distance
        `radius` of theta.  Returns (envelope, exact_flag); entries may be
        +inf when the ball touches the domain boundary.
        """
        raise NotImplementedError

    def contains(self, theta: np.ndarray) -> bool:
        raise NotImplementedError

    def _vector(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.d,):
            raise ValueError(
                f"{self.scheme}: expected parameter vector of length {self.d}, "
                f"got shape {theta.shape}"
            )
        return theta

    def _domain_error(self, theta) -> DomainError:
        return DomainError(f"{self.scheme}: parameter {theta!r} outside the domain")

    def validate_theta(self, theta: np.ndarray) -> np.ndarray:
        theta = self._vector(theta)
        if not self.contains(theta):
            raise self._domain_error(theta)
        return theta

    def mle(self, counts: np.ndarray) -> np.ndarray:
        """MLE from one length-K vector of outcome counts."""
        counts = np.asarray(counts)
        if counts.shape != (self.K,):
            raise ValueError(f"expected {self.K} outcome counts, got shape {counts.shape}")
        if not counts.sum() > 0:
            raise ValueError("empty counts")
        return self.mle_batch(counts[None, :])[0]

    def mle_batch(self, counts: np.ndarray) -> np.ndarray:
        """Row-wise MLE for a (trials, K) count matrix, in C-ordered rows."""
        raise NotImplementedError

    def estimate_batch(self, theta, m, rng, trials):
        """MLEs of `trials` independent size-m samples, a (trials, d) array.

        Draws a (trials, K) multinomial count matrix from one generator
        call and applies mle_batch; theta must already be validated.
        """
        p = np.clip(self.probs(theta), 0.0, None)
        counts = rng.multinomial(m, p / p.sum(), size=trials)
        return self.mle_batch(counts)

    def analytic_fisher(self, theta):
        """(d, d) Fisher matrix E[g g^T] at theta, with every outcome in the sum."""
        raise NotImplementedError

    def closed_form_inverse_diag(self, theta):
        """Closed-form diagonal of F^-1 at theta, or None where none is known."""
        return None

    def random_points(self, rng, size):
        """Up to `size` random parameter points inside the domain, drawn from
        rng, for the supremum of the upper bounds; none by default."""
        return []

    def score_moments(self, theta, fisher):
        """(V_H, rho_diag, rho_top), the moments the bounds read at theta
        that do not depend on the criterion norm.

        fisher is the FisherMatrix at theta.  The default sums over the K
        outcomes: rho_diag[a] = E|e_a^T F^-1 score|^3, rho_top the same
        along fisher.top_eigvec() (0 when F is zero), and V_H =
        sum_x p_x ||l''(x) + F||_F^2 from the model's
        hessian_fluctuation(theta, p, scores, fisher).
        """
        p = self.probs(theta)
        scores = self.dlogp(theta, p)
        projected = scores @ fisher.pinv_matrix()  # column a is e_a^T F^-1 score(x)
        rho_diag = p @ np.abs(projected) ** 3
        top = fisher.top_eigvec()
        rho_top = 0.0 if top is None else float(p @ np.abs(projected @ top) ** 3)
        v_h = self.hessian_fluctuation(theta, p, scores, fisher)
        return v_h, rho_diag, rho_top

    def envelope_moments(self, theta, radius):
        """(mu_R, V_R, exact) over the parameter ball of the given radius.

        The default takes the mean and variance over the outcomes of
        third_derivative_envelope, whose flag is exact; an infinite
        envelope on an outcome of positive probability makes both +inf.
        """
        p = self.probs(theta)
        envelope, exact = self.third_derivative_envelope(theta, radius)
        if np.any(np.isinf(envelope) & (p > 0.0)):
            return math.inf, math.inf, exact
        mu_r = float(p @ envelope)
        return mu_r, float(p @ (envelope - mu_r) ** 2), exact


class LinearOutcomeModel(StatModel):
    """Model with affine outcome probabilities p(x) = b_x + A_x . theta,
    on the domain p > 0 and, given a box (lo, hi), lo <= theta_a <= hi."""

    def __init__(self, A, b, scheme, box=None):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        super().__init__(d=A.shape[1], K=A.shape[0], scheme=scheme)
        self.A = A
        self.b = b
        self._box = box
        self._row_norms = np.linalg.norm(A, axis=1)

    def _inside(self, theta, p):
        """Whether theta, with p = b + A @ theta, lies in the domain."""
        if self._box is not None:
            lo, hi = self._box
            if not ((lo <= theta) & (theta <= hi)).all():
                return False
        return bool((p > 0.0).all())

    def probs(self, theta):
        theta = self._vector(theta)
        p = self.b + self.A @ theta
        if not self._inside(theta, p):
            raise self._domain_error(theta)
        return p

    def dlogp(self, theta, p=None):
        if p is None:
            p = self.probs(theta)
        return self.A / p[:, None]

    def analytic_fisher(self, theta):
        """sum_x A_x A_x^T / p_x over every outcome; the domain keeps p > 0."""
        return self.dlogp(theta).T @ self.A

    def d2logp(self, theta):
        g = self.dlogp(theta)
        return -np.einsum("ki,kj->kij", g, g)

    def d3logp(self, theta):
        g = self.dlogp(theta)
        return 2.0 * np.einsum("ki,kj,kl->kijl", g, g, g)

    def hessian_fluctuation(self, theta, p, scores, fisher):
        """V_H from the (K, d) scores g_x, without the Hessian stack.

        Here l''(x) = -g_x g_x^T.  In the eigenbasis F = V diag(lam) V^T,
        with c_x = V^T g_x and a = c_x^2,
        ||g_x g_x^T - F||_F^2 = sum_i (a_i - lam_i)^2 + sum_{i != j} a_i a_j,
        a sum of non-negative terms, so nothing cancels even where V_H is
        near zero (a coin near 1/2).  The cross sum is taken as
        2 sum_j a_j (a_1 + ... + a_{j-1}).
        """
        a = np.square(scores @ fisher.eigenvectors)
        diag = np.square(a - fisher.eigenvalues).sum(axis=1)
        before = np.cumsum(a, axis=1)
        before -= a  # a_1 + ... + a_{j-1}, a difference of non-negative sums
        cross = 2.0 * np.einsum("kj,kj->k", a, before)
        return float(p @ (diag + cross))

    def third_derivative_envelope(self, theta, radius):
        """Exact ball supremum of 0.5*||d3logp||_op for affine probabilities.

        The third derivative at any point is 2 (A_x/p)^(3) with operator
        norm 2 ||A_x||^3 / p^3, and p is affine along the ball, so the
        supremum sits at the minimal probability p_x - radius*||A_x||.
        Non-positive minima mean the ball reaches the boundary where the
        supremum diverges; those entries are +inf.
        """
        p = self.probs(theta)
        p_min = p - radius * self._row_norms
        envelope = np.full(self.K, np.inf)
        ok = p_min > 0.0
        envelope[ok] = self._row_norms[ok] ** 3 / p_min[ok] ** 3
        return envelope, True

    def contains(self, theta):
        theta = np.asarray(theta, dtype=float)
        return self._inside(theta, self.b + self.A @ theta)


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_memory(what, arrays, elements, shape):
    """Reject, before allocating, `arrays` float64 arrays of `elements`
    entries that exceed physical memory.  Sizes are exact integers, which
    do not overflow as floats would."""
    need = arrays * elements * 8
    have = _physical_memory()
    if need > have:
        raise ValueError(
            f"{what} needs about {-(-need >> 30)} GiB of {shape} arrays, "
            f"more than the {have >> 30} GiB of physical memory"
        )


def _check_dense_size(scheme, n, arrays):
    """_check_memory for a dense Pauli model of 4^n x 4^n arrays."""
    _check_memory(f"{scheme} at n={n}", arrays, 16**n, f"dense 4^{n} x 4^{n}")


class _PauliBellModel(LinearOutcomeModel):
    """Shared machinery for the two schemes measured in the Bell basis."""

    def __init__(self, n, scheme, box=None):
        _check_dense_size(scheme, n, BELL_DENSE_ARRAYS)
        size = num_paulis(n)
        signs = sign_matrix(n)
        super().__init__(signs[:, 1:] / size, signs[:, 0] / size, scheme, box)
        self.qubits = n

    def closed_form_inverse_diag(self, theta):
        """Inverse-QFIM diagonal 1 - theta_a^2 of Pauli expectation values."""
        theta = np.asarray(theta, dtype=float)
        if np.any(np.abs(theta) > 1.0):
            raise ValueError("Pauli expectation values must lie in [-1, 1]")
        return 1.0 - theta**2

    def random_points(self, rng, size):
        """Random channels from random_valid_eigenvalues, shrunk by
        DOMAIN_SHRINK, as C-ordered rows like single draws; a boxed model
        (two-copy-bell, whose parameters are squared moments) takes their
        absolute values.  Points outside the domain are dropped."""
        draws = random_valid_eigenvalues(self.qubits, rng, size=size)
        lam = (1.0 - DOMAIN_SHRINK) * np.ascontiguousarray(draws[:, 1:])
        points = lam if self._box is None else np.abs(lam)
        return [point for point in points if self.contains(point)]

    def mle_batch(self, counts):
        # integer counts are cast inside the ufuncs and land outcome-major
        counts = np.asarray(counts)
        totals = counts.sum(axis=1, dtype=float)
        buffers = np.empty((2,) + counts.shape[::-1])
        np.divide(counts.T, totals, out=buffers[0])
        return _fwht_buffers(buffers)[1:].T.copy()


def entangled_pauli_model(n: int) -> StatModel:
    """Pauli-channel learning with a maximally entangled probe.

    The channel acts on half of a maximally entangled pair and the output
    is measured in the Bell basis; outcome x then occurs with probability
    4^-n * sum_a lam_a (-1)^<x, a>, i.e. the error rate p_x.  Parameters
    are the non-identity eigenvalues lam_1..lam_{4^n - 1} (lam_0 = 1).
    """
    return _PauliBellModel(n, "entangled-pauli")


def two_copy_bell_model(n: int) -> StatModel:
    """Bell-sampling on two state copies; parameters are squared moments.

    Measuring rho x rho in the Bell basis gives outcome probabilities
    4^-n * sum_a s_a (-1)^<x, a> with s_a = c_a^2 the squared Pauli
    expectation values (s_0 = 1), the same affine family as the entangled
    channel scheme with lam_a replaced by s_a.  Estimating |c_a| to
    additive error eps corresponds to estimating s_a to error
    eps_s = eps**2.
    """
    return _PauliBellModel(n, "two-copy-bell", box=(0.0, 1.0))


class _SeparablePauliModel(LinearOutcomeModel):
    """Single channel use on an unentangled probe, one Pauli axis per shot.

    Each shot picks one of the d = 4^n - 1 non-identity axes uniformly at
    random and measures the channel output projectively along it, giving
    the binary outcome +/-1 with probabilities (1 +/- r_m lam_m) / 2.
    Outcomes are laid out as (axis 1, +), (axis 1, -), (axis 2, +), ...
    Axes with r_m = 0 carry no information about lam_m.
    """

    def __init__(self, n, r):
        _check_dense_size("separable-pauli", n, SEPARABLE_DENSE_ARRAYS)
        r = np.asarray(r, dtype=float)
        d = num_paulis(n) - 1
        if r.shape == (d + 1,):
            if abs(r[0] - 1.0) > 1e-12:
                raise ValueError("identity component of the probe must be 1")
            r = r[1:]
        elif r.shape != (d,):
            raise ValueError(f"probe vector must have length {d} or {d + 1}")
        excess = float(np.sum(r**2)) - (2**n - 1)
        if excess > 1e-9:
            raise ValueError(
                f"probe violates the purity constraint by {excess!r}: "
                f"sum of squared components must be <= 2^n - 1"
            )
        A = np.zeros((2 * d, d))
        rows = np.arange(d)
        A[2 * rows, rows] = r / (2.0 * d)
        A[2 * rows + 1, rows] = -r / (2.0 * d)
        b = np.full(2 * d, 1.0 / (2.0 * d))
        super().__init__(A, b, scheme="separable-pauli", box=(-1.0, 1.0))
        self.qubits = n
        self.r = r
        self.identifiable = r != 0.0

    def closed_form_inverse_diag(self, theta):
        """Inverse-QFIM diagonal (1 - r_a^2 theta_a^2) / r_a^2 of the probe;
        +inf on the axes with r_a = 0."""
        r2 = self.r**2
        return np.divide(1.0 - r2 * np.asarray(theta, dtype=float) ** 2, r2,
                         out=np.full(r2.shape, np.inf), where=self.identifiable)

    def mle_batch(self, counts):
        counts = np.asarray(counts)
        plus = counts[:, 0::2]
        minus = counts[:, 1::2]
        per_axis = np.add(plus, minus, dtype=float)
        # unseen axes have plus = minus = 0, so their difference is the 0 estimate
        est = np.subtract(plus, minus, dtype=float)
        np.divide(est, per_axis, out=est, where=per_axis > 0)
        np.divide(est, self.r, out=est, where=self.identifiable)
        est[:, ~self.identifiable] = 0.0
        return np.clip(est, -1.0, 1.0, out=est)


def separable_pauli_model(n: int, r) -> LinearOutcomeModel:
    return _SeparablePauliModel(n, r)


class _FrequencyMLEModel(LinearOutcomeModel):
    """Affine model whose MLE is the empirical frequency of the first d outcomes."""

    def mle_batch(self, counts):
        counts = np.asarray(counts, dtype=float)
        return counts[:, : self.d] / counts.sum(axis=1, keepdims=True)


def bernoulli_model() -> LinearOutcomeModel:
    """Single-coin model, outcomes (success, failure), theta in (0, 1)."""
    return _FrequencyMLEModel(
        A=np.array([[1.0], [-1.0]]), b=np.array([0.0, 1.0]), scheme="bernoulli"
    )


def multinomial_model(d: int) -> LinearOutcomeModel:
    """K = d + 1 outcomes with free probabilities theta_1..theta_d."""
    if d < 1:
        raise ValueError("multinomial needs d >= 1")
    _check_memory(f"multinomial at dim={d}", MULTINOMIAL_DENSE_ARRAYS, int(d) ** 2,
                  f"dense {d} x {d}")
    A = np.vstack([np.eye(d), -np.ones((1, d))])
    b = np.concatenate([np.zeros(d), [1.0]])
    return _FrequencyMLEModel(A=A, b=b, scheme="multinomial")


class PoissonTruncatedModel(StatModel):
    """Poisson model truncated at outcome K and renormalised.

    p_k = (theta^k / k!) / Z(theta) for k = 0..K with Z the truncated
    exponential series.  Derivatives of log Z follow from the identity
    Z^(m) = Z_{K-m}.  The closed-form MLE is the sample mean, exact for
    the untruncated family.
    """

    def __init__(self, truncation: int = 20):
        if truncation < 1:
            raise ValueError("truncation must be >= 1")
        _check_memory(f"poisson at truncation={truncation}", POISSON_ARRAYS,
                      int(truncation) + 1, f"length-{truncation + 1}")
        super().__init__(d=1, K=truncation + 1, scheme="poisson")
        self._log_factorials = np.cumsum(
            np.concatenate([[0.0], np.log(np.arange(1, truncation + 1))])
        )
        self._ks = np.arange(truncation + 1, dtype=float)

    def _weights(self, t):
        """theta^k / k! for every outcome k, formed in log space; scaled by one
        factor, which no ratio of them sees, where they or their sum overflow."""
        logs = self._ks * math.log(t) - self._log_factorials
        with np.errstate(over="ignore"):
            weights = np.exp(logs)
            return weights if math.isfinite(weights.sum()) else np.exp(logs - logs.max())

    def _partial_sums(self, t):
        """Z_0..Z_3 from one weight array: Z_m sums the weights of the
        outcomes k <= truncation - m (0 when there are none)."""
        weights = self._weights(t)
        return [float(weights[: max(self.K - m, 0)].sum()) for m in range(4)]

    def probs(self, theta):
        theta = self.validate_theta(theta)
        weights = self._weights(float(theta[0]))
        return weights / weights.sum()

    def dlogp(self, theta, p=None):
        """(K, 1) score k/theta - Z_1/Z_0, finite also where p_k underflows to 0."""
        t = float(np.asarray(theta, dtype=float)[0])
        z0, z1, _, _ = self._partial_sums(t)
        return (self._ks / t - z1 / z0)[:, None]

    def analytic_fisher(self, theta):
        """[[sum_k (p_k s_k) s_k]] over every outcome, with s = dlogp, so
        F ~ 1/theta also where p_k underflows; p_k s_k is formed first so
        that s_k^2 never overflows."""
        p = self.probs(theta)
        s = self.dlogp(theta, p)[:, 0]
        return np.array([[(p * s) @ s]])

    def _logz_derivatives(self, t):
        z0, z1, z2, z3 = self._partial_sums(t)
        l1 = z1 / z0
        l2 = z2 / z0 - l1 * l1
        l3 = z3 / z0 - 3.0 * (z2 / z0) * l1 + 2.0 * l1**3
        return l1, l2, l3

    def d2logp(self, theta):
        # a float64 scalar, whose powers overflow to inf where a float's raise
        t = np.asarray(theta, dtype=float)[0]
        _, l2, _ = self._logz_derivatives(t)
        return (-self._ks / t**2 - l2).reshape(self.K, 1, 1)

    def d3logp(self, theta):
        t = np.asarray(theta, dtype=float)[0]
        _, _, l3 = self._logz_derivatives(t)
        return (2.0 * self._ks / t**3 - l3).reshape(self.K, 1, 1, 1)

    def hessian_fluctuation(self, theta, p, scores, fisher):
        """V_H over the K outcomes of the 1 x 1 Hessians."""
        return float(p @ (self.d2logp(theta)[:, 0, 0] + fisher.matrix[0, 0]) ** 2)

    def third_derivative_envelope(self, theta, radius):
        """Grid-refined supremum over the interval [theta - r, theta + r].

        A lower estimate of the true supremum (flagged exact=False).
        """
        t = float(np.asarray(theta, dtype=float)[0])
        lo = max(t - radius, DOMAIN_MARGIN)
        hi = t + radius
        grid = np.linspace(lo, hi, 65)
        best = np.zeros(self.K)
        for point in grid:
            best = np.maximum(best, 0.5 * np.abs(self.d3logp([point])[:, 0, 0, 0]))
        return best, False

    def contains(self, theta):
        return bool(np.asarray(theta, dtype=float)[0] > 0.0)

    def mle_batch(self, counts):
        counts = np.asarray(counts, dtype=float)
        return (counts @ self._ks)[:, None] / counts.sum(axis=1)[:, None]


class GaussianKnownCovModel(StatModel):
    """Gaussian location model with known covariance; handled analytically.

    The log-likelihood is quadratic in theta, so the Fisher matrix is the
    constant inv(Sigma), the Hessian never fluctuates, and the third
    derivative vanishes identically.  Outcomes are continuous; sampling
    draws the sufficient statistic (the sample mean) directly.
    """

    def __init__(self, cov):
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        d = cov.shape[0]
        super().__init__(d=d, K=0, scheme="gaussian-known-var")
        self.cov = cov
        self.cov_inv = np.linalg.inv(cov)
        self._chol = np.linalg.cholesky(cov)

    def contains(self, theta):
        return bool(np.all(np.isfinite(theta)))

    def analytic_fisher(self, theta):
        return self.cov_inv

    def probs(self, theta):
        raise ValueError("gaussian-known-var has continuous outcomes")

    def score_moments(self, theta, fisher):
        """V_H = 0 and rho = 2*sqrt(2/pi)*variance^(3/2).

        The projected score e_a^T F^-1 grad(log p) equals y_a - theta_a, a
        centred normal with variance Sigma_aa; along the top eigenvector
        of F^-1 its variance is lambda_max(F^-1).
        """
        rho_scale = 2.0 * math.sqrt(2.0 / math.pi)
        rho_diag = rho_scale * np.sqrt(np.diag(self.cov)) ** 3
        rho_top = rho_scale * fisher.opnorm_inverse() ** 1.5
        return 0.0, rho_diag, rho_top

    def envelope_moments(self, theta, radius):
        """mu_R = V_R = 0 exactly: the third derivative vanishes."""
        return 0.0, 0.0, True

    def estimate_batch(self, theta, m, rng, trials):
        # the MLE is the sample mean, which is drawn directly
        z = rng.standard_normal((trials, self.d))
        return np.asarray(theta, dtype=float) + (z @ self._chol.T) / math.sqrt(m)
