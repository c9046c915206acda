"""Finite-outcome statistical models with analytic log-likelihood derivatives.

Each model exposes the outcome distribution p_theta(x), its first three
log-likelihood derivatives, a closed-form maximum-likelihood estimator for
count data, and multinomial sampling.  The Pauli measurement schemes and
the classical textbook models (Bernoulli, multinomial, truncated Poisson,
Gaussian with known covariance) all fit this surface.

Models whose outcome probabilities are affine in the parameters share the
LinearOutcomeModel machinery: for p(x) = b_x + A_x . theta the score is
g_x = A_x / p, the Hessian the rank-one -g_x g_x^T, and the third
derivative the rank-one tensor 2 g_x^(3).  That makes the ball supremum of
the third-derivative operator norm available in closed form, and the
Hessian-fluctuation moment V_H = E||l''(x) + F||_F^2 a sum over the
K x d score matrix: no model in this family builds the K x d x d Hessian
stack on the way to a bound.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .pauli import _fwht_buffers, num_paulis, sign_matrix, validate_eigenvalues

__all__ = [
    "GaussianKnownCovModel",
    "LinearOutcomeModel",
    "PoissonTruncatedModel",
    "StatModel",
    "bernoulli_model",
    "classical_models",
    "entangled_pauli_model",
    "multinomial_model",
    "sample_counts",
    "separable_pauli_model",
    "two_copy_bell_model",
]

DOMAIN_MARGIN = 1e-6


class NotIdentifiableError(ValueError):
    """A parameter carries no information under the configured measurement."""


class DomainError(ValueError):
    """Parameter point lies outside the model's open domain."""


@dataclass
class StatModel:
    """Base statistical model: d parameters, K outcomes.

    Subclasses implement probs/dlogp/d2logp/d3logp and mle.  theta is
    always a length-d float vector interior to the domain.
    """

    d: int
    K: int
    scheme: str
    metadata: dict = field(default_factory=dict)

    def probs(self, theta: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def dprobs(self, theta: np.ndarray) -> np.ndarray:
        """(K, d) array of outcome-probability gradients."""
        raise NotImplementedError

    def dlogp(self, theta: np.ndarray) -> np.ndarray:
        """(K, d) score per outcome."""
        p = self.probs(theta)
        return self.dprobs(theta) / p[:, None]

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

        The default is a search: multi-start ascent over ball points with
        tensor power iteration for the operator norm.  It can only under-
        estimate the true supremum, so exact_flag is False; models with
        closed-form envelopes override this.
        """
        theta = np.asarray(theta, dtype=float)
        rng = np.random.default_rng(0)  # fixed stream: deterministic search
        points = [theta]
        for _ in range(8):
            direction = rng.standard_normal(self.d)
            direction /= np.linalg.norm(direction)
            for frac in (0.5, 1.0):
                candidate = theta + frac * radius * direction
                if self.contains(candidate):
                    points.append(candidate)
        envelope = np.zeros(self.K)
        for point in points:
            tensors = self.d3logp(point)
            for k in range(self.K):
                value = 0.5 * _tensor_opnorm(tensors[k], rng)
                envelope[k] = max(envelope[k], value)
        return envelope, False

    def contains(self, theta: np.ndarray) -> bool:
        raise NotImplementedError

    def validate_theta(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.d,):
            raise ValueError(
                f"{self.scheme}: expected parameter vector of length {self.d}, "
                f"got shape {theta.shape}"
            )
        if not self.contains(theta):
            raise DomainError(f"{self.scheme}: parameter {theta!r} outside the domain")
        return theta

    def mle(self, counts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def mle_batch(self, counts: np.ndarray) -> np.ndarray:
        """Row-wise MLE for a (trials, K) count matrix."""
        return np.stack([self.mle(row) for row in counts])

    def sample(self, theta, m, rng):
        return sample_counts(self, theta, m, rng)

    def estimate_batch(self, theta, m, rng, trials):
        """MLEs of `trials` independent size-m samples, a (trials, d) array.

        Draws a (trials, K) multinomial count matrix from one generator
        call and applies mle_batch; theta must already be validated.
        """
        p = np.clip(self.probs(theta), 0.0, None)
        counts = rng.multinomial(m, p / p.sum(), size=trials)
        return self.mle_batch(counts)

    def analytic_fisher(self, theta):
        """Closed-form Fisher matrix, or None to request enumeration."""
        return None

    def hessian_fluctuation(self, theta, p, scores, fisher):
        """V_H = sum_x p_x ||l''(x) + F||_F^2 over all K outcomes.

        p and scores are probs(theta) and dlogp(theta); fisher is the
        FisherMatrix at theta.  The default enumerates the K x d x d
        Hessian stack; models with a structured Hessian override this.
        """
        centred = self.d2logp(theta) + fisher.matrix[None, :, :]
        return float(p @ (centred**2).sum(axis=(1, 2)))


def _tensor_opnorm(tensor, rng, starts=3, iters=40):
    """Operator norm of a symmetric 3-tensor by power iteration.

    Iterates u <- T[., u, u] / |T[., u, u]| from several random unit
    starts and returns the best |T[u, u, u]|; a lower estimate in general,
    exact for rank-one symmetric tensors.
    """
    d = tensor.shape[0]
    if d == 1:
        return abs(float(tensor[0, 0, 0]))
    best = 0.0
    for _ in range(starts):
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        for _ in range(iters):
            contracted = np.einsum("ijk,j,k->i", tensor, u, u)
            norm = np.linalg.norm(contracted)
            if norm == 0.0:
                break
            u = contracted / norm
        best = max(best, abs(float(np.einsum("ijk,i,j,k->", tensor, u, u, u))))
    return best


def sample_counts(model, theta, m, rng) -> np.ndarray:
    """Multinomial outcome counts for m independent measurements.

    Deterministic given the generator state; counts sum to m.
    """
    if m < 1:
        raise ValueError(f"sample size must be >= 1, got {m!r}")
    p = model.probs(model.validate_theta(theta))
    p = np.clip(p, 0.0, None)
    return rng.multinomial(m, p / p.sum())


class LinearOutcomeModel(StatModel):
    """Model with affine outcome probabilities p(x) = b_x + A_x . theta."""

    def __init__(self, A, b, scheme, metadata=None):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        super().__init__(d=A.shape[1], K=A.shape[0], scheme=scheme,
                         metadata=metadata or {})
        self.A = A
        self.b = b
        self._row_norms = np.linalg.norm(A, axis=1)

    def probs(self, theta):
        theta = self.validate_theta(theta)
        return self.b + self.A @ theta

    def dprobs(self, theta):
        return self.A

    def dlogp(self, theta):
        return self.A / self.probs(theta)[:, None]

    def d2logp(self, theta):
        p = self.probs(theta)
        g = self.A / p[:, None]
        return -np.einsum("ki,kj->kij", g, g)

    def d3logp(self, theta):
        p = self.probs(theta)
        g = self.A / p[:, None]
        return 2.0 * np.einsum("ki,kj,kl->kijl", g, g, g)

    def hessian_fluctuation(self, theta, p, scores, fisher):
        """V_H from the (K, d) scores g_x, without the Hessian stack.

        Here l''(x) = -g_x g_x^T.  In the eigenbasis F = V diag(lam) V^T,
        with c_x = V^T g_x and a = c_x^2,
        ||g_x g_x^T - F||_F^2 = sum_i (a_i - lam_i)^2 + sum_{i != j} a_i a_j,
        a sum of non-negative terms, so nothing cancels even where V_H is
        near zero (a coin near 1/2).  The cross sum is taken as
        2 sum_j a_j (a_1 + ... + a_{j-1}).  Each outcome is exact on its
        own, so outcomes that fim drops below its probability floor count
        as in the stack.
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
        return bool(np.all(self.b + self.A @ theta > 0.0))


def _pauli_linear_system(n):
    size = num_paulis(n)
    signs = sign_matrix(n)
    return signs[:, 1:] / size, signs[:, 0] / size


class _PauliBellModel(LinearOutcomeModel):
    """Shared machinery for the two schemes measured in the Bell basis."""

    def mle(self, counts):
        counts = np.asarray(counts, dtype=float)
        if counts.ndim != 1 or counts.shape[0] != self.K:
            raise ValueError(f"expected {self.K} outcome counts")
        total = counts.sum()
        if total <= 0:
            raise ValueError("empty counts")
        return self.mle_batch(counts[None, :])[0]

    def mle_batch(self, counts):
        # integer counts are cast inside the ufuncs, not copied to floats first
        counts = np.asarray(counts)
        totals = counts.sum(axis=1, keepdims=True, dtype=float)
        buffers = np.empty((2,) + counts.shape)
        np.divide(counts, totals, out=buffers[0])
        return _fwht_buffers(buffers)[:, 1:]


def entangled_pauli_model(n: int) -> StatModel:
    """Pauli-channel learning with a maximally entangled probe.

    The channel acts on half of a maximally entangled pair and the output
    is measured in the Bell basis; outcome x then occurs with probability
    4^-n * sum_a lam_a (-1)^<x, a>, i.e. the error rate p_x.  Parameters
    are the non-identity eigenvalues lam_1..lam_{4^n - 1} (lam_0 = 1).
    """
    A, b = _pauli_linear_system(n)
    return _PauliBellModel(A, b, scheme="entangled-pauli", metadata={"n": n})


class _TwoCopyBellModel(_PauliBellModel):
    def contains(self, theta):
        theta = np.asarray(theta, dtype=float)
        if np.any(theta < 0.0) or np.any(theta > 1.0):
            return False
        return super().contains(theta)


def two_copy_bell_model(n: int) -> StatModel:
    """Bell-sampling on two state copies; parameters are squared moments.

    Measuring rho x rho in the Bell basis gives outcome probabilities
    4^-n * sum_a s_a (-1)^<x, a> with s_a = c_a^2 the squared Pauli
    expectation values (s_0 = 1), the same affine family as the entangled
    channel scheme with lam_a replaced by s_a.  Estimating |c_a| to
    additive error eps corresponds to estimating s_a to error eps^2;
    the translation is recorded in the metadata.
    """
    A, b = _pauli_linear_system(n)
    return _TwoCopyBellModel(
        A, b, scheme="two-copy-bell",
        metadata={"n": n, "accuracy_translation": "eps_s = eps_abs**2"},
    )


class SeparablePauliModel(LinearOutcomeModel):
    """Single channel use on an unentangled probe, one Pauli axis per shot.

    Each shot picks one of the d = 4^n - 1 non-identity axes uniformly at
    random and measures the channel output projectively along it, giving
    the binary outcome +/-1 with probabilities (1 +/- r_m lam_m) / 2.
    Outcomes are laid out as (axis 1, +), (axis 1, -), (axis 2, +), ...
    Axes with r_m = 0 carry no information about lam_m.
    """

    def __init__(self, n, r):
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
        super().__init__(A, b, scheme="separable-pauli", metadata={"n": n})
        self.r = r
        self.identifiable = r != 0.0

    def axis_outcome_probs(self, axis, lam_axis):
        """(p_plus, p_minus) for a projective measurement along one axis."""
        q = self.r[axis] * lam_axis
        return 0.5 * (1.0 + q), 0.5 * (1.0 - q)

    def axis_fisher_info(self, axis, lam_axis):
        """Per-shot information r_m^2 / (1 - r_m^2 lam_m^2) about lam_m."""
        if not self.identifiable[axis]:
            raise NotIdentifiableError(
                f"axis {axis}: probe component is zero, parameter not identifiable"
            )
        q2 = (self.r[axis] * lam_axis) ** 2
        return self.r[axis] ** 2 / (1.0 - q2)

    def contains(self, theta):
        theta = np.asarray(theta, dtype=float)
        if np.any(np.abs(theta) > 1.0):
            return False
        return bool(np.all(self.b + self.A @ theta > 0.0))

    def mle(self, counts):
        return self.mle_batch(np.asarray(counts, dtype=float)[None, :])[0]

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


def separable_pauli_model(n: int, r) -> SeparablePauliModel:
    return SeparablePauliModel(n, r)


class _FrequencyMLEModel(LinearOutcomeModel):
    """Affine model whose MLE is the empirical frequency of the first d outcomes."""

    def mle(self, counts):
        counts = np.asarray(counts, dtype=float)
        total = counts.sum()
        if total <= 0:
            raise ValueError("empty counts")
        return counts[: self.d] / total

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
    A = np.vstack([np.eye(d), -np.ones((1, d))])
    b = np.concatenate([np.zeros(d), [1.0]])
    return _FrequencyMLEModel(A=A, b=b, scheme="multinomial")


class PoissonTruncatedModel(StatModel):
    """Poisson model truncated at outcome K and renormalised.

    p_k = (theta^k / k!) / Z(theta) for k = 0..K with Z the truncated
    exponential series.  Derivatives of log Z follow from the identity
    Z^(m) = Z_{K-m}.  The closed-form MLE is the sample mean, exact for
    the untruncated family; the neglected tail mass is reported by
    truncation_mass.
    """

    def __init__(self, truncation: int = 20):
        if truncation < 1:
            raise ValueError("truncation must be >= 1")
        super().__init__(d=1, K=truncation + 1, scheme="poisson",
                         metadata={"truncation": truncation})
        self._log_factorials = np.cumsum(
            np.concatenate([[0.0], np.log(np.arange(1, truncation + 1))])
        )
        self._ks = np.arange(truncation + 1, dtype=float)

    def _partial_sum(self, theta, order):
        top = self.K - 1 - order
        if top < 0:
            return 0.0
        ks = np.arange(top + 1)
        return float(np.exp(ks * math.log(theta) - self._log_factorials[: top + 1]).sum())

    def probs(self, theta):
        theta = self.validate_theta(theta)
        t = float(theta[0])
        weights = np.exp(self._ks * math.log(t) - self._log_factorials)
        return weights / weights.sum()

    def dprobs(self, theta):
        t = float(np.asarray(theta, dtype=float)[0])
        p = self.probs(theta)
        z0 = self._partial_sum(t, 0)
        z1 = self._partial_sum(t, 1)
        return (p * (self._ks / t - z1 / z0))[:, None]

    def _logz_derivatives(self, t):
        z0 = self._partial_sum(t, 0)
        z1 = self._partial_sum(t, 1)
        z2 = self._partial_sum(t, 2)
        z3 = self._partial_sum(t, 3)
        l1 = z1 / z0
        l2 = z2 / z0 - l1 * l1
        l3 = z3 / z0 - 3.0 * (z2 / z0) * l1 + 2.0 * l1**3
        return l1, l2, l3

    def d2logp(self, theta):
        t = float(np.asarray(theta, dtype=float)[0])
        _, l2, _ = self._logz_derivatives(t)
        return (-self._ks / t**2 - l2).reshape(self.K, 1, 1)

    def d3logp(self, theta):
        t = float(np.asarray(theta, dtype=float)[0])
        _, _, l3 = self._logz_derivatives(t)
        return (2.0 * self._ks / t**3 - l3).reshape(self.K, 1, 1, 1)

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

    def truncation_mass(self, theta):
        """Poisson tail probability discarded by the truncation."""
        t = float(np.asarray(theta, dtype=float)[0])
        return 1.0 - math.exp(-t) * self._partial_sum(t, 0)

    def mle(self, counts):
        counts = np.asarray(counts, dtype=float)
        total = counts.sum()
        if total <= 0:
            raise ValueError("empty counts")
        return np.array([float(self._ks @ counts) / total])

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
        super().__init__(d=d, K=0, scheme="gaussian-known-var", metadata={})
        self.cov = cov
        self.cov_inv = np.linalg.inv(cov)
        self._chol = np.linalg.cholesky(cov)

    def contains(self, theta):
        return True

    def analytic_fisher(self, theta):
        return self.cov_inv

    def probs(self, theta):
        raise ValueError("gaussian-known-var has continuous outcomes")

    def exact_coefficients(self):
        """mu_R = V_R = V_H = 0 and rho_a = 2*sqrt(2/pi)*Sigma_aa^(3/2).

        The projected score e_a^T F^-1 grad(log p) equals y_a - theta_a,
        a centred normal with variance Sigma_aa.
        """
        rho_scale = 2.0 * math.sqrt(2.0 / math.pi)
        sigma_diag = np.sqrt(np.diag(self.cov))
        return {
            "mu_R": 0.0,
            "V_R": 0.0,
            "V_H": 0.0,
            "rho_diag": rho_scale * sigma_diag**3,
        }

    def sample_mean(self, theta, m, rng):
        """Sample mean of m draws, distributed N(theta, Sigma / m)."""
        z = rng.standard_normal(self.d)
        return np.asarray(theta, dtype=float) + (self._chol @ z) / math.sqrt(m)

    def sample_mean_batch(self, theta, m, rng, trials):
        z = rng.standard_normal((trials, self.d))
        return np.asarray(theta, dtype=float) + (z @ self._chol.T) / math.sqrt(m)

    def estimate_batch(self, theta, m, rng, trials):
        # the MLE is the sample mean, which is drawn directly
        return self.sample_mean_batch(theta, m, rng, trials)

    def mle(self, samples):
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        return samples.mean(axis=0)


def classical_models(kind: str, **params) -> StatModel:
    """Factory for the classical reference models.

    kind is one of "bernoulli", "multinomial", "poisson",
    "gaussian-known-var"; params are forwarded (multinomial: d,
    poisson: truncation, gaussian: cov).
    """
    if kind == "bernoulli":
        return bernoulli_model()
    if kind == "multinomial":
        return multinomial_model(params.get("d", 2))
    if kind == "poisson":
        return PoissonTruncatedModel(params.get("truncation", 20))
    if kind == "gaussian-known-var":
        return GaussianKnownCovModel(params.get("cov", np.eye(params.get("d", 1))))
    raise ValueError(f"unknown model kind: {kind!r}")
