"""Independent reference implementations used to freeze expected test values.

Everything here is deliberately slow and simple: bisection instead of Halley,
double sums instead of butterflies, finite differences instead of analytic
derivatives, cyclic Jacobi instead of LAPACK.  Nothing imports fisherbound,
except the per-norm bound evaluators at the end: they are the four that
bounds.upper_bound and bounds.lower_bound replaced, kept on the package's
bracket helpers with their formulas unchanged, so that comparing them pins
the merge of the two norms bit for bit.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from fisherbound.bounds import (
    BoundCoefficients,
    BoundResult,
    _check_criteria,
    _check_norm,
    _inapplicable,
    _lower_terms,
    _upper_bracket,
)
from fisherbound.special_functions import lambert_w0


def lambert_bisect(x, tol=1e-15):
    """Solve w * exp(w) = x on the principal branch by bisection."""
    if x < -math.exp(-1.0):
        raise ValueError("below branch point")
    lo, hi = -1.0, 1.0
    while hi * math.exp(hi) < x:
        hi *= 2.0
    f = lambda w: w * math.exp(w) - x
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol * max(1.0, abs(lo)):
            break
    return 0.5 * (lo + hi)


def gauss_pdf(t):
    return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


def gauss_tail_quad(x, upper_pad=40.0, n=200001):
    """1 - Phi(x) by composite Simpson quadrature of the density."""
    a, b = x, x + upper_pad
    h = (b - a) / (n - 1)
    grid = [gauss_pdf(a + i * h) for i in range(n)]
    s = grid[0] + grid[-1] + 4.0 * sum(grid[1:-1:2]) + 2.0 * sum(grid[2:-1:2])
    return s * h / 3.0


def symplectic_naive(a, b, n):
    """Bit-by-bit symplectic inner product of Pauli indices a, b."""
    total = 0
    for k in range(n):
        ax = (a >> (n + k)) & 1
        az = (a >> k) & 1
        bx = (b >> (n + k)) & 1
        bz = (b >> k) & 1
        total += ax * bz + az * bx
    return total % 2


def wht_naive(v, n):
    """O(N^2) symplectic Walsh-Hadamard transform."""
    v = np.asarray(v, dtype=float)
    size = 4**n
    out = np.zeros(size)
    for b in range(size):
        acc = 0.0
        for a in range(size):
            sign = -1.0 if symplectic_naive(a, b, n) else 1.0
            acc += sign * v[a]
        out[b] = acc
    return out


_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def pauli_matrix_naive(a, n):
    """Dense Pauli operator built factor by factor from X and Z products."""
    mat = np.eye(1, dtype=complex)
    for k in range(n):
        x = (a >> (n + (n - 1 - k))) & 1
        z = (a >> (n - 1 - k)) & 1
        factor = np.eye(2, dtype=complex)
        if x:
            factor = factor @ _X
        if z:
            factor = factor @ _Z
        factor = (1j) ** (x * z) * factor
        mat = np.kron(mat, factor)
    return mat


def fim_finite_difference(prob_fn, theta, h=1e-6, p_floor=1e-13):
    """FIM from central finite differences of the outcome probabilities."""
    theta = np.asarray(theta, dtype=float)
    d = theta.size
    p = prob_fn(theta)
    grads = np.zeros((p.size, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        grads[:, i] = (prob_fn(theta + e) - prob_fn(theta - e)) / (2.0 * h)
    keep = p > p_floor
    return (grads[keep].T / p[keep]) @ grads[keep]


def jacobi_eigenvalues(a, sweeps=100, tol=1e-13):
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    a = np.array(a, dtype=float, copy=True)
    d = a.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for p in range(d - 1):
            for q in range(p + 1, d):
                off = max(off, abs(a[p, q]))
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = 0.5 * math.atan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = math.cos(theta), math.sin(theta)
                rot = np.eye(d)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
        if off < tol:
            break
    return np.sort(np.diag(a))


def binomial_pmf(m, k, p):
    return math.comb(m, k) * p**k * (1.0 - p) ** (m - k)


def bernoulli_success_exact(theta, m, eps):
    """Exact Pr[|S/m - theta| <= eps] by enumerating binomial outcomes."""
    return sum(
        binomial_pmf(m, k, theta)
        for k in range(m + 1)
        if abs(k / m - theta) <= eps + 1e-15
    )


def binomial_tail(k, m, p):
    """Pr[Bin(m, p) >= k], summed term by term in log space."""
    if k <= 0:
        return 1.0
    if p <= 0.0 or k > m:
        return 0.0
    if p >= 1.0:
        return 1.0
    log_p, log_q = math.log(p), math.log1p(-p)
    head = math.lgamma(m + 1)
    return min(1.0, sum(
        math.exp(head - math.lgamma(j + 1) - math.lgamma(m - j + 1)
                 + j * log_p + (m - j) * log_q)
        for j in range(k, m + 1)
    ))


def bernoulli_window(theta, m, eps, scored=False):
    """(lo, hi): the counts k of Bin(m, theta) with |k/m - theta| <= eps.

    The ends are rounded in exact rational arithmetic, as in bell_failures,
    which is the criterion on the real numbers theta and eps.  With
    scored=True they follow the float test |k/m - theta| <= eps that the
    search scores instead: an end moves by one where k/m rounds across the
    window's edge (at theta = 0.5, eps = 0.05 the count 0.55 m is outside
    whenever it is an integer).  lo > hi is an empty window.
    """
    lo = max(math.ceil(m * (Fraction(theta) - Fraction(eps))), 0)
    hi = min(math.floor(m * (Fraction(theta) + Fraction(eps))), m)
    if scored:
        def inside(k):
            return 0 <= k <= m and abs(k / m - theta) <= eps

        lo += -1 if inside(lo - 1) else 0 if inside(lo) else 1
        hi += 1 if inside(hi + 1) else 0 if inside(hi) else -1
    return lo, hi


def bernoulli_linf_success(theta, m, eps, scored=False):
    """Exact Pr[|S/m - theta| <= eps] for S ~ Bin(m, theta), over the count
    window of bernoulli_window; not monotone in m on the count lattice."""
    from scipy.stats import binom

    lo, hi = bernoulli_window(theta, m, eps, scored)
    if lo > hi:
        return 0.0
    return float(binom.cdf(hi, m, theta) - binom.cdf(lo - 1, m, theta))


def gaussian_linf_success(m, eps, d):
    """Exact Pr[max_a |theta_hat_a - theta_a| <= eps] for the mean of m
    draws of N(theta, I_d): (2 Phi(eps sqrt(m)) - 1)^d, where
    2 Phi(x) - 1 = erf(x / sqrt(2))."""
    return math.erf(eps * math.sqrt(m / 2.0)) ** d


def first_crossing(curve, target, hi=2**40):
    """Smallest integer M >= 1 with curve(M) >= target, by bisection; the
    curve must be nondecreasing in M."""
    lo = 0  # curve(lo) < target, or lo = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if curve(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def bell_failures(theta, m, eps):
    """Pr[|lam_hat_a - lam_a| > eps] per coordinate of a Bell scheme at m samples.

    The Bell MLE is one Walsh-Hadamard transform of the frequencies, never
    clipped, so lam_hat_a = 2 B_a / m - 1 with B_a ~ Bin(m, (1 + lam_a) / 2)
    at every theta, for both Bell schemes.  Success is the count window
    m (1 + lam_a - eps) / 2 <= B_a <= m (1 + lam_a + eps) / 2; its ends are
    rounded in exact rational arithmetic, which stays exact past m = 2^53.
    """
    from scipy.stats import binom

    out = []
    for lam in theta:
        lo = math.ceil(m * (1 + Fraction(lam) - Fraction(eps)) / 2)
        hi = math.floor(m * (1 + Fraction(lam) + Fraction(eps)) / 2)
        q = (1.0 + lam) / 2.0
        out.append(binom.cdf(lo - 1, m, q) + binom.sf(hi, m, q))
    return np.array(out)


def bell_mstar_bracket(theta, eps, delta, hi=2**60):
    """(m*_marg, m*_bonf): exact brackets on the linf m* of a Bell scheme.

    With f_a(M) from bell_failures, the linf success probability lies
    between 1 - sum_a f_a (Bonferroni) and 1 - max_a f_a (the worst
    marginal).  m*_marg and m*_bonf are where those two curves cross
    1 - delta, found by first_crossing; the true success curve crosses
    between them.  Equal coordinates share one binomial evaluation, so the
    depolarizing point costs one per M at any n.
    """
    values, counts = np.unique(np.asarray(theta, dtype=float), return_counts=True)
    target = 1.0 - delta
    m_marg = first_crossing(lambda m: 1.0 - bell_failures(values, m, eps).max(), target, hi)
    m_bonf = first_crossing(lambda m: 1.0 - counts @ bell_failures(values, m, eps), target, hi)
    return m_marg, m_bonf


def central_diff_grad(f, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    g = np.zeros(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def fwht_stack(v):
    """Symplectic Walsh-Hadamard transform with one np.stack per butterfly stage.

    The allocating butterfly that fwht used before its ping-pong buffers;
    kept to check the buffered version bit for bit.
    """
    v = np.asarray(v, dtype=float)
    size = v.shape[-1]
    n = round(math.log(size, 4))
    out = v.copy()
    h = 1
    while h < size:
        shape = out.shape[:-1] + (size // (2 * h), 2, h)
        blocks = out.reshape(shape)
        top = blocks[..., 0, :] + blocks[..., 1, :]
        bottom = blocks[..., 0, :] - blocks[..., 1, :]
        out = np.stack([top, bottom], axis=-2).reshape(v.shape)
        h *= 2
    idx = np.arange(size)
    mask = (1 << n) - 1
    return out[..., ((idx & mask) << n) | (idx >> n)]


def bell_mle_batch_stack(counts):
    """Bell-basis MLE rows: fwht_stack of the empirical frequencies, lam_0 dropped."""
    counts = np.asarray(counts, dtype=float)
    return fwht_stack(counts / counts.sum(axis=1, keepdims=True))[:, 1:]


def separable_mle_batch_masked(counts, r):
    """Separable-probe MLE rows through boolean masks and np.where.

    Unseen axes estimate 0, zero probe components estimate 0, and the
    result is clipped to [-1, 1].
    """
    counts = np.asarray(counts, dtype=float)
    r = np.asarray(r, dtype=float)
    plus = counts[:, 0::2]
    minus = counts[:, 1::2]
    per_axis = plus + minus
    est = np.zeros_like(plus)
    seen = per_axis > 0
    est[seen] = (plus[seen] - minus[seen]) / per_axis[seen]
    with np.errstate(divide="ignore", invalid="ignore"):
        est = np.where(r != 0.0, est / np.where(r == 0, 1, r), 0.0)
    return np.clip(est, -1.0, 1.0)


def hessian_fluctuation_dense(model, theta, fisher_matrix):
    """V_H = sum_x p_x ||l''(x) + F||_F^2 from the full K x d x d Hessian stack."""
    p = model.probs(theta)
    centred = model.d2logp(theta) + np.asarray(fisher_matrix)[None, :, :]
    return float(p @ (centred**2).sum(axis=(1, 2)))


def find_min_samples_full(probe, target, resolution=1, m_max=2**22):
    """Doubling-then-bisection search with every probe run to its full trials.

    The search find_min_samples ran before failing probes stopped early.
    probe(m, context) returns an estimate with a wilson_lo attribute.
    Returns a dict with m_star, bracket, stable_at_double and the probes
    sorted by M; m_star is None when the doubling reached m_max without a
    pass.
    """
    probes = {}

    def run(m, context):
        if m not in probes:
            probes[m] = probe(m, context)
        return probes[m]

    def ordered():
        return [probes[m] for m in sorted(probes)]

    m, context = 1, 0
    while run(m, context).wilson_lo < target:
        if m >= m_max:
            return {"m_star": None, "probes": ordered()}
        m = min(2 * m, m_max)
        context += 1
    lo, hi = (m // 2 if m > 1 else 0), m
    while hi - lo > resolution:
        mid = (lo + hi) // 2
        context += 1
        if run(mid, context).wilson_lo >= target:
            hi = mid
        else:
            lo = mid
    context += 1
    stable = run(min(2 * hi, m_max), context).wilson_lo >= target
    return {"m_star": hi, "bracket": (lo, hi), "stable_at_double": stable,
            "probes": ordered()}


def replay_hits(model, theta, m, eps, norm, trials, seed, context, block=512):
    """Per-trial success flags of one success_probability probe, in trial order.

    Rebuilds each block's Philox stream from the (context, block index)
    spawn key of the probe's seed and draws the block one row per
    model.estimate_batch call, scoring each row on its own: max-norm or
    Euclidean error at most eps.
    """
    theta = np.asarray(theta, dtype=float)
    hits = []
    for index, start in enumerate(range(0, trials, block)):
        seeds = np.random.SeedSequence(entropy=seed, spawn_key=(context, index))
        rng = np.random.Generator(np.random.Philox(seeds))
        for _ in range(min(block, trials - start)):
            error = model.estimate_batch(theta, m, rng, 1)[0] - theta
            size = np.abs(error).max() if norm == "linf" else math.sqrt(float(error @ error))
            hits.append(bool(size <= eps))
    return np.array(hits)


def depolarizing_qfi_sum(weights, nonunital_vectors, n: int) -> float:
    """QFIM-diagonal sum cap at the depolarizing point for separable protocols.

    weights is the probability vector over classical branches and each
    row of nonunital_vectors collects the non-unital Pauli components
    injected by that branch's final processing channel, constrained by
    purity to squared norm at most 2^n - 1.  Returns
    sum_j c_j ||d_j||^2, which never exceeds 2^n - 1.
    """
    weights = np.asarray(weights, dtype=float)
    vectors = np.atleast_2d(np.asarray(nonunital_vectors, dtype=float))
    if weights.ndim != 1 or vectors.shape[0] != weights.size:
        raise ValueError("need one non-unital vector per branch weight")
    if np.any(weights < -1e-12) or abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError("branch weights must form a probability vector")
    cap = float(2**n - 1)
    norms_sq = np.sum(vectors**2, axis=1)
    if np.any(norms_sq > cap + 1e-9):
        raise ValueError(
            f"purity constraint violated: max ||d_j||^2 = {norms_sq.max()!r} > {cap!r}"
        )
    value = float(weights @ norms_sq)
    if value > cap + 1e-9:
        raise AssertionError("convex combination exceeded the purity cap")
    return value


@dataclass(frozen=True)
class MseCrbReport:
    """Per-coordinate empirical MSE against the Cramer-Rao prediction."""

    mse: np.ndarray
    crb: np.ndarray
    ratio: np.ndarray
    m: int
    trials: int


def mse_vs_crb(model, theta, m, trials, seed, block=512) -> MseCrbReport:
    """Empirical MLE mean squared error against [F^-1]_aa / m per coordinate.

    F is the model's analytic_fisher, inverted by numpy.  The trials are
    the full-length blocks of a success_probability probe at context 0.
    """
    if m < 1:
        raise ValueError(f"sample size must be >= 1, got {m!r}")
    theta = model.validate_theta(theta)
    crb = np.diag(np.linalg.inv(model.analytic_fisher(theta))) / m

    sq_sum = np.zeros(model.d)
    for index, start in enumerate(range(0, trials, block)):
        seeds = np.random.SeedSequence(entropy=seed, spawn_key=(0, index))
        rng = np.random.Generator(np.random.Philox(seeds))
        estimates = model.estimate_batch(theta, m, rng, min(block, trials - start))
        sq_sum += ((estimates - theta[None, :]) ** 2).sum(axis=0)
    mse = sq_sum / trials
    return MseCrbReport(mse=mse, crb=crb, ratio=mse / crb, m=m, trials=trials)


def poisson_partial_sum(log_factorials, theta, order):
    """Z_order = sum of theta^k / k! over k <= len(log_factorials) - 1 - order.

    Each order forms its own exponent array, as PoissonTruncatedModel did
    before it took all four sums from one.
    """
    top = len(log_factorials) - 1 - order
    if top < 0:
        return 0.0
    ks = np.arange(top + 1)
    return float(np.exp(ks * math.log(theta) - log_factorials[: top + 1]).sum())


# ---------------------------------------------------------------------------
# the per-norm bound evaluators, unchanged but for reading (mu_R, V_R) from
# the one coefficient object's envelope


def upper_bound_linf(eps: float, delta: float, coeffs: BoundCoefficients) -> BoundResult:
    """Sample size guaranteeing the max-norm criterion at one parameter point.

    tau0 = (1 - eps * (d mu_R / 2) ||F^-1||) * eps and
    D = (sqrt(4 V_H / delta) sqrt(d) + 0.5 sqrt(4 V_R / delta) d eps)
        * ||F^-1|| * eps.
    The parameter-space supremum is the caller's responsibility.
    """
    _check_criteria(eps, delta)
    _check_norm("linf")
    d = coeffs.d
    mu_r, v_r = coeffs.envelope["linf"]
    tau0 = (1.0 - eps * (d * mu_r / 2.0) * coeffs.opnorm_inv) * eps
    big_d = (
        math.sqrt(4.0 * coeffs.V_H / delta) * math.sqrt(d)
        + 0.5 * math.sqrt(4.0 * v_r / delta) * d * eps
    ) * coeffs.opnorm_inv * eps
    return _upper_bracket(eps, delta, coeffs, "linf", tau0, big_d)


def upper_bound_l2(eps: float, delta: float, coeffs: BoundCoefficients) -> BoundResult:
    """Sample size guaranteeing the Euclidean criterion at one parameter point.

    Reduces to the max-norm bound at accuracy eps/sqrt(d):
    tau0 = (1 - eps * (sqrt(d) mu_R / 2) ||F^-1||) * eps / sqrt(d) and
    D = (sqrt(4 V_H / delta) + 0.5 sqrt(4 V_R / delta) eps) * ||F^-1|| * eps.
    """
    _check_criteria(eps, delta)
    _check_norm("l2")
    d = coeffs.d
    mu_r, v_r = coeffs.envelope["l2"]
    sqrt_d = math.sqrt(d)
    tau0 = (1.0 - eps * (sqrt_d * mu_r / 2.0) * coeffs.opnorm_inv) * eps / sqrt_d
    big_d = (
        math.sqrt(4.0 * coeffs.V_H / delta)
        + 0.5 * math.sqrt(4.0 * v_r / delta) * eps
    ) * coeffs.opnorm_inv * eps
    return _upper_bracket(eps, delta, coeffs, "l2", tau0, big_d)


def lower_bound_linf(
    eps: float, delta: float, coeffs: BoundCoefficients, a: int | None = None
) -> BoundResult:
    """Sample size any max-norm guarantee must exceed.

    Valid for any single coordinate a at any parameter point, with
    sigma_a = sqrt([F^-1]_aa), eta = 2 C rho_a / sigma_a^3,
    tau0 = (1 + eps * (d mu_R / 2) ||F^-1||) * eps, and
    D = (sqrt(2 V_H / delta) sqrt(d) + 0.5 sqrt(2 V_R / delta) d eps)
        * ||F^-1|| * eps.
    With a=None the bound is maximised over coordinates.
    """
    _check_criteria(eps, delta)
    _check_norm("linf")
    d = coeffs.d
    if not coeffs.finite("linf"):
        return _inapplicable(coeffs, "non-finite coefficients")
    mu_r, v_r = coeffs.envelope["linf"]
    tau0 = (1.0 + eps * (d * mu_r / 2.0) * coeffs.opnorm_inv) * eps
    big_d = (
        math.sqrt(2.0 * coeffs.V_H / delta) * math.sqrt(d)
        + 0.5 * math.sqrt(2.0 * v_r / delta) * d * eps
    ) * coeffs.opnorm_inv * eps
    w0 = lambert_w0(delta**-2 / (2.0 * math.pi))

    coords = range(d) if a is None else [a]
    best_value, best_term = 0.0, "vacuous"
    for idx in coords:
        sigma_a = float(coeffs.sigma_diag[idx])
        if sigma_a <= 0.0:
            continue  # deterministic coordinate: no requirement
        eta = 2.0 * coeffs.C * float(coeffs.rho_diag[idx]) / sigma_a**3
        z_star, fourth = _lower_terms(delta, tau0, big_d, eta, sigma_a, w0)
        if z_star >= fourth and z_star > best_value:
            best_value, best_term = z_star, "z-star"
        elif fourth > z_star and fourth > best_value:
            best_value, best_term = fourth, "fourth-power"
    return BoundResult(
        value=max(best_value, 1.0),
        applicable=True,
        limiting_term=best_term,
        provenance=coeffs.provenance,
    )


def lower_bound_l2(eps: float, delta: float, coeffs: BoundCoefficients) -> BoundResult:
    """Sample size any Euclidean guarantee must exceed.

    Projects the score on the top eigenvector of F^-1, so
    sigma = sqrt(lambda_max(F^-1)) and eta = 2 C rho_top / sigma^3, with
    tau0 = (1 + eps * (mu_R / 2) ||F^-1||) * eps and
    D = (sqrt(2 V_H / delta) + 0.5 sqrt(2 V_R / delta) eps) * ||F^-1|| * eps.
    """
    _check_criteria(eps, delta)
    _check_norm("l2")
    if not coeffs.finite("l2"):
        return _inapplicable(coeffs, "non-finite coefficients")
    sigma = coeffs.sigma_top
    if sigma <= 0.0:
        return BoundResult(
            value=1.0, applicable=True, limiting_term="vacuous",
            provenance=coeffs.provenance,
        )
    mu_r, v_r = coeffs.envelope["l2"]
    tau0 = (1.0 + eps * (mu_r / 2.0) * coeffs.opnorm_inv) * eps
    big_d = (
        math.sqrt(2.0 * coeffs.V_H / delta)
        + 0.5 * math.sqrt(2.0 * v_r / delta) * eps
    ) * coeffs.opnorm_inv * eps
    w0 = lambert_w0(delta**-2 / (2.0 * math.pi))
    eta = 2.0 * coeffs.C * coeffs.rho_top / sigma**3
    z_star, fourth = _lower_terms(delta, tau0, big_d, eta, sigma, w0)
    value = max(z_star, fourth)
    term = "z-star" if z_star >= fourth else "fourth-power"
    if value <= 0.0:
        term = "vacuous"
    return BoundResult(
        value=max(value, 1.0),
        applicable=True,
        limiting_term=term,
        provenance=coeffs.provenance,
    )
