"""Independent reference implementations used to freeze expected test values.

Everything here is deliberately slow and simple: bisection instead of Halley,
double sums instead of butterflies, finite differences instead of analytic
derivatives, cyclic Jacobi instead of LAPACK.  Nothing imports fisherbound.
"""

import math

import numpy as np


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
