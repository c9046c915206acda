"""Cross-module invariant suite behind the `verify` CLI command.

Each check is a named callable that raises AssertionError on failure.
run_checks executes them in a fixed order with a seeded generator and
returns structured results; the CLI maps any failure to exit code 1 and
names the first failing check.  A test-only fault hook can corrupt the
Walsh-Hadamard transform to demonstrate that the suite actually detects
breakage.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import bounds, fisher, mle_lab, models, pauli, special_functions as sf

__all__ = ["CheckResult", "run_checks", "FAULT_TARGETS"]

FAULT_TARGETS = ("fwht",)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _naive_wht(v, n):
    size = 4**n
    out = np.zeros(size)
    for b in range(size):
        total = 0.0
        for a in range(size):
            pair = pauli.symplectic_product(pauli.PauliIndex(a, n), pauli.PauliIndex(b, n))
            total += (-1.0) ** pair * v[a]
        out[b] = total
    return out


def _check_lambert_residual(rng):
    xs = np.concatenate([
        [-math.exp(-1.0) + 1e-9, -0.25, -1e-6, 0.0, 1e-9],
        np.logspace(-6, 12, 60),
    ])
    worst = 0.0
    for x in xs:
        w = sf.lambert_w0(float(x))
        worst = max(worst, abs(w * math.exp(w) - x) / max(1.0, abs(x)))
    assert worst <= 1e-12, f"relative residual {worst:.3e} > 1e-12"
    return f"max relative residual {worst:.2e} over {len(xs)} points"


def _check_lambert_log_bound(rng):
    for x in np.logspace(math.log10(math.e), 12, 40):
        assert sf.lambert_w0(float(x)) <= math.log(x) + 1e-12, f"W0({x}) > log x"
    return "W0(x) <= log x on [e, 1e12]"


def _check_lambert_concavity(rng):
    xs = rng.uniform(1e-3, 1e3, size=40)
    ys = rng.uniform(1e-3, 1e3, size=40)
    ts = rng.uniform(0.0, 1.0, size=40)
    for x, y, t in zip(xs, ys, ts):
        mid = sf.lambert_w0(t * x + (1 - t) * y)
        chord = t * sf.lambert_w0(x) + (1 - t) * sf.lambert_w0(y)
        assert mid >= chord - 1e-10, f"concavity violated at x={x}, y={y}, t={t}"
    return "midpoint concavity on 40 random chords"


def _check_mills_bracket(rng):
    for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        pair = sf.mills_bounds(x)
        tail = sf.gaussian_tail(x)
        assert pair.lower < tail < pair.upper, f"bracket fails at x={x}"
    return "bracket holds on the six-point grid"


def _check_gaussian_tail_monotone(rng):
    grid = np.sort(rng.uniform(-8.0, 8.0, size=64))
    values = [sf.gaussian_tail(float(x)) for x in grid]
    # Near x = -8 the tail is 1 - 3e-15, so neighbouring points can round to
    # the same double.  A tie passes only when the mirrored tails, which
    # are small and accurate there, put the true gap
    # Q(x_i) - Q(x_j) = Q(-x_j) - Q(-x_i) above zero but below one ulp of
    # the value; a flat stretch of the mirror does not excuse a tie.
    mirrored = [sf.gaussian_tail(float(-x)) for x in grid]
    for i in range(len(grid) - 1):
        a, b = values[i], values[i + 1]
        tie = a == b and 0.0 < mirrored[i + 1] - mirrored[i] < math.ulp(a)
        assert a > b or tie, "tail not decreasing"
    return "strictly decreasing on a random 64-point grid"


def _check_fwht_involution(rng):
    for n in (1, 2, 3):
        size = 4**n
        for _ in range(10):
            v = rng.standard_normal(size)
            twice = pauli.fwht(pauli.fwht(v))
            err = np.abs(twice - size * v).max()
            assert err <= 1e-9, f"fwht involution broken at n={n}: err={err:.3e}"
    return "fwht(fwht(v)) == 4^n v for n in {1,2,3}, 10 draws each"


def _check_fwht_naive_match(rng):
    for n in (1, 2):
        v = rng.standard_normal(4**n)
        err = np.abs(pauli.fwht(v) - _naive_wht(v, n)).max()
        assert err <= 1e-12, f"butterfly deviates from the double sum at n={n}"
    return "butterfly matches the O(N^2) sum for n in {1,2}"


def _check_pauli_traces(rng):
    for n in (1, 2):
        dim = 2**n
        mats = [pauli.pauli_matrix(pauli.PauliIndex(a, n)) for a in range(4**n)]
        for i, ma in enumerate(mats):
            for j, mb in enumerate(mats):
                expected = dim if i == j else 0.0
                got = np.trace(ma @ mb)
                assert abs(got - expected) <= 1e-10, f"Tr[P{i} P{j}] = {got}"
    return "Tr[P_a P_b] = 2^n delta_ab for all pairs, n <= 2"


def _check_symplectic_commutation(rng):
    for n in (1, 2):
        mats = [pauli.pauli_matrix(pauli.PauliIndex(a, n)) for a in range(4**n)]
        for i, ma in enumerate(mats):
            for j, mb in enumerate(mats):
                pair = pauli.symplectic_product(pauli.PauliIndex(i, n), pauli.PauliIndex(j, n))
                err = np.abs(ma @ mb - (-1.0) ** pair * mb @ ma).max()
                assert err <= 1e-12, f"(anti)commutation mismatch at ({i},{j})"
    return "symplectic product matches matrix (anti)commutation, n <= 2"


def _check_rate_roundtrip(rng):
    for n in (1, 2, 3):
        p = rng.dirichlet(np.ones(4**n))
        lam = pauli.rates_to_eigenvalues(p)
        back = pauli.eigenvalues_to_rates(lam)
        assert np.abs(back - p).max() <= 1e-12, f"roundtrip error at n={n}"
    return "rates -> eigenvalues -> rates is the identity to 1e-12"


def _model_zoo(rng):
    zoo = []
    for n in (1, 2):
        model = models.entangled_pauli_model(n)
        # scaling toward the depolarizing point keeps the draw interior
        zoo.append((model, 0.7 * pauli.random_valid_eigenvalues(n, rng)[1:]))
    bell = models.two_copy_bell_model(1)
    zoo.append((bell, np.array([0.3, 0.2, 0.1])))
    sep = models.separable_pauli_model(1, np.array([0.8, 0.4, 0.3]))
    zoo.append((sep, np.array([0.2, -0.3, 0.5])))
    zoo.append((models.bernoulli_model(), np.array([0.3])))
    zoo.append((models.multinomial_model(3), np.array([0.2, 0.3, 0.1])))
    zoo.append((models.PoissonTruncatedModel(20), np.array([1.3])))
    return zoo


def _check_model_identities(rng):
    for model, theta in _model_zoo(rng):
        p = model.probs(theta)
        assert abs(p.sum() - 1.0) <= 1e-10, f"{model.scheme}: sum p = {p.sum()}"
        assert np.all(p >= 0.0), f"{model.scheme}: negative probability"
        score = model.dlogp(theta)
        mean_score = p @ score
        assert np.abs(mean_score).max() <= 1e-8, f"{model.scheme}: E[score] != 0"
        outer = np.einsum("k,ki,kj->ij", p, score, score)
        err = np.abs(outer - model.analytic_fisher(theta)).max()
        assert err <= 1e-8, f"{model.scheme}: E[score score^T] != analytic_fisher ({err:.2e})"
    return "normalisation, score, and information identities on the model zoo"


def _check_model_derivatives(rng):
    h, h3 = 1e-5, 1e-3
    for model, theta in _model_zoo(rng):
        p = model.probs(theta)
        score = model.dlogp(theta)
        info = model.analytic_fisher(theta)
        logp = lambda t: np.log(model.probs(t))
        for _ in range(3):
            i = int(rng.integers(model.d))
            e = np.zeros(model.d)
            e[i] = h
            fd_grad = (logp(theta + e) - logp(theta - e)) / (2 * h)
            err = np.abs(fd_grad - score[:, i]).max()
            assert err <= 1e-5, f"{model.scheme}: dlogp mismatch {err:.2e}"
            fd_hess = (model.dlogp(theta + e) - model.dlogp(theta - e)) / (2 * h)
            err = np.abs(p @ fd_hess + info[:, i]).max()
            assert err <= 1e-4, f"{model.scheme}: analytic_fisher mismatch {err:.2e}"
        # The second difference of the score along a unit u over steps of h3
        # is the third derivative along u at a point of the stencil (mean
        # value theorem), so half of it is at most the envelope over the ball
        # of radius h3, up to its rounding.  u is each outcome's score
        # direction, where an affine model's rank-one 2 g^(3) attains its
        # operator norm.
        envelope = model.third_derivative_envelope(theta, h3, p)
        for x, g in enumerate(score):
            u = g / np.linalg.norm(g)
            along = [model.dlogp(theta + step * u)[x] @ u for step in (-h3, 0.0, h3)]
            half_third = 0.5 * abs(along[0] - 2.0 * along[1] + along[2]) / h3**2
            rounding = 1e-12 * max(map(abs, along)) / h3**2
            assert half_third <= envelope[x] + rounding, (
                f"{model.scheme}: third_derivative_envelope {envelope[x]:.6g} "
                f"below {half_third:.6g} at outcome {x}")
    return "analytic derivatives match central differences"


def _check_shared_formula(rng):
    s = np.array([0.45, 0.2, 0.05])
    ent = models.entangled_pauli_model(1).probs(s)
    bell = models.two_copy_bell_model(1).probs(s)
    assert np.abs(ent - bell).max() <= 1e-15, "schemes disagree at lam = s"
    return "entangled and two-copy distributions coincide under lam = s"


def _check_entangled_inverse_diag(rng):
    worst = 0.0
    for n in (1, 2):
        model = models.entangled_pauli_model(n)
        for _ in range(50):
            lam = pauli.random_valid_eigenvalues(n, rng)
            theta = lam[1:]
            if not model.contains(theta):
                continue
            f = fisher.fim(model, theta)
            diff = np.abs(f.inverse_diag - model.closed_form_inverse_diag(theta)).max()
            worst = max(worst, diff)
    assert worst <= 1e-8, f"closed-form inverse diagonal off by {worst:.3e}"
    return f"[F^-1]_aa = 1 - lam_a^2 to {worst:.2e} on 50 draws, n in {{1,2}}"


def _check_bell_structural(rng):
    for n in (1, 2):
        p = rng.dirichlet(np.ones(4**n)) * 0.9 + 0.1 / 4**n
        p = p / p.sum()
        structural = fisher.bell_fim_structural(p, n)
        model = models.entangled_pauli_model(n)
        lam = pauli.rates_to_eigenvalues(p)
        enumerated = fisher.fim(model, lam[1:])
        err = np.abs(structural.matrix - enumerated.matrix).max()
        assert err <= 1e-8, f"structural vs enumerated mismatch {err:.3e} at n={n}"
        full_eigs = np.sort(1.0 / (p * 4**n))
        sub_min = structural.eigenvalues[0]
        assert full_eigs[0] <= sub_min + 1e-9, "interlacing lower edge"
        assert sub_min <= full_eigs[1] + 1e-9, "interlacing upper edge"
    return "U^T D U submatrix equals the enumerated FIM; interlacing holds"


def _check_penrose(rng):
    for _ in range(100):
        d = int(rng.integers(2, 7))
        rank = int(rng.integers(1, d + 1))
        basis = rng.standard_normal((d, rank))
        mat = basis @ basis.T
        f = fisher.FisherMatrix(mat)
        pinv = f.pinv
        a = f.matrix
        for lhs, rhs, tag in [
            (a @ pinv @ a, a, "A X A = A"),
            (pinv @ a @ pinv, pinv, "X A X = X"),
            ((a @ pinv).T, a @ pinv, "(A X)^T = A X"),
            ((pinv @ a).T, pinv @ a, "(X A)^T = X A"),
        ]:
            scale = max(1.0, np.abs(rhs).max())
            assert np.abs(lhs - rhs).max() <= 1e-8 * scale, f"Penrose {tag}"
    return "four Penrose identities on 100 random PSD matrices"


def _check_estimable(rng):
    # the last matrix has condition 1e9, so it is nonsingular at RANK_TOL
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 6)))
    for matrix, flags in [(np.diag([1.0, 0.0]), [True, False]),
                          (np.full((2, 2), 0.5), [False, False]),
                          (np.diag([2.0, 0.5, 1.0]), [True] * 3),
                          ((q * np.geomspace(1.0, 1e-9, 6)) @ q.T, [True] * 6)]:
        f = fisher.FisherMatrix(matrix)
        assert f.estimable.tolist() == flags
        assert f.is_singular == (not all(flags))
    return "estimability flags match range membership on constructed cases"


def _check_spectral_stats(rng):
    for _ in range(10):
        d = int(rng.integers(2, 6))
        basis = rng.standard_normal((d, d))
        f = fisher.FisherMatrix(basis @ basis.T + d * np.eye(d))
        opnorm_inv = f.opnorm_inverse
        assert f.inverse_diag.max() <= opnorm_inv + 1e-12
        # lambda_max of the inverse, from its own eigendecomposition
        assert abs(np.linalg.eigvalsh(f.pinv)[-1] - opnorm_inv) <= 1e-12
        ident = f.matrix @ f.pinv
        assert np.abs(ident - np.eye(d)).max() <= 1e-8, "inverse inconsistent"
    return "inverse-side spectral ordering and consistency on random SPD draws"


def _random_projective_povm(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(raw)
    return [np.outer(q[:, k], q[:, k].conj()) for k in range(dim)]


def _check_single_copy_witness(rng):
    for n in (1, 2):
        cap = 2**n - 1
        for _ in range(10):
            povm = _random_projective_povm(rng, 2**n)
            result = fisher.single_copy_trace_bound(povm, n)
            assert result.trace_sum <= cap + 1e-8, "trace bound violated"
            assert result.witness_value <= cap / (4**n - 1) + 1e-9, "witness too big"
    return "trace cap and witness coordinate on random projective POVMs"


def _check_bound_ordering(rng):
    model = models.entangled_pauli_model(1)
    theta = np.zeros(3)
    for eps in (0.01, 0.05):
        coeffs = bounds.estimate_coefficients(model, theta, eps)
        for delta in (0.05, 0.1, 0.25):
            for norm in bounds.NORMS:
                upper = bounds.upper_bound(eps, delta, coeffs, norm)
                lower = bounds.lower_bound(eps, delta, coeffs, norm)
                if upper.applicable:
                    assert lower.value <= upper.value, (
                        f"{norm} ordering violated at eps={eps}, delta={delta}"
                    )
    return "lower <= upper on the entangled n=1 grid, both norms"


def _check_small_eps_limits(rng):
    for d in (3, 15):
        for delta in (0.1, 0.01):
            coeffs = bounds.idealized_coefficients(d)
            for eps in (1e-2, 1e-3, 1e-4):
                value = bounds.upper_bound(eps, delta, coeffs, "linf").value
                target = bounds.asymptotic_upper_linf(eps, delta, d, 1.0)
                assert abs(value / target - 1.0) <= 0.05, "upper limit drifted"
                low = bounds.lower_bound(eps, delta, coeffs, "linf").value
                low_target = bounds.asymptotic_lower_linf(eps, delta, 1.0)
                assert abs(low / low_target - 1.0) <= 0.05, "lower limit drifted"
    return "idealized bounds track their small-eps limits within 5%"


def _check_norm_dominance(rng):
    model = models.entangled_pauli_model(1)
    coeffs = bounds.estimate_coefficients(model, np.zeros(3), 0.01)
    for delta in (0.05, 0.1):
        up_inf = bounds.upper_bound(0.01, delta, coeffs, "linf")
        up_l2 = bounds.upper_bound(0.01, delta, coeffs, "l2")
        assert up_l2.value >= up_inf.value, "Euclidean bound below max-norm bound"
    ideal = bounds.idealized_coefficients(4)
    assert (
        bounds.upper_bound(0.1, 0.1, ideal, "l2").value
        >= bounds.upper_bound(0.1, 0.1, ideal, "linf").value
    )
    return "l2 upper bound dominates the linf upper bound"


def _check_coordinate_monotonicity(rng):
    model = models.entangled_pauli_model(1)
    theta = np.array([0.5, 0.2, -0.1])
    coeffs = bounds.estimate_coefficients(model, theta, 0.01)
    best = bounds.lower_bound(0.01, 0.1, coeffs, "linf").value
    for a in range(3):
        single = bounds.lower_bound(0.01, 0.1, coeffs, "linf", a=a).value
        assert best >= single - 1e-12, f"coordinate {a} exceeds the maximised bound"
    return "maximised lower bound dominates each single coordinate"


def _check_wht_mle_consistency(rng):
    lam = pauli.random_valid_eigenvalues(2, rng)
    p = pauli.eigenvalues_to_rates(lam)
    recovered = models.entangled_pauli_model(2).mle(p * 1e6)
    assert np.abs(recovered - lam[1:]).max() <= 1e-9, "exact counts do not recover lam"
    return "MLE of exact outcome frequencies returns the true eigenvalues"


def _check_determinism(rng):
    model = models.entangled_pauli_model(1)
    runs = [
        mle_lab.find_min_samples(model, np.zeros(3), eps=0.5, delta=0.2,
                                 norm="linf", trials=400, seed=7)
        for _ in range(2)
    ]
    assert runs[0].m_star == runs[1].m_star, "m_star not reproducible"
    assert runs[0].rate_at_m_star == runs[1].rate_at_m_star, "rate not reproducible"
    return f"two identical runs agree (m_star={runs[0].m_star})"


def _check_empirical_sandwich(rng):
    model = models.entangled_pauli_model(1)
    eps, delta = 0.3, 0.1
    result = mle_lab.find_min_samples(model, np.zeros(3), eps=eps, delta=delta,
                                      norm="linf", trials=600, seed=11)
    lower = bounds.asymptotic_lower_linf(eps, delta, 1.0)
    assert lower <= result.m_star, f"lower bound {lower:.1f} > m_star {result.m_star}"
    coeffs = bounds.estimate_coefficients(model, np.zeros(3), eps)
    upper = bounds.upper_bound(eps, delta, coeffs, "linf")
    if upper.applicable:
        assert result.m_star <= upper.value, "m_star above the applicable upper bound"
    return f"lower {lower:.0f} <= m_star {result.m_star}" + (
        f" <= upper {upper.value:.0f}" if upper.applicable else " (upper inapplicable)"
    )


_CHECKS = [
    ("special-functions/lambert-residual", _check_lambert_residual),
    ("special-functions/lambert-log-bound", _check_lambert_log_bound),
    ("special-functions/lambert-concavity", _check_lambert_concavity),
    ("special-functions/mills-bracket", _check_mills_bracket),
    ("special-functions/gaussian-tail-monotone", _check_gaussian_tail_monotone),
    ("pauli/fwht-involution", _check_fwht_involution),
    ("pauli/fwht-naive-match", _check_fwht_naive_match),
    ("pauli/trace-orthogonality", _check_pauli_traces),
    ("pauli/symplectic-commutation", _check_symplectic_commutation),
    ("pauli/rate-eigenvalue-roundtrip", _check_rate_roundtrip),
    ("models/identities", _check_model_identities),
    ("models/derivatives", _check_model_derivatives),
    ("models/shared-formula", _check_shared_formula),
    ("fisher/entangled-inverse-diag", _check_entangled_inverse_diag),
    ("fisher/bell-structural", _check_bell_structural),
    ("fisher/penrose-identities", _check_penrose),
    ("fisher/estimable", _check_estimable),
    ("fisher/spectral-stats", _check_spectral_stats),
    ("fisher/single-copy-witness", _check_single_copy_witness),
    ("bounds/ordering", _check_bound_ordering),
    ("bounds/small-eps-limits", _check_small_eps_limits),
    ("bounds/norm-dominance", _check_norm_dominance),
    ("bounds/coordinate-monotonicity", _check_coordinate_monotonicity),
    ("mle/wht-consistency", _check_wht_mle_consistency),
    ("mle/determinism", _check_determinism),
    ("mle/empirical-sandwich", _check_empirical_sandwich),
]


def run_checks(seed: int = 2024, fault: str | None = None) -> list[CheckResult]:
    """Run the invariant suite; `fault` is a test-only corruption hook."""
    if fault is not None and fault not in FAULT_TARGETS:
        raise ValueError(f"unknown fault target {fault!r}; known: {FAULT_TARGETS}")

    original_fwht = pauli.fwht
    if fault == "fwht":
        def corrupted(v, _inner=original_fwht):
            out = _inner(v)
            out[..., 0] += 1e-3
            return out

        pauli.fwht = corrupted
    results = []
    try:
        for name, check in _CHECKS:
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            start = time.perf_counter()
            try:
                detail = check(rng)
                passed = True
            except AssertionError as exc:
                detail = str(exc)
                passed = False
            except Exception as exc:  # a crash is a failure, not an abort
                detail = f"{type(exc).__name__}: {exc}"
                passed = False
            results.append(
                CheckResult(name=name, passed=passed, detail=detail,
                            seconds=time.perf_counter() - start)
            )
    finally:
        pauli.fwht = original_fwht
    return results
