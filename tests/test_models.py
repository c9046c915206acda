import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fisherbound.fisher import fim
from fisherbound.models import (
    DomainError,
    GaussianKnownCovModel,
    PoissonTruncatedModel,
    bernoulli_model,
    entangled_pauli_model,
    multinomial_model,
    separable_pauli_model,
    two_copy_bell_model,
)
from fisherbound.mle_lab import TRIAL_BLOCK, success_probability
from fisherbound.pauli import (
    PauliIndex,
    pauli_matrix,
    product_probe,
    random_valid_eigenvalues,
)

from oracles import (
    bell_mle_batch_stack,
    central_diff_grad,
    d2logp,
    d3logp,
    mse_vs_crb,
    pauli_matrix_naive,
    poisson_half_d3logp,
    poisson_log_factorials,
    poisson_logz_closed_forms,
    poisson_logz_mp,
    poisson_logz_partial_sums,
    separable_mle_batch_masked,
)


def interior_zoo():
    rng = np.random.default_rng(99)
    return [
        (entangled_pauli_model(1), np.array([0.3, -0.2, 0.1])),
        (entangled_pauli_model(2), 0.6 * random_valid_eigenvalues(2, rng)[1:]),
        (two_copy_bell_model(1), np.array([0.4, 0.25, 0.1])),
        (separable_pauli_model(1, np.array([0.9, 0.3, 0.2])), np.array([0.2, -0.4, 0.6])),
        (bernoulli_model(), np.array([0.35])),
        (multinomial_model(3), np.array([0.25, 0.15, 0.4])),
        (PoissonTruncatedModel(20), np.array([1.7])),
    ]


class TestEntangledPauliModel:
    def test_depolarizing_is_uniform(self):
        model = entangled_pauli_model(1)
        np.testing.assert_allclose(model.probs(np.zeros(3)), np.full(4, 0.25), atol=1e-15)

    def test_identity_channel_is_deterministic(self):
        model = entangled_pauli_model(1)
        np.testing.assert_allclose(
            model.probs(np.array([1.0, 1.0, 1.0]) - 1e-12),
            [1.0, 0.0, 0.0, 0.0],
            atol=1e-11,
        )

    def test_wht_example(self):
        # frozen from the naive WHT oracle
        model = entangled_pauli_model(1)
        np.testing.assert_allclose(
            model.probs(np.array([0.8, 0.8, 0.8])),
            [0.85, 0.05, 0.05, 0.05],
            atol=1e-15,
        )

    def test_dimensions(self):
        model = entangled_pauli_model(2)
        assert model.d == 15
        assert model.K == 16

    def test_rejects_invalid_eigenvalues(self):
        model = entangled_pauli_model(1)
        with pytest.raises(ValueError):
            model.probs(np.array([1.0, 1.0, -1.0]))

    def test_mle_matches_wht_of_frequencies(self):
        # frozen: counts (3,1,0,0) -> frequencies (3/4,1/4,0,0) -> (1, 1, 1/2, 1/2)
        model = entangled_pauli_model(1)
        np.testing.assert_allclose(
            model.mle(np.array([3, 1, 0, 0])), [1.0, 0.5, 0.5], atol=1e-15
        )


class TestTwoCopyBellModel:
    def test_maximally_mixed_is_uniform(self):
        model = two_copy_bell_model(1)
        np.testing.assert_allclose(model.probs(np.zeros(3)), np.full(4, 0.25), atol=1e-15)

    def test_shares_formula_with_entangled_model(self):
        s = np.array([0.5, 0.3, 0.2])
        np.testing.assert_allclose(
            two_copy_bell_model(1).probs(s), entangled_pauli_model(1).probs(s), atol=1e-15
        )

    def test_pure_stabilizer_against_dense_two_copy_trace(self):
        # |0><0| has Pauli vector (1, c_Z=1, 0, 0): squared moments s = (1,0,0)
        # in this package's (Z, X, Y) coordinate order.
        model = two_copy_bell_model(1)
        got = model.probs(np.array([1.0, 0.0, 0.0]) - np.array([1e-13, 0, 0]))

        # dense oracle: Tr[Pi_x (rho x rho)] with Bell projectors
        rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1.0 / math.sqrt(2.0)
        expected = []
        for x in range(4):
            bell = np.kron(pauli_matrix_naive(x, 1), np.eye(2)) @ psi
            expected.append(np.real(bell.conj() @ np.kron(rho, rho) @ bell))
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_domain_restricted_to_unit_interval(self):
        model = two_copy_bell_model(1)
        assert not model.contains(np.array([-0.1, 0.0, 0.0]))


def _axis_probs(model, theta, a):
    """(p_plus, p_minus) of a projective measurement along axis a."""
    return model.probs(theta)[2 * a:2 * a + 2] * model.d


def _axis_info(model, theta, a):
    """Per-shot information about lam_a once axis a is measured."""
    return fim(model, theta).matrix[a, a] * model.d


class TestSeparablePauliModel:
    def test_axis_probabilities_at_depolarizing(self):
        model = separable_pauli_model(1, np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(_axis_probs(model, np.zeros(3), 0), [0.5, 0.5],
                                   rtol=1e-15)

    def test_single_axis_information_matches_finite_difference(self):
        # binomial-model oracle: I(lam) = q'(lam)^2 * (1/q + 1/(1-q))
        model = separable_pauli_model(1, np.array([1.0, 0.0, 0.0]))
        assert _axis_info(model, np.zeros(3), 0) == pytest.approx(1.0, rel=1e-12)

        r, lam, h = 0.8, 0.3, 1e-6
        model2 = separable_pauli_model(1, np.array([r, 0.5, 0.1]))
        q = lambda l: 0.5 * (1.0 + r * l)
        dq = (q(lam + h) - q(lam - h)) / (2 * h)
        oracle = dq**2 * (1.0 / q(lam) + 1.0 / (1.0 - q(lam)))
        theta = np.array([lam, -0.2, 0.4])
        assert _axis_info(model2, theta, 0) == pytest.approx(oracle, rel=1e-6)
        np.testing.assert_allclose(_axis_probs(model2, theta, 0), [q(lam), 1.0 - q(lam)],
                                   rtol=1e-15)

    def test_inverse_information_bound_witness(self):
        # r_1^2 = 1/2, lam = 0: 1/I = 2 >= 1/r^2 - 1 = 1
        model = separable_pauli_model(1, np.array([math.sqrt(0.5), 0.5, 0.5]))
        inv_info = 1.0 / _axis_info(model, np.zeros(3), 0)
        assert inv_info == pytest.approx(2.0, rel=1e-12)
        assert inv_info >= 1.0 / 0.5 - 1.0

    def test_zero_component_not_identifiable(self):
        model = separable_pauli_model(1, np.array([1.0, 0.0, 0.0]))
        f = fim(model, np.zeros(3))
        assert f.estimable.tolist() == [True, False, False]
        assert f.is_singular
        assert list(model.identifiable) == [True, False, False]

    def test_purity_violation_rejected(self):
        with pytest.raises(ValueError, match="purity"):
            separable_pauli_model(1, np.array([1.0, 1.0, 0.5]))

    def test_accepts_full_length_probe(self):
        model = separable_pauli_model(1, np.array([1.0, 0.9, 0.3, 0.2]))
        np.testing.assert_allclose(model.r, [0.9, 0.3, 0.2])

    def test_mixed_distribution_is_uniform_over_axes(self):
        model = separable_pauli_model(1, np.array([0.9, 0.3, 0.2]))
        p = model.probs(np.zeros(3))
        np.testing.assert_allclose(p.reshape(3, 2).sum(axis=1), np.full(3, 1 / 3))

    def test_mle_recovers_truth_from_exact_counts(self):
        model = separable_pauli_model(1, np.array([0.9, 0.3, 0.2]))
        lam = np.array([0.4, -0.2, 0.6])
        counts = model.probs(lam) * 6e6
        np.testing.assert_allclose(model.mle(counts), lam, atol=1e-9)


AFFINE_MODELS = [
    entangled_pauli_model(1),
    two_copy_bell_model(1),
    separable_pauli_model(1, np.array([1.0, 0.0, 0.0])),  # r = 0: only the box binds
    bernoulli_model(),
    multinomial_model(2),
]
# box edges, points just outside them, NaN, and the rest of a wider interval
COORDINATES = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 1.0 + 1e-12, -1.0 - 1e-12, -1e-300, 0.5, math.nan]),
    st.floats(min_value=-1.5, max_value=1.5),
)


@settings(max_examples=400, deadline=None)
@given(index=st.integers(0, len(AFFINE_MODELS) - 1), data=st.data())
def test_contains_exactly_where_probs_succeeds(index, data):
    model = AFFINE_MODELS[index]
    theta = np.array(data.draw(st.lists(COORDINATES, min_size=model.d, max_size=model.d)))
    try:
        model.probs(theta)
    except DomainError as exc:
        assert str(exc) == f"{model.scheme}: parameter {theta!r} outside the domain"
        assert not model.contains(theta)
    else:
        assert model.contains(theta)


class TestMleBatchBitwise:
    """The buffer-reusing MLEs reproduce the allocating ones bit for bit."""

    @pytest.mark.parametrize("factory", [entangled_pauli_model, two_copy_bell_model])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bell_models(self, factory, n):
        model = factory(n)
        rng = np.random.default_rng(50 + n)
        p = rng.dirichlet(np.full(model.K, 0.3))  # sparse: many zero counts
        counts = rng.multinomial(200, p, size=64)
        counts[0] = 0
        counts[0, -1] = 3  # a row with all mass on one outcome
        before = counts.copy()
        got = model.mle_batch(counts)
        assert np.array_equal(counts, before)
        assert np.array_equal(got, bell_mle_batch_stack(counts))
        assert np.array_equal(model.mle(counts[5]), bell_mle_batch_stack(counts[5:6])[0])

    @pytest.mark.parametrize("factory", [entangled_pauli_model, two_copy_bell_model])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bell_block_rows_in_c_order(self, factory, n):
        # one production trial block at a random channel point: numpy sums
        # each row's l2 error norm in an order set by the memory layout
        rng = np.random.default_rng(70 + n)
        model = factory(n)
        if model.scheme == "entangled-pauli":
            theta = random_valid_eigenvalues(n, rng)[1:]
        else:
            bloch = rng.standard_normal((n, 3))
            bloch /= np.linalg.norm(bloch, axis=1, keepdims=True)
            theta = 0.99 * product_probe(bloch)[1:] ** 2
        p = np.clip(model.probs(theta), 0.0, None)
        counts = rng.multinomial(1000 * model.K, p / p.sum(), size=TRIAL_BLOCK)
        got = model.mle_batch(counts)
        expected = bell_mle_batch_stack(counts)
        assert np.array_equal(got, expected)
        assert got.strides[1] == got.itemsize
        assert got.strides[0] >= got.shape[1] * got.itemsize
        norms = np.linalg.norm(got - theta, axis=1)
        assert np.array_equal(
            norms, np.linalg.norm(np.ascontiguousarray(expected) - theta, axis=1)
        )

    @pytest.mark.parametrize("n", [1, 2])
    def test_separable_with_unseen_axes_and_zero_probe_components(self, n):
        rng = np.random.default_rng(60 + n)
        bloch = rng.standard_normal((n, 3))
        bloch /= np.linalg.norm(bloch, axis=1, keepdims=True)
        r = product_probe(bloch)[1:]
        r[::3] = 0.0  # zero probe components
        r[1] = -r[1] if r[1] else -0.5  # a negative component
        model = separable_pauli_model(n, r)
        counts = rng.multinomial(3 * model.d, np.full(model.K, 1 / model.K), size=40)
        counts[:, 2:4] = 0  # axis 1 never measured
        counts[3] = 0
        counts[3, 0] = 5  # one row sees only axis 0
        before = counts.copy()
        got = model.mle_batch(counts)
        assert np.array_equal(counts, before)
        expected = separable_mle_batch_masked(counts, r)
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))  # signed zeros too
        assert np.array_equal(model.mle(counts[3]), separable_mle_batch_masked(counts[3:4], r)[0])

    def test_separable_clips_to_unit_interval(self):
        model = separable_pauli_model(1, np.array([0.1, 0.2, -0.3]))
        counts = np.array([[9, 1, 0, 4, 7, 0]])
        got = model.mle_batch(counts)
        assert np.array_equal(got, separable_mle_batch_masked(counts, model.r))
        assert np.array_equal(got, np.array([[1.0, -1.0, -1.0]]))


class TestClassicalModels:
    def test_bernoulli_distribution(self):
        model = bernoulli_model()
        np.testing.assert_allclose(model.probs(np.array([0.5])), [0.5, 0.5])

    def test_multinomial_uniform(self):
        model = multinomial_model(2)
        np.testing.assert_allclose(
            model.probs(np.array([1 / 3, 1 / 3])), np.full(3, 1 / 3), atol=1e-15
        )

    def test_poisson_series_oracle(self):
        model = PoissonTruncatedModel(20)
        p = model.probs(np.array([1.0]))
        weights = np.array([math.exp(-1.0) / math.factorial(k) for k in range(21)])
        np.testing.assert_allclose(p, weights / weights.sum(), atol=1e-14)

    @pytest.mark.parametrize("truncation, dps", [(20, 120), (200, 900)])
    def test_poisson_logz_derivatives_against_mpmath(self, truncation, dps):
        # The closed forms l1 = 1 - h, l2 = -h g, l3 = -h (g^2 - K/t^2 + h g)
        # against the partial-sum formulas in mpmath, at theta from 0.05 to
        # 10 K.  Their error is never above that of the same formulas in
        # float64, which keep no digit of l2 and l3 where p_K is small.  l1 is
        # read from the score at k = 0, l2 and l3 from the probabilities.
        model = PoissonTruncatedModel(truncation)
        log_factorials = poisson_log_factorials(truncation)
        for theta in np.geomspace(0.05, 10.0 * truncation, 15):
            want = poisson_logz_mp(truncation, float(theta), dps)
            point = np.array([theta])
            got = (-model.dlogp(point, model.probs(point))[0, 0],
                   *poisson_logz_closed_forms(model, theta))
            old = poisson_logz_partial_sums(log_factorials, float(theta))
            for order, (g, o, w) in enumerate(zip(got, old, want), start=1):
                err, old_err = (float(abs((value - w) / w)) for value in (g, o))
                assert err <= old_err, (theta, order, err, old_err)
                if model.probs([theta])[-1] > 1e-300:
                    # where h is a normal float; l3 loses most at theta >> K,
                    # where its cancellation amplifies the weights' own
                    # rounding (2.2e-13 at K = 200, theta = 2000)
                    assert err <= 1e-9, (theta, order, err)

    @pytest.mark.parametrize("theta", [0.05, 3.3, 1000.3, 1999.3, 3400.0, 20000.0])
    def test_poisson_probs_against_mpmath_at_truncation_2000(self, theta):
        # the weights' logs are summed outward from the mode, so each carries
        # only the roundings of the steps between it and the mode
        import mpmath

        truncation = 2000
        got = PoissonTruncatedModel(truncation).probs(np.array([theta]))
        with mpmath.workdps(50):
            t = mpmath.mpf(theta)
            weights = [t**k / mpmath.factorial(k) for k in range(truncation + 1)]
            z = mpmath.fsum(weights)
            want = np.array([float(w / z) for w in weights])
        normal = want > 1e-290
        assert normal.any()
        assert np.abs(got[normal] / want[normal] - 1.0).max() <= 2e-12

    @pytest.mark.parametrize("truncation", [20, 200])
    @pytest.mark.parametrize("theta", [0.05, 1.0, 5.0, 15.0, 150.0])
    @pytest.mark.parametrize("radius", [0.01, 0.1, 0.5])
    def test_poisson_envelope_dominates_a_fine_grid(self, truncation, theta, radius):
        model = PoissonTruncatedModel(truncation)
        point = np.array([theta])
        envelope = model.third_derivative_envelope(point, radius, model.probs(point))
        if theta - radius <= 0.0:
            assert np.all(envelope == np.inf)
            return
        grid = np.linspace(theta - radius, theta + radius, 20001)
        sup = poisson_half_d3logp(poisson_log_factorials(truncation), grid).max(axis=0)
        # both sides round k / lo^3 at the grid's first point, each its own way
        assert np.all(sup <= envelope * (1.0 + 4.0 * np.finfo(float).eps))

    @pytest.mark.parametrize("truncation, theta, cap", [(20, 15.0, 4.0), (200, 150.0, 1.1),
                                                        (20, 150.0, 6e3)])
    def test_poisson_envelope_mean_near_the_grid_where_h_is_large(self, truncation, theta,
                                                                  cap):
        # g <= g(lo) instead of |g| <= K/lo + 1: mu_R over the r = 0.5 ball is
        # 3.6, 1.08 and 5.2e3 times the grid's mean (35, 2.5 and 6.6e6 with
        # the looser bound), where h = p_K is not small
        model = PoissonTruncatedModel(truncation)
        point = np.array([theta])
        p = model.probs(point)
        grid = np.linspace(theta - 0.5, theta + 0.5, 20001)
        sup = poisson_half_d3logp(poisson_log_factorials(truncation), grid).max(axis=0)
        mu_r, _ = model.outcome_moments(point, p, fim(model, point), [0.5])[3][0.5]
        assert p @ sup <= mu_r <= cap * (p @ sup)

    def test_poisson_envelope_moments_infinite_where_the_ball_reaches_zero(self):
        model = PoissonTruncatedModel(20)
        point = np.array([1.0])
        envelopes = model.outcome_moments(point, model.probs(point), fim(model, point),
                                          [1.0, 0.99])[3]
        assert envelopes[1.0] == (math.inf, math.inf)
        assert all(math.isfinite(v) for v in envelopes[0.99])

    def test_gaussian_analytic_fisher(self):
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        model = GaussianKnownCovModel(cov)
        np.testing.assert_allclose(
            model.analytic_fisher(np.zeros(2), model.probs(np.zeros(2))), np.linalg.inv(cov),
            atol=1e-12
        )


class TestSharedIdentities:
    @pytest.mark.parametrize("model,theta", interior_zoo(),
                             ids=lambda v: getattr(v, "scheme", None) or "theta")
    def test_normalization(self, model, theta):
        p = model.probs(theta)
        assert abs(p.sum() - 1.0) <= 1e-10
        assert np.all(p >= 0.0)

    @pytest.mark.parametrize("model,theta", interior_zoo(),
                             ids=lambda v: getattr(v, "scheme", None) or "theta")
    def test_score_identity(self, model, theta):
        p = model.probs(theta)
        score = model.dlogp(theta, p)
        assert np.abs(p @ score).max() <= 1e-8

    @pytest.mark.parametrize("model,theta", interior_zoo(),
                             ids=lambda v: getattr(v, "scheme", None) or "theta")
    def test_information_identity(self, model, theta):
        p = model.probs(theta)
        score = model.dlogp(theta, p)
        outer = np.einsum("k,ki,kj->ij", p, score, score)
        hessian = np.einsum("k,kij->ij", p, d2logp(model, theta))
        assert np.abs(outer + hessian).max() <= 1e-8

    @pytest.mark.parametrize("model,theta", interior_zoo(),
                             ids=lambda v: getattr(v, "scheme", None) or "theta")
    def test_derivatives_match_finite_differences(self, model, theta):
        h = 1e-5

        def score(t):
            return model.dlogp(t, model.probs(t))

        for i in range(model.d):
            e = np.zeros(model.d)
            e[i] = h
            fd = (np.log(model.probs(theta + e)) - np.log(model.probs(theta - e))) / (2 * h)
            np.testing.assert_allclose(fd, score(theta)[:, i], atol=1e-6, rtol=1e-6)
            fd2 = (score(theta + e) - score(theta - e)) / (2 * h)
            np.testing.assert_allclose(
                fd2, d2logp(model, theta)[:, :, i], atol=1e-5, rtol=1e-5
            )
            fd3 = (d2logp(model, theta + e) - d2logp(model, theta - e)) / (2 * h)
            np.testing.assert_allclose(
                fd3, d3logp(model, theta)[:, :, :, i], atol=1e-3, rtol=1e-3
            )

    def test_normalization_on_random_draws(self):
        rng = np.random.default_rng(55)
        samplers = [
            (entangled_pauli_model(1),
             lambda: 0.999 * random_valid_eigenvalues(1, rng)[1:]),
            (entangled_pauli_model(2),
             lambda: 0.999 * random_valid_eigenvalues(2, rng)[1:]),
            (two_copy_bell_model(1),
             lambda: 0.999 * np.abs(random_valid_eigenvalues(1, rng)[1:]) ** 2),
            (separable_pauli_model(1, np.array([0.8, 0.4, 0.3])),
             lambda: rng.uniform(-0.99, 0.99, size=3)),
            (bernoulli_model(), lambda: rng.uniform(0.01, 0.99, size=1)),
            (multinomial_model(3), lambda: rng.dirichlet(np.ones(4))[:3] * 0.99),
            (PoissonTruncatedModel(20), lambda: rng.uniform(0.1, 4.0, size=1)),
        ]
        for model, draw in samplers:
            for _ in range(100):
                theta = draw()
                if not model.contains(theta):
                    continue
                assert abs(model.probs(theta).sum() - 1.0) <= 1e-10

    def test_third_derivative_envelope_dominates_samples(self):
        # envelope must upper-bound 0.5 * ||l'''||_op at sampled ball points
        model = entangled_pauli_model(1)
        theta = np.array([0.2, -0.1, 0.3])
        radius = 0.1
        envelope = model.third_derivative_envelope(theta, radius, model.probs(theta))
        rng = np.random.default_rng(0)
        for _ in range(50):
            step = rng.standard_normal(3)
            step *= radius * rng.uniform() / np.linalg.norm(step)
            point = theta + step
            tensors = d3logp(model, point)
            scores = model.dlogp(point, model.probs(point))
            for k in range(model.K):
                # rank-one symmetric tensor: op norm is 2 ||g||^3 with g = A_k/p_k
                g = scores[k]
                opnorm = 2.0 * np.linalg.norm(g) ** 3
                np.testing.assert_allclose(
                    np.abs(tensors[k]).max(), np.abs(g).max() ** 3 * 2.0, rtol=1e-10
                )
                assert 0.5 * opnorm <= envelope[k] + 1e-9


class TestSampling:
    def test_deterministic_outcome(self):
        # every shot lands on the identity outcome, whose MLE is lam = 1
        model = entangled_pauli_model(1)
        rng = np.random.default_rng(0)
        theta = np.array([1.0, 1.0, 1.0]) - 1e-13
        estimates = model.estimate_batch(theta, model.probs(theta), 1, rng, 5)
        assert np.array_equal(estimates, np.ones((5, 3)))

    def test_counts_near_uniform_within_five_sigma(self):
        # at the depolarizing point each eigenvalue estimate has variance 1/m
        model = entangled_pauli_model(1)
        rng = np.random.default_rng(123)
        m = 40000
        estimates = model.estimate_batch(np.zeros(3), model.probs(np.zeros(3)), m, rng, 20)
        assert np.abs(estimates).max() <= 5 / math.sqrt(m)
        # each estimate is the WHT of the frequencies of m shots
        counts = m * np.array([model.probs(row) for row in estimates])
        assert np.abs(counts - np.rint(counts)).max() <= 1e-6

    def test_seed_reproducibility(self):
        model = entangled_pauli_model(1)
        p = model.probs(np.zeros(3))
        a = model.estimate_batch(np.zeros(3), p, 500, np.random.default_rng(42), 8)
        b = model.estimate_batch(np.zeros(3), p, 500, np.random.default_rng(42), 8)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("case", range(9))
    @pytest.mark.parametrize("m", [1, 37, 10**6, 10**9])
    def test_block_drawn_in_pieces_equals_block_drawn_at_once(self, case, m):
        # success_probability draws a block's rows in pieces from the block's
        # stream; numpy's multinomial and normal draws consume it row by row
        rng = np.random.default_rng(8)
        model, theta = (interior_zoo() + [
            (two_copy_bell_model(2), random_valid_eigenvalues(2, rng)[1:] ** 2),
            (GaussianKnownCovModel(np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2],
                                             [0.1, 0.2, 0.5]])), np.array([0.1, -2.0, 3.0])),
        ])[case]

        def stream():
            return np.random.Generator(np.random.Philox(np.random.SeedSequence(7)))

        p = model.probs(theta)
        at_once = model.estimate_batch(theta, p, m, stream(), TRIAL_BLOCK)
        rng = stream()
        pieces = [model.estimate_batch(theta, p, m, rng, rows) for rows in (1, 7, 100, 404)]
        assert np.array_equal(np.concatenate(pieces), at_once)

    def test_sample_size_precondition(self):
        model = bernoulli_model()
        with pytest.raises(ValueError, match="sample size"):
            success_probability(model, np.array([0.5]), model.probs(np.array([0.5])), 0, 0.1,
                                "linf", trials=10, seed=0)
        with pytest.raises(ValueError, match="sample size"):
            mse_vs_crb(model, np.array([0.5]), 0, trials=10, seed=0)


class TestGaussianModel:
    def test_sample_mean_distribution(self):
        model = GaussianKnownCovModel(np.diag([4.0, 1.0]))
        rng = np.random.default_rng(11)
        theta = np.array([1.0, -2.0])
        means = model.estimate_batch(theta, model.probs(theta), m=100, rng=rng, trials=4000)
        np.testing.assert_allclose(means.mean(axis=0), [1.0, -2.0], atol=0.01 * 5)
        np.testing.assert_allclose(
            means.var(axis=0), [0.04, 0.01], rtol=0.2
        )

    def test_exact_coefficients(self):
        # E|N(0, s^2)|^3 = 2 sqrt(2/pi) s^3, along each axis and the top eigenvector
        cov = np.array([[4.0, 1.0], [1.0, 1.0]])
        model = GaussianKnownCovModel(cov)
        f = fim(model, np.zeros(2))
        v_h, rho_diag, rho_top, envelopes = model.outcome_moments(
            np.zeros(2), model.probs(np.zeros(2)), f, [0.1, 0.2])
        assert envelopes == {0.1: (0.0, 0.0), 0.2: (0.0, 0.0)}
        assert v_h == 0.0
        scale = 2.0 * math.sqrt(2.0 / math.pi)
        np.testing.assert_allclose(rho_diag, scale * np.array([8.0, 1.0]), rtol=1e-15)
        lam_max = np.linalg.eigvalsh(cov)[-1]
        assert rho_top == pytest.approx(scale * lam_max**1.5, rel=1e-12)

    def test_probs_is_empty_inside_and_raises_outside(self):
        # continuous outcomes: K = 0, and probs is still the domain check
        model = GaussianKnownCovModel(np.eye(2))
        assert model.probs(np.array([1e300, -2.0])).shape == (0,)
        with pytest.raises(DomainError, match="gaussian-known-var: parameter"):
            model.probs(np.array([np.nan, 0.0]))

    def test_domain_excludes_non_finite_theta(self):
        model = GaussianKnownCovModel(np.eye(2))
        assert model.contains(np.array([1e300, -2.0]))
        for bad in (np.nan, np.inf, -np.inf):
            assert not model.contains(np.array([bad, 0.0]))


class TestModelIdentity:
    def test_models_compare_and_hash_by_identity(self):
        # two models that share d, K, scheme and qubits are still two models
        first = separable_pauli_model(1, [0.8, 0.4, 0.3])
        second = separable_pauli_model(1, [0.1, 0.2, 0.3])
        assert (first.d, first.K, first.scheme, first.qubits) == (
            second.d, second.K, second.scheme, second.qubits)
        assert first != second
        assert first == first
        zoo = [model for model, _ in interior_zoo()] + [first, second,
                                                         GaussianKnownCovModel(np.eye(2))]
        assert len({hash(model) for model in zoo}) == len(zoo)
        assert len(set(zoo)) == len(zoo)
        assert PoissonTruncatedModel(20) != PoissonTruncatedModel(20)

    def test_qubits_is_set_only_by_the_pauli_models(self):
        assert entangled_pauli_model(2).qubits == 2
        assert separable_pauli_model(1, [0.8, 0.4, 0.3]).qubits == 1
        assert bernoulli_model().qubits is None
        assert PoissonTruncatedModel(20).qubits is None


# Input refusals: (call, message)
MODEL_REFUSALS = {
    "theta-length": (lambda: bernoulli_model().probs([0.2, 0.3]),
                     "bernoulli: expected parameter vector of length 1, got shape (2,)"),
    "probe-identity": (lambda: separable_pauli_model(1, [0.5, 1.0, 0.0, 0.0]),
                       "identity component of the probe must be 1"),
    "probe-length": (lambda: separable_pauli_model(1, [1.0, 0.0]),
                     "probe vector must have length 3 or 4"),
    "multinomial-dim": (lambda: multinomial_model(0), "multinomial needs d >= 1"),
    "poisson-truncation": (lambda: PoissonTruncatedModel(0), "truncation must be >= 1"),
}


@pytest.mark.parametrize("case", sorted(MODEL_REFUSALS))
def test_input_refused(case):
    call, message = MODEL_REFUSALS[case]
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message
