import math

import numpy as np
import pytest

from fisherbound.mle_lab import (
    BudgetExceededError,
    _block_streams,
    _errors,
    _estimate_batch,
    find_min_samples,
    mle_classical,
    mle_pauli_eigenvalues,
    mse_vs_crb,
    resolve_threads,
    run_trial,
    success_probability,
    wilson_interval,
)
from fisherbound.models import (
    GaussianKnownCovModel,
    bernoulli_model,
    entangled_pauli_model,
    multinomial_model,
    separable_pauli_model,
)

from oracles import bernoulli_success_exact, wht_naive


class TestPauliMle:
    def test_all_counts_on_identity_outcome(self):
        lam = mle_pauli_eigenvalues(np.array([50, 0, 0, 0]), 1)
        np.testing.assert_allclose(lam, np.ones(4))

    def test_uniform_counts(self):
        lam = mle_pauli_eigenvalues(np.full(4, 25), 1)
        np.testing.assert_allclose(lam, [1.0, 0, 0, 0], atol=1e-15)

    def test_matches_naive_wht_oracle(self):
        counts = np.array([3, 1, 0, 0])
        expected = wht_naive(counts / 4.0, 1)
        np.testing.assert_allclose(
            mle_pauli_eigenvalues(counts, 1), expected, atol=1e-15
        )
        np.testing.assert_allclose(expected, [1.0, 1.0, 0.5, 0.5], atol=1e-15)

    def test_exact_probabilities_recover_truth(self):
        rng = np.random.default_rng(3)
        p = rng.dirichlet(np.ones(16))
        lam = wht_naive(p, 2)
        np.testing.assert_allclose(
            mle_pauli_eigenvalues(p * 1e7, 2), lam, atol=1e-9
        )

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError):
            mle_pauli_eigenvalues(np.zeros(4), 1)


class TestClassicalMle:
    def test_bernoulli(self):
        est, boundary = mle_classical("bernoulli", successes=5, total=10)
        assert est[0] == 0.5 and not boundary
        _, boundary = mle_classical("bernoulli", successes=0, total=10)
        assert boundary

    def test_gaussian_sample_mean(self):
        samples = np.array([[1.0, 2.0], [3.0, 4.0]])
        est, _ = mle_classical("gaussian", samples=samples)
        np.testing.assert_allclose(est, [2.0, 3.0])

    def test_poisson(self):
        est, boundary = mle_classical("poisson", samples=np.array([2.0, 0.0, 4.0]))
        assert est[0] == pytest.approx(2.0) and not boundary

    def test_multinomial(self):
        est, _ = mle_classical("multinomial", counts=np.array([2, 3, 5]))
        np.testing.assert_allclose(est, [0.2, 0.3])


class TestRunTrial:
    def test_deterministic_model_always_succeeds(self):
        model = entangled_pauli_model(1)
        theta = np.array([1.0, 1.0, 1.0]) - 1e-13
        outcome = run_trial(model, theta, 20, 0.05, "linf", np.random.default_rng(0))
        assert outcome.success and outcome.error_linf <= 1e-6

    def test_infinite_eps_sentinel(self):
        model = bernoulli_model()
        outcome = run_trial(model, np.array([0.5]), 3, math.inf, "linf",
                            np.random.default_rng(1))
        assert outcome.success

    def test_reproducible_verdict(self):
        model = entangled_pauli_model(1)
        outcomes = [
            run_trial(model, np.zeros(3), 100, 0.3, "linf", np.random.default_rng(7))
            for _ in range(2)
        ]
        np.testing.assert_array_equal(outcomes[0].estimate, outcomes[1].estimate)
        assert outcomes[0].success == outcomes[1].success

    def test_error_norms_consistent(self):
        model = multinomial_model(3)
        outcome = run_trial(model, np.full(3, 0.25), 50, 0.5, "l2",
                            np.random.default_rng(5))
        assert outcome.error_linf <= outcome.error_l2 + 1e-15


class TestSuccessProbability:
    def test_deterministic_rate_one(self):
        model = entangled_pauli_model(1)
        theta = np.array([1.0, 1.0, 1.0]) - 1e-13
        est = success_probability(model, theta, 5, 0.1, "linf", trials=200, seed=0)
        assert est.rate == 1.0
        assert est.wilson_lo < 1.0 <= est.wilson_hi

    def test_trials_precondition(self):
        with pytest.raises(ValueError):
            success_probability(bernoulli_model(), np.array([0.5]), 5, 0.1, "linf",
                                trials=0, seed=0)

    def test_two_seeds_are_statistically_compatible(self):
        model = entangled_pauli_model(1)
        a = success_probability(model, np.zeros(3), 200, 0.5, "linf", 2000, seed=1)
        b = success_probability(model, np.zeros(3), 200, 0.5, "linf", 2000, seed=2)
        assert a.wilson_lo <= b.wilson_hi and b.wilson_lo <= a.wilson_hi

    def test_thread_count_does_not_change_result(self, monkeypatch):
        model = entangled_pauli_model(1)
        kwargs = dict(m=64, eps=0.3, norm="linf", trials=1500, seed=9)
        monkeypatch.setenv("FISHERBOUND_THREADS", "1")
        serial = success_probability(model, np.zeros(3), **kwargs)
        monkeypatch.setenv("FISHERBOUND_THREADS", "4")
        parallel = success_probability(model, np.zeros(3), **kwargs)
        assert serial == parallel

    @pytest.mark.parametrize("norm", ["linf", "l2"])
    def test_counts_match_scoring_both_norms(self, norm):
        # reference: score every block through _errors, which computes both norms
        cases = [
            (entangled_pauli_model(2), np.zeros(15), 300, 0.1),
            (separable_pauli_model(1, np.array([0.9, 0.0, 0.4])),
             np.array([0.2, 0.0, -0.5]), 400, 0.15),
            (multinomial_model(3), np.array([0.2, 0.3, 0.1]), 200, 0.05),
            (GaussianKnownCovModel(np.eye(2)), np.zeros(2), 50, 0.25),
        ]
        for model, theta, m, eps in cases:
            expected = 0
            for rng, size in _block_streams(4, 2, 1100):
                estimates = _estimate_batch(model, theta, m, rng, size)
                err_linf, err_l2 = _errors(estimates, theta)
                error = err_linf if norm == "linf" else err_l2
                expected += int((error <= eps).sum())
            got = success_probability(model, theta, m, eps, norm, 1100, seed=4,
                                      context=2)
            assert got.successes == expected

    def test_resolve_threads_validation(self, monkeypatch):
        monkeypatch.setenv("FISHERBOUND_THREADS", "3")
        assert resolve_threads() == 3
        monkeypatch.setenv("FISHERBOUND_THREADS", "0")
        assert resolve_threads() >= 1
        monkeypatch.setenv("FISHERBOUND_THREADS", "nope")
        with pytest.raises(ValueError):
            resolve_threads()


class TestWilsonInterval:
    def test_brackets_rate(self):
        lo, hi = wilson_interval(90, 100)
        assert lo < 0.9 < hi
        assert 0.0 <= lo and hi <= 1.0

    def test_shrinks_with_trials(self):
        lo1, hi1 = wilson_interval(90, 100)
        lo2, hi2 = wilson_interval(900, 1000)
        assert hi2 - lo2 < hi1 - lo1

    def test_level_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 10, level=0.8)


class TestFindMinSamples:
    def test_huge_eps_needs_one_sample(self):
        # the estimator always lands inside a ball wider than the domain
        model = entangled_pauli_model(1)
        result = find_min_samples(model, np.zeros(3), eps=3.0, delta=0.1,
                                  norm="linf", trials=200, seed=0)
        assert result.m_star == 1

    def test_bernoulli_against_exact_binomial_oracle(self):
        model = bernoulli_model()
        result = find_min_samples(model, np.array([0.5]), eps=0.4, delta=0.1,
                                  norm="linf", trials=2000, seed=3)
        assert result.m_star <= 9  # single digits
        # the exact success curve confirms the bracketing
        assert bernoulli_success_exact(0.5, result.m_star, 0.4) >= 0.9
        lo = result.bracket[0]
        if lo >= 1:
            assert bernoulli_success_exact(0.5, lo, 0.4) < 0.95

    def test_bracket_and_determinism(self):
        model = entangled_pauli_model(1)
        runs = [
            find_min_samples(model, np.zeros(3), eps=0.2, delta=0.1, norm="linf",
                             trials=800, seed=5)
            for _ in range(2)
        ]
        assert runs[0].m_star == runs[1].m_star
        assert runs[0].bracket == runs[1].bracket
        assert runs[0].rate_at_m_star == runs[1].rate_at_m_star
        assert runs[0].bracket[1] - runs[0].bracket[0] == 1
        assert runs[0].wilson_lo >= 0.9

    def test_budget_exceeded(self):
        model = entangled_pauli_model(1)
        with pytest.raises(BudgetExceededError) as err:
            find_min_samples(model, np.zeros(3), eps=0.01, delta=0.1, norm="linf",
                             trials=200, seed=0, m_max=64)
        assert err.value.probes  # partial results available

    def test_resolution_controls_bracket_width(self):
        model = entangled_pauli_model(1)
        result = find_min_samples(model, np.zeros(3), eps=0.2, delta=0.1,
                                  norm="linf", trials=800, seed=5, resolution=8)
        assert result.bracket[1] - result.bracket[0] <= 8

    def test_true_lattice_reversal_is_flagged_not_fatal(self):
        # the fair-coin success curve at eps=0.2 really dips between M=20
        # (exact 0.9586) and M=24 (exact 0.9361); the default search records
        # it, the strict mode trips on it
        from fisherbound.mle_lab import MonotonicityError

        model = bernoulli_model()
        result = find_min_samples(model, np.array([0.5]), eps=0.2, delta=0.1,
                                  norm="linf", trials=1000, seed=2)
        assert bernoulli_success_exact(0.5, 20, 0.2) > bernoulli_success_exact(0.5, 24, 0.2)
        assert result.monotonicity_notes
        with pytest.raises(MonotonicityError):
            find_min_samples(model, np.array([0.5]), eps=0.2, delta=0.1,
                             norm="linf", trials=1000, seed=2,
                             strict_monotonicity=True)


class TestMseVsCrb:
    def test_gaussian_ratio_is_one_up_to_noise(self):
        # the true per-trial MSE equals the CRB exactly for every m
        model = GaussianKnownCovModel(np.diag([2.0, 0.5]))
        report = mse_vs_crb(model, np.zeros(2), m=50, trials=4000, seed=2)
        np.testing.assert_allclose(report.crb, [0.04, 0.01], rtol=1e-12)
        np.testing.assert_allclose(report.ratio, 1.0, atol=0.08)

    def test_bernoulli_ratio_within_five_percent(self):
        # binomial variance oracle: Var(S/M) = theta(1-theta)/M exactly
        model = bernoulli_model()
        report = mse_vs_crb(model, np.array([0.5]), m=10000, trials=2000, seed=6)
        assert report.crb[0] == pytest.approx(0.25 / 10000, rel=1e-12)
        assert abs(report.ratio[0] - 1.0) <= 0.05

    def test_entangled_ratios_within_five_percent(self):
        model = entangled_pauli_model(1)
        report = mse_vs_crb(model, np.zeros(3), m=10000, trials=2000, seed=6)
        np.testing.assert_allclose(report.crb, np.full(3, 1e-4), rtol=1e-12)
        assert np.abs(report.ratio - 1.0).max() <= 0.05

    def test_unbiasedness_trend(self):
        model = entangled_pauli_model(1)
        theta = np.array([0.3, -0.1, 0.2])
        biases = []
        for m in (100, 1000, 10000):
            total = np.zeros(3)
            from fisherbound.mle_lab import _block_streams, _estimate_batch

            for rng, size in _block_streams(123, 0, 2000):
                total += _estimate_batch(model, theta, m, rng, size).sum(axis=0)
            biases.append(np.abs(total / 2000 - theta).max())
        assert biases[0] > biases[1] > biases[2]


class TestSeparableSimulation:
    def test_separable_scheme_runs_end_to_end(self):
        model = separable_pauli_model(1, np.array([1.0, 1.0, 1.0]) / math.sqrt(3))
        result = find_min_samples(model, np.zeros(3), eps=0.4, delta=0.2,
                                  norm="linf", trials=400, seed=8)
        assert result.m_star >= 3  # needs several shots to see every axis
