import math
from fractions import Fraction

import numpy as np
import pytest

from fisherbound import bounds, cli
from fisherbound.mle_lab import (
    SuccessEstimate,
    _block_streams,
    find_min_samples,
    resolve_threads,
    success_probability,
    wilson_interval,
)
from fisherbound.models import (
    GaussianKnownCovModel,
    PoissonTruncatedModel,
    bernoulli_model,
    entangled_pauli_model,
    gaussian_known_var_model,
    multinomial_model,
    separable_pauli_model,
    two_copy_bell_model,
)
from fisherbound.pauli import random_valid_eigenvalues

from oracles import (
    bell_failures,
    bell_mstar_bracket,
    bernoulli_linf_curve,
    bernoulli_linf_success,
    bernoulli_success_exact,
    bernoulli_window,
    binomial_pmf,
    binomial_tail,
    find_min_samples_full,
    first_crossing,
    gauss_tail_quad,
    gaussian_linf_success,
    hoeffding_reach,
    mse_vs_crb,
    multinomial_linf_success,
    poisson_deficit_mp,
    poisson_logz_mp,
    replay_hits,
    wht_naive,
)


class TestPauliMle:
    def test_all_counts_on_identity_outcome(self):
        lam = entangled_pauli_model(1).mle(np.array([50, 0, 0, 0]))
        np.testing.assert_allclose(lam, np.ones(3))

    def test_uniform_counts(self):
        lam = entangled_pauli_model(1).mle(np.full(4, 25))
        np.testing.assert_allclose(lam, [0, 0, 0], atol=1e-15)

    def test_matches_naive_wht_oracle(self):
        counts = np.array([3, 1, 0, 0])
        expected = wht_naive(counts / 4.0, 1)
        np.testing.assert_allclose(
            entangled_pauli_model(1).mle(counts), expected[1:], atol=1e-15
        )
        np.testing.assert_allclose(expected, [1.0, 1.0, 0.5, 0.5], atol=1e-15)

    def test_exact_probabilities_recover_truth(self):
        rng = np.random.default_rng(3)
        p = rng.dirichlet(np.ones(16))
        lam = wht_naive(p, 2)
        np.testing.assert_allclose(
            entangled_pauli_model(2).mle(p * 1e7), lam[1:], atol=1e-9
        )

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError, match="empty counts"):
            entangled_pauli_model(1).mle(np.zeros(4))
        with pytest.raises(ValueError, match="outcome counts"):
            entangled_pauli_model(1).mle(np.ones(16))


class TestClassicalMle:
    def test_bernoulli(self):
        # outcomes are (success, failure)
        assert bernoulli_model().mle(np.array([5, 5]))[0] == 0.5
        assert bernoulli_model().mle(np.array([0, 10]))[0] == 0.0

    def test_gaussian_sample_mean(self):
        # the MLE is the sample mean of m draws, distributed N(theta, Sigma / m)
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        theta, m = np.array([1.0, -2.0]), 50
        est = GaussianKnownCovModel(cov).estimate_batch(
            theta, m, np.random.default_rng(17), 20000
        )
        tolerance = 5 * math.sqrt(2.0 / m / 20000)  # five standard errors
        np.testing.assert_allclose(est.mean(axis=0), theta, atol=tolerance)
        np.testing.assert_allclose(np.cov(est.T), cov / m, rtol=0.1)

    def test_poisson(self):
        # samples 2, 0, 4 as outcome counts; the MLE exceeds their mean by
        # about theta h(theta), 1e-13 at theta = 2 and truncation 20
        counts = np.zeros(21)
        counts[[0, 2, 4]] = 1
        est = PoissonTruncatedModel(20).mle(counts)
        assert est[0] == pytest.approx(2.0)

    @pytest.mark.parametrize("truncation", [5, 20, 200])
    def test_poisson_solves_the_likelihood_equation(self, truncation):
        # rows of 1000 samples whose mean kbar lies near E_theta[k] for theta
        # from 0.05 to 2K; at the estimate, E[k] = theta Z_1/Z_0 in 50-digit
        # arithmetic must return kbar to a few ulps
        samples, rows = 1000, []
        for theta in np.geomspace(0.05, 2 * truncation, 25):
            mean = theta * poisson_logz_mp(truncation, theta, 50)[0]
            low, high = divmod(int(round(samples * mean)), samples)
            row = np.zeros(truncation + 1)
            row[low] = samples - high
            if high:
                row[low + 1] = high
            rows.append(row)
        counts = np.array(rows)
        kbar = counts @ np.arange(truncation + 1) / samples
        estimates = PoissonTruncatedModel(truncation).mle_batch(counts)[:, 0]
        assert np.all(estimates >= kbar)
        for k, t in zip(kbar, estimates):
            residual = t * poisson_logz_mp(truncation, t, 50)[0] - k
            assert abs(residual) <= 4 * math.ulp(k), (k, t, float(residual))

    @pytest.mark.parametrize("truncation", [1, 2, 5, 20, 200, 5000])
    def test_poisson_near_the_top(self, monkeypatch, truncation):
        # kbar = K - 2^-j K (2^j - 1 samples at K, one at 0) and K - 2^-40:
        # at most 25 weight arrays, one per Newton step, 10 on average.  With
        # them, for K <= 200, where every kbar here is exact, the rows of one
        # sample at K and one at each lower outcome, so that K - kbar runs from
        # 1 to K/2 in steps of 1/2: E_theta[K - k] = K - kbar to 1e-14 in
        # 60-digit arithmetic on every row
        model = PoissonTruncatedModel(truncation)
        real, calls = model._weights, []

        def counting(t):
            calls.append(t)
            return real(t)

        monkeypatch.setattr(model, "_weights", counting)
        ks = np.arange(truncation + 1)
        sweep = [(0, j) for j in range(1, 45)] + [(truncation - 1, 40)]
        halves = [(low, 1) for low in range(truncation - 1)] if truncation <= 200 else []
        steps = []
        for low, j in sweep + halves:
            row = np.zeros(truncation + 1, dtype=np.int64)
            row[[low, truncation]] = 1, 2**j - 1
            short = (truncation - ks) @ row / 2**j  # K - kbar, exact
            calls.clear()
            theta = model.mle_batch(row[None, :])[0, 0]
            steps.append(len(calls))
            if truncation <= 200:
                error = float(abs(poisson_deficit_mp(truncation, theta, 60) / short - 1))
                assert error <= 1e-14, (short, theta, error)
        steps = steps[:len(sweep)]
        assert 1 <= min(steps) and max(steps) <= 25 and np.mean(steps) <= 10, steps

    def test_poisson_at_the_ends_and_where_truncation_rounds_away(self):
        # kbar = 0 and K are the limits theta -> 0 and +inf; at kbar = 1.05,
        # theta h(theta) is 4e-19, below half an ulp, so the MLE is kbar itself
        counts = np.zeros((3, 21))
        counts[0, 0] = 3
        counts[1, 20] = 3
        counts[2, [1, 2]] = [19, 1]
        est = PoissonTruncatedModel(20).mle_batch(counts)
        assert est.tolist() == [[0.0], [math.inf], [21 / 20]]

    def test_multinomial(self):
        est = multinomial_model(2).mle(np.array([2, 3, 5]))
        np.testing.assert_allclose(est, [0.2, 0.3])


class TestRunTrial:
    def test_deterministic_model_always_succeeds(self):
        model = entangled_pauli_model(1)
        theta = np.array([1.0, 1.0, 1.0]) - 1e-13
        est = success_probability(model, theta, 20, 1e-6, "l2", trials=50, seed=0)
        assert est.rate == 1.0

    def test_infinite_eps_sentinel(self):
        est = success_probability(bernoulli_model(), np.array([0.5]), 3, math.inf,
                                  "linf", trials=50, seed=1)
        assert est.rate == 1.0

    def test_reproducible_verdict(self):
        model = entangled_pauli_model(1)
        runs = [
            success_probability(model, np.zeros(3), 100, 0.3, "linf", trials=600, seed=7)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_error_norms_consistent(self):
        # the Euclidean error is never below the max-norm error
        model = multinomial_model(3)
        args = (np.full(3, 0.25), 50, 0.1)
        l2 = success_probability(model, *args, "l2", trials=600, seed=5)
        linf = success_probability(model, *args, "linf", trials=600, seed=5)
        assert 0 < l2.successes <= linf.successes < 600


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
        # reference: score every block in both norms
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
                estimates = model.estimate_batch(theta, m, rng, size)
                diff = estimates - theta[None, :]
                err_linf, err_l2 = np.abs(diff).max(axis=1), np.linalg.norm(diff, axis=1)
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
        result = find_min_samples(model, np.zeros(3), eps=0.01, delta=0.1, norm="linf",
                                  trials=200, seed=0, m_max=64)
        assert result.m_star is None
        assert result.probes  # partial results available
        last = result.probes[-1]
        assert (last.m, result.bracket, result.stable_at_double) == (64, (64, None), False)
        assert (result.rate_at_m_star, result.wilson_lo, result.wilson_hi) == (
            last.rate, last.wilson_lo, last.wilson_hi)
        assert result.message == (f"criterion unreachable at budget m_max=64: Wilson lower "
                                  f"bound {last.wilson_lo:.4f} < 0.9000 at M=64")

    @pytest.mark.parametrize("trials, refused", [(3837, True), (3838, False)])
    def test_trials_that_cannot_certify_the_target_are_refused(self, monkeypatch, trials,
                                                                refused):
        # T successes out of T give the Wilson lower bound T / (T + z^2), which
        # reaches 1 - delta = 0.999 at level 0.95 only from T = 3838 on
        model = bernoulli_model()

        def first_draw(*args):
            raise LookupError("first draw")

        monkeypatch.setattr(model, "estimate_batch", first_draw)
        expected = (ValueError, r"trials=3837 .* needs at least 3838 trials") if refused \
            else (LookupError, "first draw")
        with pytest.raises(expected[0], match=expected[1]):
            find_min_samples(model, np.array([0.5]), eps=0.05, delta=1e-3, norm="linf",
                             trials=trials)

    def test_resolution_controls_bracket_width(self):
        model = entangled_pauli_model(1)
        result = find_min_samples(model, np.zeros(3), eps=0.2, delta=0.1,
                                  norm="linf", trials=800, seed=5, resolution=8)
        assert result.bracket[1] - result.bracket[0] <= 8

    def test_true_lattice_reversal_is_flagged_not_fatal(self):
        # the fair-coin success curve at eps=0.2 really dips between M=20
        # (exact 0.9586) and M=24 (exact 0.9361); the search still completes
        assert bernoulli_success_exact(0.5, 20, 0.2) > bernoulli_success_exact(0.5, 24, 0.2)
        result = find_min_samples(bernoulli_model(), np.array([0.5]), eps=0.2, delta=0.1,
                                  norm="linf", trials=1000, seed=2)
        assert result.bracket[0] < result.m_star == result.bracket[1]


# Refusals of the search entry points, each before any draw: (call on a coin at
# theta = 1/2, message)
SEARCH_REFUSALS = {
    "find-delta": (lambda m: find_min_samples(m, [0.5], 0.2, 1.0, "linf"),
                   "delta must be in (0, 1)"),
    "find-eps": (lambda m: find_min_samples(m, [0.5], 0.0, 0.1, "linf"),
                 "eps must be positive"),
    "find-resolution": (lambda m: find_min_samples(m, [0.5], 0.2, 0.1, "linf", resolution=0),
                        "resolution must be >= 1"),
    "find-norm": (lambda m: find_min_samples(m, [0.5], 0.2, 0.1, "inf", trials=300),
                  "norm must be one of ('linf', 'l2'), got 'inf'"),
    "success-norm": (lambda m: success_probability(m, [0.5], 16, 0.2, "Linf", trials=300,
                                                   seed=0),
                     "norm must be one of ('linf', 'l2'), got 'Linf'"),
    "wilson-trials": (lambda m: wilson_interval(0, 0), "trials must be >= 1"),
}


@pytest.mark.parametrize("case", sorted(SEARCH_REFUSALS))
def test_search_input_refused_before_any_draw(case, monkeypatch):
    model = bernoulli_model()

    def draw(*args):
        raise AssertionError("drew before the input check")

    monkeypatch.setattr(model, "estimate_batch", draw)
    call, message = SEARCH_REFUSALS[case]
    with pytest.raises(ValueError) as info:
        call(model)
    assert str(info.value) == message


CURTAIL_CASES = {
    "entangled-n1-linf": (lambda: entangled_pauli_model(1), np.zeros(3), 0.1, "linf"),
    "entangled-n1-l2": (lambda: entangled_pauli_model(1), np.zeros(3), 0.15, "l2"),
    "entangled-n2-linf": (lambda: entangled_pauli_model(2),
                          random_valid_eigenvalues(2, np.random.default_rng(4))[1:],
                          0.15, "linf"),
    "entangled-n2-l2": (lambda: entangled_pauli_model(2), np.zeros(15), 0.3, "l2"),
    "separable": (lambda: separable_pauli_model(1, np.array([2.0, 1.0, 1.0]) / math.sqrt(6)),
                  np.array([0.1, -0.2, 0.0]), 0.2, "linf"),
    "bernoulli": (bernoulli_model, np.array([0.3]), 0.05, "linf"),
    "multinomial": (lambda: multinomial_model(3), np.array([0.2, 0.3, 0.1]), 0.05, "l2"),
    "gaussian": (lambda: GaussianKnownCovModel(np.diag([1.0, 0.5])), np.zeros(2), 0.1,
                 "linf"),
}


class TestCurtailedSearch:
    """Failing probes stop early; every search outcome matches the full search."""

    TRIALS = 1500  # three blocks: 512, 512, 476

    @staticmethod
    def _full(model, theta, eps, delta, norm, trials, seed, **kwargs):
        def probe(m, context):
            return success_probability(model, theta, m, eps, norm, trials, seed,
                                       context=context)

        return find_min_samples_full(probe, 1.0 - delta, **kwargs)

    @pytest.mark.parametrize("resolution", [1, 8])
    @pytest.mark.parametrize("case", sorted(CURTAIL_CASES))
    def test_matches_full_search(self, case, resolution):
        build, theta, eps, norm = CURTAIL_CASES[case]
        model, delta, trials, seed = build(), 0.1, self.TRIALS, 5
        target = 1.0 - delta
        result = find_min_samples(model, theta, eps, delta, norm, trials=trials,
                                  seed=seed, resolution=resolution)
        full = self._full(model, theta, eps, delta, norm, trials, seed,
                          resolution=resolution)

        assert result.m_star == full["m_star"]
        assert result.bracket == full["bracket"]
        assert result.stable_at_double == full["stable_at_double"]
        at_m_star = next(p for p in full["probes"] if p.m == full["m_star"])
        assert result.rate_at_m_star == at_m_star.rate
        assert (result.wilson_lo, result.wilson_hi) == (at_m_star.wilson_lo,
                                                        at_m_star.wilson_hi)
        assert [p.m for p in result.probes] == [p.m for p in full["probes"]]
        curtailed = 0
        for got, want in zip(result.probes, full["probes"]):
            assert (got.wilson_lo >= target) == (want.wilson_lo >= target)
            if got.trials < trials:
                curtailed += 1
                assert got.wilson_lo < target
                assert got.rate == got.successes / got.trials
            else:
                assert got == want
        assert curtailed >= 1

    def test_budget_exceeded_last_probe_runs_in_full(self):
        model = entangled_pauli_model(1)
        args = (model, np.zeros(3), 0.01, 0.1, "linf")
        result = find_min_samples(*args, trials=self.TRIALS, seed=0, m_max=48)
        full = self._full(*args, trials=self.TRIALS, seed=0, m_max=48)
        probes = result.probes
        assert result.m_star is full["m_star"] is None
        assert [p.m for p in probes] == [1, 2, 4, 8, 16, 32, 48]
        assert probes[-1] == full["probes"][-1]
        assert probes[-1].trials == self.TRIALS
        assert all(p.trials < self.TRIALS for p in probes[:-1])

    def test_probe_stops_exactly_when_it_cannot_pass(self):
        model = bernoulli_model()
        theta = np.array([0.5])
        kwargs = dict(m=40, eps=0.1, norm="linf", trials=self.TRIALS, seed=3)
        full = success_probability(model, theta, **kwargs)
        assert full.trials == self.TRIALS and 0.7 < full.rate < 0.9
        hits = replay_hits(model, theta, context=0, **kwargs)
        assert hits.sum() == full.successes
        successes = np.cumsum(hits)

        def first_rows(r):
            """The estimate of the probe's first r trials."""
            s = int(successes[r - 1])
            lo, hi = wilson_interval(s, r)
            return SuccessEstimate(rate=s / r, wilson_lo=lo, wilson_hi=hi, successes=s,
                                   trials=r, m=40)

        def certain_failure(target):
            """The first trial after which the probe cannot reach target."""
            return next(r for r in range(1, self.TRIALS + 1)
                        if wilson_interval(int(successes[r - 1]) + self.TRIALS - r,
                                           self.TRIALS)[0] < target)

        # the edge: after block 0 the probe could still just pass
        s0 = int(successes[511])
        edge = wilson_interval(s0 + self.TRIALS - 512, self.TRIALS)[0]
        assert certain_failure(edge) > 512
        # one ulp above it, failure is certain at the last failure of block 0
        above = math.nextafter(edge, 1.0)
        r = certain_failure(above)
        assert r <= 512 and not hits[r - 1] and hits[r:512].all()
        # a probe that passes runs every trial
        assert success_probability(model, theta, target=full.wilson_lo, **kwargs) == full
        for target in (edge, above, full.wilson_lo + 1e-9, 0.85, 0.9, 0.99, 1.0):
            stopped = success_probability(model, theta, target=target, **kwargs)
            # the estimate of the trials up to the one that made failure certain
            assert stopped == first_rows(certain_failure(target))
            assert stopped.wilson_lo < target


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
            for rng, size in _block_streams(123, 0, 2000):
                total += model.estimate_batch(theta, m, rng, size).sum(axis=0)
            biases.append(np.abs(total / 2000 - theta).max())
        assert biases[0] > biases[1] > biases[2]


class TestSeparableSimulation:
    def test_separable_scheme_runs_end_to_end(self):
        model = separable_pauli_model(1, np.array([1.0, 1.0, 1.0]) / math.sqrt(3))
        result = find_min_samples(model, np.zeros(3), eps=0.4, delta=0.2,
                                  norm="linf", trials=400, seed=8)
        assert result.m_star >= 3  # needs several shots to see every axis


class TestExactGaussianCurve:
    """The search against the exact linf success curve of gaussian-known-var.

    The mean of M draws of N(theta, I_d) succeeds with probability
    P_M = (2 Phi(eps sqrt(M)) - 1)^d, nondecreasing in M.
    """

    EPS, DELTA, D, TRIALS = 0.05, 0.1, 3, 2000
    # per-probe tail that defines the window (see the search test)
    TAIL = 1e-4

    def curve(self, m):
        return gaussian_linf_success(m, self.EPS, self.D)

    def test_curve_against_quadrature(self):
        for m in (1, 100, 1788, 10**5):
            x = self.EPS * math.sqrt(m)
            assert self.curve(m) == pytest.approx((1.0 - 2.0 * gauss_tail_quad(x)) ** self.D,
                                                  rel=1e-10)

    def test_binomial_tail_against_pmf_sum(self):
        for m, p in ((12, 0.3), (40, 0.91), (60, 0.5)):
            for k in (0, 1, m // 2, m - 1, m):
                want = sum(binomial_pmf(m, j, p) for j in range(k, m + 1))
                assert binomial_tail(k, m, p) == pytest.approx(want, rel=1e-11, abs=1e-300)

    def test_true_first_crossing(self):
        assert first_crossing(self.curve, 1.0 - self.DELTA) == 1788

    def test_search_lands_in_the_wilson_window(self):
        # A probe passes when its Wilson lower bound over TRIALS clears
        # 1 - delta, i.e. when its successes reach s_pass, so a probe at M
        # passes with probability pass(M) = Pr[Bin(TRIALS, P_M) >= s_pass],
        # nondecreasing in M.  Take m_lo, the first M with pass(M) >= TAIL,
        # and m_hi, the first M with 1 - pass(M) <= TAIL.  With resolution 1
        # the result m_star is a passing probe and m_star - 1 a failing one
        # (or 0), so m_star < m_lo needs a probe below m_lo to pass and
        # m_star > m_hi needs a probe at or above m_hi to fail: each has
        # probability at most TAIL.  By the union bound a search with N
        # probes misses [m_lo, m_hi] with probability at most N * TAIL
        # (N = 23 here, about 2.3e-3).  Seeds draw independent streams, so
        # two or more misses over 12 seeds have probability at most
        # C(12, 2) (2.3e-3)^2 < 4e-4: at most one miss is allowed.
        target = 1.0 - self.DELTA
        s_pass = next(s for s in range(self.TRIALS + 1)
                      if wilson_interval(s, self.TRIALS)[0] >= target)

        def pass_probability(m):
            return binomial_tail(s_pass, self.TRIALS, self.curve(m))

        m_lo = first_crossing(pass_probability, self.TAIL)
        m_hi = first_crossing(pass_probability, 1.0 - self.TAIL)
        # the window sits above the true crossing: m_star estimates the M at
        # which a Wilson-certified pass is likely, not the paper's m*
        assert (s_pass, m_lo, m_hi) == (1827, 1707, 2091)
        assert first_crossing(pass_probability, 0.5) == 1888

        model = GaussianKnownCovModel(np.eye(self.D))
        misses = 0
        for seed in range(12):
            result = find_min_samples(model, np.zeros(self.D), self.EPS, self.DELTA,
                                      "linf", trials=self.TRIALS, seed=seed)
            assert len(result.probes) * self.TAIL <= 3e-3
            misses += not m_lo <= result.m_star <= m_hi
        assert misses <= 1


# (eps, delta, exact first crossing and last dip, the same for the scored
# curve, the Wilson window [m_lo, m_hi] of the scored curve)
BERNOULLI_CURVES = [
    (0.05, 0.1, (260, 278), (262, 278), (242, 350)),
    (0.02, 0.05, (2375, 2423), (2377, 2450), (2202, 3126)),
]


class TestExactBernoulliCurve:
    """The search against the exact linf success curve of the fair coin.

    P_M = Pr[|S/M - 1/2| <= eps] with S ~ Bin(M, 1/2) is a sum over a count
    window, so it is not monotone in M: it dips below 1 - delta after its
    first crossing, up to a last dip.  The search scores |S/M - 1/2| <= eps
    in float, which drops the window's upper end where it is an integer;
    the scored curve is the one its probes sample.
    """

    THETA, TRIALS, TAIL = 0.5, 2000, 1e-4

    def test_window_against_mpmath(self):
        import mpmath

        with mpmath.workdps(50):
            for theta in (0.5, 0.3, 0.123):
                for eps in (0.05, 0.125, 0.0123):
                    for m in (1, 7, 8, 20, 60, 260, 999):
                        t, e = mpmath.mpf(theta), mpmath.mpf(eps)
                        inside = [k for k in range(m + 1) if abs(mpmath.mpf(k) / m - t) <= e]
                        want = mpmath.fsum(mpmath.binomial(m, k) * t**k * (1 - t) ** (m - k)
                                           for k in inside)
                        lo, hi = bernoulli_window(theta, m, eps)
                        assert list(range(lo, hi + 1)) == inside, (theta, eps, m)
                        got = bernoulli_linf_success(theta, m, eps)
                        assert got == pytest.approx(float(want), rel=1e-9, abs=1e-300)

    def test_scored_window_is_the_search_scoring(self):
        # every count of M samples through the model's MLE and the search's
        # float comparison
        model = bernoulli_model()
        for eps in (0.05, 0.02, 0.125):
            for m in range(1, 400):
                counts = np.stack([np.arange(m + 1), m - np.arange(m + 1)], axis=1)
                hits = np.flatnonzero(np.abs(model.mle_batch(counts)[:, 0] - self.THETA) <= eps)
                lo, hi = bernoulli_window(self.THETA, m, eps, scored=True)
                assert list(hits) == list(range(lo, hi + 1)), (eps, m)
        # 0.55 M is on the window in exact arithmetic and outside it in float
        assert bernoulli_window(self.THETA, 260, 0.05) == (117, 143)
        assert bernoulli_window(self.THETA, 260, 0.05, scored=True) == (117, 142)

    def scan(self, eps, delta, scored):
        """P_M for M = 1 .. m_far, where Hoeffding's P_M >= 1 - 2 exp(-2 M eps^2)
        has every later probe pass with probability at least 1 - TAIL, and
        the pass threshold s_pass of a probe over TRIALS."""
        target = 1.0 - delta
        s_pass = next(s for s in range(self.TRIALS + 1)
                      if wilson_interval(s, self.TRIALS)[0] >= target)
        p_safe = next(p for p in np.linspace(target, 1.0, 10001)
                      if binomial_tail(s_pass, self.TRIALS, p) >= 1.0 - self.TAIL)
        m_far = math.ceil(math.log(2.0 / (1.0 - p_safe)) / (2.0 * eps**2))
        curve = [bernoulli_linf_success(self.THETA, m, eps, scored) for m in range(1, m_far + 1)]
        return curve, s_pass

    @pytest.mark.parametrize("eps, delta, exact, scored, window", BERNOULLI_CURVES,
                             ids=[f"eps{c[0]}-delta{c[1]}" for c in BERNOULLI_CURVES])
    def test_search_lands_in_the_wilson_window(self, eps, delta, exact, scored, window):
        # the first crossing and the last dip of 1 - delta, exact and scored
        exact_curve, _ = self.scan(eps, delta, scored=False)
        curve, s_pass = self.scan(eps, delta, scored=True)
        for values, want in ((exact_curve, exact), (curve, scored)):
            first = next(m for m, p in enumerate(values, start=1) if p >= 1.0 - delta)
            last_dip = max(m for m, p in enumerate(values, start=1) if p < 1.0 - delta)
            assert (first, last_dip) == want
        # As in TestExactGaussianCurve, a probe at M passes with probability
        # pass(M) = Pr[Bin(TRIALS, P_M) >= s_pass], now not monotone in M.  m_lo
        # is the first M with pass(M) >= TAIL, so every M below passes with
        # probability under TAIL; m_hi is one past the last M <= m_far with
        # 1 - pass(M) > TAIL, and past m_far Hoeffding bounds the rest.  With
        # resolution 1, m_star passes and m_star - 1 fails (or is 0), so a miss
        # needs a probe below m_lo to pass or one at or above m_hi to fail:
        # at most (probes) * TAIL per search, and two misses over 12 seeds
        # have probability at most C(12, 2) (probes * TAIL)^2 < 5e-4.
        passes = [binomial_tail(s_pass, self.TRIALS, p) for p in curve]
        m_lo = next(m for m, q in enumerate(passes, start=1) if q >= self.TAIL)
        m_hi = 1 + max(m for m, q in enumerate(passes, start=1) if 1.0 - q > self.TAIL)
        assert (m_lo, m_hi) == window
        misses = 0
        for seed in range(12):
            result = find_min_samples(bernoulli_model(), np.array([self.THETA]), eps, delta,
                                      "linf", trials=self.TRIALS, seed=seed)
            assert len(result.probes) * self.TAIL <= 3e-3
            misses += not m_lo <= result.m_star <= m_hi
        assert misses <= 1


class TestExactMultinomialCurve:
    """The search against the exact linf success curve of the multinomial
    workload config: dim 3, theta = 1/4 each, eps = 0.05, delta = 0.1.

    P_M = Pr[max_a |n_a/M - 1/4| <= eps] over the first three counts of
    Mult(M, 1/4 each) is a nested binomial sum (oracles.multinomial_linf_success)
    over float-scored count windows, as the search scores them; like the
    Bernoulli curve it dips below 1 - delta after its first crossing.
    """

    THETA, EPS, DELTA, TRIALS, TAIL = (0.25, 0.25, 0.25), 0.05, 0.1, 2000, 1e-4

    @staticmethod
    def brute_force(theta, m, eps):
        """P_M summed over every count vector of m samples over the 4 outcomes
        of a dim-3 multinomial, each scored by the model's own MLE and float
        comparison."""
        model = multinomial_model(len(theta))
        grid = np.array([(a, b, c, m - a - b - c) for a in range(m + 1)
                         for b in range(m + 1 - a) for c in range(m + 1 - a - b)])
        log_p = np.log(np.append(theta, 1.0 - sum(theta)))
        log_factorial = np.array([math.lgamma(k + 1) for k in range(m + 1)])
        pmf = np.exp(log_factorial[m] - log_factorial[grid].sum(axis=1) + grid @ log_p)
        hits = (np.abs(model.mle_batch(grid) - np.asarray(theta)) <= eps).all(axis=1)
        return float(pmf @ hits)

    def test_curve_against_brute_force(self):
        for theta, eps in ((self.THETA, self.EPS), ((0.2, 0.3, 0.1), 0.1234567)):
            for m in range(1, 61):
                want = self.brute_force(theta, m, eps)
                got = multinomial_linf_success(theta, m, eps, scored=True)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-13), (theta, eps, m)

    def test_curve_against_mpmath(self):
        # the exact-window curve against a 50-digit sum of multinomial terms
        import mpmath

        with mpmath.workdps(50):
            for theta, eps in ((self.THETA, self.EPS), ((0.2, 0.3, 0.1), 0.0123)):
                t = [mpmath.mpf(v) for v in theta] + [1 - mpmath.fsum(theta)]
                e = mpmath.mpf(eps)
                for m in (7, 60, 199, 310):
                    fact = [mpmath.factorial(k) for k in range(m + 1)]
                    windows = [[k for k in range(m + 1) if abs(mpmath.mpf(k) / m - v) <= e]
                               for v in t[:3]]
                    want = mpmath.fsum(
                        fact[m] / (fact[a] * fact[b] * fact[c] * fact[m - a - b - c])
                        * t[0]**a * t[1]**b * t[2]**c * t[3] ** (m - a - b - c)
                        for a in windows[0] for b in windows[1] for c in windows[2]
                        if a + b + c <= m)
                    got = multinomial_linf_success(theta, m, eps)
                    assert got == pytest.approx(float(want), rel=1e-9, abs=1e-300), (theta, m)

    def test_search_lands_in_the_wilson_window(self):
        # As in TestExactBernoulliCurve: scan P_M up to m_far, past which the
        # union of the d coordinates' Hoeffding bounds, P_M >= 1 - 2 d
        # exp(-2 M eps^2), has every probe pass with probability at least
        # 1 - TAIL; m_lo is the first M whose probe passes with probability
        # at least TAIL, m_hi one past the last M whose probe fails with
        # probability above TAIL, and at most one of 12 seeds may miss.
        target = 1.0 - self.DELTA
        s_pass = next(s for s in range(self.TRIALS + 1)
                      if wilson_interval(s, self.TRIALS)[0] >= target)
        p_safe = next(p for p in np.linspace(target, 1.0, 10001)
                      if binomial_tail(s_pass, self.TRIALS, p) >= 1.0 - self.TAIL)
        d = len(self.THETA)
        m_far = math.ceil(math.log(2 * d / (1.0 - p_safe)) / (2.0 * self.EPS**2))
        curve = [multinomial_linf_success(self.THETA, m, self.EPS, scored=True)
                 for m in range(1, m_far + 1)]
        first = next(m for m, p in enumerate(curve, start=1) if p >= target)
        last_dip = max(m for m, p in enumerate(curve, start=1) if p < target)
        assert (first, last_dip) == (310, 336)
        passes = [binomial_tail(s_pass, self.TRIALS, p) for p in curve]
        m_lo = next(m for m, q in enumerate(passes, start=1) if q >= self.TAIL)
        m_hi = 1 + max(m for m, q in enumerate(passes, start=1) if 1.0 - q > self.TAIL)
        assert (m_lo, m_hi) == (300, 397)
        model = multinomial_model(d)
        misses = 0
        for seed in range(12):
            result = find_min_samples(model, np.array(self.THETA), self.EPS, self.DELTA,
                                      "linf", trials=self.TRIALS, seed=seed)
            assert len(result.probes) * self.TAIL <= 3e-3
            misses += not m_lo <= result.m_star <= m_hi
        assert misses <= 1


def _random_preset(scheme, n):
    cfg = cli.resolve_config(cli.build_parser().parse_args(
        ["bounds", "--scheme", scheme, "--preset", "random", "--n", str(n)]))
    return cli.build_model_and_theta(cfg)


# (scheme, n, eps): at each, all four finite-sample rows apply at theta.  The
# entangled cases sit at the depolarizing point, where the finite upper-linf
# bound is within 2x of its small-eps limit.  The two-copy cases use the
# random preset (param_seed 1); there the rows apply only at smaller eps,
# and at n = 3 m_star would pass 2^53.
SANDWICH_CASES = [
    ("entangled-pauli", 1, 1.4e-2),
    ("entangled-pauli", 2, 5.4e-4),
    ("entangled-pauli", 3, 1.8e-5),
    ("entangled-pauli", 4, 5.6e-7),
    ("two-copy-bell", 1, 2e-3),
    ("two-copy-bell", 2, 2e-6),
]


class TestSandwichWhereTheBoundsApply:
    @pytest.mark.parametrize("scheme, n, eps", SANDWICH_CASES,
                             ids=[f"{s}-n{n}" for s, n, _ in SANDWICH_CASES])
    def test_lower_le_m_star_le_upper(self, scheme, n, eps):
        delta = 0.1
        if scheme == "entangled-pauli":
            model = entangled_pauli_model(n)
            theta = np.zeros(model.d)
        else:
            model, theta = _random_preset("two-copy-bell", n)
        coeffs = bounds.estimate_coefficients(model, theta, eps)
        for norm in ("linf", "l2"):
            lower = bounds.lower_bound(eps, delta, coeffs, norm)
            upper = bounds.upper_bound(eps, delta, coeffs, norm)
            assert lower.applicable and upper.applicable
            # resolve m_star to a thousandth of the lower bound; m_star is a
            # passing probe, so a coarser step only raises it
            result = find_min_samples(model, theta, eps, delta, norm, trials=2000, seed=0,
                                      resolution=max(1, int(lower.value) // 1000),
                                      m_max=2**53)
            assert lower.value <= result.m_star <= upper.value, (norm, lower, result.m_star,
                                                                  upper)


def _bell_case(scheme, n, preset=None):
    """The sandwich cases' point (entangled-pauli at the depolarizing point,
    two-copy-bell at the random preset), or the given preset's."""
    if preset is None and scheme == "entangled-pauli":
        model = entangled_pauli_model(n)
        return model, np.zeros(model.d)
    return _random_preset(scheme, n)


# The sandwich cases plus entangled-pauli at n = 5, where m* (about 4e16)
# is past the Monte Carlo budget of 2^53 but not past the exact bracket.
BRACKET_CASES = SANDWICH_CASES[:4] + [("entangled-pauli", 5, 1.8e-8)] + SANDWICH_CASES[4:]
# The Monte Carlo search stays below 2^53 up to n = 3, at the sandwich cases'
# points and at entangled-pauli's random preset (param_seed 1), whose
# coordinates all differ.
MONTE_CARLO_CASES = [case + (None,) for case in SANDWICH_CASES[:3] + SANDWICH_CASES[4:]] + [
    ("entangled-pauli", n, eps, "random") for n, eps in ((1, 1.4e-2), (2, 5.4e-4), (3, 1.8e-5))
]


class TestBellExactBracket:
    """The exact linf m* bracket of the Bell schemes (oracles.bell_mstar_bracket).

    Each Bell coordinate is exactly binomial, so the linf success curve lies
    between the Bonferroni curve 1 - sum_a f_a(M) and the worst marginal
    1 - max_a f_a(M); m*_marg <= m* <= m*_bonf with no sampling noise.
    At n = 1 the bracket is read from every M, so these are the proven
    statements; from n = 2 its ends are where a bisection lands.
    """

    DELTA = 0.1

    def test_failures_against_mpmath(self):
        import mpmath

        mpmath.mp.dps = 40
        for lam in (0.0, 0.37, -0.81):
            for eps in (0.1, 0.0123):
                for m in (1, 7, 60, 999):
                    q = (1 + mpmath.mpf(lam)) / 2
                    want = mpmath.fsum(
                        mpmath.binomial(m, k) * q**k * (1 - q) ** (m - k)
                        for k in range(m + 1)
                        if abs(mpmath.mpf(2 * k) / m - 1 - mpmath.mpf(lam)) > mpmath.mpf(eps))
                    got = bell_failures([lam], m, eps)[0]
                    assert got == pytest.approx(float(want), rel=1e-9, abs=1e-300), (lam, eps, m)

    @pytest.mark.parametrize("point", ["depolarizing", "random"])
    def test_bracket_against_brute_force_multinomial(self, point):
        # every count vector of M samples over the 4 outcomes at n = 1, scored
        # by the model's own MLE and float comparison
        model = entangled_pauli_model(1)
        theta = (np.zeros(3) if point == "depolarizing"
                 else random_valid_eigenvalues(1, np.random.default_rng(3))[1:])
        eps = 0.1234567  # no count lattice point sits on a window end
        log_p = np.log(model.probs(theta))
        log_factorial = np.array([math.lgamma(k + 1) for k in range(61)])
        for m in range(1, 61):
            grid = np.array([(a, b, c, m - a - b - c) for a in range(m + 1)
                             for b in range(m + 1 - a) for c in range(m + 1 - a - b)])
            pmf = np.exp(log_factorial[m] - log_factorial[grid].sum(axis=1) + grid @ log_p)
            hits = np.abs(model.mle_batch(grid) - theta) <= eps
            failures = bell_failures(theta, m, eps)
            np.testing.assert_allclose(pmf @ ~hits, failures, rtol=1e-9, atol=1e-13)
            success = pmf @ hits.all(axis=1)
            assert 1.0 - failures.sum() - 1e-12 <= success <= 1.0 - failures.max() + 1e-12

    @pytest.mark.parametrize("theta, eps, delta, want", [
        (np.zeros(3), 0.014, 0.1, (13716, 23214)),
        (np.zeros(3), 0.014, 0.01, (33716, 44072)),
        (np.array([-0.6121255, 0.81051595, -0.59584833]), 0.014, 0.1, None),
        (np.array([0.3, 0.3, -0.2]), 0.05, 1e-4, None),
        (np.array([0.654, 0.075, -0.361]), 0.1, 0.1, (264, 377)),
    ])
    def test_n1_bracket_is_the_scan_of_every_count(self, theta, eps, delta, want):
        # the first crossing of the worst marginal and the first M after the
        # last dip of the Bonferroni curve, with every M read exactly; the
        # bisection lands on 13 857 and 23 143 at the first point.  The
        # window ends are those of bell_failures, exact in lam and eps: at
        # the last point M (1 + lam_a - eps) / 2 is within 1e-16 of an
        # integer whenever 8 divides M.
        values, counts = np.unique(theta, return_counts=True)
        half = Fraction(eps) / 2
        reach = hoeffding_reach(half, delta, 3)
        failures = np.array([1.0 - bernoulli_linf_curve((1 + Fraction(lam)) / 2, half, reach)
                             for lam in values])
        marginal, bonferroni = 1.0 - failures.max(axis=0), 1.0 - counts @ failures
        target = 1.0 - delta
        assert bonferroni[-1] >= target
        scanned = (1 + int(np.argmax(marginal >= target)),
                   2 + int(np.flatnonzero(bonferroni < target)[-1]))
        assert bell_mstar_bracket(theta, eps, delta) == scanned
        assert want is None or scanned == want
        ms = np.unique(np.linspace(1, reach, 50).astype(int))
        np.testing.assert_allclose(failures[:, ms - 1].T,
                                   [bell_failures(values, m, eps) for m in ms],
                                   rtol=1e-9, atol=1e-15)

    @pytest.mark.parametrize("scheme, n, eps", BRACKET_CASES,
                             ids=[f"{s}-n{n}" for s, n, _ in BRACKET_CASES])
    def test_finite_bounds_bracket_the_exact_mstar(self, scheme, n, eps):
        # lower <= m* <= upper and m*_marg <= m* <= m*_bonf, so a failure here
        # means a bound is wrong
        model, theta = _bell_case(scheme, n)
        coeffs = bounds.estimate_coefficients(model, theta, eps)
        lower = bounds.lower_bound(eps, self.DELTA, coeffs, "linf")
        upper = bounds.upper_bound(eps, self.DELTA, coeffs, "linf")
        assert lower.applicable and upper.applicable
        m_marg, m_bonf = bell_mstar_bracket(theta, eps, self.DELTA)
        assert lower.value <= m_bonf and m_marg <= upper.value, (lower, m_marg, m_bonf, upper)

    @pytest.mark.parametrize("scheme", ["entangled-pauli", "two-copy-bell"])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("preset", ["depolarizing", "random"])
    def test_marginal_bound_below_the_l2_monte_carlo_mstar(self, scheme, n, preset):
        # The l2 ball of radius eps lies inside every slab |lam_hat_a - lam_a|
        # <= eps, so the l2 success curve lies below the worst marginal one
        # and its crossing above m*_marg: the lower side of the bracket holds
        # in l2 too.  At eps = 0.05 the l2 Monte Carlo m* is 2.2-9.0 times
        # m*_marg, far beyond the search's sampling error.
        eps = 0.05
        if preset == "random":
            model, theta = _random_preset(scheme, n)
        else:
            model = (entangled_pauli_model if scheme == "entangled-pauli"
                     else two_copy_bell_model)(n)
            theta = np.zeros(model.d)
        m_marg, _ = bell_mstar_bracket(theta, eps, self.DELTA)
        result = find_min_samples(model, theta, eps, self.DELTA, "l2", trials=2000, seed=0)
        assert m_marg <= result.m_star, (m_marg, result.m_star)

    @pytest.mark.parametrize("scheme, n, eps, preset", MONTE_CARLO_CASES,
                             ids=[f"{s}-{p}-n{n}" if p else f"{s}-n{n}"
                                  for s, n, _, p in MONTE_CARLO_CASES])
    def test_monte_carlo_mstar_inside_the_bracket(self, scheme, n, eps, preset):
        # A probe at M passes when its successes over TRIALS reach s_pass,
        # with probability Pr[Bin(TRIALS, P(M)) >= s_pass], and the true
        # success P(M) is at least the Bonferroni curve B(M).  So probes at
        # or above m_hi, the first M with Pr[Bin(TRIALS, B(M)) >= s_pass]
        # >= 1 - TAIL, fail with probability at most TAIL each, and the
        # search returns more than m_hi + resolution with probability at most
        # (probes) * TAIL, about 5e-3.  The slack m_hi / m*_bonf - 1 is the
        # Wilson margin: the rate a certified pass needs (about 0.935 at
        # 2000 trials) over 1 - delta.
        trials, tail = 2000, 1e-4
        model, theta = _bell_case(scheme, n, preset)
        m_marg, m_bonf = bell_mstar_bracket(theta, eps, self.DELTA)
        values, counts = np.unique(theta, return_counts=True)
        s_pass = next(s for s in range(trials + 1)
                      if wilson_interval(s, trials)[0] >= 1.0 - self.DELTA)
        m_hi = first_crossing(
            lambda m: binomial_tail(s_pass, trials, 1.0 - counts @ bell_failures(values, m, eps)),
            1.0 - tail, hi=2**60)
        assert m_bonf < m_hi <= 1.25 * m_bonf
        resolution = max(1, m_marg // 10000)
        result = find_min_samples(model, theta, eps, self.DELTA, "linf", trials=trials, seed=0,
                                  resolution=resolution, m_max=2**53)
        assert m_marg <= result.m_star <= m_hi + resolution, (m_marg, result.m_star, m_hi)


DELTAS = [1e-1, 1e-2, 1e-4, 1e-8]


class TestExactSandwichAlongDelta:
    """The finite-sample linf bounds against an exact m* at small delta.

    No Monte Carlo: the Gaussian m* is the first crossing of its exact
    success curve, and the Bell m* lies in the exact bracket
    [m*_marg, m*_bonf], so lower <= m*_marg and m*_bonf <= upper suffice
    (proven at n = 1, where the bracket is scanned; from n = 2 its ends are
    where a bisection lands).
    The Bernoulli and multinomial curves dip below 1 - delta after their
    first crossing, so they are scanned: lower <= the first crossing, and
    every dip below upper.
    Along delta the upper bound grows like 1/delta^2 (its Berry-Esseen
    term) and the lower bound stops growing, so both stay valid but loose.
    """

    @pytest.mark.parametrize("delta", DELTAS)
    def test_gaussian(self, delta):
        eps, d = 0.05, 3
        model = gaussian_known_var_model(d)
        coeffs = bounds.estimate_coefficients(model, np.zeros(d), eps)
        m_star = first_crossing(lambda m: gaussian_linf_success(m, eps, d), 1.0 - delta)
        lower = bounds.lower_bound(eps, delta, coeffs, "linf")
        upper = bounds.upper_bound(eps, delta, coeffs, "linf")
        assert lower.value <= m_star
        assert upper.applicable and m_star <= upper.value, (m_star, upper)

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("d", [1, 3, 15, 63])
    def test_gaussian_l2(self, d, delta):
        # P(||theta_hat - theta||_2 <= eps) = P(chi2_d <= M eps^2) at identity
        # covariance, so m* = ceil(q / eps^2) with q the 1 - delta quantile of
        # chi2_d; the small-eps limits bracket q / eps^2 as well
        from scipy.stats import chi2

        eps = 0.05
        q = chi2.ppf(1.0 - delta, d)
        m_star = math.ceil(q / eps**2)
        coeffs = bounds.estimate_coefficients(gaussian_known_var_model(d), np.zeros(d), eps)
        lower = bounds.lower_bound(eps, delta, coeffs, "l2")
        upper = bounds.upper_bound(eps, delta, coeffs, "l2")
        assert lower.value <= m_star
        assert upper.applicable and m_star <= upper.value, (m_star, upper)
        assert (bounds.asymptotic_lower_linf(eps, delta, 1.0) <= q / eps**2
                <= bounds.asymptotic_upper_l2(eps, delta, d, 1.0))

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("n, eps", [(1, 0.014), (2, 5.4e-4), (3, 1.8e-5)])
    def test_bell_depolarizing(self, n, eps, delta):
        model = entangled_pauli_model(n)
        theta = np.zeros(model.d)
        coeffs = bounds.estimate_coefficients(model, theta, eps)
        m_marg, m_bonf = bell_mstar_bracket(theta, eps, delta)
        lower = bounds.lower_bound(eps, delta, coeffs, "linf")
        upper = bounds.upper_bound(eps, delta, coeffs, "linf")
        assert lower.value <= m_marg
        assert upper.applicable and m_bonf <= upper.value, (m_bonf, upper)

    @staticmethod
    def assert_scanned_sandwich(model, theta, eps, delta, above, below):
        """lower <= the first crossing of `above` and upper > the last dip of
        `below`, two curves over M = 1, 2, ... that lie above and below the
        exact success curve; the scan reaches past the last dip of `below`."""
        target = 1.0 - delta
        assert below[-1] >= target
        first = 1 + int(np.argmax(above >= target))
        last_dip = 1 + int(np.flatnonzero(below < target)[-1])
        coeffs = bounds.estimate_coefficients(model, theta, eps)
        lower = bounds.lower_bound(eps, delta, coeffs, "linf")
        upper = bounds.upper_bound(eps, delta, coeffs, "linf")
        assert lower.value <= first
        assert upper.applicable and last_dip < upper.value, (last_dip, upper)

    @pytest.mark.parametrize("delta", DELTAS)
    def test_bernoulli(self, delta):
        eps = 0.05
        curve = bernoulli_linf_curve(0.5, eps, hoeffding_reach(eps, delta, 1))
        self.assert_scanned_sandwich(bernoulli_model(), np.array([0.5]), eps, delta,
                                     curve, curve)

    @pytest.mark.parametrize("delta", DELTAS)
    def test_multinomial(self, delta):
        # dim 3 at theta = 1/4 each, at eps = 0.01: the upper rows read
        # tau0 <= 0 from eps = 0.015 up, and there the nested binomial sum
        # costs too much to scan.  Each count is Bin(M, 1/4), so the curve
        # lies between the Bonferroni 1 - 3 f and the marginal 1 - f, with f
        # the one coordinate's failure.
        eps, d = 0.01, 3
        failure = 1.0 - bernoulli_linf_curve(0.25, eps, hoeffding_reach(eps, delta, d))
        self.assert_scanned_sandwich(multinomial_model(d), np.full(d, 0.25), eps, delta,
                                     1.0 - failure, 1.0 - d * failure)
