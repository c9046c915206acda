import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fisherbound.bounds import (
    NORMS,
    BoundCoefficients,
    asymptotic_lower_linf,
    asymptotic_upper_l2,
    asymptotic_upper_linf,
    entangled_pauli_l2_lower,
    entangled_pauli_upper,
    estimate_coefficients,
    idealized_coefficients,
    lower_bound,
    separable_pauli_lower,
    upper_bound,
)
from fisherbound.fisher import bell_fim_structural, fim
from fisherbound.models import (
    GaussianKnownCovModel,
    PoissonTruncatedModel,
    bernoulli_model,
    entangled_pauli_model,
    multinomial_model,
    separable_pauli_model,
    two_copy_bell_model,
)
from fisherbound.pauli import product_probe, random_valid_eigenvalues, rates_to_eigenvalues
from fisherbound.special_functions import lambert_w0

from oracles import hessian_fluctuation_dense, lambert_bisect

# Frozen from the bisection oracle.
W0_ARG_D3_DELTA01 = 2291.831180523293          # 8/pi * 0.1^-2 * 3^2
W0_D3_DELTA01 = 5.953180760789737
W0_DELTA005_LOWER = 3.0413018250283903         # W0(0.05^-2 / 2 pi)
W0_DELTA01_LOWER = 2.0496325744621027          # W0(0.1^-2 / 2 pi)
W0_ENT_N1_DELTA01 = 6.448606502686987          # W0(8/pi * 0.1^-2 * 16)
DELTA_UNIT_W0 = 1.0 / math.sqrt(2.0 * math.pi * math.e)  # W0(e) = 1 here


class TestUpperLinf:
    def test_idealized_collapses_to_lambert_term(self):
        coeffs = idealized_coefficients(3)
        result = upper_bound(0.05, 0.1, coeffs, "linf")
        assert result.applicable
        assert result.value == pytest.approx(W0_D3_DELTA01 / 0.0025, rel=1e-12)
        assert result.limiting_term == "y-star"

    def test_frozen_argument(self):
        assert 8.0 / math.pi * 0.1**-2 * 9 == pytest.approx(W0_ARG_D3_DELTA01, rel=1e-12)
        assert lambert_bisect(W0_ARG_D3_DELTA01) == pytest.approx(W0_D3_DELTA01, rel=1e-12)

    def test_asymptotic_ratio_idealized(self):
        coeffs = idealized_coefficients(3)
        for eps in (1e-2, 1e-3, 1e-4):
            value = upper_bound(eps, 0.1, coeffs, "linf").value
            assert value * eps**2 == pytest.approx(W0_D3_DELTA01, rel=1e-12)

    def test_asymptotic_ratio_exact_coefficients(self):
        model = entangled_pauli_model(1)
        target = W0_D3_DELTA01
        previous = math.inf
        for eps in (1e-2, 1e-3, 1e-4):
            coeffs = estimate_coefficients(model, np.zeros(3), eps)
            ratio = upper_bound(eps, 0.1, coeffs, "linf").value * eps**2 / target
            assert ratio < previous  # converging from above
            previous = ratio
        assert previous == pytest.approx(1.0, rel=0.05)

    def test_inapplicable_when_tau_negative(self):
        model = entangled_pauli_model(1)
        coeffs = estimate_coefficients(model, np.zeros(3), 0.1)
        result = upper_bound(0.1, 0.1, coeffs, "linf")
        assert not result.applicable
        assert result.reason == "tau0 <= 0"
        assert result.value == math.inf

    def test_value_floor(self):
        coeffs = idealized_coefficients(1)
        assert upper_bound(100.0, 0.9, coeffs, "linf").value >= 1.0

    def test_preconditions(self):
        coeffs = idealized_coefficients(2)
        with pytest.raises(ValueError):
            upper_bound(0.0, 0.1, coeffs, "linf")
        with pytest.raises(ValueError):
            upper_bound(0.1, 1.0, coeffs, "linf")


class TestLowerLinf:
    def test_idealized_matches_small_eps_limit(self):
        coeffs = idealized_coefficients(3)
        result = lower_bound(0.1, 0.05, coeffs, "linf")
        assert result.applicable
        assert result.value == pytest.approx(W0_DELTA005_LOWER * 100.0, rel=1e-12)

    def test_w0_of_e_normalisation(self):
        coeffs = idealized_coefficients(1)
        result = lower_bound(0.1, DELTA_UNIT_W0, coeffs, "linf")
        assert result.value == pytest.approx(100.0, rel=1e-9)

    def test_coordinate_maximised_dominates(self):
        model = entangled_pauli_model(1)
        theta = np.array([0.5, 0.1, -0.2])
        coeffs = estimate_coefficients(model, theta, 0.01)
        best = lower_bound(0.01, 0.1, coeffs, "linf")
        for a in range(3):
            single = lower_bound(0.01, 0.1, coeffs, "linf", a=a)
            assert best.value >= single.value - 1e-12

    def test_vacuous_regime_floors_at_one(self):
        coeffs = idealized_coefficients(2)
        result = lower_bound(10.0, 0.5, coeffs, "linf")
        assert result.applicable and result.value >= 1.0


class TestL2Bounds:
    def test_upper_reduces_to_linf_for_one_parameter(self):
        ideal = idealized_coefficients(1, sigma=0.7, opnorm_inv=2.0)
        for eps, delta in [(0.05, 0.1), (0.01, 0.02)]:
            linf = upper_bound(eps, delta, ideal, "linf").value
            euclid = upper_bound(eps, delta, ideal, "l2").value
            assert euclid == pytest.approx(linf, rel=1e-12)

    def test_idealized_scaling_is_dimension(self):
        ideal = idealized_coefficients(4)
        linf = upper_bound(0.1, 0.1, ideal, "linf").value
        euclid = upper_bound(0.1, 0.1, ideal, "l2").value
        assert euclid == pytest.approx(4.0 * linf, rel=1e-12)

    def test_upper_asymptotic_ratio(self):
        ideal = idealized_coefficients(3)
        for eps in (1e-2, 1e-3, 1e-4):
            value = upper_bound(eps, 0.1, ideal, "l2").value
            assert value * eps**2 == pytest.approx(3.0 * W0_D3_DELTA01, rel=1e-12)

    def test_lower_reduces_to_linf_for_one_parameter(self):
        model = bernoulli_model()
        theta = np.array([0.3])
        coeffs = estimate_coefficients(model, theta, 0.01)
        a = lower_bound(0.01, 0.05, coeffs, "linf").value
        b = lower_bound(0.01, 0.05, coeffs, "l2").value
        assert b == pytest.approx(a, rel=1e-12)

    def test_lower_idealized_limit(self):
        # sigma_top from diag(4,1): F^-1 = diag(1/4, 1), lambda_max = 1
        stats_sigma = 1.0
        ideal = idealized_coefficients(2, sigma=stats_sigma, opnorm_inv=stats_sigma**2)
        result = lower_bound(1e-3, 0.1, ideal, "l2")
        assert result.value == pytest.approx(W0_DELTA01_LOWER * stats_sigma**2 / 1e-6,
                                             rel=1e-9)

    def test_norm_dominance(self):
        ideal = idealized_coefficients(5)
        for eps, delta in [(0.1, 0.1), (0.01, 0.05)]:
            assert (upper_bound(eps, delta, ideal, "l2").value
                    >= upper_bound(eps, delta, ideal, "linf").value)
        model = entangled_pauli_model(1)
        coeffs = estimate_coefficients(model, np.zeros(3), 0.01)
        assert (upper_bound(0.01, 0.1, coeffs, "l2").value
                >= upper_bound(0.01, 0.1, coeffs, "linf").value)


class TestOrdering:
    def test_lower_below_upper_across_grid(self):
        cases = [
            (entangled_pauli_model(1), np.zeros(3)),
            (entangled_pauli_model(1), np.array([0.4, 0.1, -0.2])),
            (bernoulli_model(), np.array([0.5])),
            (multinomial_model(3), np.full(3, 0.25)),
        ]
        for model, theta in cases:
            for eps in (0.01, 0.03):
                for delta in (0.05, 0.1, 0.25):
                    coeffs = estimate_coefficients(model, theta, eps)
                    upper = upper_bound(eps, delta, coeffs, "linf")
                    lower = lower_bound(eps, delta, coeffs, "linf")
                    if upper.applicable:
                        assert lower.value <= upper.value


class TestEstimateCoefficients:
    def test_gaussian_third_derivative_free(self):
        model = GaussianKnownCovModel(np.eye(2))
        coeffs = estimate_coefficients(model, np.zeros(2), 0.1)
        assert coeffs.envelope == {"linf": (0.0, 0.0), "l2": (0.0, 0.0)}
        assert coeffs.V_H == 0.0
        np.testing.assert_allclose(
            coeffs.rho_diag, np.full(2, 2.0 * math.sqrt(2.0 / math.pi))
        )
        assert coeffs.provenance == "exact"

    def test_bernoulli_hessian_fluctuation_hand_enumeration(self):
        # B(1) = (2t-1)/(t^2(1-t)), B(0) = (1-2t)/(t(1-t)^2)
        model = bernoulli_model()
        theta = 0.3
        coeffs = estimate_coefficients(model, np.array([theta]), 0.01)
        b1 = (2 * theta - 1) / (theta**2 * (1 - theta))
        b0 = (1 - 2 * theta) / (theta * (1 - theta) ** 2)
        oracle = theta * b1**2 + (1 - theta) * b0**2
        assert coeffs.V_H == pytest.approx(oracle, rel=1e-12)

    def test_bernoulli_symmetric_point_has_no_fluctuation(self):
        model = bernoulli_model()
        coeffs = estimate_coefficients(model, np.array([0.5]), 0.01)
        assert coeffs.V_H == 0.0

    def test_entangled_depolarizing_moments(self):
        # 4-outcome enumeration: projected scores are +-1, so rho_a = 1
        model = entangled_pauli_model(1)
        coeffs = estimate_coefficients(model, np.zeros(3), 1e-3)
        np.testing.assert_allclose(coeffs.rho_diag, np.ones(3), atol=1e-12)
        np.testing.assert_allclose(coeffs.sigma_diag, np.ones(3), atol=1e-12)
        assert coeffs.V_H == pytest.approx(6.0, rel=1e-12)
        assert coeffs.envelope["linf"][1] == pytest.approx(0.0, abs=1e-10)
        assert coeffs.sigma == pytest.approx(1.0)
        assert coeffs.opnorm_inv == pytest.approx(1.0)

    def test_envelope_radius_depends_on_norm(self):
        model = entangled_pauli_model(1)
        coeffs = estimate_coefficients(model, np.zeros(3), 0.05)
        # the sqrt(d) larger ball inflates the envelope
        assert coeffs.envelope["linf"][0] > coeffs.envelope["l2"][0]

    @pytest.mark.parametrize("model, theta, calls", [
        (bernoulli_model(), np.array([0.3]), 1),
        (PoissonTruncatedModel(20), np.array([2.0]), 1),
        (entangled_pauli_model(1), np.zeros(3), 2),
        (multinomial_model(2), np.full(2, 0.3), 2),
    ], ids=["bernoulli", "poisson", "entangled-n1", "multinomial-d2"])
    def test_one_envelope_per_distinct_ball(self, monkeypatch, model, theta, calls):
        # the linf ball has radius sqrt(d)*eps, the l2 ball eps: one ball at d = 1
        radii = []
        real = model.envelope_moments

        def counting(theta, radius):
            radii.append(radius)
            return real(theta, radius)

        monkeypatch.setattr(model, "envelope_moments", counting)
        coeffs = estimate_coefficients(model, theta, 0.01)
        assert len(radii) == calls
        assert len(set(radii)) == calls
        for norm, radius in (("linf", math.sqrt(model.d) * 0.01), ("l2", 0.01)):
            mu_r, v_r, _ = real(theta, radius)
            assert coeffs.envelope[norm] == (mu_r, v_r)

    def test_envelope_infinite_when_ball_hits_boundary(self):
        model = entangled_pauli_model(1)
        coeffs = estimate_coefficients(model, np.zeros(3), 0.6)
        assert math.isinf(coeffs.envelope["linf"][0])
        result = upper_bound(0.6, 0.1, coeffs, "linf")
        assert not result.applicable

    def test_rho_top_along_the_pinv_top_eigenvector_at_singular_fisher(self):
        # the zero probe component leaves lambda_2 unidentifiable, so F is singular
        model = separable_pauli_model(1, np.array([1.0, 0.8, 0.0, 0.5]))
        theta = np.array([0.0, 0.5, 0.0])
        f = fim(model, theta)
        assert f.is_singular
        coeffs = estimate_coefficients(model, theta, 0.01, fisher=f)
        pinv = f.pinv_matrix()
        top_value, top_vectors = np.linalg.eigh(pinv)
        top = top_vectors[:, -1]
        oracle = model.probs(theta) @ np.abs(model.dlogp(theta) @ pinv @ top) ** 3
        assert coeffs.opnorm_inv == pytest.approx(top_value[-1], rel=1e-12)
        assert coeffs.rho_top == pytest.approx(oracle, rel=1e-12)
        assert coeffs.rho_top > 0.0


SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
SHRINK = st.floats(min_value=0.01, max_value=0.999)


def assert_v_h_matches_dense_stack(model, theta):
    """estimate_coefficients' V_H against the K x d x d Hessian-stack oracle."""
    f = fim(model, theta)
    got = estimate_coefficients(model, theta, 0.01, fisher=f).V_H
    oracle = hessian_fluctuation_dense(model, theta, f.matrix)
    assert got == pytest.approx(oracle, rel=1e-12, abs=0.0)


def random_bloch(rng, n):
    bloch = rng.standard_normal((n, 3))
    return bloch / np.linalg.norm(bloch, axis=1, keepdims=True)


class TestHessianFluctuation:
    """V_H from the score matrix against the dense Hessian stack."""

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 3), seed=SEEDS, shrink=SHRINK)
    def test_entangled_pauli(self, n, seed, shrink):
        rng = np.random.default_rng(seed)
        theta = shrink * random_valid_eigenvalues(n, rng)[1:]
        assert_v_h_matches_dense_stack(entangled_pauli_model(n), theta)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 3), seed=SEEDS, shrink=SHRINK)
    def test_two_copy_bell(self, n, seed, shrink):
        rng = np.random.default_rng(seed)
        theta = shrink * product_probe(random_bloch(rng, n))[1:] ** 2
        assert_v_h_matches_dense_stack(two_copy_bell_model(n), theta)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 2), seed=SEEDS, shrink=SHRINK)
    def test_separable_pauli_with_zero_probe_components(self, n, seed, shrink):
        rng = np.random.default_rng(seed)
        r = product_probe(random_bloch(rng, n))[1:]
        r[rng.random(r.size) < 0.3] = 0.0
        theta = shrink * rng.uniform(-1.0, 1.0, r.size)
        assert_v_h_matches_dense_stack(separable_pauli_model(n, r), theta)

    @settings(max_examples=50, deadline=None)
    @given(theta=st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    def test_bernoulli(self, theta):
        assert_v_h_matches_dense_stack(bernoulli_model(), np.array([theta]))

    def test_bernoulli_near_the_symmetric_point(self):
        # V_H = 256 (t - 1/2)^2 to leading order: tiny, but no cancellation
        for t in (0.5 + 1e-9, 0.5 - 1e-6, 0.5 + 1e-4):
            assert_v_h_matches_dense_stack(bernoulli_model(), np.array([t]))

    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(1, 5), seed=SEEDS)
    def test_multinomial(self, d, seed):
        theta = np.random.default_rng(seed).dirichlet(np.ones(d + 1))[:d]
        assert_v_h_matches_dense_stack(multinomial_model(d), theta)

    def test_outcome_of_probability_1e19_enters_the_fim(self):
        # p = (1e-19, 1): the first outcome carries F = 1/theta + 1/(1 - theta)
        model = bernoulli_model()
        theta = np.array([1e-19])
        assert fim(model, theta).matrix[0, 0] == pytest.approx(1e19, rel=1e-15)
        assert_v_h_matches_dense_stack(model, theta)

    def test_poisson_uses_the_dense_default(self):
        # the 1 x 1 override sums each outcome's one element, as the stack does
        model = PoissonTruncatedModel(12)
        theta = np.array([1.7])
        f = fim(model, theta)
        got = estimate_coefficients(model, theta, 0.01, fisher=f).V_H
        assert got == hessian_fluctuation_dense(model, theta, f.matrix)


SHARED_MOMENT_CASES = [
    (entangled_pauli_model(2),
     0.9 * random_valid_eigenvalues(2, np.random.default_rng(5))[1:]),
    (two_copy_bell_model(2), np.full(15, 0.05)),
    (separable_pauli_model(1, np.array([1.0, 0.8, 0.0, 0.5])), np.array([0.0, 0.5, 0.0])),
    (separable_pauli_model(2, product_probe(np.tile([0.6, 0.0, 0.8], (2, 1)))),
     np.full(15, 0.1)),
    (bernoulli_model(), np.array([0.3])),
    (multinomial_model(3), np.array([0.2, 0.3, 0.1])),
    (PoissonTruncatedModel(20), np.array([1.3])),
    (GaussianKnownCovModel(np.array([[2.0, 0.5], [0.5, 1.0]])), np.array([0.4, -1.0])),
]


@pytest.mark.parametrize("norm", ["linf", "l2"])
@pytest.mark.parametrize("model, theta", SHARED_MOMENT_CASES,
                         ids=[f"{m.scheme}-d{m.d}" for m, _ in SHARED_MOMENT_CASES])
def test_shared_score_moments_give_the_same_coefficients(model, theta, norm):
    # fisher=f, as cmd_simulate passes the matrix it already built, gives
    # the coefficients of no fisher, field by field, and the bounds of both
    # norms read the same values
    given_f = estimate_coefficients(model, theta, 1e-3, fisher=fim(model, theta))
    own = estimate_coefficients(model, theta, 1e-3)
    assert upper_bound(1e-3, 0.1, given_f, norm) == upper_bound(1e-3, 0.1, own, norm)
    assert lower_bound(1e-3, 0.1, given_f, norm) == lower_bound(1e-3, 0.1, own, norm)
    for field in dataclasses.fields(BoundCoefficients):
        got, want = getattr(given_f, field.name), getattr(own, field.name)
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want), field.name
        else:
            assert got == want, field.name


class TestAsymptoticEvaluators:
    def test_entangled_upper_frozen_value(self):
        got = entangled_pauli_upper(1, 0.1, 0.1)
        assert got == pytest.approx(W0_ENT_N1_DELTA01 * 100.0, rel=1e-12)

    def test_entangled_upper_log_bound(self):
        for n in (1, 2, 5):
            value = entangled_pauli_upper(n, 0.1, 0.1)
            cap = (math.log(8 / math.pi) + 2 * n * math.log(4) + 2 * math.log(10)) / 0.01
            assert value <= cap

    def test_entangled_upper_linear_in_n(self):
        values = [entangled_pauli_upper(n, 0.1, 0.1) for n in range(1, 9)]
        diffs = np.diff(values)
        assert np.all(diffs > 0)
        assert np.all(np.abs(diffs / diffs[0] - 1.0) < 0.6)  # near-linear growth

    def test_separable_lower_exponential_ratio(self):
        assert separable_pauli_lower(11, 0.1, 0.1) / separable_pauli_lower(
            1, 0.1, 0.1
        ) == pytest.approx(2.0**10, rel=1e-12)

    def test_separable_lower_unit_w0(self):
        assert separable_pauli_lower(3, 0.1, DELTA_UNIT_W0) == pytest.approx(
            8.0 / 0.01, rel=1e-9
        )

    def test_separation_crossover_scan(self):
        # numeric-scan oracle: ratio grows and crosses 1 at some n0
        ratios = [
            separable_pauli_lower(n, 0.1, 0.1) / entangled_pauli_upper(n, 0.1, 0.1)
            for n in range(1, 12)
        ]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        crossover = next(i for i, r in enumerate(ratios, start=1) if r > 1.0)
        assert crossover == 3
        assert all(r > 1.0 for r in ratios[crossover - 1:])

    def test_l2_lower_uniform_rates(self):
        got = entangled_pauli_l2_lower(1, np.full(4, 0.25), 0.1, 0.1)
        assert got == pytest.approx(W0_DELTA01_LOWER * 100.0, rel=1e-12)

    def test_l2_lower_identity_channel_vacuous(self):
        got = entangled_pauli_l2_lower(1, np.array([1.0, 0.0, 0.0, 0.0]), 0.1, 0.1)
        assert got == 0.0

    def test_l2_lower_consistent_with_interlacing(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            p = rng.dirichlet(np.ones(4))
            if np.any(p <= 1e-6):
                continue
            bound = entangled_pauli_l2_lower(1, p, 0.1, 0.1)
            f = bell_fim_structural(p, 1)
            exact = asymptotic_lower_linf(0.1, 0.1, f.opnorm_inverse())
            assert bound <= exact + 1e-9

    @pytest.mark.parametrize("n", [1, 2, 5, 11, 30])
    def test_specialisations_equal_the_spelled_forms(self, n):
        # the Pauli limits are calls of the generic ones, bit for bit
        rng = np.random.default_rng(n)
        for eps, delta in ((0.1, 0.1), (1e-6, 1e-3), (0.37, 0.9), (1e-30, 1e-30)):
            assert entangled_pauli_upper(n, eps, delta) == (
                lambert_w0(8.0 / math.pi * delta**-2 * 16.0**n) / eps**2)
            w0 = lambert_w0(delta**-2 / (2.0 * math.pi))
            assert separable_pauli_lower(n, eps, delta) == w0 * 2.0**n / eps**2
            if n <= 5:
                rates = rng.dirichlet(np.ones(4**n))
                second = float(np.sort(rates)[-2])
                assert entangled_pauli_l2_lower(n, rates, eps, delta) == (
                    w0 * 4.0**n * second / eps**2)

    def test_generic_asymptotics(self):
        assert asymptotic_upper_l2(0.1, 0.1, 3, 1.0) == pytest.approx(
            3.0 * asymptotic_upper_linf(0.1, 0.1, 3, 1.0)
        )
        assert asymptotic_lower_linf(0.1, 0.1, 0.25) == pytest.approx(
            W0_DELTA01_LOWER * 25.0
        )


class TestSingularFisher:
    """The upper bounds need an invertible F; the lower bounds do not."""

    # the second axis has probe component 0: F is singular, lambda_2 unidentifiable
    MODEL = separable_pauli_model(1, np.array([1.0, 0.8, 0.0, 0.5]))
    THETA = np.array([0.0, 0.5, 0.0])

    @pytest.mark.parametrize("norm,lower_value", [
        ("linf", 159902.80623732574),
        ("l2", 191304.0948560928),
    ], ids=["linf", "l2"])
    def test_upper_bounds_are_inapplicable(self, norm, lower_value):
        coeffs = estimate_coefficients(self.MODEL, self.THETA, 0.01)
        result = upper_bound(0.01, 0.1, coeffs, norm)
        assert (result.value, result.applicable, result.limiting_term, result.reason,
                result.provenance) == (math.inf, False, "none", "singular Fisher matrix",
                                       "exact")
        bound = lower_bound(0.01, 0.1, coeffs, norm)
        assert bound.applicable
        assert bound.value == pytest.approx(lower_value, rel=1e-12)

    def test_singular_flag_follows_the_fisher_matrix(self):
        coeffs = estimate_coefficients(self.MODEL, self.THETA, 0.01)
        assert coeffs.singular
        model = separable_pauli_model(1, np.array([1.0, 0.8, 0.3, 0.5]))
        assert not estimate_coefficients(model, self.THETA, 0.01).singular
        assert not idealized_coefficients(3).singular


class TestNonFiniteCoefficients:
    """No bound applies to coefficients that are not finite numbers."""

    @pytest.mark.parametrize("truncation", [200, 400])
    def test_poisson_tail_outcomes_that_underflow_leave_the_bounds_alone(self, truncation):
        # beyond k of about 170 at theta = 1, p_k underflows to 0
        def rows(model):
            out = []
            coeffs = estimate_coefficients(model, np.array([1.0]), 0.01)
            for norm in NORMS:
                out += [upper_bound(0.01, 0.1, coeffs, norm),
                        lower_bound(0.01, 0.1, coeffs, norm)]
            return out

        reference = rows(PoissonTruncatedModel(150))
        assert PoissonTruncatedModel(truncation).probs([1.0])[-1] == 0.0
        for got, want in zip(rows(PoissonTruncatedModel(truncation)), reference):
            assert got.applicable and want.applicable
            assert got.value == pytest.approx(want.value, rel=1e-12)

    @pytest.mark.parametrize("norm", ["linf", "l2"], ids=lambda norm: f"upper_bound_{norm}")
    def test_nan_rho_makes_the_upper_bounds_inapplicable(self, norm):
        coeffs = idealized_coefficients(3)
        coeffs = dataclasses.replace(coeffs, rho_diag=np.array([1.0, np.nan, 1.0]))
        result = upper_bound(0.01, 0.1, coeffs, norm)
        assert (result.value, result.applicable, result.reason) == (
            math.inf, False, "non-finite coefficients")

    @pytest.mark.parametrize("norm", ["linf", "l2"])
    def test_a_null_coordinate_makes_the_upper_bounds_inapplicable(self, norm):
        # sigma_a = 0 puts coordinate a in the null space of F, whatever rho_a
        coeffs = dataclasses.replace(idealized_coefficients(3),
                                     sigma_diag=np.array([1.0, 0.0, 1.0]))
        result = upper_bound(0.01, 0.1, coeffs, norm)
        assert (result.applicable, result.reason) == (False, "non-finite coefficients")


class TestBoundResultContract:
    def test_values_at_least_one_or_flagged(self):
        model = entangled_pauli_model(1)
        for eps in (0.01, 0.2, 0.5):
            coeffs = estimate_coefficients(model, np.zeros(3), eps)
            for delta in (0.05, 0.3):
                for result in (
                    upper_bound(eps, delta, coeffs, "linf"),
                    lower_bound(eps, delta, coeffs, "linf"),
                ):
                    assert result.value >= 1.0 or not result.applicable
