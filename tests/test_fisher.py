import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fisherbound.fisher import (
    FimUndefinedError,
    FisherMatrix,
    bell_fim_structural,
    estimable,
    fim,
    single_copy_trace_bound,
)
from fisherbound.models import (
    GaussianKnownCovModel,
    PoissonTruncatedModel,
    bernoulli_model,
    entangled_pauli_model,
    multinomial_model,
    separable_pauli_model,
    two_copy_bell_model,
)
from fisherbound.pauli import random_valid_eigenvalues, rates_to_eigenvalues

from oracles import depolarizing_qfi_sum, fim_finite_difference, jacobi_eigenvalues


class TestFim:
    def test_entangled_depolarizing_is_identity(self):
        # hand enumeration: 4 outcomes, dp = +-1/4, p = 1/4
        f = fim(entangled_pauli_model(1), np.zeros(3))
        np.testing.assert_allclose(f.matrix, np.eye(3), atol=1e-12)

    def test_bernoulli_closed_form(self):
        model = bernoulli_model()
        for theta in (0.5, 0.2, 0.9):
            f = fim(model, np.array([theta]))
            assert f.matrix[0, 0] == pytest.approx(1.0 / (theta * (1 - theta)), rel=1e-12)
        assert fim(model, np.array([0.5])).matrix[0, 0] == pytest.approx(4.0)

    def test_gaussian_analytic(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        f = fim(GaussianKnownCovModel(cov), np.zeros(2))
        np.testing.assert_allclose(f.matrix, np.linalg.inv(cov), atol=1e-12)

    @pytest.mark.parametrize("theta", [1e-300, 1e-100, 1e-20, 1.0])
    def test_poisson_against_the_mpmath_variance(self, theta):
        # the truncated family is exponential in log theta, so F = Var(k) / theta^2;
        # at theta << 1 the k = 1 outcome, p ~ theta, carries F ~ 1/theta
        import mpmath

        with mpmath.workdps(50):
            t = mpmath.mpf(theta)
            weights = [t**k / mpmath.factorial(k) for k in range(21)]
            total = mpmath.fsum(weights)
            mean = mpmath.fsum(k * w for k, w in enumerate(weights)) / total
            var = mpmath.fsum((k - mean) ** 2 * w for k, w in enumerate(weights)) / total
            want = float(var / t**2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fim(PoissonTruncatedModel(20), np.array([theta])).matrix[0, 0]
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_matches_finite_difference_oracle(self):
        model = entangled_pauli_model(1)
        theta = np.array([0.3, -0.2, 0.15])
        oracle = fim_finite_difference(model.probs, theta)
        np.testing.assert_allclose(fim(model, theta).matrix, oracle, atol=1e-7)

    def test_inverse_diag_closed_form_random_draws(self):
        # acceptance-grade check at module scale: 10 draws per n
        rng = np.random.default_rng(17)
        for n in (1, 2):
            model = entangled_pauli_model(n)
            for _ in range(10):
                lam = random_valid_eigenvalues(n, rng)[1:]
                f = fim(model, lam)
                np.testing.assert_allclose(
                    f.inverse_diag(), 1.0 - lam**2, atol=1e-8
                )

    def test_undefined_at_score_carrying_zero(self):
        # identity channel: three outcomes have p = 0 with nonzero dp
        model = entangled_pauli_model(1)
        with pytest.raises((FimUndefinedError, ValueError)):
            fim(model, np.array([1.0, 1.0, 1.0]))


def assert_fim_sums_every_outcome(model, theta):
    """fim is sum_x p_x g_x g_x^T = sum_x A_x A_x^T / p_x over every outcome.

    The sum is taken in 40-digit arithmetic from the model's own
    probabilities, and each entry may differ from it by the rounding of a
    K-term float sum, 4 K eps times the sum of the terms' magnitudes.  One
    dropped outcome moves its entries by its whole term.
    """
    import mpmath

    got = fim(model, theta).matrix
    p = model.probs(theta)
    want = np.empty_like(got)
    scale = np.empty_like(got)
    with mpmath.workdps(40):
        for i in range(model.d):
            for j in range(model.d):
                terms = [mpmath.mpf(a_x[i]) * mpmath.mpf(a_x[j]) / mpmath.mpf(p_x)
                         for a_x, p_x in zip(model.A, p)]
                want[i, j] = float(mpmath.fsum(terms))
                scale[i, j] = float(mpmath.fsum(abs(term) for term in terms))
    assert np.all(np.abs(got - want) <= 4 * model.K * np.finfo(float).eps * scale)


class TestFimSumsEveryOutcome:
    """No outcome is too improbable for the Fisher sum (the Bell schemes
    form p = 4^-n + A theta, so float64 resolves their p only to ~1e-17)."""

    @settings(max_examples=50, deadline=None)
    @given(theta=st.one_of(st.floats(-300.0, 0.0).map(lambda e: 0.5 * 10.0**e),
                           st.floats(0.5, 1.0 - 1e-12)))
    def test_bernoulli(self, theta):
        got = fim(bernoulli_model(), np.array([theta])).matrix[0, 0]
        assert got == pytest.approx(1.0 / (theta * (1.0 - theta)), rel=1e-15, abs=0.0)

    @settings(max_examples=50, deadline=None)
    @given(d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           log_min=st.floats(-300.0, 0.0))
    def test_multinomial(self, d, seed, log_min):
        rng = np.random.default_rng(seed)
        theta = rng.dirichlet(np.ones(d + 1))[:d]
        j = rng.integers(d)
        theta[j] = min(theta[j], 10.0**log_min)
        assert_fim_sums_every_outcome(multinomial_model(d), theta)

    @pytest.mark.parametrize("factory", [entangled_pauli_model, two_copy_bell_model])
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 2), seed=st.integers(0, 2**32 - 1),
           log_t=st.floats(-14.0, 0.0))
    def test_bell(self, factory, n, seed, log_t):
        # rates (1 - t) q + t / 4^n, with q zero on a random subset of outcomes;
        # q_0 >= 1/2 keeps every eigenvalue in [0, 1], two-copy-bell's box
        rng = np.random.default_rng(seed)
        q = rng.dirichlet(np.ones(4**n))
        q[rng.random(q.size) < 0.5] = 0.0
        q[0] += q.sum() + 1e-3
        theta = (1.0 - 10.0**log_t) * rates_to_eigenvalues(q / q.sum())[1:]
        model = factory(n)
        assume(model.contains(theta))
        assert_fim_sums_every_outcome(model, theta)


class TestQfimDiagonals:
    """The models' closed_form_inverse_diag."""

    def test_inverse_diag_pauli(self):
        for model in (entangled_pauli_model(1), two_copy_bell_model(1)):
            np.testing.assert_allclose(model.closed_form_inverse_diag(np.zeros(3)), np.ones(3))
            values = model.closed_form_inverse_diag(np.array([1.0, 0.6, 0.0]))
            assert values[0] == 0.0
            assert values[1] == pytest.approx(0.64)
            with pytest.raises(ValueError):
                model.closed_form_inverse_diag(np.array([1.2, 0.0, 0.0]))

    def test_separable_diag(self):
        model = separable_pauli_model(1, [0.8, 0.5, 0.0])
        values = model.closed_form_inverse_diag(np.array([0.0, 0.5, 0.3]))
        assert values[0] == pytest.approx(1.0 / 0.64)
        assert values[1] == pytest.approx((1 - 0.0625) / 0.25)  # 3.75
        assert math.isinf(values[2])

    def test_separable_diag_exponential_witness(self):
        # r_a^2 = 2^-n at lam = 0 gives the 2^n diagonal
        for n in (1, 4):
            r = np.zeros(4**n - 1)
            r[0] = 2.0 ** (-n / 2)
            values = separable_pauli_model(n, r).closed_form_inverse_diag(np.zeros(r.size))
            assert values[0] == pytest.approx(2.0**n, rel=1e-12)

    def test_zero_component_flagged_infinite(self):
        model = separable_pauli_model(1, np.zeros(3))
        assert np.all(np.isinf(model.closed_form_inverse_diag(np.zeros(3))))

    @pytest.mark.parametrize("factory", [entangled_pauli_model, two_copy_bell_model])
    def test_bell_closed_form_matches_fim(self, factory):
        model = factory(2)
        points = model.random_points(np.random.default_rng(8), 5)
        assert points
        for theta in points:
            np.testing.assert_allclose(fim(model, theta).inverse_diag(),
                                       model.closed_form_inverse_diag(theta), atol=1e-8)


class TestPseudoInverse:
    def test_identity(self):
        np.testing.assert_allclose(FisherMatrix(np.eye(3)).pinv_matrix(), np.eye(3))

    def test_diagonal(self):
        got = FisherMatrix(np.diag([2.0, 0.0])).pinv_matrix()
        np.testing.assert_allclose(got, np.diag([0.5, 0.0]), atol=1e-12)

    def test_rank_one_against_svd_oracle(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(4)
        f = np.outer(v, v)
        got = FisherMatrix(f).pinv_matrix()
        np.testing.assert_allclose(got, np.outer(v, v) / np.linalg.norm(v) ** 4,
                                   atol=1e-10)
        u, s, vt = np.linalg.svd(f)
        s_inv = np.where(s > 1e-10 * s.max(), 1.0 / np.where(s == 0, 1.0, s), 0.0)
        np.testing.assert_allclose(got, (u * s_inv) @ vt, atol=1e-10)

    def test_penrose_identities_random_ranks(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            d = int(rng.integers(2, 7))
            rank = int(rng.integers(1, d + 1))
            basis = rng.standard_normal((d, rank))
            a = basis @ basis.T
            x = FisherMatrix(a).pinv_matrix()
            scale = max(1.0, np.abs(a).max())
            assert np.abs(a @ x @ a - a).max() <= 1e-8 * scale
            assert np.abs(x @ a @ x - x).max() <= 1e-8 * max(1.0, np.abs(x).max())
            assert np.abs((a @ x).T - a @ x).max() <= 1e-8
            assert np.abs((x @ a).T - x @ a).max() <= 1e-8

    def test_equals_inverse_when_full_rank(self):
        rng = np.random.default_rng(9)
        basis = rng.standard_normal((4, 4))
        a = basis @ basis.T + 4.0 * np.eye(4)
        np.testing.assert_allclose(FisherMatrix(a).pinv_matrix(), np.linalg.inv(a),
                                   atol=1e-10)


class TestPinvCache:
    def test_computed_once_and_read_only(self):
        rng = np.random.default_rng(12)
        basis = rng.standard_normal((5, 3))
        f = FisherMatrix(basis @ basis.T)
        first = f.pinv_matrix()
        assert f.pinv_matrix() is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 1.0

    def test_same_bits_as_a_fresh_matrix(self):
        lam = random_valid_eigenvalues(2, np.random.default_rng(13))
        f = fim(entangled_pauli_model(2), 0.8 * lam[1:])
        cached = f.pinv_matrix().copy()
        estimable(f)
        fresh = FisherMatrix(f.matrix).pinv_matrix()
        assert np.array_equal(f.pinv_matrix(), cached)
        assert np.array_equal(cached, fresh)


class TestEstimable:
    def test_full_rank_always_estimable(self):
        f = FisherMatrix(np.diag([2.0, 0.5, 1.0]))
        assert np.array_equal(estimable(f), [True, True, True])

    def test_axis_aligned_projector(self):
        f = FisherMatrix(np.diag([1.0, 0.0]))
        assert np.array_equal(estimable(f), [True, False])

    def test_rank_one_diagonal_direction(self):
        v = np.array([1.0, 1.0]) / math.sqrt(2.0)
        f = FisherMatrix(np.outer(v, v))
        # projector oracle: range projection of e_0 is v<v,e_0> != e_0
        assert np.array_equal(estimable(f), [False, False])

    def test_one_rank_split_decides_singular_and_estimable(self):
        # condition 1e9 under a random rotation: nonsingular at RANK_TOL, so
        # no coordinate may be called inestimable
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 6)))
        f = FisherMatrix((q * np.geomspace(1.0, 1e-9, 6)) @ q.T)
        assert not f.is_singular
        assert estimable(f).all()
        v = np.array([1.0, 1.0]) / math.sqrt(2.0)
        for matrix, flags in [(np.diag([1.0, 0.0]), [True, False]),
                              (np.outer(v, v), [False, False])]:
            f = FisherMatrix(matrix)
            assert f.is_singular
            assert estimable(f).tolist() == flags

    def test_singular_exactly_when_some_coordinate_is_inestimable(self):
        rng = np.random.default_rng(34)
        for _ in range(40):
            d = int(rng.integers(2, 8))
            basis = rng.standard_normal((d, int(rng.integers(1, d + 1))))
            f = FisherMatrix(basis @ basis.T)
            assert f.is_singular == (not estimable(f).all())

    def test_agrees_with_projector_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            rank = int(rng.integers(1, d + 1))
            basis = rng.standard_normal((d, rank))
            f = FisherMatrix(basis @ basis.T)
            q, _ = np.linalg.qr(basis)
            projector = q @ q.T
            mask = estimable(f)
            for a in range(d):
                e = np.zeros(d)
                e[a] = 1.0
                oracle = np.linalg.norm(projector @ e - e) <= 1e-8
                assert mask[a] == oracle


    def test_mask_equals_the_per_coordinate_product(self):
        # F F^+ e_a = e_a one coordinate at a time, on singular (some
        # coordinates outside the range, some inside) and nonsingular F
        rng = np.random.default_rng(33)
        for trial in range(60):
            d = int(rng.integers(2, 9))
            rank = int(rng.integers(1, d + 1))
            basis = rng.standard_normal((d, rank))
            if trial % 2:
                basis[rng.choice(d, size=d - rank, replace=False)] = 0.0
            f = FisherMatrix(basis @ basis.T)
            per_coordinate = []
            for a in range(d):
                e = np.zeros(d)
                e[a] = 1.0
                residual = f.matrix @ (f.pinv_matrix() @ e) - e
                per_coordinate.append(bool(np.linalg.norm(residual) <= 1e-8))
            assert estimable(f).tolist() == per_coordinate


class TestSpectralStats:
    """The inverse-side summary that every bound reads from FisherMatrix."""

    def test_identity(self):
        f = FisherMatrix(np.eye(3))
        assert (f.opnorm_inverse(), f.inverse_diag().max()) == (1, 1)
        assert not f.is_singular

    def test_diag_example(self):
        f = FisherMatrix(np.diag([4.0, 1.0]))
        assert f.opnorm_inverse() == pytest.approx(1.0)
        assert f.inverse_diag().max() == pytest.approx(1.0)

    def test_random_spd_against_jacobi_oracle(self):
        rng = np.random.default_rng(31)
        basis = rng.standard_normal((5, 5))
        a = basis @ basis.T + 5.0 * np.eye(5)
        f = FisherMatrix(a)
        eigs = jacobi_eigenvalues(a)
        assert f.opnorm_inverse() == pytest.approx(1.0 / eigs[0], rel=1e-9)
        max_inv_diag = f.inverse_diag().max()
        assert max_inv_diag == pytest.approx(np.diag(np.linalg.inv(a)).max(), rel=1e-9)
        assert max_inv_diag <= f.opnorm_inverse() + 1e-12

    def test_singular_flag(self):
        f = FisherMatrix(np.diag([1.0, 0.0]))
        assert f.is_singular
        assert (f.opnorm_inverse(), f.inverse_diag().max()) == (1, 1)

    def test_top_eigvec_skips_the_null_direction(self):
        # eigh puts the null direction first; the pinv's top direction is e_2
        f = FisherMatrix(np.diag([2.0, 0.0, 0.5]))
        np.testing.assert_array_equal(np.abs(f.top_eigvec()), [0.0, 0.0, 1.0])
        assert FisherMatrix(np.zeros((2, 2))).top_eigvec() is None

    def test_top_eigvec_full_rank_is_first_column(self):
        rng = np.random.default_rng(32)
        basis = rng.standard_normal((4, 4))
        f = FisherMatrix(basis @ basis.T + np.eye(4))
        assert f.top_eigvec() is not None
        np.testing.assert_array_equal(f.top_eigvec(), f.eigenvectors[:, 0])


class TestBellStructural:
    def test_uniform_rates_identity(self):
        f = bell_fim_structural(np.full(4, 0.25), 1)
        np.testing.assert_allclose(f.matrix, np.eye(3), atol=1e-12)

    def test_matches_enumerated_fim(self):
        rng = np.random.default_rng(41)
        for n in (1, 2):
            p = rng.dirichlet(np.ones(4**n)) * 0.8 + 0.2 / 4**n
            p /= p.sum()
            structural = bell_fim_structural(p, n)
            lam = rates_to_eigenvalues(p)
            enumerated = fim(entangled_pauli_model(n), lam[1:])
            np.testing.assert_allclose(structural.matrix, enumerated.matrix, atol=1e-8)

    def test_interlacing(self):
        rng = np.random.default_rng(42)
        for n in (1, 2):
            p = rng.dirichlet(np.ones(4**n)) * 0.8 + 0.2 / 4**n
            p /= p.sum()
            f = bell_fim_structural(p, n)
            full = np.sort(1.0 / (p * 4**n))
            assert full[0] <= f.eigenvalues[0] + 1e-9
            assert f.eigenvalues[0] <= full[1] + 1e-9

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            bell_fim_structural(np.array([0.5, 0.5, 0.0, 0.0]), 1)


class TestSingleCopyTraceBound:
    def test_computational_basis(self):
        # hand trace: only the Z component contributes, sum = 1
        povm = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        result = single_copy_trace_bound(povm, 1)
        assert result.trace_sum == pytest.approx(1.0, abs=1e-12)
        assert result.trace_sum <= result.bound
        assert result.witness_value <= (2 - 1) / (4 - 1) + 1e-12

    def test_trivial_povm(self):
        result = single_copy_trace_bound([np.eye(2)], 1)
        assert result.trace_sum == pytest.approx(0.0, abs=1e-12)

    def test_random_projective_bases(self):
        rng = np.random.default_rng(50)
        for n in (1, 2):
            dim = 2**n
            cap = 2**n - 1
            for _ in range(10):
                raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                q, _ = np.linalg.qr(raw)
                povm = [np.outer(q[:, k], q[:, k].conj()) for k in range(dim)]
                result = single_copy_trace_bound(povm, n)
                assert result.trace_sum <= cap + 1e-8
                assert result.witness_value <= cap / (4**n - 1) + 1e-9

    def test_invalid_povm(self):
        with pytest.raises(ValueError):
            single_copy_trace_bound([np.eye(2) * 0.5], 1)


class TestDepolarizingQfiSum:
    def test_unital_processing(self):
        assert depolarizing_qfi_sum(np.array([1.0]), np.zeros((1, 3)), 1) == 0.0

    def test_tight_single_branch(self):
        d = np.zeros((1, 3))
        d[0, 0] = 1.0
        assert depolarizing_qfi_sum(np.array([1.0]), d, 1) == pytest.approx(1.0)

    def test_two_branch_arithmetic(self):
        vectors = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
        got = depolarizing_qfi_sum(np.array([0.5, 0.5]), vectors, 2)
        assert got == pytest.approx(1.5)

    def test_purity_violation(self):
        with pytest.raises(ValueError, match="purity"):
            depolarizing_qfi_sum(np.array([1.0]), np.array([[1.0, 1.0, 0.5]]), 1)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            depolarizing_qfi_sum(np.array([0.7, 0.7]), np.zeros((2, 3)), 1)


class TestFisherMatrixType:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            FisherMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            FisherMatrix(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_eigenvalues_sorted_ascending(self):
        f = FisherMatrix(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(f.eigenvalues, [1.0, 2.0, 3.0])
