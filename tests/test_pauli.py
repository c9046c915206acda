import numpy as np
import pytest

from fisherbound import pauli
from fisherbound.pauli import (
    PauliIndex,
    eigenvalues_to_rates,
    fwht,
    num_paulis,
    pauli_matrix,
    product_probe,
    random_valid_eigenvalues,
    rates_to_eigenvalues,
    sign_matrix,
    symplectic_product,
)

from oracles import fwht_stack, pauli_matrix_naive, symplectic_naive, wht_naive

# index layout for n=1: 0=I, 1=Z, 2=X, 3=Y
I1, Z1, X1, Y1 = (PauliIndex(a, 1) for a in range(4))


class TestSymplecticProduct:
    def test_identity_commutes_with_everything(self):
        for a in range(4):
            assert symplectic_product(I1, PauliIndex(a, 1)) == 0

    def test_x_z_anticommute(self):
        # frozen from the 2x2 matrix oracle: XZ = -ZX
        assert symplectic_product(X1, Z1) == 1

    def test_x_commutes_with_itself(self):
        assert symplectic_product(X1, X1) == 0

    def test_matches_bit_oracle(self):
        for n in (1, 2, 3):
            rng = np.random.default_rng(n)
            for _ in range(50):
                a, b = rng.integers(0, 4**n, size=2)
                got = symplectic_product(PauliIndex(int(a), n), PauliIndex(int(b), n))
                assert got == symplectic_naive(int(a), int(b), n)

    def test_mismatched_qubit_counts(self):
        with pytest.raises(ValueError):
            symplectic_product(PauliIndex(1, 1), PauliIndex(1, 2))


class TestFwht:
    def test_delta_at_identity(self):
        assert np.array_equal(fwht(np.array([1.0, 0, 0, 0])), np.ones(4))

    def test_uniform_rates_are_depolarizing(self):
        np.testing.assert_allclose(
            fwht(np.full(4, 0.25)), np.array([1.0, 0, 0, 0]), atol=1e-15
        )

    def test_matches_naive_double_sum(self):
        # frozen from the O(N^2) oracle
        np.testing.assert_allclose(
            fwht(np.array([0.7, 0.1, 0.1, 0.1])), np.array([1.0, 0.6, 0.6, 0.6]),
            atol=1e-15,
        )
        for n in (1, 2, 3):
            rng = np.random.default_rng(10 + n)
            v = rng.standard_normal(4**n)
            np.testing.assert_allclose(fwht(v), wht_naive(v, n), atol=1e-11)

    def test_involution(self):
        for n in (1, 2, 3):
            size = 4**n
            for seed in range(10):
                v = np.random.default_rng(seed).standard_normal(size)
                np.testing.assert_allclose(fwht(fwht(v)), size * v, atol=1e-10)

    def test_matrix_rows(self):
        rng = np.random.default_rng(3)
        batch = rng.standard_normal((5, 16))
        rowwise = np.stack([fwht(row) for row in batch])
        np.testing.assert_allclose(fwht(batch), rowwise, atol=1e-12)

    def test_bad_length(self):
        with pytest.raises(ValueError):
            fwht(np.ones(8))

    def test_sign_matrix_is_transform_matrix(self):
        s = sign_matrix(2)
        v = np.random.default_rng(0).standard_normal(16)
        np.testing.assert_allclose(fwht(v), s @ v, atol=1e-12)


class TestFwhtBitwise:
    """The ping-pong butterfly reproduces the np.stack butterfly bit for bit."""

    @staticmethod
    def check(v):
        before = np.array(v, copy=True)
        got = fwht(v)
        assert np.array_equal(v, before)  # input never modified
        expected = fwht_stack(before)
        assert got.dtype == np.float64 and got.shape == expected.shape
        assert np.array_equal(got, expected)
        return got

    def test_one_dimensional(self):
        rng = np.random.default_rng(41)
        for n in (1, 2, 3, 4):
            self.check(rng.standard_normal(4**n))

    def test_two_dimensional(self):
        rng = np.random.default_rng(42)
        for n in (1, 2, 3):
            self.check(rng.random((7, 4**n)) / 3.0)

    def test_trial_block_at_four_qubits(self):
        rng = np.random.default_rng(47)
        self.check(rng.random((512, 256)) / 7.0)

    def test_three_dimensional(self):
        rng = np.random.default_rng(43)
        self.check(rng.standard_normal((3, 5, 64)))

    def test_non_contiguous(self):
        rng = np.random.default_rng(44)
        wide = rng.standard_normal((6, 32))
        self.check(wide[:, ::2])  # strided last axis
        self.check(rng.standard_normal((16, 5)).T)  # Fortran-ordered rows
        self.check(rng.standard_normal((9, 16))[::3])  # strided rows

    def test_integer_input(self):
        rng = np.random.default_rng(45)
        counts = rng.multinomial(1000, np.full(16, 1 / 16), size=4)
        got = self.check(counts)
        assert counts.dtype.kind == "i"
        assert np.array_equal(got, fwht_stack(counts.astype(float)))

    def test_result_is_a_fresh_writable_array(self):
        v = np.random.default_rng(46).standard_normal(16)
        out = fwht(v)
        assert out.flags.writeable and not np.shares_memory(out, v)


class TestRateEigenvalueMaps:
    def test_identity_channel(self):
        p = np.zeros(4)
        p[0] = 1.0
        assert np.array_equal(rates_to_eigenvalues(p), np.ones(4))

    def test_uniform_rates(self):
        np.testing.assert_allclose(
            rates_to_eigenvalues(np.full(4, 0.25)), [1.0, 0, 0, 0], atol=1e-15
        )

    def test_derived_example(self):
        # frozen from the naive-sum oracle
        np.testing.assert_allclose(
            rates_to_eigenvalues(np.array([0.85, 0.05, 0.05, 0.05])),
            [1.0, 0.8, 0.8, 0.8],
            atol=1e-15,
        )

    def test_inverse_examples(self):
        np.testing.assert_allclose(
            eigenvalues_to_rates(np.ones(4)), [1.0, 0, 0, 0], atol=1e-15
        )
        np.testing.assert_allclose(
            eigenvalues_to_rates(np.array([1.0, 0, 0, 0])), np.full(4, 0.25), atol=1e-15
        )
        np.testing.assert_allclose(
            eigenvalues_to_rates(np.array([1.0, 0.8, 0.8, 0.8])),
            [0.85, 0.05, 0.05, 0.05],
            atol=1e-15,
        )

    def test_roundtrip_is_identity(self):
        for n in (1, 2, 3):
            rng = np.random.default_rng(20 + n)
            p = rng.dirichlet(np.ones(4**n))
            np.testing.assert_allclose(
                eigenvalues_to_rates(rates_to_eigenvalues(p)), p, atol=1e-12
            )

    def test_invalid_simplex_rejected(self):
        with pytest.raises(ValueError):
            rates_to_eigenvalues(np.array([0.9, 0.3, -0.1, -0.1]))
        with pytest.raises(ValueError):
            rates_to_eigenvalues(np.array([0.5, 0.1, 0.1, 0.1]))

    def test_not_a_channel_rejected(self):
        # lam = (1, 1, 1, -1) maps to a rate vector with a negative entry
        with pytest.raises(ValueError, match="not a channel"):
            eigenvalues_to_rates(np.array([1.0, 1.0, 1.0, -1.0]))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [1, 11])
    def test_batched_draws_equal_sequential_draws(self, n, seed):
        batched = random_valid_eigenvalues(n, np.random.default_rng(seed), size=7)
        rng = np.random.default_rng(seed)
        sequential = np.array([random_valid_eigenvalues(n, rng) for _ in range(7)])
        assert np.array_equal(batched, sequential)

    def test_eigenvalues_to_rates_transforms_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(pauli, "fwht", lambda v: calls.append(1) or fwht(v))
        lam = np.array([1.0, 0.8, 0.8, 0.8])
        assert np.array_equal(eigenvalues_to_rates(lam), fwht(lam) / 4)
        assert len(calls) == 1

    def test_random_valid_eigenvalues_are_valid(self):
        rng = np.random.default_rng(7)
        for n in (1, 2):
            lam = random_valid_eigenvalues(n, rng)
            assert lam[0] == 1.0
            assert np.all(np.abs(lam) <= 1.0 + 1e-12)
            p = eigenvalues_to_rates(lam)
            assert np.all(p >= -1e-12)


class TestPauliMatrix:
    def test_identity(self):
        assert np.array_equal(pauli_matrix(I1), np.eye(2))

    def test_x_matrix(self):
        assert np.array_equal(pauli_matrix(X1), np.array([[0, 1], [1, 0]]))

    def test_y_from_phase_convention(self):
        # frozen from the 2x2 multiply oracle: i * X @ Z = Y
        np.testing.assert_allclose(
            pauli_matrix(Y1), np.array([[0, -1j], [1j, 0]]), atol=1e-15
        )

    def test_matches_factor_oracle(self):
        for n in (1, 2):
            for a in range(4**n):
                np.testing.assert_allclose(
                    pauli_matrix(PauliIndex(a, n)), pauli_matrix_naive(a, n), atol=1e-15
                )

    def test_trace_orthogonality(self):
        for n in (1, 2):
            dim = 2**n
            mats = [pauli_matrix(PauliIndex(a, n)) for a in range(4**n)]
            for i, ma in enumerate(mats):
                for j, mb in enumerate(mats):
                    expected = dim if i == j else 0.0
                    assert abs(np.trace(ma @ mb) - expected) < 1e-12

    def test_commutation_matches_symplectic_product(self):
        for n in (1, 2):
            mats = [pauli_matrix(PauliIndex(a, n)) for a in range(4**n)]
            for i, ma in enumerate(mats):
                for j, mb in enumerate(mats):
                    sign = (-1.0) ** symplectic_product(PauliIndex(i, n), PauliIndex(j, n))
                    np.testing.assert_allclose(ma @ mb, sign * mb @ ma, atol=1e-14)

    def test_hermitian_and_unitary(self):
        for a in range(16):
            mat = pauli_matrix(PauliIndex(a, 2))
            np.testing.assert_allclose(mat, mat.conj().T, atol=1e-15)
            np.testing.assert_allclose(mat @ mat.conj().T, np.eye(4), atol=1e-14)

    def test_dense_limit(self):
        with pytest.raises(ValueError):
            pauli_matrix(PauliIndex(0, 7))


class TestPauliIndex:
    def test_bit_split(self):
        idx = PauliIndex(0b1101, 2)  # x bits 11, z bits 01
        assert idx.x_bits == 0b11
        assert idx.z_bits == 0b01

    def test_range_check(self):
        with pytest.raises(ValueError):
            PauliIndex(4, 1)
        with pytest.raises(ValueError):
            PauliIndex(0, 0)


class TestProductProbe:
    def test_z_probe_single_qubit(self):
        r = product_probe(np.array([[0.0, 0.0, 1.0]]))
        np.testing.assert_allclose(r, [1.0, 1.0, 0.0, 0.0], atol=1e-15)

    def test_purity_saturated_for_unit_bloch(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 3):
            bloch = rng.standard_normal((n, 3))
            bloch /= np.linalg.norm(bloch, axis=1, keepdims=True)
            r = product_probe(bloch)
            assert r[0] == pytest.approx(1.0)
            assert np.sum(r[1:] ** 2) == pytest.approx(2**n - 1, rel=1e-12)

    def test_expectation_matches_dense_state(self):
        rng = np.random.default_rng(2)
        n = 2
        bloch = rng.standard_normal((n, 3))
        bloch /= np.linalg.norm(bloch, axis=1, keepdims=True)
        r = product_probe(bloch)
        state = np.eye(1, dtype=complex)
        for k in range(n):
            bx, by, bz = bloch[k]
            single = 0.5 * (
                np.eye(2)
                + bx * pauli_matrix(X1)
                + by * pauli_matrix(Y1)
                + bz * pauli_matrix(Z1)
            )
            state = np.kron(state, single)
        for a in range(4**n):
            expectation = np.real(np.trace(state @ pauli_matrix(PauliIndex(a, n))))
            assert r[a] == pytest.approx(expectation, abs=1e-12)

    def test_norm_check(self):
        with pytest.raises(ValueError):
            product_probe(np.array([[1.0, 1.0, 1.0]]))


def test_num_paulis():
    assert num_paulis(3) == 64
    with pytest.raises(ValueError):
        num_paulis(0)
