"""Kernel tests: matrix exponential, commutators, Kronecker products, FFT."""

import numpy as np
import pytest

from symdefect.linalg import ad_power, commutator, expm, expm_apply, fft, ifft, kron

from oracles import naive_dft, random_skew_hermitian

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA2 = np.array([[0.0, -1j], [1j, 0.0]], dtype=np.complex128)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def taylor_expm(m, terms=30):
    out = np.eye(m.shape[0], dtype=np.complex128)
    power = np.eye(m.shape[0], dtype=np.complex128)
    for k in range(1, terms + 1):
        power = power @ m / k
        out = out + power
    return out


class TestExpm:
    def test_zero_matrix(self):
        assert np.linalg.norm(expm(np.zeros((3, 3))) - np.eye(3)) < 1e-15

    def test_pauli_rotation(self):
        # sigma1^2 = I collapses the series to cos/sin
        theta = 0.7
        closed = np.cos(theta) * np.eye(2) + 1j * np.sin(theta) * SIGMA1
        result = expm(1j * theta * SIGMA1)
        assert np.linalg.norm(result - closed) < 1e-14
        assert np.linalg.norm(result - taylor_expm(1j * theta * SIGMA1)) < 1e-14

    def test_diagonal(self):
        result = expm(np.diag([1.0, 2.0]))
        assert np.allclose(result, np.diag([np.e, np.e**2]), rtol=1e-13, atol=0)

    def test_accuracy_at_norm_ten(self):
        # eigendecomposition-built oracle, spectral radius up to 10
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        lam = rng.uniform(-10.0, 10.0, 8)
        m = q @ np.diag(1j * lam) @ q.conj().T
        exact = q @ np.diag(np.exp(1j * lam)) @ q.conj().T
        assert np.linalg.norm(expm(m) - exact) <= 1e-13 * np.linalg.norm(exact)

    def test_group_law_commuting(self):
        rng = np.random.default_rng(3)
        a = np.diag(rng.normal(size=4) + 1j * rng.normal(size=4))
        b = np.diag(rng.normal(size=4) + 1j * rng.normal(size=4))
        lhs = expm(a + b)
        rhs = expm(a) @ expm(b)
        assert np.linalg.norm(lhs - rhs) <= 1e-11

    def test_unitary_for_skew_hermitian(self):
        rng = np.random.default_rng(11)
        m = random_skew_hermitian(rng, 12, scale=2.0)
        e = expm(m)
        assert np.linalg.norm(e.conj().T @ e - np.eye(12)) <= 1e-11

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            expm(np.zeros((2, 3)))


class TestExpmApply:
    def test_zero(self):
        v = np.array([1.0, 2.0, 3.0], dtype=np.complex128)
        assert np.linalg.norm(expm_apply(np.zeros((3, 3)), v) - v) <= 1e-14

    def test_pauli_rotation(self):
        theta = 0.3
        result = expm_apply(1j * theta * SIGMA1, np.array([1.0, 0.0]))
        expected = np.array([np.cos(theta), 1j * np.sin(theta)])
        assert np.linalg.norm(result - expected) < 1e-14

    def test_diagonal(self):
        result = expm_apply(np.diag([np.log(2.0), np.log(3.0)]), np.ones(2))
        assert np.allclose(result, [2.0, 3.0], rtol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expm_apply(np.zeros((2, 2)), np.ones(3))


class TestCommutators:
    def test_self_commutes(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.linalg.norm(commutator(m, m)) == 0.0

    def test_identity_commutes(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(4, 4))
        assert np.linalg.norm(commutator(np.eye(4), m)) == 0.0

    def test_pauli_algebra(self):
        direct = SIGMA1 @ SIGMA2 - SIGMA2 @ SIGMA1
        assert np.array_equal(commutator(SIGMA1, SIGMA2), direct)
        assert np.linalg.norm(direct - 2j * SIGMA3) < 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            commutator(np.eye(2), np.eye(3))

    def test_ad_power_base_cases(self):
        rng = np.random.default_rng(2)
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.array_equal(ad_power(b, x, 0), x)
        assert np.array_equal(ad_power(b, x, 1), commutator(b, x))

    def test_ad_power_pauli(self):
        # nested Pauli commutators, verified by direct multiplication
        direct = commutator(SIGMA1, commutator(SIGMA1, SIGMA2))
        assert np.array_equal(ad_power(SIGMA1, SIGMA2, 2), direct)
        assert np.linalg.norm(direct - 4.0 * SIGMA2) < 1e-15

    def test_ad_power_linearity(self):
        rng = np.random.default_rng(5)
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        y = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        alpha, beta = 1.3 - 0.2j, -0.7 + 0.9j
        for m in range(4):
            combined = ad_power(b, alpha * x + beta * y, m)
            split = alpha * ad_power(b, x, m) + beta * ad_power(b, y, m)
            assert np.linalg.norm(combined - split) <= 1e-12 * np.linalg.norm(split)

    def test_negative_power_raises(self):
        with pytest.raises(ValueError):
            ad_power(SIGMA1, SIGMA2, -1)


class TestKron:
    def test_identity_left(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        result = kron(np.eye(2), b)
        assert np.array_equal(result[:2, :2], b.astype(complex))
        assert np.array_equal(result[2:, 2:], b.astype(complex))
        assert np.linalg.norm(result[:2, 2:]) == 0.0

    def test_antiblock(self):
        result = kron(SIGMA1, np.eye(2))
        expected = np.zeros((4, 4), dtype=np.complex128)
        expected[:2, 2:] = np.eye(2)
        expected[2:, :2] = np.eye(2)
        assert np.array_equal(result, expected)

    def test_diagonal(self):
        result = kron(np.diag([2.0, 3.0]), np.diag([5.0, 7.0]))
        assert np.allclose(result, np.diag([10.0, 14.0, 15.0, 21.0]))


class TestFFT:
    def test_constant_signal(self):
        assert np.allclose(fft(np.ones(4)), [4.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_delta(self):
        assert np.allclose(fft([1.0, 0.0, 0.0, 0.0]), np.ones(4), atol=1e-15)

    def test_matches_naive_dft(self):
        rng = np.random.default_rng(8)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        assert np.linalg.norm(fft(v) - naive_dft(v)) <= 1e-13 * np.linalg.norm(v)

    @pytest.mark.parametrize("n", [1, 2, 8, 64, 512])
    def test_roundtrip(self, n):
        rng = np.random.default_rng(n)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.linalg.norm(ifft(fft(v)) - v) <= 1e-12 * np.linalg.norm(v)

    @pytest.mark.parametrize("n", [4, 32, 256])
    def test_parseval(self, n):
        rng = np.random.default_rng(100 + n)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        lhs = np.linalg.norm(fft(v)) ** 2
        rhs = n * np.linalg.norm(v) ** 2
        assert abs(lhs - rhs) <= 1e-10 * rhs

    def test_non_power_of_two_raises(self):
        with pytest.raises(ValueError):
            fft(np.ones(6))
        with pytest.raises(ValueError):
            ifft(np.ones(12))

    @pytest.mark.parametrize("n", [1, 8, 512])
    def test_stack_rows_match_vector_transform(self, n):
        rng = np.random.default_rng(200 + n)
        stack = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        for transform in (fft, ifft):
            out = transform(stack)
            assert out.shape == (2, n)
            for row in range(2):
                assert np.array_equal(out[row], transform(stack[row]))

    def test_stack_guards(self):
        for transform in (fft, ifft):
            with pytest.raises(ValueError):
                transform(np.ones((2, 6)))
            with pytest.raises(ValueError):
                transform(np.ones((2, 2, 4)))
            with pytest.raises(ValueError):
                transform(np.complex128(1.0))
