"""Kernel tests: matrix exponential and its action, commutators, FFT, and
the numpy-only runtime."""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

import symdefect
from symdefect import linalg
from symdefect.errors import StepFailure
from symdefect.linalg import ExpmPlan, commutator, expm, fft, ifft
from symdefect.problems import RosenZener
from symdefect.schemes import CF4, EXPMID_AS_CFM, MAGNUS4

from oracles import (
    ConstantLinear,
    expm_action_eager,
    expm_skew_hermitian,
    naive_dft,
    random_skew_hermitian,
    random_state,
)

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

    def test_overflow_is_step_failure(self):
        # some 67 squarings amplify the roundoff of a unitary Taylor
        # approximant until it overflows; near the largest float they are 1024
        for m in (1e20 * RosenZener().A(0.3), np.full((3, 3), 5e307)):
            with pytest.raises(StepFailure):
                expm(m)

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            expm(np.zeros((2, 3)))

    @pytest.mark.parametrize("k", range(7))
    def test_scaling_boundaries(self, k):
        # just below, at and just above theta_18 2**k, where the squarings
        # step from k to k + 1 and the series' degree climbs back
        rng = np.random.default_rng(30 + k)
        for factor in (1.0 - 2.0**-52, 1.0, 1.0 + 2.0**-52):
            m = random_skew_hermitian(rng, 12)
            m *= 1.09 * 2.0**k * factor / np.linalg.norm(m, 1)
            exact = expm_skew_hermitian(m)
            assert np.linalg.norm(expm(m) - exact) <= 1e-13 * np.linalg.norm(exact)


class TestExpmAction:
    @pytest.mark.parametrize("tau", [1 / 256, 1 / 16, 0.25, 1.0, 4.0])
    def test_matches_eigendecomposition_on_rosen_zener(self, tau):
        prob = RosenZener()
        rng = np.random.default_rng(12)
        u = random_state(rng, prob.dim)
        for t in (0.0, 0.3, 1.7):
            m = tau * prob.A(t)
            exact = expm_skew_hermitian(m) @ u
            assert np.linalg.norm(ExpmPlan(m).apply(u) - exact) <= 1e-13 * np.linalg.norm(exact)

    def test_matches_expm_on_non_normal_matrix(self):
        rng = np.random.default_rng(13)
        m = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
        m /= np.linalg.norm(m, 1)
        v = random_state(rng, 20)
        exact = taylor_expm(m, terms=30) @ v  # 30 terms are exact to roundoff at norm 1
        assert np.linalg.norm(ExpmPlan(m).apply(v) - exact) <= 1e-13 * np.linalg.norm(exact)

    def test_block_matches_columns(self):
        rng = np.random.default_rng(14)
        m = random_skew_hermitian(rng, 16, scale=0.5)
        block = rng.normal(size=(16, 3)) + 1j * rng.normal(size=(16, 3))
        out = ExpmPlan(m).apply(block)
        assert out.shape == (16, 3)
        for col in range(3):
            single = ExpmPlan(m).apply(block[:, col])
            assert np.linalg.norm(out[:, col] - single) <= 1e-14 * np.linalg.norm(single)

    def test_zero_matrix_returns_copy(self):
        v = np.arange(4, dtype=np.complex128)
        out = ExpmPlan(np.zeros((4, 4))).apply(v)
        assert np.array_equal(out, v) and out is not v
        out[0] = 7.0
        assert v[0] == 0.0

    def test_invalid_input_raises(self):
        for bad in (np.nan, np.inf):
            m = np.eye(3, dtype=np.complex128)
            m[1, 2] = bad
            with pytest.raises(ValueError):
                ExpmPlan(m)
        with pytest.raises(ValueError):
            ExpmPlan(np.zeros((3, 4)))

    def test_huge_norm_returns_quickly(self):
        # d*s Taylor products would never finish at this norm; the cost
        # bound hands over to scaling and squaring instead
        rng = np.random.default_rng(15)
        m = random_skew_hermitian(rng, 30)
        m *= 1e12 / np.linalg.norm(m, 1)
        v = random_state(rng, 30)
        start = time.perf_counter()
        out = ExpmPlan(m).apply(v)
        assert time.perf_counter() - start < 1.0
        exact = expm(m) @ v
        assert np.linalg.norm(out - exact) <= 1e-12 * np.linalg.norm(exact)

    def test_huge_norm_identity_block_returns_quickly(self):
        # the fallback forms expm(m), whose own identity-block apply sums the
        # series of m / 2**q and so never falls back again
        rng = np.random.default_rng(24)
        m = random_skew_hermitian(rng, 30)
        m *= 1e6 / np.linalg.norm(m, 1)
        start = time.perf_counter()
        out = ExpmPlan(m).apply(np.eye(30))
        assert time.perf_counter() - start < 1.0
        assert np.linalg.norm(out.conj().T @ out - np.eye(30)) <= 1e-8


class TestExpmPlan:
    def test_norm_is_the_1_norm_bitwise(self):
        # the plan's own column sums of |m|, and the norm a family's stages pass
        # in from its support (here m's nonzero entries), give the bits of
        # np.linalg.norm(m, 1); a non-finite norm passed in is rejected
        rng = np.random.default_rng(16)
        for n in (1, 7, 40):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            m[rng.random((n, n)) < 0.7] = 0.0
            expected = np.linalg.norm(m, 1)
            assert ExpmPlan(m).norm == expected
            (_, plan, _), = ConstantLinear(m).stages(EXPMID_AS_CFM, 0.0, 1.0)  # B_1 = 1.0 m
            assert plan.norm == expected
            assert np.array_equal(plan.matrix, m)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                ExpmPlan(m, bad)

    def test_one_plan_applies_to_several_vectors(self):
        # each apply is bitwise the one-shot action, and the plan leaves its
        # matrix and the vectors untouched
        rng = np.random.default_rng(17)
        m = random_skew_hermitian(rng, 16, scale=0.5)
        kept = m.copy()
        plan = ExpmPlan(m)
        for _ in range(3):
            v = random_state(rng, 16)
            w = v.copy()
            assert np.array_equal(plan.apply(v), ExpmPlan(m).apply(v))
            assert np.array_equal(v, w)
        assert np.array_equal(m, kept)

    def test_dense_fallback_formed_once(self, monkeypatch):
        # at a huge norm the plan forms expm(m) for its first vector only
        rng = np.random.default_rng(18)
        m = random_skew_hermitian(rng, 10)
        m *= 1e12 / np.linalg.norm(m, 1)
        calls = []
        monkeypatch.setattr(linalg, "expm", lambda a: calls.append(a) or expm(a))
        plan = ExpmPlan(m)
        for _ in range(2):
            v = random_state(rng, 10)
            assert np.array_equal(plan.apply(v), expm(m) @ v)
        assert len(calls) == 1

    def test_non_finite_vector_fails_the_step(self):
        # the stage loop's one finiteness check: a non-finite vector is a
        # StepFailure from apply
        plan = ExpmPlan(0.1 * np.eye(3))
        v = np.array([1.0, np.nan, 0.0], dtype=np.complex128)
        with pytest.raises(StepFailure):
            plan.apply(v)
        with pytest.raises(ValueError):
            ExpmPlan(np.full((2, 2), np.inf))

    def test_real_and_list_vectors_are_converted(self):
        # a float64 vector or a list acts as its complex128 copy would
        plan = ExpmPlan(random_skew_hermitian(np.random.default_rng(19), 4))
        v = np.arange(4.0)
        expected = plan.apply(v.astype(np.complex128))
        assert np.array_equal(plan.apply(v), expected)
        assert np.array_equal(plan.apply(list(v)), expected)

    def test_wrong_shape_is_value_error(self):
        plan = ExpmPlan(0.1 * np.eye(4))
        for bad in (np.ones(3), np.ones((5, 2)), np.ones(()), np.ones((4, 1, 1)), [1.0, 2.0]):
            with pytest.raises(ValueError, match="expected a vector or block of 4 rows"):
                plan.apply(bad)


class TestTaylorSeries:
    """apply sums all d terms of each of its s scaling steps, with no stopping
    test. On every case here that is bitwise the series stopped by the eager
    test in ``oracles.expm_action_eager``: the terms a stop leaves out no longer
    move a bit of the partial sum, so no table moves either."""

    @staticmethod
    def check_plan(plan, v):
        v = np.asarray(v, dtype=np.complex128)
        with pytest.MonkeyPatch.context() as patch:  # the Taylor path: no dense fallback
            patch.setattr(linalg, "expm", lambda a: pytest.fail("apply formed expm(m)"))
            out = plan.apply(v)
        assert out.tobytes() == expm_action_eager(plan, v).tobytes()
        return out

    @classmethod
    def check(cls, m, v):
        return cls.check_plan(ExpmPlan(m), v)

    @pytest.mark.parametrize("scale", [1e-3, 0.1, 1.0, 5.0])
    def test_random_dense_matrices(self, scale):
        rng = np.random.default_rng(20)
        for n in (7, 30):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            self.check(m * scale / np.linalg.norm(m, 1), random_state(rng, n))

    @pytest.mark.parametrize("norm", [10.0, 25.0, 50.0])
    def test_skew_hermitian_with_many_scaling_steps(self, norm):
        # the partial sums cancel heavily; the full series stays accurate
        rng = np.random.default_rng(21)
        m = random_skew_hermitian(rng, 40)
        m *= norm / np.linalg.norm(m, 1)
        plan = ExpmPlan(m)
        assert plan.steps > 1
        exact = expm_skew_hermitian(m)
        for _ in range(3):
            v = random_state(rng, 40)
            out = self.check(m, v)
            assert np.linalg.norm(out - exact @ v) <= 1e-13 * np.linalg.norm(exact @ v)

    def test_blocks(self):
        rng = np.random.default_rng(22)
        m = random_skew_hermitian(rng, 30)
        for k, norm in ((1, 2.0), (2, 2.0), (3, 0.5)):
            block = rng.normal(size=(30, k)) + 1j * rng.normal(size=(30, k))
            self.check(m * norm / np.linalg.norm(m, 1), block)

    def test_zeros_and_tiny_entries(self):
        rng = np.random.default_rng(23)
        m = random_skew_hermitian(rng, 12)
        m *= 2.0 / np.linalg.norm(m, 1)
        v = random_state(rng, 12)
        v[::3] = 0.0
        v[1::3] *= 1e-300
        for w in (v, np.zeros(12), 1e-310 * v, np.full(12, 5e-324), 1e300 * v):
            self.check(m, w)

    @pytest.mark.parametrize("degree", [3, 7, 12, 18, 25])
    def test_few_entries_just_under_theta(self, degree):
        # theta_d (1 - 2^-30) times a 4-cycle of unit-modulus entries, whose
        # powers keep the norm's powers: one scaling step of d terms, the last
        # of which still moves bits of the sum (in the cases above it moves
        # none), so a series cut one term short fails here
        rng = np.random.default_rng(26)
        m = np.roll(np.diag(np.exp(2j * np.pi * rng.random(4))), 1, axis=1)
        plan = ExpmPlan(m * linalg._TAYLOR_THETA[degree - 1] * (1.0 - 2.0**-30))
        assert (plan.degree, plan.steps) == (degree, 1.0)
        for _ in range(3):
            self.check_plan(plan, random_state(rng, 4))

    @pytest.mark.parametrize(
        "scheme, applies",
        [(CF4, 80), (MAGNUS4, 40), (EXPMID_AS_CFM, 40)],
        ids=["cf4", "magnus4", "expmid"],
    )
    def test_rosen_zener_stages(self, scheme, applies):
        # every stage plan of a step on a grid of (t0, tau), applied to the
        # initial state and to a random state: 160 applies over the schemes
        prob = RosenZener()
        u0 = prob.initial_state()
        states = (u0, random_state(np.random.default_rng(25), u0.size))
        done = 0
        for tau in (1 / 64, 1 / 16, 1 / 4, 1 / 2, 1.0):
            for t0 in (0.0, 0.3, 0.7, -2.0):
                for _, plan, _ in prob.stages(scheme, t0, tau):
                    for v in states:
                        self.check_plan(plan, v)
                        done += 1
        assert done == applies


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
        with pytest.raises(ValueError, match="length must be a power of two, got 6$"):
            fft(np.ones(6))
        with pytest.raises(ValueError, match="length must be a power of two, got 12$"):
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
            for shape, n in (((2, 6), 6), ((3, 12), 12), ((2, 0), 0)):
                with pytest.raises(ValueError, match=f"length must be a power of two, got {n}$"):
                    transform(np.ones(shape))
            with pytest.raises(ValueError, match=r"stack of rows, got shape \(2, 2, 4\)"):
                transform(np.ones((2, 2, 4)))
            with pytest.raises(ValueError, match=r"stack of rows, got shape \(\)"):
                transform(np.complex128(1.0))

    @pytest.mark.parametrize("n", [2**k for k in range(11)])
    def test_bitwise_numpy_fft(self, n):
        # fft/ifft call the pocketfft gufuncs behind np.fft.fft/ifft directly: a numpy
        # release that changes those private kernels fails here, not in the digests
        rng = np.random.default_rng(300 + n)
        for rows in ((), (2,), (3,)):
            v = rng.normal(size=(*rows, 2 * n)) + 1j * rng.normal(size=(*rows, 2 * n))
            cases = {
                "contiguous": np.ascontiguousarray(v[..., :n]),
                "strided": v[..., ::2],
                "reversed": v[..., ::-1][..., :n],
                "fortran": np.asfortranarray(v[..., :n]),
                "real": np.ascontiguousarray(v[..., :n].real),
            }
            for label, case in cases.items():
                for ours, numpys in ((fft, np.fft.fft), (ifft, np.fft.ifft)):
                    got, expected = ours(case), numpys(case)
                    assert got.dtype == expected.dtype and got.shape == expected.shape, label
                    assert got.tobytes() == expected.tobytes(), (label, rows, ours.__name__)


def test_runtime_needs_numpy_only():
    # the package imports no scipy, so expm_multiply and friends stay out
    src = os.path.dirname(os.path.dirname(symdefect.__file__))
    code = (
        "import sys, symdefect, symdefect.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"
