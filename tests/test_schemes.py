"""Stepper tests: tableau invariants, closed forms, orders, reversibility."""

import numpy as np
import pytest

from symdefect.errors import StepFailure
from symdefect.problems import CubicNLS, RosenZener
from symdefect.schemes import (
    CF4,
    EMB43AKS,
    EXPMID_AS_CFM,
    STRANG,
    GAUSS2_NODES,
    magnus4_generator,
    step_cfm,
    step_exp_midpoint,
    step_implicit_midpoint,
    step_magnus4,
    step_splitting,
)

from oracles import (
    BFreeSemilinear,
    ConstantLinear,
    LinearScalar,
    ScalarQuadratic,
    ZeroField,
    expmid_step,
    fit_slope,
    random_skew_hermitian,
    random_state,
    rk4,
)


class TestTableaus:
    @pytest.mark.parametrize("scheme", [STRANG, EMB43AKS])
    def test_splitting_consistency(self, scheme):
        assert abs(sum(scheme.a) - 1.0) <= 1e-15
        assert abs(sum(scheme.b) - 1.0) <= 1e-15
        assert scheme.b[-1] == 0.0

    @pytest.mark.parametrize("scheme", [STRANG, EMB43AKS])
    def test_splitting_palindromic(self, scheme):
        assert scheme.a == scheme.a[::-1]
        assert scheme.b[:-1] == scheme.b[-2::-1]

    @pytest.mark.parametrize("scheme", [CF4, EXPMID_AS_CFM])
    def test_cfm_symmetry(self, scheme):
        k = len(scheme.nodes)
        j = scheme.stages
        for idx, c in enumerate(scheme.nodes):
            assert abs((c - 0.5) - (0.5 - scheme.nodes[k - 1 - idx])) <= 1e-15
        for row in range(j):
            for col in range(k):
                assert (
                    abs(scheme.weights[row][col] - scheme.weights[j - 1 - row][k - 1 - col])
                    <= 1e-15
                )

    def test_cf4_consistency(self):
        assert abs(sum(sum(row) for row in CF4.weights) - 1.0) <= 1e-15


class TestImplicitMidpoint:
    def test_zero_field_is_identity(self):
        u = np.array([1.0 + 2.0j, -0.5j])
        assert np.array_equal(step_implicit_midpoint(ZeroField(), 0.3, u), u)

    def test_zero_step(self):
        u = np.array([0.4 + 0j])
        out = step_implicit_midpoint(ScalarQuadratic(), 0.0, u)
        assert np.array_equal(out, u) and out is not u

    def test_linear_closed_form(self):
        # scalar u' = lam u: w = u (1 + tau lam / 2) / (1 - tau lam / 2)
        lam, tau = -1.0, 0.1
        w = step_implicit_midpoint(LinearScalar(lam), tau, np.array([1.0 + 0j]))[0]
        assert abs(w - 0.95 / 1.05) < 1e-13

    def test_against_bisection(self):
        prob = ScalarQuadratic()
        tau, u = 0.2, 1.0

        def residual(w):
            return w - u - tau * (-(0.5 * (u + w)) ** 2)

        lo, hi = 0.5, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if residual(lo) * residual(mid) <= 0:
                hi = mid
            else:
                lo = mid
        w = step_implicit_midpoint(prob, tau, np.array([u + 0j]))[0]
        assert abs(w - 0.5 * (lo + hi)) < 1e-12

    def test_local_order_three(self):
        prob = ScalarQuadratic()
        taus = [0.1 / 2**i for i in range(5)]
        errors = []
        for tau in taus:
            w = step_implicit_midpoint(prob, tau, np.array([1.0 + 0j]))
            exact = rk4(prob.f, np.array([1.0 + 0j]), tau, 2000)
            errors.append(abs(w[0] - exact[0]))
        assert abs(fit_slope(taus, errors) - 3.0) <= 0.1

    def test_newton_failure_raises(self):
        with pytest.raises(StepFailure):
            step_implicit_midpoint(
                ScalarQuadratic(), 0.5, np.array([1.0 + 0j]), max_iter=1
            )


class TestSplitting:
    def test_pure_a_reduces_to_flow(self):
        host = CubicNLS(n=64)
        prob = BFreeSemilinear(host)
        rng = np.random.default_rng(0)
        u = random_state(rng, 64)
        out = step_splitting(STRANG, prob, 0.25, u)
        expected = host.flow_A(0.25, u)
        assert np.linalg.norm(out - expected) <= 1e-13 * np.linalg.norm(u)

    def test_zero_step(self):
        prob = CubicNLS(n=64)
        rng = np.random.default_rng(1)
        u = random_state(rng, 64)
        assert np.array_equal(step_splitting(EMB43AKS, prob, 0.0, u), u)


class TestExponentialSteppers:
    def test_expmid_constant_generator_is_exact(self):
        rng = np.random.default_rng(2)
        a0 = random_skew_hermitian(rng, 6)
        prob = ConstantLinear(a0)
        u = random_state(rng, 6)
        lam, q = np.linalg.eigh(1j * a0)  # a0 = -i q diag(lam) q^H
        exact = q @ (np.exp(-1j * lam * 0.8) * (q.conj().T @ u))
        assert np.linalg.norm(step_exp_midpoint(prob, 0.0, 0.8, u) - exact) <= 1e-12

    def test_zero_step(self):
        prob = RosenZener(k=3)
        u = prob.initial_state()
        for stepper in (
            lambda: step_exp_midpoint(prob, 0.1, 0.0, u),
            lambda: step_cfm(CF4, prob, 0.1, 0.0, u),
            lambda: step_magnus4(prob, 0.1, 0.0, u),
        ):
            assert np.array_equal(stepper(), u)

    def test_cfm_single_stage_is_exp_midpoint(self):
        prob = RosenZener(k=4)
        u = prob.initial_state()
        lhs = step_cfm(EXPMID_AS_CFM, prob, 0.2, 0.15, u)
        rhs = expmid_step(prob, 0.2, 0.15, u)
        assert np.linalg.norm(lhs - rhs) <= 1e-14 * np.linalg.norm(u)

    def test_cfm_constant_generator_consistency(self):
        rng = np.random.default_rng(3)
        a0 = random_skew_hermitian(rng, 5)
        prob = ConstantLinear(a0)
        u = random_state(rng, 5)
        lhs = step_cfm(CF4, prob, 0.0, 0.6, u)
        rhs = step_exp_midpoint(prob, 0.0, 0.6, u)
        assert np.linalg.norm(lhs - rhs) <= 1e-12

    def test_magnus4_constant_generator_is_exact(self):
        rng = np.random.default_rng(4)
        a0 = random_skew_hermitian(rng, 5)
        prob = ConstantLinear(a0)
        u = random_state(rng, 5)
        lhs = step_magnus4(prob, 0.0, 0.7, u)
        rhs = step_exp_midpoint(prob, 0.0, 0.7, u)
        assert np.linalg.norm(lhs - rhs) <= 1e-13

    def test_magnus4_generator_small_step_limit(self):
        prob = RosenZener(k=4)
        norms = [
            np.linalg.norm(magnus4_generator(prob, 0.0, tau) - prob.A(0.0))
            for tau in (1e-2, 1e-3, 1e-4)
        ]
        # B(tau) - A(t0) = O(tau)
        assert fit_slope((1e-2, 1e-3, 1e-4), norms) >= 0.9

    def test_gauss_nodes(self):
        c1, c2 = GAUSS2_NODES
        assert c1 < c2 and abs(c1 + c2 - 1.0) <= 1e-15


class TestReversibility:
    def test_imr_roundtrip(self):
        prob = ScalarQuadratic()
        rng = np.random.default_rng(5)
        for _ in range(5):
            u = random_state(rng, 3, scale=0.7)
            for tau in (1e-3, 1e-2, 0.1):
                mid = step_implicit_midpoint(prob, tau, u)
                back = step_implicit_midpoint(prob, -tau, mid)
                assert np.linalg.norm(back - u) <= 1e-10 * np.linalg.norm(u)

    @pytest.mark.parametrize("scheme", [STRANG, EMB43AKS])
    def test_splitting_roundtrip(self, scheme):
        prob = CubicNLS(n=64)
        rng = np.random.default_rng(6)
        for _ in range(5):
            u = random_state(rng, 64)
            for tau in (1e-3, 1e-2, 0.1):
                mid = step_splitting(scheme, prob, tau, u)
                back = step_splitting(scheme, prob, -tau, mid)
                assert np.linalg.norm(back - u) <= 1e-10 * np.linalg.norm(u)

    def test_nonautonomous_roundtrip(self):
        prob = RosenZener(k=5)
        rng = np.random.default_rng(7)
        steppers = {
            "expmid": step_exp_midpoint,
            "cf4": lambda p, t0, tau, u: step_cfm(CF4, p, t0, tau, u),
            "magnus4": step_magnus4,
        }
        for stepper in steppers.values():
            for _ in range(3):
                u = random_state(rng, prob.dim)
                t0 = rng.uniform(0.0, 0.8)
                for tau in (1e-3, 1e-2, 0.1):
                    mid = stepper(prob, t0, tau, u)
                    back = stepper(prob, t0 + tau, -tau, mid)
                    assert np.linalg.norm(back - u) <= 1e-10 * np.linalg.norm(u)

    def test_unitarity(self):
        prob = RosenZener(k=5)
        rng = np.random.default_rng(8)
        u = random_state(rng, prob.dim)
        for out in (
            step_exp_midpoint(prob, 0.1, 0.2, u),
            step_cfm(CF4, prob, 0.1, 0.2, u),
            step_magnus4(prob, 0.1, 0.2, u),
        ):
            assert abs(np.linalg.norm(out) - np.linalg.norm(u)) <= 1e-10
        nls = CubicNLS(n=64)
        v = random_state(rng, 64)
        out = step_splitting(EMB43AKS, nls, 0.05, v)
        assert abs(np.linalg.norm(out) - np.linalg.norm(v)) <= 1e-10
