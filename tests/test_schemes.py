"""Stepper tests: tableau invariants, closed forms, orders, reversibility."""

import itertools
import time
import warnings

import numpy as np
import pytest

from symdefect import schemes
from symdefect.control import make_method
from symdefect.defects import cfm_defect
from symdefect.errors import StepFailure
from symdefect.linalg import ExpmPlan, expm
from symdefect.problems import CubicNLS, RosenZener, ToySplit
from symdefect.schemes import (
    CF4,
    EMB43AKS,
    EXPMID_AS_CFM,
    MAGNUS4,
    STRANG,
    GAUSS2_NODES,
    solve_linearized,
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
    RandomFamily,
    ScalarQuadratic,
    ZeroField,
    ZeroGeneratorFamily,
    dense_combination,
    dense_norm_1,
    expmid_step,
    fit_slope,
    magnus4_generator,
    random_skew_hermitian,
    random_state,
    rk4,
    solve_linearized_loop,
    stage_coefficients_numpy,
    stage_matrices,
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
        j = len(scheme.weights)
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

    @pytest.mark.parametrize("size", [1e100, 1e200, 1e300])
    def test_huge_state_converges(self, size):
        # |u|^2 overflows above ~1.3e154; the Newton scale must not, or the
        # first residual test passes and the Euler predictor 2u comes back
        # (the suite turns a RuntimeWarning into an error)
        for quiet in (False, True):
            with np.errstate(all="ignore" if quiet else "warn"):
                w = step_implicit_midpoint(LinearScalar(1.0), 1.0, np.array([size + 0j]))
            assert w[0] == pytest.approx(3.0 * size, rel=1e-13)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_state_fails(self, bad):
        # u = inf would make the first residual inf - inf; the state check comes first
        with pytest.raises(StepFailure, match="state to step is not finite"):
            step_implicit_midpoint(LinearScalar(1.0), 0.1, np.array([bad + 0j]))

    @pytest.mark.parametrize("call", ["step", "step_with_defect"])
    @pytest.mark.parametrize(
        "problem, tau, scale",
        [(ToySplit(), 1e300, 1.0), (ToySplit(), 0.1, 1e200), (CubicNLS(n=16), 1e300, 1.0)],
        ids=["toy-split-huge-step", "toy-split-huge-state", "nls-huge-step"],
    )
    def test_overflow_fails_without_a_warning(self, call, problem, tau, scale):
        # the Newton iterate overflows to inf, then inf * 0 is NaN: numpy's overflow and
        # invalid warnings must stay silent, and the non-finite iterate fails the step
        u = scale * problem.initial_state()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepFailure, match="iterate or residual is not finite"):
                getattr(make_method("imr"), call)(problem, 0.0, tau, u)

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

    @pytest.mark.parametrize("problem", [CubicNLS(n=16), ToySplit()], ids=["nls", "toy-split"])
    def test_one_df_call_solves_as_the_probe_loop(self, problem):
        # the (2n, n) stack of unit directions gives bitwise the system of
        # 2n single-vector probes, from one df call per solve
        rng = np.random.default_rng(7)
        n = problem.initial_state().shape[0]
        base, rhs = random_state(rng, n), random_state(rng, n)
        shapes = []

        def counted_df(u, v):
            shapes.append(v.shape)
            return problem.df(u, v)

        x = solve_linearized(counted_df, base, 0.3, rhs)
        assert shapes == [(2 * n, n)]
        assert np.array_equal(x, solve_linearized_loop(problem.df, base, 0.3, rhs))

    def test_newton_failure_raises(self, monkeypatch):
        monkeypatch.setattr(schemes, "_NEWTON_MAX_ITER", 1)
        with pytest.raises(StepFailure, match="stalled after 1 steps"):
            step_implicit_midpoint(ScalarQuadratic(), 0.5, np.array([1.0 + 0j]))


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

    @pytest.mark.parametrize("name", ["strang", "emb43aks"])
    @pytest.mark.parametrize("problem", [CubicNLS(n=64), ToySplit()], ids=["nls-64", "toy-split"])
    def test_non_finite_state_fails(self, problem, name):
        # the plain step used to return an all-NaN state on the NLS grid and to
        # raise a bare RuntimeWarning on ToySplit; it fails as the defect does
        u = problem.initial_state().copy()
        u[0] = np.nan
        for bad in (u, np.full_like(u, np.inf)):
            with pytest.raises(StepFailure, match="state to step is not finite"):
                make_method(name).step(problem, 0.0, 0.1, bad)
            with pytest.raises(StepFailure):
                make_method(name).step_with_defect(problem, 0.0, 0.1, bad)


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

    @pytest.mark.parametrize("t0", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("evaluate", [step_cfm, cfm_defect], ids=["step_cfm", "cfm_defect"])
    def test_non_finite_start_is_a_value_error_before_sampling(self, evaluate, t0, monkeypatch):
        # unchecked, inf reaches math.cos as a bare "math domain error" and NaN
        # an ExpmPlan as "matrix has non-finite entries"
        prob = RosenZener(k=3)
        for name in ("coefficients", "dcoefficients"):
            monkeypatch.setattr(prob, name, lambda t, n=name: pytest.fail(f"{n}({t}) sampled"))
        with pytest.raises(ValueError, match="start t0"):
            evaluate(MAGNUS4, prob, t0, 0.125, prob.initial_state())

    @pytest.mark.parametrize("evaluate", [step_cfm, cfm_defect], ids=["step_cfm", "cfm_defect"])
    def test_overflowing_step_end_is_a_value_error(self, evaluate):
        prob = RosenZener(k=3)
        with pytest.raises(ValueError, match="start t0 and end"):
            evaluate(CF4, prob, 1e308, 1e308, prob.initial_state())

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
            np.linalg.norm(stage_matrices(MAGNUS4, prob, 0.0, tau)[0] - prob.A(0.0))
            for tau in (1e-2, 1e-3, 1e-4)
        ]
        # B(tau) - A(t0) = O(tau)
        assert fit_slope((1e-2, 1e-3, 1e-4), norms) >= 0.9

    @pytest.mark.parametrize("t0, tau", [(0.0, 0.1), (0.3, 0.25), (-1.2, 0.0625)])
    def test_magnus4_tableau_matches_closed_form(self, t0, tau):
        prob = RosenZener(k=4)
        # the tableau sums coefficients before the matrices, in another order
        # than the closed form, so only agreement to roundoff is guaranteed
        (generator,) = stage_matrices(MAGNUS4, prob, t0, tau)
        closed = magnus4_generator(prob, t0, tau)
        assert np.linalg.norm(generator - closed) <= 1e-15 * np.linalg.norm(closed)

    def test_huge_step_returns_quickly(self):
        # far out on the pulse the generator is tiny; at any norm the step's
        # cost stays bounded and it agrees with the formed exponential
        prob = RosenZener()
        u = prob.initial_state()
        with np.errstate(over="ignore"):  # cosh overflows to inf, sech to 0
            start = time.perf_counter()
            out = step_cfm(MAGNUS4, prob, 0.0, 1e6, u)
            assert time.perf_counter() - start < 1.0
            (generator,) = stage_matrices(MAGNUS4, prob, 0.0, 1e6)
        exact = expm(1e6 * generator) @ u
        assert np.linalg.norm(out - exact) <= 1e-12 * np.linalg.norm(exact)

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "scheme", [EXPMID_AS_CFM, CF4, MAGNUS4], ids=["expmid", "cf4", "magnus4"]
    )
    def test_non_finite_step_raises(self, scheme, tau):
        prob = RosenZener(k=3)
        u = prob.initial_state()
        calls = [lambda: step_cfm(scheme, prob, 0.1, tau, u)] + [
            lambda v=variant: cfm_defect(scheme, prob, 0.1, tau, u, variant=v)
            for variant in ("taylor", "hermite")
        ]
        for call in calls:
            with pytest.raises(ValueError):
                call()

    @pytest.mark.parametrize(
        "scheme", [EXPMID_AS_CFM, CF4, MAGNUS4], ids=["expmid", "cf4", "magnus4"]
    )
    def test_non_finite_stage_vector_fails_the_step(self, scheme):
        # a non-finite state, or a defect overflowing at a huge step, fails
        # the step before a stage exponential would reject it as bad input
        prob = RosenZener(k=3)
        u = prob.initial_state()
        with pytest.raises(StepFailure):
            step_cfm(scheme, prob, 0.1, 0.2, np.full_like(u, np.nan))
        for variant in ("taylor", "hermite"):
            with pytest.raises(StepFailure):
                cfm_defect(scheme, prob, 0.1, 0.2, np.full_like(u, np.nan), variant=variant)
        if scheme is MAGNUS4:
            with pytest.raises(StepFailure):
                cfm_defect(scheme, prob, 0.0, 1e300, u)
        # a huge step gives finite values or fails, and prints no warning
        # (RuntimeWarning is an error in this suite)
        full = RosenZener()
        start = full.initial_state()
        for variant in ("taylor", "hermite"):
            for tau in (1e100, 1e200, 1e300):
                try:
                    u_next, d = cfm_defect(scheme, full, 0.0, tau, start, variant=variant)
                except StepFailure:
                    continue
                assert np.isfinite(u_next).all() and np.isfinite(d).all()

    def test_gauss_nodes(self):
        c1, c2 = GAUSS2_NODES
        assert c1 < c2 and abs(c1 + c2 - 1.0) <= 1e-15


def _record_stages(prob):
    """Wrap ``prob.stage`` to record the coefficient vectors (b, c) each stage
    hands it; returns the list the calls append to."""
    calls, stage = [], prob.stage

    def recorded(b, tau, c=None):
        calls.append((b, c))
        return stage(b, tau, c)

    prob.stage = recorded
    return calls


class TestStagePlansBitwise:
    """Every stage matrix of an exponential step, written on the basis's
    support, against the dense products of tests/oracles.py, bit for bit."""

    @pytest.mark.parametrize("scheme", [EXPMID_AS_CFM, CF4, MAGNUS4], ids=["expmid", "cf4", "magnus4"])
    def test_stages_match_the_dense_products(self, scheme):
        # Rosen-Zener, a family whose support is every entry and one with a
        # zero generator; a negative tau, and a zero coefficient (expmid's
        # midpoint at t = 0, where f2 = 0). tau B_j equals the dense product
        # as numbers (see TestLinearFamily) and its plan applies bit for bit
        rng = np.random.default_rng(43)
        grid = [(0.0, 1 / 16), (0.3, 0.25), (-2.0, 1.0), (0.7, -0.25), (-0.125, 0.25)]
        for prob in (RosenZener(), RandomFamily(rng, 6), ZeroGeneratorFamily(rng, 5)):
            v, calls = random_state(rng, prob.dim), _record_stages(prob)
            for t0, tau in grid:
                for bj, plan, bcheck in schemes._stage_plans(scheme, prob, t0, tau, True):
                    (b, c), = calls  # this stage's one call
                    calls.clear()
                    expected = dense_combination(prob, b)
                    assert bj.tobytes() == expected.tobytes()
                    scaled = np.multiply(expected, tau)
                    assert np.array_equal(plan.matrix, scaled)
                    assert np.float64(plan.norm).tobytes() == np.float64(dense_norm_1(scaled)).tobytes()
                    assert plan.apply(v).tobytes() == ExpmPlan(scaled).apply(v).tobytes()
                    assert (bcheck is None) == (c is None)
                    if c is not None:
                        assert bcheck.tobytes() == dense_combination(prob, c).tobytes()


class TestStageCoefficientsBitwise:
    """The stage coefficients, summed on Python floats and handed to
    ``problem.stage``, against the numpy sums of tests/oracles.py, bit for bit."""

    @pytest.mark.parametrize("scheme", [EXPMID_AS_CFM, CF4, MAGNUS4], ids=["expmid", "cf4", "magnus4"])
    def test_coefficients_match_the_numpy_sums(self, scheme):
        # Rosen-Zener and a family of three generators, whose three brackets
        # pin the pair order; zero and negative steps, with and without derivatives
        rng = np.random.default_rng(44)
        grid = [(0.0, 0.0), (0.0, 1 / 16), (0.3, 0.25), (-2.0, 1.0), (0.7, -0.25), (5.0, 3.3),
                (-0.125, -1e-9)]
        for prob in (RosenZener(), RandomFamily(rng, 4)):
            got = _record_stages(prob)
            for (t0, tau), derivatives in itertools.product(grid, (False, True)):
                got.clear()
                list(schemes._stage_plans(scheme, prob, t0, tau, derivatives))
                expected = stage_coefficients_numpy(scheme, prob, t0, tau, derivatives)
                for (b, c), (b_np, c_np) in zip(got, expected, strict=True):
                    assert b.dtype == b_np.dtype and b.tobytes() == b_np.tobytes()
                    assert (c is None) == (c_np is None)
                    if c is not None:
                        assert c.dtype == c_np.dtype and c.tobytes() == c_np.tobytes()


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
