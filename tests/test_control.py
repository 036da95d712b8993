"""Control layer: estimator assembly, references, oracle, adaptivity."""

import math
import time
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symdefect import control
from symdefect.control import (
    METHOD_NAMES,
    AdaptiveConfig,
    Method,
    StepOutput,
    adaptive_integrate,
    estimate_and_correct,
    estimator_scale,
    local_error_integral_oracle,
    make_method,
    method_needs,
    propose_step,
    reference_solve,
    state_norm,
)
from symdefect.errors import ConvergenceFailure, StepFailure
from symdefect.problems import CubicNLS, RosenZener, ToySplit

from oracles import (
    ConstantLinear,
    GrowingFamily,
    RandomFamily,
    ScalarQuadratic,
    ZeroField,
    fit_slope,
    integral_oracle_loop,
    random_skew_hermitian,
    rk4,
)


class TestEstimateAndCorrect:
    def test_zero_defect(self):
        u = np.array([1.0 + 2.0j])
        out = estimate_and_correct(StepOutput(0.1, u, np.zeros(1, complex)), 2)
        assert np.array_equal(out.estimator, np.zeros(1))
        assert np.array_equal(out.u_corrected, u)

    def test_exact_linkage(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=8) + 1j * rng.normal(size=8)
        d = rng.normal(size=8) + 1j * rng.normal(size=8)
        tau, order = 0.037, 4
        out = estimate_and_correct(StepOutput(tau, u, d), order)
        assert np.array_equal(out.estimator, (tau / (order + 1)) * d)
        assert np.array_equal(out.u_corrected, u - out.estimator)
        assert np.array_equal(out.u_next, u)
        assert out.tau == tau

    def test_missing_defect_raises(self):
        with pytest.raises(ValueError):
            estimate_and_correct(StepOutput(0.1, np.ones(1, complex)), 2)


# every (scheme, defect, variant) the CLI allows, with one problem per family
# picked by the interface it needs (both shipped splitting problems)
_CLI_METHODS = [
    (name, defect, variant)
    for name in METHOD_NAMES
    for defect in ("classical", "symmetrized")
    for variant in ("taylor", "hermite")
    if defect == "symmetrized" or name in ("imr", "strang")
]
_FAMILY_PROBLEMS = {
    "f": [ToySplit()],
    "flow_B": [CubicNLS(n=64), ToySplit()],
    "coefficients": [RosenZener(k=5)],
}


class TestMakeMethod:
    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_method("leapfrog")

    @pytest.mark.parametrize("name", ["emb43aks", "expmid", "cf4", "magnus4"])
    def test_classical_unsupported(self, name):
        with pytest.raises(ValueError):
            make_method(name, defect="classical")

    def test_orders(self):
        for name, order in [
            ("imr", 2),
            ("strang", 2),
            ("emb43aks", 4),
            ("expmid", 2),
            ("cf4", 4),
            ("magnus4", 4),
        ]:
            assert make_method(name).order == order

    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_bad_defect_or_variant_fails_at_build(self, name):
        with pytest.raises(ValueError):
            make_method(name, defect="bogus")
        with pytest.raises(ValueError):
            make_method(name, variant="x")

    @pytest.mark.parametrize("name,defect,variant", _CLI_METHODS)
    def test_step_with_defect_keeps_the_plain_step(self, name, defect, variant):
        # one problem per family, picked by the interface the family needs
        problem = {
            "f": ToySplit(),
            "flow_B": CubicNLS(n=64),
            "coefficients": RosenZener(k=5),
        }[method_needs(name)]
        method = make_method(name, defect=defect, variant=variant)
        u0 = problem.initial_state()
        for tau in (0.05, 0.0):  # at 0.0 the splitting defect ran an FFT round trip
            u_next, _ = method.step_with_defect(problem, 0.1, tau, u0)
            assert u_next.tobytes() == method.step(problem, 0.1, tau, u0).tobytes()


class TestMultiStepRun:
    """``step(..., steps=N)`` against N single steps, the k-th from t0 + k tau:
    the exponential and implicit midpoint steppers repeat their step, bit for
    bit; a splitting joins each step's last A-flow with the next step's first,
    which moves the state by roundoff only."""

    @pytest.mark.parametrize("name, defect, variant", _CLI_METHODS)
    def test_against_single_steps(self, name, defect, variant):
        method = make_method(name, defect=defect, variant=variant)
        t0, tau, steps = 0.1, 0.05, 8
        for problem in _FAMILY_PROBLEMS[method_needs(name)]:
            u0 = problem.initial_state()
            assert np.array_equal(method.step(problem, t0, tau, u0, 1), method.step(problem, t0, tau, u0))
            singles = u0
            for k in range(steps):
                singles = method.step(problem, t0 + k * tau, tau, singles)
            run = method.step(problem, t0, tau, u0, steps)
            if name in ("strang", "emb43aks"):
                assert np.linalg.norm(run - singles) <= 1e-13 * np.linalg.norm(singles)
            else:
                assert np.array_equal(run, singles)

    def test_global_study_runs_the_plain_half_as_one_call(self, monkeypatch):
        # the strang study on CubicNLS(n=64): one plain call per level, with all its steps
        from symdefect import cli

        calls, step = [], control.step_splitting
        monkeypatch.setattr(control, "step_splitting",
                            lambda *args: calls.append(args[-1]) or step(*args))
        problem = CubicNLS(n=64)
        cli.run_global_study(problem, make_method("strang"), [0.0625, 0.03125], 0.125)
        assert calls == [2, 4]


class TestNonFiniteStepSize:
    """A step size that is not finite is a ValueError on every family, through the
    step, a multi-step run and the step with its defect, before any arithmetic
    (the suite turns numpy's RuntimeWarnings into errors)."""

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name, defect, variant", _CLI_METHODS)
    def test_is_a_value_error(self, name, defect, variant, tau):
        method = make_method(name, defect=defect, variant=variant)
        for problem in _FAMILY_PROBLEMS[method_needs(name)]:
            u0 = problem.initial_state()
            calls = [
                lambda p: method.step(p, 0.1, tau, u0),
                lambda p: method.step(p, 0.1, tau, u0, 3),
                lambda p: method.step_with_defect(p, 0.1, tau, u0),
            ]
            for call in calls:
                with pytest.raises(ValueError, match="step size must be finite"):
                    call(problem)
                if method_needs(name) != "coefficients":  # the problem is never touched
                    with pytest.raises(ValueError, match="step size must be finite"):
                        call(object())

    @pytest.mark.parametrize("name, defect, variant", _CLI_METHODS)
    def test_an_overflowing_run_end_is_a_value_error(self, name, defect, variant):
        # a finite tau whose end t0 + steps*tau overflows used to run on to a StepFailure
        # (imr), a NaN state (splitting) or a ValueError after the first step (exponential)
        method = make_method(name, defect=defect, variant=variant)
        for problem in _FAMILY_PROBLEMS[method_needs(name)]:
            with pytest.raises(ValueError, match="step size must be finite"):
                method.step(problem, 0.1, 1e308, problem.initial_state(), 3)


# every pairing make_method allows, (name, defect, variant, problem), on small problems;
# GrowingFamily is not skew, so its steps overflow where the others stay bounded
_CONTRACT_PROBLEMS = (ToySplit(), CubicNLS(n=16), RosenZener(k=2),
                      RandomFamily(np.random.default_rng(15), 3), GrowingFamily())
_PAIRINGS = [(*method, problem) for method in _CLI_METHODS for problem in _CONTRACT_PROBLEMS
             if hasattr(problem, method_needs(method[0]))]


@settings(max_examples=300, deadline=None)
@given(
    pairing=st.sampled_from(_PAIRINGS),
    t0=st.sampled_from([0.0, 0.3, 1e300, math.nan]),
    tau=st.sampled_from([0.0, 1e-300, -1e-300, 0.1, -0.1, 50.0, -800.0, 1e300, -1e300,
                         math.nan, math.inf]),
    steps=st.sampled_from([1, 3]),
    scale=st.sampled_from([1.0, 1e150, 1e300, 1e-300, math.nan]),  # NaN: one NaN entry
)
# Strang on ToySplit at tau = -1e300 printed 4 RuntimeWarnings and returned NaN; cf4 on
# GrowingFamily at tau = 200 warned of a matmul overflow and returned inf and NaN
@example(pairing=("strang", "symmetrized", "hermite", ToySplit()), t0=0.0, tau=-1e300,
         steps=1, scale=1.0)
@example(pairing=("cf4", "symmetrized", "hermite", GrowingFamily()), t0=0.0, tau=200.0,
         steps=1, scale=1.0)
def test_step_contract(pairing, t0, tau, steps, scale):
    """Every step and step with its defect gives finite arrays of the state's shape or
    raises StepFailure, ValueError or ConvergenceFailure, without a numpy warning and
    within a second; where both succeed, the defect's u_next is bitwise the step."""
    name, defect, variant, problem = pairing
    method = make_method(name, defect=defect, variant=variant)
    u = problem.initial_state()
    if math.isnan(scale):
        u[-1] = math.nan
    else:
        u = scale * u
    outcomes = []
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: (method.step(problem, t0, tau, u, steps),),
                     lambda: method.step_with_defect(problem, t0, tau, u)):
            try:
                outcomes.append(call())
            except (StepFailure, ValueError, ConvergenceFailure):
                outcomes.append(None)
    assert time.perf_counter() - start < 1.0
    for arrays in filter(None, outcomes):
        for v in arrays:
            assert v.shape == u.shape and np.isfinite(v).all()
    if steps == 1 and None not in outcomes:
        assert outcomes[1].u_next.tobytes() == outcomes[0][0].tobytes()


class TestStepCount:
    """A step count that is not a positive integer is a ValueError on every family,
    also with tau = 0 (0 or a negative count used to return the input array itself,
    and a float count ended in a bare TypeError)."""

    @pytest.mark.parametrize("steps", [0, -2, 2.0, True], ids=["0", "-2", "2.0", "True"])
    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_is_a_value_error(self, name, steps):
        method = make_method(name)
        for problem in _FAMILY_PROBLEMS[method_needs(name)]:
            u0 = problem.initial_state()
            for tau in (0.1, 0.0):
                with pytest.raises(ValueError, match="steps must be a positive integer, got "):
                    method.step(problem, 0.1, tau, u0, steps)

    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_numpy_integer_count(self, name):
        method = make_method(name)
        for problem in _FAMILY_PROBLEMS[method_needs(name)]:
            u0 = problem.initial_state()
            expected = method.step(problem, 0.1, 0.05, u0, 2)
            assert np.array_equal(method.step(problem, 0.1, 0.05, u0, np.int64(2)), expected)


class TestStateNorm:
    def test_weighted_for_collocation(self):
        prob = CubicNLS()
        v = np.ones(prob.n, dtype=np.complex128)
        assert state_norm(prob, v) == pytest.approx(0.25 * np.sqrt(prob.n))

    def test_default_weight(self):
        assert state_norm(ScalarQuadratic(), np.array([3.0 + 4.0j])) == pytest.approx(5.0)


class TestReferenceSolve:
    def test_zero_length_interval(self):
        u0 = np.array([1.0 + 1j])
        out = reference_solve(ScalarQuadratic(), 0.5, 0.5, u0)
        assert np.array_equal(out, u0) and out is not u0

    def test_nls_soliton_uses_closed_form(self):
        prob = CubicNLS()
        out = reference_solve(prob, 0.0, 0.125, prob.initial_state())
        assert np.array_equal(out, prob.exact_state(0.125))

    def test_nls_closed_form_anchored_at_t0(self):
        # the soliton shortcut holds only for the soliton state at t0; the
        # problem is autonomous, so the t = 0 soliton started at t0 = 1
        # must land on the soliton at t = 0.01
        prob = CubicNLS()
        out = reference_solve(prob, 1.0, 1.01, prob.exact_state(1.0))
        assert np.array_equal(out, prob.exact_state(1.01))
        out = reference_solve(prob, 1.0, 1.01, prob.initial_state())
        assert state_norm(prob, out - prob.exact_state(0.01)) <= 1e-10

    def test_toy_uses_closed_form(self):
        toy = ToySplit()
        u0 = np.array([0.8 + 0j])
        out = reference_solve(toy, 0.0, 0.3, u0)
        assert np.array_equal(out, toy.exact_solution(0.3, u0))

    def test_numerical_path_matches_closed_form(self):
        toy = ToySplit()
        u0 = np.array([0.8 + 0j])
        num = reference_solve(toy, 0.0, 0.3, u0, use_exact=False)
        assert np.linalg.norm(num - toy.exact_solution(0.3, u0)) <= 1e-11

    def test_cross_method_agreement(self):
        # the default reference (magnus4) and a fine corrected run of an
        # independent scheme must land on the same solution (5.6e-14 apart)
        prob = RosenZener()
        u0 = prob.initial_state()
        reference = reference_solve(prob, 0.0, 1.0, u0)
        via_cf4 = control.corrected_run(prob, make_method("cf4"), 0.0, 1.0, u0, 256)
        assert np.linalg.norm(reference - via_cf4) <= 1e-11

    def test_problem_without_a_method_interface(self):
        # no coefficients, flow_B or f: no default method can integrate it
        class Bare:
            pass

        with pytest.raises(ValueError, match="a problem needs one of"):
            reference_solve(Bare(), 0.0, 1.0, np.array([1.0 + 0j]))

    @pytest.mark.parametrize(
        "t0, t_end",
        [(0.0, np.inf), (0.0, np.nan), (0.0, [1.0, -np.inf]), (np.nan, 1.0)],
        ids=["inf-end", "nan-end", "one-end-of-a-list", "nan-start"],
    )
    def test_non_finite_times_are_value_errors(self, t0, t_end, monkeypatch):
        # an infinite end used to surface as a StepFailure from the first step
        prob = RosenZener(k=2)
        monkeypatch.setattr(control, "corrected_run", None)  # no step is taken
        for use_exact in (True, False):
            with pytest.raises(ValueError, match="start and end times must be finite"):
                reference_solve(prob, t0, t_end, prob.initial_state(), use_exact=use_exact)

    def test_scalar_quadratic_against_rk4(self):
        prob = ScalarQuadratic()
        u0 = np.array([1.0 + 0j])
        out = reference_solve(prob, 0.0, 0.4, u0, use_exact=False)
        oracle = rk4(prob.f, u0, 0.4, 50_000)
        assert abs(out[0] - oracle[0]) <= 1e-11


class TestSharedReferenceSolve:
    """One call over several end times against one call per end."""

    @pytest.fixture
    def counted_steps(self, monkeypatch):
        steps = []
        run = control.corrected_run

        def counting(problem, method, t0, t_end, u0, steps_, *args):
            steps.append(steps_)
            return run(problem, method, t0, t_end, u0, steps_, *args)

        monkeypatch.setattr(control, "corrected_run", counting)
        return steps

    # the longest end's doubling stops at the finest end's step tau_max/32 on
    # these ladders; the shorter ends' runs are the first steps of its runs,
    # which go on from them, and the finest end adds a 2-step run of its own
    @pytest.mark.parametrize(
        "problem, tau_max",
        [(RosenZener(k=5), 1.0), (ToySplit(), 4.0)],
        ids=["rosen-zener", "toy-split"],
    )
    def test_dyadic_ladder_is_bitwise_per_end(self, problem, tau_max, counted_steps):
        u0 = problem.initial_state()
        ends = [tau_max / 2**i for i in range(6)]
        solve = lambda t_end: reference_solve(problem, 0.0, t_end, u0, use_exact=False)
        shared = solve(ends)
        shared_steps = sum(counted_steps)
        counted_steps.clear()
        alone = [solve(t_end) for t_end in ends]
        longest_steps = counted_steps[: counted_steps.index(max(counted_steps)) + 1]
        assert len(shared) == len(ends)
        assert all(np.array_equal(a, b) for a, b in zip(shared, alone))
        assert shared_steps < sum(counted_steps)
        assert shared_steps <= sum(longest_steps) + 2

    @pytest.mark.parametrize(
        "problem, name", [(RosenZener(k=3), "magnus4"), (ToySplit(), "emb43aks")], ids=["rz", "toy"]
    )
    def test_a_continued_run_is_bitwise_the_uninterrupted_one(self, problem, name):
        # dyadic times, so the first k steps alone take the same tau = 1/8 bit for bit
        method, u0, t0, t_end, steps = make_method(name), problem.initial_state(), 0.25, 1.25, 8
        whole = control.corrected_run(problem, method, t0, t_end, u0, steps)
        for k in (1, 3, 7):
            head = control.corrected_run(problem, method, t0, t0 + k / steps, u0, k)
            tail = control.corrected_run(problem, method, t0, t_end, head, steps - k, first=k)
            assert np.array_equal(tail, whole)

    def test_total_steps_of_a_multi_end_solve_are_pinned(self, counted_steps):
        # each step size's run goes on from the furthest state a shorter end's run of it
        # reached: 126 steps in all, as many as longest-first records took before
        zener = RosenZener(k=5)
        reference_solve(zener, 0.0, [1.0, 0.25, 0.75, 0.5, 0.125], zener.initial_state())
        assert sum(counted_steps) == 126

    @pytest.mark.parametrize(
        "ends, total", [([1.0, 0.5], 63), ([1.0, 0.25, 0.75, 0.5, 0.125], 126)], ids=["two", "five"]
    )
    def test_a_budget_of_the_total_steps_suffices(self, monkeypatch, ends, total):
        # a continued run is gated on the steps it adds: with 63, the end 1.0's 32-step
        # level adds 16 to the 31 of the end 0.5 and the 16 of its own coarser levels
        zener = RosenZener(k=5)
        u0 = zener.initial_state()
        alone = [reference_solve(zener, 0.0, t_end, u0) for t_end in ends]
        monkeypatch.setattr(control, "_MAX_STEPS", total)
        shared = reference_solve(zener, 0.0, ends, u0)
        assert all(np.array_equal(a, b) for a, b in zip(shared, alone))
        monkeypatch.setattr(control, "_MAX_STEPS", total - 1)
        with pytest.raises(ConvergenceFailure, match=f"budget of {total - 1} steps"):
            reference_solve(zener, 0.0, ends, u0)

    def test_off_zero_start_and_any_order(self):
        toy = ToySplit()
        u0 = np.array([0.8 + 0j])
        t0, ends = 0.1, [0.3, 1.1, 0.6, 0.1, 0.35]
        shared = reference_solve(toy, t0, ends, u0, use_exact=False)
        for t_end, state in zip(ends, shared):
            alone = reference_solve(toy, t0, t_end, u0, use_exact=False)
            assert np.array_equal(state, alone)
            assert abs(state[0] - toy.exact_solution(t_end - t0, u0)[0]) <= 1e-11
        assert reference_solve(toy, t0, [], u0) == []

    def test_closed_form_per_end(self):
        toy = ToySplit()
        u0 = np.array([0.8 + 0j])
        shared = reference_solve(toy, 0.0, [0.3, 0.0], u0)
        assert np.array_equal(shared[0], toy.exact_solution(0.3, u0))
        assert np.array_equal(shared[1], u0) and shared[1] is not u0

    def test_step_budget_ends_in_convergence_failure(self, counted_steps, monkeypatch):
        # on a span of 1e10 the difference of consecutive levels only halves;
        # two differences are too few to give up on, so the budget ends it
        zener = RosenZener(k=5)
        monkeypatch.setattr(control, "_MAX_STEPS", 10)
        with pytest.raises(ConvergenceFailure, match=r"7 of its budget of 10 steps.*differences"):
            reference_solve(zener, 0.0, 1e10, zener.initial_state())
        assert counted_steps == [1, 2, 4]

    @pytest.mark.parametrize("max_steps", [100, 2**13])
    def test_hopeless_solve_gives_up_after_three_ratios(self, counted_steps, monkeypatch, max_steps):
        # ratios 0.5, 0.5, 0.5: no budget of this size reaches 1e-12 at that rate
        zener = RosenZener(k=5)
        monkeypatch.setattr(control, "_MAX_STEPS", max_steps)
        match = rf"31 of its budget of {max_steps} steps.*differences: (\S+, ){{3}}\S+\)$"
        with pytest.raises(ConvergenceFailure, match=match):
            reference_solve(zener, 0.0, 1e10, zener.initial_state())
        assert counted_steps == [1, 2, 4, 8, 16]

    def test_pre_asymptotic_levels_still_converge(self, counted_steps):
        # on 0 -> 30 the first ratios are far from the asymptotic 2**-6 and
        # keep falling, so no three of them agree and the solve goes on; the
        # slowest rate (0.62) or the latest (0.22) alone would give up at 16
        zener = RosenZener(k=5)
        u0 = zener.initial_state()
        magnus4 = make_method("magnus4")
        levels = [control.corrected_run(zener, magnus4, 0.0, 30.0, u0, 2**i) for i in range(5)]
        diffs = [np.linalg.norm(b - a) for a, b in zip(levels, levels[1:])]
        assert all(0.15 < b / a < 0.7 for a, b in zip(diffs, diffs[1:]))
        counted_steps.clear()
        ref = reference_solve(zener, 0.0, 30.0, u0)
        assert counted_steps[-1] > 16 and sum(counted_steps) <= 2**13
        fine = control.corrected_run(zener, magnus4, 0.0, 30.0, u0, 2 * counted_steps[-1])
        assert state_norm(zener, ref - fine) <= 1e-11

    def test_rosen_zener_reference_stops_on_richardson_estimate(self, counted_steps):
        zener = RosenZener(k=5)
        u0 = zener.initial_state()
        ref = reference_solve(zener, 0.0, 1.0, u0)
        assert sum(counted_steps) < 255  # the absolute stop ran 1, 2, ..., 128 steps
        fine = control.corrected_run(zener, make_method("magnus4"), 0.0, 1.0, u0, 2048)
        assert state_norm(zener, ref - fine) <= 1e-13


class TestIntegralOracle:
    def test_zero_field(self):
        method = make_method("imr")
        out = local_error_integral_oracle(
            ZeroField(), method, 0.1, np.array([1.0 + 0j]), kind="symmetrized"
        )
        assert np.linalg.norm(out) <= 1e-15

    @pytest.mark.parametrize("kind", ["classical", "symmetrized"])
    def test_midpoint_on_quadratic(self, kind):
        prob = ScalarQuadratic()
        method = make_method("imr", defect=kind)
        tau = 0.1
        u0 = np.array([1.0 + 0j])
        integral = local_error_integral_oracle(prob, method, tau, u0, kind=kind)
        direct = method.step(prob, 0.0, tau, u0) - rk4(prob.f, u0, tau, 4096)
        assert np.linalg.norm(integral - direct) <= 1e-9

    @pytest.mark.parametrize("kind", ["classical", "symmetrized"])
    def test_strang_on_toy(self, kind):
        toy = ToySplit()
        method = make_method("strang", defect=kind)
        tau = 0.05
        u0 = np.array([1.0 + 0j])
        integral = local_error_integral_oracle(toy, method, tau, u0, kind=kind)
        direct = method.step(toy, 0.0, tau, u0) - rk4(toy.f, u0, tau, 4096)
        assert np.linalg.norm(integral - direct) <= 1e-9

    @pytest.mark.parametrize("kind", ["classical", "symmetrized"])
    @pytest.mark.parametrize(
        "problem, scheme, u0, quad_nodes, ode_steps",
        [
            (ScalarQuadratic(), "imr", np.array([1.0 + 0j]), 12, 128),
            (ToySplit(), "strang", np.array([1.0 + 0j]), 12, 128),
            (CubicNLS(n=16), "strang", CubicNLS(n=16).initial_state(), 8, 64),
        ],
        ids=["quadratic-imr", "toy-strang", "nls16-strang"],
    )
    def test_batched_matches_per_node_loop(
        self, problem, scheme, u0, quad_nodes, ode_steps, kind
    ):
        # one RK4 over all nodes does each node's arithmetic; only the
        # summation order may move the result by a few ulp
        method = make_method(scheme, defect=kind)
        batched = local_error_integral_oracle(
            problem, method, 0.1, u0, kind=kind, quad_nodes=quad_nodes, ode_steps=ode_steps
        )
        loop = integral_oracle_loop(problem, method, 0.1, u0, kind, quad_nodes, ode_steps)
        assert np.linalg.norm(batched - loop) <= 1e-14 * np.linalg.norm(loop)

    @pytest.mark.parametrize(
        "scheme, kind, tau, error",
        [
            ("strang", "classical", 50.0, ConvergenceFailure),
            ("imr", "classical", 50.0, ConvergenceFailure),
            ("strang", "symmetrized", 1e300, StepFailure),
            ("imr", "symmetrized", 1e300, StepFailure),
        ],
        ids=["strang-classical", "imr-classical", "strang-huge", "imr-huge"],
    )
    def test_overflow_raises_a_typed_error_without_warnings(self, scheme, kind, tau, error):
        # 8 RK4 steps over spans near 50 are unstable: the quadrature overflows to NaN, a
        # ConvergenceFailure rather than a returned NaN; at 1e300 the defect step itself fails
        method = make_method(scheme, defect=kind)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                local_error_integral_oracle(
                    ToySplit(), method, tau, np.array([1 + 0j]), kind=kind,
                    quad_nodes=4, ode_steps=8,
                )

    def test_rk4_is_bitwise_the_loop_with_its_constants_inline(self):
        def inline(rhs, y, h, steps):
            for _ in range(steps):
                k1 = rhs(y)
                k2 = rhs(y + 0.5 * h * k1)
                k3 = rhs(y + 0.5 * h * k2)
                k4 = rhs(y + h * k3)
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            return y

        rng = np.random.default_rng(7)
        y = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        h = np.array([[0.1], [-0.3], [-0.0], [0.0], [1e-300], [-7e-17]])

        def rhs(z):
            return (0.3 - 1j) * z + 0.5j * z * z

        got = control._rk4(rhs, y, h, 9)
        assert got.tobytes() == inline(rhs, y, h, 9).tobytes()

    def test_gauss_rule_is_made_once_per_node_count(self, monkeypatch):
        calls = []
        fresh = np.polynomial.legendre.leggauss

        def counted(quad_nodes):
            calls.append(quad_nodes)
            return fresh(quad_nodes)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
        monkeypatch.setattr(control, "_GAUSS_RULES", {}, raising=False)
        method, u0 = make_method("strang"), np.array([1.0 + 0j])
        cold, warm = [
            local_error_integral_oracle(ToySplit(), method, 0.1, u0, quad_nodes=7, ode_steps=16)
            for _ in range(2)
        ]
        assert calls == [7]
        assert warm.tobytes() == cold.tobytes()
        for kept, made in zip(control._GAUSS_RULES[7], fresh(7)):
            assert kept.tobytes() == made.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                kept[0] = 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            local_error_integral_oracle(
                ScalarQuadratic(), make_method("imr"), 0.1, np.ones(1, complex), kind="x"
            )
        # the kind defaults to the method's; another used to give a wrong integral, 2.5e-7
        # from the local error for Strang on ToySplit at tau = 0.1 (1e-16 with matching kinds)
        for name in ("imr", "strang"):
            for defect, other in (("classical", "symmetrized"), ("symmetrized", "classical")):
                oracle = partial(local_error_integral_oracle, ToySplit(), make_method(name, defect=defect),
                                 0.1, np.ones(1, complex), quad_nodes=4, ode_steps=8)
                assert oracle().tobytes() == oracle(kind=defect).tobytes()
                with pytest.raises(ValueError, match="defect kind"):
                    oracle(kind=other)

    @pytest.mark.parametrize(
        "discretisation",
        [{"quad_nodes": 0}, {"ode_steps": 0}, {"ode_steps": -4}, {"quad_nodes": 2.5}],
        ids=["no-nodes", "no-steps", "negative-steps", "fractional-nodes"],
    )
    def test_degenerate_discretisation_raises(self, discretisation):
        with pytest.raises(ValueError, match="positive integer"):
            local_error_integral_oracle(
                ScalarQuadratic(), make_method("imr"), 0.1, np.ones(1, complex),
                **discretisation,
            )


class TestController:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(tol=1e-8, tau_init=0.5, tau_min=1.0, tau_max=0.1)
        with pytest.raises(ValueError):
            AdaptiveConfig(tol=-1.0, tau_init=0.1)

    @pytest.mark.parametrize("tau_min", [0.0, -1e-3, np.nan])
    def test_tau_min_must_be_positive(self, tau_min):
        # tau_init = tau_min = 0 used to take the whole trial budget in zero-length steps
        with pytest.raises(ValueError, match="need 0 < tau_min"):
            AdaptiveConfig(tol=1e-8, tau_init=0.0 if tau_min == 0.0 else 0.1, tau_min=tau_min)

    @pytest.mark.parametrize(
        "t0, t_end",
        [(0.0, np.inf), (0.0, np.nan), (0.0, -1.0), (1.0, 0.5), (-np.inf, 1.0), (np.nan, 1.0)],
        ids=["inf-end", "nan-end", "backward", "backward-off-zero", "inf-start", "nan-start"],
    )
    def test_bad_end_times_are_value_errors_before_any_trial(self, t0, t_end):
        # these used to return (u0, []) as if the run had finished
        def no_trial(*args):
            raise AssertionError("a trial step was taken")

        toy = ToySplit()
        cfg = AdaptiveConfig(tol=1e-8, tau_init=0.1, tau_min=1e-10, tau_max=0.5)
        with pytest.raises(ValueError, match="need finite t0 <= t_end"):
            adaptive_integrate(toy, Method("none", 2, no_trial, no_trial, "symmetrized"), cfg,
                               t0, t_end, toy.initial_state())

    def test_empty_interval_takes_no_trial(self):
        toy = ToySplit()
        cfg = AdaptiveConfig(tol=1e-8, tau_init=0.1, tau_min=1e-10, tau_max=0.5)
        u, records = adaptive_integrate(toy, make_method("imr"), cfg, 0.5, 0.5, toy.initial_state())
        assert records == [] and np.array_equal(u, toy.initial_state())

    def test_empty_interval_returns_a_copy_of_u0(self):
        # the caller's own array used to come back
        toy, u0 = ToySplit(), ToySplit().initial_state()
        cfg = AdaptiveConfig(tol=1e-8, tau_init=0.1, tau_min=1e-10, tau_max=0.5)
        u, _ = adaptive_integrate(toy, make_method("imr"), cfg, 0.5, 0.5, u0)
        assert np.array_equal(u, u0) and not np.shares_memory(u, u0)

    def test_propose_step_formula(self):
        cfg = AdaptiveConfig(tol=1e-8, tau_init=0.1, tau_min=1e-9, tau_max=10.0)
        tau = 0.1
        # err == tol: ratio = the safety factor 0.9
        assert propose_step(tau, 1e-8, 2, cfg) == pytest.approx(0.9 * tau)
        # zero error: growth capped at the ratio 4
        assert propose_step(tau, 0.0, 2, cfg) == pytest.approx(0.4)
        # huge error: shrink capped at the ratio 1/4
        assert propose_step(tau, 1.0, 2, cfg) == pytest.approx(0.025)

    def test_propose_step_monotone_in_tolerance(self):
        tight_cfg, loose_cfg = (
            AdaptiveConfig(tol=tol, tau_init=0.1, tau_min=1e-12, tau_max=10.0)
            for tol in (1e-10, 1e-8)
        )
        for err in (1e-12, 1e-9, 1e-7, 1e-3):
            for order in (2, 4):
                tight = propose_step(0.05, err, order, tight_cfg)
                loose = propose_step(0.05, err, order, loose_cfg)
                assert tight <= loose

    def test_exact_scheme_grows_to_tau_max(self):
        # constant generator: exponential midpoint is exact, estimator ~ 0
        rng = np.random.default_rng(1)
        prob = ConstantLinear(random_skew_hermitian(rng, 4))
        method = make_method("expmid")
        cfg = AdaptiveConfig(tol=1e-8, tau_init=1e-3, tau_min=1e-6, tau_max=0.5)
        u0 = np.ones(4, dtype=np.complex128)
        _, trace = adaptive_integrate(prob, method, cfg, 0.0, 10.0, u0)
        assert all(rec.accepted for rec in trace)
        taus = [rec.tau for rec in trace]
        # 4x growth until the cap, then flat until the final clamp
        for a, b in zip(taus, taus[1:-1]):
            assert b == pytest.approx(min(4.0 * a, 0.5))
        assert max(taus) == pytest.approx(0.5)

    def test_trace_time_consistency(self):
        prob = RosenZener(k=5)
        method = make_method("magnus4")
        cfg = AdaptiveConfig(tol=1e-6, tau_init=0.01, tau_min=1e-8, tau_max=0.2)
        _, trace = adaptive_integrate(prob, method, cfg, 0.0, 1.0, prob.initial_state())
        accepted = [rec for rec in trace if rec.accepted]
        assert abs(math.fsum(rec.tau for rec in accepted) - 1.0) <= 1e-12
        for first, second in zip(accepted, accepted[1:]):
            assert second.t == pytest.approx(first.t + first.tau, abs=1e-13)
        assert all(rec.est_norm <= cfg.tol * (1.0 + 1e-12) for rec in accepted)

    def test_rejection_and_acceptance_tolerances(self):
        prob = RosenZener(k=5)
        method = make_method("expmid")
        cfg = AdaptiveConfig(tol=1e-7, tau_init=0.2, tau_min=1e-8, tau_max=0.2)
        _, trace = adaptive_integrate(prob, method, cfg, 0.0, 1.0, prob.initial_state())
        rejected = [rec for rec in trace if not rec.accepted]
        assert rejected, "the oversized initial step should be rejected"
        assert all(rec.est_norm > cfg.tol for rec in rejected)

    def test_loose_tolerance_needs_fewer_steps(self):
        prob = RosenZener(k=5)
        method = make_method("expmid")
        counts = {}
        for tol in (1e-6, 1e-8):
            cfg = AdaptiveConfig(tol=tol, tau_init=0.01, tau_min=1e-9, tau_max=0.2)
            _, trace = adaptive_integrate(
                prob, method, cfg, 0.0, 1.0, prob.initial_state()
            )
            counts[tol] = sum(1 for rec in trace if rec.accepted)
        assert counts[1e-6] < counts[1e-8]

    def test_nan_defect_raises(self):
        toy = ToySplit()
        trials = []

        def nan_defect(problem, t0, tau, u):
            trials.append(tau)
            assert len(trials) < 1000, "controller does not terminate"
            return u, np.full_like(u, np.nan)

        method = Method("nan", 2, nan_defect, nan_defect, "symmetrized")
        cfg = AdaptiveConfig(tol=1e-6, tau_init=0.1, tau_min=1e-10, tau_max=0.5)
        with pytest.raises(StepFailure):
            adaptive_integrate(toy, method, cfg, 0.0, 1.0, toy.initial_state())

    def test_failed_trial_is_a_rejection(self):
        toy = ToySplit()

        def fragile(problem, t0, tau, u):
            if tau > 0.05:
                raise StepFailure("step too large")
            return u, np.zeros_like(u)

        method = Method("fragile", 2, fragile, fragile, "symmetrized")
        cfg = AdaptiveConfig(tol=1e-6, tau_init=0.1, tau_min=1e-10, tau_max=0.5)
        _, trace = adaptive_integrate(toy, method, cfg, 0.0, 1.0, toy.initial_state())
        accepted = [rec for rec in trace if rec.accepted]
        rejected = [rec for rec in trace if not rec.accepted]
        assert abs(math.fsum(rec.tau for rec in accepted) - 1.0) <= 1e-12
        assert rejected
        assert all(rec.est_norm == math.inf and rec.tau > 0.05 for rec in rejected)

    def test_always_failing_trial_raises(self):
        toy = ToySplit()
        trials = []

        def broken(problem, t0, tau, u):
            trials.append(tau)
            assert len(trials) < 100, "controller does not give up"
            raise StepFailure("pole")

        method = Method("broken", 2, broken, broken, "symmetrized")
        cfg = AdaptiveConfig(tol=1e-6, tau_init=0.1, tau_min=1e-10, tau_max=0.5)
        with pytest.raises(StepFailure):
            adaptive_integrate(toy, method, cfg, 0.0, 1.0, toy.initial_state())

    def test_overflowing_trial_is_a_rejection(self):
        # at tau = 1e300 the implicit midpoint step overflows; each trial runs
        # under one np.errstate, so no RuntimeWarning escapes (an error in
        # this suite) and the non-finite estimates stall the controller
        toy = ToySplit()
        cfg = AdaptiveConfig(tol=1e-6, tau_init=1e300, tau_min=1e299, tau_max=1e300)
        start = time.perf_counter()
        with pytest.raises(StepFailure, match="controller stalled"):
            adaptive_integrate(toy, make_method("imr"), cfg, 0.0, 2e300, toy.initial_state())
        assert time.perf_counter() - start < 1.0

    def test_trial_budget_raises_convergence_failure(self, monkeypatch):
        # a run that needs more trial steps than its budget ends in a typed
        # error; the same run with a budget of exactly its trials reaches t_end
        toy = ToySplit()
        cfg = AdaptiveConfig(tol=1e-8, tau_init=0.1, tau_min=1e-10, tau_max=0.5)
        u, records = adaptive_integrate(toy, make_method("imr"), cfg, 0.0, 1.0, toy.initial_state())
        assert len(records) > 3 and records[-1].t + records[-1].tau == 1.0
        monkeypatch.setattr(control, "_MAX_STEPS", 3)
        with pytest.raises(ConvergenceFailure, match="trial budget of 3 steps used up at t = "):
            adaptive_integrate(toy, make_method("imr"), cfg, 0.0, 1.0, toy.initial_state())
        monkeypatch.setattr(control, "_MAX_STEPS", len(records))
        budgeted, _ = adaptive_integrate(toy, make_method("imr"), cfg, 0.0, 1.0, toy.initial_state())
        assert np.array_equal(budgeted, u)

    def test_strang_effectivity_and_tolerance_proportionality(self):
        # replays the accepted steps of adaptive Strang on ToySplit(), t = 0 -> 5,
        # with each kind's estimate against the true local error from the closed
        # form. Measured: effectivity min/median/max classical 0.941/0.991/0.998
        # (tol 1e-6) and 0.9956/0.9996/0.9997 (1e-10), symmetrized 1.0000/1.0000/
        # 1.0011 and 1.0000 throughout; final error 2.9e-6 and 7.5e-9, slope 0.647
        toy = ToySplit()
        u0 = toy.initial_state()
        methods = [make_method("strang", "classical"), make_method("strang")]
        tols, finals = (1e-6, 1e-10), []
        for tol in tols:
            u_end, records = adaptive_integrate(
                toy, methods[1], AdaptiveConfig(tol=tol, tau_init=0.01), 0.0, 5.0, u0)
            u, effectivity = u0, ([], [])
            for record in (r for r in records if r.accepted):
                for method, kept in zip(methods, effectivity):
                    u_next, d = method.step_with_defect(toy, record.t, record.tau, u)
                    error = u_next - toy.exact_solution(record.tau, u)
                    kept.append(abs(estimator_scale(record.tau, method.order) * d[0]) / abs(error[0]))
                u = u_next
            assert np.array_equal(u, u_end)
            classical, symmetrized = (np.abs(np.array(e) - 1.0).max() for e in effectivity)
            assert symmetrized < classical <= 0.1
            finals.append(abs(u_end - toy.exact_solution(5.0, u0))[0])
        slope = math.log(finals[0] / finals[1]) / math.log(tols[0] / tols[1])
        assert abs(slope - 2.0 / 3.0) <= 0.1

    def test_emb43aks_tolerance_proportionality_on_the_soliton(self):
        # adaptive emb43aks on the soliton, t = 0 -> 1, at tol 1e-6 ... 1e-10: error-per-step
        # control makes the final error against the closed form scale as tol^(p/(p+1)),
        # p = 4. Measured: 54, 84, 134, 212 and 336 trials, final errors 1.97e-6 down to
        # 1.22e-9, least-squares slope 0.8015
        problem = CubicNLS()
        tols, finals = [10.0**-k for k in range(6, 11)], []
        for tol in tols:
            config = AdaptiveConfig(tol=tol, tau_init=1e-2, tau_min=1e-8, tau_max=0.25)
            u_end, _ = adaptive_integrate(
                problem, make_method("emb43aks"), config, 0.0, 1.0, problem.initial_state())
            finals.append(state_norm(problem, u_end - problem.exact_state(1.0)))
        assert abs(fit_slope(tols, finals) - 4.0 / 5.0) <= 0.05

    def test_emb43aks_effectivity_on_the_two_soliton(self):
        # criterion 9's run (emb43aks, tol 1e-10) stopped at t = 2.6, past the
        # crossing's smallest steps: every 64th accepted step (21 of 1,343) against
        # the true local error from a reference solve started at that step.
        # Measured: effectivity 0.99971-0.99974, 1 - effectivity being the
        # O(tau^2) relative deviation of the symmetrized estimate at these steps
        problem = CubicNLS(initial="two-soliton")
        method = make_method("emb43aks")
        config = AdaptiveConfig(tol=1e-10, tau_init=1e-2, tau_min=1e-8, tau_max=0.25)
        u_end, records = adaptive_integrate(problem, method, config, 0.0, 2.6, problem.initial_state())
        accepted = [r for r in records if r.accepted]
        u, taus, effectivity = problem.initial_state(), [], []
        for i, record in enumerate(accepted):
            if i % 64 == 0:
                u_next, d = method.step_with_defect(problem, record.t, record.tau, u)
                reference = reference_solve(problem, record.t, record.t + record.tau, u, use_exact=False)
                estimate = estimator_scale(record.tau, method.order) * d
                taus.append(record.tau)
                effectivity.append(state_norm(problem, estimate) / state_norm(problem, u_next - reference))
            u = method.step(problem, record.t, record.tau, u)
        assert np.array_equal(u, u_end)
        assert len(taus) == 21 and min(taus) < 0.25 * max(taus)  # the samples reach into the dip
        assert 0.9996 <= min(effectivity) and max(effectivity) <= 0.9998

    def test_abort_when_floor_hit(self):
        prob = RosenZener(k=5)
        method = make_method("expmid")
        cfg = AdaptiveConfig(tol=1e-30, tau_init=1e-3, tau_min=1e-3, tau_max=0.2)
        with pytest.raises(StepFailure):
            adaptive_integrate(prob, method, cfg, 0.0, 1.0, prob.initial_state())


# a scripted defect value, or "raise" for a trial step that fails
_DEFECTS = st.one_of(
    st.floats(min_value=-1e100, max_value=1e100),
    st.sampled_from([math.nan, math.inf, -math.inf, "raise"]),
)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(script=st.lists(_DEFECTS, max_size=80), tau_init=st.floats(1e-3, 0.5))
def test_controller_terminates_on_any_defect_sequence(script, tau_init):
    # the scripted trials come first; after them every defect is zero, so a
    # controller that cannot hang finishes within a few dozen more trials
    toy = ToySplit()
    pending = list(script)
    trials = []

    def scripted(problem, t0, tau, u):
        trials.append(tau)
        assert len(trials) <= len(script) + 50, "controller does not terminate"
        value = pending.pop(0) if pending else 0.0
        if value == "raise":
            raise StepFailure("scripted failure")
        return u, np.full_like(u, value)

    method = Method("scripted", 2, scripted, scripted, "symmetrized")
    cfg = AdaptiveConfig(tol=1e-6, tau_init=tau_init, tau_min=1e-10, tau_max=0.5)
    try:
        _, trace = adaptive_integrate(toy, method, cfg, 0.0, 1.0, toy.initial_state())
    except StepFailure:
        return
    accepted = [rec for rec in trace if rec.accepted]
    assert abs(math.fsum(rec.tau for rec in accepted) - 1.0) <= 1e-12
    assert all(rec.est_norm <= cfg.tol for rec in accepted)
