"""Control layer: estimator assembly, references, oracle, adaptivity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdefect import control
from symdefect.control import (
    METHOD_NAMES,
    AdaptiveConfig,
    Method,
    StepOutput,
    adaptive_integrate,
    estimate_and_correct,
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
    ScalarQuadratic,
    ZeroField,
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

    @pytest.mark.parametrize(
        "name,defect,variant",
        [
            (name, defect, variant)
            for name in METHOD_NAMES
            for defect in ("classical", "symmetrized")
            for variant in ("taylor", "hermite")
            if defect == "symmetrized" or name in ("imr", "strang")
        ],
    )
    def test_step_with_defect_keeps_the_plain_step(self, name, defect, variant):
        # one problem per family, picked by the interface the family needs
        problem = {
            "f": ToySplit(),
            "flow_B": CubicNLS(n=64),
            "A": RosenZener(k=5),
        }[method_needs(name)]
        method = make_method(name, defect=defect, variant=variant)
        u0 = problem.initial_state()
        u_next, _ = method.step_with_defect(problem, 0.1, 0.05, u0)
        assert np.array_equal(u_next, method.step(problem, 0.1, 0.05, u0))


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
        num = reference_solve(toy, 0.0, 0.3, u0, tol=1e-12, use_exact=False)
        assert np.linalg.norm(num - toy.exact_solution(0.3, u0)) <= 1e-11

    def test_cross_method_agreement(self):
        # two independent corrected schemes must land on the same solution
        prob = RosenZener()
        u0 = prob.initial_state()
        tol = 1e-12
        via_magnus = reference_solve(
            prob, 0.0, 1.0, u0, tol=tol, method=make_method("magnus4")
        )
        via_cf4 = reference_solve(prob, 0.0, 1.0, u0, tol=tol, method=make_method("cf4"))
        assert np.linalg.norm(via_magnus - via_cf4) <= 10.0 * tol

    def test_scalar_quadratic_against_rk4(self):
        prob = ScalarQuadratic()
        u0 = np.array([1.0 + 0j])
        out = reference_solve(prob, 0.0, 0.4, u0, tol=1e-13, use_exact=False)
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

    # the longest end's doubling reaches the finest end's step tau_max/64 on
    # these ladders, so its runs serve every finer end
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
        assert shared_steps <= sum(longest_steps) < sum(counted_steps)

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

    def test_step_budget_ends_in_convergence_failure(self, counted_steps):
        # on a span of 1e10 the difference of consecutive levels only halves
        zener = RosenZener(k=5)
        with pytest.raises(ConvergenceFailure, match=r"budget of 100 steps.*difference"):
            reference_solve(zener, 0.0, 1e10, zener.initial_state(), max_steps=100)
        assert counted_steps == [1, 2, 4, 8, 16, 32]


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

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            local_error_integral_oracle(
                ScalarQuadratic(), make_method("imr"), 0.1, np.ones(1, complex), kind="x"
            )

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
        with pytest.raises(ValueError):
            AdaptiveConfig(tol=1e-8, tau_init=0.1, ratio_min=2.0)

    def test_propose_step_formula(self):
        cfg = AdaptiveConfig(tol=1e-8, tau_init=0.1, tau_min=1e-9, tau_max=10.0)
        tau = 0.1
        # err == tol: ratio = safety
        assert propose_step(tau, 1e-8, 1e-8, 2, cfg) == pytest.approx(0.9 * tau)
        # zero error: growth capped at ratio_max
        assert propose_step(tau, 0.0, 1e-8, 2, cfg) == pytest.approx(0.4)
        # huge error: shrink capped at ratio_min
        assert propose_step(tau, 1.0, 1e-8, 2, cfg) == pytest.approx(0.025)

    def test_propose_step_monotone_in_tolerance(self):
        cfg = AdaptiveConfig(tol=1e-8, tau_init=0.1, tau_min=1e-12, tau_max=10.0)
        for err in (1e-12, 1e-9, 1e-7, 1e-3):
            for order in (2, 4):
                tight = propose_step(0.05, err, 1e-10, order, cfg)
                loose = propose_step(0.05, err, 1e-8, order, cfg)
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
        # ratio_max growth until the cap, then flat until the final clamp
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

        method = Method("nan", 2, nan_defect, nan_defect)
        cfg = AdaptiveConfig(tol=1e-6, tau_init=0.1, tau_min=1e-10, tau_max=0.5)
        with pytest.raises(StepFailure):
            adaptive_integrate(toy, method, cfg, 0.0, 1.0, toy.initial_state())

    def test_failed_trial_is_a_rejection(self):
        toy = ToySplit()

        def fragile(problem, t0, tau, u):
            if tau > 0.05:
                raise StepFailure("step too large")
            return u, np.zeros_like(u)

        method = Method("fragile", 2, fragile, fragile)
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

        method = Method("broken", 2, broken, broken)
        cfg = AdaptiveConfig(tol=1e-6, tau_init=0.1, tau_min=1e-10, tau_max=0.5)
        with pytest.raises(StepFailure):
            adaptive_integrate(toy, method, cfg, 0.0, 1.0, toy.initial_state())

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

    method = Method("scripted", 2, scripted, scripted)
    cfg = AdaptiveConfig(tol=1e-6, tau_init=tau_init, tau_min=1e-10, tau_max=0.5)
    try:
        _, trace = adaptive_integrate(toy, method, cfg, 0.0, 1.0, toy.initial_state())
    except StepFailure:
        return
    accepted = [rec for rec in trace if rec.accepted]
    assert abs(math.fsum(rec.tau for rec in accepted) - 1.0) <= 1e-12
    assert all(rec.est_norm <= cfg.tol for rec in accepted)
