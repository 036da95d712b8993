"""Defect evaluators: closed forms, cross-path agreement, deviation orders."""

import numpy as np
import pytest

from symdefect.control import make_method
from symdefect.defects import (
    cfm_bcheck,
    cfm_defect,
    imr_defect,
    magnus4_bcheck,
    magnus4_defect,
    splitting_defect_semilinear,
    strang_defect,
)
from symdefect.problems import CubicNLS, RosenZener, ToySplit
from symdefect.schemes import (
    CF4,
    EMB43AKS,
    EXPMID_AS_CFM,
    STRANG,
    SplittingScheme,
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
    expmid_defect,
    fit_slope,
    pair_orders,
    random_skew_hermitian,
    random_state,
    strang_symmetrized_defect,
)


class TestImrDefect:
    def test_zero_field(self):
        u = np.array([1.0 + 0.5j, -0.3j])
        for kind in ("classical", "symmetrized"):
            u_next, d = imr_defect(ZeroField(), 0.3, u, kind=kind)
            assert np.array_equal(u_next, u)
            assert np.linalg.norm(d) == 0.0

    def test_linear_scalar_closed_form(self):
        # for u' = lam u every quantity is explicit scalar algebra
        lam, tau, u0 = -1.0, 0.1, 1.0
        w = u0 * (1.0 + tau * lam / 2.0) / (1.0 - tau * lam / 2.0)
        m = 0.5 * (u0 + w)
        denom = 1.0 - 0.5 * tau * lam
        x = lam * m / denom
        dc_expected = x - lam * w
        z = (lam * m - 0.5 * lam * u0 - 0.25 * tau * lam * lam * u0) / denom
        ds_expected = z - 0.5 * lam * w
        prob = LinearScalar(lam)
        u = np.array([u0 + 0j])
        u_next, dc = imr_defect(prob, tau, u, kind="classical")
        assert abs(u_next[0] - w) < 1e-13
        assert abs(dc[0] - dc_expected) < 1e-13
        _, ds = imr_defect(prob, tau, u, kind="symmetrized")
        assert abs(ds[0] - ds_expected) < 1e-13

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            imr_defect(ScalarQuadratic(), 0.1, np.ones(1, complex), kind="fancy")

    def test_singular_linearization_fails_cleanly(self):
        from symdefect.errors import StepFailure

        # lam = 1, tau = 2 makes I - (tau/2) F' exactly singular
        with pytest.raises(StepFailure):
            imr_defect(LinearScalar(1.0), 2.0, np.array([1.0 + 0j]))

    def test_u_next_matches_plain_step(self):
        prob = ScalarQuadratic()
        u = np.array([0.9 - 0.2j])
        plain = step_implicit_midpoint(prob, 0.07, u)
        for kind in ("classical", "symmetrized"):
            u_next, _ = imr_defect(prob, 0.07, u, kind=kind)
            assert np.array_equal(u_next, plain)

    def test_symmetrized_classical_gap_order(self):
        # D_s - D_c = O(tau^(p+1)) = O(tau^3)
        prob = ScalarQuadratic()
        u = np.array([1.0 + 0j])
        taus = [0.1 / 2**i for i in range(5)]
        gaps = []
        for tau in taus:
            _, dc = imr_defect(prob, tau, u, kind="classical")
            _, ds = imr_defect(prob, tau, u, kind="symmetrized")
            gaps.append(np.linalg.norm(ds - dc))
        assert pair_orders(taus, gaps)[-1] >= 3.0 - 0.15

    def test_deviation_orders(self):
        # symmetrized estimator deviates at O(tau^5), classical at O(tau^4)
        prob = ScalarQuadratic()
        u = np.array([1.0 + 0j])
        taus = [0.1 / 2**i for i in range(5)]
        devs = {"classical": [], "symmetrized": []}
        for tau in taus:
            exact = prob.exact_solution(tau, u)
            for kind, store in devs.items():
                u_next, d = imr_defect(prob, tau, u, kind=kind)
                store.append(np.linalg.norm((tau / 3.0) * d - (u_next - exact)))
        assert abs(pair_orders(taus, devs["symmetrized"])[-1] - 5.0) <= 0.15
        assert abs(pair_orders(taus, devs["classical"])[-1] - 4.0) <= 0.15


@pytest.fixture(scope="module")
def nls():
    return CubicNLS()


class TestStrangDefect:
    def test_pure_a_part_is_exact(self):
        prob = BFreeSemilinear(CubicNLS(n=64))
        rng = np.random.default_rng(0)
        u = random_state(rng, 64)
        for kind in ("classical", "symmetrized"):
            _, d = strang_defect(prob, 0.2, u, kind=kind)
            assert np.linalg.norm(d) <= 1e-13

    def test_u_next_matches_plain_step(self, nls):
        u = nls.initial_state()
        plain = step_splitting(STRANG, nls, 0.05, u)
        for kind in ("classical", "symmetrized"):
            u_next, _ = strang_defect(nls, 0.05, u, kind=kind)
            assert np.array_equal(u_next, plain)

    def test_matches_generic_algorithm(self, nls):
        # the general stage loop on STRANG against Strang's closed form
        u = nls.initial_state()
        u_gen, d_gen = strang_defect(nls, 0.02, u, kind="symmetrized")
        u_direct, d_direct = strang_symmetrized_defect(nls, 0.02, u)
        assert np.array_equal(u_direct, u_gen)
        assert np.linalg.norm(d_direct - d_gen) <= 1e-13

    def test_classical_deviation_one_order_worse(self, nls):
        u = nls.initial_state()
        taus = [1.563e-2 / 2**i for i in range(4)]
        devs = {"classical": [], "symmetrized": []}
        for tau in taus:
            exact = nls.exact_state(tau)
            for kind, store in devs.items():
                u_next, d = strang_defect(nls, tau, u, kind=kind)
                store.append(np.linalg.norm((tau / 3.0) * d - (u_next - exact)))
        assert abs(fit_slope(taus, devs["symmetrized"]) - 5.0) <= 0.15
        assert abs(fit_slope(taus, devs["classical"]) - 4.0) <= 0.15


class TestGenericSplittingDefect:
    def test_requires_trailing_pure_a_stage(self, nls):
        bad = SplittingScheme("bad", (0.5, 0.5), (0.5, 0.5), 2)
        with pytest.raises(ValueError):
            splitting_defect_semilinear(bad, nls, 0.1, nls.initial_state())

    def test_skipped_noop_stage_changes_nothing(self, nls):
        # the stepper applies flow_B(0, .) at the end, the defect path skips it
        u = nls.initial_state()
        u_next, _ = splitting_defect_semilinear(EMB43AKS, nls, 0.03, u)
        assert np.array_equal(u_next, step_splitting(EMB43AKS, nls, 0.03, u))

    def test_emb43_fft_budget(self, nls, monkeypatch):
        # each A-stage moves defect and state through one stacked A-flow
        # (one fft and one ifft) plus the A-action (one of each): 4 calls
        # per stage, 5 stages
        import symdefect.problems as problems

        calls = []

        def counted(transform):
            def wrapper(v):
                calls.append(transform.__name__)
                return transform(v)

            return wrapper

        monkeypatch.setattr(problems, "fft", counted(problems.fft))
        monkeypatch.setattr(problems, "ifft", counted(problems.ifft))
        method = make_method("emb43aks")
        method.step_with_defect(nls, 0.0, 0.03, nls.initial_state())
        assert 0 < len(calls) <= 20

    def test_pure_a_part_is_exact(self):
        prob = BFreeSemilinear(CubicNLS(n=64))
        rng = np.random.default_rng(1)
        u = random_state(rng, 64)
        _, d = splitting_defect_semilinear(EMB43AKS, prob, 0.2, u)
        assert np.linalg.norm(d) <= 1e-12

    def test_nonlinear_u_next_matches_plain_step(self):
        # ToySplit's B-part is quadratic; its A-part broadcasts over the stack
        toy = ToySplit()
        u = np.array([0.7 - 0.2j])
        u_next, _ = splitting_defect_semilinear(EMB43AKS, toy, 0.05, u)
        assert np.array_equal(u_next, step_splitting(EMB43AKS, toy, 0.05, u))

    def test_fixed_point_has_zero_defect(self):
        toy = ToySplit()
        z = np.zeros(1, dtype=np.complex128)
        _, d = splitting_defect_semilinear(STRANG, toy, 0.1, z)
        assert np.linalg.norm(d) == 0.0

    def test_toy_deviation_order_five(self):
        toy = ToySplit()
        u = np.array([1.0 + 0j])
        taus = [0.1 / 2**i for i in range(5)]
        devs = []
        for tau in taus:
            u_next, d = splitting_defect_semilinear(STRANG, toy, tau, u)
            exact = toy.exact_solution(tau, u)
            devs.append(np.linalg.norm((tau / 3.0) * d - (u_next - exact)))
        assert abs(pair_orders(taus, devs)[-1] - 5.0) <= 0.15

    def test_emb43_deviation_order_seven(self, nls):
        u = nls.initial_state()
        taus = [6.25e-2 / 2**i for i in range(4)]
        devs = []
        for tau in taus:
            u_next, d = splitting_defect_semilinear(EMB43AKS, nls, tau, u)
            exact = nls.exact_state(tau)
            devs.append(np.linalg.norm((tau / 5.0) * d - (u_next - exact)))
        assert abs(fit_slope(taus, devs) - 7.0) <= 0.2


@pytest.fixture(scope="module")
def zener():
    return RosenZener()


class TestExpmidDefect:
    def test_constant_generator_zero_defect(self):
        rng = np.random.default_rng(2)
        prob = ConstantLinear(random_skew_hermitian(rng, 6))
        u = random_state(rng, 6)
        for variant in ("taylor", "hermite"):
            _, d = cfm_defect(EXPMID_AS_CFM, prob, 0.0, 0.3, u, variant=variant)
            assert np.linalg.norm(d) <= 1e-13

    def test_u_next_matches_plain_step(self, zener):
        u = zener.initial_state()
        u_next, _ = cfm_defect(EXPMID_AS_CFM, zener, 0.0, 0.1, u)
        assert np.array_equal(u_next, step_exp_midpoint(zener, 0.0, 0.1, u))

    @pytest.mark.parametrize("variant", ["taylor", "hermite"])
    def test_matches_single_stage_cfm_machinery(self, zener, variant):
        # one midpoint node makes Bcheck vanish, so the generic machinery
        # collapses to the exact midpoint defect
        u = zener.initial_state()
        d_exact = expmid_defect(zener, 0.0, 0.1, u)
        _, d_cfm = cfm_defect(EXPMID_AS_CFM, zener, 0.0, 0.1, u, variant=variant)
        assert np.linalg.norm(d_exact - d_cfm) <= 1e-12 * np.linalg.norm(d_exact)


class TestCfmDefect:
    def test_bcheck_midpoint_node_is_zero(self, zener):
        assert np.linalg.norm(cfm_bcheck(EXPMID_AS_CFM, zener, 0.0, 0.1, 1)) == 0.0

    def test_bcheck_constant_generator_is_zero(self):
        rng = np.random.default_rng(3)
        prob = ConstantLinear(random_skew_hermitian(rng, 5))
        for j in (1, 2):
            assert np.linalg.norm(cfm_bcheck(CF4, prob, 0.0, 0.2, j)) == 0.0

    def test_bcheck_zero_step_limit(self, zener):
        # at tau = 0 the stage derivative is Y_j A'(t0)
        for j in (1, 2):
            y = sum(
                a * (c - 0.5) for a, c in zip(CF4.weights[j - 1], CF4.nodes)
            )
            expected = y * zener.dA(0.3)
            got = cfm_bcheck(CF4, zener, 0.3, 0.0, j)
            assert np.linalg.norm(got - expected) <= 1e-14 * np.linalg.norm(expected)

    def test_bcheck_stage_bounds(self, zener):
        with pytest.raises(ValueError):
            cfm_bcheck(CF4, zener, 0.0, 0.1, 0)
        with pytest.raises(ValueError):
            cfm_bcheck(CF4, zener, 0.0, 0.1, 3)

    @pytest.mark.parametrize("variant", ["taylor", "hermite"])
    def test_constant_generator_zero_defect(self, variant):
        rng = np.random.default_rng(4)
        prob = ConstantLinear(random_skew_hermitian(rng, 5))
        u = random_state(rng, 5)
        _, d = cfm_defect(CF4, prob, 0.0, 0.4, u, variant=variant)
        assert np.linalg.norm(d) <= 1e-13

    @pytest.mark.parametrize("variant", ["taylor", "hermite"])
    def test_u_next_matches_plain_step(self, zener, variant):
        u = zener.initial_state()
        plain = step_cfm(CF4, zener, 0.0, 0.25, u)
        u_next, _ = cfm_defect(CF4, zener, 0.0, 0.25, u, variant=variant)
        assert np.array_equal(u_next, plain)

    def test_variant_difference_vanishes_at_high_order(self, zener):
        u = zener.initial_state()
        taus = [0.5 / 2**i for i in range(4)]
        diffs = []
        for tau in taus:
            _, dt_ = cfm_defect(CF4, zener, 0.0, tau, u, variant="taylor")
            _, dh = cfm_defect(CF4, zener, 0.0, tau, u, variant="hermite")
            diffs.append(np.linalg.norm(dt_ - dh))
        assert fit_slope(taus, diffs) >= 5.85

    def test_unknown_variant(self, zener):
        with pytest.raises(ValueError):
            cfm_defect(CF4, zener, 0.0, 0.1, zener.initial_state(), variant="pade")


class TestMagnus4Defect:
    def test_constant_generator_zero_defect(self):
        rng = np.random.default_rng(5)
        prob = ConstantLinear(random_skew_hermitian(rng, 5))
        u = random_state(rng, 5)
        for variant in ("taylor", "hermite"):
            _, d = magnus4_defect(prob, 0.0, 0.4, u, variant=variant)
            assert np.linalg.norm(d) <= 1e-13

    @pytest.mark.parametrize("variant", ["taylor", "hermite"])
    def test_u_next_matches_plain_step(self, zener, variant):
        u = zener.initial_state()
        plain = step_magnus4(zener, 0.0, 0.25, u)
        u_next, _ = magnus4_defect(zener, 0.0, 0.25, u, variant=variant)
        assert np.array_equal(u_next, plain)

    def test_bcheck_vanishes_linearly(self, zener):
        taus = [0.1 / 2**i for i in range(4)]
        norms = [np.linalg.norm(magnus4_bcheck(zener, 0.0, tau)) for tau in taus]
        slope = fit_slope(taus, norms)
        assert 0.85 <= slope <= 1.3

    def test_taylor_variant_deviation_order(self, zener):
        from symdefect.control import reference_solve

        u = zener.initial_state()
        taus = [0.25 / 2**i for i in range(4)]
        devs = []
        for tau in taus:
            u_next, d = magnus4_defect(zener, 0.0, tau, u, variant="taylor")
            ref = reference_solve(zener, 0.0, tau, u, tol=1e-12)
            devs.append(np.linalg.norm((tau / 5.0) * d - (u_next - ref)))
        assert abs(fit_slope(taus, devs) - 7.0) <= 0.3


class TestDefectConsistency:
    def test_imr_defect_norm_scales_at_order_p(self):
        prob = ScalarQuadratic()
        u = np.array([1.0 + 0j])
        taus = [0.1 / 2**i for i in range(5)]
        norms = [np.linalg.norm(imr_defect(prob, tau, u)[1]) for tau in taus]
        assert abs(pair_orders(taus, norms)[-1] - 2.0) <= 0.15

    def test_cf4_defect_norm_scales_at_order_p(self, zener):
        u = zener.initial_state()
        taus = [0.25 / 2**i for i in range(5)]
        norms = [
            np.linalg.norm(cfm_defect(CF4, zener, 0.0, tau, u)[1]) for tau in taus
        ]
        assert abs(pair_orders(taus, norms)[-1] - 4.0) <= 0.15


class TestCorrectedScheme:
    def test_near_self_adjointness_order(self):
        # corrected midpoint rule: round-trip residual O(tau^(2p+2)) = O(tau^6)
        prob = ScalarQuadratic()
        taus = [0.1 / 2**i for i in range(5)]
        residuals = []
        for tau in taus:
            u = np.array([1.0 + 0j])
            u1, d1 = imr_defect(prob, tau, u)
            c1 = u1 - (tau / 3.0) * d1
            u2, d2 = imr_defect(prob, -tau, c1)
            c2 = u2 - (-tau / 3.0) * d2
            residuals.append(abs(c2[0] - 1.0))
        assert abs(fit_slope(taus, residuals) - 6.0) <= 0.15

    def test_corrected_strang_local_order(self, nls):
        u = nls.initial_state()
        taus = [1.563e-2 / 2**i for i in range(4)]
        errs = []
        for tau in taus:
            u_next, d = strang_defect(nls, tau, u)
            corrected = u_next - (tau / 3.0) * d
            errs.append(np.linalg.norm(corrected - nls.exact_state(tau)))
        assert abs(fit_slope(taus, errs) - 5.0) <= 0.15
