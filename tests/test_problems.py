"""Problem definitions: subflows, derivatives, closed forms, invariants."""

import copy
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from symdefect.control import AdaptiveConfig, adaptive_integrate, make_method
from symdefect.errors import StepFailure
from symdefect.linalg import fft, ifft
from symdefect.problems import (
    CubicNLS,
    LinearFamily,
    RosenZener,
    ToySplit,
    _unit_phase,
    make_problem,
    soliton_value,
)
from symdefect.schemes import EMB43AKS, CFMScheme, step_splitting

from oracles import (
    ConstantLinear,
    RandomFamily,
    ZeroGeneratorFamily,
    dense_combination,
    dense_norm_1,
    fd_slope,
    fit_slope,
    nls_dflow_B_and_flow_pair,
    nls_flow_A_full,
    rk4,
    stage_coefficients_numpy,
)


class TestSoliton:
    def test_origin(self):
        assert soliton_value(0.0, 0.0) == pytest.approx(2.0)

    def test_quarter_phase(self):
        # phase 3t/2 = pi/2 makes the value purely imaginary
        expected = 2j / np.cosh(2.0 * np.pi / 3.0)
        assert abs(soliton_value(0.0, np.pi / 3.0) - expected) < 1e-15

    def test_modulus_symmetry(self):
        assert abs(soliton_value(0.5, 0.25)) == pytest.approx(
            abs(soliton_value(-0.5, -0.25)), abs=1e-15
        )


@pytest.fixture(scope="module")
def nls():
    return CubicNLS()


class TestCubicNLS:
    def test_grid(self, nls):
        assert nls.n == 512 and nls.x[0] == -16.0
        spacings = np.diff(nls.x)
        assert np.allclose(spacings, spacings[0])
        assert nls.norm_weight == pytest.approx(0.25)

    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            CubicNLS(n=500)

    def test_unknown_initial_condition(self):
        with pytest.raises(ValueError, match="unknown initial condition 'bogus'"):
            CubicNLS(initial="bogus")

    @pytest.mark.parametrize(
        "n", [4.0, "8", True, None, 8.5], ids=["float", "str", "bool", "none", "fraction"])
    def test_non_integer_grid_size_is_a_value_error(self, n):
        with pytest.raises(ValueError, match="grid size must be an integer power of two"):
            CubicNLS(n=n)

    @pytest.mark.parametrize(
        "carriers, centers",
        [((1.0,), (5.0, -5.0)), ((1.0, -3.0), (5.0,)), ((), ()), ((np.nan, -3.0), (5.0, -5.0)),
         ((1.0, -3.0), (5.0, np.inf))],
        ids=["short-carriers", "short-centers", "empty", "nan-carrier", "inf-center"],
    )
    def test_malformed_solitons_are_value_errors(self, carriers, centers):
        # a short tuple would drop a soliton through zip, a NaN poison the state
        with pytest.raises(ValueError, match="carriers and centers must be non-empty"):
            CubicNLS(n=64, initial="two-soliton", carriers=carriers, centers=centers)

    def test_flow_b_at_zero_state(self, nls):
        z = np.zeros(nls.n, dtype=np.complex128)
        assert np.array_equal(nls.flow_B(1.0, z), z)

    def test_flow_b_scalar_mode(self, nls):
        # u' = i|u|^2 u with |u| conserved: closed form exp(4i t) * 2
        u = np.zeros(nls.n, dtype=np.complex128)
        u[0] = 2.0
        out = nls.flow_B(1.0, u)
        assert abs(out[0] - 2.0 * np.exp(4.0j)) < 1e-13
        oracle = rk4(lambda w: 1j * np.abs(w) ** 2 * w, np.array([2.0 + 0j]), 1.0, 10_000)
        assert abs(out[0] - oracle[0]) <= 1e-10

    def test_flow_b_conserves_modulus(self, nls):
        rng = np.random.default_rng(1)
        u = rng.normal(size=nls.n) + 1j * rng.normal(size=nls.n)
        out = nls.flow_B(0.37, u)
        assert np.allclose(np.abs(out), np.abs(u), rtol=1e-14, atol=0)

    def test_flow_a_norm_conservation(self, nls):
        rng = np.random.default_rng(2)
        u = rng.normal(size=nls.n) + 1j * rng.normal(size=nls.n)
        assert abs(np.linalg.norm(nls.flow_A(0.4, u)) - np.linalg.norm(u)) <= (
            1e-12 * np.linalg.norm(u)
        )

    def test_flow_a_semigroup(self, nls):
        rng = np.random.default_rng(3)
        u = rng.normal(size=nls.n) + 1j * rng.normal(size=nls.n)
        once = nls.flow_A(0.7, u)
        twice = nls.flow_A(0.3, nls.flow_A(0.4, u))
        assert np.linalg.norm(once - twice) <= 1e-12 * np.linalg.norm(u)

    def test_flow_a_zero_time(self, nls):
        rng = np.random.default_rng(4)
        u = rng.normal(size=nls.n) + 1j * rng.normal(size=nls.n)
        assert np.linalg.norm(nls.flow_A(0.0, u) - u) <= 1e-14 * np.linalg.norm(u)

    def test_dflow_b_matches_finite_differences(self, nls):
        rng = np.random.default_rng(5)
        u = rng.normal(size=nls.n) + 1j * rng.normal(size=nls.n)
        v = rng.normal(size=nls.n) + 1j * rng.normal(size=nls.n)
        slope = fd_slope(
            lambda a, b: nls.dflow_B(0.5, a, b), lambda a: nls.flow_B(0.5, a), u, v
        )
        assert slope >= 1.9

    def test_df_matches_finite_differences(self, nls):
        # larger epsilons: the spectral A-part amplifies the cancellation
        # noise of centered differences by k_max^2
        rng = np.random.default_rng(6)
        u = rng.normal(size=nls.n) + 1j * rng.normal(size=nls.n)
        v = rng.normal(size=nls.n) + 1j * rng.normal(size=nls.n)
        slope = fd_slope(nls.df, nls.f, u, v, epsilons=(1e-2, 1e-3, 1e-4))
        assert slope >= 1.9

    def test_semidiscrete_residual_of_exact_solution(self, nls):
        # d/dt soliton = (3i/2 - 2 tanh(2(t+x))) soliton, here at t = 0
        u0 = nls.initial_state()
        psi_t = (1.5j - 2.0 * np.tanh(2.0 * nls.x)) * u0
        assert np.linalg.norm(nls.f(u0) - psi_t) <= 1e-9

    def test_two_soliton_initial_state(self):
        prob = CubicNLS(initial="two-soliton")
        u0 = prob.initial_state()
        expected = 2.0 * np.exp(-1j * prob.x) / np.cosh(2.0 * (prob.x - 5.0))
        expected += 2.0 * np.exp(3j * prob.x) / np.cosh(2.0 * (prob.x + 5.0))
        assert np.linalg.norm(u0 - expected) <= 1e-13 * np.linalg.norm(expected)
        with pytest.raises(ValueError):
            prob.exact_state(0.0)


CRITERION_9 = AdaptiveConfig(tol=1e-10, tau_init=1e-2, tau_min=1e-8, tau_max=0.25)


def random_stack(seed, n=64):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))


class TestPhaseMemo:
    """CubicNLS keeps the A-phases exp(-i t k^2 / 2) of its last few sub-steps t
    and the factors -i w k^2 / 2 of its last few stage weights w in two LRU
    caches, ``_phase`` and ``_factor``; their ``cache_info()`` counts the work."""

    @pytest.mark.parametrize("weight", [0.0, -0.36], ids=["state", "weighted-stack"])
    def test_hit_is_bitwise_a_miss(self, weight):
        stack = random_stack(7)
        u = stack if weight else stack[0]
        warm = CubicNLS(n=64)
        first = warm.flow_A(0.27, u, weight)
        hit = warm.flow_A(0.27, u, weight)
        assert warm._phase.cache_info()[:2] == (1, 1)  # (hits, misses): 0.27 was kept
        miss = CubicNLS(n=64).flow_A(0.27, u, weight)
        assert np.array_equal(first, miss) and np.array_equal(hit, miss)
        if not weight:  # the phase-first product the A-flow made before it kept phases
            assert np.array_equal(hit, ifft(np.exp(-0.27j * warm._half_ksq) * fft(u)))

    def test_phases_are_read_only_and_never_returned(self):
        nls = CubicNLS(n=64)
        stack = random_stack(8)
        outputs = [nls.flow_A(0.1, stack[0]), nls.flow_A(0.1, stack, 0.5), nls.flow_A(0.1, stack[1])]
        assert nls._phase.cache_info().currsize == 1
        phase = nls._phase(0.1)
        assert not phase.flags.writeable
        with pytest.raises(ValueError):
            phase[0] = 0.0
        assert not any(np.shares_memory(out, phase) for out in outputs)

    def test_memo_stays_bounded(self):
        nls = CubicNLS(n=64)
        u = random_stack(9)[0]
        assert nls._phase.cache_info().maxsize == nls._factor.cache_info().maxsize == CubicNLS._PHASE_MEMO
        for i in range(100):
            nls.flow_A(1e-3 * (i + 1), u)
            assert nls._phase.cache_info().currsize <= CubicNLS._PHASE_MEMO
        # a repeated tableau's sub-steps all stay: emb43aks has 3 per step size
        nls._phase.cache_clear()
        for tau in (0.1, 0.05):
            for a in EMB43AKS.a:
                nls.flow_A(a * tau, u)
        assert nls._phase.cache_info().currsize == 6
        # and a joined run's 4 (a_1 tau, a_2 tau, a_3 tau and 2 a_1 tau) at two step
        # sizes, 0.03 so that no 2 a_1 tau is the other's a_1 tau
        nls._phase.cache_clear()
        for tau in (0.1, 0.03):
            step_splitting(EMB43AKS, nls, tau, u, 3)
        assert nls._phase.cache_info().currsize == 8 == CubicNLS._PHASE_MEMO

    def test_eviction_is_least_recently_used(self):
        nls = CubicNLS(n=64)
        u = random_stack(9)
        times = [1e-3 * (i + 1) for i in range(20)]
        for t in times:
            nls.flow_A(t, u, t + 1.0)
        # the last 8 stay, oldest out first: 8 hits in kept order, then a new key
        # evicts the oldest of them, which misses again
        for memo, keys in ((nls._phase, times), (nls._factor, [t + 1.0 for t in times])):
            misses = memo.cache_info().misses
            for key in keys[-CubicNLS._PHASE_MEMO :]:
                memo(key)
            assert memo.cache_info().misses == misses
            memo(-1.0)
            memo(keys[-CubicNLS._PHASE_MEMO])
            assert memo.cache_info().misses == misses + 2
        # a hit renews a key: the oldest, once read, outlives the next one in
        nls.flow_A(times[0], u)
        nls.flow_A(times[1], u)
        nls.flow_A(times[0], u)
        for t in times[2 : 2 + CubicNLS._PHASE_MEMO - 1]:
            nls.flow_A(t, u)
        misses = nls._phase.cache_info().misses
        nls.flow_A(times[0], u)
        assert nls._phase.cache_info().misses == misses
        nls.flow_A(times[1], u)
        assert nls._phase.cache_info().misses == misses + 1
        # so a trial's sub-steps a_1 tau, a_2 tau, a_3 tau, a_2 tau, a_1 tau all
        # stay once made, however full the memo was: 3 phases a trial
        misses = nls._phase.cache_info().misses
        for tau in (0.1 / (i + 1) for i in range(20)):
            for a in EMB43AKS.a:
                nls.flow_A(a * tau, u, a)
        assert nls._phase.cache_info().misses - misses == 3 * 20

    def test_factors_are_read_only_never_returned_and_bounded(self):
        nls = CubicNLS(n=64)
        stack = random_stack(11)
        outputs = [nls.flow_A(0.1, stack, w) for w in (0.5, -0.25, 0.5)]
        assert nls._factor.cache_info()[:2] == (1, 2)  # (hits, misses): 0.5 and -0.25, kept
        for factor in map(nls._factor, (0.5, -0.25)):
            assert not factor.flags.writeable
            with pytest.raises(ValueError):
                factor[0] = 0.0
            assert not any(np.shares_memory(out, factor) for out in outputs)
        for i in range(100):
            nls.flow_A(0.1, stack, 1e-3 * (i + 1))
            assert nls._factor.cache_info().currsize <= CubicNLS._PHASE_MEMO

    @pytest.mark.parametrize("n", [1, 2, 64, 512])
    def test_factor_hit_is_bitwise_a_miss(self, n):
        warm = CubicNLS(n=n)
        for stack in phase_inputs((2, n), n):  # the all -0 - 0j state among them
            for w in STAGE_WEIGHTS:
                miss = CubicNLS(n=n).flow_A(0.27, stack, w).tobytes()
                first = warm.flow_A(0.27, stack, w).tobytes()
                assert first == miss == warm.flow_A(0.27, stack, w).tobytes(), w
        weights = [w for w in STAGE_WEIGHTS if w]
        assert warm._factor.cache_info().misses == warm._factor.cache_info().currsize == len(weights)
        for w in weights:  # the product each stage formed before
            assert warm._factor(w).tobytes() == ((-1j * w) * warm._half_ksq).tobytes(), w

    def test_concurrent_readers_agree_with_a_fresh_problem(self):
        # more sub-steps and weights than the memos hold, so the threads evict
        # under each other, switched every microsecond; each result is still
        # that of a fresh problem, and no eviction raises. On a 2-point grid the
        # memo code is most of the time, so a switch often lands inside it: with
        # an eviction by next(iter(memo)) this test raised "dictionary changed
        # size during iteration" in 10 of 10 runs (2-CPU x86-64, Python 3.11)
        nls, stack = CubicNLS(n=2), random_stack(10, n=2)
        times = [0.01 * (i + 1) for i in range(3 * CubicNLS._PHASE_MEMO)]
        cases = [(t, stack[0], 0.0) for t in times] + [(t, stack, 1.0 - t) for t in times]
        expected = [CubicNLS(n=2).flow_A(*case).tobytes() for case in cases]

        def run(offset):
            order = list(range(offset, len(cases))) + list(range(offset))
            return all(nls.flow_A(*cases[i]).tobytes() == expected[i] for _ in range(100) for i in order)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=3) as pool:
                assert all(pool.map(run, (0, 5, 11)))
        finally:
            sys.setswitchinterval(interval)

    def test_an_adaptive_trial_makes_three_phases_and_no_factor_twice(self):
        # criterion 9's run to t = 1: each trial's 5 A-stages use 3 sub-steps and
        # 3 stage weights; the caches count the phases and weight factors the run computes
        nls = CubicNLS(initial="two-soliton")
        _, trace = adaptive_integrate(
            nls, make_method("emb43aks"), CRITERION_9, 0.0, 1.0, nls.initial_state())
        assert len(trace) > 100
        assert nls._phase.cache_info().misses == 3 * len(trace)
        assert 0 < nls._factor.cache_info().misses <= 3 < nls._factor.cache_info().hits

    def test_a_warm_problem_runs_bitwise_as_a_cold_one(self):
        # a problem whose memos an earlier run filled, the first trial's phases and
        # factors among them, gives the adaptive trace and final state of a new one
        method = make_method("emb43aks")

        def run(nls):
            u, trace = adaptive_integrate(nls, method, CRITERION_9, 0.0, 0.5, nls.initial_state())
            return u.tobytes(), trace

        warm = CubicNLS(initial="two-soliton")
        adaptive_integrate(warm, method, CRITERION_9, 1.0, 1.5, warm.initial_state())
        method.step_with_defect(warm, 0.0, CRITERION_9.tau_init, warm.initial_state())
        assert warm._phase.cache_info().currsize == CubicNLS._PHASE_MEMO
        assert warm._factor.cache_info().currsize == 3
        assert run(warm) == run(CubicNLS(initial="two-soliton"))


STAGE_SIZES = [1, 2, 4, 64, 512]
STAGE_TIMES = [-0.3, 0.0, -0.0, 1e-3, 0.27, 40.0]
STAGE_WEIGHTS = [0.0, -0.23, 0.86]


def phase_inputs(shape, seed):
    """Random complex states for the phase kernels: plain; with every other
    entry -0 - 0j, so that a B-phase argument is +-0 (the sign of t) and the
    phase's signed zero shows in its product; all -0 - 0j, so that the A-phase's
    at k = 0 shows too; and scaled so that t |u|^2 reaches 1e10 and 1e100,
    short of any overflow."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    zeros = u.copy()
    zeros[..., ::2] = complex(-0.0, -0.0)
    return [u, zeros, np.full(shape, complex(-0.0, -0.0)), 1e5 * u, 1e50 * u]


class TestStageKernelsBitwise:
    """The CubicNLS stage kernels against the two-product, full-spectrum
    forms they replace (tests/oracles.py), bit for bit."""

    def test_half_ksq_is_mirror_symmetric(self):
        # the half-spectrum A-phase rests on _half_ksq[j] == _half_ksq[n - j]
        for n in (2**k for k in range(1, 15)):
            h = CubicNLS(n=n)._half_ksq
            assert np.array_equal(h[1:], h[:0:-1]), n

    def test_unit_phase_is_numpys_complex_exp(self):
        # the premise of the NLS phases: cos and sin give numpy's exp(i y) byte
        # for byte at every magnitude; a libm or SIMD dispatch that breaks it fails here
        rng = np.random.default_rng(28)
        y = 10.0 ** rng.uniform(-300, 300, 100_000) * rng.choice((-1.0, 1.0), 100_000)
        y = np.concatenate((y, np.logspace(-300, 300, 601), -np.logspace(-300, 300, 601)))
        for shape in (y.shape, (2, -1)):
            assert _unit_phase(y.reshape(shape)).tobytes() == np.exp(1j * y).tobytes(), shape
        assert _unit_phase(np.float64(-2.5)).tobytes() == np.exp(-2.5j).tobytes()

    @pytest.mark.parametrize("n", STAGE_SIZES)
    def test_flow_a_matches_the_full_spectrum_phase(self, n):
        # bytes, not np.array_equal: a phase with a flipped signed zero fails too
        nls = CubicNLS(n=n)
        for stack in phase_inputs((2, n), n):
            for t in STAGE_TIMES:
                cases = [(stack[1], 0.0)] + [(stack, w) for w in STAGE_WEIGHTS]
                for u, weight in cases:
                    expected = nls_flow_A_full(nls, t, u, weight).tobytes()
                    miss = CubicNLS(n=n).flow_A(t, u, weight)
                    hit = nls.flow_A(t, u, weight)  # a memo hit from each t's second case on
                    assert miss.tobytes() == expected == hit.tobytes(), (t, weight)

    @pytest.mark.parametrize("n", STAGE_SIZES)
    @pytest.mark.parametrize("rows", [None, 2], ids=["vector", "stack"])
    def test_b_stage_matches_the_two_products(self, n, rows):
        shape = (n,) if rows is None else (rows, n)
        rng = np.random.default_rng(n + 1)
        v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        nls = CubicNLS(n=n)
        for u in phase_inputs(shape, n):
            for t in STAGE_TIMES:
                for weight in STAGE_WEIGHTS:
                    out = nls.dflow_B_and_flow(t, u, v, weight)
                    moved, flowed = nls_dflow_B_and_flow_pair(t, u, v, weight)
                    assert out.shape == (2, *shape)
                    assert out.tobytes() == moved.tobytes() + flowed.tobytes(), (t, weight)
                    assert nls.flow_B(t, u).tobytes() == flowed.tobytes(), t

    def test_b_stage_sizes_its_stack_from_u(self):
        # pointwise in u and v: a (3, 64) stack on a problem of another length
        rng = np.random.default_rng(11)
        u = rng.normal(size=(3, 64)) + 1j * rng.normal(size=(3, 64))
        v = rng.normal(size=(3, 64)) + 1j * rng.normal(size=(3, 64))
        nls = CubicNLS(n=512)
        for weight in (0.0, -0.23):
            moved, flowed = nls.dflow_B_and_flow(0.27, u, v, weight)
            expected = nls_dflow_B_and_flow_pair(0.27, u, v, weight)
            assert np.array_equal(moved, expected[0]) and np.array_equal(flowed, expected[1])
        assert np.array_equal(nls.dflow_B(0.27, u, v), nls_dflow_B_and_flow_pair(0.27, u, v)[0])


@pytest.fixture(scope="module")
def zener():
    return RosenZener()


class TestRosenZener:
    def test_envelope_values_at_zero(self, zener):
        f1, f2 = zener.coefficients(0.0)
        assert f1 == pytest.approx(1.0)
        assert f2 == pytest.approx(0.0)

    def test_generator_at_zero(self, zener):
        sigma1_block = np.zeros((zener.dim, zener.dim), dtype=np.complex128)
        k = zener.k
        sigma1_block[:k, k:] = np.eye(k)
        sigma1_block[k:, :k] = np.eye(k)
        assert np.linalg.norm(zener.A(0.0) + 1j * sigma1_block) < 1e-14

    def test_dimensions(self, zener):
        assert zener.dim == 100
        assert zener.A(0.3).shape == (100, 100)
        assert np.array_equal(zener.initial_state(), np.ones(100))

    def test_da_matches_finite_differences(self, zener):
        t = 0.7
        exact = zener.dA(t)
        residuals = []
        epsilons = (1e-3, 1e-4, 1e-5)
        for eps in epsilons:
            approx = (zener.A(t + eps) - zener.A(t - eps)) / (2.0 * eps)
            residuals.append(np.linalg.norm(approx - exact))
        assert fit_slope(epsilons, residuals) >= 1.9

    @pytest.mark.parametrize("t", [0.0, 0.2, 0.5, 0.8, 1.0])
    def test_generator_skew_hermitian(self, zener, t):
        a = zener.A(t)
        h = 1j * a
        assert np.linalg.norm(h - h.conj().T) <= 1e-12 * np.linalg.norm(h)

    @pytest.mark.parametrize(
        "params",
        [
            {"pulse_duration": 0.0},
            {"pulse_duration": np.inf},
            {"k": 2.5},
            {"k": 0},
            {"k": -1},
            {"k": np.nan},
            {"omega": np.nan},
            {"amplitude": -np.inf},
            {"k": True},
            {"k": np.True_},
        ],
        ids=["T0-zero", "T0-inf", "k-fraction", "k-zero", "k-negative", "k-nan", "omega-nan",
             "amplitude-inf", "k-bool", "k-numpy-bool"],
    )
    def test_malformed_parameters_are_value_errors(self, params):
        # a bool k used to build the k = 1 problem, as CubicNLS(n=True) does not
        with pytest.raises(ValueError, match="RosenZener requires a positive integer k"):
            RosenZener(**params)

    def test_a_whole_float_k_is_accepted(self):
        assert RosenZener(k=2.0).k == 2 and RosenZener(k=np.int64(3)).dim == 6

    def test_coefficients_are_the_closed_forms_bitwise(self):
        # cosh overflows only at |t / T0| >= 710, where sech is 0 or subnormal: the
        # samples there and below match the formulas under errstate, with no warning
        zener = RosenZener(omega=0.7, pulse_duration=0.5, amplitude=1.5)
        w, duration, amplitude = zener.omega, zener.pulse_duration, zener.amplitude
        for t in (0.0, 0.3, -2.0, 354.99, 355.0, -355.2, 356.0, 1e5, -1e300, np.nan):
            with np.errstate(over="ignore"):
                x = t / duration
                sech, slope = amplitude / np.cosh(x), np.tanh(x) / duration
            cos, sin = math.cos(w * t), math.sin(w * t)
            expected = np.array((sech * cos, sech * sin))
            slopes = np.array((sech * (-w * sin - cos * slope), sech * (w * cos - sin * slope)))
            assert zener.coefficients(t).tobytes() == expected.tobytes()
            assert zener.dcoefficients(t).tobytes() == slopes.tobytes()


# one stage B_1 = A(t0 + tau), Bcheck_1 = A'(t0 + tau) / 2: each drawn vector as one stage
_PROBE = CFMScheme("probe", (1.0,), ((1.0,),), 2)


def _families():
    rng = np.random.default_rng(40)
    return [RosenZener(), RosenZener(k=3), RandomFamily(rng, 6), ZeroGeneratorFamily(rng, 5),
            ConstantLinear(np.zeros((3, 3)))]


FAMILY_IDS = ["rosen-zener", "rosen-zener-k3", "random", "zero-generator", "all-zero"]


class TestLinearFamily:
    """A family builds from a non-empty stack of equal n x n finite generators
    and writes its combinations on the basis's support only: bit for bit the
    dense products of tests/oracles.py, zero off the support."""

    @pytest.mark.parametrize(
        "generators",
        [
            [],
            np.ones((0, 2, 2)),
            [np.ones((0, 0))],
            [np.ones((2, 3))],
            [np.ones(3)],
            [np.eye(2), np.eye(3)],
            [np.eye(2), np.full((2, 2), np.nan)],
            [np.array([[0.0, np.inf], [0.0, 0.0]])],
        ],
        ids=["empty", "empty-stack", "n-zero", "not-square", "vector", "mixed-sizes", "nan", "inf"],
    )
    def test_malformed_generators_are_value_errors(self, generators):
        with pytest.raises(ValueError, match="non-empty stack of equal n x n finite matrices"):
            LinearFamily(generators)

    @staticmethod
    def coefficient_vectors(family, rng):
        m, k = len(family.generators), len(family.basis)
        sampled = [f(t) for t in (0.0, 0.3, -1.7) for f in (family.coefficients, family.dcoefficients)]
        drawn = [rng.normal(size=m), rng.normal(size=k), rng.normal(size=k) + 1j * rng.normal(size=k)]
        zeros = [np.zeros(k), np.concatenate(([0.0], -rng.uniform(1.0, 2.0, size=k - 1)))]
        return sampled + drawn + zeros

    @pytest.mark.parametrize("family", _families(), ids=FAMILY_IDS)
    def test_combination_is_the_dense_product_bitwise(self, family):
        rng = np.random.default_rng(41)
        for coef in self.coefficient_vectors(family, rng):
            expected = dense_combination(family, coef).tobytes()
            assert family.combination(coef).tobytes() == expected
        assert family.A(0.3).tobytes() == dense_combination(family, family.coefficients(0.3)).tobytes()

    @pytest.mark.parametrize("family", _families(), ids=FAMILY_IDS)
    def test_scale_is_the_dense_product_and_its_1_norm(self, family):
        # stages writes B_j, tau B_j and Bcheck_j into the same slots each time,
        # so they stay zero off the support: B_j and Bcheck_j bitwise the dense
        # products, tau B_j bitwise on the support; off it a negative tau leaves
        # +0 where the dense product has -0, so tau B_j is compared as numbers there.
        # A copy of the family samples each drawn pair (b, c) of equal length as its
        # coefficients and slopes, which a one-node tableau at c_1 = 1 with weight 1
        # turns into one stage of coefficients 0 + 1.0 b and 0.0 + 0.5 c
        rng = np.random.default_rng(42)
        vectors = self.coefficient_vectors(family, rng)
        for i, b in enumerate(vectors):  # c another drawn vector of b's length, none for the first
            mates = [v for j, v in enumerate(vectors) if len(v) == len(b) and j != i]
            c = mates[-i % len(mates)] if i else None
            probe = copy.copy(family)
            probe.coefficients, probe.dcoefficients = (lambda t: b), (lambda t: c)
            for tau in (0.25, -0.25, 1.0 / 64.0, 0.0, -3.0):
                (bj, plan, bcheck), = probe.stages(_PROBE, 0.0, tau, c is not None)
                (b_np, c_np), = stage_coefficients_numpy(_PROBE, probe, 0.0, tau, c is not None)
                assert bj.tobytes() == dense_combination(family, b_np).tobytes()
                if c is None:
                    assert bcheck is None
                else:
                    assert bcheck.tobytes() == dense_combination(family, c_np).tobytes()
                expected = np.multiply(dense_combination(family, b_np), tau)
                assert np.array_equal(plan.matrix, expected)
                nonzero = expected != 0
                assert plan.matrix[nonzero].tobytes() == expected[nonzero].tobytes()
                assert np.float64(plan.norm).tobytes() == np.float64(dense_norm_1(expected)).tobytes()

    def test_rosen_zener_support(self):
        # two generators and their bracket touch 492 of the 10,000 entries
        assert np.count_nonzero(np.any(RosenZener().basis != 0, axis=0)) == 492


class TestToySplit:
    def test_flow_b_values(self):
        toy = ToySplit()
        assert toy.flow_B(1.0, np.array([0.0 + 0j]))[0] == 0.0
        assert toy.flow_B(1.0, np.array([1.0 + 0j]))[0] == pytest.approx(2.0)

    def test_exact_solution_against_rk4(self):
        toy = ToySplit()
        u0 = np.array([1.0 + 0j])
        oracle = rk4(toy.f, u0, 0.1, 100_000)
        assert abs(toy.exact_solution(0.1, u0)[0] - oracle[0]) <= 1e-10

    def test_subflow_derivatives(self):
        toy = ToySplit()
        u = np.array([1.2 + 0.1j])
        v = np.array([0.9 - 0.6j])
        # linear part: A u = lam u, and its flow transports a stack row-wise
        assert np.array_equal(toy.apply_A(u), toy.lam * u)
        stack = toy.flow_A(0.2, np.stack((u, v)))
        assert np.array_equal(stack[1], toy.flow_A(0.2, v))
        slope_b = fd_slope(
            lambda a, b: toy.dflow_B(0.8, a, b), lambda a: toy.flow_B(0.8, a), u, v
        )
        assert slope_b >= 1.9

    def test_df_exact_for_quadratic_field(self):
        # f is quadratic, so centered differences are exact up to roundoff
        toy = ToySplit()
        u = np.array([1.2 + 0.1j])
        v = np.array([0.9 - 0.6j])
        eps = 1e-4
        fd = (toy.f(u + eps * v) - toy.f(u - eps * v)) / (2.0 * eps)
        assert abs(fd[0] - toy.df(u, v)[0]) <= 1e-11

    def test_subflow_semigroup(self):
        toy = ToySplit()
        u = np.array([0.9 + 0j])
        for flow in (toy.flow_A, toy.flow_B):  # a joined splitting run needs the A-flow's
            direct = flow(0.5, u)
            chained = flow(0.2, flow(0.3, u))
            assert abs(direct[0] - chained[0]) <= 1e-14

    def test_zero_time_flows_are_identity(self):
        toy = ToySplit()
        u = np.array([0.7 - 0.4j])
        assert np.array_equal(toy.flow_B(0.0, u), u)

    def test_pole_raises(self):
        toy = ToySplit()
        with pytest.raises(StepFailure):
            toy.flow_B(2.0, np.array([1.0 + 0j]))


class TestRegistry:
    @pytest.mark.parametrize(
        "name, kind",
        [
            ("nls-soliton", CubicNLS),
            ("nls-two-soliton", CubicNLS),
            ("rosen-zener", RosenZener),
            ("toy-split", ToySplit),
        ],
    )
    def test_names(self, name, kind):
        assert isinstance(make_problem(name), kind)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_problem("heat-equation")
