"""Problem definitions: subflows, derivatives, closed forms, invariants."""

import numpy as np
import pytest

from symdefect.errors import StepFailure
from symdefect.problems import CubicNLS, RosenZener, ToySplit, make_problem, soliton_value

from oracles import fd_slope, fit_slope, rk4


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


@pytest.fixture(scope="module")
def zener():
    return RosenZener()


class TestRosenZener:
    def test_envelope_values_at_zero(self, zener):
        assert zener.f1(0.0) == pytest.approx(1.0)
        assert zener.f2(0.0) == pytest.approx(0.0)

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
        direct = toy.flow_B(0.5, u)
        chained = toy.flow_B(0.2, toy.flow_B(0.3, u))
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
