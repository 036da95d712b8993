"""The benchmark's workloads: inputs from a seed, one pass, and its checks.

A workload is built from ``--seed``. Seed 0 runs the published inputs.
Any other seed multiplies each free input the program receives by a
factor drawn uniformly from [1 - JITTER, 1 + JITTER]; the amount of work
stays the same. ``nls-tables`` has no free inputs: the soliton tables are
pinned by the closed-form solution, so every seed runs the published case.

``setup()`` builds the problem and methods and makes one warm-up step of
each method. ``operations()`` lists the operations of one pass (a table
study, an adaptive run or an oracle evaluation); running one returns an
:class:`Op` with the failures its checks found. Calls into the package go
through module attributes (``cli.run_local_study``, ...) so that a
:class:`tracer.Tracer` installed on those attributes sees them.

``small=True`` runs a reduced pass (a subset of the operations, a shorter
adaptive span) for the benchmark's own tests.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from symdefect import cli, control, problems

import published as pub

JITTER = 0.03


@dataclass
class Op:
    """Outcome of one operation: its label, the failures its checks found
    and a digest of its output rows."""

    label: str
    failures: list = field(default_factory=list)
    digest: str = ""


def _op(label, compute, check, render=None):
    """An operation: ``(label, run)`` where ``run()`` computes, checks and
    returns an :class:`Op`; an exception is a failure of that operation."""
    render = render or cli.rows_to_csv

    def run():
        try:
            result = compute()
            failures = check(result)
        except Exception as exc:  # the benchmark records any failure and goes on
            return Op(label, [f"{type(exc).__name__}: {exc}"])
        return Op(label, failures, hashlib.sha256(render(result).encode()).hexdigest()[:16])

    return label, run


class Workload:
    name = ""

    def __init__(self, seed, small=False):
        self.small = small
        self.published = seed == 0
        self._rng = np.random.default_rng(seed)

    def _free(self, value):
        """A free input: as published for seed 0, jittered otherwise."""
        if self.published:
            return value
        return value * (1.0 + JITTER * self._rng.uniform(-1.0, 1.0))

    def inputs(self):
        """The free inputs this seed gives, for the run report."""
        return {}

    def operations(self):
        """The operations of one pass, as ``(label, run)`` pairs."""
        raise NotImplementedError


class NlsTables(Workload):
    """Criteria 1-3: Strang (7 levels) and emb43aks (5 levels) local and
    global ladders on the soliton, global to t = 0.125. Fixed-step FFT
    splitting; the only workload that runs strang_defect and an NLS
    reference solve by step doubling."""

    name = "nls-tables"

    def __init__(self, seed, small=False):
        super().__init__(seed, small)
        self.published = True  # no free inputs

    def setup(self):
        self.problem = problems.CubicNLS()
        self.strang = control.make_method("strang")
        self.emb = control.make_method("emb43aks")
        u0 = self.problem.initial_state()
        for method in (self.strang, self.emb):
            method.step_with_defect(self.problem, 0.0, 1e-2, u0)

    def operations(self):
        nls = self.problem
        ladder = cli.dyadic_ladder
        ops = [
            _op(
                "strang local",
                lambda: cli.run_local_study(nls, self.strang, ladder(3.125e-2, 7)),
                lambda rows: pub.check_local(rows[1:], pub.STRANG_NLS_LOCAL, 0.1,
                                             pub.ORDER_TOL_ASYMPTOTIC)
                + pub.check_flat_err_orders(rows[1:], pub.STRANG_NLS_LOCAL),
            ),
            _op(
                "strang global",
                lambda: cli.run_global_study(nls, self.strang, ladder(3.125e-2, 7), 0.125),
                lambda rows: pub.check_global(rows[1:], pub.STRANG_NLS_GLOBAL),
            ),
        ]
        if self.small:
            return ops
        return ops + [
            _op(
                "emb43aks local",
                lambda: cli.run_local_study(nls, self.emb, ladder(6.25e-2, 5)),
                lambda rows: pub.check_local(rows[1:], pub.EMB43_NLS_LOCAL, 0.1,
                                             pub.ORDER_TOL_ASYMPTOTIC)
                + pub.check_flat_err_orders(rows[1:], pub.EMB43_NLS_LOCAL),
            ),
            _op(
                "emb43aks global",
                lambda: cli.run_global_study(nls, self.emb, ladder(6.25e-2, 5), 0.125),
                lambda rows: pub.check_emb43_nls_global(rows[1:]),
            ),
        ]


class RzTables(Workload):
    """Criterion 4: expmid, cf4 Taylor/Hermite and magnus4 local and global
    ladders on Rosen-Zener. reference_solve, expm and commutator do most of
    the work and the FFT none. Free inputs: the field's omega, pulse
    duration and amplitude."""

    name = "rz-tables"

    LOCAL = [
        ("expmid", "hermite", 2.5e-1, 7, pub.EXPMID_RZ_LOCAL),
        ("cf4", "taylor", 1.0, 6, pub.CF4_TAYLOR_RZ_LOCAL),
        ("cf4", "hermite", 1.0, 6, pub.CF4_HERMITE_RZ_LOCAL),
        ("magnus4", "hermite", 1.0, 6, pub.MAGNUS4_RZ_LOCAL),
    ]
    GLOBAL = [
        ("expmid", "hermite", pub.EXPMID_RZ_GLOBAL),
        ("cf4", "taylor", pub.CF4_TAYLOR_RZ_GLOBAL),
        ("cf4", "hermite", pub.CF4_HERMITE_RZ_GLOBAL),
        ("magnus4", "hermite", pub.MAGNUS4_RZ_GLOBAL),
    ]

    def __init__(self, seed, small=False):
        super().__init__(seed, small)
        self.params = {
            "omega": self._free(0.5),
            "pulse_duration": self._free(1.0),
            "amplitude": self._free(1.0),
        }

    def inputs(self):
        return dict(self.params)

    def setup(self):
        self.problem = problems.RosenZener(**self.params)
        self.methods = {
            (name, variant): control.make_method(name, variant=variant)
            for name, variant, *_ in self.LOCAL
        }
        u0 = self.problem.initial_state()
        for method in self.methods.values():
            method.step_with_defect(self.problem, 0.0, 0.1, u0)

    def operations(self):
        rz = self.problem
        local = self.LOCAL[:1] if self.small else self.LOCAL
        glob = self.GLOBAL[:1] if self.small else self.GLOBAL
        ops = []
        for name, variant, tau_max, levels, table in local:
            method = self.methods[(name, variant)]
            ops.append(_op(
                f"{name}/{variant} local",
                lambda m=method, t=tau_max, n=levels: cli.run_local_study(
                    rz, m, cli.dyadic_ladder(t, n)),
                lambda rows, t=table: pub.check_local(
                    rows[1:], t, pub.ORDER_TOL_ASYMPTOTIC, pub.ORDER_TOL_ASYMPTOTIC,
                    published=self.published),
            ))
        for name, variant, table in glob:
            method = self.methods[(name, variant)]
            ops.append(_op(
                f"{name}/{variant} global",
                lambda m=method: cli.run_global_study(rz, m, cli.dyadic_ladder(0.5, 6), 1.0),
                lambda rows, t=table: pub.check_global(rows, t, published=self.published),
            ))
        return ops


class AdaptiveTwoSoliton(Workload):
    """Criterion 9: emb43aks, tol 1e-10, tau in [1e-8, 0.25], t from 0 to 5
    through the crossing of two solitons. A stream of FFT-bound step+defect
    calls through the controller; reference_solve stays idle. Free inputs:
    the solitons' centres and carriers."""

    name = "adaptive-two-soliton"

    T_END = 5.0
    T_END_SMALL = 2.6  # still covers the crossing window the check looks at

    def __init__(self, seed, small=False):
        super().__init__(seed, small)
        self.centers = (self._free(5.0), self._free(-5.0))
        self.carriers = (self._free(1.0), self._free(-3.0))
        self.t_end = self.T_END_SMALL if small else self.T_END

    def inputs(self):
        return {"centers": list(self.centers), "carriers": list(self.carriers),
                "t_end": self.t_end}

    def setup(self):
        self.problem = problems.CubicNLS(
            initial="two-soliton", centers=self.centers, carriers=self.carriers)
        self.method = control.make_method("emb43aks")
        self.config = control.AdaptiveConfig(
            tol=1e-10, tau_init=1e-2, tau_min=1e-8, tau_max=0.25)
        self.method.step_with_defect(self.problem, 0.0, 1e-2, self.problem.initial_state())

    def _check(self, trace):
        accepted = [rec for rec in trace if rec.accepted]
        crossing = [rec.tau for rec in accepted if 2.0 <= rec.t <= 2.6]
        early = [rec.tau for rec in accepted if rec.t <= 1.0]
        failures = []
        ratio = min(crossing) / float(np.median(early))
        if not ratio < 0.7:
            failures.append(f"min step at crossing / median early step = {ratio:.3f}, want < 0.7")
        total = math.fsum(rec.tau for rec in accepted)
        if not abs(total - self.t_end) <= 1e-12:
            failures.append(f"accepted steps sum to {total!r}, not {self.t_end}")
        return failures

    def operations(self):
        def compute():
            return cli.run_adaptive(self.problem, self.method, self.config, self.t_end)[1]

        return [_op("adaptive", compute, self._check)]


class ScalarOracle(Workload):
    """Criterion 6 on ToySplit: the integral oracle for imr and strang,
    classical and symmetrized, at two step sizes, against the closed-form
    local error. Length-1 states, so per-call interpreter overhead is the
    whole cost. Free inputs: u0 and the step sizes.

    The oracle runs 12 quadrature nodes of 128 RK4 steps each, a sixteenth
    of its default 48 x 512, so that one evaluation takes about 0.1 s and a
    run repeats each many times; the calls made are the same, and the gap
    stays at roundoff (below 1e-13) on the jittered inputs too."""

    name = "scalar-oracle"

    GAP = 1e-9
    QUAD_NODES = 12
    ODE_STEPS = 128

    def __init__(self, seed, small=False):
        super().__init__(seed, small)
        self.u0 = self._free(1.0)
        self.taus = (self._free(0.05), self._free(0.1))

    def inputs(self):
        return {"u0": self.u0, "taus": list(self.taus)}

    def setup(self):
        self.problem = problems.ToySplit()
        self.methods = {
            (scheme, kind): control.make_method(scheme, defect=kind)
            for scheme in ("imr", "strang")
            for kind in ("classical", "symmetrized")
        }
        u0 = np.array([self.u0 + 0j])
        for method in self.methods.values():
            method.step_with_defect(self.problem, 0.0, self.taus[0], u0)

    def _gap(self, method, kind, tau):
        toy = self.problem
        u0 = np.array([self.u0 + 0j])
        integral = control.local_error_integral_oracle(
            toy, method, tau, u0, kind=kind,
            quad_nodes=self.QUAD_NODES, ode_steps=self.ODE_STEPS)
        direct = method.step(toy, 0.0, tau, u0) - toy.exact_solution(tau, u0)
        return integral[0], float(np.linalg.norm(integral - direct))

    def _check(self, result):
        gap = result[1]
        return [] if gap <= self.GAP else [f"|integral - direct| = {gap:.2e} > {self.GAP}"]

    def operations(self):
        ops = [
            _op(f"{scheme} {kind} tau={tau:.4g}",
                lambda m=method, k=kind, t=tau: self._gap(m, k, t),
                self._check,
                render=lambda result: repr(result[0]))
            for (scheme, kind), method in self.methods.items()
            for tau in self.taus
        ]
        return ops[:1] if self.small else ops


WORKLOADS = {cls.name: cls for cls in (NlsTables, RzTables, AdaptiveTwoSoliton, ScalarOracle)}
