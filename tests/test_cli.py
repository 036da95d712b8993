"""Benchmark CLI: study drivers, serialization round-trips, subcommands."""

import contextlib
import io
import math
import os
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from symdefect import cli, control
from symdefect.cli import (
    ConvergenceRow,
    GlobalRow,
    dyadic_ladder,
    main,
    rows_to_csv,
    rows_to_table,
    run_global_study,
    run_local_study,
)
from symdefect.control import METHOD_NAMES, Method, StepRecord, make_method, reference_solve
from symdefect.errors import ConvergenceFailure, StepFailure
from symdefect.problems import PROBLEM_NAMES, CubicNLS, RosenZener, ToySplit

from oracles import ScalarQuadratic, parse_csv


def rows_equal(a, b):
    for field in a.__dataclass_fields__:
        x, y = getattr(a, field), getattr(b, field)
        if isinstance(x, float) and math.isnan(x):
            if not (isinstance(y, float) and math.isnan(y)):
                return False
        elif x != y:
            return False
    return True


class TestLadder:
    def test_dyadic(self):
        assert dyadic_ladder(0.4, 3) == [0.4, 0.2, 0.1]


class TestStudies:
    def test_local_rows_structure(self):
        toy = ToySplit()
        rows = run_local_study(toy, make_method("strang"), dyadic_ladder(0.1, 3))
        assert [row.tau for row in rows] == dyadic_ladder(0.1, 3)
        assert math.isnan(rows[0].err_order) and math.isnan(rows[0].dev_order)
        assert not any(row.failed for row in rows)
        # second order scheme: local error order 3, deviation order 5
        assert rows[-1].err_order == pytest.approx(3.0, abs=0.1)
        assert rows[-1].dev_order == pytest.approx(5.0, abs=0.3)

    def test_local_study_on_imr(self):
        prob = ScalarQuadratic()
        rows = run_local_study(prob, make_method("imr"), dyadic_ladder(0.1, 4))
        assert rows[-1].err_order == pytest.approx(3.0, abs=0.1)

    def test_global_single_step_reduces_to_local(self):
        toy = ToySplit()
        method = make_method("strang")
        tau = 0.05
        local = run_local_study(toy, method, [tau])
        # one step to T = tau measures the same error, but against the
        # numerically computed reference
        glob = run_global_study(toy, method, [tau], t_end=tau)
        assert glob[0].global_err == pytest.approx(local[0].err_norm, rel=1e-6)

    def test_global_steps_with_t_end_over_steps(self):
        # on a ladder that is not dyadic, both halves step with t_end / steps
        # (0.3 / 3 differs from 0.1 in the last bit), the corrected half being
        # corrected_run itself
        from symdefect.control import corrected_run, reference_solve, state_norm

        prob = RosenZener()
        method = make_method("expmid")
        t_end, steps = 0.3, 3
        assert t_end / steps != 0.1
        u0 = prob.initial_state()
        reference = reference_solve(prob, 0.0, t_end, u0, use_exact=False)
        plain = u0
        for i in range(steps):
            plain = method.step(prob, i * (t_end / steps), t_end / steps, plain)
        corrected = corrected_run(prob, method, 0.0, t_end, u0, steps)
        (row,) = run_global_study(prob, method, [0.1], t_end)
        assert row.global_err == state_norm(prob, plain - reference)
        assert row.corrected_err == state_norm(prob, corrected - reference)

    def test_global_requires_commensurate_tau(self):
        toy = ToySplit()
        with pytest.raises(ValueError):
            run_global_study(toy, make_method("strang"), [0.3], t_end=1.0)

    @pytest.mark.parametrize("tau", [0.0, -0.0])
    def test_a_zero_step_is_a_value_error(self, tau):
        # span / tau used to raise a bare ZeroDivisionError
        with pytest.raises(ValueError, match="is not 1 to"):
            run_global_study(CubicNLS(n=64), make_method("strang"), [tau], 0.125)

    def test_exact_scheme_floors_at_roundoff(self):
        # constant generator: the midpoint exponential is exact, so the
        # measured errors sit at the accuracy floor and the order columns
        # carry no meaning
        import numpy as np

        from oracles import ConstantLinear, random_skew_hermitian

        rng = np.random.default_rng(0)
        prob = ConstantLinear(random_skew_hermitian(rng, 6))
        rows = run_local_study(prob, make_method("expmid"), dyadic_ladder(0.2, 3))
        assert all(row.err_norm <= 1e-12 for row in rows)

    def test_failed_row_is_marked(self):
        toy = ToySplit()

        def boom(problem, t0, tau, u):
            raise StepFailure("pole")

        method = Method("boom", 2, boom, boom, "symmetrized")
        rows = run_local_study(toy, method, [0.1, 0.05])
        assert all(row.failed for row in rows)
        assert all(math.isnan(row.err_norm) for row in rows)


class TestGlobalStudySharesReference:
    """A global study of the reference's own method reads each corrected level
    the reference's step doubling ran from it, bit for bit; any other method,
    or a level the doubling never ran, takes its own corrected run."""

    @pytest.fixture
    def counted_steps(self, monkeypatch):
        steps = []
        run = control.corrected_run

        def counting(problem, method, t0, t_end, u0, steps_, *args):
            steps.append(steps_)
            return run(problem, method, t0, t_end, u0, steps_, *args)

        monkeypatch.setattr(control, "corrected_run", counting)  # the reference's runs
        monkeypatch.setattr(cli, "corrected_run", counting)  # the study's own
        return steps

    @staticmethod
    def study(problem, method, ladder, t_end, counted_steps):
        counted_steps.clear()
        return rows_to_csv(run_global_study(problem, method, ladder, t_end)), sum(counted_steps)

    @staticmethod
    def unshared(method):
        return Method(method.name, method.order, method.step, method.step_with_defect,
                      method.defect)

    # CubicNLS(n=64)'s reference stops at 16 steps, so the ladder's 32 is run
    # again; RosenZener(k=3)'s stops at 32, leaving 64
    @pytest.mark.parametrize(
        "problem, name, tau_max, levels, t_end",
        [
            (CubicNLS(n=64), "emb43aks", 6.25e-2, 5, 0.125),
            (RosenZener(k=3), "magnus4", 0.5, 6, 1.0),
        ],
        ids=["nls-emb43aks", "rz-magnus4"],
    )
    def test_reference_method_reads_the_levels_it_ran(
        self, problem, name, tau_max, levels, t_end, counted_steps
    ):
        method = make_method(name)
        assert method is control._default_reference_method(problem)
        ladder = dyadic_ladder(tau_max, levels)
        reference_solve(problem, 0.0, t_end, problem.initial_state(), use_exact=False)
        ran = set(counted_steps)
        shared = [round(t_end / tau) for tau in ladder if round(t_end / tau) in ran]
        assert 0 < len(shared) < levels
        csv, steps = self.study(problem, method, ladder, t_end, counted_steps)
        copy_csv, copy_steps = self.study(problem, self.unshared(method), ladder, t_end,
                                          counted_steps)
        assert csv == copy_csv
        assert steps == copy_steps - sum(shared)

    @pytest.mark.parametrize(
        "problem, name, kwargs, tau_max, levels, t_end",
        [
            (CubicNLS(n=64), "strang", {"defect": "classical"}, 3.125e-2, 3, 0.125),
            (CubicNLS(n=64), "strang", {}, 3.125e-2, 3, 0.125),
            (RosenZener(k=3), "cf4", {"variant": "taylor"}, 0.5, 3, 1.0),
            (RosenZener(k=3), "cf4", {}, 0.5, 3, 1.0),
            (RosenZener(k=3), "expmid", {}, 0.5, 3, 1.0),
            (RosenZener(k=3), "magnus4", {"variant": "taylor"}, 0.5, 3, 1.0),
            (RosenZener(k=3), "magnus4", {}, 0.1, 3, 0.3),  # 3, 6 and 12 steps: never doubled
        ],
        ids=["strang-classical", "strang", "cf4-taylor", "cf4", "expmid", "magnus4-taylor",
             "magnus4-not-dyadic"],
    )
    def test_no_other_study_shares(self, problem, name, kwargs, tau_max, levels, t_end,
                                   counted_steps):
        method = make_method(name, **kwargs)
        ladder = dyadic_ladder(tau_max, levels)
        copy = self.study(problem, self.unshared(method), ladder, t_end, counted_steps)
        assert self.study(problem, method, ladder, t_end, counted_steps) == copy

    def test_one_method_per_scheme_defect_and_used_variant(self):
        assert make_method("magnus4", variant="hermite") is make_method("magnus4")
        assert make_method("magnus4", "symmetrized", "hermite") is make_method("magnus4")
        assert make_method("magnus4", variant="taylor") is not make_method("magnus4")
        assert make_method("strang", "classical") is not make_method("strang")
        assert make_method("strang", variant="taylor") is make_method("strang")  # variant unused
        unshared = self.unshared(make_method("magnus4"))
        assert unshared == make_method("magnus4") and unshared is not make_method("magnus4")


class TestSerialization:
    def test_convergence_roundtrip(self):
        rows = [
            ConvergenceRow(0.1, 1.234e-5, math.nan, 5.678e-9, math.nan),
            ConvergenceRow(0.05, 1.0 / 3.0, 3.0000001, 2.0 / 7.0, 5.1),
            ConvergenceRow(0.025, math.nan, math.nan, math.nan, math.nan, True),
        ]
        parsed = parse_csv(rows_to_csv(rows), ConvergenceRow)
        assert len(parsed) == len(rows)
        assert all(rows_equal(a, b) for a, b in zip(rows, parsed))

    def test_global_roundtrip(self):
        rows = [GlobalRow(0.25, 1e-3, math.nan, 1e-6, math.nan)]
        parsed = parse_csv(rows_to_csv(rows), GlobalRow)
        assert rows_equal(rows[0], parsed[0])

    def test_trace_roundtrip(self):
        rows = [
            StepRecord(0.0, 0.1, 1.5e-11, True),
            StepRecord(0.1, 0.4, 2.5e-7, False),
        ]
        parsed = parse_csv(rows_to_csv(rows), StepRecord)
        assert all(rows_equal(a, b) for a, b in zip(rows, parsed))

    def test_csv_format(self):
        text = rows_to_csv([GlobalRow(0.25, 1e-3, math.nan, 1e-6, math.nan)])
        lines = text.split("\n")
        assert lines[0] == "tau,global_err,global_order,corrected_err,corrected_order,failed"
        assert "2.5000000000000000e-01" in lines[1]
        assert "nan" in lines[1]
        assert text.endswith("\n")

    def test_table_rendering(self):
        rows = [ConvergenceRow(0.1, 1.234e-5, math.nan, 5.678e-9, 4.97)]
        table = rows_to_table(rows)
        assert "tau" in table and "--" in table and "4.97" in table

    def test_no_rows(self):
        assert rows_to_csv([]) == ""
        assert rows_to_table([]) == "(no rows)\n"


class TestMain:
    def test_local_subcommand(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(
            [
                "local",
                "--problem",
                "toy-split",
                "--scheme",
                "strang",
                "--tau-max",
                "0.1",
                "--levels",
                "3",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = parse_csv(out.read_text(), ConvergenceRow)
        assert len(rows) == 3 and not rows[0].failed

    def test_global_subcommand(self, capsys):
        code = main(
            [
                "global",
                "--problem",
                "toy-split",
                "--scheme",
                "imr",
                "--tau-max",
                "0.1",
                "--levels",
                "2",
                "--t-end",
                "0.2",
            ]
        )
        assert code == 0
        table = capsys.readouterr().out
        assert "global_err" in table

    def test_adaptive_subcommand(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(
            [
                "adaptive",
                "--problem",
                "rosen-zener",
                "--scheme",
                "expmid",
                "--tol",
                "1e-4",
                "--t-end",
                "0.5",
                "--tau-max",
                "0.2",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        trace = parse_csv(out.read_text(), StepRecord)
        accepted = [rec for rec in trace if rec.accepted]
        assert abs(math.fsum(rec.tau for rec in accepted) - 0.5) <= 1e-12

    def test_module_entry_point_in_a_fresh_interpreter(self):
        # as users run it: ``python -m symdefect.cli``, with numpy's
        # RuntimeWarnings turned into errors; stdout parses back, stderr is empty
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        common = ["--problem", "toy-split", "--scheme", "strang", "--format", "csv"]
        runs = [
            (["local", "--levels", "2"], ConvergenceRow),
            (["global", "--levels", "2", "--tau-max", "0.1", "--t-end", "0.2"], GlobalRow),
            (["adaptive", "--t-end", "0.2"], StepRecord),
        ]
        for args, row_type in runs:
            argv = [sys.executable, "-W", "error::RuntimeWarning", "-m", "symdefect.cli"]
            out = subprocess.run(
                argv + args + common, capture_output=True, text=True, env=env, timeout=120
            )
            assert (out.returncode, out.stderr) == (0, ""), args
            rows = parse_csv(out.stdout, row_type)
            assert rows and rows_to_csv(rows) == out.stdout

    @pytest.mark.parametrize(
        "argv",
        [
            ["--problem", "toy-split", "--scheme", "strang", "--tau-max", "1e300",
             "--levels", "1"],
            ["--problem", "nls-soliton", "--scheme", "emb43aks", "--tau-max", "1e261",
             "--levels", "2"],
        ],
        ids=["toy-split-strang", "nls-soliton-emb43aks"],
    )
    def test_overflowing_splitting_step_gives_failed_rows(self, argv):
        # the closed-form reference (toy-split) or the defect (emb43aks)
        # overflows: every row is failed, exit 1, and numpy warns nothing
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        command = [sys.executable, "-W", "error::RuntimeWarning", "-m", "symdefect.cli"]
        out = subprocess.run(
            command + ["local", *argv, "--format", "csv"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (out.returncode, out.stderr) == (1, "")
        rows = parse_csv(out.stdout, ConvergenceRow)
        assert len(rows) == int(argv[-1]) and all(row.failed for row in rows)

    @pytest.mark.parametrize(
        "argv",
        [
            ["local", "--scheme", "magnus4", "--tau-max", "1e300", "--levels", "1"],
            ["global", "--scheme", "cf4", "--tau-max", "1e200", "--levels", "1",
             "--t-end", "1e200"],
        ],
        ids=["local-reference", "global-reference"],
    )
    def test_overflowing_huge_step_fails_cleanly(self, argv, capsys):
        # the reference solve, run before the ladder, overflows and aborts
        # the study with one line: no rows, no traceback, no numpy warning
        command, *settings = argv
        start = time.monotonic()
        code = main([command, "--problem", "rosen-zener", *settings])
        assert time.monotonic() - start < 5.0
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"{command} study aborted:")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert captured.out == ""

    def test_reference_convergence_failure_aborts_global(self, capsys, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise ConvergenceFailure("did not converge")

        monkeypatch.setattr(cli, "reference_solve", no_convergence)
        code = main(["global", "--problem", "toy-split", "--scheme", "strang"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "global study aborted: did not converge\n"

    def test_reference_convergence_failure_aborts_local(self, capsys, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise ConvergenceFailure("did not converge")

        monkeypatch.setattr(cli, "reference_solve", no_convergence)
        code = main(["local", "--problem", "toy-split", "--scheme", "strang"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "local study aborted: did not converge\n"
        assert captured.out == ""

    def test_reference_step_budget_aborts_local(self, capsys, monkeypatch):
        # the differences of a span of 1e10 only halve per level; a small
        # budget makes the same failure as the default one, in less time
        monkeypatch.setattr(control, "_MAX_STEPS", 64)
        argv = ["local", "--problem", "rosen-zener", "--scheme", "expmid",
                "--tau-max", "1e10", "--levels", "1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("local study aborted: reference solve used up")
        assert "budget of 64 steps" in captured.err and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--problem", "nls-two-soliton", "--scheme", "emb43aks",
             "--tau-max", "1e45", "--t-end", "1e45"],
            ["--problem", "toy-split", "--scheme", "imr", "--tau-max", "1e113", "--t-end", "2e113"],
        ],
        ids=["two-soliton-emb43aks", "toy-split-imr"],
    )
    def test_adaptive_trial_budget_aborts(self, argv, capsys, monkeypatch):
        # neither run reaches t_end in any practical number of trials; a
        # small budget makes the same failure as the default one, in less time
        monkeypatch.setattr(control, "_MAX_STEPS", 64)
        start = time.perf_counter()
        assert main(["adaptive", *argv]) == 1
        assert time.perf_counter() - start < 5.0
        captured = capsys.readouterr()
        assert captured.err.startswith("adaptive run aborted: trial budget of 64 steps used up")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "setting", [["--tol", "-1"], ["--tau-max", "-0.5"]], ids=["tol", "tau-max"]
    )
    def test_invalid_adaptive_settings_are_usage_errors(self, setting, capsys):
        argv = ["adaptive", "--problem", "toy-split", "--scheme", "strang", *setting]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid adaptive settings" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["local", "--problem", "rosen-zener", "--scheme", "imr"],
            ["local", "--problem", "rosen-zener", "--scheme", "strang"],
            ["local", "--problem", "toy-split", "--scheme", "cf4"],
        ],
        ids=["implicit", "splitting", "exponential"],
    )
    def test_scheme_problem_mismatch_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"scheme {argv[4]} needs" in err.splitlines()[-1]

    @pytest.mark.parametrize("scheme", ["expmid", "cf4", "magnus4"])
    def test_dense_generator_without_coefficients_is_usage_error(
        self, scheme, monkeypatch, capsys
    ):
        # an exponential scheme builds its stages from the generator
        # interface, so a problem offering only a dense A(t) cannot run it
        dense = RosenZener(k=2)

        class DenseOnly:
            norm_weight = 1.0
            A, dA, initial_state = dense.A, dense.dA, dense.initial_state

        monkeypatch.setattr(cli, "make_problem", lambda name: DenseOnly())
        with pytest.raises(SystemExit) as excinfo:
            main(["local", "--problem", "rosen-zener", "--scheme", scheme])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"scheme {scheme} needs 'coefficients'" in err.splitlines()[-1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["global", "--tau-max", "0"],
            ["global", "--tau-max", "0.3", "--t-end", "1.0"],
            ["global", "--t-end", "nan"],
            ["local", "--tau-max", "0"],
            ["local", "--tau-max", "inf"],
            ["local", "--levels", "-2"],
            ["global", "--levels", "0"],
            ["local", "--levels", "1100"],
            ["adaptive", "--t-end", "-1"],
            ["local", "--tau-max", "5e-324", "--levels", "2"],
            ["global", "--tau-max", "5e-324", "--levels", "2", "--t-end", "5e-324"],
        ],
        ids=[
            "global-tau-max-zero",
            "global-incommensurate",
            "global-t-end-nan",
            "local-tau-max-zero",
            "local-tau-max-inf",
            "local-levels-negative",
            "global-levels-zero",
            "local-levels-huge",
            "adaptive-t-end-negative",
            "local-finest-step-underflows",
            "global-finest-step-underflows",
        ],
    )
    def test_invalid_numbers_are_usage_errors(self, argv, capsys):
        command, *settings = argv
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--problem", "toy-split", "--scheme", "strang", *settings])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "error:" in err.splitlines()[-1]

    @pytest.mark.parametrize("command", ["local", "global", "adaptive"])
    def test_unwritable_out_is_usage_error(self, command, tmp_path, capsys, monkeypatch):
        # rejected with the other settings, before the method is even built
        def no_work(*args, **kwargs):
            raise AssertionError("study ran")

        monkeypatch.setattr(cli, "make_method", no_work)
        out = tmp_path / "missing" / "x.csv"
        argv = [command, "--problem", "toy-split", "--scheme", "strang", "--out", str(out)]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "--out" in err.splitlines()[-1] and "not a writable" in err
        assert not out.parent.exists()


# The implicit midpoint rule on the 512-point NLS grid solves a dense
# 1024 x 1024 Newton system per iteration: about 0.18 s a step, and a huge
# step stalls through all 25 iterations in about 2 s (2-vCPU VM, one BLAS
# thread), bounded but past the 2 s alarm below. Every other pairing is drawn.
_COMMANDS = [
    (command, problem, scheme)
    for command in ("local", "global", "adaptive")
    for problem in PROBLEM_NAMES
    for scheme in METHOD_NAMES
    if not (scheme == "imr" and problem.startswith("nls"))
]
_LOG_UNIFORM = st.floats(-12.0, 300.0).map(lambda e: 10.0**e)  # 1e-12 to 1e300


@contextlib.contextmanager
def _time_bound(seconds):
    """Interrupt the block with TimeoutError once it runs past ``seconds``."""

    def interrupt(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
@settings(max_examples=100, deadline=None)
@given(
    run=st.sampled_from(_COMMANDS),
    tau_max=_LOG_UNIFORM,
    levels=st.integers(1, 2),
    span=st.one_of(st.integers(1, 4), _LOG_UNIFORM),  # steps of tau_max, or t_end itself
)
# Draws seldom reach these, each once a raw OverflowError, a run of 1e12
# steps, or numpy overflow warnings from a reference solve that blew up
@example(run=("global", "toy-split", "strang"), tau_max=1e-12, levels=1, span=1e300)
@example(run=("local", "toy-split", "strang"), tau_max=0.125, levels=1100, span=1)
@example(run=("global", "toy-split", "strang"), tau_max=1e-12, levels=1, span=1.0)
@example(run=("global", "nls-two-soliton", "strang"), tau_max=1e62, levels=1, span=2)
@example(run=("global", "nls-two-soliton", "strang"), tau_max=1.0, levels=1, span=3)
def test_main_ends_in_bounded_time_with_a_typed_result(run, tau_max, levels, span):
    # a small work budget keeps each example short; running out of it is
    # the same failure as running out of the default one
    command, problem, scheme = run
    t_end = tau_max * span if isinstance(span, int) else span
    argv = [command, "--problem", problem, "--scheme", scheme, "--tau-max", repr(tau_max)]
    if command != "local":
        argv += ["--t-end", repr(t_end)]
    if command != "adaptive":
        argv += ["--levels", str(levels)]
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(control, "_MAX_STEPS", 64)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            with _time_bound(2.0):
                try:
                    code = main(argv)
                except SystemExit as exc:  # a usage error
                    code = exc.code
    event(f"{command} exit {code}")
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
