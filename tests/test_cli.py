"""Benchmark CLI: study drivers, serialization round-trips, subcommands."""

import functools
import math
import time

import pytest

from symdefect import cli
from symdefect.cli import (
    ConvergenceRow,
    GlobalRow,
    dyadic_ladder,
    main,
    parse_csv,
    rows_to_csv,
    rows_to_table,
    run_global_study,
    run_local_study,
)
from symdefect.control import Method, StepRecord, make_method
from symdefect.errors import ConvergenceFailure, StepFailure
from symdefect.problems import ToySplit

from oracles import ScalarQuadratic


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

    def test_global_requires_commensurate_tau(self):
        toy = ToySplit()
        with pytest.raises(ValueError):
            run_global_study(toy, make_method("strang"), [0.3], t_end=1.0)

    def test_exact_scheme_floors_at_roundoff(self):
        # constant generator: the midpoint exponential is exact, so the
        # measured errors sit at the accuracy floor and the order columns
        # carry no meaning
        import numpy as np

        from oracles import ConstantLinear, random_skew_hermitian

        rng = np.random.default_rng(0)
        prob = ConstantLinear(random_skew_hermitian(rng, 6))
        u0 = np.ones(6, dtype=np.complex128)
        rows = run_local_study(prob, make_method("expmid"), dyadic_ladder(0.2, 3), u0=u0)
        assert all(row.err_norm <= 1e-12 for row in rows)

    def test_failed_row_is_marked(self):
        toy = ToySplit()

        def boom(problem, t0, tau, u):
            raise StepFailure("pole")

        method = Method("boom", 2, boom, boom)
        rows = run_local_study(toy, method, [0.1, 0.05])
        assert all(row.failed for row in rows)
        assert all(math.isnan(row.err_norm) for row in rows)


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
        budgeted = functools.partial(cli.reference_solve, max_steps=64)
        monkeypatch.setattr(cli, "reference_solve", budgeted)
        argv = ["local", "--problem", "rosen-zener", "--scheme", "expmid",
                "--tau-max", "1e10", "--levels", "1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("local study aborted: reference solve used up")
        assert "budget of 64 steps" in captured.err and captured.err.count("\n") == 1
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
            ["adaptive", "--t-end", "-1"],
        ],
        ids=[
            "global-tau-max-zero",
            "global-incommensurate",
            "global-t-end-nan",
            "local-tau-max-zero",
            "local-tau-max-inf",
            "local-levels-negative",
            "global-levels-zero",
            "adaptive-t-end-negative",
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
