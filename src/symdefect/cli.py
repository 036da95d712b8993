"""Benchmark command line: convergence tables and adaptive step traces.

Subcommands:

* ``local``    - one-step local error and estimator deviation over a dyadic
  step ladder.
* ``global``   - fixed-step global errors of the basic and the corrected
  solution over an interval.
* ``adaptive`` - adaptive run writing the (t, tau, estimate, accepted)
  trace.

Output is CSV (17 significant digits, LF line endings) or an aligned text
table. Runs are deterministic; the exit code is nonzero when any row
failed.
"""

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import control
from .control import (
    METHOD_NAMES,
    AdaptiveConfig,
    adaptive_integrate,
    corrected_run,
    estimator_scale,
    make_method,
    method_needs,
    reference_solve,
    state_norm,
)
from .errors import ConvergenceFailure, StepFailure
from .problems import PROBLEM_NAMES, make_problem

__all__ = [
    "ConvergenceRow",
    "GlobalRow",
    "run_local_study",
    "run_global_study",
    "run_adaptive",
    "rows_to_csv",
    "rows_to_table",
    "dyadic_ladder",
    "main",
]


@dataclass(frozen=True)
class ConvergenceRow:
    tau: float
    err_norm: float
    err_order: float
    dev_norm: float
    dev_order: float
    failed: bool = False


@dataclass(frozen=True)
class GlobalRow:
    tau: float
    global_err: float
    global_order: float
    corrected_err: float
    corrected_order: float
    failed: bool = False


def dyadic_ladder(tau_max, levels):
    """Step sizes tau_max, tau_max/2, ..., halved levels-1 times."""
    return [tau_max / 2.0**i for i in range(levels)]


def _step_count(span, tau):
    steps = round(span / tau) if tau and span / tau <= control._MAX_STEPS else 0
    if steps < 1 or abs(steps * tau - span) > 1e-9 * abs(span):
        raise ValueError(
            f"interval length {span} is not 1 to {control._MAX_STEPS} steps of tau {tau}")
    return steps


def _order(tau_prev, val_prev, tau, val):
    if val_prev is None or not (val_prev > 0.0 and val > 0.0):
        return math.nan
    return math.log(val_prev / val) / math.log(tau_prev / tau)


def _ladder(row_type, tau_list, measure):
    """Rows of a ladder study: ``measure(tau)`` returns the two measured
    norms, whose observed orders come from the previous row. A StepFailure
    or a norm that is not finite (a huge step overflowing) gives a failed
    NaN row and restarts the orders."""
    rows = []
    prev = (None, None, None)
    for tau in tau_list:
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                first, second = measure(tau)
        except StepFailure:
            first = second = math.nan
        if not (math.isfinite(first) and math.isfinite(second)):
            first = second = math.nan  # NaN orders here and in the next row
        p_tau, p_first, p_second = prev
        rows.append(row_type(tau, first, _order(p_tau, p_first, tau, first),
                             second, _order(p_tau, p_second, tau, second), math.isnan(first)))
        prev = (tau, first, second)
    return rows


def run_local_study(problem, method, tau_list):
    """One step per ladder level from t = 0 and the initial state: local error
    against the reference solution and deviation of the defect-based estimator
    from that error, the references of all levels from one shared solve."""
    u0 = problem.initial_state()
    references = dict(zip(tau_list, reference_solve(problem, 0.0, tau_list, u0)))

    def measure(tau):
        u_next, d = method.step_with_defect(problem, 0.0, tau, u0)
        estimator = estimator_scale(tau, method.order) * d
        reference = references[tau]
        err = state_norm(problem, u_next - reference)
        return err, state_norm(problem, estimator - (u_next - reference))

    return _ladder(ConvergenceRow, tau_list, measure)


def run_global_study(problem, method, tau_list, t_end):
    """Fixed-step integration from t = 0 and the initial state to t_end per
    ladder level, propagating the basic and the corrected solution side by side.
    With the reference's own method, a level goes on from the reference's run of its step size."""
    u0 = problem.initial_state()
    # global errors are measured against the semidiscrete flow itself, so the
    # closed-form shortcut (exact up to the spatial discretization error
    # only) is bypassed here
    shared = {} if method is control._default_reference_method(problem) else None
    reference = reference_solve(problem, 0.0, t_end, u0, use_exact=False, runs=shared)

    def measure(tau):
        steps = _step_count(t_end, tau)
        h = t_end / steps  # the ladder's tau itself on a dyadic ladder
        plain = method.step(problem, 0.0, h, u0, steps)  # one composition of all steps
        done, corrected = shared.get(h, (0, u0)) if shared else (0, u0)
        if done < steps:
            corrected = corrected_run(problem, method, 0.0, t_end, corrected, steps - done, done)
        g_err = state_norm(problem, plain - reference)
        return g_err, state_norm(problem, corrected - reference)

    return _ladder(GlobalRow, tau_list, measure)


def run_adaptive(problem, method, config, t_end):
    """Adaptive run from t = 0 and the initial state: (final state, step trace)."""
    return adaptive_integrate(problem, method, config, 0.0, t_end, problem.initial_state())


# -- serialization --------------------------------------------------------------


def _fmt(value):
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.16e}"
    return str(value)


def rows_to_csv(rows):
    """CSV text for a list of row dataclasses or step records."""
    if not rows:
        return ""
    names = [f.name for f in fields(rows[0])]
    lines = [",".join(names)] + [",".join(_fmt(getattr(row, n)) for n in names) for row in rows]
    return "\n".join(lines) + "\n"


def _cell(name, value):
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float) and math.isnan(value):
        return "--"
    if "order" in name:
        return f"{value:.2f}"
    return f"{value:.4e}" if isinstance(value, float) else str(value)


def rows_to_table(rows):
    """Aligned text table of a list of row dataclasses or step records."""
    if not rows:
        return "(no rows)\n"
    names = [f.name for f in fields(rows[0])]
    cells = [names] + [[_cell(n, getattr(row, n)) for n in names] for row in rows]
    widths = [max(len(line[i]) for line in cells) for i in range(len(names))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(line, widths)) for line in cells]
    return "\n".join(lines) + "\n"


def _emit(rows, args):
    text = rows_to_csv(rows) if args.format == "csv" else rows_to_table(rows)
    if args.out:
        with open(args.out, "w", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _add_common(parser, tau_max):
    parser.add_argument("--problem", required=True, choices=PROBLEM_NAMES)
    parser.add_argument("--scheme", required=True, choices=METHOD_NAMES)
    parser.add_argument(
        "--defect",
        default="symmetrized",
        choices=("classical", "symmetrized"),
        help="defect kind where both exist",
    )
    parser.add_argument(
        "--variant",
        default="hermite",
        choices=("taylor", "hermite"),
        help="defect evaluation variant for exponential integrators",
    )
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", default="table", choices=("csv", "table"))
    parser.add_argument("--tau-max", type=float, default=tau_max)


def _check_settings(args, problem):
    """Raise ValueError for settings no run can use, before any work; the
    adaptive controller's config checks its own step bounds."""
    needs = method_needs(args.scheme)
    if not hasattr(problem, needs):
        raise ValueError(f"scheme {args.scheme} needs {needs!r}, which {args.problem} lacks")
    if not 1 <= getattr(args, "levels", 1) <= 64:
        raise ValueError(f"--levels must be 1 to 64, got {args.levels}")
    finest = args.tau_max / 2.0 ** (getattr(args, "levels", 1) - 1)
    if args.command != "adaptive" and not 0.0 < finest <= args.tau_max < math.inf:
        raise ValueError(f"--tau-max must be finite with a positive finest step, got {args.tau_max}")
    if not 0.0 < getattr(args, "t_end", 1.0) < math.inf:
        raise ValueError(f"--t-end must be positive and finite, got {args.t_end}")
    if args.command == "global":  # the first and the finest level
        _step_count(args.t_end, args.tau_max)
        _step_count(args.t_end, finest)
    if args.out:
        folder = os.path.dirname(os.path.abspath(args.out))
        target = args.out if os.path.exists(args.out) else folder
        writable = os.path.isdir(folder) and os.access(target, os.W_OK)
        if os.path.isdir(args.out) or not writable:
            raise ValueError(f"--out {args.out} is not a writable file path")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="symdefect",
        description="Convergence and adaptivity benchmarks for defect-based "
        "error estimation of self-adjoint time integrators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_local = sub.add_parser("local", help="one-step error and deviation ladder")
    _add_common(p_local, 0.125)
    p_local.add_argument("--levels", type=int, default=6)

    p_global = sub.add_parser("global", help="global errors of basic and corrected runs")
    _add_common(p_global, 0.125)
    p_global.add_argument("--levels", type=int, default=6)
    p_global.add_argument("--t-end", type=float, default=1.0)

    p_adaptive = sub.add_parser("adaptive", help="adaptive step-size trace")
    _add_common(p_adaptive, 0.25)
    p_adaptive.add_argument("--tol", type=float, default=1e-8)
    p_adaptive.add_argument("--t-end", type=float, default=1.0)

    args = parser.parse_args(argv)
    problem = make_problem(args.problem)
    try:
        _check_settings(args, problem)
        method = make_method(args.scheme, defect=args.defect, variant=args.variant)
    except ValueError as exc:
        parser.error(str(exc))

    if args.command == "adaptive":
        try:
            config = AdaptiveConfig(tol=args.tol, tau_init=args.tau_max / 8.0, tau_max=args.tau_max)
        except ValueError as exc:
            parser.error(f"invalid adaptive settings: {exc}")
    ladder = dyadic_ladder(args.tau_max, getattr(args, "levels", 1))
    try:  # a reference solve, an adaptive stall or the trial budget aborts the run
        if args.command == "local":
            rows = run_local_study(problem, method, ladder)
        elif args.command == "global":
            rows = run_global_study(problem, method, ladder, args.t_end)
        else:
            rows = run_adaptive(problem, method, config, args.t_end)[1]
    except (StepFailure, ConvergenceFailure) as exc:
        run = "adaptive run" if args.command == "adaptive" else f"{args.command} study"
        sys.stderr.write(f"{run} aborted: {exc}\n")
        return 1
    _emit(rows, args)
    return 1 if any(getattr(row, "failed", False) for row in rows) else 0  # trace rows have none


if __name__ == "__main__":
    sys.exit(main())
