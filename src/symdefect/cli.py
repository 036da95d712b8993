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

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .control import (
    METHOD_NAMES,
    AdaptiveConfig,
    adaptive_integrate,
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
    "parse_csv",
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
    steps = round(span / tau)
    if steps < 1 or abs(steps * tau - span) > 1e-9 * abs(span):
        raise ValueError(f"interval length {span} is not a multiple of tau {tau}")
    return steps


def _order(tau_prev, val_prev, tau, val):
    if val_prev is None or not (val_prev > 0.0 and val > 0.0):
        return math.nan
    return math.log(val_prev / val) / math.log(tau_prev / tau)


def _ladder(row_type, tau_list, measure):
    """Rows of a ladder study: ``measure(tau)`` returns the two measured
    norms, whose observed orders come from the previous row. A StepFailure
    gives a failed NaN row and restarts the orders."""
    rows = []
    prev = (None, None, None)
    for tau in tau_list:
        try:
            first, second = measure(tau)
        except StepFailure:
            rows.append(row_type(tau, math.nan, math.nan, math.nan, math.nan, True))
            prev = (None, None, None)
            continue
        p_tau, p_first, p_second = prev
        first_order = _order(p_tau, p_first, tau, first)
        second_order = _order(p_tau, p_second, tau, second)
        rows.append(row_type(tau, first, first_order, second, second_order))
        prev = (tau, first, second)
    return rows


def run_local_study(problem, method, tau_list, u0=None, t0=0.0, ref_tol=1e-12):
    """One step per ladder level: local error against the reference solution
    and deviation of the defect-based estimator from that error. The
    references of all levels come from one shared solve, before the ladder."""
    u0 = problem.initial_state() if u0 is None else np.asarray(u0, np.complex128)
    ends = [t0 + tau for tau in tau_list]
    references = dict(zip(tau_list, reference_solve(problem, t0, ends, u0, tol=ref_tol)))

    def measure(tau):
        u_next, d = method.step_with_defect(problem, t0, tau, u0)
        estimator = estimator_scale(tau, method.order) * d
        reference = references[tau]
        err = state_norm(problem, u_next - reference)
        return err, state_norm(problem, estimator - (u_next - reference))

    return _ladder(ConvergenceRow, tau_list, measure)


def run_global_study(problem, method, tau_list, t_end, u0=None, t0=0.0, ref_tol=1e-12):
    """Fixed-step integration to t_end per ladder level, propagating the
    basic and the corrected solution side by side."""
    u0 = problem.initial_state() if u0 is None else np.asarray(u0, np.complex128)
    span = t_end - t0
    # global errors are measured against the semidiscrete flow itself, so the
    # closed-form shortcut (exact up to the spatial discretization error
    # only) is bypassed here
    reference = reference_solve(problem, t0, t_end, u0, tol=ref_tol, use_exact=False)

    def measure(tau):
        steps = _step_count(span, tau)
        plain = u0
        corrected = u0
        factor = estimator_scale(tau, method.order)
        for i in range(steps):
            t = t0 + i * tau
            plain = method.step(problem, t, tau, plain)
            u_next, d = method.step_with_defect(problem, t, tau, corrected)
            corrected = u_next - factor * d
        g_err = state_norm(problem, plain - reference)
        return g_err, state_norm(problem, corrected - reference)

    return _ladder(GlobalRow, tau_list, measure)


def run_adaptive(problem, method, config, t_end, u0=None, t0=0.0):
    """Adaptive integration returning the final state and the step trace."""
    u0 = problem.initial_state() if u0 is None else np.asarray(u0, np.complex128)
    return adaptive_integrate(problem, method, config, t0, t_end, u0)


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
    lines = [",".join(names)]
    for row in rows:
        lines.append(",".join(_fmt(getattr(row, name)) for name in names))
    return "\n".join(lines) + "\n"


def parse_csv(text, row_type):
    """Inverse of :func:`rows_to_csv` for a known row dataclass."""
    lines = [line for line in text.split("\n") if line]
    names = lines[0].split(",")
    specs = {f.name: f.type for f in fields(row_type)}
    rows = []
    for line in lines[1:]:
        values = {}
        for name, cell in zip(names, line.split(",")):
            if specs[name] in (bool, "bool"):
                values[name] = cell == "1"
            else:
                values[name] = float(cell)
        rows.append(row_type(**values))
    return rows


def rows_to_table(rows):
    """Aligned text table of a list of row dataclasses or step records."""
    if not rows:
        return "(no rows)\n"
    names = [f.name for f in fields(rows[0])]
    cells = [names]
    for row in rows:
        rendered = []
        for name in names:
            value = getattr(row, name)
            if isinstance(value, bool):
                rendered.append("yes" if value else "no")
            elif isinstance(value, float) and math.isnan(value):
                rendered.append("--")
            elif "order" in name:
                rendered.append(f"{value:.2f}")
            elif isinstance(value, float):
                rendered.append(f"{value:.4e}")
            else:
                rendered.append(str(value))
        cells.append(rendered)
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


def _add_common(parser):
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


def _check_settings(args, problem):
    """Raise ValueError for settings no run can use, before any work; the
    adaptive controller's config checks its own step bounds."""
    needs = method_needs(args.scheme)
    if not hasattr(problem, needs):
        raise ValueError(f"scheme {args.scheme} needs {needs!r}, which {args.problem} lacks")
    if args.command != "adaptive" and not 0.0 < args.tau_max < math.inf:
        raise ValueError(f"--tau-max must be positive and finite, got {args.tau_max}")
    if getattr(args, "levels", 1) < 1:
        raise ValueError(f"--levels must be at least 1, got {args.levels}")
    if not 0.0 < getattr(args, "t_end", 1.0) < math.inf:
        raise ValueError(f"--t-end must be positive and finite, got {args.t_end}")
    if args.command == "global":
        _step_count(args.t_end, args.tau_max)
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
    _add_common(p_local)
    p_local.add_argument("--tau-max", type=float, default=0.125)
    p_local.add_argument("--levels", type=int, default=6)

    p_global = sub.add_parser("global", help="global errors of basic and corrected runs")
    _add_common(p_global)
    p_global.add_argument("--tau-max", type=float, default=0.125)
    p_global.add_argument("--levels", type=int, default=6)
    p_global.add_argument("--t-end", type=float, default=1.0)

    p_adaptive = sub.add_parser("adaptive", help="adaptive step-size trace")
    _add_common(p_adaptive)
    p_adaptive.add_argument("--tol", type=float, default=1e-8)
    p_adaptive.add_argument("--t-end", type=float, default=1.0)
    p_adaptive.add_argument("--tau-max", type=float, default=0.25)

    args = parser.parse_args(argv)
    problem = make_problem(args.problem)
    try:
        _check_settings(args, problem)
        method = make_method(args.scheme, defect=args.defect, variant=args.variant)
    except ValueError as exc:
        parser.error(str(exc))

    if args.command in ("local", "global"):
        ladder = dyadic_ladder(args.tau_max, args.levels)
        try:
            if args.command == "local":
                rows = run_local_study(problem, method, ladder)
            else:
                rows = run_global_study(problem, method, ladder, args.t_end)
        except (StepFailure, ConvergenceFailure) as exc:  # from the reference solve
            sys.stderr.write(f"{args.command} study aborted: {exc}\n")
            return 1
        _emit(rows, args)
        return 1 if any(row.failed for row in rows) else 0

    try:
        config = AdaptiveConfig(
            tol=args.tol,
            tau_init=args.tau_max / 8.0,
            tau_min=1e-10,
            tau_max=args.tau_max,
        )
    except ValueError as exc:
        parser.error(f"invalid adaptive settings: {exc}")
    try:
        _, trace = run_adaptive(problem, method, config, args.t_end)
    except StepFailure as exc:
        sys.stderr.write(f"adaptive run aborted: {exc}\n")
        return 1
    _emit(trace, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
