"""Published convergence tables and the acceptance gate's tolerances.

The benchmark checks its own outputs with the same rules as
``tests/test_acceptance.py``: error magnitudes within a factor 1.5 of the
published value and observed orders within the gate's order tolerances.
The tables are copied here, not imported, so the benchmark keeps working
however the test suite is reorganised; they are fixed data from the paper.

Each row is (tau, error, order, deviation or corrected error, order);
``None`` marks an order the paper does not print.

Runs whose inputs were jittered away from the published ones (any seed but
0 on the Rosen-Zener workload) cannot be held to the published magnitudes.
They are checked with the order checks on the finest rows only, where the
observed order is asymptotic and insensitive to a few percent change in the
problem's parameters.
"""

from __future__ import annotations

STRANG_NLS_LOCAL = [
    (1.563e-2, 3.791e-05, 2.98, 3.377e-07, 4.59),
    (7.813e-3, 4.753e-06, 3.00, 1.161e-08, 4.86),
    (3.906e-3, 5.946e-07, 3.00, 3.726e-10, 4.96),
    (1.953e-3, 7.434e-08, 3.00, 1.172e-11, 4.99),
    (9.766e-4, 9.293e-09, 3.00, 3.669e-13, 5.00),
    (4.883e-4, 1.162e-09, 3.00, 1.160e-14, 4.98),
]

EMB43_NLS_LOCAL = [
    (3.125e-2, 7.017e-06, 4.69, 3.420e-07, 6.36),
    (1.563e-2, 2.282e-07, 4.94, 2.646e-09, 7.01),
    (7.813e-3, 7.164e-09, 4.99, 2.123e-11, 6.96),
    (3.906e-3, 2.240e-10, 5.00, 1.706e-13, 6.96),
]

STRANG_NLS_GLOBAL = [
    (1.563e-2, 2.539e-04, 1.99, 5.703e-07, 4.00),
    (7.813e-3, 6.354e-05, 2.00, 3.634e-08, 3.97),
    (3.906e-3, 1.589e-05, 2.00, 2.283e-09, 3.99),
    (1.953e-3, 3.972e-06, 2.00, 1.428e-10, 4.00),
    (9.766e-4, 9.931e-07, 2.00, 8.928e-12, 4.00),
    (4.883e-4, 2.483e-07, 2.00, 5.611e-13, 3.99),
]

EMB43_NLS_GLOBAL = [
    (3.125e-2, 7.894e-06, 4.85, 6.859e-07, 5.97),
    (1.563e-2, 4.035e-07, 4.29, 2.771e-09, 7.95),
    (7.813e-3, 2.471e-08, 4.03, 2.987e-11, 6.54),
    (3.906e-3, 1.537e-09, 4.01, 4.622e-13, 6.01),
]

EXPMID_RZ_LOCAL = [
    (1.250e-1, 3.343e-03, 2.97, 7.157e-06, 4.96),
    (6.250e-2, 4.198e-04, 2.99, 2.251e-07, 4.99),
    (3.125e-2, 5.254e-05, 3.00, 7.047e-09, 5.00),
    (1.563e-2, 6.569e-06, 3.00, 2.203e-10, 5.00),
    (7.813e-3, 8.212e-07, 3.00, 6.885e-12, 5.00),
    (3.906e-3, 1.026e-07, 3.00, 2.157e-13, 5.00),
]

CF4_TAYLOR_RZ_LOCAL = [
    (5.000e-1, 1.884e-03, 4.78, 5.854e-05, 6.61),
    (2.500e-1, 6.029e-05, 4.97, 4.875e-07, 6.91),
    (1.250e-1, 1.892e-06, 4.99, 3.868e-09, 6.98),
    (6.250e-2, 5.918e-08, 5.00, 3.033e-11, 6.99),
    (3.125e-2, 1.850e-09, 5.00, 2.373e-13, 7.00),
]

CF4_HERMITE_RZ_LOCAL = [
    (5.000e-1, 1.884e-03, 4.78, 4.008e-05, 6.64),
    (2.500e-1, 6.029e-05, 4.97, 3.277e-07, 6.93),
    (1.250e-1, 1.892e-06, 4.99, 2.584e-09, 6.99),
    (6.250e-2, 5.918e-08, 5.00, 2.023e-11, 7.00),
    (3.125e-2, 1.850e-09, 5.00, 1.583e-13, 7.00),
]

MAGNUS4_RZ_LOCAL = [
    (5.000e-1, 4.788e-03, 4.56, 1.214e-04, 6.13),
    (2.500e-1, 1.618e-04, 4.89, 1.126e-06, 6.75),
    (1.250e-1, 5.154e-06, 4.97, 9.201e-09, 6.94),
    (6.250e-2, 1.618e-07, 4.99, 7.269e-11, 6.98),
    (3.125e-2, 5.064e-09, 5.00, 5.693e-13, 7.00),
]

EXPMID_RZ_GLOBAL = [
    (5.000e-1, 2.713e-01, None, 7.652e-03, None),
    (2.500e-1, 6.618e-02, 2.04, 4.638e-04, 4.04),
    (1.250e-1, 1.645e-02, 2.01, 2.880e-05, 4.01),
    (6.250e-2, 4.106e-03, 2.00, 1.797e-06, 4.00),
    (3.125e-2, 1.026e-03, 2.00, 1.123e-07, 4.00),
    (1.563e-2, 2.565e-04, 2.00, 7.018e-09, 4.00),
]

CF4_TAYLOR_RZ_GLOBAL = [
    (5.000e-1, 2.098e-03, None, 5.330e-05, None),
    (2.500e-1, 1.212e-04, 4.11, 7.419e-07, 6.17),
    (1.250e-1, 7.443e-06, 4.03, 1.126e-08, 6.04),
    (6.250e-2, 4.632e-07, 4.01, 1.745e-10, 6.01),
    (3.125e-2, 2.892e-08, 4.00, 2.768e-12, 5.98),
    (1.563e-2, 1.807e-09, 4.00, 1.175e-13, 4.56),
]

CF4_HERMITE_RZ_GLOBAL = [
    (5.000e-1, 2.098e-03, None, 3.203e-05, None),
    (2.500e-1, 1.212e-04, 4.11, 4.402e-07, 6.19),
    (1.250e-1, 7.443e-06, 4.03, 6.702e-09, 6.04),
    (6.250e-2, 4.632e-07, 4.01, 1.041e-10, 6.01),
    (3.125e-2, 2.892e-08, 4.00, 1.676e-12, 5.96),
    (1.563e-2, 1.807e-09, 4.00, 1.052e-13, 3.99),
]

MAGNUS4_RZ_GLOBAL = [
    (5.000e-1, 6.957e-03, None, 1.536e-04, None),
    (2.500e-1, 4.362e-04, 4.00, 2.452e-06, 5.97),
    (1.250e-1, 2.728e-05, 4.00, 3.853e-08, 5.99),
    (6.250e-2, 1.705e-06, 4.00, 6.029e-10, 6.00),
    (3.125e-2, 1.066e-07, 4.00, 9.419e-12, 6.00),
    (1.563e-2, 6.662e-09, 4.00, 1.688e-13, 5.80),
]

MAGNITUDE_FACTOR = 1.5
ORDER_TOL_ASYMPTOTIC = 0.15
ORDER_TOL_COARSE = 0.5
FLOOR = 1e-12  # corrected global errors below this sit at roundoff


def _magnitude(failures, label, measured, expected):
    if not expected / MAGNITUDE_FACTOR <= measured <= expected * MAGNITUDE_FACTOR:
        failures.append(f"{label}: {measured:.3e} vs {expected:.3e} (x{MAGNITUDE_FACTOR})")


def _order(failures, label, measured, expected, tol):
    # a NaN order (failed or zero row) fails the comparison as it should
    if not abs(measured - expected) <= tol:
        failures.append(f"{label}: order {measured:.2f} vs {expected:.2f} (+-{tol})")


def check_local(rows, table, err_tol_small, dev_tol_small, published=True):
    """Failures of a local study against a published table.

    ``rows`` excludes the extra coarsest level the study runs to get an
    order on the first printed row. With ``published`` the gate's full
    check applies: magnitudes on every row, the tight order tolerance on
    the two finest rows and the coarse one above them. Without it only the
    orders of the two finest rows are checked.
    """
    failures = []
    if len(rows) != len(table):
        return [f"{len(rows)} rows, published table has {len(table)}"]
    n = len(table)
    for i, (row, (tau, err, err_order, dev, dev_order)) in enumerate(zip(rows, table)):
        tight = i >= n - 2
        if not (published or tight):
            continue
        if published:
            _magnitude(failures, f"tau={tau:.3e} err", row.err_norm, err)
            _magnitude(failures, f"tau={tau:.3e} dev", row.dev_norm, dev)
        _order(failures, f"tau={tau:.3e} err", row.err_order, err_order,
               err_tol_small if tight else ORDER_TOL_COARSE)
        _order(failures, f"tau={tau:.3e} dev", row.dev_order, dev_order,
               dev_tol_small if tight else ORDER_TOL_COARSE)
    return failures + [f"tau={r.tau:.3e} failed row" for r in rows if r.failed]


def check_global(rows, table, published=True):
    """Failures of a global study against a published table.

    Corrected rows at the reference's roundoff floor are skipped, as in the
    gate; orders carry the tight tolerance on the two finest rows above the
    floor. Without ``published`` only those finest-row orders are checked.
    """
    if len(rows) != len(table):
        return [f"{len(rows)} rows, published table has {len(table)}"]
    failures = []
    clean = [i for i, entry in enumerate(table) if entry[3] > FLOOR]
    tight_corrected = clean[-2:]
    n = len(table)
    for i, (row, (tau, g_err, g_order, c_err, c_order)) in enumerate(zip(rows, table)):
        tight = i >= n - 2
        if published:
            _magnitude(failures, f"tau={tau:.3e} global", row.global_err, g_err)
        if g_order is not None and (published or tight):
            tol = ORDER_TOL_ASYMPTOTIC if tight else ORDER_TOL_COARSE
            _order(failures, f"tau={tau:.3e} global", row.global_order, g_order, tol)
        if i not in clean:
            continue
        if published:
            _magnitude(failures, f"tau={tau:.3e} corrected", row.corrected_err, c_err)
        if c_order is not None and (published or i in tight_corrected):
            tol = ORDER_TOL_ASYMPTOTIC if i in tight_corrected else ORDER_TOL_COARSE
            _order(failures, f"tau={tau:.3e} corrected", row.corrected_order, c_order, tol)
    return failures + [f"tau={r.tau:.3e} failed row" for r in rows if r.failed]


def check_flat_err_orders(rows, table, tol=0.1):
    """Criteria 1 and 2 additionally hold every local-error order to +-0.1."""
    failures = []
    for row, entry in zip(rows, table):
        _order(failures, f"tau={entry[0]:.3e} err (flat)", row.err_order, entry[2], tol)
    return failures


def check_emb43_nls_global(rows):
    """Criterion 3's check of the 4th-order splitting global table: global
    errors and orders as published, and corrected orders of at least 5.5 at
    the two mid ladder points (the published small-step ones are irregular)."""
    if len(rows) != len(EMB43_NLS_GLOBAL):
        return [f"{len(rows)} rows, published table has {len(EMB43_NLS_GLOBAL)}"]
    failures = []
    for i, (row, entry) in enumerate(zip(rows, EMB43_NLS_GLOBAL)):
        tol = ORDER_TOL_ASYMPTOTIC if i >= 2 else ORDER_TOL_COARSE
        _order(failures, f"tau={entry[0]:.3e} global", row.global_order, entry[2], tol)
        _magnitude(failures, f"tau={entry[0]:.3e} global", row.global_err, entry[1])
    for i in (1, 2):
        if not rows[i].corrected_order >= 5.5:
            failures.append(f"corrected order {rows[i].corrected_order:.2f} < 5.5 at mid point")
    return failures + [f"tau={r.tau:.3e} failed row" for r in rows if r.failed]
