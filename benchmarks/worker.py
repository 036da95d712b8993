"""One workload in its own process: set up, run passes, check, report.

Started by ``run.py`` with ``src`` and this directory on ``PYTHONPATH``;
prints one JSON object on its last line of standard output.

    python3 worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 worker.py --workload NAME --seed N --setup-only

Set-up time runs from before numpy and symdefect are imported to after the
warm-up step, so it covers import, problem and method construction and the
first step. A pass runs each operation of the workload (a table study, an
adaptive run, an oracle evaluation) once, with the checks of its result.
Operations run in turn, one whole pass and then on until the next would end
after ``--seconds``.

``wall_s`` and ``cpu_s`` are the sum over operations of the mean time of
each, the average time of one pass as measured. On a shared machine the
speed of a core changes by up to a fifth for minutes at a time (CPU time
follows wall time, so this is not waiting): the fastest of some thirty runs
of one 0.1 s oracle call in a 25 s run moved from 44 to 67 ms between runs
a few minutes apart, so no statistic taken within one run removes it. A
fixed reference kernel that calls no symdefect code (an interpreter loop,
numpy calls on tiny arrays, math on arrays of 4096 complex numbers)
therefore runs before and after every operation and every 0.1 s during it
(see ``_Log``), and ``wall_ref_s`` and ``cpu_ref_s`` are the sum over
operations of the median, over its runs, of its time divided by the kernel
time of that run, times REFERENCE_KERNEL_S: seconds on a core that runs the
kernel in 2 ms. Over ten seeds per workload on a 2-vCPU VM the distance
between the quartiles of ``wall_ref_s`` was 2-4% of its median, against
9-25% for ``wall_s``. A change to the package moves the operation's time
and not the kernel's.

With ``--trace 1`` untraced and traced whole passes alternate, so the
per-layer numbers and the tracing overhead come from the same process.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer  # noqa: E402


REFERENCE_KERNEL_S = 0.002
BOUNDARY_RUNS = 3
PROBE_INTERVAL_S = 0.1


def make_reference_kernel():
    """A function that runs the fixed reference kernel once and returns its
    wall time: about 2 ms, in three parts of similar length that each stand
    for part of the package's work (interpreter, numpy calls on tiny arrays,
    floating-point math on arrays of 4096 complex numbers). It makes no
    matrix products, so its time does not depend on how many threads the
    BLAS library may start."""
    import numpy as np

    rng = np.random.default_rng(0)
    v = rng.normal(size=4096) + 1j * rng.normal(size=4096)

    def kernel():
        start = time.perf_counter()
        total = 0
        for i in range(10000):
            total += i * i
        x = np.ones(8, dtype=complex)
        for _ in range(200):
            x = x * 1.0001 + 1e-9
        for _ in range(4):
            np.exp(1e-3 * v) * v
        return time.perf_counter() - start

    for _ in range(5):  # warm-up
        kernel()
    return kernel


def _percentile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _min_time_us(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e6


def kernel_microbenchmarks():
    """Minimum of N single calls of the kernels the workloads lean on."""
    import numpy as np

    from symdefect import linalg, problems

    rng = np.random.default_rng(0)
    v = rng.normal(size=512) + 1j * rng.normal(size=512)
    rz = problems.RosenZener()
    a1, a2 = rz.A(0.3), rz.A(0.7)
    return {
        "linalg.fft512_us": _min_time_us(lambda: linalg.fft(v), 200),
        "linalg.expm100_us": _min_time_us(lambda: linalg.expm(0.1 * a1), 20),
        "linalg.commutator100_us": _min_time_us(lambda: linalg.commutator(a1, a2), 50),
        "problems.rz_A_us": _min_time_us(lambda: rz.A(0.3), 200),
    }


# Per-layer metrics: (name, unit, better). The names are the contract with
# BENCHMARK.json, whose per_layer list must match this one.
_COUNTED = [
    "linalg.fft", "linalg.ifft", "linalg.expm", "linalg.commutator",
    "problems.flow_A", "problems.flow_B", "problems.dflow_B", "problems.A",
    "problems.f", "problems.df",
    "schemes.step_splitting", "schemes.step_exp_midpoint", "schemes.step_cfm",
    "schemes.step_magnus4", "schemes.step_implicit_midpoint",
    "defects.strang_defect", "defects.splitting_defect_semilinear",
    "defects.splitting_defect_nonlinear", "defects.imr_defect",
    "defects.expmid_defect", "defects.cfm_defect", "defects.magnus4_defect",
    "control.flow_derivative_apply",
]
_EVALUATORS = [name for name in _COUNTED if name.startswith("defects.")]

PER_LAYER = (
    [(f"{name}.calls", "count", "lower") for name in _COUNTED]
    + [(f"{name}.self_s", "s", "lower") for name in _COUNTED]
    + [
        ("problems.apply_A.calls", "count", "lower"),
        ("problems.dA.calls", "count", "lower"),
        ("schemes.solve_linearized.calls", "count", "lower"),
        ("linalg.fft_per_step", "calls/step", "lower"),
        ("linalg.fft512_us", "us", "lower"),
        ("linalg.expm100_us", "us", "lower"),
        ("linalg.commutator100_us", "us", "lower"),
        ("problems.rz_A_us", "us", "lower"),
        ("defects.splitting_defect_semilinear.p50_ms", "ms", "lower"),
        ("defects.splitting_defect_semilinear.p90_ms", "ms", "lower"),
        ("control.reference_solve.calls", "count", "lower"),
        ("control.reference_solve.total_s", "s", "lower"),
        ("control.corrected_run.calls", "count", "lower"),
        ("control.corrected_run.steps", "count", "lower"),
        ("control.adaptive.trials", "count", "lower"),
        ("control.adaptive.rejected", "count", "lower"),
        ("control.adaptive.accept_ratio", "fraction", "higher"),
        ("control.adaptive_integrate.self_s", "s", "lower"),
        ("control.local_error_integral_oracle.total_s", "s", "lower"),
        ("cli.run_local_study.self_s", "s", "lower"),
        ("cli.run_global_study.self_s", "s", "lower"),
        ("cli.run_global_study.total_s", "s", "lower"),
        ("trace_overhead_frac", "fraction", "lower"),
    ]
)


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass (all but the kernel
    microbenchmarks and the tracing overhead)."""
    names = tracer.by_name()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def stat(name, key):
        return names.get(name, empty)[key]

    out = {}
    for name in _COUNTED:
        out[f"{name}.calls"] = stat(name, "calls")
        out[f"{name}.self_s"] = stat(name, "self_s")
    for name in ("problems.apply_A", "problems.dA", "schemes.solve_linearized",
                 "control.reference_solve", "control.corrected_run"):
        out[f"{name}.calls"] = stat(name, "calls")
    step_calls = sum(stat(name, "calls") for name in _EVALUATORS)
    ffts = stat("linalg.fft", "calls") + stat("linalg.ifft", "calls")
    out["linalg.fft_per_step"] = ffts / step_calls if step_calls else 0.0
    latencies = tracer.durations("defects.splitting_defect_semilinear")
    out["defects.splitting_defect_semilinear.p50_ms"] = 1e3 * _percentile(latencies, 0.5)
    out["defects.splitting_defect_semilinear.p90_ms"] = 1e3 * _percentile(latencies, 0.9)
    out["control.reference_solve.total_s"] = stat("control.reference_solve", "total_s")
    out["control.corrected_run.steps"] = tracer.extra.get("control.corrected_run.steps", 0)
    trials = tracer.extra.get("control.adaptive_integrate.trials", 0)
    rejected = tracer.extra.get("control.adaptive_integrate.rejected", 0)
    out["control.adaptive.trials"] = trials
    out["control.adaptive.rejected"] = rejected
    out["control.adaptive.accept_ratio"] = (trials - rejected) / trials if trials else 0.0
    out["control.adaptive_integrate.self_s"] = stat("control.adaptive_integrate", "self_s")
    out["control.local_error_integral_oracle.total_s"] = stat(
        "control.local_error_integral_oracle", "total_s")
    out["cli.run_local_study.self_s"] = stat("cli.run_local_study", "self_s")
    out["cli.run_global_study.self_s"] = stat("cli.run_global_study", "self_s")
    out["cli.run_global_study.total_s"] = stat("cli.run_global_study", "total_s")
    return out


def _median_by_key(snapshots):
    return {key: statistics.median(s[key] for s in snapshots) for key in snapshots[0]}


class _Log:
    """Times, failures and digests of the operations run in one process.

    Around every operation the reference kernel runs BOUNDARY_RUNS times,
    and during an untraced one also every PROBE_INTERVAL_S of wall time,
    from a SIGALRM handler; the time spent in the handler is taken off the
    operation's. The harmonic mean of these kernel times goes with the
    operation's time, so a long operation is paired with the speed of the
    core while it ran and not only at its ends. The harmonic mean is the
    one that matches: a core running at speed v(t) does the operation's
    work W in the time T with W = T * mean(v), and the kernel's time at a
    sample is K / v; it also gives little weight to a kernel run that was
    itself interrupted.
    """

    def __init__(self, labels):
        # label -> [(wall, cpu, reference kernel time around and during the run)]
        self.times = {label: [] for label in labels}
        self.traced_times = {label: [] for label in labels}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests = {}
        self.digests_stable = True
        self.kernel = make_reference_kernel()
        self._boundary = self._kernel_runs()
        self._probed = []
        self._probe_cpu = 0.0

    def _kernel_runs(self):
        return [self.kernel() for _ in range(BOUNDARY_RUNS)]

    def _probe(self, signum, frame):
        cpu0 = time.process_time()
        self._probed.append(self.kernel())
        self._probe_cpu += time.process_time() - cpu0

    def run(self, label, run, traced=False):
        self._probed = []
        self._probe_cpu = 0.0
        if not traced:
            previous = signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            op = run()
        finally:
            if not traced:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        wall -= sum(self._probed)
        cpu -= self._probe_cpu
        after = self._kernel_runs()
        kernel = statistics.harmonic_mean(self._boundary + self._probed + after)
        self._boundary = after
        (self.traced_times if traced else self.times)[label].append((wall, cpu, kernel))
        self.attempted += 1
        if op.failures:
            self.failed += 1
            self.failures.extend(f"{op.label}: {msg}" for msg in op.failures)
        if self.digests.setdefault(op.label, op.digest) != op.digest:
            self.digests_stable = False
        return wall

    def per_pass(self, index, traced=False):
        """Average time of one pass: the sum over operations of the mean
        wall (index 0) or CPU (index 1) time of each."""
        times = self.traced_times if traced else self.times
        return sum(statistics.fmean(t[index] for t in ts) for ts in times.values())

    def per_pass_ref(self, index):
        """Time of one untraced pass on a core that runs the reference kernel
        in REFERENCE_KERNEL_S: the sum over operations of the median over
        its runs of the wall (index 0) or CPU (index 1) time over the
        kernel's."""
        return REFERENCE_KERNEL_S * sum(
            statistics.median(t[index] / t[2] for t in ts) for ts in self.times.values())

    def kernel_median(self):
        return statistics.median(t[2] for ts in self.times.values() for t in ts)


def _round_robin(ops, seconds, log):
    """Run the operations in turn: one whole pass, then on as long as the
    next operation, timed as its last run, still ends within ``seconds``."""
    begin = time.perf_counter()
    count = 0
    while True:
        label, run = ops[count % len(ops)]
        log.run(label, run)
        count += 1
        if count >= len(ops):
            upcoming = ops[count % len(ops)][0]
            if time.perf_counter() - begin + log.times[upcoming][-1][0] > seconds:
                return count


def _alternating_passes(workload, ops, seconds, log):
    """Untraced and traced whole passes in turn, at least one of each, as
    long as the next pair, timed as the last, still ends within ``seconds``.
    Returns the per-layer metrics of each traced pass, and its wall time
    with the sum of the self times of its spans."""
    snapshots = []
    walls = []
    begin = time.perf_counter()
    while True:
        for label, run in ops:
            log.run(label, run)
        tracer = Tracer()
        tracer.install(workload.problem)
        try:
            wall = sum(log.run(label, run, traced=True) for label, run in ops)
        finally:
            tracer.restore()
        snapshots.append(layer_metrics(tracer))
        self_sum = sum(v["self_s"] for v in tracer.by_name().values())
        walls.append({"wall_s": wall, "self_sum_s": self_sum})
        if time.perf_counter() - begin + 2 * wall > seconds:
            return snapshots, walls


def run_workload(name, seed, seconds, trace, small=False):
    """Set up and run one workload in this process; returns the report dict.

    Set-up time counts from the import of this module, so it is only
    meaningful when this process was started to run one workload.
    """
    import workloads

    workload = workloads.WORKLOADS[name](seed, small=small)
    workload.setup()
    setup_s = time.perf_counter() - _START

    ops = workload.operations()
    log = _Log([label for label, _ in ops])
    if trace:
        snapshots, traced_passes = _alternating_passes(workload, ops, seconds, log)
        runs = len(snapshots)
    else:
        runs = _round_robin(ops, seconds, log)
    report = {
        "workload": name,
        "seed": seed,
        "inputs": workload.inputs(),
        "published_inputs": workload.published,
        "setup_s": setup_s,
        "wall_s": log.per_pass(0),
        "cpu_s": log.per_pass(1),
        "wall_ref_s": log.per_pass_ref(0),
        "cpu_ref_s": log.per_pass_ref(1),
        "kernel_median_s": log.kernel_median(),
        "operation_runs": runs,
        "op_times": log.times,
        "ops_attempted": log.attempted,
        "ops_failed": log.failed,
        "failures": log.failures[:20],
        "digests": log.digests,
        "digests_stable": log.digests_stable,
    }
    if trace:
        layers = _median_by_key(snapshots)
        report["traced_passes"] = traced_passes
        report["traced_wall_s"] = log.per_pass(0, traced=True)
        layers.update(kernel_microbenchmarks())
        layers["trace_overhead_frac"] = report["traced_wall_s"] / report["wall_s"] - 1.0
        report["per_layer"] = layers
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return report


def run_setup_only(name, seed):
    import workloads

    workloads.WORKLOADS[name](seed).setup()
    return {"setup_s": time.perf_counter() - _START}


def environment():
    """Versions and BLAS build of the numpy this process imported."""
    import platform

    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy older than 1.25 prints only
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_only:
        report = run_setup_only(args.workload, args.seed)
    else:
        report = run_workload(args.workload, args.seed, args.seconds, args.trace)
        report["environment"] = environment()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
