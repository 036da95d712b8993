"""Benchmark of the symdefect package: one workload per call.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src``.
The workload runs in its own process (``worker.py``) under a timeout, so a
hang counts as a failure and memory is that workload's alone. Set-up is
measured in that process and in SETUP_REPEATS more that only set up, half
of them before it and half after, so that they meet the machine in more
than one of its slow or fast phases, and the median is reported. BLAS runs
on one thread (BLAS_THREADS), which is recorded with the number of CPUs.

End-to-end metrics: ``setup_s``, ``wall_ref_s`` and ``cpu_ref_s`` (the time
of one pass scaled to a reference core speed, see worker.py) and
``peak_rss_mb``. The measured ``wall_s`` and ``cpu_s`` and ``fail_frac`` are
printed beside them.

Standard output: one line per metric with its unit, a ``report`` JSON line
with run metadata (versions, BLAS, CPUs, commit, source line counts, the
free inputs this seed gave and a digest of every table), and as the last
line the result object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones. The exit code is 1 when a check failed, the workload
raised or timed out, and 2 when the package or a workload is missing, in
which case no result is printed.

Workloads (see workloads.py):

* ``nls-tables`` - criteria 1-3, Strang and emb43aks ladders on the soliton;
* ``rz-tables`` - criterion 4, the four Rosen-Zener schemes' ladders;
* ``adaptive-two-soliton`` - criterion 9, the adaptive run through the
  soliton crossing;
* ``scalar-oracle`` - criterion 6 on ToySplit, the integral oracle.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from worker import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("nls-tables", "rz-tables", "adaptive-two-soliton", "scalar-oracle")
SETUP_REPEATS = 8
SETUP_TIMEOUT_S = 10.0
DEADLINE_S = 170.0  # the whole command, set-up repeats included
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: the workloads are sequential. On a 2-vCPU VM a second
# OpenBLAS thread left the Rosen-Zener tables' wall time as it was (raw
# medians 17.6 s with two, 16.8 s with one) and doubled their CPU time, and
# their time relative to the reference kernel spread 8% over five seeds
# with two threads and 1% with one.
BLAS_THREADS = 1


class WorkerError(Exception):
    """The worker process failed, timed out or printed no report."""


def _nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def worker_env():
    """Environment of a worker: the package and this directory importable,
    and BLAS_THREADS BLAS threads."""
    env = dict(os.environ)
    paths = [os.path.abspath("src"), HERE]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for var in BLAS_THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def call_worker(args, env, timeout):
    """Run worker.py with ``args``; return its JSON report."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"timed out after {timeout:.0f} s") from None
    lines = out.decode(errors="replace").splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"exited with code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise WorkerError("printed no report") from None


def git_commit():
    """Commit of the checkout, read from .git without leaving it."""
    try:
        with open(".git/HEAD") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref)) as handle:
                return handle.read().strip()
        with open(".git/packed-refs") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_lines():
    """``wc -l src/symdefect/*.py``: lines per file and in total."""
    counts = {}
    folder = os.path.join("src", "symdefect")
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py"):
            with open(os.path.join(folder, name), "rb") as handle:
                counts[name] = handle.read().count(b"\n")
    counts["total"] = sum(counts.values())
    return counts


def main(argv=None):
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOAD_NAMES:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {WORKLOAD_NAMES}\n")
        return 2
    if not os.path.isfile(os.path.join("src", "symdefect", "__init__.py")):
        sys.stderr.write("src/symdefect not found: run from the root of a checkout\n")
        return 2

    env = worker_env()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []

    def set_up(times):
        for _ in range(times):
            setups.append(call_worker(common + ["--setup-only"], env, SETUP_TIMEOUT_S)["setup_s"])

    try:
        set_up(SETUP_REPEATS // 2)
        remaining = DEADLINE_S - (time.perf_counter() - start)
        remaining -= (SETUP_REPEATS - SETUP_REPEATS // 2) * SETUP_TIMEOUT_S
        report = call_worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            env, remaining)
        set_up(SETUP_REPEATS - SETUP_REPEATS // 2)
    except WorkerError as exc:
        sys.stderr.write(f"{args.workload}: worker {exc}\n")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    setups.append(report["setup_s"])
    attempted = report["ops_attempted"]
    failed = report["ops_failed"]
    for failure in report["failures"]:
        sys.stderr.write(f"{args.workload}: FAILED {failure}\n")
    if args.trace:
        metrics = {name: {"value": report["per_layer"][name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_ref_s": {"value": report["wall_ref_s"], "unit": "s"},
            "cpu_ref_s": {"value": report["cpu_ref_s"], "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} wall_s {report['wall_s']:.6g} s (as measured)")
    print(f"{args.workload} cpu_s {report['cpu_s']:.6g} s (as measured)")
    print(f"{args.workload} fail_frac {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)")

    meta = dict(report, seconds=args.seconds, trace=args.trace,
                setup_samples_s=setups, fail_frac=failed / attempted)
    meta["environment"] = dict(
        report["environment"],
        nproc=_nproc(),
        blas_threads={var: env[var] for var in BLAS_THREAD_VARS},
        commit=git_commit(),
        source_lines=source_lines(),
    )
    print(json.dumps({"report": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
