"""The seed-0 table digests of every benchmark operation, pinned per machine class.

A digest hashes an operation's rendered rows (``benchmarks/workloads.py``), and
its bits depend on numpy's SIMD dispatch and OpenBLAS's kernel as well as on the
code. Capping can only remove features, so two classes are reproducible on any
x86-64 machine with AVX2 and FMA: numpy's dispatch capped at X86_V3 and at X86_V2
through ``NPY_DISABLE_CPU_FEATURES``, each with ``OPENBLAS_CORETYPE=Haswell`` and
one BLAS thread. Each class runs in its own child process, one after the other.
``digests.json`` keeps the digests per numpy and Python minor version; an unknown
pair skips. After an intended change of bits, re-record with

    PYTHONPATH=src python tests/test_digests.py --record
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("digests.json")
CLASSES = ("X86_V3", "X86_V2")
KEY = f"numpy {np.__version__}, python {sys.version_info.major}.{sys.version_info.minor}"

_FEATURES = """\
import json
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
print(json.dumps([list(__cpu_dispatch__), sorted(k for k, v in __cpu_features__.items() if v)]))
"""

_TABLES = """\
import json
import workloads
digests = {}
for name, workload in workloads.WORKLOADS.items():
    workload = workload(0)
    workload.setup()
    for label, run in workload.operations():
        op = run()
        digests.setdefault(name, {})[label] = "; ".join(op.failures) or op.digest
print(json.dumps(digests))
"""


def _child(code, env):
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    if done.returncode:
        raise RuntimeError(f"the child process failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def class_digests():
    """{class: {workload: {operation: digest}}}, or a reason why this machine has no
    such classes. The features to disable come from a child without the caller's
    NPY_DISABLE_CPU_FEATURES, whose disabled features would read as absent."""
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env.update(PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT / "benchmarks"))),
               OPENBLAS_CORETYPE="Haswell", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    dispatch, features = _child(_FEATURES, env)
    if "X86_V3" not in features:
        return f"numpy finds no X86_V3 (AVX2 and FMA) features here, only {features}"
    digests = {}
    for cap in CLASSES:
        above = dispatch[dispatch.index(cap) + 1:] if cap in dispatch else dispatch
        off = " ".join(x for x in above if x in features)  # numpy rejects a feature it lacks
        digests[cap] = _child(_TABLES, {**env, "NPY_DISABLE_CPU_FEATURES": off})
    return digests


def test_table_digests_are_the_recorded_ones():
    recorded = json.loads(DIGESTS.read_text()).get(KEY)
    if recorded is None:
        pytest.skip(f"tests/digests.json records no digests for {KEY}")
    got = class_digests()
    if isinstance(got, str):
        pytest.skip(got)
    moved = [f"{cap} {name} {label}: {want.get(label)} -> {have.get(label)}"
             for cap in CLASSES
             for name in sorted(recorded[cap].keys() | got[cap].keys())
             for want, have in [(recorded[cap].get(name, {}), got[cap].get(name, {}))]
             for label in sorted(want.keys() | have.keys()) if want.get(label) != have.get(label)]
    assert not moved, "tables moved:\n" + "\n".join(moved)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    got = class_digests()
    if isinstance(got, str):
        sys.exit(got)
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    recorded[KEY] = got
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {KEY} in {DIGESTS}")
