"""Tests of the benchmark itself (not collected by the package's test run).

    PYTHONPATH=src python -m pytest benchmarks -q
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

import run
import symdefect
import workloads
from run import WORKLOAD_NAMES
from tracer import MODULES, Tracer
from worker import PER_LAYER, _Log, run_workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
END_TO_END = ["setup_s", "wall_ref_s", "cpu_ref_s", "peak_rss_mb"]


def _package_attributes():
    modules = [symdefect] + [sys.modules[f"symdefect.{name}"] for name in MODULES]
    return {(module.__name__, attr): value
            for module in modules for attr, value in vars(module).items()}


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_workload_runs_at_reduced_size(name):
    report = run_workload(name, seed=0, seconds=0.0, trace=0, small=True)
    assert report["ops_attempted"] >= 1
    assert report["ops_failed"] == 0, report["failures"]
    assert report["wall_s"] > 0.0 and report["cpu_s"] > 0.0
    assert report["wall_ref_s"] > 0.0 and report["cpu_ref_s"] > 0.0


def test_speed_probe_time_is_taken_off_and_its_handler_removed():
    log = _Log(["sleep"])
    handler = signal.getsignal(signal.SIGALRM)

    def sleep():
        time.sleep(0.35)
        return workloads.Op("sleep")

    wall = log.run("sleep", sleep)
    assert len(log._probed) >= 2  # the kernel ran during the operation
    assert abs(wall - 0.35) < 0.02
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    _, _, kernel = log.times["sleep"][0]
    assert 0.0 < kernel < 0.1


def test_jittered_seed_changes_inputs_but_still_passes():
    published = workloads.WORKLOADS["rz-tables"](0).inputs()
    jittered = workloads.WORKLOADS["rz-tables"](7).inputs()
    assert published == {"omega": 0.5, "pulse_duration": 1.0, "amplitude": 1.0}
    for key, value in published.items():
        assert jittered[key] != value
        assert abs(jittered[key] / value - 1.0) <= workloads.JITTER
    assert workloads.WORKLOADS["rz-tables"](7).inputs() == jittered
    report = run_workload("rz-tables", seed=7, seconds=0.0, trace=0, small=True)
    assert report["ops_failed"] == 0, report["failures"]


def test_traced_run_reports_every_layer_and_restores_the_package():
    before = _package_attributes()
    report = run_workload("nls-tables", seed=0, seconds=0.0, trace=1, small=True)
    after = _package_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    layers = report["per_layer"]
    assert set(layers) == {name for name, _, _ in PER_LAYER}
    # the self times of all spans of a traced pass fit inside that pass
    for traced in report["traced_passes"]:
        assert 0.0 < traced["self_sum_s"] <= traced["wall_s"]
    assert layers["linalg.fft.calls"] > 0
    assert layers["linalg.expm.calls"] == 0
    assert layers["control.reference_solve.calls"] >= 1


def test_tracer_restores_problem_methods_after_an_exception():
    workload = workloads.WORKLOADS["scalar-oracle"](0, small=True)
    workload.setup()
    problem = workload.problem
    own = dict(vars(problem))
    before = _package_attributes()
    with pytest.raises(ZeroDivisionError):
        with Tracer() as tracer:
            tracer.install(problem)
            assert symdefect.control.corrected_run is not before[
                ("symdefect.control", "corrected_run")]
            assert "f" in vars(problem)
            1 / 0
    assert vars(problem) == own
    after = _package_attributes()
    assert all(after[key] is value for key, value in before.items())


def test_tracer_self_time_excludes_children():
    workload = workloads.WORKLOADS["nls-tables"](0, small=True)
    workload.setup()
    with Tracer() as tracer:
        tracer.install(workload.problem)
        for _, run_op in workload.operations():
            run_op()
    names = tracer.by_name()
    for stats in names.values():
        assert 0.0 <= stats["self_s"] <= stats["total_s"] + 1e-12
    study = names["cli.run_global_study"]
    assert study["self_s"] < study["total_s"]
    # fft is a leaf: kept in aggregate only, and its parents are the NLS methods
    parents = {parent for name, parent in tracer.aggregate if name == "linalg.fft"}
    assert parents <= {"problems.flow_A", "problems.apply_A"}
    assert not tracer.durations("linalg.fft")
    assert tracer.extra["control.corrected_run.steps"] > 0


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert set(WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(entry) for entry in PER_LAYER]
    assert [m["name"] for m in spec["end_to_end"]] == END_TO_END


def _command(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "benchmarks", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_command_prints_every_end_to_end_metric():
    proc = _command(ROOT, "--workload", "nls-tables", "--seed", "0",
                    "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert list(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "nls-tables fail_frac 0 " in proc.stdout
    assert "nls-tables wall_s " in proc.stdout and "nls-tables cpu_s " in proc.stdout


def test_a_timeout_counts_as_a_failed_operation(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "SETUP_REPEATS", 0)
    monkeypatch.setattr(run, "DEADLINE_S", 0.0)  # the worker gets the 1 s minimum
    code = run.main(["--workload", "rz-tables", "--seed", "0", "--seconds", "0"])
    assert code == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def test_command_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _command(str(tmp_path), "--workload", "nls-tables", "--seed", "0",
                    "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
