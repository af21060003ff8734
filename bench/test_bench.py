"""Tests of the benchmark itself.

Run from the root of the checkout:

    python3 -m pytest -q bench/test_bench.py

They run every workload briefly with tracing off and on, check that every
metric BENCHMARK.json names comes out with its unit, and check that the
output checks reject tampered outputs.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from checks import (
    Checker,
    check_analysis,
    check_harness_report,
    choi_from_kraus,
    count_mismatch,
    kraus_from_stinespring,
)
from layers import Totals, Tracer, per_layer_metrics
from workloads import WORKLOADS, harness_command, make_workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK = ROOT / ".bench_work" / "tests"


def run_bench(cwd: Path, workload: str, trace: int, seconds: str = "0.2"):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr[-3000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)


def test_without_chancert_sources_it_fails_and_prints_no_result():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, "files", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    shutil.rmtree(bare)


@pytest.fixture(scope="module")
def chancert_cli():
    sys.path.insert(0, str(ROOT / "src"))
    import chancert.cli

    return chancert.cli


def run_command(cli, command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(command.argv))
    return rc, out.getvalue()


def test_tampered_harness_reports_fail(chancert_cli):
    report_path = WORK / "harness" / "report.json"
    report_path.parent.mkdir(parents=True, exist_ok=True)
    command = harness_command((2, 2, 3), 20220404, report_path)
    rc, stdout = run_command(chancert_cli, command)
    checker = Checker()
    good = checker.check(command, rc, stdout)
    assert good.ok, good.problems
    golden = json.loads((BENCH / "golden.json").read_text())["counts"]["2,2,3"]
    assert count_mismatch(good.signature, golden, "golden") == ()

    report = json.loads(report_path.read_text())
    tampered = copy.deepcopy(report)
    tampered["counterexamples"] = [{"seed": 1, "index": 0, "type": "CounterexampleOrBugError"}]
    assert not check_harness_report(tampered, command.expect).ok

    tampered = copy.deepcopy(report)
    tampered["counts"]["samples"] -= 1
    assert not check_harness_report(tampered, command.expect).ok

    tampered = copy.deepcopy(report)
    tampered["counts"]["regime_applied_to_psi_given_phi_ppt"] += 1
    assert not check_harness_report(tampered, command.expect).ok

    # Consistent in itself, but not what this seed gives.
    tampered = copy.deepcopy(report)
    tampered["counts"]["witness_psi_fired"] -= 1
    outcome = check_harness_report(tampered, command.expect)
    assert outcome.ok
    assert count_mismatch(outcome.signature, golden, "golden") != ()

    assert not checker.check(command, 4, stdout).ok


def test_tampered_file_outputs_fail(chancert_cli):
    workload = make_workload("files", 5, WORK / "files")
    workload.prepare(chancert_cli.main)
    checker = Checker()
    by_kind = {}
    for command in workload.commands:
        rc, stdout = run_command(chancert_cli, command)
        outcome = checker.check(command, rc, stdout)
        assert outcome.ok, (command.argv, outcome.problems)
        by_kind.setdefault((command.kind, command.expect["source"].family), (command, stdout))

    command, stdout = by_kind[("analyze", "identity")]
    report = json.loads(command.expect["output"].read_text())
    report["analysis"]["predicates"]["ppt"]["value"] = "yes"
    assert not check_analysis(report, "identity", "choi").ok

    command, stdout = by_kind[("convert-kraus", "dephasing")]
    first = Path(stdout.split()[0])
    kraus = json.loads(first.read_text())
    kraus["re"][0][0] += 1e-3
    first.write_text(json.dumps(kraus))
    assert not checker.check(command, 0, stdout).ok

    command, stdout = by_kind[("convert-kraus", "transpose")]
    assert not checker.check(command, 0, stdout).ok


def test_numpy_choi_helpers_agree_with_a_direct_sum():
    rng = np.random.default_rng(1)
    d_a, d_b, d_c = 2, 3, 2
    matrix = rng.standard_normal((d_b * d_c, d_a)) + 1j * rng.standard_normal((d_b * d_c, d_a))
    ops = kraus_from_stinespring(matrix, d_a, d_b, d_c)
    want = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for i in range(d_a):
        for j in range(d_a):
            e = np.zeros((d_a, d_a))
            e[i, j] = 1.0
            block = sum(k @ e @ k.conj().T for k in ops)
            want[i * d_b:(i + 1) * d_b, j * d_b:(j + 1) * d_b] = block
    assert np.allclose(choi_from_kraus(ops, d_a, d_b), want)


def test_self_time_subtracts_child_spans():
    tracer = Tracer("no_such_package")
    a, b, c = (tracer._name_id(n) for n in ("cli.main", "io.save_json", "kernel.svd"))
    for start, end, parent, name in ((0.0, 10.0, -1, a), (2.0, 5.0, 0, b), (3.0, 4.0, 1, c),
                                     (6.0, 7.0, 0, c)):
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.name.append(name)
        tracer.command.append(0)
    totals = tracer.fold()
    assert totals.self_s["cli.main"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert totals.self_s["io.save_json"] == pytest.approx(2.0)
    assert totals.busy_s["kernel.svd"] == pytest.approx(2.0)
    assert totals.calls["kernel.svd"] == 2


def test_missing_functions_read_zero():
    metrics = per_layer_metrics(Totals(), ops=10)
    assert {m["name"] for m in SPEC["per_layer"]} - set(metrics) == {
        "trace.overhead_ratio", "process.cpu_per_wall"}
    assert all(value == 0 for value, _ in metrics.values())


def test_install_wraps_every_binding_and_uninstall_restores(chancert_cli):
    import numpy.linalg

    import chancert.channels
    import chancert.linalg

    originals = (chancert.linalg.as_matrix, chancert.channels.as_matrix, numpy.linalg.svd)
    tracer = Tracer("chancert")
    tracer.install()
    try:
        assert chancert.linalg.as_matrix is not originals[0]
        assert chancert.channels.as_matrix is chancert.linalg.as_matrix
        assert numpy.linalg.svd is not originals[2]
        chancert.channels.as_matrix(np.eye(2))
    finally:
        tracer.uninstall()
    assert (chancert.linalg.as_matrix, chancert.channels.as_matrix,
            numpy.linalg.svd) == originals
    assert tracer.fold().calls["linalg.as_matrix"] == 1

