#!/usr/bin/env python3
"""Benchmark of the chancert command-line interface.

Usage, from the root of a chancert checkout:

    python3 bench/run.py --workload harness-small --seed 1 --seconds 30 --trace 0

One closed-loop client drives ``chancert.cli.main(argv)`` in this process:
each command starts only after the previous one has returned and its output
has been checked. Stdout and stderr of every command are captured, and every
command writes through ``--output`` into ``.bench_work/<workload>/``.
Workloads are described in ``workloads.py``, output checks in ``checks.py``
and the tracer in ``layers.py``.

``--trace 0`` runs commands for ``--seconds`` and reports the end-to-end
metrics. Their times are scaled to a fixed host speed: a reference workload
that does not use chancert (``reference.py``) runs between commands, and
each command's wall and CPU time is divided by the host's speed around it,
so a shared host that slows everything for a while does not move them. The
unscaled figures are in the facts.

``--trace 1`` reports the per-layer metrics instead: it repeats a fixed list
of commands, alternating an untraced and a traced pass, for ``--seconds``,
so every count is exact and repeats from pass to pass.

Outside the timed phase, every run also re-runs reference commands against
a golden count table and re-derives some harness counts sample by sample
through the library.

Machine and run facts go to a ``facts`` line on stdout. The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from workloads import HARNESS_TRIALS, WORKLOADS, HarnessWorkload, harness_command, make_workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden.json"

# Set-up runs once in this process and this many times more in fresh
# processes, since importing can only be timed once per process.
SETUP_PROBES = 8
TOLERANCE_ENV = ("CHANCERT_PSD_TOL", "CHANCERT_RANK_TOL", "CHANCERT_EQUALITY_TOL")
# Command seconds between two runs of the reference work in the timed phase.
REFERENCE_EVERY_S = 0.05


@dataclass(frozen=True)
class Invocation:
    rc: object
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float


def import_chancert():
    """Import chancert from this checkout's ``src/`` and from nowhere else."""
    package = ROOT / "src" / "chancert"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from the root of a chancert checkout")
    sys.path.insert(0, str(package.parent))
    import chancert
    import chancert.cli

    if Path(chancert.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported chancert from {chancert.__file__}, not from {package}")
    return chancert


def invoke(cli_module, argv) -> Invocation:
    """Run one command as the CLI would, with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            rc = cli_module.main(list(argv))
        except SystemExit as exc:  # argparse rejected the argv
            rc = exc.code
        except Exception:  # a crash is a failed command, not a failed benchmark
            rc = None
            traceback.print_exc()
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
    return Invocation(rc, out.getvalue(), err.getvalue(), wall, cpu)


def set_up(args, workdir: Path):
    """Import chancert, build the workload's inputs and run one warm-up command.

    Returns the package, the workload, a checker, the warm-up outcome, and
    the seconds all of it took: as measured and scaled to reference speed.
    """
    t0 = time.perf_counter()
    chancert = import_chancert()
    from checks import Checker

    workload = make_workload(args.workload, args.seed, workdir)
    workload.prepare(lambda argv: invoke(chancert.cli, argv).rc)
    warm = workload.command(0)
    result = invoke(chancert.cli, warm.argv)
    seconds = time.perf_counter() - t0
    from reference import REFERENCE_S, Reference

    reference = Reference()
    speed = statistics.median(reference.seconds() for _ in range(3)) / REFERENCE_S
    checker = Checker()
    outcome = checker.check(warm, result.rc, result.stdout)
    return chancert, workload, checker, outcome, (seconds, seconds / speed)


def setup_probes(args) -> list[tuple[float, float]]:
    """Set-up seconds, raw and scaled, of SETUP_PROBES fresh processes run
    one after another."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    values = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
        values.append(tuple(json.loads(proc.stdout.splitlines()[-1])))
    return values


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) as ``statistics.quantiles`` gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


class Run:
    """Failures and problems of one benchmark run, with what it attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, outcome, stderr: str = "") -> None:
        self.attempted += 1
        if not outcome.ok:
            self.failed += 1
            if len(self.problems) < 20:
                detail = f" ({stderr.strip().splitlines()[-1]})" if stderr.strip() else ""
                self.problems.append(f"{what}: {'; '.join(outcome.problems)}{detail}")


def execute(command, cli_module, checker, run: Run):
    """Run one command, check its output and record the outcome."""
    result = invoke(cli_module, command.argv)
    outcome = checker.check(command, result.rc, result.stdout)
    run.record(" ".join(command.argv), outcome, result.stderr)
    return result, outcome


def timed_phase(workload, cli_module, checker, seconds: float, run: Run):
    """Closed loop for ``seconds``.

    The reference work runs before the first command and then whenever
    REFERENCE_EVERY_S of command time has passed since it last ran, and
    once more at the end. Returns wall and CPU seconds per command, each
    command's host speed (the mean of the reference runs just before and
    just after it, over REFERENCE_S), all reference seconds, and the
    signatures of the first cycle of commands.
    """
    from reference import REFERENCE_S, Reference

    reference = Reference()
    walls, cpus, before, first_cycle = [], [], [], []
    refs = [reference.seconds()]
    since = 0.0
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        command = workload.command(i)
        result, outcome = execute(command, cli_module, checker, run)
        walls.append(result.wall_s)
        cpus.append(result.cpu_s)
        before.append(len(refs) - 1)
        if i < workload.cycle:
            first_cycle.append((command, outcome.signature))
        since += result.wall_s
        if since >= REFERENCE_EVERY_S:
            refs.append(reference.seconds())
            since = 0.0
        i += 1
    if since > 0.0:
        refs.append(reference.seconds())
    speeds = [(refs[k] + refs[k + 1]) / (2.0 * REFERENCE_S) for k in before]
    return walls, cpus, speeds, refs, first_cycle


def run_pass(commands, cli_module, checker, run: Run, tracer=None):
    """Run ``commands`` once; returns their signatures, wall and CPU seconds."""
    signatures, wall, cpu = [], 0.0, 0.0
    for i, command in enumerate(commands):
        if tracer is not None:
            tracer.command_id = i
        result, outcome = execute(command, cli_module, checker, run)
        signatures.append(outcome.signature)
        wall += result.wall_s
        cpu += result.cpu_s
    return signatures, wall, cpu


def traced_phase(workload, chancert, checker, seconds: float, run: Run, spans_path: Path):
    """Alternate untraced and traced passes over a fixed command list.

    Returns the per-layer metrics, facts about the passes, and the
    signatures of the first cycle of commands.
    """
    from layers import Tracer, Totals, per_layer_metrics

    commands = [workload.command(i) for i in range(workload.cycle * workload.trace_cycles)]
    tracer = Tracer(chancert.__name__)
    totals = Totals()
    reference_signatures = first_counts = None
    ratios, walls, cpus = [], 0.0, 0.0
    passes = 0
    deadline = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < deadline:
        plain, wall, cpu = run_pass(commands, chancert.cli, checker, run)
        tracer.install()
        try:
            traced, traced_wall, _ = run_pass(commands, chancert.cli, checker, run, tracer)
        finally:
            tracer.uninstall()
        folded = tracer.fold()
        if passes == 0:
            tracer.write_spans(spans_path)
            reference_signatures, first_counts = plain, folded.counts()
        if plain != reference_signatures or traced != reference_signatures:
            run.problems.append(f"pass {passes}: verdict counts differ between passes "
                                "or between the traced and the untraced run")
        if folded.counts() != first_counts:
            run.problems.append(f"pass {passes}: per-layer counts differ from the first pass")
        tracer.clear()
        totals.add(folded)
        ratios.append(traced_wall / wall)
        walls += wall
        cpus += cpu
        passes += 1

    ops = passes * sum(workload.ops(c) for c in commands)
    metrics = per_layer_metrics(totals, ops)
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    metrics["process.cpu_per_wall"] = (cpus / walls, "ratio")
    facts = {"trace_passes": passes, "trace_commands_per_pass": len(commands),
             "per_layer_ops": ops, "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, facts, list(zip(commands, reference_signatures))[:workload.cycle]


def reference_checks(workload, chancert, first_cycle, workdir: Path, run: Run) -> None:
    """Golden counts for fixed commands, and a per-sample oracle for the first
    cycle of timed commands. Both run untraced, outside the timed phase."""
    from checks import Checker, Outcome, count_mismatch, oracle_counts

    if not isinstance(workload, HarnessWorkload):
        return
    golden = json.loads(GOLDEN.read_text())
    checker = Checker()
    report = workdir / "out" / "golden.json"
    for dims in workload.tuples:
        command = harness_command(dims, golden["seed"], report, golden["trials"])
        result = invoke(chancert.cli, command.argv)
        outcome = checker.check(command, result.rc, result.stdout)
        if outcome.ok:
            outcome = Outcome(count_mismatch(outcome.signature,
                                             golden["counts"][",".join(map(str, dims))], "golden"))
        run.record(f"golden {' '.join(command.argv)}", outcome, result.stderr)

    for command, signature in first_cycle:
        expect = command.expect
        try:
            counts = oracle_counts(chancert, expect["dims"], expect["seed"], expect["trials"])
            problems = count_mismatch(signature, counts, "per-sample oracle")
        except chancert.ChancertError as exc:
            problems = (f"oracle raised {type(exc).__name__}: {exc}",)
        run.record(f"oracle dims={expect['dims']} seed={expect['seed']}", Outcome(problems))


def git_commit(root: Path):
    """HEAD's commit id, read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "chancert").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_facts(args, workload) -> dict:
    import numpy as np

    blas = None
    try:
        blas_info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas_info.get("name"), "version": blas_info.get("version")}
    except (TypeError, KeyError):  # numpy older than 1.25 has no dict mode
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "client": "one closed-loop client calling chancert.cli.main in-process",
        "trials_per_command": HARNESS_TRIALS if isinstance(workload, HarnessWorkload) else None,
        "per_layer_op": workload.per_layer_unit,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "blas_threads_note": "unset means OpenBLAS starts one thread per core (nproc)",
        "kernel_bytes_in_note": "kernel.bytes_in is computed from input nbytes, not measured",
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(ROOT),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for name in TOLERANCE_ENV:  # the workloads run chancert at its default tolerances
        os.environ.pop(name, None)

    workdir = WORK / args.workload / ("probe" if args.setup_only else "main")
    workdir.mkdir(parents=True, exist_ok=True)
    chancert, workload, checker, warm_outcome, setup_s = set_up(args, workdir)
    if args.setup_only:
        if not warm_outcome.ok:
            sys.exit(f"warm-up command failed: {warm_outcome.problems}")
        print(json.dumps(setup_s))
        return 0

    run = Run()
    run.record("warm-up", warm_outcome)
    facts = machine_facts(args, workload)
    if args.trace:
        metrics, trace_facts, first_cycle = traced_phase(workload, chancert, checker,
                                                         args.seconds, run, workdir / "spans.tsv")
        facts.update(trace_facts)
        reference_checks(workload, chancert, first_cycle, workdir, run)
    else:
        setups = [setup_s] + setup_probes(args)
        walls, cpus, speeds, refs, first_cycle = timed_phase(
            workload, chancert.cli, checker, args.seconds, run)
        timed_attempted, timed_failed = run.attempted, run.failed
        reference_checks(workload, chancert, first_cycle, workdir, run)
        scaled = [w / s for w, s in zip(walls, speeds)]
        p90 = percentile(scaled, 90)
        metrics = {
            "setup_s": (statistics.median(s for _, s in setups), "s"),
            "commands_per_s": (len(scaled) / sum(scaled), "1/s"),
            "command_ms_p50": (1000.0 * statistics.median(scaled), "ms"),
            "command_ms_p90": (1000.0 * p90, "ms"),
            "cpu_ms_per_cmd": (1000.0 * sum(c / s for c, s in zip(cpus, speeds)) / len(cpus), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_ratio": (1.0 - timed_failed / timed_attempted, "ratio"),
        }
        facts.update({
            "commands": len(walls),
            "commands_beyond_p90": sum(w > p90 for w in scaled),
            "fail_ratio": timed_failed / timed_attempted,
            "reference_runs": len(refs),
            "reference_ms_median": 1000.0 * statistics.median(refs),
            "reference_ms_quartiles": [1000.0 * q for q in statistics.quantiles(refs, n=4)],
            "unscaled": {
                "setup_s": statistics.median(r for r, _ in setups),
                "commands_per_s": len(walls) / sum(walls),
                "command_ms_p50": 1000.0 * statistics.median(walls),
                "command_ms_p90": 1000.0 * percentile(walls, 90),
                "cpu_ms_per_cmd": 1000.0 * sum(cpus) / len(cpus),
            },
        })

    for problem in run.problems:
        print(f"FAIL {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:<56} {value:>14.6g} {unit}")
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (workdir / f"result-trace{args.trace}.json").write_text(
        json.dumps({"facts": facts, **result}, indent=1) + "\n")
    print("facts " + json.dumps(facts, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
