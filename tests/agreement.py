"""Outcome digests of ``verify-theorem`` runs, to compare two trees.

Usage, from the root of a chancert checkout:

    PYTHONPATH=src python tests/agreement.py --digest identity > identity.txt

prints one line per run of the named corpus, 287 for ``identity``: the
run's dims, tolerance, trials, seed and memory budget, then a SHA-256 over
what the run gave. That is, through ``run_harness``, its counts, counterexample records in
order and escalated indices, or the type and message of the error it
raised; and through ``chancert.cli.main``, the exit code, stdout, stderr
and the report file's bytes, with its ``timestamp`` value blanked. Run it
on two trees, each in its own process, and diff the two files: a change
that keeps every outcome gives identical files. The script reads only
``chancert`` from the path it is given, so it runs on an older tree too.

    PYTHONPATH=src python tests/agreement.py --check one-process

runs the 88 ``verify-theorem`` commands of ONE_PROCESS as commands of one
process, as the benchmark does, so that each meets the memo of outcomes
(``harness._row_outcome``) the commands before it filled. Each command's
counts, counterexamples and exit code must be those of the per-sample loop
of ``tests/test_harness.py``; it prints each disagreement, then the tally,
and exits 1 on any disagreement.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import sys
import tempfile

import chancert.harness
from chancert import ChancertError, ToleranceConfig
from chancert.cli import main as cli_main

ACCEPTANCE = list(itertools.product((2, 3), repeat=3))
WIDE = [(2, 2, 6), (3, 3, 9), (4, 4, 16)]
MIRRORED = [(2, 6, 2), (3, 9, 3), (4, 16, 4)]
# unit factors, and (2, 30, 1), whose cut block of side 4 stands for a Choi
# matrix of side 60
EDGES = [(1, 2, 4), (1, 3, 3), (2, 1, 3), (3, 1, 1), (2, 30, 1)]
TOLERANCES = ["default", "psd=0.1", "psd=0.03", "psd=1e-17", "rank=1e-3", "rank=1e-17",
              "equality=1e-16"]
# A memory budget cut so far that a chunk holds a few samples and its Choi
# matrices straddle chunks, orientations and blocks alike.
SMALL_BUDGET = 300

# Named corpora of runs: (dims, tolerance, trials, seed, CHUNK_ENTRIES or None).
CORPORA = {
    "identity": (
        # 19 tuples x 7 tolerances x seeds 1 and 3003 at 60 trials: 266 runs
        [(dims, tol, 60, seed, None) for dims in ACCEPTANCE + WIDE + MIRRORED + EDGES
         for tol in TOLERANCES for seed in (1, 3003)]
        # tuples where one chunk spans several blocks of Choi matrices, so a
        # pair reads its marginals from blocks that are gone
        + [(dims, tol, 500, 3003, None) for dims in [(3, 3, 2), (2, 3, 2), (3, 2, 3)]
           for tol in ("default", "psd=0.1")]
        + [(dims, tol, 100, 3003, SMALL_BUDGET)
           for dims in [(3, 3, 3), (2, 2, 3), (3, 3, 2), (2, 2, 6), (4, 16, 4)]
           for tol in ("default", "psd=0.1", "rank=1e-17")]
    ),
}

# The benchmark's 11 tuples x four tolerances x seeds 1 and 3003 at 60
# trials: (dims, tolerance, trials, seed) of 88 commands.
ONE_PROCESS = [(dims, tol, 60, seed) for dims in ACCEPTANCE + WIDE
               for tol in ("default", "psd=0.1", "rank=1e-3", "rank=1e-17") for seed in (1, 3003)]


def tolerances(tol: str) -> tuple[ToleranceConfig, list[str]]:
    """The ToleranceConfig and the command-line flags of ``default`` or
    ``name=value``, name one of psd, rank and equality."""
    if tol == "default":
        return ToleranceConfig(), []
    name, _, value = tol.partition("=")
    return ToleranceConfig(**{name + "_tol": float(value)}), [f"--{name}-tol", value]


def harness_outcome(dims, trials: int, seed: int, cfg: ToleranceConfig) -> dict:
    try:
        result = chancert.harness.run_harness(dims, trials, seed, cfg)
    except ChancertError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"counts": result.counts, "counterexamples": result.counterexamples,
            "escalated": result.escalated}


def command_outcome(dims, trials: int, seed: int, flags: list[str], path: str) -> dict:
    if os.path.exists(path):
        os.remove(path)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main(["verify-theorem", "--dims", ",".join(map(str, dims)), "--trials",
                         str(trials), "--seed", str(seed), *flags, "--output", path])
    report = b""
    if os.path.exists(path):
        with open(path, "rb") as f:
            report = re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": ""', f.read())
    return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
            "report": report.decode()}


def digest(run, path: str) -> str:
    """The line of one run: its parameters and the hash of its outcomes."""
    dims, tol, trials, seed, budget = run
    cfg, flags = tolerances(tol)
    saved = chancert.harness.CHUNK_ENTRIES
    if budget is not None:
        chancert.harness.CHUNK_ENTRIES = budget
    try:
        outcome = {"harness": harness_outcome(dims, trials, seed, cfg),
                   "main": command_outcome(dims, trials, seed, flags, path)}
    finally:
        chancert.harness.CHUNK_ENTRIES = saved
    text = json.dumps(outcome, sort_keys=True)
    name = ",".join(map(str, dims))
    hashed = hashlib.sha256(text.encode()).hexdigest()
    return f"{name} {tol} {trials} {seed} {budget or '-'} {hashed}"


def check_one_process(path: str) -> int:
    """The number of ONE_PROCESS's commands, run in this process, whose
    counts, counterexamples or exit code differ from the per-sample loop's;
    prints each of them, then the tally."""
    from test_harness import per_sample  # imports pytest and hypothesis

    failures = 0
    for dims, tol, trials, seed in ONE_PROCESS:
        cfg, flags = tolerances(tol)
        outcome = command_outcome(dims, trials, seed, flags, path)
        report = json.loads(outcome["report"])
        counts, counterexamples, _ = per_sample(dims, trials, seed, cfg)
        engine = report["counts"]
        agrees = (engine, report["counterexamples"]) == (counts, counterexamples)
        if not agrees or outcome["exit"] != (4 if counterexamples else 0):
            failures += 1
            print(f"{dims} {tol} seed {seed}: engine {engine} exit {outcome['exit']}, "
                  f"loop {counts}", flush=True)
    print(f"{len(ONE_PROCESS) - failures} of {len(ONE_PROCESS)} commands agree")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--digest", choices=sorted(CORPORA),
                      help="print one outcome hash per run of this corpus")
    mode.add_argument("--check", choices=["one-process"],
                      help="check ONE_PROCESS's commands against the per-sample loop")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "report.json")
        if args.check:
            return int(check_one_process(path) > 0)
        for run in CORPORA[args.digest]:
            print(digest(run, path), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
