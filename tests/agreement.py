"""Outcome digests of chancert commands, to compare two trees, and checks of
``verify-theorem`` against the per-sample loop.

Usage, from the root of a chancert checkout:

    PYTHONPATH=src python tests/agreement.py --digest identity > identity.txt

prints one line per run of the named corpus, 371 for ``identity``: the
run's dims, tolerance, trials, seed and memory budget, then a SHA-256 over
what the run gave. That is, through ``run_harness``, its counts, counterexample records in
order and escalated indices, or the type and message of the error it
raised; and through ``chancert.cli.main``, the exit code, stdout, stderr
and the report file's bytes, with its ``timestamp`` value blanked. Run it
on two trees, each in its own process, and diff the two files: a change
that keeps every outcome gives identical files. The script reads only
``chancert`` from the path it is given, so it runs on an older tree too.

    PYTHONPATH=src python tests/agreement.py --digest files > files.txt

prints one line per ``analyze`` or ``convert`` command of ``file_commands``,
run over a corpus that ``generate`` builds in a temporary directory: the
command, with that directory written as ``.``, then a SHA-256 over its exit
code, stdout, stderr and every file it wrote, with ``timestamp`` values
blanked. Compare two trees the same way.

    PYTHONPATH=src python tests/agreement.py --check ci-smoke

runs the 77 ``verify-theorem`` legs of CI_SMOKE, each as a command of a
fresh process, as a shell user runs it. Each leg's counts, counterexamples
and exit code must be those of the per-sample loop of
``tests/test_harness.py``; it prints each leg, or its disagreement, then
the tally, and exits 1 on any disagreement.

    PYTHONPATH=src python tests/agreement.py --check one-process

runs the 88 ``verify-theorem`` commands of ONE_PROCESS the same way, but as
commands of one process, as the benchmark does, so that each meets the memo
of outcomes (``harness._row_outcome``) the commands before it filled.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import glob
import hashlib
import io
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

import chancert.harness
import chancert.io
from chancert import ChancertError, ToleranceConfig
from chancert.cli import main as cli_main

ACCEPTANCE = list(itertools.product((2, 3), repeat=3))
WIDE = [(2, 2, 6), (3, 3, 9), (4, 4, 16)]
MIRRORED = [(2, 6, 2), (3, 9, 3), (4, 16, 4)]
# unit factors, and (2, 30, 1), whose cut block of side 4 stands for a Choi
# matrix of side 60
EDGES = [(1, 2, 4), (1, 3, 3), (2, 1, 3), (3, 1, 1), (2, 30, 1)]
# both Choi matrices the wider members of their pairs, one of them with
# d_b > d_c + 1, so that a cut would have a wider partner; then their mirrors
WIDER_PARTNERS = [(3, 4, 2), (3, 5, 2), (4, 5, 3), (3, 2, 4), (3, 2, 5), (4, 3, 5)]
TOLERANCES = ["default", "psd=0.1", "psd=0.03", "psd=1e-17", "rank=1e-3", "rank=1e-17",
              "equality=1e-16"]
# A memory budget cut so far that a chunk holds a few samples and its Choi
# matrices straddle chunks, orientations and blocks alike.
SMALL_BUDGET = 300

TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')

# Named corpora of runs: (dims, tolerance, trials, seed, CHUNK_ENTRIES or None).
CORPORA = {
    "identity": (
        # 25 tuples x 7 tolerances x seeds 1 and 3003 at 60 trials: 350 runs
        [(dims, tol, 60, seed, None)
         for dims in ACCEPTANCE + WIDE + MIRRORED + EDGES + WIDER_PARTNERS
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

# The legs of CI's "Engine agreement smoke", (dims, tolerance, trials, seed),
# 77 in all. The first group runs each route where the certificates fire,
# partly fire and decline: _cut_certificates at the wide and mirrored
# tuples, with the full matrix formed where the cut certifies nothing
# (--psd-tol 0.1, d_a = 1); _cholesky_certified declining at --rank-tol
# 1e-17 and on the rank-deficient marginal on a at (3,1,1); one stacked pass
# of _orientations at (1,3,3) and (3,4,4). The second runs --rank-tol 1e-17,
# where _rank_flags reads the rounding band, at the tuples and seeds where
# the two paths once split on it. The third runs the few samples for which
# _complementary_pair forms a tied Choi matrix's partner, the rows its
# certificate leaves open. The fourth runs coarse --rank-tol, where singular
# values lie near the fragility windows and _rank_flags escalates only those
# within rounding of an edge. The fifth runs 500 trials at tuples where one
# chunk spans several blocks of Choi matrices: each map's Choi pass takes
# its marginals as partial traces block by block, and the other map's pair
# reads them after the blocks are gone, so the Choi-first order is checked
# against the per-sample loop across blocks. The sixth is one leg, whose
# 130 trials make three chunks, (0,64), (64,128) and (128,130), and whose
# 5-word seed 2^128 + 1 mixes its indices from another hash constant; the
# loop draws each sample from a one-index list, so it checks the stream
# memo's range keys against its list keys. The last runs the tuples where both Choi matrices are the
# wider members of their pairs, and their mirrors: no cut is read there, and
# each map's pass forms its Choi matrix for every sample.
CI_SMOKE = (
    [(dims, tol, 60, 3003)
     for dims in [(2, 2, 6), (2, 6, 2), (3, 3, 9), (3, 9, 3), (4, 4, 16), (4, 16, 4), (1, 3, 3),
                  (1, 4, 2), (1, 2, 4), (3, 1, 1), (3, 4, 4)]
     for tol in ("default", "psd=0.1", "psd=0.03", "rank=1e-17")]
    + [(dims, "rank=1e-17", 300, seed) for dims in [(1, 1, 2), (2, 1, 1)] for seed in (1, 3003)]
    + [(dims, "default", 300, 3003) for dims in [(4, 4, 16), (4, 16, 4)]]
    + [(dims, tol, 60, 3003) for dims in [(2, 2, 3), (3, 3, 9), (4, 4, 16), (4, 16, 4)]
       for tol in ("rank=1e-3", "rank=1e-2")]
    + [(dims, tol, 500, 3003) for dims in [(3, 3, 2), (2, 3, 2), (3, 2, 3)]
       for tol in ("default", "psd=0.1")]
    + [((4, 4, 16), "default", 130, 2**128 + 1)]
    + [(dims, tol, 60, 3003) for dims in WIDER_PARTNERS for tol in ("default", "psd=0.1")]
)

# The benchmark's 11 tuples x four tolerances x seeds 1 and 3003 at 60
# trials: (dims, tolerance, trials, seed) of 88 commands.
ONE_PROCESS = [(dims, tol, 60, seed) for dims in ACCEPTANCE + WIDE
               for tol in ("default", "psd=0.1", "rank=1e-3", "rank=1e-17") for seed in (1, 3003)]


# Inputs of the files corpus, as (name, generate arguments): the benchmark's
# kinds, named channels at d = 2, 3, 4, the tiles state, the Schur dilation
# and random dilations, here at seeds 1 to 3, and dilations whose maps have
# d_a != d_b, converted to Choi files below.
FILE_SOURCES = (
    [(f"{kind}-{d}", ["--kind", kind, "--dims", str(d)])
     for kind in ("identity", "transpose", "dephasing", "depolarizing") for d in (2, 3, 4)]
    + [("tiles", ["--kind", "tiles"]), ("schur", ["--kind", "schur", "--params", "0.5,0.3,0.2"])]
    + [(f"random-{'-'.join(map(str, dims))}-{seed}",
        ["--kind", "random-stinespring", "--dims", ",".join(map(str, dims)), "--seed", str(seed)])
       for dims in [(2, 2, 3), (3, 3, 3), (2, 2, 6), (3, 3, 9), (2, 3, 2), (3, 2, 2)]
       for seed in (1, 2, 3)]
)


def _edited(src: str, dst: str, drop=(), scale: int = 0, **changes) -> str:
    """``src`` with the keys ``drop`` removed, ``changes`` set and every
    entry times 2^scale, written to ``dst`` as json.dumps writes it."""
    obj = _read(src)
    for key in drop:
        del obj[key]
    obj.update(changes)
    for key in ("re", "im"):
        obj[key] = [[math.ldexp(x, scale) for x in row] for row in obj[key]]
    with open(dst, "w") as f:
        json.dump(obj, f)
    return dst


def _read(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def _blanked(text: str) -> str:
    """``text`` with every ``timestamp`` value blanked."""
    return TIMESTAMP.sub('"timestamp": ""', text)


def _scales(path: str, low: float, high: float) -> list[int]:
    """The powers of two that put the largest entry magnitude of ``path``
    just inside ``[low, high]`` at each end, and just outside it."""
    obj = _read(path)
    largest = max(abs(complex(x, y)) for rows in zip(obj["re"], obj["im"]) for x, y in zip(*rows))
    top = math.floor(math.log2(high / largest))
    while largest * 2.0**top > high:
        top -= 1
    bottom = math.ceil(math.log2(low / largest))
    while largest * 2.0**bottom < low:
        bottom += 1
    return [top, top + 1, bottom, bottom - 1]


def file_commands(root: str) -> list[list[str]]:
    """Build the files corpus under ``root``/in and return its commands,
    each writing its files under ``root``/out: every role analyzed, with
    and without ``--as``, to a file and to stdout; every conversion between
    the choi, kraus and stinespring roles, each role to itself, with and
    without ``--from``; files scaled just inside and just outside
    ``MATRIX_SCALE_LIMIT`` and ``OPERATOR_SCALE_RANGE``; a non-Hermitian
    Choi matrix; and the refusals of ``tests/test_io_cli.py``'s role table."""
    src, out = os.path.join(root, "in"), os.path.join(root, "out")
    os.makedirs(src)
    path = functools.partial(os.path.join, src)
    quiet = io.StringIO()
    roles = {"choi": [], "state": [], "stinespring": [], "kraus": []}

    def run(argv):
        with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
            if cli_main(argv) != 0:
                raise RuntimeError(f"corpus set-up failed: {argv}")

    for name, argv in FILE_SOURCES:
        run(["generate", *argv, "--output", path(name + ".json")])
        roles[_read(path(name + ".json"))["role"]].append(path(name + ".json"))
    for name in ("random-2-3-2-1", "random-3-2-2-1"):
        run(["convert", path(name + ".json"), "--to", "choi",
             "--output", path(name + "-choi.json")])
        roles["choi"].append(path(name + "-choi.json"))
    hermitian = path("depolarizing-2.json")
    re_rows = _read(hermitian)["re"]
    re_rows[0][1] += 0.25
    roles["choi"].append(_edited(hermitian, path("non-hermitian.json"), re=re_rows))
    for name in ("depolarizing-3", "dephasing-2", "schur", "random-2-2-3-1", "random-3-3-9-2",
                 "random-2-3-2-1-choi"):
        run(["convert", path(name + ".json"), "--to", "kraus", "--output", path(name + "-k.json")])
        roles["kraus"].append(sorted(glob.glob(path(name + "-k.k*.json"))))

    limit = chancert.io.MATRIX_SCALE_LIMIT
    for name in ("depolarizing-3", "tiles", "random-3-2-2-1-choi"):
        source = path(name + ".json")
        top = _scales(source, 2.0**-1000, limit / _read(source)["rows"])[:2]
        for k in top + [-1000]:
            roles[_read(source)["role"]].append(_edited(source, path(f"{name}-2^{k}.json"),
                                                        scale=k))
    low, high = chancert.io.OPERATOR_SCALE_RANGE
    for name in ("random-2-2-3-1", "schur"):
        for k in _scales(path(name + ".json"), low, high):
            roles["stinespring"].append(_edited(path(name + ".json"),
                                                path(f"{name}-2^{k}.json"), scale=k))

    o = functools.partial(os.path.join, out)
    commands = []
    for role, files in roles.items():
        for inputs in files:
            inputs = inputs if role == "kraus" else [inputs]
            if role != "kraus":
                commands += [["analyze", inputs[0], "--output", o("report.json")],
                             ["analyze", inputs[0]]]
                commands += [["analyze", inputs[0], "--as", other] for other in ("choi", "state")
                             if role != "stinespring" and other != role]
            if role == "state":
                commands.append(["convert", *inputs, "--from", "choi", "--to", "kraus",
                                 "--output", o("k.json")])
                continue
            for target in ("choi", "kraus", "stinespring"):
                commands.append(["convert", *inputs, "--to", target, "--output", o("x.json")])
            commands += [["convert", *inputs, "--to", "choi"],
                         ["convert", *inputs, "--from", role, "--to", "stinespring"]]
    commands += refusal_commands(roles, src, out)
    return commands


def refusal_commands(roles: dict, src: str, out: str) -> list[list[str]]:
    """The inputs of the refusal table of ``tests/test_io_cli.py``."""
    choi, state = roles["choi"][0], roles["state"][0]
    dilation = roles["stinespring"][0]
    roleless = _edited(choi, os.path.join(src, "bare.json"), drop=("role",))
    no_dims = _edited(dilation, os.path.join(src, "nodims.json"), drop=("dims",))
    bad_state = _edited(state, os.path.join(src, "bad.json"), drop=("layout",), dims=[3, 2])
    no_layout = _edited(choi, os.path.join(src, "nolayout.json"), drop=("layout", "dims"))
    k = os.path.join(out, "k.json")
    return [
        ["analyze", choi, "--as", "stinespring"], ["analyze", dilation, "--as", "state"],
        ["analyze", roleless], ["convert", roleless, "--to", "choi"],
        ["analyze", roles["kraus"][0][0]], ["convert", state, "--to", "choi"],
        ["convert", state, state, "--to", "choi"],
        ["convert", choi, choi, "--to", "kraus", "--output", k],
        ["convert", choi, "--to", "kraus"],
        ["analyze", no_dims], ["convert", no_dims, "--to", "choi"], ["analyze", bad_state],
        ["analyze", no_layout], ["convert", no_layout, "--to", "stinespring"],
    ]


def file_digests(root: str):
    """One line per command of ``file_commands``: the command, then the
    hash of its exit code, stdout, stderr and written files."""
    out = os.path.join(root, "out")
    for argv in file_commands(root):
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli_main(argv)
        written = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as f:
                written[name] = _blanked(f.read().decode())
        text = json.dumps({"exit": code, "stdout": _blanked(stdout.getvalue()),
                           "stderr": stderr.getvalue(), "files": written}, sort_keys=True)
        hashed = hashlib.sha256(text.replace(root, ".").encode()).hexdigest()
        yield " ".join(argv).replace(root, ".") + " " + hashed


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
    report = ""
    if os.path.exists(path):
        with open(path, "rb") as f:
            report = _blanked(f.read().decode())
    return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
            "report": report}


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


def process_outcome(dims, trials: int, seed: int, flags: list[str], path: str) -> dict:
    """``command_outcome`` of the command run in a process of its own."""
    if os.path.exists(path):
        os.remove(path)
    done = subprocess.run(
        [sys.executable, "-m", "chancert.cli", "verify-theorem", "--dims",
         ",".join(map(str, dims)), "--trials", str(trials), "--seed", str(seed), *flags,
         "--output", path],
        capture_output=True, text=True)
    report = ""
    if os.path.exists(path):
        with open(path) as f:
            report = f.read()
    return {"exit": done.returncode, "stdout": done.stdout, "stderr": done.stderr,
            "report": report}


def check_legs(legs, path: str, run, noun: str) -> int:
    """The number of ``legs`` whose command, run by ``run`` (in this process
    or in one of its own), gives counts, counterexamples or an exit code that
    differ from the per-sample loop's; prints each leg's counts or
    disagreement, then the tally."""
    from test_harness import per_sample  # imports pytest and hypothesis

    failures = 0
    for dims, tol, trials, seed in legs:
        cfg, flags = tolerances(tol)
        outcome = run(dims, trials, seed, flags, path)
        report = json.loads(outcome["report"] or "{}")
        counts, counterexamples, _ = per_sample(dims, trials, seed, cfg)
        engine = report.get("counts")
        agrees = (engine, report.get("counterexamples")) == (counts, counterexamples)
        if not agrees or outcome["exit"] != (4 if counterexamples else 0):
            failures += 1
            print(f"{dims} {tol} seed {seed}: engine {engine} exit {outcome['exit']}, "
                  f"loop {counts}", flush=True)
        else:
            print(dims, tol, seed, counts, flush=True)
    print(f"{len(legs) - failures} of {len(legs)} {noun} agree")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--digest", choices=sorted([*CORPORA, "files"]),
                      help="print one outcome hash per run of this corpus")
    mode.add_argument("--check", choices=["ci-smoke", "one-process"],
                      help="check CI_SMOKE's legs, each in a process of its own, or "
                      "ONE_PROCESS's commands, in this process, against the per-sample loop")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "report.json")
        if args.check == "ci-smoke":
            return int(check_legs(CI_SMOKE, path, process_outcome, "legs") > 0)
        if args.check:
            return int(check_legs(ONE_PROCESS, path, command_outcome, "commands") > 0)
        if args.digest == "files":
            for line in file_digests(directory):
                print(line, flush=True)
            return 0
        for run in CORPORA[args.digest]:
            print(digest(run, path), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
