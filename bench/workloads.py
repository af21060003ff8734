"""Workloads of the chancert benchmark: the argv streams a user would type.

Each workload is an endless, indexable stream of commands made from the
workload seed alone. The program sees only the generated argv and the files
the workload builds during set-up.

- ``harness-small``: ``verify-theorem`` round-robin over the eight acceptance
  tuples (2,3)^3. Matrices are at most 9x9, so per-call Python overhead
  dominates.
- ``harness-wide``: ``verify-theorem`` round-robin over the full-Kraus-rank
  tuples (2,2,6), (3,3,9) and (4,4,16); the largest marginal is 64x64, so
  LAPACK time and memory show.
- ``files``: ``analyze`` and ``convert`` over a corpus that ``generate``
  builds during set-up; reads, writes and argument parsing sit beside
  certification.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path

HARNESS_TRIALS = 50
SMALL_TUPLES = tuple(itertools.product((2, 3), repeat=3))
WIDE_TUPLES = ((2, 2, 6), (3, 3, 9), (4, 4, 16))

NAMED_KINDS = ("identity", "transpose", "dephasing", "depolarizing")
NAMED_DIMS = (2, 3, 4)
SCHUR_WEIGHTS = "0.5,0.3,0.2"
RANDOM_TUPLES = ((2, 2, 3), (3, 3, 3), (2, 2, 6), (3, 3, 9))


def derived_seed(*parts) -> int:
    """A 32-bit seed that depends only on ``parts`` (str seeding hashes with sha512)."""
    return random.Random(":".join(str(p) for p in parts)).getrandbits(32)


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its checker needs to know about it.

    ``kind`` selects the check; ``expect`` holds the expected exit code and
    kind-specific facts (dims, trials, seed, source file, output path).
    """

    argv: tuple[str, ...]
    kind: str
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SourceFile:
    """A corpus file and the facts known about it without running chancert."""

    path: Path
    label: str  # e.g. "dephasing-3", "tiles", "random-2-2-3"
    role: str  # choi | state | stinespring
    family: str  # identity | transpose | ... | tiles | schur | random-stinespring


def harness_command(dims, seed: int, report: Path, trials: int = HARNESS_TRIALS) -> Command:
    argv = (
        "verify-theorem",
        "--dims", ",".join(map(str, dims)),
        "--trials", str(trials),
        "--seed", str(seed),
        "--output", str(report),
    )
    return Command(argv, "harness", {"rc": 0, "dims": tuple(dims), "trials": trials,
                                     "seed": seed, "output": report})


class HarnessWorkload:
    """``verify-theorem`` commands, round-robin over ``tuples``."""

    per_layer_unit = "sample"
    trace_cycles = 1  # cycles of commands in one traced pass

    def __init__(self, name: str, tuples, seed: int, workdir: Path):
        self.name = name
        self.tuples = tuple(tuples)
        self.seed = seed
        self.report = workdir / "out" / "report.json"
        self.cycle = len(self.tuples)

    def prepare(self, cli_main) -> None:
        """Nothing to build beyond the argv."""
        self.report.parent.mkdir(parents=True, exist_ok=True)

    def command(self, i: int) -> Command:
        dims = self.tuples[i % len(self.tuples)]
        return harness_command(dims, derived_seed(self.name, self.seed, i), self.report)

    def ops(self, command: Command) -> int:
        """Per-layer metrics of harness workloads are per sample."""
        return command.expect["trials"]


class FilesWorkload:
    """``analyze`` and ``convert`` over a corpus built with ``generate``."""

    name = "files"
    per_layer_unit = "command"
    trace_cycles = 4  # one cycle takes only ~0.1 s

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.corpus_dir = workdir / "corpus"
        self.out_dir = workdir / "out"
        self.sources: list[SourceFile] = []
        self.commands: list[Command] = []
        self.cycle = 0

    def _generate_argv(self) -> list[tuple[SourceFile, list[str]]]:
        plan = []
        for kind in NAMED_KINDS:
            for d in NAMED_DIMS:
                src = SourceFile(self.corpus_dir / f"{kind}-{d}.json", f"{kind}-{d}", "choi", kind)
                plan.append((src, ["--kind", kind, "--dims", str(d)]))
        plan.append((SourceFile(self.corpus_dir / "tiles.json", "tiles", "state", "tiles"),
                     ["--kind", "tiles"]))
        plan.append((SourceFile(self.corpus_dir / "schur.json", "schur", "stinespring", "schur"),
                     ["--kind", "schur", "--params", SCHUR_WEIGHTS]))
        for k, dims in enumerate(RANDOM_TUPLES):
            label = "random-" + "-".join(map(str, dims))
            src = SourceFile(self.corpus_dir / f"{label}.json", label, "stinespring",
                             "random-stinespring")
            plan.append((src, ["--kind", "random-stinespring", "--dims", ",".join(map(str, dims)),
                               "--seed", str(derived_seed("files", self.seed, k))]))
        return plan

    def prepare(self, cli_main) -> None:
        """Build the corpus through the CLI and lay out one shuffled cycle of commands."""
        self.corpus_dir.mkdir(parents=True, exist_ok=True)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.sources = []
        for src, args in self._generate_argv():
            argv = ["generate", *args, "--output", str(src.path)]
            rc = cli_main(argv)
            if rc != 0:
                raise RuntimeError(f"corpus generation failed with exit code {rc}: {argv}")
            self.sources.append(src)

        commands = []
        for src in self.sources:
            out = self.out_dir / f"{src.label}.analysis.json"
            commands.append(Command(("analyze", str(src.path), "--output", str(out)), "analyze",
                                    {"rc": 0, "source": src, "output": out}))
        for src in self.sources:
            if src.family == "transpose":
                targets, rc = ("kraus",), 3  # not CP: exit code 3 is the expected outcome
            elif src.role == "choi":
                targets, rc = ("kraus", "stinespring"), 0
            elif src.role == "stinespring":
                targets, rc = ("choi", "kraus"), 0
            else:
                continue
            for target in targets:
                out = self.out_dir / f"{src.label}.{target}.json"
                commands.append(Command(
                    ("convert", str(src.path), "--to", target, "--output", str(out)),
                    f"convert-{target}", {"rc": rc, "source": src, "output": out}))
        random.Random(f"files:{self.seed}:order").shuffle(commands)
        self.commands = commands
        self.cycle = len(commands)

    def command(self, i: int) -> Command:
        return self.commands[i % len(self.commands)]

    def ops(self, command: Command) -> int:
        """Per-layer metrics of the files workload are per command."""
        return 1


WORKLOADS = ("harness-small", "harness-wide", "files")


def make_workload(name: str, seed: int, workdir: Path):
    if name == "harness-small":
        return HarnessWorkload(name, SMALL_TUPLES, seed, workdir)
    if name == "harness-wide":
        return HarnessWorkload(name, WIDE_TUPLES, seed, workdir)
    if name == "files":
        return FilesWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
