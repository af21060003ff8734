"""Output checks of the chancert benchmark.

Every check reads what a command wrote with plain ``json`` and redoes the
arithmetic in numpy, so a defect in ``chancert.io`` or ``chancert.channels``
cannot vouch for itself. The command checks call neither chancert nor the
``numpy.linalg`` kernels that the tracer wraps, so they add no spans to a
traced run. Only ``oracle_counts`` calls chancert, and it runs untraced,
outside the timed phase.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# chancert's default equality_tol; the benchmark runs the CLI with defaults.
EQUALITY_TOL = 1e-9

COUNT_KEYS = (
    "samples",
    "phi_ppt",
    "psi_ppt",
    "both_ppt",
    "witness_phi_fired",
    "witness_psi_fired",
    "eb_psi_yes",
    "eb_phi_yes",
    "regime_applied_to_psi_given_phi_ppt",
    "fragile_discarded",
)

# Verdicts that are known mathematically, by corpus family. A tuple lists
# every acceptable value. The depolarizing channel is entanglement breaking,
# but its Choi matrix has full rank, which is outside the low-rank regime in
# which chancert's certificate may say yes (README: "never claims yes outside
# the low-rank rank hypothesis"); so unknown is correct there and no is wrong.
KNOWN_VERDICTS = {
    "identity": {"cp": "yes", "ppt": "no", "eb": "no"},
    "transpose": {"cp": "no", "ppt": "no"},
    "dephasing": {"cp": "yes", "ppt": "yes", "eb": "yes"},
    "depolarizing": {"cp": "yes", "ppt": "yes", "eb": ("yes", "unknown")},
    "tiles": {"psd": "yes", "ppt": "yes", "separable": "unknown",
              "distillable_witness": "unknown"},
    "schur": {"cp_phi": "yes", "cp_psi": "yes", "ppt_phi": "yes", "ppt_psi": "yes"},
    "random-stinespring": {"cp_phi": "yes", "cp_psi": "yes"},
}


@dataclass(frozen=True)
class Outcome:
    """Problems found in one command's result, and what must repeat exactly
    when the same command runs again (its verdict counts or verdicts)."""

    problems: tuple[str, ...]
    signature: object = None

    @property
    def ok(self) -> bool:
        return not self.problems


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())


def matrix_of(obj: dict) -> np.ndarray:
    return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)


def choi_from_kraus(ops, d_a: int, d_b: int) -> np.ndarray:
    """J = sum_k |K_k>><<K_k| with composite index a * d_b + b."""
    vecs = np.stack([np.asarray(k).T.reshape(d_a * d_b) for k in ops])
    return vecs.T @ vecs.conj()


def kraus_from_stinespring(matrix: np.ndarray, d_a: int, d_b: int, d_c: int) -> list:
    """Rows of a dilation are indexed b * d_c + c; one Kraus operator per c."""
    cube = matrix.reshape(d_b, d_c, d_a)
    return [cube[:, c, :] for c in range(d_c)]


def close(x: np.ndarray, y: np.ndarray, tol: float = EQUALITY_TOL) -> bool:
    return float(np.linalg.norm(x - y)) <= tol * max(float(np.linalg.norm(x)),
                                                     float(np.linalg.norm(y)))


def count_problems(counts: dict, trials: int) -> list[str]:
    """The relations every verify-theorem count table must satisfy."""
    missing = [k for k in COUNT_KEYS if not isinstance(counts.get(k), int)]
    if missing:
        return [f"counts lack integer fields {missing}"]
    problems = []
    if counts["samples"] + counts["fragile_discarded"] != trials:
        problems.append(f"samples {counts['samples']} + fragile_discarded "
                        f"{counts['fragile_discarded']} != trials {trials}")
    if counts["regime_applied_to_psi_given_phi_ppt"] != counts["phi_ppt"]:
        problems.append(f"regime_applied_to_psi_given_phi_ppt "
                        f"{counts['regime_applied_to_psi_given_phi_ppt']} != phi_ppt "
                        f"{counts['phi_ppt']}")
    if counts["both_ppt"] > min(counts["phi_ppt"], counts["psi_ppt"]):
        problems.append("both_ppt exceeds phi_ppt or psi_ppt")
    return problems


def count_mismatch(signature, counts: dict, source: str) -> tuple[str, ...]:
    """A problem when a report's counts (its signature) differ from ``counts``."""
    want = tuple(counts[k] for k in COUNT_KEYS)
    return () if signature == want else (f"counts {signature} differ from {source} {want}",)


def check_harness_report(report: dict, expect: dict) -> Outcome:
    """A verify-theorem report: no counterexample and consistent counts."""
    problems = []
    if report.get("command") != "verify-theorem":
        problems.append(f"report command is {report.get('command')!r}")
    if report.get("dims") != list(expect["dims"]) or report.get("trials") != expect["trials"] \
            or report.get("seed") != expect["seed"]:
        problems.append("report dims, trials or seed differ from the command line")
    if report.get("counterexamples") != []:
        problems.append(f"counterexamples: {report.get('counterexamples')!r:.200}")
    counts = report.get("counts")
    if not isinstance(counts, dict):
        return Outcome(tuple(problems + ["report has no counts"]))
    problems += count_problems(counts, expect["trials"])
    return Outcome(tuple(problems), tuple(counts.get(k) for k in COUNT_KEYS))


def check_analysis(report: dict, family: str, role: str) -> Outcome:
    """An analyze report: the role echoed and every known verdict held."""
    try:
        predicates = {k: v["value"] for k, v in report["analysis"]["predicates"].items()}
    except (KeyError, TypeError, AttributeError):
        return Outcome(("analysis report has no predicates",))
    problems = []
    if report.get("role") != role:
        problems.append(f"report role {report.get('role')!r}, expected {role!r}")
    for name, wanted in KNOWN_VERDICTS[family].items():
        allowed = wanted if isinstance(wanted, tuple) else (wanted,)
        if predicates.get(name) not in allowed:
            problems.append(f"{family}: {name} is {predicates.get(name)!r}, expected {wanted!r}")
    return Outcome(tuple(problems), tuple(sorted(predicates.items())))


class Checker:
    """Checks each command's exit code and output against its expectation."""

    def __init__(self):
        self._source_choi: dict[Path, tuple[np.ndarray, tuple[int, int]]] = {}

    def source_choi(self, src) -> tuple[np.ndarray, tuple[int, int]]:
        """Choi matrix and (d_a, d_b) of a corpus file, computed in numpy."""
        if src.path not in self._source_choi:
            obj = read_json(src.path)
            m = matrix_of(obj)
            if src.role == "stinespring":
                d_a, d_b, d_c = obj["dims"]
                value = (choi_from_kraus(kraus_from_stinespring(m, d_a, d_b, d_c), d_a, d_b),
                         (d_a, d_b))
            else:
                value = (m, tuple(obj["layout"]))
            self._source_choi[src.path] = value
        return self._source_choi[src.path]

    def check(self, command, rc, stdout: str) -> Outcome:
        expect = command.expect
        if rc != expect["rc"]:
            return Outcome((f"exit code {rc}, expected {expect['rc']}",), rc)
        if rc != 0:
            return Outcome((), rc)
        try:
            return self._check_output(command, stdout)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return Outcome((f"unreadable output: {type(exc).__name__}: {exc}",))

    def _check_output(self, command, stdout: str) -> Outcome:
        expect = command.expect
        if command.kind == "harness":
            return check_harness_report(read_json(expect["output"]), expect)
        src = expect["source"]
        if command.kind == "analyze":
            return check_analysis(read_json(expect["output"]), src.family, src.role)

        want, (d_a, d_b) = self.source_choi(src)
        if command.kind == "convert-kraus":
            files = [read_json(p) for p in stdout.split()]
            if not files:
                return Outcome(("convert to kraus wrote no files",))
            problems = [f"kraus file {index} has a wrong role, dims or index"
                        for index, obj in enumerate(files)
                        if obj.get("role") != "kraus" or obj.get("dims") != [d_a, d_b]
                        or obj.get("kraus_index") != index or obj.get("kraus_count") != len(files)]
            got = choi_from_kraus([matrix_of(obj) for obj in files], d_a, d_b)
        elif command.kind == "convert-stinespring":
            files = [read_json(expect["output"])]
            dims = files[0].get("dims")
            if files[0].get("role") != "stinespring" or not dims or dims[:2] != [d_a, d_b]:
                return Outcome(("stinespring output has a wrong role or dims",))
            problems = []
            got = choi_from_kraus(kraus_from_stinespring(matrix_of(files[0]), *dims), d_a, d_b)
        else:
            files = [read_json(expect["output"])]
            if files[0].get("role") != "choi" or files[0].get("layout") != [d_a, d_b]:
                return Outcome(("choi output has a wrong role or layout",))
            problems = []
            got = matrix_of(files[0])
        if got.shape != want.shape or not close(got, want):
            problems.append(f"{command.kind} of {src.label} does not reproduce the source "
                            f"Choi matrix within {EQUALITY_TOL}")
        return Outcome(tuple(problems), (0, len(files)))


def oracle_counts(chancert, dims, seed: int, trials: int) -> dict:
    """Counts of one verify-theorem command, re-derived sample by sample
    through the library: ``random_stinespring(..., seed, index)`` then
    ``equivalence_check``, tallied here rather than by the CLI."""
    counts = dict.fromkeys(COUNT_KEYS, 0)
    for index in range(trials):
        st = chancert.generate.random_stinespring(*dims, seed=seed, index=index)
        try:
            report = chancert.certify.equivalence_check(st, chancert.DEFAULT_TOLERANCES)
        except chancert.FragileSampleError:
            counts["fragile_discarded"] += 1
            continue
        value = {k: v.value for k, v in report.predicates.items()}
        phi_ppt, psi_ppt = value["ppt_phi"] == "yes", value["ppt_psi"] == "yes"
        counts["samples"] += 1
        counts["phi_ppt"] += phi_ppt
        counts["psi_ppt"] += psi_ppt
        counts["both_ppt"] += phi_ppt and psi_ppt
        counts["witness_phi_fired"] += value["witness_phi"] == "yes"
        counts["witness_psi_fired"] += value["witness_psi"] == "yes"
        counts["eb_phi_yes"] += value["eb_phi"] == "yes"
        counts["eb_psi_yes"] += value["eb_psi"] == "yes"
        counts["regime_applied_to_psi_given_phi_ppt"] += phi_ppt and value["eb_psi"] != "unknown"
    return counts
