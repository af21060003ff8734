"""Decision procedures built on rank data: distillability witness, low-rank
separability decision, entanglement-breaking certification, and the
consistency checks for complementary pairs.

Verdicts are tri-valued (yes / no / unknown) because separability testing is
intractable in general and the rank-gap witness is one-sided. A yes or no is
only ever issued when the recorded ranks and spectra force it; everything
else is an honest unknown.

Consistency relations that are mathematically proven are asserted at
runtime; their violation raises CounterexampleOrBugError, which can only
mean numerical failure or an implementation bug. This turns any sampling
harness into a self-test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .channels import (
    ChoiMatrix,
    StinespringOperator,
    channels_equal,
    choi_from_stinespring,
    choi_from_transfer,
    compose,
    is_trace_preserving,
    transfer_from_choi,
)
from .complement import (
    ComplementaryPair,
    RankChain,
    _chain_of,
    _choi_spectrum,
    purification_marginals,
    swap_environment,
)
from .errors import (
    CounterexampleOrBugError,
    FragileSampleError,
    NotPositiveSemidefiniteError,
    PurityViolationError,
)
from .linalg import (
    DEFAULT_TOLERANCES,
    BipartiteLayout,
    PsdCheck,
    RankDecision,
    ToleranceConfig,
    close_frobenius,
    frobenius,
    hermitian_part_spectrum,
    hermitian_spectrum,
    partial_trace,
    partial_transpose,
    psd_check,
    rank_record,
)

YES = "yes"
NO = "no"
UNKNOWN = "unknown"

# Reason codes. Every yes/no verdict cites one, and each is re-derivable from
# the ranks and spectra recorded alongside it.
RANK_GAP_WITNESS = "rank-gap-witness"
NO_RANK_GAP = "no-rank-gap"
LOW_RANK_PPT_SEPARABLE = "low-rank-ppt-separable"
LOW_RANK_NPT = "low-rank-npt"
OUTSIDE_LOW_RANK_REGIME = "outside-low-rank-regime"
NOT_PPT = "not-ppt"
PSD_SPECTRUM = "psd-spectrum"
PT_SPECTRUM = "pt-spectrum"
TRACE_BLOCK = "trace-block"
DEGRADING_FOUND = "degrading-map-found"
COMPOSITION_INCONSISTENT = "composition-inconsistent"
CANDIDATE_NOT_CP = "candidate-not-cp"
NOT_APPLICABLE = "not-applicable"

# Ranks come from eigenvalues; no verdict on a non-Hermitian matrix reads them.
NOT_HERMITIAN_NOTE = "matrix is not Hermitian: rank records skipped"
# A Choi matrix's entanglement-breaking certificate is read only for a CP map.
EB_NOT_CP = "eb certificate requires a CP map (PSD Choi matrix)"

# Entanglement-breaking certificate codes of ``eb_rule``, as indices into
# EB_VERDICTS.
EB_NO, EB_UNKNOWN, EB_YES = 0, 1, 2
EB_VERDICTS = ((NO, NOT_PPT), (UNKNOWN, OUTSIDE_LOW_RANK_REGIME), (YES, LOW_RANK_PPT_SEPARABLE))
EB_CODES = {value: code for code, (value, _) in enumerate(EB_VERDICTS)}


@dataclass(frozen=True)
class Relation:
    """A proven relation of a complementary pair whose primary map is PPT:
    the message of its counterexample, and the rule under which it fails,
    elementwise over the records ``pair_rules`` takes, passed by name."""

    message: str
    fails: Callable[..., np.ndarray]


# The one statement of the proven relations, in the order ``pair_rules``
# tests them; its relation code is 1 + the index of the first that fails.
# Read at each call, so a patched row reaches the engine and the oracle alike.
RELATIONS = (
    Relation("Choi rank of a PPT map fell below one of its marginal ranks",
             lambda lab, la, lb, **_: np.less(lab, np.maximum(la, lb))),
    Relation("low-rank regime failed to apply to the complement of a PPT map",
             lambda eb_psi, **_: np.equal(eb_psi, EB_UNKNOWN)),
    Relation("PPT and entanglement-breaking certification disagree on the complement",
             lambda psi_ppt, eb_psi, **_: np.not_equal(psi_ppt, np.equal(eb_psi, EB_YES))),
    Relation("distillability witness fired on a PPT Choi matrix",
             lambda witness_psi, psi_ppt, **_: np.logical_and(witness_psi, psi_ppt)),
    Relation("entanglement-breaking certificate returned no for a PPT map",
             lambda eb_phi, **_: np.equal(eb_phi, EB_NO)),
    # the primary map is outside the low-rank regime and the chain is strict
    Relation("strict rank gap did not trigger the witness on the complement",
             lambda eb_phi, lb, lc, witness_psi, **_: (
                 np.equal(eb_phi, EB_UNKNOWN) & np.greater(lc, lb) & np.logical_not(witness_psi))),
)


@dataclass(frozen=True)
class Verdict:
    """Tri-valued outcome with a checkable reason code and a fragility flag."""

    value: str
    reason: str
    fragile: bool = False

    def __post_init__(self):
        if self.value not in (YES, NO, UNKNOWN):
            raise ValueError(f"invalid verdict value {self.value!r}")

    @property
    def is_yes(self) -> bool:
        return self.value == YES

    def to_json(self) -> dict:
        return {"value": self.value, "reason": self.reason, "fragile": self.fragile}


@dataclass
class CertificateReport:
    """Structured outcome of an analysis.

    Every verdict in ``predicates`` is reproducible from ``ranks`` and
    ``spectra`` alone, together with the recorded tolerances.
    """

    tolerances: ToleranceConfig
    predicates: dict[str, Verdict] = field(default_factory=dict)
    ranks: dict[str, RankDecision] = field(default_factory=dict)
    spectra: dict[str, PsdCheck] = field(default_factory=dict)
    residuals: dict[str, float] = field(default_factory=dict)
    chain: RankChain | None = None
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "tolerances": self.tolerances.to_json(),
            "predicates": {k: v.to_json() for k, v in sorted(self.predicates.items())},
            "ranks": {k: v.to_json() for k, v in sorted(self.ranks.items())},
            "spectra": {k: v.to_json() for k, v in sorted(self.spectra.items())},
            "residuals": dict(sorted(self.residuals.items())),
            "rank_chain": self.chain.to_json() if self.chain is not None else None,
            "notes": list(self.notes),
        }


def _bool_verdict(flag: bool, reason: str, fragile: bool = False) -> Verdict:
    return Verdict(YES if flag else NO, reason, fragile)


def _spectra(
    report: CertificateReport, x, layout: BipartiteLayout, cfg: ToleranceConfig,
    keys: tuple[str, str, str],
) -> tuple[bool, bool, tuple[RankDecision, RankDecision, RankDecision] | None]:
    """Record in ``report`` the PSD records of ``x`` and of its left partial
    transpose, as ``keys[0]`` and ``keys[0] + "_pt"``, and the rank decisions
    of (x, left marginal, right marginal) under ``keys``, or, unless ``x`` is
    Hermitian, the not-Hermitian note. Returns x's PSD and PPT flags and the
    rank triple, None when it is not recorded. The marginals of a Hermitian
    ``x`` are Hermitian too, so no deviation check precedes their spectra.

    The "left marginal" is what remains after tracing out the right factor,
    and vice versa.
    """
    w, direct = hermitian_spectrum(x, cfg)
    transposed = psd_check(partial_transpose(x, layout, "left"), cfg)
    report.spectra.update({keys[0]: direct, f"{keys[0]}_pt": transposed})
    ranks = None
    if direct.hermitian:
        ranks = (
            rank_record(w, cfg),
            rank_record(hermitian_part_spectrum(partial_trace(x, layout, "right")), cfg),
            rank_record(hermitian_part_spectrum(partial_trace(x, layout, "left")), cfg),
        )
        report.ranks.update(zip(keys, ranks))
    else:
        report.notes.append(NOT_HERMITIAN_NOTE)
    return direct.psd, ppt_rule(direct.psd, transposed.psd), ranks


def witness_rule(whole, left, right):
    """Rank-gap witness and low-rank regime flags from rank triples, elementwise.

    Returns ``(fires, regime)``: the witness fires when rank(X) is below the
    larger marginal rank, and the low-rank regime applies when rank(X) is at
    most that. Arguments are ints or integer arrays that broadcast together.
    """
    top = np.maximum(left, right)
    return np.less(whole, top), np.less_equal(whole, top)


def eb_rule(ppt, regime):
    """Entanglement-breaking certificate code (EB_NO, EB_UNKNOWN or EB_YES),
    elementwise: no unless PPT, yes only inside the low-rank regime."""
    return np.where(ppt, np.where(regime, EB_YES, EB_UNKNOWN), EB_NO)


def pair_rules(**records):
    """Purity equalities and proven relations of a complementary pair, elementwise.

    ``records`` are those ``pair_records`` names, as scalars or arrays over
    samples that broadcast together. Returns ``(purity, relation)``.
    ``purity`` holds when rank_lc == rank_lab and rank_lb == rank_lac.
    ``relation`` is 0 when the primary map is not PPT or every row of
    RELATIONS holds, else 1 + the index of the first that fails.
    ``equivalence_check`` and the batched harness both call it.
    """
    purity = np.equal(records["lc"], records["lab"]) & np.equal(records["lb"], records["lac"])
    relation = 0  # from the last row to the first: the first that fails sets the code
    for code in range(len(RELATIONS), 0, -1):
        relation = np.where(RELATIONS[code - 1].fails(**records), code, relation)
    return purity, np.where(records["phi_ppt"], relation, 0)


def pair_records(report: CertificateReport) -> dict:
    """A sample's records by name, from its ``equivalence_check`` report: the
    PPT flags ``phi_ppt`` and ``psi_ppt``, the witness flags ``witness_phi``
    and ``witness_psi``, the EB codes ``eb_phi`` and ``eb_psi``, and the ranks
    ``lab``, ``lac``, ``la``, ``lb`` and ``lc`` of the rank chain."""
    p, chain = report.predicates, report.chain
    records = {key: getattr(chain, f"rank_{key}") for key in ("lab", "lac", "la", "lb", "lc")}
    for name in ("phi", "psi"):
        records[f"{name}_ppt"] = p[f"ppt_{name}"].is_yes
        records[f"witness_{name}"] = p[f"witness_{name}"].is_yes
        records[f"eb_{name}"] = EB_CODES[p[f"eb_{name}"].value]
    return records


def ppt_rule(psd, pt_psd):
    """PPT from the PSD flags of a matrix and of its partial transpose,
    elementwise over flags or arrays over samples: both pass."""
    return np.logical_and(psd, pt_psd)


def _rank_flags(ranks) -> tuple[bool, bool, bool]:
    """``(fires, regime, fragile)`` of a (whole, left, right) rank decision triple."""
    whole, left, right = ranks
    fires, regime = witness_rule(whole.rank, left.rank, right.rank)
    return bool(fires), bool(regime), whole.fragile or left.fragile or right.fragile


def witness_verdict(ranks) -> Verdict:
    """Distillability witness verdict from the (whole, left, right) rank triple
    of a PSD matrix: yes when the witness fires, else unknown, never no."""
    fires, _, fragile = _rank_flags(ranks)
    if fires:
        return Verdict(YES, RANK_GAP_WITNESS, fragile)
    return Verdict(UNKNOWN, NO_RANK_GAP, fragile)


def separability_verdict(ppt: bool, ranks) -> Verdict:
    """Separability verdict of a PSD matrix from its PPT flag and rank triple:
    decided by ``ppt`` inside the low-rank regime, unknown outside it."""
    _, regime, fragile = _rank_flags(ranks)
    if not regime:
        return Verdict(UNKNOWN, OUTSIDE_LOW_RANK_REGIME, fragile)
    if ppt:
        return Verdict(YES, LOW_RANK_PPT_SEPARABLE, fragile)
    return Verdict(NO, LOW_RANK_NPT, fragile)


def eb_verdict(ppt: bool, ranks) -> Verdict:
    """Entanglement-breaking verdict of a CP map from its PPT flag and the rank
    triple of its Choi matrix, by ``eb_rule``. Outside PPT the verdict is no
    and ``ranks`` is not read."""
    if not ppt:
        return Verdict(*EB_VERDICTS[EB_NO])
    _, regime, fragile = _rank_flags(ranks)
    return Verdict(*EB_VERDICTS[int(eb_rule(True, regime))], fragile)


def _psd_predicate(report: CertificateReport, spectrum: str, predicate: str, message: str) -> Verdict:
    """``report``'s ``predicate``, which its builder records only when the
    ``spectrum`` record is PSD; otherwise NotPositiveSemidefiniteError."""
    if not report.spectra[spectrum].psd:
        raise NotPositiveSemidefiniteError(message)
    return report.predicates[predicate]


def distillability_witness(
    x, layout: BipartiteLayout, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> Verdict:
    """One-sided rank-gap witness for distillability of a PSD bipartite matrix.

    Yes when rank(X) < max(rank of either marginal): such an X is distillable
    and in particular cannot be PPT. A silent witness proves nothing, so the
    alternative is unknown, never no. Read from ``state_report``.
    """
    return _psd_predicate(state_report(x, layout, cfg), "state", "distillable_witness",
                          "distillability witness requires a PSD input")


def separability_decision(
    x, layout: BipartiteLayout, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> Verdict:
    """Exact separability decision in the low-rank regime.

    Applicable when rank(X) <= max(marginal ranks); there separability, PPT,
    and undistillability coincide, so the partial transpose decides. Outside
    the regime the decision is unknown (deciding it is intractable in
    general and deliberately out of scope). Read from ``state_report``.
    """
    return _psd_predicate(state_report(x, layout, cfg), "state", "separable",
                          "separability decision requires a PSD input")


def eb_certificate(choi: ChoiMatrix, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> Verdict:
    """Entanglement-breaking certificate for a CP map, via its Choi matrix.

    No whenever the Choi matrix fails PPT (a separable matrix is always PPT).
    Yes only inside the low-rank regime, where PPT and separability coincide.
    Unknown when the map is PPT but the regime does not apply; a yes is never
    claimed without the rank hypothesis on record. Read from ``choi_report``.
    """
    return _psd_predicate(choi_report(choi, cfg), "choi", "eb", EB_NOT_CP)


@dataclass(frozen=True)
class DegradingCandidate:
    """Least-squares degrading map candidate with its audit numbers."""

    choi_omega: ChoiMatrix
    verdict: Verdict
    residual: float
    omega_spectrum: PsdCheck


def degrading_candidate(
    pair: ComplementaryPair, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> DegradingCandidate:
    """Solve Omega o Psi = Phi for Omega in the least-squares sense.

    The candidate is the minimum-norm solution through the pseudoinverse of
    Psi's transfer matrix. Yes requires both a tiny composition residual and
    a PSD Choi matrix for Omega. A large residual proves no exact solution
    exists (the least-squares residual is minimal), hence no. A small
    residual with a non-PSD candidate is unknown: a CP solution could exist
    away from the pseudoinverse solution, and searching for it is out of
    scope here.
    """
    s_psi = transfer_from_choi(pair.choi_psi)
    s_phi = transfer_from_choi(pair.choi_phi)
    rcond = cfg.rank_tol * max(s_psi.shape)
    s_omega = s_phi @ np.linalg.pinv(s_psi, rcond=rcond)
    residual = frobenius(s_omega @ s_psi - s_phi)
    scale = frobenius(s_phi)
    choi_omega = choi_from_transfer(s_omega, pair.choi_psi.d_b, pair.choi_phi.d_b)
    spectrum = psd_check(choi_omega.matrix, cfg)
    if residual > cfg.equality_tol * scale:
        verdict = Verdict(NO, COMPOSITION_INCONSISTENT)
    elif spectrum.psd:
        verdict = Verdict(YES, DEGRADING_FOUND)
    else:
        verdict = Verdict(UNKNOWN, CANDIDATE_NOT_CP)
    return DegradingCandidate(choi_omega, verdict, float(residual), spectrum)


def equivalence_check(
    st: StinespringOperator,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    context: dict | None = None,
) -> CertificateReport:
    """Full consistency check of a complementary pair built from one dilation.

    The Choi matrices of phi and psi are the purification marginals L_ab
    and L_ac. One spectrum of each of the five marginals and one of each
    Choi matrix's partial transpose, seven in all, give the PSD records, the
    rank chain and both Choi rank triples. Every predicate is read from
    them, and, whenever the primary map is PPT, the proven consistency
    relations, the rows of RELATIONS, are asserted.

    The rank-gap witness stays one-sided even here: a silent witness on the
    complement does not certify PPT (there are PPT maps whose complement is
    NPT with no rank gap), so no assertion is made in that direction.

    ``pair_rules`` evaluates the relations and the purity equalities.
    Violations raise CounterexampleOrBugError, as does a Choi matrix that
    disagrees with ``choi_from_stinespring``'s, and purity equalities that
    fail on a non-fragile sample raise PurityViolationError. Fragile rank
    chains abort with FragileSampleError instead of risking a spurious
    counterexample.
    """
    ctx = dict(context or {})
    ctx.setdefault("dims", [st.d_a, st.d_b, st.d_c])

    marginals = purification_marginals(st)
    members = (("phi", st.d_b, ("ab", "a", "b")), ("psi", st.d_c, ("ac", "a", "c")))
    chois, spectra, direct = {}, {}, {}
    for name, d_out, (key, _, _) in members:
        chois[name] = ChoiMatrix(st.d_a, d_out, marginals[key])
        spectra[key], direct[name] = _choi_spectrum(name, chois[name].matrix, cfg)
    spectra.update({key: hermitian_part_spectrum(marginals[key]) for key in ("a", "b", "c")})
    chain, decisions = _chain_of(spectra, cfg)

    report = CertificateReport(tolerances=cfg, chain=chain)
    report.ranks.update({f"l_{key}": dec for key, dec in decisions.items()})

    # Tr_B J_phi and Tr_C J_psi are both L_a: the two maps are trace
    # preserving together, exactly when the dilation is an isometry.
    tp = _bool_verdict(
        close_frobenius(marginals["a"], np.eye(st.d_a), cfg.equality_tol), TRACE_BLOCK
    )
    for name, _, keys in members:
        choi, psd = chois[name], direct[name]
        pt = psd_check(partial_transpose(choi.matrix, choi.layout, "left"), cfg)
        report.spectra.update({f"{name}_choi": psd, f"{name}_choi_pt": pt})
        ppt = ppt_rule(psd.psd, pt.psd)
        ranks = tuple(decisions[key] for key in keys)
        report.predicates.update(
            {
                f"cp_{name}": _bool_verdict(psd.psd, PSD_SPECTRUM),
                f"ppt_{name}": _bool_verdict(ppt, PT_SPECTRUM),
                f"tp_{name}": tp,
                f"witness_{name}": witness_verdict(ranks),
                f"eb_{name}": eb_verdict(ppt, ranks),
            }
        )

    records = pair_records(report)
    purity, relation = pair_rules(**records)
    if not purity and not chain.fragile:
        raise PurityViolationError(
            f"purity rank equalities failed on a non-fragile sample: {chain.to_json()}"
        )

    kraus_route = (choi_from_stinespring(st), choi_from_stinespring(swap_environment(st)))
    if not all(channels_equal(x, y, cfg) for x, y in zip(chois.values(), kraus_route)):
        raise CounterexampleOrBugError(
            "purification marginals disagree with the Kraus-vector Choi matrices", ctx
        )

    if chain.fragile:
        raise FragileSampleError(
            "rank chain is fragile; equivalence consistency cannot be certified"
        )

    if records["phi_ppt"]:
        report.notes.append("primary map is PPT: consistency relations asserted")
    else:
        report.notes.append("primary map is not PPT: consistency branch vacuous")
    if relation:
        raise CounterexampleOrBugError(
            RELATIONS[int(relation) - 1].message, {**ctx, "report": report.to_json()}
        )
    return report


def degradable_ppt_check(
    pair: ComplementaryPair,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    context: dict | None = None,
) -> CertificateReport:
    """Degradability-based certification: a PPT map with a CP degrading map
    onto it forces both members of the pair to be entanglement breaking.

    When psi is PPT and the degrading candidate is certified, asserts that
    the composition is PPT and reproduces phi on the Choi level, and that
    both entanglement-breaking certificates come back yes. Violations raise
    CounterexampleOrBugError; fragile rank data downgrades the assertions to
    a note instead.
    """
    ctx = dict(context or {})
    report = CertificateReport(tolerances=cfg)

    psi, phi = choi_report(pair.choi_psi, cfg), choi_report(pair.choi_phi, cfg)
    for name, member in (("phi", phi), ("psi", psi)):
        report.spectra[f"{name}_choi"] = member.spectra["choi"]
        report.spectra[f"{name}_choi_pt"] = member.spectra["choi_pt"]
        report.predicates[f"ppt_{name}"] = member.predicates["ppt"]

    if not psi.predicates["ppt"].is_yes:
        report.predicates["degradable"] = Verdict(UNKNOWN, NOT_APPLICABLE)
        report.notes.append("psi is not PPT: degradability check vacuous")
        return report

    cand = degrading_candidate(pair, cfg)
    report.predicates["degradable"] = cand.verdict
    report.residuals["degrading_residual"] = cand.residual
    report.spectra["omega_choi"] = cand.omega_spectrum

    eb_phi, eb_psi = (_psd_predicate(member, "choi", "eb", EB_NOT_CP) for member in (phi, psi))
    report.predicates.update(eb_phi=eb_phi, eb_psi=eb_psi)

    if cand.verdict.value != YES:
        report.notes.append("no certified degrading map: conclusions not asserted")
        return report

    def fail(message: str) -> None:
        raise CounterexampleOrBugError(message, {**ctx, "report": report.to_json()})

    composed = compose(cand.choi_omega, pair.choi_psi)
    if not channels_equal(composed, pair.choi_phi, cfg):
        fail("certified degrading map does not reproduce phi on the Choi level")
    if not phi.predicates["ppt"].is_yes:
        fail("composition of a CP map with a PPT map must be PPT")
    if eb_phi.fragile or eb_psi.fragile:
        report.notes.append("fragile rank data: entanglement-breaking assertions skipped")
        return report
    if eb_phi.value != YES or eb_psi.value != YES:
        fail("degradable PPT pair must certify entanglement breaking on both members")
    report.notes.append("degradable PPT pair: both members certified entanglement breaking")
    return report


def state_report(
    x, layout: BipartiteLayout, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> CertificateReport:
    """Predicate suite for a bipartite matrix treated as an (unnormalized) state."""
    report = CertificateReport(tolerances=cfg)
    psd, ppt, ranks = _spectra(report, x, layout, cfg, ("state", "marginal_left", "marginal_right"))
    report.predicates["psd"] = _bool_verdict(psd, PSD_SPECTRUM)
    report.predicates["ppt"] = _bool_verdict(ppt, PT_SPECTRUM)
    if psd:
        report.predicates["distillable_witness"] = witness_verdict(ranks)
        report.predicates["separable"] = separability_verdict(ppt, ranks)
    else:
        report.notes.append("input is not PSD: witness and separability skipped")
    return report


def choi_report(choi: ChoiMatrix, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> CertificateReport:
    """Predicate suite for a map given by its Choi matrix."""
    report = CertificateReport(tolerances=cfg)
    cp, ppt, ranks = _spectra(report, choi.matrix, choi.layout, cfg,
                              ("choi", "marginal_a", "marginal_b"))
    report.predicates["cp"] = _bool_verdict(cp, PSD_SPECTRUM)
    report.predicates["cocp"] = _bool_verdict(report.spectra["choi_pt"].psd, PT_SPECTRUM)
    report.predicates["ppt"] = _bool_verdict(ppt, PT_SPECTRUM)
    report.predicates["trace_preserving"] = _bool_verdict(is_trace_preserving(choi, cfg), TRACE_BLOCK)
    if cp:
        report.predicates["eb"] = eb_verdict(ppt, ranks)
    else:
        report.notes.append("map is not CP: entanglement-breaking certificate skipped")
    return report
