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

import numpy as np

from .channels import (
    ChoiMatrix,
    StinespringOperator,
    channels_equal,
    choi_from_transfer,
    compose,
    is_trace_preserving,
    transfer_from_choi,
)
from .complement import (
    ComplementaryPair,
    RankChain,
    _pair_and_spectra,
    rank_chain,
    verify_complementarity,
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

# Entanglement-breaking certificate codes of ``eb_rule``, as indices into
# EB_VERDICTS.
EB_NO, EB_UNKNOWN, EB_YES = 0, 1, 2
EB_VERDICTS = ((NO, NOT_PPT), (UNKNOWN, OUTSIDE_LOW_RANK_REGIME), (YES, LOW_RANK_PPT_SEPARABLE))
EB_CODES = {value: code for code, (value, _) in enumerate(EB_VERDICTS)}

# The proven relations of a complementary pair whose primary map is PPT, in
# the order ``pair_rules`` tests them; its relation code is 1 + the index of
# the first that fails.
RELATIONS = (
    "Choi rank of a PPT map fell below one of its marginal ranks",
    "low-rank regime failed to apply to the complement of a PPT map",
    "PPT and entanglement-breaking certification disagree on the complement",
    "distillability witness fired on a PPT Choi matrix",
    "entanglement-breaking certificate returned no for a PPT map",
    "strict rank gap did not trigger the witness on the complement",
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


def _marginal_ranks(
    x, w: np.ndarray, layout: BipartiteLayout, cfg: ToleranceConfig
) -> tuple[RankDecision, RankDecision, RankDecision]:
    """Rank decisions for (x, left marginal, right marginal) of a Hermitian
    ``x`` with spectrum ``w``; the marginals are Hermitian too, so no deviation
    check precedes their spectra.

    The "left marginal" is what remains after tracing out the right factor,
    and vice versa.
    """
    return (
        rank_record(w, cfg),
        rank_record(hermitian_part_spectrum(partial_trace(x, layout, "right")), cfg),
        rank_record(hermitian_part_spectrum(partial_trace(x, layout, "left")), cfg),
    )


def _spectra(
    x, layout: BipartiteLayout, cfg: ToleranceConfig
) -> tuple[np.ndarray, PsdCheck, PsdCheck]:
    """Ascending spectrum of ``x``, and the PSD records of ``x`` and of its
    left partial transpose."""
    return (*hermitian_spectrum(x, cfg), psd_check(partial_transpose(x, layout, "left"), cfg))


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


def pair_rules(phi_ppt, psi_ppt, witness_psi, eb_phi, eb_psi, lab, lac, la, lb, lc):
    """Purity equalities and proven relations of a complementary pair, elementwise.

    Inputs are the PPT flags of both maps, the complement's witness flag, the
    EB codes of both maps and the five ranks of the purification rank chain,
    as scalars or arrays over samples that broadcast together. Returns
    ``(purity, relation)``. ``purity`` holds when rank_lc == rank_lab and
    rank_lb == rank_lac. ``relation`` is 0 when the primary map is not PPT or
    every relation in RELATIONS holds, else 1 + the index of the first that
    fails. This is the only statement of these rules: ``equivalence_check``
    and the batched harness both call it.
    """
    purity = np.equal(lc, lab) & np.equal(lb, lac)
    failed = np.stack(np.broadcast_arrays(
        np.less(lab, np.maximum(la, lb)),
        np.equal(eb_psi, EB_UNKNOWN),
        np.not_equal(psi_ppt, np.equal(eb_psi, EB_YES)),
        np.logical_and(witness_psi, psi_ppt),
        np.equal(eb_phi, EB_NO),
        np.equal(eb_phi, EB_UNKNOWN) & np.greater(lc, lb) & np.logical_not(witness_psi),
    ))
    relation = np.where(np.logical_and(phi_ppt, failed.any(axis=0)), failed.argmax(axis=0) + 1, 0)
    return purity, relation


def ppt_rule(direct: PsdCheck, transposed: PsdCheck) -> bool:
    """PPT from the PSD records of a matrix and of its partial transpose: both pass."""
    return direct.psd and transposed.psd


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
    and ``ranks`` is not read (it may be None)."""
    if not ppt:
        return Verdict(*EB_VERDICTS[EB_NO])
    _, regime, fragile = _rank_flags(ranks)
    return Verdict(*EB_VERDICTS[int(eb_rule(True, regime))], fragile)


def distillability_witness(
    x, layout: BipartiteLayout, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> Verdict:
    """One-sided rank-gap witness for distillability of a PSD bipartite matrix.

    Yes when rank(X) < max(rank of either marginal): such an X is distillable
    and in particular cannot be PPT. A silent witness proves nothing, so the
    alternative is unknown, never no.
    """
    w, direct = hermitian_spectrum(x, cfg)
    if not direct.psd:
        raise NotPositiveSemidefiniteError("distillability witness requires a PSD input")
    return witness_verdict(_marginal_ranks(x, w, layout, cfg))


def separability_decision(
    x, layout: BipartiteLayout, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> Verdict:
    """Exact separability decision in the low-rank regime.

    Applicable when rank(X) <= max(marginal ranks); there separability, PPT,
    and undistillability coincide, so the partial transpose decides. Outside
    the regime the decision is unknown (deciding it is intractable in
    general and deliberately out of scope).
    """
    w, direct = hermitian_spectrum(x, cfg)
    if not direct.psd:
        raise NotPositiveSemidefiniteError("separability decision requires a PSD input")
    ranks = _marginal_ranks(x, w, layout, cfg)
    transposed = psd_check(partial_transpose(x, layout, "left"), cfg)
    return separability_verdict(ppt_rule(direct, transposed), ranks)


def _eb_certificate(
    choi: ChoiMatrix, w: np.ndarray, direct: PsdCheck, transposed: PsdCheck, cfg: ToleranceConfig
) -> Verdict:
    """``eb_certificate`` from the Choi matrix's spectrum ``w`` and PSD
    records; the marginal ranks are computed only when the map is PPT."""
    if not direct.psd:
        raise NotPositiveSemidefiniteError("eb certificate requires a CP map (PSD Choi matrix)")
    ppt = ppt_rule(direct, transposed)
    return eb_verdict(ppt, _marginal_ranks(choi.matrix, w, choi.layout, cfg) if ppt else None)


def eb_certificate(choi: ChoiMatrix, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> Verdict:
    """Entanglement-breaking certificate for a CP map, via its Choi matrix.

    No whenever the Choi matrix fails PPT (a separable matrix is always PPT).
    Yes only inside the low-rank regime, where PPT and separability coincide.
    Unknown when the map is PPT but the regime does not apply; a yes is never
    claimed without the rank hypothesis on record.
    """
    return _eb_certificate(choi, *_spectra(choi.matrix, choi.layout, cfg), cfg)


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

    Builds the pair and the purification rank chain, evaluates every
    predicate, and, whenever the primary map is PPT, asserts the proven
    consistency relations:

    - the Choi rank of a PPT map is at least both of its marginal ranks;
    - the low-rank regime applies to the complement's Choi matrix, so its
      entanglement-breaking certificate is never unknown;
    - the complement is PPT exactly when it is certified entanglement
      breaking;
    - a firing distillability witness on the complement excludes PPT;
    - the certificate on the primary map itself can never be an outright no;
    - when the primary map's certificate is unknown and the rank chain is
      strict (rank_lc > rank_lb), the witness must fire on the complement.

    The rank-gap witness stays one-sided even here: a silent witness on the
    complement does not certify PPT (there are PPT maps whose complement is
    NPT with no rank gap), so no assertion is made in that direction.

    ``pair_rules`` evaluates the relations and the purity equalities.
    Violations raise CounterexampleOrBugError, and purity equalities that
    fail on a non-fragile sample raise PurityViolationError. Fragile rank
    chains abort with FragileSampleError instead of risking a spurious
    counterexample.
    """
    ctx = dict(context or {})
    ctx.setdefault("dims", [st.d_a, st.d_b, st.d_c])

    pair, ((phi_w, phi_psd), (psi_w, psi_psd)) = _pair_and_spectra(st, cfg)
    chain, decisions = rank_chain(st, cfg)

    report = CertificateReport(tolerances=cfg, chain=chain)
    report.ranks.update({f"l_{key}": dec for key, dec in decisions.items()})

    phi_pt = psd_check(partial_transpose(pair.choi_phi.matrix, pair.choi_phi.layout, "left"), cfg)
    psi_pt = psd_check(partial_transpose(pair.choi_psi.matrix, pair.choi_psi.layout, "left"), cfg)
    report.spectra.update(
        {"phi_choi": phi_psd, "phi_choi_pt": phi_pt, "psi_choi": psi_psd, "psi_choi_pt": psi_pt}
    )
    phi_ppt = ppt_rule(phi_psd, phi_pt)
    psi_ppt = ppt_rule(psi_psd, psi_pt)

    # Both Choi matrices passed the PSD assertion of the pair constructor.
    phi_ranks = _marginal_ranks(pair.choi_phi.matrix, phi_w, pair.choi_phi.layout, cfg)
    psi_ranks = _marginal_ranks(pair.choi_psi.matrix, psi_w, pair.choi_psi.layout, cfg)
    witness_phi = witness_verdict(phi_ranks)
    witness_psi = witness_verdict(psi_ranks)
    eb_phi = eb_verdict(phi_ppt, phi_ranks)
    eb_psi = eb_verdict(psi_ppt, psi_ranks)

    report.predicates.update(
        {
            "cp_phi": _bool_verdict(phi_psd.psd, PSD_SPECTRUM),
            "cp_psi": _bool_verdict(psi_psd.psd, PSD_SPECTRUM),
            "ppt_phi": _bool_verdict(phi_ppt, PT_SPECTRUM),
            "ppt_psi": _bool_verdict(psi_ppt, PT_SPECTRUM),
            "tp_phi": _bool_verdict(is_trace_preserving(pair.choi_phi, cfg), TRACE_BLOCK),
            "tp_psi": _bool_verdict(is_trace_preserving(pair.choi_psi, cfg), TRACE_BLOCK),
            "witness_phi": witness_phi,
            "witness_psi": witness_psi,
            "eb_phi": eb_phi,
            "eb_psi": eb_psi,
        }
    )

    purity, relation = pair_rules(
        phi_ppt, psi_ppt, witness_psi.is_yes, EB_CODES[eb_phi.value], EB_CODES[eb_psi.value],
        chain.rank_lab, chain.rank_lac, chain.rank_la, chain.rank_lb, chain.rank_lc,
    )
    if not purity and not chain.fragile:
        raise PurityViolationError(
            f"purity rank equalities failed on a non-fragile sample: {chain.to_json()}"
        )

    if not verify_complementarity(pair, cfg):
        raise CounterexampleOrBugError(
            "purification marginals disagree with the basis-assembled Choi matrices", ctx
        )

    if chain.fragile:
        raise FragileSampleError(
            "rank chain is fragile; equivalence consistency cannot be certified"
        )

    if phi_ppt:
        report.notes.append("primary map is PPT: consistency relations asserted")
    else:
        report.notes.append("primary map is not PPT: consistency branch vacuous")
    if relation:
        raise CounterexampleOrBugError(
            RELATIONS[int(relation) - 1], {**ctx, "report": report.to_json()}
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

    psi_w, psi_psd, psi_pt = _spectra(pair.choi_psi.matrix, pair.choi_psi.layout, cfg)
    phi_w, phi_psd, phi_pt = _spectra(pair.choi_phi.matrix, pair.choi_phi.layout, cfg)
    report.spectra.update(
        {"phi_choi": phi_psd, "phi_choi_pt": phi_pt, "psi_choi": psi_psd, "psi_choi_pt": psi_pt}
    )
    psi_ppt = ppt_rule(psi_psd, psi_pt)
    phi_ppt = ppt_rule(phi_psd, phi_pt)
    report.predicates["ppt_psi"] = _bool_verdict(psi_ppt, PT_SPECTRUM)
    report.predicates["ppt_phi"] = _bool_verdict(phi_ppt, PT_SPECTRUM)

    if not psi_ppt:
        report.predicates["degradable"] = Verdict(UNKNOWN, NOT_APPLICABLE)
        report.notes.append("psi is not PPT: degradability check vacuous")
        return report

    cand = degrading_candidate(pair, cfg)
    report.predicates["degradable"] = cand.verdict
    report.residuals["degrading_residual"] = cand.residual
    report.spectra["omega_choi"] = cand.omega_spectrum

    eb_phi = _eb_certificate(pair.choi_phi, phi_w, phi_psd, phi_pt, cfg)
    eb_psi = _eb_certificate(pair.choi_psi, psi_w, psi_psd, psi_pt, cfg)
    report.predicates["eb_phi"] = eb_phi
    report.predicates["eb_psi"] = eb_psi

    if cand.verdict.value != YES:
        report.notes.append("no certified degrading map: conclusions not asserted")
        return report

    def fail(message: str) -> None:
        raise CounterexampleOrBugError(message, {**ctx, "report": report.to_json()})

    composed = compose(cand.choi_omega, pair.choi_psi)
    if not channels_equal(composed, pair.choi_phi, cfg):
        fail("certified degrading map does not reproduce phi on the Choi level")
    if not phi_ppt:
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
    w, spectrum, pt_spectrum = _spectra(x, layout, cfg)
    report.spectra.update({"state": spectrum, "state_pt": pt_spectrum})
    if spectrum.hermitian:
        ranks = _marginal_ranks(x, w, layout, cfg)
        report.ranks.update(zip(("state", "marginal_left", "marginal_right"), ranks))
    else:
        report.notes.append(NOT_HERMITIAN_NOTE)
    ppt = ppt_rule(spectrum, pt_spectrum)
    report.predicates["psd"] = _bool_verdict(spectrum.psd, PSD_SPECTRUM)
    report.predicates["ppt"] = _bool_verdict(ppt, PT_SPECTRUM)
    if spectrum.psd:
        report.predicates["distillable_witness"] = witness_verdict(ranks)
        report.predicates["separable"] = separability_verdict(ppt, ranks)
    else:
        report.notes.append("input is not PSD: witness and separability skipped")
    return report


def choi_report(choi: ChoiMatrix, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> CertificateReport:
    """Predicate suite for a map given by its Choi matrix."""
    report = CertificateReport(tolerances=cfg)
    w, direct, transposed = _spectra(choi.matrix, choi.layout, cfg)
    report.spectra.update({"choi": direct, "choi_pt": transposed})
    if direct.hermitian:
        ranks = _marginal_ranks(choi.matrix, w, choi.layout, cfg)
        report.ranks.update(zip(("choi", "marginal_a", "marginal_b"), ranks))
    else:
        report.notes.append(NOT_HERMITIAN_NOTE)
    ppt = ppt_rule(direct, transposed)
    report.predicates["cp"] = _bool_verdict(direct.psd, PSD_SPECTRUM)
    report.predicates["cocp"] = _bool_verdict(transposed.psd, PT_SPECTRUM)
    report.predicates["ppt"] = _bool_verdict(ppt, PT_SPECTRUM)
    report.predicates["trace_preserving"] = _bool_verdict(is_trace_preserving(choi, cfg), TRACE_BLOCK)
    if direct.psd:
        report.predicates["eb"] = eb_verdict(ppt, ranks)
    else:
        report.notes.append("map is not CP: entanglement-breaking certificate skipped")
    return report
