"""Batched Monte-Carlo consistency harness behind ``verify-theorem``.

Harness samples are independent, so a chunk of them is evaluated as one
array program over a sample axis:

1. draw the chunk's dilations from the per-sample streams
   ``SeedSequence(seed, spawn_key=(index,))`` that ``random_stinespring``
   uses, bit for bit;
2. form the five purification marginals with stacked einsums;
3. cross-check both Choi matrices against the Kraus-vector route
   ``V V^dagger``, which reads the dilation through a different reshape,
   and take each marginal's Hermitian part in one pass that also measures
   its deviation; Frobenius norms sum over the float64 view, each
   marginal's once;
4. derive PSD flags, ranks and fragility from eigenvalues with
   ``psd_rule`` and ``rank_rule``, the rules behind every ``PsdCheck`` and
   ``RankDecision``. The marginals on ``a``, and on the narrower side of each
   complementary pair ``(ab, c)`` and ``(ac, b)``, get one stacked
   ``eigvalsh`` each, three per chunk. The wider side shares the narrower
   one's nonzero spectrum, so its flags follow from that spectrum padded
   with zeros wherever a Weyl interval leaves no decision open
   (``_wide_spectra``); the open samples go to one stacked ``eigvalsh``. A
   partial transpose of a Choi matrix gets its PSD flags without a spectrum
   when a 2x2 principal minor certifies it clearly not PSD
   (``_certified_npt``); the rest of each kind are formed with reshapes and
   go to one stacked ``eigvalsh``. At most four more per chunk;
5. evaluate verdicts, purity equalities and proven relations with the rules
   in ``certify`` that ``equivalence_check`` calls as well.

``equivalence_check`` stays the oracle. A sample is re-run through it, and
its outcome is what counts, whenever the batched evaluation cannot vouch for
the same outcome: a failed check or relation, a Choi matrix that is not
clearly PSD, or an eigenvalue within a factor ESCALATION_MARGIN outside a
decision window. Counts, counterexample records, exceptions and exit codes
are therefore those of a per-sample loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import certify
from .complement import marginals_of
from .errors import CounterexampleOrBugError, FragileSampleError, PurityViolationError
from .generate import random_dilation_stack, random_stinespring
from .linalg import FRAGILITY_FACTOR, ToleranceConfig, psd_rule, rank_rule

# Memory budget of a chunk: complex entries in its largest stacked matrix
# array (256 KiB). Larger chunks save little per-call overhead but raise the
# peak memory of the widest tuples.
CHUNK_ENTRIES = 16384
# An eigenvalue this factor or less outside a decision window (the PSD
# threshold, the fragility window around a rank cutoff) escalates its sample.
ESCALATION_MARGIN = 2.0
# A Hermitian deviation or a cross-check difference above equality_tol over
# this factor escalates its sample: the per-sample path measures both on
# other matrices, equal only up to rounding.
EQUALITY_MARGIN = 10.0
# Rounding allowance of the NPT certificate, in units of dim * eps times the
# Frobenius bound; see _certified_npt.
MINOR_ROUNDING = 32.0
# Rounding allowance of the complementary-spectrum certificate, in units of
# the pair's summed dims * eps times the trace; see _wide_spectra.
SCHMIDT_ROUNDING = 32.0

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


@dataclass
class HarnessResult:
    """Verdict counts and counterexample records of one harness run, and the
    indices of the samples that were re-run through ``equivalence_check``."""

    counts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(COUNT_KEYS, 0))
    counterexamples: list[dict] = field(default_factory=list)
    escalated: list[int] = field(default_factory=list)


def chunk_size(dims) -> int:
    """Samples per chunk: as many as fit the largest matrix kind into CHUNK_ENTRIES."""
    d_a, d_b, d_c = dims
    side = d_a * max(d_b, d_c)
    return max(1, CHUNK_ENTRIES // (side * side))


def run_harness(dims, trials: int, seed: int, cfg: ToleranceConfig) -> HarnessResult:
    """Check samples ``0 .. trials-1`` of ``seed`` at ``dims``, chunk by chunk.

    Exceptions other than fragility and counterexamples propagate from the
    first sample that raises them, as in a per-sample loop.
    """
    result = HarnessResult()
    size = chunk_size(dims)
    for start in range(0, trials, size):
        _run_chunk(tuple(dims), seed, range(start, min(start + size, trials)), cfg, result)
    return result


def _frobenius(x: np.ndarray) -> np.ndarray:
    """Frobenius norms of a stack of complex matrices, summed over their float64 view."""
    parts = x.view(np.float64)
    return np.sqrt(np.einsum("...ij,...ij->...", parts, parts))


def _hermitian_part(
    x: np.ndarray, norm: np.ndarray, cfg: ToleranceConfig
) -> tuple[np.ndarray, np.ndarray]:
    """(x + x^dagger) / 2 per matrix, and whether x is clearly Hermitian;
    ``norm`` holds the Frobenius norms of x."""
    adjoint = x.conj().swapaxes(-2, -1)
    clear = _frobenius(x - adjoint) <= cfg.equality_tol / EQUALITY_MARGIN * norm
    part = x + adjoint
    part *= 0.5
    return part, clear


def _agrees(x: np.ndarray, norm: np.ndarray, y: np.ndarray, cfg: ToleranceConfig) -> np.ndarray:
    """Per-matrix relative Frobenius agreement, inside the escalation margin;
    ``norm`` holds the Frobenius norms of x."""
    scale = np.maximum(norm, _frobenius(y))
    return _frobenius(x - y) <= cfg.equality_tol / EQUALITY_MARGIN * scale


def _partial_transpose_left(x: np.ndarray, d_left: int, d_right: int) -> np.ndarray:
    n, dim = x.shape[0], d_left * d_right
    return x.reshape(n, d_left, d_right, d_left, d_right).transpose(0, 3, 2, 1, 4).reshape(
        n, dim, dim
    )


def _psd_flags(w: np.ndarray, cfg: ToleranceConfig) -> tuple[np.ndarray, np.ndarray]:
    """PSD verdicts of ascending spectra, and whether lambda_min is too close
    to the threshold to vouch for the verdict."""
    psd, threshold = psd_rule(w, cfg)
    lam_min = w[:, 0]
    near = (lam_min > ESCALATION_MARGIN * threshold) & (lam_min < threshold / ESCALATION_MARGIN)
    return psd, near


def _certified_npt(
    h: np.ndarray, d_left: int, d_right: int, bound: np.ndarray, cfg: ToleranceConfig
) -> np.ndarray:
    """Per matrix of a Hermitian stack with Frobenius norms at most ``bound``:
    whether g + cI, g its left partial transpose, has a negative diagonal
    entry or 2x2 principal minor, for
    c = (2 ESCALATION_MARGIN psd_tol + MINOR_ROUNDING dim eps) * bound. Where
    it holds, ``_psd_flags`` of g's computed spectrum reads psd = near = False.
    g is read from h, never formed: it has h's diagonal, and its entry
    ((a, b), (x, z)) is h's entry ((x, b), (a, z)).
    """
    # Why. By Cauchy interlacing, a negative entry or minor of g + cI puts
    # lambda_min(g) below -c. _psd_flags reads psd = near = False when
    # w_0 < ESCALATION_MARGIN t, t = -psd_tol max(w_max, 0), and
    # w_max <= ||g||_2 <= ||g||_F = ||h||_F <= bound. The psd_tol term of c is
    # twice that; the spare factor absorbs the relative rounding of bound, c
    # and t. The dim eps term absorbs the absolute errors, of two kinds:
    # - eigvalsh returns each eigenvalue within p(dim) eps ||g||_2, p a
    #   modestly growing function (LAPACK Users' Guide, error bounds for the
    #   symmetric eigenproblem). Against 40-digit mpmath spectra of the
    #   harness's partial transposes, dim 12 to 64, the error stayed below
    #   dim/4 eps ||g||_2 (11 eps at dim 64).
    # - The test's own rounding stays below 6 eps bound. A diagonal entry of
    #   g + cI rounds by eps (|g_ii| + c), and a rounded sum keeps its sign.
    #   With both entries >= 0, a computed product below |g_ij|^2 leaves the
    #   exact 2x2 determinant below 4 eps |g_ij|^2; the larger eigenvalue is
    #   >= |g_ij|, so the smaller one, their quotient, is below 4 eps |g_ij|.
    # MINOR_ROUNDING dim - 6 bounds p(dim) with ample room.
    n, dim = h.shape[0], h.shape[-1]
    eps = np.finfo(np.float64).eps
    shift = (2 * ESCALATION_MARGIN * cfg.psd_tol + MINOR_ROUNDING * dim * eps) * bound
    diagonal = h.diagonal(axis1=1, axis2=2).real + shift[:, None]
    squares = np.square(h.real)
    squares += np.square(h.imag)
    squares[:, np.arange(dim), np.arange(dim)] = 0.0
    products = np.einsum("ni,nj->nij", diagonal, diagonal)
    # g's squared moduli, as a view of h's
    facing = squares.reshape(n, d_left, d_right, d_left, d_right).transpose(0, 3, 2, 1, 4)
    minors = products.reshape(facing.shape) < facing
    return (diagonal < 0.0).any(axis=1) | minors.any(axis=(1, 2, 3, 4))


def _partial_transpose_flags(
    h: np.ndarray, d_left: int, d_right: int, bound: np.ndarray, cfg: ToleranceConfig
) -> tuple[np.ndarray, np.ndarray]:
    """``_psd_flags`` of the spectra of the left partial transposes of a
    Hermitian stack with Frobenius norms at most ``bound``, from one stacked
    ``eigvalsh`` on the matrices that ``_certified_npt`` leaves open, and none
    when it settles them all."""
    psd = np.zeros(h.shape[0], dtype=bool)
    near = np.zeros(h.shape[0], dtype=bool)
    rest = np.flatnonzero(~_certified_npt(h, d_left, d_right, bound, cfg))
    if rest.size:
        spectra = np.linalg.eigvalsh(_partial_transpose_left(h[rest], d_left, d_right))
        psd[rest], near[rest] = _psd_flags(spectra, cfg)
    return psd, near


def _wide_spectra(
    h: np.ndarray, narrow: np.ndarray, trace: np.ndarray, cfg: ToleranceConfig, psd: bool
) -> np.ndarray:
    """Spectra standing in for those of a Hermitian stack h of marginals of
    tripartite vectors with squared norms ``trace``, given ``narrow``, the
    computed spectra of the complementary marginals, no wider than h.

    A sample is settled when its narrow spectrum padded with zeros, widened
    by a rounding allowance on each eigenvalue, leaves no choice to
    ``_rank_flags`` nor, with ``psd``, to ``_psd_flags``. Its row is then the
    padded spectrum, whose flags are those of h's computed spectrum. The
    other rows are h's computed spectra, from one stacked ``eigvalsh`` on the
    open samples, and none when every sample is settled.
    """
    # Why. Complementary marginals of one pure vector share their nonzero
    # spectrum (Schmidt decomposition), so h's exact spectrum is the exact
    # narrow spectrum padded with zeros. Let k be the narrow width. Both
    # sides are computed within a multiple of eps * trace of exact:
    # - an einsum contracting over l terms errs by at most (l + 2) eps/2 *
    #   trace in Frobenius norm; the narrow marginal contracts over dim terms
    #   and h over k, (dim + k + 4) eps/2 * trace together;
    # - each Hermitian part is exactly Hermitian and adds eps * trace;
    # - eigvalsh adds p(dim) eps ||h||_2, below dim/4 eps ||h||_2 against
    #   40-digit mpmath spectra (see _certified_npt), and ||h||_2 <= trace.
    # By Weyl's inequality the i-th computed eigenvalue of h thus lies within
    # (3/4 (dim + k) + 4) eps * trace <= 3 (dim + k) eps * trace of the i-th
    # padded narrow one, both ascending. delta is more than ten times that;
    # the spare factor absorbs the rounding of trace, of delta and of the
    # interval ends. psd_rule's threshold and rank_rule's cutoff are monotone
    # in lambda_max and sigma_max, and round monotonically, so where no
    # interval meets a decision's window at its widest reach, the computed
    # spectrum and the stand-in get the same flags.
    n, dim = h.shape[0], h.shape[-1]
    eps = np.finfo(np.float64).eps
    delta = SCHMIDT_ROUNDING * (dim + narrow.shape[-1]) * eps * trace
    w = np.zeros((n, dim))
    w[:, dim - narrow.shape[-1]:] = narrow
    w.sort(axis=1)
    # rank_rule's cutoff at the smallest and the largest sigma_max the
    # intervals allow, each past the escalation window: no sigma-interval may
    # meet the span between them
    sigma = np.abs(w)
    sigma_max = np.maximum(-w[:, 0], w[:, -1])
    wide = FRAGILITY_FACTOR * ESCALATION_MARGIN
    below = cfg.rank_tol * (sigma_max - delta) * dim / wide - delta
    above = cfg.rank_tol * (sigma_max + delta) * dim * wide + delta
    settled = ~((sigma > below[:, None]) & (sigma < above[:, None])).any(axis=1)
    if psd:
        ends = w - delta[:, None]
        settled &= ends[:, 0] >= psd_rule(ends, cfg)[1] / ESCALATION_MARGIN
    if not settled.all():
        w[~settled] = np.linalg.eigvalsh(h[~settled])
    return w


def _marginal_spectra(
    hermitian: dict[str, np.ndarray], trace: np.ndarray, cfg: ToleranceConfig
) -> dict[str, np.ndarray]:
    """Spectra, for their flags, of the Hermitian parts of the five marginals
    of vectors with squared norms ``trace``: computed for 'a' and for the
    narrower side of each complementary pair, the first on a tie, and from
    ``_wide_spectra`` for the other side. Only Choi matrices need PSD flags."""
    spectra = {"a": np.linalg.eigvalsh(hermitian["a"])}
    for pair in (("ab", "c"), ("ac", "b")):
        narrow, wide = sorted(pair, key=lambda key: hermitian[key].shape[-1])
        spectra[narrow] = np.linalg.eigvalsh(hermitian[narrow])
        spectra[wide] = _wide_spectra(
            hermitian[wide], spectra[narrow], trace, cfg, psd=wide in ("ab", "ac")
        )
    return spectra


def _rank_flags(w: np.ndarray, cfg: ToleranceConfig) -> tuple[np.ndarray, ...]:
    """Ranks and fragility of spectra, and whether a singular value lies within
    a factor ESCALATION_MARGIN outside the fragility window."""
    rank, cutoff, near = rank_rule(w, cfg)
    sigma, wide = np.abs(w), FRAGILITY_FACTOR * ESCALATION_MARGIN
    margin = (sigma > cutoff[:, None] / wide) & (sigma < cutoff[:, None] * wide) & ~near
    return rank, near.any(axis=1), margin.any(axis=1)


def _run_chunk(dims, seed: int, indices: range, cfg: ToleranceConfig, result: HarnessResult):
    d_a, d_b, d_c = dims
    n = len(indices)
    stack = random_dilation_stack(d_a, d_b, d_c, seed, indices)

    # Purification route: |L> indexed (a, b, c), as common_purification_vector.
    # A contiguous copy: the einsums run faster than on the strided view.
    vector = np.ascontiguousarray(stack.swapaxes(1, 2)).reshape(n, d_a, d_b, d_c)
    marginals = marginals_of(vector)
    # Kraus-vector route: K_c[b, a] = L[b * d_c + c, a] for phi, F_b[c, a]
    # for psi, each vectorized with composite index (a, output) as columns of V.
    cube = stack.reshape(n, d_b, d_c, d_a)
    v_phi = cube.transpose(0, 3, 1, 2).reshape(n, d_a * d_b, d_c)
    v_psi = cube.transpose(0, 3, 2, 1).reshape(n, d_a * d_c, d_b)
    norms = {key: _frobenius(matrix) for key, matrix in marginals.items()}
    checks = _agrees(marginals["ab"], norms["ab"], v_phi @ v_phi.conj().swapaxes(1, 2), cfg)
    checks &= _agrees(marginals["ac"], norms["ac"], v_psi @ v_psi.conj().swapaxes(1, 2), cfg)

    hermitian = {}
    for key, matrix in marginals.items():
        hermitian[key], clear = _hermitian_part(matrix, norms[key], cfg)
        checks &= clear
    spectra = _marginal_spectra(hermitian, np.square(_frobenius(stack)), cfg)
    phi_psd, near_phi = _psd_flags(spectra["ab"], cfg)
    psi_psd, near_psi = _psd_flags(spectra["ac"], cfg)
    phi_pt, near_phi_pt = _partial_transpose_flags(hermitian["ab"], d_a, d_b, norms["ab"], cfg)
    psi_pt, near_psi_pt = _partial_transpose_flags(hermitian["ac"], d_a, d_c, norms["ac"], cfg)
    unsure = near_phi | near_psi | near_phi_pt | near_psi_pt
    ranks, fragile = {}, np.zeros(n, dtype=bool)
    for key in ("ab", "ac", "a", "b", "c"):
        ranks[key], fragile_key, margin = _rank_flags(spectra[key], cfg)
        fragile |= fragile_key
        unsure |= margin

    lab, lac, la, lb, lc = (ranks[key] for key in ("ab", "ac", "a", "b", "c"))
    phi_ppt, psi_ppt = phi_psd & phi_pt, psi_psd & psi_pt
    witness_phi, regime_phi = certify.witness_rule(lab, la, lb)
    witness_psi, regime_psi = certify.witness_rule(lac, la, lc)
    eb_phi = certify.eb_rule(phi_ppt, regime_phi)
    eb_psi = certify.eb_rule(psi_ppt, regime_psi)
    purity, relation = certify.pair_rules(
        phi_ppt, psi_ppt, witness_psi, eb_phi, eb_psi, lab, lac, la, lb, lc
    )

    escalate = ~checks | unsure | ~phi_psd | ~psi_psd | (~fragile & (~purity | (relation != 0)))
    for k in np.flatnonzero(escalate):
        _escalate(dims, seed, indices[k], cfg, result)

    counted = ~escalate & ~fragile
    result.counts["fragile_discarded"] += int(np.count_nonzero(~escalate & fragile))
    _tally(result.counts, phi_ppt[counted], psi_ppt[counted], witness_phi[counted],
           witness_psi[counted], eb_phi[counted], eb_psi[counted])


def _escalate(dims, seed: int, index: int, cfg: ToleranceConfig, result: HarnessResult):
    """Run one sample through ``equivalence_check`` and record its outcome."""
    result.escalated.append(index)
    st = random_stinespring(*dims, seed=seed, index=index)
    context = {"seed": seed, "index": index, "dims": list(dims)}
    try:
        report = certify.equivalence_check(st, cfg, context=context)
    except FragileSampleError:
        result.counts["fragile_discarded"] += 1
        return
    except (CounterexampleOrBugError, PurityViolationError) as exc:
        result.counterexamples.append(
            {
                "seed": seed,
                "index": index,
                "dims": list(dims),
                "type": type(exc).__name__,
                "error": str(exc),
            }
        )
        return
    p = report.predicates
    _tally(result.counts, p["ppt_phi"].is_yes, p["ppt_psi"].is_yes, p["witness_phi"].is_yes,
           p["witness_psi"].is_yes, certify.EB_CODES[p["eb_phi"].value],
           certify.EB_CODES[p["eb_psi"].value])


def _tally(counts, phi_ppt, psi_ppt, witness_phi, witness_psi, eb_phi, eb_psi) -> None:
    """Add checked samples to the counts; flags and EB codes are scalars or
    arrays over samples."""
    phi_ppt, psi_ppt = np.asarray(phi_ppt, dtype=bool), np.asarray(psi_ppt, dtype=bool)
    for key, flags in (
        ("phi_ppt", phi_ppt),
        ("psi_ppt", psi_ppt),
        ("both_ppt", phi_ppt & psi_ppt),
        ("witness_phi_fired", witness_phi),
        ("witness_psi_fired", witness_psi),
        ("eb_phi_yes", np.equal(eb_phi, certify.EB_YES)),
        ("eb_psi_yes", np.equal(eb_psi, certify.EB_YES)),
        ("regime_applied_to_psi_given_phi_ppt", phi_ppt & np.not_equal(eb_psi, certify.EB_UNKNOWN)),
    ):
        counts[key] += int(np.count_nonzero(flags))
    counts["samples"] += phi_ppt.size
