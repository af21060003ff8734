"""Batched Monte-Carlo consistency harness behind ``verify-theorem``.

Harness samples are independent, so a chunk of them is evaluated as one
array program over a sample axis:

1. draw the chunk's dilations from the per-sample streams
   ``SeedSequence(seed, spawn_key=(index,))`` that ``random_stinespring``
   uses, bit for bit;
2. form the five purification marginals with stacked einsums, and the
   partial transposes of both Choi matrices with reshapes;
3. cross-check both Choi matrices against the Kraus-vector route
   ``V V^dagger``, which reads the dilation through a different reshape;
4. run one stacked ``eigvalsh`` per matrix kind, seven per chunk, and derive
   PSD flags, ranks and fragility from the eigenvalues with ``psd_rule`` and
   ``rank_rule``, the rules behind every ``PsdCheck`` and ``RankDecision``;
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
# array (64 KiB). Larger chunks save little per-call overhead but raise the
# peak memory of the widest tuples.
CHUNK_ENTRIES = 4096
# An eigenvalue this factor or less outside a decision window (the PSD
# threshold, the fragility window around a rank cutoff) escalates its sample.
ESCALATION_MARGIN = 2.0
# A Hermitian deviation or a cross-check difference above equality_tol over
# this factor escalates its sample: the per-sample path measures both on
# other matrices, equal only up to rounding.
EQUALITY_MARGIN = 10.0

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
    return np.linalg.norm(x, axis=(-2, -1))


def _hermitian_part(x: np.ndarray, cfg: ToleranceConfig) -> tuple[np.ndarray, np.ndarray]:
    """(x + x^dagger) / 2 per matrix, and whether x is clearly Hermitian."""
    adjoint = x.conj().swapaxes(-2, -1)
    deviation = _frobenius(x - adjoint)
    clear = deviation <= cfg.equality_tol / EQUALITY_MARGIN * _frobenius(x)
    return (x + adjoint) / 2.0, clear


def _agrees(x: np.ndarray, y: np.ndarray, cfg: ToleranceConfig) -> np.ndarray:
    """Per-matrix relative Frobenius agreement, inside the escalation margin."""
    scale = np.maximum(_frobenius(x), _frobenius(y))
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
    marginals = marginals_of(stack.swapaxes(1, 2).reshape(n, d_a, d_b, d_c))
    # Kraus-vector route: K_c[b, a] = L[b * d_c + c, a] for phi, F_b[c, a]
    # for psi, each vectorized with composite index (a, output) as columns of V.
    cube = stack.reshape(n, d_b, d_c, d_a)
    v_phi = cube.transpose(0, 3, 1, 2).reshape(n, d_a * d_b, d_c)
    v_psi = cube.transpose(0, 3, 2, 1).reshape(n, d_a * d_c, d_b)
    checks = _agrees(marginals["ab"], v_phi @ v_phi.conj().swapaxes(1, 2), cfg)
    checks &= _agrees(marginals["ac"], v_psi @ v_psi.conj().swapaxes(1, 2), cfg)

    hermitian = {}
    for key, matrix in marginals.items():
        hermitian[key], clear = _hermitian_part(matrix, cfg)
        checks &= clear
    spectra = {key: np.linalg.eigvalsh(matrix) for key, matrix in hermitian.items()}
    spectra["ab_pt"] = np.linalg.eigvalsh(_partial_transpose_left(hermitian["ab"], d_a, d_b))
    spectra["ac_pt"] = np.linalg.eigvalsh(_partial_transpose_left(hermitian["ac"], d_a, d_c))

    phi_psd, near_phi = _psd_flags(spectra["ab"], cfg)
    psi_psd, near_psi = _psd_flags(spectra["ac"], cfg)
    phi_pt, near_phi_pt = _psd_flags(spectra["ab_pt"], cfg)
    psi_pt, near_psi_pt = _psd_flags(spectra["ac_pt"], cfg)
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
