"""Batched Monte-Carlo consistency harness behind ``verify-theorem``.

Harness samples are independent, so ``run_harness`` checks them a chunk at
a time (``chunk_size``), as array programs over a sample axis. Each step
below is one function, whose docstring, and ``# Why.`` note where it has
one, states what it decides and why that is sound.

1. ``random_dilation_stack`` draws a chunk's dilations from the per-sample
   streams of ``random_stinespring``, bit for bit; ``_run_chunk`` evaluates
   the stack it is handed.
2. ``_orientations`` lays out the purification vectors of phi and psi, as
   one stacked group where d_b = d_c.
3. ``_pairs`` takes one pass per group over its Choi matrices
   (``_complementary_pair``), which ``_choi_blocks`` forms a block at a time
   (``block_size``), by ``_purification_choi``, and checks. ``_partial_trace``
   reads the marginals off their Hermitian parts, exactly Hermitian and
   guarded by those checks: on a and b from phi's (on a from psi's where
   phi's are read on the cut), on c from psi's. ``_close_pair`` completes
   each map's pair with its marginal on the last factor.
4. ``_cholesky_certified`` settles the marginal on a, and the narrower
   member of each pair with its partner, without a spectrum
   (``_certified_flags``). ``_partial_transpose_flags`` settles by
   ``_npt_certified`` the partial transposes that are clearly not PSD, and
   ``_cut_certificates`` a wider Choi matrix's on a cut where the other
   map's certificate has run first. Each Choi matrix is formed in its map's
   pass and nowhere else, and skipped only where the cut, its own
   certificate and its partner's settle its sample. What is left
   takes ``eigvalsh``, read by ``_psd_flags`` and ``_rank_flags`` through
   ``linalg.psd_rule`` and ``linalg.rank_rule``.
5. ``_run_chunk`` reduces each sample to a row: its ranks, its PPT flags,
   whether a flag or check escalates it, and whether a rank is fragile. A
   chunk holds few distinct rows, so ``_row_outcome`` evaluates each one,
   through a memo that outlives the chunk, as one sample's records, the
   names ``certify.pair_records`` gives: verdict values, purity equalities
   and proven relations by the plain-Python rules of ``certify`` that
   ``equivalence_check`` calls as well, and ``_tally`` counts them by
   COUNT_RULES.
6. ``_escalate`` re-runs through ``equivalence_check``, the oracle, each
   sample whose outcome the batched evaluation cannot vouch for: a failed
   check or relation, a Choi matrix that is not clearly PSD, a lambda_min
   near the PSD threshold (``_psd_flags``), or a singular value within
   rounding of an edge of a fragility window, or near it where rounding
   spans the window (``_rank_flags``). The oracle forms its matrices by
   einsum, so they match the engine's only to rounding, which those
   margins absorb. The oracle's outcome is what counts, so counts,
   counterexample records, exceptions and exit codes are those of a
   per-sample loop.
"""

from __future__ import annotations

import functools
from collections import Counter, namedtuple
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from . import certify, linalg
from .channels import StinespringOperator
from .errors import CounterexampleOrBugError, FragileSampleError, PurityViolationError
from .generate import random_dilation_stack
from .linalg import EPS, FRAGILITY_FACTOR, ROUNDING_BAND, ToleranceConfig

# Memory budget of a chunk, and of a block of Choi matrices: complex entries
# in its largest stacked array (256 KiB). Where d_b = d_c a chunk stacks both
# orientations of its vectors, and its marginals on b and c, so the budget
# counts both. Larger stacks save little per-call overhead but raise the peak
# memory of the widest tuples.
CHUNK_ENTRIES = 16384
# A lambda_min this factor or less from the PSD threshold escalates its
# sample (_psd_flags), and so does a singular value this factor or less
# outside a fragility window where rounding may span it (_rank_flags). The
# certificates take their shifts this factor past the windows they clear.
ESCALATION_MARGIN = 2.0
# A Hermitian deviation or a cross-check difference above equality_tol over
# this factor escalates its sample: the per-sample path measures both on
# other matrices, equal only up to rounding.
EQUALITY_MARGIN = 10.0
# How far a computed spectrum of a complementary pair may lie from its exact
# one, in units of the pair's summed sides * eps times the trace; see
# _cholesky_certified. The tests pin it only this far: at 1 and at 2,
# test_cholesky_certificate_on_planted_spectra fails on an @example, and at
# 4 every test passes. The rest of it rests on the derivation it cites.
SCHMIDT_ROUNDING = 32.0
# Rounding allowance of a shifted Cholesky, in units of (k + 1)^2 eps times
# the largest diagonal entry it may meet, k the side it factors; see
# _cholesky_certified and _npt_certified. The tests pin it only this far:
# at 0, test_certificate_on_2x2_matrices_is_lambda_min_below_minus_c and the
# engine fuzzer fail, and at 1 every test passes. The rest of it rests on
# the derivations it cites.
CHOLESKY_ROUNDING = 4.0

# The counts of checked samples: each key's rule says whether one checked
# sample counts, from its scalar records, those ``certify.pair_rules``
# takes, passed by name.
COUNT_RULES = {
    "samples": lambda **_: True,
    "phi_ppt": lambda phi_ppt, **_: phi_ppt,
    "psi_ppt": lambda psi_ppt, **_: psi_ppt,
    "both_ppt": lambda phi_ppt, psi_ppt, **_: phi_ppt and psi_ppt,
    "witness_phi_fired": lambda witness_phi, **_: witness_phi,
    "witness_psi_fired": lambda witness_psi, **_: witness_psi,
    "eb_psi_yes": lambda eb_psi, **_: eb_psi == certify.YES,
    "eb_phi_yes": lambda eb_phi, **_: eb_phi == certify.YES,
    "regime_applied_to_psi_given_phi_ppt": lambda phi_ppt, eb_psi, **_: (
        phi_ppt and eb_psi != certify.UNKNOWN),
}
COUNT_KEYS = (*COUNT_RULES, "fragile_discarded")
# The rank records of a sample, in the order ``_run_chunk``'s rows hold them.
RANK_KEYS = ("lab", "lac", "la", "lb", "lc")


@dataclass
class HarnessResult:
    """Verdict counts and counterexample records of one harness run, and the
    indices of the samples that were re-run through ``equivalence_check``."""

    counts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(COUNT_KEYS, 0))
    counterexamples: list[dict] = field(default_factory=list)
    escalated: list[int] = field(default_factory=list)


def chunk_size(dims) -> int:
    """Samples per chunk: as many as fit the largest of a sample's dilation and
    its marginals on a, b and c into CHUNK_ENTRIES, counting both orientations
    of the vector and both marginals on b and c where ``_orientations``
    stacks them (d_b = d_c).

    The marginals, partial traces of the Choi matrices each map's pass forms
    a block at a time (``block_size``), are kept for the chunk, the wider
    ones on b and c too, though ``_close_pair`` reads those only for the
    samples the certificate leaves open, every one where ``_cholesky_shift``
    is None. Wherever a chunk fits this budget, a narrower stack of Choi
    matrices fits one block."""
    d_a, d_b, d_c = dims
    stacked = 2 if d_b == d_c else 1
    largest = max(stacked * d_a * d_b * d_c, d_a * d_a, stacked * d_b * d_b, stacked * d_c * d_c)
    return max(1, CHUNK_ENTRIES // largest)


def block_size(side: int) -> int:
    """Samples per block of Choi matrices of side ``side``: as many as fit
    CHUNK_ENTRIES. At (4, 4, 16), 64 of phi's 16x16 Choi matrices, 163 of
    psi's 10x10 cuts and 4 of its 64x64 ones."""
    return max(1, CHUNK_ENTRIES // (side * side))


def run_harness(dims, trials: int, seed: int, cfg: ToleranceConfig) -> HarnessResult:
    """Check samples ``0 .. trials-1`` of ``seed`` at ``dims``, chunk by chunk.

    Exceptions other than fragility and counterexamples propagate from the
    first sample that raises them, as in a per-sample loop.
    """
    result = HarnessResult()
    dims = tuple(dims)
    size = chunk_size(dims)
    for start in range(0, trials, size):
        indices = range(start, min(start + size, trials))
        _run_chunk(random_dilation_stack(*dims, seed, indices), dims, seed, indices, cfg, result)
    return result


def _frobenius(x: np.ndarray) -> np.ndarray:
    """Frobenius norms of a stack of complex matrices, summed over their float64 view."""
    parts = x.view(np.float64)
    return np.sqrt(np.einsum("...ij,...ij->...", parts, parts))


def _orientations(stack: np.ndarray, dims) -> list[np.ndarray]:
    """The purification vectors of the dilations ``stack`` in both
    orientations, C-contiguous: phi's |L> indexed (a, b, c), as
    common_purification_vector, and psi's, the same with b and c swapped.
    Grouped by shape: one array of 2n vectors, phi's rows then psi's, when
    d_b = d_c, else phi's and psi's arrays of n each."""
    n, (d_a, d_b, d_c) = len(stack), dims
    vector = stack.swapaxes(1, 2).reshape(n, d_a, d_b, d_c)
    if d_b == d_c:
        both = np.empty((2, n, d_a, d_b, d_c), dtype=stack.dtype)
        both[0] = vector
        both[1] = both[0].swapaxes(2, 3)
        return [both.reshape(2 * n, d_a, d_b, d_c)]
    vector = np.ascontiguousarray(vector)
    return [vector, np.ascontiguousarray(vector.swapaxes(2, 3))]


def _partial_trace(h: np.ndarray, d_a: int, d_b: int, over_a: bool) -> np.ndarray:
    """The partial traces over a, or else over b, of Hermitian stacks h of
    side d_a d_b indexed (a, b). Every entry adds its blocks in one order,
    so those of an exactly Hermitian h are exactly Hermitian: each sum of
    conjugates rounds to the conjugate of the sum."""
    x = h.reshape(len(h), d_a, d_b, d_a, d_b)
    blocks = [x[:, i, :, i] for i in range(d_a)] if over_a else [
        x[:, :, j, :, j] for j in range(d_b)]
    return sum(blocks[1:], blocks[0])


def _purification_choi(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The marginals on ab of C-contiguous tripartite vectors of shape
    (m, d_a, d_b, d_c), the Choi matrices of the maps that trace out c,
    written into ``out``, a C-contiguous complex array of their shape, in
    real arithmetic.

    With F the float64 view of the rows (a, b) over c, and G their
    (im, -re) pairs, Re J = F F^T and Im J = G F^T. One float64 matmul
    forms both, into the float64 view of ``out``: its right factor
    interleaves the rows of F and of -G, the float64 view of i times the
    rows. So this route is a real product (dgemm), distinct from the complex
    one of the Kraus-vector route (zgemm) that ``_choi_blocks`` checks it
    against.
    """
    m, d_a, d_b, d_c = v.shape
    side = d_a * d_b
    rows = v.reshape(m, side, d_c)
    pairs = np.empty((m, side, 2, d_c), dtype=complex)
    pairs[:, :, 0] = rows
    np.multiply(rows, 1j, out=pairs[:, :, 1])
    right = pairs.view(np.float64).reshape(m, 2 * side, 2 * d_c).swapaxes(1, 2)
    np.matmul(rows.view(np.float64), right, out=out.view(np.float64))
    return out


def _partial_transpose_left(
    x: np.ndarray, d_left: int, d_right: int, out: np.ndarray
) -> np.ndarray:
    """Left partial transposes of a stack, written into ``out``, a C-contiguous
    array of x's shape: with a unit factor the reshape alone may return a
    strided view."""
    view = x.reshape(x.shape[0], d_left, d_right, d_left, d_right).transpose(0, 3, 2, 1, 4)
    np.copyto(out.reshape(view.shape), view)
    return out


def _psd_flags(w: np.ndarray, cfg: ToleranceConfig) -> tuple[np.ndarray, np.ndarray]:
    """PSD verdicts of ascending spectra, and whether lambda_min is too close
    to the threshold to vouch for the verdict: within a factor
    ESCALATION_MARGIN of it, or, where twice the threshold lies inside the
    ``rounding_band``, inside the band, where rounding may carry it across."""
    psd, threshold = linalg.psd_rule(w, cfg)
    lam_min, band = w[:, 0], linalg.rounding_band(w)
    near = (lam_min > ESCALATION_MARGIN * threshold) & (lam_min < threshold / ESCALATION_MARGIN)
    near |= (2 * np.abs(threshold) < band) & (np.abs(lam_min) <= band)
    return psd, near


@functools.lru_cache(maxsize=256)
def _unit_rules(k: int, dim: int, cfg: ToleranceConfig, rank_rule, psd_rule):
    """``_spectrum_flags`` of one spectrum of dim - k zeros and k ones, of a
    pair with summed sides dim + k, as (psd, near, fragile, margin)
    stacked, shape (4, 1), and the rank, shape (1,); and its rank cutoff
    and PSD threshold, rank_tol dim and -psd_tol.
    The certificates read these from ``linalg``'s rules, passed here as part
    of the memo's key, so that a rule patched on its module reaches them too;
    unpatched, evaluating them costs some 40 us, several times per chunk."""
    w = np.repeat([[0.0, 1.0]], (dim - k, k), axis=1)
    psd, near, rank, fragile, margin = _spectrum_flags(w, cfg, dim + k)
    flags = (np.stack([psd, near, fragile, margin]), rank)
    return flags, float(rank_rule(w, cfg)[1][0]), float(psd_rule(w, cfg)[1][0])


def _unit_windows(dim: int, cfg: ToleranceConfig) -> tuple[float, float]:
    """The rank cutoff and the PSD threshold that the rules give a spectrum of
    side ``dim`` with sigma_max = lambda_max = 1."""
    return _unit_rules(dim, dim, cfg, linalg.rank_rule, linalg.psd_rule)[1:]


def _stacked_cholesky(x: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a Hermitian stack, as ``np.linalg.cholesky``
    gives them, but all NaN for each matrix that LAPACK cannot factor, and
    no error: the gufunc behind ``np.linalg.cholesky``, whose public
    wrapper raises for the whole stack. About half of the 50-sample stacks
    at (4, 4, 16) hold a matrix that LAPACK cannot factor."""
    with np.errstate(invalid="ignore"):
        return _umath_linalg.cholesky_lo(x, signature="D->D")


def _cholesky_succeeds(x: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Per matrix of a C-contiguous Hermitian stack, whether the Cholesky of
    x + shift I, one shift per matrix, runs to completion. x takes the shift
    in place for the factorization, and gets its own diagonal back after it."""
    diagonal = x.reshape(len(x), -1)[:, :: x.shape[-1] + 1]  # a view, x being C-contiguous
    saved = diagonal.copy()
    diagonal += shift[:, None]
    succeeds = ~np.isnan(_stacked_cholesky(x)[:, -1, -1])
    diagonal[...] = saved
    return succeeds


def _npt_certified(
    g: np.ndarray, bound: np.ndarray, cfg: ToleranceConfig, dim: int | None = None, rounding=0.0
) -> np.ndarray:
    """Per matrix of a Hermitian stack g of side n with Frobenius norms at
    most ``bound``: whether the Cholesky of g + c'I fails, for
    c = (2 ESCALATION_MARGIN psd_tol + ROUNDING_BAND dim eps) bound +
    ``rounding``, psd_tol read from ``psd_rule``, and
    c' = c + CHOLESKY_ROUNDING (n + 1)^2 eps (bound + c). Where it fails,
    lambda_min(g) < -c, and ``_psd_flags`` of g's computed spectrum reads
    psd = near = False. ``dim`` defaults to n; ``_cut_certificates`` passes
    a larger one, g being a principal submatrix of the matrix it certifies,
    and as ``rounding`` how far that matrix's computed spectrum may lie
    below g's. A failing Cholesky stops at its first non-positive pivot, a
    tenth of the time of ``eigvalsh`` at (4, 4, 16).
    """
    # Why c. _psd_flags reads psd = near = False when w_0 < ESCALATION_MARGIN
    # t, t = -psd_tol max(w_max, 0), and w_0 lies below the rounding band,
    # ROUNDING_BAND dim eps max|w|; w_max and max|w| are at most ||g||_2 <=
    # ||g||_F <= bound. The psd_tol term of c is twice ESCALATION_MARGIN |t|
    # and its dim eps term is the band; the spare factor absorbs the relative
    # rounding of bound, c and t. eigvalsh's own error (see
    # linalg.ROUNDING_BAND) lies inside the spare of c' below.
    # Why c'. Let u = eps/2 and gamma_m = m u/(1 - m u). The Cholesky reads
    # A = g + c'I with its diagonal rounded: a_ii = (g_ii + c')(1 + d_i),
    # |d_i| <= u, and |g_ii| <= ||g||_F <= bound. Demmel's condition
    # (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    # 10.1.1): with D = diag(A), the Cholesky of A runs to completion if
    # every a_ii > 0 and lambda_min(D^-1/2 A D^-1/2) > kappa =
    # n gamma/(1 - gamma), gamma = gamma_{n+1}. Its proof uses only the
    # backward error of the partial factor, |E| <= gamma |R^*| |R|
    # (Thm 10.3), which holds whatever the order of the inner products,
    # blocked LAPACK included. In complex arithmetic a product errs by at
    # most sqrt(2) gamma_2 relative (Higham, Lemma 3.5), and
    # gamma = sqrt(2) gamma_{n+3} covers it, the sums and the last division
    # or square root. So where the Cholesky fails, either some a_ii <= 0, or
    # y = D^-1/2 x, x a unit eigenvector of lambda_min(D^-1/2 A D^-1/2), has
    # y^dagger A y <= kappa and y^dagger y >= 1 / max a_ii. Either way
    # lambda_min(A) <= kappa max_i max(a_ii, 0) <= kappa (1 + u)(bound + c'), and
    # the rounded diagonal moves each eigenvalue by at most u (bound + c'):
    # lambda_min(g) <= (kappa (1 + u) + u)(bound + c') - c'. With
    # a = CHOLESKY_ROUNDING (n + 1)^2 eps, bound + c' = (1 + a)(bound + c),
    # so that is below -c wherever (kappa (1 + u) + u)(1 + a) < a. To first
    # order kappa + u is (n (n + 3)/sqrt(2) + 1/2) eps, below (n + 1)^2 eps,
    # a quarter of a; the spare, about 3/4 a bound, absorbs the rounding of
    # bound, c and c', a bound that ||g||_F exceeds only by rounding, as on
    # the cut, and eigvalsh's error, below n/4 eps bound. A zero
    # bound makes c' = 0, and the zero matrix, PSD, fails the Cholesky: it
    # is left open. Scaling g by a power of two scales bound, c' and every
    # pivot alike.
    side = g.shape[-1]
    dim = dim or side
    unit = -2 * ESCALATION_MARGIN * _unit_windows(dim, cfg)[1] + ROUNDING_BAND * dim * EPS
    c = unit * bound + rounding
    shift = c + CHOLESKY_ROUNDING * (side + 1) ** 2 * EPS * (bound + c)
    return ~_cholesky_succeeds(g, shift) & (bound > 0)


def _partial_transpose_flags(
    h: np.ndarray,
    d_left: int,
    d_right: int,
    bound: np.ndarray,
    cfg: ToleranceConfig,
    work: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``_psd_flags`` of the spectra of the left partial transposes of a
    Hermitian stack with Frobenius norms at most ``bound``, formed in
    ``work``: from one stacked ``eigvalsh`` on those that ``_npt_certified``
    leaves open, none when it settles all. A PPT partial transpose is never
    settled so."""
    psd, near = np.zeros((2, h.shape[0]), dtype=bool)
    g = _partial_transpose_left(h, d_left, d_right, work)
    rest = np.flatnonzero(~_npt_certified(g, bound, cfg))
    if rest.size:
        psd[rest], near[rest] = _psd_flags(np.linalg.eigvalsh(g[rest]), cfg)
    return psd, near


def _cholesky_shift(k: int, dim: int, cfg: ToleranceConfig) -> float | None:
    """tau of ``_cholesky_certified`` for matrices of side k whose
    complementary marginals have side ``dim``: (1 + 2^-10) r + 3 delta/tr +
    CHOLESKY_ROUNDING (k + 1)^2 eps, with r = rank_tol dim FRAGILITY_FACTOR
    ESCALATION_MARGIN and delta/tr = SCHMIDT_ROUNDING (dim + k) eps. None
    when dim > k and the complementary marginals' dim - k zeros may meet a
    window."""
    rounding = SCHMIDT_ROUNDING * (dim + k) * EPS
    wide = FRAGILITY_FACTOR * ESCALATION_MARGIN
    floor = 1.0 / k - rounding
    cutoff, threshold = _unit_windows(dim, cfg)
    if dim > k and not (
        rounding * wide < cutoff * floor and rounding * ESCALATION_MARGIN < -threshold * floor
    ):
        return None
    return (1 + 2.0**-10) * cutoff * wide + 3 * rounding + CHOLESKY_ROUNDING * (k + 1) ** 2 * EPS


def _cholesky_certified(
    x: np.ndarray, trace: np.ndarray, dim: int, cfg: ToleranceConfig
) -> np.ndarray:
    """Per matrix of a Hermitian stack of side k, the computed marginals of
    tripartite vectors with squared norms ``trace``: whether the Cholesky of
    x - tau trace I succeeds, tau from ``_cholesky_shift``. ``dim`` >= k is
    the side of the complementary marginal, k for the marginal on a, which
    has none. Where it holds, ``_psd_flags`` and ``_rank_flags`` of the
    computed spectra of x and of its complementary marginal read PSD, not
    near, rank k, not fragile and no margin, whatever summed sides
    ``_rank_flags`` is given. It holds nowhere where ``_cholesky_shift``
    is None.
    """
    # Why. Let X be the exact marginal of the vector, of trace tr, and W its
    # complementary marginal, of side dim. W's spectrum is X's padded with
    # dim - k zeros (Schmidt decomposition). x lies within delta of X, and
    # each computed spectrum within delta of its exact one, eigenvalue by
    # eigenvalue, more than ten times over:
    # - a Choi matrix of side s, a Gram product over l complex terms (s + l
    #   = dim + k in a pair), errs by at most 3/2 l eps tr in Frobenius norm,
    #   whichever BLAS kernel sums it, since any summation order obeys the
    #   dot-product bound gamma_n = n eps/2 (to first order): its real route
    #   sums 2 l real terms for Re and Im each, sqrt(2) gamma_{2l} together.
    #   Its Hermitian part H is exactly Hermitian and adds eps tr;
    # - a marginal of side s sums m blocks H_i of the other map's H (phi's
    #   or psi's for the marginal on a); m l = dim + k - s is its
    #   complementary side, d_b d_c on a. By Cauchy-Schwarz the blocks'
    #   errors add to at most sqrt(m) (3/2 l + 1) eps tr, and its fixed-order
    #   sums round by at most gamma_{m-1} sum ||H_i||_F <= (m - 1)/2 eps tr,
    #   the exact H_i being PSD with traces summing to tr: 3 m l eps tr in
    #   all, exactly Hermitian. The oracle's marginal, a complex Gram product
    #   over m l terms, errs by (m l + 2)/2 eps tr, and its Hermitian part
    #   adds eps tr;
    # - eigvalsh adds below s/4 eps ||h||_2 <= s/4 eps tr (see
    #   linalg.ROUNDING_BAND).
    # By Weyl's inequality that is (3/2 l + 1 + s/4) or (3 m l + s/4) eps tr,
    # <= 3 (dim + k) eps tr, and 3 (d_a + d_b d_c) eps tr on a, for the
    # oracle's matrices as for the engine's (_rank_flags reads these). The
    # certificate of the marginal on a, which has no partner, needs less:
    # only eigvalsh's error, below k/4 eps tr, separates x from its spectrum.
    # W's computed spectrum is that of any computed complementary marginal
    # within these bounds, the engine's partial trace or the oracle's
    # einsum: nothing below reads the engine's own W. So where x is a Choi
    # matrix, _close_pair reads its partner, the marginal on the last
    # factor, only for the samples left open.
    # Cholesky (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    # ed., Thm 10.3, complex case): when it runs to completion on the
    # computed y = x - s I, s = tau tr, its factor has R^* R = y + E with
    # |E| <= gamma~_{k+1} |R^*| |R|, whatever the order of its inner
    # products (so blocked LAPACK too); gamma~_{k+1} = c (k + 1) eps/2 /
    # (1 - c (k + 1) eps/2), c a small constant of complex arithmetic. So
    # ||E||_2 <= ||E||_F <= gamma~ ||R||_F^2 = gamma~ tr(R^* R), and
    # tr(R^* R) <= tr(y) / (1 - gamma~): ||E||_2 stays below c (k + 1) eps tr.
    # The shift rounds each diagonal entry by at most eps max(x_ii, s)
    # <= eps tr, since a first pivot x_00 - s <= 0 stops the Cholesky. R^* R
    # is PSD, so lambda_min(x) > s - a for a = CHOLESKY_ROUNDING (k + 1)^2
    # eps tr, which covers c up to 4 k. So:
    # - x's eigenvalues exceed (1 + 2^-10) r tr + 3 delta, those of X and of
    #   x's computed spectrum (1 + 2^-10) r tr + 2 delta, and the k largest of
    #   W's computed spectrum (1 + 2^-10) r tr + delta. That is r (tr +
    #   delta) and more, as r < 1 where the Cholesky succeeds (s < x_00
    #   <= tr); the factor 1 + 2^-10
    #   absorbs the rounding of tr, a sum of 2 d_a d_b d_c squares, and of
    #   s. Each computed sigma_max is at most tr + delta and each side at
    #   most dim, so these eigenvalues lie past their spectrum's rank cutoff
    #   rank_tol sigma_max side by more than FRAGILITY_FACTOR
    #   ESCALATION_MARGIN, and are positive. Where _rank_flags reads its
    #   slack, that is below half the lower fragility edge, so below the
    #   upper edge over 2 FRAGILITY_FACTOR^2, and these eigenvalues, past
    #   twice the upper edge, clear it by more. x's spectrum thus reads rank
    #   k, not fragile, no margin, PSD (lambda_min > 0 >= the threshold) and
    #   not near (that needs lambda_min < threshold / 2 <= 0).
    # - W's other dim - k computed eigenvalues lie in [-delta, delta], and
    #   its sigma_max, at least X's mean eigenvalue tr/k less delta, in
    #   [tr/k - delta, tr + delta]. If delta FRAGILITY_FACTOR
    #   ESCALATION_MARGIN < rank_tol (tr/k - delta) dim, they lie at or below
    #   every cutoff over that factor, half the lower fragility edge, and so,
    #   where _rank_flags reads its slack, below that edge by more than the
    #   slack: rank k, not fragile, no margin. If delta ESCALATION_MARGIN <
    #   psd_tol (tr/k - delta), lambda_min >= -delta lies above half the PSD
    #   threshold: PSD, not near. Both checks scale with tr, so they are
    #   made once, on delta/tr; delta's spare factor absorbs the rounding of
    #   tr, of delta and of the checks.
    n, k = x.shape[0], x.shape[-1]
    tau = _cholesky_shift(k, dim, cfg)
    if tau is None:
        return np.zeros(n, dtype=bool)
    return _cholesky_succeeds(x, -tau * trace)


def _spectrum_flags(w: np.ndarray, cfg: ToleranceConfig, sides: int) -> tuple[np.ndarray, ...]:
    """``_psd_flags`` and ``_rank_flags`` of ascending spectra, of a pair with
    summed sides ``sides``: psd, near, rank, fragile and margin."""
    return (*_psd_flags(w, cfg), *_rank_flags(w, cfg, sides))


def _certified_flags(n: int, k: int, dim: int, cfg: ToleranceConfig) -> tuple[np.ndarray, ...]:
    """``_spectrum_flags`` of n matrices that ``_cholesky_certified`` settles
    at side k with complementary side ``dim``, or that are partners of such:
    those of the exact spectrum it vouches for, dim - k zeros and k ones.
    Fresh arrays, which ``_fill`` writes into."""
    flags, rank = _unit_rules(k, dim, cfg, linalg.rank_rule, linalg.psd_rule)[0]
    psd, near, fragile, margin = flags.repeat(n, axis=1)
    return psd, near, rank.repeat(n), fragile, margin


def _fill(
    flags: tuple[np.ndarray, ...], rows, w: np.ndarray, cfg: ToleranceConfig, sides: int
) -> None:
    """Write ``_spectrum_flags`` of the spectra ``w``, whose complementary
    pair has summed sides ``sides``, into ``flags`` at ``rows``."""
    for target, value in zip(flags, _spectrum_flags(w, cfg, sides)):
        target[rows] = value


def _choi_blocks(vector: np.ndarray, cfg: ToleranceConfig):
    """For tripartite vectors of shape (n, d_a, d_b, d_c), ``block_size``
    samples at a time: the block's slice, the Hermitian parts of its Choi
    matrices J of the maps that trace out c, their Frobenius norms, whether
    each J is within equality_tol / EQUALITY_MARGIN, relative, of the
    Kraus-vector route and of J^dagger; and a work array shaped like the
    block's stack, free until the next block."""
    n, d_a, d_b, d_c = vector.shape
    side = d_a * d_b
    size = block_size(side)
    # Every block writes into these: one allocation saves a few percent of
    # the chunk's CPU time. The Choi matrix's buffer takes its Hermitian part too.
    choi_out, kraus_out, conj_out = np.empty((3, min(size, n), side, side), dtype=complex)
    for block in (slice(start, start + size) for start in range(0, n, size)):
        v = vector[block]
        m = v.shape[0]
        choi = _purification_choi(v, choi_out[:m])
        norm = _frobenius(choi)
        allowed = cfg.equality_tol / EQUALITY_MARGIN
        # Kraus-vector route: the rows (a, b) of V hold L's entries over c
        kraus = v.reshape(m, side, d_c)
        product = np.matmul(kraus, kraus.conj().swapaxes(1, 2), out=kraus_out[:m])
        scale = allowed * np.maximum(norm, _frobenius(product))
        passed = _frobenius(np.subtract(choi, product, out=product)) <= scale
        adjoint = np.conjugate(choi, out=conj_out[:m]).swapaxes(1, 2)
        passed &= _frobenius(np.subtract(choi, adjoint, out=kraus_out[:m])) <= allowed * norm
        h = np.add(choi, adjoint, out=choi)
        h *= 0.5
        yield block, h, norm, passed, kraus_out[:m]


def _cut_certificates(
    vector: np.ndarray, norm: np.ndarray, trace: np.ndarray, cfg: ToleranceConfig
) -> tuple[np.ndarray, np.ndarray]:
    """For tripartite vectors of shape (n, d_a, d_b, d_c) with squared norms
    ``trace``, and ``norm`` the Frobenius norms of their computed marginals on
    c, cut to their first min(d_a, 2) values of a and d_c + 1 of b: whether
    each cut's Choi matrix, of side min(d_a, 2) (d_c + 1), 10x10 at
    (4, 16, 4), is clearly Hermitian and agrees with the Kraus-vector route,
    which stand for the full matrix's checks where it is not formed, and
    whether ``_npt_certified`` of the cut, with the shift of the full side,
    certifies the full Choi matrix's partial transpose: where it does,
    ``_psd_flags`` of that partial transpose's computed spectrum reads
    psd = near = False. At default tolerances it certified all 800 samples
    of seeds 1 and 3003 at (3, 3, 9) and (4, 4, 16), and at psd_tol 0.03
    100 at (3, 3, 9) and none at (4, 4, 16)."""
    # Why. The cut's Choi matrix J' is the principal submatrix of J on
    # a < min(d_a, 2), b < d_c + 1, and its partial transpose g' that of
    # J's, g: the partial transpose swaps the a indices of an entry, and
    # the cut keeps both or neither. J' is the Gram matrix of its rows (a, b)
    # over c, so its rank is at most d_c, below that of its marginal on b,
    # d_c + 1 for generic vectors with d_a > 1, as two values of a already
    # give it 2 d_c >= d_c + 1 terms. So J' is not PPT (Horodecki-Smolin-
    # Terhal-Thapliyal: a PPT state's rank is at least each marginal's) and
    # the certificate mostly fires on it. Only the block's shape differs
    # from that of the cut on all of a: the steps below read it as a
    # principal submatrix and no more. Its shift c is
    # taken at g's side, with the bound norm + delta, delta = SCHMIDT_ROUNDING
    # (side + d_c) eps trace, plus the rounding r = (3 d_c + 2 + side/4) eps
    # trace as a term of its own:
    # - the bound is at least ||J'||_F for the exact J'. J and the exact
    #   marginal on c, L, are complementary marginals of one vector and share
    #   their nonzero spectrum (Schmidt decomposition), so ||J'||_F <= ||J||_F
    #   = ||L||_F exactly. The computed L, a partial trace of the other
    #   map's Choi matrix, whose complementary side is side, lies within
    #   3 side eps trace of L in Frobenius norm (see _cholesky_certified),
    #   which delta covers ten times over; the
    #   relative rounding of its norm, a sum of squares, is absorbed by c's
    #   spare factors (see _npt_certified). The computed g' exceeds ||J'||_F
    #   only by rounding;
    # - where it fires on the computed g', lambda_min(g') < -c (see
    #   _npt_certified). g' and the matching submatrix of the computed g
    #   each lie within (3/2 d_c + 1) eps trace of the exact one (see
    #   _cholesky_certified), and lambda_min(g) is at most that of its
    #   principal submatrix (Cauchy interlacing); eigvalsh adds below side/4
    #   eps trace (see linalg.ROUNDING_BAND). So g's computed lambda_min is
    #   below -c + r, below -c0 for c0 = c - r, the shift _npt_certified of
    #   g itself takes at this bound. No step spends the spare of the cut's
    #   c' on it: that spare covers only the Cholesky's own rounding.
    # - c0's ROUNDING_BAND side eps bound term clears _psd_flags' rounding
    #   band of g's spectrum, as bound is at least ||J||_F = ||g||_F >=
    #   max|w| to rounding, and its psd_tol term, taken at the bound, meets
    #   _psd_flags' threshold twice over. So _psd_flags of g's computed
    #   spectrum reads psd = near = False, as where _npt_certified of g fires.
    # Planted cuts at (2, 30, 1), whose c0 is almost all band at a
    # rounding-level psd_tol, read the same without r: the spare of c' has
    # so far covered the rounding there too, but nothing bounds it to.
    n, d_a, d_b, d_c = vector.shape
    side = d_a * d_b
    bound = norm + SCHMIDT_ROUNDING * (side + d_c) * EPS * trace
    rounding = (3 * d_c + 2 + side / 4) * EPS * trace
    checks, certified = np.empty((2, n), dtype=bool)
    cut = np.ascontiguousarray(vector[:, :2, :d_c + 1])
    for block, h, _, passed, work in _choi_blocks(cut, cfg):
        checks[block] = passed
        g = _partial_transpose_left(h, cut.shape[1], d_c + 1, work)
        certified[block] = _npt_certified(g, bound[block], cfg, side, rounding[block])
    return checks, certified


# What ``_complementary_pair`` leaves ``_close_pair``: its inputs, flags and
# checks, ``settled`` or None, and the partial traces over a of the Choi
# matrices it formed and over b of its leading rows.
_ChoiPass = namedtuple("_ChoiPass", "vector trace outcome settled on_b on_a")


def _complementary_pair(
    vector: np.ndarray, trace: np.ndarray, cfg: ToleranceConfig, partner=None, leading=0
) -> _ChoiPass:
    """For tripartite vectors of shape (n, d_a, d_b, d_c) with squared norms
    ``trace``, the pass over the Choi matrices of the maps that trace out c,
    formed by ``_choi_blocks`` here and nowhere else: their checks,
    ``_psd_flags`` of their partial transposes, and the partial traces of
    their Hermitian parts over a, the marginals on b, and over b, on a, of
    the first ``leading``.

    The narrower member of the pair, the Choi matrix on a tie, takes
    ``_cholesky_certified``; the samples it leaves open take ``eigvalsh`` of
    both members, in ``_close_pair`` for a wider Choi matrix whose marginals
    on c, the other map's pass ``partner``, are not given. A wider one with
    d_b > d_c + 1 whose partner's certificate has run is first read on the
    vectors cut to two values of a and d_c + 1 of b (``_cut_certificates``),
    bound by the marginals on c: a sample needs it no further where the cut
    certifies it NPT, its own certificate holds and so does its partner's,
    which then reads none of its marginals on b.
    """
    n, d_a, d_b, d_c = vector.shape
    side = d_a * d_b
    narrower = side <= d_c
    k, dim = min(side, d_c), max(side, d_c)
    choi_flags = _certified_flags(n, k, dim, cfg)
    checks, pt_psd, pt_near = np.empty(n, dtype=bool), *np.zeros((2, n), dtype=bool)
    settled = np.empty(n, dtype=bool) if narrower else None
    on_b, on_a = np.empty((n, d_b, d_b), complex), np.empty((leading, d_a, d_a), complex)
    rest = np.arange(n)
    if partner is not None and not narrower:
        settled = _cholesky_certified(partner.on_b, trace, dim, cfg)
        if d_b > d_c + 1 and partner.settled is not None:
            checks[:], certified = _cut_certificates(vector, _frobenius(partner.on_b), trace, cfg)
            rest = np.flatnonzero(~(settled & certified & partner.settled))
    formed = vector if len(rest) == n else vector[rest]
    for block, h, norm, passed, work in _choi_blocks(formed, cfg):
        index = rest[block]
        checks[index] = passed
        if narrower:
            settled[index] = _cholesky_certified(h, trace[index], dim, cfg)
        if settled is not None and not settled[index].all():
            open_rows = ~settled[index]
            _fill(choi_flags, index[open_rows], np.linalg.eigvalsh(h[open_rows]), cfg, k + dim)
        pt_psd[index], pt_near[index] = _partial_transpose_flags(h, d_a, d_b, norm, cfg, work)
        on_b[index] = _partial_trace(h, d_a, d_b, True)
        if block.start < leading:
            on_a[block] = _partial_trace(h[: leading - block.start], d_a, d_b, False)
    outcome = choi_flags, checks, pt_psd, pt_near
    return _ChoiPass(vector, trace, outcome, settled, on_b, on_a)


def _close_pair(pair: _ChoiPass, partner: _ChoiPass, shift: int, cfg: ToleranceConfig) -> tuple:
    """``_spectrum_flags`` of a pass's Choi matrices and of their marginals
    on c, the Choi matrices' checks, and ``_psd_flags`` of their partial
    transposes. The marginals on c are read from ``partner``, the other
    map's pass, whose row (i + shift) % n is row i's sample, only for the
    samples the certificate leaves open: ``partner`` formed the Choi
    matrices of all of them."""
    n, d_a, d_b, d_c = pair.vector.shape
    k, dim = min(d_a * d_b, d_c), max(d_a * d_b, d_c)
    choi_flags, checks, pt_psd, pt_near = pair.outcome
    env_flags = _certified_flags(n, k, dim, cfg)
    rows = np.arange(n) if pair.settled is None else np.flatnonzero(~pair.settled)
    if rows.size:
        marginals = partner.on_b[(rows + shift) % n]
        if pair.settled is None:
            rows = np.flatnonzero(~_cholesky_certified(marginals, pair.trace, dim, cfg))
            marginals = marginals[rows]
            for block, h, *_ in _choi_blocks(pair.vector[rows], cfg) if rows.size else ():
                _fill(choi_flags, rows[block], np.linalg.eigvalsh(h), cfg, k + dim)
    if rows.size:
        _fill(env_flags, rows, np.linalg.eigvalsh(marginals), cfg, k + dim)
    return choi_flags, env_flags, checks, pt_psd, pt_near


def _pairs(groups: list[np.ndarray], trace: np.ndarray, cfg: ToleranceConfig) -> tuple:
    """``_close_pair`` of phi's and psi's pairs after each group's Choi pass
    (one where d_b = d_c), and the marginals on a, from the first pass, which
    forms every Choi matrix: psi's where phi's may be read on the cut, whose
    certificate and norm bound read phi's marginals on c, psi's traces."""
    n = len(trace)
    if len(groups) == 1:
        both = _complementary_pair(groups[0], np.concatenate([trace, trace]), cfg, leading=n)
        outcome = _close_pair(both, both, n, cfg)
        return _rows(outcome, slice(0, n)), _rows(outcome, slice(n, 2 * n)), both.on_a
    swap = groups[0].shape[2] > groups[0].shape[3] + 1
    head, tail = groups[::-1] if swap else groups
    first = _complementary_pair(head, trace, cfg, leading=n)
    second = _complementary_pair(tail, trace, cfg, first)
    outcomes = _close_pair(first, second, 0, cfg), _close_pair(second, first, 0, cfg)
    return (*(outcomes[::-1] if swap else outcomes), first.on_a)


def _rows(values: tuple, rows) -> tuple:
    """``values``, arrays over samples and tuples of such, each at ``rows``."""
    return tuple(_rows(x, rows) if isinstance(x, tuple) else x[rows] for x in values)


def _rank_flags(w: np.ndarray, cfg: ToleranceConfig, sides: int) -> tuple[np.ndarray, ...]:
    """Ranks and fragility of spectra, and whether a singular value lies
    near an edge of the fragility window, the cutoff over and times
    FRAGILITY_FACTOR: within the slack 2 SCHMIDT_ROUNDING ``sides`` eps
    trace (1 + FRAGILITY_FACTOR rank_tol side), on either side, or, where
    that slack reaches half the lower edge, within a factor
    ESCALATION_MARGIN outside the window. The trace is the sum of the
    singular values, and ``sides`` the summed sides of the complementary
    pair the spectrum belongs to."""
    # Why. The engine's and the oracle's computed spectra each lie within
    # delta = SCHMIDT_ROUNDING sides eps tr of the exact one, eigenvalue by
    # eigenvalue (see _cholesky_certified, which bounds the partial traces
    # too; for the marginal on a, sides is d_a + d_b d_c, its side and its
    # complementary side), so within 2 delta of each other. The cutoff
    # rank_tol sigma_max side moves with sigma_max, by at most rank_tol side
    # 2 delta, and so each edge by at most FRAGILITY_FACTOR rank_tol side 2
    # delta. So a singular value past
    # both edges by the slack lies on the same side of each in the oracle's
    # spectrum, and the oracle reads the same rank and fragility. The trace
    # taken here differs from tr only by rounding and by at most the
    # spectrum's side times delta, which delta's tenfold spare absorbs.
    # Where the slack is below half the lower edge, FRAGILITY_FACTOR times
    # the cutoff lies far above the rounding band, which the rule then does
    # not read. Where it is not, as at a rounding-level rank_tol, the slack
    # reaches every computed zero and would escalate each sample that has
    # one: the margin a factor ESCALATION_MARGIN outside the window stands
    # there instead, and rests, as the rounding band does, on eigvalsh's
    # observed error rather than on delta.
    rank, cutoff, near = linalg.rank_rule(w, cfg)
    sigma, side = np.abs(w), w.shape[-1]
    reach = 2 * SCHMIDT_ROUNDING * sides * EPS * (1 + FRAGILITY_FACTOR * cfg.rank_tol * side)
    slack = reach * sigma.sum(axis=-1)[:, None]
    low, high = cutoff[:, None] / FRAGILITY_FACTOR, cutoff[:, None] * FRAGILITY_FACTOR
    margin = np.where(
        slack < low / ESCALATION_MARGIN,
        (np.abs(sigma - low) < slack) | (np.abs(sigma - high) < slack),
        (sigma > low / ESCALATION_MARGIN) & (sigma < high * ESCALATION_MARGIN) & ~near,
    )
    return rank, near.any(axis=1), margin.any(axis=1)


def _run_chunk(stack, dims, seed: int, indices, cfg: ToleranceConfig, result: HarnessResult):
    """Add to ``result`` the outcomes of ``stack``, the dilations of samples
    ``indices``: each distinct row's ``_row_outcome`` times the samples that
    hold it, and ``_escalate`` of each sample whose row escalates."""
    (d_a, d_b, d_c), n = dims, len(indices)

    # Both orientations of the purification vector, contiguous: every product
    # reads them through reshapes and float64 views, which need no copy.
    trace, flags = np.square(_frobenius(stack)), {}
    phi, psi, marginal_a = _pairs(_orientations(stack, dims), trace, cfg)
    flags["lab"], flags["lc"], phi_checks, phi_pt, near_phi_pt = phi
    flags["lac"], flags["lb"], psi_checks, psi_pt, near_psi_pt = psi
    # the marginal on a's complementary side is d_b d_c (see _rank_flags)
    flags["la"] = _certified_flags(n, d_a, d_a, cfg)
    settled = _cholesky_certified(marginal_a, trace, d_a, cfg)
    if not settled.all():
        w = np.linalg.eigvalsh(marginal_a[~settled])
        _fill(flags["la"], ~settled, w, cfg, d_a + d_b * d_c)
    (phi_psd, near_phi), (psi_psd, near_psi) = flags["lab"][:2], flags["lac"][:2]
    unsure = near_phi | near_psi | near_phi_pt | near_psi_pt
    columns, fragile = [], np.zeros(n, dtype=bool)
    for key in RANK_KEYS:
        rank, fragile_key, margin = flags[key][2:]
        columns.append(rank)
        fragile |= fragile_key
        unsure |= margin
    columns += [certify.ppt_rule(phi_psd, phi_pt), certify.ppt_rule(psi_psd, psi_pt),
                ~(phi_checks & psi_checks) | unsure | ~phi_psd | ~psi_psd, fragile]

    # A 60-trial run holds at most 2 distinct rows at default tolerances and
    # 15 at --rank-tol 1e-17: the rules run once per row, not per sample.
    rows = list(zip(*(column.tolist() for column in columns)))
    rules = (certify.witness_rule, certify.eb_rule, certify.pair_rules, certify.RELATIONS,
             *COUNT_RULES.values())
    outcomes = {}
    for row, times in Counter(rows).items():
        outcomes[row] = _row_outcome(row, rules)
        for key, step in outcomes[row] or ():
            result.counts[key] += times * step
    # escalations in index order, so that records and the first exception
    # raised are those of a per-sample loop
    if None in outcomes.values():
        for k, row in enumerate(rows):
            if outcomes[row] is None:
                st = StinespringOperator(d_a, d_b, d_c, stack[k])
                _escalate(st, seed, indices[k], cfg, result)


@functools.lru_cache(maxsize=1024)
def _row_outcome(row: tuple, rules: tuple) -> tuple | None:
    """The outcome of a sample whose ``_run_chunk`` row is ``row``: the
    ranks of RANK_KEYS, then phi_ppt, psi_ppt, whether its flags or checks
    escalate it, and whether a rank is fragile. None where it escalates,
    else its increments of the counts, as (key, step) pairs. Its records,
    with the EB verdict values, are those ``certify.pair_records`` reads
    off the sample's ``equivalence_check`` report. ``rules`` are
    the rules read here and in ``certify.pair_rules`` and ``_tally``, as
    ``_run_chunk`` reads them off their modules: part of the memo's key, so
    that a rule patched on its module reaches the next chunk. The memo keeps
    1024 rows; a 60-trial run has held at most 15."""
    *ranks, phi_ppt, psi_ppt, gate, fragile = row
    if gate:
        return None
    if fragile:
        return (("fragile_discarded", 1),)
    witness_rule, eb_rule, pair_rules = rules[:3]
    records = dict(zip(RANK_KEYS, ranks), phi_ppt=phi_ppt, psi_ppt=psi_ppt)
    for name, whole, side in (("phi", "lab", "lb"), ("psi", "lac", "lc")):
        records[f"witness_{name}"], regime = witness_rule(
            records[whole], records["la"], records[side])
        records[f"eb_{name}"] = eb_rule(records[f"{name}_ppt"], regime)
    purity, relation = pair_rules(**records)
    if not purity or relation:
        return None
    counts = dict.fromkeys(COUNT_RULES, 0)
    _tally(counts, records)
    return tuple(counts.items())


def _escalate(
    st: StinespringOperator, seed: int, index: int, cfg: ToleranceConfig, result: HarnessResult
):
    """Run one sample's dilation, as its chunk drew it, through
    ``equivalence_check`` and record its outcome."""
    result.escalated.append(index)
    context = {"seed": seed, "index": index, "dims": [st.d_a, st.d_b, st.d_c]}
    try:
        report = certify.equivalence_check(st, cfg, context=context)
    except FragileSampleError:
        result.counts["fragile_discarded"] += 1
        return
    except (CounterexampleOrBugError, PurityViolationError) as exc:
        result.counterexamples.append({**context, "type": type(exc).__name__, "error": str(exc)})
        return
    _tally(result.counts, certify.pair_records(report))


def _tally(counts, records) -> None:
    """Add one checked sample, whose ``records`` are scalars, to the counts
    by COUNT_RULES."""
    for key, rule in COUNT_RULES.items():
        counts[key] += bool(rule(**records))
