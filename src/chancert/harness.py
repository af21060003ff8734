"""Batched Monte-Carlo consistency harness behind ``verify-theorem``.

Harness samples are independent, so a chunk of them is evaluated as one
array program over a sample axis. A chunk holds what every sample needs:
its dilation, its purification vector in both orientations and its
marginals on a, b and c, as many samples as fit the largest of those stacks
into CHUNK_ENTRIES. A Choi matrix exists only in ``_complementary_pair``, a
block of samples at a time, each block's stack within CHUNK_ENTRIES as
well. At (4, 4, 16) a chunk holds 64 samples: phi's 16x16 Choi matrices of
a 50-sample run fit one block, psi's 20x20 cut ones (step 4) run 40 samples
per block, and its 64x64 ones, where formed, 4.

1. ``run_harness`` draws the chunk's dilations from the per-sample streams
   ``SeedSequence(seed, spawn_key=(index,))`` that ``random_stinespring``
   uses, bit for bit, and ``_run_chunk`` evaluates the stack it is handed;
2. lay out the purification vectors (``_orientations``): phi's, indexed
   (a, b, c), and psi's, the same with b and c swapped (psi is phi of that
   vector). Where d_b = d_c the two have one shape and form one group, a
   stack of 2n vectors, phi's then psi's, and the budget counts both;
   otherwise each is a group of its own. Form the marginal on a of phi's
   vectors and, per group, the marginal on its last factor, on c for phi
   and on b for psi, as stacked Gram products (``matmul``) of reshapes, and
   take each one's Hermitian part in one pass that also measures its
   deviation; Frobenius norms sum over the float64 view, each marginal's
   once;
3. per group, one pass over its complementary pairs, phi's Choi matrix with
   the marginal on c and psi's with the marginal on b, block by block, a
   block of a stacked group spanning both orientations where it falls so:
   form the Choi matrix as the same Gram product in real arithmetic, one
   float64 ``matmul`` (``_purification_choi``), cross-check it against the
   Kraus-vector route ``V V^dagger``, a complex ``matmul``, and take its
   Hermitian part and its deviation. The two routes run different BLAS
   kernels (dgemm and zgemm), so the check compares two computations, not
   one twice. A stacked group's flags are cut back into phi's rows and
   psi's after the pass;
4. derive PSD flags, ranks and fragility with ``psd_rule`` and
   ``rank_rule``, the rules behind every ``PsdCheck`` and ``RankDecision``.
   The marginal on a, and the narrower member of each complementary pair,
   the Choi matrix on a tie, first take a shifted Cholesky
   (``_cholesky_certified``): where it succeeds, every eigenvalue lies past
   every rank, fragility and escalation window, so the matrix and its
   wider partner get the rules' flags of the exact spectrum it vouches for,
   k ones and the partner's zeros, without a spectrum; scalar checks made
   once per pair vouch for the zeros. The samples it leaves open
   take a stacked ``eigvalsh`` of each matrix concerned. A partial
   transpose g of a Choi matrix, formed with reshapes, gets its PSD flags
   without a spectrum where the Cholesky of g + c'I fails
   (``_npt_certified``): then g is clearly not PSD. What is left goes to
   a stacked ``eigvalsh``. The wider side, when b exceeds d_c + 1, is first
   formed on the vectors cut to d_c + 1 values of b (``_cut_certificates``):
   a principal submatrix of rank at most d_c whose marginal on b has rank
   d_c + 1, so not PPT. Its partial transpose is a principal submatrix of
   the full one, so where the same certificate, with the shift of the full
   side, fires on the cut, it certifies the full partial transpose. Where
   it does and the Cholesky certificate of the pair holds, the full matrix
   is never formed; the other samples form it as above;
5. evaluate verdicts, purity equalities and proven relations with the rules
   in ``certify`` that ``equivalence_check`` calls as well.

``equivalence_check`` stays the oracle. It reads the same records of one
sample, from matrices formed by einsum in ``complement``: its Choi
matrices are the marginals on ab and ac from ``complement.choi_marginal``,
cross-checked against the same Kraus-vector route, and its seven spectra
are those of the five marginals and of the two partial transposes. The
engine's products round differently, so its matrices match the oracle's
only to rounding; the escalation margins below absorb that, as they absorb
the engine's other shortcuts. Of a wider Choi matrix read on the cut, the
engine checks the cut, a principal submatrix of the oracle's matrix. A
sample's dilation, as its chunk drew it, is re-run through it, and its
outcome is what counts, whenever the batched evaluation cannot vouch for
the same outcome: a failed check or relation, a Choi matrix that is not
clearly PSD, or an eigenvalue within a factor ESCALATION_MARGIN outside a
decision window. Counts, counterexample records, exceptions and exit codes
are therefore those of a per-sample loop.
"""

from __future__ import annotations

import functools
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
# An eigenvalue this factor or less outside a decision window (the PSD
# threshold, the fragility window around a rank cutoff) escalates its sample.
ESCALATION_MARGIN = 2.0
# A Hermitian deviation or a cross-check difference above equality_tol over
# this factor escalates its sample: the per-sample path measures both on
# other matrices, equal only up to rounding.
EQUALITY_MARGIN = 10.0
# How far a computed spectrum of a complementary pair may lie from its exact
# one, in units of the pair's summed sides * eps times the trace; see
# _cholesky_certified.
SCHMIDT_ROUNDING = 32.0
# Rounding allowance of a shifted Cholesky, in units of (k + 1)^2 eps times
# the largest diagonal entry it may meet, k the side it factors; see
# _cholesky_certified and _npt_certified.
CHOLESKY_ROUNDING = 4.0

# The counts of checked samples: each key's rule marks the samples it counts,
# over the records ``certify.pair_rules`` takes, passed by name.
COUNT_RULES = {
    "samples": lambda phi_ppt, **_: np.ones_like(phi_ppt, dtype=bool),
    "phi_ppt": lambda phi_ppt, **_: phi_ppt,
    "psi_ppt": lambda psi_ppt, **_: psi_ppt,
    "both_ppt": lambda phi_ppt, psi_ppt, **_: np.logical_and(phi_ppt, psi_ppt),
    "witness_phi_fired": lambda witness_phi, **_: witness_phi,
    "witness_psi_fired": lambda witness_psi, **_: witness_psi,
    "eb_psi_yes": lambda eb_psi, **_: np.equal(eb_psi, certify.EB_YES),
    "eb_phi_yes": lambda eb_phi, **_: np.equal(eb_phi, certify.EB_YES),
    "regime_applied_to_psi_given_phi_ppt": lambda phi_ppt, eb_psi, **_: (
        np.logical_and(phi_ppt, np.not_equal(eb_psi, certify.EB_UNKNOWN))),
}
COUNT_KEYS = (*COUNT_RULES, "fragile_discarded")


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
    stacks them (d_b = d_c)."""
    d_a, d_b, d_c = dims
    stacked = 2 if d_b == d_c else 1
    largest = max(stacked * d_a * d_b * d_c, d_a * d_a, stacked * d_b * d_b, stacked * d_c * d_c)
    return max(1, CHUNK_ENTRIES // largest)


def block_size(side: int) -> int:
    """Samples per block of Choi matrices of side ``side``: as many as fit CHUNK_ENTRIES."""
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


def _factor_marginals(groups: list[np.ndarray], n: int) -> list[np.ndarray]:
    """For ``_orientations`` of n samples: the marginals on a of phi's
    vectors, the first n rows, then per group the marginals on the last
    factor of its vectors, on c of phi's and on b of psi's. Each is a
    stacked Gram product of reshapes, L_a = X X^dagger of the rows a and
    L_c = Y^T conj(Y) of the columns c."""
    conjugates = [v.conj() for v in groups]
    rows, conj = groups[0][:n].reshape(n, groups[0].shape[1], -1), conjugates[0][:n]
    marginals = [np.matmul(rows, conj.reshape(rows.shape).swapaxes(1, 2))]
    for v, conj in zip(groups, conjugates):
        m, d_last = len(v), v.shape[-1]
        marginals.append(np.matmul(v.reshape(m, -1, d_last).swapaxes(1, 2),
                                   conj.reshape(m, -1, d_last)))
    return marginals


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
    one of the Kraus-vector route (zgemm) that ``_agrees`` checks it against.
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


def _hermitian_part(
    x: np.ndarray, norm: np.ndarray, cfg: ToleranceConfig, work=(None, None, None)
) -> tuple[np.ndarray, np.ndarray]:
    """(x + x^dagger) / 2 per matrix, and whether x is clearly Hermitian;
    ``norm`` holds the Frobenius norms of x. ``work`` may name C-contiguous
    arrays shaped like x to receive its conjugate, x - x^dagger and the
    result; the last may be x itself."""
    conj, deviation, part = work
    adjoint = np.conjugate(x, out=conj).swapaxes(-2, -1)
    clear = _frobenius(np.subtract(x, adjoint, out=deviation)) <= (
        cfg.equality_tol / EQUALITY_MARGIN * norm
    )
    part = np.add(x, adjoint, out=part)
    part *= 0.5
    return part, clear


def _agrees(x: np.ndarray, norm: np.ndarray, y: np.ndarray, cfg: ToleranceConfig) -> np.ndarray:
    """Per-matrix relative Frobenius agreement, inside the escalation margin;
    ``norm`` holds the Frobenius norms of x. Overwrites y with x - y."""
    scale = np.maximum(norm, _frobenius(y))
    return _frobenius(np.subtract(x, y, out=y)) <= cfg.equality_tol / EQUALITY_MARGIN * scale


def _partial_transpose_left(
    x: np.ndarray, d_left: int, d_right: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Left partial transposes of a stack, C-contiguous, written into ``out``
    if given, a C-contiguous array of x's shape: with a unit factor the
    reshape alone may return a strided view."""
    n, dim = x.shape[0], d_left * d_right
    view = x.reshape(n, d_left, d_right, d_left, d_right).transpose(0, 3, 2, 1, 4)
    if out is None:
        return np.ascontiguousarray(view).reshape(n, dim, dim)
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
    """``_spectrum_flags`` of one spectrum of dim - k zeros and k ones, as
    (psd, near, fragile, margin) stacked, shape (4, 1), and the rank, shape
    (1,); and its rank cutoff and PSD threshold, rank_tol dim and -psd_tol.
    The certificates read these from ``linalg``'s rules, passed here as part
    of the memo's key, so that a rule patched on its module reaches them too;
    unpatched, evaluating them costs some 40 us, several times per chunk."""
    w = np.repeat([[0.0, 1.0]], (dim - k, k), axis=1)
    psd, near, rank, fragile, margin = _spectrum_flags(w, cfg)
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
    wrapper raises for the whole stack."""
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
    below g's.
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
    work: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``_psd_flags`` of the spectra of the left partial transposes of a
    Hermitian stack with Frobenius norms at most ``bound``, formed in
    ``work`` if given: from one stacked ``eigvalsh`` on those that
    ``_npt_certified`` leaves open, none when it settles all."""
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
    near, rank k, not fragile and no margin. It holds nowhere where
    ``_cholesky_shift`` is None.
    """
    # Why. Let X be the exact marginal of the vector, of trace tr, and W its
    # complementary marginal, of side dim. W's spectrum is X's padded with
    # dim - k zeros (Schmidt decomposition). x lies within delta of X, and
    # each computed spectrum within delta of its exact one, eigenvalue by
    # eigenvalue, more than ten times over:
    # - a Gram product over l complex terms errs by at most 3/2 l eps tr in
    #   Frobenius norm, whichever BLAS kernel sums it, since any summation
    #   order obeys the dot-product bound gamma_n = n eps/2 (to first
    #   order). The complex route (a factor marginal) errs by gamma_{l+2}
    #   per unit of the rows' norms, (l + 2) eps/2 <= 3/2 l eps. The real
    #   route (a Choi matrix) sums 2 l real terms for Re and Im each,
    #   sqrt(2) gamma_{2l} together, below 3/2 l eps. Of a pair, one member
    #   contracts over dim terms and the other over k;
    # - each Hermitian part is exactly Hermitian and adds eps tr;
    # - eigvalsh adds below side/4 eps ||h||_2 (see linalg.ROUNDING_BAND),
    #   and ||h||_2 <= tr.
    # By Weyl's inequality that is (7/4 (dim + k) + 2) eps tr
    # <= 3 (dim + k) eps tr in all. The marginal on a has no partner: only
    # eigvalsh's error, below k/4 eps tr, separates x from its spectrum.
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
    #   ESCALATION_MARGIN, and are positive. x's spectrum thus reads rank k,
    #   not fragile, no margin, PSD (lambda_min > 0 >= the threshold) and
    #   not near (that needs lambda_min < threshold / 2 <= 0).
    # - W's other dim - k computed eigenvalues lie in [-delta, delta], and
    #   its sigma_max, at least X's mean eigenvalue tr/k less delta, in
    #   [tr/k - delta, tr + delta]. If delta FRAGILITY_FACTOR
    #   ESCALATION_MARGIN < rank_tol (tr/k - delta) dim, they lie at or below
    #   every cutoff over that factor: rank k, not fragile, no margin. If
    #   delta ESCALATION_MARGIN < psd_tol (tr/k - delta), lambda_min >= -delta
    #   lies above half the PSD threshold: PSD, not near. Both checks scale
    #   with tr, so they are made once, on delta/tr; delta's spare factor
    #   absorbs the rounding of tr, of delta and of the checks.
    n, k = x.shape[0], x.shape[-1]
    tau = _cholesky_shift(k, dim, cfg)
    if tau is None:
        return np.zeros(n, dtype=bool)
    return _cholesky_succeeds(x, -tau * trace)


def _spectrum_flags(w: np.ndarray, cfg: ToleranceConfig) -> tuple[np.ndarray, ...]:
    """``_psd_flags`` and ``_rank_flags`` of ascending spectra: psd, near,
    rank, fragile and margin."""
    return (*_psd_flags(w, cfg), *_rank_flags(w, cfg))


def _certified_flags(n: int, k: int, dim: int, cfg: ToleranceConfig) -> tuple[np.ndarray, ...]:
    """``_spectrum_flags`` of n matrices that ``_cholesky_certified`` settles
    at side k with complementary side ``dim``, or that are partners of such:
    those of the exact spectrum it vouches for, dim - k zeros and k ones.
    Fresh arrays, which ``_fill`` writes into."""
    flags, rank = _unit_rules(k, dim, cfg, linalg.rank_rule, linalg.psd_rule)[0]
    psd, near, fragile, margin = flags.repeat(n, axis=1)
    return psd, near, rank.repeat(n), fragile, margin


def _fill(flags: tuple[np.ndarray, ...], rows, w: np.ndarray, cfg: ToleranceConfig) -> None:
    """Write ``_spectrum_flags`` of the spectra ``w`` into ``flags`` at ``rows``."""
    for target, value in zip(flags, _spectrum_flags(w, cfg)):
        target[rows] = value


def _choi_blocks(vector: np.ndarray, cfg: ToleranceConfig):
    """For tripartite vectors of shape (n, d_a, d_b, d_c), ``block_size``
    samples at a time: the block's slice, the Hermitian parts of its Choi
    matrices of the maps that trace out c, their Frobenius norms, and whether
    each is clearly Hermitian and agrees with the Kraus-vector route; and a
    work array shaped like the block's stack, free until the next block."""
    n, d_a, d_b, d_c = vector.shape
    side = d_a * d_b
    size = block_size(side)
    # Every block writes into these. Under glibc's default malloc policy a
    # 50-sample chunk at (4, 4, 16) takes about 520 page faults, with these
    # or with fresh arrays in each block: glibc hands back to the kernel the
    # heap top that each chunk frees, whatever arrays it held. The command
    # line keeps it (cli._set_process_policy), and then neither faults. One
    # allocation still saves a few percent of the chunk's CPU time (3.4
    # against 3.6 ms, minima). The Choi matrix's buffer takes its Hermitian
    # part too.
    choi_out, kraus_out, conj_out = np.empty((3, min(size, n), side, side), dtype=complex)
    for block in (slice(start, start + size) for start in range(0, n, size)):
        v = vector[block]
        m = v.shape[0]
        choi = _purification_choi(v, choi_out[:m])
        norm = _frobenius(choi)
        # Kraus-vector route: the rows (a, b) of V hold L's entries over c
        kraus = v.reshape(m, side, d_c)
        product = np.matmul(kraus, kraus.conj().swapaxes(1, 2), out=kraus_out[:m])
        agrees = _agrees(choi, norm, product, cfg)
        h, clear = _hermitian_part(choi, norm, cfg, (conj_out[:m], kraus_out[:m], choi))
        yield block, h, norm, agrees & clear, kraus_out[:m]


def _cut_certificates(
    vector: np.ndarray, norm: np.ndarray, trace: np.ndarray, cfg: ToleranceConfig
) -> tuple[np.ndarray, np.ndarray]:
    """For tripartite vectors of shape (n, d_a, d_b, d_c) with squared norms
    ``trace``, and ``norm`` the Frobenius norms of their computed marginals on
    c, cut to their first d_c + 1 values of b: whether each cut's Choi
    matrix is clearly Hermitian and agrees with the Kraus-vector route, and
    whether ``_npt_certified`` of the cut, with the shift of the full side,
    certifies the full Choi matrix's partial transpose: where it does,
    ``_psd_flags`` of that partial transpose's computed spectrum reads
    psd = near = False."""
    # Why. The cut's Choi matrix J' is the principal submatrix of J on
    # b < d_c + 1, and its partial transpose g' that of J's, g. Its rank is
    # at most d_c, below that of its marginal on b, d_c + 1 for generic
    # vectors with d_a > 1, so J' is not PPT (Horodecki-Smolin-Terhal-
    # Thapliyal) and the certificate mostly fires on it. Its shift c is
    # taken at g's side, with the bound norm + delta, delta = SCHMIDT_ROUNDING
    # (side + d_c) eps trace, plus the rounding r = (3 d_c + 2 + side/4) eps
    # trace as a term of its own:
    # - the bound is at least ||J'||_F for the exact J'. J and the exact
    #   marginal on c, L, are complementary marginals of one vector and share
    #   their nonzero spectrum (Schmidt decomposition), so ||J'||_F <= ||J||_F
    #   = ||L||_F exactly. The computed L, a Gram product over side terms,
    #   lies within 3/2 side eps trace of L in Frobenius norm (see
    #   _cholesky_certified), which delta covers twenty times over; the
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
    cut = np.ascontiguousarray(vector[:, :, :d_c + 1])
    for block, h, _, passed, work in _choi_blocks(cut, cfg):
        checks[block] = passed
        g = _partial_transpose_left(h, d_a, d_c + 1, work)
        certified[block] = _npt_certified(g, bound[block], cfg, side, rounding[block])
    return checks, certified


def _complementary_pair(
    vector: np.ndarray,
    environment: np.ndarray,
    norm: np.ndarray,
    trace: np.ndarray,
    cfg: ToleranceConfig,
) -> tuple[np.ndarray, ...]:
    """For tripartite vectors of shape (n, d_a, d_b, d_c) with squared norms
    ``trace``, ``environment`` the Hermitian parts of their marginals on c,
    and ``norm`` the Frobenius norms of those marginals as computed:
    ``_spectrum_flags`` of the Choi matrices of the maps that trace out c
    and of ``environment``; whether each Choi matrix is clearly Hermitian
    and agrees with the Kraus-vector route; and ``_psd_flags`` of its
    partial transpose.

    The Choi matrices are formed by ``_choi_blocks`` and nowhere else. The
    narrower member of the pair, the Choi matrix on a tie, takes
    ``_cholesky_certified``; the samples it leaves open take ``eigvalsh`` of
    both members. A wider Choi matrix with d_b > d_c + 1 is first read on the
    vectors cut to d_c + 1 values of b (``_cut_certificates``): a sample
    whose cut certifies the matrix NPT, and whose certificate holds, has its
    flags without the full matrix being formed, and the cut's checks. Every
    other sample forms it.
    """
    n, d_a, d_b, d_c = vector.shape
    side = d_a * d_b
    choi_narrower = side <= d_c
    k, dim = min(side, d_c), max(side, d_c)
    choi_flags, env_flags = _certified_flags(n, k, dim, cfg), _certified_flags(n, k, dim, cfg)
    checks, pt_psd, pt_near = (np.empty(n, dtype=bool) for _ in range(3))
    rest = np.arange(n)
    if choi_narrower:
        settled = np.empty(n, dtype=bool)
    else:
        settled = _cholesky_certified(environment, trace, dim, cfg)
        if d_b > d_c + 1:
            checks, certified = _cut_certificates(vector, norm, trace, cfg)
            done = settled & certified
            pt_psd[done] = pt_near[done] = False
            rest = rest[~done]
    formed = vector if len(rest) == n else vector[rest]
    for block, h, norm, passed, work in _choi_blocks(formed, cfg):
        index = rest[block]
        checks[index] = passed
        if choi_narrower:
            settled[index] = _cholesky_certified(h, trace[index], dim, cfg)
        open_rows = ~settled[index]
        if open_rows.any():
            _fill(choi_flags, index[open_rows], np.linalg.eigvalsh(h[open_rows]), cfg)
        pt_psd[index], pt_near[index] = _partial_transpose_flags(h, d_a, d_b, norm, cfg, work)
    if not settled.all():
        _fill(env_flags, ~settled, np.linalg.eigvalsh(environment[~settled]), cfg)
    return choi_flags, env_flags, checks, pt_psd, pt_near


def _rows(values: tuple, rows) -> tuple:
    """``values``, arrays over samples and tuples of such, each at ``rows``."""
    return tuple(_rows(x, rows) if isinstance(x, tuple) else x[rows] for x in values)


def _rank_flags(w: np.ndarray, cfg: ToleranceConfig) -> tuple[np.ndarray, ...]:
    """Ranks and fragility of spectra, and whether a singular value lies within
    a factor ESCALATION_MARGIN outside the fragility window."""
    rank, cutoff, near = linalg.rank_rule(w, cfg)
    sigma, wide = np.abs(w), FRAGILITY_FACTOR * ESCALATION_MARGIN
    margin = (sigma > cutoff[:, None] / wide) & (sigma < cutoff[:, None] * wide) & ~near
    return rank, near.any(axis=1), margin.any(axis=1)


def _run_chunk(stack, dims, seed: int, indices, cfg: ToleranceConfig, result: HarnessResult):
    """Add to ``result`` the outcomes of ``stack``, the dilations of samples ``indices``."""
    d_a, d_b, d_c = dims
    n = len(indices)

    # Both orientations of the purification vector, contiguous: every product
    # reads them through reshapes and float64 views, which need no copy.
    groups = _orientations(stack, dims)
    trace = np.square(_frobenius(stack))
    marginal_a, *environments = _factor_marginals(groups, n)
    hermitian_a, checks = _hermitian_part(marginal_a, _frobenius(marginal_a), cfg)
    flags = {"a": _certified_flags(n, d_a, d_a, cfg)}
    settled = _cholesky_certified(hermitian_a, trace, d_a, cfg)
    if not settled.all():
        _fill(flags["a"], ~settled, np.linalg.eigvalsh(hermitian_a[~settled]), cfg)
    # phi's pair, its Choi matrix with the marginal on c, then psi's, with the
    # marginal on b: one pass per group, cut into its orientations after it
    pairs = []
    for v, environment in zip(groups, environments):
        norm = _frobenius(environment)
        hermitian, clear = _hermitian_part(environment, norm, cfg)
        stacked = len(v) // n
        choi, env, pair_checks, pt_psd, pt_near = _complementary_pair(
            v, hermitian, norm, np.concatenate([trace] * stacked), cfg
        )
        outcome = (choi, env, pair_checks & clear, pt_psd, pt_near)
        if stacked == 1:
            pairs.append(outcome)
        else:
            pairs += [_rows(outcome, slice(k * n, (k + 1) * n)) for k in range(stacked)]
    (flags["ab"], flags["c"], phi_checks, phi_pt, near_phi_pt), (
        flags["ac"], flags["b"], psi_checks, psi_pt, near_psi_pt) = pairs
    checks &= phi_checks & psi_checks
    (phi_psd, near_phi), (psi_psd, near_psi) = flags["ab"][:2], flags["ac"][:2]
    unsure = near_phi | near_psi | near_phi_pt | near_psi_pt
    records, fragile = {}, np.zeros(n, dtype=bool)
    for key in ("ab", "ac", "a", "b", "c"):
        records[f"l{key}"], fragile_key, margin = flags[key][2:]
        fragile |= fragile_key
        unsure |= margin

    records["phi_ppt"] = certify.ppt_rule(phi_psd, phi_pt)
    records["psi_ppt"] = certify.ppt_rule(psi_psd, psi_pt)
    for name, whole, side in (("phi", "lab", "lb"), ("psi", "lac", "lc")):
        records[f"witness_{name}"], regime = certify.witness_rule(
            records[whole], records["la"], records[side])
        records[f"eb_{name}"] = certify.eb_rule(records[f"{name}_ppt"], regime)
    purity, relation = certify.pair_rules(**records)

    escalate = ~checks | unsure | ~phi_psd | ~psi_psd | (~fragile & (~purity | (relation != 0)))
    for k in np.flatnonzero(escalate):
        _escalate(StinespringOperator(d_a, d_b, d_c, stack[k]), seed, indices[k], cfg, result)

    counted = ~escalate & ~fragile
    result.counts["fragile_discarded"] += int(np.count_nonzero(~escalate & fragile))
    _tally(result.counts, records, counted)


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


def _tally(counts, records, counted=True) -> None:
    """Add checked samples to the counts by COUNT_RULES; ``records`` are
    those of one sample, as scalars, or arrays over samples of which
    ``counted`` marks those to count."""
    for key, rule in COUNT_RULES.items():
        counts[key] += int(np.count_nonzero(np.logical_and(rule(**records), counted)))
