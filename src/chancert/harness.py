"""Batched Monte-Carlo consistency harness behind ``verify-theorem``.

Harness samples are independent, so a chunk of them is evaluated as one
array program over a sample axis. A chunk holds what every sample needs:
its dilation and its marginals on a, b and c, as many samples as fit the
largest of those stacks into CHUNK_ENTRIES. A Choi matrix exists only in
``_complementary_pair``, a block of samples at a time, each block's stack
within CHUNK_ENTRIES as well. At (4, 4, 16) a chunk holds 64 samples: phi's
16x16 Choi matrices of a 50-sample run fit one block, psi's 20x20 cut ones
(step 4) run 40 samples per block, and its 64x64 ones, where formed, 4.

1. ``run_harness`` draws the chunk's dilations from the per-sample streams
   ``SeedSequence(seed, spawn_key=(index,))`` that ``random_stinespring``
   uses, bit for bit, and ``_run_chunk`` evaluates the stack it is handed;
2. form the marginals on a, b and c as stacked Gram products (``matmul``)
   of reshapes of the chunk's vectors and take each one's Hermitian part
   in one pass that also measures its deviation; Frobenius norms sum over
   the float64 view, each marginal's once;
3. per complementary pair, phi's Choi matrix with the marginal on c and
   psi's with the marginal on b (psi is phi of the vector with b and c
   swapped), block by block: form the Choi matrix as the same Gram product
   in real arithmetic, one float64 ``matmul`` (``_purification_choi``),
   cross-check it against the Kraus-vector route ``V V^dagger``, a complex
   ``matmul``, and take its Hermitian part and its deviation. The two
   routes run different BLAS kernels (dgemm and zgemm), so the check
   compares two computations, not one twice;
4. derive PSD flags, ranks and fragility with ``psd_rule`` and
   ``rank_rule``, the rules behind every ``PsdCheck`` and ``RankDecision``.
   The marginal on a, and the narrower member of each complementary pair,
   the Choi matrix on a tie, first take a shifted Cholesky
   (``_cholesky_certified``): where it succeeds, every eigenvalue lies past
   every rank, fragility and escalation window, so the matrix and its
   wider partner get fixed flags (PSD, not near, rank k = the narrower
   side, not fragile, no margin) without a spectrum; scalar checks made
   once per pair vouch for the partner's zeros. The samples it leaves open
   take a stacked ``eigvalsh`` of each matrix concerned. A partial
   transpose g of a Choi matrix gets its PSD flags without a spectrum when
   a 2x2 principal minor certifies it clearly not PSD
   (``_certified_npt``); the rest are formed with reshapes. Those of the
   narrower side, the Choi matrix on a tie, of side RAYLEIGH_SIDE or more,
   then take a Rayleigh quotient on the columns of (I - g/||g||_F)^4
   (``_rayleigh_npt``), which certifies the same way; what is left goes to
   a stacked ``eigvalsh``. The wider side, when b exceeds d_c + 1, is first
   formed on the vectors cut to d_c + 1 values of b (``_cut_certificates``):
   a principal submatrix of rank at most d_c whose marginal on b has rank
   d_c + 1, so not PPT. Its minors are minors of the full partial
   transpose, and its vectors are vectors of the full matrix, so the minors
   and, where they leave it open, the Rayleigh quotient certify the full
   partial transpose. Where they do and the Cholesky certificate holds, the
   full matrix is never formed; the other samples form it as above;
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

from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from . import certify, linalg
from .channels import StinespringOperator
from .errors import CounterexampleOrBugError, FragileSampleError, PurityViolationError
from .generate import random_dilation_stack
from .linalg import FRAGILITY_FACTOR, ToleranceConfig

# Memory budget of a chunk, and of a block of Choi matrices: complex entries
# in its largest stacked array (256 KiB). Larger stacks save little per-call
# overhead but raise the peak memory of the widest tuples.
CHUNK_ENTRIES = 16384
# An eigenvalue this factor or less outside a decision window (the PSD
# threshold, the fragility window around a rank cutoff) escalates its sample.
ESCALATION_MARGIN = 2.0
# A Hermitian deviation or a cross-check difference above equality_tol over
# this factor escalates its sample: the per-sample path measures both on
# other matrices, equal only up to rounding.
EQUALITY_MARGIN = 10.0
# Rounding allowance of the NPT certificates, in units of dim * eps times the
# Frobenius bound; see _certified_npt.
MINOR_ROUNDING = 32.0
# Rounding allowance of the Rayleigh quotient's quadratic form, in the same
# units over the side of the matrices it reads; see _rayleigh_npt.
RAYLEIGH_ROUNDING = 8.0
# Narrowest side of the narrower Choi matrices whose partial transposes, left
# open by the minors, take _rayleigh_npt before eigvalsh. In-process, 50-trial
# runs with the stage against without, 80 alternating rounds each: side 4 at
# (2, 2, 6) ran 4-6% slower, side 6 at (2, 3, 6) 1-2% faster, side 8 at
# (2, 4, 8) 5-8% faster.
RAYLEIGH_SIDE = 6
# How far a computed spectrum of a complementary pair may lie from its exact
# one, in units of the pair's summed sides * eps times the trace; see
# _cholesky_certified.
SCHMIDT_ROUNDING = 32.0
# Rounding allowance of the shifted Cholesky, in units of (k + 1)^2 eps times
# the trace, k the side it factors; see _cholesky_certified.
CHOLESKY_ROUNDING = 4.0

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
    """Samples per chunk: as many as fit the largest of a sample's dilation and
    its marginals on a, b and c into CHUNK_ENTRIES."""
    d_a, d_b, d_c = dims
    return max(1, CHUNK_ENTRIES // max(d_a * d_b * d_c, d_a * d_a, d_b * d_b, d_c * d_c))


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


def _factor_marginals(vector: np.ndarray, swapped: np.ndarray) -> dict[str, np.ndarray]:
    """The marginals on a, b and c of C-contiguous tripartite vectors of shape
    (n, d_a, d_b, d_c), keyed 'a', 'b', 'c', given ``swapped``, the same
    vectors with b and c swapped, C-contiguous too: each a stacked Gram
    product of reshapes, L_a = X X^dagger of the rows a and
    L_c = Y^T conj(Y) of the columns c, and L_b as L_c of ``swapped``."""
    n, d_a, d_b, d_c = vector.shape
    conj, swapped_conj = vector.conj(), swapped.conj()
    return {
        "a": np.matmul(vector.reshape(n, d_a, -1), conj.reshape(n, d_a, -1).swapaxes(1, 2)),
        "b": np.matmul(swapped.reshape(n, -1, d_b).swapaxes(1, 2),
                       swapped_conj.reshape(n, -1, d_b)),
        "c": np.matmul(vector.reshape(n, -1, d_c).swapaxes(1, 2), conj.reshape(n, -1, d_c)),
    }


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


def _partial_transpose_left(x: np.ndarray, d_left: int, d_right: int) -> np.ndarray:
    """Left partial transposes of a stack, C-contiguous: with a unit factor
    the reshape alone may return a strided view."""
    n, dim = x.shape[0], d_left * d_right
    return np.ascontiguousarray(
        x.reshape(n, d_left, d_right, d_left, d_right).transpose(0, 3, 2, 1, 4).reshape(n, dim, dim)
    )


def _psd_flags(w: np.ndarray, cfg: ToleranceConfig) -> tuple[np.ndarray, np.ndarray]:
    """PSD verdicts of ascending spectra, and whether lambda_min is too close
    to the threshold to vouch for the verdict."""
    psd, threshold = linalg.psd_rule(w, cfg)
    lam_min = w[:, 0]
    near = (lam_min > ESCALATION_MARGIN * threshold) & (lam_min < threshold / ESCALATION_MARGIN)
    return psd, near


def _npt_shift(bound: np.ndarray, cfg: ToleranceConfig, dim: int) -> np.ndarray:
    """c of ``_certified_npt``: how far below zero lambda_min of a matrix of
    side ``dim`` with Frobenius norm at most ``bound`` must lie for its
    computed spectrum to read psd = near = False."""
    eps = np.finfo(np.float64).eps
    return (2 * ESCALATION_MARGIN * cfg.psd_tol + MINOR_ROUNDING * dim * eps) * bound


def _certified_npt(
    h: np.ndarray,
    d_left: int,
    d_right: int,
    bound: np.ndarray,
    cfg: ToleranceConfig,
    dim: int | None = None,
) -> np.ndarray:
    """Per matrix of a Hermitian stack with Frobenius norms at most ``bound``:
    whether g + cI, g its left partial transpose, has a negative diagonal
    entry or 2x2 principal minor, for
    c = (2 ESCALATION_MARGIN psd_tol + MINOR_ROUNDING dim eps) * bound. Where
    it holds, ``_psd_flags`` of g's computed spectrum reads psd = near = False.
    g is read from h, never formed: it has h's diagonal, and its entry
    ((a, b), (x, z)) is h's entry ((x, b), (a, z)). ``dim`` defaults to h's
    side; ``_cut_certificates`` passes a larger one, h being a principal
    submatrix of the matrix it certifies.
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
    n, side = h.shape[0], h.shape[-1]
    diagonal = h.diagonal(axis1=1, axis2=2).real + _npt_shift(bound, cfg, dim or side)[:, None]
    squares = np.square(h.real)
    squares += np.square(h.imag)
    squares[:, np.arange(side), np.arange(side)] = 0.0
    products = np.einsum("ni,nj->nij", diagonal, diagonal)
    # g's squared moduli, as a view of h's
    facing = squares.reshape(n, d_left, d_right, d_left, d_right).transpose(0, 3, 2, 1, 4)
    minors = products.reshape(facing.shape) < facing
    return (diagonal < 0.0).any(axis=1) | minors.any(axis=(1, 2, 3, 4))


def _rayleigh_npt(
    g: np.ndarray,
    bound: np.ndarray,
    cfg: ToleranceConfig,
    dim: int | None = None,
    work=None,
) -> np.ndarray:
    """Per matrix of a Hermitian stack with Frobenius norms at most ``bound``:
    whether x = r^dagger, for some row r of (I - g/||g||_F)^4, has
    x^dagger g x < -c' x^dagger x, for c' = c + RAYLEIGH_ROUNDING side eps
    bound, c as in ``_certified_npt`` at ``dim``. Where it holds,
    ``_psd_flags`` of g's computed spectrum reads psd = near = False. ``dim``
    defaults to g's side; ``_cut_certificates`` passes a larger one, g being
    a principal submatrix of the matrix it certifies. ``work`` may name two
    C-contiguous complex arrays of at least g's length and of its side, to
    take the powers.

    I - g/||g||_F is Hermitian, so these x are its columns. It has the
    eigenvectors of g, and the largest of its eigenvalues, all in [0, 2],
    belongs to lambda_min(g): its fourth power, two squarings, turns each
    column towards that eigenvector. The 2x2 minors of ``_certified_npt``
    are the quotients over pairs of coordinates; these vectors reach a
    negative eigenvalue spread over many.
    """
    # Why. For every x, x^dagger g x >= lambda_min(g) x^dagger x (Rayleigh-
    # Ritz), whichever vector x the rounded powers produce, so only the
    # rounding of the test itself needs an allowance. With n = side:
    # - z = r g, a complex product, errs by at most sqrt(2) gamma_{n+2}
    #   |r| |g| per entry (Higham, Accuracy and Stability of Numerical
    #   Algorithms, 3.6), so z r^dagger by at most (n + 2)/sqrt(2) eps
    #   |r| |g| |r|^T <= (n + 2)/sqrt(2) eps ||g||_F x^dagger x;
    # - Re z r^dagger, summed over the 2n products of the float64 views,
    #   adds gamma_{2n} ||r|| ||z|| <= n eps ||g||_2 x^dagger x;
    # - the computed c' x^dagger x lies within (n + 1) eps of the exact one,
    #   relative. That matters only where c' < bound: a larger c' exceeds
    #   ||g||_2, and no x^dagger g x comes near -c' x^dagger x.
    # Together below (3 n + 3) eps bound x^dagger x <= 6 n eps bound
    # x^dagger x, since ||g||_F <= bound. The spare 2 n eps bound absorbs the
    # rounding of bound and of c'. So where the computed x^dagger g x is below
    # -c' x^dagger x, lambda_min(g) < -c, and _psd_flags of g's computed
    # spectrum reads psd = near = False, as where _certified_npt fires.
    # Scaling g by a power of two scales x^dagger g x, c' and bound alike and
    # leaves x as it is.
    n, side = g.shape[0], g.shape[-1]
    eps = np.finfo(np.float64).eps
    shift = _npt_shift(bound, cfg, dim or side) + RAYLEIGH_ROUNDING * side * eps * bound
    norm = _frobenius(g)
    scale = np.reciprocal(norm, out=np.zeros(n), where=norm > 0)
    if work is None:
        work = np.empty((2, n, side, side), dtype=complex)
    power, product = (w[:n] for w in work)
    np.multiply(g, -scale[:, None, None], out=power)
    power[:, np.arange(side), np.arange(side)] += 1.0
    np.matmul(power, power, out=product)
    np.matmul(product, product, out=power)
    # x^dagger g x = Re r g r^dagger and x^dagger x = r r^dagger, summed
    # along the rows of the float64 views
    np.matmul(power, g, out=product)
    r, z = power.view(np.float64), product.view(np.float64)
    form = np.einsum("nij,nij->ni", z, r)
    length = np.einsum("nij,nij->ni", r, r)
    return (form < -shift[:, None] * length).any(axis=1)


def _npt_open(
    h: np.ndarray, d_left: int, d_right: int, bound: np.ndarray, cfg: ToleranceConfig,
    rayleigh: bool, dim: int | None = None, work=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Indices into a Hermitian stack with Frobenius norms at most ``bound``
    of the left partial transposes that neither ``_certified_npt`` nor, with
    ``rayleigh``, ``_rayleigh_npt`` (in ``work``) certifies, each with its
    shift at side ``dim``; and those partial transposes."""
    rest = np.flatnonzero(~_certified_npt(h, d_left, d_right, bound, cfg, dim))
    g = _partial_transpose_left(h[rest], d_left, d_right)
    if rayleigh and rest.size:
        still = ~_rayleigh_npt(g, bound[rest], cfg, dim, work)
        rest, g = rest[still], g[still]
    return rest, g


def _partial_transpose_flags(
    h: np.ndarray,
    d_left: int,
    d_right: int,
    bound: np.ndarray,
    cfg: ToleranceConfig,
    rayleigh: bool,
    work=None,
) -> tuple[np.ndarray, np.ndarray]:
    """``_psd_flags`` of the spectra of the left partial transposes of a
    Hermitian stack with Frobenius norms at most ``bound``, from one stacked
    ``eigvalsh`` on the matrices that ``_npt_open`` leaves open; none when
    its certificates settle all."""
    psd, near = np.zeros((2, h.shape[0]), dtype=bool)
    rest, g = _npt_open(h, d_left, d_right, bound, cfg, rayleigh, work=work)
    if rest.size:
        psd[rest], near[rest] = _psd_flags(np.linalg.eigvalsh(g), cfg)
    return psd, near


def _cholesky_shift(k: int, dim: int, cfg: ToleranceConfig) -> float | None:
    """tau of ``_cholesky_certified`` for matrices of side k whose
    complementary marginals have side ``dim``: (1 + 2^-10) r + 3 delta/tr +
    CHOLESKY_ROUNDING (k + 1)^2 eps, with r = rank_tol dim FRAGILITY_FACTOR
    ESCALATION_MARGIN and delta/tr = SCHMIDT_ROUNDING (dim + k) eps. None
    when dim > k and the complementary marginals' dim - k zeros may meet a
    window."""
    eps = np.finfo(np.float64).eps
    rounding = SCHMIDT_ROUNDING * (dim + k) * eps
    wide = FRAGILITY_FACTOR * ESCALATION_MARGIN
    floor = 1.0 / k - rounding
    # rank_tol dim and -psd_tol, as the rules give them for a spectrum of
    # side dim with sigma_max = lambda_max = 1
    unit = np.zeros(dim)
    unit[-1] = 1.0
    cutoff, threshold = linalg.rank_rule(unit, cfg)[1], linalg.psd_rule(unit, cfg)[1]
    if dim > k and not (
        rounding * wide < cutoff * floor and rounding * ESCALATION_MARGIN < -threshold * floor
    ):
        return None
    return (1 + 2.0**-10) * cutoff * wide + 3 * rounding + CHOLESKY_ROUNDING * (k + 1) ** 2 * eps


def _stacked_cholesky(x: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a Hermitian stack, as ``np.linalg.cholesky``
    gives them, but all NaN for each matrix that LAPACK cannot factor, and
    no error: the gufunc behind ``np.linalg.cholesky``, whose public
    wrapper raises for the whole stack."""
    with np.errstate(invalid="ignore"):
        return _umath_linalg.cholesky_lo(x, signature="D->D")


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
    # - eigvalsh adds p(side) eps ||h||_2, below side/4 eps ||h||_2 against
    #   40-digit mpmath spectra (see _certified_npt), and ||h||_2 <= tr.
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
    shifted = x.copy()
    shifted[:, np.arange(k), np.arange(k)] -= (tau * trace)[:, None]
    return ~np.isnan(_stacked_cholesky(shifted)[:, -1, -1])


def _spectrum_flags(w: np.ndarray, cfg: ToleranceConfig) -> tuple[np.ndarray, ...]:
    """``_psd_flags`` and ``_rank_flags`` of ascending spectra: psd, near,
    rank, fragile and margin."""
    return (*_psd_flags(w, cfg), *_rank_flags(w, cfg))


def _certified_flags(n: int, k: int) -> tuple[np.ndarray, ...]:
    """``_spectrum_flags`` of n matrices that ``_cholesky_certified`` settles
    at side k, or that are partners of such: PSD, not near, rank k, not
    fragile, no margin."""
    near, fragile, margin = np.zeros((3, n), dtype=bool)
    return ~near, near, np.full(n, k), fragile, margin


def _fill(flags: tuple[np.ndarray, ...], rows, w: np.ndarray, cfg: ToleranceConfig) -> None:
    """Write ``_spectrum_flags`` of the spectra ``w`` into ``flags`` at ``rows``."""
    for target, value in zip(flags, _spectrum_flags(w, cfg)):
        target[rows] = value


def _choi_blocks(vector: np.ndarray, cfg: ToleranceConfig):
    """For tripartite vectors of shape (n, d_a, d_b, d_c), ``block_size``
    samples at a time: the block's slice, the Hermitian parts of its Choi
    matrices of the maps that trace out c, their Frobenius norms, and whether
    each is clearly Hermitian and agrees with the Kraus-vector route; and two
    work arrays shaped like the block's stack, free until the next block."""
    n, d_a, d_b, d_c = vector.shape
    side = d_a * d_b
    size = block_size(side)
    # Every block writes into these. Fresh arrays of this size in each block
    # cost page faults: at (4, 4, 16) about 3900 per 50-sample chunk against
    # 440, and about a fifth of its time. The Choi matrix's buffer takes its
    # Hermitian part too.
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
        yield block, h, norm, agrees & clear, (kraus_out[:m], conj_out[:m])


def _cut_certificates(
    vector: np.ndarray, trace: np.ndarray, cfg: ToleranceConfig
) -> tuple[np.ndarray, np.ndarray]:
    """For tripartite vectors of shape (n, d_a, d_b, d_c) with squared norms
    ``trace``, cut to their first d_c + 1 values of b: whether each cut's
    Choi matrix is clearly Hermitian and agrees with the Kraus-vector route,
    and whether the certificates of ``_npt_open``, the minors and then the
    Rayleigh quotient, certify the full Choi matrix's partial transpose:
    where they do, ``_psd_flags`` of that partial transpose's computed
    spectrum reads psd = near = False."""
    # Why. The cut's Choi matrix J' is the principal submatrix of J on
    # b < d_c + 1, and its partial transpose g' that of J's, g. Its rank is
    # at most d_c, below that of its marginal on b, d_c + 1 for generic
    # vectors with d_a > 1, so J' is not PPT (Horodecki-Smolin-Terhal-
    # Thapliyal) and 2x2 minors mostly certify it; a Rayleigh quotient
    # certifies most of the rest. Both certificates' shifts are taken at g's
    # side, and with the bound trace, at least ||J||_F for the exact J, PSD
    # with that trace. Where either fires on the computed g',
    # lambda_min(g') < -c + 6 eps trace (see _certified_npt and
    # _rayleigh_npt). g' and the matching submatrix of the computed g each
    # lie within (3/2 d_c + 1) eps trace of the exact one (see
    # _cholesky_certified), and
    # lambda_min(g) is at most that of its principal submatrix (Cauchy
    # interlacing); eigvalsh adds below side/4 eps trace. So g's computed
    # lambda_min is below -c + (3 d_c + 8 + side/4) eps trace, with d_c < side
    # far inside the MINOR_ROUNDING side eps trace of c: _psd_flags of g's
    # computed spectrum reads psd = near = False, as where _certified_npt of
    # g fires.
    n, d_a, d_b, d_c = vector.shape
    checks, certified = np.empty(n, dtype=bool), np.ones(n, dtype=bool)
    cut = np.ascontiguousarray(vector[:, :, :d_c + 1])
    for block, h, _, passed, work in _choi_blocks(cut, cfg):
        checks[block] = passed
        rest, _ = _npt_open(h, d_a, d_c + 1, trace[block], cfg, True, d_a * d_b, work)
        certified[block.start + rest] = False
    return checks, certified


def _complementary_pair(
    vector: np.ndarray, environment: np.ndarray, trace: np.ndarray, cfg: ToleranceConfig
) -> tuple[np.ndarray, ...]:
    """For tripartite vectors of shape (n, d_a, d_b, d_c) with squared norms
    ``trace``, and ``environment`` the Hermitian parts of their marginals on
    c: ``_spectrum_flags`` of the Choi matrices of the maps that trace out c
    and of ``environment``; whether each Choi matrix is clearly Hermitian
    and agrees with the Kraus-vector route; and ``_psd_flags`` of its
    partial transpose.

    The Choi matrices are formed by ``_choi_blocks`` and nowhere else. The
    narrower member of the pair, the Choi matrix on a tie, takes
    ``_cholesky_certified``; the samples it leaves open take ``eigvalsh`` of
    both members. The narrower side's partial transposes of side
    RAYLEIGH_SIDE or more take ``_rayleigh_npt`` where the minors leave
    them open. A wider Choi matrix with d_b > d_c + 1 is first read on the
    vectors cut to d_c + 1 values of b (``_cut_certificates``): a sample
    whose cut certifies the matrix NPT, and whose certificate holds, has its
    flags without the full matrix being formed, and the cut's checks. Every
    other sample forms it.
    """
    n, d_a, d_b, d_c = vector.shape
    side = d_a * d_b
    choi_narrower = side <= d_c
    k, dim = min(side, d_c), max(side, d_c)
    choi_flags, env_flags = _certified_flags(n, k), _certified_flags(n, k)
    checks, pt_psd, pt_near = (np.empty(n, dtype=bool) for _ in range(3))
    rest = np.arange(n)
    if choi_narrower:
        settled = np.empty(n, dtype=bool)
    else:
        settled = _cholesky_certified(environment, trace, dim, cfg)
        if d_b > d_c + 1:
            checks, certified = _cut_certificates(vector, trace, cfg)
            done = settled & certified
            pt_psd[done] = pt_near[done] = False
            rest = rest[~done]
    rayleigh = choi_narrower and side >= RAYLEIGH_SIDE
    for block, h, norm, passed, work in _choi_blocks(vector[rest], cfg):
        index = rest[block]
        checks[index] = passed
        if choi_narrower:
            settled[index] = _cholesky_certified(h, trace[index], dim, cfg)
        open_rows = ~settled[index]
        if open_rows.any():
            _fill(choi_flags, index[open_rows], np.linalg.eigvalsh(h[open_rows]), cfg)
        pt_psd[index], pt_near[index] = _partial_transpose_flags(
            h, d_a, d_b, norm, cfg, rayleigh, work
        )
    if not settled.all():
        _fill(env_flags, ~settled, np.linalg.eigvalsh(environment[~settled]), cfg)
    return choi_flags, env_flags, checks, pt_psd, pt_near


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

    # Purification route: |L> indexed (a, b, c), as common_purification_vector.
    # Contiguous copies, here and of psi's vector with b and c swapped (psi's
    # Choi matrices, and the marginal on b): every product reads them through
    # reshapes and float64 views, which need no copy.
    vector = np.ascontiguousarray(stack.swapaxes(1, 2)).reshape(n, d_a, d_b, d_c)
    swapped = np.ascontiguousarray(vector.swapaxes(2, 3))
    trace = np.square(_frobenius(stack))
    checks = np.ones(n, dtype=bool)
    hermitian = {}
    for key, matrix in _factor_marginals(vector, swapped).items():
        hermitian[key], clear = _hermitian_part(matrix, _frobenius(matrix), cfg)
        checks &= clear
    flags = {"a": _certified_flags(n, d_a)}
    settled = _cholesky_certified(hermitian["a"], trace, d_a, cfg)
    if not settled.all():
        _fill(flags["a"], ~settled, np.linalg.eigvalsh(hermitian["a"][~settled]), cfg)
    flags["ab"], flags["c"], phi_checks, phi_pt, near_phi_pt = _complementary_pair(
        vector, hermitian["c"], trace, cfg
    )
    flags["ac"], flags["b"], psi_checks, psi_pt, near_psi_pt = _complementary_pair(
        swapped, hermitian["b"], trace, cfg
    )
    checks &= phi_checks & psi_checks
    (phi_psd, near_phi), (psi_psd, near_psi) = flags["ab"][:2], flags["ac"][:2]
    unsure = near_phi | near_psi | near_phi_pt | near_psi_pt
    ranks, fragile = {}, np.zeros(n, dtype=bool)
    for key in ("ab", "ac", "a", "b", "c"):
        ranks[key], fragile_key, margin = flags[key][2:]
        fragile |= fragile_key
        unsure |= margin

    lab, lac, la, lb, lc = (ranks[key] for key in ("ab", "ac", "a", "b", "c"))
    phi_ppt, psi_ppt = certify.ppt_rule(phi_psd, phi_pt), certify.ppt_rule(psi_psd, psi_pt)
    witness_phi, regime_phi = certify.witness_rule(lab, la, lb)
    witness_psi, regime_psi = certify.witness_rule(lac, la, lc)
    eb_phi = certify.eb_rule(phi_ppt, regime_phi)
    eb_psi = certify.eb_rule(psi_ppt, regime_psi)
    purity, relation = certify.pair_rules(
        phi_ppt, psi_ppt, witness_psi, eb_phi, eb_psi, lab, lac, la, lb, lc
    )

    escalate = ~checks | unsure | ~phi_psd | ~psi_psd | (~fragile & (~purity | (relation != 0)))
    for k in np.flatnonzero(escalate):
        _escalate(StinespringOperator(d_a, d_b, d_c, stack[k]), seed, indices[k], cfg, result)

    counted = ~escalate & ~fragile
    result.counts["fragile_discarded"] += int(np.count_nonzero(~escalate & fragile))
    _tally(result.counts, phi_ppt[counted], psi_ppt[counted], witness_phi[counted],
           witness_psi[counted], eb_phi[counted], eb_psi[counted])


def _escalate(
    st: StinespringOperator, seed: int, index: int, cfg: ToleranceConfig, result: HarnessResult
):
    """Run one sample's dilation, as its chunk drew it, through
    ``equivalence_check`` and record its outcome."""
    result.escalated.append(index)
    dims = (st.d_a, st.d_b, st.d_c)
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
