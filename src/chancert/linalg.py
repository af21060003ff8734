"""Dense complex linear algebra on bipartite-indexed spaces.

Index convention, fixed once for the whole package: a bipartite space with
factor dimensions (d_left, d_right) is indexed row-major, i.e.

    composite = left_index * d_right + right_index

so the left factor is the slow (major) index. This is exactly numpy's
row-major reshape of shape ``(d_left, d_right)``, and it makes
``np.kron(A, B)`` the matrix of ``A (x) B``.

All scalars are complex binary64. All functions are pure and never mutate
their inputs.

Input is validated where it enters the program: the value objects of
``channels`` check their matrices with ``as_matrix`` when they are built,
and ``io`` checks a file when it is read. The public functions here take
outside input and check it too. The report builders and other internal
callers pass a matrix a value object already holds to the private forms
(``_partial_trace``, ``_partial_transpose``, ``_hermitian_eigensystem``),
which check nothing. Every spectrum outside the verify-theorem engine comes
from ``_hermitian_spectra``: one eigvalsh call per distinct side of the
matrices a caller decomposes, ``psd_check`` and ``rank_decision`` one
matrix, the report builders, ``rank_chain`` and the pair constructor
several.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    EigensolverError,
    NonHermitianError,
)

SIDES = ("left", "right")
# Machine epsilon of binary64, 2^-52: the eps of every rounding allowance.
EPS = float(np.finfo(np.float64).eps)

# Fragility window: a rank decision is fragile when some singular value lies
# within a factor of 10 of the cutoff on either side.
FRAGILITY_FACTOR = 10.0
# Rounding band of a Hermitian spectrum of side n, in units of n eps sigma_max,
# and the allowance for eigvalsh's error in the harness's certificates:
# eigvalsh returns each eigenvalue within p(n) eps ||x||_2, p a modestly
# growing function (LAPACK Users' Guide, error bounds for the symmetric
# eigenproblem), so a computed eigenvalue inside the band may be an exact zero
# and need not be one. Against 40-digit mpmath spectra of the harness's
# partial transposes, side 12 to 64, the error stayed below n/4 eps ||x||_2.
ROUNDING_BAND = 32.0


@dataclass(frozen=True)
class ToleranceConfig:
    """Relative tolerances used by every numerical decision.

    psd_tol      eigenvalue negativity allowance, relative to lambda_max
    rank_tol     singular value cutoff, relative to sigma_max * max(dims)
    equality_tol matrix equality, relative Frobenius
    """

    psd_tol: float = 1e-9
    rank_tol: float = 1e-8
    equality_tol: float = 1e-9

    def __post_init__(self):
        for name in ("psd_tol", "rank_tol", "equality_tol"):
            value = getattr(self, name)
            if not (0.0 < value < 1.0):
                raise ValueError(f"{name} must lie strictly between 0 and 1, got {value}")

    def to_json(self) -> dict:
        return dict(vars(self))


DEFAULT_TOLERANCES = ToleranceConfig()


@dataclass(frozen=True)
class BipartiteLayout:
    """Factor dimensions of a bipartite square matrix."""

    d_left: int
    d_right: int

    def __post_init__(self):
        if self.d_left < 1 or self.d_right < 1:
            raise DimensionMismatchError(
                f"factor dimensions must be positive, got ({self.d_left}, {self.d_right})"
            )

    @property
    def dim(self) -> int:
        return self.d_left * self.d_right


def as_matrix(x) -> np.ndarray:
    """Validate and return ``x`` as a finite 2-d complex array."""
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise DimensionMismatchError("matrix entries must be finite (no NaN/Inf)")
    return m


def _square(x) -> np.ndarray:
    """``x`` checked by ``as_matrix`` and square."""
    m = as_matrix(x)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got {m.shape}")
    return m


def _fitted(m: np.ndarray, layout: BipartiteLayout, side: str = "left") -> np.ndarray:
    """The 2-d array ``m``, checked to be square of side ``layout.dim``,
    with ``side`` one of SIDES."""
    if m.shape != (layout.dim, layout.dim):
        raise DimensionMismatchError(
            f"matrix shape {m.shape} does not match layout "
            f"({layout.d_left} x {layout.d_right} = {layout.dim})"
        )
    if side not in SIDES:
        raise DimensionMismatchError(f"side must be one of {SIDES}, got {side!r}")
    return m


def _unit_scale(*xs: np.ndarray) -> float:
    """A power of two near the largest entry magnitude of ``xs``. Division by
    it is exact, barring subnormal results, and leaves no entry above 2 in
    magnitude, so no square in a norm of the quotients overflows and no
    large one underflows."""
    largest = max(float(np.abs(x).max(initial=0.0)) for x in xs)
    return math.ldexp(1.0, min(max(math.frexp(largest)[1], -1021), 1023))


def frobenius(x: np.ndarray) -> float:
    """Frobenius norm, taken of x over ``_unit_scale(x)`` and scaled back:
    np.linalg.norm's value wherever that neither overflows nor underflows."""
    scale = _unit_scale(x)
    return scale * float(np.linalg.norm(x / scale))


def close_frobenius(x: np.ndarray, y: np.ndarray, tol: float) -> bool:
    """Symmetric relative Frobenius comparison: ||x - y|| <= tol * max(||x||, ||y||).

    Scale invariant at any finite scale: both sides are taken of x and y over
    their common ``_unit_scale``. Two zero matrices compare equal. Their
    plain norms are their ``frobenius``: the unit scale of the quotient with
    the largest entry is 1, and the other's norm can differ only where
    squares underflow, where it is the smaller one.
    """
    scale = _unit_scale(x, y)
    x, y = x / scale, y / scale
    return frobenius(x - y) <= tol * max(float(np.linalg.norm(x)), float(np.linalg.norm(y)))


def partial_trace(x, layout: BipartiteLayout, side: str) -> np.ndarray:
    """Trace out one tensor factor of a bipartite square matrix.

    ``side`` names the factor that is traced out: ``side="left"`` returns a
    d_right-dimensional matrix, ``side="right"`` a d_left-dimensional one.
    """
    return _partial_trace(_fitted(as_matrix(x), layout, side), layout, side)


def partial_transpose(x, layout: BipartiteLayout, side: str) -> np.ndarray:
    """Transpose one tensor factor in the computational basis. Involutive."""
    return _partial_transpose(_fitted(as_matrix(x), layout, side), layout, side)


def _partial_trace(m: np.ndarray, layout: BipartiteLayout, side: str) -> np.ndarray:
    """``partial_trace`` of a matrix already checked against ``layout``."""
    axis1, axis2 = (0, 2) if side == "left" else (1, 3)
    d_left, d_right = layout.d_left, layout.d_right
    return np.trace(m.reshape(d_left, d_right, d_left, d_right), axis1=axis1, axis2=axis2)


def _partial_transpose(m: np.ndarray, layout: BipartiteLayout, side: str) -> np.ndarray:
    """``partial_transpose`` of a matrix already checked against ``layout``."""
    axes = (2, 1, 0, 3) if side == "left" else (0, 3, 2, 1)
    four = m.reshape(layout.d_left, layout.d_right, layout.d_left, layout.d_right)
    return four.transpose(axes).reshape(layout.dim, layout.dim)


def hermitian_deviation(x: np.ndarray) -> float:
    """Relative Frobenius distance ||x - x^dagger|| / ||x||, in [0, 2], taken
    of x over its ``_unit_scale`` so that it is finite at any finite scale."""
    x = x / _unit_scale(x)
    norm = float(np.linalg.norm(x))  # frobenius(x), as in close_frobenius
    if norm == 0.0:
        return 0.0
    return frobenius(x - x.conj().T) / norm


def hermitian_eigensystem(
    x, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns ``(w, v)`` with real ``w`` sorted in descending order and
    orthonormal eigenvector columns ``v`` such that x ~ v @ diag(w) @ v^dagger.

    Raises
    ------
    NonHermitianError
        if ``||x - x^dagger||_F > equality_tol * ||x||_F``.
    EigensolverError
        if the LAPACK solver does not converge.
    """
    return _hermitian_eigensystem(_square(x), cfg)


def _hermitian_eigensystem(m: np.ndarray, cfg: ToleranceConfig):
    """``hermitian_eigensystem`` of a square matrix ``as_matrix`` has checked."""
    if hermitian_deviation(m) > cfg.equality_tol:
        raise NonHermitianError(
            f"matrix is not Hermitian within equality_tol={cfg.equality_tol}"
        )
    try:
        w, v = np.linalg.eigh(_hermitian_part(m))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigensolverError(str(exc)) from exc
    return w[::-1].copy(), v[:, ::-1].copy()


@dataclass(frozen=True)
class RankDecision:
    """Outcome of a numerical rank decision, with its tolerance gap.

    ``smallest_kept`` and ``largest_discarded`` document the gap around the
    cutoff; either is None when the corresponding side is empty. ``fragile``
    is set when any singular value lies within FRAGILITY_FACTOR of the cutoff.
    """

    rank: int
    cutoff: float
    smallest_kept: float | None
    largest_discarded: float | None
    fragile: bool

    def to_json(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True)
class PsdCheck:
    """Spectral record of a PSD test, sufficient to re-derive the verdict."""

    psd: bool
    hermitian: bool
    lambda_min: float
    lambda_max: float
    threshold: float

    def to_json(self) -> dict:
        return dict(vars(self))


def psd_rule(w: np.ndarray, cfg: ToleranceConfig):
    """``(psd, threshold)`` of ascending spectra on the last axis, elementwise
    over leading axes: PSD when ``lambda_min >= -psd_tol * lambda_max``.

    The threshold is relative to the spectrum, so no verdict changes under
    positive scaling. A spectrum with ``lambda_max <= 0`` gets threshold 0:
    the zero matrix passes (it is vacuously PSD) and every other one fails.
    """
    threshold = 0.0 - cfg.psd_tol * np.maximum(w[..., -1], 0.0)
    return w[..., 0] >= threshold, threshold


def rounding_band(w: np.ndarray) -> np.ndarray:
    """``ROUNDING_BAND * dim * eps * sigma_max`` of Hermitian spectra on the
    last axis, elementwise over leading axes."""
    return ROUNDING_BAND * w.shape[-1] * EPS * np.abs(w).max(axis=-1)


def rank_rule(w: np.ndarray, cfg: ToleranceConfig):
    """``(rank, cutoff, near)`` of Hermitian spectra on the last axis,
    elementwise over leading axes. The singular values are the moduli of the
    eigenvalues; those above ``rank_tol * sigma_max * dim`` count toward the
    rank. ``near`` marks, per eigenvalue, the singular values within
    FRAGILITY_FACTOR of that cutoff, and, where FRAGILITY_FACTOR times the
    cutoff lies inside the ``rounding_band``, those at or below the band,
    which no computed spectrum forces to either side of the cutoff; any one
    makes the decision fragile."""
    sigma = np.abs(w)
    cutoff = cfg.rank_tol * sigma.max(axis=-1) * w.shape[-1]
    edge = cutoff[..., None]
    near = (sigma > edge / FRAGILITY_FACTOR) & (sigma < edge * FRAGILITY_FACTOR)
    # The cutoff and the band both scale with sigma_max * dim, so only a
    # rank_tol this small puts FRAGILITY_FACTOR times the cutoff inside the band
    if FRAGILITY_FACTOR * cfg.rank_tol < ROUNDING_BAND * EPS:
        band = rounding_band(w)[..., None]
        near |= (sigma <= band) & (FRAGILITY_FACTOR * edge < band)
    return (sigma > edge).sum(axis=-1), cutoff, near


def _hermitian_part(x: np.ndarray) -> np.ndarray:
    """``(x + x^dagger) / 2``, formed as ``x/2 + x^dagger/2``: finite for every
    finite square ``x``, and the same bits wherever ``x + x^dagger`` neither
    overflows nor goes subnormal."""
    return x / 2.0 + x.conj().T / 2.0


def _hermitian_spectra(matrices: dict, cfg: ToleranceConfig, psd=()) -> tuple[dict, dict]:
    """The ascending eigenvalues of the Hermitian part of each of the square
    ``matrices``, keyed alike, from one eigvalsh call per distinct side:
    LAPACK decomposes each matrix of a stack as it would that matrix alone.
    Also the PSD record by ``psd_record`` of each matrix named in ``psd``,
    each with its own Hermitian check."""
    spectra = {}
    for side in {len(m) for m in matrices.values()}:
        keys = [key for key, m in matrices.items() if len(m) == side]
        stack = np.stack([_hermitian_part(matrices[key]) for key in keys])
        spectra.update(zip(keys, np.linalg.eigvalsh(stack)))
    tol = cfg.equality_tol
    return spectra, {key: psd_record(spectra[key], hermitian_deviation(matrices[key]) <= tol, cfg)
                     for key in psd}


def psd_record(w: np.ndarray, hermitian: bool, cfg: ToleranceConfig) -> PsdCheck:
    """PSD record of one ascending spectrum of a matrix's Hermitian part, by
    ``psd_rule``; ``hermitian`` says whether the matrix is Hermitian within
    equality_tol, as a PSD verdict requires."""
    psd, threshold = psd_rule(w, cfg)
    return PsdCheck(
        psd=bool(hermitian and psd),
        hermitian=bool(hermitian),
        lambda_min=float(w[0]),
        lambda_max=float(w[-1]),
        threshold=float(threshold),
    )


def rank_record(w: np.ndarray, cfg: ToleranceConfig) -> RankDecision:
    """Rank decision of one Hermitian spectrum, with its gap around the cutoff."""
    rank, cutoff, near = rank_rule(w, cfg)
    sigma = np.abs(w)
    kept, discarded = sigma[sigma > cutoff], sigma[sigma <= cutoff]
    return RankDecision(
        rank=int(rank),
        cutoff=float(cutoff),
        smallest_kept=float(kept.min()) if kept.size else None,
        largest_discarded=float(discarded.max()) if discarded.size else None,
        fragile=bool(near.any()),
    )


def rank_decision(x, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> RankDecision:
    """Numerical rank of a Hermitian matrix with audit data, by ``rank_rule``.
    Raises NonHermitianError if ``||x - x^dagger||_F > equality_tol * ||x||_F``."""
    w, check = _hermitian_spectra({"x": _square(x)}, cfg, ("x",))
    if not check["x"].hermitian:
        raise NonHermitianError(f"matrix is not Hermitian within equality_tol={cfg.equality_tol}")
    return rank_record(w["x"], cfg)


def psd_check(x, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> PsdCheck:
    """PSD test with recorded extremal eigenvalues.

    True iff the matrix is Hermitian within ``equality_tol`` and its
    spectrum passes ``psd_rule``.
    """
    return _hermitian_spectra({"x": _square(x)}, cfg, ("x",))[1]["x"]


def is_psd(x, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    return psd_check(x, cfg).psd
