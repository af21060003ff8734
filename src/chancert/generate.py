"""Structured and random instance generators.

Randomness is deterministic and versioned: all streams come from numpy's
PCG64 bit generator. A sampling harness derives per-sample streams with
``SeedSequence(seed, spawn_key=(index,))``, so any sample can be replayed
exactly from the (seed, index) pair recorded in its report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    ChoiMatrix,
    StinespringOperator,
    choi_from_map_action,
    kraus_from_choi,
    stinespring_from_kraus,
)
from .complement import ComplementaryPair, complementary_pair_from_stinespring
from .errors import DimensionMismatchError
from .linalg import DEFAULT_TOLERANCES, ToleranceConfig

GENERATOR_ALGORITHM = "numpy-pcg64"
SEED_DERIVATION = "SeedSequence(seed, spawn_key=(index,))"

NAMED_CHANNEL_KINDS = ("identity", "transpose", "dephasing", "depolarizing")
GENERATOR_KINDS = NAMED_CHANNEL_KINDS + ("random-stinespring", "schur", "tiles")


@dataclass(frozen=True)
class GeneratorSpec:
    """Serializable recipe for one generated object. Same spec, same bits."""

    kind: str
    dims: tuple[int, ...] = ()
    params: tuple[float, ...] = ()
    seed: int | None = None
    index: int | None = None
    normalize_columns: bool = False

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise DimensionMismatchError(f"unknown generator kind {self.kind!r}")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "dims": list(self.dims),
            "params": list(self.params),
            "seed": self.seed,
            "index": self.index,
            "normalize_columns": self.normalize_columns,
            "algorithm": GENERATOR_ALGORITHM,
            "seed_derivation": SEED_DERIVATION,
        }


def make_rng(seed: int, index: int | None = None) -> np.random.Generator:
    """Deterministic PCG64 stream for a seed, optionally sample-derived."""
    if index is None:
        sequence = np.random.SeedSequence(seed)
    else:
        sequence = np.random.SeedSequence(seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(sequence))


def random_stinespring(
    d_a: int,
    d_b: int,
    d_c: int,
    seed: int,
    index: int | None = None,
    normalize_columns: bool = False,
) -> StinespringOperator:
    """Dilation with i.i.d. standard complex Gaussian entries.

    Entry variance is 1 (real and imaginary parts each N(0, 1/2)). With
    ``normalize_columns`` the columns are scaled to unit norm, which makes
    the traced map trace-scaled on basis states.
    """
    m = random_dilation_stack(d_a, d_b, d_c, seed, [index])[0]
    if normalize_columns:
        m = m / np.linalg.norm(m, axis=0, keepdims=True)
    return StinespringOperator(d_a, d_b, d_c, m)


def random_dilation_stack(d_a: int, d_b: int, d_c: int, seed: int, indices) -> np.ndarray:
    """Matrices of ``random_stinespring(d_a, d_b, d_c, seed, i)`` for each i in
    ``indices``, bit for bit, stacked into shape ``(len(indices), d_b * d_c, d_a)``.

    An index of None draws from the stream of ``seed`` itself.
    """
    if min(d_a, d_b, d_c) < 1:
        raise DimensionMismatchError("all dimensions must be at least 1")
    shape = (d_b * d_c, d_a)
    out = np.empty((len(indices),) + shape, dtype=complex)
    for k, index in enumerate(indices):
        rng = make_rng(seed, index)
        out[k] = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return out


def schur_stinespring(t) -> StinespringOperator:
    """Canonical dilation of the diagonal entrywise multiplier X -> T (.) X.

    For T = diag(t) the map sends X to sum_i t_i X_ii |i><i|; its Kraus
    operators are sqrt(t_i) |i><i| and the dilation maps |i> to
    sqrt(t_i) |i>_B |i>_C. The pair it generates is self-complementary.
    """
    weights = np.asarray(t, dtype=float)
    if weights.ndim != 1 or weights.size < 1:
        raise DimensionMismatchError("t must be a nonempty vector")
    if np.any(weights < 0):
        raise DimensionMismatchError("entrywise multiplier weights must be nonnegative")
    d = weights.size
    m = np.zeros((d * d, d), dtype=complex)
    for i in range(d):
        m[i * d + i, i] = np.sqrt(weights[i])
    return StinespringOperator(d, d, d, m)


def schur_multiplier_pair(
    t, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> ComplementaryPair:
    """Complementary pair of the diagonal entrywise multiplier family."""
    return complementary_pair_from_stinespring(schur_stinespring(t), cfg)


def tiles_upb_vectors() -> np.ndarray:
    """The five 'tiles' unextendible product vectors in C^3 (x) C^3, as rows."""
    e = np.eye(3, dtype=complex)
    s2 = 1.0 / np.sqrt(2.0)
    uniform = (e[0] + e[1] + e[2]) / np.sqrt(3.0)
    pairs = [
        (e[0], s2 * (e[0] - e[1])),
        (e[2], s2 * (e[1] - e[2])),
        (s2 * (e[0] - e[1]), e[2]),
        (s2 * (e[1] - e[2]), e[0]),
        (uniform, uniform),
    ]
    return np.stack([np.kron(a, b) for a, b in pairs])


def tiles_upb_choi() -> ChoiMatrix:
    """Normalized projector onto the orthocomplement of the tiles vectors.

    A 3 (x) 3 PSD matrix with trace 1, rank 4, full-rank marginals, and
    positive partial transpose. Treated as the Choi matrix of a CP map, it
    exercises the branch where a map is PPT but the low-rank separability
    regime does not apply to it. Its entanglement is documented in the
    literature; the certificates here deliberately return unknown for it.
    """
    vectors = tiles_upb_vectors()
    projector = np.eye(9, dtype=complex) - vectors.T @ vectors.conj()
    return ChoiMatrix(3, 3, projector / 4.0)


def tiles_stinespring(cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> StinespringOperator:
    """Dilation of the tiles Choi matrix (environment dimension 4)."""
    return stinespring_from_kraus(kraus_from_choi(tiles_upb_choi(), cfg))


def named_channel(kind: str, d: int) -> ChoiMatrix:
    """Choi matrix of a reference channel, assembled exactly."""
    if d < 1:
        raise DimensionMismatchError("dimension must be at least 1")
    if kind == "identity":
        return choi_from_map_action(lambda e: e, d, d)
    if kind == "transpose":
        return choi_from_map_action(lambda e: e.T.copy(), d, d)
    if kind == "dephasing":
        return choi_from_map_action(lambda e: np.diag(np.diag(e)), d, d)
    if kind == "depolarizing":
        eye = np.eye(d, dtype=complex)
        return choi_from_map_action(lambda e: (np.trace(e) / d) * eye, d, d)
    raise DimensionMismatchError(f"unknown channel kind {kind!r}")


def build(spec: GeneratorSpec, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
    """Materialize a GeneratorSpec into (role, object).

    Roles: 'choi' yields a ChoiMatrix, 'state' a ChoiMatrix-shaped bipartite
    state (the tiles matrix), 'stinespring' a StinespringOperator.
    """
    if spec.kind in NAMED_CHANNEL_KINDS:
        if len(spec.dims) != 1:
            raise DimensionMismatchError(f"{spec.kind} takes exactly one dimension")
        return "choi", named_channel(spec.kind, spec.dims[0])
    if spec.kind == "tiles":
        return "state", tiles_upb_choi()
    if spec.kind == "schur":
        if not spec.params:
            raise DimensionMismatchError("schur requires the diagonal weights as params")
        return "stinespring", schur_stinespring(spec.params)
    if spec.kind == "random-stinespring":
        if len(spec.dims) != 3:
            raise DimensionMismatchError("random-stinespring requires dims d_a,d_b,d_c")
        if spec.seed is None:
            raise DimensionMismatchError("random-stinespring requires a seed")
        return "stinespring", random_stinespring(
            *spec.dims, seed=spec.seed, index=spec.index,
            normalize_columns=spec.normalize_columns,
        )
    raise DimensionMismatchError(f"unknown generator kind {spec.kind!r}")
