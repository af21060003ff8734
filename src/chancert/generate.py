"""Structured and random instance generators.

Randomness is deterministic and versioned: all streams come from numpy's
PCG64 bit generator. A sampling harness derives per-sample streams with
``SeedSequence(seed, spawn_key=(index,))``, so any sample can be replayed
exactly from the (seed, index) pair recorded in its report. Seeds and
indices may be any non-negative integers.

``random_dilation_stack`` computes those seed sequences in bulk instead of
building a ``SeedSequence`` per sample: the mixing of the seed's words is a
pure function of the seed and is cached, each index only mixes in its own
words, and the stream state words reach ``PCG64`` through numpy's
``ISeedSequence`` interface, so PCG64 seeds itself from them as it would
from the ``SeedSequence``. The replica follows numpy's ``SeedSequence``
(``numpy/random/bit_generator.pyx``) with its default pool of four words;
the tests compare it with numpy bit for bit.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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
        if self.kind != "random-stinespring":
            for name in ("seed", "index"):
                if getattr(self, name) is not None:
                    raise ValueError(f"{name} applies only to random-stinespring; "
                                     f"{self.kind} draws no randomness")
            if self.normalize_columns:
                raise ValueError(f"normalize applies only to random-stinespring, not {self.kind}")
        if self.params and self.kind != "schur":
            raise ValueError(f"params applies only to schur, not {self.kind}")
        if self.dims and self.kind in ("tiles", "schur"):
            raise ValueError(f"dims does not apply to {self.kind}, which fixes its own dimensions")

    def to_json(self) -> dict:
        record = {
            "kind": self.kind,
            "dims": list(self.dims),
            "params": list(self.params),
            "seed": self.seed,
            "index": self.index,
            "normalize_columns": self.normalize_columns,
        }
        if self.kind == "random-stinespring":
            record.update(algorithm=GENERATOR_ALGORITHM, seed_derivation=SEED_DERIVATION)
        return record


# numpy's SeedSequence, replicated for ``random_dilation_stack``: its
# default pool size, hash and mix constants.
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _non_negative(name: str, value) -> int:
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value}")
    return value


def _uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of n >= 0, as SeedSequence splits it; 0 is one word."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hashmix(value: int, hash_const: int) -> tuple[int, int]:
    """SeedSequence's hashmix: the hashed value and the next hash constant."""
    value ^= hash_const
    hash_const = hash_const * _MULT_A & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> 16, hash_const


def _mix(x: int, y: int) -> int:
    """SeedSequence's mix of a hashed value y into a pool word x."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def _mix_word(pool: tuple, hash_const: int, word: int) -> tuple[tuple, int]:
    """Mix an entropy word past the pool size into every pool word."""
    mixed = []
    for x in pool:
        value, hash_const = _hashmix(word, hash_const)
        mixed.append(_mix(x, value))
    return tuple(mixed), hash_const


@functools.lru_cache(maxsize=32)
def _seed_pool(seed: int) -> tuple[tuple, int]:
    """Pool and hash constant of ``SeedSequence(seed, spawn_key=key)`` once
    the seed's words are mixed in; the words of ``key`` follow.

    numpy pads a seed shorter than the pool with zero words when a spawn key
    follows. Hashing 0 for a missing word is what the first loop does
    anyway, so with an empty key this is also the pool of ``SeedSequence(seed)``.
    """
    entropy = _uint32_words(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    hash_const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        value, hash_const = _hashmix(word, hash_const)
        pool.append(value)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                value, hash_const = _hashmix(pool[i_src], hash_const)
                pool[i_dst] = _mix(pool[i_dst], value)
    pool = tuple(pool)
    for word in entropy[_POOL_SIZE:]:
        pool, hash_const = _mix_word(pool, hash_const, word)
    return pool, hash_const


def _pcg64_state_hashes() -> tuple[tuple[int, int, int, int], ...]:
    """Hash constants of SeedSequence.generate_state's first 8 uint32 words,
    paired into the 4 little-endian uint64 words PCG64 seeds itself from.

    Word i is xor'ed with constant i and multiplied by constant i + 1.
    """
    c = [_INIT_B]
    for _ in range(8):
        c.append(c[-1] * _MULT_B & _MASK32)
    return tuple((c[i], c[i + 1], c[i + 1], c[i + 2]) for i in range(0, 8, 2))


_PCG64_STATE_HASHES = _pcg64_state_hashes()


class _PoolSeed(ISeedSequence):
    """The seed sequence of a mixed pool, as PCG64 reads it: ``generate_state(4, np.uint64)``."""

    __slots__ = ("pool",)

    def __init__(self, pool: tuple):
        self.pool = pool

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("only PCG64's request, 4 uint64 words, is supported")
        p0, p1, p2, p3 = self.pool  # the 8 uint32 words cycle through the pool twice
        state = []
        for (low, high), (xor_low, mult_low, xor_high, mult_high) in zip(
            ((p0, p1), (p2, p3), (p0, p1), (p2, p3)), _PCG64_STATE_HASHES
        ):
            low = (low ^ xor_low) * mult_low & _MASK32
            high = (high ^ xor_high) * mult_high & _MASK32
            state.append((low ^ low >> 16) | (high ^ high >> 16) << 32)
        return np.array(state, dtype=np.uint64)


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

    Sample i draws the real parts, then the imaginary parts, from
    ``Generator(PCG64(SeedSequence(seed, spawn_key=(i,))))`` and divides by
    sqrt(2). An index of None draws from the stream of ``seed`` itself.
    Raises ValueError for a negative seed or index.
    """
    if min(d_a, d_b, d_c) < 1:
        raise DimensionMismatchError("all dimensions must be at least 1")
    pool, hash_const = _seed_pool(_non_negative("seed", seed))
    draws = np.empty((len(indices), 2, d_b * d_c, d_a))
    for k, index in enumerate(indices):
        sample_pool, sample_hash = pool, hash_const
        if index is not None:
            for word in _uint32_words(_non_negative("index", index)):
                sample_pool, sample_hash = _mix_word(sample_pool, sample_hash, word)
        generator = np.random.Generator(np.random.PCG64(_PoolSeed(sample_pool)))
        generator.standard_normal(out=draws[k])
    return (draws[:, 0] + 1j * draws[:, 1]) / np.sqrt(2.0)


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


def build(spec: GeneratorSpec):
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
