"""Structured and random instance generators.

Randomness is deterministic and versioned: all streams come from numpy's
PCG64 bit generator. A sampling harness derives per-sample streams with
``SeedSequence(seed, spawn_key=(index,))``, so any sample can be replayed
exactly from the (seed, index) pair recorded in its report. Seeds and
indices may be any non-negative integers.

``random_dilation_stack`` computes those seed sequences in bulk instead of
building a ``SeedSequence`` per sample. numpy's ``SeedSequence(seed)`` mixes
the seed's words, once per seed (the pool is cached). A replica of its
mixing then mixes in the indices' words, and hashes out PCG64's four seed
words (``generate_state(4, np.uint64)``), for all samples at once: as uint64
arrays of 32-bit words, one column per word, where an index with fewer
words leaves its pool unchanged in the extra columns. Each sample's seed
words reach ``PCG64`` through numpy's ``ISeedSequence`` interface, so PCG64
seeds itself from them as it would from the ``SeedSequence``. The replica
follows numpy's ``SeedSequence`` (``numpy/random/bit_generator.pyx``) with
its default pool of four words; the tests compare it with numpy bit for bit.
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
GENERATOR_KINDS = NAMED_CHANNEL_KINDS + ("schur", "tiles", "random-stinespring")


@dataclass(frozen=True)
class GeneratorSpec:
    """Serializable recipe for one generated object. Same spec, same bits.
    Every argument check of ``build`` runs on construction."""

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
        if self.kind in NAMED_CHANNEL_KINDS and len(self.dims) != 1:
            raise ValueError(f"{self.kind} takes exactly one dimension")
        if self.kind == "schur" and not self.params:
            raise ValueError("schur requires the diagonal weights as params")
        if min(self.params, default=0.0) < 0:
            raise ValueError("entrywise multiplier weights must be nonnegative")
        if not np.all(np.isfinite(self.params)):
            raise ValueError("entrywise multiplier weights must be finite")
        if self.kind == "random-stinespring":
            if len(self.dims) != 3:
                raise ValueError("random-stinespring requires dims d_a,d_b,d_c")
            if self.seed is None:
                raise ValueError("random-stinespring requires a seed")
        if min(self.dims, default=1) < 1:
            noun = "dimension" if len(self.dims) == 1 else "all dimensions"
            raise ValueError(f"{noun} must be at least 1")

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


# numpy's SeedSequence, replicated for ``random_dilation_stack`` to mix the
# index words in bulk: its default pool size, hash and mix constants.
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


# The mixing functions act elementwise on uint64 arrays of 32-bit words:
# every product of two words fits 64 bits, and a difference that wraps
# around 2**64 keeps its residue modulo 2**32.


def _hashmix(value, hash_const, mult: int = _MULT_A):
    """SeedSequence's hashmix: the hashed value and the next hash constant.
    With ``mult = _MULT_B`` it is the hash of a ``generate_state`` word."""
    value = value ^ hash_const
    hash_const = hash_const * mult & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> 16, hash_const


def _mix(x, y):
    """SeedSequence's mix of a hashed value y into a pool word x."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


@functools.lru_cache(maxsize=64)
def _hash_run(hash_const: int, count: int, mult: int = _MULT_A) -> np.ndarray:
    """The hash constants of ``count`` successive hashmix calls, from hash_const
    on, read-only: every command mixing an index into a seed of as many
    words starts from the same constant."""
    run = [hash_const]
    for _ in range(count - 1):
        run.append(run[-1] * mult & _MASK32)
    run = np.array(run, dtype=np.uint64)
    run.flags.writeable = False
    return run


@functools.lru_cache(maxsize=32)
def _seed_pool(seed: int) -> tuple[np.ndarray, int]:
    """Pool and hash constant of ``SeedSequence(seed, spawn_key=key)`` once
    the seed's words are mixed in; the words of ``key`` follow.

    numpy pads a seed shorter than the pool with zero words when a spawn key
    follows, and hashes 0 for a missing word when none does, so the pool is
    that of ``SeedSequence(seed)``. Mixing in w words, w at least the pool
    size, takes _POOL_SIZE * w hashmix calls, each advancing the hash
    constant once.
    """
    pool = np.random.SeedSequence(seed).pool.astype(np.uint64)
    pool.flags.writeable = False
    words = max((seed.bit_length() + 31) // 32, _POOL_SIZE)
    return pool, _INIT_A * pow(_MULT_A, _POOL_SIZE * words, _MASK32 + 1) & _MASK32


def _index_words(indices) -> tuple[np.ndarray, list[int]]:
    """The spawn-key words of each index, one row per index: a uint64 array
    of 32-bit words, little-endian along the columns, and how many of them
    exist. An index of None has no words."""
    values = [None if i is None else _non_negative("index", i) for i in indices]
    counts = [0 if v is None else (v.bit_length() + 31) // 32 or 1 for v in values]
    rest = [v or 0 for v in values]
    words = np.empty((len(values), max(counts, default=0)), dtype=np.uint64)
    for t, column in enumerate(words.T):
        column[:] = [v >> 32 * t & _MASK32 for v in rest]
    return words, counts


def _spawn_key(indices):
    """The memo key of ``_key_hashes`` for ``indices``: a range is its own,
    anything else is the tuple of its indices as ints, so that an index that
    is no integer, such as 1.0, never finds the entry of an equal one."""
    if isinstance(indices, range):
        return indices
    return tuple(None if i is None else operator.index(i) for i in indices)


# One entry holds a uint64 array of 4 words per index and word column: 256
# KiB per column for a chunk's largest index set, 8192 samples at (1, 1, 1).
@functools.lru_cache(maxsize=4)
def _key_hashes(indices, hash_const: int) -> tuple[np.ndarray, np.ndarray]:
    """The hashed spawn-key words of ``indices``, a ``_spawn_key``, mixed in
    after a seed that leaves the hash constant at ``hash_const``: per word
    column t, the hashmix of each index's t-th word with the constants that
    mix it into the pool words, shape (columns, n, _POOL_SIZE), and whether
    the index has that word, shape (columns, n, 1). Both are read-only, and
    depend on the seed only through ``hash_const``, one value for every seed
    below 2^128."""
    words, counts = _index_words(indices)
    hashed = np.empty((words.shape[1], len(words), _POOL_SIZE), dtype=np.uint64)
    for t, column in enumerate(words.T):
        hashed[t], consts = _hashmix(column[:, None], _hash_run(hash_const, _POOL_SIZE))
        hash_const = int(consts[-1])
    present = np.greater.outer(counts, np.arange(words.shape[1])).T[..., None]
    hashed.flags.writeable = present.flags.writeable = False
    return hashed, present


# generate_state(4, np.uint64) hashes 8 uint32 words, cycling through the
# pool twice, and reads them in pairs as little-endian uint64 words.
_STATE_WORDS = np.arange(8) % _POOL_SIZE
_STATE_HASHES = _hash_run(_INIT_B, 8, _MULT_B)


def _stream_states(seed: int, indices) -> np.ndarray:
    """PCG64's seed words of ``SeedSequence(seed, spawn_key=(i,))`` for each i
    in ``indices``: ``generate_state(4, np.uint64)``, one row per index. Only
    the mix of the indices' hashed words (``_key_hashes``) into the seed's
    pool, and the hash of the state words, are computed on every call."""
    seed_pool, hash_const = _seed_pool(_non_negative("seed", seed))
    hashed, present = _key_hashes(_spawn_key(indices), hash_const)
    pool = np.tile(seed_pool, (hashed.shape[1], 1))
    for values, has_word in zip(hashed, present):
        pool = np.where(has_word, _mix(pool, values), pool)
    state, _ = _hashmix(pool[:, _STATE_WORDS], _STATE_HASHES, _MULT_B)
    return state.astype(np.uint32, order="C").view(np.uint64)


class _StreamSeed(ISeedSequence):
    """A seed sequence as PCG64 reads it: its ``generate_state(4, np.uint64)``."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        # PCG64 asks for (4, np.uint64): no dtype is built for that request
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError("only PCG64's request, 4 uint64 words, is supported")
        return self.state


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
    ``Generator(PCG64(SeedSequence(seed, spawn_key=(i,))))`` and multiplies
    them by 1 / sqrt(2), the reciprocal that numpy's complex division by
    sqrt(2) applies: a nonzero draw gets the bits of
    ``(re + 1j * im) / np.sqrt(2.0)``, and a zero keeps its sign. An index of
    None draws from the stream of ``seed`` itself.
    The streams' seed words are derived for all indices at once; each sample
    then costs one ``PCG64``, one ``Generator`` and its draw. The indices'
    hashed spawn-key words are memoized for the last 4 index sets, read-only,
    which pays where one process draws the same indices again under a seed
    of as many words, as repeated harness commands do. Raises ValueError
    for a negative seed or index.
    """
    if min(d_a, d_b, d_c) < 1:
        raise DimensionMismatchError("all dimensions must be at least 1")
    states = _stream_states(seed, indices)
    draws = np.empty((len(states), 2, d_b * d_c, d_a))
    for state, out in zip(states, draws):
        np.random.Generator(np.random.PCG64(_StreamSeed(state))).standard_normal(out=out)
    stack = np.empty(draws.shape[:1] + draws.shape[2:], dtype=complex)
    np.multiply(draws[:, 0], 1.0 / np.sqrt(2.0), out=stack.real)
    np.multiply(draws[:, 1], 1.0 / np.sqrt(2.0), out=stack.imag)
    return stack


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
    """Materialize a GeneratorSpec, which has checked its arguments, into (role, object).

    Roles: 'choi' yields a ChoiMatrix, 'state' a ChoiMatrix-shaped bipartite
    state (the tiles matrix), 'stinespring' a StinespringOperator.
    """
    if spec.kind in NAMED_CHANNEL_KINDS:
        return "choi", named_channel(spec.kind, *spec.dims)
    if spec.kind == "tiles":
        return "state", tiles_upb_choi()
    if spec.kind == "schur":
        return "stinespring", schur_stinespring(spec.params)
    return "stinespring", random_stinespring(
        *spec.dims, seed=spec.seed, index=spec.index, normalize_columns=spec.normalize_columns
    )
