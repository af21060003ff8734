import numpy as np
import pytest
from hypothesis import settings

from chancert import DEFAULT_TOLERANCES, schur_stinespring

# A longer random search of tests/test_engine_fuzz.py, loaded with
# --hypothesis-profile=engine-fuzz.
settings.register_profile("engine-fuzz", max_examples=2000, deadline=None)


@pytest.fixture
def cfg():
    return DEFAULT_TOLERANCES


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """A Haar-random unitary: QR of a complex Gaussian, phases of R's diagonal
    moved into Q."""
    q, r = np.linalg.qr(complex_gaussian(rng, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotated_schur_stack(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    """n dilations of diagonal entrywise multipliers, weights in [0.5, 1), each
    under Haar unitaries on a, b and c, stacked as the harness draws them:
    shape (n, d * d, d). Both maps of every pair are PPT and entanglement
    breaking, with Choi rank d."""
    return np.stack([
        np.kron(haar_unitary(rng, d), haar_unitary(rng, d))
        @ schur_stinespring(rng.uniform(0.5, 1.0, d)).matrix @ haar_unitary(rng, d)
        for _ in range(n)
    ])


def gaussian_stack(rng: np.random.Generator, dims, n: int) -> np.ndarray:
    """n complex Gaussian dilations at ``dims`` = (d_a, d_b, d_c), stacked as
    the harness draws them: shape (n, d_b * d_c, d_a)."""
    d_a, d_b, d_c = dims
    return complex_gaussian(rng, (n, d_b * d_c, d_a))


def low_rank_stack(rng: np.random.Generator, dims, n: int, k: int) -> np.ndarray:
    """n dilations V = G H of rank at most k, G and H complex Gaussian with
    inner dimension k, stacked as ``gaussian_stack``."""
    d_a, d_b, d_c = dims
    return complex_gaussian(rng, (n, d_b * d_c, k)) @ complex_gaussian(rng, (n, k, d_a))


def classical_copy_stack(rng: np.random.Generator, dims, n: int) -> np.ndarray:
    """n dilations V|i> = sum_j sqrt(p(j|i)) |j>_B |j>_C, j < min(d_b, d_c),
    each p(.|i) uniform on the simplex, under Haar unitaries on a, b and c,
    stacked as ``gaussian_stack``. Both maps of every pair measure and
    prepare, so both are entanglement breaking."""
    d_a, d_b, d_c = dims
    m = min(d_b, d_c)
    copy = np.zeros((n, d_b, d_c, d_a))
    p = rng.dirichlet(np.ones(m), (n, d_a))
    copy[:, np.arange(m), np.arange(m)] = np.sqrt(p).swapaxes(1, 2)
    return np.stack([
        np.kron(haar_unitary(rng, d_b), haar_unitary(rng, d_c)) @ v.reshape(d_b * d_c, d_a)
        @ haar_unitary(rng, d_a)
        for v in copy
    ])


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = complex_gaussian(rng, (n, n))
    return (g + g.conj().T) / 2.0


def random_psd(rng: np.random.Generator, n: int, rank: int | None = None) -> np.ndarray:
    k = n if rank is None else rank
    g = complex_gaussian(rng, (n, k))
    return g @ g.conj().T


def slightly_negative_choi() -> np.ndarray:
    """A 4x4 Hermitian matrix with eigenvalues (1, 0.5, 0, -0.05): PSD only
    under a loose psd_tol, and with a negative eigenvalue above any rank cutoff."""
    hadamard = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2.0
    return (hadamard * [1.0, 0.5, 0.0, -0.05]) @ hadamard.T + 0j
