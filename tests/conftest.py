import numpy as np
import pytest

from chancert import DEFAULT_TOLERANCES, schur_stinespring


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
