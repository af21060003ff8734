"""Tests for the bipartite linear algebra primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chancert import (
    BipartiteLayout,
    NonHermitianError,
    ToleranceConfig,
    hermitian_eigensystem,
    is_psd,
    partial_trace,
    partial_transpose,
    psd_check,
    rank_decision,
)
from chancert.errors import DimensionMismatchError
from chancert.linalg import FRAGILITY_FACTOR, as_matrix

from conftest import complex_gaussian, random_hermitian, random_psd

L22 = BipartiteLayout(2, 2)


def bell_projector() -> np.ndarray:
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0  # |00> + |11>, unnormalized
    return np.outer(v, v.conj())


class TestToleranceConfig:
    def test_defaults(self):
        cfg = ToleranceConfig()
        assert cfg.psd_tol == 1e-9
        assert cfg.rank_tol == 1e-8
        assert cfg.equality_tol == 1e-9

    @pytest.mark.parametrize("bad", [0.0, -1e-3, 1.0, 2.0])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            ToleranceConfig(psd_tol=bad)


class TestAsMatrix:
    @pytest.mark.parametrize("entry", [
        complex(float("nan"), 0.0),
        complex(0.0, float("inf")),
        complex(0.0, float("-inf")),
        complex(float("inf"), float("nan")),
    ])
    def test_non_finite_entry_rejected(self, entry):
        m = np.eye(2, dtype=complex)
        m[1, 0] = entry
        with pytest.raises(DimensionMismatchError) as raised:
            as_matrix(m)
        assert str(raised.value) == "matrix entries must be finite (no NaN/Inf)"


class TestPartialTrace:
    def test_product_input_traces_to_factor(self):
        rng = np.random.default_rng(1)
        a = random_psd(rng, 2)
        b = random_psd(rng, 3)
        b = b / np.trace(b)
        x = np.kron(a, b)
        layout = BipartiteLayout(2, 3)
        np.testing.assert_allclose(partial_trace(x, layout, "right"), a, atol=1e-12)
        np.testing.assert_allclose(
            partial_trace(x, layout, "left"), np.trace(a) * b, atol=1e-12
        )

    def test_identity_left_trace(self):
        out = partial_trace(np.eye(4), L22, "left")
        np.testing.assert_array_equal(out, 2.0 * np.eye(2))

    def test_bell_marginal_is_identity(self):
        out = partial_trace(bell_projector(), L22, "right")
        np.testing.assert_allclose(out, np.eye(2), atol=1e-15)

    def test_trace_preserved(self):
        rng = np.random.default_rng(2)
        x = complex_gaussian(rng, (6, 6))
        layout = BipartiteLayout(2, 3)
        for side in ("left", "right"):
            assert np.trace(partial_trace(x, layout, side)) == pytest.approx(
                np.trace(x), abs=1e-13
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            partial_trace(np.eye(5), L22, "left")
        with pytest.raises(DimensionMismatchError):
            partial_trace(np.eye(4), L22, "up")


class TestPartialTranspose:
    def test_product_case(self):
        rng = np.random.default_rng(3)
        a = complex_gaussian(rng, (2, 2))
        b = complex_gaussian(rng, (3, 3))
        layout = BipartiteLayout(2, 3)
        np.testing.assert_allclose(
            partial_transpose(np.kron(a, b), layout, "left"), np.kron(a.T, b), atol=1e-14
        )
        np.testing.assert_allclose(
            partial_transpose(np.kron(a, b), layout, "right"), np.kron(a, b.T), atol=1e-14
        )

    def test_bell_becomes_swap(self):
        swap = partial_transpose(bell_projector(), L22, "left")
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 1.0
        expected[1, 2] = expected[2, 1] = 1.0
        np.testing.assert_array_equal(swap.real, expected)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(swap)), [-1.0, 1.0, 1.0, 1.0], atol=1e-12
        )

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), side=st.sampled_from(["left", "right"]))
    def test_involution_and_isometry(self, seed, side):
        rng = np.random.default_rng(seed)
        x = complex_gaussian(rng, (6, 6))
        layout = BipartiteLayout(2, 3)
        y = partial_transpose(x, layout, side)
        np.testing.assert_array_equal(partial_transpose(y, layout, side), x)
        assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(x), rel=1e-13)

    def test_preserves_hermiticity_and_trace(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = random_hermitian(rng, 6)
            layout = BipartiteLayout(2, 3)
            y = partial_transpose(x, layout, "left")
            assert np.linalg.norm(y - y.conj().T) < 1e-13
            assert np.trace(y) == pytest.approx(np.trace(x), abs=1e-13)

    def test_commutes_with_trace_on_other_factor(self):
        rng = np.random.default_rng(5)
        x = complex_gaussian(rng, (6, 6))
        layout = BipartiteLayout(2, 3)
        # tracing one factor after transposing the other transposes the result
        np.testing.assert_allclose(
            partial_trace(partial_transpose(x, layout, "left"), layout, "right"),
            partial_trace(x, layout, "right").T,
            atol=1e-14,
        )
        np.testing.assert_allclose(
            partial_trace(partial_transpose(x, layout, "right"), layout, "left"),
            partial_trace(x, layout, "left").T,
            atol=1e-14,
        )
        # tracing the transposed factor is transparent
        np.testing.assert_allclose(
            partial_trace(partial_transpose(x, layout, "left"), layout, "left"),
            partial_trace(x, layout, "left"),
            atol=1e-14,
        )


class TestHermitianEigensystem:
    def test_identity(self):
        w, v = hermitian_eigensystem(np.eye(3))
        np.testing.assert_array_equal(w, [1.0, 1.0, 1.0])
        np.testing.assert_allclose(v @ v.conj().T, np.eye(3), atol=1e-14)

    def test_diagonal_sorted_descending(self):
        w, _ = hermitian_eigensystem(np.diag([2.0, -1.0]))
        np.testing.assert_array_equal(w, [2.0, -1.0])

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            hermitian_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_largest_power_of_two_does_not_overflow(self):
        w, v = hermitian_eigensystem(2.0**1023 * np.eye(3))
        np.testing.assert_array_equal(w, [2.0**1023] * 3)
        np.testing.assert_allclose(v @ v.conj().T, np.eye(3), atol=1e-14)

    def test_reconstruction_on_many_random_matrices(self, cfg):
        # 1000 random Hermitian matrices up to dimension 16
        rng = np.random.default_rng(6)
        for trial in range(1000):
            n = int(rng.integers(1, 17))
            x = random_hermitian(rng, n)
            w, v = hermitian_eigensystem(x, cfg)
            assert np.all(np.diff(w) <= 1e-13)
            residual = np.linalg.norm(v @ np.diag(w) @ v.conj().T - x)
            assert residual <= 10 * cfg.equality_tol * max(np.linalg.norm(x), 1e-30)
            assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= cfg.equality_tol * n


class TestNumericalRank:
    def test_zero_matrix(self):
        assert rank_decision(np.zeros((4, 4))).rank == 0

    def test_bell_projector_rank_one(self):
        assert rank_decision(bell_projector()).rank == 1

    def test_kron_rank_multiplies(self):
        rng = np.random.default_rng(7)
        a = random_psd(rng, 3, rank=2)
        b = random_psd(rng, 4, rank=3)
        assert rank_decision(np.kron(a, b)).rank == 6

    def test_decision_gap_fields(self, cfg):
        x = np.diag([1.0, 1e-3, 0.0])
        dec = rank_decision(x, cfg)
        assert dec.rank == 2
        assert dec.smallest_kept == pytest.approx(1e-3)
        assert dec.largest_discarded == pytest.approx(0.0)
        assert not dec.fragile

    def test_fragile_near_cutoff(self):
        cfg = ToleranceConfig(rank_tol=1e-6)
        # cutoff = 1e-6 * 1 * 2; a singular value at 5e-6 sits inside the window
        dec = rank_decision(np.diag([1.0, 5e-6]), cfg)
        assert dec.fragile

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            rank_decision(np.array([[1.0, 1.0], [0.0, 1.0]]))

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 16),
           kind=st.sampled_from(["psd", "indefinite", "rank-deficient", "near-cutoff"]),
           log_scale=st.floats(-12.0, 12.0))
    def test_agrees_with_svd_reference(self, seed, n, kind, log_scale):
        # the singular values of a Hermitian matrix are the moduli of its
        # eigenvalues, so the decision matches one taken on svd
        cfg = ToleranceConfig()
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(n)
        if kind == "psd":
            w = np.abs(w)
        elif kind == "rank-deficient":
            w[rng.integers(0, n + 1):] = 0.0
        elif kind == "near-cutoff":  # one eigenvalue around the fragility window
            w[-1] = np.abs(w).max() * cfg.rank_tol * n * 10.0 ** rng.uniform(-1.5, 1.5)
        q, _ = np.linalg.qr(complex_gaussian(rng, (n, n)))
        x = 10.0**log_scale * (q * w) @ q.conj().T

        sigma = np.linalg.svd(x, compute_uv=False)
        cutoff = cfg.rank_tol * sigma[0] * n
        kept, discarded = sigma[sigma > cutoff], sigma[sigma <= cutoff]
        fragile = np.any((sigma > cutoff / FRAGILITY_FACTOR) & (sigma < cutoff * FRAGILITY_FACTOR))
        dec = rank_decision(x, cfg)
        assert (dec.rank, dec.fragile) == (kept.size, fragile)
        gap = 1e-12 * sigma[0]
        assert abs(dec.cutoff - cutoff) <= gap
        for got, want in ((dec.smallest_kept, kept[-1:]), (dec.largest_discarded, discarded[:1])):
            assert (got is None) == (want.size == 0)
            assert want.size == 0 or abs(got - want[0]) <= gap


class TestIsPsd:
    def test_identity(self):
        assert is_psd(np.eye(3))

    def test_small_negative_eigenvalue_rejected(self):
        assert not is_psd(np.diag([1.0, -1e-3]))

    def test_tiny_negative_within_tolerance(self):
        assert is_psd(np.diag([1.0, -1e-12]))

    def test_partial_transpose_of_bell_not_psd(self):
        assert not is_psd(partial_transpose(bell_projector(), L22, "left"))

    def test_non_hermitian_is_not_psd(self):
        assert not is_psd(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_threshold_is_relative_to_the_spectrum(self, cfg):
        # a negativity that is tiny in absolute terms but large next to
        # lambda_max is rejected at every scale
        for scale in (1e-12, 1.0, 1e12):
            chk = psd_check(scale * np.diag([1.0, -1e-3]), cfg)
            assert chk.threshold == pytest.approx(-cfg.psd_tol * scale)
            assert not chk.psd

    def test_zero_matrix_is_vacuously_psd(self, cfg):
        chk = psd_check(np.zeros((3, 3)), cfg)
        assert chk.psd
        assert chk.threshold == 0.0

    def test_negative_semidefinite_is_rejected_at_any_scale(self):
        assert not is_psd(np.diag([-1e-12, 0.0]))

    def test_check_records_spectrum(self, cfg):
        chk = psd_check(np.diag([2.0, -1.0]), cfg)
        assert chk.lambda_max == pytest.approx(2.0)
        assert chk.lambda_min == pytest.approx(-1.0)
        assert not chk.psd
