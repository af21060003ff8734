"""Tests for map representations and conversions."""

import numpy as np
import pytest

from chancert import (
    ChoiMatrix,
    KrausSet,
    NotPositiveSemidefiniteError,
    StinespringOperator,
    ToleranceConfig,
    apply_channel,
    choi_from_kraus,
    choi_from_map_action,
    choi_from_stinespring,
    choi_from_transfer,
    compose,
    is_cocp,
    is_cp,
    is_ppt_map,
    is_trace_preserving,
    kraus_from_choi,
    kraus_from_stinespring,
    named_channel,
    partial_transpose,
    rank_decision,
    stinespring_from_kraus,
    transfer_from_choi,
)

from conftest import complex_gaussian, random_psd, slightly_negative_choi


def random_cp_choi(rng, d_a, d_b, rank=None):
    dim = d_a * d_b
    return ChoiMatrix(d_a, d_b, random_psd(rng, dim, rank=rank))


class TestChoiAssembly:
    def test_identity_map_gives_bell(self):
        choi = choi_from_map_action(lambda e: e, 2, 2)
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 1.0
        np.testing.assert_array_equal(choi.matrix.real, expected)

    def test_depolarizing_gives_scaled_identity(self):
        choi = choi_from_map_action(lambda e: np.trace(e) * np.eye(2) / 2.0, 2, 2)
        np.testing.assert_array_equal(choi.matrix, np.eye(4) / 2.0)

    def test_transpose_map_gives_swap(self):
        choi = choi_from_map_action(lambda e: e.T.copy(), 2, 2)
        swap = np.zeros((4, 4))
        swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
        np.testing.assert_array_equal(choi.matrix.real, swap)


class TestApplyChannel:
    def test_identity_choi_acts_as_identity(self):
        ident = named_channel("identity", 2)
        rng = np.random.default_rng(0)
        x = complex_gaussian(rng, (2, 2))
        np.testing.assert_allclose(apply_channel(ident, x), x, atol=1e-14)

    def test_depolarizing_fixes_identity(self):
        dep = named_channel("depolarizing", 2)
        np.testing.assert_allclose(apply_channel(dep, np.eye(2)), np.eye(2), atol=1e-14)

    def test_basis_matrix_extracts_choi_block(self):
        rng = np.random.default_rng(1)
        choi = random_cp_choi(rng, 3, 2)
        for i in range(3):
            for j in range(3):
                e = np.zeros((3, 3), dtype=complex)
                e[i, j] = 1.0
                block = choi.matrix[i * 2:(i + 1) * 2, j * 2:(j + 1) * 2]
                np.testing.assert_allclose(apply_channel(choi, e), block, atol=1e-14)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        choi = random_cp_choi(rng, 2, 3)
        x, y = complex_gaussian(rng, (2, 2)), complex_gaussian(rng, (2, 2))
        a, b = 1.3 - 0.2j, -0.7 + 2.1j
        np.testing.assert_allclose(
            apply_channel(choi, a * x + b * y),
            a * apply_channel(choi, x) + b * apply_channel(choi, y),
            atol=1e-12,
        )

    def test_cp_map_preserves_psd(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            choi = random_cp_choi(rng, 2, 3)
            x = random_psd(rng, 2)
            out = apply_channel(choi, x)
            assert np.min(np.linalg.eigvalsh((out + out.conj().T) / 2)) >= -1e-10


class TestTransferMatrix:
    def test_round_trip(self):
        rng = np.random.default_rng(4)
        choi = random_cp_choi(rng, 2, 3)
        back = choi_from_transfer(transfer_from_choi(choi), 2, 3)
        np.testing.assert_array_equal(back.matrix, choi.matrix)

    def test_transfer_applies_the_map(self):
        rng = np.random.default_rng(5)
        choi = random_cp_choi(rng, 2, 2)
        s = transfer_from_choi(choi)
        x = complex_gaussian(rng, (2, 2))
        np.testing.assert_allclose(
            (s @ x.reshape(-1)).reshape(2, 2), apply_channel(choi, x), atol=1e-13
        )

    def test_compose_matches_sequential_application(self):
        rng = np.random.default_rng(6)
        inner = random_cp_choi(rng, 2, 3)
        outer = random_cp_choi(rng, 3, 2)
        composed = compose(outer, inner)
        x = complex_gaussian(rng, (2, 2))
        np.testing.assert_allclose(
            apply_channel(composed, x),
            apply_channel(outer, apply_channel(inner, x)),
            atol=1e-12,
        )


class TestKrausConversions:
    def test_identity_choi_single_kraus(self, cfg):
        kraus = kraus_from_choi(named_channel("identity", 2), cfg)
        assert len(kraus.operators) == 1
        k = kraus.operators[0]
        # unique up to phase
        np.testing.assert_allclose(k @ k.conj().T, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(np.abs(k), np.eye(2), atol=1e-12)

    def test_depolarizing_kraus_complete(self, cfg):
        kraus = kraus_from_choi(named_channel("depolarizing", 2), cfg)
        assert len(kraus.operators) == 4
        total = sum(k.conj().T @ k for k in kraus.operators)
        np.testing.assert_allclose(total, np.eye(2), atol=1e-12)
        for k in kraus.operators:
            assert np.linalg.matrix_rank(k) == 1

    def test_dephasing_kraus_action(self, cfg):
        kraus = kraus_from_choi(named_channel("dephasing", 3), cfg)
        assert len(kraus.operators) == 3
        rng = np.random.default_rng(7)
        x = complex_gaussian(rng, (3, 3))
        np.testing.assert_allclose(
            apply_channel(choi_from_kraus(kraus), x), np.diag(np.diag(x)), atol=1e-12
        )

    def test_rejects_non_cp_choi(self, cfg):
        with pytest.raises(NotPositiveSemidefiniteError):
            kraus_from_choi(named_channel("transpose", 2), cfg)

    def test_zero_map_yields_single_zero_operator(self, cfg):
        zero = ChoiMatrix(2, 2, np.zeros((4, 4)))
        kraus = kraus_from_choi(zero, cfg)
        assert len(kraus.operators) == 1
        np.testing.assert_array_equal(kraus.operators[0], np.zeros((2, 2)))

    def test_admitted_negative_eigenvalue_gives_no_operator(self):
        choi = ChoiMatrix(2, 2, slightly_negative_choi())
        cfg = ToleranceConfig(psd_tol=0.1)
        assert rank_decision(choi.matrix, cfg).rank == 3
        kraus = kraus_from_choi(choi, cfg)
        assert len(kraus.operators) == 2
        assert all(np.linalg.norm(k) > 0.5 for k in kraus.operators)
        # the kept part of the spectrum, (1, 0.5), is rebuilt
        w = np.linalg.eigvalsh(choi_from_kraus(kraus).matrix)
        np.testing.assert_allclose(w, [0.0, 0.0, 0.5, 1.0], atol=1e-12)

    def test_operator_count_equals_choi_rank(self, cfg):
        rng = np.random.default_rng(8)
        for rank in (1, 2, 5):
            choi = random_cp_choi(rng, 2, 3, rank=rank)
            kraus = kraus_from_choi(choi, cfg)
            assert len(kraus.operators) == rank == rank_decision(choi.matrix, cfg).rank

    def test_round_trip_reconstructs_choi(self, cfg):
        rng = np.random.default_rng(9)
        for _ in range(50):
            d_a, d_b = rng.integers(1, 5), rng.integers(1, 5)
            choi = random_cp_choi(rng, int(d_a), int(d_b))
            rebuilt = choi_from_kraus(kraus_from_choi(choi, cfg))
            norm = np.linalg.norm(choi.matrix)
            assert np.linalg.norm(rebuilt.matrix - choi.matrix) <= 10 * cfg.equality_tol * norm


class TestStinespring:
    def test_single_identity_kraus(self):
        st = stinespring_from_kraus(KrausSet(2, 2, (np.eye(2, dtype=complex),)))
        assert (st.d_a, st.d_b, st.d_c) == (2, 2, 1)
        np.testing.assert_array_equal(st.matrix, np.eye(2))

    def test_dephasing_kraus_copies_basis(self):
        ops = tuple(np.diag([1.0 if i == j else 0.0 for i in range(2)]).astype(complex)
                    for j in range(2))
        st = stinespring_from_kraus(KrausSet(2, 2, ops))
        # |i> maps onto |i>_B |i>_C
        for i in range(2):
            out = st.matrix @ np.eye(2)[:, i]
            expected = np.zeros(4)
            expected[i * 2 + i] = 1.0
            np.testing.assert_array_equal(out.real, expected)

    def test_isometry_identity(self):
        rng = np.random.default_rng(10)
        ops = tuple(complex_gaussian(rng, (3, 2)) for _ in range(4))
        kraus = KrausSet(2, 3, ops)
        st = stinespring_from_kraus(kraus)
        gram = st.matrix.conj().T @ st.matrix
        total = sum(k.conj().T @ k for k in ops)
        np.testing.assert_allclose(gram, total, atol=1e-13)

    def test_partial_trace_matches_kraus_action_on_basis(self, cfg):
        rng = np.random.default_rng(11)
        ops = tuple(complex_gaussian(rng, (2, 3)) for _ in range(2))
        kraus = KrausSet(3, 2, ops)
        st = stinespring_from_kraus(kraus)
        choi_direct = choi_from_kraus(kraus)
        choi_via_st = choi_from_stinespring(st)
        np.testing.assert_allclose(choi_via_st.matrix, choi_direct.matrix, atol=1e-12)

    def test_kraus_round_trip_through_stinespring(self):
        rng = np.random.default_rng(12)
        ops = tuple(complex_gaussian(rng, (4, 2)) for _ in range(3))
        kraus = KrausSet(2, 4, ops)
        back = kraus_from_stinespring(stinespring_from_kraus(kraus))
        for original, recovered in zip(ops, back.operators):
            np.testing.assert_array_equal(original, recovered)


class TestPredicates:
    def test_identity_map(self, cfg):
        ident = named_channel("identity", 2)
        assert is_cp(ident, cfg)
        assert not is_cocp(ident, cfg)
        assert not is_ppt_map(ident, cfg)
        assert is_trace_preserving(ident, cfg)

    def test_depolarizing_all_true(self, cfg):
        dep = named_channel("depolarizing", 2)
        assert is_cp(dep, cfg) and is_cocp(dep, cfg) and is_ppt_map(dep, cfg)
        assert is_trace_preserving(dep, cfg)

    def test_transpose_map_mirror(self, cfg):
        tr = named_channel("transpose", 2)
        assert not is_cp(tr, cfg)
        assert is_cocp(tr, cfg)

    def test_scaling_is_not_trace_preserving(self, cfg):
        doubled = choi_from_map_action(lambda e: 2.0 * e, 2, 2)
        assert not is_trace_preserving(doubled, cfg)

    def test_diagonal_multiplier_trace_preservation(self, cfg):
        # Tr_B J = diag(t): preserved exactly when every weight is 1
        def multiplier_choi(t):
            d = len(t)
            return choi_from_map_action(
                lambda e: np.diag(np.diag(e) * np.asarray(t, dtype=complex)), d, d
            )

        assert is_trace_preserving(multiplier_choi([1.0, 1.0]), cfg)
        assert not is_trace_preserving(multiplier_choi([1.0, 0.5]), cfg)

    def test_ppt_invariant_under_transposed_side(self, cfg):
        rng = np.random.default_rng(13)
        for _ in range(20):
            choi = random_cp_choi(rng, 2, 3, rank=int(rng.integers(1, 7)))
            left = partial_transpose(choi.matrix, choi.layout, "left")
            right = partial_transpose(choi.matrix, choi.layout, "right")
            from chancert import is_psd

            assert is_psd(left, cfg) == is_psd(right, cfg)

    def test_zero_map_vacuously_ppt(self, cfg):
        zero = ChoiMatrix(2, 2, np.zeros((4, 4)))
        assert is_cp(zero, cfg) and is_cocp(zero, cfg) and is_ppt_map(zero, cfg)
