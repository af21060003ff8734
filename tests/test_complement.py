"""Tests for complementary pairs and purification rank data."""

import numpy as np
import pytest

from chancert import (
    ChoiMatrix,
    ComplementaryPair,
    StinespringOperator,
    channels_equal,
    common_purification_vector,
    complementary_pair_from_stinespring,
    is_ppt_map,
    kraus_from_stinespring,
    purification_marginals,
    rank_chain,
    schur_stinespring,
    swap_environment,
    tiles_stinespring,
    verify_complementarity,
)

from conftest import complex_gaussian


def random_st(rng, d_a, d_b, d_c):
    return StinespringOperator(d_a, d_b, d_c, complex_gaussian(rng, (d_b * d_c, d_a)))


class TestPairConstruction:
    def test_identity_dilation(self, cfg):
        st = StinespringOperator(2, 2, 1, np.eye(2, dtype=complex))
        pair = complementary_pair_from_stinespring(st, cfg)
        # phi is the identity map, psi is the trace functional
        bell = np.zeros((4, 4))
        bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 1.0
        np.testing.assert_allclose(pair.choi_phi.matrix.real, bell, atol=1e-14)
        np.testing.assert_allclose(pair.choi_psi.matrix, np.eye(2), atol=1e-14)

    def test_dephasing_dilation_entry_formula_oracle(self, cfg):
        # both maps equal the completely dephasing map; the oracle builds psi
        # entrywise from [psi(X)]_kl = Tr(K_k X K_l^dagger)
        st = schur_stinespring([1.0, 1.0])
        pair = complementary_pair_from_stinespring(st, cfg)
        kraus = kraus_from_stinespring(st)
        rng = np.random.default_rng(0)
        x = complex_gaussian(rng, (2, 2))
        from chancert import apply_channel

        expected = np.zeros((2, 2), dtype=complex)
        for k in range(2):
            for l in range(2):
                expected[k, l] = np.trace(
                    kraus.operators[k] @ x @ kraus.operators[l].conj().T
                )
        np.testing.assert_allclose(apply_channel(pair.choi_psi, x), expected, atol=1e-13)
        np.testing.assert_allclose(expected, np.diag(np.diag(x)), atol=1e-13)
        assert channels_equal(pair.choi_phi, pair.choi_psi, cfg)

    def test_trace_identity(self, cfg):
        rng = np.random.default_rng(1)
        for _ in range(20):
            st = random_st(rng, 2, 2, 2)
            pair = complementary_pair_from_stinespring(st, cfg)
            norm_sq = np.linalg.norm(st.matrix) ** 2
            assert np.trace(pair.choi_phi.matrix).real == pytest.approx(norm_sq, rel=1e-12)
            assert np.trace(pair.choi_psi.matrix).real == pytest.approx(norm_sq, rel=1e-12)


class TestPurificationVector:
    def test_identity_dilation_gives_bell_vector(self):
        st = StinespringOperator(2, 2, 1, np.eye(2, dtype=complex))
        vec = common_purification_vector(st)
        np.testing.assert_array_equal(vec.real, [1.0, 0.0, 0.0, 1.0])

    def test_dephasing_dilation_gives_ghz_vector(self):
        st = schur_stinespring([1.0, 1.0])
        vec = common_purification_vector(st)
        expected = np.zeros(8)
        expected[0] = expected[7] = 1.0  # |000> + |111> in (A, B, C) order
        np.testing.assert_array_equal(vec.real, expected)

    def test_marginals_match_pair(self, cfg):
        rng = np.random.default_rng(2)
        for dims in [(2, 2, 2), (2, 3, 2), (3, 2, 3)]:
            st = random_st(rng, *dims)
            pair = complementary_pair_from_stinespring(st, cfg)
            marginals = purification_marginals(st)
            np.testing.assert_allclose(
                marginals["ab"], pair.choi_phi.matrix,
                atol=cfg.equality_tol * np.linalg.norm(pair.choi_phi.matrix),
            )
            np.testing.assert_allclose(
                marginals["ac"], pair.choi_psi.matrix,
                atol=cfg.equality_tol * np.linalg.norm(pair.choi_psi.matrix),
            )


class TestRankChain:
    def test_identity_dilation(self, cfg):
        st = StinespringOperator(2, 2, 1, np.eye(2, dtype=complex))
        chain, _ = rank_chain(st, cfg)
        assert (chain.rank_lab, chain.rank_lb, chain.rank_lc, chain.rank_lac) == (1, 2, 1, 2)
        assert not chain.fragile

    def test_dephasing_dilation(self, cfg):
        chain, _ = rank_chain(schur_stinespring([1.0, 1.0]), cfg)
        assert (chain.rank_lab, chain.rank_lac, chain.rank_lb, chain.rank_lc) == (2, 2, 2, 2)

    def test_tiles_dilation(self, cfg):
        chain, decisions = rank_chain(tiles_stinespring(cfg), cfg)
        assert (chain.rank_lab, chain.rank_lb, chain.rank_lc, chain.rank_lac) == (4, 3, 4, 3)
        assert chain.rank_la == 3
        assert not chain.fragile
        # independent oracle: count eigenvalues of each marginal directly
        marginals = purification_marginals(tiles_stinespring(cfg))
        for key, expected in [("ab", 4), ("ac", 3), ("a", 3), ("b", 3), ("c", 4)]:
            w = np.linalg.eigvalsh((marginals[key] + marginals[key].conj().T) / 2)
            assert int(np.sum(w > 1e-8)) == expected

    def test_purity_identities_on_random_samples(self, cfg):
        rng = np.random.default_rng(3)
        for _ in range(50):
            dims = tuple(int(d) for d in rng.integers(2, 4, size=3))
            chain, _ = rank_chain(random_st(rng, *dims), cfg)
            if chain.fragile:
                continue
            assert chain.rank_lc == chain.rank_lab
            assert chain.rank_lb == chain.rank_lac

    def test_spectra_agree_across_cuts(self, cfg):
        rng = np.random.default_rng(4)
        st = random_st(rng, 2, 3, 2)
        marginals = purification_marginals(st)
        for big, small in [("ab", "c"), ("ac", "b")]:
            w_big = np.sort(np.linalg.eigvalsh(marginals[big]))
            w_small = np.sort(np.linalg.eigvalsh(marginals[small]))
            nonzero = w_small[w_small > 1e-10]
            np.testing.assert_allclose(w_big[-nonzero.size:], nonzero, atol=1e-10)


class TestVerifyComplementarity:
    def test_constructed_pair_verifies(self, cfg):
        rng = np.random.default_rng(5)
        pair = complementary_pair_from_stinespring(random_st(rng, 2, 2, 3), cfg)
        assert verify_complementarity(pair, cfg)

    def test_zeroed_psi_fails(self, cfg):
        rng = np.random.default_rng(6)
        pair = complementary_pair_from_stinespring(random_st(rng, 2, 2, 2), cfg)
        broken = ComplementaryPair(
            pair.stinespring,
            pair.choi_phi,
            ChoiMatrix(2, 2, np.zeros((4, 4))),
        )
        assert not verify_complementarity(broken, cfg)

    def test_unitary_on_environment_fails(self, cfg):
        # complements are unique only up to isometry on the environment, and
        # this check is tied to the specific dilation at hand
        st = schur_stinespring([1.0, 1.0])
        pair = complementary_pair_from_stinespring(st, cfg)
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        conjugated = np.kron(np.eye(2), hadamard) @ pair.choi_psi.matrix @ np.kron(
            np.eye(2), hadamard
        ).conj().T
        rotated = ComplementaryPair(st, pair.choi_phi, ChoiMatrix(2, 2, conjugated))
        assert not verify_complementarity(rotated, cfg)


class TestSwapEnvironment:
    def test_swap_exchanges_the_maps(self, cfg):
        # exchange is a pure index permutation; only BLAS summation order
        # separates the two evaluation routes, so compare at machine epsilon
        rng = np.random.default_rng(7)
        st = random_st(rng, 2, 3, 2)
        pair = complementary_pair_from_stinespring(st, cfg)
        flipped = complementary_pair_from_stinespring(swap_environment(st), cfg)
        np.testing.assert_allclose(flipped.choi_phi.matrix, pair.choi_psi.matrix, atol=1e-14)
        np.testing.assert_allclose(flipped.choi_psi.matrix, pair.choi_phi.matrix, atol=1e-14)

    def test_swap_is_involutive(self):
        rng = np.random.default_rng(8)
        st = random_st(rng, 3, 2, 4)
        back = swap_environment(swap_environment(st))
        np.testing.assert_array_equal(back.matrix, st.matrix)
        assert (back.d_a, back.d_b, back.d_c) == (st.d_a, st.d_b, st.d_c)


class TestPptRankInvariant:
    def test_ppt_choi_dominates_marginal_ranks(self, cfg):
        # whenever the traced map is PPT, its Choi rank is at least both
        # marginal ranks; exercised on dilations whose phi is PPT
        found = 0
        rng = np.random.default_rng(9)
        for i in range(300):
            st = random_st(rng, 2, 2, 3)
            pair = complementary_pair_from_stinespring(st, cfg)
            if not is_ppt_map(pair.choi_phi, cfg):
                continue
            found += 1
            chain, _ = rank_chain(st, cfg)
            assert chain.rank_lab >= max(chain.rank_la, chain.rank_lb)
        assert found > 0
