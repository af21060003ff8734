"""Tests for the instance generators."""

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random.bit_generator import ISeedSequence

from chancert import (
    GeneratorSpec,
    apply_channel,
    named_channel,
    random_stinespring,
    rank_decision,
    schur_multiplier_pair,
    schur_stinespring,
    tiles_upb_choi,
    tiles_upb_vectors,
)
from chancert import generate
from chancert.cli import main
from chancert.errors import DimensionMismatchError
from chancert.generate import build, random_dilation_stack

from conftest import complex_gaussian


class TestRandomStinespring:
    def test_same_seed_same_bits(self):
        a = random_stinespring(2, 3, 2, seed=42)
        b = random_stinespring(2, 3, 2, seed=42)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_different_seeds_differ(self):
        a = random_stinespring(2, 2, 2, seed=1)
        b = random_stinespring(2, 2, 2, seed=2)
        assert np.any(a.matrix != b.matrix)

    def test_derived_streams_are_distinct_and_reproducible(self):
        samples = [random_stinespring(2, 2, 2, seed=5, index=i) for i in range(4)]
        for i, s in enumerate(samples):
            np.testing.assert_array_equal(
                s.matrix, random_stinespring(2, 2, 2, seed=5, index=i).matrix
            )
        flat = [tuple(np.round(s.matrix.reshape(-1), 12)) for s in samples]
        assert len(set(flat)) == len(flat)

    def test_scalar_environment_is_trivially_eb(self, cfg):
        from chancert import complementary_pair_from_stinespring, eb_certificate

        st = random_stinespring(2, 2, 1, seed=3)
        pair = complementary_pair_from_stinespring(st, cfg)
        assert eb_certificate(pair.choi_psi, cfg).value == "yes"

    def test_large_environment_fills_choi_rank(self, cfg):
        from chancert import choi_from_stinespring

        st = random_stinespring(2, 2, 4, seed=17)
        choi = choi_from_stinespring(st)
        assert rank_decision(choi.matrix, cfg).rank == 4

    def test_column_normalization(self):
        st = random_stinespring(3, 2, 2, seed=9, normalize_columns=True)
        norms = np.linalg.norm(st.matrix, axis=0)
        np.testing.assert_allclose(norms, np.ones(3), atol=1e-12)


def numpy_dilation(d_a, d_b, d_c, seed, index) -> np.ndarray:
    """The documented stream of a sample, drawn through numpy's own SeedSequence."""
    spawn_key = () if index is None else (index,)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=spawn_key)))
    return complex_gaussian(rng, (d_b * d_c, d_a))


def assert_numpy_streams(dims, seed, indices):
    stack = random_dilation_stack(*dims, seed, indices)
    assert stack.shape == (len(indices), dims[1] * dims[2], dims[0])
    for sample, index in zip(stack, indices):
        expected = numpy_dilation(*dims, seed, index)
        assert sample.tobytes() == expected.tobytes(), (seed, index)
        single = random_stinespring(*dims, seed=seed, index=index).matrix
        assert single.tobytes() == expected.tobytes(), (seed, index)


SEEDS = [0, 7, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 3, 20220404]
# The benchmark's golden runs: 50 samples of this seed at each tuple.
GOLDEN_SEED = 20220404
GOLDEN_TUPLES = [(2, 2, 2), (2, 2, 3), (2, 2, 6), (2, 3, 2), (2, 3, 3), (3, 2, 2), (3, 2, 3),
                 (3, 3, 2), (3, 3, 3), (3, 3, 9), (4, 4, 16)]


class TestNumpyStreams:
    """random_dilation_stack and random_stinespring against numpy itself, bit for bit."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_index_sweep(self, seed):
        assert_numpy_streams((2, 3, 2), seed, range(60))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("indices", [[0], [5], [None], [2**32], [2**40 + 7]])
    def test_single_indices(self, seed, indices):
        assert_numpy_streams((3, 2, 2), seed, indices)

    @pytest.mark.parametrize(
        "indices",
        [[9, 2, 7, 0], [3, 3, 3], [5, None, 5, None], [2**40 + 7, 1, 2**32, 0, 2**32],
         [2**32 - 1, 0, None, 2**32, 2**64 + 1], range(3, 200, 7), range(2**32 + 40, 2**32 - 40, -9)],
        ids=["unsorted", "repeated", "none-repeated", "wide-unsorted", "mixed-widths",
             "stepped-range", "descending-range-across-words"],
    )
    def test_index_lists(self, indices):
        assert_numpy_streams((2, 2, 3), 11, indices)

    @pytest.mark.parametrize("dims", [(1, 1, 1), (4, 4, 16)])
    def test_dimension_edges(self, dims):
        assert_numpy_streams(dims, 3, [0, 1, None])

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**140 - 1),
        index=st.one_of(st.none(), st.integers(0, 2**70 - 1)),
        dims=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
    )
    def test_any_seed_and_index(self, seed, index, dims):
        assert_numpy_streams(dims, seed, [index])

    def test_numpy_integer_seed_and_index(self):
        stack = random_dilation_stack(2, 2, 2, np.uint64(2**64 - 1), [np.int64(3)])
        assert stack[0].tobytes() == numpy_dilation(2, 2, 2, 2**64 - 1, 3).tobytes()

    def test_stream_seed_serves_only_pcg64s_request(self):
        state = np.arange(4, dtype=np.uint64)
        seed = generate._StreamSeed(state)
        assert seed.generate_state(4, np.uint64) is state
        assert seed.generate_state(4, "uint64") is state
        for request in ((4, np.uint32), (8, np.uint64), (4,)):
            with pytest.raises(ValueError, match="PCG64's request"):
                seed.generate_state(*request)

    def test_empty_index_list(self):
        assert random_dilation_stack(2, 3, 2, 5, []).shape == (0, 6, 2)

    def test_at_most_one_seed_sequence_per_call(self, monkeypatch):
        """A SeedSequence is built explicitly, or by PCG64 from a seed that is not one."""
        built = []
        seed_sequence, pcg64 = np.random.SeedSequence, np.random.PCG64

        def counting_seed_sequence(*args, **kwargs):
            built.append("SeedSequence")
            return seed_sequence(*args, **kwargs)

        def counting_pcg64(seed=None):
            if not isinstance(seed, ISeedSequence):
                built.append("PCG64")
            return pcg64(seed)

        indices = range(100, 150)
        expected = [numpy_dilation(3, 3, 3, 12, i) for i in indices]
        monkeypatch.setattr(np.random, "SeedSequence", counting_seed_sequence)
        monkeypatch.setattr(np.random, "PCG64", counting_pcg64)

        stack = random_dilation_stack(3, 3, 3, 12, indices)
        assert len(built) <= 1
        assert all(a.tobytes() == b.tobytes() for a, b in zip(stack, expected))
        # the wrappers do see numpy's own per-sample derivation
        built.clear()
        for i in indices:
            numpy_dilation(3, 3, 3, 12, i)
        assert len(built) == len(indices)

    def test_mixing_calls_independent_of_sample_count(self, monkeypatch):
        """Stream seeds are mixed column by column for all samples at once,
        and an index set drawn again hashes only the state words."""
        calls = Counter()
        for name in ("_hashmix", "_mix"):
            def counted(*args, _original=getattr(generate, name), _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(generate, name, counted)

        def mixing_calls(indices):
            calls.clear()
            random_dilation_stack(3, 3, 3, 12, indices)
            return dict(calls)

        generate._key_hashes.cache_clear()
        one = mixing_calls([100])
        assert one == {"_hashmix": 2, "_mix": 1}
        assert mixing_calls(range(100, 150)) == one
        assert mixing_calls(range(100, 150)) == mixing_calls([100]) == {"_hashmix": 1, "_mix": 1}

    def test_memo_serves_seeds_of_other_widths_and_equal_lists(self):
        """The memo of hashed index words is keyed by the seed's hash
        constant: 1-word and 5-word seeds alternating over one range, and a
        range against the equal list, each match numpy bit for bit."""
        generate._key_hashes.cache_clear()
        for seed in (12, 2**128 + 1, 13, 2**130 + 3, 12):
            assert_numpy_streams((2, 2, 2), seed, range(20, 60))
        for seed in (12, 2**128 + 1):
            assert_numpy_streams((2, 2, 2), seed, list(range(20, 60)))

    def test_memo_is_read_only_and_keyed_by_integers(self):
        random_dilation_stack(2, 2, 2, 12, [3, None, 2**40])
        hashed, present = generate._key_hashes(generate._spawn_key([3, None, 2**40]),
                                               generate._seed_pool(12)[1])
        assert hashed.shape == (2, 3, 4) and present[:, :, 0].tolist() == [
            [True, False, True], [False, False, True]]
        for memo in (hashed, present):
            with pytest.raises(ValueError, match="read-only"):
                memo[0, 0] = 0
        # an index that is no integer does not find the entry of an equal one
        with pytest.raises(TypeError):
            random_dilation_stack(2, 2, 2, 12, [3.0, None, 2**40])

    @pytest.mark.parametrize("dims", GOLDEN_TUPLES, ids=lambda dims: ",".join(map(str, dims)))
    def test_golden_stacks_and_files(self, dims, tmp_path):
        """The stack is built by real multiplies with 1 / sqrt(2); every sample
        of a golden run, and the files ``generate`` writes, have the bits of
        numpy's complex division by sqrt(2)."""
        assert_numpy_streams(dims, GOLDEN_SEED, range(50))
        path = tmp_path / "dilation.json"
        for index in (0, 49):
            assert main(["generate", "--kind", "random-stinespring", "--dims",
                         ",".join(map(str, dims)), "--seed", str(GOLDEN_SEED), "--index",
                         str(index), "--output", str(path)]) == 0
            payload = json.loads(path.read_text())
            expected = numpy_dilation(*dims, GOLDEN_SEED, index)
            assert np.array(payload["re"]).tobytes() == expected.real.tobytes()
            assert np.array(payload["im"]).tobytes() == expected.imag.tobytes()

    @pytest.mark.parametrize("seed, indices, name", [(-1, [0], "seed"), (4, [0, -3], "index")])
    def test_negative_seed_or_index_rejected(self, seed, indices, name):
        with pytest.raises(ValueError, match=name):
            random_dilation_stack(2, 2, 2, seed, indices)
        with pytest.raises(ValueError, match=name):
            random_stinespring(2, 2, 2, seed=seed, index=indices[-1])


class TestSchurFamily:
    def test_all_ones_is_completely_dephasing(self, cfg):
        pair = schur_multiplier_pair((1.0, 1.0, 1.0), cfg)
        rng = np.random.default_rng(0)
        x = complex_gaussian(rng, (3, 3))
        np.testing.assert_allclose(
            apply_channel(pair.choi_phi, x), np.diag(np.diag(x)), atol=1e-13
        )

    def test_all_zeros_gives_zero_maps(self, cfg):
        pair = schur_multiplier_pair((0.0, 0.0), cfg)
        assert np.linalg.norm(pair.choi_phi.matrix) == 0.0
        assert np.linalg.norm(pair.choi_psi.matrix) == 0.0

    def test_matches_entrywise_product_oracle(self, cfg):
        # the traced map agrees with T (.) X for T = diag(t) on random inputs
        t = np.array([1.0, 0.5, 0.25])
        pair = schur_multiplier_pair(t, cfg)
        big_t = np.diag(t).astype(complex)
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = complex_gaussian(rng, (3, 3))
            np.testing.assert_allclose(
                apply_channel(pair.choi_psi, x), big_t * x, atol=1e-12
            )

    def test_rejects_negative_weights(self):
        with pytest.raises(DimensionMismatchError):
            schur_stinespring([1.0, -0.1])


class TestTiles:
    def test_vectors_are_normalized_products(self):
        vectors = tiles_upb_vectors()
        assert vectors.shape == (5, 9)
        np.testing.assert_allclose(np.linalg.norm(vectors, axis=1), np.ones(5), atol=1e-14)

    def test_vectors_pairwise_orthogonal(self):
        vectors = tiles_upb_vectors()
        gram = vectors @ vectors.conj().T
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-14)

    def test_state_properties(self, cfg):
        tiles = tiles_upb_choi()
        assert np.trace(tiles.matrix).real == pytest.approx(1.0, abs=1e-14)
        assert rank_decision(tiles.matrix, cfg).rank == 4
        vectors = tiles_upb_vectors()
        for k in range(5):
            assert np.linalg.norm(tiles.matrix @ vectors[k]) <= 1e-12


class TestNamedChannels:
    def test_identity_not_ppt(self, cfg):
        from chancert import is_ppt_map

        choi = named_channel("identity", 2)
        assert rank_decision(choi.matrix, cfg).rank == 1
        assert not is_ppt_map(choi, cfg)

    def test_depolarizing_is_exact_scaled_identity(self):
        choi = named_channel("depolarizing", 2)
        assert np.array_equal(choi.matrix, np.eye(4) / 2.0)

    def test_dephasing_choi_is_diagonal(self, cfg):
        from chancert import is_ppt_map

        choi = named_channel("dephasing", 3)
        assert np.array_equal(choi.matrix, np.diag(np.diag(choi.matrix)))
        assert is_ppt_map(choi, cfg)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DimensionMismatchError):
            named_channel("amplitude", 2)


class TestGeneratorSpec:
    def test_build_dispatch(self):
        role, obj = build(GeneratorSpec(kind="identity", dims=(2,)))
        assert role == "choi" and obj.d_a == 2
        role, obj = build(GeneratorSpec(kind="tiles"))
        assert role == "state" and obj.matrix.shape == (9, 9)
        role, obj = build(GeneratorSpec(kind="schur", params=(1.0, 0.5)))
        assert role == "stinespring" and (obj.d_a, obj.d_b, obj.d_c) == (2, 2, 2)
        role, obj = build(GeneratorSpec(kind="random-stinespring", dims=(2, 3, 2), seed=7))
        assert role == "stinespring" and obj.matrix.shape == (6, 2)

    def test_spec_round_trips_to_json(self):
        spec = GeneratorSpec(kind="random-stinespring", dims=(2, 2, 2), seed=11, index=3)
        data = spec.to_json()
        assert data["kind"] == "random-stinespring"
        assert data["algorithm"] == "numpy-pcg64"
        assert data["seed_derivation"].startswith("SeedSequence")

    def test_rejects_unknown_kind(self):
        with pytest.raises(DimensionMismatchError):
            GeneratorSpec(kind="haar")

    def test_identical_spec_identical_output(self):
        spec = GeneratorSpec(kind="random-stinespring", dims=(3, 2, 2), seed=21)
        _, first = build(spec)
        _, second = build(spec)
        np.testing.assert_array_equal(first.matrix, second.matrix)
