"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Each test prints ``ACCEPTANCE <n> PASS/FAIL`` and enforces both the
numerical tolerance and the runtime budget of its criterion.
"""

import itertools
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from chancert import (
    DEFAULT_TOLERANCES,
    BipartiteLayout,
    ChoiMatrix,
    choi_from_kraus,
    choi_from_stinespring,
    complementary_pair_from_stinespring,
    distillability_witness,
    degradable_ppt_check,
    eb_certificate,
    kraus_from_choi,
    named_channel,
    partial_transpose,
    purification_marginals,
    rank_chain,
    schur_multiplier_pair,
    separability_decision,
    stinespring_from_kraus,
    tiles_stinespring,
    tiles_upb_choi,
    tiles_upb_vectors,
)
from chancert.cli import main
from chancert.generate import random_stinespring

CFG = DEFAULT_TOLERANCES
DIM_TUPLES = list(itertools.product((2, 3), repeat=3))


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} FAIL {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} PASS {label} ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def complex_gaussian(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def test_criterion_1_representation_round_trips():
    with criterion(1, "choi/kraus/stinespring round trips", 10.0):
        rng = np.random.default_rng(1001)
        pairs = [(a, b) for a in (1, 2, 3, 4) for b in (1, 2, 3, 4)]
        for trial in range(500):
            d_a, d_b = pairs[trial % len(pairs)]
            dim = d_a * d_b
            rank = int(rng.integers(1, dim + 1))
            g = complex_gaussian(rng, (dim, rank))
            choi = ChoiMatrix(d_a, d_b, g @ g.conj().T)
            norm = np.linalg.norm(choi.matrix)

            kraus = kraus_from_choi(choi, CFG)
            via_kraus = choi_from_kraus(kraus)
            assert np.linalg.norm(via_kraus.matrix - choi.matrix) <= 1e-8 * norm

            st = stinespring_from_kraus(kraus)
            via_st = choi_from_stinespring(st)
            assert np.linalg.norm(via_st.matrix - choi.matrix) <= 1e-8 * norm


def test_criterion_2_purification_identities():
    with criterion(2, "common purification marginals and rank equalities", 30.0):
        for trial in range(500):
            dims = DIM_TUPLES[trial % len(DIM_TUPLES)]
            st = random_stinespring(*dims, seed=2002, index=trial)
            pair = complementary_pair_from_stinespring(st, CFG)
            marginals = purification_marginals(st)
            phi_norm = np.linalg.norm(pair.choi_phi.matrix)
            psi_norm = np.linalg.norm(pair.choi_psi.matrix)
            assert np.linalg.norm(marginals["ab"] - pair.choi_phi.matrix) <= 1e-9 * phi_norm
            assert np.linalg.norm(marginals["ac"] - pair.choi_psi.matrix) <= 1e-9 * psi_norm
            chain, _ = rank_chain(st, CFG)
            if chain.fragile:
                continue
            assert chain.rank_lc == chain.rank_lab
            assert chain.rank_lb == chain.rank_lac


def test_criterion_3_monte_carlo_harness(tmp_path):
    with criterion(3, "consistency harness, 500 trials per dimension tuple", 10.0):
        for dims in DIM_TUPLES:
            out = tmp_path / f"vt_{dims[0]}{dims[1]}{dims[2]}.json"
            dims_arg = ",".join(str(d) for d in dims)
            code = main(["verify-theorem", "--trials", "500", "--dims", dims_arg,
                         "--seed", "3003", "--output", str(out)])
            report = json.loads(out.read_text())
            assert code == 0, f"counterexamples reported for dims {dims}"
            assert report["counterexamples"] == []
            counts = report["counts"]
            # the low-rank regime applied to the complement on every
            # non-fragile sample whose primary map was PPT; the per-sample
            # (psi PPT) <-> (eb yes) equivalence is asserted in-process and
            # would have surfaced as a counterexample
            assert counts["regime_applied_to_psi_given_phi_ppt"] == counts["phi_ppt"]
            assert counts["samples"] + counts["fragile_discarded"] == 500


def test_criterion_4_tiles_strict_branch():
    with criterion(4, "tiles dilation rank chain and witness", 1.0):
        st = tiles_stinespring(CFG)
        chain, decisions = rank_chain(st, CFG)
        assert (chain.rank_lab, chain.rank_lb, chain.rank_lc, chain.rank_lac) == (4, 3, 4, 3)
        assert not chain.fragile
        assert all(not dec.fragile for dec in decisions.values())
        pair = complementary_pair_from_stinespring(st, CFG)
        verdict = distillability_witness(pair.choi_psi.matrix, pair.choi_psi.layout, CFG)
        assert verdict.value == "yes"
        assert not verdict.fragile


def test_criterion_5_degradable_multiplier_family():
    with criterion(5, "diagonal multiplier pairs: degradable and both EB", 1.0):
        for weights in ((1.0, 0.5), (1.0, 1.0), (1.0, 1.0, 1.0)):
            pair = schur_multiplier_pair(weights, CFG)
            report = degradable_ppt_check(pair, CFG)
            assert report.predicates["ppt_psi"].value == "yes"
            assert report.predicates["degradable"].value == "yes"
            assert report.residuals["degrading_residual"] <= 1e-9
            assert report.predicates["eb_phi"].value == "yes"
            assert report.predicates["eb_psi"].value == "yes"


def test_criterion_6_spectral_ground_truths():
    with criterion(6, "spectral ground truths", 1.0):
        ident = named_channel("identity", 2)
        pt = partial_transpose(ident.matrix, ident.layout, "left")
        lam_min = np.linalg.eigvalsh(pt)[0]
        assert abs(lam_min + 1.0) <= 1e-12

        dep = named_channel("depolarizing", 2)
        assert np.array_equal(dep.matrix, np.eye(4) / 2.0)

        tiles = tiles_upb_choi()
        for vec in tiles_upb_vectors():
            assert np.linalg.norm(tiles.matrix @ vec) <= 1e-12


def test_criterion_7_pure_state_oracle_cross_check():
    with criterion(7, "witness and separability against a Schmidt-rank oracle", 5.0):
        def schmidt_rank(vec, d_a, d_b):
            s = np.linalg.svd(vec.reshape(d_a, d_b), compute_uv=False)
            return int(np.sum(s > 1e-8 * s[0] * max(d_a, d_b)))

        rng = np.random.default_rng(7007)
        for d_a, d_b in ((2, 2), (2, 3)):
            layout = BipartiteLayout(d_a, d_b)
            for trial in range(200):
                if trial % 2 == 0:
                    vec = complex_gaussian(rng, (d_a * d_b,))
                else:
                    vec = np.kron(
                        complex_gaussian(rng, (d_a,)), complex_gaussian(rng, (d_b,))
                    )
                vec = vec / np.linalg.norm(vec)
                projector = np.outer(vec, vec.conj())
                rank = schmidt_rank(vec, d_a, d_b)
                witness = distillability_witness(projector, layout, CFG)
                separable = separability_decision(projector, layout, CFG)
                assert (witness.value == "yes") == (rank >= 2)
                assert (separable.value == "yes") == (rank == 1)


def test_criterion_8_report_determinism(tmp_path):
    with criterion(8, "byte-identical reports modulo timestamp", 30.0):
        def stripped(path):
            obj = json.loads(path.read_text())
            obj.pop("timestamp", None)
            return json.dumps(obj, sort_keys=True)

        tiles_path = tmp_path / "tiles.json"
        assert main(["generate", "--kind", "tiles", "--output", str(tiles_path)]) == 0

        runs = []
        for tag in ("a", "b"):
            analyze_out = tmp_path / f"analyze_{tag}.json"
            verify_out = tmp_path / f"verify_{tag}.json"
            generate_out = tmp_path / f"generate_{tag}.json"
            assert main(["analyze", str(tiles_path), "--output", str(analyze_out)]) == 0
            assert main(["verify-theorem", "--trials", "50", "--dims", "2,2,3",
                         "--seed", "8008", "--output", str(verify_out)]) == 0
            assert main(["generate", "--kind", "random-stinespring", "--dims", "2,3,2",
                         "--seed", "8008", "--output", str(generate_out)]) == 0
            runs.append(
                (stripped(analyze_out), stripped(verify_out), generate_out.read_text())
            )
        assert runs[0] == runs[1]
