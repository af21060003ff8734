"""Tests for the rank-based decision procedures and consistency checks."""

import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chancert import (
    BipartiteLayout,
    ChoiMatrix,
    ComplementaryPair,
    KrausSet,
    NotPositiveSemidefiniteError,
    StinespringOperator,
    ToleranceConfig,
    Verdict,
    apply_channel,
    channels_equal,
    choi_report,
    complementary_pair_from_stinespring,
    compose,
    degradable_ppt_check,
    degrading_candidate,
    distillability_witness,
    eb_certificate,
    equivalence_check,
    named_channel,
    random_stinespring,
    schur_multiplier_pair,
    schur_stinespring,
    separability_decision,
    state_report,
    swap_environment,
    tiles_stinespring,
    tiles_upb_choi,
)
from chancert.certify import (
    LOW_RANK_NPT,
    LOW_RANK_PPT_SEPARABLE,
    NO,
    NO_RANK_GAP,
    NOT_PPT,
    OUTSIDE_LOW_RANK_REGIME,
    RANK_GAP_WITNESS,
    RELATIONS,
    UNKNOWN,
    YES,
    eb_rule,
    pair_rules,
    witness_rule,
    witness_verdict,
)
import chancert.certify
import chancert.complement
import chancert.linalg
from chancert.channels import choi_from_kraus, kraus_from_choi, kraus_from_stinespring
from chancert.cli import main
from chancert.errors import CounterexampleOrBugError, FragileSampleError

from conftest import complex_gaussian, haar_unitary, random_psd

L22 = BipartiteLayout(2, 2)


def bell_projector():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0
    return np.outer(v, v.conj())


def readout_channel_dilation(vectors) -> StinespringOperator:
    """Dilation of X -> sum_i X_ii |b_i><b_i| for given output vectors b_i.

    With non-orthogonal b_i this map is PPT (even entanglement breaking)
    while its complement is an NPT entrywise multiplier with no rank gap:
    the regression instance for one-sidedness of the witness.
    """
    d = len(vectors)
    d_b = len(vectors[0])
    m = np.zeros((d_b * d, d), dtype=complex)
    for i, b in enumerate(vectors):
        for row, amp in enumerate(np.asarray(b, dtype=complex)):
            m[row * d + i, i] = amp
    return StinespringOperator(d, d_b, d, m)


class TestDistillabilityWitness:
    def test_bell_projector_fires(self, cfg):
        verdict = distillability_witness(bell_projector(), L22, cfg)
        assert verdict.value == "yes"
        assert verdict.reason == RANK_GAP_WITNESS

    def test_identity_is_unknown(self, cfg):
        verdict = distillability_witness(np.eye(4), L22, cfg)
        assert verdict.value == "unknown"
        assert verdict.reason == NO_RANK_GAP

    def test_never_returns_no(self, cfg):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = random_psd(rng, 6, rank=int(rng.integers(1, 7)))
            verdict = distillability_witness(x, BipartiteLayout(2, 3), cfg)
            assert verdict.value in ("yes", "unknown")

    def test_rejects_non_psd(self, cfg):
        with pytest.raises(NotPositiveSemidefiniteError):
            distillability_witness(np.diag([1.0, -1.0, 0.0, 0.0]), L22, cfg)

    def test_tiles_complement_fires(self, cfg):
        pair = complementary_pair_from_stinespring(tiles_stinespring(cfg), cfg)
        verdict = distillability_witness(
            pair.choi_psi.matrix, pair.choi_psi.layout, cfg
        )
        assert verdict.value == "yes"


class TestSeparabilityDecision:
    def test_product_state(self, cfg):
        x = np.zeros((4, 4), dtype=complex)
        x[0, 0] = 1.0  # |00><00|
        verdict = separability_decision(x, L22, cfg)
        assert verdict.value == "yes"
        assert verdict.reason == LOW_RANK_PPT_SEPARABLE

    def test_bell_projector_is_entangled(self, cfg):
        verdict = separability_decision(bell_projector(), L22, cfg)
        assert verdict.value == "no"
        assert verdict.reason == LOW_RANK_NPT

    def test_tiles_outside_regime(self, cfg):
        tiles = tiles_upb_choi()
        verdict = separability_decision(tiles.matrix, tiles.layout, cfg)
        assert verdict.value == "unknown"
        assert verdict.reason == OUTSIDE_LOW_RANK_REGIME

    def test_zero_matrix_counts_as_separable(self, cfg):
        verdict = separability_decision(np.zeros((4, 4)), L22, cfg)
        assert verdict.value == "yes"

    def test_non_psd_input_rejected(self, cfg):
        with pytest.raises(NotPositiveSemidefiniteError):
            separability_decision(-bell_projector(), L22, cfg)


class TestEbCertificate:
    def test_identity_map_is_not_eb(self, cfg):
        verdict = eb_certificate(named_channel("identity", 2), cfg)
        assert verdict.value == "no"
        assert verdict.reason == NOT_PPT

    def test_dephasing_is_eb(self, cfg):
        verdict = eb_certificate(named_channel("dephasing", 3), cfg)
        assert verdict.value == "yes"

    def test_depolarizing_is_conservative_unknown(self, cfg):
        # J = I/d is separable, but its rank d^2 exceeds both marginal ranks d,
        # so the low-rank hypothesis is not on record and no yes is claimed
        verdict = eb_certificate(named_channel("depolarizing", 2), cfg)
        assert verdict.value == "unknown"
        assert verdict.reason == OUTSIDE_LOW_RANK_REGIME

    def test_tiles_unknown(self, cfg):
        verdict = eb_certificate(tiles_upb_choi(), cfg)
        assert verdict.value == "unknown"

    def test_rejects_non_cp(self, cfg):
        with pytest.raises(NotPositiveSemidefiniteError):
            eb_certificate(named_channel("transpose", 2), cfg)

    def test_yes_implies_ppt_and_no_implies_failure(self, cfg):
        from chancert import is_ppt_map

        rng = np.random.default_rng(1)
        for _ in range(60):
            dim_pick = rng.integers(1, 10)
            choi = ChoiMatrix(2, 3, random_psd(rng, 6, rank=int(dim_pick % 6 + 1)))
            verdict = eb_certificate(choi, cfg)
            if verdict.value == "yes":
                assert is_ppt_map(choi, cfg)
            if verdict.value == "no":
                assert not is_ppt_map(choi, cfg)


class TestScalingInvariance:
    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e-3, 0.5, 7.0, 1e3, 1e6, 1e12])
    def test_verdicts_survive_positive_scaling(self, cfg, scale):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = random_psd(rng, 6, rank=int(rng.integers(1, 7)))
            layout = BipartiteLayout(2, 3)
            assert (
                distillability_witness(x, layout, cfg).value
                == distillability_witness(scale * x, layout, cfg).value
            )
            assert (
                separability_decision(x, layout, cfg).value
                == separability_decision(scale * x, layout, cfg).value
            )
            choi = ChoiMatrix(2, 3, x)
            assert (
                eb_certificate(choi, cfg).value
                == eb_certificate(ChoiMatrix(2, 3, scale * x), cfg).value
            )

    def test_scaled_identity_channel_is_not_ppt(self, cfg):
        # regression: with an absolute negativity floor, the identity channel
        # scaled by 1e-10 was reported PPT and entanglement breaking
        choi = named_channel("identity", 2)
        report = choi_report(ChoiMatrix(2, 2, 1e-10 * choi.matrix), cfg)
        assert report.predicates["ppt"].value == "no"
        assert report.predicates["eb"].value == "no"

    @pytest.mark.parametrize("kind", ["identity", "dephasing", "depolarizing"])
    def test_verdicts_at_the_largest_power_of_two(self, cfg, kind):
        # the Hermitian part is formed as x/2 + x^dagger/2: x + x^dagger
        # would overflow at entries of 2^1023. Only trace preservation reads
        # the scale.
        choi = named_channel(kind, 2)
        verdicts = {k: v.value for k, v in choi_report(choi, cfg).predicates.items()}
        scaled = choi_report(ChoiMatrix(2, 2, 2.0**1023 * choi.matrix), cfg)
        assert {k: v.value for k, v in scaled.predicates.items()} == {
            **verdicts, "trace_preserving": "no"
        }


def swap_phi_family(d: int, a: float, b: float, c: float) -> np.ndarray:
    """a I + b F + c |Phi><Phi| on C^d (x) C^d, F the swap and |Phi> = sum_i |ii>."""
    n = d * d
    swap = np.eye(n).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(n, n)
    phi = np.eye(d).reshape(n)
    return a * np.eye(n) + b * swap + c * np.outer(phi, phi) + 0j


def exact_psd_rule(spectrum, psd_tol: float) -> tuple[bool, Fraction, Fraction]:
    """psd_rule in exact arithmetic on the given eigenvalues: the verdict, the
    distance of lambda_min from the threshold, and max |lambda|."""
    lam = [Fraction(x) for x in spectrum]
    threshold = -Fraction(psd_tol) * max(max(lam), 0)
    return min(lam) >= threshold, abs(min(lam) - threshold), max(map(abs, lam))


class TestClosedFormTruthTable:
    """F and |Phi><Phi| commute, so J = a I + b F + c |Phi><Phi| has the
    eigenvalues a + b + c d, a + b and a - b; the partial transpose exchanges
    F and |Phi><Phi|, so J^Gamma has a + c + b d, a + c and a - c. With a put
    on the CP or the co-CP boundary of psd_rule and offset across it, the
    verdicts of choi_report must be the exact ones, at any scale, wherever
    lambda_min lies more than 1e-13 max |lambda| from the threshold. Weights
    of 2^-60 or more keep the entries normal at the scale 2^-900."""

    weights = st.floats(-1, 1).filter(lambda x: x == 0 or abs(x) >= 2.0**-60)

    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([2, 3, 4]), b=weights, c=weights,
           psd_tol=st.sampled_from([1e-9, 1e-3]))
    def test_verdicts_at_the_boundaries(self, d, b, c, psd_tol):
        cfg = ToleranceConfig(psd_tol=psd_tol)
        for boundary in ("cp", "cocp"):
            # lambda_min(a) = a + low and lambda_max(a) = a + high on that side
            offsets = (b + c * d, b, -b) if boundary == "cp" else (c + b * d, c, -c)
            low, high = min(offsets), max(offsets)
            edge = -(low + psd_tol * high) / (1 + psd_tol)
            scale = max(abs(edge + x) for x in offsets)
            for step, sign in itertools.product(range(2, 13), (1, -1)):
                a = edge + sign * 10.0**-step * scale
                cp, cp_margin, cp_size = exact_psd_rule((a + b + c * d, a + b, a - b), psd_tol)
                cocp, cocp_margin, cocp_size = exact_psd_rule((a + c + b * d, a + c, a - c),
                                                              psd_tol)
                clear_cp = cp_margin > Fraction(1e-13) * cp_size
                clear_cocp = cocp_margin > Fraction(1e-13) * cocp_size
                for exponent in (-900, 0, 900):
                    choi = ChoiMatrix(d, d, 2.0**exponent * swap_phi_family(d, a, b, c))
                    got = {k: v.is_yes for k, v in choi_report(choi, cfg).predicates.items()}
                    if clear_cp:
                        assert got["cp"] == cp
                    if clear_cocp:
                        assert got["cocp"] == cocp
                    if clear_cp and clear_cocp:
                        assert got["ppt"] == (cp and cocp)


def _choi_verdicts(choi: ChoiMatrix) -> dict:
    """choi_report's verdicts, the witness on its recorded ranks, and its ranks."""
    report = choi_report(choi)
    ranks = tuple(report.ranks[k] for k in ("choi", "marginal_a", "marginal_b"))
    verdicts = {k: v.to_json() for k, v in report.predicates.items()}
    verdicts["witness"] = witness_verdict(ranks).to_json()
    verdicts["ranks"] = {k: (r.rank, r.fragile) for k, r in report.ranks.items()}
    return verdicts


class TestKrausInvariance:
    """Verdicts and ranks of a map do not depend on how its Kraus operators
    are listed, nor on a unitary applied to its output."""

    @settings(max_examples=50, deadline=None)
    @given(
        dims=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4)),
        seed=st.integers(0, 2**32),
        data=st.data(),
    )
    def test_verdicts_survive_reordering_and_output_unitary(self, dims, seed, data):
        d_a, d_b, d_c = dims
        kraus = kraus_from_stinespring(random_stinespring(d_a, d_b, d_c, seed=seed)).operators
        expected = _choi_verdicts(choi_from_kraus(KrausSet(d_a, d_b, kraus)))

        order = data.draw(st.permutations(range(d_c)))
        reordered = KrausSet(d_a, d_b, tuple(kraus[k] for k in order))
        assert _choi_verdicts(choi_from_kraus(reordered)) == expected

        unitary = haar_unitary(np.random.default_rng(seed), d_b)
        rotated = KrausSet(d_a, d_b, tuple(unitary @ k for k in kraus))
        assert _choi_verdicts(choi_from_kraus(rotated)) == expected


def _dilation_verdicts(dilation: StinespringOperator):
    """equivalence_check's predicate values and rank chain, or None for a
    fragile sample."""
    try:
        report = equivalence_check(dilation)
    except FragileSampleError:
        return None
    return {k: v.value for k, v in report.predicates.items()}, report.chain


class TestLocalUnitaryInvariance:
    """A unitary on the input and unitaries on both outputs of a dilation
    change neither map's verdicts nor any rank of the purification."""

    @settings(max_examples=100, deadline=None)
    @given(dims=st.sampled_from([(2, 2, 3), (2, 3, 2), (3, 3, 3), (2, 2, 6), (3, 2, 3)]),
           seed=st.integers(0, 2**32 - 1))
    def test_verdicts_survive_local_unitaries(self, dims, seed):
        d_a, d_b, d_c = dims
        dilation = random_stinespring(d_a, d_b, d_c, seed=seed)
        rng = np.random.default_rng(seed)
        u_b, u_c, v_a = (haar_unitary(rng, d) for d in (d_b, d_c, d_a))
        rotated = StinespringOperator(d_a, d_b, d_c, np.kron(u_b, u_c) @ dilation.matrix @ v_a)
        before, after = _dilation_verdicts(dilation), _dilation_verdicts(rotated)
        if before is not None and after is not None:
            assert before == after


class TestDegradingCandidate:
    def test_self_complementary_pair(self, cfg):
        pair = schur_multiplier_pair((1.0, 1.0), cfg)
        cand = degrading_candidate(pair, cfg)
        assert cand.verdict.value == "yes"
        composed = compose(cand.choi_omega, pair.choi_psi)
        assert channels_equal(composed, pair.choi_phi, cfg)

    def test_zero_phi_any_psi(self, cfg):
        st = schur_stinespring([1.0, 0.5])
        pair = complementary_pair_from_stinespring(st, cfg)
        zeroed = ComplementaryPair(
            pair.stinespring, ChoiMatrix(2, 2, np.zeros((4, 4))), pair.choi_psi
        )
        cand = degrading_candidate(zeroed, cfg)
        assert cand.verdict.value == "yes"
        assert np.linalg.norm(cand.choi_omega.matrix) <= 1e-12

    def test_weighted_multiplier_degradable(self, cfg):
        pair = schur_multiplier_pair((1.0, 0.5), cfg)
        cand = degrading_candidate(pair, cfg)
        assert cand.verdict.value == "yes"
        rng = np.random.default_rng(3)
        x = complex_gaussian(rng, (2, 2))
        np.testing.assert_allclose(
            apply_channel(cand.choi_omega, apply_channel(pair.choi_psi, x)),
            apply_channel(pair.choi_phi, x),
            atol=1e-11,
        )

    def test_inconsistent_system_returns_no(self, cfg):
        # no map can produce phi from a zero psi unless phi is zero too
        st = schur_stinespring([1.0, 1.0])
        pair = complementary_pair_from_stinespring(st, cfg)
        broken = ComplementaryPair(
            pair.stinespring, pair.choi_phi, ChoiMatrix(2, 2, np.zeros((4, 4)))
        )
        assert degrading_candidate(broken, cfg).verdict.value == "no"

    def test_transpose_over_identity_is_not_cp(self, cfg):
        # the only solution of Omega o id = T is the transpose itself: an
        # exact composition whose Choi matrix is not PSD
        pair = schur_multiplier_pair((1.0, 1.0), cfg)
        hand_built = ComplementaryPair(
            pair.stinespring, named_channel("transpose", 2), named_channel("identity", 2)
        )
        cand = degrading_candidate(hand_built, cfg)
        assert cand.residual <= 1e-12
        assert (cand.verdict.value, cand.verdict.reason) == ("unknown", "candidate-not-cp")


class TestDegradablePptCheck:
    @pytest.mark.parametrize("weights", [(1.0, 0.5), (1.0, 1.0), (1.0, 1.0, 1.0)])
    def test_multiplier_family(self, cfg, weights):
        pair = schur_multiplier_pair(weights, cfg)
        report = degradable_ppt_check(pair, cfg)
        assert report.predicates["ppt_psi"].value == "yes"
        assert report.predicates["degradable"].value == "yes"
        assert report.predicates["eb_phi"].value == "yes"
        assert report.predicates["eb_psi"].value == "yes"
        assert report.residuals["degrading_residual"] <= 1e-9

    def test_non_ppt_psi_is_vacuous(self, cfg):
        st = StinespringOperator(2, 2, 1, np.eye(2, dtype=complex))
        # swap so psi is the identity map (not PPT)
        pair = complementary_pair_from_stinespring(swap_environment(st), cfg)
        report = degradable_ppt_check(pair, cfg)
        assert report.predicates["ppt_psi"].value == "no"
        assert report.predicates["degradable"].value == "unknown"

    def test_ppt_psi_without_degrading_map(self, cfg):
        # psi reads out onto |0> and |+>: PPT and entanglement breaking, so it
        # cannot degrade to its NPT complement
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        st = swap_environment(readout_channel_dilation([np.array([1.0, 0.0]), plus]))
        report = degradable_ppt_check(complementary_pair_from_stinespring(st, cfg), cfg)
        assert report.predicates["ppt_psi"].value == "yes"
        assert report.predicates["ppt_phi"].value == "no"
        assert report.predicates["degradable"].value == "no"
        assert report.notes == ["no certified degrading map: conclusions not asserted"]

    def test_fragile_rank_data_skips_eb_assertions(self, cfg):
        # a weight of 1e-7 puts a Choi eigenvalue inside the fragility window
        report = degradable_ppt_check(schur_multiplier_pair((1.0, 1e-7), cfg), cfg)
        assert report.predicates["degradable"].value == "yes"
        assert report.predicates["eb_phi"].fragile and report.predicates["eb_psi"].fragile
        assert report.notes == ["fragile rank data: entanglement-breaking assertions skipped"]

    @pytest.mark.parametrize("fault", ["composition", "phi_pt", "eb"])
    def test_injected_faults_raise(self, cfg, monkeypatch, fault):
        # on a real degradable PPT pair the theorem's conclusions hold, so
        # each assertion can fire only through an injected fault
        pair = schur_multiplier_pair((1.0, 0.5), cfg)
        spectra = chancert.certify._spectra

        def phi_pt_not_psd(report, x, layout, cfg, keys):
            psd, ppt, *rest = spectra(report, x, layout, cfg, keys)
            if x is pair.choi_phi.matrix:
                report.spectra["choi_pt"] = dataclasses.replace(report.spectra["choi_pt"], psd=False)
                ppt = False
            return psd, ppt, *rest

        name, replacement, message = {
            "composition": ("channels_equal", lambda *args: False,
                            "certified degrading map does not reproduce phi on the Choi level"),
            "phi_pt": ("_spectra", phi_pt_not_psd,
                       "composition of a CP map with a PPT map must be PPT"),
            "eb": ("eb_verdict", lambda ppt, ranks: Verdict("unknown", OUTSIDE_LOW_RANK_REGIME),
                   "degradable PPT pair must certify entanglement breaking on both members"),
        }[fault]
        monkeypatch.setattr(chancert.certify, name, replacement)
        with pytest.raises(CounterexampleOrBugError, match=message):
            degradable_ppt_check(pair, cfg)


# pair_rules inputs of a pure pair whose PPT primary map meets every
# relation: phi is PPT outside the low-rank regime (rank_lab > rank_la,
# rank_lb), and psi is NPT with the witness firing.
HOLDING = {"phi_ppt": True, "psi_ppt": False, "witness_psi": True, "eb_phi": UNKNOWN,
           "eb_psi": NO, "lab": 3, "lac": 2, "la": 2, "lb": 2, "lc": 3}
# One row per entry of RELATIONS, in order: the inputs it changes in HOLDING,
# which break that relation and no other.
RELATION_ROWS = [
    {"lab": 1},
    {"eb_psi": UNKNOWN},
    {"eb_psi": YES},
    {"psi_ppt": True, "eb_psi": YES},
    {"eb_phi": NO},
    {"witness_psi": False},
]

# The elementwise numpy form of the rules, kept as a reference for the plain
# Python rules over one sample: its EB codes index REFERENCE_VALUES.
REFERENCE_VALUES = (NO, UNKNOWN, YES)
CODE_NO, CODE_UNKNOWN, CODE_YES = range(len(REFERENCE_VALUES))


def reference_witness_rule(whole, left, right):
    top = np.maximum(left, right)
    return np.less(whole, top), np.less_equal(whole, top)


def reference_eb_rule(ppt, regime):
    return np.where(ppt, np.where(regime, CODE_YES, CODE_UNKNOWN), CODE_NO)


REFERENCE_RELATIONS = (
    lambda lab, la, lb, **_: np.less(lab, np.maximum(la, lb)),
    lambda eb_psi, **_: np.equal(eb_psi, CODE_UNKNOWN),
    lambda psi_ppt, eb_psi, **_: np.not_equal(psi_ppt, np.equal(eb_psi, CODE_YES)),
    lambda witness_psi, psi_ppt, **_: np.logical_and(witness_psi, psi_ppt),
    lambda eb_phi, **_: np.equal(eb_phi, CODE_NO),
    lambda eb_phi, lb, lc, witness_psi, **_: (
        np.equal(eb_phi, CODE_UNKNOWN) & np.greater(lc, lb) & np.logical_not(witness_psi)),
)


def reference_pair_rules(**records):
    purity = np.equal(records["lc"], records["lab"]) & np.equal(records["lb"], records["lac"])
    relation = 0  # from the last row to the first: the first that fails sets the code
    for code in range(len(REFERENCE_RELATIONS), 0, -1):
        relation = np.where(REFERENCE_RELATIONS[code - 1](**records), code, relation)
    return purity, np.where(records["phi_ppt"], relation, 0)


def derived_records(ranks, phi_ppt, psi_ppt, witness_rule, eb_rule) -> dict:
    """A sample's records, or arrays of them over samples, with the witness
    and EB flags derived from its ranks and PPT flags by the given rules."""
    records = dict(zip(("lab", "lac", "la", "lb", "lc"), ranks), phi_ppt=phi_ppt,
                   psi_ppt=psi_ppt)
    for name, whole, side in (("phi", "lab", "lb"), ("psi", "lac", "lc")):
        records[f"witness_{name}"], regime = witness_rule(
            records[whole], records["la"], records[side])
        records[f"eb_{name}"] = eb_rule(records[f"{name}_ppt"], regime)
    return records


class TestPairRules:
    def test_holding_pair(self):
        assert pair_rules(**HOLDING) == (True, 0)

    @pytest.mark.parametrize("code, row", enumerate(RELATION_ROWS, start=1),
                             ids=[f"relation-{i}" for i in range(1, len(RELATION_ROWS) + 1)])
    def test_each_relation_fires_alone(self, code, row):
        # a relation binds only a PPT primary map
        assert pair_rules(**{**HOLDING, **row})[1] == code
        assert pair_rules(**{**HOLDING, **row, "phi_ppt": False})[1] == 0

    def test_scalar_rules_match_the_elementwise_reference(self):
        # every rank 1..4 of the five purification marginals under both PPT
        # flags: 4096 records, each flag derived by each form of the rules
        grid = list(itertools.product(*[range(1, 5)] * 5, (False, True), (False, True)))
        *ranks, phi_ppt, psi_ppt = map(np.array, zip(*grid))
        reference = derived_records(ranks, phi_ppt, psi_ppt, reference_witness_rule,
                                    reference_eb_rule)
        purity, relation = reference_pair_rules(**reference)
        assert len(RELATIONS) == len(REFERENCE_RELATIONS)
        # rows 3 and 5 cannot fail where the EB values are derived from the
        # PPT flags; RELATION_ROWS sets them by hand
        assert set(relation.tolist()) == {0, 1, 2, 4, 6}
        for i, (*sample_ranks, sample_phi_ppt, sample_psi_ppt) in enumerate(grid):
            records = derived_records(sample_ranks, sample_phi_ppt, sample_psi_ppt,
                                      witness_rule, eb_rule)
            for name in ("phi", "psi"):
                assert records[f"witness_{name}"] == reference[f"witness_{name}"][i]
                assert records[f"eb_{name}"] == REFERENCE_VALUES[reference[f"eb_{name}"][i]]
            assert pair_rules(**records) == (purity[i], relation[i])

    def test_lowest_failing_row_sets_the_code(self, monkeypatch):
        # each row fails or holds by a constant: all 64 patterns
        for pattern in itertools.product((False, True), repeat=len(RELATIONS)):
            monkeypatch.setattr(chancert.certify, "RELATIONS", tuple(
                dataclasses.replace(row, fails=lambda _column=column, **_: _column)
                for row, column in zip(RELATIONS, pattern)))
            code = pattern.index(True) + 1 if any(pattern) else 0
            assert pair_rules(**HOLDING)[1] == code
            assert pair_rules(**{**HOLDING, "phi_ppt": False})[1] == 0

    @pytest.mark.parametrize("index", range(len(RELATIONS)),
                             ids=[f"relation-{i}" for i in range(1, len(RELATIONS) + 1)])
    def test_each_row_raises_its_own_message(self, tmp_path, capsys, monkeypatch, index):
        # every relation holds on this Schur dilation, whose primary map is
        # PPT, so the patched row is the only one that fails
        rows = list(RELATIONS)
        rows[index] = dataclasses.replace(rows[index], fails=lambda **_: True)
        monkeypatch.setattr(chancert.certify, "RELATIONS", tuple(rows))
        message = rows[index].message
        with pytest.raises(CounterexampleOrBugError) as info:
            equivalence_check(schur_stinespring((0.5, 0.3, 0.2)))
        assert str(info.value) == message
        path = tmp_path / "schur.json"
        assert main(["generate", "--kind", "schur", "--params=0.5,0.3,0.2",
                     "--output", str(path)]) == 0
        assert main(["analyze", str(path)]) == 4
        assert capsys.readouterr().err == f"counterexample or bug: {message}\n"


class TestEquivalenceCheck:
    def test_purification_marginals_formed_once(self, cfg, monkeypatch):
        calls = []
        marginals = chancert.certify.purification_marginals

        def counting(st):
            calls.append((st.d_a, st.d_b, st.d_c))
            return marginals(st)

        # both binding sites: certify's, and complement's behind rank_chain
        monkeypatch.setattr(chancert.certify, "purification_marginals", counting)
        monkeypatch.setattr(chancert.complement, "purification_marginals", counting)
        equivalence_check(schur_stinespring([0.5, 0.3, 0.2]), cfg)
        assert calls == [(3, 3, 3)]

    def test_identity_dilation_vacuous_branch(self, cfg):
        st = StinespringOperator(2, 2, 1, np.eye(2, dtype=complex))
        report = equivalence_check(st, cfg)
        assert report.predicates["ppt_phi"].value == "no"
        assert report.predicates["eb_psi"].value == "yes"  # scalar output side
        assert any("vacuous" in note for note in report.notes)

    def test_dephasing_dilation_both_eb(self, cfg):
        report = equivalence_check(schur_stinespring([1.0, 1.0]), cfg)
        for key in ("ppt_phi", "ppt_psi", "eb_phi", "eb_psi"):
            assert report.predicates[key].value == "yes"

    def test_tiles_strict_branch(self, cfg):
        report = equivalence_check(tiles_stinespring(cfg), cfg)
        assert report.predicates["ppt_phi"].value == "yes"
        assert report.predicates["eb_phi"].value == "unknown"
        assert report.chain.rank_lc > report.chain.rank_lb
        assert report.predicates["witness_psi"].value == "yes"
        assert report.predicates["eb_psi"].value == "no"

    def test_ppt_map_with_npt_complement_and_no_rank_gap(self, cfg):
        # X -> sum_i X_ii |b_i><b_i| with non-orthogonal b_i: the map is PPT
        # while its complement (an entrywise multiplier with off-diagonal
        # weights) is NPT with rank equal to both marginal ranks. The witness
        # stays silent and must not be treated as evidence of PPT.
        b = [np.array([1.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2.0)]
        st = readout_channel_dilation(b)
        report = equivalence_check(st, cfg)
        assert report.predicates["ppt_phi"].value == "yes"
        assert report.predicates["ppt_psi"].value == "no"
        assert report.predicates["eb_psi"].value == "no"
        assert report.predicates["witness_psi"].value == "unknown"
        assert report.chain.rank_lab == report.chain.rank_lb == 2

    def test_mirrored_verdicts_under_swap(self, cfg):
        # psi of a dilation is phi of its swap: verdicts and rank records
        # mirror, on a PPT Schur dilation and on random dilations at the
        # acceptance tuples and (2,2,6). The swapped marginals are the same
        # sums in other orders, so cutoffs agree to rounding.
        mirror = {"ab": "ac", "ac": "ab", "a": "a", "b": "c", "c": "b"}
        dilations = [schur_stinespring([1.0, 0.5, 0.25])] + [
            random_stinespring(*dims, seed=20220404, index=index)
            for dims in [*itertools.product((2, 3), repeat=3), (2, 2, 6)]
            for index in range(4)
        ]
        for st in dilations:
            direct = equivalence_check(st, cfg)
            mirrored = equivalence_check(swap_environment(st), cfg)
            for key in ("ppt", "eb", "witness", "cp", "tp"):
                assert direct.predicates[f"{key}_phi"] == mirrored.predicates[f"{key}_psi"]
                assert direct.predicates[f"{key}_psi"] == mirrored.predicates[f"{key}_phi"]
            for key, other in mirror.items():
                x, y = direct.ranks[f"l_{key}"], mirrored.ranks[f"l_{other}"]
                assert (x.rank, x.fragile) == (y.rank, y.fragile)
                assert x.cutoff == pytest.approx(y.cutoff, rel=1e-12)

    @pytest.mark.parametrize("dims", [(2, 2, 3), (3, 3, 3)])
    def test_trace_preserving_exactly_for_isometries(self, cfg, dims, monkeypatch):
        # Tr_B J_phi and Tr_C J_psi are both L_a, read once: no Choi matrix
        # is partially traced
        def no_partial_trace(*args):
            raise AssertionError("equivalence_check partially traced a matrix")

        monkeypatch.setattr(chancert.linalg, "_partial_trace", no_partial_trace)
        d_a, d_b, d_c = dims
        rng = np.random.default_rng(20220404)
        isometries = [schur_stinespring([1.0, 1.0, 1.0])] + [
            StinespringOperator(d_a, d_b, d_c, haar_unitary(rng, d_b * d_c)[:, :d_a])
            for _ in range(3)
        ]
        for st in isometries:
            report = equivalence_check(st, cfg)
            assert report.predicates["tp_phi"].value == report.predicates["tp_psi"].value == "yes"
        for index in range(4):
            report = equivalence_check(random_stinespring(*dims, seed=5, index=index), cfg)
            assert report.predicates["tp_phi"].value == report.predicates["tp_psi"].value == "no"

    def test_report_is_reproducible_from_recorded_data(self, cfg):
        report = equivalence_check(tiles_stinespring(cfg), cfg)
        data = report.to_json()
        # re-derive the PPT verdicts from the recorded spectra alone
        for side in ("phi", "psi"):
            direct = data["spectra"][f"{side}_choi"]
            transposed = data["spectra"][f"{side}_choi_pt"]
            rederived = (
                direct["psd"]
                and transposed["lambda_min"] >= transposed["threshold"]
                and transposed["hermitian"]
            )
            assert rederived == (data["predicates"][f"ppt_{side}"]["value"] == "yes")
        # re-derive the witness from the recorded rank chain
        chain = data["rank_chain"]
        fired = chain["rank_lac"] < max(chain["rank_lc"], chain["rank_la"])
        assert fired == (data["predicates"]["witness_psi"]["value"] == "yes")

    def test_violation_raises_counterexample_error(self, cfg, monkeypatch):
        # corrupt a proven relation by feeding an inconsistent report path:
        # a PPT phi whose complement certificate is forced unknown cannot be
        # produced by a genuine dilation, so fabricate one by monkeypatching
        # the record-level rule that equivalence_check applies to both maps
        st = schur_stinespring([1.0, 1.0])
        import chancert.certify as certify_mod

        def broken(ppt, ranks):
            return certify_mod.Verdict("unknown", OUTSIDE_LOW_RANK_REGIME)

        monkeypatch.setattr(certify_mod, "eb_verdict", broken)
        with pytest.raises(CounterexampleOrBugError):
            certify_mod.equivalence_check(st, cfg)


class TestReportBuilders:
    def test_state_report_on_tiles(self, cfg):
        tiles = tiles_upb_choi()
        report = state_report(tiles.matrix, tiles.layout, cfg)
        assert report.predicates["psd"].value == "yes"
        assert report.predicates["ppt"].value == "yes"
        assert report.ranks["state"].rank == 4
        assert report.predicates["separable"].value == "unknown"

    def test_state_report_skips_on_non_psd(self, cfg):
        report = state_report(np.diag([1.0, 1.0, 1.0, -1.0]), L22, cfg)
        assert report.predicates["psd"].value == "no"
        assert "separable" not in report.predicates

    def test_choi_report_identity(self, cfg):
        report = choi_report(named_channel("identity", 2), cfg)
        assert report.predicates["cp"].value == "yes"
        assert report.predicates["ppt"].value == "no"
        assert report.predicates["trace_preserving"].value == "yes"
        assert report.predicates["eb"].value == "no"

    def test_choi_report_non_cp_skips_eb(self, cfg):
        report = choi_report(named_channel("transpose", 2), cfg)
        assert report.predicates["cp"].value == "no"
        assert "eb" not in report.predicates


class TestLapackBudget:
    """Each report builder computes one spectrum per distinct matrix, and
    derives both its PSD record and its rank decision from it. The spectra
    of equal side come from one stacked call: ``lapack`` counts the calls of
    each routine and, apart, the matrices they decompose."""

    @pytest.fixture
    def lapack(self, monkeypatch):
        calls = dict.fromkeys(("eigvalsh", "svd", "eigh"), 0)
        matrices = dict.fromkeys(calls, 0)
        for name in calls:
            def counted(a, *args, _original=getattr(np.linalg, name), _name=name, **kwargs):
                calls[_name] += 1
                matrices[_name] += int(np.prod(np.shape(a)[:-2]))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)

        def counts():
            return tuple({k: v for k, v in c.items() if v} for c in (calls, matrices))

        return counts

    @pytest.mark.parametrize("kind", ["depolarizing", "identity", "transpose"])
    def test_choi_report(self, cfg, lapack, kind):
        # a PPT map, an NPT CP map and a non-CP map: the Choi matrix and its
        # partial transpose in one call, and its two marginals, of equal
        # side, in another
        choi_report(named_channel(kind, 3), cfg)
        assert lapack() == ({"eigvalsh": 2}, {"eigvalsh": 4})

    @pytest.mark.parametrize("d_a, d_b", [(2, 3), (3, 2), (2, 1)])
    def test_choi_report_of_unequal_factors(self, cfg, lapack, d_a, d_b):
        # marginals of unequal side take a call each, unless one has the
        # side of the Choi matrix, as at d_b = 1
        rng = np.random.default_rng(11)
        choi = choi_from_kraus(KrausSet(d_a, d_b, tuple(complex_gaussian(rng, (d_b, d_a))
                                                         for _ in range(2))))
        choi_report(choi, cfg)
        assert lapack() == ({"eigvalsh": 2 if d_b == 1 else 3}, {"eigvalsh": 4})

    def test_state_report_on_tiles(self, cfg, lapack):
        tiles = tiles_upb_choi()
        state_report(tiles.matrix, tiles.layout, cfg)
        assert lapack() == ({"eigvalsh": 2}, {"eigvalsh": 4})

    @pytest.mark.parametrize("decide", [distillability_witness, separability_decision])
    def test_matrix_level_state_functions(self, cfg, lapack, decide):
        # read from state_report: the same 4 spectra
        tiles = tiles_upb_choi()
        decide(tiles.matrix, tiles.layout, cfg)
        assert lapack() == ({"eigvalsh": 2}, {"eigvalsh": 4})

    @pytest.mark.parametrize("kind", ["depolarizing", "identity"])
    def test_eb_certificate(self, cfg, lapack, kind):
        # read from choi_report, on a PPT and on an NPT map
        eb_certificate(named_channel(kind, 3), cfg)
        assert lapack() == ({"eigvalsh": 2}, {"eigvalsh": 4})

    @pytest.mark.parametrize("st, calls", [
        (StinespringOperator(2, 2, 3, complex_gaussian(np.random.default_rng(8), (6, 2))), 4),
        (StinespringOperator(2, 3, 4, complex_gaussian(np.random.default_rng(8), (12, 2))), 5),
        (schur_stinespring([0.5, 0.3, 0.2]), 2),
        (StinespringOperator(3, 3, 9, complex_gaussian(np.random.default_rng(8), (27, 3))), 3),
        (StinespringOperator(1, 2, 2, complex_gaussian(np.random.default_rng(8), (4, 1))), 2),
    ], ids=["random-2-2-3", "random-2-3-4", "ppt-schur", "random-3-3-9", "random-1-2-2"])
    def test_equivalence_check(self, cfg, lapack, st, calls):
        # 5 purification marginals, of which L_ab and L_ac are the Choi
        # matrices, and the Choi matrices' 2 partial transposes: one call
        # per distinct side of the 7, so 2 at (3,3,3), where the Choi
        # matrices have side 9 and the factor marginals side 3, and 2 at
        # (1,2,2), where all but L_a have side 2
        equivalence_check(st, cfg)
        assert lapack() == ({"eigvalsh": calls}, {"eigvalsh": 7})

    @pytest.mark.parametrize("dims, calls", [((2, 3, 3), 1), ((2, 2, 3), 2)])
    def test_complementary_pair_from_stinespring(self, cfg, lapack, dims, calls):
        # both Choi matrices in one call where d_b = d_c, else one call each
        d_a, d_b, d_c = dims
        st = StinespringOperator(*dims, complex_gaussian(np.random.default_rng(8),
                                                         (d_b * d_c, d_a)))
        complementary_pair_from_stinespring(st, cfg)
        assert lapack() == ({"eigvalsh": calls}, {"eigvalsh": 2})

    @pytest.mark.parametrize("kind", ["depolarizing", "dephasing"])
    def test_kraus_from_choi(self, cfg, lapack, kind):
        kraus_from_choi(named_channel(kind, 3), cfg)
        assert lapack() == ({"eigh": 1}, {"eigh": 1})

    @pytest.mark.parametrize("pair", [schur_multiplier_pair([0.5, 0.3, 0.2])], ids=["schur"])
    def test_degradable_ppt_check_on_psi_ppt_pair(self, cfg, lapack, pair):
        # choi_report's 4 spectra in 2 calls per member and the degrading
        # candidate's; the candidate's pinv calls none of the counted routines
        report = degradable_ppt_check(pair, cfg)
        assert report.predicates["ppt_psi"].is_yes and report.predicates["ppt_phi"].is_yes
        assert lapack() == ({"eigvalsh": 5}, {"eigvalsh": 9})

    @pytest.mark.parametrize("pair", [complementary_pair_from_stinespring(
        swap_environment(StinespringOperator(2, 2, 1, np.eye(2, dtype=complex))))
    ], ids=["identity-psi"])
    def test_degradable_ppt_check_on_npt_psi(self, cfg, lapack, pair):
        # choi_report's 4 spectra in 2 calls per member, and no degrading
        # candidate
        report = degradable_ppt_check(pair, cfg)
        assert not report.predicates["ppt_psi"].is_yes
        assert lapack() == ({"eigvalsh": 4}, {"eigvalsh": 8})
