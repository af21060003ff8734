"""Agreement of the batched verify-theorem engine with a per-sample loop.

The reference is the loop the engine replaces: ``random_stinespring`` then
``equivalence_check`` for every sample, tallied here. Counts and
counterexample records must be equal, and the non-vacuous configurations
must actually reach escalation, fragile discards and the PPT branch.
Structured dilations, handed to ``_run_chunk`` as a chunk, are held to
``equivalence_check`` on each of them the same way; they reach the bi-PPT
branch that the Gaussian draw at d_a > 1 does not.

A chunk holds each sample's dilation and its marginals on a, b and c; the
Choi matrices are formed in blocks inside it, and only there. The engine's
partial-transpose flags skip the spectrum where a Cholesky of the partial
transpose shifted up by c' fails, which certifies it clearly not PSD, and
the marginal on a and each complementary pair take the rules' flags of the
spectrum a Cholesky of the narrower member shifted down vouches for, where
it succeeds; both must equal the flags of the computed spectrum exactly,
and where the pair's certificate declines, the outcomes must be those of the
engine without it. A wider Choi matrix
whose non-transposed factor exceeds the inner dimension r + 1 is first read
on the vectors cut to r + 1 values of that factor; where the certificate
fires on the cut, the flags of the full partial transpose's spectrum must
read not PSD and not near, and the full matrix is never formed.
"""

import dataclasses
import itertools
import json
import sys
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chancert import (
    DEFAULT_TOLERANCES,
    ChancertError,
    CounterexampleOrBugError,
    FragileSampleError,
    PurityViolationError,
    StinespringOperator,
    ToleranceConfig,
    equivalence_check,
    random_stinespring,
)
from chancert.cli import main
import chancert.certify
import chancert.generate
import chancert.harness
import chancert.linalg
from chancert.complement import choi_marginal, common_purification_vector, factor_marginals
from chancert.linalg import ROUNDING_BAND
from chancert.harness import (
    CHUNK_ENTRIES,
    COUNT_KEYS,
    CHOLESKY_ROUNDING,
    ESCALATION_MARGIN,
    SCHMIDT_ROUNDING,
    HarnessResult,
    _certified_flags,
    _cholesky_certified,
    _cholesky_shift,
    _complementary_pair,
    _choi_blocks,
    _cut_certificates,
    _factor_marginals,
    _fill,
    _frobenius,
    _npt_certified,
    _partial_transpose_flags,
    _partial_transpose_left,
    _psd_flags,
    _purification_choi,
    _run_chunk,
    _spectrum_flags,
    _stacked_cholesky,
    block_size,
    chunk_size,
    run_harness,
)

from conftest import complex_gaussian, haar_unitary, rotated_schur_stack

ACCEPTANCE_TUPLES = list(itertools.product((2, 3), repeat=3))
WIDE_TUPLES = [(2, 2, 6), (3, 3, 9), (4, 4, 16)]
# the wide tuples with b and c swapped: phi's Choi matrix is the wider side
MIRRORED_TUPLES = [(2, 6, 2), (3, 9, 3), (4, 16, 4)]
ROUNDING_PSD_TOL = 1e-17
ROUNDING_RANK_TOL = 1e-15


def dims_id(dims) -> str:
    return ",".join(map(str, dims))


def per_sample(dims, trials, seed, cfg):
    """Counts, counterexamples and fragile indices of the per-sample loop."""
    return per_dilation((random_stinespring(*dims, seed=seed, index=index)
                         for index in range(trials)), seed, cfg)


def per_dilation(dilations, seed, cfg):
    """Counts, counterexamples and fragile indices of ``equivalence_check``
    on each of ``dilations``, the i-th recorded as sample i of ``seed``."""
    counts = dict.fromkeys(COUNT_KEYS, 0)
    counterexamples, fragile = [], []
    for index, st in enumerate(dilations):
        dims = (st.d_a, st.d_b, st.d_c)
        context = {"seed": seed, "index": index, "dims": list(dims)}
        try:
            report = equivalence_check(st, cfg, context=context)
        except FragileSampleError:
            counts["fragile_discarded"] += 1
            fragile.append(index)
            continue
        except (CounterexampleOrBugError, PurityViolationError) as exc:
            counterexamples.append({"seed": seed, "index": index, "dims": list(dims),
                                    "type": type(exc).__name__, "error": str(exc)})
            continue
        value = {key: verdict.value for key, verdict in report.predicates.items()}
        phi_ppt, psi_ppt = value["ppt_phi"] == "yes", value["ppt_psi"] == "yes"
        counts["samples"] += 1
        counts["phi_ppt"] += phi_ppt
        counts["psi_ppt"] += psi_ppt
        counts["both_ppt"] += phi_ppt and psi_ppt
        counts["witness_phi_fired"] += value["witness_phi"] == "yes"
        counts["witness_psi_fired"] += value["witness_psi"] == "yes"
        counts["eb_phi_yes"] += value["eb_phi"] == "yes"
        counts["eb_psi_yes"] += value["eb_psi"] == "yes"
        counts["regime_applied_to_psi_given_phi_ppt"] += phi_ppt and value["eb_psi"] != "unknown"
    return counts, counterexamples, fragile


def assert_agrees(dims, trials, seed, cfg=DEFAULT_TOLERANCES):
    """Both paths give equal counts and counterexamples, or raise the same
    error. Returns the engine's result and the loop's fragile indices."""
    result = fragile = None
    try:
        result = run_harness(dims, trials, seed, cfg)
        batched = (result.counts, result.counterexamples)
    except ChancertError as exc:
        batched = (type(exc), str(exc))
    try:
        counts, counterexamples, fragile = per_sample(dims, trials, seed, cfg)
        loop = (counts, counterexamples)
    except ChancertError as exc:
        loop = (type(exc), str(exc))
    assert batched == loop
    return result, fragile


@pytest.mark.parametrize("dims", ACCEPTANCE_TUPLES, ids=dims_id)
def test_acceptance_tuples_agree(dims):
    assert_agrees(dims, 500, 3003)


@pytest.mark.parametrize("dims", WIDE_TUPLES + MIRRORED_TUPLES, ids=dims_id)
def test_wide_tuples_agree(dims):
    assert_agrees(dims, 100, 3003)


def test_loose_psd_tolerance_reaches_escalation_and_ppt_branch():
    result, _ = assert_agrees((2, 2, 3), 300, 3003, ToleranceConfig(psd_tol=0.1))
    assert len(result.escalated) > 0
    assert result.counts["phi_ppt"] > 0


@pytest.mark.parametrize("dims", [(4, 4, 16), (3, 3, 9)], ids=dims_id)
def test_escalations_inside_wide_chunks_agree(dims):
    size = chunk_size(dims)
    assert size > 1
    result, _ = assert_agrees(dims, 3 * size, 3003, ToleranceConfig(psd_tol=0.1))
    assert any(index % size not in (0, size - 1) for index in result.escalated)


def test_chunk_peak_allocation():
    # At (4,4,16) the default run reads psi's Choi matrices on the cut to 5
    # values of c and peaks near 0.4 MiB. At psd_tol = 0.1 the cut certifies
    # none, so psi's 64 x 64 Choi matrices are formed 4 samples per block,
    # about 1.2 MiB at peak; at four times the budget all 8 samples share
    # one block and peak near 2.3 MiB
    for cfg in (DEFAULT_TOLERANCES, ToleranceConfig(psd_tol=0.1)):
        run_harness((4, 4, 16), 8, 3003, cfg)
        tracemalloc.start()
        try:
            run_harness((4, 4, 16), 8, 3003, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20


def test_wide_command_draws_once(monkeypatch):
    # a 50-trial (4,4,16) command is one chunk: one call draws every dilation
    calls = []
    draw = chancert.harness.random_dilation_stack
    monkeypatch.setattr(chancert.harness, "random_dilation_stack",
                        lambda *args: calls.append(args[-1]) or draw(*args))
    run_harness((4, 4, 16), 50, 3003, DEFAULT_TOLERANCES)
    assert calls == [range(50)]


def test_escalations_check_the_drawn_dilations(monkeypatch):
    # an escalated sample goes to the oracle as its chunk drew it: one draw
    # for the whole run, whichever module the draw is reached through
    calls = []
    draw = chancert.generate.random_dilation_stack

    def counting(*args):
        calls.append(args[-1])
        return draw(*args)

    monkeypatch.setattr(chancert.harness, "random_dilation_stack", counting)
    monkeypatch.setattr(chancert.generate, "random_dilation_stack", counting)
    cfg = ToleranceConfig(rank_tol=1e-3)
    result = run_harness((2, 2, 3), 50, 8, cfg)
    assert calls == [range(50)]
    assert result.escalated == [2, 12, 13, 16, 19, 24, 28, 30, 33, 36, 38, 39, 40, 41, 42, 44, 49]
    monkeypatch.undo()
    counts, counterexamples, _ = per_sample((2, 2, 3), 50, 8, cfg)
    assert (result.counts, result.counterexamples) == (counts, counterexamples)


def test_wide_command_peak_allocation():
    # the whole 50-sample chunk, with psi's Choi matrices read on the cut to
    # 5 values of c, 40 samples per block, peaks near 2.2 MiB; formed in
    # full, 4 samples at a time, near 2.1 MiB, and near 5.2 MiB at four
    # times the budget; 13 chunks of 4 samples peaked near 1.0 MiB
    run_harness((4, 4, 16), 50, 3003, DEFAULT_TOLERANCES)
    tracemalloc.start()
    try:
        run_harness((4, 4, 16), 50, 3003, DEFAULT_TOLERANCES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20


def test_coarse_rank_tolerance_makes_every_sample_fragile():
    result, _ = assert_agrees((2, 2, 3), 300, 3003, ToleranceConfig(rank_tol=1e-2))
    assert result.counts["fragile_discarded"] == 300
    assert len(result.escalated) > 0


def test_fragile_samples_discarded_without_escalation():
    result, fragile = assert_agrees((2, 2, 3), 300, 3003, ToleranceConfig(rank_tol=1e-3))
    assert set(fragile) - set(result.escalated)


@pytest.mark.parametrize("dims", [(2, 2, 3), (2, 3, 2)], ids=dims_id)
@pytest.mark.parametrize("cfg", [ToleranceConfig(equality_tol=1e-16),
                                 ToleranceConfig(psd_tol=1e-17)], ids=["equality", "psd"])
def test_rounding_level_tolerances_agree(dims, cfg):
    # at these tolerances rounding decides: samples turn into counterexamples
    # or precondition failures, which must surface exactly as in the loop
    assert_agrees(dims, 50, 8, cfg)


@pytest.mark.parametrize("dims, seed", [((1, 1, 2), 1), ((2, 1, 1), 3003), ((1, 4, 3), 3003),
                                        ((3, 1, 1), 3003)], ids=lambda x: str(x))
def test_rank_cutoff_inside_rounding_band_agrees(dims, seed):
    # at rank_tol 1e-17 the fragility window lies inside eigvalsh's rounding
    # band: a singular value there forces no rank, and is fragile in both
    # paths alike. The loop read rounding noise as a rank (purity
    # "counterexamples"), and the engine discarded samples the loop counted
    result, _ = assert_agrees(dims, 300, seed, ToleranceConfig(rank_tol=1e-17))
    assert result.counterexamples == []


def test_default_tolerances_need_no_escalation():
    assert run_harness((2, 2, 3), 500, 3003, DEFAULT_TOLERANCES).escalated == []


def harness_outcome(dims, trials, seed):
    """``run_harness``'s counts, counterexample records and escalated indices,
    or the type of the error it raises."""
    try:
        result = run_harness(dims, trials, seed, DEFAULT_TOLERANCES)
    except ChancertError as exc:
        return type(exc).__name__
    return result.counts, result.counterexamples, result.escalated


def never_psd(rule):
    def mutant(w, cfg):
        psd, threshold = rule(w, cfg)
        return np.zeros_like(psd), threshold
    return mutant


def cutoff_times_1e6(rule):
    return lambda w, cfg: rule(w, dataclasses.replace(cfg, rank_tol=cfg.rank_tol * 1e6))


def ppt_ignoring_partial_transpose(rule):
    return lambda psd, pt_psd: rule(psd, True)


def threshold_times_1e8(rule):
    return lambda w, cfg: rule(w, dataclasses.replace(cfg, psd_tol=cfg.psd_tol * 1e8))


@pytest.mark.parametrize("module, name, mutate, tuples, trials, loop", [
    (chancert.linalg, "psd_rule", never_psd, [(2, 2, 3)], 50, True),
    (chancert.linalg, "rank_rule", cutoff_times_1e6, [(2, 2, 3)], 50, True),
    (chancert.certify, "ppt_rule", ppt_ignoring_partial_transpose, [(2, 2, 3)], 50, True),
    (chancert.linalg, "psd_rule", threshold_times_1e8, [(2, 2, 3), (2, 3, 2), (3, 3, 9)], 200,
     True),
], ids=["never-psd", "cutoff-x1e6", "ppt-ignores-pt", "threshold-x1e8"])
def test_rule_patched_on_its_module_reaches_the_engine(module, name, mutate, tuples, trials, loop,
                                                       monkeypatch):
    # The engine and equivalence_check look each rule up on the module that
    # defines it, so one patch there reaches both, and the engine's
    # certificates read their windows through the rules. The unpatched run
    # escalates no sample, so only the engine can make the outcome differ.
    # Where the patch moves a window, the outcome must also be the
    # per-sample loop's. A PSD threshold 1e8 times wider (-0.1 lambda_max)
    # must widen the NPT certificate's shift: with c taken from psd_tol
    # itself, the engine certified partial transposes NPT that the patched
    # rule reads PSD. A verdict that ignores its threshold (never-psd) must
    # reach the matrices the Cholesky certificate settles: their flags are
    # the rules' flags of the spectrum it vouches for
    seed = 3003
    unpatched = {dims: harness_outcome(dims, trials, seed) for dims in tuples}
    assert all(outcome[2] == [] for outcome in unpatched.values())
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    for dims in tuples:
        assert harness_outcome(dims, trials, seed) != unpatched[dims]
        if loop:
            assert_agrees(dims, trials, seed)


def test_certified_flags_are_fresh_on_every_call():
    # _fill writes the flags of the spectra the Cholesky left open into the
    # rows of a _certified_flags call: the next call still returns the
    # rules' flags of the spectrum it vouches for, 2 zeros and 2 ones
    cfg = DEFAULT_TOLERANCES
    unit = _spectrum_flags(np.array([[0.0, 0.0, 1.0, 1.0]]), cfg)
    first = _certified_flags(5, 2, 4, cfg)
    _fill(first, [1, 3], np.array([[-1.0, 0.0, 0.0, 1.0]] * 2), cfg)
    assert first[0].tolist() == [True, False, True, False, True]
    for n in (5, 3):
        flags = _certified_flags(n, 2, 4, cfg)
        assert [flag.dtype for flag in flags] == [flag.dtype for flag in unit]
        assert all(np.array_equal(flag, want.repeat(n)) for flag, want in zip(flags, unit))


@pytest.mark.parametrize("dims", [(2, 2, 3), (4, 4, 16), (3, 3, 3)], ids=dims_id)
def test_injected_non_hermitian_marginals_escalate(dims, monkeypatch):
    # The engine's products deviate from Hermitian only by rounding, so only
    # an injected fault makes its Hermitian checks fire. Each chosen sample
    # gets an anti-Hermitian part i r M on one marginal M, r = 3/40
    # equality_tol: its deviation, 2r, fails the check against
    # equality_tol/10, while a Choi matrix stays within equality_tol/10 of
    # the V V^dagger route. The oracle forms its marginals through
    # chancert.complement, unpatched. At (4, 4, 16) the engine reads psi's
    # Choi matrix on the vectors cut to their first d_b + 1 values of c, so
    # psi's fault lands on that compressed block. At (3, 3, 3) both
    # orientations share one stack, and each fault still lands on its own row.
    cfg, seed, trials = DEFAULT_TOLERANCES, 3003, 12
    faults = {"phi": 1, "psi": 5, "a": 7, "b": 9, "c": 10}
    draws = {key: random_stinespring(*dims, seed=seed, index=i) for key, i in faults.items()}
    vectors = {key: common_purification_vector(st).reshape(dims) for key, st in draws.items()}
    _, d_b, d_c = dims
    vectors["psi"] = vectors["psi"].swapaxes(1, 2)[:, :d_b + 1 if d_c > d_b + 1 else d_c]
    spoil = 1.0 + 0.075j * cfg.equality_tol

    def inject(marginals, key, psi):
        """Spoil the marginals of the rows of psi that are sample ``key``'s vector."""
        hits = [k for k in range(len(psi)) if np.array_equal(psi[k], vectors[key])]
        marginals[hits] *= spoil
        return len(hits)

    injected = Counter()
    purification_choi = chancert.harness._purification_choi
    factor_marginals = chancert.harness._factor_marginals

    def spoiled_choi(v, out):
        choi = purification_choi(v, out)
        for key in ("phi", "psi"):
            injected[key] += inject(choi, key, v)
        return choi

    def spoiled_factors(groups, n):
        # the marginal on a of phi's vectors, then per group the marginals on
        # c of phi's vectors and on b of psi's, each (a, c, b)
        marginals = factor_marginals(groups, n)
        injected["a"] += inject(marginals[0], "a", groups[0][:n])
        for v, environment in zip(groups, marginals[1:]):
            injected["c"] += inject(environment, "c", v)
            injected["b"] += inject(environment, "b", v.swapaxes(2, 3))
        return marginals

    monkeypatch.setattr(chancert.harness, "_purification_choi", spoiled_choi)
    monkeypatch.setattr(chancert.harness, "_factor_marginals", spoiled_factors)
    result = run_harness(dims, trials, seed, cfg)
    assert injected == dict.fromkeys(faults, 1)
    assert sorted(result.escalated) == sorted(faults.values())
    counts, counterexamples, _ = per_sample(dims, trials, seed, cfg)
    assert (result.counts, result.counterexamples) == (counts, counterexamples)


@pytest.mark.parametrize("dims", [(2, 2, 3), (4, 4, 16)], ids=dims_id)
def test_spoiled_purification_route_escalates_every_sample(dims, monkeypatch):
    # The purification route formed from the vector with b and c swapped, read
    # back in the (a, b, c) shape, is another matrix: the cross-check against
    # V V^dagger fails on every sample, and the oracle decides them all
    purification_choi = chancert.harness._purification_choi

    def spoiled(v, out):
        return purification_choi(np.ascontiguousarray(v.swapaxes(2, 3)).reshape(v.shape), out)

    monkeypatch.setattr(chancert.harness, "_purification_choi", spoiled)
    cfg, seed, trials = DEFAULT_TOLERANCES, 3003, 12
    result = run_harness(dims, trials, seed, cfg)
    assert result.escalated == list(range(trials))
    counts, counterexamples, _ = per_sample(dims, trials, seed, cfg)
    assert (result.counts, result.counterexamples) == (counts, counterexamples)


def harness_vectors(dims, seed, trials) -> np.ndarray:
    """The purification vectors of samples 0 .. trials-1, shape (trials, *dims)."""
    return np.stack([common_purification_vector(random_stinespring(*dims, seed=seed, index=i))
                     for i in range(trials)]).reshape(trials, *dims)


def engine_marginals(vector, swapped) -> dict:
    """The five marginals of C-contiguous tripartite vectors, given also with
    b and c swapped, formed with the engine's products, keyed as
    ``purification_marginals``."""
    marginals = {}
    for key, v in (("ab", vector), ("ac", swapped)):
        n, d_a, d_b, _ = v.shape
        marginals[key] = _purification_choi(v, np.empty((n, d_a * d_b, d_a * d_b), dtype=complex))
    marginals["a"], marginals["c"], marginals["b"] = _factor_marginals([vector, swapped],
                                                                       len(vector))
    return marginals


@pytest.mark.parametrize("dims", ACCEPTANCE_TUPLES + WIDE_TUPLES, ids=dims_id)
def test_products_within_the_rounding_bound(dims):
    # _cholesky_certified takes every marginal the engine forms, over l complex
    # terms, within 3/2 l eps tr of exact in Frobenius norm; the einsums of
    # chancert.complement err by at most (l + 2)/2 eps tr, so the two lie
    # within (2 l + 1) eps tr of each other, sample by sample
    d_a, d_b, d_c = dims
    n, eps = 40, np.finfo(np.float64).eps
    vector = harness_vectors(dims, 3003, n)
    trace = np.square(_frobenius(vector.reshape(n, 1, -1)))
    engine = engine_marginals(vector, np.ascontiguousarray(vector.swapaxes(2, 3)))
    reference = {"ab": choi_marginal(vector), "ac": choi_marginal(vector.swapaxes(2, 3)),
                 **factor_marginals(vector)}
    terms = {"ab": d_c, "ac": d_b, "a": d_b * d_c, "b": d_a * d_c, "c": d_a * d_b}
    for key, l in terms.items():
        error = _frobenius(engine[key] - reference[key])
        assert (error <= (2 * l + 1) * eps * trace).all(), key


@pytest.mark.parametrize("dims", [(2, 2, 3), (4, 4, 16)], ids=dims_id)
def test_products_are_blas_products(dims, monkeypatch):
    # no complex einsum on the engine's path, and the purification route is
    # a float64 product: a complex one would make the cross-check against
    # the complex Kraus-vector route compare a kernel with itself
    einsums, choi_matmuls = [], []

    def einsum(*args, _original=np.einsum, **kwargs):
        einsums.extend(x.dtype for x in args[1:])
        return _original(*args, **kwargs)

    def matmul(*args, _original=np.matmul, **kwargs):
        if sys._getframe(1).f_code.co_name == "_purification_choi":
            choi_matmuls.extend(x.dtype for x in args)
        return _original(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", einsum)
    monkeypatch.setattr(np, "matmul", matmul)
    assert run_harness(dims, 20, 3003, DEFAULT_TOLERANCES).escalated == []
    assert set(einsums) == {np.dtype(np.float64)}
    assert choi_matmuls and set(choi_matmuls) == {np.dtype(np.float64)}


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 3), (4, 4, 16)], ids=dims_id)
def test_chunk_edges(dims):
    assert_agrees(dims, 1, 17)
    assert_agrees(dims, chunk_size(dims) + 1, 17)


@pytest.mark.parametrize("dims", [(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 1, 1), (6, 1, 6)],
                         ids=dims_id)
def test_unit_dimensions_agree(dims):
    # a unit factor turns a partial transpose into a strided view, which
    # the certificate copies into its work array
    assert_agrees(dims, 40, 17)


def assert_bi_ppt_branch(counts):
    """Every counted sample is in the bi-PPT branch, and some are counted."""
    assert counts["samples"] > 0
    assert counts["both_ppt"] == counts["eb_phi_yes"] == counts["eb_psi_yes"] == counts["samples"]


@pytest.mark.parametrize("dims", [(1, 2, 2), (1, 3, 3), (1, 4, 2), (1, 2, 4)], ids=dims_id)
@pytest.mark.parametrize("cfg", [DEFAULT_TOLERANCES, ToleranceConfig(psd_tol=0.1)],
                         ids=["default", "psd"])
def test_state_preparations_agree(dims, cfg, monkeypatch):
    # at d_a = 1 both maps prepare a state: trivially PPT and entanglement
    # breaking. The cut certifies none of them, so the wider Choi matrix is
    # formed in full, as elsewhere only at a loose psd_tol
    sides = set()
    purification_choi = chancert.harness._purification_choi

    def recording(v, out):
        sides.add(v.shape[1] * v.shape[2])
        return purification_choi(v, out)

    monkeypatch.setattr(chancert.harness, "_purification_choi", recording)
    result, _ = assert_agrees(dims, 40, 3003, cfg)
    assert max(dims) in sides
    assert_bi_ppt_branch(result.counts)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_rotated_schur_stacks_agree(d):
    # self-complementary diagonal multipliers under local unitaries, handed
    # to the engine as a chunk: every sample bi-PPT, none escalated
    dims, seed, cfg = (d, d, d), 3003, DEFAULT_TOLERANCES
    stack = rotated_schur_stack(np.random.default_rng(d), d, 40)
    result = HarnessResult()
    _run_chunk(stack, dims, seed, range(len(stack)), cfg, result)
    counts, counterexamples, _ = per_dilation(
        (StinespringOperator(*dims, m) for m in stack), seed, cfg)
    assert (result.counts, result.counterexamples) == (counts, counterexamples)
    assert result.escalated == []
    assert result.counts["samples"] == 40
    assert_bi_ppt_branch(result.counts)


def test_chunk_fits_the_memory_budget():
    # a chunk holds dilations and marginals on a, b and c; a block holds Choi
    # matrices; each stack as large as CHUNK_ENTRIES allows. Where d_b = d_c
    # both orientations of the vector share one stack, as do the marginals
    # on b and c, so a sample takes twice their entries
    for dims in ACCEPTANCE_TUPLES + WIDE_TUPLES:
        d_a, d_b, d_c = dims
        stacked = 2 if d_b == d_c else 1
        entries = max(stacked * d_a * d_b * d_c, d_a**2, stacked * d_b**2, stacked * d_c**2)
        size = chunk_size(dims)
        assert size == 1 or size * entries <= CHUNK_ENTRIES < (size + 1) * entries
        for side in (d_a * d_b, d_a * d_c):
            size = block_size(side)
            assert size == 1 or size * side**2 <= CHUNK_ENTRIES < (size + 1) * side**2
    assert chunk_size((4, 4, 16)) >= 50 and block_size(4 * 16) == 4


# d_b = d_c, where one pass takes both orientations, then two tuples where it
# cannot
ROUTING_TUPLES = [(2, 2, 2), (2, 3, 3), (3, 3, 3), (2, 4, 4), (4, 3, 3), (1, 3, 3), (2, 2, 3),
                  (2, 6, 2)]
ROUTING_TOLERANCES = {"default": DEFAULT_TOLERANCES, "psd-0.1": ToleranceConfig(psd_tol=0.1),
                      "psd-0.03": ToleranceConfig(psd_tol=0.03),
                      "psd-1e-17": ToleranceConfig(psd_tol=1e-17),
                      "rank-1e-17": ToleranceConfig(rank_tol=1e-17)}


@pytest.mark.parametrize("tol", list(ROUTING_TOLERANCES))
@pytest.mark.parametrize("dims", ROUTING_TUPLES, ids=dims_id)
def test_equal_shapes_share_one_pair_pass(dims, tol, monkeypatch):
    # where d_b = d_c, phi's vectors and psi's have one shape, and one
    # _complementary_pair call per chunk takes both, 2n samples; otherwise
    # each orientation takes its own call. The budget is cut so that runs
    # span several chunks, and at (3, 3, 3) blocks of Choi matrices straddle
    # the two orientations. Counts, counterexamples and escalations are
    # those of the engine with the orientations kept apart, and counts and
    # counterexamples those of the per-sample loop
    cfg, trials, seed = ROUTING_TOLERANCES[tol], 40, 3003
    monkeypatch.setattr(chancert.harness, "CHUNK_ENTRIES", 300)
    size = chunk_size(dims)
    assert size < trials
    calls = []
    pair = chancert.harness._complementary_pair
    monkeypatch.setattr(chancert.harness, "_complementary_pair",
                        lambda v, *args: calls.append(len(v)) or pair(v, *args))

    def run():
        calls.clear()
        return run_harness(dims, trials, seed, cfg)

    chunks = [min(size, trials - start) for start in range(0, trials, size)]
    stacked = engine_outcome(run)
    _, d_b, d_c = dims
    want = [2 * m for m in chunks] if d_b == d_c else [m for m in chunks for _ in range(2)]
    assert calls == want[:len(calls)]
    assert len(calls) == len(want) or len(stacked) == 2  # or the run raised
    orientations = chancert.harness._orientations
    monkeypatch.setattr(chancert.harness, "_orientations", lambda stack, dims: [
        part for v in orientations(stack, dims) for part in np.split(v, len(v) // len(stack))])
    assert engine_outcome(run) == stacked
    assert set(calls) <= set(chunks)
    try:
        counts, counterexamples, _ = per_sample(dims, trials, seed, cfg)
        loop = (counts, counterexamples)
    except ChancertError as exc:
        loop = (type(exc), str(exc))
    assert stacked[:2] == loop


def test_cli_report_matches_per_sample_loop(tmp_path):
    out = tmp_path / "vt.json"
    cfg = ToleranceConfig(psd_tol=0.1)
    code = main(["verify-theorem", "--trials", "120", "--dims", "2,2,3", "--seed", "3003",
                 "--psd-tol", "0.1", "--output", str(out)])
    counts, counterexamples, _ = per_sample((2, 2, 3), 120, 3003, cfg)
    report = json.loads(out.read_text())
    assert report["counts"] == counts
    assert report["counterexamples"] == counterexamples
    assert code == (4 if counterexamples else 0)


@pytest.fixture
def eigvalsh_stacks(monkeypatch):
    """Calling function and shape of the stacks handed to eigvalsh; single
    matrices, which only escalation and the per-sample loop hand it, are not
    recorded."""
    stacks = []

    def counted(a, *args, _original=np.linalg.eigvalsh, **kwargs):
        if a.ndim == 3:
            stacks.append((sys._getframe(1).f_code.co_name, *a.shape[:2]))
        return _original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return stacks


def matrices_by_dim(stacks, caller=None) -> Counter:
    matrices = Counter()
    for name, n, dim in stacks:
        if caller in (None, name):
            matrices[dim] += n
    return matrices


@pytest.fixture
def declined(monkeypatch):
    """Per call of the Cholesky certificate: its caller, the side k of the
    stack it reads, the side of their complementary marginals, the stack's
    length, and how many matrices it leaves open."""
    calls = []
    certified = chancert.harness._cholesky_certified

    def recording(x, trace, dim, cfg):
        settled = certified(x, trace, dim, cfg)
        calls.append((sys._getframe(1).f_code.co_name, x.shape[-1], dim, len(x),
                      int(np.count_nonzero(~settled))))
        return settled

    monkeypatch.setattr(chancert.harness, "_cholesky_certified", recording)
    return calls


def left_open(declined) -> Counter:
    """The marginals, by side, that the matrices the certificate leaves open
    send to eigvalsh: the marginal on a alone, and in a pair the narrower
    member and its partner."""
    matrices = Counter()
    for caller, k, dim, _, rows in declined:
        matrices[k] += rows
        if caller == "_complementary_pair":
            matrices[dim] += rows
    return +matrices


def marginal_stacks(stacks) -> Counter:
    """The marginals handed to eigvalsh, by side: the one on a and the
    members of each complementary pair."""
    return matrices_by_dim(stacks, "_run_chunk") + matrices_by_dim(stacks, "_complementary_pair")


@pytest.mark.parametrize("dims", WIDE_TUPLES + MIRRORED_TUPLES, ids=dims_id)
def test_no_ac_partial_transpose_reaches_eigvalsh(dims, eigvalsh_stacks, declined):
    # the wider side's Choi matrix and its partial transpose are both settled
    # here, so no matrix of the wider Choi matrix's side reaches LAPACK. The
    # marginals that do are those the Cholesky certificate leaves open, with
    # their partners, on ties only and on at most 3% of the samples; the
    # rest are the narrower side's partial transposes that the NPT
    # certificate leaves open: the PPT ones, and over seeds 1, 77 and 3003
    # one NPT one of 404 at (3, 9, 3), none at the other tuples
    d_a, d_b, d_c = dims
    trials = 2 * chunk_size(dims)
    counts = run_harness(dims, trials, 3003, DEFAULT_TOLERANCES).counts
    assert matrices_by_dim(eigvalsh_stacks)[max(d_a * d_b, d_a * d_c)] == 0
    marginals = marginal_stacks(eigvalsh_stacks)
    assert marginals == left_open(declined)
    assert set(marginals) <= {d_a * min(d_b, d_c)}
    assert sum(marginals.values()) <= 2 * (3 * trials // 100)
    open_pt = sum(matrices_by_dim(eigvalsh_stacks, "_partial_transpose_flags").values())
    assert open_pt <= counts["phi_ppt"] + counts["psi_ppt"] + trials // 200


@pytest.mark.parametrize("dims", ACCEPTANCE_TUPLES + WIDE_TUPLES + MIRRORED_TUPLES, ids=dims_id)
def test_no_wide_marginal_reaches_eigvalsh(dims, eigvalsh_stacks, declined):
    # at default tolerances the Cholesky certificate settles every marginal
    # on a, and every pair, narrower member and partner, of seed 3003 at the
    # acceptance tuples, (2, 2, 6) and (2, 6, 2), so no marginal reaches
    # eigvalsh there. At (3, 3, 9) and (4, 4, 16) phi's pair is a tie of
    # full-rank square Gram matrices, as psi's at the mirrored tuples, whose
    # lambda_min is now and then small: of 4000 samples the certificate left
    # 4 and 60 of phi's open, and 6 and 52 of psi's. Only those, each with
    # its partner, reach eigvalsh
    d_a, d_b, d_c = dims
    tie = d_a * min(d_b, d_c) == max(d_b, d_c)
    trials = 400 if tie else 40 if max(dims) > 3 else 200
    run_harness(dims, trials, 3003, DEFAULT_TOLERANCES)
    marginals = marginal_stacks(eigvalsh_stacks)
    assert marginals == left_open(declined)
    if tie:
        # at most 0.5% and 4% of the samples
        assert set(marginals) <= {max(d_b, d_c)}
        assert sum(marginals.values()) <= 2 * (trials // (200 if d_a == 3 else 25))
    else:
        assert marginals == Counter()


@pytest.mark.parametrize("dims", [(2, 2, 3), (2, 3, 2), (2, 2, 6)], ids=dims_id)
@pytest.mark.parametrize("cfg", [ToleranceConfig(psd_tol=ROUNDING_PSD_TOL),
                                 ToleranceConfig(rank_tol=ROUNDING_RANK_TOL)], ids=["psd", "rank"])
def test_wide_marginal_fallback_agrees(dims, cfg, eigvalsh_stacks):
    # at rounding-level tolerances the zeros the narrow spectrum pads with
    # meet a decision window, so the wider marginals go to eigvalsh
    d_a, d_b, d_c = dims
    assert_agrees(dims, 40, 8, cfg)
    matrices = matrices_by_dim(eigvalsh_stacks, "_complementary_pair")
    assert matrices[max(d_a * d_b, d_c)] + matrices[max(d_a * d_c, d_b)] > 0


@pytest.mark.parametrize("cfg", [DEFAULT_TOLERANCES, ToleranceConfig(psd_tol=0.1)],
                         ids=["default", "psd"])
def test_open_partial_transposes_reach_eigvalsh(cfg, eigvalsh_stacks):
    # one chunk with PPT samples: the open partial transposes go to one
    # stacked eigvalsh per kind, phi's before psi's. At default tolerances
    # the NPT certificate settles every NPT one, so only phi's PPT ones, 23
    # of 300, are open. At psd_tol = 0.1 (c = 0.4 F) it settles none of
    # phi's and 10 of psi's. The Cholesky certificate settles every
    # marginal on a and every pair, so no marginal reaches eigvalsh
    result, _ = assert_agrees((2, 2, 3), 300, 3003, cfg)
    assert result.counts["phi_ppt"] > 0
    matrices = matrices_by_dim(eigvalsh_stacks, "_partial_transpose_flags")
    if cfg is DEFAULT_TOLERANCES:
        assert [(name, dim) for name, _, dim in eigvalsh_stacks] == [
            ("_partial_transpose_flags", 4)]
        assert matrices[4] == result.counts["phi_ppt"] == 23
    else:
        assert [(name, dim) for name, _, dim in eigvalsh_stacks] == [
            ("_partial_transpose_flags", 4), ("_partial_transpose_flags", 6)]
        assert matrices[4] == 300 and matrices[6] == 290


def spectrum_flags(h, cfg):
    return _psd_flags(np.linalg.eigvalsh(h), cfg)


def hermitian_stack(rng, spectra) -> np.ndarray:
    """U diag(w) U^dagger per row w of spectra, made exactly Hermitian."""
    n, dim = spectra.shape
    q, _ = np.linalg.qr(complex_gaussian(rng, (n, dim, dim)))
    h = (q * spectra[:, None, :]) @ q.conj().swapaxes(1, 2)
    return (h + h.conj().swapaxes(1, 2)) / 2.0


@pytest.mark.parametrize("psd_tol", [1e-9, 1e-3, 0.1, ROUNDING_PSD_TOL])
def test_partial_transpose_flags_match_spectrum_flags(psd_tol):
    # g with lambda_min at k times its threshold -psd_tol * lambda_max, on
    # both sides of the escalation window (2, 1/2) and of the certificate's
    # reach (k above 4 at dim 2); the flags read g off h, its partial transpose
    cfg = ToleranceConfig(psd_tol=psd_tol)
    rng = np.random.default_rng(31)
    certified = 0
    for d_left, d_right in ((1, 2), (2, 1), (1, 5), (2, 3), (3, 4)):
        dim = d_left * d_right
        for k in (0.25, 0.5, 0.9, 1.0, 1.1, 2.0, 2.5, 4.0, 8.0):
            spectra = rng.uniform(0.0, 1.0, (8, dim))
            spectra[:, -1] = 1.0
            spectra[:, 0] = -k * psd_tol
            g = hermitian_stack(rng, spectra)
            for exponent in (-40, 0, 40):
                scaled = 2.0**exponent * g
                h, bound = _partial_transpose_left(scaled, d_left, d_right), _frobenius(scaled)
                want_psd, want_near = spectrum_flags(scaled, cfg)
                psd, near = _partial_transpose_flags(h, d_left, d_right, bound, cfg)
                assert np.array_equal(psd, want_psd) and np.array_equal(near, want_near)
                certified += np.count_nonzero(_npt_certified(scaled, bound, cfg))
    assert certified > 0 or psd_tol == ROUNDING_PSD_TOL


@pytest.mark.parametrize("psd_tol", [1e-9, 0.1, ROUNDING_PSD_TOL])
def test_certificate_on_2x2_matrices_is_lambda_min_below_minus_c(psd_tol):
    # a 2 x 2 matrix g with eigenvalues 1 and -lambda, diagonal either way
    # round or rotated, or -lambda I: the Cholesky of g + c'I fails exactly
    # when lambda > c', up to its own rounding. So the certificate must fire
    # beyond c', c plus the Cholesky's allowance, and not at or below c, nor
    # between c and c'; nor for the PSD g = diag(1, lambda). With a dim of 12
    # c is taken as for a 12 x 12 matrix
    cfg = ToleranceConfig(psd_tol=psd_tol)
    bound, eps = 2.0, np.finfo(float).eps
    rotation = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    for dim in (None, 12):
        c = (2 * ESCALATION_MARGIN * psd_tol + ROUNDING_BAND * (dim or 2) * eps) * bound
        c_prime = c + CHOLESKY_ROUNDING * 9 * eps * (bound + c)
        for lam, fires in ((0.75 * c, False), (c, False), ((c + c_prime) / 2, False),
                           (c_prime + (c_prime - c) / 2, True), (1.25 * c_prime, True),
                           (-c_prime, False)):
            diagonal = np.diag([1.0, -lam])
            g = np.stack([diagonal, diagonal[::-1, ::-1], rotation @ diagonal @ rotation.T,
                          -lam * np.eye(2)])
            fired = _npt_certified(g + 0j, np.full(4, bound), cfg, dim)
            assert fired.tolist() == [fires] * 4, (dim, lam)
    # the zero matrix with the bound 0: c' = 0, and its Cholesky fails at the
    # first pivot, but it is PSD
    assert _npt_certified(np.zeros((1, 2, 2), dtype=complex), np.zeros(1), cfg).tolist() == [False]


@pytest.mark.parametrize("side", [2, 3, 4, 6, 9])
def test_certificate_clears_the_rounding_band(side):
    # at a rounding-level psd_tol, c is almost all its eigvalsh term,
    # ROUNDING_BAND side eps bound, which _psd_flags' rounding band matches.
    # Plant lambda_min on a log grid across the certificate's reach, with
    # lambda_max = 1 and the other eigenvalues in [0.1, 1]: wherever the
    # certificate fires, the computed spectrum must read psd = near = False
    cfg = ToleranceConfig(psd_tol=ROUNDING_PSD_TOL)
    rng = np.random.default_rng(side)
    lam_min = -np.logspace(-15.5, -12.5, 61)
    spectra = rng.uniform(0.1, 1.0, (len(lam_min) * 8, side))
    spectra[:, -1], spectra[:, 0] = 1.0, np.repeat(lam_min, 8)
    g = hermitian_stack(rng, spectra)
    fired = _npt_certified(g, _frobenius(g), cfg)
    psd, near = spectrum_flags(g[fired], cfg)
    assert 0 < np.count_nonzero(fired) < len(g)
    assert not psd.any() and not near.any()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d_left=st.integers(1, 4), d_right=st.integers(1, 4),
       rank=st.integers(1, 16), psd_tol=st.sampled_from([ROUNDING_PSD_TOL, 1e-9, 1e-3, 0.1]),
       exponent=st.integers(-40, 40))
def test_partial_transpose_flags_on_random_states(seed, d_left, d_right, rank, psd_tol, exponent):
    # random PSD stacks: PPT at full rank, mostly NPT below the marginal
    # ranks; flags as from the partial transpose's spectrum, and unchanged
    # under power-of-two scaling
    cfg = ToleranceConfig(psd_tol=psd_tol)
    dim = d_left * d_right
    g = complex_gaussian(np.random.default_rng(seed), (3, dim, min(rank, dim)))
    state = g @ g.conj().swapaxes(1, 2)
    h = (state + state.conj().swapaxes(1, 2)) / 2.0
    psd, near = _partial_transpose_flags(h, d_left, d_right, _frobenius(h), cfg)
    want_psd, want_near = spectrum_flags(_partial_transpose_left(h, d_left, d_right), cfg)
    assert np.array_equal(psd, want_psd) and np.array_equal(near, want_near)
    scaled = 2.0**exponent * h
    scaled_psd, scaled_near = _partial_transpose_flags(
        scaled, d_left, d_right, _frobenius(scaled), cfg
    )
    assert np.array_equal(scaled_psd, psd) and np.array_equal(scaled_near, near)


def noisy_product_states(rng, n, d_left, d_right, rank, noise) -> np.ndarray:
    """Hermitian stacks: a product state plus ``noise`` times a state of rank
    ``rank``, PPT at zero noise and as far from it as the noise."""
    left, right = complex_gaussian(rng, (n, d_left)), complex_gaussian(rng, (n, d_right))
    product = np.einsum("na,nb->nab", left, right).reshape(n, -1, 1)
    g = complex_gaussian(rng, (n, d_left * d_right, rank))
    state = product @ product.conj().swapaxes(1, 2) + noise * (g @ g.conj().swapaxes(1, 2))
    return (state + state.conj().swapaxes(1, 2)) / 2.0


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d_left=st.integers(1, 4), d_right=st.integers(1, 4),
       rank=st.integers(1, 16), noise=st.integers(-8, 2),
       psd_tol=st.sampled_from([ROUNDING_PSD_TOL, 1e-9, 1e-3, 0.1]),
       exponent=st.sampled_from([-40, 0, 40]))
def test_npt_certificate_implies_spectrum_flags(seed, d_left, d_right, rank, noise, psd_tol,
                                                exponent):
    # wherever the NPT certificate fires on a partial transpose g, the flags
    # of g's computed spectrum read psd = near = False: random states of any
    # rank, alone (noise 10^2 drowns the product) and around a product state
    cfg = ToleranceConfig(psd_tol=psd_tol)
    dim = d_left * d_right
    h = 2.0**exponent * noisy_product_states(np.random.default_rng(seed), 4, d_left, d_right,
                                              min(rank, dim), 10.0**noise)
    g = _partial_transpose_left(h, d_left, d_right)
    fired = _npt_certified(g, _frobenius(h), cfg)
    psd, near = spectrum_flags(g, cfg)
    assert not (fired & (psd | near)).any()


@pytest.mark.parametrize("dims", [(3, 3, 9), (4, 4, 16), (3, 9, 3), (2, 2, 6), (2, 6, 2)],
                         ids=dims_id)
def test_no_wider_choi_matrix_is_formed(dims, monkeypatch):
    # at default tolerances the NPT certificate on the cut certifies every
    # wider Choi matrix's partial transpose, and the Cholesky certificate of
    # the narrower member settles the pair's flags. So the blocks formed
    # are the narrower Choi matrices and the cuts, of the inner dimension
    # plus one values of the wider factor
    d_a, d_b, d_c = dims
    sides = []
    purification_choi = chancert.harness._purification_choi

    def recording(v, out):
        sides.append(v.shape[1] * v.shape[2])
        return purification_choi(v, out)

    monkeypatch.setattr(chancert.harness, "_purification_choi", recording)
    assert run_harness(dims, 50, 3003, DEFAULT_TOLERANCES).escalated == []
    assert set(sides) == {min(d_a * d_b, d_a * d_c), d_a * (min(d_b, d_c) + 1)}


@pytest.mark.parametrize("dims", [(2, 2, 6), (2, 6, 2)], ids=dims_id)
def test_certificate_runs_once_per_pair(dims, declined, monkeypatch):
    # at psd_tol 0.03 (c = 0.12 tr) the cut leaves some wider Choi matrices
    # open and certifies others (39 and 33 of 50 formed in full), so a pair
    # runs both the cut and the block loop over the rest; the Cholesky
    # certificate still reads each sample's narrower member once: the
    # marginal on a, then phi's pair, then psi's, every call on all 50
    d_a, d_b, d_c = dims
    sides = []
    purification_choi = chancert.harness._purification_choi

    def recording_choi(v, out):
        sides.append(v.shape[1] * v.shape[2])
        return purification_choi(v, out)

    monkeypatch.setattr(chancert.harness, "_purification_choi", recording_choi)
    run_harness(dims, 50, 3003, ToleranceConfig(psd_tol=0.03))
    assert [(k, dim, n) for _, k, dim, n, _ in declined] == [
        (d_a, d_a, 50), (min(d_a * d_b, d_c), max(d_a * d_b, d_c), 50),
        (min(d_a * d_c, d_b), max(d_a * d_c, d_b), 50)]
    assert d_a * max(d_b, d_c) in sides


@pytest.mark.parametrize("cfg, least", [(DEFAULT_TOLERANCES, 200),
                                        (ToleranceConfig(psd_tol=0.03), 150)],
                         ids=["default", "psd-0.03"])
def test_cut_bound_is_the_complementary_norm(cfg, least, monkeypatch):
    # the cut's norm bound is ||L_b||_F plus rounding, about tr/2 at
    # (3, 3, 9), not the trace: at psd_tol 0.03 (c = 0.12 ||L_b||_F) it
    # certifies 160 of psi's 200 cuts of seed 3003, against 8 with the trace
    # as the bound, and at default tolerances all 200. The engine still
    # agrees with the per-sample loop
    certified = []
    cut_certificates = chancert.harness._cut_certificates

    def recording(*args):
        checks, fired = cut_certificates(*args)
        certified.append(int(np.count_nonzero(fired)))
        return checks, fired

    monkeypatch.setattr(chancert.harness, "_cut_certificates", recording)
    assert_agrees((3, 3, 9), 200, 3003, cfg)
    assert len(certified) == 1 and least <= certified[0] <= 200


def cut_and_full_flags(vector, cfg) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_cut_certificates`` of C-contiguous tripartite vectors, and
    ``_psd_flags`` of the computed spectra of the partial transposes of their
    full Choi matrices, as the engine forms them."""
    n, d_a, d_b, _ = vector.shape
    trace = np.square(_frobenius(vector.reshape(n, 1, -1)))
    marginals = engine_marginals(vector, np.ascontiguousarray(vector.swapaxes(2, 3)))
    _, certified = _cut_certificates(vector, _frobenius(marginals["c"]), trace, cfg)
    choi = marginals["ab"]
    h = (choi + choi.conj().swapaxes(1, 2)) / 2.0
    return certified, *spectrum_flags(_partial_transpose_left(h, d_a, d_b), cfg)


def noisy_product_vectors(rng, n, dims, rank, noise) -> np.ndarray:
    """Product vectors plus ``noise`` times vectors whose rows (a, b) over c
    have rank ``rank``: PPT at zero noise, and as far from it as the noise."""
    d_a, d_b, d_c = dims
    parts = [complex_gaussian(rng, (n, d)) for d in dims]
    product = np.einsum("na,nb,nc->nabc", *parts)
    rows = complex_gaussian(rng, (n, d_a * d_b, rank)) @ complex_gaussian(rng, (n, rank, d_c))
    return product + noise * rows.reshape(n, *dims)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d_a=st.integers(1, 4), d_c=st.integers(1, 4),
       extra=st.integers(1, 4), rank=st.integers(1, 4), noise=st.integers(-8, 1),
       psd_tol=st.sampled_from([ROUNDING_PSD_TOL, 1e-9, 1e-3, 0.1]),
       exponent=st.integers(-40, 40))
def test_cut_certificate_implies_full_flags(seed, d_a, d_c, extra, rank, noise, psd_tol,
                                            exponent):
    # wherever the cut to d_c + 1 values of b certifies, the full partial
    # transpose's computed spectrum reads psd = near = False: low-rank
    # vectors near and far from product ones, at any scale
    cfg = ToleranceConfig(psd_tol=psd_tol)
    dims = (d_a, d_c + extra, d_c)
    vector = noisy_product_vectors(np.random.default_rng(seed), 3, dims, min(rank, d_c),
                                   10.0**noise)
    certified, psd, near = cut_and_full_flags(2.0**exponent * vector, cfg)
    assert not (certified & (psd | near)).any()


@pytest.mark.parametrize("psd_tol", [1e-9, 1e-3, 0.1, ROUNDING_PSD_TOL])
def test_cut_certificate_on_harness_and_noisy_vectors(psd_tol):
    # the harness's draws at the tuples whose wider Choi matrix is read on
    # the cut, and noisy product vectors whose partial transposes reach from
    # PPT across the escalation window: the cut certifies only where the
    # full flags read psd = near = False, and at all but a loose psd_tol it
    # certifies some
    cfg = ToleranceConfig(psd_tol=psd_tol)
    rng = np.random.default_rng(47)
    certified_count = 0
    for dims in WIDE_TUPLES + MIRRORED_TUPLES:
        vector = harness_vectors(dims, 3003, 8)
        if dims[2] > dims[1]:
            vector = np.ascontiguousarray(vector.swapaxes(2, 3))
        batches = [vector] + [noisy_product_vectors(rng, 8, vector.shape[1:], 1, 10.0**noise)
                              for noise in range(-8, 1)]
        for batch, exponent in itertools.product(batches, (-40, 0, 40)):
            certified, psd, near = cut_and_full_flags(2.0**exponent * batch, cfg)
            assert not (certified & (psd | near)).any()
            certified_count += np.count_nonzero(certified)
    assert certified_count > 0 or psd_tol == 0.1


@pytest.mark.parametrize("psd_tol", [ROUNDING_PSD_TOL, 1e-9])
def test_cut_certificate_at_its_edge_on_planted_vectors(psd_tol):
    # (2, 30, 1), where d_b >> d_a d_c: the cut, of side 4, certifies the
    # full partial transpose, of side 60. A pure state's partial transpose
    # has lambda_min = -s_1 s_2, its Schmidt coefficients. Plant cuts with
    # s_1 = 1 and s_2 on a grid around c, and the other 28 values of b along
    # the cut's first Schmidt vector, so the full lambda_min lies just below
    # the cut's; at a rounding-level psd_tol c is almost all band. Wherever
    # the cut fires, the full flags read psd = near = False
    cfg = ToleranceConfig(psd_tol=psd_tol)
    rng = np.random.default_rng(30)
    d_a, d_b, n = 2, 30, 244
    c = 2 * ESCALATION_MARGIN * psd_tol + ROUNDING_BAND * d_a * d_b * np.finfo(float).eps
    s_2 = c * np.repeat(np.logspace(-0.1, 0.1, 61), 4)
    left, right = (np.stack([haar_unitary(rng, d_a) for _ in range(n)]) for _ in range(2))
    vector = np.empty((n, d_a, d_b, 1), dtype=complex)
    vector[:, :, :2, 0] = left @ (np.stack([np.ones(n), s_2], axis=1)[:, :, None] * right)
    vector[:, :, 2:, 0] = left[:, :, :1] * 1e-4 * complex_gaussian(rng, (n, 1, d_b - 2))
    certified, psd, near = cut_and_full_flags(vector, cfg)
    assert 0 < np.count_nonzero(certified) < n
    assert not (certified & (psd | near)).any()


@pytest.mark.parametrize("dims", [(2, 2, 6), (2, 6, 2)], ids=dims_id)
def test_cut_npt_shift_is_taken_at_the_full_side(dims, monkeypatch):
    # the NPT certificate reads the cut, of side d_a (r + 1), and certifies
    # the full matrix, of side d_a * max(d_b, d_c): its shift c is the full
    # side's. The narrower partial transposes take c at their own side
    d_a, d_b, d_c = dims
    calls = []
    certified = chancert.harness._npt_certified

    def recording(g, bound, cfg, dim=None, *rounding):
        calls.append((g.shape[-1], dim))
        return certified(g, bound, cfg, dim, *rounding)

    monkeypatch.setattr(chancert.harness, "_npt_certified", recording)
    run_harness(dims, 50, 3003, DEFAULT_TOLERANCES)
    narrow, cut = d_a * min(d_b, d_c), d_a * (min(d_b, d_c) + 1)
    assert set(calls) == {(cut, d_a * max(d_b, d_c)), (narrow, None)}


@pytest.mark.parametrize("case", ["phi-3,3,9", "psi-cut-2,2,6"])
def test_npt_certificates_against_40_digit_spectra(case):
    # The rounding claim of _npt_certified: where the Cholesky of g + c'I
    # fails on a partial transpose g the engine formed, lambda_min(g) < -c.
    # Checked on five harness matrices each, rebuilt from the same float64
    # entries at 40 digits: phi's 9 x 9 ones at (3, 3, 9), and psi's 6 x 6
    # cuts at (2, 2, 6), c taken at the full side 12 with the cut's bound,
    # the norm of the marginal on b plus its rounding allowance
    mpmath = pytest.importorskip("mpmath")
    cfg, eps = DEFAULT_TOLERANCES, np.finfo(float).eps
    if case == "phi-3,3,9":
        d_a, d_b, _ = dims = (3, 3, 9)
        vector, d_right, dim = harness_vectors(dims, 3003, 10), d_b, None
    else:
        d_a, d_b, d_c = dims = (2, 2, 6)
        full = harness_vectors(dims, 3003, 10)
        swapped = np.ascontiguousarray(full.swapaxes(2, 3))
        vector, d_right, dim = np.ascontiguousarray(swapped[:, :, :3]), 3, d_a * d_c
    _, h, norm, _, _ = next(_choi_blocks(vector, cfg))
    if dim is None:
        bound = norm
    else:
        trace = np.square(_frobenius(full.reshape(len(full), 1, -1)))
        environment = _frobenius(_factor_marginals([full, swapped], len(full))[2])
        bound = environment + SCHMIDT_ROUNDING * (dim + d_b) * eps * trace
    g = _partial_transpose_left(h, d_a, d_right)
    fired = _npt_certified(g, bound, cfg, dim)
    assert np.count_nonzero(fired) >= 5
    full_side = dim or d_a * d_right
    shift = 2 * ESCALATION_MARGIN * cfg.psd_tol + ROUNDING_BAND * full_side * eps
    for k in np.flatnonzero(fired)[:5]:
        c = shift * bound[k]
        with mpmath.workdps(40):
            exact = mpmath.matrix([[mpmath.mpc(float(z.real), float(z.imag)) for z in row]
                                   for row in g[k]])
            lam_min = min(mpmath.eighe(exact, eigvals_only=True))
            assert lam_min < -mpmath.mpf(float(c))


def assert_marginal_flags_match(vector, cfg) -> int:
    """Every marginal of a stack of tripartite vectors gets from the engine
    the rank flags, and each Choi matrix the PSD flags, of its computed
    spectrum: the pairs from ``_complementary_pair``, the marginal on a from
    ``_cholesky_certified`` where it holds. Returns the number of matrices
    the certificate settles. The spectra are those of the matrices the
    engine forms, with its own products."""
    n, d_a = vector.shape[:2]
    vector = np.ascontiguousarray(vector)
    swapped = np.ascontiguousarray(vector.swapaxes(2, 3))
    marginals = engine_marginals(vector, swapped)
    hermitian = {key: (m + m.conj().swapaxes(1, 2)) / 2.0 for key, m in marginals.items()}
    trace = np.square(_frobenius(vector.reshape(n, 1, -1)))
    flags = {}
    norm = {key: _frobenius(marginals[key]) for key in ("b", "c")}
    flags["ab"], flags["c"], *_ = _complementary_pair(vector, hermitian["c"], norm["c"], trace,
                                                      cfg)
    flags["ac"], flags["b"], *_ = _complementary_pair(swapped, hermitian["b"], norm["b"], trace,
                                                      cfg)
    settled = _cholesky_certified(hermitian["a"], trace, d_a, cfg)
    certified = np.count_nonzero(settled)
    for pair in (("ab", "c"), ("ac", "b")):
        narrow = min(pair, key=lambda key: hermitian[key].shape[-1])
        dim = max(hermitian[key].shape[-1] for key in pair)
        certified += np.count_nonzero(_cholesky_certified(hermitian[narrow], trace, dim, cfg))
    flags["a"] = _certified_flags(n, d_a, d_a, cfg)
    for key, h in hermitian.items():
        rows = settled if key == "a" else slice(None)
        want = _spectrum_flags(np.linalg.eigvalsh(h), cfg)
        start = 0 if key in ("ab", "ac") else 2
        for got, expected in zip(flags[key][start:], want[start:]):
            assert np.array_equal(got[rows], expected[rows]), key
    return int(certified)


def cut_widths(dims, cut) -> tuple[int, int]:
    """Widths of the factor ``cut`` ('b' or 'c') and of the other two."""
    single = dims[1] if cut == "b" else dims[2]
    return single, int(np.prod(dims)) // single


def across_cut(m, dims, cut) -> np.ndarray:
    """Tripartite vectors of shape (n, d_a, d_b, d_c) from matrices whose rows
    index a and the other factor, and whose columns index ``cut``."""
    d_a, d_b, d_c = dims
    if cut == "c":
        return m.reshape(-1, d_a, d_b, d_c)
    return m.reshape(-1, d_a, d_c, d_b).swapaxes(2, 3)


def schmidt_vectors(rng, dims, cut, schmidt) -> np.ndarray:
    """Tripartite vectors whose marginal on the factor ``cut`` has the rows of
    ``schmidt`` as its nonzero eigenvalues, with random Schmidt bases."""
    single, rest = cut_widths(dims, cut)
    n, rank = schmidt.shape
    u, _ = np.linalg.qr(complex_gaussian(rng, (n, single, rank)))
    v, _ = np.linalg.qr(complex_gaussian(rng, (n, rest, rank)))
    return across_cut((v * np.sqrt(schmidt)[:, None, :]) @ u.swapaxes(1, 2), dims, cut)


# (dims, factor whose marginal and its complement are the pair under test);
# the factor is the wider side at (2, 2, 6), and a tie at (3, 3, 9) cut c
SCHMIDT_CASES = [((2, 2, 3), "c"), ((2, 3, 2), "b"), ((2, 2, 6), "c"), ((3, 3, 9), "c"),
                 ((3, 3, 9), "b"), ((1, 2, 3), "b")]
WINDOW_FACTORS = (1 / 40, 1 / 20, 1 / 10, 1.0, 10.0, 20.0, 40.0)


@pytest.mark.parametrize("psd_tol", [1e-9, 1e-3, ROUNDING_PSD_TOL])
@pytest.mark.parametrize("rank_tol", [1e-8, 1e-3, ROUNDING_RANK_TOL])
def test_wide_spectra_flags_match_spectrum_flags(psd_tol, rank_tol):
    # a Schmidt coefficient at k times the wider marginal's rank cutoff, on
    # both sides of the fragility window (10, 1/10) and of the escalation
    # margin around it (20, 1/20), at full Schmidt rank and one below
    cfg = ToleranceConfig(psd_tol=psd_tol, rank_tol=rank_tol)
    rng = np.random.default_rng(41)
    certified = 0
    for dims, cut in SCHMIDT_CASES:
        single, rest = cut_widths(dims, cut)
        wide, full = max(single, rest), min(single, rest)
        for k, rank in itertools.product(WINDOW_FACTORS, (full, full - 1)):
            value = k * rank_tol * wide
            if rank < 2 or value >= 0.5:
                continue
            schmidt = rng.uniform(0.5, 1.0, (8, rank))
            schmidt[:, -1], schmidt[:, 0] = 1.0, value
            vector = schmidt_vectors(rng, dims, cut, schmidt)
            for exponent in (-40, 0, 40):
                certified += assert_marginal_flags_match(2.0**exponent * vector, cfg)
    # at a rounding-level rank_tol the zeros' allowance meets every
    # fragility window, and no planted coefficient clears the shift
    assert certified > 0 or rank_tol == ROUNDING_RANK_TOL


def assert_certified_flags(fired, h, k, cfg) -> None:
    """``_spectrum_flags`` of each computed spectrum of h on the rows
    ``fired`` read PSD, not near, rank k, not fragile and no margin."""
    for got, want in zip(_spectrum_flags(np.linalg.eigvalsh(h), cfg), (True, False, k, False, False)):
        assert (got[fired] == want).all()


@pytest.mark.parametrize("psd_tol", [1e-9, 1e-3, 0.1, ROUNDING_PSD_TOL])
def test_wide_spectra_psd_flags_near_threshold(psd_tol):
    # a narrow PD matrix x with lambda_min at f times the certificate's shift
    # tau tr, f from 1/40 to 40, and h = U diag(w) U^dagger with w x's
    # spectrum padded with values at f times the PSD threshold, as far below
    # zero as the rounding allowance delta reaches: the certificate's
    # premise. It must decline every pair with padding at a rounding-level
    # psd_tol, and elsewhere fire only where x's and h's computed spectra
    # have the fixed flags
    cfg = ToleranceConfig(psd_tol=psd_tol)
    rng = np.random.default_rng(43)
    certified = 0
    for narrow_dim, dim in ((2, 4), (3, 3), (3, 12), (4, 16)):
        tau = _cholesky_shift(narrow_dim, dim, cfg)
        if tau is None:
            assert psd_tol == ROUNDING_PSD_TOL and dim > narrow_dim
            continue
        delta = SCHMIDT_ROUNDING * (dim + narrow_dim) * np.finfo(float).eps
        for f in WINDOW_FACTORS + (0.5, 2.0):
            narrow = rng.uniform(0.5, 1.0, (8, narrow_dim))
            narrow[:, -1] = 1.0
            assert f * tau < 0.5
            narrow[:, 0] = f * tau * narrow[:, 1:].sum(axis=1) / (1 - f * tau)
            zeros = -min(f * psd_tol, delta / 2) * narrow.sum(axis=1, keepdims=True)
            padded = np.sort(np.concatenate(
                [narrow, np.broadcast_to(zeros, (8, dim - narrow_dim))], axis=1))
            x, h = hermitian_stack(rng, narrow), hermitian_stack(rng, padded)
            for exponent in (-40, 0, 40):
                scale = 2.0**exponent
                fired = _cholesky_certified(x * scale, narrow.sum(axis=1) * scale, dim, cfg)
                assert_certified_flags(fired, x * scale, narrow_dim, cfg)
                assert_certified_flags(fired, h * scale, narrow_dim, cfg)
                certified += np.count_nonzero(fired)
    assert certified > 0


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 16), extra=st.integers(0, 16),
       f=st.sampled_from([1 - 1e-6, 1 + 1e-6, 1.01, 2.0]),
       psd_tol=st.sampled_from([1e-9, 1e-3, 0.1]),
       rank_tol=st.sampled_from([1e-8, 1e-15, 1e-17]), exponent=st.sampled_from([-600, 0, 600]))
def test_cholesky_certificate_on_planted_spectra(seed, k, extra, f, psd_tol, rank_tol, exponent):
    # random PD stacks of side k with lambda_min planted at f times the
    # shift tau tr (k > 1), at scales 2^-600 ... 2^600, and as their
    # complementary marginals the same spectra padded with zeros to side
    # k + extra: wherever the certificate fires, both computed spectra read
    # PSD, not near, rank k, not fragile and no margin; and it fires on
    # every lambda_min from 1.01 tau tr up, unless the scalar checks decline
    cfg = ToleranceConfig(psd_tol=psd_tol, rank_tol=rank_tol)
    dim = k + extra
    tau = _cholesky_shift(k, dim, cfg)
    rng = np.random.default_rng(seed)
    spectra = rng.uniform(0.5, 1.0, (4, k))
    spectra[:, -1] = 1.0
    if k > 1 and tau is not None:
        spectra[:, 0] = f * tau * spectra[:, 1:].sum(axis=1) / (1 - f * tau)
    spectra.sort(axis=1)
    scale = 2.0**exponent
    x = scale * hermitian_stack(rng, spectra)
    padded = np.concatenate([np.zeros((4, extra)), spectra], axis=1)
    wide = scale * hermitian_stack(rng, padded)
    fired = _cholesky_certified(x, scale * spectra.sum(axis=1), dim, cfg)
    assert_certified_flags(fired, x, k, cfg)
    assert_certified_flags(fired, wide, k, cfg)
    if tau is None:
        assert dim > k and not fired.any()
    elif f >= 1.01:
        assert fired.all()


def test_stacked_cholesky_is_per_matrix():
    # the gufunc behind np.linalg.cholesky: a matrix it cannot factor comes
    # back all NaN, its neighbours as np.linalg.cholesky factors them alone;
    # no warning and no error escapes, even where every matrix fails
    rng = np.random.default_rng(5)
    pd = hermitian_stack(rng, rng.uniform(0.5, 1.0, (4, 5)))
    stack = pd.copy()
    stack[1] -= 2.0 * np.eye(5)
    stack[3] = 0.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with np.errstate(all="raise"):
            factors = _stacked_cholesky(stack)
            failed = _stacked_cholesky(-pd)
    assert caught == []
    assert np.isnan(factors[[1, 3]]).all() and np.isnan(failed).all()
    for index in (0, 2):
        assert np.array_equal(factors[index], np.linalg.cholesky(stack[index]))
    assert np.array_equal(_stacked_cholesky(pd), np.linalg.cholesky(pd))


def engine_outcome(run):
    """Counts, counterexample records and escalated indices of a
    ``HarnessResult`` from ``run()``, or the type and message of the
    ``ChancertError`` it raises."""
    try:
        result = run()
    except ChancertError as exc:
        return type(exc), str(exc)
    return result.counts, result.counterexamples, result.escalated


def assert_decline_path_agrees(run, loop, monkeypatch) -> int:
    """``run()`` gives the counts and counterexamples of the per-sample
    ``loop()``, and equals, escalations included, the engine with every
    Cholesky certificate declined. Returns how many matrices the certificate
    left open."""
    opened = []
    certified = chancert.harness._cholesky_certified

    def recording(x, *args):
        settled = certified(x, *args)
        opened.append(int(np.count_nonzero(~settled)))
        return settled

    monkeypatch.setattr(chancert.harness, "_cholesky_certified", recording)
    engine = engine_outcome(run)
    monkeypatch.setattr(chancert.harness, "_cholesky_certified",
                        lambda x, *args: np.zeros(len(x), dtype=bool))
    assert engine_outcome(run) == engine
    try:
        counts, counterexamples, _ = loop()
        want = (counts, counterexamples)
    except ChancertError as exc:
        want = (type(exc), str(exc))
    assert engine[:2] == want
    return sum(opened)


@pytest.mark.parametrize("dims, cfg, declines", [
    ((3, 1, 1), DEFAULT_TOLERANCES, True),
    ((6, 1, 2), DEFAULT_TOLERANCES, True),
    ((6, 1, 6), DEFAULT_TOLERANCES, False),
    ((2, 2, 3), ToleranceConfig(rank_tol=1e-17), True),
    ((2, 2, 6), ToleranceConfig(rank_tol=1e-17), True),
    ((3, 3, 3), ToleranceConfig(rank_tol=1e-17), True),
    ((2, 2, 3), ToleranceConfig(rank_tol=0.3), True),
    ((3, 3, 9), ToleranceConfig(rank_tol=0.3), True),
], ids=["3,1,1", "6,1,2", "6,1,6", "rank-1e-17-2,2,3", "rank-1e-17-2,2,6", "rank-1e-17-3,3,3",
        "rank-0.3-2,2,3", "rank-0.3-3,3,9"])
def test_decline_path_agrees(dims, cfg, declines, monkeypatch):
    # where the certificate declines (a rank-deficient marginal on a at
    # (3, 1, 1) and (6, 1, 2), zeros that may meet a window at rank_tol
    # 1e-17, a shift past every eigenvalue at rank_tol 0.3), eigvalsh
    # decides: outcomes as in the per-sample loop and as with no certificate
    # at all. At (6, 1, 6) every marginal has full rank, phi's pair is a
    # tie, and the certificate settles all
    opened = assert_decline_path_agrees(lambda: run_harness(dims, 40, 17, cfg),
                                        lambda: per_sample(dims, 40, 17, cfg), monkeypatch)
    assert (opened > 0) == declines


@pytest.mark.parametrize("d", [2, 3, 4])
def test_rotated_schur_certificate_agrees(d, monkeypatch):
    # self-complementary diagonal multipliers under local unitaries: bi-PPT
    # samples whose Choi matrices have rank d, below their side d^2. The
    # certificate settles every pair through its full-rank narrower member,
    # and the outcomes are the loop's and those of the engine without it
    dims, seed, cfg = (d, d, d), 3003, DEFAULT_TOLERANCES
    stack = rotated_schur_stack(np.random.default_rng(d), d, 40)

    def run():
        result = HarnessResult()
        _run_chunk(stack, dims, seed, range(len(stack)), cfg, result)
        return result

    opened = assert_decline_path_agrees(
        run, lambda: per_dilation((StinespringOperator(*dims, m) for m in stack), seed, cfg),
        monkeypatch)
    assert opened == 0


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d_a=st.integers(1, 4), d_b=st.integers(1, 4),
       d_c=st.integers(1, 4), cut=st.sampled_from(["b", "c"]), rank=st.integers(1, 16),
       psd_tol=st.sampled_from([ROUNDING_PSD_TOL, 1e-9, 1e-3]),
       rank_tol=st.sampled_from([ROUNDING_RANK_TOL, 1e-8, 1e-3]), exponent=st.integers(-40, 40))
def test_marginal_spectra_flags_on_random_vectors(seed, d_a, d_b, d_c, cut, rank, psd_tol,
                                                  rank_tol, exponent):
    # random vectors of any Schmidt rank across the cut
    rng = np.random.default_rng(seed)
    dims = (d_a, d_b, d_c)
    single, rest = cut_widths(dims, cut)
    rank = min(rank, single, rest)
    m = complex_gaussian(rng, (3, rest, rank)) @ complex_gaussian(rng, (3, rank, single))
    vector = across_cut(2.0**exponent * m, dims, cut)
    assert_marginal_flags_match(vector, ToleranceConfig(psd_tol, rank_tol))
