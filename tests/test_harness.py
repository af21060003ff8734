"""Agreement of the batched verify-theorem engine with a per-sample loop.

The reference is the loop the engine replaces: ``random_stinespring`` then
``equivalence_check`` for every sample, tallied here. Counts and
counterexample records must be equal, and the non-vacuous configurations
must actually reach escalation, fragile discards and the PPT branch.
"""

import itertools
import json

import pytest

from chancert import (
    DEFAULT_TOLERANCES,
    ChancertError,
    CounterexampleOrBugError,
    FragileSampleError,
    PurityViolationError,
    ToleranceConfig,
    equivalence_check,
    random_stinespring,
)
from chancert.cli import main
from chancert.harness import CHUNK_ENTRIES, COUNT_KEYS, chunk_size, run_harness

ACCEPTANCE_TUPLES = list(itertools.product((2, 3), repeat=3))
WIDE_TUPLES = [(2, 2, 6), (3, 3, 9), (4, 4, 16)]


def dims_id(dims) -> str:
    return ",".join(map(str, dims))


def per_sample(dims, trials, seed, cfg):
    """Counts, counterexamples and fragile indices of the per-sample loop."""
    counts = dict.fromkeys(COUNT_KEYS, 0)
    counterexamples, fragile = [], []
    for index in range(trials):
        st = random_stinespring(*dims, seed=seed, index=index)
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


@pytest.mark.parametrize("dims", WIDE_TUPLES, ids=dims_id)
def test_wide_tuples_agree(dims):
    assert_agrees(dims, 100, 3003)


def test_loose_psd_tolerance_reaches_escalation_and_ppt_branch():
    result, _ = assert_agrees((2, 2, 3), 300, 3003, ToleranceConfig(psd_tol=0.1))
    assert len(result.escalated) > 0
    assert result.counts["phi_ppt"] > 0


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


def test_default_tolerances_need_no_escalation():
    assert run_harness((2, 2, 3), 500, 3003, DEFAULT_TOLERANCES).escalated == []


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 3), (4, 4, 16)], ids=dims_id)
def test_chunk_edges(dims):
    assert_agrees(dims, 1, 17)
    assert_agrees(dims, chunk_size(dims) + 1, 17)


def test_chunk_fits_the_memory_budget():
    for dims in ACCEPTANCE_TUPLES + WIDE_TUPLES:
        d_a, d_b, d_c = dims
        side = d_a * max(d_b, d_c)
        size = chunk_size(dims)
        assert size == 1 or size * side**2 <= CHUNK_ENTRIES < (size + 1) * side**2


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
