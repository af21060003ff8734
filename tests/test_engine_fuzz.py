"""Differential fuzzing of the batched engine against the per-sample oracle.

Hypothesis draws a dimension tuple, 1 to 6 samples, a stack kind and a
tolerance set, and numpy draws the stack from a drawn seed. ``_run_chunk``
on the stack must give the counts and counterexample records of
``equivalence_check`` on each of its dilations, or raise the same error.
The kinds reach what the Gaussian draws of ``verify-theorem`` do not:
rank-deficient dilations, measure-and-prepare pairs (both maps entanglement
breaking), those pairs blended with Gaussian noise of a given size, and
Gaussian dilations scaled far from 1. The tolerance sets include the
rounding-level ones the command line accepts.

Tier-1 runs a fixed, derandomized set of draws. A longer random search
loads the ``engine-fuzz`` profile that ``conftest`` registers:

    PYTHONPATH=src python -m pytest tests/test_engine_fuzz.py --hypothesis-profile=engine-fuzz
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chancert import DEFAULT_TOLERANCES, ChancertError, StinespringOperator, ToleranceConfig
from chancert.complement import swap_environment
from chancert.harness import HarnessResult, _run_chunk

from conftest import classical_copy_stack, gaussian_stack, low_rank_stack
from test_harness import per_dilation

TOLERANCES = {
    "default": DEFAULT_TOLERANCES,
    "psd=0.1": ToleranceConfig(psd_tol=0.1),
    "rank=1e-3": ToleranceConfig(rank_tol=1e-3),
    "psd=1e-17": ToleranceConfig(psd_tol=1e-17),
    "rank=1e-17": ToleranceConfig(rank_tol=1e-17),
}
# (kind, parameter): the inner dimension of a low-rank stack, capped at d_a;
# the noise size of a blend; the power of two that scales a Gaussian stack
STACK_KINDS = st.one_of(
    st.just(("gaussian", None)),
    st.tuples(st.just("low-rank"), st.integers(1, 4)),
    st.just(("classical-copy", None)),
    st.tuples(st.just("blend"), st.sampled_from([1e-1, 1e-3, 1e-6, 1e-9, 1e-12])),
    st.tuples(st.just("scaled"), st.sampled_from([-300, -40, 40, 300])),
)
DRAWS = dict(dims=st.tuples(*[st.integers(1, 4)] * 3), n=st.integers(1, 6), kind=STACK_KINDS,
             seed=st.integers(0, 2**32 - 1), tol=st.sampled_from(list(TOLERANCES)))
# Tier-1 runs 100 derandomized draws of each property; a profile loaded on
# the command line sets its own.
FUZZ = settings(deadline=None)
if settings.get_current_profile_name() == "default":
    FUZZ = settings(FUZZ, max_examples=100, derandomize=True)
# count keys that name one map of the pair, with their mirror images
MIRRORED_KEYS = {"phi_ppt": "psi_ppt", "witness_phi_fired": "witness_psi_fired",
                 "eb_phi_yes": "eb_psi_yes"}


def draw_stack(dims, n: int, kind, seed: int) -> np.ndarray:
    """n dilations at ``dims`` of the stack kind ``kind``, from ``seed``."""
    rng = np.random.default_rng(seed)
    name, parameter = kind
    if name == "gaussian":
        return gaussian_stack(rng, dims, n)
    if name == "low-rank":
        return low_rank_stack(rng, dims, n, min(parameter, dims[0]))
    if name == "classical-copy":
        return classical_copy_stack(rng, dims, n)
    if name == "blend":
        return classical_copy_stack(rng, dims, n) + parameter * gaussian_stack(rng, dims, n)
    return 2.0**parameter * gaussian_stack(rng, dims, n)


def engine_outcome(stack, dims, seed: int, cfg):
    """Counts and counterexample records of ``_run_chunk`` on ``stack``, as
    samples 0 .. n-1 of ``seed``, or the type and message of its error."""
    result = HarnessResult()
    try:
        _run_chunk(stack, dims, seed, range(len(stack)), cfg, result)
    except ChancertError as exc:
        return type(exc), str(exc)
    return result.counts, result.counterexamples


def oracle_outcome(stack, dims, seed: int, cfg):
    """``engine_outcome`` of the per-sample loop over the same dilations."""
    try:
        counts, counterexamples, _ = per_dilation(
            (StinespringOperator(*dims, m) for m in stack), seed, cfg)
    except ChancertError as exc:
        return type(exc), str(exc)
    return counts, counterexamples


@FUZZ
@given(**DRAWS)
# stacks on which the engine, at psd_tol 1e-17, counted samples whose oracle
# raises, or escalated none where the oracle raises: a zero eigenvalue
# rounded to opposite sides of a threshold inside the rounding band
@example(dims=(4, 1, 1), n=1, kind=("gaussian", None), seed=0, tol="psd=1e-17")
@example(dims=(1, 3, 4), n=2, kind=("low-rank", 1), seed=1, tol="psd=1e-17")
@example(dims=(2, 1, 1), n=1, kind=("scaled", -300), seed=0, tol="psd=1e-17")
@example(dims=(1, 4, 3), n=2, kind=("scaled", 300), seed=1, tol="psd=1e-17")
# at rank_tol 1e-17, a rank cutoff inside the rounding band: the engine
# counted a sample whose oracle spectrum reads a different rank
@example(dims=(1, 1, 2), n=1, kind=("gaussian", None), seed=0, tol="rank=1e-17")
def test_engine_agrees_with_oracle(dims, n, kind, seed, tol):
    stack, cfg = draw_stack(dims, n, kind, seed), TOLERANCES[tol]
    assert engine_outcome(stack, dims, seed, cfg) == oracle_outcome(stack, dims, seed, cfg)


@FUZZ
@given(**DRAWS)
def test_swapped_environment_swaps_counts(dims, n, kind, seed, tol):
    # swap_environment exchanges the two maps of every pair, so it mirrors
    # each sample's verdicts: the counts of one map become the other's
    d_a, d_b, d_c = dims
    stack, cfg = draw_stack(dims, n, kind, seed), TOLERANCES[tol]
    swapped = np.stack([swap_environment(StinespringOperator(*dims, m)).matrix for m in stack])
    outcome = engine_outcome(stack, dims, seed, cfg)
    mirrored = engine_outcome(swapped, (d_a, d_c, d_b), seed, cfg)
    if isinstance(outcome[0], type) or isinstance(mirrored[0], type):
        assert outcome[0] == mirrored[0]
        return
    # the relations bind the primary map only, so a counterexample found in
    # one orientation need not show in the other
    if outcome[1] or mirrored[1]:
        return
    swap = {**MIRRORED_KEYS, **{value: key for key, value in MIRRORED_KEYS.items()}}
    counts = {swap.get(key, key): value for key, value in outcome[0].items()}
    for key in counts.keys() - {"regime_applied_to_psi_given_phi_ppt"}:
        assert mirrored[0][key] == counts[key], key
