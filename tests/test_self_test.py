"""The verify-theorem self-test against rule mutants.

Each row of MUTANTS replaces one rule on the module that defines it, so the
one patch reaches the batched engine and ``equivalence_check`` alike; no
file is edited. A row names the ``verify-theorem`` corpora that must exit 4
under its mutant and the row of RELATIONS whose message every counterexample
carries; the rows caught at d_a = 1 must also be caught on every sample of a
chunk of rotated Schur dilations, both maps of which are PPT and
entanglement breaking.

At d_a = 1 both maps prepare a state, so both are PPT and entanglement
breaking for a trivial reason: those corpora test the rules, not the depth
of the theorem. The Gaussian corpus at (2, 2, 3) has no bi-PPT sample, so
only the mutant that makes PPT too easy shows there. No corpus catches an
eb: yes outside the low-rank regime: every relation holds where an unknown
turns into a yes, so that row waits for a checkable witness of each yes.
"""

import json

import numpy as np
import pytest

from chancert import DEFAULT_TOLERANCES, eb_certificate, tiles_upb_choi
import chancert.certify
from chancert.certify import RELATIONS, UNKNOWN, YES
from chancert.cli import main
from chancert.harness import HarnessResult, _run_chunk

from conftest import rotated_schur_stack

STATE_CORPORA = ("1,2,2", "1,3,3")
GAUSSIAN_CORPUS = "2,2,3"
SEED = 3003
TRIALS = 20


def eb_never_yes(rule):
    def mutant(ppt, regime):
        value = rule(ppt, regime)
        return UNKNOWN if value == YES else value
    return mutant


def eb_yes_outside_regime(rule):
    return lambda ppt, regime: rule(ppt, True)


def witness_on_equality(rule):
    # the regime flag is rank(X) <= the larger marginal rank
    def mutant(whole, left, right):
        _, regime = rule(whole, left, right)
        return regime, regime
    return mutant


def strict_regime(rule):
    # the witness flag is rank(X) < the larger marginal rank
    def mutant(whole, left, right):
        fires, _ = rule(whole, left, right)
        return fires, fires
    return mutant


def ppt_ignores_partial_transpose(rule):
    return lambda psd, pt_psd: rule(psd, True)


# (rule, mutation, corpora that exit 4, index into RELATIONS of every
# counterexample's message)
MUTANTS = [
    pytest.param("eb_rule", eb_never_yes, STATE_CORPORA, 1, id="1-eb-never-yes"),
    pytest.param("eb_rule", eb_yes_outside_regime, STATE_CORPORA + (GAUSSIAN_CORPUS,), None,
                 id="2-eb-yes-outside-regime", marks=pytest.mark.xfail(
                     strict=True, reason="no relation fails on an eb: yes")),
    pytest.param("witness_rule", witness_on_equality, STATE_CORPORA, 3, id="3-witness-on-equality"),
    pytest.param("witness_rule", strict_regime, STATE_CORPORA, 1, id="4-strict-regime"),
    pytest.param("ppt_rule", ppt_ignores_partial_transpose, (GAUSSIAN_CORPUS,), 3,
                 id="5-ppt-ignores-pt"),
]


def verify_theorem(dims: str, tmp_path) -> tuple[int, list[dict]]:
    """Exit code and counterexample records of a verify-theorem run."""
    out = tmp_path / f"{dims}.json"
    code = main(["verify-theorem", "--dims", dims, "--trials", str(TRIALS), "--seed", str(SEED),
                 "--output", str(out)])
    return code, json.loads(out.read_text())["counterexamples"]


def schur_chunk(d: int) -> HarnessResult:
    """The engine's result on one chunk of rotated Schur dilations at (d, d, d)."""
    result = HarnessResult()
    stack = rotated_schur_stack(np.random.default_rng(d), d, TRIALS)
    _run_chunk(stack, (d, d, d), SEED, range(TRIALS), DEFAULT_TOLERANCES, result)
    return result


def test_unmutated_corpora_pass(tmp_path):
    for dims in STATE_CORPORA + (GAUSSIAN_CORPUS,):
        assert verify_theorem(dims, tmp_path) == (0, [])
    result = schur_chunk(3)
    assert result.counterexamples == [] and result.counts["both_ppt"] == TRIALS


@pytest.mark.parametrize("rule, mutate, corpora, relation", MUTANTS)
def test_mutant_is_caught(rule, mutate, corpora, relation, tmp_path, monkeypatch):
    monkeypatch.setattr(chancert.certify, rule, mutate(getattr(chancert.certify, rule)))
    message = RELATIONS[relation].message if relation is not None else None
    for dims in corpora:
        code, counterexamples = verify_theorem(dims, tmp_path)
        assert code == 4, dims
        assert {record["error"] for record in counterexamples} == {message}
    if corpora == STATE_CORPORA:
        # caught at d_a = 1, so caught on bi-PPT pairs with d_a > 1 as well
        records = schur_chunk(3).counterexamples
        assert [record["error"] for record in records] == [message] * TRIALS


def test_eb_yes_outside_regime_is_caught_at_the_matrix_level(monkeypatch):
    # the tiles Choi matrix is PPT and outside the low-rank regime, so
    # TestEbCertificate::test_tiles_unknown reads the mutant's yes
    monkeypatch.setattr(chancert.certify, "eb_rule",
                        eb_yes_outside_regime(chancert.certify.eb_rule))
    assert eb_certificate(tiles_upb_choi()).value == "yes"
