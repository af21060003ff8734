"""Agreement of the batched verify-theorem engine with a per-sample loop.

The reference is the loop the engine replaces: ``random_stinespring`` then
``equivalence_check`` for every sample, tallied here. Counts and
counterexample records must be equal, and the non-vacuous configurations
must actually reach escalation, fragile discards and the PPT branch.

The engine's partial-transpose flags skip the spectrum where a 2 x 2 minor
certifies the matrix clearly not PSD; they must equal the flags of the
spectrum exactly.
"""

import itertools
import json
import tracemalloc
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
    ToleranceConfig,
    equivalence_check,
    random_stinespring,
)
from chancert.cli import main
from chancert.harness import (
    CHUNK_ENTRIES,
    COUNT_KEYS,
    ESCALATION_MARGIN,
    MINOR_ROUNDING,
    _certified_npt,
    _frobenius,
    _partial_transpose_flags,
    _partial_transpose_left,
    _psd_flags,
    chunk_size,
    run_harness,
)

from conftest import complex_gaussian

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


@pytest.mark.parametrize("dims", [(4, 4, 16), (3, 3, 9)], ids=dims_id)
def test_escalations_inside_wide_chunks_agree(dims):
    size = chunk_size(dims)
    assert size > 1
    result, _ = assert_agrees(dims, 3 * size, 3003, ToleranceConfig(psd_tol=0.1))
    assert any(index % size not in (0, size - 1) for index in result.escalated)


def test_chunk_peak_allocation():
    # (4,4,16) runs 4 samples per chunk, about 1.0 MiB at peak; at four
    # times the budget all 8 samples share one chunk and peak near 1.8 MiB
    run_harness((4, 4, 16), 8, 3003, DEFAULT_TOLERANCES)
    tracemalloc.start()
    try:
        run_harness((4, 4, 16), 8, 3003, DEFAULT_TOLERANCES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


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


@pytest.mark.parametrize("dims", [(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 1, 1)], ids=dims_id)
def test_unit_dimensions_agree(dims):
    # a unit factor turns a partial transpose into a strided view
    assert_agrees(dims, 40, 17)


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


@pytest.fixture
def eigvalsh_stacks(monkeypatch):
    """Shapes of the stacks handed to eigvalsh; single matrices, which only
    escalation and the per-sample loop hand it, are not recorded."""
    shapes = []

    def counted(a, *args, _original=np.linalg.eigvalsh, **kwargs):
        if a.ndim == 3:
            shapes.append(a.shape[:2])
        return _original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return shapes


def matrices_by_dim(shapes) -> Counter:
    matrices = Counter()
    for n, dim in shapes:
        matrices[dim] += n
    return matrices


@pytest.mark.parametrize("dims", WIDE_TUPLES, ids=dims_id)
def test_no_ac_partial_transpose_reaches_eigvalsh(dims, eigvalsh_stacks):
    # the certificate settles every partial transpose of psi here, so only
    # the five marginals and the open ab partial transposes reach LAPACK
    # (seven matrices per sample without it); no other kind has side d_a * d_c
    d_a, _, d_c = dims
    trials = 2 * chunk_size(dims)
    run_harness(dims, trials, 3003, DEFAULT_TOLERANCES)
    matrices = matrices_by_dim(eigvalsh_stacks)
    assert matrices[d_a * d_c] == trials
    assert 5 * trials <= sum(matrices.values()) <= 6 * trials


@pytest.mark.parametrize("cfg", [DEFAULT_TOLERANCES, ToleranceConfig(psd_tol=0.1)],
                         ids=["default", "psd"])
def test_open_partial_transposes_reach_eigvalsh(cfg, eigvalsh_stacks):
    # one chunk with PPT samples: the certificate settles some partial
    # transposes at default tolerances and none at psd_tol = 0.1 (c = 0.4 F);
    # the open ones go to one stacked eigvalsh per kind
    result, _ = assert_agrees((2, 2, 3), 300, 3003, cfg)
    assert result.counts["phi_ppt"] > 0
    matrices = matrices_by_dim(eigvalsh_stacks)
    assert len(eigvalsh_stacks) == 7
    open_ab, open_ac = matrices[4] - 300, matrices[6] - 300
    if cfg is DEFAULT_TOLERANCES:
        assert 0 < open_ab < 300 and 0 < open_ac < 300
    else:
        assert open_ab == open_ac == 300


def spectrum_flags(h, cfg):
    return _psd_flags(np.linalg.eigvalsh(h), cfg)


def hermitian_stack(rng, spectra) -> np.ndarray:
    """U diag(w) U^dagger per row w of spectra, made exactly Hermitian."""
    n, dim = spectra.shape
    q, _ = np.linalg.qr(complex_gaussian(rng, (n, dim, dim)))
    h = (q * spectra[:, None, :]) @ q.conj().swapaxes(1, 2)
    return (h + h.conj().swapaxes(1, 2)) / 2.0


ROUNDING_PSD_TOL = 1e-17


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
                psd, near = _partial_transpose_flags(h, d_left, d_right, bound, cfg)
                want_psd, want_near = spectrum_flags(scaled, cfg)
                assert np.array_equal(psd, want_psd) and np.array_equal(near, want_near)
                certified += np.count_nonzero(_certified_npt(h, d_left, d_right, bound, cfg))
    assert certified > 0 or psd_tol == ROUNDING_PSD_TOL


@pytest.mark.parametrize("psd_tol", [1e-9, 0.1, ROUNDING_PSD_TOL])
def test_certificate_on_2x2_matrices_is_lambda_min_below_minus_c(psd_tol):
    # a 2 x 2 matrix is its own principal minor, so the certificate holds
    # exactly when lambda_min < -c, whether the diagonal shows it or not
    cfg = ToleranceConfig(psd_tol=psd_tol)
    bound = 2.0
    c = (2 * ESCALATION_MARGIN * psd_tol + MINOR_ROUNDING * 2 * np.finfo(float).eps) * bound
    rotation = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    for factor, certified in ((0.75, False), (1.25, True)):
        diagonal = np.diag([1.0, -factor * c])
        h = np.stack([diagonal, rotation @ diagonal @ rotation.T, -factor * c * np.eye(2)])
        assert _certified_npt(h + 0j, 1, 2, np.full(3, bound), cfg).tolist() == [certified] * 3


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
