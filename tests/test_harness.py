"""Agreement of the batched verify-theorem engine with a per-sample loop.

The reference is the loop the engine replaces: ``random_stinespring`` then
``equivalence_check`` for every sample, tallied here. Counts and
counterexample records must be equal, and the non-vacuous configurations
must actually reach escalation, fragile discards and the PPT branch.

The engine's partial-transpose flags skip the spectrum where a 2 x 2 minor
certifies the matrix clearly not PSD, and the wider marginal of each
complementary pair takes its flags from the narrower one's spectrum where
that leaves no decision open; both must equal the flags of the spectrum
exactly.
"""

import itertools
import json
import sys
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
from chancert.complement import marginals_of
from chancert.harness import (
    CHUNK_ENTRIES,
    COUNT_KEYS,
    ESCALATION_MARGIN,
    MINOR_ROUNDING,
    _certified_npt,
    _frobenius,
    _marginal_spectra,
    _partial_transpose_flags,
    _partial_transpose_left,
    _psd_flags,
    _rank_flags,
    _wide_spectra,
    chunk_size,
    run_harness,
)

from conftest import complex_gaussian

ACCEPTANCE_TUPLES = list(itertools.product((2, 3), repeat=3))
WIDE_TUPLES = [(2, 2, 6), (3, 3, 9), (4, 4, 16)]
ROUNDING_PSD_TOL = 1e-17
ROUNDING_RANK_TOL = 1e-15


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


@pytest.mark.parametrize("dims", WIDE_TUPLES, ids=dims_id)
def test_no_ac_partial_transpose_reaches_eigvalsh(dims, eigvalsh_stacks):
    # psi's Choi matrix and its partial transpose are both settled here, so
    # only the marginal on a, the narrower side of each complementary pair
    # and the open ab partial transposes reach LAPACK (five to six matrices
    # per sample with the ac marginal, seven without either certificate);
    # no other kind has side d_a * d_c
    d_a, _, d_c = dims
    trials = 2 * chunk_size(dims)
    run_harness(dims, trials, 3003, DEFAULT_TOLERANCES)
    matrices = matrices_by_dim(eigvalsh_stacks)
    assert matrices[d_a * d_c] == 0
    assert 3 * trials <= sum(matrices.values()) <= 4 * trials


@pytest.mark.parametrize("dims", ACCEPTANCE_TUPLES + WIDE_TUPLES, ids=dims_id)
def test_no_wide_marginal_reaches_eigvalsh(dims, eigvalsh_stacks):
    # at default tolerances the narrower spectrum settles every wider
    # marginal, and eigvalsh sees three marginals per sample, none wider than
    # its complement
    d_a, d_b, d_c = dims
    trials = 40 if max(dims) > 3 else 200
    run_harness(dims, trials, 3003, DEFAULT_TOLERANCES)
    assert matrices_by_dim(eigvalsh_stacks, "_wide_spectra") == Counter()
    narrow = {d_a, min(d_a * d_b, d_c), min(d_a * d_c, d_b)}
    assert set(matrices_by_dim(eigvalsh_stacks, "_marginal_spectra")) == narrow
    assert sum(matrices_by_dim(eigvalsh_stacks, "_marginal_spectra").values()) == 3 * trials


@pytest.mark.parametrize("dims", [(2, 2, 3), (2, 3, 2), (2, 2, 6)], ids=dims_id)
@pytest.mark.parametrize("cfg", [ToleranceConfig(psd_tol=ROUNDING_PSD_TOL),
                                 ToleranceConfig(rank_tol=ROUNDING_RANK_TOL)], ids=["psd", "rank"])
def test_wide_marginal_fallback_agrees(dims, cfg, eigvalsh_stacks):
    # at rounding-level tolerances the zeros the narrow spectrum pads with
    # meet a decision window, so the wider marginals go to eigvalsh
    assert_agrees(dims, 40, 8, cfg)
    assert matrices_by_dim(eigvalsh_stacks, "_wide_spectra")


@pytest.mark.parametrize("cfg", [DEFAULT_TOLERANCES, ToleranceConfig(psd_tol=0.1)],
                         ids=["default", "psd"])
def test_open_partial_transposes_reach_eigvalsh(cfg, eigvalsh_stacks):
    # one chunk with PPT samples: the certificate settles some partial
    # transposes at default tolerances and none at psd_tol = 0.1 (c = 0.4 F);
    # the open ones go to one stacked eigvalsh per kind, after the marginals
    # on a, c and b, each no wider than its complement
    result, _ = assert_agrees((2, 2, 3), 300, 3003, cfg)
    assert result.counts["phi_ppt"] > 0
    assert [dim for _, _, dim in eigvalsh_stacks] == [2, 3, 2, 4, 6]
    matrices = matrices_by_dim(eigvalsh_stacks, "_partial_transpose_flags")
    open_ab, open_ac = matrices[4], matrices[6]
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


def assert_marginal_flags_match(vector, cfg) -> int:
    """Every marginal of a stack of tripartite vectors gets from
    ``_marginal_spectra`` the rank flags, and each Choi matrix the PSD flags,
    of its computed spectrum. Returns the number of stand-in rows, those
    unequal to the computed spectrum."""
    n = vector.shape[0]
    hermitian = {key: (m + m.conj().swapaxes(1, 2)) / 2.0 for key, m in marginals_of(vector).items()}
    spectra = _marginal_spectra(hermitian, np.square(_frobenius(vector.reshape(n, 1, -1))), cfg)
    stand_ins = 0
    for key, h in hermitian.items():
        w = np.linalg.eigvalsh(h)
        pairs = zip(_rank_flags(spectra[key], cfg), _rank_flags(w, cfg))
        if key in ("ab", "ac"):
            pairs = itertools.chain(pairs, zip(_psd_flags(spectra[key], cfg), _psd_flags(w, cfg)))
        for got, want in pairs:
            assert np.array_equal(got, want), key
        stand_ins += np.count_nonzero((spectra[key] != w).any(axis=1))
    return stand_ins


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
    stand_ins = 0
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
                stand_ins += assert_marginal_flags_match(2.0**exponent * vector, cfg)
    # at a rounding-level rank_tol the allowance meets every fragility window
    assert stand_ins > 0 or rank_tol == ROUNDING_RANK_TOL


@pytest.mark.parametrize("psd_tol", [1e-9, 1e-3, 0.1, ROUNDING_PSD_TOL])
def test_wide_spectra_psd_flags_near_threshold(psd_tol):
    # a narrow spectrum with lambda_min at k times the PSD threshold, around
    # the escalation window (2, 1/2), and h = U diag(w) U^dagger with w that
    # spectrum padded with zeros: no marginal of a pure vector, but the
    # certificate's premise holds exactly; trace bounds the trace norm
    cfg = ToleranceConfig(psd_tol=psd_tol)
    rng = np.random.default_rng(43)
    stand_ins = 0
    for narrow_dim, dim in ((2, 4), (3, 3), (3, 12), (4, 16)):
        for k in WINDOW_FACTORS + (0.5, 2.0):
            narrow = rng.uniform(0.5, 1.0, (8, narrow_dim))
            narrow[:, -1], narrow[:, 0] = 1.0, -k * psd_tol
            padded = np.sort(np.concatenate([narrow, np.zeros((8, dim - narrow_dim))], axis=1))
            h = hermitian_stack(rng, padded)
            for exponent in (-40, 0, 40):
                scale = 2.0**exponent
                w = _wide_spectra(h * scale, narrow * scale, np.abs(narrow).sum(1) * scale, cfg,
                                  psd=True)
                want = np.linalg.eigvalsh(h * scale)
                for got, expected in zip(_psd_flags(w, cfg) + _rank_flags(w, cfg),
                                         _psd_flags(want, cfg) + _rank_flags(want, cfg)):
                    assert np.array_equal(got, expected)
                stand_ins += np.count_nonzero((w != want).any(axis=1))
    assert stand_ins > 0 or psd_tol == ROUNDING_PSD_TOL


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
