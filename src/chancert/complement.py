"""Complementary pairs of CP maps from a common dilation operator.

A Stinespring operator L : C^dA -> C^dB (x) C^dC defines two CP maps,

    Phi(X) = Tr_C(L X L^dagger)    and    Psi(X) = Tr_B(L X L^dagger),

which are complementary to each other. Their Choi matrices are the two
marginals of a single pure tripartite vector

    |L> = (I_A (x) L) sum_i |i>_A |i>_A

on A (x) B (x) C, which is the keystone identity this module tests against.
Tripartite objects are handled as flat vectors with explicit reshaping; the
ordering is always (A, B, C) with A slowest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChoiMatrix, StinespringOperator, choi_from_map_action
from .errors import NotPositiveSemidefiniteError
from .linalg import (
    DEFAULT_TOLERANCES,
    RankDecision,
    ToleranceConfig,
    close_frobenius,
    hermitian_part_spectrum,
    hermitian_spectrum,
    partial_trace,
    rank_record,
)


@dataclass(frozen=True)
class ComplementaryPair:
    """A dilation together with the Choi matrices of its two partial traces."""

    stinespring: StinespringOperator
    choi_phi: ChoiMatrix  # d_A -> d_B, environment C traced out
    choi_psi: ChoiMatrix  # d_A -> d_C, environment B traced out


@dataclass(frozen=True)
class RankChain:
    """Numerical ranks of the five marginals of the common purification.

    The purity identities rank_lc == rank_lab and rank_lb == rank_lac hold
    for every exact purification; their numerical failure signals breakdown,
    not mathematics.
    """

    rank_lab: int
    rank_lac: int
    rank_la: int
    rank_lb: int
    rank_lc: int
    fragile: bool

    def to_json(self) -> dict:
        return dict(vars(self))


def common_purification_vector(st: StinespringOperator) -> np.ndarray:
    """The tripartite vector |L> in C^(dA*dB*dC), index a*(dB*dC) + b*dC + c."""
    return st.matrix.T.reshape(-1).copy()


def marginals_of(psi: np.ndarray) -> dict[str, np.ndarray]:
    """All five marginals of |psi><psi| for tripartite vectors of shape
    ``(..., d_a, d_b, d_c)``, keyed 'ab', 'ac', 'a', 'b', 'c'.

    Leading axes index independent vectors, so one call serves a whole stack.
    """
    *lead, d_a, d_b, d_c = psi.shape
    conj = psi.conj()
    return {
        "ab": np.einsum("...abc,...xyc->...abxy", psi, conj).reshape(*lead, d_a * d_b, d_a * d_b),
        "ac": np.einsum("...abc,...xbz->...acxz", psi, conj).reshape(*lead, d_a * d_c, d_a * d_c),
        "a": np.einsum("...abc,...xbc->...ax", psi, conj),
        "b": np.einsum("...abc,...ayc->...by", psi, conj),
        "c": np.einsum("...abc,...abz->...cz", psi, conj),
    }


def purification_marginals(st: StinespringOperator) -> dict[str, np.ndarray]:
    """All five marginals of |L><L| keyed 'ab', 'ac', 'a', 'b', 'c'."""
    return marginals_of(common_purification_vector(st).reshape(st.d_a, st.d_b, st.d_c))


def complementary_pair_from_stinespring(
    st: StinespringOperator, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> ComplementaryPair:
    """Build both Choi matrices by applying the dilated maps to basis matrices.

    Both are PSD by construction; this is asserted within psd_tol as a
    numerical sanity check.
    """
    return _pair_and_spectra(st, cfg)[0]


def _pair_and_spectra(st: StinespringOperator, cfg: ToleranceConfig):
    """``complementary_pair_from_stinespring``, with the ``(spectrum, PsdCheck)``
    of each Choi matrix, phi then psi, that its assertion read."""
    layout = st.output_layout
    choi_phi = choi_from_map_action(
        lambda e: partial_trace(st.conjugate(e), layout, "right"), st.d_a, st.d_b
    )
    choi_psi = choi_from_map_action(
        lambda e: partial_trace(st.conjugate(e), layout, "left"), st.d_a, st.d_c
    )
    records = []
    for name, choi in (("phi", choi_phi), ("psi", choi_psi)):
        w, check = hermitian_spectrum(choi.matrix, cfg)
        if not check.psd:
            raise NotPositiveSemidefiniteError(
                f"Choi matrix of {name} is not PSD; numerical breakdown in pair construction"
            )
        records.append((w, check))
    return ComplementaryPair(st, choi_phi, choi_psi), tuple(records)


def rank_chain(
    st: StinespringOperator, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> tuple[RankChain, dict[str, RankDecision]]:
    """Rank data of all five purification marginals, with audit decisions. They
    are Hermitian by construction, so no deviation check precedes their spectra.

    The purity equalities are not enforced here: ``certify.pair_rules``
    evaluates them, and ``certify.equivalence_check`` raises
    PurityViolationError when they fail on a non-fragile sample.
    """
    marginals = purification_marginals(st)
    decisions = {key: rank_record(hermitian_part_spectrum(m), cfg) for key, m in marginals.items()}
    chain = RankChain(
        rank_lab=decisions["ab"].rank,
        rank_lac=decisions["ac"].rank,
        rank_la=decisions["a"].rank,
        rank_lb=decisions["b"].rank,
        rank_lc=decisions["c"].rank,
        fragile=any(d.fragile for d in decisions.values()),
    )
    return chain, decisions


def verify_complementarity(
    pair: ComplementaryPair, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> bool:
    """True iff both purification marginals match the stored Choi matrices.

    Complements are unique only up to an isometry on the environment; a pair
    whose psi was conjugated by a nontrivial unitary on C fails this check
    even though it represents "the same" complement abstractly.
    """
    marginals = purification_marginals(pair.stinespring)
    return close_frobenius(
        marginals["ab"], pair.choi_phi.matrix, cfg.equality_tol
    ) and close_frobenius(marginals["ac"], pair.choi_psi.matrix, cfg.equality_tol)


def swap_environment(st: StinespringOperator) -> StinespringOperator:
    """Exchange the B and C output factors, swapping the roles of the two maps."""
    cube = st.matrix.reshape(st.d_b, st.d_c, st.d_a)
    swapped = cube.transpose(1, 0, 2).reshape(st.d_c * st.d_b, st.d_a)
    return StinespringOperator(st.d_a, st.d_c, st.d_b, swapped)
