"""Complementary pairs of CP maps from a common dilation operator.

A Stinespring operator L : C^dA -> C^dB (x) C^dC defines two CP maps,

    Phi(X) = Tr_C(L X L^dagger)    and    Psi(X) = Tr_B(L X L^dagger),

which are complementary to each other. Their Choi matrices are the two
marginals of a single pure tripartite vector

    |L> = (I_A (x) L) sum_i |i>_A |i>_A

on A (x) B (x) C, the keystone identity ``certify.equivalence_check`` checks.
Tripartite objects are handled as flat vectors with explicit reshaping; the
ordering is always (A, B, C) with A slowest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChoiMatrix, StinespringOperator, choi_from_stinespring
from .errors import NotPositiveSemidefiniteError
from .linalg import (
    DEFAULT_TOLERANCES,
    PsdCheck,
    RankDecision,
    ToleranceConfig,
    _hermitian_part_spectra,
    psd_check,
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


def choi_marginal(psi: np.ndarray) -> np.ndarray:
    """The marginal of |psi><psi| on the first two factors, as a matrix, for
    tripartite vectors of shape ``(..., d_a, d_b, d_c)``: the Choi matrix of
    the map that traces out c. Given ``psi`` with b and c swapped, it is the
    Choi matrix of the complement.
    """
    *lead, d_a, d_b, _ = psi.shape
    out = np.empty((*lead, d_a * d_b, d_a * d_b), dtype=complex)
    np.einsum("...abc,...xyc->...abxy", psi, psi.conj(), out=out.reshape(*lead, d_a, d_b, d_a, d_b))
    return out


def factor_marginals(psi: np.ndarray) -> dict[str, np.ndarray]:
    """The single-factor marginals of |psi><psi| for tripartite vectors of
    shape ``(..., d_a, d_b, d_c)``, keyed 'a', 'b', 'c'."""
    conj = psi.conj()
    return {
        "a": np.einsum("...abc,...xbc->...ax", psi, conj),
        "b": np.einsum("...abc,...ayc->...by", psi, conj),
        "c": np.einsum("...abc,...abz->...cz", psi, conj),
    }


def purification_marginals(st: StinespringOperator) -> dict[str, np.ndarray]:
    """All five marginals of |L><L| keyed 'ab', 'ac', 'a', 'b', 'c'."""
    psi = common_purification_vector(st).reshape(st.d_a, st.d_b, st.d_c)
    return {
        "ab": choi_marginal(psi),
        "ac": choi_marginal(psi.swapaxes(-2, -1)),
        **factor_marginals(psi),
    }


def complementary_pair_from_stinespring(
    st: StinespringOperator, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> ComplementaryPair:
    """Both Choi matrices by ``choi_from_stinespring``: phi's of the dilation,
    psi's of the dilation with B and C swapped.

    Both are PSD by construction; this is asserted within psd_tol as a
    numerical sanity check.
    """
    pair = ComplementaryPair(
        st, choi_from_stinespring(st), choi_from_stinespring(swap_environment(st))
    )
    _require_psd("phi", psd_check(pair.choi_phi.matrix, cfg))
    _require_psd("psi", psd_check(pair.choi_psi.matrix, cfg))
    return pair


def _require_psd(name: str, check: PsdCheck) -> None:
    """Raise NotPositiveSemidefiniteError unless ``check``, the PSD record of
    the Choi matrix of map ``name`` of a dilation, is PSD."""
    if not check.psd:
        raise NotPositiveSemidefiniteError(
            f"Choi matrix of {name} is not PSD; numerical breakdown in pair construction"
        )


def rank_chain(
    st: StinespringOperator, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> tuple[RankChain, dict[str, RankDecision]]:
    """Rank data of all five purification marginals, with audit decisions. They
    are Hermitian by construction, so no deviation check precedes their spectra.

    The purity equalities are not enforced here: ``certify.pair_rules``
    evaluates them, and ``certify.equivalence_check`` raises
    PurityViolationError when they fail on a non-fragile sample.
    """
    return _chain_of(_hermitian_part_spectra(purification_marginals(st)), cfg)


def _chain_of(spectra: dict[str, np.ndarray], cfg: ToleranceConfig):
    """``rank_chain`` from the ascending spectra of the purification
    marginals, keyed as ``purification_marginals``."""
    decisions = {key: rank_record(w, cfg) for key, w in spectra.items()}
    chain = RankChain(
        rank_lab=decisions["ab"].rank,
        rank_lac=decisions["ac"].rank,
        rank_la=decisions["a"].rank,
        rank_lb=decisions["b"].rank,
        rank_lc=decisions["c"].rank,
        fragile=any(d.fragile for d in decisions.values()),
    )
    return chain, decisions


def swap_environment(st: StinespringOperator) -> StinespringOperator:
    """Exchange the B and C output factors, swapping the roles of the two maps."""
    cube = st.matrix.reshape(st.d_b, st.d_c, st.d_a)
    swapped = cube.transpose(1, 0, 2).reshape(st.d_c * st.d_b, st.d_a)
    return StinespringOperator(st.d_a, st.d_c, st.d_b, swapped)
