"""Representations of linear maps M_dA -> M_dB and conversions among them.

A map Phi is carried by its Choi matrix

    J(Phi) = sum_ij |i><j| (x) Phi(|i><j|)

on the bipartite space A (x) B with the package index convention
(A is the slow factor). Kraus operators are reshaped eigenvectors of the
Choi matrix: an eigenvector w of J, indexed by composite a * d_B + b,
becomes the operator K[b, a] = w[a * d_B + b].

Worked 2x2 example of the reshape: for w = (w00, w01, w10, w11) indexed as
(a, b) pairs (00, 01, 10, 11),

    K = [[w00, w10],
         [w01, w11]]

so that K |a> picks out the b-column (w_a0, w_a1) of the a-th block.

No map is required to be trace preserving anywhere; trace preservation is a
reported attribute, never a precondition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, NonHermitianError, NotPositiveSemidefiniteError
from .linalg import (
    DEFAULT_TOLERANCES,
    BipartiteLayout,
    ToleranceConfig,
    as_matrix,
    close_frobenius,
    hermitian_eigensystem,
    is_psd,
    partial_trace,
    partial_transpose,
)


def _owned_matrix(x) -> np.ndarray:
    """A read-only copy of ``x``, checked by ``as_matrix``: a value object
    keeps it, so no edit of the caller's array can change the value."""
    m = as_matrix(np.array(x, dtype=complex))
    m.flags.writeable = False
    return m


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi matrix of a linear map M_dA -> M_dB."""

    d_a: int
    d_b: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = _owned_matrix(self.matrix)
        if m.shape != (self.d_a * self.d_b, self.d_a * self.d_b):
            raise DimensionMismatchError(
                f"Choi matrix shape {m.shape} does not match d_a*d_b = {self.d_a * self.d_b}"
            )
        object.__setattr__(self, "matrix", m)

    @property
    def layout(self) -> BipartiteLayout:
        return BipartiteLayout(self.d_a, self.d_b)


@dataclass(frozen=True)
class KrausSet:
    """Ordered list of d_B x d_A Kraus operators of a CP map."""

    d_a: int
    d_b: int
    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(_owned_matrix(k) for k in self.operators)
        if not ops:
            raise DimensionMismatchError("a KrausSet must contain at least one operator")
        for k in ops:
            if k.shape != (self.d_b, self.d_a):
                raise DimensionMismatchError(
                    f"Kraus operator shape {k.shape} does not match ({self.d_b}, {self.d_a})"
                )
        object.__setattr__(self, "operators", ops)


@dataclass(frozen=True)
class StinespringOperator:
    """A dilation operator L : C^dA -> C^dB (x) C^dC.

    The rows of ``matrix`` are indexed by the composite (b, c) pair,
    b * d_c + c. Tracing the output of X -> L X L^dagger over C gives one
    CP map, tracing over B gives its complement.
    """

    d_a: int
    d_b: int
    d_c: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = _owned_matrix(self.matrix)
        if m.shape != (self.d_b * self.d_c, self.d_a):
            raise DimensionMismatchError(
                f"Stinespring operator shape {m.shape} does not match "
                f"({self.d_b}*{self.d_c}, {self.d_a})"
            )
        object.__setattr__(self, "matrix", m)


def basis_matrix(d: int, i: int, j: int) -> np.ndarray:
    e = np.zeros((d, d), dtype=complex)
    e[i, j] = 1.0
    return e


def choi_from_map_action(apply: Callable[[np.ndarray], np.ndarray], d_a: int, d_b: int) -> ChoiMatrix:
    """Assemble a Choi matrix from the map's action on basis matrices.

    ``apply`` must return Phi(|i><j|) as a d_B x d_B matrix for every basis
    matrix. The assembly is exact linear bookkeeping; no tolerance is involved.
    """
    dim = d_a * d_b
    j = np.zeros((dim, dim), dtype=complex)
    for a in range(d_a):
        for ap in range(d_a):
            block = as_matrix(apply(basis_matrix(d_a, a, ap)))
            if block.shape != (d_b, d_b):
                raise DimensionMismatchError(
                    f"map action returned shape {block.shape}, expected ({d_b}, {d_b})"
                )
            j[a * d_b:(a + 1) * d_b, ap * d_b:(ap + 1) * d_b] = block
    return ChoiMatrix(d_a, d_b, j)


def apply_channel(choi: ChoiMatrix, x) -> np.ndarray:
    """Apply the map carried by ``choi`` to a d_A x d_A matrix."""
    m = as_matrix(x)
    if m.shape != (choi.d_a, choi.d_a):
        raise DimensionMismatchError(f"input shape {m.shape}, expected ({choi.d_a}, {choi.d_a})")
    j4 = choi.matrix.reshape(choi.d_a, choi.d_b, choi.d_a, choi.d_b)
    return np.einsum("ij,ibjc->bc", m, j4)


def transfer_from_choi(choi: ChoiMatrix) -> np.ndarray:
    """Row-major transfer matrix S with vec(Phi(X)) = S @ vec(X)."""
    j4 = choi.matrix.reshape(choi.d_a, choi.d_b, choi.d_a, choi.d_b)
    return j4.transpose(1, 3, 0, 2).reshape(choi.d_b ** 2, choi.d_a ** 2)


def choi_from_transfer(s, d_a: int, d_b: int) -> ChoiMatrix:
    """Inverse of :func:`transfer_from_choi`."""
    m = as_matrix(s)
    if m.shape != (d_b ** 2, d_a ** 2):
        raise DimensionMismatchError(f"transfer matrix shape {m.shape}, expected ({d_b**2}, {d_a**2})")
    j = m.reshape(d_b, d_b, d_a, d_a).transpose(2, 0, 3, 1).reshape(d_a * d_b, d_a * d_b)
    return ChoiMatrix(d_a, d_b, j)


def kraus_from_choi(choi: ChoiMatrix, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> KrausSet:
    """Extract Kraus operators from a PSD Choi matrix by eigendecomposition.

    Each eigenvalue above the rank cutoff of ``rank_rule`` gives one
    operator; the PSD test and the cutoff read the eigenvalues of the one
    decomposition. A negative eigenvalue that a loose ``psd_tol`` admits
    counts toward the rank but gives no operator. A Choi matrix with no
    eigenvalue above the cutoff (the zero map) yields a single zero
    operator so the set stays well formed.
    """
    try:
        w, v = hermitian_eigensystem(choi.matrix, cfg)
    except NonHermitianError:
        psd = False
    else:
        psd = linalg.psd_rule(w[::-1], cfg)[0]
    if not psd:
        raise NotPositiveSemidefiniteError("Choi matrix is not PSD: the map is not CP")
    kept = np.flatnonzero(w > linalg.rank_rule(w, cfg)[1])
    if kept.size == 0:
        return KrausSet(choi.d_a, choi.d_b, (np.zeros((choi.d_b, choi.d_a), dtype=complex),))
    ops = [(np.sqrt(w[k]) * v[:, k]).reshape(choi.d_a, choi.d_b).T.copy() for k in kept]
    return KrausSet(choi.d_a, choi.d_b, tuple(ops))


def choi_from_kraus(kraus: KrausSet) -> ChoiMatrix:
    """Assemble the Choi matrix generated by a Kraus set."""
    stack = np.stack(kraus.operators)  # (n, d_b, d_a)
    j4 = np.einsum("kbi,kcj->ibjc", stack, stack.conj())
    dim = kraus.d_a * kraus.d_b
    return ChoiMatrix(kraus.d_a, kraus.d_b, j4.reshape(dim, dim))


def stinespring_from_kraus(kraus: KrausSet) -> StinespringOperator:
    """Stack Kraus operators into a dilation with d_C = number of operators."""
    stack = np.stack(kraus.operators)  # (c, b, a)
    d_c = stack.shape[0]
    mat = stack.transpose(1, 0, 2).reshape(kraus.d_b * d_c, kraus.d_a)
    return StinespringOperator(kraus.d_a, kraus.d_b, d_c, mat)


def kraus_from_stinespring(st: StinespringOperator) -> KrausSet:
    """Slice a dilation back into its Kraus operators (one per environment index)."""
    cube = st.matrix.reshape(st.d_b, st.d_c, st.d_a)
    ops = tuple(cube[:, k, :].copy() for k in range(st.d_c))
    return KrausSet(st.d_a, st.d_b, ops)


def choi_from_stinespring(st: StinespringOperator) -> ChoiMatrix:
    """Choi matrix of X -> Tr_C(L X L^dagger), by the Kraus-vector route
    V V^dagger: the rows (a, b) of V hold L's entries over c. The einsum of
    ``complement.choi_marginal`` is the oracle's other route to the same
    matrix; the ``verify-theorem`` engine's is a float64 product."""
    v = st.matrix.T.reshape(st.d_a * st.d_b, st.d_c)
    return ChoiMatrix(st.d_a, st.d_b, v @ v.conj().T)


def is_cp(choi: ChoiMatrix, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """Completely positive: PSD Choi matrix."""
    return is_psd(choi.matrix, cfg)


def is_cocp(choi: ChoiMatrix, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """Completely copositive: PSD partial transpose of the Choi matrix."""
    return is_psd(partial_transpose(choi.matrix, choi.layout, "left"), cfg)


def is_ppt_map(choi: ChoiMatrix, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """Both CP and coCP, by ``certify.ppt_rule``. Invariant under which factor
    is partially transposed."""
    from . import certify  # certify imports this module

    return bool(certify.ppt_rule(is_cp(choi, cfg), is_cocp(choi, cfg)))


def is_trace_preserving(choi: ChoiMatrix, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """True iff Tr_B J equals the identity on A within equality_tol."""
    marginal = partial_trace(choi.matrix, choi.layout, "right")
    return close_frobenius(marginal, np.eye(choi.d_a, dtype=complex), cfg.equality_tol)


def channels_equal(x: ChoiMatrix, y: ChoiMatrix, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """Compare two maps through their Choi matrices (representation independent)."""
    if (x.d_a, x.d_b) != (y.d_a, y.d_b):
        return False
    return close_frobenius(x.matrix, y.matrix, cfg.equality_tol)


def compose(outer: ChoiMatrix, inner: ChoiMatrix) -> ChoiMatrix:
    """Choi matrix of ``outer`` after ``inner`` (outer o inner)."""
    if inner.d_b != outer.d_a:
        raise DimensionMismatchError(
            f"cannot compose: inner output dim {inner.d_b} != outer input dim {outer.d_a}"
        )
    s = transfer_from_choi(outer) @ transfer_from_choi(inner)
    return choi_from_transfer(s, inner.d_a, outer.d_b)
