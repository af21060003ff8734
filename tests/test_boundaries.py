"""Rejections at the library's boundary: each check that guards a constructor
or a public helper against a wrong shape, an empty set, an out-of-range
dimension or an invalid value raises its documented error type with its
message."""

import re

import numpy as np
import pytest

from chancert import (
    BipartiteLayout,
    ChoiMatrix,
    DimensionMismatchError,
    KrausSet,
    NotPositiveSemidefiniteError,
    StinespringOperator,
    Verdict,
    apply_channel,
    channels_equal,
    choi_from_map_action,
    choi_from_transfer,
    compose,
    hermitian_eigensystem,
    kraus_from_choi,
    named_channel,
    schur_stinespring,
)
from chancert.generate import random_dilation_stack
from chancert.linalg import as_matrix, psd_check

EYE2, EYE3 = np.eye(2, dtype=complex), np.eye(3, dtype=complex)

REJECTIONS = {
    "choi-shape": (lambda: ChoiMatrix(2, 2, EYE3), DimensionMismatchError,
                   "Choi matrix shape (3, 3) does not match d_a*d_b = 4"),
    "stinespring-shape": (lambda: StinespringOperator(2, 2, 2, EYE3), DimensionMismatchError,
                          "Stinespring operator shape (3, 3) does not match (2*2, 2)"),
    "kraus-empty": (lambda: KrausSet(2, 2, ()), DimensionMismatchError,
                    "a KrausSet must contain at least one operator"),
    "kraus-shape": (lambda: KrausSet(2, 3, (EYE2,)), DimensionMismatchError,
                    "Kraus operator shape (2, 2) does not match (3, 2)"),
    "map-action-shape": (lambda: choi_from_map_action(lambda e: EYE3, 2, 2),
                         DimensionMismatchError,
                         "map action returned shape (3, 3), expected (2, 2)"),
    "apply-shape": (lambda: apply_channel(named_channel("identity", 2), EYE3),
                    DimensionMismatchError, "input shape (3, 3), expected (2, 2)"),
    "transfer-shape": (lambda: choi_from_transfer(EYE3, 2, 2), DimensionMismatchError,
                       "transfer matrix shape (3, 3), expected (4, 4)"),
    "compose-dims": (lambda: compose(named_channel("identity", 3), named_channel("identity", 2)),
                     DimensionMismatchError,
                     "cannot compose: inner output dim 2 != outer input dim 3"),
    "kraus-non-hermitian": (lambda: kraus_from_choi(ChoiMatrix(1, 2, np.triu(np.ones((2, 2))))),
                            NotPositiveSemidefiniteError,
                            "Choi matrix is not PSD: the map is not CP"),
    "layout-zero": (lambda: BipartiteLayout(0, 2), DimensionMismatchError,
                    "factor dimensions must be positive, got (0, 2)"),
    "as-matrix-3d": (lambda: as_matrix(np.zeros((2, 2, 2))), DimensionMismatchError,
                     "expected a 2-d matrix, got ndim=3"),
    "eigensystem-square": (lambda: hermitian_eigensystem(np.zeros((2, 3))),
                           DimensionMismatchError, "expected a square matrix, got (2, 3)"),
    "spectrum-square": (lambda: psd_check(np.zeros((2, 3))), DimensionMismatchError,
                        "expected a square matrix, got (2, 3)"),
    "dilation-stack-zero": (lambda: random_dilation_stack(2, 0, 3, 1, [0]),
                            DimensionMismatchError, "all dimensions must be at least 1"),
    "schur-empty": (lambda: schur_stinespring([]), DimensionMismatchError,
                    "t must be a nonempty vector"),
    "named-channel-zero": (lambda: named_channel("identity", 0), DimensionMismatchError,
                           "dimension must be at least 1"),
    "verdict-value": (lambda: Verdict("maybe", "r"), ValueError, "invalid verdict value 'maybe'"),
}


@pytest.mark.parametrize("call, error, message", REJECTIONS.values(), ids=REJECTIONS)
def test_boundary_check_rejects(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_channels_of_different_dimensions_are_not_equal():
    assert not channels_equal(named_channel("identity", 2), named_channel("identity", 3))
    assert not channels_equal(ChoiMatrix(1, 4, np.eye(4)), ChoiMatrix(4, 1, np.eye(4)))
