"""Three-way classification of density matrix elements.

Every basis position (i, j) of a matrix over dims (d_1, ..., d_n) falls in
exactly one class once i and j are decoded to party multi-indices:

* diagonal            - i_k = j_k for every party,
* local coherence     - some parties agree, some differ,
* nonlocal coherence  - i_k != j_k for every party.

The magnitudes summed over the last two classes give the local coherence
value L and the nonlocal sum S.  S evaluated after the optimal local
frame change is the consonance of the state.  Only :func:`class_sums`
sums a class, over a stack of bare arrays; S, L and :func:`profile` are
its calls on one :class:`DensityMatrix`.  Each sum is ``math.fsum``,
which is correctly rounded, so a matrix gives the same bits alone or in
any stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .qstate import DensityMatrix, check_dims, check_integer


class CoherenceClass(Enum):
    DIAGONAL = "diagonal"
    LOCAL = "local"
    NONLOCAL = "nonlocal"


def classify(row, col, dims) -> CoherenceClass:
    """Class of the element at multi-index ``(row, col)``.

    Parameters
    ----------
    row, col : sequences of per-party basis indices, one per party.
    dims : subsystem dimensions.
    """
    dims = check_dims(dims)
    row = tuple(check_integer(i, "row index") for i in row)
    col = tuple(check_integer(j, "column index") for j in col)
    if len(row) != len(dims) or len(col) != len(dims):
        raise ValueError(f"multi-indices {row}, {col} do not match {len(dims)} parties")
    for name, multi in (("row", row), ("col", col)):
        if any(not 0 <= i < d for i, d in zip(multi, dims)):
            raise ValueError(f"{name} index {multi} out of range for dims {dims}")
    agree = [i == j for i, j in zip(row, col)]
    if all(agree):
        return CoherenceClass.DIAGONAL
    if not any(agree):
        return CoherenceClass.NONLOCAL
    return CoherenceClass.LOCAL


def class_masks(dims) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boolean (D, D) masks (diagonal, local, nonlocal) over flat indices.

    Cached per dims; the returned arrays are read only.
    """
    return _class_positions(check_dims(dims))[0]


@lru_cache(maxsize=None)
def _class_positions(dims: tuple):
    """The class masks and the flat row-major positions of each class,
    cached per dims and read only."""
    dims = check_dims(dims)
    d = math.prod(dims)
    multi = np.array(np.unravel_index(np.arange(d), dims)).T  # (D, n)
    agree = multi[:, None, :] == multi[None, :, :]            # (D, D, n)
    diag = agree.all(axis=2)
    nonloc = (~agree).all(axis=2)
    masks = (diag, ~(diag | nonloc), nonloc)
    positions = dict(zip(CoherenceClass, map(np.flatnonzero, masks)))
    for m in masks + tuple(positions.values()):
        m.setflags(write=False)
    return masks, positions


def class_sums(mats, dims, classes) -> list[list[float]]:
    """The sums of |entries| of each :class:`CoherenceClass` in ``classes``,
    in that order, one float per matrix of a stack (B, D, D); an array
    (D, D) is a stack of one.  One ``abs`` pass serves every class."""
    masks, positions = _class_positions(tuple(dims))
    shape = masks[0].shape
    if mats.ndim not in (2, 3) or mats.shape[-2:] != shape:
        raise ValueError(f"matrices of shape {mats.shape} do not match dims {dims}")
    rows = np.abs(mats).reshape(-1, shape[0] * shape[1])
    return [list(map(math.fsum, rows.take(positions[c], axis=1).tolist()))
            for c in classes]


def _one_matrix_sums(rho: DensityMatrix, classes) -> list[float]:
    return [sums[0] for sums in class_sums(rho.entries, rho.dims, classes)]


def nonlocal_sum(rho: DensityMatrix) -> float:
    """S: sum of |entries| whose parties all differ between row and column."""
    return _one_matrix_sums(rho, (CoherenceClass.NONLOCAL,))[0]


def local_coherence(rho: DensityMatrix) -> float:
    """L: sum of |entries| where some but not all parties differ."""
    return _one_matrix_sums(rho, (CoherenceClass.LOCAL,))[0]


@dataclass(frozen=True)
class CoherenceProfile:
    """The three classified magnitude sums of one matrix."""

    s_value: float
    l_value: float
    diag_mass: float


def profile(rho: DensityMatrix) -> CoherenceProfile:
    return CoherenceProfile(*_one_matrix_sums(rho, (
        CoherenceClass.NONLOCAL, CoherenceClass.LOCAL, CoherenceClass.DIAGONAL)))
