"""Three-way classification of density matrix elements.

Every basis position (i, j) of a matrix over dims (d_1, ..., d_n) falls in
exactly one class once i and j are decoded to party multi-indices:

* diagonal            - i_k = j_k for every party,
* local coherence     - some parties agree, some differ,
* nonlocal coherence  - i_k != j_k for every party.

The magnitudes summed over the last two classes give the local coherence
value L and the nonlocal sum S.  S evaluated after the optimal local
frame change is the consonance of the state.  Only :func:`class_sums`
reports a class sum, over a stack of bare arrays; S, L and
:func:`profile` are its calls on one :class:`DensityMatrix`.  Each sum is
``math.fsum``, which is correctly rounded, so a matrix gives the same
bits alone or in any stack.

:func:`local_screen` reports no sum: it picks the rows of a stack whose L
may be at most a bound, from a float64 estimate (one ``abs`` and one
``sum``) that is off by at most (n - 1) * 2**-53 relative for n <= D^2
terms.  Keeping every row whose estimate is at most twice the bound keeps
every row whose ``fsum`` L is at most the bound, so a caller that wants
only those rows sums the survivors with :func:`class_sums` and gets the
same answer as summing them all.
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
    return _class_positions(*check_dims(dims))[0]


@lru_cache(maxsize=None, typed=True)
def _class_positions(*dims):
    """The class masks and the flat row-major positions of each class,
    cached per dims and read only.  The key holds the type of each
    dimension beside its value, so dims that compare equal to cached ones
    but are not ints, such as (2.0, 2) beside (2, 2), miss the cache and
    meet ``check_dims``."""
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


def _flat_rows(mats, dims):
    """A stack (B, D, D), or one (D, D) as a stack of one, as rows
    (B, D^2), and the class positions of dims."""
    masks, positions = _class_positions(*dims)
    shape = masks[0].shape
    if mats.ndim not in (2, 3) or mats.shape[-2:] != shape:
        raise ValueError(f"matrices of shape {mats.shape} do not match dims {dims}")
    return mats.reshape(-1, shape[0] * shape[1]), positions


def class_sums(mats, dims, classes) -> list[list[float]]:
    """The sums of |entries| of each :class:`CoherenceClass` in ``classes``,
    in that order, one float per matrix of a stack (B, D, D); an array
    (D, D) is a stack of one.  One ``abs`` pass serves every class."""
    rows, positions = _flat_rows(mats, dims)
    rows = np.abs(rows)
    return [list(map(math.fsum, rows.take(positions[c], axis=1).tolist()))
            for c in classes]


# A float64 sum of n non-negative terms, in any order, is within
# (n - 1) * 2**-53 of the exact sum relative to it, to first order
# (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
# sec. 4.2), and n <= D^2 keeps that far below 1.  So an estimate above
# twice the bound means an exact sum, and its correctly rounded fsum,
# above the bound.
_SCREEN_FACTOR = 2.0


def local_screen(mats, dims, bound: float) -> np.ndarray:
    """Indices of the matrices of a stack (B, D, D) whose L may be at most
    ``bound``: every one whose :func:`class_sums` L is, and perhaps a few
    more.  The estimate of each L is one ``abs`` over the local positions
    and one float64 ``sum``; a row holding a NaN is left out, as its L
    is never at most any bound."""
    rows, positions = _flat_rows(mats, dims)
    local = np.abs(rows.take(positions[CoherenceClass.LOCAL], axis=1))
    return np.flatnonzero(local.sum(axis=1) <= _SCREEN_FACTOR * bound)


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
