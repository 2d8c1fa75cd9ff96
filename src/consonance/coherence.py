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
:func:`profile` are its calls on one :class:`DensityMatrix`.  It reads
every listed class through one index, built once per dims and class
list.  Each sum is ``math.fsum``, which is correctly rounded, so a
matrix gives the same bits alone, in any stack and in any order of its
terms.

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

from .qstate import DensityMatrix, as_density, check_dims, check_integer


class CoherenceClass(Enum):
    DIAGONAL = "diagonal"
    LOCAL = "local"
    NONLOCAL = "nonlocal"


def _check_parties(dims) -> tuple[int, ...]:
    """``dims`` checked, with at least two parties: the classes split
    coherence between parties, so one system's coherence is neither local
    nor nonlocal.  Raises ValueError otherwise."""
    dims = check_dims(dims)
    if len(dims) < 2:
        raise ValueError(f"coherence classes need at least two parties, got dims {dims}")
    return dims


def classify(row, col, dims) -> CoherenceClass:
    """Class of the element at multi-index ``(row, col)``, read from
    :func:`class_masks`, the one statement of the rule.

    Parameters
    ----------
    row, col : sequences of per-party basis indices, one per party.
    dims : subsystem dimensions, at least two parties.
    """
    dims = _check_parties(dims)
    row = tuple(check_integer(i, "row index") for i in row)
    col = tuple(check_integer(j, "column index") for j in col)
    if len(row) != len(dims) or len(col) != len(dims):
        raise ValueError(f"multi-indices {row}, {col} do not match {len(dims)} parties")
    for name, multi in (("row", row), ("col", col)):
        if any(not 0 <= i < d for i, d in zip(multi, dims)):
            raise ValueError(f"{name} index {multi} out of range for dims {dims}")
    at = (np.ravel_multi_index(row, dims), np.ravel_multi_index(col, dims))
    return next(c for c, mask in zip(CoherenceClass, class_masks(dims)) if mask[at])


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
    dims = _check_parties(dims)
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


def _stack_rows(mats, shape, dims):
    """A stack (B, D, D), or one (D, D) as a stack of one, as rows
    (B, D^2), once its matrices are checked to have ``shape`` (D, D)."""
    if mats.ndim not in (2, 3) or mats.shape[-2:] != shape:
        raise ValueError(f"matrices of shape {mats.shape} do not match dims {dims}")
    return mats.reshape(-1, shape[0] * shape[1])


def class_sums(mats, dims, classes) -> list[list[float]]:
    """The sums of |entries| of each :class:`CoherenceClass` in ``classes``,
    in that order, one float per matrix of a stack (B, D, D); an array
    (D, D) is a stack of one.  A call is one ``take``, one ``abs``, one
    ``tolist`` and a ``math.fsum`` per class slice of each row."""
    return class_summer(dims, classes)(mats)


def class_summer(dims, classes):
    """:func:`class_sums` bound to ``dims`` and ``classes``, a function of
    the stack alone: a caller that sums many stacks over one dims looks
    it up once."""
    return _bound_sums(tuple(classes), *dims)


@lru_cache(maxsize=None, typed=True)
def _bound_sums(classes, *dims):
    """:func:`class_sums` bound to ``classes`` and ``dims``, with the
    positions of every listed class, in that order, as one index.  Typed,
    as :func:`_class_positions` is, so dims that compare equal to cached
    ones but are not ints miss the cache and meet ``check_dims``."""
    masks, positions = _class_positions(*dims)
    shape = masks[0].shape
    index = np.concatenate([np.empty(0, np.intp)] + [positions[c] for c in classes])
    index.setflags(write=False)
    ends = np.cumsum([len(positions[c]) for c in classes]).tolist()
    slices = [slice(lo, hi) for lo, hi in zip([0] + ends, ends)]

    def sums(mats) -> list[list[float]]:
        rows = np.abs(_stack_rows(mats, shape, dims).take(index, axis=1)).tolist()
        return [[math.fsum(row[at]) for row in rows] for at in slices]
    return sums


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
    masks, positions = _class_positions(*dims)
    rows = _stack_rows(mats, masks[0].shape, dims)
    local = np.abs(rows.take(positions[CoherenceClass.LOCAL], axis=1))
    return np.flatnonzero(local.sum(axis=1) <= _SCREEN_FACTOR * bound)


def _one_matrix_sums(rho: DensityMatrix, classes) -> list[float]:
    rho = as_density(rho)
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
