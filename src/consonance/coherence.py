"""Three-way classification of density matrix elements.

Every basis position (i, j) of a matrix over dims (d_1, ..., d_n) falls in
exactly one class once i and j are decoded to party multi-indices:

* diagonal            - i_k = j_k for every party,
* local coherence     - some parties agree, some differ,
* nonlocal coherence  - i_k != j_k for every party.

The magnitudes summed over the last two classes give the local coherence
value L and the nonlocal sum S.  S evaluated after the optimal local
frame change is the consonance of the state.  Sums run over |entries| in
row-major position order with compensated (fsum) accumulation, so a given
matrix always produces bit-identical values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .qstate import DensityMatrix, check_dims


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
    row = tuple(int(i) for i in row)
    col = tuple(int(j) for j in col)
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


@lru_cache(maxsize=None)
def class_masks(dims) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boolean (D, D) masks (diagonal, local, nonlocal) over flat indices.

    Cached per dims; the returned arrays are read only.
    """
    dims = check_dims(dims)
    d = math.prod(dims)
    multi = np.array(np.unravel_index(np.arange(d), dims)).T  # (D, n)
    agree = multi[:, None, :] == multi[None, :, :]            # (D, D, n)
    diag = agree.all(axis=2)
    nonloc = (~agree).all(axis=2)
    local = ~(diag | nonloc)
    for m in (diag, local, nonloc):
        m.setflags(write=False)
    return diag, local, nonloc


def _entries_and_dims(rho, dims):
    if isinstance(rho, DensityMatrix):
        return rho.entries, rho.dims
    if dims is None:
        raise ValueError("dims are required when passing a bare array")
    return np.asarray(rho, dtype=np.complex128), check_dims(dims)


def _masked_abs_sum(entries: np.ndarray, mask: np.ndarray) -> float:
    # boolean-mask extraction walks the matrix in C order, giving fsum a
    # fixed summation order regardless of how the entries were produced
    return math.fsum(np.abs(entries[mask]).tolist())


def nonlocal_sum(rho, dims=None) -> float:
    """S: sum of |entries| whose parties all differ between row and column."""
    entries, dims = _entries_and_dims(rho, dims)
    return _masked_abs_sum(entries, class_masks(dims)[2])


def local_coherence(rho, dims=None) -> float:
    """L: sum of |entries| where some but not all parties differ."""
    entries, dims = _entries_and_dims(rho, dims)
    return _masked_abs_sum(entries, class_masks(dims)[1])


@dataclass(frozen=True)
class CoherenceProfile:
    """The three classified magnitude sums of one matrix."""

    s_value: float
    l_value: float
    diag_mass: float


def profile(rho, dims=None) -> CoherenceProfile:
    entries, dims = _entries_and_dims(rho, dims)
    diag, local, nonloc = class_masks(dims)
    return CoherenceProfile(
        s_value=_masked_abs_sum(entries, nonloc),
        l_value=_masked_abs_sum(entries, local),
        diag_mass=_masked_abs_sum(entries, diag),
    )
