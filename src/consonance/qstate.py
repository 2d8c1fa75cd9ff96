"""States with an explicit tensor product structure.

A state value carries its subsystem dimensions alongside the amplitude
vector or matrix.  Flat basis indices are row major over the party
multi-index with the first party slowest,

    flat = sum_k  i_k * prod_{l > k} d_l,

which is the ordering produced by ``numpy.kron`` and C-order reshapes.
All operations return new values; stored arrays are marked read only.

This module is the one home of the physicality checks and their tolerances;
each helper compares so that NaN fails, and raises :class:`ValidationError`.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

TOL_NORM = 1e-10       # |sum |z|^2 - 1| of amplitudes
TOL_HERM = 1e-10       # max |m - m^dagger| entry
TOL_TRACE = 1e-10
TOL_PSD = 1e-8         # most negative eigenvalue
TOL_UNIT = 1e-12       # slack of a weight or probability past [0, 1]
TOL_UNITARY = 1e-8     # max |u u^dagger - 1| entry params_for_unitary accepts
TOL_RELABEL = 1e-10    # the same for a TpsRelabeling matrix


class ValidationError(ValueError):
    """A state, parameter, or state file violates a physicality invariant."""


def check_residual(residual: float, tol: float, what: str) -> None:
    """ValidationError unless ``residual`` is at most ``tol`` (NaN is not)."""
    if not residual <= tol:
        raise ValidationError(f"{what}: residual {residual:.3e}")


def check_normalized(*amps) -> None:
    """Scalar amplitudes whose sum |z|^2, in order, is within TOL_NORM of 1."""
    check_residual(abs(sum(abs(z) ** 2 for z in amps) - 1.0), TOL_NORM,
                   "amplitudes are not normalized")


def check_unit_interval(x, what: str) -> float:
    """``float(x)`` clamped to [0, 1]; it must lie within TOL_UNIT of it."""
    x = float(x)
    if not -TOL_UNIT <= x <= 1.0 + TOL_UNIT:
        raise ValidationError(f"{what} out of [0, 1]: {x}")
    return min(max(x, 0.0), 1.0)


def check_unitary(m: np.ndarray, tol: float, what: str) -> None:
    """A square matrix whose entries of m m^dagger - 1 are all within tol."""
    with np.errstate(invalid="ignore"):     # inf entries give NaN, which fails
        dev = float(np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))))
    check_residual(dev, tol, f"{what} is not unitary")


def _hermiticity_residual(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def check_integer(value, name: str) -> int:
    """``value`` as an int.  Raises ValueError naming ``name`` unless it is
    an integral number and not a bool, so 2.7 or True never passes as 2
    or 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_seed(seed) -> int:
    """The seed as an int: an integer key of a Philox stream, in
    [0, 2**128)."""
    seed = check_integer(seed, "seed")
    if not 0 <= seed < 2 ** 128:
        raise ValueError(f"seed must lie in [0, 2**128), got {seed}")
    return seed


def check_dims(dims) -> tuple[int, ...]:
    """``dims`` as a tuple of ints; rejects non-integers and degenerate
    factors."""
    try:
        out = tuple(check_integer(d, "dimension") for d in dims)
    except TypeError as exc:
        raise ValueError(f"dims must be an iterable of ints, got {dims!r}") from exc
    if not out or any(d < 2 for d in out):
        raise ValueError(f"every subsystem dimension must be >= 2, got {out}")
    return out


def json_float(x, what: str, error: type = ValidationError) -> float:
    """A number read from a JSON file, as a float.  A bool (a JSON true) or
    a string is no number, and an int too large for a float does not fit;
    either raises ``error`` naming ``what``."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise error(f"{what} is not a number: {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise error(f"{what} is too large for a float") from None


def frozen_complex(data, shape, what: str) -> np.ndarray:
    """A read-only complex copy of ``data``, checked for shape and finiteness."""
    arr = np.array(data, dtype=np.complex128)
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what} contains non-finite entries")
    arr.setflags(write=False)
    return arr


class _Parties:
    """What a state's ``dims`` give: the dimension and the party count."""

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    @property
    def n_parties(self) -> int:
        return len(self.dims)


@dataclass(frozen=True, eq=False)
class PureState(_Parties):
    """Amplitude vector over the product basis of ``dims``.

    The constructor checks structure (shape, finiteness) only; norm is
    enforced by the factories in :mod:`consonance.states` and by the file
    loader, so deliberately unnormalized vectors can still be built
    directly when needed.
    """

    dims: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self):
        dims = check_dims(self.dims)
        amps = frozen_complex(self.amps, (math.prod(dims),), "amplitude vector")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amps", amps)

    def norm_error(self) -> float:
        return abs(float(np.vdot(self.amps, self.amps).real) - 1.0)


@dataclass(frozen=True, eq=False)
class DensityMatrix(_Parties):
    """Operator entries over the product basis of ``dims``.

    Structure (shape, finiteness) is checked on construction; hermiticity,
    unit trace and positivity are checked by :func:`validate` /
    :func:`assert_valid`, which every factory and the file loader call.
    The split keeps an escape hatch for deliberately non-physical inputs
    such as partial transposes.
    """

    dims: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self):
        dims = check_dims(self.dims)
        d = math.prod(dims)
        entries = frozen_complex(self.entries, (d, d), "density matrix")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "entries", entries)


State = PureState | DensityMatrix


@dataclass(frozen=True)
class Violation:
    invariant: str
    residual: float


def validate(rho: DensityMatrix) -> list[Violation]:
    """Return the list of physicality violations of ``rho`` (empty if none).

    Checks hermiticity, unit trace and positive semidefiniteness, each
    against its own tolerance (``TOL_HERM``, ``TOL_TRACE``, ``TOL_PSD``).
    Residuals are reported in absolute terms: max elementwise deviation for
    hermiticity, ``|tr - 1|`` for trace and the magnitude of the most
    negative eigenvalue for positivity.
    """
    m = rho.entries
    lam_min = float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2.0)))
    residuals = (("hermiticity", _hermiticity_residual(m), TOL_HERM),
                 ("trace", abs(complex(np.trace(m)) - 1.0), TOL_TRACE),
                 ("positivity", -lam_min, TOL_PSD))
    return [Violation(name, r) for name, r, tol in residuals if not r <= tol]


def assert_valid(rho: DensityMatrix) -> DensityMatrix:
    """Raise :class:`ValidationError` if ``rho`` is not a physical state."""
    bad = validate(rho)
    if bad:
        detail = "; ".join(f"{v.invariant} residual {v.residual:.3e}" for v in bad)
        raise ValidationError(f"density matrix is not a physical state: {detail}")
    return rho


def assert_normalized(psi: PureState) -> PureState:
    check_residual(psi.norm_error(), TOL_NORM, "pure state is not normalized")
    return psi


def density_from_pure(psi: PureState) -> DensityMatrix:
    """Outer product |psi><psi| as a :class:`DensityMatrix`."""
    assert_normalized(psi)
    return DensityMatrix(psi.dims, np.outer(psi.amps, psi.amps.conj()))


def tensor(a: State, b: State) -> State:
    """Tensor product of two states of the same kind.

    The result's parties are ``a``'s followed by ``b``'s, consistent with
    the row-major flat ordering.
    """
    if isinstance(a, PureState) and isinstance(b, PureState):
        return PureState(a.dims + b.dims, np.kron(a.amps, b.amps))
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return DensityMatrix(a.dims + b.dims, np.kron(a.entries, b.entries))
    raise ValueError("tensor expects two PureState or two DensityMatrix values")


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every party not listed in ``keep`` (0-based indices)."""
    n = rho.n_parties
    keep = sorted({check_integer(p, "party index") for p in keep})
    if not keep:
        raise ValueError("keep must name at least one party")
    if any(p < 0 or p >= n for p in keep):
        raise ValueError(f"keep={keep} out of range for {n} parties")
    traced = [p for p in range(n) if p not in keep]
    t = rho.entries.reshape(rho.dims + rho.dims)
    n_cur = n
    for p in sorted(traced, reverse=True):
        t = np.trace(t, axis1=p, axis2=p + n_cur)
        n_cur -= 1
    kept_dims = tuple(rho.dims[p] for p in keep)
    d = math.prod(kept_dims)
    return DensityMatrix(kept_dims, t.reshape(d, d))


def partial_transpose(rho: DensityMatrix, party: int) -> np.ndarray:
    """Transpose the given party's indices; returns a bare array.

    The result is generally not positive semidefinite, so it is not
    wrapped in :class:`DensityMatrix` semantics beyond the raw entries.
    """
    n = rho.n_parties
    party = check_integer(party, "party")
    if not 0 <= party < n:
        raise ValueError(f"party {party} out of range for {n} parties")
    t = rho.entries.reshape(rho.dims + rho.dims)
    axes = list(range(2 * n))
    axes[party], axes[n + party] = axes[n + party], axes[party]
    return np.ascontiguousarray(t.transpose(axes).reshape(rho.dim, rho.dim))


def hermitian_eigenvalues(matrix) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, descending."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    with np.errstate(invalid="ignore"):     # inf entries give NaN, which fails
        check_residual(_hermiticity_residual(m), TOL_HERM, "matrix is not Hermitian")
    return np.linalg.eigvalsh(m)[::-1].copy()


def singular_values(matrix) -> np.ndarray:
    """Singular values of an arbitrary matrix, descending."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    return np.linalg.svd(m, compute_uv=False)


# --- JSON state files ----------------------------------------------------
#
# {"dims": [2, 2], "kind": "pure" | "density", "data": [[re, im], ...]}
#
# For kind "pure" data holds D amplitude pairs; for kind "density" it holds
# D*D entry pairs in row-major order.


def _pairs(values: np.ndarray) -> list[list[float]]:
    flat = np.asarray(values).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def state_to_json(state: State) -> dict:
    if isinstance(state, PureState):
        return {"dims": list(state.dims), "kind": "pure", "data": _pairs(state.amps)}
    if isinstance(state, DensityMatrix):
        return {"dims": list(state.dims), "kind": "density", "data": _pairs(state.entries)}
    raise ValueError(f"not a state value: {state!r}")


def state_from_json(obj: dict, *, validate_state: bool = True) -> State:
    """Build a state from a parsed JSON object.

    ``validate_state=False`` skips the physicality checks (norm for pure
    states; hermiticity, trace and positivity for density matrices) but
    never the structural ones.
    """
    if not isinstance(obj, dict):
        raise ValidationError("state JSON must be an object")
    for key in ("dims", "kind", "data"):
        if key not in obj:
            raise ValidationError(f"state JSON is missing the {key!r} field")
    dims = check_dims(obj["dims"])
    d = math.prod(dims)
    kind = obj["kind"]
    data = obj["data"]
    if not isinstance(data, list):
        raise ValidationError("state JSON data must be a list of [re, im] pairs")
    values = np.empty(len(data), dtype=np.complex128)
    for k, p in enumerate(data):     # numbers only: a JSON true is no amplitude
        what = f"state JSON data entry {k}"
        if not (isinstance(p, (list, tuple)) and len(p) == 2) or any(
                isinstance(x, bool) or not isinstance(x, (int, float)) for x in p):
            raise ValidationError(f"{what} is not an [re, im] pair of numbers: {p!r}")
        values[k] = complex(json_float(p[0], what), json_float(p[1], what))
    if kind == "pure":
        if values.shape != (d,):
            raise ValidationError(f"pure state over dims {dims} needs {d} amplitudes, "
                                  f"got {values.shape[0]}")
        psi = PureState(dims, values)
        return assert_normalized(psi) if validate_state else psi
    if kind == "density":
        if values.shape != (d * d,):
            raise ValidationError(f"density matrix over dims {dims} needs {d * d} entries, "
                                  f"got {values.shape[0]}")
        rho = DensityMatrix(dims, values.reshape(d, d))
        return assert_valid(rho) if validate_state else rho
    raise ValidationError(f"unknown state kind {kind!r}")


def save_state(state: State, path) -> None:
    with open(path, "w") as fh:
        json.dump(state_to_json(state), fh, indent=1)
        fh.write("\n")


def read_json(path, what: str, error: type):
    """The JSON value of the file at ``path``, the one reader of state and
    circuit files.  Text that is not UTF-8 JSON, an integer past Python's
    digit limit and nesting past the recursion limit all raise ``error``
    as "not a JSON ``what`` file"; a path that cannot be opened raises
    ``OSError``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise error(f"not a JSON {what} file: {exc}") from exc


def load_state(path, *, validate_state: bool = True) -> State:
    return state_from_json(read_json(path, "state", ValidationError),
                           validate_state=validate_state)
