"""States with an explicit tensor product structure.

A state value carries its subsystem dimensions alongside the amplitude
vector or matrix.  Flat basis indices are row major over the party
multi-index with the first party slowest,

    flat = sum_k  i_k * prod_{l > k} d_l,

which is the ordering produced by ``numpy.kron`` and C-order reshapes.
All operations return new values; stored arrays are marked read only.

This module is the one home of the physicality checks and their tolerances;
each helper compares so that NaN fails, and raises :class:`ValidationError`.

It alone decides a state's kind.  Both kinds share one shape: ``dims``, the
array ``data`` (``amps`` or ``entries``) with one axis per copy of the
party indices, and the ``KIND`` a state file names.  :func:`check_state`
is the one place that rejects a value that is no state, or a state of the
wrong kind, with ``ValueError``; :func:`as_density` turns either kind into
a density matrix.  Every other module reads states through these.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import pathlib
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

TOL_NORM = 1e-10       # |sum |z|^2 - 1| of amplitudes
TOL_HERM = 1e-10       # max |m - m^dagger| entry
TOL_TRACE = 1e-10
TOL_PSD = 1e-8         # most negative eigenvalue
TOL_UNIT = 1e-12       # slack of a weight or probability past [0, 1]
TOL_UNITARY = 1e-8     # max |u u^dagger - 1| entry params_for_unitary accepts
TOL_RELABEL = 1e-10    # the same for a TpsRelabeling matrix
# Marginal eigenvalues closer than TOL_DEGENERATE share one eigenspace in
# decide.eigenframe.  eigh's eigenvectors across a gap g are off
# by about eps * |rho_k| / g <= 2.2e-16 / g (a marginal has norm <= 1): at
# g >= 1e-7 that is 2.2e-9, 450 times below the search's EPS_L = 1e-6, and
# twice it summed over the few dozen local entries of these sizes stays
# under EPS_L.  An exact degeneracy shows as a gap of order eps.
TOL_DEGENERATE = 1e-7
# A singular pair (n_A, n_B) of a two-qubit correlation matrix T is
# compatible with the Bloch vectors a and b in decide.two_qubit
# when |a x n_A|, |b x n_B|, |n_A x T n_B| and |n_B x T^T n_A| are all at
# most TOL_COMPATIBLE.  In the frame whose z axes are n_A and n_B, A's four
# local entries are (a_perp +- (T n_B)_perp)/4 and their conjugates, so A's
# local sum is at most |a x n_A| + |n_A x T n_B|, and likewise for B: the
# frame has L <= 4e-9, or <= 2.04e-7 where a marginal whose eigenvalue gap
# |a| is at most TOL_DEGENERATE counts as a = 0, both below the search's
# EPS_L = 1e-6.  The residual of an exactly compatible pair is that of a
# rounded SVD, a few eps |T| <= 1e-15, 10^6 below it.  Two pairs whose
# values (S in their frames) differ by at most it count as tied, so a
# reported S exceeds the least by at most 1e-9.
TOL_COMPATIBLE = 1e-9
# The Jacobi projection, decide.projection, has decided a frame
# once its local sum, a float64 sum of |entries|, is at most TOL_ZERO_L.
# Rounding leaves each local entry of a frame with L = 0 at a few eps
# |rho|: on 69 decided inputs at D = 6 to 32 (the qubit-qutrit, isotropic
# and GHZ states of the tests and the benchmark) the largest was 4.4e-15,
# about 20 eps, and the sum at most 4.3e-14.  It is 10^7 below the
# search's EPS_L = 1e-6, so a decided frame stays feasible after the
# replay's chart inverse adds its own rounding.  Where a larger state's
# rounding alone exceeds it, a round cannot halve L, the projection
# stalls, and the search runs as without it: a lost speed-up, not a
# wrong value.
TOL_ZERO_L = 1e-13
# A frame the projection decides is kept only where every zero-L frame is
# shown to have the least S (decide._least_turn), and one step of that proof
# asks which local Hermitian h keep the decided state A.  An h of unit
# entries counts as keeping A where |[h, A]|, read as the singular values
# of the map h -> [h, A], is at most TOL_STABILIZER; such an h turns A by
# at most pi * TOL_STABILIZER in the Frobenius norm, which moves S by at
# most D times that, as little as the tie of TOL_COMPATIBLE.  An exact
# symmetry shows as a singular value of a few eps |A|, about 1e-16.
TOL_STABILIZER = 1e-9


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


def philox(seed, jump: int = 0) -> np.random.Generator:
    """The package's one random stream: Philox keyed by the checked seed,
    advanced by ``jump`` jumps.  ``jumped(0)`` would give the same stream
    at twice the cost, so a stream with no jump is not jumped."""
    bits = np.random.Philox(key=check_seed(seed))
    return np.random.Generator(bits.jumped(jump) if jump else bits)


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


def frozen_array(data, shape, what: str, dtype=np.complex128,
                 error: type = ValidationError) -> np.ndarray:
    """A read-only copy of ``data`` as ``dtype``, checked for shape
    (ValueError) and finiteness (``error``)."""
    arr = np.array(data, dtype=dtype)
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise error(f"{what} contains non-finite entries")
    arr.setflags(write=False)
    return arr


class _State:
    """What both kinds of state share: ``dims``, and the array ``data``,
    named ``amps`` or ``entries`` in ``_FIELD`` alone, with one axis per
    copy of the party indices.  ``KIND`` is the kind a state file names."""

    def _freeze(self, axes: int, what: str) -> None:
        """Check ``dims`` and the array's shape and finiteness; store both,
        the array as a read-only copy."""
        dims = check_dims(self.dims)
        data = frozen_array(self.data, (math.prod(dims),) * axes, what)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, self._FIELD, data)

    def __reduce__(self):
        """Copies and pickles rebuild the state through its constructor, so
        their array is read only too and they carry no recorded verdict."""
        return type(self), (self.dims, self.data)

    @property
    def data(self) -> np.ndarray:
        return getattr(self, self._FIELD)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    @property
    def n_parties(self) -> int:
        return len(self.dims)


@dataclass(frozen=True, eq=False)
class PureState(_State):
    """Amplitude vector over the product basis of ``dims``.

    The constructor checks structure (shape, finiteness) only; norm is
    enforced by the factories in :mod:`consonance.states` and by the file
    loader, so deliberately unnormalized vectors can still be built
    directly when needed.
    """

    KIND: ClassVar[str] = "pure"
    _FIELD: ClassVar[str] = "amps"

    dims: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self):
        self._freeze(1, "amplitude vector")

    def norm_error(self) -> float:
        return abs(float(np.vdot(self.amps, self.amps).real) - 1.0)


@dataclass(frozen=True, eq=False)
class DensityMatrix(_State):
    """Operator entries over the product basis of ``dims``.

    Structure (shape, finiteness) is checked on construction; hermiticity,
    unit trace and positivity are checked by :func:`assert_valid`, through
    :func:`validate`.  It is called by the file loader, the factories
    ``states.bell_diagonal``, ``states.two_param_qubit_qutrit`` and
    ``states.random_density``, the measures ``concurrence_2x2`` and
    ``negativity``, and the setup of the search and of the oracle
    (``optimizer.consonance`` and ``optimizer.oracle_consonance``, on
    their input).  No other builder calls it; among them are ``states.werner``,
    ``states.tps_remap``, ``unitary.apply``, :func:`partial_trace`,
    :func:`tensor` and :func:`density_from_pure`.  The split keeps an
    escape hatch for deliberately non-physical inputs such as partial
    transposes.

    :func:`assert_valid` records its verdict per object: a state that
    several measures share is checked once, for as long as ``entries``
    stays read only.
    """

    KIND: ClassVar[str] = "density"
    _FIELD: ClassVar[str] = "entries"
    _physical = False     # set on an instance by assert_valid alone

    dims: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self):
        self._freeze(2, "density matrix")


State = PureState | DensityMatrix


def check_state(value, kind: type | None = None) -> State:
    """``value``, if it is a state, and one of ``kind`` (``PureState`` or
    ``DensityMatrix``) if given; anything else raises ValueError.  The one
    place that decides whether a value is a state."""
    if not isinstance(value, (PureState, DensityMatrix)):
        raise ValueError(f"not a state value: {value!r}")
    if kind is not None and not isinstance(value, kind):
        raise ValueError(f"expected a {kind.__name__}, got a {type(value).__name__}")
    return value


def as_density(state: State) -> DensityMatrix:
    """The state as a density matrix: |psi><psi| for a pure state (checked
    for norm), a density matrix as itself."""
    if isinstance(check_state(state), PureState):
        return density_from_pure(state)
    return state


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
    m = check_state(rho, DensityMatrix).entries
    lam_min = float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2.0)))
    residuals = (("hermiticity", _hermiticity_residual(m), TOL_HERM),
                 ("trace", abs(complex(np.trace(m)) - 1.0), TOL_TRACE),
                 ("positivity", -lam_min, TOL_PSD))
    return [Violation(name, r) for name, r, tol in residuals if not r <= tol]


def assert_valid(rho: DensityMatrix) -> DensityMatrix:
    """Raise :class:`ValidationError` if ``rho`` is not a physical state.

    A pass is recorded on ``rho``, and a later call returns at once while
    ``rho.entries`` is still read only: the state is frozen, so the verdict
    cannot change.  Only ``setflags`` can make the array writable again;
    such an array is checked afresh, and a failing state raises every
    time.  A copy or an unpickled state is a new object with no verdict
    recorded, so it is checked once on its own.
    """
    if check_state(rho, DensityMatrix)._physical and not rho.entries.flags.writeable:
        return rho
    bad = validate(rho)
    if bad:
        detail = "; ".join(f"{v.invariant} residual {v.residual:.3e}" for v in bad)
        raise ValidationError(f"density matrix is not a physical state: {detail}")
    object.__setattr__(rho, "_physical", True)
    return rho


def assert_normalized(psi: PureState) -> PureState:
    """Raise unless ``psi`` is a pure state within TOL_NORM of unit norm."""
    check_residual(check_state(psi, PureState).norm_error(), TOL_NORM,
                   "pure state is not normalized")
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
    kind = type(check_state(a))
    check_state(b, kind)
    return kind(a.dims + b.dims, np.kron(a.data, b.data))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every party not listed in ``keep`` (0-based indices)."""
    n = check_state(rho, DensityMatrix).n_parties
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


def in_local_frame(rho: DensityMatrix, rotations) -> DensityMatrix:
    """``rho`` in the frame of one rotation V_k per party, V† rho V with V
    the kron of the V_k, each None the identity on its party; ``rho``
    itself where every V_k is None."""
    if all(r is None for r in rotations):
        return rho
    v = np.eye(1)
    for d, r in zip(rho.dims, rotations):
        v = np.kron(v, np.eye(d) if r is None else r)
    return DensityMatrix(rho.dims, v.conj().T @ rho.entries @ v)


def partial_transpose(rho: DensityMatrix, party: int) -> np.ndarray:
    """Transpose the given party's indices; returns a bare array.

    The result is generally not positive semidefinite, so it is not
    wrapped in :class:`DensityMatrix` semantics beyond the raw entries.
    """
    n = check_state(rho, DensityMatrix).n_parties
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
    return {"dims": list(check_state(state).dims), "kind": state.KIND,
            "data": _pairs(state.data)}


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


def json_text(obj) -> str:
    """The one text form of the JSON files the package writes (state,
    circuit and report files): indent 1 and a final newline."""
    return json.dumps(obj, indent=1) + "\n"


def save_state(state: State, path) -> None:
    pathlib.Path(path).write_text(json_text(state_to_json(state)))


@contextlib.contextmanager
def errors_at(place):
    """Prefix ``place`` to the message of a ValueError raised inside; its
    type, and with it the CLI's exit code, stays."""
    try:
        yield
    except ValueError as exc:
        exc.args = (f"{place}: {exc}",)
        raise


def read_json(path, what: str, error: type, build):
    """``build`` of the JSON value of the file at ``path``: the one reader
    of state and circuit files, whose every ValueError names the path.
    Text that is not UTF-8 JSON, an integer past Python's digit limit and
    nesting past the recursion limit all raise ``error`` as "not a JSON
    ``what`` file"; a path that cannot be opened raises ``OSError``."""
    with errors_at(path):
        with open(path, encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except (ValueError, RecursionError) as exc:
                raise error(f"not a JSON {what} file: {exc}") from exc
        return build(obj)


def load_state(path, *, validate_state: bool = True) -> State:
    return read_json(path, "state", ValidationError,
                     lambda obj: state_from_json(obj, validate_state=validate_state))
