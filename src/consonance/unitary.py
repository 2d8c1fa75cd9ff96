"""Parameterized local unitaries and circuits of non-global layers.

A d-dimensional unitary is generated from d^2 real parameters through a
Hermitian matrix H(theta): the first d entries fill the diagonal, the
remaining d(d-1) entries fill the strict upper triangle in row-major
order as (re, im) pairs.  U = exp(iH), so theta = 0 gives the identity.

A circuit is an ordered list of layers; each layer acts on a strict
subset of the parties (its support) and is embedded in the full space as
U_layer (x) identity.  Layers are applied first to last, so the overall
unitary is U_L ... U_2 U_1.

A search ranges over the circuits of one :class:`Preset`, and only the
preset knows its shape: it checks its kind and depth once, lists its
layer supports in circuit order (:meth:`Preset.supports`, the one place
the supports are chosen) and builds its circuit at theta = 0 with its tag
(:meth:`Preset.build`).

One frame builder, :class:`FrameBuilder`, turns a stack of parameter
vectors (B, P) into the stacked circuit unitaries (B, D, D), and one
conjugation, :func:`conjugate`, turns them into U X U† (B, D, D).  The
penalty search, the brute-force oracle and the replay all go through
both: the density branch of :func:`apply` is the one-row case of
:func:`conjugate`, so a report's value and its search record are the same
arithmetic.  The frame builder works from index plans laid out once per
circuit shape.  Its chart reads theta in place:
``off = re + 1j * im`` over every layer's upper triangle, and one gather
from the source row [theta | off | conj(off)] builds every layer's H,
with the layers in dimension-group order.  Each group runs one batched eigh and
exp, and a gather lifts every layer unitary to the full space.
:func:`build_unitary` is the chart for one layer and one row.  The
scalar reference that every row matches with == (chart, exp and a
kron-and-transpose embed, one frame at a time) lives in the tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar, NamedTuple

import numpy as np
import scipy.linalg

from .qstate import (TOL_UNITARY, DensityMatrix, PureState, check_dims,
                     check_integer, check_unitary, json_float, read_json)

SINGLE_PARTY = "single_party"
NONGLOBAL = "nonglobal"


def n_params(dim: int) -> int:
    """Number of real parameters of a dim-dimensional unitary chart."""
    dim = check_integer(dim, "dimension")
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    return dim * dim


class _ChartLayout(NamedTuple):
    """One chart for a circuit's layers, in dimension-group order:
    dimensions by first appearance, layers in circuit order within a
    group.  Every array is read only."""

    re: np.ndarray         # theta column of each Re part; its Im part is the next
    plan: np.ndarray       # where each H entry sits in [theta | off | conj(off)]
    groups: tuple          # (dim, k, lo, hi): k layers fill columns lo:hi of H
    positions: np.ndarray  # stack column of each layer's first entry, circuit order


@lru_cache(maxsize=None)
def _chart_layout(layer_dims: tuple[int, ...]) -> _ChartLayout:
    """The chart of layers of the given dimensions, in circuit order."""
    starts = np.cumsum((0,) + tuple(d * d for d in layer_dims)).tolist()
    group_dims = list(dict.fromkeys(layer_dims))
    order = sorted(range(len(layer_dims)), key=lambda j: group_dims.index(layer_dims[j]))
    n_theta = starts[-1]
    n_off = (n_theta - sum(layer_dims)) // 2
    re, plan = [], []
    positions = [0] * len(layer_dims)
    for j in order:
        d, o = layer_dims[j], starts[j]
        m = d * (d - 1) // 2
        # this layer's source row: its diagonal, upper triangle, conjugates
        src = np.concatenate((o + np.arange(d),
                              n_theta + len(re) + np.arange(m),
                              n_theta + n_off + len(re) + np.arange(m)))
        iu = np.triu_indices(d, k=1)
        h = np.diag(src[:d])
        h[iu] = src[d:d + m]
        h[iu[::-1]] = src[d + m:]
        positions[j] = len(plan)
        plan += h.ravel().tolist()
        re += range(o + d, o + d * d, 2)
    re, plan, positions = (np.array(x, dtype=np.intp) for x in (re, plan, positions))
    for arr in (re, plan, positions):
        arr.setflags(write=False)
    groups, lo = [], 0
    for d in group_dims:
        hi = lo + layer_dims.count(d) * d * d
        groups.append((d, layer_dims.count(d), lo, hi))
        lo = hi
    return _ChartLayout(re, plan, tuple(groups), positions)


def _layer_stack(layout: _ChartLayout, thetas: np.ndarray) -> np.ndarray:
    """Every layer's exp(iH) at a stack of thetas (B, P), as rows (B, P + 1):
    the unitaries row-major in the layout's group order, then a 0.  H is
    gathered from [theta | off | conj(off)]; each dimension group runs one
    batched ``eigh`` and exp on its column range."""
    b = len(thetas)
    off = thetas.take(layout.re, axis=1) + 1j * thetas[:, 1:].take(layout.re, axis=1)
    h = np.concatenate((thetas, off, off.conj()), axis=1).take(layout.plan, axis=1)
    stack = np.zeros((b, len(layout.plan) + 1), dtype=np.complex128)
    for dim, k, lo, hi in layout.groups:
        u = _expi_stack(h[:, lo:hi].reshape(b, k, dim, dim))
        stack[:, lo:hi] = u.reshape(b, hi - lo)
    return stack


def _expi_stack(h: np.ndarray) -> np.ndarray:
    """exp(iH) over a stack of Hermitian matrices (..., d, d), by
    eigendecomposition, so the columns are exactly unitary."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


@dataclass(frozen=True, eq=False)
class UnitaryParams:
    """Chart point theta in R^(dim^2); theta = 0 is the identity."""

    dim: int
    theta: np.ndarray

    def __post_init__(self):
        dim = check_integer(self.dim, "dimension")
        theta = np.array(self.theta, dtype=np.float64)
        if theta.shape != (dim * dim,):
            raise ValueError(f"theta must have shape ({dim * dim},), got {theta.shape}")
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta contains non-finite entries")
        theta.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "theta", theta)

    @classmethod
    def identity(cls, dim: int) -> "UnitaryParams":
        return cls(dim, np.zeros(n_params(dim)))


def build_unitary(params: UnitaryParams) -> np.ndarray:
    """exp(iH(theta)): the frame builder's chart for one layer and one row."""
    dim = params.dim
    return _layer_stack(_chart_layout((dim,)), params.theta[None])[0, :-1].reshape(dim, dim)


def params_for_unitary(u) -> UnitaryParams:
    """Invert the chart: find theta with build_unitary(theta) ~ u.

    Uses the principal matrix logarithm, so it is defined for every
    unitary; branch choices make the round trip exact only up to the
    principal branch.  Raises ValidationError if ``u`` is not unitary.
    """
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square matrix, got {u.shape}")
    d = u.shape[0]
    check_unitary(u, TOL_UNITARY, "matrix")
    h = scipy.linalg.logm(u) / 1j
    h = (h + h.conj().T) / 2.0
    theta = np.empty(d * d)
    theta[:d] = np.diag(h).real
    iu = np.triu_indices(d, k=1)
    theta[d::2] = h[iu].real
    theta[d + 1::2] = h[iu].imag
    return UnitaryParams(d, theta)


@dataclass(frozen=True, eq=False)
class CircuitLayer:
    """One unitary acting on ``support`` (sorted 0-based party indices)."""

    support: tuple[int, ...]
    params: UnitaryParams

    def __post_init__(self):
        support = tuple(check_integer(p, "party index") for p in self.support)
        if not support:
            raise ValueError("layer support must not be empty")
        if any(p < 0 for p in support):
            raise ValueError(f"negative party index in support {support}")
        if any(a >= b for a, b in zip(support, support[1:])):
            raise ValueError(f"support must be strictly increasing, got {support}")
        object.__setattr__(self, "support", support)


@dataclass(frozen=True, eq=False)
class LocalCircuit:
    layers: tuple[CircuitLayer, ...]
    preset: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))

    @property
    def n_theta(self) -> int:
        return sum(layer.params.theta.size for layer in self.layers)


def _check_layer(layer: CircuitLayer, dims: tuple[int, ...]) -> None:
    n = len(dims)
    if layer.support[-1] >= n:
        raise ValueError(f"support {layer.support} out of range for {n} parties")
    if len(layer.support) >= n:
        raise ValueError(f"support {layer.support} is not a strict subset of "
                         f"{n} parties; global layers are not allowed")
    d_need = math.prod(dims[p] for p in layer.support)
    if layer.params.dim != d_need:
        raise ValueError(f"layer on support {layer.support} of dims {dims} needs a "
                         f"{d_need}-dimensional unitary, got {layer.params.dim}")


@lru_cache(maxsize=None)
def _embed_index(support: tuple[int, ...], dims: tuple[int, ...]) -> np.ndarray:
    """Where each entry of u (x) identity, lifted to the full space and
    read row-major, sits in u.ravel(); -1 where the entry is 0.  Cached
    per support and dims, and read only.

    The kron-and-transpose of the lift, run once on an array of positions.
    """
    n = len(dims)
    rest = [p for p in range(n) if p not in support]
    order = list(support) + rest
    shape = tuple(dims[p] for p in order)
    perm = [order.index(p) for p in range(n)]
    dim = math.prod(dims[p] for p in support)
    d_rest = math.prod(dims[p] for p in rest)
    marks = np.kron(np.arange(1, dim * dim + 1).reshape(dim, dim),
                    np.eye(d_rest, dtype=np.intp))
    index = marks.reshape(shape + shape).transpose(perm + [n + q for q in perm]).ravel() - 1
    index.setflags(write=False)
    return index


class FrameBuilder:
    """The unitaries of one circuit shape at a stack of parameter vectors.

    Built once per circuit and dims, which validates every layer and lays
    out the plans; ``unitaries(thetas)`` maps thetas (B, n_theta) to the
    circuit unitaries (B, D, D).  The chart pass (:func:`_layer_stack`)
    reads H from [theta | off | conj(off)] and leaves the layer unitaries
    in one stack in group order, whose last column is 0.  One gather
    through the layers' :func:`_embed_index` plans, pointed at their stack
    positions, lifts them all to the full space.  The first layer starts
    the chain; each later one multiplies it from the left.
    """

    def __init__(self, circuit: LocalCircuit, dims):
        dims = check_dims(dims)
        self.d = math.prod(dims)
        for layer in circuit.layers:
            _check_layer(layer, dims)
        self.n_theta = circuit.n_theta
        self._chart = _chart_layout(tuple(layer.params.dim for layer in circuit.layers))
        index = [_embed_index(layer.support, dims) for layer in circuit.layers]
        self._embed = np.array([np.where(i < 0, -1, i + pos)
                                for i, pos in zip(index, self._chart.positions)],
                               dtype=np.intp).reshape(-1, self.d, self.d)
        self._embed.setflags(write=False)

    def unitaries(self, thetas) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=np.float64)
        if thetas.ndim != 2 or thetas.shape[1] != self.n_theta:
            raise ValueError(f"thetas must have shape (B, {self.n_theta}), "
                             f"got {thetas.shape}")
        if not len(self._embed):   # no layers
            return np.repeat(np.eye(self.d, dtype=np.complex128)[None], len(thetas), axis=0)
        mats = _layer_stack(self._chart, thetas)[:, self._embed]
        total = mats[:, 0]
        for k in range(1, len(self._embed)):
            total = mats[:, k] @ total
        return total


def circuit_unitary(circuit: LocalCircuit, dims) -> np.ndarray:
    """The circuit's unitary: the single-row case of :class:`FrameBuilder`."""
    frames = FrameBuilder(circuit, dims)
    return frames.unitaries(theta_vector(circuit)[None])[0]


def conjugate(frames: FrameBuilder, entries, thetas) -> np.ndarray:
    """``entries`` (D, D) conjugated by the frames at a stack of parameter
    vectors (B, n_theta): U X U† for each, as a stack (B, D, D)."""
    u = frames.unitaries(thetas)
    return u @ entries @ u.conj().swapaxes(-1, -2)


def apply(circuit: LocalCircuit, state):
    """Conjugate a state by the circuit unitary (or rotate a pure vector):
    one row of :func:`conjugate`, the conjugation the search runs."""
    if not isinstance(state, (PureState, DensityMatrix)):
        raise ValueError(f"not a state value: {state!r}")
    frames = FrameBuilder(circuit, state.dims)
    thetas = theta_vector(circuit)[None]
    if isinstance(state, PureState):
        return PureState(state.dims, frames.unitaries(thetas)[0] @ state.amps)
    return DensityMatrix(state.dims, conjugate(frames, state.entries, thetas)[0])


# --- presets -------------------------------------------------------------


def default_supports(n: int) -> list[tuple[int, ...]]:
    """All singleton and pair supports of n parties in lexicographic order."""
    if n < 2:
        raise ValueError("need at least two parties")
    pool = [(p,) for p in range(n)]
    if n > 2:
        # pairs are global (hence disallowed) when n == 2
        pool += [(p, q) for p in range(n) for q in range(p + 1, n)]
    return sorted(pool)


@dataclass(frozen=True)
class Preset:
    """The circuit shape a search optimizes over, decided here alone.

    ``single_party`` is one layer per party, in party order.  ``nonglobal``
    is ``depth`` layers on the first ``depth`` entries of
    :func:`default_supports`, cycling through the pool again if ``depth``
    exceeds its length.  ``depth`` is checked for both kinds but read only
    by ``nonglobal``.
    """

    KINDS: ClassVar[tuple[str, ...]] = (SINGLE_PARTY, NONGLOBAL)

    kind: str = SINGLE_PARTY
    depth: int = 3

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown preset kind {self.kind!r}")
        depth = check_integer(self.depth, "depth")
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        object.__setattr__(self, "depth", depth)

    def supports(self, n: int) -> list[tuple[int, ...]]:
        """The layer supports for n parties, in circuit order."""
        pool = default_supports(n)
        if self.kind == SINGLE_PARTY:
            return [s for s in pool if len(s) == 1]
        return [pool[k % len(pool)] for k in range(self.depth)]

    def build(self, dims) -> LocalCircuit:
        """The preset's circuit on ``dims`` at theta = 0, tagged
        ``single_party`` or ``nonglobal:depth=N``."""
        dims = check_dims(dims)
        layers = tuple(CircuitLayer(s, UnitaryParams.identity(math.prod(dims[p] for p in s)))
                       for s in self.supports(len(dims)))
        tag = self.kind if self.kind == SINGLE_PARTY else f"{NONGLOBAL}:depth={self.depth}"
        return LocalCircuit(layers, preset=tag)


# --- flat parameter vector <-> circuit ----------------------------------


def theta_vector(circuit: LocalCircuit) -> np.ndarray:
    if not circuit.layers:
        return np.zeros(0)
    return np.concatenate([layer.params.theta for layer in circuit.layers])


def with_theta(circuit: LocalCircuit, theta) -> LocalCircuit:
    """The same circuit shape with all layer parameters replaced by ``theta``."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (circuit.n_theta,):
        raise ValueError(f"theta must have shape ({circuit.n_theta},), got {theta.shape}")
    layers = []
    off = 0
    for layer in circuit.layers:
        k = layer.params.theta.size
        layers.append(CircuitLayer(layer.support,
                                   UnitaryParams(layer.params.dim, theta[off:off + k])))
        off += k
    return LocalCircuit(tuple(layers), preset=circuit.preset)


# --- serialization -------------------------------------------------------


def circuit_to_json(circuit: LocalCircuit) -> dict:
    return {
        "preset": circuit.preset,
        "layers": [
            {"support": list(layer.support), "theta": layer.params.theta.tolist()}
            for layer in circuit.layers
        ],
    }


def circuit_from_json(obj: dict) -> LocalCircuit:
    if not isinstance(obj, dict) or not isinstance(obj.get("layers"), list):
        raise ValueError("circuit JSON must be an object with a 'layers' list")
    layers = []
    for entry in obj["layers"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("support"), list)
                and isinstance(entry.get("theta"), list)):
            raise ValueError(f"circuit layer must be an object with 'support' and "
                             f"'theta' lists, got {entry!r}")
        theta = np.array([json_float(x, f"circuit layer theta entry {k}", ValueError)
                          for k, x in enumerate(entry["theta"])], dtype=np.float64)
        dim = math.isqrt(theta.size)
        if dim * dim != theta.size:
            raise ValueError(f"layer theta length {theta.size} is not a perfect square")
        layers.append(CircuitLayer(tuple(entry["support"]), UnitaryParams(dim, theta)))
    return LocalCircuit(tuple(layers), preset=str(obj.get("preset", "custom")))


def save_circuit(circuit: LocalCircuit, path) -> None:
    with open(path, "w") as fh:
        json.dump(circuit_to_json(circuit), fh, indent=1)
        fh.write("\n")


def load_circuit(path) -> LocalCircuit:
    return circuit_from_json(read_json(path, "circuit", ValueError))
