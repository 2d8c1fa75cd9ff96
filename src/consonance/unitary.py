"""Parameterized local unitaries and circuits of non-global layers.

A d-dimensional unitary is generated from d^2 real parameters through a
Hermitian matrix H(theta): the first d entries fill the diagonal, the
remaining d(d-1) entries fill the strict upper triangle in row-major
order as (re, im) pairs.  U = exp(iH), so theta = 0 gives the identity.

A circuit, :class:`LocalCircuit`, is its shape and one theta vector.
Its shape is the (support, dimension) of each layer in circuit order:
each layer acts on a strict subset of the parties (its support) and is
embedded in the full space as U_layer (x) identity.  Its theta holds each
layer's d^2 chart entries in the same order.  Layers are applied first
to last, so the overall unitary is U_L ... U_2 U_1.

A search ranges over the circuits of one :class:`Preset`, and only the
preset knows its shape: it checks its kind and depth once, lists its
layer supports in circuit order (:meth:`Preset.supports`, the one place
a layer is chosen: one per party, or on three or more parties the
staircase of pairs (0, 1), ..., (0, n - 1), which holds every party),
builds its circuit at theta = 0 with its tag (:meth:`Preset.build`)
and decides, for a state, the frame its search runs in and the theta
columns it moves there (:meth:`Preset.search_frame`, a
:class:`SearchFrame`).

One frame builder, :class:`FrameBuilder`, turns a stack of parameter
vectors (B, P) into the stacked circuit unitaries (B, D, D), and one
conjugation, :func:`conjugate`, turns them into U X U† (B, D, D).  The
penalty search, the brute-force oracle and the replay all go through
both: the density branch of :func:`apply` is the one-row case of
:func:`conjugate`, so a report's value and its search record are the same
arithmetic.  A circuit's shape is the tensor product structure a frame
builder is laid out for, and all it reads of a circuit but its theta.
The builder is built from a shape and dims alone, which
checks every layer and lays out its index plans, and the search, the
oracle and :func:`apply` share one builder per shape and dims
(:meth:`FrameBuilder.of`), as they share a preset's circuit per dims
(:meth:`Preset.build`); every array in either is read only.  Its chart
reads theta in place, with no complex intermediate: two real gathers
fill every layer's H, its real parts from theta and its imaginary parts
from the row [theta | 0 | -theta], so each (re, im) pair is read as
written, signed zeros too, with the layers in circuit order, each at its
own theta offset.  Each run of adjacent layers of one dimension runs one
batched eigh and exp, written straight into the stack the embed reads,
and a gather lifts every layer unitary to the full space.
:func:`build_unitary` is the chart for one layer's theta and one row,
which at theta = 0 is exactly the identity, returned as it is.  The
scalar reference that every row matches with == (chart, exp and a
kron-and-transpose embed, one frame at a time) lives in the tests.
"""

from __future__ import annotations

import functools
import itertools
import math
import pathlib
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar, NamedTuple

import numpy as np

from .coherence import local_coherence
from .decide import single_party
from .qstate import (TOL_UNITARY, TOL_ZERO_L, DensityMatrix, PureState, check_dims,
                     check_integer, check_state, check_unitary, errors_at, frozen_array,
                     in_local_frame, json_float, json_text, read_json)

SINGLE_PARTY = "single_party"
NONGLOBAL = "nonglobal"


class _ChartLayout(NamedTuple):
    """One chart for a circuit's layers, in circuit order: each layer's H
    entries, and its unitary in the stack, sit at its own theta offset.
    Every array is read only."""

    real: np.ndarray  # the theta column of each H entry's real part
    imag: np.ndarray  # where each H entry's imaginary part sits in [theta | 0 | -theta]
    groups: tuple     # (dim, k, lo, hi): a run of k adjacent layers fills columns lo:hi


@lru_cache(maxsize=None)
def _upper(d: int) -> tuple[np.ndarray, ...]:
    """The row and column indices of the strict upper triangle of a d x d
    matrix, in row-major order; cached per d, and read only."""
    return tuple(frozen_array(i, i.shape, "upper triangle", np.intp) for i in np.triu_indices(d, 1))


@lru_cache(maxsize=None)
def _chart_layout(layer_dims: tuple[int, ...]) -> _ChartLayout:
    """The chart of layers of the given dimensions, in circuit order: a
    diagonal entry reads its theta column, with imaginary part 0, an
    upper-triangle entry its (re, im) pair, and the entry below it re and
    -im."""
    n_theta = sum(d * d for d in layer_dims)
    real, imag, o = np.empty(n_theta, np.intp), np.full(n_theta, n_theta), 0
    for d in layer_dims:
        re, im = real[o:o + d * d].reshape(d, d), imag[o:o + d * d].reshape(d, d)
        iu, pairs = _upper(d), o + d + 2 * np.arange(d * (d - 1) // 2)
        re[np.diag_indices(d)], re[iu], re[iu[::-1]] = o + np.arange(d), pairs, pairs
        im[iu], im[iu[::-1]] = pairs + 1, n_theta + 2 + pairs    # -theta[c] is at n_theta + 1 + c
        o += d * d
    groups, lo = [], 0
    for d, run in itertools.groupby(layer_dims):
        k = len(list(run))
        groups.append((d, k, lo, lo + k * d * d))
        lo += k * d * d
    real, imag = (frozen_array(x, (n_theta,), "chart plan", np.intp) for x in (real, imag))
    return _ChartLayout(real, imag, tuple(groups))


def _layer_stack(layout: _ChartLayout, thetas: np.ndarray) -> np.ndarray:
    """Every layer's exp(iH) at a stack of thetas (B, P), as rows (B, P + 1):
    the unitaries row-major, each at its layer's theta offset, then a 0.
    H is filled by two real gathers, its real parts from theta and its
    imaginary parts from [theta | 0 | -theta], so each (re, im) pair is
    read as written; each run of adjacent layers of one dimension runs one
    batched ``eigh`` and exp on its column range, written in place."""
    b, p = thetas.shape
    h = np.empty((b, p), dtype=np.complex128)
    h.real = thetas.take(layout.real, axis=1)
    h.imag = np.concatenate((thetas, np.zeros((b, 1)), -thetas), axis=1).take(layout.imag, axis=1)
    stack = np.zeros((b, p + 1), dtype=np.complex128)
    for dim, k, lo, hi in layout.groups:
        _expi_stack(h[:, lo:hi].reshape(b, k, dim, dim), stack[:, lo:hi].reshape(b, k, dim, dim))
    return stack


def _expi_stack(h: np.ndarray, out: np.ndarray) -> None:
    """exp(iH) over a stack of Hermitian matrices (..., d, d), written to
    ``out``, by eigendecomposition, so the columns are exactly unitary."""
    w, v = np.linalg.eigh(h)
    np.matmul(v * np.exp(1j * w)[..., None, :], v.conj().swapaxes(-1, -2), out=out)


def build_unitary(theta) -> np.ndarray:
    """exp(iH(theta)) of one layer's theta, d^2 entries: the frame builder's
    chart for one layer and one row.  At theta = 0, -0.0 entries included,
    that chart is exactly the identity, which is returned without running
    it."""
    theta = np.asarray(theta, dtype=np.float64)
    dim = math.isqrt(theta.size)
    if dim < 1 or theta.shape != (dim * dim,):
        raise ValueError(f"theta must hold d^2 entries for a d >= 1, got shape {theta.shape}")
    if not np.isfinite(theta).all():
        raise ValueError("theta contains non-finite entries")
    if not theta.any():
        return np.eye(dim, dtype=np.complex128)
    return _layer_stack(_chart_layout((dim,)), theta[None])[0, :-1].reshape(dim, dim)


def params_for_unitary(u) -> np.ndarray:
    """Invert the chart: find the theta whose :func:`build_unitary` is ~ u.

    Uses the principal matrix logarithm, so it is defined for every
    unitary; branch choices make the round trip exact only up to the
    principal branch.  A unitary is normal, so its complex Schur form
    Z T Z† has T diagonal, and H = Z diag(arg t_ii) Z† with each arg in
    (-pi, pi].  Raises ValidationError if ``u`` is not unitary.  The
    package's one scipy call; scipy is imported here, on first use, so
    importing the package does not load it.
    """
    import scipy.linalg

    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square matrix, got {u.shape}")
    d = u.shape[0]
    check_unitary(u, TOL_UNITARY, "matrix")
    t, z = scipy.linalg.schur(u, output="complex")
    h = (z * np.angle(np.diag(t))) @ z.conj().T
    h = (h + h.conj().T) / 2.0
    # the diagonal, then the upper triangle's (re, im) pairs
    return np.concatenate((np.diag(h).real, h[_upper(d)].view(np.float64)))


def _checked_layer(support, dim) -> tuple[tuple[int, ...], int]:
    """A layer's (support, dimension), its dimension and party indices as
    ints.  Raises ValueError unless the dimension is a positive integer
    and the support non-empty, non-negative and strictly increasing."""
    dim = check_integer(dim, "dimension")
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    support = tuple(check_integer(p, "party index") for p in support)
    if not support:
        raise ValueError("layer support must not be empty")
    if any(p < 0 for p in support):
        raise ValueError(f"negative party index in support {support}")
    if any(a >= b for a, b in zip(support, support[1:])):
        raise ValueError(f"support must be strictly increasing, got {support}")
    return support, dim


@dataclass(frozen=True, eq=False)
class LocalCircuit:
    """A circuit of layers, as the frame builder reads it.

    ``shape`` is the (support, dimension) of each layer in circuit order:
    the tensor product structure a frame builder is laid out for, and all
    it reads of a circuit but its theta.  ``theta`` is one read-only
    float64 vector that holds each layer's d^2 chart entries in circuit
    order.  Both are checked here; whether the layers fit a state's dims
    is checked where a builder is built for them."""

    shape: tuple[tuple[tuple[int, ...], int], ...]
    theta: np.ndarray
    preset: str = "custom"

    def __post_init__(self):
        shape = tuple(_checked_layer(support, dim) for support, dim in self.shape)
        theta = frozen_array(self.theta, (sum(d * d for _, d in shape),), "theta",
                             np.float64, ValueError)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "theta", theta)

    @property
    def n_theta(self) -> int:
        return self.theta.size

    def layer_thetas(self) -> list[np.ndarray]:
        """Each layer's d^2 entries of :attr:`theta`, in circuit order."""
        ends = list(itertools.accumulate(d * d for _, d in self.shape))
        return [self.theta[end - d * d:end] for (_, d), end in zip(self.shape, ends)]


def _check_layer(support: tuple[int, ...], dim: int, dims: tuple[int, ...]) -> None:
    n = len(dims)
    if support[-1] >= n:
        raise ValueError(f"support {support} out of range for {n} parties")
    if len(support) >= n:
        raise ValueError(f"support {support} is not a strict subset of "
                         f"{n} parties; global layers are not allowed")
    d_need = math.prod(dims[p] for p in support)
    if dim != d_need:
        raise ValueError(f"layer on support {support} of dims {dims} needs a "
                         f"{d_need}-dimensional unitary, got {dim}")


def _embed_index(support: tuple[int, ...], dims: tuple[int, ...]) -> np.ndarray:
    """Where each entry of u (x) identity, lifted to the full space and
    read row-major, sits in u.ravel(); -1 where the entry is 0.  Run once
    per layer of each circuit shape, as :meth:`FrameBuilder.of` builds
    each shape's builder once.

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
    return marks.reshape(shape + shape).transpose(perm + [n + q for q in perm]).ravel() - 1


class FrameBuilder:
    """The unitaries of one circuit shape at a stack of parameter vectors.

    ``FrameBuilder(shape, dims)`` is built from a shape, the (support,
    dimension) of each layer in circuit order as
    :attr:`LocalCircuit.shape` gives it, and dims; it checks every layer
    and lays out the plans.  :meth:`of` is this constructor cached per
    ``circuit.shape`` and dims, so every circuit of one shape shares one
    builder whatever its theta and preset tag.
    ``unitaries(thetas)`` maps thetas (B, n_theta) to the circuit unitaries
    (B, D, D).  The chart pass (:func:`_layer_stack`) reads H straight
    from theta, its imaginary parts from [theta | 0 | -theta], and writes
    the layer unitaries into one stack in circuit order, each at its
    layer's theta offset, whose last column is 0.  One gather through
    the layers' :func:`_embed_index` plans, each pointed at its layer's
    theta offset, lifts them all to the full space.  The first layer
    starts the chain; each later one multiplies it from the left.
    """

    def __init__(self, shape, dims):
        dims = check_dims(dims)
        self.d = math.prod(dims)
        self.n_theta, index = 0, []
        for support, dim in shape:
            _check_layer(support, dim, dims)
            i = _embed_index(support, dims)
            index.append(np.where(i < 0, -1, i + self.n_theta))
            self.n_theta += dim * dim
        self._chart = _chart_layout(tuple(dim for _, dim in shape))
        self._embed = np.array(index, dtype=np.intp).reshape(-1, self.d, self.d)
        self._embed.setflags(write=False)

    @classmethod
    def of(cls, circuit: LocalCircuit, dims) -> FrameBuilder:
        """The builder of ``circuit.shape`` on ``dims``, shared: it is built,
        which checks every layer, once per shape and dims, so a shape whose
        check fails is built, and raises, on every call."""
        return _shared_builder(circuit.shape, check_dims(dims))

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


# the frame builder of one (shape, dims), from FrameBuilder.of: the constructor, cached
_shared_builder = lru_cache(maxsize=None)(FrameBuilder)


def conjugate(frames: FrameBuilder, entries, thetas) -> np.ndarray:
    """``entries`` (D, D) conjugated by the frames at a stack of parameter
    vectors (B, n_theta): U X U† for each, as a stack (B, D, D)."""
    u = frames.unitaries(thetas)
    return u @ entries @ u.conj().swapaxes(-1, -2)


def apply(circuit: LocalCircuit, state):
    """Conjugate a state by the circuit unitary (or rotate a pure vector):
    one row of :func:`conjugate`, the conjugation the search runs."""
    frames = FrameBuilder.of(circuit, check_state(state).dims)
    thetas = circuit.theta[None]
    if isinstance(state, PureState):
        return PureState(state.dims, frames.unitaries(thetas)[0] @ state.amps)
    return DensityMatrix(state.dims, conjugate(frames, state.entries, thetas)[0])


# --- presets -------------------------------------------------------------


@dataclass(frozen=True)
class Preset:
    """The circuit shape a search optimizes over, decided here alone.

    ``single_party`` is one layer per party, in party order.  On two
    parties ``nonglobal`` is that circuit too: a pair layer there is
    global, and every non-global unitary of two parties is a product of
    single-party ones.  On n >= 3 parties ``nonglobal`` is
    ``max(depth - 1, n - 1)`` pair layers that cycle through the
    staircase (0, 1), (0, 2), ..., (0, n - 1), so every circuit holds
    every party and no layer's support lies inside the next one's.
    ``depth`` counts a party-0 layer in front, which (0, 1) absorbs and
    which is not built, so depth 3 on three parties is (0, 1), (0, 2).
    ``depth`` is checked for both kinds but read only by ``nonglobal``
    on three or more parties.

    :meth:`search_frame` decides, for one state, the frame a search runs
    in and the theta columns it moves there.  Each circuit states its columns
    as one mask over each layer's H, which :func:`_moved_columns` reads
    through the chart.  A circuit of single-party layers takes its
    rotations and masks from :func:`decide.single_party`, whose module
    docstring gives the chain that decides them: a mask marks the
    upper-triangle pairs a search turns, none where the frame is decided,
    and never a diagonal entry, which S and L do not see on a leftmost
    layer.  The unmoved columns stay at their start values: 0 from the
    identity and random starts, a warm start's own values from a warm
    start.

    A staircase leaves out what S and L cannot see: its mask marks every
    entry of each layer's H but its last diagonal one, since the trace of
    H is a global phase, and any exp(iH) is a phase times exp(iH') with
    that entry of H' zero.  So three qubits at depth 3 move 30 of 32
    columns.  A staircase holds every party, so it holds every product
    of single-party unitaries, and its value is at most the
    ``single_party`` one.  Where :func:`decide.single_party` settles a
    frame (masks all False) whose local sum is at most ``TOL_ZERO_L``,
    the search runs in that frame, and its identity start is feasible at
    the single-party value; the masks stay those above, and each V_k
    folds into a layer (:attr:`SearchFrame.factors`).  Everywhere else
    no party rotates.  One call of :func:`decide.single_party` serves
    every circuit.
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
        if n < 2:
            raise ValueError("need at least two parties")
        if self.kind == SINGLE_PARTY or n == 2:
            return [(p,) for p in range(n)]
        return [(0, 1 + k % (n - 1)) for k in range(max(self.depth - 1, n - 1))]

    def build(self, dims) -> LocalCircuit:
        """The preset's circuit on ``dims`` at theta = 0, tagged
        ``single_party`` or ``nonglobal:depth=N``: built once per preset and
        dims and shared, its parameters read only."""
        return self._build(check_dims(dims))

    @lru_cache(maxsize=None)
    def _build(self, dims: tuple[int, ...]) -> LocalCircuit:
        shape = tuple((s, math.prod(dims[p] for p in s)) for s in self.supports(len(dims)))
        tag = self.kind if self.kind == SINGLE_PARTY else f"{NONGLOBAL}:depth={self.depth}"
        return LocalCircuit(shape, np.zeros(sum(d * d for _, d in shape)), preset=tag)

    def search_frame(self, rho: DensityMatrix) -> SearchFrame:
        """The frame a search on ``rho`` runs in: its circuit, its rotations
        and its moved columns."""
        circuit = self.build(rho.dims)
        supports, layer_dims = zip(*circuit.shape)
        rotations, masks = single_party(rho)
        if len(supports[0]) > 1:    # a staircase of pair layers
            settled = (not any(m.any() for m in masks)
                       and local_coherence(in_local_frame(rho, rotations)) <= TOL_ZERO_L)
            rotations = rotations if settled else (None,) * rho.n_parties
            # every entry of each layer's H but its last diagonal one, the trace
            masks = [np.arange(d * d).reshape(d, d) != d * d - 1 for d in layer_dims]
        return SearchFrame(circuit, rho.dims, rotations, _moved_columns(masks))


def _moved_columns(masks) -> np.ndarray:
    """The theta columns a search moves in consecutive layers, from a
    boolean mask over each layer's H: the column of each marked diagonal
    entry and the (re, im) columns of each marked upper-triangle entry,
    read through the layers' chart, ascending.  So each layer's diagonal
    columns come first, then its pairs in row-major order.  Entries below
    the diagonal are not read."""
    layout = _chart_layout(tuple(len(m) for m in masks))
    marked = np.concatenate([np.triu(m).ravel() for m in masks])
    columns = np.concatenate((layout.real[marked], layout.imag[marked]))
    return np.sort(columns[columns < len(layout.real)])    # the diagonal's Im is the 0


@dataclass(frozen=True, eq=False)
class SearchFrame:
    """The frame a search on one state runs in, from
    :meth:`Preset.search_frame`.  ``circuit`` is the preset's circuit at
    theta = 0 on ``dims``, the one the search runs over, and ``rotations``
    holds one V_k per party (None for a party kept in its basis).  The
    search moves the circuit's columns ``moved``: none where
    :func:`decide.single_party` decided the frame of a circuit of
    single-party layers, which is then evaluated once.  It runs on
    V† rho V, V the kron of the rotations, and V reaches the layers as
    :attr:`factors`, one share per layer, so a circuit W found there is
    W V† on rho, layer by layer.  On single-party layers the factors are
    the rotations; on a staircase the (0, 1) layer's factor holds two
    parties' V_k.  The chart inverse (:func:`params_for_unitary`) runs
    only where a layer has a factor."""

    circuit: LocalCircuit
    dims: tuple[int, ...]
    rotations: tuple
    moved: np.ndarray

    def state(self, rho: DensityMatrix) -> DensityMatrix:
        """``rho`` in the search's frame, V† rho V; ``rho`` itself where no
        party rotates."""
        return in_local_frame(rho, self.rotations)

    @property
    def factors(self) -> tuple:
        """Each layer's share of V, in circuit order: each party's V_k
        folds into the first layer whose support holds it, as the kron
        over that support with the identity on its other parties.  None
        for a layer that takes no rotated party; on single-party layers
        the factors are the rotations."""
        factors, held = [], set()
        for support, _ in self.circuit.shape:
            mine = set(support) - held
            held |= mine
            turned = {p for p in mine if self.rotations[p] is not None}
            factors.append(functools.reduce(np.kron, [
                self.rotations[p] if p in turned else np.eye(self.dims[p]) for p in support])
                if turned else None)
        return tuple(factors)

    def to_search(self, circuit: LocalCircuit) -> LocalCircuit:
        """A circuit U on rho as a search start: W = U V, each layer times
        its :attr:`factors` entry.  Raises ValueError, naming both layer
        lists, unless ``circuit`` has the layers of :attr:`circuit` by
        support and dimension."""
        _check_layers(circuit, self.circuit, "a warm start must have the search's layers")
        return _times(circuit, self.factors)

    def to_state(self, circuit: LocalCircuit) -> LocalCircuit:
        """A circuit W the search found as the circuit on rho: U = W V†,
        each layer times its :attr:`factors` entry's adjoint.  A factor
        acts only on parties no earlier layer touches, so it commutes past
        them and the layers' products are W V†.  Raises ValueError,
        naming both layer lists, unless ``circuit`` has the layers of
        :attr:`circuit` by support and dimension."""
        _check_layers(circuit, self.circuit,
                      "a found circuit must have the search circuit's layers")
        return _times(circuit, [None if f is None else f.conj().T for f in self.factors])


def _layer_list(circuit) -> list | str:
    """The (support, dimension) of each layer of a circuit; for anything
    else, its type name."""
    if not isinstance(circuit, LocalCircuit):
        return type(circuit).__name__
    return list(circuit.shape)


def _check_layers(circuit, want: LocalCircuit, rule: str) -> None:
    """Raise ValueError, stating ``rule`` and both layer lists, unless
    ``circuit`` has the layers of ``want`` by support and dimension."""
    if _layer_list(circuit) != _layer_list(want):
        raise ValueError(f"{rule} (support, dimension) {_layer_list(want)}, "
                         f"got {_layer_list(circuit)}")


def _times(circuit: LocalCircuit, mats) -> LocalCircuit:
    """``circuit`` with each layer's unitary multiplied from the right by
    its entry of ``mats``; a layer whose entry is None is kept as it is.
    The one place a layer is re-charted: a search frame moves circuits
    both ways through it."""
    thetas = [theta if m is None else params_for_unitary(build_unitary(theta) @ m)
              for theta, m in zip(circuit.layer_thetas(), mats)]
    return LocalCircuit(circuit.shape, np.concatenate(thetas), preset=circuit.preset)


def with_theta(circuit: LocalCircuit, theta) -> LocalCircuit:
    """The same circuit shape with ``theta`` in place of its parameters;
    ``circuit`` itself where ``theta`` has its bits already."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != circuit.theta.shape:
        raise ValueError(f"theta must have shape {circuit.theta.shape}, got {theta.shape}")
    if theta.tobytes() == circuit.theta.tobytes():
        return circuit
    return LocalCircuit(circuit.shape, theta, preset=circuit.preset)


# --- serialization -------------------------------------------------------


def circuit_to_json(circuit: LocalCircuit) -> dict:
    return {
        "preset": circuit.preset,
        "layers": [{"support": list(support), "theta": theta.tolist()}
                   for (support, _), theta in zip(circuit.shape, circuit.layer_thetas())],
    }


def circuit_from_json(obj: dict) -> LocalCircuit:
    """The circuit of a parsed JSON object; an error in a layer names the
    layer's index."""
    if not isinstance(obj, dict) or not isinstance(obj.get("layers"), list):
        raise ValueError("circuit JSON must be an object with a 'layers' list")
    shape, thetas = [], [np.zeros(0)]
    for k, entry in enumerate(obj["layers"]):
        with errors_at(f"circuit layer {k}"):
            if not (isinstance(entry, dict) and isinstance(entry.get("support"), list)
                    and isinstance(entry.get("theta"), list)):
                raise ValueError(f"must be an object with 'support' and 'theta' lists, "
                                 f"got {entry!r}")
            theta = np.array([json_float(x, f"theta entry {j}", ValueError)
                              for j, x in enumerate(entry["theta"])], dtype=np.float64)
            dim = math.isqrt(theta.size)
            if dim * dim != theta.size:
                raise ValueError(f"theta length {theta.size} is not a perfect square")
            if not np.isfinite(theta).all():
                raise ValueError("theta contains non-finite entries")
            shape.append(_checked_layer(entry["support"], dim))
            thetas.append(theta)
    return LocalCircuit(tuple(shape), np.concatenate(thetas),
                        preset=str(obj.get("preset", "custom")))


def save_circuit(circuit: LocalCircuit, path) -> None:
    pathlib.Path(path).write_text(json_text(circuit_to_json(circuit)))


def load_circuit(path) -> LocalCircuit:
    return read_json(path, "circuit", ValueError, circuit_from_json)
