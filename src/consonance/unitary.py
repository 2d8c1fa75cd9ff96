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
the supports are chosen), builds its circuit at theta = 0 with its tag
(:meth:`Preset.build`) and decides, for a state, the circuit its search
runs over, the frame it runs in and the theta columns it moves there
(:meth:`Preset.search_frame`, a :class:`SearchFrame`).

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
with the layers in circuit order, each at its own theta offset.  Each run
of adjacent layers of one dimension runs one batched eigh and exp, and a
gather lifts every layer unitary to the full space.
:func:`build_unitary` is the chart for one layer and one row.  The
scalar reference that every row matches with == (chart, exp and a
kron-and-transpose embed, one frame at a time) lives in the tests.
"""

from __future__ import annotations

import itertools
import math
import pathlib
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar, NamedTuple

import numpy as np
import scipy.linalg

from .coherence import class_masks
from .qstate import (TOL_COMPATIBLE, TOL_DEGENERATE, TOL_STABILIZER, TOL_UNITARY, TOL_ZERO_L,
                     DensityMatrix, PureState, check_dims, check_integer, check_state,
                     check_unitary, errors_at, json_float, json_text, partial_trace, read_json)

SINGLE_PARTY = "single_party"
NONGLOBAL = "nonglobal"


def n_params(dim: int) -> int:
    """Number of real parameters of a dim-dimensional unitary chart."""
    dim = check_integer(dim, "dimension")
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    return dim * dim


class _ChartLayout(NamedTuple):
    """One chart for a circuit's layers, in circuit order: each layer's H
    entries, and its unitary in the stack, sit at its own theta offset.
    Every array is read only."""

    re: np.ndarray    # theta column of each Re part; its Im part is the next
    plan: np.ndarray  # where each H entry sits in [theta | off | conj(off)]
    groups: tuple     # (dim, k, lo, hi): a run of k adjacent layers fills columns lo:hi


@lru_cache(maxsize=None)
def _chart_layout(layer_dims: tuple[int, ...]) -> _ChartLayout:
    """The chart of layers of the given dimensions, in circuit order."""
    n_theta = sum(d * d for d in layer_dims)
    n_off = (n_theta - sum(layer_dims)) // 2
    re, plan = [], []
    for d in layer_dims:
        o, m = len(plan), d * (d - 1) // 2
        # this layer's source row: its diagonal, upper triangle, conjugates
        src = np.concatenate((o + np.arange(d),
                              n_theta + len(re) + np.arange(m),
                              n_theta + n_off + len(re) + np.arange(m)))
        iu = np.triu_indices(d, k=1)
        h = np.diag(src[:d])
        h[iu] = src[d:d + m]
        h[iu[::-1]] = src[d + m:]
        plan += h.ravel().tolist()
        re += range(o + d, o + d * d, 2)
    re, plan = (np.array(x, dtype=np.intp) for x in (re, plan))
    for arr in (re, plan):
        arr.setflags(write=False)
    groups, lo = [], 0
    for d, run in itertools.groupby(layer_dims):
        k = len(list(run))
        groups.append((d, k, lo, lo + k * d * d))
        lo += k * d * d
    return _ChartLayout(re, plan, tuple(groups))


def _layer_stack(layout: _ChartLayout, thetas: np.ndarray) -> np.ndarray:
    """Every layer's exp(iH) at a stack of thetas (B, P), as rows (B, P + 1):
    the unitaries row-major, each at its layer's theta offset, then a 0.  H
    is gathered from [theta | off | conj(off)]; each run of adjacent layers
    of one dimension runs one batched ``eigh`` and exp on its column range."""
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
        size = n_params(dim)
        theta = np.array(self.theta, dtype=np.float64)
        if theta.shape != (size,):
            raise ValueError(f"theta must have shape ({size},), got {theta.shape}")
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
    principal branch.  A unitary is normal, so its complex Schur form
    Z T Z† has T diagonal, and H = Z diag(arg t_ii) Z† with each arg in
    (-pi, pi].  Raises ValidationError if ``u`` is not unitary.
    """
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square matrix, got {u.shape}")
    d = u.shape[0]
    check_unitary(u, TOL_UNITARY, "matrix")
    t, z = scipy.linalg.schur(u, output="complex")
    h = (z * np.angle(np.diag(t))) @ z.conj().T
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
    in one stack in circuit order, each at its layer's theta offset, whose
    last column is 0.  One gather through the layers' :func:`_embed_index`
    plans, each pointed at its layer's theta offset, lifts them all to the
    full space.  The first layer starts the chain; each later one
    multiplies it from the left.
    """

    def __init__(self, circuit: LocalCircuit, dims):
        dims = check_dims(dims)
        self.d = math.prod(dims)
        for layer in circuit.layers:
            _check_layer(layer, dims)
        self.n_theta = circuit.n_theta
        self._chart = _chart_layout(tuple(layer.params.dim for layer in circuit.layers))
        index, offset = [], 0
        for layer in circuit.layers:
            i = _embed_index(layer.support, dims)
            index.append(np.where(i < 0, -1, i + offset))
            offset += layer.params.theta.size
        self._embed = np.array(index, dtype=np.intp).reshape(-1, self.d, self.d)
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
    frames = FrameBuilder(circuit, check_state(state).dims)
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

    :meth:`search_frame` decides, for one state, the frame a search runs
    in and the theta columns it moves there.  Each kind states its columns
    as one mask over each searched layer's H, which :func:`_moved_columns`
    reads through the chart: ``single_party`` marks the upper-triangle
    entries inside one eigenvalue group, ``nonglobal`` every entry but the
    last diagonal one.

    S and L read only moduli, so a diagonal unitary multiplied onto a
    circuit from the left changes neither.  In ``single_party`` every
    layer is leftmost, so each layer's diagonal is gauge and never moves.
    A frame with L = 0 also diagonalizes every party's marginal rho_k: an
    off-diagonal entry of rho_k sums entries of rho that differ in party k
    alone, which are local.  So every zero-L frame maps rho_k's eigenvectors to basis
    vectors, up to a permutation and phases, which change neither S nor L,
    and within each eigenspace by any unitary.  The search therefore runs
    on rho in the marginals' eigenframe, and its mask marks only the
    upper-triangle entries (i, j) of basis vectors in one eigenvalue group,
    eigenvalues closer than ``TOL_DEGENERATE`` sharing a group.  A pair
    spans a two-dimensional eigenspace exactly: every U(2) is D exp(iO),
    D a diagonal unitary and O off-diagonal.  So where every eigenspace has
    dimension <= 2 the restriction loses no zero-L frame; that the
    off-diagonal columns of a larger eigenspace reach every unitary on it
    is a heuristic.  A marginal with one group, or exactly diagonal, needs
    no rotation, and its layer is searched as it is.  The unmoved columns
    stay at their start values: 0 from the identity and random starts, a
    warm start's own values from a warm start.

    Where the eigenframe still leaves a moved column, two more decisions
    come before any search, each giving a frame with no moved column.
    Two qubits are decided in closed form (:func:`_two_qubit_rotations`):
    the zero-L frames are the singular pairs of the correlation matrix T
    compatible with the Bloch vectors, and the frame is the pair of least
    S; where no pair is compatible, no frame has L = 0 and the search
    runs.  Any other state goes through a Jacobi projection onto L = 0
    (:func:`_projected_rotations`), which rotates the pairs inside one
    eigenvalue group until L <= ``TOL_ZERO_L``.  Frames with L = 0 can
    differ in S, so the frame is decided only where :func:`_least_turn`
    shows which zero-L frame has the least S: where every one has the S
    of the frame reached, or where the few left are tried in turn.  Where
    a round does not halve L, or where that is not shown, the search runs
    in the eigenframe, as without the projection.  So the chain is
    eigenframe, two-qubit rule, projection, search, and "no column moves"
    covers marginals with distinct eigenvalues, two qubits with a zero-L
    frame, and every other state the projection decides (the
    qubit-qutrit family, isotropic and GHZ states in most frames, and a
    Bell-diagonal block beside a qutrit level).

    ``nonglobal`` rotates nothing, since its pair layers do not keep the
    marginals; it leaves out what S and L cannot see instead.  A layer
    whose support lies inside the next layer's support, the one applied
    right after it, is absorbed: U_next (U_k (x) 1) ranges over the same
    unitaries as U_next alone.  The search runs over the circuit without
    its absorbed layers, and its mask marks every entry of each remaining
    layer's H but its last diagonal one: the trace of H is a global phase,
    and any exp(iH) is a phase times exp(iH') with that entry of H' zero.
    At depth 3 on three or more parties the leading ``(0,)`` is absorbed,
    and three qubits move 30 of 36 columns.  ``single_party`` absorbs nothing, as no
    party's support holds another's.
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

    def search_frame(self, rho: DensityMatrix) -> SearchFrame:
        """The frame a search on ``rho`` runs in: its circuit, its rotations
        and its moved columns."""
        template = self.build(rho.dims)
        absorbed = _absorbed([layer.support for layer in template.layers])
        if self.kind == NONGLOBAL:
            kept = [layer.params.dim for layer, gone in zip(template.layers, absorbed)
                    if not gone]
            # every entry of each kept layer's H but its last diagonal one, the trace
            masks = [np.arange(d * d).reshape(d, d) != d * d - 1 for d in kept]
            return SearchFrame(template, rho.dims, absorbed, (None,) * len(absorbed),
                               _moved_columns(masks))
        rotations, groups = zip(*(_eigenframe(partial_trace(rho, [k]).entries)
                                  for k in range(rho.n_parties)))
        moved = _moved_columns([_same_group(g) for g in groups])
        frame = SearchFrame(template, rho.dims, absorbed, rotations, moved)
        if not len(moved):
            return frame
        if rho.dims == (2, 2):
            decided = _two_qubit_rotations(rho, [not g.any() for g in groups])
        else:
            decided = _projected_rotations(frame.state(rho), rotations, groups)
        if decided is None:
            return frame
        return SearchFrame(template, rho.dims, absorbed, decided, moved[:0])


def _absorbed(supports) -> tuple[bool, ...]:
    """Whether each layer, given the supports in circuit order, is absorbed:
    its support lies inside the next layer's.  The last layer never is."""
    return tuple(set(s) <= set(t) for s, t in zip(supports, supports[1:])) + (False,)


def _moved_columns(masks) -> np.ndarray:
    """The theta columns a search moves in consecutive layers, from a
    boolean mask over each layer's H: the column of each marked diagonal
    entry and the (re, im) columns of each marked upper-triangle entry,
    found through the layers' chart, ascending.  So each layer's diagonal
    columns come first, then its pairs in row-major order.  Entries below
    the diagonal are not read."""
    layout = _chart_layout(tuple(len(m) for m in masks))
    n_theta = len(layout.plan)
    marked = layout.plan[np.concatenate([np.triu(m).ravel() for m in masks])]
    pairs = layout.re[marked[marked >= n_theta] - n_theta]
    return np.sort(np.concatenate((marked[marked < n_theta], pairs, pairs + 1)))


def _same_group(groups: np.ndarray) -> np.ndarray:
    """The upper-triangle pairs (p, q) of basis vectors in one eigenvalue
    group, as a boolean mask over a layer's H."""
    return np.triu(groups[:, None] == groups, k=1)


def _groups(w: np.ndarray) -> np.ndarray:
    """The group number of each of the ascending values ``w``: a value
    closer than ``TOL_DEGENERATE`` to the one before joins its group."""
    return np.concatenate(([0], np.cumsum(np.diff(w) > TOL_DEGENERATE)))


def _eigenframe(m: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """(V, groups) of one party's marginal ``m``: ``groups[i]`` numbers the
    eigenvalue group of basis vector i of the frame V, the eigenvectors of
    ``m`` from ``eigh``.  V is None, the basis kept, where ``m`` has one
    group or is exactly diagonal; the groups then come from its diagonal."""
    w, v = np.linalg.eigh(m)
    groups = _groups(w)
    if not groups.any():
        return None, groups
    if np.any(m[~np.eye(len(m), dtype=bool)]):
        return v, groups
    diag = np.diag(m).real
    order = np.argsort(diag, kind="stable")
    groups[order] = _groups(diag[order])
    return None, groups


_PAULI = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_PAULI.setflags(write=False)
_Z = np.array([0.0, 0.0, 1.0])
# (x × y)_i = x_{i+1} y_{i+2} - x_{i+2} y_{i+1}, indices mod 3
_NEXT, _LAST = [1, 2, 0], [2, 0, 1]


def _two_qubit_rotations(rho: DensityMatrix, one_group) -> tuple | None:
    """The rotations (V_A, V_B) of the two-qubit frame with L = 0 and the
    least S, or None where no frame has L = 0.

    Write rho = (I + a.σ (x) I + I (x) b.σ + sum_ij T_ij σ_i (x) σ_j)/4.
    A frame whose z axes are n_A and n_B has L = 0 exactly when a is along
    n_A, b along n_B, T n_B along n_A and T^T n_A along n_B: (n_A, n_B) is
    a singular pair of T compatible with a and b.  S there is the larger
    singular value of T on the planes normal to the axes, the larger of
    T's other two singular values (R. & M. Horodecki, PRA 54, 1838 (1996)
    for the T picture).  A party whose marginal is one eigenvalue group
    (``one_group``) counts as a = 0, and any singular pair of T is then
    compatible on its side; a forced axis fixes its partner as T b̂ (or
    T^T â), normalized, or a null vector of T where that is 0.  A pair is
    compatible, and two values are tied, within ``TOL_COMPATIBLE``.  The
    identity frame is kept, as (None, None), where it is a compatible pair
    tied with the least value; otherwise V_k are the eigenvectors of
    n_k.σ.  The candidates are checked by :func:`_pair_checks`, the
    identity's (z, z) after them, and a tie between values picks the
    lowest k.  On ``opt_bipartite``'s Werner inputs this takes about 0.14
    ms a state on one core of a 2-core Xeon, BLAS on one thread."""
    r = _pauli_traces(rho.entries)
    a, b = (np.zeros(3) if zero else v for v, zero in zip((r[1:, 0], r[0, 1:]), one_group))
    t = r[1:, 1:]
    u, _, vh = np.linalg.svd(t)
    if all(one_group):
        pairs = np.stack((u.T, vh), axis=1)
    elif one_group[1]:
        n_a = a / np.linalg.norm(a)
        pairs = np.array([(n_a, _partner(t.T @ n_a, vh[-1]))])
    else:
        n_b = b / np.linalg.norm(b)
        pairs = np.array([(_partner(t @ n_b, u[:, -1]), n_b)])
    compatible, values = _pair_checks(a, b, t, np.concatenate((pairs, [(_Z, _Z)])))
    found = np.flatnonzero(compatible[:-1])
    if not len(found):
        return None
    k = found[np.argmin(values[found])]
    if compatible[-1] and values[-1] <= values[k] + TOL_COMPATIBLE:
        return None, None
    return tuple(_axis_frame(n) for n in pairs[k])


def _pair_checks(a: np.ndarray, b: np.ndarray, t: np.ndarray,
                 pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each pair of axes (n_A, n_B) of ``pairs`` (m, 2, 3) is
    compatible with the Bloch vectors a and b and the correlation matrix T,
    and its value, S in its frame: (m,) each, in one stack.

    A pair is compatible where the largest norm of a × n_A, b × n_B,
    n_A × T n_B and n_B × T^T n_A, written out by components, is at most
    ``TOL_COMPATIBLE``.  Its value is the 2-norm of (1 - n_A n_A^T) T
    (1 - n_B n_B^T), one batched SVD, bit for bit the norm of each matrix
    alone.  Werner's three pairs tie in exact arithmetic, so which one a
    frame keeps rests on the last bits of these values; the larger of T's
    other two singular values, equal in exact arithmetic, rounds
    differently and would keep another pair behind some frames."""
    n_a, n_b = pairs.swapaxes(0, 1)
    x = np.stack(([a] * len(pairs), [b] * len(pairs), n_a, n_b), axis=1)
    y = np.stack((n_a, n_b, n_b @ t.T, n_a @ t), axis=1)
    cross = x[..., _NEXT] * y[..., _LAST] - x[..., _LAST] * y[..., _NEXT]
    compatible = np.linalg.norm(cross, axis=2).max(axis=1) <= TOL_COMPATIBLE
    eye = np.eye(3)
    values = np.linalg.norm((eye - n_a[:, :, None] * n_a[:, None, :]) @ t
                            @ (eye - n_b[:, :, None] * n_b[:, None, :]), 2, axis=(1, 2))
    return compatible, values


def _pauli_traces(block: np.ndarray) -> np.ndarray:
    """r_ij = tr(B σ_i (x) σ_j) of a 4 x 4 two-qubit operator B, σ_0 = I."""
    return np.einsum("pqrs,irp,jsq->ij", block.reshape(2, 2, 2, 2), _PAULI, _PAULI).real


def _axis_frame(n: np.ndarray) -> np.ndarray:
    """The qubit frame whose z axis is the unit vector n: the eigenvectors
    of n.σ."""
    return np.linalg.eigh(np.tensordot(n, _PAULI[1:], 1))[1]


def _partner(w: np.ndarray, null: np.ndarray) -> np.ndarray:
    """The axis ``w`` (T b̂ or T^T â) normalized, or the null vector ``null``
    of T where ``w`` is within ``TOL_COMPATIBLE`` of 0."""
    size = np.linalg.norm(w)
    return w / size if size > TOL_COMPATIBLE else null


# N'_pp - N'_qq = h.x for h = B (N_pp - N_qq, N_pq, N_qp), N' = G† N G
_JACOBI_B = np.array([[1, 0, 0], [0, 1, 1], [0, -1j, 1j]])
_JACOBI_B.setflags(write=False)


def _projected_rotations(start: DensityMatrix, rotations, groups) -> tuple | None:
    """The rotations V_k X_k of a frame with L = 0 and the least S that a
    Jacobi projection reaches from the eigenframe, where ``start`` is
    A = V† rho V and V the product of ``rotations``; None where it stalls
    or where :func:`_least_turn` cannot show which zero-L frame has the
    least S.

    Each round visits every party k and every pair (p, q) of its basis
    vectors in one eigenvalue group (``groups``: a zero-L frame is
    block-diagonal in the eigenframe), and rotates the pair by the G of
    :func:`_jacobi_rotation`: A <- G_k† A G_k and X_k <- X_k G.  The
    entries that differ in party k alone are the off-diagonal entries of
    its blocks at equal indices of the other parties, so L = 0 needs one
    X_k that diagonalizes all of them, and G is the rotation of Cardoso &
    Souloumiac (SIAM J. Matrix Anal. Appl. 17, 161 (1996)) for that joint
    diagonalization, with one more term for the local entries G moves on
    the diagonals of the blocks apart in every other party.  The frame is
    reached once the local sum of A is at most ``TOL_ZERO_L``, at the
    start with the rotations as they are, and the projection stalls at
    the first round that does not halve the sum.  Every other round
    halves it, and it starts at most at D, the largest sum of |entries|
    of a state, so the projection ends within log2(D / TOL_ZERO_L)
    rounds."""
    dims = start.dims
    local = class_masks(dims)[1]
    a = start.entries
    level = np.abs(a[local]).sum()
    pairs = [np.argwhere(_same_group(g)) for g in groups]
    # the block pairs (m, m') whose off-diagonal entries are nonlocal: m
    # and m' apart in every other party
    apart = [np.nonzero(~_party_last(local, dims, k)[:, 0, :, 1]) for k in range(len(dims))]
    turns = [None] * len(dims)
    while level > TOL_ZERO_L:
        for k, party in enumerate(pairs):
            if not len(party):
                continue
            t = _party_last(a, dims, k)
            for p, q in party:
                g = _jacobi_rotation(t, apart[k], p, q)
                if g is not None:
                    t = np.einsum("ji,ajbl,lk->aibk", g.conj(), t, g)
                    turns[k] = g if turns[k] is None else turns[k] @ g
            a = _party_back(t, dims, k)
        last, level = level, np.abs(a[local]).sum()
        if level > max(last / 2, TOL_ZERO_L):
            return None
    least = _least_turn(a, dims, groups)
    if least is None:
        return None
    turns = [x if w is None else w if x is None else x @ w for x, w in zip(turns, least)]
    return tuple(x if v is None else v if x is None else v @ x
                 for v, x in zip(rotations, turns))


def _least_turn(a: np.ndarray, dims: tuple[int, ...], groups) -> tuple | None:
    """The turn W_k of each party (None for none) that takes A, a frame
    with L = 0 inside the eigenvalue groups ``groups``, to the zero-L
    frame with the least S; None where that is not shown, as on a
    Bell-diagonal block with two equal |c_i|, whose zero-L axes form a
    circle beside a third axis.

    :func:`_classes` splits the groups into classes such that every zero-L
    frame is, up to a permutation of each party's basis, A's frame turned
    inside the classes, then by a local unitary that keeps A and so S.
    Where every class holds one vector, such a turn is a phase, which
    keeps S too: A's frame has the least S, and no party turns.  Where
    two classes of two vectors are left, on two parties, the zero-L
    frames are among those of :func:`_pair_turn`, and the least S among
    them is read off.  On ``opt_bipartite``'s qubit-qutrit inputs this
    takes about 0.17 ms (one core of a 2-core Xeon, BLAS on one thread):
    six calls each of :func:`_class_rows` and :func:`_split` and one of
    :func:`_reached`."""
    classes = _classes(a, dims, groups)
    if all(c.max() + 1 == len(c) for c in classes):
        return (None,) * len(dims)
    return _pair_turn(a, dims, classes)


def _classes(a: np.ndarray, dims: tuple[int, ...], groups) -> list[np.ndarray]:
    """Each party's classes (a class number per basis vector): ``groups``
    split by three rules, each of which holds for every zero-L frame
    turned from A inside the classes (:func:`_class_rows`,
    :func:`_reached`).
    - Every zero-L frame keeps diagonal A's blocks at equal indices of the
      other parties, and so their sums over one class of each, which a
      turn inside the classes leaves as they are.  Vectors whose diagonal
      entries in these sums differ are split.
    - On three or more parties, every reduced state of A on a proper
      subset of the parties is diagonal in every zero-L frame: its
      off-diagonal entries are sums of entries that agree in the parties
      traced out, and so are local.  Its partial traces against every
      operator of the subset's other parties then span one space of
      diagonal matrices in every frame.  Vectors whose diagonal entries
      differ at some index of those parties are split.
    - Where neither rule splits, a party all of whose classes the local
      unitaries that keep A reach is fixed in A's frame, each vector a
      class of its own: any zero-L frame is one with that party in A's
      frame, turned by such a unitary.

    Classes are numbered 0 to m - 1, as ``groups`` and :func:`_split`
    number them, so a party's class count is its largest number plus 1."""
    classes = [np.asarray(g) for g in groups]
    counts = [len(np.unique(c)) for c in classes]
    diag = a.diagonal().real.reshape(dims)
    while True:
        classes = [_split(c, _class_rows(diag, classes, k)) for k, c in enumerate(classes)]
        split = [c.max() + 1 for c in classes]
        if split != counts:
            counts = split
            continue
        loose = [k for k, (c, m) in enumerate(zip(classes, counts)) if m < len(c)]
        k = next((k for k in loose if _reached(a, classes, k)), None)
        if k is None:
            return classes
        classes[k] = np.arange(dims[k])
        counts[k] = dims[k]


def _pair_turn(a: np.ndarray, dims: tuple[int, ...], classes) -> tuple | None:
    """The turns of the zero-L frame with the least S where one class of
    two vectors is left on each of two parties j < k, and all others hold
    one vector; None where the classes are not so, or where the zero-L
    frames are not a few points.

    The block B of A's reduced state on (j, k) that the two classes span
    then turns as a two-qubit operator, and has L = 0 in every zero-L
    frame.
    Its Bloch vectors are 0, as the first rule of :func:`_classes` left
    its marginals on the classes a multiple of I, so the zero-L frames'
    axes are singular pairs of its correlation matrix T
    (:func:`_two_qubit_rotations`).  Where T's singular values differ by
    more than ``TOL_COMPATIBLE``, those are three pairs of axes: each is
    tried on A, and the least S among those at L <= ``TOL_ZERO_L`` is
    kept, A's own frame where it is tied with the least."""
    loose = [(k, np.flatnonzero(c == label)) for k, c in enumerate(classes)
             for label in np.unique(c) if np.count_nonzero(c == label) > 1]
    if [len(vectors) for _, vectors in loose] != [2, 2] or loose[0][0] == loose[1][0]:
        return None
    (j, vj), (k, vk) = loose
    reduced = partial_trace(DensityMatrix(dims, a), [j, k]).entries
    block = reduced[np.ix_(*[(vj[:, None] * dims[k] + vk).ravel()] * 2)]
    r = _pauli_traces(block)
    u, singular, vh = np.linalg.svd(r[1:, 1:])
    if np.any(-np.diff(singular) <= TOL_COMPATIBLE * r[0, 0]):
        return None
    _, local, nonlocal_ = class_masks(dims)
    best, least = None, np.abs(a[nonlocal_]).sum() - TOL_COMPATIBLE
    for axes in zip(u.T, vh):
        turn = [None] * len(dims)
        for party, vectors, n in zip((j, k), (vj, vk), axes):
            turn[party] = np.eye(dims[party], dtype=np.complex128)
            turn[party][np.ix_(vectors, vectors)] = _axis_frame(n)
        w = np.eye(1)
        for d, x in zip(dims, turn):
            w = np.kron(w, np.eye(d) if x is None else x)
        turned = w.conj().T @ a @ w
        s = np.abs(turned[nonlocal_]).sum()
        if np.abs(turned[local]).sum() <= TOL_ZERO_L and s < least:
            best, least = tuple(turn), s - TOL_COMPATIBLE
    return best or (None,) * len(dims)


def _class_rows(diag: np.ndarray, classes, k: int) -> np.ndarray:
    """Each of party k's basis vectors' diagonal entries of A (``diag``, by
    party) summed over one class of every other party; on three or more
    parties also summed over every index of one other party: (d_k, ...).
    Every sum is one ``bincount`` of the diagonal, by :func:`_class_key`:
    about 5 us a call on ``opt_bipartite``'s qubit-qutrit inputs, on one
    core of a 2-core Xeon."""
    key, width = _class_key(tuple(tuple(c.tolist()) for c in classes), k)
    weights = np.tile(diag.ravel(), len(key) // diag.size)
    return np.bincount(key, weights, minlength=diag.shape[k] * width).reshape(-1, width)


@lru_cache(maxsize=256)
def _class_key(classes: tuple[tuple[int, ...], ...], k: int) -> tuple[np.ndarray, int]:
    """The bin of each diagonal entry of A in :func:`_class_rows`'s rows of
    party k, once per set of sums, and the row length.  Its row is its
    party-k index; its column, the other parties' class numbers in party
    order (``classes``, numbered 0 to m - 1), or, for the sums over every
    index of party j, the indices of the parties but j and k, where party j
    counts as one class.  Read only."""
    dims = tuple(len(c) for c in classes)
    others = [j for j in range(len(dims)) if j != k]
    whole = [np.arange(d) for d in dims]
    sets = [[np.array(c) for c in classes]]
    if len(dims) > 2:
        sets += [[np.zeros_like(x) if i == j else x for i, x in enumerate(whole)]
                 for j in others]
    columns, width = [], 0
    for labels in sets:
        grid = np.ix_(*labels)
        sizes = [labels[j].max() + 1 for j in others]
        column = np.ravel_multi_index([grid[j] for j in others], sizes)
        columns.append(np.broadcast_to(column, dims).ravel() + width)
        width += math.prod(sizes)
    row = np.broadcast_to(np.ix_(*whole)[k], dims).ravel()
    key = np.tile(row, len(sets)) * width + np.concatenate(columns)
    key.setflags(write=False)
    return key, width


def _split(labels: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``labels`` split so that two vectors share a class where they shared
    one and their ``rows`` agree within ``TOL_DEGENERATE``.  The new
    classes are numbered 0 to m - 1 in the order of their first vectors."""
    firsts, split = [], []
    for label, row in zip(labels.tolist(), rows.tolist()):
        c = next((c for c, (first_label, first) in enumerate(firsts) if first_label == label
                  and max(abs(x - y) for x, y in zip(first, row)) <= TOL_DEGENERATE),
                 len(firsts))
        if c == len(firsts):
            firsts.append((label, row))
        split.append(c)
    return np.array(split)


def _reached(a: np.ndarray, classes, k: int) -> bool:
    """Whether the local unitaries inside ``classes`` that keep A reach
    every turn of party k's classes: whether the Lie algebra of the
    Hermitian h = sum_j h_j, each h_j on party j inside its classes, with
    [h, A] = 0, projected on party k's traceless class blocks, holds su(n)
    of each of them.  A unit h whose commutator is within
    ``TOL_STABILIZER`` of 0 counts as keeping A.

    The units on basis vectors p <= q of one class of party j are the
    projector E_pp, and E_pq + E_qp and i (E_pq - E_qp).  Each entry h_rs
    of a unit is 1 or ±i, so h A copies A's rows whose party-j index is s
    to those whose index is r, times h_rs, and A h copies its columns at r
    to those at s.  Every commutator is built that way, by flat indices
    into A, in one (units, D, D) array, so each entry is an exact copy of
    A's or the difference of two; the index arrays are laid out once per
    set of classes (:func:`_units`).  About 0.07 ms a call on
    ``opt_bipartite``'s qubit-qutrit inputs, on one core of a 2-core Xeon
    with BLAS on one thread."""
    units = _units(tuple(tuple(c.tolist()) for c in classes))
    commutators = np.zeros((units.count, len(a), len(a)), dtype=np.complex128)
    commutators[units.unit, units.rows] = units.factor * a[units.source]
    commutators[units.unit, :, units.source] -= a[:, units.rows].T * units.factor
    flat = commutators.reshape(units.count, -1)
    s, vh = np.linalg.svd(np.concatenate((flat.real, flat.imag), axis=1).T,
                          full_matrices=False)[1:]
    keep = vh[s <= TOL_STABILIZER]
    blocks = []
    for off, diagonal in units.blocks[k]:
        block = keep[:, diagonal]
        blocks += [keep[:, off], block - block.mean(axis=1, keepdims=True)]
    return np.linalg.matrix_rank(np.hstack(blocks), tol=TOL_STABILIZER) == units.want[k]


class _Units(NamedTuple):
    """The Hermitian units inside one set of classes, as :func:`_reached`
    reads them: units party by party, class by class, pair by pair.  Each
    copied row of A is one entry of the index arrays.  Every array is read
    only."""

    count: int
    unit: np.ndarray     # the unit of each copied row
    rows: np.ndarray     # the flat index, party-j index r, that h A fills
    source: np.ndarray   # the flat index, party-j index s, it copies
    factor: np.ndarray   # h_rs, as a complex column
    blocks: tuple        # per party, per class of two or more: (off-diagonal, diagonal) units
    want: tuple          # per party, the sum of n^2 - 1 over those classes


@lru_cache(maxsize=256)
def _units(classes: tuple[tuple[int, ...], ...]) -> _Units:
    """The units of :func:`_reached` inside ``classes`` (a class number per
    basis vector of each party)."""
    dims = tuple(len(c) for c in classes)
    size = math.prod(dims)
    index = np.arange(size)
    party, label, diagonal = [], [], []
    unit, rows, source, factor = [], [], [], []
    for j, labels in enumerate(map(np.array, classes)):
        # row r: the flat indices whose party-j index is r, the others alike
        by_index = index.reshape(-1, dims[j], size // math.prod(dims[:j + 1]))
        by_index = by_index.swapaxes(0, 1).reshape(dims[j], -1)
        for c in range(labels.max() + 1):
            for p, q in itertools.combinations_with_replacement(np.flatnonzero(labels == c), 2):
                units = ([[(p, p, 1)]] if p == q
                         else [[(p, q, 1), (q, p, 1)], [(p, q, 1j), (q, p, -1j)]])
                for h in units:
                    for r, s, x in h:
                        unit.append(np.full(by_index.shape[1], len(party)))
                        rows.append(by_index[r])
                        source.append(by_index[s])
                        factor.append(np.full(by_index.shape[1], x, dtype=np.complex128))
                    party.append(j)
                    label.append(c)
                    diagonal.append(p == q)
    unit, rows, source, factor = map(np.concatenate, (unit, rows, source, factor))
    factor = factor[:, None]
    party, label, diagonal = map(np.array, (party, label, diagonal))
    blocks, want = [], []
    for k, labels in enumerate(map(np.array, classes)):
        sizes = np.bincount(labels)
        own = [(party == k) & (label == c) for c in np.flatnonzero(sizes > 1)]
        blocks.append(tuple((np.flatnonzero(o & ~diagonal), np.flatnonzero(o & diagonal))
                            for o in own))
        want.append(int((sizes[sizes > 1] ** 2 - 1).sum()))
    for arr in (unit, rows, source, factor, *(x for b in blocks for pair in b for x in pair)):
        arr.setflags(write=False)
    return _Units(len(party), unit, rows, source, factor, tuple(blocks), tuple(want))


def _jacobi_rotation(t: np.ndarray, apart, p: int, q: int) -> np.ndarray | None:
    """The rotation G of party k's pair (p, q) that leaves the least sum of
    |.|^2 over the local entries of A it moves; None where those are all
    0.  ``t`` is A laid out by :func:`_party_last`, so N = t[m, :, m', :]
    is the block of A between the other parties' indices m and m', and
    ``apart`` lists the (m, m') apart in every other party.

    G is the identity but for G_pp = G_qq = c = sqrt((1 + x_0)/2),
    G_qp = s = (x_1 - i x_2)/(2c) and G_pq = -conj(s), for a real unit
    x with x_0 >= 0, and N' = G† N G has N'_pp - N'_qq = h.x.  G keeps
    N'_pp + N'_qq and, with them, |N'_pp|^2 + |N'_qq|^2 + |N'_pq|^2 +
    |N'_qp|^2, and the sum of |.|^2 over rows p and q of each other
    column, and over columns p and q of each other row.  In a block at
    equal indices m = m', the entries (p, q) and (q, p) are local and the
    diagonal is not: their |.|^2 is a constant less |h.x|^2 / 2.  In a
    block apart in every other party, the diagonal is local and the rest
    is not: its |.|^2 is a constant plus |h.x|^2 / 2.  In any other block
    every entry is local, and so are both entries of each row or column
    pair in a block at equal indices, and neither in a block apart.  So x
    is the top eigenvector of Re sum h h† over the blocks at equal indices
    less the same over the blocks apart."""
    m = np.arange(len(t))
    a, b = apart
    if not (t[m, p, m, q].any() or t[a, p, b, p].any() or t[a, q, b, q].any()):
        return None
    h_equal, h_apart = (_JACOBI_B @ np.array([t[i, p, j, p] - t[i, q, j, q], t[i, p, j, q],
                                              t[i, q, j, p]])
                        for i, j in ((m, m), (a, b)))
    x = np.linalg.eigh((h_equal @ h_equal.conj().T - h_apart @ h_apart.conj().T).real)[1][:, -1]
    x = x if x[0] >= 0 else -x
    c = math.sqrt((1.0 + x[0]) / 2.0)
    s = (x[1] - 1j * x[2]) / (2.0 * c)
    g = np.eye(t.shape[1], dtype=np.complex128)
    g[p, p] = g[q, q] = c
    g[p, q], g[q, p] = -s.conjugate(), s
    return g


def _party_last(a: np.ndarray, dims: tuple[int, ...], k: int) -> np.ndarray:
    """A (D, D) as (r, d_k, r, d_k): party k's row and column axes moved
    last on each side, the other parties' r = D / d_k indices first."""
    n, d = len(dims), dims[k]
    r = len(a) // d
    return np.moveaxis(a.reshape(dims + dims), (k, n + k), (n - 1, 2 * n - 1)).reshape(r, d, r, d)


def _party_back(t: np.ndarray, dims: tuple[int, ...], k: int) -> np.ndarray:
    """The inverse of :func:`_party_last`."""
    n = len(dims)
    side = dims[:k] + dims[k + 1:] + dims[k:k + 1]
    d = math.prod(dims)
    return np.moveaxis(t.reshape(side + side), (n - 1, 2 * n - 1), (k, n + k)).reshape(d, d)


@dataclass(frozen=True, eq=False)
class SearchFrame:
    """The frame a search on one state runs in, from
    :meth:`Preset.search_frame`.  ``template`` is the preset's circuit at
    theta = 0 on ``dims``, and ``absorbed`` and ``rotations`` hold, per
    template layer, whether the search leaves it out and its V_k (None for
    a layer searched as it is).  The search runs over :attr:`circuit`, the
    template without its absorbed layers, and moves its columns
    ``moved``: none where the eigenframe, the two-qubit rule or the
    projection decided the state, whose frame of least S the rotations
    then hold, and which is evaluated once.  It runs on V† rho V, V the product of the
    rotations, so a circuit W found there is W V† on rho, layer by layer.
    The chart inverse (:func:`params_for_unitary`) runs only where a layer
    rotates or a start's absorbed layer is not at theta = 0."""

    template: LocalCircuit
    dims: tuple[int, ...]
    absorbed: tuple[bool, ...]
    rotations: tuple
    moved: np.ndarray

    @property
    def circuit(self) -> LocalCircuit:
        """The circuit the search runs over, at theta = 0."""
        return LocalCircuit(tuple(layer for layer, gone
                                  in zip(self.template.layers, self.absorbed) if not gone),
                            preset=self.template.preset)

    def state(self, rho: DensityMatrix) -> DensityMatrix:
        """``rho`` in the search's frame, V† rho V; ``rho`` itself where no
        layer rotates."""
        if all(r is None for r in self.rotations):
            return rho
        v = np.eye(1)
        for d, r in zip(rho.dims, self.rotations):
            v = np.kron(v, np.eye(d) if r is None else r)
        return DensityMatrix(rho.dims, v.conj().T @ rho.entries @ v)

    def to_search(self, circuit: LocalCircuit) -> LocalCircuit:
        """A circuit U on rho, with the template's layers, as a search
        start: W = U V, each absorbed layer U_k multiplied into the next
        one as U_next (U_k (x) 1), the lift being the circuit unitary of
        U_k alone on the next layer's parties.  An absorbed layer at
        theta = 0 is dropped and leaves the next one as it is.  Raises
        ValueError, naming both layer lists, unless ``circuit`` has the
        template's layers by support and dimension."""
        _check_layers(circuit, self.template, "a warm start must have the search's layers")
        layers, below = [], None
        for layer, gone in zip(_times(circuit, self.rotations).layers, self.absorbed):
            if below is not None:
                inside = CircuitLayer(tuple(map(layer.support.index, below.support)),
                                      below.params)
                lifted = circuit_unitary(LocalCircuit((inside,)),
                                         [self.dims[p] for p in layer.support])
                product = build_unitary(layer.params) @ lifted
                layer = CircuitLayer(layer.support, params_for_unitary(product))
            below = layer if gone and layer.params.theta.any() else None
            if not gone:
                layers.append(layer)
        return LocalCircuit(tuple(layers), preset=circuit.preset)

    def to_state(self, circuit: LocalCircuit) -> LocalCircuit:
        """A circuit W the search found as the circuit on rho: U = W V†,
        each absorbed layer back in its place at theta = 0.  Raises
        ValueError, naming both layer lists, unless ``circuit`` has the
        layers of :attr:`circuit` by support and dimension."""
        _check_layers(circuit, self.circuit,
                      "a found circuit must have the search circuit's layers")
        found = iter(circuit.layers)
        layers = tuple(layer if gone else next(found)
                       for layer, gone in zip(self.template.layers, self.absorbed))
        return _times(LocalCircuit(layers, preset=circuit.preset),
                      [None if r is None else r.conj().T for r in self.rotations])


def _layer_list(circuit) -> list | str:
    """The (support, dimension) of each layer of a circuit; for anything
    else, its type name."""
    if not isinstance(circuit, LocalCircuit):
        return type(circuit).__name__
    return [(layer.support, layer.params.dim) for layer in circuit.layers]


def _check_layers(circuit, want: LocalCircuit, rule: str) -> None:
    """Raise ValueError, stating ``rule`` and both layer lists, unless
    ``circuit`` has the layers of ``want`` by support and dimension."""
    if _layer_list(circuit) != _layer_list(want):
        raise ValueError(f"{rule} (support, dimension) {_layer_list(want)}, "
                         f"got {_layer_list(circuit)}")


def _times(circuit: LocalCircuit, mats) -> LocalCircuit:
    """``circuit`` with each layer's unitary multiplied from the right by
    its entry of ``mats``; a layer whose entry is None is kept as it is."""
    layers = tuple(
        layer if m is None else CircuitLayer(
            layer.support, params_for_unitary(build_unitary(layer.params) @ m))
        for layer, m in zip(circuit.layers, mats))
    return LocalCircuit(layers, preset=circuit.preset)


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
    """The circuit of a parsed JSON object; an error in a layer names the
    layer's index."""
    if not isinstance(obj, dict) or not isinstance(obj.get("layers"), list):
        raise ValueError("circuit JSON must be an object with a 'layers' list")
    layers = []
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
            layers.append(CircuitLayer(tuple(entry["support"]), UnitaryParams(dim, theta)))
    return LocalCircuit(tuple(layers), preset=str(obj.get("preset", "custom")))


def save_circuit(circuit: LocalCircuit, path) -> None:
    pathlib.Path(path).write_text(json_text(circuit_to_json(circuit)))


def load_circuit(path) -> LocalCircuit:
    return read_json(path, "circuit", ValueError, circuit_from_json)
