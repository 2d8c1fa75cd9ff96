"""The single-party decision: the frame of least S among those with L = 0.

Under the ``single_party`` preset a frame is one unitary V_k per party.
:func:`single_party` decides, for a state, the frame a search runs in and
the pairs of basis vectors the search turns there.  Its one caller is
``unitary.Preset.search_frame``, for both preset kinds: a search on
single-party layers (``single_party``, and ``nonglobal`` on two parties)
runs in the frame and turns the pairs, and a ``nonglobal`` search on
three or more parties, whose layers hold every party, starts in the
frame where it is settled (no pair to turn) at a local sum of at most
``TOL_ZERO_L``, as such a circuit holds every product of the V_k.  It
runs three deciders in this order, each only where the one before left a
pair to turn, and a frame a decider settles leaves none, so it is
evaluated once.

1. :func:`eigenframe`.  S and L read only moduli, so a diagonal unitary
   multiplied onto a circuit from the left changes neither; every
   ``single_party`` layer is leftmost, so each layer's diagonal is gauge.
   A frame with L = 0 also diagonalizes every party's marginal rho_k: an
   off-diagonal entry of rho_k sums entries of rho that differ in party k
   alone, which are local.  So every zero-L frame maps rho_k's
   eigenvectors to basis vectors, up to a permutation and phases, which
   change neither S nor L, and within each eigenspace by any unitary.
   The chain therefore starts in the marginals' eigenframe, and leaves to
   turn only the pairs (i, j), i < j, of basis vectors in one eigenvalue
   group, eigenvalues closer than ``TOL_DEGENERATE`` sharing a group.  A
   pair spans a two-dimensional eigenspace exactly: every U(2) is
   D exp(iO), D a diagonal unitary and O off-diagonal.  So where every
   eigenspace has dimension <= 2 the restriction loses no zero-L frame;
   that the pairs of a larger eigenspace reach every unitary on it is a
   heuristic.  A marginal with one group, or exactly diagonal, keeps its
   basis.  Marginals with distinct eigenvalues leave no pair: the
   eigenframe is the decision.
2. :func:`two_qubit`, on two qubits alone.  The zero-L frames are the
   singular pairs of the correlation matrix T compatible with the Bloch
   vectors (the T picture of R. & M. Horodecki, PRA 54, 1838 (1996)), and
   the frame is the pair of least S.  Where no pair is compatible, no
   frame has L = 0, and nothing is decided.
3. :func:`projection`, on every other state, and never on two qubits,
   even where the two-qubit rule decides nothing.  A Jacobi projection
   onto L = 0 (Cardoso & Souloumiac, SIAM J. Matrix Anal. Appl. 17, 161
   (1996)) rotates the pairs inside one eigenvalue group until L <=
   ``TOL_ZERO_L``.  Frames with L = 0 can differ in S, so the frame is
   decided only where :func:`_least_turn` shows which zero-L frame has
   the least S: where every one has the S of the frame reached, or where
   the few left are tried in turn.  Where a round does not halve L, or
   where that is not shown, nothing is decided.

Where nothing is decided, the search runs in the eigenframe and turns the
pairs it left.  So no pair is left to turn on marginals with distinct
eigenvalues, on two qubits with a zero-L frame, and on every other state
the projection decides (the qubit-qutrit family, isotropic and GHZ states
in most frames, and a Bell-diagonal block beside a qutrit level).
"""

import itertools
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .coherence import class_masks
from .qstate import (TOL_COMPATIBLE, TOL_DEGENERATE, TOL_STABILIZER, TOL_ZERO_L, DensityMatrix,
                     in_local_frame, partial_trace)


def single_party(rho: DensityMatrix) -> tuple[tuple, list[np.ndarray]]:
    """The rotations V_k of ``rho``'s single-party frame (None for a party
    kept in its basis) and, per party, the mask of the pairs a search
    turns there (:func:`_same_group`): the eigenframe and its pairs, or a
    decided frame and masks all False."""
    rotations, groups = zip(*(eigenframe(partial_trace(rho, [k]).entries)
                              for k in range(rho.n_parties)))
    masks = [_same_group(g) for g in groups]
    if any(m.any() for m in masks):
        decided = (two_qubit(rho, [not g.any() for g in groups]) if rho.dims == (2, 2)
                   else projection(in_local_frame(rho, rotations), rotations, groups))
        if decided is not None:
            return decided, [np.zeros(m.shape, dtype=bool) for m in masks]
    return rotations, masks


def _same_group(groups: np.ndarray) -> np.ndarray:
    """The upper-triangle pairs (p, q) of basis vectors in one eigenvalue
    group, as a boolean mask over a layer's H."""
    return np.triu(groups[:, None] == groups, k=1)


def _groups(w: np.ndarray) -> np.ndarray:
    """The group number of each of the ascending values ``w``: a value
    closer than ``TOL_DEGENERATE`` to the one before joins its group."""
    return np.concatenate(([0], np.cumsum(np.diff(w) > TOL_DEGENERATE)))


def eigenframe(m: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
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


def two_qubit(rho: DensityMatrix, one_group) -> tuple | None:
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
    lowest k."""
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
    return compatible, np.linalg.norm((eye - n_a[:, :, None] * n_a[:, None, :]) @ t
                                      @ (eye - n_b[:, :, None] * n_b[:, None, :]), 2, axis=(1, 2))


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


def projection(start: DensityMatrix, rotations, groups) -> tuple | None:
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
    dims, a = start.dims, start.entries
    local = class_masks(dims)[1]
    level = np.abs(a[local]).sum()
    moved = [(k, x) for k, x in enumerate(np.argwhere(_same_group(g)) for g in groups) if len(x)]
    # the block pairs (m, m') whose off-diagonal entries are nonlocal: m
    # and m' apart in every other party
    apart = [np.nonzero(~_party_last(local, dims, k)[:, 0, :, 1]) for k in range(len(dims))]
    turns = [None] * len(dims)
    while level > TOL_ZERO_L:
        for k, pairs in moved:
            t = _party_last(a, dims, k)
            for p, q in pairs:
                g = _jacobi_rotation(t, apart[k], p, q)
                if g is not None:
                    t = np.einsum("ji,ajbl,lk->aibk", g.conj(), t, g)
                    turns[k] = _product(turns[k], g)
            a = _party_back(t, dims, k)
        last, level = level, np.abs(a[local]).sum()
        if level > max(last / 2, TOL_ZERO_L):
            return None
    least = _least_turn(a, dims, groups)
    if least is None:
        return None
    return tuple(_product(v, _product(x, w)) for v, x, w in zip(rotations, turns, least))


def _product(x: np.ndarray | None, y: np.ndarray | None) -> np.ndarray | None:
    """x @ y, where None stands for the identity."""
    return y if x is None else x if y is None else x @ y


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
    them is read off.  On ``opt_bipartite``'s qubit-qutrit inputs that is
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
        last, counts = counts, [c.max() + 1 for c in classes]
        if counts != last:
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
    (:func:`two_qubit`).  Where T's singular values differ by
    more than ``TOL_COMPATIBLE``, those are three pairs of axes: each is
    tried on A, and the least S among those at L <= ``TOL_ZERO_L`` is
    kept, A's own frame where it is tied with the least."""
    loose = [(k, np.flatnonzero(c == label)) for k, c in enumerate(classes)
             for label in np.unique(c) if np.count_nonzero(c == label) > 1]
    if [len(vectors) for _, vectors in loose] != [2, 2] or loose[0][0] == loose[1][0]:
        return None
    (j, vj), (k, vk) = loose
    state = DensityMatrix(dims, a)
    reduced = partial_trace(state, [j, k]).entries
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
        turned = in_local_frame(state, turn).entries
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

