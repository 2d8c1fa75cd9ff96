"""Single-party frames decided by the Jacobi projection onto L = 0.

Where the marginals' eigenframe still leaves a moved column and the state
is not two qubits, ``decide.projection`` rotates each party's pairs of
basis vectors inside one eigenvalue group by Jacobi rotations until the
local sum falls to ``TOL_ZERO_L``.  That frame is decided, and evaluated
once, only where the least-S proof, ``decide._least_turn``, shows which
zero-L frame has the least S.  Where a round does not halve the sum, or where that is not shown,
the eigenframe and its moved columns are returned unchanged and the search
runs.  Every decided case here is checked against an exact value, its
replay, and the Nelder-Mead reference of ``test_two_qubit_frame`` over the
eigenframe's moved columns.
"""

import math

import numpy as np
import pytest

from consonance import coherence, decide, measures, states, unitary
from consonance.coherence import local_coherence, nonlocal_sum
from consonance.optimizer import Preset, consonance
from consonance.qstate import DensityMatrix, density_from_pure, partial_trace
from test_acceptance import OPT_SMALL
from test_optimizer import _behind_a_frame
from test_two_qubit_frame import reference_search
from test_unitary import mixed_marginals, moved_columns, with_local_noise


def isotropic(d, p) -> DensityMatrix:
    """p |Φ_d><Φ_d| + (1 - p) I/d^2, whose consonance is p (d - 1): the
    identity lies on the diagonal in every frame, so S and L are p times
    those of |Φ_d>, whose Schmidt coefficients are all 1/sqrt(d)."""
    phi = np.zeros(d * d)
    phi[::d + 1] = 1.0 / math.sqrt(d)
    return DensityMatrix((d, d), p * np.outer(phi, phi) + (1.0 - p) * np.eye(d * d) / d ** 2)


def noisy_ghz(n, p) -> DensityMatrix:
    """p |GHZ_n><GHZ_n| + (1 - p) I/2^n, whose consonance is p."""
    ghz = density_from_pure(states.ghz(n)).entries
    return DensityMatrix((2,) * n, p * ghz + (1.0 - p) * np.eye(2 ** n) / 2 ** n)


def _qubit_qutrit_cases(seed, count):
    rng = np.random.default_rng(seed)
    cases = {}
    for k in range(count):
        alpha = rng.uniform(0.0, 0.3)
        gamma = rng.uniform(0.0, 1.0 - 2.0 * alpha)
        cases[f"qubit-qutrit-{k}"] = (
            _behind_a_frame(states.two_param_qubit_qutrit(alpha, gamma), seed=10 + k),
            measures.consonance_2x3(alpha, gamma))
    return cases


def embedded_bell_diagonal(c, w) -> DensityMatrix:
    """(1 - w) bell_diagonal(c) on the qubit and the qutrit's span{|0>, |1>},
    plus (w/2) I (x) |2><2|, whose consonance is (1 - w) times the middle
    |c_i|: with w != 1/3 the qutrit's |2> is an eigenvalue group of its
    own, so every zero-L frame turns only the Bell-diagonal block, whose
    axes give different values where the |c_i| differ."""
    entries = np.zeros((6, 6), dtype=np.complex128)
    block = [0, 1, 3, 4]    # |ij> is basis vector 3 i + j
    entries[np.ix_(block, block)] = (1.0 - w) * states.bell_diagonal(*c).entries
    entries[2, 2] = entries[5, 5] = w / 2.0
    return DensityMatrix((2, 3), entries)


def bell_diagonal_beside_a_coupled_level(c, w, coupling) -> DensityMatrix:
    """(1 - w) bell_diagonal(c) on span{|0>, |1>} of two qutrits, plus
    w |22><22| and ``coupling`` (|00><22| + |22><00|).  The coupling's
    entries differ in both parties in every frame that turns only the
    block, so each of the block's three zero-L axes keeps L = 0, and adds
    2 coupling times the l1 norm of |00> in that frame to S: 2 coupling on
    the z axes, 4 coupling on x or y."""
    entries = np.zeros((9, 9), dtype=np.complex128)
    block = [0, 1, 3, 4]
    entries[np.ix_(block, block)] = (1.0 - w) * states.bell_diagonal(*c).entries
    entries[8, 8] = w
    entries[0, 8] = entries[8, 0] = coupling
    return DensityMatrix((3, 3), entries)


def _embedded_bell_diagonal_cases(seed, count):
    # sum |c_i| <= 1 keeps every Bell weight (1 +- c_x +- c_y +- c_z)/4 >= 0
    rng = np.random.default_rng(seed)
    cases = {}
    for k in range(count):
        c = rng.uniform(-1.0, 1.0, 3)
        c *= rng.uniform(0.3, 1.0) / np.abs(c).sum()
        w = rng.uniform(0.4, 0.9)
        cases[f"embedded-bell-diagonal-{k}"] = (
            embedded_bell_diagonal(c, w), (1.0 - w) * measures.consonance_bell_diagonal(*c))
    return cases


# (state, exact value); every marginal of these has a degenerate
# eigenvalue, so the eigenframe alone moves columns and cannot decide
DECIDED = {
    "isotropic-3": (_behind_a_frame(isotropic(3, 0.5), seed=1), 1.0),
    "isotropic-4": (_behind_a_frame(isotropic(4, 0.7), seed=2), 2.1),
    "maximally-entangled-3": (_behind_a_frame(isotropic(3, 1.0), seed=3), 2.0),
    "maximally-entangled-4": (_behind_a_frame(isotropic(4, 1.0), seed=4), 3.0),
    **_qubit_qutrit_cases(seed=5, count=4),
    "ghz-3": (density_from_pure(states.ghz(3)), 1.0),
    "ghz-4": (density_from_pure(states.ghz(4)), 1.0),
    "ghz-3-random-frame": (_behind_a_frame(density_from_pure(states.ghz(3)), seed=1), 1.0),
    "ghz-4-random-frame": (_behind_a_frame(density_from_pure(states.ghz(4)), seed=2), 1.0),
    "noisy-ghz-3-random-frame": (_behind_a_frame(noisy_ghz(3, 0.6), seed=1), 0.6),
    # zero-L frames of three values, one per axis: the least is read off
    "embedded-bell-diagonal": (embedded_bell_diagonal((0.5, 0.2, 0.1), 0.5), 0.1),
    "embedded-bell-diagonal-random-frame": (
        _behind_a_frame(embedded_bell_diagonal((0.5, 0.2, 0.1), 0.5), seed=3), 0.1),
    **_embedded_bell_diagonal_cases(seed=1, count=3),
    # the x axes of the largest |c_i| give the block's least S, 0.1, but
    # the coupling adds 0.4 there and 0.2 on the z axes, whose block S is
    # 0.25: the least is 0.45, in the standard frame
    "bell-diagonal-beside-a-coupled-level": (
        bell_diagonal_beside_a_coupled_level((0.5, 0.2, 0.1), 0.5, 0.1), 0.45),
}


def eigenframe(rho):
    """The marginals' eigenframe and the columns a search moves there:
    ``decide.eigenframe``'s rotations, and this suite's ``moved_columns`` of
    its eigenvalue groups."""
    rotations, groups = zip(*(decide.eigenframe(partial_trace(rho, [k]).entries)
                              for k in range(rho.n_parties)))
    return rotations, moved_columns(Preset().build(rho.dims), [g.tolist() for g in groups])


@pytest.mark.parametrize("name", list(DECIDED))
def test_the_projection_decides_the_state_in_one_evaluation(name):
    rho, want = DECIDED[name]
    assert eigenframe(rho)[1]
    assert Preset().search_frame(rho).moved.tolist() == []
    report = consonance(rho, OPT_SMALL)
    assert report.n_evals == 1
    assert [r.kind for r in report.per_restart] == ["identity"]
    replayed = unitary.apply(report.circuit, rho)
    assert (report.value, report.l_residual) == (nonlocal_sum(replayed),
                                                 local_coherence(replayed))
    assert report.l_residual <= 1e-12
    assert abs(report.value - want) <= 1e-12


@pytest.mark.parametrize("rho", [density_from_pure(states.ghz(3)),
                                 density_from_pure(states.ghz(4)),
                                 states.two_param_qubit_qutrit(0.1, 0.3)],
                         ids=["ghz-3", "ghz-4", "qubit-qutrit"])
def test_a_state_with_l_0_in_its_eigenframe_keeps_its_rotations(rho):
    # L = 0 in the standard frame, which is the eigenframe, and every
    # zero-L frame has its S: nothing is rotated, and the report is that
    # frame's S bit for bit
    frame = Preset().search_frame(rho)
    assert all(r is None for r in frame.rotations)
    assert frame.moved.tolist() == []
    report = consonance(rho, OPT_SMALL)
    assert not report.circuit.theta.any()
    assert (report.value, report.l_residual) == (nonlocal_sum(rho), 0.0)


def test_an_embedded_bell_diagonal_state_has_zero_l_frames_of_different_s():
    # the standard frame and the one whose z axes are both x have L = 0,
    # with S = 0.25 and 0.1: a frame with L = 0 need not have the least S
    rho = DECIDED["embedded-bell-diagonal"][0]
    hadamard = np.array([[1, 1, 0], [1, -1, 0], [0, 0, math.sqrt(2)]]) / math.sqrt(2)
    u = np.kron(hadamard[:2, :2], hadamard)
    x_on_z = DensityMatrix(rho.dims, u.conj().T @ rho.entries @ u)
    assert (local_coherence(rho), local_coherence(x_on_z)) == (0.0, pytest.approx(0, abs=1e-15))
    assert nonlocal_sum(rho) == pytest.approx(0.25, abs=1e-15)
    assert nonlocal_sum(x_on_z) == pytest.approx(0.1, abs=1e-15)


# (state, exact value): the projection reaches L = 0, but which zero-L
# frame has the least S is not shown, so the search runs.  Two equal |c_i|
# leave a circle of axes in the x-y plane beside the z axis, and the one
# local rotation that keeps the state does not reach every qubit frame.
NOT_SHOWN = {
    "embedded-bell-diagonal-two-equal": (embedded_bell_diagonal((0.1, 0.1, 0.3), 0.4), 0.06),
    "embedded-bell-diagonal-two-equal-random-frame": (
        _behind_a_frame(embedded_bell_diagonal((0.1, 0.1, 0.3), 0.4), seed=1), 0.06),
}


@pytest.mark.parametrize("name", list(NOT_SHOWN))
def test_a_frame_not_shown_least_is_searched(name):
    rho, want = NOT_SHOWN[name]
    rotations, moved = eigenframe(rho)
    frame = Preset().search_frame(rho)
    for got, expect in zip(frame.rotations, rotations):
        assert (got is None and expect is None) or np.array_equal(got, expect)
    assert moved and frame.moved.tolist() == moved
    report = consonance(rho, OPT_SMALL)
    assert report.n_evals > 1
    assert report.value >= want - 1e-9


UNDECIDED = {
    # no zero-L frame: marginals I/d_k plus products of traceless matrices
    "mixed-marginals-2x3": mixed_marginals((2, 3), seed=1),
    "mixed-marginals-3x3": mixed_marginals((3, 3), seed=2),
    "mixed-marginals-2x2x2": mixed_marginals((2, 2, 2), seed=1),
    # a rotated qutrit eigenframe, with local noise that no frame removes
    "noisy-qubit-qutrit-random-frame": _behind_a_frame(
        with_local_noise(states.two_param_qubit_qutrit(0.1, 0.3), 1e-3, seed=1), seed=3),
    # a zero-L frame exists, but from this start the rotations settle
    # at L = 6, where no pair rotation lowers the local mass
    "ghz-4-random-frame": _behind_a_frame(density_from_pure(states.ghz(4)), seed=1),
}


@pytest.mark.parametrize("name", list(UNDECIDED))
def test_a_stalled_projection_leaves_the_eigenframe(name):
    rho = UNDECIDED[name]
    rotations, moved = eigenframe(rho)
    frame = Preset().search_frame(rho)
    assert len(frame.rotations) == len(rotations)
    for got, want in zip(frame.rotations, rotations):
        assert (got is None and want is None) or np.array_equal(got, want)
    assert moved and frame.moved.tolist() == moved
    assert consonance(rho, OPT_SMALL).n_evals > 1


def _pair_mass(t, g):
    """The sum of |.|^2 over the local entries of A, laid out as
    ``decide._party_last`` of a two-party state, after G_k† A G_k."""
    t = np.einsum("ji,ajbl,lk->aibk", g.conj(), t, g)
    r, d = t.shape[:2]
    local = np.ones(t.shape, dtype=bool)
    for m in range(r):
        local[m, :, m, :] = ~np.eye(d, dtype=bool)      # equal indices: off-diagonal
        for n in range(r):
            if n != m:
                local[m, :, n, :] = np.eye(d, dtype=bool)  # apart: diagonal
    return float((np.abs(t[local]) ** 2).sum())


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_pair_rotation_leaves_the_least_local_mass(seed):
    # on a random two-party state, G beats 300 random rotations of the pair
    rng = np.random.default_rng(seed)
    rho = states.random_density((3, 2), seed=seed)
    dims = rho.dims
    t = decide._party_last(rho.entries, dims, 0)
    local = coherence.class_masks(dims)[1]
    apart = np.nonzero(~decide._party_last(local, dims, 0)[:, 0, :, 1])
    g = decide._jacobi_rotation(t, apart, 0, 2)
    assert np.abs(g.conj().T @ g - np.eye(3)).max() <= 1e-15
    best = _pair_mass(t, g)
    assert best < _pair_mass(t, np.eye(3))
    for _ in range(300):
        x = rng.normal(size=3)
        x *= np.sign(x[0]) / np.linalg.norm(x)
        c = math.sqrt((1 + x[0]) / 2)
        s = (x[1] - 1j * x[2]) / (2 * c)
        other = np.eye(3, dtype=complex)
        other[0, 0] = other[2, 2] = c
        other[0, 2], other[2, 0] = -np.conj(s), s
        assert best <= _pair_mass(t, other) + 1e-15


@pytest.mark.parametrize("name", list(DECIDED))
def test_no_search_goes_below_the_projection(name):
    rho = DECIDED[name][0]
    rotations, moved = eigenframe(rho)
    found = reference_search(rho, 1, rotations, moved, maxfev=400)
    assert found >= consonance(rho, OPT_SMALL).value - 1e-9
    # the reference reaches L <= EPS_L, so the check is not empty, on
    # every case but these, whose zero-L frames it misses at this budget
    assert math.isfinite(found) or name in {"isotropic-3", "isotropic-4", "maximally-entangled-4",
                                            "ghz-3-random-frame", "ghz-4-random-frame"}
