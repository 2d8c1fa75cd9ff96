"""Two-qubit single_party inputs decided in closed form.

Write rho = (I + a.σ (x) I + I (x) b.σ + sum_ij T_ij σ_i (x) σ_j)/4.  A
frame has L = 0 exactly when its z axes (n_A, n_B) are a singular pair of
T compatible with a and b, and S there is the larger of T's other two
singular values.  Where some marginal is one eigenvalue group, the search
frame is the compatible pair of least S, evaluated once.  Every case
here checks the rule against an exact value, its replay, and a
Nelder-Mead search over U(2) x U(2) built in this file.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from consonance import coherence, measures, states, unitary
from consonance.coherence import local_coherence, nonlocal_sum
from consonance.optimizer import EPS_L, PENALTY_MUS, Preset, consonance
from consonance.qstate import DensityMatrix, validate
from test_acceptance import OPT_SMALL
from test_unitary import maximally_mixed

_PAULI = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
          np.diag([1.0, -1.0]))
_S_AND_L = (coherence.CoherenceClass.NONLOCAL, coherence.CoherenceClass.LOCAL)


def fano(a, b, t) -> DensityMatrix:
    """(I + a.σ (x) I + I (x) b.σ + sum_ij t_ij σ_i (x) σ_j)/4."""
    m = np.eye(4, dtype=np.complex128)
    for i in range(3):
        m += a[i] * np.kron(_PAULI[i + 1], _PAULI[0]) + b[i] * np.kron(_PAULI[0], _PAULI[i + 1])
        for j in range(3):
            m += t[i][j] * np.kron(_PAULI[i + 1], _PAULI[j + 1])
    return DensityMatrix((2, 2), m / 4)


def _haar(rng) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def behind_a_frame(rho, seed) -> DensityMatrix:
    """rho seen through a Haar-random product of single-qubit unitaries."""
    rng = np.random.default_rng(seed)
    u = np.kron(_haar(rng), _haar(rng))
    m = u @ rho.entries @ u.conj().T
    return DensityMatrix((2, 2), (m + m.conj().T) / 2)


def x_state() -> DensityMatrix:
    """An X-state with marginals I/2 and diag(0.4, 0.6): L = 0 in its own
    frame, the one compatible pair, where S = 2 (|rho_03| + |rho_12|)."""
    m = np.diag([0.3, 0.2, 0.1, 0.4]).astype(np.complex128)
    m[0, 3] = 0.25 * np.exp(0.3j)
    m[1, 2] = 0.1 * np.exp(-1.1j)
    return DensityMatrix((2, 2), m + np.triu(m, 1).conj().T)


# (state, exact value, whether the identity frame is the rule's frame)
CASES = {
    # T = diag(c): the pair along the largest |c_i| leaves the middle one
    "bell-diagonal": (states.bell_diagonal(0.25, -0.7, 0.05), 0.25, False),
    "bell-diagonal-random-frame": (
        behind_a_frame(states.bell_diagonal(-0.6346, 0.7602, 0.6247), seed=3), 0.6346, False),
    "bell-diagonal-one-axis": (behind_a_frame(states.bell_diagonal(0, 0, 0.4), seed=4),
                               0.0, False),
    "werner": (states.werner(0.5), 0.5, True),
    "werner-random-frame": (behind_a_frame(states.werner(0.3), seed=5), 0.3, False),
    "maximally-mixed": (maximally_mixed((2, 2)), 0.0, True),
    # a = 0 and b along z: b forces n_B = z, and T z is along z
    "x-state": (x_state(), 0.7, True),
    # b forces n_B along z, where S is max(|c_x|, |c_y|), not the middle |c_i|
    "one-marginal-mixed": (behind_a_frame(fano([0, 0, 0], [0, 0, 0.1],
                                               np.diag([0.6, -0.2, 0.3])), seed=6), 0.6, False),
    # a forces n_A = z, T^T z = 0, and n_B is the null vector of T
    "zero-singular-value": (behind_a_frame(fano([0, 0, 0.2], [0, 0, 0],
                                                np.diag([0.5, -0.3, 0])), seed=7), 0.5, False),
}


@pytest.mark.parametrize("name", list(CASES))
def test_the_rule_decides_the_state_in_one_evaluation(name):
    rho, want, identity = CASES[name]
    frame = Preset().search_frame(rho)
    assert frame.moved.tolist() == []
    assert all(r is None for r in frame.rotations) == identity
    report = consonance(rho, OPT_SMALL)
    assert report.n_evals == 1
    assert [r.kind for r in report.per_restart] == ["identity"]
    replayed = unitary.apply(report.circuit, rho)
    assert (report.value, report.l_residual) == (nonlocal_sum(replayed),
                                                 local_coherence(replayed))
    assert report.l_residual <= 1e-12
    assert abs(report.value - want) <= 1e-12


@pytest.mark.parametrize("name", [n for n, (_, _, identity) in CASES.items() if identity])
def test_the_identity_frame_reports_its_own_s_bit_for_bit(name):
    rho = CASES[name][0]
    report = consonance(rho, OPT_SMALL)
    assert not report.circuit.theta.any()
    assert report.value == nonlocal_sum(rho)


def test_the_bell_diagonal_closed_form_is_the_middle_coefficient():
    for c in [(0.25, -0.7, 0.05), (-0.6346, 0.7602, 0.6247), (0, 0, 0.4), (-1, -1, -1)]:
        rho = states.bell_diagonal(*c)
        assert states.consonance_closed_form("bell_diagonal", c_x=c[0], c_y=c[1],
                                             c_z=c[2]) == sorted(map(abs, c))[1]
        assert np.abs(rho.entries - fano([0] * 3, [0] * 3, np.diag(c)).entries).max() <= 1e-15
    assert np.array_equal(states.bell_diagonal(-1, -1, -1).entries,
                          states.werner(1.0).entries)


@pytest.mark.parametrize("c", [(1, 1, 1), (0.5, 0.5, 0.5), (1 + 1e-9, 0, 0),
                               (math.nan, 0, 0), (math.inf, 0, 0), (0, -math.inf, 0)])
def test_an_unphysical_bell_diagonal_state_is_refused(c):
    # a weight (1 +- c_x +- c_y +- c_z)/4 below 0, or NaN, never builds a state
    with pytest.raises(ValueError, match="weight"):
        states.bell_diagonal(*c)
    with pytest.raises(ValueError, match="weight"):
        measures.consonance_bell_diagonal(*c)


def test_the_bell_diagonal_boundary_builds():
    # every weight at 0 but one; a weight TOL_UNIT below 0 is clamped
    for c in [(1, -1, 1), (-1, 1, 1), (1, 1, -1), (-1, -1, -1), (1, -1, 1 + 1e-13)]:
        validate(states.bell_diagonal(*c))


def test_no_compatible_pair_runs_the_search():
    # a = 0 and b along z, but T z is not along z: the identity start alone
    # is no rule frame, and no pair is compatible
    rho = fano([0, 0, 0], [0, 0, 0.2], [[0.3, 0, 0.2], [0, -0.1, 0], [0.1, 0, 0.2]])
    validate(rho)
    frame = Preset().search_frame(rho)
    assert frame.moved.tolist() == [2, 3]
    assert consonance(rho, OPT_SMALL).n_evals > 1


def _sixty_fourths(top):
    return st.integers(-top, top).map(lambda k: k / 64)


@given(c=st.tuples(*[_sixty_fourths(64)] * 3), beta=_sixty_fourths(19),
       axis=st.integers(0, 2), seed=st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_the_value_is_covariant_under_local_frames(c, beta, axis, seed):
    # Bell-diagonal states, with b along one axis of T or 0: the value
    # behind a random local frame is the value in the standard frame.  On
    # a grid of 1/64, two values of T are equal or apart by far more than
    # the tolerance within which the identity frame ties the least S
    b = np.zeros(3)
    b[axis] = beta
    rho = fano([0, 0, 0], b, np.diag(c))
    assume(np.linalg.eigvalsh(rho.entries)[0] >= 1e-9)
    standard = consonance(rho, OPT_SMALL)
    rotated = consonance(behind_a_frame(rho, seed), OPT_SMALL)
    assert standard.n_evals == rotated.n_evals == 1
    assert max(standard.l_residual, rotated.l_residual) <= 1e-12
    assert abs(rotated.value - standard.value) <= 1e-12
    want = sorted(map(abs, c))[1] if beta == 0 else max(abs(x) for k, x in enumerate(c)
                                                          if k != axis)
    assert abs(standard.value - want) <= 1e-12


def reference_search(rho, seed, rotations=None, moved=None, starts=3, maxfev=500) -> float:
    """The least S at L <= EPS_L over every frame that scipy's Nelder-Mead
    on S + mu L visits: the preset's circuit on V† rho V, V the product of
    ``rotations`` (None: no rotation), moving the columns ``moved`` (None:
    every column), through ``FrameBuilder`` and ``class_sums``, from the
    identity and seeded random starts, through the penalty stages."""
    frames = unitary.FrameBuilder(Preset().build(rho.dims).shape, rho.dims)
    moved = np.arange(frames.n_theta) if moved is None else np.asarray(moved)
    v = np.eye(1)
    for d, r in zip(rho.dims, rotations or (None,) * len(rho.dims)):
        v = np.kron(v, np.eye(d) if r is None else r)
    entries = v.conj().T @ rho.entries @ v
    rng = np.random.default_rng(seed)
    best = math.inf

    def penalized(y, mu):
        nonlocal best
        theta = np.zeros(frames.n_theta)
        theta[moved] = y
        rotated = unitary.conjugate(frames, entries, theta[None])
        (s,), (l,) = coherence.class_sums(rotated, rho.dims, _S_AND_L)
        if l <= EPS_L:
            best = min(best, s)
        return s + mu * l

    for k in range(starts):
        x = rng.uniform(-math.pi, math.pi, len(moved)) if k else np.zeros(len(moved))
        for mu in PENALTY_MUS:
            x = minimize(penalized, x, args=(mu,), method="Nelder-Mead",
                         options={"maxfev": maxfev, "xatol": 1e-10, "fatol": 1e-12}).x
    return best


@pytest.mark.parametrize("name", [n for n in CASES if n != "maximally-mixed"])
def test_no_search_goes_below_the_rule(name):
    rho = CASES[name][0]
    found = reference_search(rho, seed=1)
    assert found >= consonance(rho, OPT_SMALL).value - 1e-9
    # the reference reaches L <= EPS_L, so the check is not empty, on
    # every case but this one, whose zero-L frames it misses at this budget
    assert math.isfinite(found) or name == "zero-singular-value"
