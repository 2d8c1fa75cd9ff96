"""Each single-party decider runs on its own domain alone.

``decide.single_party`` runs the eigenframe, then the two-qubit rule on
two qubits alone, then the projection on every other state, and each only
where the one before left a pair to turn.  The projection never runs on
two qubits, not even where the two-qubit rule finds no compatible pair.
Spies on ``decide`` record which deciders ``Preset.search_frame`` calls,
and where a decider leaves the search to run.
"""

import math

import numpy as np
import pytest

from consonance import decide, states, unitary
from consonance.coherence import local_coherence, nonlocal_sum
from consonance.optimizer import Preset, consonance
from consonance.qstate import DensityMatrix, density_from_pure
from test_acceptance import OPT_SMALL
from test_projection import DECIDED, UNDECIDED
from test_two_qubit_frame import fano


def deciders_called(rho, names=("two_qubit", "projection")):
    """The functions of ``decide`` named in ``names`` that
    ``Preset.search_frame`` calls on rho, in call order, each with what it
    returned, and the frame it returns."""
    calls = []

    def spy(name, decider):
        def run(*args):
            got = decider(*args)
            calls.append((name, got))
            return got
        return run

    with pytest.MonkeyPatch.context() as patch:
        for name in names:
            patch.setattr(decide, name, spy(name, getattr(decide, name)))
        frame = Preset().search_frame(rho)
    return calls, frame


def test_two_qubits_with_no_compatible_pair_never_reach_the_projection():
    # the state of test_two_qubit_frame.test_no_compatible_pair_runs_the_search
    rho = fano([0, 0, 0], [0, 0, 0.2], [[0.3, 0, 0.2], [0, -0.1, 0], [0.1, 0, 0.2]])
    calls, frame = deciders_called(rho)
    assert calls == [("two_qubit", None)]
    assert frame.moved.tolist() == [2, 3]


@pytest.mark.parametrize("rho", [DECIDED["qubit-qutrit-0"][0],
                                 UNDECIDED["noisy-qubit-qutrit-random-frame"]],
                         ids=["decided", "stalled"])
def test_a_qubit_qutrit_state_never_reaches_the_two_qubit_rule(rho):
    calls, frame = deciders_called(rho)
    assert [name for name, _ in calls] == ["projection"]
    assert (calls[0][1] is None) == bool(len(frame.moved))


@pytest.mark.parametrize("rho", [states.random_density((2, 2), seed=1),
                                 states.random_density((2, 3), seed=2),
                                 density_from_pure(states.w_state(3))],
                         ids=["random-2x2", "random-2x3", "w-3"])
def test_marginals_with_distinct_eigenvalues_reach_neither_decider(rho):
    calls, frame = deciders_called(rho)
    assert calls == []
    assert frame.moved.tolist() == []


def assert_replays(rho):
    report = consonance(rho, OPT_SMALL)
    replayed = unitary.apply(report.circuit, rho)
    assert (report.value, report.l_residual) == (nonlocal_sum(replayed),
                                                 local_coherence(replayed))


def test_three_loose_pairs_leave_the_least_turn_undecided():
    # marginals I/2 and L = 0 in its own frame, and no local unitary keeps
    # it, so a loose pair is left on each of the three parties
    x, y, z = np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])
    cube = [np.kron(np.kron(m, m), m) for m in (x, y, z)]
    rho = DensityMatrix((2, 2, 2), (np.eye(8) + 0.3 * cube[0] + 0.2 * cube[1]
                                    + 0.1 * cube[2]) / 8)
    calls, frame = deciders_called(rho, ("_pair_turn",))
    assert calls == [("_pair_turn", None)]
    assert frame.moved.tolist() == [2, 3, 6, 7, 10, 11]
    assert frame.rotations == (None, None, None)
    assert_replays(rho)


def test_a_pair_with_no_weight_is_not_turned():
    # a turned Bell-diagonal block on the qutrit's level 2: the qutrit's
    # pair (0, 1) carries no weight, so its Jacobi rotation is None
    c, s = math.cos(0.4), math.sin(0.4)
    turn = np.kron(*[np.array([[c, -s], [s, c]])] * 2)
    block = turn @ states.bell_diagonal(0.5, 0.2, 0.1).entries @ turn.T
    rho = DensityMatrix((3, 2, 2), np.kron(np.diag([0.0, 0.0, 1.0]), block))
    calls, frame = deciders_called(rho, ("_jacobi_rotation", "projection"))
    assert [got is None for name, got in calls if name == "_jacobi_rotation"].count(True) == 2
    assert calls[-1] == ("projection", None)
    assert frame.moved.tolist() == [3, 4, 11, 12, 15, 16]
    assert frame.rotations == (None, None, None)
    assert_replays(rho)
