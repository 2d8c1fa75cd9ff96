"""Each single-party decider runs on its own domain alone.

``decide.single_party`` runs the eigenframe, then the two-qubit rule on
two qubits alone, then the projection on every other state, and each only
where the one before left a pair to turn.  The projection never runs on
two qubits, not even where the two-qubit rule finds no compatible pair.
Spies on ``decide`` record which deciders ``Preset.search_frame`` calls.
"""

import pytest

from consonance import decide, states
from consonance.optimizer import Preset
from consonance.qstate import density_from_pure
from test_projection import DECIDED, UNDECIDED
from test_two_qubit_frame import fano


def deciders_called(rho):
    """The deciders ``Preset.search_frame`` calls on rho, in call order,
    each with what it returned, and the frame it returns."""
    calls = []

    def spy(name, decider):
        def run(*args):
            got = decider(*args)
            calls.append((name, got))
            return got
        return run

    with pytest.MonkeyPatch.context() as patch:
        for name in ("two_qubit", "projection"):
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
