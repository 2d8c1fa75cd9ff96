"""The single_party search in the marginals' eigenframe.

Every zero-L single_party frame diagonalizes every party's marginal, so
the search runs on rho in the marginals' eigenframe and moves only the
pairs inside one eigenvalue group.  Where every group is one eigenvalue,
nothing moves and the eigenframe alone decides the state.
"""

import math

import numpy as np
import pytest

from consonance import measures, states, unitary
from consonance.optimizer import EPS_L, OptimizerConfig, Preset, consonance
from consonance.qstate import TOL_DEGENERATE, PureState, density_from_pure, partial_trace
from test_acceptance import OPT_SMALL
from test_optimizer import _behind_a_frame, _inverse


def _schmidt_2x3(p0):
    """sqrt(p0)|00> + sqrt(1 - p0)|11> on a qubit and a qutrit."""
    amps = np.zeros(6)
    amps[0], amps[4] = math.sqrt(p0), math.sqrt(1.0 - p0)
    return PureState((2, 3), amps)


@pytest.mark.parametrize("dims", [(2, 3), (3, 3), (2, 4)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_pure_states_in_random_frames_are_decided(dims, seed):
    psi = states.random_pure(dims, seed)
    report = consonance(_behind_a_frame(density_from_pure(psi), seed), OPT_SMALL)
    assert report.feasible
    assert abs(report.value - measures.consonance_pure_bipartite(psi)) <= 1e-12


def test_w3_has_no_zero_l_single_party_frame_in_one_evaluation():
    # the marginals are diag(2/3, 1/3): no pair moves, and L = 2 there
    report = consonance(states.w_state(3), OPT_SMALL)
    assert report.n_evals == 1
    assert [r.kind for r in report.per_restart] == ["identity"]
    assert abs(report.l_residual - 2.0) <= 1e-12
    assert not report.feasible


@pytest.mark.parametrize("alpha,gamma", [(0.0, 0.5), (0.05, 0.3), (0.1, 0.3),
                                         (0.2, 0.1), (0.25, 0.45)])
def test_qubit_qutrit_in_random_frames_matches_closed_form(alpha, gamma):
    rho = _behind_a_frame(states.two_param_qubit_qutrit(alpha, gamma), seed=7)
    report = consonance(rho, OPT_SMALL)
    assert report.feasible
    assert abs(report.value - measures.consonance_2x3(alpha, gamma)) <= 1e-9


def test_an_exact_degeneracy_behind_a_random_frame_is_grouped():
    # the qubit's marginal is I/2 and the qutrit's diag(0.4, 0.4, 0.2),
    # both seen through a random frame, where eigh splits the doubled
    # eigenvalue by rounding alone
    rho = _behind_a_frame(states.two_param_qubit_qutrit(0.1, 0.3), seed=3)
    w = np.linalg.eigvalsh(partial_trace(rho, [1]).entries)
    assert 0.0 < w[2] - w[1] < 1e-14
    frame = Preset().search_frame(rho)
    assert frame.rotations[0] is None and frame.rotations[1] is not None
    # the qubit's pair, and the qutrit's (1, 2) pair in ascending eigenvalue order
    assert frame.moved.tolist() == [2, 3, 11, 12]
    report = consonance(rho, OPT_SMALL)
    assert report.feasible
    assert abs(report.value - measures.consonance_2x3(0.1, 0.3)) <= 1e-9


@pytest.mark.parametrize("gap,moved", [(2 * TOL_DEGENERATE, 0),
                                       (TOL_DEGENERATE / 2, 4)])
def test_a_gap_beside_the_tolerance_is_split_or_grouped_and_solved(gap, moved):
    # Schmidt weights (1 +- gap) / 2: the qubit's marginal has that gap,
    # and so do the qutrit's two nonzero eigenvalues; split, nothing moves
    # and the eigenframe decides; grouped, each pair moves and is searched
    psi = _schmidt_2x3((1.0 + gap) / 2.0)
    rho = _behind_a_frame(density_from_pure(psi), seed=5)
    assert len(Preset().search_frame(rho).moved) == moved
    report = consonance(rho, OPT_SMALL)
    assert report.feasible and report.l_residual <= EPS_L
    assert abs(report.value - measures.consonance_pure_bipartite(psi)) <= 1e-9
    assert (report.n_evals == 1) == (moved == 0)


def test_a_warm_start_on_a_rotated_layer_starts_from_its_frame():
    # a warm start U enters the search as U V, so the inverse of the frame
    # a Schmidt form is seen through takes it back there, L = 0, at once
    rng = np.random.default_rng(4)
    circuit = Preset().build((2, 3))
    circuit = unitary.with_theta(circuit, rng.uniform(-math.pi, math.pi, circuit.n_theta))
    psi = _schmidt_2x3(0.3)
    rho = unitary.apply(circuit, density_from_pure(psi))
    config = OptimizerConfig(restarts=1, seed=1, max_evals=3000,
                             warm_starts=(_inverse(circuit),))
    report = consonance(rho, config)
    assert [(r.kind, r.evals) for r in report.per_restart] == [("identity", 1), ("warm", 1)]
    warm = report.per_restart[1]
    assert warm.l_residual <= 1e-12
    assert abs(warm.value - measures.consonance_pure_bipartite(psi)) <= 1e-12
