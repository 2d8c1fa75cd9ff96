"""The circuit and frame a search runs in.

Every zero-L single_party frame diagonalizes every party's marginal, so
the search runs on rho in the marginals' eigenframe and moves only the
pairs inside one eigenvalue group.  Where every group is one eigenvalue,
nothing moves and the eigenframe alone decides the state.

A nonglobal search leaves out what S and L cannot see: each layer whose
support lies inside the next layer's, and each remaining layer's last
diagonal column, which carries only the trace.
"""

import math

import numpy as np
import pytest

from consonance import measures, optimizer, states, unitary
from consonance.coherence import local_coherence, nonlocal_sum
from consonance.optimizer import EPS_L, OptimizerConfig, Preset, consonance
from consonance.qstate import TOL_DEGENERATE, PureState, density_from_pure, partial_trace
from consonance.unitary import NONGLOBAL, circuit_unitary
from test_acceptance import GHZ3_WITNESS, OPT_SMALL, W3_WITNESS
from test_nonglobal_lift import noisy_ghz3_behind_a_haar_frame
from test_optimizer import _behind_a_frame, _circuit_of, _inverse
from test_unitary import maximally_mixed, mixed_marginals, template_columns, with_local_noise


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
    # the qubit's marginal is I/2 and the qutrit's diag(0.4, 0.4, 0.2) (to
    # 1e-10), both seen through a random frame, where eigh splits the
    # doubled eigenvalue by rounding alone; the local noise, 1e-10 of the
    # state, keeps the projection from deciding it, so the search runs
    rho = _behind_a_frame(with_local_noise(states.two_param_qubit_qutrit(0.1, 0.3), 1e-10,
                                           seed=1), seed=3)
    w = np.linalg.eigvalsh(partial_trace(rho, [1]).entries)
    assert 0.0 < w[2] - w[1] < 1e-14
    frame = Preset().search_frame(rho)
    assert frame.rotations[0] is None and frame.rotations[1] is not None
    # the qubit's pair, and the qutrit's (1, 2) pair in ascending eigenvalue order
    assert frame.moved.tolist() == [2, 3, 11, 12]
    report = consonance(rho, OPT_SMALL)
    assert report.feasible
    assert abs(report.value - measures.consonance_2x3(0.1, 0.3)) <= 1e-9


def test_a_qubit_qutrit_state_with_maximally_mixed_marginals_is_decided():
    # at alpha = 1/6 the marginals are I/2 and I/3, so the eigenframe moves
    # all 8 off-diagonal columns, and behind this frame the search ended
    # infeasible at OPT_SMALL (L = 1.8e-4, S = 0.17796, 6010 evaluations);
    # the projection reaches L = 0, and that frame is evaluated once
    circuit = unitary.with_theta(Preset().build((2, 3)),
                                 np.random.default_rng(2).uniform(-math.pi, math.pi, 13))
    rho = unitary.apply(circuit, states.two_param_qubit_qutrit(1 / 6, 0.3))
    assert Preset().search_frame(rho).moved.tolist() == []
    report = consonance(rho, OPT_SMALL)
    assert report.n_evals == 1 and report.feasible
    assert report.l_residual <= 1e-12
    assert abs(measures.consonance_2x3(1 / 6, 0.3) - 8 / 45) <= 1e-15
    assert abs(report.value - 8 / 45) <= 1e-12
    replayed = unitary.apply(report.circuit, rho)
    assert (report.value, report.l_residual) == (nonlocal_sum(replayed),
                                                 local_coherence(replayed))


@pytest.mark.parametrize("gap,moved", [(2 * TOL_DEGENERATE, 0),
                                       (TOL_DEGENERATE / 2, 4)])
def test_a_gap_beside_the_tolerance_is_split_or_grouped_and_solved(gap, moved):
    # Schmidt weights (1 +- gap) / 2: the qubit's marginal has that gap,
    # and so do the qutrit's two largest eigenvalues; split, nothing moves
    # and the eigenframe decides; grouped, each pair moves and is searched
    # (the local noise, 1e-10 of the state, keeps the projection from
    # deciding it)
    psi = _schmidt_2x3((1.0 + gap) / 2.0)
    rho = _behind_a_frame(with_local_noise(density_from_pure(psi), 1e-10, seed=1), seed=5)
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


# --- nonglobal: no absorbed layer and no trace column moves --------------


def _shape(circuit):
    return [(layer.support, layer.params.dim) for layer in circuit.layers]


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (2, 2, 2, 2)])
@pytest.mark.parametrize("depth", [2, 3, 4])
@pytest.mark.parametrize("seed", [1, 2])
def test_the_nonglobal_search_circuit_loses_no_frame(dims, depth, seed):
    # a start's absorbed layer is multiplied into the next one, and a
    # found circuit gets it back at theta = 0: the circuit unitary is kept
    preset = Preset(NONGLOBAL, depth)
    frame = preset.search_frame(states.random_density(dims, seed=seed))
    assert frame.absorbed[0] and not any(frame.absorbed[1:])
    rng = np.random.default_rng(seed)
    circuit = unitary.with_theta(preset.build(dims),
                                 rng.uniform(-math.pi, math.pi, frame.template.n_theta))
    search = frame.to_search(circuit)
    assert _shape(search) == _shape(frame.circuit)
    back = frame.to_state(search)
    assert _shape(back) == _shape(circuit) and back.preset == circuit.preset
    assert np.abs(circuit_unitary(back, dims) - circuit_unitary(circuit, dims)).max() <= 1e-12
    for layer, gone in zip(back.layers, frame.absorbed):
        assert layer.params.theta.any() != gone


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_warm_start_with_an_absorbed_layer_enters_a_lifted_frame(seed):
    # the search circuit's (0, 1) layer is U_01 (U_0 (x) 1)(V_0 (x) V_1): the
    # absorbed layer's lift first, then the rotation, and the round trip
    # back to rho keeps the circuit unitary
    rho = noisy_ghz3_behind_a_haar_frame(0.6, seed)
    frame = Preset(NONGLOBAL, 3).search_frame(rho)
    assert all(r is not None for r in frame.rotations)
    rng = np.random.default_rng(seed)
    circuit = unitary.with_theta(frame.template,
                                 rng.uniform(-math.pi, math.pi, frame.template.n_theta))
    assert circuit.layers[0].params.theta.any() and frame.absorbed[0]
    v = np.kron(np.kron(*frame.rotations[:2]), frame.rotations[2])
    search = frame.to_search(circuit)
    u = circuit_unitary(circuit, rho.dims)
    assert np.abs(circuit_unitary(search, rho.dims) - u @ v).max() <= 1e-12
    back = frame.to_state(search)
    assert _shape(back) == _shape(circuit) and not back.layers[0].params.theta.any()
    assert np.abs(circuit_unitary(back, rho.dims) - u).max() <= 1e-12


@pytest.mark.parametrize("path", [GHZ3_WITNESS, W3_WITNESS])
def test_a_witness_enters_the_nonglobal_search_bit_for_bit(path):
    # the witnesses hold their (0,) layer at theta = 0, so no product is taken
    witness = unitary.load_circuit(path)
    frame = Preset(NONGLOBAL).search_frame(states.random_density((2, 2, 2), seed=1))
    search = frame.to_search(witness)
    assert (unitary.theta_vector(search) == unitary.theta_vector(witness)[4:]).all()
    assert (unitary.theta_vector(frame.to_state(search))
            == unitary.theta_vector(witness)).all()


def test_a_depth_3_search_on_three_qubits_moves_30_of_36_columns():
    frame = Preset(NONGLOBAL, 3).search_frame(density_from_pure(states.ghz(3)))
    assert frame.template.n_theta == 36
    # none in the absorbed (0,) layer, none at a layer's last diagonal entry
    assert template_columns(frame) == [c for c in range(4, 36) if c not in (4 + 3, 20 + 3)]
    assert frame.absorbed == (True, False, False)
    assert _shape(frame.circuit) == [((0, 1), 4), ((0, 2), 4)]
    assert frame.moved.tolist() == [c for c in range(32) if c not in (3, 19)]


@pytest.mark.parametrize("dims,depth", [((2, 2, 2), 1), ((2, 3, 2, 2), 1), ((2, 2), 1),
                                        ((2, 2), 4), ((3, 2), 3)])
def test_depth_one_and_two_parties_absorb_nothing(dims, depth):
    # a two-party preset cycles (0,), (1,), and neither holds the other
    preset = Preset(NONGLOBAL, depth)
    frame = preset.search_frame(maximally_mixed(dims))
    assert not any(frame.absorbed)
    assert _shape(frame.circuit) == _shape(preset.build(dims))
    columns, offset = [], 0
    for _, d in _shape(frame.circuit):
        columns += [offset + k for k in range(d * d) if k != d - 1]
        offset += d * d
    assert frame.moved.tolist() == template_columns(frame) == columns


def test_the_single_party_moved_columns_are_unchanged():
    # every marginal of these states is one eigenvalue group; a two-qubit
    # state is decided in closed form from its correlation matrix, and
    # moves none; the projection stalls on mixed_marginals, so its search
    # moves every pair
    for rho, columns in [(states.werner(0.5), []),
                         (mixed_marginals((3, 3), seed=1),
                          [3, 4, 5, 6, 7, 8, 12, 13, 14, 15, 16, 17]),
                         (mixed_marginals((2, 3), seed=1), [2, 3, 7, 8, 9, 10, 11, 12]),
                         (mixed_marginals((2, 2, 2), seed=1), [2, 3, 6, 7, 10, 11])]:
        assert Preset().search_frame(rho).moved.tolist() == columns
    frame = Preset().search_frame(maximally_mixed((3, 3)))
    assert not any(frame.absorbed)
    assert _shape(frame.circuit) == _shape(Preset().build((3, 3)))


@pytest.mark.parametrize("preset,dims,side,layers", [
    # the search's own 2 layers, which came back as 1 layer and 16 columns
    (Preset(NONGLOBAL, 3), (2, 2, 2), "to_search", [((0, 1), 4), ((0, 2), 4)]),
    (Preset(NONGLOBAL, 3), (2, 2, 2), "to_search", [((0,), 4), ((0, 1), 2), ((0, 2), 4)]),
    (Preset(NONGLOBAL, 3), (2, 2, 2), "to_search", np.zeros(36)),
    # one layer of the search's two, which ran out of layers mid-circuit
    (Preset(NONGLOBAL, 3), (2, 2, 2), "to_state", [((0, 2), 4)]),
    (Preset(), (2, 3), "to_state", [((0,), 3), ((1,), 2)]),
    (Preset(NONGLOBAL, 3), (2, 2, 2), "to_state", np.zeros(32)),
    (Preset(), (2, 3), "to_search", [((0,), 2)]),
    (Preset(), (2, 3), "to_search", [((0,), 3), ((1,), 2)]),
], ids=["to_search-fewer", "to_search-swapped", "to_search-raw-array",
        "to_state-fewer", "to_state-swapped", "to_state-raw-array",
        "to_search-single-party-fewer", "to_search-single-party-swapped"])
def test_a_frame_converts_only_circuits_of_its_layers(preset, dims, side, layers):
    # to_search takes the preset's layers and to_state the search's
    frame = preset.search_frame(maximally_mixed(dims))
    want = frame.template if side == "to_search" else frame.circuit
    given = layers if isinstance(layers, np.ndarray) else _circuit_of(layers)
    with pytest.raises(ValueError) as err:
        getattr(frame, side)(given)
    assert str(_shape(want)) in str(err.value)
    assert str(layers if isinstance(layers, list) else "ndarray") in str(err.value)


def test_the_nonglobal_search_evaluates_its_own_circuit(monkeypatch):
    # frames of 32 columns, not 36; the report has the preset's layers,
    # the absorbed one at theta = 0 and each trace column at its start, 0
    widths = set()
    frame_sums = optimizer._frame_sums

    def spy(frames, rho, thetas):
        widths.add(thetas.shape[1])
        return frame_sums(frames, rho, thetas)

    monkeypatch.setattr(optimizer, "_frame_sums", spy)
    config = OptimizerConfig(preset=Preset(NONGLOBAL, 3), restarts=3, seed=1,
                             max_evals=300)
    report = consonance(states.ghz(3), config)
    assert widths == {32}
    assert _shape(report.circuit) == _shape(Preset(NONGLOBAL, 3).build((2, 2, 2)))
    layers = [layer.params.theta for layer in report.circuit.layers]
    assert not layers[0].any()
    assert layers[1][3] == layers[2][3] == 0.0
