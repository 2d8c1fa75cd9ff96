"""The circuit and frame a search runs in.

Every zero-L single_party frame diagonalizes every party's marginal, so
the search runs on rho in the marginals' eigenframe and moves only the
pairs inside one eigenvalue group.  Where every group is one eigenvalue,
nothing moves and the eigenframe alone decides the state.

A nonglobal preset on two parties is the single_party circuit, and its
search is the single-party one.  On three or more parties it is the
staircase of pair layers (0, 1), ..., (0, n - 1), cycled: every circuit
holds every party, no layer's support lies inside the next layer's, and
its search leaves out what S and L cannot see: each layer's last
diagonal column, which carries only the trace.
"""

import dataclasses
import math

import numpy as np
import pytest

from consonance import measures, optimizer, states, unitary
from consonance.coherence import local_coherence, nonlocal_sum
from consonance.optimizer import EPS_L, OptimizerConfig, Preset, consonance, report_to_json
from consonance.qstate import TOL_DEGENERATE, PureState, density_from_pure, partial_trace
from consonance.unitary import NONGLOBAL
from test_acceptance import GHZ3_WITNESS, OPT_SMALL, W3_WITNESS
from test_frames import circuit_unitary
from test_optimizer import _behind_a_frame, _circuit_of, _inverse
from test_projection import DECIDED
from test_unitary import maximally_mixed, mixed_marginals, with_local_noise


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


# --- nonglobal: a staircase on three or more parties, no trace column moves ----


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (2, 2, 2, 2)])
@pytest.mark.parametrize("depth", [2, 3, 4])
@pytest.mark.parametrize("seed", [1, 2])
def test_the_nonglobal_search_circuit_loses_no_frame(dims, depth, seed):
    # a start moves into the search's frame and a found circuit back onto
    # rho, layer by layer: the circuit unitary is kept
    preset = Preset(NONGLOBAL, depth)
    frame = preset.search_frame(states.random_density(dims, seed=seed))
    rng = np.random.default_rng(seed)
    circuit = unitary.with_theta(frame.circuit,
                                 rng.uniform(-math.pi, math.pi, frame.circuit.n_theta))
    search = frame.to_search(circuit)
    assert search.shape == frame.circuit.shape
    back = frame.to_state(search)
    assert back.shape == circuit.shape and back.preset == circuit.preset
    assert np.abs(circuit_unitary(back, dims) - circuit_unitary(circuit, dims)).max() <= 1e-12


@pytest.mark.parametrize("path", [GHZ3_WITNESS, W3_WITNESS])
def test_a_witness_enters_the_nonglobal_search_bit_for_bit(path):
    # no party rotates, so no product is taken
    witness = unitary.load_circuit(path)
    frame = Preset(NONGLOBAL).search_frame(states.random_density((2, 2, 2), seed=1))
    search = frame.to_search(witness)
    assert (search.theta == witness.theta).all()
    assert (frame.to_state(search).theta == witness.theta).all()


def test_a_depth_3_search_on_three_qubits_moves_30_of_32_columns():
    frame = Preset(NONGLOBAL, 3).search_frame(density_from_pure(states.ghz(3)))
    # depth 3 counts a leading (0,), which (0, 1) absorbs and which is not built
    assert list(Preset(NONGLOBAL, 3).build((2, 2, 2)).shape) == [((0, 1), 4), ((0, 2), 4)]
    assert list(frame.circuit.shape) == [((0, 1), 4), ((0, 2), 4)]
    assert frame.circuit.n_theta == 32
    # none at a layer's last diagonal entry
    assert frame.moved.tolist() == [c for c in range(32) if c not in (3, 19)]


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2), (2, 3, 2, 2), (2, 2, 2, 2, 2)])
@pytest.mark.parametrize("depth", range(1, 8))
def test_no_built_nonglobal_layer_lies_inside_the_next_one(dims, depth):
    # and every circuit holds every party; on three or more parties the
    # search moves every H entry but each layer's last diagonal one, and
    # on two it is the single_party search, which decides I/D
    frame = Preset(NONGLOBAL, depth).search_frame(maximally_mixed(dims))
    supports = [set(s) for s, _ in frame.circuit.shape]
    assert not any(s <= t for s, t in zip(supports, supports[1:]))
    assert set().union(*supports) == set(range(len(dims)))
    if len(dims) == 2:
        assert frame.circuit.shape == Preset().build(dims).shape
        assert frame.moved.tolist() == []
        return
    assert all(len(s) == 2 for s in supports)
    columns, offset = [], 0
    for _, d in frame.circuit.shape:
        columns += [offset + k for k in range(d * d) if k != d - 1]
        offset += d * d
    assert frame.moved.tolist() == columns


TWO_PARTY = {"werner-0.5": states.werner(0.5),
             "qubit-qutrit-0.1-0.3": states.two_param_qubit_qutrit(0.1, 0.3),
             **{name: rho for name, (rho, _) in DECIDED.items() if rho.n_parties == 2}}


@pytest.mark.parametrize("name", list(TWO_PARTY))
def test_on_two_parties_nonglobal_is_the_single_party_decision(name):
    # a pair layer is global on two parties, so nonglobal builds the
    # single_party circuit and its search is the single-party one, decided
    # in one evaluation: the reports differ in their preset tags alone
    rho = TWO_PARTY[name]
    party = report_to_json(consonance(rho, OPT_SMALL))
    found = report_to_json(consonance(rho, dataclasses.replace(
        OPT_SMALL, preset=Preset(NONGLOBAL, 3))))
    assert found["n_evals"] == 1
    assert (found["preset"], found["circuit"]["preset"]) == ("nonglobal:depth=3",) * 2
    assert (party["preset"], party["circuit"]["preset"]) == ("single_party",) * 2
    for report in (party, found):
        report["preset"] = report["circuit"]["preset"] = None
    assert found == party


def test_ghz4_under_nonglobal_holds_every_party_and_ends_feasible():
    # the staircase (0, 1), (0, 2), (0, 3) reaches party 3; GHZ(4) is
    # decided in its own basis, where S = 1, so no party rotates
    config = dataclasses.replace(OPT_SMALL, preset=Preset(NONGLOBAL, 3))
    report = consonance(states.ghz(4), config)
    assert list(report.circuit.shape) == [((0, 1), 4), ((0, 2), 4), ((0, 3), 4)]
    assert report.feasible
    assert report.value <= 1.0 + 1e-12


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
    assert frame.circuit.shape == Preset().build((3, 3)).shape


@pytest.mark.parametrize("preset,dims,side,layers", [
    # one layer of the search's two, the two swapped, and the three layers
    # a depth-3 circuit had while it still built the absorbed (0,)
    (Preset(NONGLOBAL, 3), (2, 2, 2), "to_search", [((0, 1), 4)]),
    (Preset(NONGLOBAL, 3), (2, 2, 2), "to_search", [((0, 2), 4), ((0, 1), 4)]),
    (Preset(NONGLOBAL, 3), (2, 2, 2), "to_search", np.zeros(32)),
    (Preset(NONGLOBAL, 3), (2, 2, 2), "to_search", [((0,), 2), ((0, 1), 4), ((0, 2), 4)]),
    # one layer of the search's two, which ran out of layers mid-circuit
    (Preset(NONGLOBAL, 3), (2, 2, 2), "to_state", [((0, 2), 4)]),
    (Preset(), (2, 3), "to_state", [((0,), 3), ((1,), 2)]),
    (Preset(NONGLOBAL, 3), (2, 2, 2), "to_state", np.zeros(32)),
    (Preset(), (2, 3), "to_search", [((0,), 2)]),
    (Preset(), (2, 3), "to_search", [((0,), 3), ((1,), 2)]),
], ids=["to_search-fewer", "to_search-swapped", "to_search-raw-array",
        "to_search-absorbed-layer",
        "to_state-fewer", "to_state-swapped", "to_state-raw-array",
        "to_search-single-party-fewer", "to_search-single-party-swapped"])
def test_a_frame_converts_only_circuits_of_its_layers(preset, dims, side, layers):
    # both take the search's layers, which are the preset's
    frame = preset.search_frame(maximally_mixed(dims))
    given = layers if isinstance(layers, np.ndarray) else _circuit_of(layers)
    with pytest.raises(ValueError) as err:
        getattr(frame, side)(given)
    assert str(list(frame.circuit.shape)) in str(err.value)
    assert str(layers if isinstance(layers, list) else "ndarray") in str(err.value)


def test_the_nonglobal_search_evaluates_its_own_circuit(monkeypatch):
    # frames of 32 columns; the report has the preset's layers, each
    # trace column at its start, 0
    widths = set()
    frame_sums = optimizer._frame_sums

    def spy(frames, rho, thetas, sums):
        widths.add(thetas.shape[1])
        return frame_sums(frames, rho, thetas, sums)

    monkeypatch.setattr(optimizer, "_frame_sums", spy)
    config = OptimizerConfig(preset=Preset(NONGLOBAL, 3), restarts=3, seed=1,
                             max_evals=300)
    report = consonance(states.ghz(3), config)
    assert widths == {32}
    assert report.circuit.shape == Preset(NONGLOBAL, 3).build((2, 2, 2)).shape
    first, second = report.circuit.layer_thetas()
    assert first[3] == second[3] == 0.0


def _ghz3_with_phase(phi):
    """(|000> + e^{i phi} |111>) / sqrt 2."""
    amps = np.zeros(8, dtype=np.complex128)
    amps[0], amps[7] = 1.0 / math.sqrt(2.0), np.exp(1j * phi) / math.sqrt(2.0)
    return density_from_pure(PureState((2, 2, 2), amps))


@pytest.mark.parametrize("frame", ["standard", "random"])
@pytest.mark.parametrize("seed", [1, 2])
def test_a_nonglobal_report_replays_with_an_identity_layer_put_back_in_front(frame, seed):
    # the (0,) layer the preset no longer builds was the exact identity in
    # every report, so a replay with it put back gives the report's bits
    rho = _ghz3_with_phase(np.random.default_rng(seed).uniform(-math.pi, math.pi))
    rho = _behind_a_frame(rho, seed) if frame == "random" else rho
    report = consonance(rho, dataclasses.replace(OPT_SMALL, preset=Preset(NONGLOBAL, 3)))
    circuit = report.circuit
    replayed = unitary.apply(unitary.LocalCircuit(
        (((0,), 2),) + circuit.shape, np.concatenate((np.zeros(4), circuit.theta)),
        preset=circuit.preset), rho)
    assert (report.value, report.l_residual) == (nonlocal_sum(replayed),
                                                 local_coherence(replayed))
