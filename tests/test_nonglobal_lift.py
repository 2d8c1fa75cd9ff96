"""A nonglobal search starts in the single-party decided frame.

The nonglobal circuit on three or more parties, the staircase (0, 1),
..., (0, n - 1), holds every product V_0 (x) ... (x) V_n-1: on three
parties V_0 (x) V_1 on its (0, 1) layer and 1 (x) V_2 on its (0, 2)
layer.  So where ``decide.single_party`` settles a frame with L = 0, the
search runs in that frame, its identity restart starts feasible at the
single-party value, and no feasible nonglobal value lies above it.
Everywhere else the frame, and so the report, is the unrotated one bit
for bit.
"""

import dataclasses

import numpy as np
import pytest

from consonance import optimizer, states
from consonance.coherence import local_coherence, nonlocal_sum
from consonance.decide import single_party
from consonance.optimizer import Preset, consonance, report_to_json
from consonance.qstate import DensityMatrix, density_from_pure, in_local_frame
from consonance.unitary import NONGLOBAL, SearchFrame, apply, with_theta
from test_acceptance import OPT_SMALL
from test_frames import circuit_unitary


def _haar(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def noisy_ghz3_behind_a_haar_frame(p: float, seed: int) -> DensityMatrix:
    """p |GHZ><GHZ| + (1 - p) I/8 behind a seeded Haar product frame."""
    rng = np.random.default_rng(seed)
    u = np.kron(np.kron(_haar(2, rng), _haar(2, rng)), _haar(2, rng))
    rho = p * density_from_pure(states.ghz(3)).entries + (1.0 - p) * np.eye(8) / 8.0
    m = u @ rho @ u.conj().T
    return DensityMatrix((2, 2, 2), (m + m.conj().T) / 2.0)


def _replays(report, rho) -> bool:
    rotated = apply(report.circuit, rho)
    return (nonlocal_sum(rotated) == report.value
            and local_coherence(rotated) == report.l_residual)


@pytest.mark.parametrize("p", [1.0, 0.6, 0.3])
@pytest.mark.parametrize("seed", range(1, 7))
def test_no_feasible_nonglobal_value_lies_above_the_single_party_value(p, seed):
    rho = noisy_ghz3_behind_a_haar_frame(p, seed)
    frame = Preset(NONGLOBAL, 3).search_frame(rho)
    assert all(r is not None for r in frame.rotations)     # the frame is lifted
    party = consonance(rho, OPT_SMALL)
    found = consonance(rho, dataclasses.replace(OPT_SMALL, preset=Preset(NONGLOBAL, 3)))
    assert party.feasible and found.feasible
    assert found.value <= party.value + 1e-12
    # the identity restart starts feasible and ends after its first stage
    assert found.per_restart[0].l_residual <= optimizer.EPS_L
    assert found.per_restart[0].evals == OPT_SMALL.max_evals // 5 + 1
    assert _replays(party, rho) and _replays(found, rho)


def _unrotated_frame(preset: Preset, rho) -> SearchFrame:
    """The nonglobal frame as it was before the lift: no party rotates,
    and every column of each layer moves but its last diagonal one, which
    the chart puts at d - 1 (the diagonal first, then the pairs)."""
    circuit = preset.build(rho.dims)
    moved, offset = [], 0
    for _, d in circuit.shape:
        moved += [c for c in range(offset, offset + d * d) if c != offset + d - 1]
        offset += d * d
    return SearchFrame(circuit, rho.dims, (None,) * len(rho.dims),
                       np.array(moved, dtype=np.intp))


def _random_density_in_its_eigenframe():
    rho = states.random_density((2, 2, 2), seed=1)
    rotations, masks = single_party(rho)
    # the eigenframe settles the frame, at L > 0
    assert not any(m.any() for m in masks)
    assert local_coherence(in_local_frame(rho, rotations)) > 1e-3
    return rho


@pytest.mark.parametrize("rho,depth", [
    # the eigenframe is settled, but at L > 0
    (_random_density_in_its_eigenframe(), 3),
    # W(3)'s eigenframe is its own, and L = 2 there
    (density_from_pure(states.w_state(3)), 2),
    # GHZ(4) is decided in its own basis, on the staircase (0, 1), (0, 2), (0, 3)
    (density_from_pure(states.ghz(4)), 3),
    # and so is GHZ(3)
    (density_from_pure(states.ghz(3)), 3),
], ids=["random-density-eigenframe-l", "w3-eigenframe-l-2", "ghz4-own-basis",
        "ghz3-standard"])
def test_an_input_that_is_not_lifted_keeps_the_unrotated_frame_and_report(monkeypatch, rho,
                                                                          depth):
    preset = Preset(NONGLOBAL, depth)
    frame, want = preset.search_frame(rho), _unrotated_frame(preset, rho)
    assert frame.circuit is want.circuit
    assert frame.dims == want.dims
    assert frame.rotations == want.rotations
    assert frame.factors == (None,) * len(frame.circuit.shape)
    assert frame.moved.tolist() == want.moved.tolist() and frame.moved.dtype == want.moved.dtype
    assert frame.state(rho) is rho
    config = optimizer.OptimizerConfig(preset, restarts=2, seed=11, max_evals=1000)
    got = report_to_json(consonance(rho, config))
    monkeypatch.setattr(Preset, "search_frame", lambda self, state: _unrotated_frame(self, state))
    assert got == report_to_json(consonance(rho, config))


def test_a_lifted_frame_is_the_single_party_frame_folded_into_the_kept_layers():
    rho = noisy_ghz3_behind_a_haar_frame(0.6, seed=2)
    frame = Preset(NONGLOBAL, 3).search_frame(rho)
    rotations, masks = single_party(rho)
    assert not any(m.any() for m in masks)
    assert all((got == want).all() for got, want in zip(frame.rotations, rotations))
    first, second = frame.factors
    assert (first == np.kron(rotations[0], rotations[1])).all()
    assert (second == np.kron(np.eye(2), rotations[2])).all()
    # the identity start sits at the single-party value, L = 0 to rounding
    searched = frame.state(rho)
    assert local_coherence(searched) <= 1e-13
    assert nonlocal_sum(searched) == nonlocal_sum(in_local_frame(rho, rotations))
    # a start U on rho enters as U V, and the round trip back keeps U
    circuit = with_theta(frame.circuit, np.random.default_rng(2).uniform(-3, 3, 32))
    u, v = circuit_unitary(circuit, rho.dims), np.kron(first, rotations[2])
    search = frame.to_search(circuit)
    assert np.abs(circuit_unitary(search, rho.dims) - u @ v).max() <= 1e-12
    assert np.abs(circuit_unitary(frame.to_state(search), rho.dims) - u).max() <= 1e-12
