"""A frame the single-party decision settles, against the search route it
replaced.

Where ``decide.single_party`` settles the frame, no column moves, and
``consonance()`` takes the identity's record straight from
``class_sums`` of V† rho V, evaluates each warm start once in one stack,
and replays the winner.  The reference here is the route that ran before:
a fresh ``FrameBuilder`` and ``_frame_sums`` over every start at its
theta, the winner's circuit rebuilt layer by layer at its theta and
carried back through the full chart (exp(iH) by ``eigh`` at theta = 0
too) and the chart inverse with its per-call upper-triangle index, and
the replay through a fresh builder.  Every
report must be equal with ==, as JSON.
"""

import json
import math

import numpy as np
import pytest
import scipy.linalg

from consonance import optimizer, states, unitary
from consonance.optimizer import OptimizerConfig, Preset, consonance, report_to_json
from consonance.qstate import as_density, assert_valid, check_unitary
from test_optimizer import _behind_a_frame
from test_projection import noisy_ghz
from test_two_qubit_frame import behind_a_frame


# --- the references ------------------------------------------------------


def reference_build_unitary(theta):
    """exp(iH(theta)) of one layer through the full chart, at theta = 0 as
    well."""
    d = math.isqrt(theta.size)
    stack = unitary._layer_stack(unitary._chart_layout((d,)), theta[None])
    return stack[0, :-1].reshape(d, d)


def reference_params_for_unitary(u):
    """The chart inverse with ``np.triu_indices`` on every call."""
    u = np.asarray(u, dtype=np.complex128)
    d = u.shape[0]
    check_unitary(u, unitary.TOL_UNITARY, "matrix")
    t, z = scipy.linalg.schur(u, output="complex")
    h = (z * np.angle(np.diag(t))) @ z.conj().T
    h = (h + h.conj().T) / 2.0
    theta = np.empty(d * d)
    theta[:d] = np.diag(h).real
    iu = np.triu_indices(d, k=1)
    theta[d::2] = h[iu].real
    theta[d + 1::2] = h[iu].imag
    return theta


def reference_with_theta(circuit, theta):
    """The circuit's shape, rebuilt at ``theta``."""
    return unitary.LocalCircuit(circuit.shape, theta, preset=circuit.preset)


def reference_to_state(frame, circuit):
    """``SearchFrame.to_state`` of a single_party frame, every layer
    re-charted through the full chart."""
    thetas, off = [], 0
    for (_, d), r in zip(circuit.shape, frame.rotations):
        theta = circuit.theta[off:off + d * d]
        thetas.append(theta if r is None else reference_params_for_unitary(
            reference_build_unitary(theta) @ r.conj().T))
        off += d * d
    return unitary.LocalCircuit(circuit.shape, np.concatenate(thetas), preset=circuit.preset)


def reference_consonance(rho, config):
    """The report of a decided frame by the route of the search: a fresh
    frame builder and ``_frame_sums`` over every start, one evaluation
    each."""
    rho = assert_valid(as_density(rho))
    frame = config.preset.search_frame(rho)
    assert not len(frame.moved)
    template = frame.circuit
    frames = unitary.FrameBuilder(template.shape, rho.dims)
    starts = [np.zeros(template.n_theta)] + [frame.to_search(w).theta
                                             for w in config.warm_starts]
    s, l = optimizer._frame_sums(frames, frame.state(rho), np.array(starts),
                                 lambda m: optimizer.coherence.class_sums(m, rho.dims,
                                                                          optimizer._S_AND_L))
    kinds = ["identity"] + ["warm"] * len(config.warm_starts)
    records = [optimizer.RestartRecord(i, kind, float(s[i]), float(l[i]), 1)
               for i, kind in enumerate(kinds)]
    best = min(records, key=optimizer._rank)
    circuit = reference_to_state(frame, reference_with_theta(template, starts[best.index]))
    replay = unitary.FrameBuilder(circuit.shape, rho.dims)
    rotated = unitary.conjugate(replay, rho.entries, circuit.theta[None])
    (value,), (l_res,) = optimizer.coherence.class_sums(rotated, rho.dims, optimizer._S_AND_L)
    return optimizer.ConsonanceReport(value, l_res, circuit, tuple(records))


# --- the inputs ----------------------------------------------------------


def _bell_diagonal_cases(seed, count):
    rng = np.random.default_rng(seed)
    cases = {}
    for k in range(count):
        # a point of the tetrahedron: weights of the four Bell states
        p = rng.dirichlet(np.ones(4))
        c = (p[0] - p[1] + p[2] - p[3], -p[0] + p[1] + p[2] - p[3], p[0] + p[1] - p[2] - p[3])
        cases[f"bell-diagonal-{k}"] = behind_a_frame(states.bell_diagonal(*c), seed=20 + k)
    return cases


def _werner_cases(seed, count):
    rng = np.random.default_rng(seed)
    return {f"werner-{k}": behind_a_frame(states.werner(a), seed=40 + k)
            for k, a in enumerate(rng.uniform(0.05, 0.95, count))}


def _qubit_qutrit_cases(seed, count):
    rng = np.random.default_rng(seed)
    cases = {}
    for k in range(count):
        alpha = rng.uniform(0.0, 0.3)
        gamma = rng.uniform(0.0, 1.0 - 2.0 * alpha)
        rho = states.two_param_qubit_qutrit(alpha, gamma)
        cases[f"qubit-qutrit-{k}"] = rho
        cases[f"qubit-qutrit-{k}-behind-a-frame"] = _behind_a_frame(rho, seed=60 + k)
    return cases


DECIDED = {
    **_bell_diagonal_cases(1, 4),
    **_werner_cases(2, 4),
    **_qubit_qutrit_cases(3, 3),
    "ghz3-noisy": noisy_ghz(3, 0.7),
    "ghz3-noisy-behind-a-frame": _behind_a_frame(noisy_ghz(3, 0.4), seed=5),
    "w3": states.w_state(3),
    "w3-behind-a-frame": _behind_a_frame(states.w_state(3), seed=6),
}
CONFIG = OptimizerConfig(restarts=4, seed=11, max_evals=3000)


def _json(report):
    return json.dumps(report_to_json(report), sort_keys=True)


@pytest.mark.parametrize("name", DECIDED)
def test_a_decided_frame_reports_what_the_search_route_reported(name):
    rho = DECIDED[name]
    moved = Preset().search_frame(as_density(rho)).moved
    assert moved.shape == (0,) and moved.dtype == np.intp
    report = consonance(rho, CONFIG)
    assert report.n_evals == 1
    assert _json(report) == _json(reference_consonance(rho, CONFIG))


@pytest.mark.parametrize("name", ["werner-0", "qubit-qutrit-1-behind-a-frame", "w3"])
def test_a_decided_frame_with_a_warm_start_reports_what_the_search_route_reported(name):
    rho = as_density(DECIDED[name])
    template = Preset().build(rho.dims)
    warm = unitary.with_theta(template, np.random.default_rng(7).uniform(-1, 1, template.n_theta))
    config = OptimizerConfig(restarts=4, seed=11, max_evals=3000, warm_starts=(warm,))
    report = consonance(rho, config)
    assert [r.kind for r in report.per_restart] == ["identity", "warm"]
    assert _json(report) == _json(reference_consonance(rho, config))


# --- a decided frame runs no search --------------------------------------


def _no_search(monkeypatch):
    def search(*args, **kwargs):
        raise AssertionError("the search ran")
    monkeypatch.setattr(optimizer, "_nelder_mead", search)
    monkeypatch.setattr(optimizer, "_frame_sums", search)


@pytest.mark.parametrize("rho", [
    states.werner(0.3),
    _behind_a_frame(states.two_param_qubit_qutrit(0.1, 0.3), seed=3),
    states.ghz(3),
    states.w_state(3),
], ids=["werner", "qubit-qutrit", "ghz3", "w3"])
def test_a_decided_frame_runs_neither_nelder_mead_nor_frame_sums(monkeypatch, rho):
    want = _json(consonance(rho, CONFIG))
    _no_search(monkeypatch)
    assert _json(consonance(rho, CONFIG)) == want


def test_an_undecided_frame_still_runs_the_search(monkeypatch):
    rho = _behind_a_frame(states.ghz(4), seed=1)
    assert len(Preset().search_frame(as_density(rho)).moved)
    _no_search(monkeypatch)
    with pytest.raises(AssertionError, match="the search ran"):
        consonance(rho, CONFIG)
