"""Acceptance suite: end-to-end checks of the shipped numerical claims.

Each test_criterion_N function backs one line of the PASS/FAIL summary
printed by conftest.py.  Optimizer budgets here are deliberately small
(2-4 restarts, a few thousand evaluations) because every target has an
identity-start feasible incumbent or an explicit warm start; the budgets
are fixed together with the seeds so the suite is reproducible.
"""

import json
import math
from pathlib import Path

import numpy as np

from consonance import cli, states, unitary
from consonance.coherence import (CoherenceClass, classify, local_coherence,
                                  nonlocal_sum, profile)
from consonance.measures import (concurrence_2x2, concurrence_werner,
                                 consonance_pure_bipartite, discord_2x3,
                                 discord_bell_like, discord_werner, eof_2x2,
                                 eof_from_concurrence, negativity)
from consonance.optimizer import (EPS_L, OptimizerConfig, Preset, consonance,
                                  oracle_consonance, report_to_json)
from consonance.unitary import NONGLOBAL
from consonance.qstate import density_from_pure, tensor
from consonance.states import consonance_closed_form
from consonance.unitary import apply

OPT_SMALL = OptimizerConfig(restarts=2, seed=11, max_evals=3000)
OPT_PURE = OptimizerConfig(restarts=3, seed=23, max_evals=2500)


def _xlog2(x):
    return x * math.log2(x) if x > 0 else 0.0


# --- 1: Werner family against its closed forms ---------------------------


def test_criterion_1_werner_closed_forms():
    for a in [k / 10 for k in range(11)]:
        assert consonance_closed_form("werner", a=a) == a

        report = consonance(states.werner(a), OPT_SMALL)
        assert report.feasible
        assert abs(report.value - a) <= 1e-3

        want_c = max(0.0, (3 * a - 1) / 2)
        assert abs(concurrence_2x2(states.werner(a)) - want_c) <= 1e-10
        assert abs(concurrence_werner(a) - want_c) <= 1e-10

        direct_discord = 0.25 * (_xlog2(1 - a) + _xlog2(1 + 3 * a)
                                 - 2 * _xlog2(1 + a))
        assert abs(discord_werner(a) - direct_discord) <= 1e-10

        f = (1 + math.sqrt(1 - want_c ** 2)) / 2
        direct_eof = -_xlog2(f) - _xlog2(1 - f)
        assert abs(eof_from_concurrence(want_c) - direct_eof) <= 1e-10
        assert abs(eof_2x2(states.werner(a)) - direct_eof) <= 1e-8


# --- 2: random pure two-qubit states -------------------------------------


def test_criterion_2_pure_states():
    for seed in range(200):
        psi = states.random_pure((2, 2), seed)
        det = 2 * abs(psi.amps[0] * psi.amps[3] - psi.amps[1] * psi.amps[2])
        value = consonance_pure_bipartite(psi)
        assert abs(value - det) <= 1e-9
        assert abs(value - concurrence_2x2(density_from_pure(psi))) <= 1e-9

    for seed in range(20):
        psi = states.random_pure((2, 2), seed)
        report = consonance(density_from_pure(psi), OPT_PURE)
        assert report.feasible
        assert abs(report.value - consonance_pure_bipartite(psi)) <= 1e-3


# --- 3: discord collapses to the EoF for Schmidt-rank-2 states -----------


def test_criterion_3_discord_eof_identity():
    rng = np.random.Generator(np.random.Philox(key=314159))
    for _ in range(100):
        raw = rng.normal(size=4)
        a = complex(raw[0], raw[1])
        b = complex(raw[2], raw[3])
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        a, b = a / norm, b / norm
        got = discord_bell_like(a, b)
        want = eof_from_concurrence(2 * abs(a) * abs(b))
        assert abs(got - want) <= 1e-10


# --- 4: the two-parameter qubit-qutrit family ----------------------------


def _feasible_grid(n):
    for alpha in np.linspace(0.0, 0.5, n):
        for gamma in np.linspace(0.0, 1.0, n):
            alpha, gamma = float(alpha), float(gamma)
            beta = (1 - 2 * alpha - gamma) / 3
            if beta >= -1e-12:
                yield alpha, gamma, beta


def test_criterion_4_qubit_qutrit_family():
    for alpha, gamma, beta in _feasible_grid(21):
        rho = states.two_param_qubit_qutrit(alpha, gamma)
        want_n = max(0.0, 2 * alpha + 2 * gamma - 1)
        assert abs(negativity(rho) - want_n) <= 1e-8
        assert consonance_closed_form(
            "two_param_2x3", alpha=alpha, gamma=gamma) == abs(beta - gamma)

    # coincidence lines of the closed forms
    for alpha in np.linspace(0.0, 0.5, 11):
        alpha = float(alpha)
        # gamma = 0: consonance and discord both (1 - 2 alpha)/3
        want = (1 - 2 * alpha) / 3
        assert abs(consonance_closed_form(
            "two_param_2x3", alpha=alpha, gamma=0.0) - want) <= 1e-9
        assert abs(discord_2x3(alpha, 0.0) - want) <= 1e-9

        # beta = 0 (gamma = 1 - 2 alpha): all of c, discord, negativity
        gamma = 1 - 2 * alpha
        want = gamma
        assert abs(consonance_closed_form(
            "two_param_2x3", alpha=alpha, gamma=gamma) - want) <= 1e-9
        assert abs(discord_2x3(alpha, gamma) - want) <= 1e-9
        rho = states.two_param_qubit_qutrit(alpha, gamma)
        assert abs(negativity(rho) - want) <= 1e-9

        # beta = gamma (gamma = (1 - 2 alpha)/4): everything vanishes
        gamma = (1 - 2 * alpha) / 4
        assert abs(consonance_closed_form(
            "two_param_2x3", alpha=alpha, gamma=gamma)) <= 1e-9
        assert abs(discord_2x3(alpha, gamma)) <= 1e-9
        rho = states.two_param_qubit_qutrit(alpha, gamma)
        assert negativity(rho) <= 1e-9


def test_criterion_4_qubit_qutrit_optimizer():
    for alpha, gamma, beta in _feasible_grid(5):
        rho = states.two_param_qubit_qutrit(alpha, gamma)
        report = consonance(rho, OPT_SMALL)
        assert report.feasible
        assert abs(report.value - abs(beta - gamma)) <= 1e-3


# --- 5: consonance dominates and moves with the discord ------------------


def test_criterion_5_dominance_and_monotonicity():
    grid = np.linspace(0.0, 1.0, 41)
    cons = [float(a) for a in grid]
    disc = [discord_werner(a) for a in grid]
    conc = [concurrence_werner(a) for a in grid]
    eof = [eof_from_concurrence(c) for c in conc]
    for a, c, d, w, e in zip(grid, cons, disc, conc, eof):
        best = max(d, w, e)
        if 0 < a < 1:
            assert c > best
        else:
            assert c >= best - 1e-12
    for k in range(len(grid) - 1):
        assert np.sign(cons[k + 1] - cons[k]) == np.sign(disc[k + 1] - disc[k])

    gammas = np.linspace(0.0, 0.79, 80)
    cons4, disc4 = [], []
    for g in gammas:
        alpha = (0.79 - g) / 2
        cons4.append(consonance_closed_form(
            "two_param_2x3", alpha=alpha, gamma=float(g)))
        disc4.append(discord_2x3(alpha, float(g)))
    for k in range(len(gammas) - 1):
        assert np.sign(cons4[k + 1] - cons4[k]) == np.sign(disc4[k + 1] - disc4[k])


# --- 6: the consonance-minus-concurrence gap curve -----------------------


def test_criterion_6_gap_curve():
    spec = cli.fig3_spec(301)
    text = cli.run_sweep(spec, OptimizerConfig(restarts=2, max_evals=2000), seed=0)
    rows = [line.split(",") for line in text.splitlines()
            if line and not line.startswith("#")][1:]
    a_vals = np.array([float(r[0]) for r in rows])
    gaps = np.array([float(r[1]) for r in rows])
    peak = int(np.argmax(gaps))
    assert abs(a_vals[peak] - 1 / 3) <= 1e-9
    assert abs(gaps[peak] - 1 / 3) <= 1e-9
    assert gaps[-1] == 0.0 and a_vals[-1] == 1.0


# --- 7: rewriting the tensor product structure ---------------------------


def test_criterion_7_tps_remapping():
    rel = states.werner_f_prime()
    for a in [k / 10 for k in range(11)]:
        out = states.tps_remap(states.werner(a), rel)
        assert nonlocal_sum(out) <= 1e-12
        assert local_coherence(out) <= 1e-12

    pairs = [
        (math.sqrt(0.8), math.sqrt(0.2), math.sqrt(0.6), math.sqrt(0.4)),
        (math.sqrt(0.5), math.sqrt(0.5), math.sqrt(0.9), math.sqrt(0.1)),
        (0.6, 0.8j, 0.8, -0.6),
    ]
    for a1, b1, a2, b2 in pairs:
        one = states.PureState((2, 2), np.array([a1, 0, 0, b1], dtype=complex))
        two = states.PureState((2, 2), np.array([a2, 0, 0, b2], dtype=complex))
        fused = states.regroup(
            states.permute_subsystems(tensor(one, two), (0, 2, 1, 3)), (2, 2))
        p = [abs(a1 * a2), abs(a1 * b2), abs(b1 * a2), abs(b1 * b2)]
        want = math.fsum(p) ** 2 - math.fsum(x * x for x in p)
        assert abs(consonance_pure_bipartite(fused) - want) <= 1e-9


# --- 8: three qubits -----------------------------------------------------


def _delta_class(row, col):
    deltas = [1 if i == j else 0 for i, j in zip(row, col)]
    if math.prod(deltas):
        return CoherenceClass.DIAGONAL
    if math.prod(1 - d for d in deltas):
        return CoherenceClass.NONLOCAL
    return CoherenceClass.LOCAL


# the committed GHZ(3) and W(3) certificates, which `optimize --warm-start` reads
GHZ3_WITNESS = Path(__file__).resolve().parents[1] / "results" / "ghz3_witness.json"
W3_WITNESS = GHZ3_WITNESS.with_name("w3_witness.json")


def _ghz_witness_theta():
    """Depth-3 frame on the preset's supports (0, 1), (0, 2) that takes
    GHZ(3) to |000>: a CNOT on (0, 1), then the inverse Bell-basis change
    on (0, 2)."""
    u_bell = np.column_stack([states.bell(k).amps
                              for k in ("phi+", "phi-", "psi+", "psi-")])
    cnot = np.zeros((4, 4), dtype=complex)
    cnot[0, 0] = cnot[1, 1] = cnot[2, 3] = cnot[3, 2] = 1.0
    return np.concatenate([
        unitary.params_for_unitary(cnot),
        unitary.params_for_unitary(u_bell.conj().T),
    ])


def test_criterion_8_classifier_and_profiles():
    import itertools
    dims = (2, 2, 2)
    for row in itertools.product(range(2), repeat=3):
        for col in itertools.product(range(2), repeat=3):
            assert classify(row, col, dims) is _delta_class(row, col)

    g = profile(density_from_pure(states.ghz(3)))
    assert abs(g.s_value - 1.0) <= 1e-12 and abs(g.l_value) <= 1e-12
    w = profile(density_from_pure(states.w_state(3)))
    assert abs(w.s_value) <= 1e-12 and abs(w.l_value - 2.0) <= 1e-12


def test_criterion_8_ghz_witness_certificate():
    witness = unitary.load_circuit(GHZ3_WITNESS)
    assert [s for s, _ in witness.shape] == Preset(kind=NONGLOBAL).supports(3)
    # a tolerance, not ==: the chart inverse goes through the complex Schur form
    theta = witness.theta
    assert np.max(np.abs(theta - _ghz_witness_theta())) <= 1e-12
    final = apply(witness, states.ghz(3))
    target = np.zeros(8)
    target[0] = 1.0
    assert np.linalg.norm(np.abs(final.amps) - target) <= 1e-8

    config = OptimizerConfig(preset=Preset(kind=NONGLOBAL, depth=3),
                             restarts=2, seed=11, max_evals=3000,
                             warm_starts=(witness,))
    report = consonance(density_from_pure(states.ghz(3)), config)
    assert report.feasible
    assert report.value <= 1e-4


def _w_witness_theta():
    """Depth-3 frame on the preset's supports (0, 1), (0, 2) that takes
    W(3) to |000>: on (0, 1) a gate taking psi+ to |11>, then a CNOT,
    which leaves sqrt(2/3)|10>|0> + (1/sqrt 3)|00>|1>; on (0, 2) a gate
    taking (1/sqrt 3)|01> + sqrt(2/3)|10> to |00>."""
    ket = np.eye(4)
    psi_plus, psi_minus = (ket[1] + ket[2]) / math.sqrt(2), (ket[1] - ket[2]) / math.sqrt(2)
    g = (np.outer(ket[0], ket[0]) + np.outer(ket[3], psi_plus)
         + np.outer(ket[1], psi_minus) + np.outer(ket[2], ket[3]))
    cnot = np.zeros((4, 4))
    cnot[0, 0] = cnot[1, 1] = cnot[2, 3] = cnot[3, 2] = 1.0
    rest = np.array([0.0, 1.0, math.sqrt(2.0), 0.0]) / math.sqrt(3.0)
    other = np.array([0.0, math.sqrt(2.0), -1.0, 0.0]) / math.sqrt(3.0)
    to_zero = np.column_stack([rest, ket[0], other, ket[3]]).T
    return np.concatenate([
        unitary.params_for_unitary(cnot @ g),
        unitary.params_for_unitary(to_zero),
    ])


def test_criterion_8_w_witness_certificate():
    witness = unitary.load_circuit(W3_WITNESS)
    assert [s for s, _ in witness.shape] == Preset(kind=NONGLOBAL).supports(3)
    # a tolerance, not ==: the chart inverse goes through the complex Schur form
    theta = witness.theta
    assert np.max(np.abs(theta - _w_witness_theta())) <= 1e-12
    final = density_from_pure(apply(witness, states.w_state(3)))
    assert nonlocal_sum(final) <= 1e-12
    assert local_coherence(final) <= EPS_L


def test_criterion_8_three_qubit_reports_replay():
    for state in (states.ghz(3), states.w_state(3)):
        rho = density_from_pure(state)
        for preset in (Preset(), Preset(kind=NONGLOBAL, depth=3)):
            config = OptimizerConfig(preset=preset, restarts=2, seed=11,
                                     max_evals=2000)
            report = consonance(rho, config)

            # soundness: the report must be re-derivable from its own circuit
            replay = apply(report.circuit, rho)
            assert abs(report.value - nonlocal_sum(replay)) <= 1e-9
            assert abs(report.l_residual - local_coherence(replay)) <= 1e-9
            assert report.feasible == (report.l_residual <= config.eps_l)

            # reproducibility per seed
            again = consonance(rho, config)
            assert json.dumps(report_to_json(report), sort_keys=True) == \
                json.dumps(report_to_json(again), sort_keys=True)


# --- 9: reported values replay and the oracle never beats them -----------


def test_criterion_9_soundness_and_oracle():
    cases = [
        (states.werner(0.6), Preset()),
        (states.two_param_qubit_qutrit(0.1, 0.3), Preset()),
    ]
    for rho, preset in cases:
        config = OptimizerConfig(preset=preset, restarts=2, seed=11,
                                 max_evals=3000)
        report = consonance(rho, config)
        replay = nonlocal_sum(apply(report.circuit, rho))
        assert abs(report.value - replay) <= 1e-9

        oracle = oracle_consonance(rho, preset=preset, samples=10_000, seed=11)
        assert oracle.value >= report.value - 1e-9
