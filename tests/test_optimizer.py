import json
import math

import numpy as np
import pytest

from consonance import optimizer, states, unitary
from consonance.coherence import local_coherence, nonlocal_sum
from consonance.optimizer import (EPS_L, PENALTY_MUS, OptimizerConfig, Preset,
                                  config_to_json, consonance, oracle_consonance,
                                  report_to_json)
from consonance.qstate import DensityMatrix, density_from_pure
from consonance.unitary import NONGLOBAL, apply, with_theta
from test_acceptance import GHZ3_WITNESS

CHEAP = OptimizerConfig(restarts=2, seed=7, max_evals=3000)
TOL_VALUE = 1e-6       # tolerance on a searched value, added to the budget slack


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(max_evals=10)


@pytest.mark.parametrize("kwargs", [
    {"restarts": 2.5}, {"restarts": 2.0}, {"restarts": True}, {"restarts": "3"},
    {"max_evals": 300.7}, {"max_evals": math.nan}, {"max_evals": math.inf},
    {"max_evals": False}, {"seed": 1.5}, {"seed": None}, {"seed": True},
])
def test_config_rejects_non_integer_counts(kwargs):
    with pytest.raises(ValueError, match="integer"):
        OptimizerConfig(**kwargs)


BAD_SEEDS = [-1, 2 ** 128, 2.7, 2.0, True, False, "3", None]


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_config_rejects_bad_seeds(seed):
    with pytest.raises(ValueError, match="seed"):
        OptimizerConfig(seed=seed)


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_oracle_rejects_bad_seeds(seed):
    with pytest.raises(ValueError, match="seed"):
        oracle_consonance(states.werner(0.5), samples=4, seed=seed)


@pytest.mark.parametrize("seed", [0, 2 ** 128 - 1, np.uint64(2 ** 64 - 1)])
def test_seeds_at_the_ends_of_the_range_run(seed):
    assert OptimizerConfig(seed=seed).seed == int(seed)
    assert oracle_consonance(states.werner(0.5), samples=4, seed=seed).samples == 4


NOT_PRESETS = ["nonglobal", "single_party", "", {"kind": NONGLOBAL}, 3]


@pytest.mark.parametrize("preset", NOT_PRESETS)
def test_config_rejects_a_preset_that_is_not_a_preset(preset):
    # a string used to construct and fail later in consonance() with
    # AttributeError: 'str' object has no attribute 'build'
    with pytest.raises(ValueError, match="Preset"):
        OptimizerConfig(preset=preset)


@pytest.mark.parametrize("preset", NOT_PRESETS)
def test_oracle_rejects_a_preset_that_is_not_a_preset(preset):
    with pytest.raises(ValueError, match="Preset"):
        oracle_consonance(states.werner(0.5), preset=preset, samples=4)


def test_config_stores_numpy_integers_as_int():
    config = OptimizerConfig(restarts=np.int64(3), seed=np.uint32(5),
                             max_evals=np.int32(400))
    assert [type(v) for v in (config.restarts, config.seed, config.max_evals)] == [int] * 3
    assert json.loads(json.dumps(config_to_json(config)))["restarts"] == 3


def test_penalty_schedule():
    assert list(PENALTY_MUS) == [10.0, 100.0, 1000.0, 10000.0]


def test_determinism_bit_for_bit():
    rho = states.werner(0.6)
    a = report_to_json(consonance(rho, CHEAP))
    b = report_to_json(consonance(rho, CHEAP))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_seed_changes_the_random_restarts():
    rho = states.random_density((2, 2), seed=3)
    a = consonance(rho, OptimizerConfig(restarts=3, seed=1, max_evals=2000))
    b = consonance(rho, OptimizerConfig(restarts=3, seed=2, max_evals=2000))
    # identity restart is shared; the random ones should explore differently
    assert [r.value for r in a.per_restart] != [r.value for r in b.per_restart]


@pytest.mark.parametrize("a", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_werner_matches_closed_form(a):
    report = consonance(states.werner(a), CHEAP)
    assert report.feasible
    assert report.value == pytest.approx(a, abs=1e-3)


def test_bell_like_weighted_pair():
    rho = density_from_pure(states.bell_like(a2=0.8))
    report = consonance(rho, CHEAP)
    assert report.feasible
    assert report.value == pytest.approx(0.8, abs=1e-3)


def test_two_param_point():
    rho = states.two_param_qubit_qutrit(0.1, 0.3)
    report = consonance(rho, CHEAP)
    beta = (1 - 0.2 - 0.3) / 3
    assert report.feasible
    assert report.value == pytest.approx(abs(beta - 0.3), abs=1e-3)


def test_product_pure_state_reaches_zero():
    # |+>|0> carries only single-party coherence; a local rotation removes it
    plus = np.array([1, 1, 0, 0], dtype=complex) / math.sqrt(2)
    rho = density_from_pure(states.PureState((2, 2), plus))
    assert local_coherence(rho) > 0.9  # identity frame is infeasible
    report = consonance(rho, OptimizerConfig(restarts=4, seed=0, max_evals=4000))
    assert report.feasible
    assert report.value == pytest.approx(0.0, abs=1e-6)


def test_random_pure_matches_determinant_formula():
    for seed in (11, 12):
        psi = states.random_pure((2, 2), seed)
        want = 2 * abs(psi.amps[0] * psi.amps[3] - psi.amps[1] * psi.amps[2])
        report = consonance(density_from_pure(psi),
                            OptimizerConfig(restarts=4, seed=5, max_evals=4000))
        assert report.feasible
        assert report.value == pytest.approx(want, abs=1e-3)


def test_report_is_sound():
    rho = states.werner(0.4)
    report = consonance(rho, CHEAP)
    replayed = nonlocal_sum(apply(report.circuit, rho))
    assert report.value == pytest.approx(replayed, abs=1e-9)
    assert local_coherence(apply(report.circuit, rho)) == pytest.approx(
        report.l_residual, abs=1e-9)


def _merged_restart(report):
    """The restart the merge picks: least S among the feasible ones, else
    least L; ties go to the lower L, S, then index."""
    feasible = [r for r in report.per_restart if r.l_residual <= EPS_L]
    if feasible:
        return min(feasible, key=lambda r: (r.value, r.l_residual, r.index))
    return min(report.per_restart, key=lambda r: (r.l_residual, r.value, r.index))


def _behind_a_frame(rho, seed):
    frame = Preset().build(rho.dims)
    rng = np.random.default_rng(seed)
    return apply(with_theta(frame, rng.uniform(-math.pi, math.pi, frame.n_theta)), rho)


@pytest.mark.parametrize("rho,preset", [
    (states.werner(0.5), Preset()),
    (_behind_a_frame(states.two_param_qubit_qutrit(0.1, 0.3), seed=3), Preset()),
    (states.ghz(3), Preset(kind=NONGLOBAL, depth=3)),
], ids=["werner", "2x3-random-frame", "ghz3-nonglobal"])
def test_report_is_the_winning_restarts_record(rho, preset):
    # the replay and the search run one conjugation, so the report's
    # value and residual are the chosen restart's own, bit for bit
    config = OptimizerConfig(preset=preset, restarts=3, seed=7, max_evals=3000)
    report = consonance(rho, config)
    chosen = _merged_restart(report)
    assert (report.value, report.l_residual) == (chosen.value, chosen.l_residual)


def test_upper_bound_chain():
    rho = states.werner(0.6)
    report = consonance(rho, CHEAP)
    oracle = oracle_consonance(rho, samples=2000, seed=3)
    s0 = nonlocal_sum(rho)
    assert report.value <= oracle.value + 1e-9
    assert oracle.value <= s0 + 1e-9  # identity sample is feasible here


def test_local_unitary_invariance():
    rho = states.werner(0.6)
    frame = with_theta(Preset().build((2, 2)),
                       np.array([0.3, -0.9, 0.4, 1.1, -0.2, 0.7, 0.05, -1.3]))
    rotated = apply(frame, rho)
    a = consonance(rho, CHEAP)
    b = consonance(rotated, CHEAP)
    assert abs(a.value - b.value) < 2 * TOL_VALUE + 2e-3


def test_no_value_below_closed_form():
    # regression guard: the search must not undercut the known infima
    for a in (0.3, 0.8):
        report = consonance(states.werner(a), CHEAP)
        assert report.value >= a - TOL_VALUE - 1e-3
    rho = states.two_param_qubit_qutrit(0.2, 0.1)
    beta = (1 - 0.4 - 0.1) / 3
    report = consonance(rho, CHEAP)
    assert report.value >= abs(beta - 0.1) - TOL_VALUE - 1e-3


def test_restart_records():
    report = consonance(states.werner(0.5), CHEAP)
    kinds = [r.kind for r in report.per_restart]
    assert kinds[0] == "identity"
    assert all(k == "random" for k in kinds[1:])
    assert len(kinds) == CHEAP.restarts
    assert report.n_evals == sum(r.evals for r in report.per_restart)
    assert report.preset == "single_party"


def test_warm_start_is_used():
    # hand the GHZ witness circuit to the non-global search
    config = OptimizerConfig(preset=Preset(kind=NONGLOBAL, depth=3),
                             restarts=2, seed=0, max_evals=4000,
                             warm_starts=(unitary.load_circuit(GHZ3_WITNESS),))
    report = consonance(density_from_pure(states.ghz(3)), config)
    assert report.feasible
    assert report.value <= 1e-4
    # warm starts slot in after the identity without displacing the
    # seeded random restarts
    assert [r.kind for r in report.per_restart] == ["identity", "warm", "random"]


def no_frames(monkeypatch):
    """Make any frame evaluation of the search fail the test."""
    def evaluate(*args):
        raise AssertionError("a frame was evaluated")
    monkeypatch.setattr(optimizer, "_frame_sums", evaluate)


def _circuit_of(shape):
    """A circuit with the given (support, dimension) layers, theta = 0.1."""
    return unitary.LocalCircuit(tuple(
        unitary.CircuitLayer(s, unitary.UnitaryParams(d, np.full(d * d, 0.1)))
        for s, d in shape))


@pytest.mark.parametrize("warm", [
    # the search's 36 parameters, on other parties
    _circuit_of([((2,), 2), ((1, 2), 4), ((0, 1), 4)]),
    # the search's supports, with the first two layer dimensions swapped
    _circuit_of([((0,), 4), ((0, 1), 2), ((0, 2), 4)]),
    # a raw parameter vector of the right length
    np.zeros(36),
], ids=["other-supports", "other-dimensions", "raw-array"])
def test_warm_start_must_match_the_search_circuit(monkeypatch, warm):
    no_frames(monkeypatch)
    config = OptimizerConfig(preset=Preset(kind=NONGLOBAL, depth=3), restarts=2,
                             warm_starts=(warm,))
    with pytest.raises(ValueError) as err:
        consonance(density_from_pure(states.ghz(3)), config)
    assert "[((0,), 2), ((0, 1), 4), ((0, 2), 4)]" in str(err.value)


def test_accepts_pure_state_input():
    report = consonance(states.bell_like(a2=0.5), CHEAP)
    assert report.value == pytest.approx(1.0, abs=1e-3)


# --- the brute-force oracle ----------------------------------------------


def test_oracle_diagonal_state():
    rho = DensityMatrix((2, 2), np.diag([0.4, 0.3, 0.2, 0.1]))
    res = oracle_consonance(rho, samples=50, seed=0)
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert res.feasible_count >= 1  # the identity sample


def test_oracle_never_beats_optimizer():
    rho = states.werner(0.6)
    report = consonance(rho, CHEAP)
    res = oracle_consonance(rho, samples=10_000, seed=1)
    assert res.value >= report.value - 1e-9
    assert res.samples == 10_000


def test_oracle_accepts_a_pure_state():
    psi = states.bell_like(a2=0.8)
    res = oracle_consonance(psi, samples=20, seed=2)
    assert res == oracle_consonance(density_from_pure(psi), samples=20, seed=2)


@pytest.mark.parametrize("samples", [0, -5, 2.7, 3.0, True, "10"])
def test_oracle_rejects_bad_sample_counts(samples):
    with pytest.raises(ValueError):
        oracle_consonance(states.werner(0.5), samples=samples)


def test_oracle_reads_eps_l_at_call_time(monkeypatch):
    # the oracle keeps the search's one tolerance, with no setting of its own
    rho = states.random_density((2, 2), seed=8)
    with pytest.raises(TypeError):
        oracle_consonance(rho, samples=4, eps_l=1.0)
    strict = oracle_consonance(rho, samples=64, seed=3)
    monkeypatch.setattr(optimizer, "EPS_L", math.inf)
    loose = oracle_consonance(rho, samples=64, seed=3)
    assert strict.feasible_count < loose.feasible_count == 64
    assert loose.value <= strict.value


def test_oracle_is_deterministic():
    rho = states.random_density((2, 2), seed=8)
    a = oracle_consonance(rho, samples=500, seed=4)
    b = oracle_consonance(rho, samples=500, seed=4)
    assert a == b


# --- serialization -------------------------------------------------------


def test_config_report_json():
    config = OptimizerConfig(restarts=2, seed=9, max_evals=2000)
    blob = config_to_json(config)
    assert blob["restarts"] == 2
    assert blob["seed"] == 9
    assert blob["preset"] == {"kind": "single_party", "depth": 3, "supports": None}
    # the fixed penalty schedule is written out with every config
    assert (blob["mu0"], blob["mu_growth"], blob["mu_stages"]) == (10.0, 10.0, 4)
    assert "tol_value" not in blob
    # eps_l is the fixed tolerance, written out but not a setting
    assert blob["eps_l"] == config.eps_l == EPS_L == 1e-6
    with pytest.raises(TypeError):
        OptimizerConfig(eps_l=1e-4)

    report = consonance(states.werner(0.3), config)
    out = report_to_json(report)
    assert set(out) >= {"value", "l_residual", "feasible", "circuit",
                        "preset", "per_restart", "n_evals"}
    assert len(out["per_restart"]) == 2
    circ = unitary.circuit_from_json(out["circuit"])
    assert nonlocal_sum(apply(circ, states.werner(0.3))) == pytest.approx(
        out["value"], abs=1e-9)
