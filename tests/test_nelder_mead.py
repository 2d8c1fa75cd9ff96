"""The in-package Nelder-Mead against scipy's, and lockstep restarts
against solo runs and against the search on scipy's Nelder-Mead driving
the scalar frame reference of ``test_frames``.

Every comparison uses ``==``: the generator repeats scipy's arithmetic
operation for operation, and a restart's path depends only on its own
frame values, so nothing may differ in the last bit.
"""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from consonance import states, unitary
from consonance.optimizer import (EPS_L, PENALTY_MUS, OptimizerConfig, Preset,
                                  _nelder_mead, consonance)
from consonance.qstate import density_from_pure
from test_acceptance import OPT_SMALL
from test_frames import reference_sums, reference_unitary
from test_nonglobal_lift import noisy_ghz3_behind_a_haar_frame
from test_unitary import mixed_marginals, moved_columns, with_local_noise


def _drive(f, x0, maxfev, xatol, fatol, adaptive):
    """Run the generator on f; return its final simplex and values, and
    every stack it asked for."""
    nm = _nelder_mead(lambda values: values, np.array(x0, dtype=float), maxfev,
                      xatol, fatol, adaptive)
    stacks = []
    points = next(nm)
    while True:
        stacks.append(points.copy())
        try:
            points = nm.send(np.array([f(p) for p in points]))
        except StopIteration as stop:
            return stop.value, stacks


def _same_as_scipy(f, x0, maxfev, xatol=1e-8, fatol=1e-10, adaptive=False):
    res = minimize(f, np.array(x0, dtype=float), method="Nelder-Mead",
                   options={"maxfev": maxfev, "xatol": xatol, "fatol": fatol,
                            "adaptive": adaptive, "disp": False})
    (sim, fsim), stacks = _drive(f, x0, maxfev, xatol, fatol, adaptive)
    assert (sim == res.final_simplex[0]).all()
    assert (fsim == res.final_simplex[1]).all()
    assert (sim[0] == res.x).all() and np.min(fsim) == res.fun
    assert sum(len(s) for s in stacks) == res.nfev
    return stacks


def _quadratic(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    a = a @ a.T + n * np.eye(n)
    c = rng.normal(size=n)
    return lambda x: float((x - c) @ a @ (x - c))


def _linear(x):
    return float(x[0])


def _kink(x):
    return float(abs(x[0] - 1.0))


def _plateaus(x):
    return float(np.round(np.sum(x * x) * 2))


def _noisy(x):
    # a hash-like landscape: from (0.3, -0.2) an outside contraction that
    # loses to its reflection turns into a shrink, 3 times in 60 evaluations
    v = math.sin(x @ np.array([12.9898, 78.233])) * 43758.5453
    return float(v - math.floor(v))


@pytest.mark.parametrize("n,adaptive", [(4, False), (12, True), (12, False)])
def test_converges_by_tolerance_like_scipy(n, adaptive):
    maxfev = 50_000
    stacks = _same_as_scipy(_quadratic(n, seed=n), np.ones(n), maxfev,
                            xatol=1e-6, fatol=1e-8, adaptive=adaptive)
    assert sum(len(s) for s in stacks) < maxfev


@pytest.mark.parametrize("adaptive", [False, True])
def test_budget_cuts_the_initial_simplex(adaptive):
    n = 12
    stacks = _same_as_scipy(_quadratic(n, seed=1), np.linspace(-1, 1, n), 7,
                            adaptive=adaptive)
    assert [len(s) for s in stacks] == [7]


def test_budget_stops_before_an_expand_point():
    # the reflection 0.95 beats the best vertex, so 0.9 would be expanded to
    _, stacks = _drive(_linear, [1.0], 4, 1e-8, 1e-10, False)
    assert stacks[-1][0, 0] == pytest.approx(0.9)
    stacks = _same_as_scipy(_linear, [1.0], 3)
    assert [len(s) for s in stacks] == [2, 1]


def test_budget_stops_before_a_contraction_point():
    # the reflection 0.95 ties the worst vertex: inside contraction to 1.025
    _, stacks = _drive(_kink, [1.0], 4, 1e-8, 1e-10, False)
    assert stacks[-1][0, 0] == pytest.approx(1.025)
    stacks = _same_as_scipy(_kink, [1.0], 3)
    assert [len(s) for s in stacks] == [2, 1]


@pytest.mark.parametrize("maxfev,sizes", [(5, [3, 1, 1]), (6, [3, 1, 1, 1]),
                                          (7, [3, 1, 1, 2])])
def test_budget_cuts_a_shrink(maxfev, sizes):
    # reflect, a failed contraction, then a shrink of both other vertices
    stacks = _same_as_scipy(_plateaus, [0.0, 0.0], maxfev)
    assert [len(s) for s in stacks] == sizes


def _flat(x):
    return 0.0


def _steep_kink(x):
    return float(1e6 * (abs(x[0] - 0.3) + abs(x[1] + 0.2)))


def _nfev(f, x0, maxfev, xatol, fatol):
    return minimize(f, np.array(x0, dtype=float), method="Nelder-Mead",
                    options={"maxfev": maxfev, "xatol": xatol, "fatol": fatol,
                             "disp": False}).nfev


@pytest.mark.parametrize("f,x0,xatol,fatol,held", [
    # every value ties, so the f spread is 0 from the start; only the
    # shrinking simplex spread keeps the search going
    (_flat, [0.5, -0.4, 1.0], 1e-4, 1e-10, "f"),
    # a slope of 1e6: the simplex spread meets 1e-4 long before the f
    # spread meets 1e-3
    (_steep_kink, [0.0, 0.0], 1e-4, 1e-3, "x"),
], ids=["f-spread-within-fatol", "simplex-spread-within-xatol"])
def test_a_one_sided_stop_test_stops_where_scipy_stops(f, x0, xatol, fatol, held):
    maxfev = 5000
    stacks = _same_as_scipy(f, x0, maxfev, xatol=xatol, fatol=fatol)
    nfev = sum(len(s) for s in stacks)
    assert nfev < maxfev       # stopped by the test, not by the budget
    # with the side that held made always true, scipy stops earlier: there
    # that side held while the other did not
    one_side = (xatol, math.inf) if held == "x" else (math.inf, fatol)
    assert _nfev(f, x0, maxfev, *one_side) < nfev


@pytest.mark.parametrize("adaptive", [False, True])
@pytest.mark.parametrize("f,x0", [(_plateaus, np.linspace(-2, 2, 11)),
                                  (_quadratic(11, seed=3), np.zeros(11)),
                                  (_noisy, np.array([0.3, -0.2]))])
def test_every_budget_matches_scipy(f, x0, adaptive):
    for maxfev in range(1, 160):
        _same_as_scipy(f, x0, maxfev, adaptive=adaptive)


# --- lockstep restarts against solo runs --------------------------------


def _scipy_restart(rho, template, x0, config, groups=None, stage_ls=None):
    """One restart on scipy's Nelder-Mead, one frame at a time through the
    scalar reference: the search as it ran before the restarts were put
    in lockstep, on none of the package's frame code, over the preset's
    circuit ``template``.  Scipy moves the search's columns
    (``moved_columns`` of ``groups``); the others stay at their values in
    ``x0``.  The restart ends at the first stage whose end has L <= eps_L,
    and runs the polish only if none does; ``stage_ls``, if given, gets
    each stage end's L."""
    stage_ls = [] if stage_ls is None else stage_ls
    budget = max(50, config.max_evals // (len(PENALTY_MUS) + 1))
    moved = moved_columns(template, groups)
    adaptive = len(moved) >= 10
    evals = 0

    def at(y):
        nonlocal evals
        evals += 1
        theta = np.array(x0, dtype=np.float64)
        theta[moved] = y
        return reference_sums(rho, reference_unitary(template, rho.dims, theta))

    def penalized(y, mu):
        s, l = at(y)
        return s + mu * l

    def nelder_mead(f, y, xatol, fatol):
        return minimize(f, y, method="Nelder-Mead",
                        options={"maxfev": budget, "xatol": xatol, "fatol": fatol,
                                 "adaptive": adaptive, "disp": False}).x

    y = np.asarray(x0, dtype=np.float64)[moved]
    for mu in PENALTY_MUS:
        y = nelder_mead(lambda t, mu=mu: penalized(t, mu), y, 1e-8, 1e-10)
        s, l = at(y)
        stage_ls.append(l)
        if l <= config.eps_l:
            return s, l, evals
    y = nelder_mead(lambda t: at(t)[1], y, 1e-10, 1e-14)
    s, l = at(y)
    return s, l, evals


def _random_start(config, j, template, groups=None):
    """Restart j's start: the seed's j-th Philox jump draws every column,
    and the columns the search does not move are set to 0."""
    stream = np.random.Generator(np.random.Philox(key=config.seed).jumped(j))
    x0 = np.zeros(template.n_theta)
    moved = moved_columns(template, groups)
    x0[moved] = stream.uniform(-math.pi, math.pi, size=template.n_theta)[moved]
    return x0


@pytest.mark.parametrize("rho,preset", [
    # marginals I/2 and I/3: every off-diagonal column moves
    (mixed_marginals((2, 3), seed=4), Preset()),
    (density_from_pure(states.w_state(3)), Preset(kind=unitary.NONGLOBAL, depth=2)),
])
def test_lockstep_restarts_match_solo_runs(rho, preset):
    _lockstep_matches_solo_runs(rho, preset)


def test_lockstep_restarts_match_solo_runs_on_a_degenerate_marginal():
    # the qutrit marginal is diag(0.4, 0.4, 0.2), exactly diagonal, so no
    # layer rotates and only the qubit's pair and the qutrit's (0, 1) move;
    # the local noise keeps the projection from deciding the state
    rho = with_local_noise(states.two_param_qubit_qutrit(0.1, 0.3), 0.05, seed=1)
    _lockstep_matches_solo_runs(rho, Preset(), groups=[[0, 0], [0, 0, 1]])


@pytest.mark.parametrize("rho", [
    density_from_pure(states.ghz(3)),
    noisy_ghz3_behind_a_haar_frame(1.0, seed=1),
], ids=["standard", "behind-a-frame"])
def test_rounds_with_one_restart_live_match_solo_runs(rho):
    # the search runs in the decided frame, so the references run on
    # frame.state(rho), whose own search frame rotates no party; the
    # identity restart starts feasible there and ends after its first
    # stage, and the random restart runs every later round alone
    preset = Preset(kind=unitary.NONGLOBAL, depth=3)
    searched = preset.search_frame(rho).state(rho)
    assert preset.search_frame(searched).rotations == (None,) * 3
    identity, random = _lockstep_matches_solo_runs(searched, preset, restarts=2)
    assert identity.l_residual <= EPS_L
    assert identity.evals == 1000 // (len(PENALTY_MUS) + 1) + 1 < random.evals


def test_a_warm_start_left_alone_keeps_its_unmoved_columns():
    # the identity restart ends after its first stage, and the warm start
    # then runs alone, with its own value in the last diagonal column of
    # each layer, which the search does not move
    preset = Preset(kind=unitary.NONGLOBAL, depth=3)
    rho = density_from_pure(states.ghz(3))
    template = preset.build(rho.dims)
    x0 = np.linspace(-1.0, 1.1, template.n_theta)
    config = OptimizerConfig(preset=preset, restarts=1, seed=9, max_evals=1000,
                             warm_starts=(unitary.with_theta(template, x0),))
    identity, warm = consonance(rho, config).per_restart
    assert identity.evals == 1000 // (len(PENALTY_MUS) + 1) + 1 < warm.evals
    assert (warm.value, warm.l_residual, warm.evals) == \
        _scipy_restart(rho, template, x0, config)


def _lockstep_matches_solo_runs(rho, preset, groups=None, restarts=4):
    """Check every restart's record of a lockstep search against its
    scipy reference and against a solo run; returns the records."""
    config = OptimizerConfig(preset=preset, restarts=restarts, seed=9, max_evals=1000)
    lockstep = consonance(rho, config)
    template = preset.build(rho.dims)
    assert preset.search_frame(rho).moved.tolist() == moved_columns(template, groups)
    for j, record in enumerate(lockstep.per_restart):
        x0 = (_random_start(config, j, template, groups) if j
              else np.zeros(template.n_theta))
        assert (record.value, record.l_residual, record.evals) == \
            _scipy_restart(rho, template, x0, config, groups)
        if j == 0:
            continue
        solo = consonance(rho, OptimizerConfig(preset=preset, restarts=1,
                                               seed=config.seed,
                                               max_evals=config.max_evals,
                                               warm_starts=(unitary.with_theta(template,
                                                                               x0),)))
        assert solo.per_restart[0] == lockstep.per_restart[0]
        got = solo.per_restart[1]
        assert (got.value, got.l_residual, got.evals) == \
            (record.value, record.l_residual, record.evals)
    return lockstep.per_restart


def test_a_warm_start_keeps_the_columns_the_search_does_not_move():
    # every column of the start is apart from 0, the diagonal ones too
    rho = mixed_marginals((2, 3), seed=4)
    template = Preset().build(rho.dims)
    x0 = np.linspace(-1.0, 1.1, template.n_theta)
    config = OptimizerConfig(restarts=1, seed=9, max_evals=1000,
                             warm_starts=(unitary.with_theta(template, x0),))
    got = consonance(rho, config).per_restart[1]
    assert got.kind == "warm"
    assert (got.value, got.l_residual, got.evals) == \
        _scipy_restart(rho, template, x0, config)


# --- the stop rule: a restart ends at its first feasible stage ----------


def test_a_restart_stops_at_the_first_stage_that_ends_feasible():
    # the qubit-qutrit state in its own frame, where L = 0 and S = |beta -
    # gamma| = 2/15, with local noise of weight 5e-12, so S there is 2/15 to
    # 1e-12 and L is near 5e-12: too little L for the mu = 10 stage to
    # see, which ends feasible, and too much for the projection, which
    # stalls (the state alone, like a two-qubit state with an I/2
    # marginal, runs no search: its frame is decided)
    rho = with_local_noise(states.two_param_qubit_qutrit(0.1, 0.3), 5e-12, seed=1)
    record = consonance(rho, OPT_SMALL).per_restart[0]
    assert record.kind == "identity"
    assert record.evals <= OPT_SMALL.max_evals // (len(PENALTY_MUS) + 1) + 1
    assert record.l_residual <= EPS_L
    assert abs(record.value - 2 / 15) <= 1e-12
    template = Preset().build(rho.dims)
    stage_ls = []
    assert (record.value, record.l_residual, record.evals) == \
        _scipy_restart(rho, template, np.zeros(template.n_theta), OPT_SMALL,
                       groups=[[0, 0], [0, 0, 1]], stage_ls=stage_ls)
    assert len(stage_ls) == 1


def test_a_restart_whose_stages_all_end_infeasible_runs_them_all_and_the_polish():
    # 60 evaluations a stage cut every stage short of L <= eps_L
    rho = mixed_marginals((2, 3), seed=2)
    config = OptimizerConfig(restarts=2, seed=9, max_evals=300)
    template = Preset().build(rho.dims)
    for j, record in enumerate(consonance(rho, config).per_restart):
        x0 = _random_start(config, j, template) if j else np.zeros(template.n_theta)
        stage_ls = []
        assert (record.value, record.l_residual, record.evals) == \
            _scipy_restart(rho, template, x0, config, stage_ls=stage_ls)
        assert len(stage_ls) == len(PENALTY_MUS) and min(stage_ls) > EPS_L
        # four stages and the polish on their whole budget, and five looks
        assert record.evals == 5 * 60 + 5
