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
from consonance.optimizer import (PENALTY_MUS, OptimizerConfig, Preset,
                                  _nelder_mead, consonance)
from consonance.qstate import density_from_pure
from test_frames import reference_sums, reference_unitary


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


@pytest.mark.parametrize("adaptive", [False, True])
@pytest.mark.parametrize("f,x0", [(_plateaus, np.linspace(-2, 2, 11)),
                                  (_quadratic(11, seed=3), np.zeros(11))])
def test_every_budget_matches_scipy(f, x0, adaptive):
    for maxfev in range(1, 160):
        _same_as_scipy(f, x0, maxfev, adaptive=adaptive)


# --- lockstep restarts against solo runs --------------------------------


def _scipy_restart(rho, template, x0, config):
    """One restart on scipy's Nelder-Mead, one frame at a time through the
    scalar reference: the search as it ran before the restarts were put
    in lockstep, on none of the package's frame code."""
    budget = max(50, config.max_evals // (len(PENALTY_MUS) + 1))
    adaptive = template.n_theta >= 10
    evals = 0

    def at(theta):
        nonlocal evals
        evals += 1
        return reference_sums(rho, reference_unitary(template, rho.dims, theta))

    def penalized(theta, mu):
        s, l = at(theta)
        return s + mu * l

    def nelder_mead(f, x, xatol, fatol):
        return minimize(f, x, method="Nelder-Mead",
                        options={"maxfev": budget, "xatol": xatol, "fatol": fatol,
                                 "adaptive": adaptive, "disp": False}).x

    x = np.asarray(x0, dtype=np.float64)
    for mu in PENALTY_MUS:
        x = nelder_mead(lambda t, mu=mu: penalized(t, mu), x, 1e-8, 1e-10)
    if at(x)[1] > config.eps_l:
        x = nelder_mead(lambda t: at(t)[1], x, 1e-10, 1e-14)
    s, l = at(x)
    return s, l, evals


def _random_start(config, j, n_theta):
    stream = np.random.Generator(np.random.Philox(key=config.seed).jumped(j))
    return stream.uniform(-math.pi, math.pi, size=n_theta)


@pytest.mark.parametrize("rho,preset", [
    (states.random_density((2, 3), seed=4), Preset()),
    (density_from_pure(states.w_state(3)), Preset(kind=unitary.NONGLOBAL, depth=2)),
])
def test_lockstep_restarts_match_solo_runs(rho, preset):
    config = OptimizerConfig(preset=preset, restarts=4, seed=9, max_evals=1000)
    lockstep = consonance(rho, config)
    template = preset.build(rho.dims)
    for j, record in enumerate(lockstep.per_restart):
        x0 = (_random_start(config, j, template.n_theta) if j
              else np.zeros(template.n_theta))
        assert (record.value, record.l_residual, record.evals) == \
            _scipy_restart(rho, template, x0, config)
        if j == 0:
            continue
        solo = consonance(rho, OptimizerConfig(preset=preset, restarts=1,
                                               seed=config.seed,
                                               max_evals=config.max_evals,
                                               warm_starts=(x0,)))
        assert solo.per_restart[0] == lockstep.per_restart[0]
        got = solo.per_restart[1]
        assert (got.value, got.l_residual, got.evals) == \
            (record.value, record.l_residual, record.evals)
