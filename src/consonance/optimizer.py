"""Constrained minimization of the nonlocal sum over local frame changes.

The consonance of a state is the infimum of the nonlocal coherence sum S
over circuits of local unitaries whose output has vanishing local
coherence L.  The circuits are those of a ``unitary.Preset`` (also
importable from here): the search builds the preset's circuit at
theta = 0 and moves only its parameters; it decides no support.  The
search runs an exterior penalty scheme,

    minimize  S(theta) + mu * L(theta),

with mu escalating through a fixed stage schedule, Nelder-Mead as the
inner search, and multiple restarts: the identity frame first (theta = 0),
then optional caller-supplied warm starts, then uniform random draws in
[-pi, pi]^P from a counter-based Philox stream keyed by the seed, one
jump per restart index.  A restart whose final L still exceeds eps_L gets
a feasibility polish that minimizes L alone.  Results are merged
deterministically: among feasible candidates the lowest value wins, ties
broken by lower L residual and then lower restart index; if no restart is
feasible the minimal-L candidate is reported with ``feasible=False``.

Every restart runs in lockstep with the others.  Each restart is a
generator that yields the frames it needs next (its initial simplex, one
reflect/expand/contract point, or a shrink) and receives their S and L.
A round stacks the pending frames of every live restart and evaluates
them in one call, in chunks of at most ``ORACLE_CHUNK`` frames.  A
restart's path depends only on its own values, and each evaluated row is
independent of the stack it sits in, so the lockstep search returns the
same report as running the restarts one after another.

The Nelder-Mead is the in-package generator ``_nelder_mead``.  It repeats
scipy's ``minimize(method="Nelder-Mead")`` with no bounds operation for
operation, including where its ``maxfev`` budget cuts the search, so its
points and result equal scipy's bit for bit.

Every frame is evaluated in two steps, and this module does no linear
algebra of its own.  ``_conjugated`` is the one chunk loop: it yields rho
conjugated by the frames, U rho U† from ``unitary.conjugate``, in stacks
of at most ``ORACLE_CHUNK`` frames.  Each caller then reduces the stacks
itself.  The search gives every row to ``coherence.class_sums`` for S
and L (``_frame_sums``).  The brute-force oracle wants only the rows with
L <= EPS_L, so it first runs ``coherence.local_screen``, a float64
estimate of L that keeps every such row, and sums only the survivors
with ``class_sums``; only ``class_sums`` reports a class sum.

The reported value is recomputed from the winning circuit through the
public ``unitary.apply``, whose density branch is one row of the same
``unitary.conjugate``, and one ``class_sums`` call, so it always matches
what a caller would reproduce from the report and equals the winning
restart's record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import coherence, unitary
from .qstate import (DensityMatrix, PureState, assert_valid, check_integer,
                     check_seed, density_from_pure)
from .unitary import Preset

EPS_L = 1e-6
PENALTY_MUS = (10.0, 100.0, 1000.0, 10000.0)    # mu = 10 * 10^k, four stages
ORACLE_CHUNK = 1024    # frames per unitary.conjugate call; bounds peak memory
_S_AND_L = (coherence.CoherenceClass.NONLOCAL, coherence.CoherenceClass.LOCAL)


def _check_preset(preset) -> None:
    if not isinstance(preset, Preset):
        raise ValueError(f"preset must be a Preset, got {preset!r}")


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of the multi-start penalty search.

    ``max_evals`` is a budget per restart, not a total: each of the four
    penalty stages and the feasibility polish may use ``max_evals // 5``
    evaluations (at least 50).  ``eps_l`` reads the fixed feasibility
    tolerance ``EPS_L``.
    """

    preset: Preset = field(default_factory=Preset)
    restarts: int = 32
    seed: int = 0
    max_evals: int = 20000
    eps_l: ClassVar[float] = EPS_L
    warm_starts: tuple = ()

    def __post_init__(self):
        _check_preset(self.preset)
        for name in ("restarts", "max_evals"):
            object.__setattr__(self, name, check_integer(getattr(self, name), name))
        object.__setattr__(self, "seed", check_seed(self.seed))
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_evals < 100:
            raise ValueError(f"max_evals too small: {self.max_evals}")
        warm = tuple(np.array(w, dtype=np.float64) for w in self.warm_starts)
        if not all(np.isfinite(w).all() for w in warm):
            raise ValueError("warm starts must hold finite parameters only")
        object.__setattr__(self, "warm_starts", warm)


@dataclass(frozen=True)
class RestartRecord:
    index: int
    kind: str              # "identity" | "warm" | "random"
    value: float           # S at the restart's final point
    l_residual: float
    evals: int


@dataclass(frozen=True, eq=False)
class ConsonanceReport:
    value: float
    l_residual: float
    feasible: bool
    circuit: unitary.LocalCircuit
    preset: str
    per_restart: tuple[RestartRecord, ...]
    n_evals: int


def _search_setup(rho, preset: Preset):
    """What both searches start from: ``rho`` as a checked density matrix,
    the preset's circuit on its dims, and the frame builder for it."""
    if isinstance(rho, PureState):
        rho = density_from_pure(rho)
    _check_preset(preset)
    assert_valid(rho)
    template = preset.build(rho.dims)
    return rho, template, unitary.FrameBuilder(template, rho.dims)


def _conjugated(frames: unitary.FrameBuilder, rho: DensityMatrix, thetas: np.ndarray):
    """rho conjugated by the frames at a stack of parameter vectors
    (B, n_theta), yielded as stacks of at most ``ORACLE_CHUNK`` frames."""
    for start in range(0, len(thetas), ORACLE_CHUNK):
        yield unitary.conjugate(frames, rho.entries, thetas[start:start + ORACLE_CHUNK])


def _frame_sums(frames: unitary.FrameBuilder, rho: DensityMatrix,
                thetas: np.ndarray) -> tuple[list[float], list[float]]:
    """S and L lists of rho conjugated by the frames at a stack of
    parameter vectors (B, n_theta)."""
    s: list[float] = []
    l: list[float] = []
    for rotated in _conjugated(frames, rho, thetas):
        chunk_s, chunk_l = coherence.class_sums(rotated, rho.dims, _S_AND_L)
        s += chunk_s
        l += chunk_l
    return s, l


def _order(sim: np.ndarray, fsim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ind = fsim.argsort()
    return sim[ind], fsim[ind]


def _nelder_mead(objective, x0: np.ndarray, maxfev: int, xatol: float,
                 fatol: float, adaptive: bool):
    """Nelder-Mead as a generator: yields stacks of points (k, n), receives
    what the caller evaluated there, takes ``objective`` of it as the k
    values, and returns the final simplex and its values, best first
    (scipy's ``final_simplex``).

    It is scipy's ``_minimize_neldermead`` with no bounds, no callback and
    no ``maxiter``, operation for operation: the same coefficients (the
    adaptive ones of Gao & Han, Comput. Optim. Appl. 51:259, 2012), the
    same initial simplex, orderings and xatol/fatol test.  It stops where
    scipy's maxfev wrapper raises: the initial simplex is cut at maxfev
    vertices, no expand or contract point is asked for once the budget is
    spent, and a shrink evaluates only what is left of the budget but
    still moves the vertex at which scipy raised.  The initial simplex and
    a shrink come as one stack each, every other point alone.
    """
    x0 = np.asarray(x0, dtype=np.float64).flatten()
    n = len(x0)
    if adaptive:
        dim = float(n)
        rho, chi, psi, sigma = 1, 1 + 2 / dim, 0.75 - 1 / (2 * dim), 1 - 1 / dim
    else:
        rho, chi, psi, sigma = 1, 2, 0.5, 0.5

    nonzdelt, zdelt = 0.05, 0.00025
    sim = np.tile(x0, (n + 1, 1))
    sim[np.arange(1, n + 1), np.arange(n)] = np.where(x0 != 0, (1 + nonzdelt) * x0,
                                                       zdelt)
    fsim = np.full(n + 1, np.inf)
    nfev = min(n + 1, maxfev)
    fsim[:nfev] = objective((yield sim[:nfev]))
    # scipy sorts twice here; the second pass can reorder ties
    sim, fsim = _order(sim, fsim)
    sim, fsim = _order(sim, fsim)

    while nfev < maxfev:
        if (np.abs(sim[1:] - sim[0]).max() <= xatol
                and np.abs(fsim[0] - fsim[1:]).max() <= fatol):
            break
        fbest, fnext, fworst = fsim[0], fsim[-2], fsim[-1]
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + rho) * xbar - rho * sim[-1]
        (fxr,) = objective((yield xr[None]))
        nfev += 1
        if fxr < fbest:
            if nfev < maxfev:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                (fxe,) = objective((yield xe[None]))
                nfev += 1
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
        elif fxr < fnext:
            sim[-1], fsim[-1] = xr, fxr
        elif nfev < maxfev:
            doshrink = False
            if fxr < fworst:
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                (fxc,) = objective((yield xc[None]))
                nfev += 1
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    doshrink = True
            else:
                xcc = (1 - psi) * xbar + psi * sim[-1]
                (fxcc,) = objective((yield xcc[None]))
                nfev += 1
                if fxcc < fworst:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    doshrink = True
            if doshrink:
                k = min(n, maxfev - nfev)      # vertices evaluated
                moved = min(n, k + 1)          # scipy moves the one it raised at
                sim[1:moved + 1] = sim[0] + sigma * (sim[1:moved + 1] - sim[0])
                if k:
                    fsim[1:k + 1] = objective((yield sim[1:k + 1]))
                    nfev += k
        sim, fsim = _order(sim, fsim)
    return sim, fsim


def _search_one(x0: np.ndarray, n_theta: int, config: OptimizerConfig):
    """One restart: the penalty stages, the polish if L is still above
    eps_L, and a last look at the final frame.  Yields frame stacks,
    receives their (S, L) arrays, and returns (x, S, L) at the end."""
    budget = max(50, config.max_evals // (len(PENALTY_MUS) + 1))
    adaptive = n_theta >= 10
    x = np.asarray(x0, dtype=np.float64)
    for mu in PENALTY_MUS:
        sim, _ = yield from _nelder_mead(
            lambda sl, mu=mu: [s + mu * l for s, l in zip(*sl)], x, budget,
            1e-8, 1e-10, adaptive)
        x = sim[0]
    _, l = yield x[None]
    if l[0] > EPS_L:
        sim, _ = yield from _nelder_mead(lambda sl: sl[1], x, budget, 1e-10,
                                         1e-14, adaptive)
        x = sim[0]
    s, l = yield x[None]
    return x, float(s[0]), float(l[0])


def _start_points(config: OptimizerConfig, n_theta: int):
    """Yield (kind, theta0) per restart; random streams depend only on
    (seed, restart position), so warm starts never shift them."""
    yield "identity", np.zeros(n_theta)
    for w in config.warm_starts:
        if w.shape != (n_theta,):
            raise ValueError(f"warm start must have shape ({n_theta},), "
                             f"got {w.shape}")
        yield "warm", w
    for j in range(1, config.restarts):
        stream = np.random.Generator(np.random.Philox(key=config.seed).jumped(j))
        yield "random", stream.uniform(-math.pi, math.pi, size=n_theta)


def consonance(rho: DensityMatrix, config: OptimizerConfig | None = None) -> ConsonanceReport:
    """Estimate the consonance of ``rho`` under the configured preset.

    Returns a report whose ``value`` is exactly the nonlocal sum of
    ``apply(report.circuit, rho)``; ``feasible`` records whether the local
    coherence residual meets eps_L.  The estimate is an upper bound on the
    true infimum whenever it is feasible.
    """
    config = config or OptimizerConfig()
    rho, template, frames = _search_setup(rho, config.preset)

    starts = list(_start_points(config, frames.n_theta))
    searches = [_search_one(x0, frames.n_theta, config) for _, x0 in starts]
    pending = [next(search) for search in searches]
    evals = [0] * len(searches)
    ends = [None] * len(searches)
    live = list(range(len(searches)))
    while live:
        batch = (pending[live[0]] if len(live) == 1
                 else np.concatenate([pending[i] for i in live]))
        s, l = _frame_sums(frames, rho, batch)
        still_live = []
        row = 0
        for i in live:
            n = len(pending[i])
            evals[i] += n
            try:
                pending[i] = searches[i].send((s[row:row + n], l[row:row + n]))
                still_live.append(i)
            except StopIteration as stop:
                ends[i] = stop.value
            row += n
        live = still_live

    records = [RestartRecord(index, kind, value, l_res, evals[index])
               for index, ((kind, _), (_, value, l_res))
               in enumerate(zip(starts, ends))]
    finals = [x for x, _, _ in ends]

    feasible_idx = [r.index for r in records if r.l_residual <= EPS_L]
    if feasible_idx:
        best = min(feasible_idx,
                   key=lambda i: (records[i].value, records[i].l_residual, i))
        feasible = True
    else:
        best = min(range(len(records)),
                   key=lambda i: (records[i].l_residual, records[i].value, i))
        feasible = False

    circuit = unitary.with_theta(template, finals[best])
    rotated = unitary.apply(circuit, rho)
    (value,), (l_res,) = coherence.class_sums(rotated.entries, rho.dims, _S_AND_L)
    return ConsonanceReport(
        value=value,
        l_residual=l_res,
        feasible=bool(l_res <= EPS_L) and feasible,
        circuit=circuit,
        preset=template.preset,
        per_restart=tuple(records),
        n_evals=sum(evals),
    )


@dataclass(frozen=True)
class OracleResult:
    value: float           # inf over feasible samples; inf if none
    feasible_count: int
    samples: int


def oracle_consonance(rho: DensityMatrix, preset: Preset | None = None,
                      samples: int = 10000, seed: int = 0) -> OracleResult:
    """Brute-force cross-check: best feasible S over random frames.

    Draws ``samples`` parameter vectors (the first is theta = 0) from a
    single Philox stream and keeps the minimum S among those with
    L <= ``EPS_L``, the search's feasibility tolerance, read at call time.
    All frames are drawn at once, which gives the same numbers as drawing
    them one by one, and evaluated in chunks of ``ORACLE_CHUNK``.  Only the
    frames that pass ``coherence.local_screen`` are summed exactly; the
    screen keeps every frame with L <= EPS_L, so the result is the same
    as summing them all.  Crude by design; used to confirm the optimizer
    is not undershooting.
    """
    samples = check_integer(samples, "samples")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    seed = check_seed(seed)
    rho, _, frames = _search_setup(rho, Preset() if preset is None else preset)
    rng = np.random.Generator(np.random.Philox(key=seed))
    thetas = np.zeros((samples, frames.n_theta))
    thetas[1:] = rng.uniform(-math.pi, math.pi, size=(samples - 1, frames.n_theta))
    best = math.inf
    feasible = 0
    for rotated in _conjugated(frames, rho, thetas):
        screened = rotated[coherence.local_screen(rotated, rho.dims, EPS_L)]
        s, l = map(np.array, coherence.class_sums(screened, rho.dims, _S_AND_L))
        ok = l <= EPS_L
        feasible += int(np.count_nonzero(ok))
        if ok.any():
            best = min(best, float(s[ok].min()))
    return OracleResult(best, feasible, samples)


# --- report serialization ------------------------------------------------


def config_to_json(config: OptimizerConfig) -> dict:
    return {
        "preset": {"kind": config.preset.kind, "depth": config.preset.depth,
                   "supports": None},
        "restarts": config.restarts,
        "seed": config.seed,
        "mu0": PENALTY_MUS[0],
        "mu_growth": PENALTY_MUS[1] / PENALTY_MUS[0],
        "mu_stages": len(PENALTY_MUS),
        "eps_l": EPS_L,
        "max_evals": config.max_evals,
        "warm_starts": [w.tolist() for w in config.warm_starts],
    }


def report_to_json(report: ConsonanceReport) -> dict:
    return {
        "value": report.value,
        "l_residual": report.l_residual,
        "feasible": report.feasible,
        "preset": report.preset,
        "n_evals": report.n_evals,
        "per_restart": [
            {"index": r.index, "kind": r.kind, "value": r.value,
             "l_residual": r.l_residual, "evals": r.evals}
            for r in report.per_restart
        ],
        "circuit": unitary.circuit_to_json(report.circuit),
    }
