"""Constrained minimization of the nonlocal sum over local frame changes.

The consonance of a state is the infimum of the nonlocal coherence sum S
over circuits of local unitaries whose output has vanishing local
coherence L.  The circuits are those of a ``unitary.Preset`` (also
importable from here): ``Preset.search_frame`` decides, for the state,
the circuit the search runs over, the frame it runs in and the columns
it moves, and the search holds every other column at its start value.
Both kinds may run in the frame ``decide.single_party`` settles: every
``nonglobal`` circuit holds every party (on two parties it is the
``single_party`` circuit), so it holds every product of single-party
unitaries, and where that frame has L = 0 its identity restart starts
feasible at the single-party value and ends after its first stage.
This module decides no support, builds no circuit and reads no layer
list.  The search runs an exterior penalty scheme,

    minimize  S(theta) + mu * L(theta),

with mu escalating through a fixed stage schedule only while the
constraint is violated: after each stage the search looks at its end
frame, and a restart whose stage ends with L <= eps_L ends there.
L >= 0, so S + mu' L >= S + mu L for every mu' > mu, with equality where
L = 0: a stage minimizer with L = 0 minimizes every later stage too.  A
restart whose last penalty stage still ends with L above eps_L gets a
feasibility polish, a fifth stage taken the same way, that minimizes L
alone.  Nelder-Mead over the moved columns is the inner search, with
multiple restarts: the identity frame first (theta = 0), then optional
caller-supplied warm starts, then
uniform random draws in [-pi, pi]^P from a counter-based Philox stream
keyed by the seed, one jump per restart index, with the unmoved columns
set to 0.  A warm start is a circuit on rho, such as a circuit file or
an earlier report's circuit: ``SearchFrame.to_search`` checks its layers
and moves it into the search's circuit and frame before any frame is
evaluated, and the search keeps its unmoved columns as they are.
Where no column moves, which under ``single_party`` is where
``decide.single_party`` settles the frame (its module docstring gives
the chain of deciders and where each one leaves the search to run), no
search runs: there are no random restarts, which would repeat the
identity, and no Nelder-Mead.  The identity's record is the class sums
of the searched state V† rho V as it is, with no frame built, since the
chart at theta = 0 is exactly the identity; the warm starts, if any, are
evaluated once each in one stack.
``consonance()`` then takes three steps: it steps every restart to its
end, ranks the restarts with one key (feasible ones first, by S, then L,
then index; the rest by L, then S, then index) and replays the circuit
of the one ranked first, moved back onto rho by ``SearchFrame.to_state``,
so the report's circuit has the preset's layers.

Every restart runs in lockstep with the others.  Each restart is a
generator that yields the points it needs next (its initial simplex, one
reflect/expand/contract point, or a shrink) and receives their S and L.
A round stacks the pending points of every live restart and writes the
stack into its restarts' start rows with one gather and one scatter; a
round with one live restart repeats that restart's row once per point
and writes its points in.  It evaluates the frames in one call, which
conjugates once per stack of at most ``ORACLE_CHUNK`` frames, so once in
every round of a search.  A restart's path depends only on its own values, and each
evaluated row is independent of the stack it sits in, so the lockstep
search returns the same report as running the restarts one after
another.

The Nelder-Mead is the in-package generator ``_nelder_mead``.  It repeats
scipy's ``minimize(method="Nelder-Mead")`` with no bounds operation for
operation, including where its ``maxfev`` budget cuts the search, so its
points and result equal scipy's bit for bit.

Every frame is evaluated in two steps, and this module does no linear
algebra of its own.  rho is conjugated by the frames, U rho U† from
``unitary.conjugate``, in stacks of at most ``ORACLE_CHUNK`` frames, and
each caller reduces the stacks itself.  The search gives every row to
its S and L summer (``_frame_sums``), ``coherence.class_summer`` bound
once per ``consonance()`` call to the state's dims, so a round looks
nothing up; the identity record of a decided frame and the replay use
the same summer.  The brute-force
oracle draws its frames one chunk at a time, so its memory does not grow
with its sample count.  It wants only the rows with L <= EPS_L, so it
first runs ``coherence.local_screen``, a float64 estimate of L that keeps
every such row, and sums only the survivors with ``class_sums``; only
``coherence`` reports a class sum.

The replay runs the winning circuit on rho through the public
``unitary.apply``, whose density branch is one row of the same
``unitary.conjugate``, and one call of the summer.  The report holds
that S and L, the circuit and the restart records, and derives the rest
from them, so its value always matches what a caller would reproduce
from it and its feasibility is the replay's L against eps_L.  Where no
party rotates, both equal the winning restart's record bit for bit;
where one does, its circuit passes through the chart inverse, and they
agree to rounding.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import coherence, unitary
from .qstate import DensityMatrix, as_density, assert_valid, check_integer, check_seed, philox
from .unitary import Preset

EPS_L = 1e-6
PENALTY_MUS = (10.0, 100.0, 1000.0, 10000.0)    # mu = 10 * 10^k, at most four stages
ORACLE_CHUNK = 1024    # frames per unitary.conjugate call, and per oracle draw; bounds peak memory
_S_AND_L = (coherence.CoherenceClass.NONLOCAL, coherence.CoherenceClass.LOCAL)


def _check_preset(preset) -> None:
    if not isinstance(preset, Preset):
        raise ValueError(f"preset must be a Preset, got {preset!r}")


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of the multi-start penalty search.

    ``max_evals`` is a budget per restart, not a total: a restart runs at
    most five stages, the four penalty stages and then the feasibility
    polish as the last, each of which may use ``max_evals // 5``
    evaluations (at least 50), and each stage end costs one more look.  A
    restart stops at the first stage that ends with L <= eps_L, since a
    stage minimizer with L = 0 minimizes every later, larger-mu stage as
    well, so it reaches the polish only when all four end above it.
    Nelder-Mead runs over the columns that ``Preset.search_frame`` moves
    for the state, and is adaptive from 10 of them up.  Where no column
    moves (``single_party`` where ``decide.single_party`` settles the
    frame), no search runs and ``restarts`` and ``max_evals`` go unused:
    the identity and each warm start are evaluated once.  ``eps_l`` reads
    the fixed feasibility tolerance ``EPS_L``.  ``warm_starts`` holds
    ``unitary.LocalCircuit`` values on the input state;
    ``SearchFrame.to_search`` checks each one's layers and moves it into
    the search's frame, and the search keeps its unmoved columns as they
    are.
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
        object.__setattr__(self, "warm_starts", tuple(self.warm_starts))


@dataclass(frozen=True)
class RestartRecord:
    index: int
    kind: str              # "identity" | "warm" | "random"
    value: float           # S at the restart's final point
    l_residual: float
    evals: int


@dataclass(frozen=True, eq=False)
class ConsonanceReport:
    """What ``consonance()`` found: the replay of the winning restart's
    circuit and every restart's record.

    ``value`` and ``l_residual`` are S and L of ``apply(circuit, rho)``,
    from one ``class_sums`` call.  The rest follows from these four
    fields: ``feasible`` is ``l_residual <= EPS_L``, ``preset`` is the
    circuit's tag, and ``n_evals`` is the sum of the restarts' ``evals``.
    """

    value: float
    l_residual: float
    circuit: unitary.LocalCircuit
    per_restart: tuple[RestartRecord, ...]

    @property
    def feasible(self) -> bool:
        return bool(self.l_residual <= EPS_L)

    @property
    def preset(self) -> str:
        return self.circuit.preset

    @property
    def n_evals(self) -> int:
        return sum(r.evals for r in self.per_restart)


def _frame_sums(frames: unitary.FrameBuilder, rho: DensityMatrix, thetas: np.ndarray,
                sums) -> list[list[float]]:
    """S and L lists of rho conjugated by the frames at a stack of
    parameter vectors (B, n_theta), summed by ``sums``, the search's
    ``coherence.class_summer`` for S and L: one ``unitary.conjugate`` call
    for each stack of at most ``ORACLE_CHUNK`` frames."""
    chunks = [sums(unitary.conjugate(frames, rho.entries, thetas[start:start + ORACLE_CHUNK]))
              for start in range(0, len(thetas), ORACLE_CHUNK)]
    return chunks[0] if len(chunks) == 1 else [sum(sl, []) for sl in zip(*chunks)]


def _order(sim: np.ndarray, fsim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ind = fsim.argsort()
    return sim.take(ind, axis=0), fsim.take(ind)


def _nelder_mead(objective, x0: np.ndarray, maxfev: int, xatol: float,
                 fatol: float, adaptive: bool):
    """Nelder-Mead as a generator: yields stacks of points (k, n), receives
    what the caller evaluated there, takes ``objective`` of it as the k
    values, and returns the final simplex and its values, best first
    (scipy's ``final_simplex``).

    It is scipy's ``_minimize_neldermead`` with no bounds, no callback and
    no ``maxiter``, operation for operation: the same coefficients (the
    adaptive ones of Gao & Han, Comput. Optim. Appl. 51:259, 2012), the
    same initial simplex and orderings.  The xatol/fatol test decides as
    scipy's does, with its value side taken first and read off the sorted
    values: where fsim is sorted, NaNs last, max |fsim[0] - fsim[1:]| is
    fsim[-1] - fsim[0] to the bit, since rounding is monotone and odd.
    Both sides are pure, and the value side fails first on almost every
    iteration of a search.  It stops where
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
        if (fsim[-1] - fsim[0] <= fatol
                and np.abs(sim[1:] - sim[0]).max() <= xatol):
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


def _search_one(x0: np.ndarray, config: OptimizerConfig):
    """One restart over the moved columns ``x0``: a list of stages, each an
    (objective, xatol, fatol), run through one step, Nelder-Mead and then
    a look at its end frame, until a stage ends with L <= eps_L, which
    ends the restart there, or the last stage has run.  The stages are
    the four penalty stages, then the feasibility polish, which minimizes
    L alone.  ``x0`` holds at least one column: ``consonance()`` runs no
    search where none moves.  Yields stacks of moved columns,
    receives their (S, L) arrays, and returns (x, (S, L)) at the end.

    A stage minimizer with L = 0 minimizes every later stage too: L >= 0,
    so S + mu' L >= S + mu L for mu' > mu, with equality where L = 0."""
    stages = [(lambda sl, mu=mu: [s + mu * l for s, l in zip(*sl)], 1e-8, 1e-10)
              for mu in PENALTY_MUS] + [(lambda sl: sl[1], 1e-10, 1e-14)]
    budget = max(50, config.max_evals // len(stages))
    x = np.asarray(x0, dtype=np.float64)
    for objective, xatol, fatol in stages:
        sim, _ = yield from _nelder_mead(objective, x, budget, xatol, fatol, len(x0) >= 10)
        x = sim[0]
        s, l = yield x[None]
        if l[0] <= EPS_L:
            break
    return x, (float(s[0]), float(l[0]))


def _start_points(config: OptimizerConfig, frame: unitary.SearchFrame):
    """Yield (kind, theta0) per restart, over the search's circuit in its
    frame; random streams depend only on (seed, restart position), so warm
    starts never shift them.  A random start draws every column and keeps
    only the moved ones, the rest 0; with no moved column it would repeat
    the identity start, so there is none.  A warm start keeps all of its
    own columns once ``frame.to_search`` has checked it and moved it into
    the search's circuit and frame."""
    n_theta, moved = frame.circuit.n_theta, frame.moved
    yield "identity", np.zeros(n_theta)
    for w in config.warm_starts:
        yield "warm", frame.to_search(w).theta
    if not len(moved):
        return
    for j in range(1, config.restarts):
        theta0 = np.zeros(n_theta)
        theta0[moved] = philox(config.seed, j).uniform(-math.pi, math.pi, size=n_theta)[moved]
        yield "random", theta0


def _rank(record: RestartRecord) -> tuple:
    """The restarts' one order: feasible ones first, by (S, L, index),
    then the rest by (L, S, index)."""
    if record.l_residual <= EPS_L:
        return (0, record.value, record.l_residual, record.index)
    return (1, record.l_residual, record.value, record.index)


def consonance(rho: DensityMatrix, config: OptimizerConfig | None = None) -> ConsonanceReport:
    """Estimate the consonance of ``rho`` under the configured preset.

    Steps every restart to its end over the circuit and in the frame
    ``search_frame`` decides for ``rho``, ranks the restarts with
    ``_rank`` and replays the winner's circuit, with the preset's layers,
    on ``rho``.  The report's ``value`` is exactly the
    nonlocal sum of ``apply(report.circuit, rho)`` and its ``l_residual``
    the local sum there; it is feasible when that residual meets eps_L,
    and then the value is an upper bound on the true infimum.
    """
    config = config or OptimizerConfig()
    rho = assert_valid(as_density(rho))
    frame = config.preset.search_frame(rho)
    moved, searched = frame.moved, frame.state(rho)
    kinds, thetas0 = zip(*_start_points(config, frame))
    thetas0 = np.array(thetas0)
    frames = unitary.FrameBuilder.of(frame.circuit, rho.dims)
    sums = coherence.class_summer(rho.dims, _S_AND_L)
    if len(moved):
        searches = [_search_one(theta0[moved], config) for theta0 in thetas0]
        live = {i: next(search) for i, search in enumerate(searches)}   # index: its points
        evals, ends = [0] * len(kinds), [None] * len(kinds)
    else:    # decided: the identity start is V† rho V as it is; warm starts are one stack
        s, l = sums(searched.entries)
        if len(thetas0) > 1:
            warm = _frame_sums(frames, searched, thetas0[1:], sums)
            s, l = s + warm[0], l + warm[1]
        live, evals, ends = {}, [1] * len(s), list(zip(s, l))
    while live:
        if len(live) == 1:
            ((i, points),) = live.items()
            thetas = thetas0[i:i + 1].repeat(len(points), axis=0)
            thetas[:, moved] = points
        else:
            owners = [i for i, points in live.items() for _ in range(len(points))]
            thetas = thetas0.take(owners, axis=0)
            thetas[:, moved] = np.concatenate(list(live.values()))
        s, l = _frame_sums(frames, searched, thetas, sums)
        row = 0
        for i, points in list(live.items()):
            n = len(points)
            evals[i] += n
            try:
                live[i] = searches[i].send((s[row:row + n], l[row:row + n]))
            except StopIteration as stop:
                del live[i]
                thetas0[i, moved], ends[i] = stop.value    # the row now holds its end point
            row += n

    records = [RestartRecord(i, kind, value, l_res, evals[i])
               for i, (kind, (value, l_res)) in enumerate(zip(kinds, ends))]
    best = min(records, key=_rank)

    circuit = frame.to_state(unitary.with_theta(frame.circuit, thetas0[best.index]))
    (value,), (l_res,) = sums(unitary.apply(circuit, rho).entries)
    return ConsonanceReport(value, l_res, circuit, tuple(records))


@dataclass(frozen=True)
class OracleResult:
    value: float           # least S over feasible samples; inf if none
    feasible_count: int
    samples: int


def oracle_consonance(rho: DensityMatrix, preset: Preset | None = None,
                      samples: int = 10000, seed: int = 0) -> OracleResult:
    """Brute-force cross-check: best feasible S over random frames.

    Draws ``samples`` parameter vectors (the first is theta = 0) from a
    single Philox stream and keeps the minimum S among those with
    L <= ``EPS_L``, the search's feasibility tolerance, read at call time.
    The frames are drawn and evaluated in chunks of ``ORACLE_CHUNK``, so
    memory does not grow with ``samples``; chunked draws from one stream
    give the same numbers as one draw of them all.  Only the
    frames that pass ``coherence.local_screen`` are summed exactly; the
    screen keeps every frame with L <= EPS_L, so the result is the same
    as summing them all.  Crude by design; used to confirm the optimizer
    is not undershooting.
    """
    samples = check_integer(samples, "samples")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = philox(seed)    # checks the seed before any frame is built
    preset = Preset() if preset is None else preset
    _check_preset(preset)
    rho = assert_valid(as_density(rho))
    frames = unitary.FrameBuilder.of(preset.build(rho.dims), rho.dims)
    best = math.inf
    feasible = 0
    for start in range(0, samples, ORACLE_CHUNK):
        first = int(start == 0)    # the first sample stays at theta = 0 and draws nothing
        thetas = np.zeros((min(ORACLE_CHUNK, samples - start), frames.n_theta))
        thetas[first:] = rng.uniform(-math.pi, math.pi, size=(len(thetas) - first, frames.n_theta))
        rotated = unitary.conjugate(frames, rho.entries, thetas)
        screened = rotated[coherence.local_screen(rotated, rho.dims, EPS_L)]
        s, l = map(np.array, coherence.class_sums(screened, rho.dims, _S_AND_L))
        ok = l <= EPS_L
        feasible += int(np.count_nonzero(ok))
        if ok.any():
            best = min(best, float(s[ok].min()))
    return OracleResult(best, feasible, samples)


# --- report serialization ------------------------------------------------


def config_to_json(config: OptimizerConfig) -> dict:
    """The search's settings as a report records them.  ``mu_stages`` is
    the most penalty stages a restart runs: one stops at its first stage
    that ends with L <= eps_L."""
    return {
        "preset": {"kind": config.preset.kind, "depth": config.preset.depth},
        "restarts": config.restarts,
        "seed": config.seed,
        "mu0": PENALTY_MUS[0],
        "mu_growth": PENALTY_MUS[1] / PENALTY_MUS[0],
        "mu_stages": len(PENALTY_MUS),
        "eps_l": EPS_L,
        "max_evals": config.max_evals,
        "warm_starts": [w.theta.tolist() for w in config.warm_starts],
    }


def report_to_json(report: ConsonanceReport) -> dict:
    return {
        "value": report.value,
        "l_residual": report.l_residual,
        "feasible": report.feasible,
        "preset": report.preset,
        "n_evals": report.n_evals,
        "per_restart": [dataclasses.asdict(r) for r in report.per_restart],
        "circuit": unitary.circuit_to_json(report.circuit),
    }
