"""Constrained minimization of the nonlocal sum over local frame changes.

The consonance of a state is the infimum of the nonlocal coherence sum S
over circuits of local unitaries whose output has vanishing local
coherence L.  The search runs an exterior penalty scheme,

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

Every frame is evaluated by one batched evaluator: ``unitary.FrameBuilder``
maps a stack of parameter vectors to circuit unitaries, and S and L of
each conjugated state are fsum-ed over the masked |entries| in C order.
Nelder-Mead calls it one frame at a time; the brute-force oracle calls it
on chunks of ``ORACLE_CHUNK`` frames.  The public ``unitary.apply`` uses
the same frame builder, so the search and a replay agree bit for bit.

The reported value is recomputed from the winning circuit through the
public ``unitary.apply`` / ``coherence.nonlocal_sum`` path, so it always
matches what a caller would reproduce from the report.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from . import coherence, unitary
from .qstate import (DensityMatrix, PureState, assert_normalized, assert_valid,
                     density_from_pure)

EPS_L = 1e-6
TOL_VALUE = 1e-6
ORACLE_CHUNK = 1024    # oracle frames per evaluator call; bounds peak memory


@dataclass(frozen=True)
class Preset:
    """Which circuit family the search optimizes over."""

    kind: str = unitary.SINGLE_PARTY
    depth: int = 3
    supports: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if self.kind not in (unitary.SINGLE_PARTY, unitary.NONGLOBAL):
            raise ValueError(f"unknown preset kind {self.kind!r}")
        if int(self.depth) < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        object.__setattr__(self, "depth", int(self.depth))
        if self.supports is not None:
            object.__setattr__(self, "supports",
                               tuple(tuple(int(p) for p in s) for s in self.supports))

    def build(self, dims) -> unitary.LocalCircuit:
        if self.kind == unitary.SINGLE_PARTY:
            return unitary.single_party_circuit(dims)
        return unitary.nonglobal_circuit(dims, depth=self.depth,
                                         supports=self.supports)

    def tag(self) -> str:
        if self.kind == unitary.SINGLE_PARTY:
            return unitary.SINGLE_PARTY
        return f"{unitary.NONGLOBAL}:depth={self.depth}"


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of the multi-start penalty search.

    ``max_evals`` is a budget per restart, not a total: each of the
    ``mu_stages`` penalty stages and the feasibility polish may use
    ``max_evals // (mu_stages + 1)`` evaluations (at least 50).
    """

    preset: Preset = field(default_factory=Preset)
    restarts: int = 32
    seed: int = 0
    mu0: float = 10.0
    mu_growth: float = 10.0
    mu_stages: int = 4
    eps_l: float = EPS_L
    tol_value: float = TOL_VALUE
    max_evals: int = 20000
    warm_starts: tuple = ()

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.mu0 <= 0 or self.mu_growth <= 1 or self.mu_stages < 1:
            raise ValueError("penalty schedule must have mu0 > 0, growth > 1, "
                             "stages >= 1")
        if not 0 < self.eps_l < 1e-3:
            raise ValueError(f"eps_l must lie in (0, 1e-3), got {self.eps_l}")
        if self.tol_value <= 0:
            raise ValueError("tol_value must be positive")
        if self.max_evals < 100:
            raise ValueError(f"max_evals too small: {self.max_evals}")
        object.__setattr__(self, "warm_starts",
                           tuple(np.array(w, dtype=np.float64) for w in self.warm_starts))

    def mus(self) -> list[float]:
        return [self.mu0 * self.mu_growth ** k for k in range(self.mu_stages)]


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


class _CircuitEvaluator:
    """S and L after conjugating rho by the parameterized circuit.

    Frames come from the same ``unitary.FrameBuilder`` as the public
    replay, and each row is summed like ``coherence.nonlocal_sum`` /
    ``local_coherence``, so the search and the reported replay give the
    same numbers.
    """

    def __init__(self, rho: DensityMatrix, template: unitary.LocalCircuit):
        self._frames = unitary.FrameBuilder(template, rho.dims)
        self.n_theta = self._frames.n_theta
        self._rho = np.asarray(rho.entries)
        _, self._local, self._nonlocal = coherence.class_masks(rho.dims)
        self.evals = 0

    def sums(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """S and L arrays for a stack of parameter vectors (B, n_theta)."""
        u = self._frames.unitaries(thetas)
        rc = u @ self._rho @ u.conj().swapaxes(-1, -2)
        self.evals += len(u)
        abs_rc = np.abs(rc)
        s = [math.fsum(row) for row in abs_rc[:, self._nonlocal].tolist()]
        l = [math.fsum(row) for row in abs_rc[:, self._local].tolist()]
        return np.array(s), np.array(l)

    def at(self, theta: np.ndarray) -> tuple[float, float]:
        """S and L of one frame."""
        s, l = self.sums(theta[None])
        return float(s[0]), float(l[0])


def _search_one(ev: _CircuitEvaluator, x0: np.ndarray,
                config: OptimizerConfig) -> np.ndarray:
    budget = max(50, config.max_evals // (config.mu_stages + 1))
    adaptive = ev.n_theta >= 10
    x = np.asarray(x0, dtype=np.float64)
    for mu in config.mus():
        def penalized(theta, _mu=mu):
            s, l = ev.at(theta)
            return s + _mu * l
        res = minimize(penalized, x, method="Nelder-Mead",
                       options={"maxfev": budget, "xatol": 1e-8, "fatol": 1e-10,
                                "adaptive": adaptive, "disp": False})
        x = res.x
    _, l = ev.at(x)
    if l > config.eps_l:
        def local_only(theta):
            return ev.at(theta)[1]
        res = minimize(local_only, x, method="Nelder-Mead",
                       options={"maxfev": budget, "xatol": 1e-10, "fatol": 1e-14,
                                "adaptive": adaptive, "disp": False})
        x = res.x
    return x


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
    if isinstance(rho, PureState):
        rho = density_from_pure(rho)
    config = config or OptimizerConfig()
    assert_valid(rho)
    template = config.preset.build(rho.dims)
    ev = _CircuitEvaluator(rho, template)

    records: list[RestartRecord] = []
    finals: list[np.ndarray] = []
    for index, (kind, x0) in enumerate(_start_points(config, ev.n_theta)):
        before = ev.evals
        x = _search_one(ev, x0, config)
        s, l = ev.at(x)
        records.append(RestartRecord(index, kind, s, l, ev.evals - before))
        finals.append(x)

    feasible_idx = [r.index for r in records if r.l_residual <= config.eps_l]
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
    value = coherence.nonlocal_sum(rotated)
    l_res = coherence.local_coherence(rotated)
    return ConsonanceReport(
        value=value,
        l_residual=l_res,
        feasible=bool(l_res <= config.eps_l) and feasible,
        circuit=circuit,
        preset=config.preset.tag(),
        per_restart=tuple(records),
        n_evals=ev.evals,
    )


def consonance_pure_bipartite(psi: PureState) -> float:
    """Exact consonance of a bipartite pure state from its Schmidt form.

    With Schmidt coefficients P_k (the singular values of the coefficient
    matrix), the Schmidt-form density matrix has nonlocal sum
    (sum_k P_k)^2 - sum_k P_k^2 = 2 sum_{k<l} P_k P_l, and that sum is
    the same in every zero-L frame, so no search is needed.  For 2x2 it
    reduces to 2 P_1 P_2 = 2|ad - bc|.
    """
    if psi.n_parties != 2:
        raise ValueError(f"need exactly two parties, got dims {psi.dims}")
    assert_normalized(psi)
    m = psi.amps.reshape(psi.dims)
    p = np.linalg.svd(m, compute_uv=False)
    total = math.fsum(p.tolist())
    squares = math.fsum((p * p).tolist())
    return total * total - squares


@dataclass(frozen=True)
class OracleResult:
    value: float           # inf over feasible samples; inf if none
    feasible_count: int
    samples: int


def oracle_consonance(rho: DensityMatrix, preset: Preset | None = None,
                      samples: int = 10000, seed: int = 0,
                      eps_l: float = EPS_L) -> OracleResult:
    """Brute-force cross-check: best feasible S over random frames.

    Draws ``samples`` parameter vectors (the first is theta = 0) from a
    single Philox stream and keeps the minimum S among those with
    L <= eps_l.  The frames are drawn and evaluated in chunks of
    ``ORACLE_CHUNK``, which gives the same numbers as drawing them one by
    one.  Crude by design; used to confirm the optimizer is not
    undershooting.
    """
    if (isinstance(samples, bool) or not isinstance(samples, numbers.Integral)
            or samples < 1):
        raise ValueError(f"samples must be an integer >= 1, got {samples!r}")
    samples = int(samples)
    if isinstance(rho, PureState):
        rho = density_from_pure(rho)
    assert_valid(rho)
    preset = preset or Preset()
    template = preset.build(rho.dims)
    ev = _CircuitEvaluator(rho, template)
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    best = math.inf
    feasible = 0
    for start in range(0, samples, ORACLE_CHUNK):
        n = min(ORACLE_CHUNK, samples - start)
        if start == 0:
            thetas = np.zeros((n, ev.n_theta))
            thetas[1:] = rng.uniform(-math.pi, math.pi, size=(n - 1, ev.n_theta))
        else:
            thetas = rng.uniform(-math.pi, math.pi, size=(n, ev.n_theta))
        s, l = ev.sums(thetas)
        ok = l <= eps_l
        feasible += int(np.count_nonzero(ok))
        if ok.any():
            best = min(best, float(s[ok].min()))
    return OracleResult(best, feasible, samples)


# --- report serialization ------------------------------------------------


def config_to_json(config: OptimizerConfig) -> dict:
    return {
        "preset": {"kind": config.preset.kind, "depth": config.preset.depth,
                   "supports": (None if config.preset.supports is None
                                else [list(s) for s in config.preset.supports])},
        "restarts": config.restarts,
        "seed": config.seed,
        "mu0": config.mu0,
        "mu_growth": config.mu_growth,
        "mu_stages": config.mu_stages,
        "eps_l": config.eps_l,
        "tol_value": config.tol_value,
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
