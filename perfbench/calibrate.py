"""A fixed reference kernel that measures how fast this machine runs now.

The benchmark runs on shared virtual machines whose speed drifts by tens
of percent within a minute: a neighbour's load slows every instruction,
and CPU time counts the slow instructions too.  The kernel below does the
same kinds of work as a consonance search, on fixed inputs and with
numpy and scipy alone: scipy's Nelder-Mead over a Hermitian chart on
6 x 6, with each evaluation doing eigh, exp, a kron embedding, the
conjugation of a 12 x 12 state and an fsum of the masked |.| entries.
It never calls the package, so no change to the package moves it.

``burst()`` runs it once and returns its CPU time.  ``SpeedLog`` runs
groups of bursts between the timed ops, taking about ``SHARE`` of the
op time, and gives each op a scale: ``REFERENCE_S`` over the median
burst of the groups just before and just after the op.  A scaled time is
the time the op would take on a machine where one burst takes
``REFERENCE_S`` seconds.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
from scipy.optimize import minimize

# a round figure for the CPU time of one burst on the machine the bounds
# were set on (2 vCPUs of an Intel Xeon, model 143, under KVM; numpy 2.4,
# scipy 1.17, OpenBLAS at 1 thread), where a burst took 14 to 50 ms as
# the host's load changed.  A fixed constant: changing it rescales every
# scaled time.
REFERENCE_S = 0.020
SHARE = 0.08           # calibration time as a share of op time
EVERY_S = 0.25         # op time between calibration groups, at least
MAX_GROUP = 16         # bursts in one group, at most

_EVALS = 150
_DIM = 6
_rng = np.random.default_rng(20101125)
_r = _rng.normal(size=(2 * _DIM, 2 * _DIM)) + 1j * _rng.normal(size=(2 * _DIM, 2 * _DIM))
_RHO = _r @ _r.conj().T
_RHO /= np.trace(_RHO).real
_X0 = _rng.normal(scale=0.3, size=_DIM * _DIM)
_IU = np.triu_indices(_DIM, k=1)
_MASK = ~np.kron(np.eye(_DIM, dtype=bool), np.ones((2, 2), dtype=bool))


def _objective(theta: np.ndarray) -> float:
    h = np.diag(theta[:_DIM].astype(np.complex128))
    k = len(_IU[0])
    h[_IU] = theta[_DIM:_DIM + k] + 1j * theta[_DIM + k:_DIM + 2 * k]
    h = h + np.triu(h, 1).conj().T
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(1j * w)) @ v.conj().T
    t = np.kron(u, np.eye(2)).reshape(_DIM, 2, _DIM, 2).transpose(1, 0, 3, 2)
    t = t.reshape(2 * _DIM, 2 * _DIM)
    m = t @ _RHO @ t.conj().T
    return math.fsum(np.abs(m[_MASK]).tolist())


def burst() -> float:
    """CPU seconds for one fixed run of the reference kernel."""
    t0 = time.process_time()
    res = minimize(_objective, _X0, method="Nelder-Mead",
                   options={"maxfev": _EVALS, "xatol": 0.0, "fatol": 0.0})
    elapsed = time.process_time() - t0
    if res.nfev != _EVALS or not math.isfinite(res.fun):
        raise RuntimeError(f"reference kernel changed: {res.nfev} evaluations, "
                           f"value {res.fun}")
    return elapsed


class SpeedLog:
    """Groups of bursts interleaved with the timed ops.

    Call ``measure()`` once before the first op, ``after_op()`` after each
    case and ``close()`` after the last; an op timed while ``group`` was
    g is scaled by ``scale(g)``.
    """

    def __init__(self):
        self.groups: list[list[float]] = []
        self._pending = 0.0

    @property
    def group(self) -> int:
        return len(self.groups) - 1

    def measure(self, bursts: int = 3) -> float:
        self.groups.append([burst() for _ in range(bursts)])
        self._pending = 0.0
        return statistics.median(self.groups[-1])

    def _bursts_due(self) -> int:
        return min(MAX_GROUP, max(1, math.ceil(SHARE * self._pending / REFERENCE_S)))

    def after_op(self, op_s: float) -> None:
        self._pending += op_s
        if self._pending >= EVERY_S:
            self.measure(self._bursts_due())

    def close(self) -> None:
        if self._pending > 0.0:
            self.measure(self._bursts_due())

    def scale(self, group: int) -> float:
        return REFERENCE_S / statistics.median(self.groups[group] + self.groups[group + 1])

    def bursts(self) -> list[float]:
        return [b for g in self.groups for b in g]
