"""One table over every public entry point that checks a physicality
invariant: NaN (and inf where it applies) raises ValidationError, inputs
at the edge of each tolerance return the values pinned here, and inputs
just past it are rejected."""

import math

import numpy as np
import pytest

from consonance import measures, qstate, states, unitary
from consonance.qstate import ValidationError

# --- unit interval: TOL_UNIT = 1e-12 of slack, then clamped ---------------

UNIT = {
    "binary_entropy": measures.binary_entropy,
    "eof_from_concurrence": measures.eof_from_concurrence,
    "concurrence_werner": measures.concurrence_werner,
    "discord_werner": measures.discord_werner,
    "consonance_werner": measures.consonance_werner,
    "werner": lambda x: tuple(float(v) for v in
                              states.werner(x).entries[[0, 1, 1], [0, 1, 2]].real),
    "bell_like_a2": lambda x: tuple(float(v) for v in states.bell_like(a2=x).amps[[0, 3]].real),
    "psi_like_a2": lambda x: tuple(float(v) for v in states.psi_like(a2=x).amps[[1, 2]].real),
}
UNIT_EDGES = (-1e-12, 0.0, 1.0, 1.0 + 1e-12)
HALF = 0.4999999999999999
UNIT_VALUES = {
    "binary_entropy": (0.0, 0.0, 0.0, 0.0),
    "eof_from_concurrence": (0.0, 0.0, 1.0, 1.0),
    "concurrence_werner": (0.0, 0.0, 1.0, 1.0),
    "discord_werner": (0.0, 0.0, 1.0, 1.0),
    "consonance_werner": (0.0, 0.0, 1.0, 1.0),
    "werner": ((0.25, 0.25, 0.0), (0.25, 0.25, 0.0),
               (0.0, HALF, -HALF), (0.0, HALF, -HALF)),
    "bell_like_a2": ((0.0, 1.0), (0.0, 1.0), (1.0, 0.0), (1.0, 0.0)),
    "psi_like_a2": ((0.0, 1.0), (0.0, 1.0), (1.0, 0.0), (1.0, 0.0)),
}


@pytest.mark.parametrize("name", UNIT)
def test_unit_interval_edges_keep_their_values(name):
    assert tuple(UNIT[name](x) for x in UNIT_EDGES) == UNIT_VALUES[name]


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, -2e-12, 1.0 + 2e-12])
@pytest.mark.parametrize("name", UNIT)
def test_unit_interval_rejects(name, x):
    with pytest.raises(ValidationError, match=r"out of \[0, 1\]"):
        UNIT[name](x)


# --- normalization: |sum |z|^2 - 1| <= TOL_NORM = 1e-10 -------------------

NORM = {
    "bell_like": lambda a, b: tuple(float(v) for v in
                                    states.bell_like(a=a, b=b).amps[[0, 3]].real),
    "psi_like": lambda a, b: tuple(float(v) for v in
                                   states.psi_like(a=a, b=b).amps[[1, 2]].real),
    "pure_2x2": lambda a, b: tuple(float(v) for v in
                                   states.pure_2x2(a, 0, 0, b).amps[[0, 3]].real),
    "discord_bell_like": measures.discord_bell_like,
    "consonance_pair": measures.consonance_pair,
    "consonance_pure_2x2": lambda a, b: measures.consonance_pure_2x2(a, 0, 0, b),
    "assert_normalized": lambda a, b: float(qstate.density_from_pure(
        qstate.PureState((2, 2), [a, 0, 0, b])).entries[0, 3].real),
}
NORM_VALUES = {     # at norm^2 1 - 0.5e-10 and 1 + 0.5e-10
    "bell_like": ((0.599999999985, 0.79999999998), (0.600000000015, 0.80000000002)),
    "psi_like": ((0.599999999985, 0.79999999998), (0.600000000015, 0.80000000002)),
    "pure_2x2": ((0.79999999998, 0.599999999985), (0.80000000002, 0.600000000015)),
    "discord_bell_like": (0.942683189240551, 0.9426831892704336),
    "consonance_pair": (0.959999999952, 0.960000000048),
    "consonance_pure_2x2": (0.959999999952, 0.960000000048),
    "assert_normalized": (0.479999999976, 0.480000000024),
}


def _pair(norm2_offset: float) -> tuple[float, float]:
    s = math.sqrt(1.0 + norm2_offset)
    return 0.6 * s, 0.8 * s


@pytest.mark.parametrize("name", NORM)
def test_norm_edges_keep_their_values(name):
    got = tuple(NORM[name](*_pair(d)) for d in (-0.5e-10, 0.5e-10))
    assert got == NORM_VALUES[name]


@pytest.mark.parametrize("amps", [_pair(-2e-10), _pair(2e-10), (math.nan, 0.8),
                                  (0.6, math.nan), (math.inf, 0.0), (2.0, 2.0)],
                         ids=["low", "high", "nan_a", "nan_b", "inf", "far"])
@pytest.mark.parametrize("name", NORM)
def test_norm_rejects(name, amps):
    with pytest.raises(ValidationError, match="not normalized|non-finite"):
        NORM[name](*amps)


# --- unitarity: max |m m^dagger - 1| within TOL_UNITARY or TOL_RELABEL ----


UNITARY = {     # each takes a 4 x 4 matrix
    "params_for_unitary": (unitary.params_for_unitary, qstate.TOL_UNITARY),
    "TpsRelabeling": (lambda m: states.TpsRelabeling((2, 2), (2, 2), m), qstate.TOL_RELABEL),
}


@pytest.mark.parametrize("name", UNITARY)
@pytest.mark.parametrize("fill", [math.nan, math.inf])
def test_unitarity_rejects_non_finite_matrices(name, fill):
    build, _ = UNITARY[name]
    with pytest.raises(ValidationError):
        build(np.full((4, 4), fill))


@pytest.mark.parametrize("name", UNITARY)
def test_unitarity_tolerance(name):
    build, tol = UNITARY[name]
    build(np.diag([1.0 + 0.4 * tol, 1.0, 1.0, 1.0]))     # residual 0.8 tol
    with pytest.raises(ValidationError, match="not unitary"):
        build(np.diag([1.0 + tol, 1.0, 1.0, 1.0]))       # residual 2 tol


# --- hermiticity: max |m - m^dagger| <= TOL_HERM --------------------------


@pytest.mark.parametrize("fill", [math.nan, math.inf])
def test_hermitian_eigenvalues_rejects_non_finite_matrices(fill):
    with pytest.raises(ValidationError, match="not Hermitian"):
        qstate.hermitian_eigenvalues(np.full((2, 2), fill))


def test_hermiticity_tolerance():
    assert qstate.hermitian_eigenvalues([[1.0, 0.5e-10], [0.0, 0.0]]).tolist() == [1.0, 0.0]
    with pytest.raises(ValidationError, match="not Hermitian"):
        qstate.hermitian_eigenvalues([[1.0, 2e-10], [0.0, 0.0]])


# --- qubit-qutrit weights: each of alpha, gamma, beta >= -TOL_UNIT --------

WEIGHTS = {     # (alpha, gamma) -> (consonance_2x3, discord_2x3)
    (-1e-12, 0.2): (0.06666666666733334, 0.006893536517477816),
    (0.1, -1e-12): (0.266666666668, 0.266666666667),
    (0.0, 1.0 + 2e-12): (1.0000000000026665, 1.000000000002),    # beta = -6.7e-13
    (0.5, 0.0): (0.0, 0.0),
}


@pytest.mark.parametrize("alpha, gamma", WEIGHTS)
def test_qutrit_weight_edges_keep_their_values(alpha, gamma):
    got = (measures.consonance_2x3(alpha, gamma), measures.discord_2x3(alpha, gamma))
    assert got == WEIGHTS[alpha, gamma]


@pytest.mark.parametrize("alpha, gamma", [(math.nan, 0.2), (0.1, math.nan),
                                          (math.inf, 0.0), (0.0, math.inf),
                                          (-2e-12, 0.2), (0.1, -2e-12), (0.5, 4e-12)])
@pytest.mark.parametrize("fn", [measures.consonance_2x3, measures.discord_2x3,
                                states.two_param_qubit_qutrit])
def test_qutrit_weights_reject(fn, alpha, gamma):
    with pytest.raises(ValidationError, match="must be >= 0"):
        fn(alpha, gamma)
