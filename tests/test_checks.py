"""One table over every public entry point that checks a physicality
invariant: NaN (and inf where it applies) raises ValidationError, inputs
at the edge of each tolerance return the values pinned here, and inputs
just past it are rejected."""

import copy
import math
import os

import numpy as np
import pytest

from consonance import cli, coherence, measures, optimizer, qstate, states, unitary
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


# --- state kinds: qstate alone decides one --------------------------------

PSI = states.bell("phi+")
RHO = states.werner(0.5)
NOT_STATES = {"array": np.eye(4) / 4, "none": None, "json": qstate.state_to_json(PSI)}
SEARCH = optimizer.OptimizerConfig(restarts=1, max_evals=100)

# every public function that takes a state, on one state argument, beside
# the kind of state it does not take (None where it takes both)
TAKES_A_STATE = {
    "check_state": (qstate.check_state, None),
    "as_density": (qstate.as_density, None),
    "assert_normalized": (qstate.assert_normalized, RHO),
    "density_from_pure": (qstate.density_from_pure, RHO),
    "validate": (qstate.validate, PSI),
    "assert_valid": (qstate.assert_valid, PSI),
    "tensor_left": (lambda s: qstate.tensor(s, PSI), RHO),
    "tensor_right": (lambda s: qstate.tensor(PSI, s), RHO),
    "partial_trace": (lambda s: qstate.partial_trace(s, [0]), PSI),
    "partial_transpose": (lambda s: qstate.partial_transpose(s, 0), PSI),
    "state_to_json": (qstate.state_to_json, None),
    "save_state": (lambda s: qstate.save_state(s, os.devnull), None),
    "permute_subsystems": (lambda s: states.permute_subsystems(s, (1, 0)), None),
    "regroup": (lambda s: states.regroup(s, (2,)), None),
    "tps_remap": (lambda s: states.tps_remap(s, states.werner_f_prime()), PSI),
    "apply": (lambda s: unitary.apply(unitary.Preset().build((2, 2)), s), None),
    "consonance": (lambda s: optimizer.consonance(s, SEARCH), None),
    "oracle_consonance": (lambda s: optimizer.oracle_consonance(s, samples=2), None),
    "nonlocal_sum": (coherence.nonlocal_sum, None),
    "local_coherence": (coherence.local_coherence, None),
    "profile": (coherence.profile, None),
    "schmidt_decompose": (measures.schmidt_decompose, RHO),
    "schmidt_coefficients": (measures.schmidt_coefficients, RHO),
    "consonance_pure_bipartite": (measures.consonance_pure_bipartite, RHO),
    "concurrence_2x2": (measures.concurrence_2x2, None),
    "eof_2x2": (measures.eof_2x2, None),
    "negativity": (measures.negativity, None),
}
WRONG_INPUTS = [(name, bad) for name, (_, other) in TAKES_A_STATE.items()
                for bad in list(NOT_STATES) + ["other kind"] * (other is not None)]


@pytest.mark.parametrize("name, bad", WRONG_INPUTS, ids=[f"{n}-{b}" for n, b in WRONG_INPUTS])
def test_a_wrong_state_is_a_value_error(name, bad):
    fn, other = TAKES_A_STATE[name]
    value = other if bad == "other kind" else NOT_STATES[bad]
    with pytest.raises(ValueError, match="^not a state value: |^expected a "):
        fn(value)


# every function of one state that takes either kind
EITHER_KIND = {
    "nonlocal_sum": coherence.nonlocal_sum,
    "local_coherence": coherence.local_coherence,
    "profile": coherence.profile,
    "concurrence_2x2": measures.concurrence_2x2,
    "eof_2x2": measures.eof_2x2,
    "negativity": measures.negativity,
}


@pytest.mark.parametrize("name", EITHER_KIND)
def test_a_pure_state_gives_what_its_density_matrix_gives(name):
    fn = EITHER_KIND[name]
    for psi in (PSI, states.psi_like(a2=0.3), states.random_pure((2, 2), 7)):
        assert fn(psi) == fn(qstate.density_from_pure(psi))


# amplitudes that are 0, 1/2 or 1 in modulus, so every product of them is
# exact, and the density of a result equals the result on densities
DYADIC = qstate.tensor(qstate.PureState((2, 2), [0.5, 0.5j, -0.5, 0.5]),
                       qstate.PureState((2,), [0.0, 1.0j]))
REARRANGED = {
    "permute_subsystems": lambda s: states.permute_subsystems(s, (2, 0, 1)),
    "regroup": lambda s: states.regroup(s, (2, 1)),
    "tensor": lambda s: qstate.tensor(s, s),
    "state_to_json": lambda s: qstate.state_from_json(qstate.state_to_json(s)),
}


@pytest.mark.parametrize("name", REARRANGED)
def test_both_kinds_rearrange_alike(name):
    fn = REARRANGED[name]
    pure = fn(DYADIC)
    mixed = fn(qstate.density_from_pure(DYADIC))
    assert type(pure) is qstate.PureState and type(mixed) is qstate.DensityMatrix
    assert mixed.dims == pure.dims
    assert np.array_equal(mixed.entries, qstate.density_from_pure(pure).entries)


# --- physicality: assert_valid records a pass on the read-only state ------

NOT_PSD = np.diag([1.5, -0.5, 0.0, 0.0])    # unit trace, one negative eigenvalue


def test_a_non_physical_state_raises_on_every_check():
    rho = qstate.DensityMatrix((2, 2), NOT_PSD)
    for _ in range(2):
        with pytest.raises(ValidationError, match="positivity"):
            qstate.assert_valid(rho)


def _made_writable(rho):
    rho.entries.setflags(write=True)
    return rho


@pytest.mark.parametrize("unfreeze", [_made_writable,
                                      lambda rho: _made_writable(copy.deepcopy(rho))],
                         ids=["setflags", "deepcopy"])
def test_a_checked_state_is_checked_again_once_its_entries_can_change(unfreeze):
    rho = unfreeze(qstate.assert_valid(states.werner(0.5)))
    rho.entries[...] = NOT_PSD
    with pytest.raises(ValidationError, match="positivity"):
        qstate.assert_valid(rho)


def test_a_check_leaves_repr_and_json_alone():
    checked = qstate.assert_valid(states.werner(0.3))
    assert qstate.assert_valid(checked) is checked
    fresh = states.werner(0.3)
    assert repr(checked) == repr(fresh)
    assert qstate.state_to_json(checked) == qstate.state_to_json(fresh)


# --- input checks: each raises its own type -------------------------------

# one call per input check, beside the type it raises and its message; a
# ValidationError is a ValueError, so the type is compared exactly
INPUT_CHECKS = {
    "check_dims-not_iterable": (lambda: qstate.check_dims(2), ValueError,
                                "^dims must be an iterable of ints, got 2$"),
    "partial_trace-keep": (lambda: qstate.partial_trace(RHO, [2]), ValueError,
                           r"^keep=\[2\] out of range for 2 parties$"),
    "partial_transpose-party": (lambda: qstate.partial_transpose(RHO, 2), ValueError,
                                "^party 2 out of range for 2 parties$"),
    "hermitian_eigenvalues-not_square": (lambda: qstate.hermitian_eigenvalues(np.zeros((2, 3))),
                                         ValueError, r"^expected a square matrix, got shape"),
    "singular_values-not_a_matrix": (lambda: qstate.singular_values(np.zeros(3)), ValueError,
                                     r"^expected a matrix, got shape \(3,\)$"),
    "state_from_json-not_an_object": (lambda: qstate.state_from_json([]), ValidationError,
                                      "^state JSON must be an object$"),
    "state_from_json-missing_field": (
        lambda: qstate.state_from_json({"dims": [2, 2], "kind": "pure"}), ValidationError,
        "^state JSON is missing the 'data' field$"),
    "state_from_json-data_not_a_list": (
        lambda: qstate.state_from_json({"dims": [2, 2], "kind": "pure", "data": {}}),
        ValidationError, r"^state JSON data must be a list of \[re, im\] pairs$"),
    "state_from_json-density_entries": (
        lambda: qstate.state_from_json({"dims": [2, 2], "kind": "density", "data": [[1, 0]]}),
        ValidationError, r"^density matrix over dims \(2, 2\) needs 16 entries, got 1$"),
    "w_state-one_party": (lambda: states.w_state(1), ValidationError,
                          "^W state needs at least 2 parties, got 1$"),
    "TpsRelabeling-total_dims": (lambda: states.TpsRelabeling((2, 2), (2, 3), np.eye(4)),
                                 ValueError, "different total dimension$"),
    "random_density-rank": (lambda: states.random_density((2, 2), seed=1, rank=5), ValueError,
                            r"^rank must be in 1\.\.4, got 5$"),
    "consonance_closed_form-w": (lambda: states.consonance_closed_form("w"), ValueError,
                                 "^no closed-form consonance for family 'w'$"),
    "LocalCircuit-theta_shape": (lambda: unitary.LocalCircuit((((0,), 2),), np.zeros(3)),
                                 ValueError, r"^theta must have shape \(4,\), got \(3,\)$"),
    "LocalCircuit-non_finite": (
        lambda: unitary.LocalCircuit((((0,), 2),), [0.0, np.nan, 0.0, 0.0]), ValueError,
        "^theta contains non-finite entries$"),
    "build_unitary-not_d_squared": (lambda: unitary.build_unitary(np.zeros(3)), ValueError,
                                    r"^theta must hold d\^2 entries for a d >= 1, got shape "
                                    r"\(3,\)$"),
    "build_unitary-non_finite": (lambda: unitary.build_unitary([0.0, np.inf, 0.0, 0.0]),
                                 ValueError, "^theta contains non-finite entries$"),
    "params_for_unitary-not_square": (lambda: unitary.params_for_unitary(np.eye(2, 3)),
                                      ValueError, r"^expected a square matrix, got \(2, 3\)$"),
    "LocalCircuit-negative_party": (
        lambda: unitary.LocalCircuit((((-1,), 2),), np.zeros(4)), ValueError,
        r"^negative party index in support \(-1,\)$"),
    "SweepSpec-no_measures": (
        lambda: cli.SweepSpec(family="werner", axis="a", start=0.0, stop=1.0, points=3,
                              measures=()), ValueError, "^a sweep needs at least one measure$"),
}


@pytest.mark.parametrize("name", INPUT_CHECKS)
def test_an_input_check_raises_its_type(name):
    call, kind, message = INPUT_CHECKS[name]
    with pytest.raises(ValueError, match=message) as exc:
        call()
    assert type(exc.value) is kind
