import copy
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consonance import qstate, states, unitary
from consonance.qstate import (DensityMatrix, PureState, ValidationError,
                               density_from_pure, hermitian_eigenvalues,
                               partial_trace, partial_transpose,
                               singular_values, state_from_json, state_to_json,
                               tensor, validate)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def basis_pure(dims, k):
    amps = np.zeros(int(np.prod(dims)), dtype=complex)
    amps[k] = 1.0
    return PureState(tuple(dims), amps)


# --- construction and validation ----------------------------------------


def test_dims_must_be_at_least_two():
    with pytest.raises(ValueError):
        PureState((1, 2), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        qstate.check_dims(())


@pytest.mark.parametrize("fn,args", [
    (qstate.check_dims, ((2.7, 3),)),
    (qstate.check_dims, (["2", 2],)),
    (qstate.check_dims, ((2, 2.0),)),
    (partial_trace, (states.werner(0.5), [0.7])),
    (partial_trace, (states.werner(0.5), [True])),
    (partial_transpose, (states.werner(0.5), 0.9)),
    (qstate.check_seed, (1.5,)),
], ids=["dims-float", "dims-str", "dims-integral-float", "keep", "keep-bool",
        "party", "seed"])
def test_integer_inputs_reject_non_integers(fn, args):
    with pytest.raises(ValueError, match="integer"):
        fn(*args)


def test_philox_is_the_keyed_stream_jumped_as_asked():
    key = 2 ** 100 + 3
    for jump in (0, 1, 3):
        want = np.random.Generator(np.random.Philox(key=key).jumped(jump))
        assert np.array_equal(qstate.philox(key, jump).random(5), want.random(5))
    with pytest.raises(ValueError, match="seed"):
        qstate.philox(-1)


def test_dims_store_numpy_integers_as_int():
    dims = qstate.check_dims(np.array([2, 3]))
    assert dims == (2, 3) and all(type(d) is int for d in dims)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        PureState((2, 2), np.zeros(3, dtype=complex))
    with pytest.raises(ValueError):
        DensityMatrix((2, 2), np.zeros((4, 3), dtype=complex))


def test_non_finite_entries_rejected():
    amps = np.array([1.0, np.nan, 0.0, 0.0], dtype=complex)
    with pytest.raises(ValidationError):
        PureState((2, 2), amps)


def test_stored_arrays_are_read_only():
    psi = states.bell("phi+")
    with pytest.raises(ValueError):
        psi.amps[0] = 0.0
    rho = states.werner(0.5)
    with pytest.raises(ValueError):
        rho.entries[0, 0] = 2.0


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda state: pickle.loads(pickle.dumps(state)),
}
KINDS = {
    "pure": lambda: states.bell_like(a2=0.3),
    "density": lambda: qstate.assert_valid(states.werner(0.5)),
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("route", COPIES)
def test_copies_of_a_state_stay_frozen(route, kind):
    state = KINDS[kind]()
    twin = COPIES[route](state)
    assert twin is not state and type(twin) is type(state)
    assert twin.dims == state.dims
    assert twin.data.tobytes() == state.data.tobytes()
    assert not twin.data.flags.writeable
    with pytest.raises(ValueError):
        twin.data[0] = 0.0


@pytest.mark.parametrize("route", COPIES)
def test_a_copied_density_matrix_is_checked_once_on_its_own(monkeypatch, route):
    twin = COPIES[route](qstate.assert_valid(states.werner(0.5)))
    calls = []
    real = qstate.validate
    monkeypatch.setattr(qstate, "validate", lambda rho: calls.append(rho) or real(rho))
    assert qstate.assert_valid(twin) is twin
    assert qstate.assert_valid(twin) is twin
    assert calls == [twin]


def test_density_from_pure_basis_state():
    rho = density_from_pure(basis_pure((2, 2), 0))
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.allclose(rho.entries, expected, atol=1e-15)


def test_density_from_pure_bell():
    rho = density_from_pure(states.bell("phi+"))
    expected = np.zeros((4, 4))
    for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
        expected[i, j] = 0.5
    assert np.allclose(rho.entries, expected, atol=1e-15)


def test_density_from_pure_singlet_signs():
    rho = density_from_pure(states.bell("psi-"))
    assert rho.entries[1, 1] == pytest.approx(0.5)
    assert rho.entries[2, 2] == pytest.approx(0.5)
    assert rho.entries[1, 2] == pytest.approx(-0.5)
    assert rho.entries[2, 1] == pytest.approx(-0.5)


def test_density_from_pure_requires_normalization():
    with pytest.raises(ValidationError):
        density_from_pure(PureState((2, 2), np.array([1.0, 1.0, 0, 0])))


def test_validate_reports_trace_violation():
    m = np.diag([0.5, 0.4, 0.0, 0.0]).astype(complex)
    bad = DensityMatrix((2, 2), m)
    violations = validate(bad)
    assert [v.invariant for v in violations] == ["trace"]
    assert violations[0].residual == pytest.approx(0.1, abs=1e-12)


def test_validate_clean_state():
    assert validate(states.werner(0.5)) == []


# --- tensor and partial trace -------------------------------------------


def test_tensor_basis_states():
    zero = basis_pure((2,), 0)
    one = basis_pure((2,), 1)
    both = tensor(zero, one)
    assert both.dims == (2, 2)
    assert np.allclose(both.amps, [0, 1, 0, 0])


def test_tensor_bell_like_coefficient_pattern():
    a1, a2 = 0.6, 0.8
    b1, b2 = 0.28, math.sqrt(1 - 0.28 ** 2)
    t = tensor(states.bell_like(a1, a2), states.bell_like(b1, b2))
    assert t.dims == (2, 2, 2, 2)
    nz = {i: t.amps[i] for i in range(16) if abs(t.amps[i]) > 1e-15}
    assert set(nz) == {0b0000, 0b0011, 0b1100, 0b1111}
    assert nz[0b0000] == pytest.approx(a1 * b1)
    assert nz[0b0011] == pytest.approx(a1 * b2)
    assert nz[0b1100] == pytest.approx(a2 * b1)
    assert nz[0b1111] == pytest.approx(a2 * b2)


def test_tensor_maximally_mixed():
    half = DensityMatrix((2,), np.eye(2) / 2)
    quarter = tensor(half, half)
    assert np.allclose(quarter.entries, np.eye(4) / 4)


def test_tensor_mixed_kinds_rejected():
    with pytest.raises(ValueError):
        tensor(states.bell("phi+"), states.werner(0.5))


def test_partial_trace_werner_marginals():
    for a in (0.0, 0.3, 1.0):
        for keep in ([0], [1]):
            red = partial_trace(states.werner(a), keep)
            assert np.allclose(red.entries, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_schmidt_marginal():
    a, b = 0.6, 0.8
    red = partial_trace(density_from_pure(states.bell_like(a, b)), [1])
    assert np.allclose(red.entries, np.diag([a * a, b * b]), atol=1e-12)


def test_partial_trace_product_recovery():
    rho_a = density_from_pure(basis_pure((2,), 1))
    rho_b = DensityMatrix((3,), np.diag([0.5, 0.25, 0.25]).astype(complex))
    joint = tensor(rho_a, rho_b)
    # round-trip: tracing the other block recovers each factor elementwise
    assert np.max(np.abs(partial_trace(joint, [0]).entries - rho_a.entries)) < 1e-12
    assert np.max(np.abs(partial_trace(joint, [1]).entries - rho_b.entries)) < 1e-12


def test_partial_trace_keep_everything_is_identity():
    rho = states.werner(0.7)
    assert np.array_equal(partial_trace(rho, [0, 1]).entries, rho.entries)


def test_partial_trace_rejects_empty_keep():
    with pytest.raises(ValueError):
        partial_trace(states.werner(0.5), [])


def test_partial_trace_three_parties():
    ghz = density_from_pure(states.ghz(3))
    red = partial_trace(ghz, [0, 2])
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 0.5
    assert np.allclose(red.entries, expected, atol=1e-12)


# --- partial transpose ---------------------------------------------------


def hand_built_singlet_pt():
    # transposing the second party maps rho[(i,j),(m,n)] -> rho[(i,n),(m,j)]:
    # the +-1/2 entries of the singlet land on the main/anti diagonal
    m = np.zeros((4, 4))
    m[1, 1] = m[2, 2] = 0.5
    m[0, 3] = m[3, 0] = -0.5
    return m


def test_partial_transpose_singlet_matches_hand_expansion():
    pt = partial_transpose(density_from_pure(states.bell("psi-")), 1)
    assert np.allclose(pt, hand_built_singlet_pt(), atol=1e-15)


def test_partial_transpose_singlet_minimum_eigenvalue():
    # oracle: direct eigensolve of the hand-built matrix
    oracle = np.linalg.eigvalsh(hand_built_singlet_pt()).min()
    assert oracle == pytest.approx(-0.5, abs=1e-12)
    pt = partial_transpose(density_from_pure(states.bell("psi-")), 0)
    assert np.linalg.eigvalsh(pt).min() == pytest.approx(-0.5, abs=1e-12)


def test_partial_transpose_product_state_stays_psd():
    rho = tensor(states.werner(0.0), DensityMatrix((2,), np.diag([0.9, 0.1]).astype(complex)))
    pt = partial_transpose(rho, 2)
    assert np.linalg.eigvalsh(pt).min() > -1e-10


def test_partial_transpose_maximally_mixed_unchanged():
    rho = DensityMatrix((2, 2), np.eye(4) / 4)
    assert np.array_equal(partial_transpose(rho, 0), rho.entries)


def test_partial_transpose_involution_exact():
    rho = states.random_density((2, 3), seed=42)
    once = partial_transpose(rho, 1)
    twice = partial_transpose(DensityMatrix(rho.dims, once), 1)
    assert np.array_equal(twice, rho.entries)


def test_partial_transposes_of_two_parties_share_their_spectrum():
    # rho^{T_B} = (rho^{T_A})^T, so negativity may transpose party 0 alone
    rho = states.random_density((2, 3), seed=21)
    pt_a, pt_b = partial_transpose(rho, 0), partial_transpose(rho, 1)
    assert np.array_equal(pt_b, pt_a.T)
    assert np.allclose(hermitian_eigenvalues(pt_a), hermitian_eigenvalues(pt_b),
                       atol=1e-12)


def test_validate_flags_partial_transpose():
    pt = partial_transpose(density_from_pure(states.bell("psi-")), 1)
    violations = validate(DensityMatrix((2, 2), pt))
    assert [v.invariant for v in violations] == ["positivity"]
    assert violations[0].residual == pytest.approx(0.5, abs=1e-10)


# --- eigenvalues and singular values ------------------------------------


def test_hermitian_eigenvalues_descending():
    assert np.allclose(hermitian_eigenvalues(np.diag([0.3, 0.7])), [0.7, 0.3])
    half_x = np.array([[0, 1], [1, 0]]) / 2
    assert np.allclose(hermitian_eigenvalues(half_x), [0.5, -0.5])


def test_hermitian_eigenvalues_pure_werner():
    vals = hermitian_eigenvalues(states.werner(1.0).entries)
    assert np.allclose(vals, [1, 0, 0, 0], atol=1e-12)


def test_hermitian_eigenvalues_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eigenvalues_reproducible():
    m = states.random_density((2, 2), seed=5).entries
    first = hermitian_eigenvalues(m)
    second = hermitian_eigenvalues(m)
    assert np.array_equal(first, second)


def test_singular_values_examples():
    assert np.allclose(singular_values(np.eye(2)), [1, 1])
    m = np.array([[1.0, 1.0], [1.0, -1.0]]) / 2
    assert np.allclose(singular_values(m), [INV_SQRT2, INV_SQRT2], atol=1e-12)
    assert np.allclose(singular_values(np.diag([0.9, 0.1])), [0.9, 0.1])


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_singular_values_square_to_gram_eigenvalues(seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    sv = singular_values(m)
    gram = hermitian_eigenvalues(m @ m.conj().T)
    assert np.allclose(sv ** 2, gram, atol=1e-10)


# --- JSON state files ----------------------------------------------------


def test_state_json_round_trip_pure(tmp_path):
    psi = states.bell_like(0.6, 0.8)
    path = tmp_path / "psi.json"
    qstate.save_state(psi, path)
    back = qstate.load_state(path)
    assert isinstance(back, PureState)
    assert back.dims == psi.dims
    assert np.allclose(back.amps, psi.amps, atol=1e-15)


def test_state_json_round_trip_density(tmp_path):
    rho = states.two_param_qubit_qutrit(0.1, 0.3)
    path = tmp_path / "rho.json"
    qstate.save_state(rho, path)
    back = qstate.load_state(path)
    assert isinstance(back, DensityMatrix)
    assert back.dims == (2, 3)
    assert np.allclose(back.entries, rho.entries, atol=1e-15)


def test_state_json_rejects_wrong_length():
    obj = {"dims": [2, 2], "kind": "pure", "data": [[1.0, 0.0]] * 3}
    with pytest.raises(ValidationError):
        state_from_json(obj)


def test_state_json_rejects_unknown_kind():
    obj = {"dims": [2], "kind": "mixed", "data": [[1.0, 0.0], [0.0, 0.0]]}
    with pytest.raises(ValidationError):
        state_from_json(obj)


def test_state_json_validation_override():
    pt = partial_transpose(density_from_pure(states.bell("psi-")), 1)
    obj = state_to_json(DensityMatrix((2, 2), pt))
    with pytest.raises(ValidationError):
        state_from_json(obj)          # non-PSD: rejected by default
    loaded = state_from_json(obj, validate_state=False)
    assert np.allclose(loaded.entries, pt)


@pytest.mark.parametrize("pair", [[10 ** 400, 0], [0, -10 ** 400]])
def test_state_json_rejects_an_entry_too_large_for_a_float(pair):
    obj = {"dims": [2, 2], "kind": "pure", "data": [[1, 0], pair, [0, 0], [0, 0]]}
    with pytest.raises(ValidationError, match="^state JSON data entry 1 is too large for a float$"):
        state_from_json(obj)


def test_state_json_rejects_garbage_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    with pytest.raises(ValidationError):
        qstate.load_state(path)


# files json cannot read: nested past the recursion limit, an integer past
# Python's digit limit, bytes that are not UTF-8
UNREADABLE = {
    "deep": b"[" * 200_000 + b"]" * 200_000,
    "digits": b'{"dims": [2, 2], "kind": "pure", "data": [[' + b"1" * 5001 + b", 0]]}",
    "not-utf8": b'{"dims": [2, 2], "kind": "pure", "data": "\xe9"}',
}


@pytest.mark.parametrize("raw", UNREADABLE.values(), ids=UNREADABLE)
def test_one_reader_names_the_kind_of_an_unreadable_file(tmp_path, raw):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    named = f"^{re.escape(str(path))}: not a JSON"
    with pytest.raises(ValidationError, match=f"{named} state file: "):
        qstate.load_state(path)
    with pytest.raises(ValueError, match=f"{named} circuit file: ") as exc:
        unitary.load_circuit(path)
    assert not isinstance(exc.value, ValidationError)


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_random_states_have_clean_invariants(seed):
    psi = states.random_pure((2, 2), seed)
    assert psi.norm_error() < 1e-12
    rho = states.random_density((2, 2), seed)
    assert validate(rho) == []
