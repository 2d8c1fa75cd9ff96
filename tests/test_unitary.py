import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import consonance
from consonance import optimizer, states
from consonance.qstate import density_from_pure, hermitian_eigenvalues
from consonance.unitary import (NONGLOBAL, SINGLE_PARTY, CircuitLayer,
                                LocalCircuit, Preset, UnitaryParams, apply,
                                build_unitary, circuit_from_json,
                                circuit_to_json, circuit_unitary,
                                default_supports, load_circuit, n_params,
                                params_for_unitary, save_circuit,
                                theta_vector, with_theta)
from test_acceptance import GHZ3_WITNESS
from test_frames import embed_matrix, hermitian_from_theta

HADAMARD = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)
SWAP = np.array([[1, 0, 0, 0],
                 [0, 0, 1, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1]], dtype=complex)


def test_zero_theta_is_identity():
    for d in (2, 3, 4):
        u = build_unitary(UnitaryParams.identity(d))
        assert np.allclose(u, np.eye(d), atol=1e-14)


def test_param_count():
    assert n_params(2) == 4
    assert n_params(3) == 9


def test_hermitian_from_theta_layout():
    # first d entries feed the diagonal, then (re, im) pairs row-major
    h = hermitian_from_theta(2, [0.5, -1.0, 2.0, 3.0])
    expect = np.array([[0.5, 2 + 3j], [2 - 3j, -1.0]])
    assert np.allclose(h, expect)
    with pytest.raises(ValueError):
        hermitian_from_theta(2, [0.0, 0.0])


@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.sampled_from([2, 3, 4]))
@settings(max_examples=40, deadline=None)
def test_build_unitary_is_unitary(seed, dim):
    rng = np.random.Generator(np.random.Philox(key=seed))
    theta = rng.uniform(-np.pi, np.pi, size=n_params(dim))
    u = build_unitary(UnitaryParams(dim, theta))
    assert np.allclose(u.conj().T @ u, np.eye(dim), atol=1e-12)


def test_params_round_trip_hadamard():
    p = params_for_unitary(HADAMARD)
    assert np.allclose(build_unitary(p), HADAMARD, atol=1e-12)


def test_params_round_trip_phase_gate():
    g = np.diag([1.0, np.exp(1j * np.pi / 3)])
    p = params_for_unitary(g)
    assert np.allclose(build_unitary(p), g, atol=1e-12)


def test_params_round_trip_cnot():
    p = params_for_unitary(CNOT)
    assert np.allclose(build_unitary(p), CNOT, atol=1e-12)


def test_params_for_unitary_rejects_non_unitary():
    with pytest.raises(ValueError):
        params_for_unitary(np.array([[1.0, 1.0], [0.0, 1.0]]))


# --- embedding -----------------------------------------------------------


def test_embed_first_party():
    u = build_unitary(params_for_unitary(HADAMARD))
    big = embed_matrix(u, (0,), (2, 3))
    assert np.allclose(big, np.kron(u, np.eye(3)), atol=1e-14)


def test_embed_second_party():
    g = np.diag([1.0, 1j, -1.0])
    big = embed_matrix(g, (1,), (2, 3))
    assert np.allclose(big, np.kron(np.eye(2), g), atol=1e-14)


def test_embed_swap_on_outer_pair():
    # SWAP on parties 0 and 2 of three qubits permutes |abc> -> |cba>
    big = embed_matrix(SWAP, (0, 2), (2, 2, 2))
    perm = np.zeros((8, 8))
    for a in range(2):
        for b in range(2):
            for c in range(2):
                perm[4 * c + 2 * b + a, 4 * a + 2 * b + c] = 1.0
    assert np.allclose(big, perm, atol=1e-14)


def test_disjoint_supports_commute():
    rng = np.random.Generator(np.random.Philox(key=5))
    u = build_unitary(UnitaryParams(2, rng.uniform(-1, 1, 4)))
    v = build_unitary(UnitaryParams(2, rng.uniform(-1, 1, 4)))
    a = embed_matrix(u, (0,), (2, 2, 2)) @ embed_matrix(v, (2,), (2, 2, 2))
    b = embed_matrix(v, (2,), (2, 2, 2)) @ embed_matrix(u, (0,), (2, 2, 2))
    assert np.allclose(a, b, atol=1e-13)


def test_circuit_unitary_applies_layers_in_order():
    h = params_for_unitary(HADAMARD)
    g = params_for_unitary(np.diag([1.0, 1j]))
    circ = LocalCircuit((CircuitLayer((0,), h), CircuitLayer((0,), g)))
    got = circuit_unitary(circ, (2, 2))
    e_h = embed_matrix(build_unitary(h), (0,), (2, 2))
    e_g = embed_matrix(build_unitary(g), (0,), (2, 2))
    assert np.allclose(got, e_g @ e_h, atol=1e-13)


def test_layer_validation_through_circuit_unitary():
    full = CircuitLayer((0, 1), UnitaryParams.identity(4))
    with pytest.raises(ValueError):
        circuit_unitary(LocalCircuit((full,)), (2, 2))  # global support
    bad_dim = CircuitLayer((0,), UnitaryParams.identity(3))
    with pytest.raises(ValueError):
        circuit_unitary(LocalCircuit((bad_dim,)), (2, 2))
    out_of_range = CircuitLayer((2,), UnitaryParams.identity(2))
    with pytest.raises(ValueError):
        circuit_unitary(LocalCircuit((out_of_range,)), (2, 2))


def test_layer_support_must_be_sorted():
    with pytest.raises(ValueError):
        CircuitLayer((1, 0), UnitaryParams.identity(4))
    with pytest.raises(ValueError):
        CircuitLayer((), UnitaryParams.identity(1))


# --- applying circuits ---------------------------------------------------


def test_apply_preserves_norm_and_spectrum():
    circ = Preset(NONGLOBAL).build((2, 2, 2))
    theta = np.random.Generator(np.random.Philox(key=11)).uniform(
        -np.pi, np.pi, circ.n_theta)
    circ = with_theta(circ, theta)
    psi = states.random_pure((2, 2, 2), seed=4)
    out = apply(circ, psi)
    assert out.norm_error() < 1e-12
    rho = states.random_density((2, 2, 2), seed=4)
    sigma = apply(circ, rho)
    assert np.allclose(hermitian_eigenvalues(sigma.entries),
                       hermitian_eigenvalues(rho.entries), atol=1e-12)


def test_apply_commutes_with_density_from_pure():
    circ = with_theta(Preset().build((2, 3)),
                      np.linspace(-1.0, 1.0, 13))
    psi = states.random_pure((2, 3), seed=8)
    left = density_from_pure(apply(circ, psi))
    right = apply(circ, density_from_pure(psi))
    assert np.allclose(left.entries, right.entries, atol=1e-12)


@pytest.mark.parametrize("value", [states.werner(0.5).entries, "werner", None])
def test_apply_rejects_what_is_not_a_state(value):
    with pytest.raises(ValueError, match="^not a state value: "):
        apply(Preset().build((2, 2)), value)


def test_ghz_witness_reaches_product_state():
    out = apply(load_circuit(GHZ3_WITNESS), states.ghz(3))
    target = np.zeros(8)
    target[0] = 1.0
    assert abs(abs(out.amps[0]) - 1.0) < 1e-8
    assert np.linalg.norm(np.abs(out.amps) - target) < 1e-8


def test_ghz_witness_cnot_cnot_h_form():
    layers = (
        CircuitLayer((0, 1), params_for_unitary(CNOT)),
        CircuitLayer((0, 2), params_for_unitary(CNOT)),
        CircuitLayer((0,), params_for_unitary(HADAMARD)),
    )
    out = apply(LocalCircuit(layers), states.ghz(3))
    assert abs(abs(out.amps[0]) - 1.0) < 1e-8


# --- presets -------------------------------------------------------------


def test_default_supports():
    assert default_supports(2) == [(0,), (1,)]
    assert default_supports(3) == [(0,), (0, 1), (0, 2), (1,), (1, 2), (2,)]


# every singleton and pair support in lexicographic order; a pair is
# global, so left out, at two parties
POOLS = {
    2: [(0,), (1,)],
    3: [(0,), (0, 1), (0, 2), (1,), (1, 2), (2,)],
    4: [(0,), (0, 1), (0, 2), (0, 3), (1,), (1, 2), (1, 3), (2,), (2, 3), (3,)],
}


@pytest.mark.parametrize("dims", [(2, 3), (3, 2, 2), (2, 3, 2, 3)])
@pytest.mark.parametrize("depth", range(1, 8))
def test_preset_builds_its_supports_at_theta_zero(dims, depth):
    n = len(dims)
    pool = POOLS[n]
    want = {SINGLE_PARTY: [(p,) for p in range(n)],
            NONGLOBAL: [pool[k % len(pool)] for k in range(depth)]}
    tags = {SINGLE_PARTY: "single_party", NONGLOBAL: f"nonglobal:depth={depth}"}
    for kind in (SINGLE_PARTY, NONGLOBAL):
        preset = Preset(kind, depth)
        assert preset.supports(n) == want[kind]
        circ = preset.build(dims)
        assert circ.preset == tags[kind]
        assert [l.support for l in circ.layers] == want[kind]
        assert [l.params.dim for l in circ.layers] == [
            math.prod(dims[p] for p in s) for s in want[kind]]
        assert circ.n_theta == sum(l.params.dim ** 2 for l in circ.layers)
        assert np.array_equal(theta_vector(circ), np.zeros(circ.n_theta))
        assert np.allclose(circuit_unitary(circ, dims), np.eye(math.prod(dims)),
                           atol=1e-15)
    # depth is read by nonglobal only: single_party is the same circuit at every depth
    assert circuit_to_json(Preset(SINGLE_PARTY, depth).build(dims)) == \
        circuit_to_json(Preset().build(dims))


def test_preset_defaults_and_equality():
    assert optimizer.Preset is consonance.Preset is Preset
    assert (Preset().kind, Preset().depth) == (SINGLE_PARTY, 3)
    assert Preset(NONGLOBAL).build((2, 2, 2)).n_theta == 4 + 16 + 16
    # equal presets are equal keys (the benchmark keys its cases by preset)
    same = Preset(NONGLOBAL, np.int64(3))
    assert same == Preset(kind=NONGLOBAL, depth=3)
    assert hash(same) == hash(Preset(kind=NONGLOBAL, depth=3))
    assert len({Preset(), Preset(SINGLE_PARTY, 3), same, Preset(NONGLOBAL, 4)}) == 3
    assert Preset(SINGLE_PARTY, 2) != Preset()


@pytest.mark.parametrize("kind", [SINGLE_PARTY, NONGLOBAL])
@pytest.mark.parametrize("depth", [2.7, 3.9, 3.0, True, "3"])
def test_preset_rejects_non_integer_depths(kind, depth):
    with pytest.raises(ValueError, match="integer"):
        Preset(kind, depth)


@pytest.mark.parametrize("kind", [SINGLE_PARTY, NONGLOBAL])
@pytest.mark.parametrize("depth", [0, -1])
def test_preset_rejects_depths_below_one(kind, depth):
    with pytest.raises(ValueError, match=f"^depth must be >= 1, got {depth}$"):
        Preset(kind, depth)


@pytest.mark.parametrize("kind", ["global", "", "Single_Party", None])
def test_preset_rejects_unknown_kinds(kind):
    with pytest.raises(ValueError, match="unknown preset kind"):
        Preset(kind)


def test_preset_stores_numpy_integers_as_int():
    p = Preset(NONGLOBAL, depth=np.int64(2))
    assert p.depth == 2 and type(p.depth) is int


@pytest.mark.parametrize("kind", [SINGLE_PARTY, NONGLOBAL])
def test_preset_needs_two_parties(kind):
    with pytest.raises(ValueError, match="at least two parties"):
        Preset(kind).build((2,))


@pytest.mark.parametrize("support", [(0.9,), (1.2,), (False,), (0, True), (0, "1"),
                                     "01"])
def test_layer_rejects_non_integer_party_indices(support):
    with pytest.raises(ValueError, match="integer"):
        CircuitLayer(support, UnitaryParams.identity(2))


def test_layer_stores_numpy_integers_as_int():
    layer = CircuitLayer((np.int64(0), np.int32(2)), UnitaryParams.identity(4))
    assert layer.support == (0, 2)
    assert all(type(p) is int for p in layer.support)


@pytest.mark.parametrize("dim", [2.9, 2.0, True, "2"])
def test_dimension_must_be_an_integer(dim):
    with pytest.raises(ValueError, match="integer"):
        n_params(dim)
    with pytest.raises(ValueError, match="integer"):
        UnitaryParams(dim, np.zeros(4))


# --- flat parameters and serialization -----------------------------------


def test_theta_vector_round_trip():
    circ = Preset(NONGLOBAL).build((2, 2))
    assert np.array_equal(theta_vector(circ), np.zeros(circ.n_theta))
    theta = np.arange(circ.n_theta, dtype=float) / 7.0
    again = theta_vector(with_theta(circ, theta))
    assert np.array_equal(again, theta)
    with pytest.raises(ValueError):
        with_theta(circ, theta[:-1])


def test_circuit_json_round_trip(tmp_path):
    circ = with_theta(Preset(NONGLOBAL).build((2, 2, 2)),
                      np.linspace(-2.0, 2.0, 36))
    obj = circuit_to_json(circ)
    assert obj["preset"] == "nonglobal:depth=3"
    back = circuit_from_json(obj)
    assert back.preset == circ.preset
    assert [l.support for l in back.layers] == [l.support for l in circ.layers]
    assert np.array_equal(theta_vector(back), theta_vector(circ))

    path = tmp_path / "circ.json"
    save_circuit(circ, path)
    loaded = load_circuit(path)
    assert np.array_equal(theta_vector(loaded), theta_vector(circ))
    assert np.allclose(circuit_unitary(loaded, (2, 2, 2)),
                       circuit_unitary(circ, (2, 2, 2)), atol=1e-14)


@pytest.mark.parametrize("support", [[1.7], [True], [0, 1.0]])
def test_circuit_json_rejects_non_integer_supports(support):
    with pytest.raises(ValueError, match="integer"):
        circuit_from_json({"layers": [{"support": support, "theta": [0.0] * 4}]})


@pytest.mark.parametrize("bad, why", [("0.5", "is not a number: '0.5'"),
                                      (True, "is not a number: True"),
                                      (None, "is not a number: None"),
                                      ([0.5], r"is not a number: \[0.5\]"),
                                      (10 ** 400, "is too large for a float"),
                                      (-10 ** 400, "is too large for a float")],
                         ids=["string", "bool", "null", "list", "huge", "huge-negative"])
def test_circuit_json_theta_entries_must_be_floats(bad, why):
    theta = [0.0, 0.0, bad, 0.0]
    with pytest.raises(ValueError, match=f"^circuit layer theta entry 2 {why}$"):
        circuit_from_json({"layers": [{"support": [0], "theta": theta}]})


def test_circuit_json_keeps_integer_theta_entries():
    circ = circuit_from_json({"layers": [{"support": [0], "theta": [1, 0, -2, 0]}]})
    assert theta_vector(circ).tolist() == [1.0, 0.0, -2.0, 0.0]


def test_load_circuit_names_a_file_that_is_not_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    with pytest.raises(ValueError, match="^not a JSON circuit file: Expecting value"):
        load_circuit(path)


@pytest.mark.parametrize("obj", [
    {"layers": 5}, {"layers": [5]}, {"layers": [{"support": 1, "theta": [0.0] * 4}]},
    {"layers": [{"support": "01", "theta": [0.0] * 16}]},
    {"layers": [{"support": [0]}]}, {"layers": [{"support": [0], "theta": 1.0}]},
])
def test_circuit_json_rejects_malformed_layers(obj):
    with pytest.raises(ValueError, match="'layers' list|'support' and 'theta' lists"):
        circuit_from_json(obj)
