import functools
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import consonance
from consonance import optimizer, states, unitary
from consonance.coherence import CoherenceClass, class_sums
from consonance.qstate import (DensityMatrix, assert_valid, density_from_pure,
                               hermitian_eigenvalues)
from consonance.unitary import (NONGLOBAL, SINGLE_PARTY, FrameBuilder, LocalCircuit,
                                Preset, apply, build_unitary, circuit_from_json,
                                circuit_to_json, conjugate, load_circuit,
                                params_for_unitary, save_circuit, with_theta)
from test_acceptance import GHZ3_WITNESS
from test_frames import circuit_unitary, embed_matrix, hermitian_from_theta

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
        u = build_unitary(np.zeros(d * d))
        assert np.allclose(u, np.eye(d), atol=1e-14)


# --- theta = 0 is the exact identity ------------------------------------
# build_unitary returns np.eye at theta = 0 without running the chart, and
# a decided frame's identity record is class_sums of the bare matrix; both
# rest on these pins, compared bit for bit, signs of zeros included


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def zero_thetas(dim):
    """theta = 0 as +0.0 entries, as -0.0 entries (a JSON circuit can carry
    them), and with the signs alternating."""
    n = dim * dim
    return [np.zeros(n), np.full(n, -0.0), np.where(np.arange(n) % 2, -0.0, 0.0)]


ZERO_DIMS = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 2, 2)]


@pytest.mark.parametrize("dim", range(1, 9))
def test_the_full_chart_and_build_unitary_are_exactly_the_identity_at_theta_zero(dim):
    eye = np.eye(dim, dtype=np.complex128)
    for theta in zero_thetas(dim):
        chart = unitary._layer_stack(unitary._chart_layout((dim,)), theta[None])
        assert same_bits(chart[0, :-1].reshape(dim, dim), eye)
        assert same_bits(build_unitary(theta), eye)


@pytest.mark.parametrize("kind", [SINGLE_PARTY, NONGLOBAL])
@pytest.mark.parametrize("dims", ZERO_DIMS, ids=str)
def test_a_preset_frame_is_exactly_the_identity_at_theta_zero(dims, kind):
    frames = FrameBuilder(Preset(kind).build(dims).shape, dims)
    zeros = np.zeros((1, frames.n_theta))
    assert same_bits(frames.unitaries(zeros)[0], np.eye(math.prod(dims), dtype=np.complex128))


@pytest.mark.parametrize("kind", [SINGLE_PARTY, NONGLOBAL])
@pytest.mark.parametrize("dims", ZERO_DIMS, ids=str)
def test_class_sums_at_theta_zero_are_those_of_the_bare_matrix(dims, kind):
    frames = FrameBuilder(Preset(kind).build(dims).shape, dims)
    classes = tuple(CoherenceClass)
    for seed in range(3):
        rho = states.random_density(dims, seed=seed, rank=1 + seed)
        rotated = conjugate(frames, rho.entries, np.zeros((1, frames.n_theta)))
        assert class_sums(rotated, dims, classes) == class_sums(rho.entries, dims, classes)


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
    theta = rng.uniform(-np.pi, np.pi, size=dim * dim)
    u = build_unitary(theta)
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


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_params_round_trip_haar_unitaries_and_an_eigenvalue_at_minus_one(dim):
    rng = np.random.default_rng(dim)
    for seed in range(20):
        u = scipy.stats.unitary_group.rvs(dim, random_state=seed)
        # a Haar unitary, and one on its columns with an eigenvalue at -1
        phases = np.exp(1j * rng.uniform(-math.pi, math.pi, dim))
        phases[0] = -1.0
        for target in (u, (u * phases) @ u.conj().T):
            assert np.abs(build_unitary(params_for_unitary(target)) - target).max() <= 1e-12


def test_params_for_unitary_imports_no_sparse_module():
    code = ("import sys, numpy as np; from consonance.unitary import params_for_unitary; "
            "params_for_unitary(np.eye(3)); print('scipy.sparse' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


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
    u = build_unitary(rng.uniform(-1, 1, 4))
    v = build_unitary(rng.uniform(-1, 1, 4))
    a = embed_matrix(u, (0,), (2, 2, 2)) @ embed_matrix(v, (2,), (2, 2, 2))
    b = embed_matrix(v, (2,), (2, 2, 2)) @ embed_matrix(u, (0,), (2, 2, 2))
    assert np.allclose(a, b, atol=1e-13)


def test_a_circuit_applies_its_layers_in_order():
    h = params_for_unitary(HADAMARD)
    g = params_for_unitary(np.diag([1.0, 1j]))
    circ = LocalCircuit((((0,), 2), ((0,), 2)), np.concatenate((h, g)))
    got = circuit_unitary(circ, (2, 2))
    e_h = embed_matrix(build_unitary(h), (0,), (2, 2))
    e_g = embed_matrix(build_unitary(g), (0,), (2, 2))
    assert np.allclose(got, e_g @ e_h, atol=1e-13)


def test_layer_validation_through_the_frame_builder():
    for layer in [((0, 1), 4),      # a global support
                  ((0,), 3),        # the wrong dimension
                  ((2,), 2)]:       # a party out of range
        with pytest.raises(ValueError):
            FrameBuilder.of(LocalCircuit((layer,), np.zeros(layer[1] ** 2)), (2, 2))


# --- shared plans --------------------------------------------------------


def test_a_presets_circuit_is_built_once_and_read_only():
    circ = Preset(NONGLOBAL).build((2, 3, 2))
    assert Preset(NONGLOBAL).build([2, np.int64(3), 2]) is circ
    assert not circ.theta.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        circ.theta[0] = 1.0


def test_a_frame_builder_is_shared_per_shape_and_read_only():
    dims = (2, 3, 2)
    template = Preset(NONGLOBAL, depth=4).build(dims)
    frames = FrameBuilder.of(template, list(dims))
    moved = with_theta(template, np.linspace(-1.0, 1.0, template.n_theta))
    assert FrameBuilder.of(moved, dims) is frames
    assert FrameBuilder.of(Preset().build(dims), dims) is not frames
    # one layer shape on other dims is another builder
    first = LocalCircuit((((0,), 2),), np.zeros(4))
    assert [FrameBuilder.of(first, d).d for d in [(2, 2), (2, 3), (2, 2)]] == [4, 6, 4]
    arrays = [frames._embed, frames._chart.real, frames._chart.imag, *unitary._upper(3)]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 0
    assert np.array_equal(frames.unitaries(moved.theta[None]),
                          FrameBuilder(moved.shape, dims).unitaries(moved.theta[None]))


@pytest.mark.parametrize("kind", [SINGLE_PARTY, NONGLOBAL])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2)], ids=str)
def test_one_builder_serves_every_circuit_of_one_shape_whatever_its_theta_and_tag(dims, kind):
    template = Preset(kind).build(dims)
    supports = Preset(kind).supports(len(dims))
    assert template.shape == tuple((s, math.prod(dims[p] for p in s)) for s in supports)
    theta = np.random.default_rng(5).uniform(-math.pi, math.pi, template.n_theta)
    moved = with_theta(template, theta)
    custom = LocalCircuit(moved.shape, moved.theta)
    assert (moved.preset, custom.preset) == (template.preset, "custom")
    frames = FrameBuilder.of(template, dims)
    assert FrameBuilder.of(moved, dims) is frames
    assert FrameBuilder.of(custom, list(dims)) is frames
    assert np.array_equal(frames.unitaries(theta[None])[0], circuit_unitary(custom, dims))


@pytest.mark.parametrize("layer", [
    ((0,), 3),        # the wrong dimension
    ((2,), 2),        # a party out of range
    ((0, 1), 4),      # a global support
], ids=["dimension", "out-of-range", "global"])
def test_a_bad_layer_raises_on_every_call_through_a_shared_builder(layer):
    rho = states.random_density((2, 2), seed=3)
    theta = np.concatenate((np.zeros(4), np.full(layer[1] ** 2, 0.2)))
    circ = LocalCircuit((((1,), 2), layer), theta)
    with pytest.raises(ValueError) as direct:
        FrameBuilder(circ.shape, rho.dims)
    for _ in range(2):
        with pytest.raises(ValueError) as shared:
            apply(circ, rho)
        assert str(shared.value) == str(direct.value)


def test_layer_support_must_be_sorted():
    with pytest.raises(ValueError, match="strictly increasing"):
        LocalCircuit((((1, 0), 4),), np.zeros(16))
    with pytest.raises(ValueError, match="must not be empty"):
        LocalCircuit((((), 1),), np.zeros(1))


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
    theta = np.concatenate([params_for_unitary(CNOT), params_for_unitary(CNOT),
                            params_for_unitary(HADAMARD)])
    out = apply(LocalCircuit((((0, 1), 4), ((0, 2), 4), ((0,), 2)), theta), states.ghz(3))
    assert abs(abs(out.amps[0]) - 1.0) < 1e-8


# --- presets -------------------------------------------------------------


# the nonglobal supports at depths 1 to 7: on two parties the single-party
# circuit, as a pair is global there; on n >= 3 parties max(depth - 1, n - 1)
# pair layers cycling through the staircase (0, 1), ..., (0, n - 1)
NONGLOBAL_SUPPORTS = {
    2: [[(0,), (1,)]] * 7,
    3: [[(0, 1), (0, 2)]] * 3 + [[(0, 1), (0, 2), (0, 1)],
                                 [(0, 1), (0, 2), (0, 1), (0, 2)],
                                 [(0, 1), (0, 2), (0, 1), (0, 2), (0, 1)],
                                 [(0, 1), (0, 2), (0, 1), (0, 2), (0, 1), (0, 2)]],
    4: [[(0, 1), (0, 2), (0, 3)]] * 4 + [[(0, 1), (0, 2), (0, 3), (0, 1)],
                                         [(0, 1), (0, 2), (0, 3), (0, 1), (0, 2)],
                                         [(0, 1), (0, 2), (0, 3), (0, 1), (0, 2), (0, 3)]],
}


@pytest.mark.parametrize("dims", [(2, 3), (3, 2, 2), (2, 3, 2, 3)])
@pytest.mark.parametrize("depth", range(1, 8))
def test_preset_builds_its_supports_at_theta_zero(dims, depth):
    n = len(dims)
    want = {SINGLE_PARTY: [(p,) for p in range(n)],
            NONGLOBAL: NONGLOBAL_SUPPORTS[n][depth - 1]}
    tags = {SINGLE_PARTY: "single_party", NONGLOBAL: f"nonglobal:depth={depth}"}
    for kind in (SINGLE_PARTY, NONGLOBAL):
        preset = Preset(kind, depth)
        assert preset.supports(n) == want[kind]
        circ = preset.build(dims)
        assert circ.preset == tags[kind]
        assert [s for s, _ in circ.shape] == want[kind]
        assert [d for _, d in circ.shape] == [math.prod(dims[p] for p in s) for s in want[kind]]
        assert circ.n_theta == sum(d ** 2 for _, d in circ.shape)
        assert np.array_equal(circ.theta, np.zeros(circ.n_theta))
        assert np.allclose(circuit_unitary(circ, dims), np.eye(math.prod(dims)),
                           atol=1e-15)
    # depth is read by nonglobal only: single_party is the same circuit at every depth
    assert circuit_to_json(Preset(SINGLE_PARTY, depth).build(dims)) == \
        circuit_to_json(Preset().build(dims))


def test_preset_defaults_and_equality():
    assert optimizer.Preset is consonance.Preset is Preset
    assert (Preset().kind, Preset().depth) == (SINGLE_PARTY, 3)
    assert Preset(NONGLOBAL).build((2, 2, 2)).n_theta == 16 + 16
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


def moved_columns(circuit, groups=None) -> list[int]:
    """The theta columns a search over ``circuit`` moves, from its layer
    supports and dimensions alone: a single-party layer's upper-triangle
    (re, im) pairs, d..d^2-1 of its d^2, since its diagonal is gauge; a
    pair layer's every column but the last diagonal one, d - 1, since the
    trace is a global phase.  ``groups``, one list per single-party
    layer, keeps only the pairs (i, j) with groups[i] == groups[j]."""
    moved, offset = [], 0
    for k, (support, d) in enumerate(circuit.shape):
        if len(support) > 1:
            moved += [c for c in range(offset, offset + d * d) if c != offset + d - 1]
        else:
            g = groups[k] if groups else [0] * d
            pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
            for p, (i, j) in enumerate(pairs):
                if g[i] == g[j]:
                    moved += [offset + d + 2 * p, offset + d + 2 * p + 1]
        offset += d * d
    return moved


def mixed_marginals(dims, seed) -> DensityMatrix:
    """A generic state whose marginals are I/d_k: I/D plus a small sum of
    products of traceless Hermitian matrices, one factor per party, so
    every marginal is one eigenvalue group and nothing rotates.  The
    single_party projection stalls on it, so the search runs."""
    rng = np.random.default_rng(seed)

    def traceless(d):
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = z + z.conj().T
        h -= np.trace(h).real / d * np.eye(d)
        return h / np.linalg.norm(h, 2)

    d = math.prod(dims)
    x = sum(functools.reduce(np.kron, [traceless(dk) for dk in dims]) for _ in range(3))
    return assert_valid(DensityMatrix(tuple(dims), np.eye(d) / d + x / (4 * d)))


def with_local_noise(rho, weight, seed) -> DensityMatrix:
    """(1 - weight) rho + weight (I/D + X) on two parties, so the
    single_party projection stalls where rho alone is decided.  X has
    local entries alone: diag(1, -1, 0, ...) on one party times a seeded
    zero-diagonal Hermitian matrix on the other, both ways round, with
    |X| <= 1/D.  Its diagonal is 0, and so is each of its partial traces
    exactly, the -1 rows cancelling the 1 rows bit for bit; so where
    rho's local entries are 0, the marginals keep their exact diagonals,
    and where rho has L = 0, the mix has S = (1 - weight) S(rho) and
    L = weight L(X) there."""
    rng = np.random.default_rng(seed)

    def off_diagonal(d):
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = z + z.conj().T
        np.fill_diagonal(h, 0.0)
        return h / np.linalg.norm(h, 2)

    def signs(d):
        return np.diag([1.0, -1.0] + [0.0] * (d - 2))

    d_a, d_b = rho.dims
    d = d_a * d_b
    x = (np.kron(signs(d_a), off_diagonal(d_b)) + np.kron(off_diagonal(d_a), signs(d_b))) / (2 * d)
    return assert_valid(DensityMatrix(rho.dims, (1.0 - weight) * rho.entries
                                      + weight * (np.eye(d) / d + x)))


def maximally_mixed(dims) -> DensityMatrix:
    """I/D: every marginal is I/d_k, one eigenvalue group."""
    d = math.prod(dims)
    return DensityMatrix(tuple(dims), np.eye(d) / d)


@pytest.mark.parametrize("dims", [(3, 3), (2, 3), (3, 2, 2), (2, 3, 2, 3)])
@pytest.mark.parametrize("depth", [1, 3, 7])
def test_preset_moves_the_columns_its_objective_sees(dims, depth):
    # every marginal of mixed_marginals is one eigenvalue group, and the
    # single_party projection stalls on it, so the moved columns follow
    # from the layer supports and dimensions alone (I/D has L = 0 and is
    # decided, and two qubits are decided in closed form: neither moves any)
    for kind in (SINGLE_PARTY, NONGLOBAL):
        preset = Preset(kind, depth)
        frame = preset.search_frame(mixed_marginals(dims, seed=1))
        assert frame.moved.dtype == np.intp
        assert frame.moved.tolist() == moved_columns(preset.build(dims))
    frame = Preset().search_frame(mixed_marginals((2, 3), seed=1))
    assert len(frame.moved) == 2 + 6 < frame.circuit.n_theta == 13


@pytest.mark.parametrize("depth", [1, 3, 7])
def test_a_nonglobal_search_frame_rotates_nothing(depth):
    # W(3)'s marginals have two eigenvalue groups and GHZ(3)'s one
    preset = Preset(NONGLOBAL, depth)
    for rho in (density_from_pure(states.w_state(3)), density_from_pure(states.ghz(3))):
        frame = preset.search_frame(rho)
        assert frame.circuit is preset.build(rho.dims)
        assert frame.rotations == (None,) * 3
        assert frame.factors == (None,) * len(frame.circuit.shape)
        assert frame.moved.tolist() == moved_columns(frame.circuit)
        assert frame.state(rho) is rho


def test_an_unrotated_search_frame_keeps_the_state_and_the_circuit():
    rho = mixed_marginals((2, 3), seed=1)
    frame = Preset().search_frame(rho)
    assert frame.rotations == (None, None)
    assert frame.moved.tolist() == moved_columns(Preset().build((2, 3)))
    assert frame.state(rho) is rho
    circuit = with_theta(Preset().build((2, 3)), np.linspace(-1.0, 1.0, 13))
    for convert in (frame.to_search, frame.to_state):
        assert convert(circuit).shape == circuit.shape
        assert same_bits(convert(circuit).theta, circuit.theta)


def test_a_rotated_search_frame_moves_rho_and_circuits_between_frames():
    # W found on V† rho V is W V† on rho, and a start U on rho is U V
    rng = np.random.default_rng(2)
    rho = states.random_density((2, 3), seed=2)
    frame = Preset().search_frame(rho)
    assert all(r is not None for r in frame.rotations)
    assert frame.moved.size == 0       # distinct marginal eigenvalues
    v = np.kron(*frame.rotations)
    assert np.abs(frame.state(rho).entries - v.conj().T @ rho.entries @ v).max() <= 1e-15
    w = with_theta(Preset().build((2, 3)), rng.uniform(-1.0, 1.0, 13))
    on_rho = frame.to_state(w)
    assert np.abs(circuit_unitary(on_rho, (2, 3))
                  - circuit_unitary(w, (2, 3)) @ v.conj().T).max() <= 1e-12
    back = frame.to_search(on_rho)
    assert np.abs(circuit_unitary(back, (2, 3))
                  - circuit_unitary(w, (2, 3))).max() <= 1e-12


@pytest.mark.parametrize("seed", range(16))
def test_every_qubit_unitary_is_a_diagonal_times_an_off_diagonal_exp(seed):
    # U = D exp(iO), D a diagonal unitary and O = [[0, z], [z*, 0]] with
    # z = t e^{i phi}: exp(iO) = [[cos t, i sin t e^{i phi}],
    # [i sin t e^{-i phi}, cos t]].  D on the left changes no modulus, so
    # the single_party search, which moves only the off-diagonal columns,
    # loses no frame of a qubit layer, and so no Werner frame
    u = scipy.stats.unitary_group.rvs(2, random_state=seed)
    t = math.acos(min(1.0, abs(u[0, 0])))
    phi = np.angle(u[0, 1] * np.conj(u[0, 0]) / 1j)
    e = np.array([[math.cos(t), 1j * math.sin(t) * np.exp(1j * phi)],
                  [1j * math.sin(t) * np.exp(-1j * phi), math.cos(t)]])
    d = np.diag(np.exp(1j * np.angle(np.diag(u))))
    assert np.abs(d @ e - u).max() <= 1e-12
    off = [t * math.cos(phi), t * math.sin(phi)]     # (re, im) of z, diagonal 0
    chart = build_unitary([0.0, 0.0] + off)
    assert np.abs(chart - e).max() <= 1e-12


@pytest.mark.parametrize("kind", [SINGLE_PARTY, NONGLOBAL])
def test_preset_needs_two_parties(kind):
    with pytest.raises(ValueError, match="at least two parties"):
        Preset(kind).build((2,))


@pytest.mark.parametrize("support", [(0.9,), (1.2,), (False,), (0, True), (0, "1"),
                                     "01"])
def test_layer_rejects_non_integer_party_indices(support):
    with pytest.raises(ValueError, match="integer"):
        LocalCircuit(((support, 2),), np.zeros(4))


def test_layer_stores_numpy_integers_as_int():
    circ = LocalCircuit((((np.int64(0), np.int32(2)), np.int64(4)),), np.zeros(16))
    assert circ.shape == (((0, 2), 4),)
    (support, dim), = circ.shape
    assert all(type(p) is int for p in support) and type(dim) is int


@pytest.mark.parametrize("dim", [2.9, 2.0, True, "2"])
def test_dimension_must_be_an_integer(dim):
    with pytest.raises(ValueError, match="integer"):
        LocalCircuit((((0,), dim),), np.zeros(4))


@pytest.mark.parametrize("dim,theta", [(0, []), (-1, [0.3]), (-2, np.zeros(4))])
def test_dimension_must_be_positive(dim, theta):
    with pytest.raises(ValueError, match=f"dimension must be positive, got {dim}"):
        LocalCircuit((((0,), dim),), theta)


# --- theta and serialization ---------------------------------------------


def test_a_circuits_theta_holds_its_layers_in_circuit_order():
    circ = Preset(NONGLOBAL).build((2, 2))
    assert np.array_equal(circ.theta, np.zeros(circ.n_theta))
    theta = np.arange(circ.n_theta, dtype=float) / 7.0
    again = with_theta(circ, theta)
    assert np.array_equal(again.theta, theta)
    assert [t.tolist() for t in again.layer_thetas()] == [theta[:4].tolist(), theta[4:].tolist()]
    with pytest.raises(ValueError):
        with_theta(circ, theta[:-1])
    # a circuit without layers has the empty vector, and takes it back
    empty = LocalCircuit((), [])
    assert empty.theta.shape == (0,) and empty.theta.dtype == np.float64
    assert empty.layer_thetas() == []
    assert with_theta(empty, np.zeros(0)) is empty


def test_with_theta_keeps_a_circuit_that_has_the_theta_bit_for_bit():
    zero = Preset().build((2, 3))
    assert with_theta(zero, np.zeros(13)) is zero
    circ = with_theta(zero, np.linspace(-1.0, 1.0, 13))
    assert with_theta(circ, np.linspace(-1.0, 1.0, 13)) is circ
    # -0.0 == 0.0, but a report writes its sign, so it is a new circuit
    signed = with_theta(zero, np.full(13, -0.0))
    assert signed is not zero and np.signbit(signed.theta).all()


def test_circuit_json_round_trip(tmp_path):
    signed = np.linspace(-2.0, 2.0, 32)
    signed[[0, 5, 31]] = -0.0
    for dims, preset, theta, tag in [
            ((2, 2, 2), Preset(NONGLOBAL), np.linspace(-2.0, 2.0, 32), "nonglobal:depth=3"),
            ((2, 2, 2), Preset(NONGLOBAL), signed, "nonglobal:depth=3"),
            ((2, 3), Preset(), np.linspace(-1.0, 1.0, 13), "single_party")]:
        circ = with_theta(preset.build(dims), theta)
        obj = circuit_to_json(circ)
        assert obj["preset"] == tag
        assert [layer["support"] for layer in obj["layers"]] == [list(s) for s, _ in circ.shape]
        path = tmp_path / "circ.json"
        save_circuit(circ, path)
        # every layer's theta bit for bit, signed zeros too
        for back in (circuit_from_json(obj), load_circuit(path)):
            assert (back.preset, back.shape) == (circ.preset, circ.shape)
            assert same_bits(back.theta, circ.theta)
            assert same_bits(circuit_unitary(back, dims), circuit_unitary(circ, dims))


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
    with pytest.raises(ValueError, match=f"^circuit layer 0: theta entry 2 {why}$"):
        circuit_from_json({"layers": [{"support": [0], "theta": theta}]})


def test_circuit_json_keeps_integer_theta_entries():
    circ = circuit_from_json({"layers": [{"support": [0], "theta": [1, 0, -2, 0]}]})
    assert circ.theta.tolist() == [1.0, 0.0, -2.0, 0.0]


def test_load_circuit_names_a_file_that_is_not_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not a JSON circuit file: "
                                         f"Expecting value"):
        load_circuit(path)


@pytest.mark.parametrize("obj", [
    {"layers": 5}, {"layers": [5]}, {"layers": [{"support": 1, "theta": [0.0] * 4}]},
    {"layers": [{"support": "01", "theta": [0.0] * 16}]},
    {"layers": [{"support": [0]}]}, {"layers": [{"support": [0], "theta": 1.0}]},
])
def test_circuit_json_rejects_malformed_layers(obj):
    with pytest.raises(ValueError, match="'layers' list|'support' and 'theta' lists"):
        circuit_from_json(obj)
