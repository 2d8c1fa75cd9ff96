"""The batched frame evaluator against references built here.

The scalar reference builds one frame at a time from scalar functions
kept in this file: hermitian_from_theta -> expi_hermitian -> embed_matrix,
chained from the identity, then conjugates and sums each class with its
own boolean-mask fsum, masked_l1.  hermitian_from_theta reads each
(re, im) pair as written, as the chart does.  The earlier chart, which
built ``off = re + 1j * im`` and gathered H from [theta | off | conj(off)],
is written out here too (earlier_layer_unitaries); it differs only where a
theta entry is -0.0, and elsewhere the batched path must match it.  The
batched path must match each reference exactly (==), not just to a
tolerance.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from consonance import coherence, optimizer, states, unitary
from consonance.optimizer import (ORACLE_CHUNK, Preset, _frame_sums,
                                  oracle_consonance)
from consonance.unitary import FrameBuilder, LocalCircuit


def explicit_circuit(dims, supports) -> LocalCircuit:
    """Identity layers on the given supports, in that order."""
    shape = tuple((s, math.prod(dims[p] for p in s)) for s in supports)
    return LocalCircuit(shape, np.zeros(sum(d * d for _, d in shape)))


def circuit_unitary(circuit, dims) -> np.ndarray:
    """A circuit's unitary: one row of its shape's frame builder."""
    return FrameBuilder.of(circuit, dims).unitaries(circuit.theta[None])[0]


DIMS = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 3, 2)]
PRESETS = ([Preset()] + [Preset(kind=unitary.NONGLOBAL, depth=k) for k in range(1, 5)])
CASES = [(dims, p.build(dims)) for dims in DIMS for p in PRESETS] + [
    (dims, explicit_circuit(dims, supports)) for dims, supports in [
        ((2, 2, 2), ((1, 2), (0,), (0, 2))),
        ((2, 3, 2), ((2,), (0, 1))),
        ((3, 3), ((1,), (1,), (0,))),
        # layer dims 2, 3, 6, 2, 6: no two adjacent layers share a dimension
        ((2, 3, 2), ((0,), (1,), (0, 1), (2,), (1, 2))),
    ]]
# the last field names the explicit supports, None for a preset's circuit
CASE_IDS = [f"{d}-{c.preset}-"
            f"{tuple(s for s, _ in c.shape) if c.preset == 'custom' else None}"
            for d, c in CASES]


def hermitian_from_theta(dim: int, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (dim * dim,):
        raise ValueError(f"a {dim}-dimensional unitary takes {dim * dim} parameters, "
                         f"got shape {theta.shape}")
    h = np.diag(theta[:dim].astype(np.complex128))
    iu = np.triu_indices(dim, k=1)
    off = np.empty(len(iu[0]), dtype=np.complex128)
    off.real, off.imag = theta[dim::2], theta[dim + 1::2]   # as written, signed zeros too
    h[iu] = off
    h[(iu[1], iu[0])] = off.conj()
    return h


def expi_hermitian(h: np.ndarray) -> np.ndarray:
    """exp(iH) for Hermitian H via eigendecomposition (exactly unitary columns)."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


@lru_cache(maxsize=None)
def _embed_plan(support: tuple[int, ...], dims: tuple[int, ...]):
    n = len(dims)
    rest = [p for p in range(n) if p not in support]
    order = list(support) + rest
    shape = [dims[p] for p in order]
    perm = [order.index(p) for p in range(n)]
    axes = perm + [n + q for q in perm]
    d_rest = math.prod(dims[p] for p in rest) if rest else 1
    d_full = math.prod(dims)
    return d_rest, tuple(shape), tuple(axes), d_full


def embed_matrix(u: np.ndarray, support: tuple[int, ...], dims: tuple[int, ...]) -> np.ndarray:
    """Lift a support-space unitary to the full space as u (x) identity."""
    d_rest, shape, axes, d_full = _embed_plan(tuple(support), tuple(dims))
    big = np.kron(u, np.eye(d_rest)) if d_rest > 1 else u
    t = big.reshape(shape + shape).transpose(axes)
    return np.ascontiguousarray(t.reshape(d_full, d_full))


def reference_unitary(template, dims, theta):
    total = np.eye(math.prod(dims), dtype=np.complex128)
    off = 0
    for support, dim in template.shape:
        u = expi_hermitian(hermitian_from_theta(dim, theta[off:off + dim * dim]))
        total = embed_matrix(u, support, dims) @ total
        off += dim * dim
    return total


def earlier_hermitians(layer_dims, thetas):
    """Every layer's H at each row (B, P) by the earlier chart: off = re +
    1j * im over every layer's upper triangle, then one gather from the
    source row [theta | off | conj(off)]."""
    n_theta = thetas.shape[1]
    n_off = (n_theta - sum(layer_dims)) // 2
    re, plan = [], []
    for d in layer_dims:
        o, m = len(plan), d * (d - 1) // 2
        iu = np.triu_indices(d, k=1)
        h = np.diag(o + np.arange(d))
        h[iu] = n_theta + len(re) + np.arange(m)
        h[iu[::-1]] = n_theta + n_off + len(re) + np.arange(m)
        plan += h.ravel().tolist()
        re += range(o + d, o + d * d, 2)
    off = thetas[:, re] + 1j * thetas[:, np.array(re, dtype=int) + 1]
    return np.concatenate((thetas, off, off.conj()), axis=1)[:, plan]


def earlier_layer_unitaries(layer_dims, thetas):
    """Each layer's unitaries (B, d, d) by the earlier chart: its H, then
    eigh and exp per layer."""
    h, out, o = earlier_hermitians(layer_dims, thetas), [], 0
    for d in layer_dims:
        w, v = np.linalg.eigh(h[:, o:o + d * d].reshape(-1, d, d))
        out.append((v * np.exp(1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2))
        o += d * d
    return out


def earlier_unitaries(template, dims, thetas):
    """The circuit unitary of each row by the earlier chart, each layer
    lifted by the kron-and-transpose embed and chained from the identity."""
    layers = earlier_layer_unitaries([dim for _, dim in template.shape], thetas)
    out = []
    for k in range(len(thetas)):
        total = np.eye(math.prod(dims), dtype=np.complex128)
        for (support, _), u in zip(template.shape, layers):
            total = embed_matrix(u[k], support, dims) @ total
        out.append(total)
    return out


def masked_l1(entries, dims, mask_index):
    """fsum of |entries| under one boolean class mask (0 diagonal, 1 local,
    2 nonlocal), read in C order."""
    return math.fsum(np.abs(entries[coherence.class_masks(dims)[mask_index]]).tolist())


def reference_sums(rho, u):
    rc = u @ rho.entries @ u.conj().T
    return masked_l1(rc, rho.dims, 2), masked_l1(rc, rho.dims, 1)


def _check_stack(dims, template, b, seed):
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(-math.pi, math.pi, size=(b, template.n_theta))
    _check_rows(dims, template, thetas, seed)


def _check_rows(dims, template, thetas, seed):
    rho = states.random_density(dims, seed=seed)
    frames = FrameBuilder(template.shape, dims)
    got_u = frames.unitaries(thetas)
    got_s, got_l = _frame_sums(frames, rho, thetas,
                               coherence.class_summer(dims, optimizer._S_AND_L))
    assert got_u.shape == (len(thetas),) + (math.prod(dims),) * 2
    for k, theta in enumerate(thetas):
        ref_u = reference_unitary(template, dims, theta)
        assert np.array_equal(got_u[k], ref_u)
        assert (got_s[k], got_l[k]) == reference_sums(rho, ref_u)


@pytest.mark.parametrize("b", [1, 7])
@pytest.mark.parametrize("dims,template", CASES, ids=CASE_IDS)
def test_batched_frames_match_reference(dims, template, b):
    _check_stack(dims, template, b, seed=len(dims) + b)


@pytest.mark.parametrize("dims,preset", [
    ((2, 3), Preset()),
    ((2, 2, 2), Preset(kind=unitary.NONGLOBAL, depth=3)),
])
def test_batched_frames_match_reference_past_one_chunk(dims, preset):
    _check_stack(dims, preset.build(dims), ORACLE_CHUNK + 3, seed=5)


EARLIER_CASES = [((2, 2), Preset()), ((2, 3), Preset()), ((3, 3), Preset()),
                ((2, 2, 2), Preset(kind=unitary.NONGLOBAL, depth=3)),
                ((2, 2, 2, 2), Preset(kind=unitary.NONGLOBAL, depth=3))]


@pytest.mark.parametrize("b", [1, 2, 31, ORACLE_CHUNK + 1])
@pytest.mark.parametrize("dims,preset", EARLIER_CASES, ids=[str(d) for d, _ in EARLIER_CASES])
def test_frames_and_sums_match_the_earlier_chart_where_no_theta_is_negative_zero(dims, preset, b):
    # random rows with exact +0.0 entries, and the row theta = 0
    template = preset.build(dims)
    rng = np.random.default_rng(b + len(dims))
    thetas = rng.uniform(-math.pi, math.pi, size=(b, template.n_theta))
    thetas[rng.random(thetas.shape) < 0.3] = 0.0
    thetas[0] = 0.0
    assert not np.signbit(thetas[thetas == 0]).any()
    rho = states.random_density(dims, seed=b)
    frames = FrameBuilder(template.shape, dims)
    got_u = frames.unitaries(thetas)
    got_s, got_l = _frame_sums(frames, rho, thetas,
                               coherence.class_summer(dims, optimizer._S_AND_L))
    for k, ref_u in enumerate(earlier_unitaries(template, dims, thetas)):
        assert np.array_equal(got_u[k], ref_u)
        assert (got_s[k], got_l[k]) == reference_sums(rho, ref_u)


def test_the_chart_reads_a_negative_zero_as_written(monkeypatch):
    # H takes each (re, im) pair with its signs, -0.0 included, and the
    # entry below the diagonal is (re, -im).  The earlier chart's
    # re + 1j * im turned an Im of -0.0 into +0.0 and an Re of -0.0 into
    # copysign(0, im): the one place the two charts differ, and only in
    # the sign of a zero
    d, dims, seen = 4, (4, 2), []
    rng = np.random.default_rng(3)
    thetas = rng.uniform(-3, 3, size=(4, d * d))
    thetas[0, d:] = np.where(rng.random(d * d - d) < 0.5, -0.0, thetas[0, d:])
    thetas[1, d::2] = -0.0                                          # every Re
    thetas[2, d + 1::2] = -0.0                                      # every Im
    thetas[3, d:] = np.where(np.arange(d * d - d) % 2, 0.0, -0.0)   # Re -0.0, Im +0.0
    expi_stack = unitary._expi_stack

    def spy(h, out):
        seen.append(h.copy())
        return expi_stack(h, out)

    monkeypatch.setattr(unitary, "_expi_stack", spy)
    got = FrameBuilder((((0,), d),), dims).unitaries(thetas)
    want_h = np.array([hermitian_from_theta(d, theta) for theta in thetas])
    assert seen[0].reshape(want_h.shape).tobytes() == want_h.tobytes()
    earlier_h = earlier_hermitians((d,), thetas).reshape(want_h.shape)
    assert np.array_equal(earlier_h, want_h)
    assert all(a.tobytes() != b.tobytes() for a, b in zip(earlier_h, want_h))
    for k, h in enumerate(want_h):
        assert np.array_equal(got[k], embed_matrix(expi_hermitian(h), (0,), dims))


def _edge_thetas(n_theta, seed):
    """Rows where a wrong chart shows: all 0.0; 0.0 and -0.0 alternating,
    in random signs and all -0.0; random entries scaled by 1e-300, one of
    them also with signed zeros."""
    rng = np.random.default_rng(seed)
    signs = np.vstack([(-1.0) ** np.arange(n_theta),
                       rng.choice([-1.0, 1.0], size=n_theta),
                       -np.ones(n_theta)])
    tiny = rng.uniform(-3, 3, size=(2, n_theta)) * 1e-300
    tiny[1, ::3] = 0.0 * signs[1, ::3]
    return np.vstack([np.zeros(n_theta), 0.0 * signs, tiny])


@pytest.mark.parametrize("dims,template", CASES, ids=CASE_IDS)
def test_frames_match_reference_at_signed_zeros_and_tiny_thetas(dims, template):
    n_theta = template.n_theta
    _check_rows(dims, template, _edge_thetas(n_theta, seed=len(dims) + n_theta), len(dims))


def test_build_unitary_is_the_single_row_chart():
    rng = np.random.default_rng(8)
    for dim in (2, 3, 4):
        for theta in [rng.uniform(-3, 3, dim * dim), *_edge_thetas(dim * dim, dim)]:
            assert np.array_equal(unitary.build_unitary(theta),
                                  expi_hermitian(hermitian_from_theta(dim, theta)))


def test_apply_to_a_pure_state_is_the_single_row_case():
    dims = (2, 3, 2)
    template = Preset(kind=unitary.NONGLOBAL, depth=4).build(dims)
    theta = np.random.default_rng(2).uniform(-3, 3, template.n_theta)
    circuit = unitary.with_theta(template, theta)
    psi = states.random_pure(dims, seed=2)
    assert np.array_equal(unitary.apply(circuit, psi).amps,
                          reference_unitary(template, dims, theta) @ psi.amps)


def test_frame_layout_is_cached_and_read_only():
    dims, template = CASES[-1]     # five runs of adjacent layers, dims interleaved
    first, second = FrameBuilder(template.shape, dims), FrameBuilder(template.shape, dims)
    assert first._chart is second._chart
    arrays = [a for a in first._chart if isinstance(a, np.ndarray)] + [first._embed]
    assert len(arrays) == 3
    assert arrays[:2] == [first._chart.real, first._chart.imag]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 0
    # the embed plan is laid out once per shape, in the builder every caller shares
    assert FrameBuilder.of(template, dims) is FrameBuilder.of(template, list(dims))


@pytest.mark.parametrize("layer_dims", [(2,), (3,), (2, 2), (4, 2), (2, 3, 6, 2, 6),
                                        (2, 2, 3, 3, 2)], ids=str)
def test_chart_reads_theta_in_place(layer_dims):
    # each layer's plan block sits at its theta offset; a diagonal entry
    # reads its theta column and the 0 of [theta | 0 | -theta], an upper
    # entry its (re, im) pair in row-major order, the entry below it re and
    # the pair's -im
    layout = unitary._chart_layout(layer_dims)
    n_theta = sum(d * d for d in layer_dims)
    assert len(layout.real) == len(layout.imag) == n_theta
    runs, o = [], 0
    for d in layer_dims:
        re = layout.real[o:o + d * d].reshape(d, d)
        im = layout.imag[o:o + d * d].reshape(d, d)
        assert re.diagonal().tolist() == list(range(o, o + d))
        assert im.diagonal().tolist() == [n_theta] * d
        iu = np.triu_indices(d, k=1)
        assert re[iu].tolist() == re[iu[::-1]].tolist() == list(range(o + d, o + d * d, 2))
        assert im[iu].tolist() == list(range(o + d + 1, o + d * d, 2))
        assert (im[iu[::-1]] - n_theta - 1).tolist() == im[iu].tolist()
        if runs and runs[-1][0] == d:
            runs[-1] = (d, runs[-1][1] + 1, runs[-1][2], o + d * d)
        else:
            runs.append((d, 1, o, o + d * d))
        o += d * d
    # the groups are the runs of adjacent layers of one dimension
    assert layout.groups == tuple(runs)


def test_frames_without_layers_are_identities():
    u = FrameBuilder(LocalCircuit((), np.zeros(0)).shape, (2, 3)).unitaries(np.zeros((3, 0)))
    assert np.array_equal(u, np.broadcast_to(np.eye(6), (3, 6, 6)))


def test_frames_reject_a_misshapen_stack():
    frames = FrameBuilder(unitary.Preset().build((2, 2)).shape, (2, 2))
    with pytest.raises(ValueError):
        frames.unitaries(np.zeros(8))
    with pytest.raises(ValueError):
        frames.unitaries(np.zeros((2, 7)))


def _reference_oracle_samples(rho, preset, samples, seed):
    """(S, L) of each oracle sample, theta = 0 first, by the reference."""
    template = preset.build(rho.dims)
    rng = np.random.Generator(np.random.Philox(key=seed))
    thetas = [np.zeros(template.n_theta)] + [
        rng.uniform(-math.pi, math.pi, size=template.n_theta) for _ in range(samples - 1)]
    return [reference_sums(rho, reference_unitary(template, rho.dims, t)) for t in thetas]


@pytest.mark.parametrize("rho,preset", [
    (states.werner(0.3), Preset()),
    (states.random_density((2, 3), seed=4), Preset()),
    (states.random_density((2, 2, 2), seed=6), Preset(kind=unitary.NONGLOBAL, depth=3)),
], ids=["werner", "2x3", "2x2x2-nonglobal"])
def test_oracle_matches_per_sample_loop(rho, preset, monkeypatch):
    samples, seed = ORACLE_CHUNK + 3, 12
    ref = _reference_oracle_samples(rho, preset, samples, seed)
    # a loose EPS_L makes about half the samples feasible, so the minimum
    # and the count both depend on every chunk
    eps_l = float(np.median([l for _, l in ref]))
    feasible = [s for s, l in ref if l <= eps_l]
    monkeypatch.setattr(optimizer, "EPS_L", eps_l)
    res = oracle_consonance(rho, preset, samples=samples, seed=seed)
    assert res.value == min(feasible)
    assert res.feasible_count == len(feasible)
    assert res.samples == samples


@pytest.mark.parametrize("rho,preset", [
    (states.random_density((2, 3), seed=4), Preset()),
    (states.random_density((2, 2, 2), seed=6), Preset(kind=unitary.NONGLOBAL, depth=2)),
], ids=["2x3", "2x2x2-nonglobal"])
def test_oracle_counts_a_tie_with_eps_l_as_feasible(rho, preset, monkeypatch):
    samples, seed = 300, 21
    ref = _reference_oracle_samples(rho, preset, samples, seed)
    # the sample of least S among the lower half in L decides the value
    # when EPS_L is exactly its L, and only if the tie counts
    median_l = np.median([l for _, l in ref])
    k = min((k for k, (_, l) in enumerate(ref) if l <= median_l), key=lambda k: ref[k][0])
    eps_l = ref[k][1]
    feasible = [s for s, l in ref if l <= eps_l]
    monkeypatch.setattr(optimizer, "EPS_L", eps_l)
    res = oracle_consonance(rho, preset, samples=samples, seed=seed)
    assert res.value == ref[k][0] == min(feasible)
    assert res.feasible_count == len(feasible)


def test_oracle_sums_exactly_only_the_screened_frames(monkeypatch):
    rho = states.werner(0.6)
    s0 = coherence.nonlocal_sum(rho)
    rows = []
    class_sums = coherence.class_sums

    def counted(mats, dims, classes):
        rows.append(len(mats))
        return class_sums(mats, dims, classes)

    monkeypatch.setattr(coherence, "class_sums", counted)
    # theta = 0 is the only feasible sample of a Werner state here; the
    # random frames have L far above EPS_L and are screened out
    res = oracle_consonance(rho, samples=ORACLE_CHUNK + 3, seed=1)
    assert (res.value, res.feasible_count) == (s0, 1)
    assert rows == [1, 0]
