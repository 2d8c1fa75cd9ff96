"""The batched frame evaluator against a scalar reference built here.

The reference chains the public scalar functions one frame at a time:
hermitian_from_theta -> expi_hermitian -> embed_matrix, then conjugates
and sums with coherence.nonlocal_sum / local_coherence.  The batched
path must match it exactly (==), not just to a tolerance.
"""

import math

import numpy as np
import pytest

from consonance import coherence, states, unitary
from consonance.optimizer import (ORACLE_CHUNK, Preset, _CircuitEvaluator,
                                  oracle_consonance)
from consonance.unitary import (FrameBuilder, LocalCircuit, circuit_unitary,
                                embed_matrix, expi_hermitian,
                                hermitian_from_theta)

DIMS = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 3, 2)]
PRESETS = ([Preset()] + [Preset(kind=unitary.NONGLOBAL, depth=k) for k in range(1, 5)])
CASES = [(dims, p) for dims in DIMS for p in PRESETS] + [
    ((2, 2, 2), Preset(kind=unitary.NONGLOBAL, depth=3,
                       supports=((1, 2), (0,), (0, 2)))),
    ((2, 3, 2), Preset(kind=unitary.NONGLOBAL, depth=2, supports=((2,), (0, 1)))),
    ((3, 3), Preset(kind=unitary.NONGLOBAL, depth=4, supports=((1,), (1,), (0,)))),
]


def reference_unitary(template, dims, theta):
    total = np.eye(math.prod(dims), dtype=np.complex128)
    off = 0
    for layer in template.layers:
        dim = layer.params.dim
        u = expi_hermitian(hermitian_from_theta(dim, theta[off:off + dim * dim]))
        total = embed_matrix(u, layer.support, dims) @ total
        off += dim * dim
    return total


def reference_sums(rho, u):
    rc = u @ rho.entries @ u.conj().T
    return (coherence.nonlocal_sum(rc, rho.dims),
            coherence.local_coherence(rc, rho.dims))


def _check_stack(dims, preset, b, seed):
    rho = states.random_density(dims, seed=seed)
    template = preset.build(dims)
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(-math.pi, math.pi, size=(b, template.n_theta))
    got_u = FrameBuilder(template, dims).unitaries(thetas)
    got_s, got_l = _CircuitEvaluator(rho, template).sums(thetas)
    assert got_u.shape == (b,) + (math.prod(dims),) * 2
    for k, theta in enumerate(thetas):
        ref_u = reference_unitary(template, dims, theta)
        assert np.array_equal(got_u[k], ref_u)
        assert (got_s[k], got_l[k]) == reference_sums(rho, ref_u)


@pytest.mark.parametrize("b", [1, 7])
@pytest.mark.parametrize("dims,preset", CASES,
                         ids=[f"{d}-{p.build(d).preset}-{p.supports}" for d, p in CASES])
def test_batched_frames_match_reference(dims, preset, b):
    _check_stack(dims, preset, b, seed=len(dims) + b)


@pytest.mark.parametrize("dims,preset", [
    ((2, 3), Preset()),
    ((2, 2, 2), Preset(kind=unitary.NONGLOBAL, depth=3)),
])
def test_batched_frames_match_reference_past_one_chunk(dims, preset):
    _check_stack(dims, preset, ORACLE_CHUNK + 3, seed=5)


def test_circuit_unitary_is_the_single_row_case():
    dims = (2, 3, 2)
    template = Preset(kind=unitary.NONGLOBAL, depth=4).build(dims)
    theta = np.random.default_rng(2).uniform(-3, 3, template.n_theta)
    circuit = unitary.with_theta(template, theta)
    assert np.array_equal(circuit_unitary(circuit, dims),
                          reference_unitary(template, dims, theta))


def test_frames_without_layers_are_identities():
    u = FrameBuilder(LocalCircuit(()), (2, 3)).unitaries(np.zeros((3, 0)))
    assert np.array_equal(u, np.broadcast_to(np.eye(6), (3, 6, 6)))


def test_frames_reject_a_misshapen_stack():
    frames = FrameBuilder(unitary.single_party_circuit((2, 2)), (2, 2))
    with pytest.raises(ValueError):
        frames.unitaries(np.zeros(8))
    with pytest.raises(ValueError):
        frames.unitaries(np.zeros((2, 7)))


@pytest.mark.parametrize("rho,preset", [
    (states.werner(0.3), Preset()),
    (states.random_density((2, 3), seed=4), Preset()),
    (states.random_density((2, 2, 2), seed=6), Preset(kind=unitary.NONGLOBAL, depth=3)),
], ids=["werner", "2x3", "2x2x2-nonglobal"])
def test_oracle_matches_per_sample_loop(rho, preset):
    samples, seed = ORACLE_CHUNK + 3, 12
    template = preset.build(rho.dims)
    rng = np.random.Generator(np.random.Philox(key=seed))
    thetas = [np.zeros(template.n_theta) if k == 0
              else rng.uniform(-math.pi, math.pi, size=template.n_theta)
              for k in range(samples)]
    ref = [reference_sums(rho, reference_unitary(template, rho.dims, t)) for t in thetas]
    # a loose eps_l makes about half the samples feasible, so the minimum
    # and the count both depend on every chunk
    eps_l = float(np.median([l for _, l in ref]))
    feasible = [s for s, l in ref if l <= eps_l]
    res = oracle_consonance(rho, preset, samples=samples, seed=seed, eps_l=eps_l)
    assert res.value == min(feasible)
    assert res.feasible_count == len(feasible)
    assert res.samples == samples
