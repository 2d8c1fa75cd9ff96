import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consonance import states, unitary
from consonance.coherence import (CoherenceClass, _class_positions,
                                  class_masks, class_sums, classify,
                                  local_coherence, local_screen, nonlocal_sum,
                                  profile)
from consonance.qstate import DensityMatrix, density_from_pure, tensor
from test_frames import DIMS, masked_l1

CLASSES = (CoherenceClass.NONLOCAL, CoherenceClass.LOCAL, CoherenceClass.DIAGONAL)
MASKS = (2, 1, 0)      # masked_l1's index of each class in CLASSES


def delta_mask_class(row, col):
    """Independent oracle: the product-of-deltas classifier.

    f = (1 - prod delta) * (1 - prod (1 - delta)) picks out the partially
    equal pairs; all-equal and all-different are the two zeros of f.
    """
    deltas = [1 if i == j else 0 for i, j in zip(row, col)]
    all_equal = math.prod(deltas)
    all_diff = math.prod(1 - d for d in deltas)
    f = (1 - all_equal) * (1 - all_diff)
    if all_equal:
        return CoherenceClass.DIAGONAL
    return CoherenceClass.LOCAL if f else CoherenceClass.NONLOCAL


def all_multis(dims):
    return list(itertools.product(*[range(d) for d in dims]))


def test_classify_bipartite_examples():
    assert classify((0, 0), (1, 1), (2, 2)) is CoherenceClass.NONLOCAL
    assert classify((0, 0), (0, 1), (2, 2)) is CoherenceClass.LOCAL
    assert classify((1, 0), (1, 0), (2, 2)) is CoherenceClass.DIAGONAL


def test_classify_three_party_examples():
    assert classify((0, 0, 0), (1, 0, 1), (2, 2, 2)) is CoherenceClass.LOCAL
    assert classify((0, 0, 0), (1, 1, 1), (2, 2, 2)) is CoherenceClass.NONLOCAL


def test_classify_rejects_bad_indices():
    with pytest.raises(ValueError):
        classify((0, 2), (0, 0), (2, 2))
    with pytest.raises(ValueError):
        classify((0,), (0, 0), (2, 2))
    with pytest.raises(ValueError, match="integer"):
        classify((0.5, 0), (0, 0), (2, 2))
    with pytest.raises(ValueError, match="integer"):
        classify((0, 0), (1, True), (2, 2))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2), (3, 3)])
def test_partition_property_exhaustive(dims):
    counts = {c: 0 for c in CoherenceClass}
    for row in all_multis(dims):
        for col in all_multis(dims):
            counts[classify(row, col, dims)] += 1
    d = math.prod(dims)
    assert sum(counts.values()) == d * d
    assert counts[CoherenceClass.DIAGONAL] == d


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2), (3, 3)])
def test_classifier_agrees_with_delta_masks(dims):
    for row in all_multis(dims):
        for col in all_multis(dims):
            assert classify(row, col, dims) is delta_mask_class(row, col)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2)])
def test_masks_match_classifier(dims):
    diag, local, nonloc = class_masks(dims)
    multis = all_multis(dims)
    for i, row in enumerate(multis):
        for j, col in enumerate(multis):
            cls = classify(row, col, dims)
            assert diag[i, j] == (cls is CoherenceClass.DIAGONAL)
            assert local[i, j] == (cls is CoherenceClass.LOCAL)
            assert nonloc[i, j] == (cls is CoherenceClass.NONLOCAL)


def test_masks_are_cached_and_read_only():
    first = class_masks((2, 2))
    second = class_masks((2, 2))
    assert first[0] is second[0]
    with pytest.raises(ValueError):
        first[0][0, 0] = False
    _, positions = _class_positions(2, 2)
    assert not any(p.flags.writeable for p in positions.values())


# --- the two functionals -------------------------------------------------


def test_werner_sums():
    for a in (0.0, 0.25, 0.5, 1.0):
        rho = states.werner(a)
        assert nonlocal_sum(rho) == pytest.approx(a, abs=1e-12)
        assert local_coherence(rho) == pytest.approx(0.0, abs=1e-12)


def test_two_param_family_sums():
    rho = states.two_param_qubit_qutrit(0.1, 0.3)
    beta = (1 - 2 * 0.1 - 0.3) / 3
    assert local_coherence(rho) == pytest.approx(0.0, abs=1e-12)
    assert nonlocal_sum(rho) == pytest.approx(abs(beta - 0.3), abs=1e-12)


def test_ghz_profile():
    p = profile(density_from_pure(states.ghz(3)))
    assert p.s_value == pytest.approx(1.0, abs=1e-12)
    assert p.l_value == pytest.approx(0.0, abs=1e-12)
    assert p.diag_mass == pytest.approx(1.0, abs=1e-12)


def test_w_profile():
    p = profile(density_from_pure(states.w_state(3)))
    assert p.s_value == pytest.approx(0.0, abs=1e-12)
    assert p.l_value == pytest.approx(2.0, abs=1e-12)
    assert p.diag_mass == pytest.approx(1.0, abs=1e-12)


def test_plus_tensor_zero_profile():
    plus = states.PureState((2,), np.array([1, 1]) / math.sqrt(2))
    zero = states.PureState((2,), np.array([1, 0], dtype=complex))
    p = profile(density_from_pure(tensor(plus, zero)))
    assert p.l_value == pytest.approx(1.0, abs=1e-12)
    assert p.s_value == pytest.approx(0.0, abs=1e-12)


def test_maximally_mixed_has_no_coherence():
    for dims in [(2, 2), (2, 3), (2, 2, 2)]:
        d = math.prod(dims)
        rho = DensityMatrix(dims, np.eye(d) / d)
        assert nonlocal_sum(rho) == 0.0
        assert local_coherence(rho) == 0.0


def _random_states(dims):
    return ([states.random_density(dims, seed=s) for s in range(4)]
            + [density_from_pure(states.random_pure(dims, seed=s)) for s in range(2)])


@pytest.mark.parametrize("dims", DIMS)
def test_sums_equal_the_masked_reference(dims):
    for rho in _random_states(dims):
        want = tuple(masked_l1(rho.entries, dims, k) for k in MASKS)
        p = profile(rho)
        assert (p.s_value, p.l_value, p.diag_mass) == want
        assert nonlocal_sum(rho) == want[0]
        assert local_coherence(rho) == want[1]
        assert [[x] for x in want] == class_sums(rho.entries, dims, CLASSES)


@pytest.mark.parametrize("dims", DIMS)
def test_class_sums_of_a_stack_equal_its_single_matrices(dims):
    stack = np.stack([rho.entries for rho in _random_states(dims)])
    got = class_sums(stack, dims, CLASSES)
    assert [len(g) for g in got] == [len(stack)] * 3
    assert class_sums(stack[:0], dims, CLASSES) == [[], [], []]
    for k, m in enumerate(stack):
        row = [g[k] for g in got]
        assert [[x] for x in row] == class_sums(m, dims, CLASSES)
        assert row == [masked_l1(m, dims, i) for i in MASKS]


def test_sums_reject_matrices_of_other_dims():
    with pytest.raises(ValueError):
        class_sums(np.eye(8), (2, 2), CLASSES)
    with pytest.raises(ValueError):
        class_sums(np.eye(4), (2, 3), CLASSES)
    with pytest.raises(ValueError):
        class_sums(np.zeros((3, 4, 4)), (2, 3), CLASSES)


def test_masks_and_sums_take_list_dims():
    # a list used to fail the cache lookup with "unhashable type: 'list'"
    rho = states.werner(0.4)
    assert all(a is b for a, b in zip(class_masks([2, 2]), class_masks((2, 2))))
    assert class_sums(rho.entries, [2, 2], CLASSES) == class_sums(rho.entries, (2, 2), CLASSES)
    for bad in ([2.5, 2], (2.5, 2), [1, 2]):
        with pytest.raises(ValueError):
            class_masks(bad)
        with pytest.raises(ValueError):
            class_sums(np.eye(5), bad, CLASSES)


def test_float_dims_are_rejected_whatever_the_cache_holds():
    # (2.0, 2) == (2, 2) with equal hashes, so a cache keyed on values
    # alone let float dims through once (2, 2) had been looked up
    m = states.werner(0.3).entries
    _class_positions.cache_clear()
    for _ in range(2):     # first with nothing cached, then with (2, 2) cached
        for bad in ((2.0, 2), (2, 2.0), (True, 2), (np.float64(2), 2)):
            with pytest.raises(ValueError):
                class_sums(m, bad, CLASSES)
            with pytest.raises(ValueError):
                local_screen(m, bad, 1.0)
            with pytest.raises(ValueError):
                class_masks(bad)
        assert class_sums(m, (2, 2), CLASSES) == class_sums(m, (np.int64(2), 2), CLASSES)
    class_masks((2, 2))
    with pytest.raises(ValueError):
        class_sums(m, (2.0, 2), CLASSES)


# --- the screen ----------------------------------------------------------


def _local_sums(stack, dims):
    return np.array(class_sums(stack, dims, (CoherenceClass.LOCAL,))[0])


def _random_stack(dims, seed, b=64):
    """Random complex (B, D, D) rows spread over 24 decades, so that the
    L of the rows spans a wide range."""
    rng = np.random.default_rng(seed)
    d = math.prod(dims)
    z = rng.normal(size=(b, d, d)) + 1j * rng.normal(size=(b, d, d))
    return z * 10.0 ** rng.uniform(-16, 8, size=(b, 1, 1))


@pytest.mark.parametrize("dims", DIMS)
def test_screen_keeps_every_row_within_the_bound(dims):
    for seed in range(3):
        stack = _random_stack(dims, seed)
        l = _local_sums(stack, dims)
        for bound in np.concatenate([l, [0.0, 1e-6, 1.0, np.inf]]):
            kept = local_screen(stack, dims, bound)
            assert set(np.flatnonzero(l <= bound)) <= set(kept.tolist())
            # and it screens: nothing kept lies far above twice the bound
            assert (l[kept] <= 2.0 * bound * (1 + 1e-12)).all()


def test_screen_at_the_edges():
    dims = (2, 3)
    local = class_masks(dims)[1]
    n_local = int(local.sum())
    rng = np.random.default_rng(4)
    tie = np.zeros((6, 6), dtype=np.complex128)
    tie[local] = rng.uniform(0, 1, n_local) + 1j * rng.uniform(0, 1, n_local)
    subnormal = np.zeros((6, 6), dtype=np.complex128)
    subnormal[local] = 5e-324 * rng.integers(1, 9, n_local)
    nan = tie.copy()
    nan[0, 1] = np.nan
    stack = np.stack([tie, np.zeros((6, 6)), subnormal, nan])
    l = _local_sums(stack, dims)
    assert l[1] == 0.0 and 0.0 < l[2] < 1e-320
    assert math.isnan(l[3])
    # a row whose fsum L equals the bound survives, as do the all-zero rows
    assert local_screen(stack, dims, l[0]).tolist() == [0, 1, 2]
    assert local_screen(stack, dims, l[2]).tolist() == [1, 2]
    assert local_screen(stack, dims, 0.0).tolist() == [1]
    # a NaN row is never kept, as its L is never at most any bound
    assert local_screen(stack, dims, np.inf).tolist() == [0, 1, 2]
    assert local_screen(stack[:0], dims, 1.0).tolist() == []
    assert local_screen(stack[0], dims, l[0]).tolist() == [0]
    with pytest.raises(ValueError):
        local_screen(np.zeros((2, 4, 4)), dims, 1.0)


def test_screen_keeps_a_zero_l_state_in_its_own_frame():
    # theta = 0 in the standard frame: the identity frame leaves the Werner
    # state's local entries exactly zero
    rho = states.werner(0.4)
    frames = unitary.FrameBuilder(unitary.Preset().build(rho.dims), rho.dims)
    rotated = unitary.conjugate(frames, rho.entries, np.zeros((3, frames.n_theta)))
    assert _local_sums(rotated, rho.dims).tolist() == [0.0] * 3
    assert local_screen(rotated, rho.dims, 0.0).tolist() == [0, 1, 2]


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_partition_identity_on_random_states(seed):
    rho = states.random_density((2, 2), seed)
    p = profile(rho)
    total = float(np.abs(rho.entries).sum())
    assert p.s_value + p.l_value + p.diag_mass == pytest.approx(total, abs=1e-10)


def test_global_phase_invariance():
    psi = states.random_pure((2, 2), seed=3)
    rotated = states.PureState(psi.dims, np.exp(1j * 0.37) * psi.amps)
    assert nonlocal_sum(density_from_pure(psi)) == pytest.approx(
        nonlocal_sum(density_from_pure(rotated)), abs=1e-12)
    assert local_coherence(density_from_pure(psi)) == pytest.approx(
        local_coherence(density_from_pure(rotated)), abs=1e-12)


def test_party_permutation_consistency():
    rho = states.random_density((2, 3), seed=9)
    swapped = states.permute_subsystems(rho, (1, 0))
    assert nonlocal_sum(swapped) == pytest.approx(nonlocal_sum(rho), abs=1e-12)
    assert local_coherence(swapped) == pytest.approx(local_coherence(rho), abs=1e-12)


def test_continuity_bound():
    # |S(rho) - S(sigma)| is bounded by the entrywise l1 distance
    rng = np.random.Generator(np.random.Philox(key=77))
    for _ in range(10):
        rho = states.random_density((2, 2), seed=int(rng.integers(2 ** 31)))
        sigma = states.random_density((2, 2), seed=int(rng.integers(2 ** 31)))
        l1 = float(np.abs(rho.entries - sigma.entries).sum())
        assert abs(nonlocal_sum(rho) - nonlocal_sum(sigma)) <= l1 + 1e-12
        assert abs(local_coherence(rho) - local_coherence(sigma)) <= l1 + 1e-12
