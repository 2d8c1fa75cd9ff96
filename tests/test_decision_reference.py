"""The single-party decision against its earlier, per-pair arithmetic.

``decide`` decides two-qubit frames (``two_qubit``, through
``_pair_checks``) and proves which zero-L frame of the projection has the
least S (``_least_turn``, through ``_class_rows``, ``_split`` and
``_reached``) in stacked arrays.  The references here are the same rules
one pair, one unit and one party at a time: ``np.cross`` and a norm per
pair, a one-hot ``tensordot`` per party, a ``tensordot`` and ``moveaxis``
per party for the commutators, and ``np.unique`` on every pass.  Every
decision, every value a tie is broken on and every returned rotation must
be equal with ==.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from consonance import decide, states
from consonance.optimizer import Preset
from consonance.qstate import (TOL_COMPATIBLE, TOL_DEGENERATE, TOL_STABILIZER, DensityMatrix,
                               partial_trace)
from test_optimizer import _behind_a_frame
from test_projection import DECIDED, NOT_SHOWN, UNDECIDED, embedded_bell_diagonal, noisy_ghz
from test_two_qubit_frame import CASES, behind_a_frame, fano, x_state


# --- the references ------------------------------------------------------


def reference_pair_checks(rho, one_group):
    """(a, b, T, the candidate pairs, whether each is compatible, its value)
    of the two-qubit rule, one pair at a time, the identity's (z, z) last."""
    r = decide._pauli_traces(rho.entries)
    a, b = (np.zeros(3) if zero else v for v, zero in zip((r[1:, 0], r[0, 1:]), one_group))
    t = r[1:, 1:]
    u, _, vh = np.linalg.svd(t)
    if all(one_group):
        pairs = list(zip(u.T, vh))
    elif one_group[1]:
        n_a = a / np.linalg.norm(a)
        pairs = [(n_a, decide._partner(t.T @ n_a, vh[-1]))]
    else:
        n_b = b / np.linalg.norm(b)
        pairs = [(decide._partner(t @ n_b, u[:, -1]), n_b)]

    def residual(n_a, n_b):
        return max(np.linalg.norm(np.cross(x, y))
                   for x, y in ((a, n_a), (b, n_b), (n_a, t @ n_b), (n_b, t.T @ n_a)))

    def value(n_a, n_b):
        return np.linalg.norm((np.eye(3) - np.outer(n_a, n_a)) @ t
                              @ (np.eye(3) - np.outer(n_b, n_b)), 2)

    every = pairs + [(decide._Z, decide._Z)]
    return (a, b, t, pairs, [residual(*p) <= TOL_COMPATIBLE for p in every],
            [value(*p) for p in every])


def reference_two_qubit(rho, one_group):
    *_, pairs, compatible, values = reference_pair_checks(rho, one_group)
    found = [(values[k], k) for k in range(len(pairs)) if compatible[k]]
    if not found:
        return None
    least, k = min(found)
    if compatible[-1] and values[-1] <= least + TOL_COMPATIBLE:
        return None, None
    return tuple(decide._axis_frame(n) for n in pairs[k])


def reference_class_rows(diag, classes, k):
    n = len(classes)
    sums = diag
    for j in range(n):
        if j != k:
            onehot = (classes[j][:, None] == np.unique(classes[j])).astype(float)
            sums = np.moveaxis(np.tensordot(sums, onehot, axes=([j], [0])), -1, j)
    rows = [np.moveaxis(sums, k, 0).reshape(diag.shape[k], -1)]
    if n > 2:
        rows += [np.moveaxis(diag.sum(axis=j), k - (j < k), 0).reshape(diag.shape[k], -1)
                 for j in range(n) if j != k]
    return np.concatenate(rows, axis=1)


def reference_split(labels, rows):
    firsts = []
    split = np.empty_like(labels)
    for p, (label, row) in enumerate(zip(labels, rows)):
        split[p] = next((c for c, q in enumerate(firsts) if labels[q] == label
                         and np.abs(rows[q] - row).max() <= TOL_DEGENERATE), len(firsts))
        if split[p] == len(firsts):
            firsts.append(p)
    return split


def _hermitian_units(d, p, q):
    unit = np.zeros((d, d), dtype=np.complex128)
    unit[p, q] = 1.0
    if p == q:
        return [unit]
    return [unit + unit.T, 1j * (unit - unit.T)]


def reference_reached(a, dims, classes, k):
    n = len(dims)
    t = a.reshape(dims + dims)
    columns, units = [], []
    for j, labels in enumerate(classes):
        pairs = [(label, p, q) for label in np.unique(labels)
                 for p, q in itertools.combinations_with_replacement(
                     np.flatnonzero(labels == label), 2)]
        h = np.array([u for _, p, q in pairs for u in _hermitian_units(dims[j], p, q)])
        units += [(j, label, p == q) for label, p, q in pairs for _ in range(1 if p == q else 2)]
        left = np.moveaxis(np.tensordot(h, t, axes=([2], [j])), 1, 1 + j)
        right = np.moveaxis(np.tensordot(t, h, axes=([n + j], [1])), (-2, -1), (0, 1 + n + j))
        c = (left - right).reshape(len(h), -1)
        columns.append(np.concatenate((c.real, c.imag), axis=1))
    s, vh = np.linalg.svd(np.concatenate(columns).T, full_matrices=False)[1:]
    keep = vh[s <= TOL_STABILIZER]
    blocks, want = [], 0
    for label in np.unique(classes[k]):
        size = np.count_nonzero(classes[k] == label)
        if size > 1:
            own = [u[:2] == (k, label) for u in units]
            diagonal = keep[:, [o and u[2] for o, u in zip(own, units)]]
            blocks += [keep[:, [o and not u[2] for o, u in zip(own, units)]],
                       diagonal - diagonal.mean(axis=1, keepdims=True)]
            want += size * size - 1
    return np.linalg.matrix_rank(np.hstack(blocks), tol=TOL_STABILIZER) == want


def reference_classes(a, dims, groups):
    classes = [np.asarray(g) for g in groups]
    diag = a.diagonal().real.reshape(dims)
    while True:
        counts = [len(np.unique(c)) for c in classes]
        classes = [reference_split(c, reference_class_rows(diag, classes, k))
                   for k, c in enumerate(classes)]
        if [len(np.unique(c)) for c in classes] != counts:
            continue
        loose = [k for k, c in enumerate(classes) if len(np.unique(c)) < len(c)]
        k = next((k for k in loose if reference_reached(a, dims, classes, k)), None)
        if k is None:
            return classes
        classes[k] = np.arange(dims[k])


def reference_least_turn(a, dims, groups):
    classes = reference_classes(a, dims, groups)
    if all(len(np.unique(c)) == len(c) for c in classes):
        return (None,) * len(dims)
    return decide._pair_turn(a, dims, classes)


# --- the checks ----------------------------------------------------------


def same_rotations(got, want) -> bool:
    """Both None, or rotations equal entry for entry (None for none)."""
    if got is None or want is None:
        return got is None and want is None
    return len(got) == len(want) and all(
        (x is None and y is None) or (x is not None and y is not None and np.array_equal(x, y))
        for x, y in zip(got, want))


def one_group(rho):
    """Whether each party's marginal is one eigenvalue group, as
    ``Preset.search_frame`` reads it."""
    return [not decide.eigenframe(partial_trace(rho, [k]).entries)[1].any()
            for k in range(rho.n_parties)]


def check_two_qubit_rule(rho):
    flags = one_group(rho)
    a, b, t, pairs, compatible, values = reference_pair_checks(rho, flags)
    got_compatible, got_values = decide._pair_checks(
        a, b, t, np.array(pairs + [(decide._Z, decide._Z)]))
    assert got_compatible.tolist() == compatible
    assert got_values.tolist() == values
    assert same_rotations(decide.two_qubit(rho, flags),
                          reference_two_qubit(rho, flags))


def check_least_turn(rho):
    """Run ``search_frame`` on rho, and at every ``_least_turn``,
    ``_class_rows`` and ``_reached`` call compare the decision with the
    reference's; returns the number of ``_least_turn`` calls."""
    least_turn, class_rows, reached = decide._least_turn, decide._class_rows, decide._reached
    calls = []

    def spy_least_turn(a, dims, groups):
        got = least_turn(a, dims, groups)
        assert same_rotations(got, reference_least_turn(a, dims, groups))
        calls.append(got)
        return got

    def spy_class_rows(diag, classes, k):
        got = class_rows(diag, classes, k)
        want = reference_class_rows(diag, classes, k)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15
        assert np.array_equal(decide._split(classes[k], got), reference_split(classes[k], want))
        return got

    def spy_reached(a, classes, k):
        got = reached(a, classes, k)
        assert got == reference_reached(a, tuple(len(c) for c in classes), classes, k)
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decide, "_least_turn", spy_least_turn)
        patch.setattr(decide, "_class_rows", spy_class_rows)
        patch.setattr(decide, "_reached", spy_reached)
        Preset().search_frame(rho)
    return len(calls)


def check_search_frame(rho):
    """``search_frame`` decides the frame and the moved columns bit for bit
    as it does with every reference in place of the stacked helpers."""
    got = Preset().search_frame(rho)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decide, "two_qubit", reference_two_qubit)
        patch.setattr(decide, "_least_turn", reference_least_turn)
        want = Preset().search_frame(rho)
    assert same_rotations(got.rotations, want.rotations)
    assert np.array_equal(got.moved, want.moved)


def x_states(seed, count):
    """Seeded X-states: a and b along z and T block-diagonal, each with its
    two coherences at most as large as positivity allows."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        p = rng.dirichlet(np.ones(4))
        m = np.diag(p).astype(np.complex128)
        m[0, 3] = rng.uniform(0, 1) * np.sqrt(p[0] * p[3]) * np.exp(1j * rng.uniform(-3, 3))
        m[1, 2] = rng.uniform(0, 1) * np.sqrt(p[1] * p[2]) * np.exp(1j * rng.uniform(-3, 3))
        out.append(DensityMatrix((2, 2), m + np.triu(m, 1).conj().T))
    return out


TWO_QUBIT = {
    **{f"case-{name}": rho for name, (rho, _, _) in CASES.items()},
    "x-state": x_state(),
    **{f"x-state-{k}": rho for k, rho in enumerate(x_states(seed=1, count=4))},
    **{f"x-state-{k}-random-frame": behind_a_frame(rho, seed=k)
       for k, rho in enumerate(x_states(seed=2, count=4))},
    **{f"werner-{a}-frame-{seed}": behind_a_frame(states.werner(a), seed)
       for a in (0.1, 0.3, 0.5, 1 / 3, 0.9) for seed in range(1, 6)},
}


@pytest.mark.parametrize("name", list(TWO_QUBIT))
def test_the_two_qubit_rule_decides_as_the_reference(name):
    check_two_qubit_rule(TWO_QUBIT[name])
    check_search_frame(TWO_QUBIT[name])


def _sixty_fourths(top):
    return st.integers(-top, top).map(lambda k: k / 64)


@given(c=st.tuples(*[_sixty_fourths(64)] * 3), a=_sixty_fourths(19), b=_sixty_fourths(19),
       axes=st.tuples(st.integers(0, 2), st.integers(0, 2)),
       seed=st.none() | st.integers(0, 2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_fano_states_on_a_grid_decide_as_the_reference(c, a, b, axes, seed):
    # Bloch vectors along axes of T or 0, values on a 1/64 grid, so that
    # singular values tie exactly or differ by far more than the tolerance;
    # in their own frame or behind a Haar-random one
    bloch = [np.zeros(3), np.zeros(3)]
    bloch[0][axes[0]], bloch[1][axes[1]] = a, b
    rho = fano(bloch[0], bloch[1], np.diag(c))
    assume(np.linalg.eigvalsh(rho.entries)[0] >= 1e-9)
    rho = rho if seed is None else behind_a_frame(rho, seed)
    check_two_qubit_rule(rho)
    check_search_frame(rho)


def _more_projection_inputs():
    rng = np.random.default_rng(7)
    cases = {}
    for k in range(4):
        alpha = rng.uniform(0.0, 0.3)
        gamma = rng.uniform(0.0, 1.0 - 2.0 * alpha)
        rho = states.two_param_qubit_qutrit(alpha, gamma)
        cases[f"qubit-qutrit-{k}"] = rho
        cases[f"qubit-qutrit-{k}-random-frame"] = _behind_a_frame(rho, seed=20 + k)
    for seed in (2, 3):
        cases[f"noisy-ghz-3-frame-{seed}"] = _behind_a_frame(noisy_ghz(3, 0.4), seed=seed)
    for seed in (1, 2, 4):
        cases[f"embedded-bell-diagonal-frame-{seed}"] = _behind_a_frame(
            embedded_bell_diagonal((0.5, 0.2, 0.1), 0.5), seed=seed)
    return cases


PROJECTION = {
    **{f"decided-{name}": rho for name, (rho, _) in DECIDED.items()},
    **{f"not-shown-{name}": rho for name, (rho, _) in NOT_SHOWN.items()},
    **{f"stalled-{name}": rho for name, rho in UNDECIDED.items()},
    **_more_projection_inputs(),
}


@pytest.mark.parametrize("name", list(PROJECTION))
def test_the_least_s_proof_decides_as_the_reference(name):
    rho = PROJECTION[name]
    calls = check_least_turn(rho)
    # the projection reaches L = 0 once where it does not stall
    if name.startswith(("decided-", "not-shown-")):
        assert calls == 1
    elif name.startswith("stalled-"):
        assert calls == 0
    check_search_frame(rho)


WERNER_FRAMES = [(a, seed) for a in (0.1, 0.3, 0.5, 0.7) for seed in range(1, 9)]


def test_werner_behind_a_frame_keeps_the_pair_of_least_projected_norm():
    # T = -a O_A O_B^T: its three singular values and the three pairs'
    # values are all a in exact arithmetic, and differ in the last bits.
    # The rule keeps the pair of least projected-norm value, the lowest k
    # among equal ones.  The larger of T's other two singular values is the
    # same S in exact arithmetic but rounds differently: on these frames it
    # would keep another pair at least once, and so another frame.
    differs = 0
    for a, seed in WERNER_FRAMES:
        rho = behind_a_frame(states.werner(a), seed)
        *_, pairs, compatible, values = reference_pair_checks(rho, [True, True])
        assert all(compatible[:3]) and not compatible[3]
        k = min((values[k], k) for k in range(3))[1]
        got = decide.two_qubit(rho, [True, True])
        assert same_rotations(got, tuple(decide._axis_frame(n) for n in pairs[k]))
        singular = np.linalg.svd(decide._pauli_traces(rho.entries)[1:, 1:], compute_uv=False)
        shortcut = min((max(np.delete(singular, j)), j) for j in range(3))[1]
        differs += shortcut != k
    assert differs > 0
