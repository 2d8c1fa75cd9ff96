import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consonance import states
from consonance.measures import (binary_entropy, concurrence_2x2,
                                 concurrence_werner, consonance_2x3,
                                 consonance_pure_2x2, consonance_pure_bipartite,
                                 discord_2x3, discord_bell_like, discord_werner,
                                 eof_2x2, eof_from_concurrence, negativity,
                                 schmidt_coefficients, schmidt_decompose)
from consonance.qstate import (DensityMatrix, ValidationError, density_from_pure,
                               tensor)
from consonance.states import consonance_closed_form

# hand-checked reference values (40-digit arithmetic, rounded to double)
EOF_AT_QUARTER = 0.1176188737709179
EOF_AT_08 = 0.7219280948873623
DISCORD_WERNER_THIRD = 0.1258145836939114
DISCORD_WERNER_HALF = 0.2624831837637343
DISCORD_2X3_POINT = 0.0278665526203722
SQRT_08 = 0.8944271909999159
SQRT_02 = 0.4472135954999579


def random_pure_22(seed):
    return states.random_pure((2, 2), seed)


# --- entropy helpers -----------------------------------------------------


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-14)


def test_binary_entropy_never_signed_zero():
    assert math.copysign(1.0, binary_entropy(0.0)) == 1.0
    assert math.copysign(1.0, binary_entropy(1.0)) == 1.0


# --- concurrence and entanglement of formation ---------------------------


def test_concurrence_bell_states():
    for kind in ("phi+", "phi-", "psi+", "psi-"):
        rho = density_from_pure(states.bell(kind))
        assert concurrence_2x2(rho) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_product_state():
    psi = states.PureState((2, 2), np.array([1, 0, 0, 0], dtype=complex))
    assert concurrence_2x2(density_from_pure(psi)) == pytest.approx(0.0, abs=1e-12)


def test_concurrence_werner_grid():
    for a in np.linspace(0.0, 1.0, 11):
        rho = states.werner(a)
        want = max(0.0, (3 * a - 1) / 2)
        assert concurrence_werner(a) == pytest.approx(want, abs=1e-15)
        assert concurrence_2x2(rho) == pytest.approx(want, abs=1e-10)


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_concurrence_pure_states_determinant_formula(seed):
    psi = random_pure_22(seed)
    # amps ordered |00>,|01>,|10>,|11>
    want = 2 * abs(psi.amps[0] * psi.amps[3] - psi.amps[1] * psi.amps[2])
    got = concurrence_2x2(density_from_pure(psi))
    assert got == pytest.approx(want, abs=1e-9)


def test_concurrence_needs_two_qubits():
    rho = DensityMatrix((2, 3), np.eye(6) / 6)
    with pytest.raises(ValueError):
        concurrence_2x2(rho)


def test_eof_reference_points():
    assert eof_from_concurrence(0.0) == 0.0
    assert eof_from_concurrence(1.0) == pytest.approx(1.0, abs=1e-15)
    assert eof_from_concurrence(0.25) == pytest.approx(EOF_AT_QUARTER, abs=1e-13)
    assert eof_from_concurrence(0.8) == pytest.approx(EOF_AT_08, abs=1e-13)


def test_eof_2x2_on_states():
    assert eof_2x2(states.werner(1.0)) == pytest.approx(1.0, abs=1e-9)
    rho = density_from_pure(states.bell_like(a2=0.8))
    # C = 2 sqrt(0.8 * 0.2) = 0.8
    assert eof_2x2(rho) == pytest.approx(EOF_AT_08, abs=1e-10)


def test_eof_monotone_in_concurrence():
    grid = [eof_from_concurrence(c) for c in np.linspace(0, 1, 21)]
    assert all(x <= y + 1e-15 for x, y in zip(grid, grid[1:]))


# --- negativity ----------------------------------------------------------


def test_negativity_bell_and_product():
    assert negativity(density_from_pure(states.bell("psi-"))) == pytest.approx(
        1.0, abs=1e-12)
    sep = DensityMatrix((2, 2), np.diag([0.5, 0.0, 0.0, 0.5]))
    assert negativity(sep) == 0.0
    assert negativity(DensityMatrix((2, 2), np.eye(4) / 4)) == 0.0


def test_negativity_werner_matches_concurrence():
    for a in np.linspace(0.0, 1.0, 11):
        assert negativity(states.werner(a)) == pytest.approx(
            concurrence_werner(a), abs=1e-10)


def test_negativity_two_param_family():
    for alpha in (0.0, 0.2, 0.35, 0.5):
        for gamma in (0.0, 0.1, 0.3):
            if (1 - 2 * alpha - gamma) < -1e-12:
                continue
            rho = states.two_param_qubit_qutrit(alpha, gamma)
            want = max(0.0, 2 * alpha + 2 * gamma - 1)
            assert negativity(rho) == pytest.approx(want, abs=1e-8)


# --- discord closed forms ------------------------------------------------


def test_discord_werner_reference_points():
    assert discord_werner(0.0) == 0.0
    assert discord_werner(1.0) == pytest.approx(1.0, abs=1e-12)
    assert discord_werner(1 / 3) == pytest.approx(DISCORD_WERNER_THIRD, abs=1e-13)
    assert discord_werner(0.5) == pytest.approx(DISCORD_WERNER_HALF, abs=1e-13)
    with pytest.raises(ValidationError):
        discord_werner(1.2)


def test_discord_werner_never_signed_zero():
    assert math.copysign(1.0, discord_werner(0.0)) == 1.0


def test_discord_bell_like_is_entropy_of_weight():
    assert discord_bell_like(1 / math.sqrt(2), 1 / math.sqrt(2)) == pytest.approx(
        1.0, abs=1e-12)
    assert discord_bell_like(1.0, 0.0) == 0.0
    with pytest.raises(ValidationError):
        discord_bell_like(1.0, 1.0)


@given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
@settings(max_examples=60, deadline=None)
def test_discord_equals_eof_for_schmidt_rank_two(a2):
    a = math.sqrt(a2)
    b = math.sqrt(1 - a2)
    got = discord_bell_like(a, b)
    want = eof_from_concurrence(2 * a * b)
    assert got == pytest.approx(want, abs=1e-10)


def test_discord_2x3_reference_point():
    assert discord_2x3(0.1, 0.3) == pytest.approx(DISCORD_2X3_POINT, abs=1e-13)


def test_discord_2x3_vanishes_when_weights_match():
    # beta = (1 - 2*0.1 - 0.2)/3 = 0.2 = gamma
    assert discord_2x3(0.1, 0.2) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValidationError):
        discord_2x3(0.5, 0.5)  # beta would be negative


# --- Schmidt decomposition -----------------------------------------------


def test_schmidt_coefficients_bell_like():
    psi = states.bell_like(a2=0.8)
    coeffs = schmidt_coefficients(psi)
    assert coeffs[0] == pytest.approx(SQRT_08, abs=1e-12)
    assert coeffs[1] == pytest.approx(SQRT_02, abs=1e-12)


def test_schmidt_product_state():
    psi = states.PureState((2, 3), np.array([0, 1, 0, 0, 0, 0], dtype=complex))
    coeffs = schmidt_coefficients(psi)
    assert coeffs[0] == pytest.approx(1.0, abs=1e-12)
    assert coeffs[1] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (3, 2)])
def test_schmidt_reconstruction(dims):
    for seed in (0, 1, 2):
        psi = states.random_pure(dims, seed)
        dec = schmidt_decompose(psi)
        assert np.all(np.diff(dec.coefficients) <= 1e-15)  # descending
        assert math.fsum((dec.coefficients ** 2).tolist()) == pytest.approx(
            1.0, abs=1e-12)
        assert np.allclose(dec.reconstruct(), psi.amps, atol=1e-9)


def test_schmidt_requires_bipartite():
    with pytest.raises(ValueError):
        schmidt_decompose(states.ghz(3))


def test_pure_bipartite_closed_form():
    assert consonance_pure_bipartite(states.bell_like(a2=0.8)) == pytest.approx(
        0.8, abs=1e-12)
    psi = states.random_pure((2, 2), seed=19)
    want = 2 * abs(psi.amps[0] * psi.amps[3] - psi.amps[1] * psi.amps[2])
    assert consonance_pure_bipartite(psi) == pytest.approx(want, abs=1e-9)
    zero = states.PureState((2, 2), np.array([1, 0, 0, 0], dtype=complex))
    assert consonance_pure_bipartite(zero) == 0.0
    with pytest.raises(ValueError):
        consonance_pure_bipartite(states.ghz(3))


def test_pure_bipartite_two_bell_pairs():
    pair = states.bell()
    four = states.regroup(
        states.permute_subsystems(tensor(pair, pair), (0, 2, 1, 3)), (2, 2))
    assert consonance_pure_bipartite(four) == pytest.approx(3.0, abs=1e-9)


# --- closed-form consonance dispatch -------------------------------------


def test_closed_form_werner():
    res = consonance_closed_form("werner", a=0.3)
    assert type(res) is float
    assert res == pytest.approx(0.3, abs=1e-15)


def test_closed_form_pair_families():
    a, b = math.sqrt(0.8), math.sqrt(0.2)
    for fam in ("bell_like", "psi_like", "bell-like"):
        res = consonance_closed_form(fam, a=a, b=b)
        assert res == pytest.approx(0.8, abs=1e-12)
    with pytest.raises(ValidationError):
        consonance_closed_form("bell_like", a=1.0, b=1.0)


def test_closed_form_pure_2x2():
    res = consonance_closed_form("pure_2x2", a=0.5, b=0.5, c=0.5, d=-0.5)
    assert res == pytest.approx(2 * abs(0.5 * -0.5 - 0.25), abs=1e-12)


def test_closed_form_two_param_2x3():
    res = consonance_closed_form("two_param_2x3", alpha=0.1, gamma=0.3)
    beta = (1 - 0.2 - 0.3) / 3
    assert res == pytest.approx(abs(beta - 0.3), abs=1e-15)
    with pytest.raises(ValidationError):
        consonance_closed_form("two_param_2x3", alpha=0.5, gamma=0.5)


@pytest.mark.parametrize("fn,args,kwargs", [
    (consonance_closed_form, ("bell_like",), {"a": math.nan}),
    (consonance_2x3, (0.1, math.nan), {}),
    (discord_2x3, (0.1, math.nan), {}),
    (consonance_pure_2x2, (math.nan, 0, 0, 1), {}),
], ids=["closed_form_bell_like", "consonance_2x3", "discord_2x3", "consonance_pure_2x2"])
def test_closed_forms_reject_nan(fn, args, kwargs):
    with pytest.raises(ValidationError):
        fn(*args, **kwargs)


def test_closed_form_ghz_and_unknown():
    assert consonance_closed_form("ghz") == 1.0
    assert states.get_family("ghz").note is not None
    with pytest.raises(ValueError):
        consonance_closed_form("heisenberg")
