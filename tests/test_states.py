import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consonance import states
from consonance.coherence import local_coherence, nonlocal_sum
from consonance.qstate import (DensityMatrix, ValidationError, density_from_pure,
                               hermitian_eigenvalues, partial_trace, validate)
from consonance.states import (FactorySpecError, TpsRelabeling, bell,
                               bell_like, family_names, get_family,
                               ghz, identity_relabeling, index_relabeling,
                               make_family,
                               parse_factory_spec, permute_subsystems,
                               psi_like, pure_2x2, random_density,
                               random_pure, regroup, tps_remap, two_param_qubit_qutrit,
                               w_state, werner, werner_f_prime)

S2 = 1 / math.sqrt(2)


# --- fixed families ------------------------------------------------------


def test_bell_states():
    assert np.allclose(bell("phi+").amps, [S2, 0, 0, S2])
    assert np.allclose(bell("phi-").amps, [S2, 0, 0, -S2])
    assert np.allclose(bell("psi+").amps, [0, S2, S2, 0])
    assert np.allclose(bell("psi-").amps, [0, S2, -S2, 0])
    with pytest.raises(ValueError):
        bell("omega")


def test_bell_like_amplitude_slots():
    psi = bell_like(a=0.6, b=0.8)
    assert np.allclose(psi.amps, [0.6, 0, 0, 0.8])
    phi = psi_like(a=0.6, b=0.8)
    assert np.allclose(phi.amps, [0, 0.6, 0.8, 0])


def test_pair_parameterizations():
    from_weight = bell_like(a2=0.8)
    assert np.allclose(from_weight.amps,
                       [math.sqrt(0.8), 0, 0, math.sqrt(0.2)])
    with pytest.raises(ValueError):
        bell_like(a=0.6, b=0.8, a2=0.36)
    with pytest.raises(ValueError):
        bell_like()
    with pytest.raises(ValidationError):
        bell_like(a=1.0, b=1.0)


def test_pure_2x2_slot_order():
    # arguments name the amplitudes of |11>, |10>, |01>, |00> in turn
    psi = pure_2x2(a=0.1j, b=0.7, c=0.5, d=0.5)
    assert np.allclose(psi.amps, [0.5, 0.5, 0.7, 0.1j])
    with pytest.raises(ValidationError):
        pure_2x2(1, 1, 0, 0)


def test_werner_entries():
    rho = werner(0.5)
    assert np.allclose(np.diag(rho.entries), [0.125, 0.375, 0.375, 0.125])
    assert rho.entries[1, 2] == pytest.approx(-0.25)
    assert rho.entries[2, 1] == pytest.approx(-0.25)
    assert np.allclose(werner(0.0).entries, np.eye(4) / 4)
    assert np.allclose(werner(1.0).entries,
                       density_from_pure(bell("psi-")).entries)
    with pytest.raises(ValidationError):
        werner(1.5)
    assert validate(werner(0.73)) == []


def test_two_param_family_entries():
    alpha, gamma = 0.1, 0.3
    beta = (1 - 2 * alpha - gamma) / 3
    rho = two_param_qubit_qutrit(alpha, gamma)
    assert rho.dims == (2, 3)
    assert np.allclose(np.diag(rho.entries),
                       [beta, (beta + gamma) / 2, alpha,
                        (beta + gamma) / 2, beta, alpha])
    assert rho.entries[1, 3] == pytest.approx((beta - gamma) / 2)
    assert rho.entries[0, 4] == pytest.approx(0.0, abs=1e-15)
    assert validate(rho) == []
    with pytest.raises(ValidationError):
        two_param_qubit_qutrit(0.5, 0.5)


def test_two_param_family_has_no_local_coherence():
    for alpha in np.linspace(0, 0.5, 6):
        for gamma in np.linspace(0, 1 - 2 * alpha, 4):
            rho = two_param_qubit_qutrit(alpha, gamma)
            assert local_coherence(rho) == pytest.approx(0.0, abs=1e-14)


def test_ghz_family():
    assert np.allclose(ghz(2).amps, bell("phi+").amps)
    g3 = ghz(3)
    assert g3.dims == (2, 2, 2)
    assert np.allclose(g3.amps, [S2, 0, 0, 0, 0, 0, 0, S2])
    with pytest.raises(ValidationError):
        ghz(1)


def test_w_family():
    w3 = w_state(3)
    want = np.zeros(8)
    want[[4, 2, 1]] = 1 / math.sqrt(3)
    assert np.allclose(w3.amps, want)
    assert np.allclose(w_state(2).amps, bell("psi+").amps)


# --- rearranging parties -------------------------------------------------


def test_permute_pure_state():
    psi = random_pure((2, 3), seed=1)
    out = permute_subsystems(psi, (1, 0))
    assert out.dims == (3, 2)
    amps = psi.amps.reshape(2, 3)
    assert np.allclose(out.amps.reshape(3, 2), amps.T)


def test_permute_density_round_trip():
    rho = random_density((2, 3, 2), seed=2)
    out = permute_subsystems(rho, (2, 0, 1))
    assert out.dims == (2, 2, 3)
    # order[k] names the old slot of new party k; (1, 2, 0) undoes (2, 0, 1)
    back = permute_subsystems(out, (1, 2, 0))
    assert np.allclose(back.entries, rho.entries, atol=1e-14)


def test_permute_preserves_marginals():
    rho = random_density((2, 2, 2), seed=3)
    out = permute_subsystems(rho, (2, 0, 1))
    a = partial_trace(rho, [2])
    b = partial_trace(out, [0])
    assert np.allclose(a.entries, b.entries, atol=1e-13)


def test_permute_rejects_bad_order():
    psi = random_pure((2, 2), seed=0)
    with pytest.raises(ValueError):
        permute_subsystems(psi, (0, 0))
    with pytest.raises(ValueError):
        permute_subsystems(psi, (0, 1, 2))


def test_regroup():
    psi = random_pure((2, 2, 2), seed=5)
    merged = regroup(psi, (1, 2))
    assert merged.dims == (2, 4)
    assert np.array_equal(merged.amps, psi.amps)
    rho = random_density((2, 3), seed=5)
    whole = regroup(rho, (2,))
    assert whole.dims == (6,)
    with pytest.raises(ValueError):
        regroup(psi, (1, 1))
    with pytest.raises(ValueError):
        regroup(psi, (0, 3))


def test_two_bell_pairs_regroup_split():
    # 4 qubits in two Bell pairs; pairing (0,2)(1,3) then merging gives a
    # 4x4 pure state whose Schmidt coefficients are the amplitude products
    pair = bell_like(a2=0.8)
    from consonance.qstate import tensor
    four = tensor(pair, pair)
    across = permute_subsystems(four, (0, 2, 1, 3))
    split = regroup(across, (2, 2))
    assert split.dims == (4, 4)
    from consonance.measures import schmidt_coefficients
    coeffs = np.sort(schmidt_coefficients(split))[::-1]
    a1, b1 = math.sqrt(0.8), math.sqrt(0.2)
    want = np.sort([a1 * a1, a1 * b1, b1 * a1, b1 * b1])[::-1]
    assert np.allclose(coeffs, want, atol=1e-12)


# --- tensor product structure relabelings --------------------------------


def test_relabeling_requires_unitary():
    with pytest.raises(ValueError):
        TpsRelabeling((2, 2), (2, 2), np.ones((4, 4)))


def test_identity_relabeling_is_noop():
    rho = werner(0.3)
    out = tps_remap(rho, identity_relabeling((2, 2)))
    assert np.allclose(out.entries, rho.entries)


def test_index_relabeling_swaps_labels():
    rel = index_relabeling((2, 2), (2, 2), {
        (0, 0): (1, 1), (1, 1): (0, 0), (0, 1): (0, 1), (1, 0): (1, 0)})
    rho = DensityMatrix((2, 2), np.diag([0.4, 0.3, 0.2, 0.1]))
    out = tps_remap(rho, rel)
    assert np.allclose(np.diag(out.entries), [0.1, 0.3, 0.2, 0.4])


def test_index_relabeling_must_be_bijective():
    with pytest.raises(ValueError):
        index_relabeling((2, 2), (2, 2), {(0, 0): (1, 1), (1, 1): (1, 1)})
    with pytest.raises(ValueError):
        index_relabeling((2, 2), (2, 2), {(0, 0): (0, 0)})


@pytest.mark.parametrize("source,target", [
    ((0.5, 0), (0, 0)), ((True, 0), (0, 0)), ((0, 0), (0, "1")), ((0, 0), (False, 0)),
    ((np.float64(1.0), 0), (0, 0)), ((0, 0), (1.0, 1)),
])
def test_index_relabeling_rejects_non_integer_indices(source, target):
    # (True, 0) would pass as (1, 0), and 0.5 raised a TypeError from numpy
    # a list of pairs, since a dict would merge (True, 0) with (1, 0)
    mapping = [((0, 1), (0, 1)), ((1, 0), (1, 0)), ((1, 1), (1, 1)), (source, target)]
    with pytest.raises(ValueError, match="basis index must be an integer"):
        index_relabeling((2, 2), (2, 2), mapping)


def test_index_relabeling_rejects_a_repeated_source():
    # targets distinct and complete, but source (0, 0) twice and (0, 1)
    # never: this used to fail later as a non-unitary relabeling matrix
    mapping = [((0, 0), (0, 0)), ((0, 0), (0, 1)), ((1, 0), (1, 0)), ((1, 1), (1, 1))]
    with pytest.raises(ValueError, match=r"source index \(0, 0\) mapped twice"):
        index_relabeling((2, 2), (2, 2), mapping)


def test_index_relabeling_accepts_numpy_integers():
    rel = index_relabeling((2, 2), (2, 2), {
        (np.int64(i), np.int32(j)): (i, j) for i in range(2) for j in range(2)})
    assert np.array_equal(rel.matrix, np.eye(4))


def test_werner_remap_diagonalizes():
    rel = werner_f_prime()
    rho = werner(0.2)
    out = tps_remap(rho, rel)
    assert np.allclose(np.diag(out.entries), [0.2, 0.4, 0.2, 0.2], atol=1e-14)
    off = out.entries - np.diag(np.diag(out.entries))
    assert np.max(np.abs(off)) < 1e-14


def test_werner_remap_kills_all_coherence():
    for a in (0.0, 0.3, 0.7, 1.0):
        out = tps_remap(werner(a), werner_f_prime())
        assert nonlocal_sum(out) < 1e-12
        assert local_coherence(out) < 1e-12


def test_remap_preserves_spectrum():
    rho = random_density((2, 2), seed=13)
    out = tps_remap(rho, werner_f_prime())
    assert np.allclose(hermitian_eigenvalues(out.entries),
                       hermitian_eigenvalues(rho.entries), atol=1e-12)


def test_remap_checks_dims():
    rho = random_density((2, 3), seed=1)
    with pytest.raises(ValueError):
        tps_remap(rho, werner_f_prime())


# --- random state generators ---------------------------------------------


def test_random_pure_is_deterministic():
    a = random_pure((2, 2), seed=42)
    b = random_pure((2, 2), seed=42)
    c = random_pure((2, 2), seed=43)
    assert np.array_equal(a.amps, b.amps)
    assert not np.allclose(a.amps, c.amps)
    assert a.norm_error() < 1e-12


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_random_density_is_valid(seed):
    rho = random_density((2, 3), seed)
    assert validate(rho) == []


def test_random_density_rank_one_is_pure():
    rho = random_density((2, 2), seed=7, rank=1)
    purity = np.trace(rho.entries @ rho.entries).real
    assert purity == pytest.approx(1.0, abs=1e-10)


# --- factory spec grammar ------------------------------------------------


def test_family_registry():
    names = family_names()
    for name in ("bell", "bell_like", "psi_like", "pure_2x2", "werner",
                 "two_param_2x3", "ghz", "w"):
        assert name in names
    assert get_family("werner").params == ("a",)
    assert get_family("two-param-2x3").params == ("alpha", "gamma")
    with pytest.raises(FactorySpecError):
        get_family("nope")


def test_parse_bare_and_keyed_specs():
    assert np.allclose(parse_factory_spec("bell:psi-").amps,
                       bell("psi-").amps)
    assert np.allclose(parse_factory_spec("werner:0.5").entries,
                       werner(0.5).entries)
    assert np.allclose(parse_factory_spec("werner:a=0.5").entries,
                       werner(0.5).entries)
    assert np.allclose(
        parse_factory_spec("two_param_2x3:alpha=0.1,gamma=0.3").entries,
        two_param_qubit_qutrit(0.1, 0.3).entries)
    assert np.allclose(parse_factory_spec("bell_like:a2=0.8").amps,
                       bell_like(a2=0.8).amps)
    assert parse_factory_spec("ghz:4").dims == (2, 2, 2, 2)
    assert parse_factory_spec("ghz").dims == (2, 2, 2)


def test_parse_complex_amplitudes():
    psi = parse_factory_spec("bell_like:a=0.6,b=0.8i")
    assert psi.amps[3] == pytest.approx(0.8j)


def test_parse_aliases():
    assert parse_factory_spec("bell-like:a2=0.5").dims == (2, 2)
    assert parse_factory_spec("w_state:3").dims == (2, 2, 2)
    assert np.allclose(parse_factory_spec("two_param_qubit_qutrit:alpha=0.1,gamma=0.3").entries,
                       two_param_qubit_qutrit(0.1, 0.3).entries)


def test_parse_errors():
    with pytest.raises(FactorySpecError):
        parse_factory_spec("heisenberg:0.5")
    with pytest.raises(FactorySpecError):
        parse_factory_spec("werner:q=0.5")
    with pytest.raises(FactorySpecError):
        parse_factory_spec("werner:a=0.5,a=0.6")
    with pytest.raises(FactorySpecError):
        parse_factory_spec("werner:a=zebra")
    with pytest.raises(FactorySpecError):
        parse_factory_spec("pure_2x2:0.5")  # no distinguished bare parameter
    with pytest.raises(FactorySpecError):
        parse_factory_spec("werner:,")
    with pytest.raises(FactorySpecError):
        parse_factory_spec(":0.5")


def test_make_family():
    assert np.allclose(make_family("werner", a=0.4).entries, werner(0.4).entries)
    with pytest.raises(FactorySpecError):
        make_family("nope")
    with pytest.raises(FactorySpecError):
        make_family("werner", q=1)


@pytest.mark.parametrize("fn,args,kwargs", [
    (states.ghz, (3.7,), {}),
    (states.w_state, (3.0,), {}),
    (states.permute_subsystems, (states.werner(0.5), (1.0, 0)), {}),
    (states.regroup, (states.ghz(3), (1, 2.0)), {}),
    (states.random_density, ((2, 2),), {"seed": 1, "rank": 1.9}),
    (states.random_density, ((2.5, 2),), {"seed": 1}),
    (states.random_density, ((2, 2),), {"seed": 1.5}),
    (states.random_pure, ((2, 2),), {"seed": True}),
], ids=["ghz", "w", "permute", "regroup", "rank", "dims", "seed", "seed-bool"])
def test_integer_parameters_reject_non_integers(fn, args, kwargs):
    with pytest.raises(ValueError, match="integer"):
        fn(*args, **kwargs)
