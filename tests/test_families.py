"""The family table, the factories built on it and the per-row measure context."""

import json
import math

import numpy as np
import pytest

from consonance import cli, coherence, measures, optimizer, states
from consonance.cli import MeasureContext, evaluate_measure
from consonance.qstate import density_from_pure

SQRT2 = math.sqrt(2.0)


# --- factories against kron-built references -----------------------------


def _kron_qubit_qutrit(alpha, gamma):
    """The qubit-qutrit family as the factory used to build it: kets from
    np.kron of the party basis vectors."""
    def basis(d, k):
        v = np.zeros(d, dtype=np.complex128)
        v[k] = 1.0
        return v

    def ket(i, j):
        return np.kron(basis(2, i), basis(3, j))

    def proj(v):
        return np.outer(v, v.conj())

    beta = max((1.0 - 2.0 * alpha - gamma) / 3.0, 0.0)
    phi_p = (ket(0, 0) + ket(1, 1)) / SQRT2
    phi_m = (ket(0, 0) - ket(1, 1)) / SQRT2
    psi_p = (ket(0, 1) + ket(1, 0)) / SQRT2
    psi_m = (ket(0, 1) - ket(1, 0)) / SQRT2
    return (alpha * (proj(ket(0, 2)) + proj(ket(1, 2)))
            + beta * (proj(phi_p) + proj(phi_m) + proj(psi_p))
            + gamma * proj(psi_m))


def _qutrit_grid():
    for alpha in (0.0, 0.05, 0.1, 0.2, 0.3, 0.45, 0.5):
        top = 1.0 - 2.0 * alpha
        for gamma in (0.0, 0.25 * top, 0.5 * top, 0.9 * top, top):
            yield alpha, gamma


@pytest.mark.parametrize("alpha,gamma", list(_qutrit_grid()))
def test_qubit_qutrit_factory_is_byte_identical_to_kron(alpha, gamma):
    rho = states.two_param_qubit_qutrit(alpha, gamma)
    assert rho.entries.tobytes() == _kron_qubit_qutrit(alpha, gamma).tobytes()


@pytest.mark.parametrize("a", [0.0, 0.5, 1.0])
def test_werner_factory_is_byte_identical_to_fresh_singlet(a):
    singlet = density_from_pure(states.bell("psi-")).entries
    want = a * singlet + (1.0 - a) / 4.0 * np.eye(4)
    assert states.werner(a).entries.tobytes() == want.tobytes()


def test_factories_still_validate():
    with pytest.raises(states.ValidationError):
        states.two_param_qubit_qutrit(0.5, 0.5)
    with pytest.raises(states.ValidationError):
        states.werner(1.5)
    # the shared operators cannot be written through
    assert not states.werner(0.5).entries.flags.writeable
    assert not states._SINGLET.flags.writeable
    assert not any(m.flags.writeable for m in states._QUTRIT_OPS)


# --- the table -----------------------------------------------------------


def test_every_name_and_alias_finds_its_record():
    for fam in states.FAMILIES:
        for name in (fam.name,) + fam.aliases:
            assert states.get_family(name) is fam
    with pytest.raises(states.FactorySpecError):
        states.get_family("heisenberg")


def test_required_parameters():
    assert states.get_family("two_param_2x3").required == ("alpha", "gamma")
    assert states.get_family("werner").required == ("a",)
    assert states.get_family("bell_like").required == ()
    assert states.get_family("ghz").required == ()


def test_parse_spec_returns_record_and_parsed_values():
    fam, params = states.parse_spec("bell-like:a=0.6,b=0.8i")
    assert fam is states.get_family("bell_like")
    assert params == {"a": 0.6 + 0j, "b": 0.8j}
    fam, params = states.parse_spec("werner:0.25")
    assert fam.name == "werner" and params == {"a": 0.25}


def test_pair_parameters_resolve_in_one_place():
    resolve = states.get_family("bell_like").resolve
    assert resolve(a2=0.36) == {"a": 0.6, "b": 0.8}
    assert resolve(a=0.6) == {"a": 0.6 + 0j, "b": complex(math.sqrt(1.0 - 0.36))}
    with pytest.raises(states.ValidationError):
        resolve(a=0.6, a2=0.36)
    with pytest.raises(states.ValidationError):
        resolve(a=1.0, b=1.0)


def test_ghz_note_does_not_claim_a_lower_bound():
    note = states.get_family("ghz").note
    assert "own frame" in note and "S = 0" in note


def test_w_note_says_there_is_no_closed_form_and_nonglobal_values_bound_zero():
    note = states.get_family("w").note
    assert "no closed form" in note
    assert "nonglobal depth-3" in note and "S = L = 0" in note
    assert "upper bounds on 0" in note
    assert "no zero-L single_party frame" in note and "n >= 3" in note
    assert "generalized Schmidt form" in note and "PRA 62, 062314" in note


# --- one lookup: every way in normalizes the name the same way -----------


@pytest.mark.parametrize("spelling,name,params", [
    ("Werner", "werner", {"a": 0.5}),
    (" werner ", "werner", {"a": 0.5}),
    ("bell-like", "bell_like", {"a2": 0.36}),
    ("PURE-2x2", "pure_2x2", {"a": 0.6, "b": 0.0, "c": 0.0, "d": 0.8}),
])
def test_every_way_in_reaches_the_same_record(capsys, spelling, name, params):
    fam = states.get_family(spelling)
    assert fam is states.get_family(name)
    want = fam.consonance(**fam.resolve(**params))
    assert states.consonance_closed_form(spelling, **params) == want

    args = ",".join(f"{k}={v}" for k, v in params.items())
    assert cli.main(["measure", "--json", "--measure", "consonance_cf",
                     "--family", f"{spelling}:{args}"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["family"] == name and out["value"] == want

    (axis, x), *fixed = params.items()
    argv = ["sweep", "--family", spelling, "--axis", axis, "--start", str(x),
            "--stop", str(x), "--points", "2", "--measures", "consonance_cf"]
    if fixed:
        argv += ["--fixed", ",".join(f"{k}={v}" for k, v in fixed)]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"# family = {spelling}"       # the name as given
    assert lines[-2:] == [f"{cli._fmt(x)},{cli._fmt(want)}"] * 2


@pytest.mark.parametrize("argv", [
    ["measure", "--measure", "consonance_cf", "--family", "heisenberg:0.5"],
    ["sweep", "--family", "heisenberg", "--axis", "a", "--start", "0", "--stop", "1",
     "--points", "2"],
])
def test_unknown_family_is_usage_error(capsys, argv):
    assert cli.main(argv) == 2
    assert "unknown state family 'heisenberg'" in capsys.readouterr().err


def test_spec_missing_a_required_parameter_names_it(capsys):
    assert cli.main(["measure", "--measure", "discord",
                     "--family", "two_param_2x3:alpha=0.1"]) == 2
    err = capsys.readouterr().err
    assert "gamma" in err and "missing 1 required positional argument" not in err


def test_one_parameter_check():
    fam = states.get_family("two_param_2x3")
    fam.check_params(["gamma", "alpha"])
    for names, message in ((["alpha", "beta", "gamma"], "no parameter 'beta'"),
                           (["alpha", "gamma", "alpha"], "'alpha' given twice"),
                           (["alpha"], "needs gamma")):
        with pytest.raises(states.FactorySpecError, match=message):
            fam.check_params(names)


# --- evaluate_measure against direct calls -------------------------------


def _ctx(name, **params):
    fam = states.get_family(name)
    return MeasureContext(states.make_family(name, **params), fam,
                          fam.resolve(**params))


def _value(measure, ctx):
    value, extras = evaluate_measure(measure, ctx)
    assert extras == {}
    return value


def _sums_and_general(ctx, rho):
    assert _value("nonlocal_sum", ctx) == coherence.nonlocal_sum(rho)
    assert _value("local_coherence", ctx) == coherence.local_coherence(rho)
    if rho.n_parties == 2:
        assert _value("negativity", ctx) == measures.negativity(rho)
    if rho.dims == (2, 2):
        assert _value("concurrence", ctx) == measures.concurrence_2x2(rho)


@pytest.mark.parametrize("a", [0.0, 0.2, 1.0 / 3.0, 0.75, 1.0])
def test_werner_measures_match_direct_calls(a):
    ctx = _ctx("werner", a=a)
    _sums_and_general(ctx, states.werner(a))
    cf = states.consonance_closed_form("werner", a=a)
    assert _value("consonance_cf", ctx) == cf
    assert _value("discord", ctx) == measures.discord_werner(a)
    c = measures.concurrence_werner(a)
    assert _value("eof", ctx) == measures.eof_from_concurrence(c)
    assert _value("c_minus_concurrence", ctx) == cf - c


@pytest.mark.parametrize("name", ["bell_like", "psi_like"])
@pytest.mark.parametrize("a2", [0.0, 0.3, 0.5, 0.9, 1.0])
def test_pair_measures_match_direct_calls(name, a2):
    ctx = _ctx(name, a2=a2)
    psi = states.make_family(name, a2=a2)
    _sums_and_general(ctx, density_from_pure(psi))
    a, b = math.sqrt(a2), math.sqrt(1.0 - a2)
    cf = states.consonance_closed_form(name, a2=a2)
    assert cf == 2.0 * a * b
    assert _value("consonance_cf", ctx) == cf
    assert _value("consonance_pure", ctx) == measures.consonance_pure_bipartite(psi)
    assert _value("discord", ctx) == measures.discord_bell_like(a, b)
    assert _value("eof", ctx) == measures.eof_from_concurrence(2.0 * a * b)
    assert _value("c_minus_concurrence", ctx) == 0.0


def test_pair_with_complex_amplitudes():
    ctx = _ctx("bell_like", a=0.6, b=0.8j)
    assert _value("consonance_cf", ctx) == 2.0 * 0.6 * 0.8
    assert _value("discord", ctx) == measures.discord_bell_like(0.6, 0.8j)


@pytest.mark.parametrize("alpha,gamma", [(0.0, 0.0), (0.1, 0.3), (0.2, 0.6),
                                         (0.3, 0.1), (0.5, 0.0)])
def test_qubit_qutrit_measures_match_direct_calls(alpha, gamma):
    ctx = _ctx("two_param_2x3", alpha=alpha, gamma=gamma)
    _sums_and_general(ctx, states.two_param_qubit_qutrit(alpha, gamma))
    assert _value("consonance_cf", ctx) == states.consonance_closed_form(
        "two_param_2x3", alpha=alpha, gamma=gamma)
    assert _value("discord", ctx) == measures.discord_2x3(alpha, gamma)
    with pytest.raises(ValueError):
        evaluate_measure("eof", ctx)


def test_pure_2x2_measures_match_direct_calls():
    amps = dict(a=0.5, b=0.5, c=0.5, d=-0.5)
    ctx = _ctx("pure_2x2", **amps)
    psi = states.pure_2x2(**amps)
    rho = density_from_pure(psi)
    _sums_and_general(ctx, rho)
    cf = states.consonance_closed_form("pure_2x2", **amps)
    assert _value("consonance_cf", ctx) == cf
    assert _value("consonance_pure", ctx) == measures.consonance_pure_bipartite(psi)
    assert _value("eof", ctx) == measures.eof_2x2(rho)
    assert _value("c_minus_concurrence", ctx) == cf - measures.concurrence_2x2(rho)
    with pytest.raises(ValueError, match="no closed-form discord"):
        evaluate_measure("discord", ctx)


@pytest.mark.parametrize("kind", ["phi+", "phi-", "psi+", "psi-"])
def test_bell_closed_forms_are_exact(kind):
    ctx = _ctx("bell", kind=kind)
    _sums_and_general(ctx, density_from_pure(states.bell(kind)))
    assert _value("consonance_cf", ctx) == 1.0
    assert _value("c_minus_concurrence", ctx) == 0.0
    assert _value("discord", ctx) == 1.0
    assert _value("eof", ctx) == 1.0


def test_bell_gap_through_the_cli(capsys):
    for measure, want in (("consonance_cf", "1.0"), ("c_minus_concurrence", "0.0")):
        assert cli.main(["measure", "--family", "bell:psi-", "--measure", measure]) == 0
        assert capsys.readouterr().out.strip() == want


@pytest.mark.parametrize("n", [3, 4])
def test_multiqubit_measures_match_direct_calls(n):
    ctx = _ctx("ghz", n=n)
    _sums_and_general(ctx, density_from_pure(states.ghz(n)))
    assert _value("consonance_cf", ctx) == 1.0
    ctx = _ctx("w", n=n)
    _sums_and_general(ctx, density_from_pure(states.w_state(n)))
    with pytest.raises(ValueError, match="no closed-form consonance"):
        evaluate_measure("consonance_cf", ctx)


def test_state_without_family():
    rho = states.random_density((2, 2), seed=3)
    ctx = MeasureContext(rho)
    _sums_and_general(ctx, rho)
    assert _value("eof", ctx) == measures.eof_2x2(rho)
    for measure in ("consonance_cf", "discord"):
        with pytest.raises(ValueError):
            evaluate_measure(measure, ctx)


# --- one build per row ---------------------------------------------------


def _counting(monkeypatch, module, attr):
    calls = []
    fn = getattr(module, attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, attr, counted)
    return calls


PAIR_MEASURES = ("consonance_cf", "consonance_pure", "discord", "concurrence", "eof",
                 "negativity", "nonlocal_sum", "local_coherence", "c_minus_concurrence")


@pytest.mark.parametrize("spec", [
    cli.SweepSpec("werner", "a", 0.0, 1.0, 7, ("consonance_cf", "discord", "concurrence",
                                                "eof", "negativity", "nonlocal_sum",
                                                "local_coherence", "c_minus_concurrence")),
    cli.SweepSpec("two_param_2x3", "gamma", 0.0, 0.6, 5,
                  ("consonance_cf", "discord", "negativity", "nonlocal_sum",
                   "local_coherence"), fixed=(("alpha", 0.2),)),
    cli.SweepSpec("bell_like", "a2", 0.0, 1.0, 6, PAIR_MEASURES),
])
def test_sweep_builds_each_row_once(monkeypatch, spec):
    made = _counting(monkeypatch, states, "make_family")
    profiles = _counting(monkeypatch, coherence, "profile")
    cli.run_sweep(spec, optimizer.OptimizerConfig(), 0)
    assert len(made) == spec.points
    assert len(profiles) == spec.points


def test_pure_family_sweep_forms_one_density_per_row(monkeypatch):
    spec = cli.SweepSpec("psi_like", "a2", 0.1, 0.9, 4, PAIR_MEASURES)
    outer = _counting(monkeypatch, cli, "density_from_pure")
    cli.run_sweep(spec, optimizer.OptimizerConfig(), 0)
    assert len(outer) == spec.points


def test_context_builds_lazily():
    ctx = _ctx("werner", a=0.5)
    assert "profile" not in vars(ctx)
    assert _value("discord", ctx) == measures.discord_werner(0.5)
    assert "profile" not in vars(ctx) and "density" not in vars(ctx)
    assert ctx.density is ctx.state
    assert ctx.profile is ctx.profile


# --- sweep parameters are checked when the spec is built -----------------


def test_sweep_spec_names_missing_parameters():
    with pytest.raises(ValueError, match="needs alpha"):
        cli.SweepSpec("two_param_2x3", "gamma", 0.0, 1.0, 3, ("discord",))
    with pytest.raises(ValueError, match="needs gamma"):
        cli.SweepSpec("two_param_2x3", "alpha", 0.0, 0.5, 3, ("discord",))
    # the fig4 recipe binds alpha to its axis
    assert cli.fig4_spec(5).bindings


def test_sweep_with_missing_parameter_is_usage_error(capsys):
    code = cli.main(["sweep", "--family", "two_param_2x3", "--axis", "gamma",
                     "--start", "0", "--stop", "1", "--points", "3",
                     "--measures", "discord"])
    err = capsys.readouterr().err
    assert code == 2
    assert "alpha" in err and "missing 1 required positional argument" not in err
