import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from consonance import cli, optimizer, states, unitary
from consonance.cli import SweepSpec, _opt_config_from, build_parser, main
from consonance.coherence import nonlocal_sum
from consonance.measures import discord_werner, eof_from_concurrence
from consonance.qstate import PureState, save_state, state_from_json, state_to_json
from test_acceptance import GHZ3_WITNESS
from test_optimizer import no_frames
from test_qstate import UNREADABLE

RESULTS = Path(__file__).resolve().parents[1] / "results"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- measure -------------------------------------------------------------


def test_measure_discord_werner(capsys):
    code, out, _ = run(capsys, "measure", "--measure", "discord",
                       "--family", "werner:0.5")
    assert code == 0
    assert float(out) == pytest.approx(discord_werner(0.5), abs=1e-15)


def test_measure_help_lists_every_measure(capsys):
    with pytest.raises(SystemExit):
        main(["measure", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    listed = text.split("--measure MEASURE ")[-1].split(" --json")[0].split(", ")
    assert listed == [*cli._SEARCH_MEASURES, *cli._MEASURES]
    assert "consonance" in listed


def test_measure_closed_form_consonance(capsys):
    code, out, _ = run(capsys, "measure", "--measure", "consonance_cf",
                       "--family", "two_param_2x3:alpha=0.1,gamma=0.3")
    assert code == 0
    beta = (1 - 0.2 - 0.3) / 3
    assert float(out) == pytest.approx(abs(beta - 0.3), abs=1e-12)


def test_measure_json_output(capsys):
    code, out, _ = run(capsys, "measure", "--measure", "concurrence",
                       "--family", "werner:0.8", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["measure"] == "concurrence"
    assert obj["family"] == "werner"
    assert obj["params"] == {"a": 0.8}
    assert obj["value"] == pytest.approx(0.7, abs=1e-10)


def test_measure_optimizer_backend(capsys):
    code, out, _ = run(capsys, "measure", "--measure", "consonance",
                       "--family", "werner:0.5", "--restarts", "2",
                       "--max-evals", "2000", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == pytest.approx(0.5, abs=1e-3)
    assert obj["feasible"] is True


def test_measure_warns_when_the_search_finds_no_feasible_frame(capsys):
    # W(3) has no zero-L single-party frame; its eigenframe is the one
    # evaluation, at S = 0 and L = 2
    argv = ("measure", "--measure", "consonance_opt", "--family", "w:3")
    warning = "warning: no feasible frame found (l_residual=2.000e+00)\n"
    assert run(capsys, *argv) == (0, "0.0\n", warning)
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (0, warning)
    obj = json.loads(out)
    assert (obj["value"], obj["feasible"]) == (0.0, False)
    assert obj["l_residual"] == pytest.approx(2.0, abs=1e-12)


def test_measure_eof_and_entropy_pair(capsys):
    code, out, _ = run(capsys, "measure", "--measure", "eof",
                       "--family", "bell_like:a2=0.8")
    assert code == 0
    assert float(out) == pytest.approx(eof_from_concurrence(0.8), abs=1e-12)


def test_measure_local_sums(capsys):
    code, out, _ = run(capsys, "measure", "--measure", "nonlocal_sum",
                       "--family", "werner:0.7")
    assert code == 0 and float(out) == pytest.approx(0.7, abs=1e-12)
    code, out, _ = run(capsys, "measure", "--measure", "local_coherence",
                       "--family", "ghz:3")
    assert code == 0 and float(out) == pytest.approx(0.0, abs=1e-12)


def test_measure_negativity_needs_two_parties(capsys):
    assert run(capsys, "measure", "--measure", "negativity", "--family", "ghz:3") == (
        2, "", "error: negativity here expects a bipartite state\n")


def test_measure_unknown_measure(capsys):
    code, _, err = run(capsys, "measure", "--measure", "sorcery",
                       "--family", "werner:0.5")
    assert code == 2
    assert "error" in err


def test_bad_family_parameter_is_invalid_state(capsys):
    code, _, err = run(capsys, "measure", "--measure", "consonance_cf",
                       "--family", "werner:1.5")
    assert code == 1
    assert "error" in err


def test_unknown_family_is_usage_error(capsys):
    code, _, err = run(capsys, "measure", "--measure", "consonance_cf",
                       "--family", "heisenberg:1")
    assert code == 2


def test_missing_source_is_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["measure", "--measure", "discord"])
    assert exc.value.code == 2


def test_measure_from_state_file(tmp_path, capsys):
    path = tmp_path / "w.json"
    save_state(states.werner(0.5), path)
    code, out, _ = run(capsys, "measure", "--measure", "nonlocal_sum",
                       "--state", str(path))
    assert code == 0
    assert float(out) == pytest.approx(0.5, abs=1e-12)


def test_closed_form_discord_of_a_state_file_needs_a_family(tmp_path, capsys):
    # it used to name "family None"
    path = tmp_path / "w.json"
    save_state(states.werner(0.5), path)
    code, out, err = run(capsys, "measure", "--measure", "discord", "--state", str(path))
    assert (code, out) == (2, "")
    assert "discord needs a --family state" in err


def test_state_flag_takes_a_file_only(capsys):
    # a spec goes through --family; --state never reads it as one
    code, out, err = run(capsys, "measure", "--measure", "nonlocal_sum",
                         "--state", "werner:0.25")
    assert (code, out) == (2, "")
    assert "werner:0.25" in err


@pytest.mark.parametrize("dims", [["2", 2.9], [2, 2.9], [2.0, 2]])
def test_state_file_with_non_integer_dims_is_usage_error(tmp_path, capsys, dims):
    obj = state_to_json(states.werner(0.5))
    obj["dims"] = dims
    path = tmp_path / "dims.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "measure", "--measure", "nonlocal_sum",
                         "--state", str(path))
    assert (code, out) == (2, "")
    assert "dimension must be an integer" in err


def test_missing_state_file(capsys):
    code, _, err = run(capsys, "measure", "--measure", "nonlocal_sum",
                       "--state", "no_such_state.json")
    assert code == 2


@pytest.mark.parametrize("raw", UNREADABLE.values(), ids=UNREADABLE)
def test_an_unreadable_file_fails_in_one_line(tmp_path, capsys, raw):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    code, out, err = run(capsys, "measure", "--measure", "nonlocal_sum",
                         "--state", str(path))
    assert (code, out, len(err.splitlines())) == (1, "", 1)
    assert err.startswith(f"error: {path}: not a JSON state file: ")
    code, out, err = run(capsys, "optimize", "--family", "werner:0.5", "--restarts", "1",
                         "--max-evals", "100", "--warm-start", str(path))
    assert (code, out, len(err.splitlines())) == (2, "", 1)
    assert err.startswith(f"error: {path}: not a JSON circuit file: ")


def test_a_directory_for_a_file_is_a_usage_error(tmp_path, capsys):
    code, out, err = run(capsys, "measure", "--measure", "nonlocal_sum",
                         "--state", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: [Errno 21] Is a directory: {str(tmp_path)!r}"]
    code, _, err = run(capsys, "optimize", "--family", "werner:0.5", "--restarts", "1",
                       "--max-evals", "100", "--report", str(tmp_path))
    assert code == 2
    assert err.splitlines() == [f"error: [Errno 21] Is a directory: {str(tmp_path)!r}"]


def test_no_validate_skips_physicality(tmp_path, capsys):
    obj = state_to_json(states.werner(0.5))
    # knock the trace off so strict loading rejects it
    obj["data"][0][0] = 0.01
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, _, _ = run(capsys, "measure", "--measure", "nonlocal_sum",
                     "--state", str(path))
    assert code == 1
    code, out, _ = run(capsys, "measure", "--measure", "nonlocal_sum",
                       "--state", str(path), "--no-validate")
    assert code == 0
    assert float(out) == pytest.approx(nonlocal_sum(state_from_json(obj, validate_state=False)),
                                       rel=1e-8)


@pytest.mark.parametrize("command", [("measure", "--measure", "nonlocal_sum"),
                                     ("measure", "--measure", "consonance_pure"),
                                     ("schmidt",)])
def test_no_validate_keeps_the_norm_check_of_a_pure_state(tmp_path, capsys, command):
    """The flag skips the loader's check only: a pure state is checked for
    norm again where it becomes |psi><psi| or a Schmidt form."""
    path = tmp_path / "long.json"
    path.write_text(json.dumps(state_to_json(
        PureState((2, 2), np.array([1.0, 0.0, 0.0, 1.0])))))
    code, _, err = run(capsys, *command, "--state", str(path))
    assert code == 1
    assert err.startswith(f"error: {path}: pure state is not normalized")
    code, out, err = run(capsys, *command, "--state", str(path), "--no-validate")
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: pure state is not normalized: residual 1.000e+00"]


# --- schmidt -------------------------------------------------------------


def test_schmidt_csv(capsys):
    code, out, _ = run(capsys, "schmidt", "--family", "bell-like:a2=0.8")
    assert code == 0
    assert out.splitlines() == ["k,coefficient",
                                "0,0.894427191",
                                "1,0.447213595"]


def test_schmidt_json(capsys):
    code, out, _ = run(capsys, "schmidt", "--family", "bell:phi+", "--json")
    assert code == 0
    coeffs = json.loads(out)["coefficients"]
    assert coeffs == pytest.approx([2 ** -0.5, 2 ** -0.5], abs=1e-12)


def test_schmidt_rejects_density(capsys):
    # a state of the wrong kind for the command is a usage error, as for
    # every other command
    code, _, err = run(capsys, "schmidt", "--family", "werner:0.5")
    assert code == 2
    assert err == "error: expected a PureState, got a DensityMatrix\n"
    code, _, err = run(capsys, "measure", "--measure", "consonance_pure",
                       "--family", "werner:0.5")
    assert code == 2
    assert err == "error: expected a PureState, got a DensityMatrix\n"


# --- classify ------------------------------------------------------------


def test_classify_bell_table(capsys):
    code, out, _ = run(capsys, "classify", "--family", "bell:phi+")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "row,col,row_parts,col_parts,class,modulus"
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 16
    classes = [r[4] for r in rows]
    assert classes.count("diagonal") == 4
    assert classes.count("local") == 8
    assert classes.count("nonlocal") == 4
    bright = [r for r in rows if float(r[5]) > 1e-12]
    assert sum(r[4] == "nonlocal" for r in bright) == 2
    assert sum(r[4] == "local" for r in bright) == 0
    assert sum(r[4] == "diagonal" for r in bright) == 2
    # multi-index rendering: composite index 3 is parties (1, 1)
    assert rows[3][:4] == ["0", "3", "0.0", "1.1"]


@pytest.mark.parametrize("command", [("classify",),
                                     ("measure", "--measure", "nonlocal_sum"),
                                     ("measure", "--measure", "local_coherence")],
                         ids=["classify", "nonlocal_sum", "local_coherence"])
def test_a_one_party_state_has_no_coherence_classes(tmp_path, capsys, command):
    path = tmp_path / "plus.json"
    save_state(PureState((2,), [math.sqrt(0.5), math.sqrt(0.5)]), path)
    assert run(capsys, *command, "--state", str(path)) == (
        2, "", "error: coherence classes need at least two parties, got dims (2,)\n")


def test_classify_qutrit_pair_size(capsys):
    code, out, _ = run(capsys, "classify", "--family",
                       "two_param_2x3:alpha=0.1,gamma=0.3")
    assert code == 0
    assert len(out.splitlines()) == 1 + 36


# --- remap ---------------------------------------------------------------


def test_remap_werner_to_stdout(capsys):
    code, out, _ = run(capsys, "remap", "--family", "werner:0.2")
    assert code == 0
    rho = state_from_json(json.loads(out))
    assert rho.dims == (2, 2)
    assert np.allclose(np.diag(rho.entries), [0.2, 0.4, 0.2, 0.2], atol=1e-12)
    assert nonlocal_sum(rho) < 1e-12


def test_remap_to_file(tmp_path, capsys):
    path = tmp_path / "remapped.json"
    code, _, _ = run(capsys, "remap", "--family", "werner:0.9",
                     "--out", str(path))
    assert code == 0
    rho = state_from_json(json.loads(path.read_text()))
    assert np.diag(rho.entries)[1] == pytest.approx(0.925, abs=1e-12)


def test_remap_dimension_mismatch(capsys):
    code, _, err = run(capsys, "remap", "--family", "ghz:3")
    assert code == 2


# --- sweep ---------------------------------------------------------------


def test_sweep_fig3_small(capsys):
    code, out, _ = run(capsys, "sweep", "--recipe", "fig3", "--points", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# recipe = fig3"
    assert lines[1] == "# family = werner"
    assert any("dissonance" in l for l in lines if l.startswith("#"))
    assert "# seed = 0" in lines
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "a,c_minus_concurrence"
    data = [l.split(",") for l in lines[lines.index(header) + 1:]]
    got = {row[0]: float(row[1]) for row in data}
    assert got["0"] == pytest.approx(0.0, abs=1e-12)
    assert got["0.25"] == pytest.approx(0.25, abs=1e-12)
    assert got["0.5"] == pytest.approx(0.25, abs=1e-12)
    assert got["1"] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("recipe", sorted(cli.RECIPES))
def test_each_fig_recipe_reproduces_its_committed_table_byte_for_byte(recipe):
    # in process, at the search budget the committed tables were made with
    config = optimizer.OptimizerConfig(restarts=16, max_evals=12000, seed=0)
    text = cli.run_sweep(cli.RECIPES[recipe](), config, 0)
    assert text.encode() == (RESULTS / f"{recipe}.csv").read_bytes()


def test_sweep_is_byte_identical(capsys):
    code, first, _ = run(capsys, "sweep", "--recipe", "fig3", "--points", "7")
    code, second, _ = run(capsys, "sweep", "--recipe", "fig3", "--points", "7")
    assert first == second


def test_sweep_fig2_columns_and_closed_forms(capsys):
    code, out, _ = run(capsys, "sweep", "--recipe", "fig2", "--points", "3",
                       "--restarts", "2", "--max-evals", "2000")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == ("a,consonance_cf,consonance_opt,consonance_opt_feasible,"
                        "discord,concurrence,eof")
    mid = lines[2].split(",")
    assert mid[0] == "0.5"
    assert mid[1] == "0.5"
    assert float(mid[2]) == pytest.approx(0.5, abs=1e-3)
    assert mid[3] == "true"
    assert mid[4] == "0.262483184"
    assert mid[5] == "0.25"
    assert mid[6] == "0.117618874"


def test_sweep_custom(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "werner", "--axis", "a",
                       "--start", "0", "--stop", "1", "--points", "3",
                       "--measures", "consonance_cf,negativity")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "a,consonance_cf,negativity"
    assert lines[1] == "0,0,0"
    assert lines[2] == "0.5,0.5,0.25"
    assert lines[3] == "1,1,1"


def test_sweep_normalizes_measure_names(capsys):
    # the feasible column used to go missing for a mixed-case search name
    code, out, _ = run(capsys, "sweep", "--family", "werner", "--axis", "a",
                       "--start", "0", "--stop", "1", "--points", "2",
                       "--restarts", "1", "--max-evals", "100",
                       "--measures", "Consonance_opt, DISCORD")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "a,consonance_opt,consonance_opt_feasible,discord"
    assert SweepSpec("werner", "a", 0.0, 1.0, 2, (" Discord",)).measures == ("discord",)


def test_sweep_rejects_an_unknown_measure_before_any_row(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(optimizer, "consonance", lambda *a, **k: calls.append(a))
    code, out, err = run(capsys, "sweep", "--family", "werner", "--axis", "a",
                         "--start", "0", "--stop", "1", "--points", "2",
                         "--measures", "consonance_opt,discrod")
    assert (code, out, calls) == (2, "", [])
    assert "unknown measure 'discrod'" in err


@pytest.mark.parametrize("name", ["discrod", "consonance-opt", "", " "])
def test_sweep_spec_rejects_an_unknown_measure(name):
    with pytest.raises(ValueError, match="unknown measure"):
        SweepSpec("werner", "a", 0.0, 1.0, 2, ("discord", name))


def test_sweep_weight_axis_reaches_closed_forms(capsys):
    # the a2 weight axis must feed the amplitude-based closed forms
    code, out, _ = run(capsys, "sweep", "--family", "bell_like",
                       "--axis", "a2", "--start", "0.2", "--stop", "0.8",
                       "--points", "3", "--measures", "discord,eof,consonance_cf")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[1] == "0.2,0.721928095,0.721928095,0.8"
    assert lines[2] == "0.5,1,1,1"


def test_sweep_fixed_parameters(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "two_param_2x3",
                       "--axis", "gamma", "--start", "0", "--stop", "0.2",
                       "--points", "2", "--fixed", "alpha=0.1",
                       "--measures", "negativity")
    assert code == 0
    assert "# fixed alpha = 0.1" in out.splitlines()


def test_sweep_along_the_party_count_takes_whole_values_only(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "ghz", "--axis", "n", "--start", "2",
                       "--stop", "4", "--points", "3", "--measures", "nonlocal_sum")
    assert code == 0
    assert out.splitlines()[-4:] == ["n,nonlocal_sum", "2,1", "3,1", "4,1"]
    code, out, err = run(capsys, "sweep", "--family", "w", "--axis", "n", "--start", "2",
                         "--stop", "3", "--points", "3", "--measures", "nonlocal_sum")
    assert (code, out) == (2, "")
    assert "n must be an integer, got 2.5" in err


def test_sweep_custom_needs_all_axis_flags(capsys):
    code, _, err = run(capsys, "sweep", "--family", "werner", "--axis", "a",
                       "--start", "0", "--stop", "1")
    assert code == 2
    assert "--points" in err


def test_sweep_bad_fixed_entry(capsys):
    code, _, err = run(capsys, "sweep", "--family", "werner", "--axis", "a",
                       "--start", "0", "--stop", "1", "--points", "2",
                       "--fixed", "oops")
    assert code == 2


def test_sweep_writes_file(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "sweep", "--recipe", "fig3", "--points", "4",
                       "--out", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text().startswith("# recipe = fig3")


# --- output files --------------------------------------------------------

FIG3_SMALL = ("sweep", "--recipe", "fig3", "--points", "4")
OPT_SMALL = ("optimize", "--family", "werner:0.5", "--restarts", "1", "--max-evals", "100")


@pytest.fixture
def work_calls(monkeypatch):
    """The searches and sweeps a command runs, recorded as they start."""
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(optimizer, "consonance", spy("consonance", optimizer.consonance))
    monkeypatch.setattr(cli, "run_sweep", spy("run_sweep", cli.run_sweep))
    return calls


@pytest.mark.parametrize("command", [OPT_SMALL + ("--report",), FIG3_SMALL + ("--out",),
                                     ("remap", "--family", "werner:0.5", "--out")])
@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_an_unwritable_output_fails_before_the_work(tmp_path, capsys, work_calls,
                                                    command, where):
    path = tmp_path if where == "directory" else tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, *command, str(path))
    assert (code, out, work_calls) == (2, "", [])
    assert err.startswith("error: [Errno ")
    assert sorted(tmp_path.iterdir()) == []


@pytest.mark.skipif(hasattr(os, "geteuid") and os.geteuid() == 0,
                    reason="root writes read-only files")
@pytest.mark.parametrize("command", [OPT_SMALL + ("--report",), FIG3_SMALL + ("--out",)])
def test_a_read_only_output_fails_before_the_work(tmp_path, capsys, work_calls, command):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    path.chmod(0o444)
    code, out, err = run(capsys, *command, str(path))
    assert (code, out, work_calls) == (2, "", [])
    assert "Permission denied" in err
    assert path.read_text() == "old\n"


@pytest.mark.parametrize("command, target", [(OPT_SMALL + ("--report",), (optimizer, "consonance")),
                                             (FIG3_SMALL + ("--out",), (cli, "run_sweep"))])
def test_a_failed_command_leaves_its_output_as_it_was(tmp_path, capsys, monkeypatch,
                                                       command, target):
    def fail(*args, **kwargs):
        raise ValueError("the work failed")

    monkeypatch.setattr(*target, fail)
    old = tmp_path / "old.txt"
    old.write_text("old\n")
    for path in (old, tmp_path / "new.txt"):
        code, out, err = run(capsys, *command, str(path))
        assert (code, out, err) == (2, "", "error: the work failed\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.txt"]
    assert old.read_text() == "old\n"
    # a state that fails validation after the claim leaves nothing behind too
    code, _, _ = run(capsys, "remap", "--family", "ghz:3", "--out", str(tmp_path / "new.txt"))
    assert code == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.txt"]


def test_an_output_file_holds_exactly_the_text(tmp_path, capsys):
    # a longer file in the way is cut to the new text
    path = tmp_path / "out.txt"
    for command, printed in [(FIG3_SMALL + ("--out",), FIG3_SMALL),
                             (OPT_SMALL + ("--report",), OPT_SMALL)]:
        path.write_text("x" * 100_000)
        assert run(capsys, *command, str(path))[0] == 0
        code, out, _ = run(capsys, *printed)
        assert code == 0
        assert path.read_text() == out
    path.write_text("x" * 100_000)
    assert run(capsys, "remap", "--family", "werner:0.9", "--out", str(path))[0] == 0
    save_state(states.tps_remap(states.werner(0.9), states.werner_f_prime()),
               tmp_path / "saved.json")
    assert path.read_bytes() == (tmp_path / "saved.json").read_bytes()


@pytest.mark.parametrize("stdout", ["pipe", "file"])
def test_sweep_out_dev_stdout(tmp_path, stdout):
    if not os.path.exists("/dev/stdout"):
        pytest.skip("no /dev/stdout")
    argv = [sys.executable, "-m", "consonance.cli", *FIG3_SMALL]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    plain = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    sink = tmp_path / "stdout.csv"
    with open(sink, "w") as fh:
        got = subprocess.run(argv + ["--out", "/dev/stdout"], env=env, text=True, check=True,
                             stdout=subprocess.PIPE if stdout == "pipe" else fh).stdout
    assert (got if stdout == "pipe" else sink.read_text()) == plain.stdout


@pytest.mark.parametrize("points", ["0", "1"])
def test_recipe_sweep_rejects_too_few_points(capsys, points):
    # --points 0 used to fall back to the recipe's default grid
    code, out, err = run(capsys, "sweep", "--recipe", "fig3", "--points", points)
    assert (code, out) == (2, "")
    assert f"at least 2 grid points, got {points}" in err


@pytest.mark.parametrize("flag,value", [
    ("--family", "ghz"), ("--axis", "n"), ("--start", "0"), ("--stop", "1"),
    ("--fixed", "x=1"), ("--measures", "discord")])
def test_recipe_sweep_rejects_custom_sweep_flags(capsys, flag, value):
    # the recipe table used to print, with the flag ignored
    code, out, err = run(capsys, "sweep", "--recipe", "fig3", "--points", "3",
                         flag, value)
    assert (code, out) == (2, "")
    assert f"{flag} does not go with --recipe" in err


def test_recipe_sweep_without_points_keeps_the_recipe_grid(capsys):
    code, out, _ = run(capsys, "sweep", "--recipe", "fig3")
    assert code == 0
    assert len([l for l in out.splitlines() if not l.startswith("#")]) == 1 + 301


@pytest.mark.parametrize("points", [3.0, True, "3", np.float64(3.0)],
                         ids=["float", "bool", "str", "numpy_float"])
def test_sweep_spec_points_must_be_an_integer(points):
    with pytest.raises(ValueError, match="points must be an integer"):
        SweepSpec("werner", "a", 0.0, 1.0, points, ("consonance_cf",))


def test_sweep_spec_stores_numpy_integer_points_as_int():
    spec = SweepSpec("werner", "a", 0.0, 1.0, np.int64(3), ("consonance_cf",))
    assert type(spec.points) is int
    assert spec.grid().tolist() == [0.0, 0.5, 1.0]


def test_seed_flag_reaches_the_outputs(capsys):
    code, out, _ = run(capsys, "sweep", "--recipe", "fig3", "--points", "3",
                       "--seed", "99")
    assert code == 0
    assert "# seed = 99" in out.splitlines()
    code, out, _ = run(capsys, "optimize", "--family", "werner:0.3",
                       "--restarts", "2", "--max-evals", "2000", "--seed", "17")
    assert code == 0
    obj = json.loads(out)
    assert obj["config"]["seed"] == 17
    assert "seed" not in obj    # the report records its seed once, in its config
    code, out, err = run(capsys, "sweep", "--recipe", "fig3", "--points", "3",
                         "--seed", "-3")
    assert (code, out) == (2, "")
    assert "got -3" in err


# --- optimize ------------------------------------------------------------


def test_optimize_rejects_a_negative_seed(capsys):
    code, out, err = run(capsys, "optimize", "--family", "werner:0.5", "--seed", "-1",
                         "--restarts", "1", "--max-evals", "100")
    assert (code, out) == (2, "")
    assert "seed must lie in [0, 2**128), got -1" in err
    code, out, err = run(capsys, "optimize", "--family", "werner:0.5", "--seed", "-3",
                         "--restarts", "1", "--max-evals", "100")
    assert (code, out) == (2, "")
    assert "got -3" in err


def test_optimize_report_round_trip(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "optimize", "--family", "werner:0.5",
                       "--restarts", "2", "--max-evals", "2000",
                       "--report", str(path))
    assert code == 0
    obj = json.loads(out)
    assert obj["config"]["restarts"] == 2
    assert obj["config"]["seed"] == 0
    assert obj["feasible"] is True
    assert obj["value"] == pytest.approx(0.5, abs=1e-3)
    assert json.loads(path.read_text()) == obj
    # replay the archived circuit through the public pipeline
    circuit = unitary.circuit_from_json(obj["circuit"])
    replayed = nonlocal_sum(unitary.apply(circuit, states.werner(0.5)))
    assert replayed == pytest.approx(obj["value"], abs=1e-9)


def test_a_two_qubit_single_party_report_is_one_evaluation_at_s_one_half(tmp_path, capsys):
    # decided in closed form: one evaluation of the Werner(0.5) frame, read
    # from the report file as plain JSON; the identity frame's S sums the
    # singlet's two coherences, 0.4999999999999999 in floats
    path = tmp_path / "werner.json"
    code, _, _ = run(capsys, "optimize", "--family", "werner:0.5", "--report", str(path))
    assert code == 0
    r = json.loads(path.read_text())
    assert r["n_evals"] == 1 and abs(r["value"] - 0.5) <= 1e-12, r


def test_optimize_nonglobal_on_two_parties_is_decided_in_one_evaluation(capsys):
    # a pair layer is global on two parties, so nonglobal runs the
    # single_party circuit, which the two-qubit rule decides in closed form
    code, out, _ = run(capsys, "optimize", "--family", "werner:0.5", "--preset", "nonglobal")
    assert code == 0
    obj = json.loads(out)
    assert (obj["preset"], obj["n_evals"]) == ("nonglobal:depth=3", 1)
    assert [layer["support"] for layer in obj["circuit"]["layers"]] == [[0], [1]]
    assert abs(obj["value"] - 0.5) <= 1e-12


def test_optimize_rejects_a_warm_start_on_other_supports(tmp_path, capsys):
    # the same 32 parameters as the preset's (0, 1), (0, 2), on other parties
    layers = [{"support": s, "theta": [0.1] * (4 ** len(s))}
              for s in ([1, 2], [0, 1])]
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"layers": layers}))
    code, out, err = run(capsys, "optimize", "--family", "ghz:3",
                         "--preset", "nonglobal", "--restarts", "1",
                         "--max-evals", "100", "--warm-start", str(path))
    assert (code, out) == (2, "")
    assert "[((1, 2), 4), ((0, 1), 4)]" in err
    assert "[((0, 1), 4), ((0, 2), 4)]" in err


def test_optimize_rejects_a_warm_start_of_other_layer_dimensions(tmp_path, capsys,
                                                                  monkeypatch):
    # the preset's supports, the (0, 1) layer cut to 4 parameters instead of 16
    layers = [{"support": s, "theta": [0.1] * n}
              for s, n in (([0, 1], 4), ([0, 2], 16))]
    path = tmp_path / "cut.json"
    path.write_text(json.dumps({"layers": layers}))
    no_frames(monkeypatch)
    code, out, err = run(capsys, "optimize", "--family", "ghz:3",
                         "--preset", "nonglobal", "--restarts", "1",
                         "--max-evals", "100", "--warm-start", str(path))
    assert (code, out) == (2, "")
    assert "[((0, 1), 2), ((0, 2), 4)]" in err
    assert "[((0, 1), 4), ((0, 2), 4)]" in err


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_optimize_rejects_a_non_finite_warm_start(tmp_path, capsys, monkeypatch, bad):
    # Python's json reads these literals as floats
    path = tmp_path / "bad.json"
    path.write_text('{"layers": [{"support": [0], "theta": [0, %s, 0, 0]}, '
                    '{"support": [1], "theta": [0, 0, 0, 0]}]}' % bad)
    no_frames(monkeypatch)
    code, out, err = run(capsys, "optimize", "--family", "werner:0.5",
                         "--restarts", "1", "--max-evals", "100",
                         "--warm-start", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: circuit layer 0: theta contains non-finite entries\n"


@pytest.mark.parametrize("obj", [{"layers": 5},
                                 {"layers": [{"support": 1, "theta": [0.0] * 4}]},
                                 {"layers": [{"support": [0.9], "theta": [0.0] * 4},
                                             {"support": [1], "theta": [0.0] * 4}]}])
def test_optimize_rejects_a_malformed_warm_start(tmp_path, capsys, obj):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "optimize", "--family", "werner:0.5",
                         "--restarts", "1", "--max-evals", "100",
                         "--warm-start", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("text, why", [
    ("not json", "not a JSON circuit file: Expecting value: line 1 column 1 (char 0)"),
    ('{"layers": [{"support": [0], "theta": [0, "0.5", 0, 0]}]}',
     "circuit layer 0: theta entry 1 is not a number: '0.5'"),
    ('{"layers": [{"support": [0], "theta": [0, 0, true, 0]}]}',
     "circuit layer 0: theta entry 2 is not a number: True"),
    ('{"layers": [{"support": [0], "theta": [1%s, 0, 0, 0]}]}' % ("0" * 400),
     "circuit layer 0: theta entry 0 is too large for a float"),
    ('{"layers": [{"support": [0], "theta": [0, 0, 0, 0]}, '
     '{"support": [1], "theta": [0, NaN, 0, 0]}]}',
     "circuit layer 1: theta contains non-finite entries"),
    ('{"layers": [{"support": [0], "theta": [0, 0, 0]}]}',
     "circuit layer 0: theta length 3 is not a perfect square"),
    ('{"layers": [', "not a JSON circuit file: Expecting value: line 1 column 13 (char 12)"),
], ids=["not-json", "string", "bool", "huge", "nan-in-layer-1", "length", "truncated"])
def test_optimize_names_the_fault_of_a_warm_start_file(tmp_path, capsys, text, why):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, "optimize", "--family", "werner:0.5",
                         "--restarts", "1", "--max-evals", "100",
                         "--warm-start", str(path))
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: {path}: {why}"]


# every fault of a state file names the file; a fault of its form or its
# physics exits 1, a bad dimension 2, as elsewhere
_PURE = '{"dims": %s, "kind": "pure", "data": %s}'


@pytest.mark.parametrize("text, code, why", [
    ('{"dims": [2, 2], ', 1, "not a JSON state file: Expecting property name enclosed "
                             "in double quotes: line 1 column 18 (char 17)"),
    (_PURE % ("[2, 2]", "[[1, 0]]"), 1, "pure state over dims (2, 2) needs 4 amplitudes, got 1"),
    (_PURE % ("[2, 2]", "[[1, 0], [1, 0], [0, 0], [0, 0]]"), 1,
     "pure state is not normalized: residual 1.000e+00"),
    (_PURE % ("[1, 2]", "[[1, 0], [0, 0]]"), 2,
     "every subsystem dimension must be >= 2, got (1, 2)"),
    ("[]", 1, "state JSON must be an object"),
    ('{"dims": [2, 2], "kind": "pure"}', 1, "state JSON is missing the 'data' field"),
    (_PURE % ("[2, 2]", "{}"), 1, "state JSON data must be a list of [re, im] pairs"),
    ('{"dims": [2, 2], "kind": "density", "data": [[1, 0]]}', 1,
     "density matrix over dims (2, 2) needs 16 entries, got 1"),
], ids=["truncated", "length", "norm", "dims", "not-an-object", "missing-field",
        "data-not-a-list", "density-length"])
def test_measure_names_the_fault_of_a_state_file(tmp_path, capsys, text, code, why):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run(capsys, "measure", "--measure", "nonlocal_sum", "--state", str(path)) == (
        code, "", f"error: {path}: {why}\n")


def test_optimize_with_warm_start_circuit(capsys):
    code, out, _ = run(capsys, "optimize", "--family", "ghz:3",
                       "--preset", "nonglobal", "--restarts", "2",
                       "--max-evals", "2000", "--warm-start", str(GHZ3_WITNESS))
    assert code == 0
    obj = json.loads(out)
    assert obj["feasible"] is True
    assert obj["value"] <= 1e-4


# --- search config from flags --------------------------------------------


def _parsed_config(*argv):
    return _opt_config_from(build_parser().parse_args(list(argv)))


def test_sweep_config_defaults_to_eight_restarts():
    config = _parsed_config("sweep", "--recipe", "fig3")
    assert config.restarts == 8
    assert config.max_evals == 20000
    assert _parsed_config("sweep", "--recipe", "fig3", "--restarts", "3").restarts == 3


def test_measure_config_keeps_the_config_default():
    config = _parsed_config("measure", "--measure", "consonance_opt",
                            "--family", "werner:0.5")
    assert config.restarts == 32
    assert config.max_evals == 20000


@pytest.mark.parametrize("family", ["bell_like", "psi_like"])
def test_pair_family_without_a_is_usage_error(capsys, family):
    code, _, err = run(capsys, "measure", "--measure", "discord",
                       "--family", f"{family}:b=0.6")
    assert code == 2
    assert "parameter a (or a2) is required" in err
    code, _, err = run(capsys, "sweep", "--family", family, "--axis", "b",
                       "--start", "0", "--stop", "1", "--points", "3",
                       "--measures", "discord")
    assert code == 2
    assert "parameter a (or a2) is required" in err


def test_pair_family_out_of_range_stays_invalid_state(capsys):
    code, _, _ = run(capsys, "measure", "--measure", "discord",
                     "--family", "bell_like:a2=1.5")
    assert code == 1


@pytest.mark.parametrize("spec", ["bell_like:a=inf", "bell_like:a=-inf", "bell_like:a=1e999",
                                  "psi_like:a=inf,b=0", "pure_2x2:a=inf,b=0,c=0,d=0",
                                  "pure_2x2:a=1,b=0,c=0,d=1e999"])
def test_an_infinite_amplitude_is_an_invalid_state_however_it_is_written(capsys, spec):
    # only a trailing i is the imaginary unit, so inf parses as a number
    code, out, err = run(capsys, "measure", "--measure", "discord", "--family", spec)
    assert (code, out) == (1, "")
    assert err == "error: amplitudes are not normalized: residual inf\n"


@pytest.mark.parametrize("spec, want", [("bell_like:a=1.00000000004,b=0", 0.0),
                                        ("psi_like:a=1.00000000004,b=0", 0.0),
                                        ("bell_like:a=0.70710678122,b=0.70710678122", 1.0)])
def test_every_accepted_pair_has_a_discord_and_an_eof(capsys, spec, want):
    """The pair's norm allows |a|^2 + |b|^2 up to 1 + 1e-10, past the unit
    interval's 1e-12 slack; the discord and EoF of such a pair are the
    values at the clamped weight."""
    for measure in ("discord", "eof"):
        code, out, err = run(capsys, "measure", "--measure", measure, "--family", spec)
        assert (code, err) == (0, "")
        assert float(out) == want


@pytest.mark.parametrize("bounds", [("0", "inf"), ("0", "-inf"), ("0", "nan"),
                                    ("inf", "1"), ("-inf", "1"), ("nan", "1")])
def test_sweep_rejects_non_finite_bounds_before_any_row(capsys, bounds):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "sweep", "--family", "werner", "--axis", "a",
                             f"--start={bounds[0]}", f"--stop={bounds[1]}", "--points", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error: sweep bounds must be finite")


@pytest.mark.parametrize("start, stop", [(0.0, math.inf), (0.0, -math.inf), (0.0, math.nan),
                                         (math.inf, 1.0), (-math.inf, 1.0), (math.nan, 1.0)])
def test_sweep_spec_rejects_non_finite_bounds(start, stop):
    with pytest.raises(ValueError, match="sweep bounds must be finite"):
        SweepSpec("werner", "a", start, stop, 3, ("discord",))


@pytest.mark.parametrize("entry", ['["a", 0]', "[1, null]", "[true, 0]"])
def test_state_file_entries_must_be_numbers(tmp_path, capsys, entry):
    path = tmp_path / "bad.json"
    path.write_text('{"dims": [2, 2], "kind": "pure", "data": [%s, [0, 0], [0, 0], [0, 0]]}'
                    % entry)
    code, out, err = run(capsys, "measure", "--measure", "nonlocal_sum", "--state", str(path))
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: {path}: state JSON data entry 0 is not an "
                                f"[re, im] pair of numbers: {json.loads(entry)!r}"]


def test_state_file_entry_too_large_for_a_float(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"dims": [2, 2], "kind": "pure", "data": [[1%s, 0], [0, 0], [0, 0], [0, 0]]}'
                    % ("0" * 400))
    code, out, err = run(capsys, "measure", "--measure", "nonlocal_sum", "--state", str(path))
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: {path}: state JSON data entry 0 is too large "
                                f"for a float"]


# --- the README's examples -----------------------------------------------


def _readme_cli_examples() -> list[list[str]]:
    """Each ``consonance ...`` line of the README's CLI block, with its
    backslash continuations joined, as an argv without the program name."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("consonance ")]


def test_readme_cli_examples_parse():
    examples = _readme_cli_examples()
    assert len(examples) >= 8
    parser = build_parser()
    for argv in examples:
        assert callable(parser.parse_args(argv).func), argv
