"""Rules about where code lives, read from the package's source text,
and rules the committed reports and circuits keep, read from them as
plain JSON.

Each source test states one rule as a search over the source files, so a
change that breaks the rule fails here with the offending lines.  A span
is what ``sed -n '/^START/,/^def /p'`` prints: from the first line that
starts with START through the next line that starts a top-level
``def``."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "consonance"


def _lines(*names: str) -> list[tuple[str, str]]:
    """(file: line number, line) of every line of the named modules, or of
    every module of the package where none is named."""
    paths = ([PACKAGE / name for name in names] if names
             else sorted(PACKAGE.rglob("*.py")))
    return [(f"{path.name}:{k}", line) for path in paths
            for k, line in enumerate(path.read_text().splitlines(), 1)]


def _matching(pattern: str, *names: str) -> list[tuple[str, str]]:
    return [(at, line) for at, line in _lines(*names) if re.search(pattern, line)]


def _span(start: str, name: str) -> str:
    lines = (PACKAGE / name).read_text().splitlines()
    first = next(k for k, line in enumerate(lines) if re.match(start, line))
    last = next((k for k in range(first + 1, len(lines)) if lines[k].startswith("def ")),
                len(lines) - 1)
    return "\n".join(lines[first:last + 1])


def test_the_package_uses_no_private_numpy_api():
    assert _matching(r"_umath_linalg|(numpy|np)\.linalg\._|(numpy|np)\._core") == []


def test_frame_builder_is_the_one_embed():
    # _embed_index is called at its definition and in FrameBuilder alone
    calls = [(at, line) for at, line in _matching(r"_embed_index\(")
             if "def _embed_index(" not in line]
    assert len(calls) == 1, calls
    assert "_embed_index(" in _span(r"class FrameBuilder", "unitary.py")


def test_a_layer_is_re_charted_in_times_alone():
    # build_unitary and params_for_unitary are called at their definitions
    # and in unitary._times alone
    calls = [(at, line) for at, line in _matching(r"build_unitary\(|params_for_unitary\(")
             if not re.search(r"def (build_unitary|params_for_unitary)\(", line)]
    assert len(calls) == 1, calls
    assert "params_for_unitary(build_unitary(" in _span(r"def _times", "unitary.py")


def test_coherence_is_the_one_reporter_of_a_class_sum():
    # the search and the frame code sum no magnitudes of their own
    assert _matching(r"fsum", "optimizer.py", "unitary.py") == []


def test_a_preset_is_decided_in_preset_alone():
    # optimizer and cli build no circuit and check no depth
    assert _matching(r"class Preset|depth must be|LocalCircuit\(|_checked_layer\(",
                     "optimizer.py", "cli.py") == []


def test_every_circuit_shares_one_single_party_decision():
    # both preset kinds take their frame from one call in Preset.search_frame
    assert len(_matching(r"single_party\(", "unitary.py")) == 1


def test_cli_decides_nothing_about_a_warm_start():
    # the search checks a warm start, in unitary.SearchFrame
    assert _matching(r"\.theta\b|layer_thetas|\.supports\(", "cli.py") == []


def test_optimizer_reads_no_layer_list():
    # a search's layers are read and checked in unitary.SearchFrame alone
    assert _matching(r"\.template|\.layers|_layer_shape|circuit\.shape|layer_thetas",
                     "optimizer.py") == []


def test_the_package_never_calls_np_cross():
    # the single-party decision writes its cross products out in one stack
    assert _matching(r"np\.cross\(") == []


def test_the_package_reads_no_environment_variable():
    assert _matching(r"os\.environ|getenv") == []


def test_measures_does_not_import_states():
    # so the package has no import cycle
    assert _matching(r"from \.states|import states", "measures.py") == []


def test_philox_streams_are_built_in_qstate_alone():
    # so every random draw of the package is keyed and checked in one place
    assert [(at, line) for at, line in _matching(r"Philox\(")
            if not at.startswith("qstate.py:")] == []


# the modules that read a state's kind and physicality from qstate
KIND_FREE = ("cli.py", "states.py", "optimizer.py", "measures.py", "coherence.py")


def test_a_states_kind_is_decided_in_qstate_alone():
    # these modules never test for PureState or DensityMatrix
    assert _matching(r"isinstance\([^)]*(PureState|DensityMatrix)", *KIND_FREE) == []


def test_physicality_is_decided_in_qstate_alone():
    # these modules never call validate or name the verdict assert_valid records
    assert _matching(r"\bvalidate\(|_physical", *KIND_FREE, "unitary.py") == []


def test_the_tolerances_live_in_qstate_beside_their_checks():
    assert _matching(r"\b1e-(8|10|12)\b",
                     "states.py", "measures.py", "unitary.py", "decide.py") == []


def test_the_single_party_decision_lives_in_decide_alone():
    # unitary and optimizer name none of its helpers
    assert _matching(r"_jacobi_rotation|_least_turn|_pair_turn|_pauli_traces|_projected",
                     "unitary.py", "optimizer.py") == []


def test_a_circuits_shape_is_spelled_once():
    # as LocalCircuit.shape, stored once, in LocalCircuit.__post_init__;
    # no module reads a layer's support, dimension or theta off a layer
    # object or a list of them
    assert len(_matching(r'__setattr__\(self, "shape"')) == 1
    assert "__setattr__(self, \"shape\"" in _span(r"class LocalCircuit", "unitary.py")
    assert _matching(r"\.(support|layers)\b|\.params\.(dim|theta)\b") == []


def test_the_shared_frame_builder_builds_no_circuit_layer():
    # it is the constructor behind a cache: it builds no circuit and checks
    # no layer of one
    span = _span(r"(def )?_shared_builder\b", "unitary.py")
    assert not re.search(r"LocalCircuit\(|_checked_layer\(", span), span


def test_a_restarts_stages_run_through_one_step():
    # the polish included, so _search_one calls _nelder_mead once
    body = _span(r"def _search_one", "optimizer.py").splitlines()
    assert sum("_nelder_mead(" in line for line in body) == 1


def test_importing_the_package_and_its_cli_loads_no_scipy_linalg():
    # scipy.linalg is imported where a layer is re-charted, on first use
    code = "import sys, consonance, consonance.cli; print('scipy.linalg' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def _reports(pattern: str = "*") -> dict[str, dict]:
    """The committed reports of results/multipartite/ matching ``pattern``,
    by file name, read as plain JSON."""
    paths = sorted((ROOT / "results" / "multipartite").glob(f"{pattern}.json"))
    return {path.name: json.loads(path.read_text()) for path in paths}


def test_every_committed_nonglobal_circuit_builds_no_absorbed_layer_and_holds_every_party():
    # the nonglobal reports and the witnesses their runs start from are all
    # on three qubits; a layer inside the next one would add nothing, since
    # U_next (U_k (x) 1) ranges over the same unitaries as U_next alone
    circuits = {name: r["circuit"] for name, r in _reports("*nonglobal*").items()}
    for name in ("ghz3_witness.json", "w3_witness.json"):
        circuits[name] = json.loads((ROOT / "results" / name).read_text())
    assert len(circuits) == 4, sorted(circuits)
    for name, circuit in circuits.items():
        supports = [set(layer["support"]) for layer in circuit["layers"]]
        assert [len(layer["theta"]) for layer in circuit["layers"]] == \
            [4 ** len(s) for s in supports], name
        assert not any(s <= t for s, t in zip(supports, supports[1:])), name
        assert set().union(*supports) == {0, 1, 2}, name


def test_each_committed_report_agrees_with_itself():
    reports = _reports()
    assert reports
    for name, r in reports.items():
        assert r["feasible"] == (r["l_residual"] <= r["config"]["eps_l"]), name
        assert r["preset"] == r["circuit"]["preset"], name
        assert r["n_evals"] == sum(x["evals"] for x in r["per_restart"]), name


def test_every_party_of_the_committed_single_party_reports_keeps_its_basis():
    # no marginal is rotated, so each circuit keeps its start's zeros on
    # every layer's diagonal
    reports = _reports("*single_party*")
    assert reports
    for name, r in reports.items():
        for k, layer in enumerate(r["circuit"]["layers"]):
            d = math.isqrt(len(layer["theta"]))
            assert not any(x != 0 for x in layer["theta"][:d]), (name, k)


def test_the_committed_w3_single_party_report_is_its_eigenframe():
    # one evaluation, at L = 2
    r = _reports("w__single_party")["w__single_party.json"]
    assert r["n_evals"] == 1 and abs(r["l_residual"] - 2.0) <= 1e-12, r


def test_the_committed_ghz3_single_party_report_is_its_own_frame():
    # one evaluation, at L = 0 and S = 1
    r = _reports("ghz__single_party")["ghz__single_party.json"]
    assert r["n_evals"] == 1 and r["l_residual"] <= 1e-12, r
    assert abs(r["value"] - 1.0) <= 1e-12, r
