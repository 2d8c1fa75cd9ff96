"""Smoke test of the benchmark harness at its smallest size (one pass per run).

Not collected by the tier-1 run; invoke it directly:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402

END_TO_END = set(run.END_TO_END)


def bench(*args, cwd=ROOT):
    out = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                          *args], cwd=cwd, capture_output=True, text=True, timeout=300)
    return out.returncode, out.stdout, out.stderr


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_harness():
    import workloads
    spec = declared()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    code, stdout, stderr = bench("--workload", workload, "--seed", "1",
                                 "--seconds", "0.1", "--trace", "0")
    assert code == 0, stderr
    res = last_json(stdout)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in res["metrics"].values())
    for name in ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "fail_frac"):
        assert f"  {name}" in stdout


def test_traced_run_prints_every_per_layer_metric():
    code, stdout, stderr = bench("--workload", "opt_bipartite", "--seed", "1",
                                 "--seconds", "0.1", "--trace", "1")
    assert code == 0, stderr
    res = last_json(stdout)
    assert set(res["metrics"]) == {m["name"] for m in declared()["per_layer"]}
    m = {k: v["value"] for k, v in res["metrics"].items()}
    # one pass of 16 ops; every frame evaluation embeds both single-party layers
    assert m["unitary.embed.calls"] >= 2 * m["optimizer.evals_per_op"]
    assert 0.0 < m["optimizer.maxfev_frac"] <= 1.0
    assert m["measures.discord.us"] == 0.0


def test_counts_repeat_for_a_fixed_seed():
    reports = []
    for _ in range(2):
        code, _, stderr = bench("--workload", "opt_ghz3", "--seed", "3",
                                "--seconds", "0.1", "--trace", "0")
        assert code == 0, stderr
        reports.append(json.loads(
            (ROOT / "perfbench_out" / "opt_ghz3-seed3-trace0.json").read_text()))
    keys = ("ops", "evals", "solved_frac", "failed", "frames")
    first, second = ({k: r[k] for k in keys} for r in reports)
    assert first == second


def test_reference_digests_match_committed_results():
    import workloads
    fig3 = ROOT / "results" / "fig3.csv"
    fig2 = ROOT / "results" / "fig2.csv"
    if not (fig3.is_file() and fig2.is_file()):
        pytest.skip("results/ is not present")
    assert hashlib.sha256(fig3.read_bytes()).hexdigest() == workloads.FIG3_SHA256
    cols = workloads._columns(fig2.read_text(), workloads.FIG2_CF_COLUMNS)
    assert hashlib.sha256(cols.encode()).hexdigest() == workloads.FIG2_CF_SHA256


def test_oracle_check_catches_an_evaluator_with_no_feasible_sample(monkeypatch):
    import child
    import workloads
    from consonance import optimizer
    case = workloads.oracle_cases(1)[0]
    assert case.frame == "standard"
    [ok] = workloads.run_oracle(case, 1, child.OpClock())
    assert ok.solved and not ok.failed
    monkeypatch.setattr(optimizer, "oracle_consonance",
                        lambda *a, **k: optimizer.OracleResult(float("inf"), 0, 4))
    [bad] = workloads.run_oracle(case, 1, child.OpClock())
    assert bad.failed and not bad.solved


def test_sweep_rows_fail_when_rows_are_not_stamped(monkeypatch):
    import child
    import workloads
    from consonance import cli, states
    case = workloads.sweep_cases(1)[0]
    run_sweep = cli.run_sweep

    def extra_make_family(spec, config, seed):
        states.make_family(spec.family, **spec.params_at(spec.start))
        return run_sweep(spec, config, seed)

    monkeypatch.setattr(cli, "run_sweep", extra_make_family)
    rows = workloads.run_sweep_rows(case, 1, child.OpClock())
    assert len(rows) == case.spec.points
    assert all(r.failed and not r.solved for r in rows)
    assert "no longer stamp row starts" in rows[0].note


def test_scaling_uses_the_bursts_around_each_op():
    import calibrate
    log = calibrate.SpeedLog()
    log.groups = [[0.010, 0.030, 0.020], [0.040]]
    # median of the bursts before and after: 0.025
    assert log.scale(0) == pytest.approx(calibrate.REFERENCE_S / 0.025)
    log.measure(bursts=1)
    assert log.group == 2 and len(log.bursts()) == 5
    assert all(b > 0 for b in log.bursts())


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, stdout, _ = bench("--workload", "opt_bipartite", "--seed", "1",
                            "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert stdout == ""
