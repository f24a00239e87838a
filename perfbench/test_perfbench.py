"""The benchmark's own tests.  Run with: python3 -m pytest perfbench

The smoke runs use the default seed, so every answer is also checked against
the stored reference answers.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(HERE / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_prints_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "0", "--seconds", "5",
                     "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    report = json.loads(proc.stdout.strip().splitlines()[-2])
    assert report["meta"]["seed"] == 0 and report["meta"]["rational_backend"]
    if trace == "1":
        assert report["reach_violations"] == []


def test_corrupted_reference_counts_as_failure(tmp_path, monkeypatch, capsys):
    refs = tmp_path / "refs"
    shutil.copytree(HERE / "references", refs)
    first = workloads.WORKLOADS["small-batch"].pool(workloads.DEFAULT_SEED, smoke=True)[0]
    digest = workloads.key_digest(workloads.problem_key(first))
    path = refs / "small-batch.json"
    table = json.loads(path.read_text())
    index, routes = table[digest]
    table[digest] = [str(int(index) + 1), routes]
    path.write_text(json.dumps(table))
    monkeypatch.setattr(run, "REFERENCES", refs)
    assert run.main(["--workload", "small-batch", "--seed", "0", "--seconds", "5",
                     "--trace", "0", "--smoke"]) == 0
    stdout = capsys.readouterr().out
    result = last_json(stdout)
    assert result["failed"] == 1 and result["correct"] is False
    report = json.loads(stdout.strip().splitlines()[-2])
    assert report["failed_frac"] == 1 / result["attempted"]
    assert "reference says" in report["failures"][0]["reason"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_closed_forms():
    bezout = {"group": {"gl": [3]}, "face": {"blocks": [[1, 2]]}, "mode": "general",
              "lambda_H": {"offset": [0, 0], "basis": [[1, 0]]},
              "supports": [[[0, 0, 0], [2, 0, 0]], [[0, 0, 0], [1, 0, 0], [3, 0, 0]],
                           [[0, 0, 0], [1, 0, 0]]]}
    assert workloads.small_batch_closed_form(bezout) == 6
    flag = {"group": {"gl": [3]}, "mode": "general",
            "lambda_H": {"offset": [0, 0, 0], "basis": []},
            "supports": [[[2, 1, 0]]] * 3}
    assert workloads.small_batch_closed_form(flag) == 6
    # the polarized form is trilinear: doubling one argument doubles the value
    lam, mu, nu = (4, 1, 0), (3, 3, 1), (2, 0, 0)
    f = workloads._flag3_degree
    base = workloads._polarized(f, [lam, mu, nu])
    assert workloads._polarized(f, [tuple(2 * x for x in lam), mu, nu]) == 2 * base
    assert workloads._polarized(f, [lam, lam, lam]) == Fraction(f(lam))


def test_hilbert_finite_difference_catches_a_wrong_value():
    wl = workloads.WORKLOADS["hilbert-series"]
    calls = wl.pool(workloads.DEFAULT_SEED, smoke=True)
    prepared = wl.prepare(calls, None)
    answers = [wl.execute(item) for item in prepared]
    assert not any(workloads.hilbert_series_check(calls, answers))
    answers[3] += 1
    assert any(workloads.hilbert_series_check(calls, answers))


def test_tail_has_ten_samples_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0 and beyond == 10


def test_tracer_restores_every_binding():
    import horoindex
    from horoindex import cli, polytopes, spaces

    before = (spaces.hull, polytopes.hull, horoindex.hull, cli._DISPATCH["index"],
              polytopes.Polytope.contains)
    with tracer_mod.Tracer() as tr:
        assert spaces.hull is polytopes.hull is horoindex.hull
        assert spaces.hull is not before[0]
        assert cli._DISPATCH["index"] is cli.cmd_index
        polytopes.hull([(0, 0), (1, 0), (0, 1)])
    after = (spaces.hull, polytopes.hull, horoindex.hull, cli._DISPATCH["index"],
             polytopes.Polytope.contains)
    assert all(a is b for a, b in zip(before, after))
    assert tr.stats["polytopes.hull"].calls == 1
    assert tr.stats["linalg.rref"].calls >= 1
    assert tr.counters["polytopes.hull.points_in"] == 3
