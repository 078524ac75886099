"""Self-check of the benchmark itself, kept out of the library's test suite.

    python3 -m pytest -q perfbench/tests/check_bench.py

Each workload runs three times in this process with one seed, once untraced
and twice traced.  The checks: traced and untraced answers are identical and
pass the workload's checks; the exact counters repeat exactly between the
two traced runs; every wrapped name is called on each workload meant to use
it, so a missed rebinding fails loudly.  Runs of ``run.py`` confirm that the
printed metrics, with and without tracing, are the ones BENCHMARK.json
lists, and that the benchmark refuses to report without the library's
sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 7


@pytest.fixture(scope="module", params=run.WORKLOADS)
def runs(request):
    queries = workloads.build(request.param, SEED)
    workloads.warm_up()
    plain = run.run_rep(workloads, queries)
    traced = []
    for _ in range(2):
        tracer = spans.Tracer()
        traced.append((run.run_rep(workloads, queries, tracer), tracer))
    return request.param, queries, plain, traced


def _exact_counters(rep, tracer) -> dict:
    extra = {"skeleton_misses": rep.skeleton_misses, "traced_wall_s": rep.wall,
             "untraced_wall_s": rep.wall}
    summary = tracer.summary()
    values = {name: value(summary, tracer.counters, extra) for name, _, value in spans.PER_LAYER}
    return {name: values[name] for name in spans.EXACT}


def test_traced_answers_equal_untraced(runs):
    _, queries, plain, traced = runs
    assert run.count_failures(queries, [plain.answers]) == 0
    for rep, _ in traced:
        assert rep.answers == plain.answers


def test_exact_counters_repeat(runs):
    _, _, _, traced = runs
    first, second = (_exact_counters(rep, tracer) for rep, tracer in traced)
    assert first == second


def test_every_wrapped_name_is_called(runs):
    workload, _, _, traced = runs
    calls = traced[0][1].summary()["calls"]
    meant = {span for _, _, span, _, users in spans.WRAPPED if workload in users}
    assert sorted(span for span in meant if calls[span] == 0) == []


def test_tracer_restores_every_binding():
    import twistlab.gf
    import twistlab.specht

    before = (twistlab.gf.mm, twistlab.specht.mm, twistlab.gf.Echelon.__dict__["add"])
    tracer = spans.Tracer()
    tracer.install()
    assert twistlab.specht.mm is not before[1]
    tracer.uninstall()
    assert (twistlab.gf.mm, twistlab.specht.mm, twistlab.gf.Echelon.__dict__["add"]) == before


def _last_json(*args):
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_printed_metrics_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    plain = _last_json("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert {n: m["unit"] for n, m in plain["metrics"].items()} == {
        m["name"]: m["unit"] for m in bench["end_to_end"]
    }
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    traced = _last_json("--workload", "sweep", "--seed", "1", "--trace", "1")
    assert [(n, m["unit"]) for n, m in traced["metrics"].items()] == [
        (m["name"], m["unit"]) for m in bench["per_layer"]
    ]
    assert traced["correct"] and traced["metrics"]["mullineux.map_calls"]["value"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
