"""Tests of the benchmark itself (not collected by the project's test run).

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import OUT_DIR, PINNED, ROOT, import_cocyred, tail  # noqa: E402
from suite import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from tracing import Tracer  # noqa: E402

import_cocyred()
from workloads import Runner  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def pinned() -> dict:
    with open(PINNED) as fh:
        return json.load(fh)


def run_bench(workload: str, seed: int, trace: int, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_suite():
    doc = bench_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"}
        assert w["why"].strip() and "\n" not in w["why"]
        assert len(w["why"]) <= 200
    assert [tuple(m.values()) for m in doc["end_to_end"]] == END_TO_END
    assert [tuple(m.values()) for m in doc["per_layer"]] == [
        row[:3] for row in PER_LAYER]
    metrics = doc["end_to_end"] + doc["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(n) for n in names + list(WORKLOADS))
    assert all(UNIT_RE.match(m["unit"]) for m in metrics)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_every_end_to_end_metric_is_printed_with_its_unit():
    res = last_json(run_bench("sampled-deg3", 7, 0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {n: (m["unit"]) for n, m in res["metrics"].items()} == {
        n: u for n, u, _, _ in END_TO_END}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_every_per_layer_metric_is_printed_with_its_unit():
    res = last_json(run_bench("span-deg3", 7, 1))
    assert res["correct"]
    assert {n: m["unit"] for n, m in res["metrics"].items()} == {
        n: u for n, u, _, _ in PER_LAYER}
    assert os.path.exists(os.path.join(OUT_DIR, "trace-span-deg3-seed7.json"))


def test_a_wrong_pinned_count_is_a_failed_job():
    wrong = pinned()
    wrong["span g1:1 deg3"]["hits"]["improper"] = 63
    runner = Runner("span-deg3", 1, wrong, Tracer())
    runner.setup()
    runner.run_pass(timed=True)
    assert runner.attempted == 3 and runner.failed == 1
    assert any("hits" in p for p in runner.problems)


def test_a_witness_outside_the_exhaustive_hit_set_is_a_failed_job():
    wrong = pinned()
    wrong["span g1:1 deg3"]["witnesses"] = []
    runner = Runner("sampled-deg3", 1, wrong, Tracer())
    runner.setup()
    runner.run_pass(timed=True)
    assert runner.failed == 1
    assert any("exhaustive hit set" in p for p in runner.problems)


def test_the_seed_reaches_sampled_mode():
    def first_pass_seeds(seed):
        runner = Runner("sampled-deg3", seed, pinned(), Tracer())
        runner.setup()
        runner.run_pass(timed=True)
        assert runner.failed == 0, runner.problems  # report.seed == job seed
        return runner.job_seeds

    assert first_pass_seeds(7) == first_pass_seeds(7)
    assert set(first_pass_seeds(7)).isdisjoint(first_pass_seeds(8))
    run_bench("sampled-deg3", 7, 0)
    with open(os.path.join(OUT_DIR, "result-sampled-deg3-seed7-trace0.json")) as fh:
        record = json.load(fh)
    assert record["job_seeds"][:3] == first_pass_seeds(7)


def test_it_fails_without_the_program():
    bare = os.path.join(OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = run_bench("span-deg3", 1, 0, cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare)


def test_self_time_subtracts_child_spans():
    tr = Tracer()
    tr.spans = [["bench.job", 0.0, 10.0, None, "j"],
                ["search.enumerate_span", 1.0, 7.0, 0, "j"],
                ["tensor.referee", 2.0, 3.0, 1, "j"]]
    got = tr.self_seconds()
    assert (got["bench"], got["search"], got["tensor"]) == (4.0, 5.0, 1.0)


def test_tail_has_ten_samples_beyond_it():
    value, pct = tail([float(i) for i in range(100)])
    assert (value, pct) == (89.0, 90.0)
