"""Fixed per-layer probes of the traced run.

Each probe times one public function of one layer on a fixed input, the
same on every workload, so that a change to one layer shows here even when
a workload only partly exercises it.  Probes check their outputs too.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import time

from cocyred import (brute_force_cohomology, build_group, builtin_model,
                     enumerate_span, full_cocycle_basis,
                     greedy_independent_rows, is_hadamard_2d,
                     is_improper_hadamard, is_proper_hadamard, parse_group_spec,
                     run_verify, smith_normal_form_gf2)
from cocyred.gf2 import left_kernel
from cocyred.reduction import coboundary_matrix

from suite import NPROC, Case
from workloads import Runner, build_space


def per_call(fn, reps: int) -> float:
    """Median seconds of one call."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def cli_seconds(root: str, args: list[str], reps: int) -> tuple[float, str]:
    """Median wall time of a fresh interpreter running `args`, and its stdout."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    times, out = [], ""
    for _ in range(reps):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *args], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - t0)
        out = proc.stdout if proc.returncode == 0 else proc.stderr
    return statistics.median(times), out


def checked_call(runner: Runner, case: Case) -> float:
    """One workload-style call, checked against pinned; returns its seconds."""
    t0 = time.perf_counter()
    try:
        out = runner.call(case, None)
    except Exception as exc:  # a failed check, not a failed run
        out = exc
    seconds = time.perf_counter() - t0
    runner.check(case, None, out)
    return seconds


def run_probes(runner: Runner, root: str) -> dict[str, float]:
    tr = runner.tracer
    check = runner.record
    out: dict[str, float] = {}

    spec = parse_group_spec("g1:3")
    g = build_group(spec)
    model = builtin_model(spec, 3)
    with tr.span("groups.build_group"):
        out["groups.build_group_us"] = per_call(lambda: build_group(spec), 50) * 1e6
    with tr.span("model.builtin_model"):
        out["model.builtin_model_us"] = per_call(
            lambda: builtin_model(spec, 3), 20) * 1e6
    with tr.span("reduction.coboundary_matrix"):
        out["reduction.coboundary_matrix_ms"] = per_call(
            lambda: coboundary_matrix(g, 3), 20) * 1e3
    rows3, _ = coboundary_matrix(g, 3)
    with tr.span("gf2.greedy_independent_rows"):
        out["gf2.greedy_rows_ms"] = per_call(
            lambda: greedy_independent_rows(rows3), 10) * 1e3
    with tr.span("gf2.smith_normal_form_gf2"):
        out["gf2.smith_ms"] = per_call(
            lambda: (smith_normal_form_gf2(model.diff[2]),
                     smith_normal_form_gf2(model.diff[3])), 50) * 1e3
    with tr.span("reduction.full_cocycle_basis"):
        out["reduction.full_cocycle_basis_ms"] = per_call(
            lambda: full_cocycle_basis(model, 3), 10) * 1e3

    want_hdim = runner.pinned[Case("verify", "g1:3", 3).key]["hdim"]
    results = []
    with tr.span("reduction.brute_force_cohomology"):
        out["reduction.oracle_s"] = per_call(
            lambda: results.append(brute_force_cohomology(g, 3)), 3)
    check("probe oracle g1:3 deg3", [] if results[-1].hdim == want_hdim else
          [f"oracle dim H^3 = {results[-1].hdim} != {want_hdim}"])

    d3, _ = coboundary_matrix(g, 4)  # d^3 as v^3 rows of v^4 columns
    kernels = []
    with tr.span("gf2.left_kernel"):
        out["gf2.left_kernel_s"] = per_call(
            lambda: kernels.append(left_kernel(d3)), 3)
    rank, kernel = kernels[-1]
    check("probe left_kernel g1:3 deg3",
          [] if rank + kernel.shape[0] == d3.shape[0] else
          [f"rank {rank} + kernel {kernel.shape[0]} != rows {d3.shape[0]}"])
    out["gf2.left_kernel_bytes"] = d3.shape[0] * d3.shape[1] / 8

    # referee predicates on fixed span members: an improper, not proper,
    # 3-D hit of g1:1 and a planar hit of d4t:3
    ten3 = build_space("g1:1", 3, tr).combo_tensor(4143)
    ten2 = build_space("d4t:3", 2, tr).combo_tensor(791)
    verdicts = []
    with tr.span("tensor.is_improper_hadamard"):
        out["tensor.improper_us"] = per_call(
            lambda: verdicts.append(is_improper_hadamard(ten3)), 200) * 1e6
    with tr.span("tensor.is_proper_hadamard"):
        out["tensor.proper_us"] = per_call(
            lambda: verdicts.append(not is_proper_hadamard(ten3)), 200) * 1e6
    with tr.span("tensor.is_hadamard_2d"):
        out["tensor.hadamard2d_us"] = per_call(
            lambda: verdicts.append(is_hadamard_2d(ten2)), 200) * 1e6
    check("probe referee predicates",
          [] if all(verdicts) else ["fixed span members changed verdict"])

    space91 = build_space("cyclic:5", 3, tr)
    masks = iter([random.Random(91).getrandbits(space91.m) for _ in range(200)])
    with tr.span("search.SearchSpace.combo_tensor"):
        out["search.combo_tensor_us"] = per_call(
            lambda: space91.combo_tensor(next(masks)), 200) * 1e6

    space = build_space("d4t:4", 2, tr)
    seconds = {}
    for workers in (1, min(2, NPROC)):
        case = Case("span", "d4t:4", 2, ("hadamard2d",), workers=workers)
        runner.spaces[case] = space
        seconds[workers] = checked_call(runner, case)
    out["search.w2_speedup"] = seconds[1] / seconds[min(2, NPROC)]

    checked_call(runner, Case("verify", "g2:2", 3))

    with tr.span("cli.import"):
        out["cli.import_s"], _ = cli_seconds(root, ["-c", "import cocyred"], 3)
    with tr.span("cli.search"):
        out["cli.search_s"], text = cli_seconds(
            root, ["-m", "cocyred.cli", "search", "--group", "g1:1",
                   "--degree", "3", "--test", "improper"], 3)
    check("probe cli search g1:1",
          [] if "improper: 64, proper-among-hits: 0" in text else
          [f"unexpected CLI output {text[-200:]!r}"])
    return out
