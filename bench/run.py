"""cocyred benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload span-deg3 --seed 1 --seconds 25 --trace 0

Run from the repository root; cocyred is imported from ./src.  The
workload runs in a fresh subprocess, so set-up time and peak memory are its
own.  setup_s is the median set-up time of several fresh processes.  Call
times are scaled by a reference kernel timed between calls (bench/NOTES.md
says why).  With
--trace 0 the metrics are the end-to-end ones; --trace 1 is a separate
run that records spans, alternates traced and untraced passes, runs the
fixed per-layer probes and prints the per-layer metrics.  Spans and a full
result record are written under bench/out/.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time

from suite import END_TO_END, NPROC, PER_LAYER, REFERENCE_S, UNITS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
PINNED = os.path.join(HERE, "pinned.json")

SETUP_RUNS = 7  # fresh processes whose median set-up time is setup_s
DEADLINE_S = 170  # the whole run, set-up processes included
TAIL_BEYOND = 10  # the tail is the highest percentile with this many beyond


class BenchError(RuntimeError):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("main", "setup", "child"), default="main",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


# -- the workload subprocess -------------------------------------------------


def import_cocyred():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import cocyred
    if not os.path.abspath(cocyred.__file__).startswith(src + os.sep):
        raise BenchError(f"cocyred came from {cocyred.__file__}, not {src}")


def run_passes(runner, seconds: int, trace: bool) -> dict[bool, list[float]]:
    """Passes until the next one would overrun `seconds`; with tracing,
    traced and untraced passes alternate.

    Without tracing, at least TAIL_BEYOND + 1 passes run, up to twice
    `seconds`: with fewer, the slowest case (g1:4's verify on
    oracle-verify) has too few calls for the tail to fall among them.
    """
    walls: dict[bool, list[float]] = {False: [], True: []}
    start = time.perf_counter()
    while True:
        traced = trace and len(walls[True]) < len(walls[False])
        runner.tracer.enabled = traced
        walls[traced].append(runner.run_pass(timed=True))
        typical = statistics.median(walls[False] + walls[True])
        elapsed = time.perf_counter() - start + typical
        if trace:
            done = elapsed > seconds and walls[True]
        else:
            done = elapsed > 2 * seconds or (
                elapsed > seconds and len(walls[False]) > TAIL_BEYOND)
        if done:
            break
    runner.tracer.enabled = trace
    return walls


def layer_metrics(runner, probes: dict, walls) -> dict[str, float]:
    tr = runner.tracer
    out = dict(probes)
    out["search.enumerate_s"] = statistics.median(
        tr.durations("search.enumerate_span"))
    out["search.combos"] = tr.counts["search.combos"]
    out["search.hits"] = tr.counts["search.hits"]
    out["search.hit_ratio"] = out["search.hits"] / out["search.combos"]
    out["verify.run_s"] = statistics.median(tr.durations("verify.run_verify"))
    out["verify.checks"] = tr.counts["verify.checks"]
    out["verify.fail"] = tr.counts["verify.fail"]
    for layer, seconds in tr.self_seconds().items():
        out[f"self_s.{layer}"] = seconds
    out["trace.overhead_s"] = (statistics.median(walls[True])
                               - statistics.median(walls[False]))
    return out


def child(args) -> int:
    import_cocyred()
    import numpy
    from tracing import Tracer
    from workloads import Runner

    with open(PINNED) as fh:
        pinned = json.load(fh)
    tracer = Tracer()
    tracer.enabled = bool(args.trace)
    runner = Runner(args.workload, args.seed, pinned, tracer)
    with tracer.span("bench.setup"):
        runner.setup()
    print("setup-done", flush=True)
    if args.role == "setup":
        return 0

    runner.run_pass(timed=False)  # warm-up: checked, not timed
    walls = run_passes(runner, args.seconds, bool(args.trace))
    runner.check_repeatable()
    per_layer = None
    if args.trace:
        from probes import run_probes
        per_layer = layer_metrics(runner, run_probes(runner, ROOT), walls)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"))
    print(json.dumps({
        "pass_calls": runner.pass_calls,
        "passes": runner.passes, "attempted": runner.attempted,
        "failed": runner.failed, "problems": runner.problems,
        "job_seeds": runner.job_seeds, "per_layer": per_layer,
        "numpy": numpy.__version__,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }), flush=True)
    return 0


# -- the parent --------------------------------------------------------------


def spawn(args, role: str, deadline: float) -> tuple[float, dict | None]:
    """Start a fresh workload process; return its set-up seconds (from
    process start to the end of set-up) and, for the child, its result."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--role", role]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [],
                                    max(0.0, deadline - time.monotonic()))
        first = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} process passed the {DEADLINE_S} s deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or first.strip() != "setup-done":
        raise BenchError(f"{role} process failed (exit {proc.returncode})")
    if role == "setup":
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and that
    percentile."""
    s = sorted(samples)
    i = max(0, len(s) - TAIL_BEYOND - 1)
    return s[i], 100.0 * (i + 1) / len(s)


def summarize(pass_calls: list[list[list]]) -> dict:
    """Timing metrics from (case key, seconds, units, reference seconds) per
    call, grouped by pass.

    Each call's time is scaled by REFERENCE_S over the reference kernel's
    time around that call.  On a shared host the same call runs up to 1.7x
    slower for minutes at a time, and the scaled times spread far less
    between runs than the raw ones.
    """
    def scaled(s, ref):
        return s * REFERENCE_S / ref

    calls = [c for calls in pass_calls for c in calls]
    per_unit = [scaled(s, r) * 1e9 / u for _, s, u, r in calls]
    raw = [s * 1e9 / u for _, s, u, _ in calls]
    tail_value, tail_pct = tail(per_unit)
    by_case: dict[str, list[tuple[float, float]]] = {}
    for (key, s, u, r), ns in zip(calls, per_unit):
        by_case.setdefault(key, []).append((s * 1e9 / u, ns))
    return {
        "wall_s": statistics.median(sum(scaled(s, r) for _, s, _, r in p)
                                    for p in pass_calls),
        "ns_per_unit_p50": statistics.median(per_unit),
        "ns_per_unit_tail": tail_value, "tail_pct": tail_pct,
        "samples": len(per_unit),
        "wall_raw_s": statistics.median(sum(c[1] for c in p)
                                        for p in pass_calls),
        "ns_per_unit_p50_raw": statistics.median(raw),
        "ns_per_unit_tail_raw": tail(raw)[0],
        "kernel_slowdown": statistics.median(c[3] for c in calls) / REFERENCE_S,
        "cases": [(key, min(v[0] for v in vals),
                   statistics.median(v[1] for v in vals), len(vals))
                  for key, vals in by_case.items()],
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout's own .git, if it has one; never a parent's."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role != "main":
        return child(args)
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [] if args.trace else [
            spawn(args, "setup", deadline)[0] for _ in range(SETUP_RUNS - 1)]
        setup_s, res = spawn(args, "child", deadline)
        setups.append(setup_s)
        timed = {c[0] for calls in res["pass_calls"] for c in calls}
        if timed != {c.key for c in WORKLOADS[args.workload]}:
            raise BenchError("some case never completed a timed job")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = {"nproc": os.cpu_count(), "usable_cpus": NPROC, "cpu": cpu_model(),
           "python": platform.python_version(), "numpy": res["numpy"],
           "commit": git_commit()}
    unit, alias = UNITS[args.workload]
    timing = summarize(res["pass_calls"])
    n = timing["samples"]
    info = [  # reported, not gated: see bench/NOTES.md
        ("wall_raw_s", "s", timing["wall_raw_s"], "wall_s as measured"),
        ("ns_per_unit_p50_raw", "ns", timing["ns_per_unit_p50_raw"],
         "ns_per_unit_p50 as measured"),
        ("ns_per_unit_tail_raw", "ns", timing["ns_per_unit_tail_raw"],
         "ns_per_unit_tail as measured"),
        ("kernel_slowdown", "x", timing["kernel_slowdown"],
         "median reference-kernel time between calls over REFERENCE_S"),
        ("failed_frac", "1", res["failed"] / max(1, res["attempted"]),
         f"{res['failed']} of {res['attempted']} jobs failed")]
    if args.trace:
        values = res["per_layer"]
        table = [(name, u, values[name], f"moves {moves}")
                 for name, u, _, moves in PER_LAYER]
    else:
        values = {"setup_s": statistics.median(setups),
                  "peak_rss_mb": res["peak_rss_mb"], **timing}
        notes = {"setup_s": f"median of {len(setups)} fresh processes",
                 "wall_s": f"median of {len(res['pass_calls'])} passes, "
                           f"scaled",
                 "ns_per_unit_p50": f"{alias}_p50; median of {n} calls, "
                                    f"scaled",
                 "ns_per_unit_tail": f"{alias}_tail; p{timing['tail_pct']:.1f} "
                                     f"of {n} calls, {TAIL_BEYOND} beyond",
                 "peak_rss_mb": "ru_maxrss of the workload process"}
        table = [(name, u, values[name], notes[name])
                 for name, u, _, _ in END_TO_END]
    metrics = {name: {"value": value, "unit": u} for name, u, value, _ in table}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
          f"  trace {args.trace}  passes {res['passes']}")
    print("env " + json.dumps(env))
    for name, u, value, note in table:
        print(f"{name:34s} {value:16.6g} {u:6s} {note}")
    print("reported, not gated:")
    for name, u, value, note in info:
        print(f"{name:34s} {value:16.6g} {u:6s} {note}")
    for key, best_raw, median_ns, count in timing["cases"]:
        print(f"case {key:32s} {median_ns:12.6g} ns/{unit} median, "
              f"scaled, {best_raw:12.6g} fastest as measured, "
              f"{count} calls")
    for problem in res["problems"]:
        print(f"problem: {problem}")

    os.makedirs(OUT_DIR, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "metrics": metrics, "unit": unit,
              "reported": {name: {"value": value, "unit": u, "note": note}
                           for name, u, value, note in info},
              "cases": timing["cases"], "setup_samples_s": setups,
              "pass_calls": res["pass_calls"],
              "job_seeds": res["job_seeds"], "problems": res["problems"]}
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
