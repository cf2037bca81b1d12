"""One workload in one process: set-up, timed passes, checks against pinned.

Every call into cocyred goes through a public function, timed from
outside.  A pass runs each case of the workload once, always in the same
order: a call runs measurably slower after a large one (g1:4's oracle),
so a seeded order would make timings depend on the seed.  Sampled jobs
draw their seeds from the benchmark's seed.  Outputs are checked after the
pass, outside its timer, and every mismatch counts as a failed job.
"""

from __future__ import annotations

import random
import re
import time

import numpy as np
from cocyred import (SearchSpace, build_group, builtin_model, enumerate_span,
                     full_cocycle_basis, is_hadamard_2d, is_improper_hadamard,
                     is_proper_hadamard, parse_group_spec, run_verify)

from suite import WORKLOADS, Case
from tracing import Tracer

REFEREES = {"improper": is_improper_hadamard, "proper": is_proper_hadamard,
            "hadamard2d": is_hadamard_2d}

HDIM_RE = re.compile(r"dim H\^\d+ = (\d+)")

MAX_PROBLEMS = 20

_REF_MATRIX = np.arange(256, dtype=np.int32).reshape(16, 16)


def reference_seconds() -> float:
    """Time one run of a fixed kernel that does not touch cocyred.

    The kernel does interpreter arithmetic and small numpy calls, the two
    kinds of work in cocyred's layers.  It runs between calls, so that each
    call's time can be scaled to the speed the host ran at around it.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(3000):
        acc += i * i
    for _ in range(40):
        (_REF_MATRIX @ _REF_MATRIX.T)[_REF_MATRIX % 3 == 0].sum()
    return time.perf_counter() - t0


def build_space(group: str, degree: int, tracer: Tracer) -> SearchSpace:
    spec = parse_group_spec(group)
    with tracer.span("groups.build_group"):
        build_group(spec)
    with tracer.span("model.builtin_model"):
        model = builtin_model(spec, degree)
    with tracer.span("reduction.full_cocycle_basis"):
        out = full_cocycle_basis(model, degree)
    with tracer.span("search.SearchSpace.from_reduction"):
        return SearchSpace.from_reduction(out)


def fingerprint(report) -> tuple:
    return (report.examined, sorted(report.hits.items()),
            [(w.mask, tuple(w.passed)) for w in report.witnesses])


class Runner:
    """Runs the passes of one workload and keeps its checks and samples."""

    def __init__(self, workload: str, seed: int, pinned: dict, tracer: Tracer):
        self.cases = WORKLOADS[workload]
        self.rng = random.Random(seed)
        self.pinned = pinned
        self.tracer = tracer
        self.spaces: dict[Case, SearchSpace] = {}
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # per timed pass, per completed call: (case key, seconds, units,
        # reference seconds around the call)
        self.pass_calls: list[list[tuple[str, float, int, float]]] = []
        self.job_seeds: list[int] = []
        self._refereed: set = set()
        self._first_sample: dict[Case, tuple[int, tuple]] = {}

    # -- set-up ------------------------------------------------------------

    def setup(self):
        """Group, model, reduction and SearchSpace builds of every case."""
        for case in self.cases:
            if case.kind == "verify":
                build_space(case.group, case.degree, self.tracer)
            else:
                self.spaces[case] = build_space(case.group, case.degree,
                                                self.tracer)

    # -- passes ------------------------------------------------------------

    def call(self, case: Case, job_seed: int | None):
        if case.kind == "verify":
            with self.tracer.span("verify.run_verify"):
                checks = run_verify(parse_group_spec(case.group), case.degree)
            self.tracer.count("verify.checks", len(checks))
            self.tracer.count("verify.fail",
                              sum(c.status == "FAIL" for c in checks))
            return checks
        kwargs = {"workers": case.workers}
        if case.kind == "sample":
            kwargs.update(sample_count=case.samples, seed=job_seed)
        if case.limit is not None:
            kwargs["limit"] = case.limit
        with self.tracer.span("search.enumerate_span"):
            report = enumerate_span(self.spaces[case], case.predicates, **kwargs)
        self.tracer.count("search.combos", report.examined)
        self.tracer.count("search.hits", report.hits[case.predicates[0]])
        return report

    def run_pass(self, timed: bool) -> float:
        """One pass over the workload's jobs; returns the summed time of its
        calls, which excludes the reference kernel run between them."""
        jobs = [(case, self.rng.getrandbits(32) if case.kind == "sample" else None)
                for case in self.cases]
        results = []
        with self.tracer.span("bench.pass"):
            ref = [reference_seconds()]
            for case, job_seed in jobs:
                with self.tracer.span("bench.job",
                                      job=f"{self.passes}:{case.key}"):
                    t0 = time.perf_counter()
                    try:
                        out = self.call(case, job_seed)
                    except Exception as exc:  # a failed job, not a failed run
                        out = exc
                    seconds = time.perf_counter() - t0
                ref.append(reference_seconds())
                results.append((case, job_seed, out, seconds,
                                (ref[-2] + ref[-1]) / 2))
        with self.tracer.span("bench.check"):
            calls = []
            for case, job_seed, out, seconds, ref_s in results:
                self.check(case, job_seed, out)
                if not isinstance(out, Exception):
                    units = 1 if case.kind == "verify" else out.examined
                    calls.append((case.key, seconds, units, ref_s))
        if timed:
            self.pass_calls.append(calls)
        self.passes += 1
        return sum(r[3] for r in results)

    # -- checks ------------------------------------------------------------

    def record(self, case_key: str, problems: list[str]):
        """Count one attempted job, failed if it has problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            room = MAX_PROBLEMS - len(self.problems)
            self.problems.extend(f"{case_key}: {p}" for p in problems[:room])

    def check(self, case: Case, job_seed: int | None, out):
        if isinstance(out, Exception):
            self.record(case.key, [f"raised {type(out).__name__}: {out}"])
            return
        if case.kind == "verify":
            self.record(case.key, self.verify_problems(case, out))
            return
        problems = self.referee_problems(case, out.witnesses)
        if case.kind == "span":
            want = self.pinned[case.key]
            if out.examined != want["examined"]:
                problems.append(f"examined {out.examined} != {want['examined']}")
            if out.hits != want["hits"]:
                problems.append(f"hits {out.hits} != {want['hits']}")
            got = [[w.mask, list(w.passed)] for w in out.witnesses]
            if got != want["witnesses"]:
                problems.append("retained witnesses differ from pinned")
        else:
            problems += self.sample_problems(case, job_seed, out)
            self.job_seeds.append(job_seed)
            self._first_sample.setdefault(case, (job_seed, fingerprint(out)))
        self.record(case.key, problems)

    def referee_problems(self, case: Case, witnesses) -> list[str]:
        """Re-derive each witness's verdicts with the tensor.py predicates."""
        problems = []
        space = self.spaces[case]
        for w in witnesses:
            key = (case, w.mask, tuple(w.passed))
            if key in self._refereed:
                continue
            with self.tracer.span("search.SearchSpace.combo_tensor"):
                ten = space.combo_tensor(w.mask)
            with self.tracer.span("tensor.referee"):
                verdict = [p for p in case.predicates if REFEREES[p](ten)]
            if verdict != list(w.passed):
                problems.append(f"referee gives {verdict} for mask {w.mask}, "
                                f"search gave {w.passed}")
            else:
                self._refereed.add(key)
        return problems

    def sample_problems(self, case: Case, job_seed: int, report) -> list[str]:
        problems = []
        if report.mode != "sampled" or report.seed != job_seed:
            problems.append(f"mode {report.mode} seed {report.seed}, "
                            f"asked for sampled seed {job_seed}")
        if report.examined != case.samples:
            problems.append(f"examined {report.examined} != {case.samples}")
        full = self.pinned.get(Case("span", case.group, case.degree).key)
        if full is not None:
            known = {(m, tuple(p)) for m, p in full["witnesses"]}
            stray = [w.mask for w in report.witnesses
                     if (w.mask, tuple(w.passed)) not in known]
            if stray:
                problems.append(f"witnesses {stray[:5]} are not in the pinned "
                                f"exhaustive hit set")
        return problems

    def verify_problems(self, case: Case, checks) -> list[str]:
        want = self.pinned[case.key]
        problems = [c.line() for c in checks if c.status == "FAIL"]
        got = {c.name: c.status for c in checks}
        if got != want["statuses"]:
            problems.append(f"statuses {got} != {want['statuses']}")
        hdims = {int(x) for c in checks for x in HDIM_RE.findall(c.detail)}
        if hdims != {want["hdim"]}:
            problems.append(f"reported dim H {sorted(hdims)} != {want['hdim']}")
        return problems

    def check_repeatable(self):
        """Outside the timed region: the same seed gives the same report."""
        for case, (job_seed, first) in self._first_sample.items():
            with self.tracer.span("bench.repeat", job=f"repeat:{case.key}"):
                try:
                    again = fingerprint(self.call(case, job_seed))
                except Exception as exc:  # a failed check, not a failed run
                    again = f"raised {type(exc).__name__}: {exc}"
            self.record(case.key, [] if again == first else
                        [f"seed {job_seed} did not repeat its report"])
