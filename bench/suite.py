"""What the benchmark runs and what it reports.

Pure data, so that the harness can validate its arguments without importing
cocyred.  BENCHMARK.json at the repository root repeats the workload names
and the metric tables; selftest.py checks that the two agree.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from tracing import LAYERS

NPROC = len(os.sched_getaffinity(0))

IMPROPER = ("improper", "proper")  # what `cocyred search --test improper` runs
PLANAR = ("hadamard2d",)


@dataclass(frozen=True)
class Case:
    kind: str  # "span" (exhaustive walk), "sample" or "verify"
    group: str
    degree: int
    predicates: tuple[str, ...] = ()
    workers: int = 1
    limit: int | None = None
    samples: int | None = None

    @property
    def key(self) -> str:
        """Name of the case in pinned.json."""
        key = f"{self.kind} {self.group} deg{self.degree}"
        return key + (f" limit{self.limit}" if self.limit else "")


# Samples per sampled job: large enough that one call is a stable unit, and
# that g1:1 (64 hits in 2^15) hits several times per job.
SAMPLES = 4096

WORKLOADS: dict[str, list[Case]] = {
    # The paper's headline spans; time goes to the Gray walk and the
    # degree-3 predicate.  v=4 cases are bound by Python overhead, v=8 by
    # arithmetic.  g2:1 is the same group as g1:1 and is left out.
    "span-deg3": [
        Case("span", "g1:1", 3, IMPROPER),
        Case("span", "cyclic:2", 3, IMPROPER),
        Case("span", "g1:2", 3, IMPROPER, limit=1 << 15),
    ],
    # The planar Gram predicate on larger matrices.  One worker: with two,
    # pass times on a shared 2-core machine measure whether the second core
    # happens to be free (0.65-1.1 s for the same pass), so the pool path
    # is timed by the search.w2_speedup probe of the traced run instead.
    "census-deg2": [
        Case("span", group, 2, PLANAR)
        for group in ("d4t:3", "g1:3", "g2:3", "d4t:4", "g1:4")
    ],
    # GF(2) elimination, the bar-complex oracle and the Smith forms; no
    # span is walked.
    "oracle-verify": [
        Case("verify", group, degree)
        for group, degree in (("g1:4", 3), ("g1:3", 3), ("g2:2", 3),
                              ("cyclic:5", 3), ("g1:3", 2), ("d4t:3", 2),
                              ("g2:3", 2))
    ],
    # Seeded sampling past the exhaustive limit: every sample rebuilds its
    # product from up to m rows.  g1:1 is added so that samples hit.
    "sampled-deg3": [
        Case("sample", group, 3, IMPROPER, samples=SAMPLES)
        for group in ("cyclic:5", "g2:2", "g1:1")
    ],
}

# What one unit of ns_per_unit_* is on each workload, and the name the
# metric has in the project's plans for that workload.
UNITS = {
    "span-deg3": ("combination", "ns_per_combo"),
    "census-deg2": ("combination", "ns_per_combo"),
    "oracle-verify": ("run_verify call", "verify_ns"),
    "sampled-deg3": ("sample", "ns_per_sample"),
}

# The reference kernel's (workloads.reference_seconds) 1st-percentile time
# when run alone on the machine the benchmark was defined on: a 2-vCPU
# Intel Xeon VM, Python 3.11.7, numpy 2.4.6.  Call times are multiplied by
# REFERENCE_S over the kernel's time around the call: they are counted in
# kernel runs and stated in seconds.  Between calls the kernel runs with
# cold caches, slower than alone, so scaled times read below raw ones even
# on a quiet host; compare scaled times with scaled times.
REFERENCE_S = 0.00046

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("ns_per_unit_p50", "ns", "lower", 0.25),
    ("ns_per_unit_tail", "ns", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

# (name, unit, better, the end-to-end metric and workload it should move)
PER_LAYER = [
    ("tensor.improper_us", "us", "lower", "ns_per_unit_* on span-deg3"),
    ("tensor.proper_us", "us", "lower", "ns_per_unit_* on span-deg3"),
    ("tensor.hadamard2d_us", "us", "lower", "ns_per_unit_* on census-deg2"),
    ("search.enumerate_s", "s", "lower",
     "ns_per_unit_* on span-deg3 and census-deg2; not oracle-verify"),
    ("search.combos", "count", "higher",
     "ns_per_unit_* on span-deg3 and census-deg2; not oracle-verify"),
    ("search.hits", "count", "higher",
     "ns_per_unit_* on span-deg3 and census-deg2; not oracle-verify"),
    ("search.hit_ratio", "1", "higher",
     "ns_per_unit_* on span-deg3 and census-deg2; not oracle-verify"),
    ("search.combo_tensor_us", "us", "lower",
     "ns_per_unit_* on sampled-deg3; not span-deg3"),
    ("search.w2_speedup", "x", "higher", "ns_per_unit_* on census-deg2 only"),
    ("reduction.oracle_s", "s", "lower",
     "ns_per_unit_* and peak_rss_mb on oracle-verify; nothing on span workloads"),
    ("gf2.left_kernel_s", "s", "lower",
     "ns_per_unit_* and peak_rss_mb on oracle-verify; nothing on span workloads"),
    ("gf2.left_kernel_bytes", "bytes", "lower",
     "peak_rss_mb on oracle-verify; nothing on span workloads"),
    ("gf2.smith_ms", "ms", "lower",
     "setup_s everywhere; ns_per_unit_p50 on oracle-verify"),
    ("gf2.greedy_rows_ms", "ms", "lower",
     "setup_s everywhere; ns_per_unit_p50 on oracle-verify"),
    ("reduction.full_cocycle_basis_ms", "ms", "lower",
     "setup_s everywhere; ns_per_unit_p50 on oracle-verify"),
    ("reduction.coboundary_matrix_ms", "ms", "lower",
     "setup_s everywhere; ns_per_unit_p50 on oracle-verify"),
    ("model.builtin_model_us", "us", "lower",
     "setup_s everywhere; ns_per_unit_p50 on oracle-verify"),
    ("groups.build_group_us", "us", "lower",
     "setup_s everywhere; ns_per_unit_p50 on oracle-verify"),
    ("verify.run_s", "s", "lower", "ns_per_unit_* on oracle-verify"),
    ("verify.checks", "count", "higher", "ns_per_unit_* on oracle-verify"),
    ("verify.fail", "count", "lower", "correctness on oracle-verify"),
    ("cli.import_s", "s", "lower", "setup_s everywhere"),
    ("cli.search_s", "s", "lower", "end-to-end CLI time; setup_s everywhere"),
] + [(f"self_s.{layer}", "s", "lower", f"wall_s where the {layer} layer runs")
     for layer in LAYERS] + [
    ("trace.overhead_s", "s", "lower", "none; median traced minus median untraced pass"),
]
