"""In-memory spans around the benchmark's own calls into cocyred.

A span is (name, start, end, parent, job).  The name is "<layer>.<call>",
where the layer is a module of src/cocyred/ or "bench" for the harness
itself.  Spans are recorded only while the tracer is enabled and are
written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

LAYERS = ("groups", "model", "gf2", "reduction", "tensor", "search", "verify",
          "cli", "bench")


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []  # [name, start, end, parent index, job]
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, job: str | None = None):
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else None
        if job is None and parent is not None:
            job = self.spans[parent][4]
        rec = [name, time.perf_counter(), None, parent, job]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value: float):
        """Add to a counter recorded at the same boundary as a span."""
        if self.enabled:
            self.counts[name] += value

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span time minus the part covered by child spans."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name.split(".")[0]] += (end - start) - covered[i]
        return out

    def dump(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {"fields": ["name", "start_s", "end_s", "parent", "job"],
               "spans": [[n, round(s - t0, 7), round(e - t0, 7), p, j]
                         for n, s, e, p, j in self.spans],
               "counts": dict(self.counts)}
        with open(path, "w") as fh:
            json.dump(doc, fh)
