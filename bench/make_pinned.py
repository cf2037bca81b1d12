"""Regenerate bench/pinned.json from the code in ./src.

    python3 bench/make_pinned.py

Pins, for every exhaustive span case of the benchmark, the combinations
examined, the hit counts and every retained witness (mask and the
predicates it passed); for every verify case, the status of each check and
dim H^n.  Regenerate only when a change of results is intended, and say so
where the change is recorded.
"""

from __future__ import annotations

import json
import os

from run import PINNED, import_cocyred
from suite import WORKLOADS
from tracing import Tracer


def main():
    import_cocyred()
    from workloads import HDIM_RE, Runner, build_space

    runner = Runner("span-deg3", 0, {}, Tracer())
    doc = {}
    for cases in WORKLOADS.values():
        for case in cases:
            if case.kind == "sample":
                continue
            if case.kind == "span":
                runner.spaces[case] = build_space(case.group, case.degree,
                                                  runner.tracer)
                report = runner.call(case, None)
                doc[case.key] = {
                    "m": runner.spaces[case].m,
                    "examined": report.examined, "hits": report.hits,
                    "witnesses": [[w.mask, w.passed] for w in report.witnesses]}
            else:
                checks = runner.call(case, None)
                hdims = {int(x) for c in checks for x in HDIM_RE.findall(c.detail)}
                if len(hdims) != 1:
                    raise SystemExit(f"{case.key}: verify reports dim H {hdims}")
                doc[case.key] = {"hdim": hdims.pop(),
                                 "statuses": {c.name: c.status for c in checks}}
    lines = [f" {json.dumps(key)}: {json.dumps(doc[key], sort_keys=True)}"
             for key in sorted(doc)]
    with open(PINNED, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(doc)} cases to {os.path.relpath(PINNED)}")


if __name__ == "__main__":
    main()
