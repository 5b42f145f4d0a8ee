#!/usr/bin/env python3
"""Self-test of the benchmark on reduced passes.

For each workload it makes one set-up and one pass over a few cheap targets,
once untraced and once traced, and checks that

* every op passes and every metric named in ``BENCHMARK.json`` is emitted
  as a finite number with its unit;
* an expected output that has been tampered with counts as a failed op.

Usage: python3 perfbench/selftest.py      (about half a minute)
"""

from __future__ import annotations

import copy
import json
import math
import sys

import run

REDUCED = {
    "catalog-sweep": ("trivial", "svec", "pointed-z2-q1"),
    "product-subcats": ("rep-s3*pointed-z2-q1",),
    "doc-ingest": ("trivial", "ising", "su2k-4"),
}


def _metric_units(section: str) -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def _reduced(name, trace, expected=None):
    result, _ = run.run(name, seed=7, seconds=0, trace=trace,
                        keys=REDUCED[name], expected=expected, setups=1,
                        min_passes=1)
    return result


def _tampered(name):
    expected = copy.deepcopy(json.loads(run.EXPECTED.read_text("utf-8")))
    key = REDUCED[name][0]
    if run.WORKLOADS[name].kind == "verify":
        expected["verify"][key] = "0" * 64
    else:
        expected["validate"][key][0] += " (tampered)"
    return expected


def main() -> int:
    problems = []
    for name in run.WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = _reduced(name, trace)
            tag = f"{name} trace={int(trace)}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: {result['failed']} ops failed")
            for metric, unit in _metric_units(section).items():
                got = result["metrics"].get(metric)
                if (got is None or got["unit"] != unit
                        or not math.isfinite(got["value"])):
                    problems.append(f"{tag}: metric {metric} missing or bad: "
                                    f"{got}")
        result = _reduced(name, False, expected=_tampered(name))
        if result["correct"] or result["failed"] != 1:
            problems.append(f"{name}: tampered expectation gave "
                            f"{result['failed']} failed ops, wanted 1")
        print(f"{name}: checked", file=sys.stderr)
    for line in problems:
        print(f"FAIL {line}", file=sys.stderr)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
