#!/usr/bin/env python3
"""Pin the outputs the benchmark checks every op against.

Runs each benchmark op once on the current source and writes
``perfbench/expected.json``: the sha256 of the stdout of
``fuscat verify KEY --all-subcategories --format json`` per key, and the
stdout lines of ``fuscat validate PATH`` per document, with the path as
``{path}``.  Every op must exit 0.  Re-pin only when the benchmark itself
changes; a change to fuscat that alters these outputs is a behaviour change.

Usage: python3 perfbench/record_expected.py
"""

from __future__ import annotations

import hashlib
import json
import sys

import run


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    cli, catalog, serialize = run.import_fuscat()
    expected = {"verify": {}, "validate": {}}
    for name, workload in run.WORKLOADS.items():
        ops = run.build_ops(workload, workload.keys, 0, catalog, serialize)
        for key, argv in ops:
            _, code, stdout = run.run_op(cli.main, argv)
            if code != 0:
                print(f"{name}: {' '.join(argv)} exited {code}",
                      file=sys.stderr)
                return 1
            if workload.kind == "verify":
                expected["verify"][key] = hashlib.sha256(
                    stdout.encode("utf-8")).hexdigest()
            else:
                expected["validate"][key] = [
                    line.replace(argv[1], "{path}")
                    for line in stdout.splitlines()]
    run.EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True)
                            + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
