#!/usr/bin/env python3
"""Sweep every catalog entry through the full check suite.

Runs all registered checks over all subcategories of each built-in entry and
prints one summary line per key, then a totals line.  Exit status is nonzero
if any executed check fails.

Usage:
    python scripts/run_full_verification.py [--format json|md] [--out DIR]

With --out, the per-key reports are also written to DIR in the chosen format.
"""

import argparse
import pathlib
import sys

from fuscat.catalog import BUILTIN_KEYS, builtin
from fuscat.fusion import enumerate_subcategories
from fuscat.verify import render_json, render_markdown, run_checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--format", choices=("json", "md"), default="md")
    parser.add_argument("--out", help="directory to write per-key reports to")
    args = parser.parse_args(argv)

    out_dir = None
    if args.out:
        out_dir = pathlib.Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)

    totals = {"passed": 0, "failed": 0, "skipped": 0, "total": 0}
    any_failed = False
    for key in BUILTIN_KEYS:
        target = builtin(key)
        report = run_checks(target,
                            subcategories=enumerate_subcategories(target.ring))
        s = report.summary
        for field in totals:
            totals[field] += s[field]
        status = "ok" if report.ok else "FAILED"
        print(f"{key:>16}: {s['passed']:4d} passed, {s['failed']:3d} failed, "
              f"{s['skipped']:3d} skipped  [{status}]")
        if not report.ok:
            any_failed = True
            for c in report.checks:
                if c.passed is False:
                    print(f"    FAIL {c.id} {c.params}")
        if out_dir is not None:
            text = (render_json(report) if args.format == "json"
                    else render_markdown(report))
            suffix = "json" if args.format == "json" else "md"
            name = key.replace("*", "_x_")
            (out_dir / f"{name}.{suffix}").write_text(text, encoding="utf-8")

    print(f"{'total':>16}: {totals['passed']:4d} passed, "
          f"{totals['failed']:3d} failed, {totals['skipped']:3d} skipped "
          f"over {totals['total']} checks")
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
