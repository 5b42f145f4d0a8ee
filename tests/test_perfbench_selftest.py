"""The benchmark's self-test passes on the current source.

``perfbench/selftest.py`` runs each workload on a few cheap targets and
compares every report with the sha256 recorded in ``perfbench/expected.json``,
so a change in a report's bytes fails here, not only in a benchmark run.  It
writes only under ``perfbench/_work/`` and ``perfbench/_out/``.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert lines and lines[-1] == "selftest: ok", proc.stdout + proc.stderr
