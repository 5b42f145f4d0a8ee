#!/usr/bin/env python3
"""End-to-end wall time of `fuscat verify` over the north-star key ladder.

Usage (from the root of a git checkout):

    python3 scripts/bench.py --base REV --out BENCH_<n>.json

Each op is one whole process, `python -m fuscat verify KEY
--all-subcategories --format json`, so cold import and output are counted.
Two source trees run: `src/` of revision REV (extracted with `git archive`
into a temporary directory) and `src/` of the working tree.  Each side's
`src/` is byte-compiled first, so that no timed process compiles modules
(under PYTHONDONTWRITEBYTECODE only a tree that already held bytecode would
be spared that cost).  Each side then runs every key once untimed, then
ROUNDS rounds over the ladder, alternating which side runs first, so each
key gets ROUNDS pairs.

The JSON file records, per side and key, the median and quartiles, the
repeat count, every time, the exit code and the sha256 of the report; per
key, the ratio of the medians, the pairs the change won and whether the
reports match; and the Python version, the CPU count, the git sha of each
side and a sha256 over the files of the `src/` it ran, which names the
timed code also when the working tree is not committed.  A speedup counts
only where the reports match, the change wins at least nine pairs in ten,
and the medians differ by more than the base's interquartile range.
"""

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LADDER = ("trivial", "svec", "ising", "fib", "rep-s3", "su2k-2", "su2k-3",
          "su2k-4", "pointed-z2-q1", "pointed-z3-q1", "pointed-z4-q1",
          "pointed-z4-q2", "ising*svec", "su2k-5", "su2k-6", "su2k-8",
          "su2k-10", "su2k-12", "su2k-14", "su2k-4*fib",
          "svec*svec*svec*svec")
ROUNDS = 10


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def extract_src(rev: str, dest: Path) -> Path:
    """`src/` of `rev` under `dest`; returns the path to put on PYTHONPATH."""
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def tree_sha256(src: Path) -> str:
    """sha256 over the relative path and bytes of every file under `src`."""
    digest = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_op(src: Path, key: str) -> tuple[float, int, str]:
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "fuscat", "verify", key,
            "--all-subcategories", "--format", "json"]
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True)
    seconds = time.perf_counter() - start
    return seconds, proc.returncode, hashlib.sha256(proc.stdout).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare the working tree against")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        sides = {
            "base": {"src": extract_src(args.base, Path(tmp)),
                     "git_sha": git("rev-parse", args.base), "dirty": False},
            "change": {"src": ROOT / "src", "git_sha": git("rev-parse", "HEAD"),
                       "dirty": bool(git("status", "--porcelain", "src"))},
        }
        times = {name: {key: [] for key in LADDER} for name in sides}
        outcome = {name: {} for name in sides}
        for name, side in sides.items():
            side["src_sha256"] = tree_sha256(side["src"])
            subprocess.run([sys.executable, "-m", "compileall", "-q", str(side["src"])],
                           check=True)
            for key in LADDER:
                _, code, digest = run_op(side["src"], key)
                outcome[name][key] = (code, digest)
        for r in range(ROUNDS):
            order = list(sides) if r % 2 == 0 else list(reversed(sides))
            for key in LADDER:
                for name in order:
                    seconds, code, digest = run_op(sides[name]["src"], key)
                    if (code, digest) != outcome[name][key]:
                        print(f"{name} {key}: output changed between runs",
                              file=sys.stderr)
                        return 1
                    times[name][key].append(seconds)
            print(f"round {r + 1}/{ROUNDS} done", file=sys.stderr)

    runs = {}
    for name, side in sides.items():
        keys = {}
        for key in LADDER:
            code, digest = outcome[name][key]
            q1, median, q3 = statistics.quantiles(times[name][key], n=4)
            keys[key] = {"median_s": round(median, 4),
                         "quartiles_s": [round(q1, 4), round(q3, 4)],
                         "repeats": len(times[name][key]),
                         "times_s": [round(t, 4) for t in times[name][key]],
                         "exit": code, "report_sha256": digest}
        runs[name] = {"git_sha": side["git_sha"], "dirty": side["dirty"],
                      "src_sha256": side["src_sha256"],
                      "ladder_median_s": round(sum(k["median_s"]
                                                   for k in keys.values()), 4),
                      "keys": keys}
    delta = {key: {"change_over_base": round(runs["change"]["keys"][key]["median_s"]
                                             / runs["base"]["keys"][key]["median_s"], 3),
                   "change_won_pairs": sum(c < b for b, c in zip(times["base"][key],
                                                                 times["change"][key])),
                   "reports_match": outcome["base"][key] == outcome["change"][key]}
             for key in LADDER}
    result = {
        "command": "python -m fuscat verify KEY --all-subcategories --format json",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "rounds": ROUNDS,
        "ladder": list(LADDER),
        "runs": runs,
        "delta": delta,
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    for key in LADDER:
        print(f"{key:>16}: {runs['base']['keys'][key]['median_s']:8.3f} s -> "
              f"{runs['change']['keys'][key]['median_s']:8.3f} s  "
              f"won {delta[key]['change_won_pairs']:2d}/{ROUNDS}  "
              f"reports {'match' if delta[key]['reports_match'] else 'DIFFER'}")
    return 0 if all(d["reports_match"] for d in delta.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
