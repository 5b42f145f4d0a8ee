#!/usr/bin/env python3
"""End-to-end wall time of `fuscat verify` and `fuscat validate` over the
north-star key ladder and three large keys.

Usage (from the root of a git checkout):

    python3 scripts/bench.py --base REV --out BENCH_<n>.json

Each op is one whole process, so cold import and output are counted.  There
are three kinds of op: `python -m fuscat verify KEY --all-subcategories
--format json` for each ladder key, `python -m fuscat verify KEY --format
json` (the default pool: the unit and the whole ring) for each key of
VALIDATE_EXTRA, whose ranks exceed the enumeration bound of
`--all-subcategories`, and `python -m fuscat validate DOC` for each ladder
key and for VALIDATE_EXTRA.  The documents are written once,
before any op runs, from the working tree's catalog entries
(`serialize.to_document`), into one temporary directory that both sides
read, so the path each `validate` prints is the same on both.  Two source
trees run: `src/` of revision REV (extracted with `git archive` into a
temporary directory) and `src/` of the working tree.  Each side's `src/` is
byte-compiled first, so that no timed process compiles modules (under
PYTHONDONTWRITEBYTECODE only a tree that already held bytecode would be
spared that cost).  Each side then runs every op once untimed, then ROUNDS
rounds over the ops, alternating which side runs first, so each op gets
ROUNDS pairs.

The JSON file records, per command, side and key, the median and quartiles,
the repeat count, every time, every peak RSS and their median, the exit code
and the sha256 of the stdout;
per command and key, the ratio of the medians, the pairs the change won and
whether the outputs match; and the Python version, the CPU count, the git
sha of each side and a sha256 over the files of the `src/` it ran, which
names the timed code also when the working tree is not committed.  A
speedup counts only where the outputs match, the change wins at least nine
pairs in ten, and the medians differ by more than the base's interquartile
range.  The peak RSS of a run is the child's own `ru_maxrss`, which
`os.wait4` returns for that child alone (`RUSAGE_CHILDREN` gives only the
largest over every child waited for).
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
# Ranks 21, 31 and 50: `validate` times their documents, where the
# validators' multiplicativity checks dominate, and `verify` their default
# pool, where the checks' sums and divisions do.
VALIDATE_EXTRA = ("su2k-20", "su2k-30", "pointed-z50-q1")
ROUNDS = 10
COMMANDS = {
    "verify": "python -m fuscat verify KEY --all-subcategories --format json",
    "verify_default": "python -m fuscat verify KEY --format json",
    "validate": "python -m fuscat validate DOC, DOC the working tree's "
                "to_document of KEY",
}


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


# Writes the working tree's document of each key named in argv[2:] under
# the directory argv[1]; it runs in a child (see `run_op`).
WRITE_DOCUMENTS = """
import sys
from pathlib import Path
from fuscat.catalog import builtin
from fuscat.serialize import dump_document, to_document
for key in sys.argv[2:]:
    entry = builtin(key)
    path = Path(sys.argv[1]) / (key.replace("*", "_x_") + ".json")
    path.write_text(dump_document(to_document(
        entry.ring, entry.table, entry.smatrix)), encoding="utf-8")
"""


def write_documents(dest: Path, keys) -> dict[str, Path]:
    """The working tree's document of each key, written under `dest`."""
    subprocess.run([sys.executable, "-c", WRITE_DOCUMENTS, str(dest), *keys],
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                   check=True)
    return {key: dest / (key.replace("*", "_x_") + ".json") for key in keys}


def run_op(src: Path, argv) -> tuple[float, int, str, float]:
    """(seconds, exit code, stdout sha256, peak RSS in MB) of one process.

    A child's `ru_maxrss` is at least the peak of this process at the
    spawn, because Linux carries the high-water mark of the memory image
    across `exec`.  So this process builds no catalog entry
    (`write_documents` runs in a child) and hashes stdout in chunks: it
    peaks at about 19 MB, what a `verify trivial` child takes, and a
    larger figure is the child's own."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "fuscat", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    digest = hashlib.sha256()
    with proc.stdout:
        for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
            digest.update(chunk)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return seconds, proc.returncode, digest.hexdigest(), usage.ru_maxrss / 1024


def summary(times, rss, outcome) -> dict:
    """Per key: median, quartiles, repeats, times, peak RSS, exit code,
    stdout sha256."""
    out = {}
    for key, seconds in times.items():
        code, digest = outcome[key]
        q1, median, q3 = statistics.quantiles(seconds, n=4)
        out[key] = {"median_s": round(median, 4),
                    "quartiles_s": [round(q1, 4), round(q3, 4)],
                    "repeats": len(seconds),
                    "times_s": [round(t, 4) for t in seconds],
                    "peak_rss_median_mb": round(statistics.median(rss[key]), 1),
                    "peak_rss_mb": [round(m, 1) for m in rss[key]],
                    "exit": code, "stdout_sha256": digest}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare the working tree against")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "docs").mkdir()
        docs = write_documents(tmp / "docs", LADDER + VALIDATE_EXTRA)
        ops = [("verify", key, ["verify", key, "--all-subcategories",
                                "--format", "json"]) for key in LADDER]
        ops += [("verify_default", key, ["verify", key, "--format", "json"])
                for key in VALIDATE_EXTRA]
        ops += [("validate", key, ["validate", str(path)])
                for key, path in docs.items()]
        sides = {
            "base": {"src": extract_src(args.base, tmp / "base"),
                     "git_sha": git("rev-parse", args.base), "dirty": False},
            "change": {"src": ROOT / "src", "git_sha": git("rev-parse", "HEAD"),
                       "dirty": bool(git("status", "--porcelain", "src"))},
        }
        times = {name: {cmd: {} for cmd in COMMANDS} for name in sides}
        rss = {name: {cmd: {} for cmd in COMMANDS} for name in sides}
        outcome = {name: {cmd: {} for cmd in COMMANDS} for name in sides}
        for name, side in sides.items():
            side["src_sha256"] = tree_sha256(side["src"])
            subprocess.run([sys.executable, "-m", "compileall", "-q", str(side["src"])],
                           check=True)
            for cmd, key, op in ops:
                _, code, digest, _ = run_op(side["src"], op)
                outcome[name][cmd][key] = (code, digest)
                times[name][cmd][key] = []
                rss[name][cmd][key] = []
        for r in range(ROUNDS):
            order = list(sides) if r % 2 == 0 else list(reversed(sides))
            for cmd, key, op in ops:
                for name in order:
                    seconds, code, digest, mb = run_op(sides[name]["src"], op)
                    if (code, digest) != outcome[name][cmd][key]:
                        print(f"{name} {cmd} {key}: output changed between runs",
                              file=sys.stderr)
                        return 1
                    times[name][cmd][key].append(seconds)
                    rss[name][cmd][key].append(mb)
            print(f"round {r + 1}/{ROUNDS} done", file=sys.stderr)

    runs = {}
    for name, side in sides.items():
        runs[name] = {"git_sha": side["git_sha"], "dirty": side["dirty"],
                      "src_sha256": side["src_sha256"]}
        for cmd in COMMANDS:
            keys = summary(times[name][cmd], rss[name][cmd],
                           outcome[name][cmd])
            runs[name][f"{cmd}_median_s"] = round(
                sum(k["median_s"] for k in keys.values()), 4)
            runs[name][cmd] = keys
    delta = {cmd: {key: {"change_over_base": round(
                             runs["change"][cmd][key]["median_s"]
                             / runs["base"][cmd][key]["median_s"], 3),
                         "change_won_pairs": sum(
                             c < b for b, c in zip(times["base"][cmd][key],
                                                   times["change"][cmd][key])),
                         "outputs_match": (outcome["base"][cmd][key]
                                           == outcome["change"][cmd][key])}
                   for key in times["base"][cmd]}
             for cmd in COMMANDS}
    result = {
        "commands": COMMANDS,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "rounds": ROUNDS,
        "ladder": list(LADDER),
        "validate_extra": list(VALIDATE_EXTRA),
        "runs": runs,
        "delta": delta,
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    for cmd in COMMANDS:
        for key, d in delta[cmd].items():
            base, change = runs["base"][cmd][key], runs["change"][cmd][key]
            print(f"{cmd:>14} {key:>16}: {base['median_s']:8.3f} s -> "
                  f"{change['median_s']:8.3f} s  "
                  f"{base['peak_rss_median_mb']:6.1f} -> "
                  f"{change['peak_rss_median_mb']:6.1f} MB  "
                  f"won {d['change_won_pairs']:2d}/{ROUNDS}  "
                  f"outputs {'match' if d['outputs_match'] else 'DIFFER'}")
    return 0 if all(d["outputs_match"] for per in delta.values()
                    for d in per.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
