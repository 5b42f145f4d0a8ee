#!/usr/bin/env python3
"""End-to-end wall time of `fuscat verify`, `fuscat report` and `fuscat
validate` over the north-star key ladder and three large keys.

Usage (from the root of a git checkout):

    python3 scripts/bench.py --base REV --out BENCH_<n>.json

Each op is one whole process, so cold import and output are counted.  There
are five kinds of op: `python -m fuscat verify KEY --all-subcategories
--format json` for each ladder key, the same with `--format md` for each
ladder key, which times the Markdown writer, `python -m fuscat verify KEY
--format json` (the default pool: the unit and the whole ring) for each key
of VALIDATE_EXTRA, whose ranks exceed the enumeration bound of
`--all-subcategories`, `python -m fuscat report KEY` for each ladder key,
the only command that prints the Hecke constants, and `python -m fuscat
validate DOC` for each ladder key and for VALIDATE_EXTRA.  The documents
are written once, before any op runs, from the working tree's catalog entries
(`serialize.to_document`), into the directory `docs` under a temporary
one that both sides read.  Every op runs in the temporary directory and
`validate` is given the relative path `docs/KEY.json`, so the path it
prints, and so its stdout sha256, is the same on both sides, in every run
and in every `BENCH_<n>.json`.  Two source
trees run: `src/` of revision REV (extracted with `git archive` into a
temporary directory) and `src/` of the working tree.  Each side's `src/` is
byte-compiled first, so that no timed process compiles modules (under
PYTHONDONTWRITEBYTECODE only a tree that already held bytecode would be
spared that cost).  Each side then runs every op once untimed, then ROUNDS
rounds over the ops, alternating which side runs first, so each op gets
ROUNDS pairs.  Before each round the script itself times a fixed
reference computation once per side, in that round's order: the Fraction
workload of perfbench's `reference_seconds`, copied here as
`reference_seconds`.  Its times show how the host's speed drifted over the
rounds, which the op times alone cannot tell from a change in the code.

The JSON file records, per command, side and key, the median and quartiles,
the repeat count, every time, every peak RSS and their median, the exit code
and the sha256 of the stdout;
per command and key, the ratio of the medians, the pairs the change won and
whether the outputs match; and the Python version, the CPU count, the git
sha of each side, the reference times of each side and their median, and a
sha256 over the files of the `src/` it ran, which
names the timed code also when the working tree is not committed, with
the line count of that `src/` and its code lines: the lines that hold a
token of code, so not blank, comment or docstring lines (`code_lines`).  A
speedup counts only where the outputs match, the change wins at least nine
pairs in ten, and the medians differ by more than the base's interquartile
range.  The peak RSS of a run is the child's own `VmHWM`, which a launcher
(`LAUNCHER`) reads from `/proc/self/status` as the child exits.
`ru_maxrss` would not do: Linux carries the high-water mark across `exec`,
so a child's `ru_maxrss` is at least this script's own peak at the spawn.
"""

import argparse
import ast
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
import tokenize
from fractions import Fraction
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
    "verify_md": "python -m fuscat verify KEY --all-subcategories --format md",
    "verify_default": "python -m fuscat verify KEY --format json",
    "report": "python -m fuscat report KEY",
    "validate": "python -m fuscat validate DOC, DOC the working tree's "
                "to_document of KEY",
}


_REF_TERMS = [Fraction(i, 2 * i + 1) for i in range(1, 24)]


def reference_seconds() -> float:
    """Time a fixed Fraction workload, the kind of arithmetic fuscat does."""
    start = time.perf_counter()
    for _ in range(10):
        acc = [Fraction(0)] * (2 * len(_REF_TERMS))
        for i, x in enumerate(_REF_TERMS):
            for j, y in enumerate(_REF_TERMS):
                acc[i + j] += x * y
    return time.perf_counter() - start


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


def code_lines(text: str) -> int:
    """The lines of Python source `text` that hold a token other than a
    comment, newline or indent, less those of docstrings (the string
    statement that opens a module, class or function body)."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
              tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in layout:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def src_size(src: Path) -> dict:
    """The lines and the code lines (`code_lines`) of the `.py` files
    under `src`."""
    texts = [p.read_text(encoding="utf-8") for p in sorted(src.rglob("*.py"))]
    return {"src_lines": sum(t.count("\n") for t in texts),
            "src_code_lines": sum(map(code_lines, texts))}


# Writes the working tree's document of each key named in argv[2:] under
# the directory argv[1]; it runs in a child, with the working tree's `src/`
# on its path.
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


# Runs `python -m fuscat ARGS` as `python -c LAUNCHER FD ARGS`: the same
# module as `__main__` with the same argv, so stdout and the exit code are
# those of `-m`.  At exit it writes the process's peak RSS, `VmHWM` in KiB,
# to the inherited pipe FD.
LAUNCHER = """
import atexit, os, runpy, sys
fd = int(sys.argv.pop(1))

def peak():
    with open("/proc/self/status", encoding="ascii") as status:
        kib = next(line.split()[1] for line in status
                   if line.startswith("VmHWM:"))
    os.write(fd, kib.encode())

atexit.register(peak)
runpy.run_module("fuscat", run_name="__main__", alter_sys=True)
"""


def run_op(src: Path, argv, cwd: Path) -> tuple[float, int, str, float]:
    """(seconds, exit code, stdout sha256, peak RSS in MB) of one process
    run in `cwd`, the peak being the child's own (see `LAUNCHER`)."""
    env = dict(os.environ, PYTHONPATH=str(src))
    read_fd, write_fd = os.pipe()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", LAUNCHER, str(write_fd),
                             *argv], cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, pass_fds=(write_fd,))
    os.close(write_fd)
    digest = hashlib.sha256()
    with proc.stdout:
        for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
            digest.update(chunk)
    proc.wait()
    seconds = time.perf_counter() - start
    with os.fdopen(read_fd, "rb") as peak:
        kib = int(peak.read())
    return seconds, proc.returncode, digest.hexdigest(), kib / 1024


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
        ops = [(cmd, key, ["verify", key, "--all-subcategories",
                           "--format", fmt])
               for cmd, fmt in (("verify", "json"), ("verify_md", "md"))
               for key in LADDER]
        ops += [("verify_default", key, ["verify", key, "--format", "json"])
                for key in VALIDATE_EXTRA]
        ops += [("report", key, ["report", key]) for key in LADDER]
        ops += [("validate", key, ["validate", str(path.relative_to(tmp))])
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
        reference = {name: [] for name in sides}
        for name, side in sides.items():
            side["src_sha256"] = tree_sha256(side["src"])
            side["size"] = src_size(side["src"])
            subprocess.run([sys.executable, "-m", "compileall", "-q", str(side["src"])],
                           check=True)
            for cmd, key, op in ops:
                _, code, digest, _ = run_op(side["src"], op, tmp)
                outcome[name][cmd][key] = (code, digest)
                times[name][cmd][key] = []
                rss[name][cmd][key] = []
        for r in range(ROUNDS):
            order = list(sides) if r % 2 == 0 else list(reversed(sides))
            for name in order:
                reference[name].append(reference_seconds())
            for cmd, key, op in ops:
                for name in order:
                    seconds, code, digest, mb = run_op(sides[name]["src"],
                                                       op, tmp)
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
                      "src_sha256": side["src_sha256"], **side["size"],
                      "reference_median_s": round(
                          statistics.median(reference[name]), 5),
                      "reference_s": [round(t, 5) for t in reference[name]]}
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
    print(f"src: {runs['base']['src_lines']} -> {runs['change']['src_lines']} "
          f"lines, {runs['base']['src_code_lines']} -> "
          f"{runs['change']['src_code_lines']} code lines")
    print("reference: " + ", ".join(
        f"{name} median {runs[name]['reference_median_s'] * 1e3:.2f} ms "
        f"(rounds {min(reference[name]) * 1e3:.2f}-"
        f"{max(reference[name]) * 1e3:.2f})" for name in sides))
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
