#!/usr/bin/env python3
"""fuscat benchmark: in-process CLI traffic on three workloads.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``WORKLOADS``):

* ``catalog-sweep``   -- ``fuscat verify KEY --all-subcategories --format
  json`` for each of the 13 listed catalog keys;
* ``product-subcats`` -- the same op on five rational-field Deligne products
  with many subcategories;
* ``doc-ingest``      -- ``fuscat validate PATH`` on nine documents written in
  set-up with ``to_document`` and relabelled by the seed.

A run is one process with no threads and no subprocesses.  It sets up
``SETUPS`` times (each set-up re-imports fuscat, so every module-level cache
starts empty, and builds the targets), then runs whole passes over the
workload's ops in a seed-shuffled order until ``--seconds`` have passed and
at least ``min_passes`` passes are done.  Every op's stdout and exit code is
checked against ``expected.json``, pinned when the benchmark was defined.
Times are scaled by a reference workload timed between steps, so that swings
in a shared host's speed cancel (see ``Calibration``).

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a separate traced run (one
traced set-up, one untraced pass, then traced passes).  The line before it
records the environment and the run's shape.  Exit status is 0 when the run
completed, whatever the verdicts, and 2 when fuscat cannot be run.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import fnmatch  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402  -- most of fuscat's cold import, timed once

NUMPY_IMPORT_S = time.perf_counter() - _T0

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
OUT = HERE / "_out"
EXPECTED = HERE / "expected.json"

sys.path.insert(0, str(HERE))
from tracer import Tracer  # noqa: E402

SETUPS = 3


@dataclass(frozen=True)
class Workload:
    kind: str            # "verify" or "validate"
    keys: tuple
    min_passes: int      # whole passes a run makes at least

    @property
    def tail_pct(self) -> int:
        """Highest percentile that leaves at least ten ops beyond it in the
        smallest run; fixed per workload so extra passes do not move it."""
        n = self.min_passes * len(self.keys)
        return max(0, math.floor(100 * (n - 10) / n))


# The 13 keys ``scripts/run_full_verification.py`` sweeps.  Most of the time
# is integrality on su2k-2/3/4; the other nine take under 0.4 s each, so fixed
# per-op costs show too.
SWEEP_KEYS = ("trivial", "svec", "ising", "fib", "rep-s3", "su2k-2", "su2k-3",
              "su2k-4", "pointed-z2-q1", "pointed-z3-q1", "pointed-z4-q1",
              "pointed-z4-q2", "ising*svec")
# Rational-field products with 7 to 16 subcategories: Hecke constants and
# recomputed supports/cosets dominate, integrality is a few per cent.
PRODUCT_KEYS = ("svec*svec*svec", "pointed-z4-q2*svec", "pointed-z4-q1*svec",
                "rep-s3*svec", "rep-s3*pointed-z2-q1")
# Write-side path: parse and the three validators with CycNum arithmetic up
# to phi = 16; no checks and no integrality.  su2k-5/6 verify runs are left
# out everywhere: one pass takes 29 s and 103 s.
DOC_KEYS = ("trivial", "ising", "su2k-4", "su2k-6", "su2k-8", "su2k-10",
            "ising*ising", "su2k-4*svec", "pointed-z4-q1*pointed-z4-q2")

WORKLOADS = {
    "catalog-sweep": Workload("verify", SWEEP_KEYS, min_passes=2),
    "product-subcats": Workload("verify", PRODUCT_KEYS, min_passes=3),
    "doc-ingest": Workload("validate", DOC_KEYS, min_passes=6),
}

# Per-layer groups of traced function names (module.function, fnmatch).
LAYERS = {
    "exactnum.integrality": ("exactnum.is_algebraic_integer",
                             "exactnum.integrality_witness",
                             "exactnum.minimal_polynomial",
                             "exactnum.characteristic_polynomial"),
    "exactnum.charpoly": ("exactnum.characteristic_polynomial",),
    "cosets.hecke": ("cosets.hecke_*",),
    "cosets.coset_partition": ("cosets.coset_partition",),
    "cosets.checks": ("cosets.verify_*",),
    "chartab.support_JD": ("chartab.support_JD",),
    "chartab.validate": ("chartab.validate_character_table",),
    "chartab.numeric": ("chartab.characters_numeric",
                        "chartab.match_numeric_columns"),
    "fusion.validate": ("fusion.validate_fusion_ring",),
    "fusion.global_fpdim": ("fusion.global_fpdim",),
    "premod.centralizer": ("premod.centralizer",),
    "premod.m_map": ("premod.m_map",),
    "premod.validate": ("premod.validate_smatrix",),
    "premod.checks": ("premod.verify_*",),
    "serialize.parse": ("serialize.load_document", "serialize.from_document",
                        "serialize.cycnum_from_json"),
    "verify.run_checks": ("verify.run_checks",),
    "verify.render": ("verify.render_*", "verify.report_to_json"),
    "cli.main": ("cli.main", "cli.cmd_*"),
    "catalog.build": ("catalog.builtin", "catalog.product"),
}


class SetupError(Exception):
    """fuscat could not be imported from this checkout."""


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def import_fuscat():
    """Import fuscat from ``src/`` with every fuscat module loaded afresh."""
    if not (SRC / "fuscat" / "__init__.py").is_file():
        raise SetupError(f"no fuscat package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules
                 if n == "fuscat" or n.startswith("fuscat.")]:
        del sys.modules[name]
    gc.collect()
    cli = importlib.import_module("fuscat.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"fuscat was imported from {cli.__file__}")
    return cli, sys.modules["fuscat.catalog"], sys.modules["fuscat.serialize"]


def relabel(doc: dict, perm) -> dict:
    """Move basis element i to perm[i] in every field of a ring document."""
    r = doc["rank"]
    inv = [0] * r
    for i, p in enumerate(perm):
        inv[p] = i
    out = dict(doc)
    out["names"] = [doc["names"][inv[a]] for a in range(r)]
    out["dual"] = [perm[doc["dual"][inv[a]]] for a in range(r)]
    out["tensor"] = [[[doc["tensor"][inv[a]][inv[b]][inv[c]] for c in range(r)]
                      for b in range(r)] for a in range(r)]
    if "fpdims" in doc:
        out["fpdims"] = [doc["fpdims"][inv[a]] for a in range(r)]
    if "char_table" in doc:
        out["char_table"] = [doc["char_table"][inv[a]] for a in range(r)]
    if "smatrix" in doc:
        out["smatrix"] = [[doc["smatrix"][inv[a]][inv[b]] for b in range(r)]
                          for a in range(r)]
    return out


def _slug(key: str) -> str:
    return key.replace("*", "_x_")


def build_ops(workload: Workload, keys, seed: int, catalog, serialize):
    """Make the targets ready; return [(key, argv)], one per op of a pass.

    Documents get a seeded permutation of their non-unit basis elements.
    """
    ops = []
    for key in keys:
        entry = catalog.builtin(key)
        if workload.kind == "verify":
            ops.append((key, ["verify", key, "--all-subcategories",
                              "--format", "json"]))
            continue
        perm = list(range(1, entry.ring.rank))
        random.Random(f"{seed}:{key}").shuffle(perm)
        doc = serialize.to_document(entry.ring, entry.table, entry.smatrix)
        path = WORK / f"{_slug(key)}.json"
        path.write_text(serialize.dump_document(relabel(doc, [0] + perm)),
                        encoding="utf-8")
        ops.append((key, ["validate", str(path)]))
    return ops


# ---------------------------------------------------------------------------
# ops and their checks
# ---------------------------------------------------------------------------

def run_op(main, argv):
    """(seconds, exit code, stdout) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return time.perf_counter() - start, code, out.getvalue()


def check_op(workload: Workload, key, argv, code, stdout, expected) -> bool:
    if code != 0:
        return False
    if workload.kind == "verify":
        digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
        return digest == expected["verify"].get(key)
    lines = [line.format(path=argv[1]) for line in expected["validate"][key]]
    return stdout.splitlines() == lines


def records_of(workload: Workload, stdout: str) -> int:
    if workload.kind == "verify":
        return len(json.loads(stdout)["checks"])
    return len(stdout.splitlines())


def nearest_rank(sorted_values, pct: float) -> float:
    idx = max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)
    return sorted_values[idx]


# ---------------------------------------------------------------------------
# host-speed calibration
# ---------------------------------------------------------------------------

#: Seconds the reference takes on the host the baseline was taken on (a
#: 2-core VM that runs it in 17-26 ms as its neighbours come and go).
REF_SECONDS = 0.02

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


class Calibration:
    """Scales timed steps to a host that runs the reference in REF_SECONDS.

    A shared host's speed swings by up to 1.5x over tens of seconds, so raw
    times of the same work spread by 20-40% between runs.  The reference is
    timed before the first step and after every step; a step is scaled by
    the mean of the reference times on either side of it.
    """

    def __init__(self):
        self.last = reference_seconds()
        self.refs = [self.last]

    @staticmethod
    def scale(seconds: float, ref: float) -> float:
        return seconds * REF_SECONDS / ref

    def calibrate(self, seconds: float) -> float:
        """Calibrated length of the step that just ended."""
        ref = reference_seconds()
        around = (self.last + ref) / 2
        self.last = ref
        self.refs.append(ref)
        return self.scale(seconds, around)


# ---------------------------------------------------------------------------
# per-layer analysis of a trace
# ---------------------------------------------------------------------------

def layer_totals(spans, select):
    """Per layer: calls (outermost within the layer), self seconds, and the
    distinct (op, detail) pairs, over the spans whose op ``select`` accepts."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op, detail in spans:
        if parent >= 0:
            child[parent] += end - start
    memo = {}

    def layers_of(name):
        if name not in memo:
            memo[name] = [layer for layer, pats in LAYERS.items()
                          if any(fnmatch.fnmatchcase(name, p) for p in pats)]
        return memo[name]

    totals = {layer: {"calls": 0, "self_s": 0.0, "keys": set()}
              for layer in LAYERS}
    for i, (name, start, end, parent, op, detail) in enumerate(spans):
        if not select(op):
            continue
        parent_layers = layers_of(spans[parent][0]) if parent >= 0 else ()
        for layer in layers_of(name):
            t = totals[layer]
            t["self_s"] += (end - start) - child[i]
            if layer not in parent_layers:
                t["calls"] += 1
            if detail is not None:
                t["keys"].add((op, detail))
    return totals


def per_layer_metrics(tracer, targets, passes, counts_setup, counts_end,
                      import_s, untraced_wall, traced_walls):
    """Values for one traced set-up plus one pass (the mean over passes)."""
    setup = layer_totals(tracer.spans, lambda op: op < 0)
    ops = layer_totals(tracer.spans, lambda op: op >= 0)

    def total(layer, field):
        a, b = setup[layer], ops[layer]
        if field == "distinct":
            return len(a["keys"]) + len(b["keys"]) / passes
        return a[field] + b[field] / passes

    def count(key):
        return counts_setup[key] + (counts_end[key] - counts_setup[key]) / passes

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in ("exactnum.integrality", "exactnum.charpoly",
                  "cosets.coset_partition", "chartab.support_JD",
                  "fusion.global_fpdim", "premod.centralizer", "premod.m_map"):
        m[f"{layer}.calls"] = (total(layer, "calls"), "count")
    for layer in ("exactnum.integrality", "cosets.hecke", "chartab.support_JD",
                  "premod.m_map", "fusion.validate", "chartab.validate",
                  "premod.validate", "serialize.parse", "chartab.numeric",
                  "catalog.build", "verify.run_checks", "verify.render",
                  "cli.main", "cosets.checks", "premod.checks"):
        m[f"{layer}.self_s"] = (total(layer, "self_s"), "s")
    m["exactnum.mul.calls"] = (count("mul"), "count")
    m["exactnum.inverse.calls"] = (count("inverse"), "count")
    m["exactnum.charpoly_per_integrality"] = (ratio(
        m["exactnum.charpoly.calls"][0], m["exactnum.integrality.calls"][0]),
        "ratio")
    for layer in ("cosets.coset_partition", "chartab.support_JD"):
        distinct = total(layer, "distinct")
        m[f"{layer}.distinct"] = (distinct, "count")
        m[f"{layer}.repeat_ratio"] = (ratio(m[f"{layer}.calls"][0], distinct),
                                      "ratio")
    m["bench.targets"] = (float(targets), "count")
    m["fusion.global_fpdim.per_target"] = (
        ratio(m["fusion.global_fpdim.calls"][0], targets), "ratio")
    m["cli.import_s"] = (import_s, "s")
    traced_wall = statistics.fmean(traced_walls)
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.spans_per_pass"] = (
        sum(1 for s in tracer.spans if s[4] >= 0) / passes, "count")
    return m


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------

def _environment(seed: int) -> dict:
    head = None
    git = ROOT / ".git"
    if (git / "HEAD").is_file():
        ref = (git / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            ref_file = git / ref[5:]
            head = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            head = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "fuscat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": head,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run(name: str, seed: int, seconds: float, trace: bool, *,
        keys=None, expected=None, setups=None, min_passes=None):
    """Run one workload; return (result line dict, info dict)."""
    workload = WORKLOADS[name]
    keys = tuple(keys or workload.keys)
    if expected is None:
        expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    setups = 1 if trace else (setups or SETUPS)
    min_passes = min_passes or workload.min_passes
    os.environ["FUSCAT_SEED"] = "0"
    WORK.mkdir(exist_ok=True)

    clock = Calibration()
    numpy_s = clock.scale(NUMPY_IMPORT_S, clock.last)
    tracer = Tracer() if trace else None
    setup_raw, setup_cal = [], []
    import_s = None
    for _ in range(setups):
        start = time.perf_counter()
        cli, catalog, serialize = import_fuscat()
        if import_s is None:
            import_s = NUMPY_IMPORT_S + time.perf_counter() - start
        if tracer is not None:
            tracer.install()
        try:
            ops = build_ops(workload, keys, seed, catalog, serialize)
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_raw.append(time.perf_counter() - start)
        setup_cal.append(clock.calibrate(setup_raw[-1]))

    rng = random.Random(seed)
    durations, pass_walls, records = [], [], {}
    by_key = {key: [] for key, _ in ops}
    attempted = failed = 0
    failures = []
    untraced_wall = None
    counts_setup = dict(tracer.counts) if tracer else None

    def one_pass():
        """Run every op once; return the pass's calibrated wall time."""
        nonlocal attempted, failed
        order = list(ops)
        rng.shuffle(order)
        wall = 0.0
        for key, argv in order:
            if tracer is not None:
                tracer.op = attempted
            attempted += 1
            start = time.perf_counter()
            try:
                dt, code, stdout = run_op(cli.main, argv)
                ok = check_op(workload, key, argv, code, stdout, expected)
                if ok and key not in records:
                    records[key] = records_of(workload, stdout)
            except Exception as exc:  # a crashing op is a failed op
                dt, ok = time.perf_counter() - start, False
                code = f"{type(exc).__name__}: {exc}"
            if not ok:
                failed += 1
                failures.append({"key": key, "exit": code})
            by_key[key].append(dt)
            durations.append(clock.calibrate(dt))
            wall += durations[-1]
        return wall

    # A traced run counts its untraced pass in --seconds: the per-layer
    # values need only one traced pass.
    begin = time.perf_counter()
    if tracer is not None:
        untraced_wall = one_pass()
        durations.clear()
        for seconds_of_key in by_key.values():
            seconds_of_key.clear()
        min_passes = 1
        tracer.install()
    try:
        while True:
            pass_walls.append(one_pass())
            if (len(pass_walls) >= min_passes
                    and time.perf_counter() - begin >= seconds):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()

    durations.sort()
    raw = sorted(x for xs in by_key.values() for x in xs)
    info = {
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        "env": _environment(seed),
        "passes": len(pass_walls),
        "op_count": len(durations),
        "op_tail_pct": workload.tail_pct,
        "failed_frac": failed / attempted,
        "failures": failures[:20],
        "records_per_target": records,
        "reference_s": {"median": statistics.median(clock.refs),
                        "min": min(clock.refs), "max": max(clock.refs),
                        "count": len(clock.refs)},
        "uncalibrated": {
            "setup_s": NUMPY_IMPORT_S + statistics.median(setup_raw),
            "wall_s": sum(raw) / len(pass_walls),
            "op_p50_s": statistics.median(raw),
            "op_tail_s": nearest_rank(raw, workload.tail_pct),
        },
        "setup_samples_s": setup_raw,
        "op_seconds_by_target": by_key,
    }
    if tracer is None:
        metrics = {
            "setup_s": (numpy_s + statistics.median(setup_cal), "s"),
            "wall_s": (statistics.fmean(pass_walls), "s"),
            "op_p50_s": (statistics.median(durations), "s"),
            "op_tail_s": (nearest_rank(durations, workload.tail_pct), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }
    else:
        metrics = per_layer_metrics(
            tracer, len(keys), len(pass_walls), counts_setup,
            dict(tracer.counts), import_s, untraced_wall, pass_walls)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{name}.jsonl"
        tracer.flush(spans_path)
        info["spans_file"] = str(spans_path.relative_to(ROOT))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, info = run(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for metric, entry in result["metrics"].items():
        print(f"{metric:40s} {entry['value']:.6g} {entry['unit']}")
    print(f"{'failed_frac':40s} {info['failed_frac']:.6g} 1")
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
