"""Command-line front end: validate, verify, report, list-builtins.

Exit codes: 0 success, 1 validation/check failure, 2 usage or schema error.
``validate`` prints an advisory numeric cross-check with seed 0, which never
sets the exit code; every verdict is exact.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .catalog import BUILTIN_KEYS, builtin, entry_summary
from .chartab import MATCH_TOLERANCE, characters_numeric, match_numeric_columns
from .cosets import hecke_constants
from .errors import FuscatError, SchemaError, UnknownKey, ValidationError
from .exactnum import CycNum
from .fusion import check_subcategory, enumerate_subcategories
from .serialize import from_document, load_document
from .verify import (Target, _braces, _show, render_json_to,
                     render_markdown, run_checks)

_INTEGRALITY_IDS = ("cor-3.9", "cor-4.16", "thm-1.1", "thm-1.3", "rem-4.25")


def _resolve_target(key_or_path: str) -> Target:
    """Catalog key first; falls back to a JSON document on disk."""
    try:
        return builtin(key_or_path)
    except UnknownKey:
        pass
    if not os.path.exists(key_or_path):
        raise UnknownKey(f"'{key_or_path}' is neither a catalog key nor a file")
    ring, table, smatrix = from_document(load_document(key_or_path))
    return Target(key_or_path, ring, table, smatrix)


def cmd_validate(args) -> int:
    doc = load_document(args.path)
    ring, table, smatrix = from_document(doc)
    print(f"ring: rank {ring.rank}, axioms hold")
    if ring.fpdims is not None:
        print("dimensions: exact values verified")
    if table is not None:
        print("char_table: columns are distinct algebra maps")
        try:
            match_numeric_columns(table, characters_numeric(ring))
            outcome = f"matches within {MATCH_TOLERANCE}"
        except (FuscatError, ArithmeticError, ValueError) as exc:
            outcome = f"inconclusive: {exc}"
        print(f"char_table: numeric cross-check {outcome}")
    if smatrix is not None:
        print("smatrix: symmetric with character rows")
    print(f"{args.path}: valid")
    return 0


def cmd_verify(args) -> int:
    target = _resolve_target(args.target)
    if args.all_subcategories:
        pool = enumerate_subcategories(target.ring)
    elif args.subcategory is not None:
        members = _parse_members(args.subcategory)
        try:
            pool = [check_subcategory(target.ring, members)]
        except ValidationError as exc:
            raise SchemaError(f"--subcategory {args.subcategory} is not a "
                              f"subcategory of the target: {exc}")
    else:
        pool = None
    check_ids = args.checks.split(",") if args.checks is not None else None
    report = run_checks(target, subcategories=pool, check_ids=check_ids)
    if args.format == "json":
        render_json_to(report, sys.stdout)
    else:
        sys.stdout.write(render_markdown(report))
    return 0 if report.ok else 1


def _parse_members(text: str):
    try:
        return {int(part) for part in text.split(",") if part != ""}
    except ValueError:
        raise SchemaError(f"--subcategory expects comma-separated integers, "
                          f"got {text!r}")


def _blocks_str(blocks) -> str:
    return " ".join(map(_braces, blocks))


def cmd_report(args) -> int:
    target = _resolve_target(args.target)
    ring, table = target.ring, target.table
    out = [f"# report: {target.label}", ""]
    out.append(f"rank: {ring.rank}")
    out.append(f"names: {', '.join(ring.names)}")
    out.append(f"global dimension: {_show(target.global_dim)}")
    if ring.fpdims is not None:
        out.append("dimensions: " + ", ".join(_show(d) for d in ring.fpdims))
    out.append("")

    if table is not None:
        out.append("## class dimensions")
        out.append("")
        out.append("| column | dim(C^j) |")
        out.append("|---|---|")
        for j, c in enumerate(table.class_dims):
            out.append(f"| {j} | {_show(c)} |")
        out.append("")

    if target.smatrix is not None and table is not None:
        center = target.center
        fibers = sorted(b for b, _ in target.matched_groups(target.whole).values())
        out.append("## matching analysis")
        out.append("")
        out.append(f"center: {_braces(center.members)}")
        out.append(f"M: {list(target.smatrix.M)}")
        out.append(f"fibers: {_blocks_str(fibers)}")
        out.append("cosets wrt center: " + _blocks_str(
            target.cosets(center).blocks))
        out.append("")

    out.append("## coset decompositions and block structure constants")
    subs = enumerate_subcategories(ring)
    for sub in subs:
        dec = target.cosets(sub)
        out.append("")
        out.append(f"### D = {_braces(sub.members)}")
        out.append("")
        out.append(f"blocks: {_blocks_str(dec.blocks)}")
        out.append(f"representatives: {list(dec.reps)}")
        H = hecke_constants(target, sub)
        rows = ["| m | n | p | H |", "|---|---|---|---|"]
        for m_i, plane in enumerate(H):
            for n_i, row in enumerate(plane):
                for p_i, v in enumerate(row):
                    if not v.is_zero():
                        rows.append(f"| {m_i} | {n_i} | {p_i} | {_show(v)} |")
        out.extend(rows)
    out.append("")

    report = run_checks(target, subcategories=subs,
                        check_ids=list(_INTEGRALITY_IDS))
    out.append("## integrality values")
    out.append("")
    out.append("| check | params | value | verdict |")
    out.append("|---|---|---|---|")
    any_failed = False
    for c in report.checks:
        if c.passed is None:
            verdict = f"skipped: {c.skipped_reason}"
        elif c.passed:
            verdict = c.detail or "pass"
        else:
            verdict = "FAIL"
            any_failed = True
        params = ", ".join(f"{k}={v}" for k, v in sorted(c.params.items()))
        value = _show(c.lhs) if isinstance(c.lhs, CycNum) else str(c.lhs)
        out.append(f"| {c.id} | {params} | {value} | {verdict} |")
    sys.stdout.write("\n".join(out) + "\n")
    return 1 if any_failed else 0


def cmd_list_builtins(args) -> int:
    for key in BUILTIN_KEYS:
        info = entry_summary(builtin(key))
        print(f"{info['key']}: rank {info['rank']}, FPdim {info['fpdim']:.6g}, "
              f"center size {info['center_size']}, {info['class']}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; it holds no command function, so
    `main` looks each one up when it is called."""
    parser = argparse.ArgumentParser(
        prog="fuscat",
        description="Exact verification of fusion-ring and premodular "
                    "identities on built-in or user-supplied data.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser("validate",
                              help="validate a JSON document on disk")
    p.add_argument("path", help="path to a ring document")

    p = subparsers.add_parser("verify",
                              help="run identity checks on a catalog key or "
                                   "JSON document")
    p.add_argument("target", help="catalog key or path")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--subcategory",
                       help="comma-separated member indices of one "
                            "subcategory to use for parameterized checks")
    group.add_argument("--all-subcategories", action="store_true",
                       help="run parameterized checks over every subcategory")
    p.add_argument("--checks", help="comma-separated check ids to run")
    p.add_argument("--format", choices=("json", "md"), default="md")

    p = subparsers.add_parser("report",
                              help="render coset, block, matching, and "
                                   "integrality data for a target")
    p.add_argument("target", help="catalog key or path")

    subparsers.add_parser("list-builtins",
                          help="list catalog keys with basic invariants")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (SchemaError, UnknownKey) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FuscatError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
