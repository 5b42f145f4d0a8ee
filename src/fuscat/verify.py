"""Check orchestration: run registered identity checks on a target.

A target is a ring plus optional character table and symmetric matrix,
together with the derived data the checks read (global dimension, supports,
coset decompositions, centralizers, the Müger center, blocks, the matched
groups, the reciprocal of each divisor), each computed at most once per
target.  eq-3.1's integer form of the dimensions belongs to its kernel,
`cosets.hecke_closure`, which keeps it in the target's memo.
Every check has a stable string id and a row in the registry that names what
it requires and over what it ranges; checks whose inputs are missing, or whose
mathematical hypotheses fail, are reported as skipped with a reason rather
than failed.  Records are ordered by check id, then by serialized parameters,
so reports are byte-identical across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from .chartab import CharacterTable, support_JD, verify_eq_2_4, verify_eq_2_7
from .cosets import (CosetDecomposition, coset_partition, verify_cor_3_9_1,
                     verify_cor_3_9_2, verify_eq_3_1, verify_eq_3_6,
                     verify_eq_3_7, verify_lemma_3_12, verify_prop_3_4)
from .errors import PreconditionFailed, UnknownKey
from .exactnum import CycNum
from .fusion import (FusionRing, Subcategory, global_fpdim, pointed_part,
                     restricted_blocks, sub_fpdim)
from .premod import (SMatrix, centralizer, m_map,
                     matched_groups, verify_cor_4_16, verify_cor_4_18,
                     verify_eq_4_3, verify_eq_4_15, verify_eq_4_20,
                     verify_prop_4_12, verify_prop_4_21, verify_rem_4_25,
                     verify_thm_1_1, verify_thm_1_3, verify_thm_4_6,
                     verify_thm_4_10)
from .reports import CheckRecord, _exact_key
from .serialize import advisory_complex, value_to_json

#: One line per check id: what equality or membership the check decides.
CHECK_LEGEND = {
    "eq-2.4": "table orthogonality: sum over i of alpha[i][l] alpha[i*][k] "
              "equals delta_{lk} FPdim(C)/dim(C^k)",
    "eq-2.7": "the class dimensions over the support J_D sum to "
              "FPdim(C)/FPdim(D)",
    "eq-3.1": "[X] R_D / d_X is the same element FPdim(D) e_t for every X in "
              "a block, and distinct blocks give distinct elements",
    "prop-3.4": "the block algebra has dimension |J_D| and associative, "
                "dual-symmetric structure constants",
    "eq-3.6": "first orthogonality over blocks: sum_t (FPdim(R_t)/d_{X_t}^2) "
              "alpha[X_t][k] alpha[X_{t*}][l] = delta_{kl} FPdim(C)/dim(C^k)",
    "eq-3.7": "second orthogonality over the support: sum_{k in J_D} "
              "dim(C^k) alpha[X_t][k] alpha[X_{s*}][k] = delta_{st} "
              "d_{X_t} d_{X_s} FPdim(C)/FPdim(R_t)",
    "cor-3.9": "divisibility: d_Z^2 FPdim(C)/FPdim(R_t) is an algebraic "
               "integer; for free pointed actions so is "
               "FPdim(C)/(FPdim(D) dim(C^j))",
    "lemma-3.12": "nonempty traces of the D-blocks on a subcategory A are "
                  "exactly the blocks of A with respect to A intersect D",
    "eq-4.3": "row/column compatibility of the matching: "
              "alpha[i][M(i')] d_{i'} = s_{i i'} for all pairs",
    "eq-4.15": "dim(D) dim(D') = dim(C) dim(D intersect center)",
    "eq-4.20": "every fiber of the matching has dimension "
               "dim(center) dim(C^j)",
    "eq-4.23": "dim(C^{M(Y)}) |G_Y| = d_Y^2 for the stabilizer G_Y of Y in "
               "the pointed center",
    "thm-4.6": "the central image of each basis character is its class sum "
               "rescaled by d_i/dim(C^{M(i)})",
    "thm-4.10": "the fibers of the matching are the cosets with respect to "
                "the center, and there are |J_2| of them",
    "prop-4.12": "the matched image of D is the support of its centralizer; "
                 "each matched group has dimension "
                 "dim(D intersect center) dim(C^j)",
    "cor-4.16": "dim(C) dim(center intersect D)/dim(R(D)_j) is an algebraic "
                "integer",
    "cor-4.18": "integral ring with squarefree global dimension: a "
                "subcategory meeting the center trivially is pointed",
    "prop-4.21": "matched groups inside D are the cosets of D by "
                 "D intersect center",
    "thm-1.1": "dim(C)/d_Y^2 is an algebraic integer for Y in a subcategory "
               "meeting the center trivially",
    "thm-1.3": "dim(C) dim(center)/d_Y^2 is an algebraic integer; with all "
               "stabilizers trivial so is dim(C)/(dim(center) d_Y^2)",
    "rem-4.25": "d_i^2 dim(C)/(dim(center) dim(C^{M(i)})) is an algebraic "
                "integer",
}

CHECK_IDS = tuple(sorted(CHECK_LEGEND))

_NO_TABLE = "target carries no character table"
_NO_SMATRIX = "target carries no symmetric matrix"


@dataclass(frozen=True)
class Target:
    """A ring with its optional table and matrix, and its derived data.

    Each derived quantity is computed on first use and kept for as long as
    the target lives; per-subcategory data are keyed by the members.  Build
    one target per command.
    """

    label: str
    ring: FusionRing
    table: Optional[CharacterTable] = None
    smatrix: Optional[SMatrix] = None
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def _once(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    @property
    def whole(self) -> Subcategory:
        """The whole ring, as a subcategory."""
        return Subcategory(tuple(range(self.ring.rank)))

    @property
    def global_dim(self) -> CycNum:
        """`dim` of the whole basis, computed by `global_fpdim` so that a
        ring without dimensions names the global dimension."""
        return self._once(("dim", self.whole.members),
                          lambda: global_fpdim(self.ring))

    @property
    def pointed(self) -> Subcategory:
        return self._once("pointed", lambda: pointed_part(self.ring))

    @property
    def center(self) -> Subcategory:
        """The Müger center C', the centralizer of the whole ring
        (`premod.m_map`)."""
        return self._once("center", lambda: m_map(self))

    def inverse(self, value: CycNum) -> CycNum:
        """1/value, computed once per command for each distinct divisor and
        kept under the value's `_exact_key`, which holds the conductor.

        Every check divides through here: ``a * target.inverse(b)`` is
        ``a / b`` (`CycNum.__truediv__` is ``a * b.inverse()``), the same
        value at the same lcm conductor in the same canonical form.  Each
        divisor of the checks is nonzero once the data are validated (the
        dimensions are positive and the codegrees nonzero), so the
        "inverse of zero" error never stands in for "division by zero".
        """
        return self._once(("inverse", *_exact_key(value)), value.inverse)

    def dim(self, members) -> CycNum:
        """FPdim of any index set in increasing order (a subcategory, block,
        matched group or the whole basis), keyed by its member tuple."""
        members = tuple(members)
        return self._once(("dim", members), lambda: sub_fpdim(self.ring, members))

    def support(self, sub: Subcategory) -> tuple[int, ...]:
        """J_D: the table columns equal to the dimensions on `sub`, which
        are where the integral of `sub` is 1 (`support_JD`)."""
        return self._once(("support", sub.members),
                          lambda: support_JD(self.ring, self.table, sub))

    def cosets(self, sub: Subcategory) -> CosetDecomposition:
        return self._once(("cosets", sub.members),
                          lambda: coset_partition(self, sub))

    def blocks(self, amb: Subcategory,
               inner: Subcategory) -> Sequence[tuple[int, ...]]:
        """The blocks of `amb` with respect to its subcategory `inner`; those
        of the whole ring are the cosets of `inner`."""
        if len(amb) == self.ring.rank:
            return self.cosets(inner).blocks
        return self._once(("blocks", amb.members, inner.members),
                          lambda: restricted_blocks(self.ring, amb.members,
                                                    inner.members))

    def meet(self, a: Subcategory, b: Subcategory) -> Subcategory:
        """The intersection of two subcategories, which holds the unit and
        every product and dual of its members, as each of them does.  It is
        not kept: what is derived from it is keyed by its members."""
        return Subcategory(tuple(sorted(set(a.members) & set(b.members))))

    def centralizer(self, sub: Subcategory) -> Subcategory:
        """D': the objects that centralize every member of `sub`, the
        preimage of J_D under the matching (`premod.centralizer`)."""
        return self._once(("centralizer", sub.members),
                          lambda: centralizer(self, sub))

    def center_trace(self, sub: Subcategory) -> Subcategory:
        """D intersect the Müger center."""
        return self.meet(sub, self.center)

    def matched_groups(self, sub: Subcategory) -> dict:
        """R(D)_j: the members of `sub` matched to column j, with their
        dimension, for each matched column j in increasing order."""
        return self._once(("matched_groups", sub.members),
                          lambda: matched_groups(self, sub))


@dataclass(frozen=True)
class VerificationReport:
    target: str
    subcategories: tuple[tuple[int, ...], ...]
    checks: tuple[CheckRecord, ...]

    @property
    def summary(self) -> dict:
        passed = sum(1 for c in self.checks if c.passed is True)
        failed = sum(1 for c in self.checks if c.passed is False)
        skipped = sum(1 for c in self.checks if c.passed is None)
        return {"passed": passed, "failed": failed, "skipped": skipped,
                "total": len(self.checks)}

    @property
    def ok(self) -> bool:
        return all(c.passed is not False for c in self.checks)


def _skip(check_id: str, params: dict, reason: str) -> CheckRecord:
    return CheckRecord(id=check_id, params=params, lhs=None, rhs=None,
                       passed=None, skipped_reason=reason)


def default_subcategories(ring: FusionRing) -> list[Subcategory]:
    """The two canonical subcategories: the unit and the whole ring."""
    subs = [Subcategory((0,))]
    if ring.rank > 1:
        subs.append(Subcategory(tuple(range(ring.rank))))
    return subs


# The C encoder behind ``json.dumps(obj, sort_keys=True)``, built once:
# `json.JSONEncoder.encode` builds a new one for every call.  It writes a dict
# as one chunk.
_compact = json.encoder.c_make_encoder(
    None, None, json.encoder.encode_basestring_ascii, None, ": ", ", ",
    True, False, True)


def _sort_key(record: CheckRecord):
    # params hold only JSON-native values (ints, strings and lists of them)
    return (record.id, _compact(record.params, 0)[0])


class _Row(NamedTuple):
    """One registry row: the ids its runner emits, what the runner needs
    ("", "table" or "smatrix"), what it ranges over ("once", "D" for each
    subcategory of the pool, "DA" for each ordered pair), the name of the
    runner in this module, and params fixed for all of its records."""

    ids: tuple[str, ...]
    needs: str
    scope: str
    runner: str
    extra: dict = {}


# Runners are looked up by name when they run, so a wrapper installed on
# this module's attributes (a tracer, a test double) sees every call.
_REGISTRY = (
    _Row(("eq-2.4",), "table", "once", "verify_eq_2_4"),
    _Row(("eq-2.7",), "table", "D", "verify_eq_2_7"),
    _Row(("eq-3.1",), "", "D", "verify_eq_3_1"),
    _Row(("prop-3.4",), "table", "D", "verify_prop_3_4"),
    _Row(("eq-3.6",), "table", "D", "verify_eq_3_6"),
    _Row(("eq-3.7",), "table", "D", "verify_eq_3_7"),
    _Row(("cor-3.9",), "", "D", "verify_cor_3_9_1"),
    _Row(("cor-3.9",), "table", "D", "verify_cor_3_9_2", {"claim": 2}),
    _Row(("lemma-3.12",), "", "DA", "verify_lemma_3_12"),
    _Row(("eq-4.3",), "smatrix", "once", "verify_eq_4_3"),
    _Row(("thm-4.6",), "smatrix", "once", "verify_thm_4_6"),
    _Row(("thm-4.10",), "smatrix", "once", "verify_thm_4_10"),
    _Row(("eq-4.20",), "smatrix", "once", "verify_eq_4_20"),
    _Row(("rem-4.25",), "smatrix", "once", "verify_rem_4_25"),
    _Row(("prop-4.12",), "smatrix", "D", "verify_prop_4_12"),
    _Row(("eq-4.15",), "smatrix", "D", "verify_eq_4_15"),
    _Row(("cor-4.16",), "smatrix", "D", "verify_cor_4_16"),
    _Row(("cor-4.18",), "smatrix", "D", "verify_cor_4_18"),
    _Row(("prop-4.21",), "smatrix", "D", "verify_prop_4_21"),
    _Row(("thm-1.1",), "smatrix", "D", "verify_thm_1_1"),
    _Row(("eq-4.23", "thm-1.3"), "smatrix", "once", "verify_thm_1_3"),
)


def _missing(target: Target, needs: str) -> Optional[str]:
    """Why rows with this requirement cannot run on the target, or None."""
    if needs == "smatrix" and target.smatrix is None:
        return _NO_SMATRIX
    if needs and target.table is None:
        return _NO_TABLE
    return None


def _scope_args(scope: str, pool: list[Subcategory]) -> list[tuple]:
    if scope == "once":
        return [()]
    if scope == "D":
        return [(sub,) for sub in pool]
    return [(sub, amb) for sub in pool for amb in pool]


def run_checks(target: Target, *,
               subcategories: Optional[Sequence[Subcategory]] = None,
               check_ids: Optional[Sequence[str]] = None) -> VerificationReport:
    """Run the requested checks (all by default) and assemble a report.

    D-parameterized checks run once per subcategory in ``subcategories``
    (default: the unit subcategory and the whole ring); the pairwise
    partition-compatibility check runs over ordered pairs from the pool.
    """
    wanted = list(check_ids) if check_ids is not None else list(CHECK_IDS)
    for cid in wanted:
        if cid not in CHECK_LEGEND:
            raise UnknownKey(f"unknown check id '{cid}'")
    wanted = set(wanted)

    if subcategories is None:
        pool = default_subcategories(target.ring)
    else:
        pool = list(subcategories)
    pool = sorted(pool, key=lambda s: (len(s.members), s.members))
    # Every subcategory of the pool has a coset decomposition; taking them
    # first makes missing exact data fail whichever checks are wanted.
    for sub in pool:
        target.cosets(sub)

    records: list[CheckRecord] = []
    for row in _REGISTRY:
        ids = [cid for cid in row.ids if cid in wanted]
        if not ids:
            continue
        reason = _missing(target, row.needs)
        if reason is not None:
            records.extend(_skip(cid, dict(row.extra), reason) for cid in ids)
            continue
        for args in _scope_args(row.scope, pool):
            try:
                results = globals()[row.runner](target, *args)
            except PreconditionFailed as exc:
                params = {"D": list(args[0].members)} if args else {}
                records.extend(_skip(cid, {**params, **row.extra}, str(exc))
                               for cid in ids)
                continue
            if isinstance(results, CheckRecord):
                results = [results]
            records.extend(r for r in results if r.id in wanted)

    records.sort(key=_sort_key)
    return VerificationReport(
        target=target.label,
        subcategories=tuple(sub.members for sub in pool),
        checks=tuple(records))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def report_to_json(report: VerificationReport) -> dict:
    """The JSON object of a report, as `render_json` writes it."""
    return json.loads(render_json(report))


def _report_fields(report: VerificationReport) -> dict:
    """Every field of the JSON report but its checks."""
    return {
        "target": report.target,
        "subcategories": [list(m) for m in report.subcategories],
        "summary": report.summary,
        "legend": {cid: CHECK_LEGEND[cid]
                   for cid in sorted({c.id for c in report.checks})},
    }


_indented = json.JSONEncoder(sort_keys=True, indent=2).encode
_encode_str = json.encoder.encode_basestring_ascii

# The text of a JSON scalar, by its exact type.
_SCALARS = {str: _encode_str, bool: lambda b: "true" if b else "false",
            int: int.__repr__, type(None): lambda _: "null"}

# A newline and the indent of each depth of the report: its fields, the
# records, their fields and their params.
_NL2, _NL4, _NL6, _NL8 = ("\n" + " " * n for n in (2, 4, 6, 8))


def _cycnum_text(obj: dict) -> str:
    """The ``indent=2, sort_keys=True`` text, at depth 0, of the object
    `value_to_json` makes of a `CycNum`: its approx floats are finite, and
    it has at least one coefficient pair."""
    pairs = ",\n    ".join(f"[\n      {n},\n      {d}\n    ]"
                            for n, d in obj["coeffs"])
    fields = [f'"coeffs": [\n    {pairs}\n  ]',
              f'"conductor": {obj["conductor"]}']
    if "approx" in obj:
        re, im = obj["approx"]
        fields.insert(0, f'"approx": [\n    {re!r},\n    {im!r}\n  ]')
    return "{\n  " + ",\n  ".join(fields) + "\n}"


def render_json(report: VerificationReport) -> str:
    """The report as ``json.dumps(obj, sort_keys=True, indent=2)`` plus a
    newline, byte for byte: the chunks `render_json_to` writes, joined.
    obj holds `_report_fields` and "checks", one object per record: its id,
    params, lhs, rhs and pass, its skipped_reason if it has one and its
    detail if nonempty, each value as `value_to_json` writes it (lhs and
    rhs with approx).  The tests build obj with the stdlib and compare."""
    return "".join(_json_chunks(report))


def render_json_to(report: VerificationReport, stream) -> None:
    """Write `render_json(report)` to the text stream `stream`, one record
    at a time, so that the report is never held as one string.

    Nothing is written before `_json_chunks` has the text of every field
    but the records.  After that only a record's values are turned into
    text, and that cannot raise on a record `run_checks` makes, so a
    report is written whole or not at all (the stream's own errors aside).
    `value_text` writes str, bool, int and None by exact type, a `CycNum`
    through `value_to_json`, which catches the `OverflowError` of a float
    embedding out of range and leaves out an approx that is not finite, and
    a list or tuple element by element.  Only a value of any other type
    reaches `value_to_json`'s `SchemaError`.  Every record that
    `run_checks` makes holds values of those types alone: its id is a
    registry id, which `CHECK_LEGEND` holds; its detail and skipped reason
    are str; params map str keys to ints, strs and lists of ints; lhs and
    rhs are a `CycNum` (the sides of every exact identity and each
    `_integrality` value), an int (counts and sizes), a str (the named
    sides of a proven or membership record), None (a skipped record), a
    list of `CycNum`s (thm-4.6's rows) or a list of ints or of lists of
    ints (members, images, blocks and sizes).
    """
    stream.writelines(_json_chunks(report))


def _json_chunks(report: VerificationReport):
    """The text of `render_json`, as the opening with the first record, then
    one chunk per further record, then the closing fields.

    A record is written as head + params + tail: the head holds its detail,
    id and lhs, the tail its pass, rhs and skipped reason.  Both are kept
    for the whole report under (id, detail, pass, skipped reason, lhs,
    rhs), each side by `_exact_key` (a `CycNum` by its canonical form, not
    by ``==``), so a repeated pair is written once; the memo grows with the
    distinct pairs, not with the records.  Params take their key order once
    per key tuple, and each exact value and list of ints its text once.
    """
    halves, values, int_lists, orders = {}, {}, {}, {}

    def value_text(v, approx: bool, nl: str) -> str:
        # A value that starts on a line whose newline and indent are `nl`
        # is its text at depth 0 with `nl` for each newline: JSON strings
        # escape theirs.
        scalar = _SCALARS.get(type(v))
        if scalar is not None:
            return scalar(v)
        if type(v) is CycNum:
            key = (v.conductor, v._nums, v._den, approx)
            flat = values.get(key)
            if flat is None:
                flat = values[key] = _cycnum_text(value_to_json(v, approx))
            return flat.replace("\n", nl)
        if not isinstance(v, (list, tuple)) or not v:
            return _indented(value_to_json(v, approx)).replace("\n", nl)
        inner = nl + "  "
        if all(type(x) is int for x in v):
            key = (tuple(v), nl)
            text = int_lists.get(key)
            if text is None:
                text = int_lists[key] = (
                    "[" + inner + ("," + inner).join(map(int.__repr__, v))
                    + nl + "]")
            return text
        return ("[" + inner + ("," + inner).join(
            value_text(x, approx, inner) for x in v) + nl + "]")

    def halves_of(c: CheckRecord) -> tuple[str, str]:
        detail = (f'"detail": {_encode_str(c.detail)},{_NL6}'
                  if c.detail else "")
        reason = ("" if c.skipped_reason is None else
                  f',{_NL6}"skipped_reason": {_encode_str(c.skipped_reason)}')
        return (f'{{{_NL6}{detail}"id": {_encode_str(c.id)},{_NL6}'
                f'"lhs": {value_text(c.lhs, True, _NL6)},{_NL6}"params": ',
                f',{_NL6}"pass": {value_text(c.passed, True, _NL6)},{_NL6}'
                f'"rhs": {value_text(c.rhs, True, _NL6)}{reason}{_NL4}}}')

    # the other fields sort after "checks"; their text opens with "{"
    rest = "," + _indented(_report_fields(report))[1:] + "\n"
    sep = "{" + _NL2 + '"checks": [' + _NL4
    if not report.checks:
        yield "{" + _NL2 + '"checks": []' + rest
        return
    for c in report.checks:
        key = (c.id, c.detail, c.passed, c.skipped_reason,
               _exact_key(c.lhs), _exact_key(c.rhs))
        pair = halves.get(key)
        if pair is None:
            pair = halves[key] = halves_of(c)
        params = c.params
        if params:
            keys = tuple(params)
            order = orders.get(keys)
            if order is None:
                order = orders[keys] = [(k, _encode_str(k) + ": ")
                                        for k in sorted(keys)]
            text = ("{" + _NL8 + ("," + _NL8).join(
                [lead + value_text(params[k], False, _NL8)
                 for k, lead in order]) + _NL6 + "}")
        else:
            text = "{}"
        yield sep + pair[0] + text + pair[1]
        sep = "," + _NL4
    yield _NL2 + "]" + rest


def _show(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, CycNum):
        z = advisory_complex(value)
        if z is None:
            return str(value)
        approx = (f"{z.real:.6g}" if abs(z.imag) < 1e-12
                  else f"{z.real:.6g}{z.imag:+.6g}j")
        return f"{value} (~{approx})"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_show(v) for v in value) + "]"
    return str(value)


def _braces(members) -> str:
    """An index set as text: {0,2,4}."""
    return "{" + ",".join(map(str, members)) + "}"


def render_markdown(report: VerificationReport) -> str:
    lines = [f"# verification report: {report.target}", ""]
    subs = " ".join(map(_braces, report.subcategories))
    lines.append(f"subcategory pool: {subs}")
    lines.append("")
    lines.append("| check | params | lhs | rhs | status |")
    lines.append("|---|---|---|---|---|")
    for c in report.checks:
        if c.passed is None:
            status = f"skipped: {c.skipped_reason}"
        else:
            status = "pass" if c.passed else "FAIL"
        params = ", ".join(f"{k}={_show(v)}" for k, v in sorted(c.params.items()))
        lines.append(f"| {c.id} | {params} | {_show(c.lhs)} | {_show(c.rhs)} "
                     f"| {status} |")
    s = report.summary
    lines.append("")
    lines.append(f"summary: {s['passed']} passed, {s['failed']} failed, "
                 f"{s['skipped']} skipped, {s['total']} total")
    lines.append("")
    lines.append("## legend")
    for cid in sorted({c.id for c in report.checks}):
        lines.append(f"- {cid}: {CHECK_LEGEND[cid]}")
    return "\n".join(lines) + "\n"
