"""Orchestrated check runs: coverage, skip policy, ordering, rendering."""

import dataclasses
import functools
import io
import json
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import fuscat.catalog
import fuscat.chartab
import fuscat.cli
import fuscat.cosets
import fuscat.errors
import fuscat.fusion
import fuscat.premod
import fuscat.reports
import fuscat.serialize
import fuscat.verify
from fuscat.catalog import BUILTIN_KEYS, builtin
from fuscat.chartab import validate_character_table
from fuscat.cli import main
from fuscat.errors import PsiNotCharacter, UnknownKey
from fuscat.exactnum import CycNum
from fuscat.fusion import enumerate_subcategories
from fuscat.premod import validate_smatrix
from fuscat.verify import (CHECK_IDS, CHECK_LEGEND, CheckRecord, Target,
                           VerificationReport, default_subcategories,
                           render_json, render_json_to, render_markdown,
                           report_to_json, run_checks)

from rings import (fp_column, ising_ring, ising_table_rows,
                   report_to_json_builder)


def _full_run(key):
    target = builtin(key)
    return run_checks(target,
                      subcategories=enumerate_subcategories(target.ring))


@pytest.mark.parametrize("key", BUILTIN_KEYS)
def test_every_catalog_entry_passes_all_checks(key):
    report = _full_run(key)
    assert report.ok, [c for c in report.checks if c.passed is False]
    s = report.summary
    assert s["failed"] == 0
    assert s["passed"] + s["skipped"] == s["total"]


def test_all_check_ids_execute_on_a_modular_entry():
    report = _full_run("ising")
    executed = {c.id for c in report.checks if c.passed is not None}
    # claim 2 of the divisibility corollary is skipped for non-free actions,
    # but claim 1 still executes under the same id, so every id shows up
    assert executed == set(CHECK_IDS)


def test_skip_policy_on_symmetric_entry():
    report = _full_run("rep-s3")
    skipped = {c.id: c.skipped_reason for c in report.checks
               if c.passed is None}
    assert skipped["thm-1.3"] == "center is not pointed"
    assert skipped["eq-4.23"] == "center is not pointed"
    assert "thm-1.1" in skipped
    # skipped checks still carry no verdict
    for c in report.checks:
        if c.passed is None:
            assert c.skipped_reason


def test_ring_only_target_skips_table_and_matrix_checks():
    ring = ising_ring()
    report = run_checks(Target("bare", ring))
    by_id = {}
    for c in report.checks:
        by_id.setdefault(c.id, []).append(c)
    assert by_id["eq-2.4"][0].skipped_reason == "target carries no character table"
    assert by_id["thm-4.10"][0].skipped_reason == "target carries no symmetric matrix"
    # ring-only checks still run
    assert all(c.passed for c in by_id["eq-3.1"])
    assert all(c.passed for c in by_id["lemma-3.12"])
    claim1 = [c for c in by_id["cor-3.9"] if c.params.get("claim") != 2]
    assert claim1 and all(c.passed for c in claim1)


def test_all_subcategory_run_inverts_each_class_dimension_once(monkeypatch):
    """eq-2.4, eq-3.6 and thm-4.6 read 1/dim(C^j) from the target, so a run
    over every subcategory inverts each class dimension at most once (an
    operation count, so the bound holds on any load)."""
    entry = builtin("su2k-4*fib")
    inverted = Counter()
    inverse = CycNum.inverse

    def counting(self):
        inverted[id(self)] += 1
        return inverse(self)
    monkeypatch.setattr(CycNum, "inverse", counting)
    report = _full_run("su2k-4*fib")
    assert report.ok
    counts = [inverted[id(c)] for c in entry.table.class_dims]
    assert max(counts) == 1, counts


PRODUCT_KEYS = ("svec*svec*svec", "pointed-z4-q2*svec", "pointed-z4-q1*svec",
                "rep-s3*svec", "rep-s3*pointed-z2-q1")


def _verdicts(report):
    """The summary, the multiset of (id, pass, skipped reason, detail) and
    the multiset of the exact form of each side that is a `CycNum` or a
    tuple of them: what relabelling the table columns cannot move."""
    sides = Counter(
        fuscat.reports._exact_key(v) for c in report.checks
        for v in (c.lhs, c.rhs)
        if type(v) is CycNum or (isinstance(v, (list, tuple)) and v
                                 and all(type(x) is CycNum for x in v)))
    return (report.summary,
            Counter((c.id, c.passed, c.skipped_reason, c.detail)
                    for c in report.checks),
            sides)


@pytest.mark.parametrize("key", BUILTIN_KEYS[1:] + PRODUCT_KEYS)
def test_column_permutation_keeps_every_verdict(key):
    """Rotating the table columns moves the dimension column; the table and
    the S-matrix are validated again, which remaps M.  A run of every check
    over every subcategory then has the same summary, verdicts and exact
    sides: only column indices in the params move.  (trivial has one
    column, so nothing to move.)"""
    entry = builtin(key)
    ring, r = entry.ring, entry.ring.rank
    perm = [(j + 1) % r for j in range(r)]
    table = validate_character_table(
        ring, [[row[p] for p in perm] for row in entry.table.alpha])
    assert fp_column(ring, table) != fp_column(ring, entry.table)
    smatrix = None
    if entry.smatrix is not None:
        smatrix = validate_smatrix(ring, table, entry.smatrix.s)
        assert [perm[j] for j in smatrix.M] == list(entry.smatrix.M)
    subs = enumerate_subcategories(ring)
    before = run_checks(entry, subcategories=subs)
    after = run_checks(Target(key, ring, table, smatrix), subcategories=subs)
    assert _verdicts(after) == _verdicts(before)


def test_check_filter_restricts_output():
    report = run_checks(builtin("ising"), check_ids=["eq-2.7", "thm-4.10"])
    assert {c.id for c in report.checks} == {"eq-2.7", "thm-4.10"}


def test_unknown_check_id_rejected():
    with pytest.raises(UnknownKey, match="thm-9.9"):
        run_checks(builtin("ising"), check_ids=["thm-9.9"])


def test_records_ordered_by_id_then_params():
    report = _full_run("ising*svec")
    ids = [c.id for c in report.checks]
    assert ids == sorted(ids)
    for i in range(len(report.checks) - 1):
        a, b = report.checks[i], report.checks[i + 1]
        if a.id == b.id:
            ka = json.dumps({k: v for k, v in a.params.items()},
                            sort_keys=True, default=str)
            kb = json.dumps({k: v for k, v in b.params.items()},
                            sort_keys=True, default=str)
            assert ka <= kb


def test_default_pool_is_unit_and_whole_ring():
    ring = builtin("ising").ring
    pool = default_subcategories(ring)
    assert [s.members for s in pool] == [(0,), (0, 1, 2)]
    trivial = builtin("trivial").ring
    assert [s.members for s in default_subcategories(trivial)] == [(0,)]


def test_json_rendering_round_trips():
    report = run_checks(builtin("pointed-z4-q2"))
    doc = report_to_json_builder(report)
    assert json.loads(render_json(report)) == doc
    assert report_to_json(report) == doc
    assert doc["summary"] == report.summary
    assert set(doc["legend"]) == {c.id for c in report.checks}


def _oracle(report):
    """The stdlib rendering that `render_json` must equal byte for byte."""
    return (json.dumps(report_to_json_builder(report), sort_keys=True,
                       indent=2) + "\n")


# the keys of the benchmark's product workload
PRODUCT_KEYS = ("svec*svec*svec", "pointed-z4-q2*svec", "pointed-z4-q1*svec",
                "rep-s3*svec", "rep-s3*pointed-z2-q1")


@functools.lru_cache(maxsize=None)
def _cached_full_run(key):
    return _full_run(key)


@pytest.mark.parametrize("key", BUILTIN_KEYS + PRODUCT_KEYS)
def test_render_json_matches_the_stdlib_encoder(key):
    report = _cached_full_run(key)
    assert render_json(report) == _oracle(report)
    assert report_to_json(report) == report_to_json_builder(report)


def _json_native(value):
    if isinstance(value, list):
        return all(_json_native(v) for v in value)
    return type(value) in (int, str)


@pytest.mark.parametrize("key", BUILTIN_KEYS + PRODUCT_KEYS)
def test_record_params_are_json_native(key):
    # The sort key serializes params as they are.  The key it replaced
    # converted them with value_to_json first; it stays here as the oracle.
    for record in _cached_full_run(key).checks:
        assert all(_json_native(v) for v in record.params.values()), record
        converted = {k: fuscat.serialize.value_to_json(v, approx=False)
                     for k, v in record.params.items()}
        assert fuscat.verify._sort_key(record) == (
            record.id, json.dumps(converted, sort_keys=True))
        assert fuscat.verify._sort_key(record)[1] == json.dumps(
            record.params, sort_keys=True)


def test_render_json_keeps_no_values_between_reports():
    # the same exact values sit at different depths in the two reports
    a, b = _cached_full_run("su2k-2"), _cached_full_run("ising*svec")
    for report in (a, b, a):
        assert render_json(report) == _oracle(report)


_TEXT = (st.text(st.sampled_from('a"\\\n\t\x00\x1f\x7f/é✓\U0001d11e '),
                 max_size=6)
         | st.text(max_size=4))
_INTS = st.integers(-3, 3) | st.integers(-2 ** 200, 2 ** 200)
_CYCNUMS = st.builds(
    lambda n, nums, den: CycNum(n, [Fraction(x, den) for x in nums]),
    st.sampled_from([1, 4]), st.lists(_INTS, min_size=2, max_size=2),
    st.integers(1, 10 ** 30))
_FLOATS = (st.sampled_from([-0.0, 0.0, 1e-300, 1e16, -1.5, 2.0 ** 70])
           | st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _reports(draw):
    # the value types a record holds (`render_json_to`'s docstring)
    pool = draw(st.lists(_CYCNUMS, min_size=1, max_size=4))
    scalar = (st.sampled_from(pool) | _INTS | _TEXT | st.none()
              | st.booleans())
    values = st.recursive(scalar, lambda inner: st.lists(inner, max_size=3)
                          | st.tuples(inner, inner), max_leaves=6)
    records = [CheckRecord(
        id=draw(st.sampled_from(CHECK_IDS)),
        params=draw(st.dictionaries(_TEXT, values, max_size=3)),
        lhs=draw(values), rhs=draw(values),
        passed=draw(st.sampled_from([True, False, None])),
        skipped_reason=draw(st.none() | _TEXT), detail=draw(_TEXT))
        for _ in range(draw(st.integers(0, 4)))]
    # one value as a param (no approx) and as lhs and rhs (with approx), at
    # three depths
    shared = pool[0]
    records.append(CheckRecord(id="eq-2.4",
                               params={"x": shared, "l": [shared]},
                               lhs=shared, rhs=[[shared]], passed=True))
    subs = draw(st.lists(st.lists(st.integers(0, 9), max_size=3).map(tuple),
                         max_size=3))
    return VerificationReport(target=draw(_TEXT), subcategories=tuple(subs),
                              checks=tuple(records))


@given(_reports(), st.lists(st.none() | _FLOATS, min_size=1, max_size=5))
@example(VerificationReport(target="", subcategories=(), checks=()), [None])
@settings(max_examples=150, deadline=None)
def test_render_json_matches_the_stdlib_encoder_on_built_reports(report,
                                                                  floats):
    def approx(value):
        # a function of the value alone, as the float embedding is
        i = (sum(value._nums) + value._den + value.conductor) % len(floats)
        if floats[i] is None:
            return None
        imag = floats[i - 1]
        return complex(floats[i], 0.0 if imag is None else imag)

    with mock.patch.object(fuscat.serialize, "advisory_complex", approx):
        assert render_json(report) == _oracle(report)


class _ChunkStream(io.StringIO):
    """A text stream that keeps each chunk it is given."""

    def __init__(self):
        super().__init__()
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)
        return super().write(text)


@pytest.mark.parametrize("key", BUILTIN_KEYS + PRODUCT_KEYS)
def test_streamed_json_equals_render_json_and_the_stdlib(key):
    """`render_json_to` writes the bytes of `render_json` and of the stdlib
    encoder, one record per chunk after the first, so no chunk holds the
    report."""
    report = _cached_full_run(key)
    stream = _ChunkStream()
    assert render_json_to(report, stream) is None
    assert stream.getvalue() == render_json(report) == _oracle(report)
    assert len(stream.chunks) == len(report.checks) + 1


def _skipping_key():
    """A builtin whose full run skips some records and fails none."""
    for key in BUILTIN_KEYS:
        report = _cached_full_run(key)
        if report.ok and report.summary["skipped"]:
            return key, report
    raise AssertionError("no builtin skips a record")


def test_failing_and_skipped_reports_stream_their_bytes_and_exit_codes(
        monkeypatch, capsys):
    """Through the CLI's stream, a report with a failed record writes
    `render_json`'s bytes and exits 1; one with skipped records and no
    failure writes them and exits 0."""
    key, skipped = _skipping_key()
    base = _cached_full_run("ising")
    first = next(i for i, c in enumerate(base.checks) if c.passed)
    failing = dataclasses.replace(base, checks=(
        base.checks[:first]
        + (dataclasses.replace(base.checks[first], passed=False),)
        + base.checks[first + 1:]))
    assert failing.summary["failed"] == 1
    for report, code in ((failing, 1), (skipped, 0)):
        monkeypatch.setattr(fuscat.cli, "run_checks",
                            lambda *args, report=report, **kw: report)
        assert main(["verify", key, "--format", "json"]) == code
        assert capsys.readouterr().out == render_json(report) == \
            _oracle(report)


def _value_shape(value):
    """The type of a report value, with the shapes of a list's elements."""
    if isinstance(value, (list, tuple)):
        return ("list", frozenset(map(_value_shape, value)))
    return type(value).__name__


_SCALAR_SHAPES = {"CycNum", "int", "str", "NoneType"}
_LIST_SHAPES = {("list", frozenset({s})) for s in ("CycNum", "int")} | {
    ("list", frozenset({("list", frozenset({"int"}))})),
    ("list", frozenset())}


def test_the_streamed_writer_takes_every_record_run_checks_makes():
    """The premise of `render_json_to`'s proof that it cannot raise once it
    has written: over the full runs of the builtins and the product keys,
    which make every check id, executed and skipped, each record holds
    only the value types that the proof names.  Each record kind (its id,
    whether it is skipped, and the shapes of its lhs, rhs and params)
    then streams alone as the stdlib encoder writes it."""
    kinds, ids = {}, set()
    for key in BUILTIN_KEYS + PRODUCT_KEYS:
        for c in _cached_full_run(key).checks:
            ids.add((c.id, c.passed is None))
            shapes = (_value_shape(c.lhs), _value_shape(c.rhs),
                      tuple(sorted((k, _value_shape(v))
                                   for k, v in c.params.items())))
            assert {shapes[0], shapes[1]} <= _SCALAR_SHAPES | _LIST_SHAPES, c
            assert {s for _, s in shapes[2]} <= {
                "int", "str", ("list", frozenset({"int"}))}, c
            assert type(c.detail) is str and type(c.passed) in (
                bool, type(None)) and type(c.skipped_reason) in (
                    str, type(None)), c
            kinds.setdefault((c.id, c.passed is None, shapes), c)
    assert {cid for cid, _ in ids} == set(CHECK_IDS)
    assert any(skipped for _, skipped in ids)
    for record in kinds.values():
        report = VerificationReport(target="t", subcategories=((0,),),
                                    checks=(record,))
        stream = io.StringIO()
        render_json_to(report, stream)
        assert stream.getvalue() == _oracle(report)


def test_rendering_is_deterministic():
    a = render_json(_full_run("su2k-3"))
    b = render_json(_full_run("su2k-3"))
    assert a == b
    am = render_markdown(_full_run("fib"))
    bm = render_markdown(_full_run("fib"))
    assert am == bm


def test_markdown_contains_status_and_legend():
    report = _full_run("rep-s3")
    text = render_markdown(report)
    assert "| eq-2.7 |" in text
    assert "skipped: center is not pointed" in text
    assert "## legend" in text
    assert "FPdim(C)/FPdim(D)" in text


def test_legend_covers_every_registered_id():
    assert set(CHECK_IDS) == set(CHECK_LEGEND)
    assert len(CHECK_IDS) == 21
    for text in CHECK_LEGEND.values():
        assert text.strip()


def test_stabilizer_corrected_class_dims_on_modular_entry():
    report = _full_run("su2k-4")
    recs = [c for c in report.checks if c.id == "eq-4.23"]
    assert len(recs) == 5
    assert all(c.passed for c in recs)
    # trivial center: every stabilizer is the unit alone
    assert all(c.params["stabilizer"] == [0] for c in recs)


def test_item_two_values_on_slightly_degenerate_product():
    report = _full_run("ising*svec")
    item2 = [c for c in report.checks
             if c.id == "thm-1.3" and c.params.get("item") == 2]
    assert len(item2) == 6
    by_y = {c.params["Y"]: c.lhs for c in item2}
    # dim(C)/(dim(center) d_Y^2) = 8/(2*2) = 2 at the two-dimensional simples
    assert by_y[4] == 2 and by_y[5] == 2
    assert by_y[0] == 4


def test_report_ok_property_reflects_failures():
    report = VerificationReport(target="x", subcategories=((0,),), checks=())
    assert report.ok and report.summary["total"] == 0


SMATRIX_IDS = ("cor-4.16", "cor-4.18", "eq-4.15", "eq-4.20", "eq-4.23",
                "eq-4.3", "prop-4.12", "prop-4.21", "rem-4.25", "thm-1.1",
                "thm-1.3", "thm-4.10", "thm-4.6")


def test_a_non_character_row_is_refused_before_any_check():
    """Ising ring and table with a symmetric matrix whose first row is the
    dimensions and whose row 1, (1, -1, sqrt 2), is no Ising character:
    `validate_smatrix` refuses it at row 1, so no target carries a matching
    whose center is not closed, and no check needs to skip for that."""
    ring = ising_ring()
    table = validate_character_table(ring, ising_table_rows())
    one, r2 = CycNum.from_rational(1), ring.fpdims[2]
    s = ((one, one, r2), (one, -one, r2), (r2, r2, r2 * r2))
    with pytest.raises(PsiNotCharacter) as info:
        validate_smatrix(ring, table, s)
    assert info.value.row == 1


def _count_derived_calls(monkeypatch, calls, args):
    """Count, in every module that holds them, the calls of the functions
    behind the target's derived data and of the S-matrix validator, with
    the index sets that `restricted_blocks` and `sub_fpdim` are given (the
    latter per ring).  A name that no module holds fails, so that a count
    cannot read 0 for a function that is gone."""
    def counted(name, fn):
        def wrapper(*a):
            calls[name] += 1
            if name == "restricted_blocks":
                args[name, tuple(a[1]), tuple(a[2])] += 1
            elif name == "sub_fpdim":
                args[name, id(a[0]), tuple(a[1])] += 1
            return fn(*a)
        return wrapper

    for name in ("centralizer", "pointed_part", "matched_groups",
                 "restricted_blocks", "sub_fpdim", "validate_smatrix"):
        holders = [module for module in (fuscat.fusion, fuscat.cosets,
                                         fuscat.premod, fuscat.verify,
                                         fuscat.catalog, fuscat.serialize)
                   if name in vars(module)]
        assert holders, name
        for module in holders:
            monkeypatch.setattr(module, name, counted(name, vars(module)[name]))


def test_each_derived_quantity_is_computed_once_per_target(monkeypatch):
    """One run over every subcategory of ising*svec, catalog entry built,
    computes each centralizer and each group of matched columns once, the
    pointed part once, the blocks once per distinct (members, subcategory)
    and the dimension once per distinct index set; it validates no
    S-matrix, since the entry was validated when it was built and the
    target reads the matching it kept."""
    builtin("ising*svec")
    calls, args = Counter(), Counter()
    _count_derived_calls(monkeypatch, calls, args)
    report = _full_run("ising*svec")
    assert report.ok
    n_subs = len(report.subcategories)
    assert n_subs == 8
    assert calls["centralizer"] == n_subs
    assert calls["matched_groups"] == n_subs
    assert calls["pointed_part"] == 1
    for name in ("restricted_blocks", "sub_fpdim"):
        assert calls[name] == sum(1 for key in args if key[0] == name) > 0
    assert set(args.values()) == {1}
    assert calls["validate_smatrix"] == 0


def test_builtin_sweep_sums_each_index_set_once(monkeypatch):
    """An all-subcategory run of each of the 13 builtins, catalog built,
    sums the squared dimensions of 80 distinct index sets (subcategories,
    blocks, matched groups and whole bases), each once, and validates no
    S-matrix."""
    for key in BUILTIN_KEYS:
        builtin(key)
    calls, args = Counter(), Counter()
    _count_derived_calls(monkeypatch, calls, args)
    for key in BUILTIN_KEYS:
        assert _full_run(key).ok
    sums = [n for key, n in args.items() if key[0] == "sub_fpdim"]
    assert len(sums) == calls["sub_fpdim"] == 80
    assert calls["validate_smatrix"] == 0


def test_programming_error_in_matching_analysis_propagates(monkeypatch):
    def broken(target):
        raise TypeError("not a data error")

    monkeypatch.setattr(fuscat.verify, "m_map", broken)
    with pytest.raises(TypeError, match="not a data error"):
        run_checks(builtin("ising"))


def test_skip_records_carry_the_row_params():
    entry = builtin("ising")
    bare = run_checks(Target("bare", entry.ring),
                      subcategories=enumerate_subcategories(entry.ring))
    skipped = {(c.id, json.dumps(c.params, sort_keys=True))
               for c in bare.checks if c.passed is None}
    assert skipped == ({("cor-3.9", '{"claim": 2}')}
                       | {(cid, "{}") for cid in ("eq-2.4", "eq-2.7",
                                                   "eq-3.6", "eq-3.7",
                                                   "prop-3.4")}
                       | {(cid, "{}") for cid in SMATRIX_IDS})
    report = _full_run("rep-s3")
    skipped = sorted((c.id, json.dumps(c.params, sort_keys=True))
                     for c in report.checks if c.passed is None)
    assert skipped == [("cor-3.9", '{"D": [0, 1, 2], "claim": 2}'),
                       ("cor-3.9", '{"D": [0, 1], "claim": 2}'),
                       ("eq-4.23", "{}"),
                       ("thm-1.1", '{"D": [0, 1, 2]}'),
                       ("thm-1.1", '{"D": [0, 1]}'),
                       ("thm-1.3", "{}")]


@pytest.mark.parametrize("key", ["ising*svec", "rep-s3*svec"])
def test_derived_data_is_computed_once_per_subcategory(key, monkeypatch):
    calls = Counter()

    def counting(name, at):
        original = getattr(fuscat.verify, name)

        def wrapper(*args):
            calls[name, args[at].members] += 1
            return original(*args)
        monkeypatch.setattr(fuscat.verify, name, wrapper)

    counting("support_JD", 2)
    counting("coset_partition", 1)
    counting("centralizer", 1)
    target = builtin(key)
    report = run_checks(target,
                        subcategories=enumerate_subcategories(target.ring))
    assert report.ok
    assert {name for name, _ in calls} == {"support_JD", "coset_partition",
                                           "centralizer"}
    assert max(calls.values()) == 1, calls.most_common(3)


@pytest.mark.parametrize("key", ["ising*svec", "su2k-4", "fib*ising"])
def test_each_pair_product_is_built_once(key, monkeypatch):
    """eq-3.1, whose block verdicts decide the Hecke closure, builds each
    A_i A_j once per unordered pair (i <= j) and target, for every
    subcategory: a pair product is the `_int_mul` call of `cosets` on two
    of the dimension numerators its kernel keeps in the target's memo."""
    built = []
    int_mul = fuscat.cosets._int_mul

    def counting(x, y, n):
        if any(x is v for v in target._memo["numerators"][2]):
            built.append((tuple(x), tuple(y)))
        return int_mul(x, y, n)
    monkeypatch.setattr(fuscat.cosets, "_int_mul", counting)
    target = builtin(key)
    assert run_checks(target, subcategories=enumerate_subcategories(
        target.ring)).ok
    pairs = target._memo["pairs"]
    assert len(built) == len(pairs) > 0
    assert all(i <= j for i, j in pairs)


@pytest.mark.parametrize("key", ["ising*svec", "su2k-4", "fib*ising",
                                 "svec*svec*svec"])
def test_eq_3_1_and_prop_3_4_build_no_cycnum_product(key, monkeypatch):
    """Once the cosets and supports are taken, eq-3.1 and prop-3.4 decide
    every subcategory on integer numerators: no `CycNum` is multiplied and
    no block element is built."""
    target = builtin(key)
    subs = enumerate_subcategories(target.ring)
    for sub in subs:
        target.cosets(sub)
        target.support(sub)
    calls = Counter()
    mul = CycNum.__mul__

    def counting(self, other):
        calls["mul"] += 1
        return mul(self, other)
    monkeypatch.setattr(CycNum, "__mul__", counting)
    records = [r for sub in subs
               for r in fuscat.verify.verify_eq_3_1(target, sub)
               + fuscat.verify.verify_prop_3_4(target, sub)]
    assert all(r.passed for r in records) and len(records) > len(subs)
    assert calls["mul"] == 0


def test_run_checks_inverts_each_repeated_divisor_once(monkeypatch):
    """An operation count, not a time, so the bound holds on any load.
    Every check divides through `Target.inverse`, so a run over every
    subcategory inverts each distinct divisor once: 8 inverses on
    svec*svec*svec and 25 on su2k-4*fib, where held reciprocal tables and
    bare divisions made 199 and 185."""
    keys = (("svec*svec*svec", 8), ("su2k-4*fib", 25))
    for key, _ in keys:
        builtin(key)   # the catalog build inverts too; count the checks only
    calls = Counter()
    inverse = CycNum.inverse

    def counting(self):
        calls[fuscat.reports._exact_key(self)] += 1
        return inverse(self)
    monkeypatch.setattr(CycNum, "inverse", counting)
    for key, count in keys:
        calls.clear()
        assert _full_run(key).ok
        assert sum(calls.values()) == count, (key, calls.most_common(3))
        assert max(calls.values()) == 1, (key, calls.most_common(3))


@pytest.mark.parametrize("key,every_subcategory", [("su2k-14", True),
                                                   ("su2k-20", False)])
def test_run_checks_makes_no_division(key, every_subcategory, monkeypatch):
    """Every check multiplies by `Target.inverse` of its divisor; none calls
    `CycNum.__truediv__` (135 calls on su2k-14 over every subcategory and
    153 on su2k-20 over the default pool when the checks divided)."""
    target = builtin(key)
    calls = Counter()
    divide = CycNum.__truediv__

    def counting(self, other):
        calls["div"] += 1
        return divide(self, other)
    monkeypatch.setattr(CycNum, "__truediv__", counting)
    subs = enumerate_subcategories(target.ring) if every_subcategory else None
    assert run_checks(target, subcategories=subs).ok
    assert calls["div"] == 0


def test_eq_2_4_reads_the_codegrees(monkeypatch):
    """eq-2.4 takes its diagonal from `CharacterTable.codegrees` and puts
    0 off it, so it sums nothing: no call of the sum-of-products kernel
    `_entry` in `chartab`, where each of the 441 entries on su2k-20 was
    once a sum."""
    target = builtin("su2k-20")
    calls = Counter()
    entry = fuscat.chartab._entry

    def counting(*args):
        calls["entry"] += 1
        return entry(*args)
    monkeypatch.setattr(fuscat.chartab, "_entry", counting)
    report = run_checks(target, check_ids=["eq-2.4"])
    assert report.ok and len(report.checks) == 21 ** 2
    assert calls["entry"] == 0


def test_eq_4_3_multiplies_nothing(monkeypatch):
    """eq-4.3 holds by the matching `validate_smatrix` found, so once the
    center is taken its records cost no `CycNum` product."""
    target = builtin("su2k-20")
    target.center
    calls = Counter()
    mul = CycNum.__mul__

    def counting(self, other):
        calls["mul"] += 1
        return mul(self, other)
    monkeypatch.setattr(CycNum, "__mul__", counting)
    report = run_checks(target, check_ids=["eq-4.3"])
    assert report.ok and len(report.checks) == 21
    assert calls["mul"] == 0


@pytest.mark.parametrize("key", ["su2k-4", "ising*svec"])
def test_each_integrality_witness_is_built_once_per_value(key, monkeypatch,
                                                         capsys):
    """One command builds the minimal polynomial of each exact value once,
    however many divisibility records carry it."""
    calls = Counter()
    witness = fuscat.reports.integrality_witness

    def counting(value):
        calls[value.conductor, value._nums, value._den] += 1
        return witness(value)
    monkeypatch.setattr(fuscat.reports, "integrality_witness", counting)
    assert main(["verify", key, "--all-subcategories", "--format", "json"]) == 0
    assert calls and max(calls.values()) == 1, calls.most_common(3)


def test_render_json_keeps_apart_records_that_are_written_differently():
    """Records are written from a memo; each pair below differs in one
    thing that changes its text, so a memo that keyed values by ``==`` or
    left out a field would write one record of a pair for the other."""
    one, one_at_8 = CycNum.from_rational(1), CycNum(8, [1, 0, 0, 0])
    assert one == one_at_8 and one_at_8.conductor == 8
    v = CycNum(8, [Fraction(1, 2), 0, -3, 0])
    base = CheckRecord(id="cor-3.9", params={"D": [0, 1]}, lhs=v,
                       rhs="algebraic integer", passed=True,
                       detail="min poly x^2 + 1")
    checks = (
        # equal by ==, at conductors 1 and 8
        CheckRecord(id="eq-2.4", params={"l": 0, "k": 0}, lhs=one,
                    rhs=one, passed=True),
        CheckRecord(id="eq-2.4", params={"l": 0, "k": 0}, lhs=one_at_8,
                    rhs=one_at_8, passed=True),
        # v as a param (no approx) and as lhs (approx)
        CheckRecord(id="eq-2.4", params={"v": v}, lhs=v, rhs=v, passed=True),
        # only the params differ
        CheckRecord(id="eq-2.4", params={"l": 1, "k": 0}, lhs=one,
                    rhs=one, passed=True),
        base,
        # only passed, only the skipped reason, only the detail differ
        dataclasses.replace(base, passed=False),
        dataclasses.replace(base, skipped_reason="not pointed"),
        dataclasses.replace(base, detail=""),
    )
    report = VerificationReport(target="memo", subcategories=((0,), (0, 1)),
                                checks=checks)
    assert render_json(report) == _oracle(report)


FUZZ_KEYS = ("svec", "ising", "fib", "rep-s3", "su2k-3", "pointed-z4-q2",
             "ising*svec")
FUZZ_VALUES = (0, -1, 2 ** 70, None, [], {}, "x", True, 1.5)


def _fuzz_paths(obj, path=()):
    """The path of every value below the JSON value `obj`, in order."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for k, v in items:
        yield path + (k,)
        yield from _fuzz_paths(v, path + (k,))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_catalog_documents_raise_only_fuscat_errors(data):
    """A catalog document with one or two positions mutated: a value
    replaced by one of `FUZZ_VALUES`, or a list shortened or doubled.
    Parsing it, running every check over every subcategory and rendering
    the report raise nothing but a `FuscatError`."""
    entry = builtin(data.draw(st.sampled_from(FUZZ_KEYS)))
    doc = json.loads(fuscat.serialize.dump_document(
        fuscat.serialize.to_document(entry.ring, entry.table,
                                     entry.smatrix)))
    for _ in range(data.draw(st.integers(1, 2))):
        *head, last = data.draw(st.sampled_from(list(_fuzz_paths(doc))))
        parent = functools.reduce(lambda o, k: o[k], head, doc)
        old = parent[last]
        how = data.draw(st.sampled_from(
            FUZZ_VALUES + (("shorten", "double") if isinstance(old, list)
                           else ())))
        parent[last] = (old[:-1] if how == "shorten"
                        else old + old if how == "double" else how)
    try:
        ring, table, smatrix = fuscat.serialize.from_document(doc)
        report = run_checks(Target("fuzz", ring, table, smatrix),
                            subcategories=enumerate_subcategories(ring))
        render_json(report)
    except fuscat.errors.FuscatError:
        pass
