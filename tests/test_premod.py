"""S-matrix validation, centralizers, central elements, and the divisibility
theorems, on hand-built exact data."""

import functools
import itertools
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from fuscat.catalog import BUILTIN_KEYS, builtin
from fuscat.chartab import validate_character_table
from fuscat.errors import (
    AsymmetricS,
    BadFirstRow,
    PreconditionFailed,
    PsiNotCharacter,
)
from fuscat.exactnum import CycNum, minimal_polynomial
from fuscat.fusion import Subcategory, check_subcategory, enumerate_subcategories
from fuscat.premod import (
    centralizer,
    class_sum,
    m_map,
    validate_smatrix,
    verify_cor_4_16,
    verify_cor_4_18,
    verify_eq_4_3,
    verify_eq_4_15,
    verify_eq_4_20,
    verify_prop_4_12,
    verify_prop_4_21,
    verify_rem_4_25,
    verify_thm_1_1,
    verify_thm_1_3,
    verify_thm_4_6,
    verify_thm_4_10,
)
from fuscat.serialize import dump_document, from_document
from fuscat.verify import Target, run_checks

from rings import (
    all_passed,
    dd_smatrix_rows,
    eq_4_3_loop,
    f_Q,
    fib_ring,
    fib_smatrix_rows,
    fib_table_rows,
    group_ring,
    group_table_rows,
    ising_ring,
    ising_smatrix_rows,
    ising_table_rows,
    pointed_smatrix_rows,
    reps3_ring,
    reps3_table_rows,
    restrict,
    smatrix_rows_scan_first,
    sqrt2,
    stabilizers_loop,
    su2k4_adjoint_smatrix_rows,
)

ONE = CycNum.from_rational(1)
ZERO = CycNum.from_rational(0)


def _ising():
    ring = ising_ring()
    table = validate_character_table(ring, ising_table_rows())
    sm = validate_smatrix(ring, table, ising_smatrix_rows())
    return ring, table, sm


def _svec():
    ring = group_ring(2)
    table = validate_character_table(ring, group_table_rows(2))
    sm = validate_smatrix(ring, table, ((ONE, ONE), (ONE, ONE)))
    return ring, table, sm


def _reps3():
    ring = reps3_ring()
    table = validate_character_table(ring, reps3_table_rows())
    sm = validate_smatrix(ring, table, dd_smatrix_rows(ring))
    return ring, table, sm


def _fib():
    ring = fib_ring()
    table = validate_character_table(ring, fib_table_rows())
    sm = validate_smatrix(ring, table, fib_smatrix_rows())
    return ring, table, sm


def _pointed(n, c):
    ring = group_ring(n)
    table = validate_character_table(ring, group_table_rows(n))
    sm = validate_smatrix(ring, table, pointed_smatrix_rows(n, c))
    return ring, table, sm


def _su2k4_adjoint():
    """The adjoint objects X_0, X_4, X_2 of su2k-4 as a datum of their
    own: the rep-s3 ring with the restricted sine matrix, center {0, 1}."""
    ring = reps3_ring()
    table = validate_character_table(ring, reps3_table_rows())
    sm = validate_smatrix(ring, table, su2k4_adjoint_smatrix_rows())
    return ring, table, sm


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_ising_smatrix_validates():
    _, _, sm = _ising()
    assert sm.s[2][2].is_zero()
    assert sm.s[0][2] == sqrt2()


def test_asymmetric_rejected():
    ring, table, _ = _ising()
    rows = [list(r) for r in ising_smatrix_rows()]
    rows[0][1] = CycNum.from_rational(2)
    with pytest.raises(AsymmetricS):
        validate_smatrix(ring, table, rows)


def test_bad_first_row_rejected():
    ring, table, _ = _ising()
    rows = [list(r) for r in ising_smatrix_rows()]
    rows[0][1] = CycNum.from_rational(2)
    rows[1][0] = CycNum.from_rational(2)
    with pytest.raises(BadFirstRow):
        validate_smatrix(ring, table, rows)


def test_tampered_entry_breaks_character_row():
    ring, table, _ = _ising()
    rows = [list(r) for r in ising_smatrix_rows()]
    rows[2][2] = ONE
    with pytest.raises(PsiNotCharacter) as err:
        validate_smatrix(ring, table, rows)
    assert err.value.row == 2


def _outcome(validate, *args):
    """The SMatrix, or the exception type with its row and witness."""
    try:
        return validate(*args)
    except PsiNotCharacter as err:
        return type(err), err.row, err.witness


@pytest.mark.parametrize("key", BUILTIN_KEYS)
def test_validate_smatrix_matches_the_scan_first_oracle(key):
    """Matching a row to a column before scanning it gives the outcome of
    scanning every row first: on the entry and under each symmetric
    one-pair corruption off the first row and column."""
    entry = builtin(key)
    ring, table = entry.ring, entry.table
    r = ring.rank
    corrupted = [entry.smatrix.s]
    for i in range(1, r):
        for a in range(i, r):
            rows = [list(row) for row in entry.smatrix.s]
            rows[i][a] = rows[i][a] + 1
            rows[a][i] = rows[i][a]
            corrupted.append(tuple(tuple(row) for row in rows))
    for s in corrupted:
        assert (_outcome(validate_smatrix, ring, table, s)
                == _outcome(smatrix_rows_scan_first, ring, table, s))


# ---------------------------------------------------------------------------
# centralizers
# ---------------------------------------------------------------------------

def _center(setup, *args):
    return Target("", *setup(*args)).center


def test_centralizer_oracles():
    ring, table, sm = _ising()
    assert _center(_ising).members == (0,)
    sub = check_subcategory(ring, (0, 1))
    assert centralizer(Target("", ring, table, sm), sub).members == (0, 1)
    assert _center(_svec).members == (0, 1)
    assert _center(_reps3).members == (0, 1, 2)


def test_pointed_center_depends_on_form():
    assert _center(_pointed, 4, 1).members == (0,)
    assert _center(_pointed, 4, 2).members == (0, 2)


PRODUCT_KEYS = ("svec*svec*svec", "pointed-z4-q2*svec", "pointed-z4-q1*svec",
                "rep-s3*svec", "rep-s3*pointed-z2-q1")
ADJOINT = "su2k-4 adjoint"


def _keyed_target(key):
    if key == ADJOINT:
        return Target(key, *_su2k4_adjoint())
    return builtin(key)


def _assert_centralizer_is_closed(t, members):
    sub = Subcategory(tuple(sorted(members)))
    check_subcategory(t.ring, centralizer(t, sub).members)


@pytest.mark.parametrize("key", BUILTIN_KEYS + PRODUCT_KEYS + (ADJOINT,))
def test_centralizer_of_every_index_set_is_a_subcategory(key):
    """M^{-1}(J_D) passes `check_subcategory` for each of the 2^rank index
    sets D, not only for subcategories (the proof is the docstring of
    `premod.centralizer`)."""
    t = _keyed_target(key)
    for size in range(t.ring.rank + 1):
        for members in itertools.combinations(range(t.ring.rank), size):
            _assert_centralizer_is_closed(t, members)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_centralizer_of_any_index_set_is_a_subcategory_on_pointed_keys(data):
    n = data.draw(st.integers(min_value=1, max_value=12), label="N")
    c = data.draw(st.integers(min_value=0, max_value=n - 1), label="C")
    members = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1)),
                        label="D")
    _assert_centralizer_is_closed(_keyed_target(f"pointed-z{n}-q{c}"),
                                  members)


@pytest.mark.parametrize("key", BUILTIN_KEYS + PRODUCT_KEYS + (ADJOINT,))
def test_eq_4_23_stabilizers_match_the_invertible_filter(key):
    """Where the center is pointed, the stabilizer of each eq-4.23 record
    is G_Y by the old rule, invertible members of the center that fix Y;
    elsewhere thm-1.3 refuses its precondition."""
    t = _keyed_target(key)
    if not set(t.center.members) <= set(t.pointed.members):
        with pytest.raises(PreconditionFailed):
            verify_thm_1_3(t)
        return
    got = [r.params["stabilizer"] for r in verify_thm_1_3(t)
           if r.id == "eq-4.23"]
    assert got == [list(g) for g in stabilizers_loop(t)]


# ---------------------------------------------------------------------------
# central elements
# ---------------------------------------------------------------------------

def test_f_q_unit_is_all_ones():
    ring, _, sm = _ising()
    assert f_Q(ring, sm, (ONE, ZERO, ZERO)) == (ONE, ONE, ONE)


def test_f_q_ising_sigma():
    ring, _, sm = _ising()
    rt2 = sqrt2()
    assert f_Q(ring, sm, (ZERO, ZERO, ONE)) == (rt2, -rt2, ZERO)


def test_f_q_svec_f():
    ring, _, sm = _svec()
    assert f_Q(ring, sm, (ZERO, ONE)) == (ONE, ONE)


def test_class_sum_oracles():
    ring, table, _ = _ising()
    t = Target("", ring, table)
    assert class_sum(t, 0) == (ONE, ONE, ONE)
    two = CycNum.from_rational(2)
    assert class_sum(t, 2) == (two, -two, ZERO)


# ---------------------------------------------------------------------------
# the matching map and its fibers
# ---------------------------------------------------------------------------

def _j2_and_fibers(t):
    """J_2 and the fibers: the columns and member tuples of the matched
    groups of the whole ring."""
    groups = t.matched_groups(t.whole)
    return tuple(groups), tuple(sorted(b for b, _ in groups.values()))


def test_m_map_ising_injective():
    ring, table, sm = _ising()
    t = Target("", ring, table, sm)
    assert sm.M == (0, 1, 2)
    assert _j2_and_fibers(t) == ((0, 1, 2), ((0,), (1,), (2,)))
    assert m_map(t).members == (0,)
    assert [r.params["stabilizer"] for r in verify_thm_1_3(t)
            if r.id == "eq-4.23"] == [[0], [0], [0]]


def test_m_map_svec_constant():
    ring, table, sm = _svec()
    t = Target("", ring, table, sm)
    assert sm.M == (0, 0)
    assert _j2_and_fibers(t) == ((0,), ((0, 1),))
    assert m_map(t).members == (0, 1)


def test_m_map_pointed_multiplication():
    _, _, sm = _pointed(6, 1)
    assert sm.M == tuple(i % 6 for i in range(6))
    _, _, sm5 = _pointed(6, 5)
    assert sm5.M == tuple((5 * i) % 6 for i in range(6))


@pytest.mark.parametrize("setup", [_ising, _svec, _reps3, _fib])
def test_row_column_compatibility(setup):
    ring, table, sm = setup()
    t = Target("", ring, table, sm)
    assert all_passed(verify_eq_4_3(t))


@pytest.mark.parametrize("key", BUILTIN_KEYS + (
    "svec*svec*svec", "pointed-z4-q2*svec", "pointed-z4-q1*svec",
    "rep-s3*svec", "rep-s3*pointed-z2-q1", "fib*ising", "su2k-4*fib")
    + tuple(f"su2k-{k}" for k in range(5, 11)))
def test_eq_4_3_products_hold_where_the_matching_proves_them(key):
    """`verify_eq_4_3` passes every row from the matching alone, and the
    products alpha[i][M(i')] d_{i'} == s_{ii'}, multiplied out by
    `eq_4_3_loop`, hold on every row."""
    t = builtin(key)
    records = verify_eq_4_3(t)
    assert [r.params["i"] for r in records] == list(range(t.ring.rank))
    assert all_passed(records)
    assert all(eq_4_3_loop(t))


# ---------------------------------------------------------------------------
# structure theorems
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("setup", [_ising, _svec, _reps3, _fib,
                                   lambda: _pointed(4, 2), lambda: _pointed(5, 1)])
def test_central_image_is_scaled_class_sum(setup):
    ring, table, sm = setup()
    t = Target("", ring, table, sm)
    assert all_passed(verify_thm_4_6(t))


@pytest.mark.parametrize("setup", [_ising, _svec, _reps3, _fib,
                                   lambda: _pointed(4, 2), lambda: _pointed(6, 3)])
def test_fibers_equal_center_cosets(setup):
    ring, table, sm = setup()
    t = Target("", ring, table, sm)
    assert all_passed(verify_thm_4_10(t))


def test_fiber_shapes():
    ring, table, sm = _pointed(4, 2)
    assert _j2_and_fibers(Target("", ring, table, sm))[1] == ((0, 2), (1, 3))


@pytest.mark.parametrize("setup", [_ising, _svec, _reps3, _fib, lambda: _pointed(4, 2)])
def test_dimension_formulas_all_subcategories(setup):
    ring, table, sm = setup()
    t = Target("", ring, table, sm)
    for sub in enumerate_subcategories(ring):
        assert all_passed(verify_prop_4_12(t, sub))
        assert verify_eq_4_15(t, sub).passed
        assert all_passed(verify_cor_4_16(t, sub))
        assert verify_prop_4_21(t, sub).passed
    assert all_passed(verify_eq_4_20(t))


def test_prop_4_12_reps3_pointed():
    ring, table, sm = _reps3()
    t = Target("", ring, table, sm)
    sub = check_subcategory(ring, (0, 1))
    results = verify_prop_4_12(t, sub)
    assert all_passed(results)
    # D' = C, support of C is the dimension column only, image of M is {0}
    assert results[0].lhs == [0]


# ---------------------------------------------------------------------------
# squarefree pointed conclusion
# ---------------------------------------------------------------------------

def test_squarefree_conclusion_pointed_case():
    ring, table, sm = _pointed(3, 1)
    t = Target("", ring, table, sm)
    full = check_subcategory(ring, (0, 1, 2))
    res = verify_cor_4_18(t, full)
    assert res.passed and res.detail == ""


def test_squarefree_conclusion_vacuous_cases():
    ring, table, sm = _ising()
    t = Target("", ring, table, sm)
    res = verify_cor_4_18(t, check_subcategory(ring, (0, 1)))
    assert res.passed and "not integral" in res.detail

    r3, t3, sm3 = _reps3()
    target3 = Target("", r3, t3, sm3)
    res = verify_cor_4_18(target3, check_subcategory(r3, (0, 1)))
    assert res.passed and "center trace" in res.detail
    res_vec = verify_cor_4_18(target3, check_subcategory(r3, (0,)))
    assert res_vec.passed and res_vec.detail == ""


def test_squarefree_conclusion_square_dimension_is_vacuous():
    ring, table, sm = _pointed(4, 1)
    t = Target("", ring, table, sm)
    res = verify_cor_4_18(t, check_subcategory(ring, (0,)))
    assert res.passed and "squarefree" in res.detail


# ---------------------------------------------------------------------------
# divisibility
# ---------------------------------------------------------------------------

def test_thm_1_1_ising():
    ring, table, sm = _ising()
    t = Target("", ring, table, sm)
    sub = check_subcategory(ring, (0, 1))
    results = verify_thm_1_1(t, sub)
    assert all_passed(results)
    full = check_subcategory(ring, (0, 1, 2))
    results = verify_thm_1_1(t, full)
    assert all_passed(results)
    sigma = [r for r in results if r.params.get("Y") == 2]
    assert sigma[0].lhs == 2


def test_thm_1_1_fib_oracle():
    ring, table, sm = _fib()
    t = Target("", ring, table, sm)
    full = check_subcategory(ring, (0, 1))
    results = verify_thm_1_1(t, full)
    assert all_passed(results)
    tau = [r for r in results if r.params.get("Y") == 1][0]
    # (5 - sqrt5)/2, a root of x^2 - 5x + 5
    assert minimal_polynomial(tau.lhs) == (5, -5, 1)


def test_thm_1_1_precondition():
    ring, table, sm = _svec()
    t = Target("", ring, table, sm)
    full = check_subcategory(ring, (0, 1))
    with pytest.raises(PreconditionFailed):
        verify_thm_1_1(t, full)


def test_thm_1_3_svec():
    ring, table, sm = _svec()
    t = Target("", ring, table, sm)
    results = verify_thm_1_3(t)
    assert all_passed(results)
    item2 = [r for r in results if r.params.get("item") == 2]
    assert len(item2) == 2 and all(r.lhs == 1 for r in item2)


def test_thm_1_3_pointed_degenerate():
    ring, table, sm = _pointed(4, 2)
    t = Target("", ring, table, sm)
    results = verify_thm_1_3(t)
    assert all_passed(results)
    # center {0,2} acts freely on Z_4, so the free-quotient form appears
    assert any(r.params.get("item") == 2 for r in results)


def test_thm_1_3_precondition():
    ring, table, sm = _reps3()
    t = Target("", ring, table, sm)
    with pytest.raises(PreconditionFailed):
        verify_thm_1_3(t)


def test_rem_4_25_oracle():
    ring, table, sm = _pointed(4, 2)
    t = Target("", ring, table, sm)
    results = verify_rem_4_25(t)
    assert all_passed(results)
    assert all(r.lhs == 2 for r in results)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=1, max_value=8), c=st.integers(min_value=0, max_value=7))
def test_pointed_forms_validate_and_match_center(n, c):
    cc = c % n
    ring, table, sm = _pointed(n, cc)
    t = Target("", ring, table, sm)
    # transparent objects: b with n | c*a*b for all a, i.e. multiples of n/gcd
    step = n // math.gcd(cc, n)
    assert t.center.members == tuple(range(0, n, step))
    assert all_passed(verify_thm_4_10(t))
    assert all_passed(verify_thm_4_6(t))


def test_validate_smatrix_inverts_no_dimension(monkeypatch):
    """A valid S-matrix is matched by cross-multiplication, s_ia = d_i
    alpha_aj: no inverse at all (an operation count, so the bound holds on
    any load)."""
    entry = builtin("su2k-4")
    calls = []
    inverse = CycNum.inverse

    def counting(self):
        calls.append(self)
        return inverse(self)
    monkeypatch.setattr(CycNum, "inverse", counting)
    sm = validate_smatrix(entry.ring, entry.table, entry.smatrix.s)
    assert sm.s == entry.smatrix.s
    assert sm.M == entry.smatrix.M
    assert calls == []


# -- a premodular corpus by restriction -----------------------------------------
#
# Every proper subcategory of a premodular key is premodular, so each one is
# written as a document (`rings.restrict`) and run through `validate` and
# every check.  svec^4 is left out: its 65 pointed subcategories would
# dominate the corpus and the time.

RESTRICTED_KEYS = BUILTIN_KEYS + ("su2k-4*fib", "fib*ising")


@functools.cache
def _restricted_corpus(key):
    """(members, document, parsed target) of each proper subcategory."""
    entry = builtin(key)
    out = []
    for sub in enumerate_subcategories(entry.ring):
        if len(sub) < entry.ring.rank:
            doc = restrict(entry, sub.members)
            ring, table, sm = from_document(json.loads(dump_document(doc)))
            out.append((sub.members, doc, Target(key, ring, table, sm)))
    return out


@pytest.mark.parametrize("key", RESTRICTED_KEYS)
def test_restricted_documents_validate_and_pass_every_check(key):
    for members, doc, target in _restricted_corpus(key):
        assert doc["rank"] == len(members)
        assert all(len(row) == len(members) for row in doc["char_table"])
        report = run_checks(
            target, subcategories=enumerate_subcategories(target.ring))
        assert report.summary["failed"] == 0, members


def test_restricted_corpus_has_seventeen_nontrivial_centers():
    targets = [target for key in RESTRICTED_KEYS
               for _, _, target in _restricted_corpus(key)]
    assert len(targets) == 39
    assert sum(t.center.members != (0,) for t in targets) == 17
