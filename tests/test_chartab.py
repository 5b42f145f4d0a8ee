"""Character tables, formal codegrees, class dimensions, and their support sums."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuscat.catalog import BUILTIN_KEYS, builtin
from fuscat.chartab import (
    characters_numeric,
    match_numeric_columns,
    support_JD,
    validate_character_table,
    verify_eq_2_4,
    verify_eq_2_7,
)
from fuscat.errors import (
    ExactDataMissing,
    NotAlgebraMap,
    NotIdempotent,
    SingularTable,
)
from fuscat.exactnum import CycNum
from fuscat.fusion import Subcategory, check_subcategory, validate_fusion_ring
from fuscat.verify import Target

from rings import (
    all_passed,
    fib_ring,
    fib_table_rows,
    golden,
    group_ring,
    group_table_rows,
    ising_ring,
    ising_table_rows,
    reps3_ring,
    reps3_table_rows,
    sqrt2,
)

ONE = CycNum.from_rational(1)
ZERO = CycNum.from_rational(0)


# ---------------------------------------------------------------------------
# validation and derived data
# ---------------------------------------------------------------------------

def test_ising_table_class_dims():
    ring = ising_ring()
    table = validate_character_table(ring, ising_table_rows())
    assert table.fp_column == 0
    # the formal codegrees sum_i alpha_ij alpha_i*j, and dim(C) = 4 over them
    codegrees = [sum((table.alpha[i][j] * table.alpha[ring.dual[i]][j]
                      for i in range(3)), CycNum.from_rational(0))
                 for j in range(3)]
    assert codegrees == [CycNum.from_rational(4), CycNum.from_rational(4),
                         CycNum.from_rational(2)]
    assert table.class_dims == (ONE, ONE, CycNum.from_rational(2))


def test_reps3_table_class_dims_match_class_sizes():
    table = validate_character_table(reps3_ring(), reps3_table_rows())
    assert [c.as_rational() for c in table.class_dims] == [1, 3, 2]


def test_fib_table_class_dims():
    table = validate_character_table(fib_ring(), fib_table_rows())
    phi = golden()
    assert table.class_dims == (ONE, phi * phi)


def test_group_table_class_dims_all_one():
    table = validate_character_table(group_ring(4), group_table_rows(4))
    assert all(c == 1 for c in table.class_dims)
    assert table.fp_column == 0


def test_table_requires_exact_dims():
    floaty = validate_fusion_ring(
        [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], (0, 1))
    with pytest.raises(ExactDataMissing):
        validate_character_table(floaty, ((1, 1), (1, -1)))


def test_tampered_value_is_not_algebra_map():
    rows = [list(r) for r in ising_table_rows()]
    rows[2][1] = ONE   # then mu(s)^2 = 1 but 1 + mu(f) = 2
    with pytest.raises(NotAlgebraMap) as err:
        validate_character_table(ising_ring(), rows)
    assert err.value.column == 1


def test_duplicate_columns_rejected():
    rows = (
        (ONE, ONE, ONE),
        (ONE, ONE, ONE),
        (sqrt2(), sqrt2(), -sqrt2()),
    )
    with pytest.raises(SingularTable):
        validate_character_table(ising_ring(), rows)


def test_unit_row_must_be_ones():
    rows = [list(r) for r in ising_table_rows()]
    rows[0][2] = CycNum.from_rational(2)
    with pytest.raises(NotAlgebraMap) as err:
        validate_character_table(ising_ring(), rows)
    assert err.value.column == 2


# ---------------------------------------------------------------------------
# subcategory support
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("members,expected", [
    ((0,), (0, 1, 2)),
    ((0, 1), (0, 1)),
    ((0, 1, 2), (0,)),
])
def test_support_ising(members, expected):
    ring = ising_ring()
    table = validate_character_table(ring, ising_table_rows())
    assert support_JD(ring, table, check_subcategory(ring, members)) == expected


def test_support_reps3_pointed():
    ring = reps3_ring()
    table = validate_character_table(ring, reps3_table_rows())
    sub = check_subcategory(ring, (0, 1))
    assert support_JD(ring, table, sub) == (0, 2)


def test_support_rejects_unclosed_set():
    ring = ising_ring()
    table = validate_character_table(ring, ising_table_rows())
    with pytest.raises(NotIdempotent):
        support_JD(ring, table, Subcategory((0, 2)))


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ring_fn,rows_fn", [
    (ising_ring, ising_table_rows),
    (fib_ring, fib_table_rows),
    (reps3_ring, reps3_table_rows),
])
def test_support_class_dim_sum(ring_fn, rows_fn):
    ring = ring_fn()
    table = validate_character_table(ring, rows_fn())
    full = check_subcategory(ring, range(ring.rank))
    res = verify_eq_2_7(Target("", ring, table), full)
    assert res.passed and res.lhs == 1


def test_class_dim_sum_ising_pointed():
    ring = ising_ring()
    table = validate_character_table(ring, ising_table_rows())
    res = verify_eq_2_7(Target("", ring, table), check_subcategory(ring, (0, 1)))
    assert res.passed
    assert res.lhs == 2 and res.rhs == 2


def test_orthogonality_scan():
    for ring_fn, rows_fn in [(ising_ring, ising_table_rows),
                             (reps3_ring, reps3_table_rows),
                             (fib_ring, fib_table_rows)]:
        ring = ring_fn()
        table = validate_character_table(ring, rows_fn())
        results = verify_eq_2_4(Target("", ring, table))
        assert len(results) == ring.rank ** 2
        assert all_passed(results)


# ---------------------------------------------------------------------------
# numeric cross-check
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ring_fn,rows_fn", [
    (ising_ring, ising_table_rows),
    (fib_ring, fib_table_rows),
    (reps3_ring, reps3_table_rows),
])
def test_numeric_characters_match_exact(ring_fn, rows_fn):
    ring = ring_fn()
    table = validate_character_table(ring, rows_fn())
    numeric = characters_numeric(ring, seed=0)
    perm = match_numeric_columns(table, numeric)
    assert sorted(perm) == list(range(ring.rank))


def test_numeric_characters_deterministic():
    a = characters_numeric(reps3_ring(), seed=7)
    b = characters_numeric(reps3_ring(), seed=7)
    assert np.array_equal(a, b)


def _sum(values):
    return sum(values, ZERO)


@pytest.mark.parametrize("key", BUILTIN_KEYS
                         + tuple(f"su2k-{k}" for k in range(5, 15)))
def test_identities_that_keep_the_class_dimension_raises_unreached(key):
    """The two identities of the class dimensions that
    `validate_character_table` proves in its docstring and does not
    compute: the FP column's codegree is sum_i d_i d_{i*} = sum_i d_i^2,
    so its class dimension is 1, and the idempotents
    e_j = (1/cod_j) sum_i alpha[i*][j] b_i sum to the unit, whose unit
    coefficient is sum_j 1/cod_j = 1, so the class dimensions sum to
    dim(C).  This is the only place they are checked, one CycNum operation
    at a time."""
    entry = builtin(key)
    ring, table = entry.ring, entry.table
    r, d, dual, alpha = ring.rank, ring.fpdims, ring.dual, table.alpha
    cod = [_sum(alpha[i][j] * alpha[dual[i]][j] for i in range(r))
           for j in range(r)]
    dim = _sum(x * x for x in d)
    assert cod[table.fp_column] == _sum(d[i] * d[dual[i]] for i in range(r))
    assert cod[table.fp_column] == dim
    inv = [c.inverse() for c in cod]
    for i in range(r):
        unit_part = 1 if i == 0 else 0
        assert _sum(alpha[dual[i]][j] * inv[j] for j in range(r)) == unit_part
    assert _sum(inv) == 1
    assert table.class_dims[table.fp_column] == 1
    assert _sum(table.class_dims) == dim


@pytest.mark.parametrize("key", ("su2k-10", "ising"))
def test_validate_character_table_builds_o_r_values_per_column(key, monkeypatch):
    """Columns are proven characters on integer numerators: the whole
    validation builds at most 4 (r + 1) CycNums per column (re-embedding,
    equality across conductors, codegrees, class dimensions).  It is an
    operation count, so the bound holds on any load.  A scan with one CycNum
    per product and partial sum built 3353 on su2k-10 (bound 528) and 83 on
    ising (bound 48)."""
    entry = builtin(key)
    ring, r = entry.ring, entry.ring.rank
    # rationals over conductor 1 beside sqrt 2 over 8 make ising re-embed
    rows = [[CycNum.from_rational(v.as_rational()) if v.is_rational() else v
             for v in row] for row in entry.table.alpha]
    built = []
    for name in ("_from_ints", "_rational"):
        make = getattr(CycNum, name).__func__

        def counting(cls, *args, make=make):
            built.append(args[0])
            return make(cls, *args)
        monkeypatch.setattr(CycNum, name, classmethod(counting))
    table = validate_character_table(ring, rows)
    assert 0 < len(built) <= 4 * (r + 1) * r
    assert table.alpha == entry.table.alpha


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=12, deadline=None)
@given(n=st.integers(min_value=1, max_value=7))
def test_group_tables_validate(n):
    ring = group_ring(n)
    table = validate_character_table(ring, group_table_rows(n))
    assert all(c == 1 for c in table.class_dims)
    # every subgroup's support sums to the index
    for d in range(1, n + 1):
        if n % d:
            continue
        sub = check_subcategory(ring, range(0, n, n // d))
        res = verify_eq_2_7(Target("", ring, table), sub)
        assert res.passed
        assert res.rhs == n // d


@settings(max_examples=12, deadline=None)
@given(n=st.integers(min_value=2, max_value=6), seed=st.integers(0, 2 ** 16))
def test_numeric_group_characters(n, seed):
    ring = group_ring(n)
    table = validate_character_table(ring, group_table_rows(n))
    numeric = characters_numeric(ring, seed=seed)
    perm = match_numeric_columns(table, numeric, tol=1e-7)
    assert sorted(perm) == list(range(n))
