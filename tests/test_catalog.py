"""Catalog entries against independently constructed oracles."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuscat.catalog import (BUILTIN_KEYS, _build, _su2k, builtin,
                            entry_summary, product)
from fuscat.cli import main
from fuscat.errors import UnknownKey
from fuscat.exactnum import CycNum
from fuscat.fusion import _dense, global_fpdim
from fuscat.serialize import dump_document, to_document
from fuscat.verify import Target

from rings import (fib_ring, golden, ising_ring, ising_smatrix_rows,
                   ising_table_rows, pointed_smatrix_rows, reps3_ring, sqrt2,
                   su2k4_adjoint_smatrix_rows, su2k_division)

ONE = CycNum.from_rational(1)


def test_all_listed_keys_load():
    for key in BUILTIN_KEYS:
        entry = builtin(key)
        assert isinstance(entry, Target)
        assert entry.label == key
        assert entry.ring.fpdims is not None


def test_entries_are_cached():
    """Two calls share the validated data but not the memo, so no derived
    datum outlives the target of one command."""
    for key in ("ising", "ising*svec"):
        a, b = builtin(key), builtin(key)
        assert a.ring is b.ring and a.table is b.table
        assert a.smatrix is b.smatrix
        assert a is not b and a._memo is not b._memo


def test_commands_leave_no_derived_data_behind():
    assert main(["verify", "ising", "--all-subcategories",
                 "--format", "json"]) == 0
    assert builtin("ising")._memo == {}
    assert _build("ising")._memo == {}


def test_unknown_keys():
    for bad in ("nosuch", "", "su2k-", "su2k-x", "pointed-z4", "a**b",
                "pointed-z0-q1", "su2k--1", "*ising", "pointed-z4-q-1"):
        with pytest.raises(UnknownKey):
            builtin(bad)


def test_ising_matches_independent_construction():
    entry = builtin("ising")
    oracle = ising_ring()
    assert entry.ring.nonzero == oracle.nonzero
    assert entry.ring.dual == oracle.dual
    assert entry.ring.fpdims == oracle.fpdims
    for row, orow in zip(entry.table.alpha, ising_table_rows()):
        assert tuple(row) == tuple(orow)
    for row, orow in zip(entry.smatrix.s, ising_smatrix_rows()):
        assert tuple(row) == tuple(orow)


def test_fib_dimensions():
    entry = builtin("fib")
    oracle = fib_ring()
    assert entry.ring.nonzero == oracle.nonzero
    assert entry.ring.fpdims[1] == golden()
    assert global_fpdim(entry.ring) == golden() + 2


def test_rep_s3_class_dims_are_conjugacy_class_sizes():
    entry = builtin("rep-s3")
    assert entry.ring.nonzero == reps3_ring().nonzero
    sizes = sorted(c.as_rational() for c in entry.table.class_dims)
    assert sizes == [1, 2, 3]


def test_su2k4_dimension_oracles():
    entry = builtin("su2k-4")
    d = entry.ring.fpdims
    assert entry.ring.rank == 5
    assert d[0] == 1 and d[4] == 1
    assert d[1] == d[3]
    assert d[1] * d[1] == 3
    assert d[2] == 2
    assert global_fpdim(entry.ring) == 12


def test_su2k4_adjoint_restriction_is_reps3_datum():
    # X_0, X_4, X_2 of the level-4 entry, in that order, fuse as rep-s3 and
    # carry the longhand adjoint matrix
    entry = builtin("su2k-4")
    adjoint = (0, 4, 2)
    dense = _dense(entry.ring)
    tensor = [[[dense[a][b][c] for c in adjoint] for b in adjoint]
              for a in adjoint]
    assert tensor == _dense(reps3_ring())
    rows = tuple(tuple(entry.smatrix.s[a][b] for b in adjoint)
                 for a in adjoint)
    assert rows == tuple(tuple(CycNum.from_rational(v) for v in row)
                         for row in su2k4_adjoint_smatrix_rows())


def test_su2k2_dimension_matches_ising_square_root():
    assert builtin("su2k-2").ring.fpdims[1] == sqrt2()


def test_su2k_generator_fusion_rule():
    # X1 x Xj = X_{j-1} + X_{j+1}, truncated at the boundary labels
    for k in (1, 2, 3, 4, 5):
        ring = builtin(f"su2k-{k}").ring
        for j in range(ring.rank):
            expected = [0] * ring.rank
            if j - 1 >= 0:
                expected[j - 1] = 1
            if j + 1 <= k:
                expected[j + 1] = 1
            assert tuple(_dense(ring)[1][j]) == tuple(expected)


@pytest.mark.parametrize("k", range(11))
def test_su2k_structure_constants_match_admissibility(k):
    # each entry re-derived from the admissibility condition, stated as an
    # iff per triple, independently of the catalog's range enumeration
    tensor = _dense(builtin(f"su2k-{k}").ring)
    for i in range(k + 1):
        for j in range(k + 1):
            for l in range(k + 1):
                admissible = (abs(i - j) <= l <= min(i + j, 2 * k - i - j)
                              and (i + j + l) % 2 == 0)
                assert tensor[i][j][l] == (1 if admissible else 0), (i, j, l)


@pytest.mark.parametrize("k", range(11))
def test_su2k_matrix_entries_match_their_sine_values(k):
    # S_ij = sin((i+1)(j+1) pi/(k+2)) / sin(pi/(k+2))
    s = builtin(f"su2k-{k}").smatrix.s
    denom = math.sin(math.pi / (k + 2))
    for i in range(k + 1):
        for j in range(k + 1):
            target = math.sin((i + 1) * (j + 1) * math.pi / (k + 2)) / denom
            assert abs(s[i][j].embed_complex() - target) <= 1e-9, (i, j)


def test_su2k_matrix_is_symmetric_with_dimension_first_row():
    for k in (2, 3, 4):
        entry = builtin(f"su2k-{k}")
        s = entry.smatrix.s
        assert tuple(s[0]) == entry.ring.fpdims
        for i in range(entry.ring.rank):
            for j in range(entry.ring.rank):
                assert s[i][j] == s[j][i]


def _form(v):
    return v.conductor, v._nums, v._den


@pytest.mark.parametrize("k", range(15))
def test_su2k_quantum_integers_match_the_division_oracle(k):
    """Every entry, class dimension and fpdim equals the division route's
    in conductor, numerators and denominator, and so does the document."""
    entry = _su2k(k)
    ring, table, sm = su2k_division(k)
    for built, oracle in ((entry.smatrix.s, sm.s),
                          (entry.table.alpha, table.alpha),
                          ((entry.table.class_dims,), (table.class_dims,)),
                          ((entry.ring.fpdims,), (ring.fpdims,))):
        assert [[_form(v) for v in row] for row in built] == \
            [[_form(v) for v in row] for row in oracle]
    assert (dump_document(to_document(entry.ring, entry.table, entry.smatrix))
            == dump_document(to_document(ring, table, sm)))


@pytest.mark.parametrize("k", (10, 14))
def test_su2k_build_takes_no_inverse_beyond_the_validators(k, monkeypatch):
    """The entries are sums of powers of zeta; the only inverses are the
    validators' class dimensions and S-matrix row normalization, at most
    2 rank (an operation count, so the bound holds on any load)."""
    calls = []
    inverse = CycNum.inverse

    def counting(self):
        calls.append(self)
        return inverse(self)
    monkeypatch.setattr(CycNum, "inverse", counting)
    entry = _su2k(k)
    assert 0 < len(calls) <= 2 * entry.ring.rank


def test_pointed_matrix_matches_polarization_oracle():
    entry = builtin("pointed-z3-q1")
    for row, orow in zip(entry.smatrix.s, pointed_smatrix_rows(3, 1)):
        assert tuple(row) == tuple(orow)


def test_pointed_center_depends_on_form():
    c1 = builtin("pointed-z4-q1").center
    c2 = builtin("pointed-z4-q2").center
    assert c1.members == (0,)
    assert c2.members == (0, 2)


def test_classifications():
    expected = {
        "trivial": "modular",
        "svec": "symmetric",
        "ising": "modular",
        "fib": "modular",
        "rep-s3": "symmetric",
        "su2k-2": "modular",
        "su2k-3": "modular",
        "su2k-4": "modular",
        "pointed-z2-q1": "modular",
        "pointed-z3-q1": "modular",
        "pointed-z4-q1": "modular",
        "pointed-z4-q2": "degenerate",
        "ising*svec": "degenerate",
    }
    for key, cls in expected.items():
        assert entry_summary(builtin(key))["class"] == cls, key


def test_product_ising_svec():
    entry = product("ising", "svec")
    assert entry.label == "ising*svec"
    assert entry.ring.rank == 6
    center = entry.center
    # (1, 1) and (1, f) in the (i, ip) -> 2 i + ip flattening
    assert center.members == (0, 1)


@pytest.mark.parametrize("key", [k for k in BUILTIN_KEYS if "*" not in k])
def test_center_of_product_with_svec_is_the_product_of_centers(key):
    """Metamorphic: svec is symmetric, so its center is all of it, and the
    center of A ⊠ svec is center(A) × center(svec) under the (i, i') ->
    2 i + i' flattening of `deligne_product`."""
    a, s = builtin(key).center.members, builtin("svec").center.members
    expected = tuple(sorted(i * 2 + ip for i in a for ip in s))
    assert builtin(f"{key}*svec").center.members == expected


def test_product_svec_svec_is_symmetric():
    entry = product("svec", "svec")
    assert entry.ring.rank == 4
    center = entry.center
    assert center.members == (0, 1, 2, 3)


def test_product_with_trivial_preserves_data():
    entry = product("fib", "trivial")
    fib = builtin("fib")
    assert entry.ring.nonzero == fib.ring.nonzero
    assert entry.ring.fpdims == fib.ring.fpdims
    assert [tuple(r) for r in entry.smatrix.s] == [tuple(r) for r in fib.smatrix.s]


def test_triple_product_key():
    entry = builtin("svec*svec*svec")
    assert entry.ring.rank == 8
    assert entry_summary(entry)["class"] == "symmetric"


def test_entry_summary_fields():
    summary = entry_summary(builtin("ising*svec"))
    assert summary == {
        "key": "ising*svec",
        "rank": 6,
        "fpdim": 8.0,
        "center_size": 2,
        "class": "degenerate",
    }


def test_level4_symmetric_matrix_landscape():
    """Every symmetric character-row matrix on the level-4 ring, by brute
    force over row-character assignments: exactly four exist, and none has
    center {0, 4}."""
    from itertools import product as iproduct

    from fuscat.premod import validate_smatrix

    entry = builtin("su2k-4")
    ring, table = entry.ring, entry.table
    r = ring.rank
    centers = {}
    for assign in iproduct(range(r), repeat=r):
        rows = [[table.alpha[j][assign[i]] * ring.fpdims[i] for j in range(r)]
                for i in range(r)]
        if any(rows[0][j] != ring.fpdims[j] for j in range(r)):
            continue
        if any(rows[i][j] != rows[j][i]
               for i in range(r) for j in range(i + 1, r)):
            continue
        sm = validate_smatrix(ring, table, rows)
        center = Target("", ring, table, sm).center
        centers.setdefault(center.members, []).append(assign)
    assert sorted(centers) == [(0,), (0, 1, 2, 3, 4), (0, 2, 4)]
    assert sorted(len(v) for v in centers.values()) == [1, 1, 2]
    # in particular no symmetric matrix makes exactly the boundary object
    # X_4 transparent: a center of {0, 4} is unrealizable on this ring
    assert (0, 4) not in centers


@settings(max_examples=10, deadline=None)
@given(n=st.integers(min_value=1, max_value=7),
       c=st.integers(min_value=0, max_value=6))
def test_pointed_center_is_kernel_subgroup(n, c):
    import math

    entry = builtin(f"pointed-z{n}-q{c}")
    step = n // math.gcd(c % n, n)
    center = entry.center
    assert center.members == tuple(range(0, n, step))
