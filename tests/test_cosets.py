"""Coset partitions, block-algebra constants, orthogonality, integrality."""

import pytest
from hypothesis import given, settings, strategies as st

from fuscat.catalog import BUILTIN_KEYS, builtin
from fuscat.chartab import validate_character_table
from fuscat.errors import PreconditionFailed
from fuscat.exactnum import CycNum
from fuscat.cosets import (
    coset_partition,
    free_action,
    hecke_constants,
    verify_cor_3_9_1,
    verify_cor_3_9_2,
    verify_eq_3_1,
    verify_eq_3_6,
    verify_eq_3_7,
    verify_lemma_3_12,
    verify_prop_3_4,
)
from fuscat.fusion import _dense, check_subcategory, enumerate_subcategories
from fuscat.verify import Target

from rings import (
    all_passed,
    block_element,
    block_of,
    fib_ring,
    fib_table_rows,
    group_ring,
    group_table_rows,
    hecke_associative,
    hecke_dual_symmetric,
    ising_ring,
    ising_table_rows,
    k_mul,
    refines,
    reps3_ring,
    reps3_table_rows,
)

ONE = CycNum.from_rational(1)


def _ising_pointed():
    ring = ising_ring()
    return ring, check_subcategory(ring, (0, 1))


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def test_partition_ising_pointed():
    ring, sub = _ising_pointed()
    dec = coset_partition(Target("", ring), sub)
    assert dec.blocks == ((0, 1), (2,))
    assert dec.reps == (0, 2)
    assert dec.reg_dims == (CycNum.from_rational(2), CycNum.from_rational(2))
    assert dec.dual_map == (0, 1)


def test_partition_wrt_unit_is_discrete():
    ring = reps3_ring()
    dec = coset_partition(Target("", ring), check_subcategory(ring, (0,)))
    assert dec.blocks == ((0,), (1,), (2,))
    assert dec.reps == (0, 1, 2)


def test_partition_wrt_full_is_single_block():
    ring = fib_ring()
    dec = coset_partition(Target("", ring), check_subcategory(ring, (0, 1)))
    assert dec.blocks == ((0, 1),)


def test_partition_z6_and_dual_rep_convention():
    ring = group_ring(6)
    dec = coset_partition(Target("", ring), check_subcategory(ring, (0, 3)))
    assert dec.blocks == ((0, 3), (1, 4), (2, 5))
    assert dec.dual_map == (0, 2, 1)
    # the partner of block (1,4) takes the dual of its representative: 5, not 2
    assert dec.reps == (0, 1, 5)


def test_block_of():
    ring, sub = _ising_pointed()
    dec = coset_partition(Target("", ring), sub)
    assert block_of(dec, 1) == 0
    assert block_of(dec, 2) == 1


def _union_find_blocks(ring, sub):
    """Oracle: the classes of the union-find closure of i ~ k whenever
    N_{i s}^k > 0 for a member s, each sorted, in order of least member."""
    parent, tensor = list(range(ring.rank)), _dense(ring)

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(ring.rank):
        for s in sub.members:
            for k, n in enumerate(tensor[i][s]):
                if n:
                    ri, rk = find(i), find(k)
                    parent[max(ri, rk)] = min(ri, rk)
    classes = {}
    for i in range(ring.rank):
        classes.setdefault(find(i), []).append(i)
    return tuple(sorted(tuple(c) for c in classes.values()))


PRODUCT_KEYS = ("svec*svec*svec", "pointed-z4-q2*svec", "pointed-z4-q1*svec",
                "rep-s3*svec", "rep-s3*pointed-z2-q1")


@pytest.mark.parametrize("key", BUILTIN_KEYS + PRODUCT_KEYS)
def test_partition_matches_union_find_oracle(key):
    """The blocks are the union-find classes, and each is closed under
    X -> k with N_Xj^k > 0, j in D: the premise by which `verify_eq_3_1`
    compares [X] R_D with FPdim(D) e_t on X's block only."""
    ring = builtin(key).ring
    for sub in enumerate_subcategories(ring):
        blocks = coset_partition(Target("", ring), sub).blocks
        assert blocks == _union_find_blocks(ring, sub)
        for block in blocks:
            assert all(k in block for x in block for j in sub.members
                       for k, _ in ring.nonzero[x][j]), (sub.members, block)


# ---------------------------------------------------------------------------
# block algebra
# ---------------------------------------------------------------------------

def test_hecke_ising_oracle():
    ring, sub = _ising_pointed()
    H = hecke_constants(Target("", ring), sub)
    a, b = 0, 1
    assert H[b][b][a] == 1
    assert H[b][b][b].is_zero()
    assert H[a][b][b] == 1
    assert H[a][a] == (ONE, CycNum.from_rational(0))


def test_hecke_unit_block_acts_as_identity():
    ring = reps3_ring()
    H = hecke_constants(Target("", ring), check_subcategory(ring, (0, 1)))
    for n in range(len(H)):
        for p in range(len(H)):
            assert H[0][n][p] == (1 if n == p else 0)


@pytest.mark.parametrize("ring_fn,members", [
    (ising_ring, (0, 1)),
    (ising_ring, (0,)),
    (reps3_ring, (0, 1)),
    (fib_ring, (0,)),
])
def test_hecke_well_formed(ring_fn, members):
    ring = ring_fn()
    sub = check_subcategory(ring, members)
    target = Target("", ring)
    H = hecke_constants(target, sub)   # internal cross-checks would raise
    assert hecke_associative(H)
    assert hecke_dual_symmetric(H, target.cosets(sub).dual_map)


def test_block_elements_are_idempotent_for_unit_block():
    ring, sub = _ising_pointed()
    dec = coset_partition(Target("", ring), sub)
    e0 = block_element(ring, dec, 0)
    assert k_mul(ring, e0, e0) == e0


# ---------------------------------------------------------------------------
# regular proportionality
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ring_fn,members", [
    (ising_ring, (0, 1)),
    (ising_ring, (0, 1, 2)),
    (reps3_ring, (0, 1)),
    (fib_ring, (0, 1)),
])
def test_regular_proportionality(ring_fn, members):
    ring = ring_fn()
    sub = check_subcategory(ring, members)
    assert all_passed(verify_eq_3_1(Target("", ring), sub))


# ---------------------------------------------------------------------------
# algebra dimension and orthogonality
# ---------------------------------------------------------------------------

def test_block_count_equals_support_size():
    ring, sub = _ising_pointed()
    table = validate_character_table(ring, ising_table_rows())
    results = verify_prop_3_4(Target("", ring, table), sub)
    assert all_passed(results)
    assert results[0].lhs == 2 and results[0].rhs == 2


def test_first_orthogonality_ising_oracle():
    ring, sub = _ising_pointed()
    table = validate_character_table(ring, ising_table_rows())
    t = Target("", ring, table)
    res = {(r.params["k"], r.params["l"]): r for r in verify_eq_3_6(t, sub)}
    assert res[0, 0].passed and res[0, 0].lhs == 4
    assert res[0, 1].passed and res[0, 1].lhs.is_zero()


def test_first_orthogonality_ranges_over_the_support():
    # J_D = (0, 1) for the pointed part of Ising: column 2 is never paired
    ring, sub = _ising_pointed()
    table = validate_character_table(ring, ising_table_rows())
    records = verify_eq_3_6(Target("", ring, table), sub)
    assert [(r.params["k"], r.params["l"]) for r in records] == \
        [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(r.id == "eq-3.6" and r.params["D"] == [0, 1] for r in records)
    assert all_passed(records)


def test_second_orthogonality_ising_oracle():
    ring, sub = _ising_pointed()
    table = validate_character_table(ring, ising_table_rows())
    t = Target("", ring, table)
    res = {(r.params["t"], r.params["s"]): r for r in verify_eq_3_7(t, sub)}
    assert list(res) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert res[1, 1].passed and res[1, 1].lhs == 4
    assert res[0, 1].passed and res[0, 1].lhs.is_zero()


@pytest.mark.parametrize("ring_fn,rows_fn", [
    (ising_ring, ising_table_rows),
    (reps3_ring, reps3_table_rows),
    (fib_ring, fib_table_rows),
])
def test_orthogonality_full_sweep(ring_fn, rows_fn):
    ring = ring_fn()
    table = validate_character_table(ring, rows_fn())
    from fuscat.chartab import support_JD
    target = Target("", ring, table)
    for sub in enumerate_subcategories(ring):
        nb = len(target.cosets(sub).blocks)
        jd = support_JD(ring, table, sub)
        first, second = verify_eq_3_6(target, sub), verify_eq_3_7(target, sub)
        assert len(first) == len(jd) ** 2 and all_passed(first)
        assert len(second) == nb ** 2 and all_passed(second)


# ---------------------------------------------------------------------------
# integrality
# ---------------------------------------------------------------------------

def test_integrality_claim_one_ising():
    ring, sub = _ising_pointed()
    results = verify_cor_3_9_1(Target("", ring), sub)
    assert all_passed(results)
    sigma = [r for r in results if r.params["member"] == 2]
    assert len(sigma) == 1 and sigma[0].lhs == 4


def test_integrality_claim_two_requires_free_action():
    ring, sub = _ising_pointed()
    table = validate_character_table(ring, ising_table_rows())
    assert not free_action(ring, sub)   # f fixes s
    with pytest.raises(PreconditionFailed):
        verify_cor_3_9_2(Target("", ring, table), sub)


def test_integrality_claim_two_requires_pointed():
    ring = reps3_ring()
    table = validate_character_table(ring, reps3_table_rows())
    full = check_subcategory(ring, (0, 1, 2))
    with pytest.raises(PreconditionFailed):
        verify_cor_3_9_2(Target("", ring, table), full)


def test_integrality_claim_two_on_free_group_action():
    ring = group_ring(4)
    table = validate_character_table(ring, group_table_rows(4))
    sub = check_subcategory(ring, (0, 2))
    assert free_action(ring, sub)
    results = verify_cor_3_9_2(Target("", ring, table), sub)
    assert all_passed(results)
    assert all(r.lhs == 2 for r in results)


# ---------------------------------------------------------------------------
# trace compatibility and refinement
# ---------------------------------------------------------------------------

def test_trace_compatibility_examples():
    ring, sub = _ising_pointed()
    assert verify_lemma_3_12(Target("", ring), sub, sub).passed
    vec = check_subcategory(ring, (0,))
    assert verify_lemma_3_12(Target("", ring), sub, vec).passed

    z6 = group_ring(6)
    d = check_subcategory(z6, (0, 3))
    a = check_subcategory(z6, (0, 2, 4))
    res = verify_lemma_3_12(Target("", z6), d, a)
    assert res.passed
    assert res.lhs == [[0], [2], [4]]


def test_trace_compatibility_all_pairs_reps3():
    ring = reps3_ring()
    subs = enumerate_subcategories(ring)
    for d in subs:
        for a in subs:
            assert verify_lemma_3_12(Target("", ring), d, a).passed


def test_partition_refinement_chain():
    ring = group_ring(12)
    subs = enumerate_subcategories(ring)
    decs = {s.members: coset_partition(Target("", ring), s) for s in subs}
    for s1 in subs:
        for s2 in subs:
            if set(s1.members) <= set(s2.members):
                assert refines(decs[s1.members].blocks, decs[s2.members].blocks)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=1, max_value=9), data=st.data())
def test_group_partition_matches_subgroup_cosets(n, data):
    ring = group_ring(n)
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    d = data.draw(st.sampled_from(divisors))
    sub = check_subcategory(ring, range(0, n, n // d)) if d > 1 else \
        check_subcategory(ring, (0,))
    dec = coset_partition(Target("", ring), sub)
    # oracle: cosets of the subgroup generated by n//d
    step = n // d
    expected = sorted(tuple(sorted((r + k * step) % n for k in range(d)))
                      for r in range(step))
    assert sorted(dec.blocks) == expected
    assert hecke_associative(hecke_constants(Target("", ring), sub))
