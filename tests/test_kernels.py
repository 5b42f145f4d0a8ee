"""Sparse fusion kernels and the prop-3.4 oracles against their dense loops.

The associativity axiom of `validate_fusion_ring` and the `k_mul` oracle
visit only nonzero structure constants.  The dense loops in `rings.py`
contract every index tuple; here both agree on every subcategory of the
builtins and the benchmark's product keys, and both reject the same
mutated inputs.  The ring stores N once, as the `nonzero` view that one
`_nonzero` call builds, and `deligne_product` fills its dense validator
input from the factors' nonzero rows, matching the six-loop dense oracle.

eq-3.1 is decided once per subcategory, by `hecke_closure`, on integer
numerators of the dimensions and their pair products, which the kernel
alone builds, once per target, and its block verdicts decide the Hecke
closure.  The verdicts, the closure,
the constants `hecke_constants` reads off one representative per block,
and whether it raises equal those of the `CycNum` loops over block
elements and of the block-product closure in `rings.py`, also on rings
whose dimensions were corrupted after validation, by fixed changes or by
generated values at conductors 5, 8 and 12 with 80-bit numerators.  The kernel runs once
per subcategory across eq-3.1, prop-3.4 and `hecke_constants`.
`verify_prop_3_4`'s associativity and dual-symmetry records take the
closure's verdict, by a proof, so the scans that recompute them,
`hecke_associative` and `hecke_dual_symmetric`, live in `rings.py` as
oracles.  Both hold on every H `hecke_constants` returns; a block verdict
forced False makes `hecke_constants` raise and fails those two records,
and a corrupted row of H gives an H the oracles reject.
`hecke_associative` agrees with its dense loop; it accumulates each side as
`_int_mul` products of integer numerator vectors over one conductor and
denominator.  A
commutative H takes its symmetric-triple-product path, which perturbing
H_{mn}^p and H_{nm}^p together reaches; any other H takes the two-sided
loop, which a single perturbed H_{mn}^p with m != n reaches.
`k_mul`, the codegrees and subcategory dimensions (each one `_entry`),
the Hecke constants, the eq-3.6/3.7 sums (the Gram kernel `_gram`) and
the eq-2.4 sums, read from the codegrees
and the column conductors, give the conductor and canonical form of the
`CycNum` loops in `rings.py`, `support_JD` gives the support of the
class-function route, and `centralizer` and the center `m_map` gives
the centralizers of the pair-product scan.  The subcategory lattice, closures
and restricted blocks, computed on support bitmasks, match the set-based
powerset and search oracles.  The integer multiplicativity kernel behind the dimension,
table-column and S-matrix-row checks names the pair the CycNum scans name,
and the vectorized numeric residual gives the pair-by-pair verdict.
"""

import dataclasses
import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fuscat.chartab
import fuscat.cosets
import fuscat.exactnum
import fuscat.fusion
import fuscat.verify
from fuscat.catalog import BUILTIN_KEYS, _build, builtin
from fuscat.chartab import (_embedded, _is_numeric_character_table,
                            characters_numeric, match_numeric_columns,
                            support_JD, validate_character_table,
                            verify_eq_2_4)
from fuscat.cosets import (hecke_closure, hecke_constants, verify_eq_3_1,
                           verify_eq_3_6, verify_eq_3_7, verify_prop_3_4)
from fuscat.errors import (DegenerateSpectrum, FuscatError, InconsistentCoset,
                           NotAlgebraMap, PsiNotCharacter, ValidationError)
from fuscat.exactnum import CycNum, _int_mul
from fuscat.fusion import (FusionRing, _dense, _derived,
                           _first_non_character, _generators, _mask,
                           _nonzero, _supports, deligne_product,
                           enumerate_subcategories, global_fpdim,
                           restricted_blocks, sub_fpdim, subcategory_closure,
                           validate_fusion_ring)
from fuscat.premod import centralizer, m_map, validate_smatrix
from fuscat.reports import _exact_key
from fuscat.verify import Target, run_checks

from rings import (
    ONE,
    ZERO,
    block_elements,
    centralizer_loop,
    characters_numeric_loop,
    codegrees_by_products,
    deligne_product_dense,
    enumerate_subcategories_powerset,
    eq_2_4_lhs_loop,
    eq_3_1_loop,
    eq_3_6_lhs_loop,
    eq_3_7_lhs_loop,
    first_associativity_violation,
    first_non_character_pairs,
    first_product_violation,
    fib_ring,
    fp_column,
    group_ring,
    hecke_associative,
    hecke_associative_dense,
    hecke_closure_by_products,
    hecke_constants_loop,
    hecke_dual_symmetric,
    ising_ring,
    k_mul,
    k_mul_dense,
    k_mul_loop,
    lucas,
    match_numeric_columns_loop,
    numeric_residual_ok_loop,
    proven_closure,
    reps3_ring,
    restricted_blocks_sets,
    smatrix_rows_by_inverse,
    smatrix_rows_scan_first,
    subcategory_closure_sets,
    sum_of_products,
    support_jd_loop,
    table_columns_scan,
    validate_fpdims_scan,
    validate_fusion_ring_dense,
)

PRODUCT_KEYS = ("svec*svec*svec", "pointed-z4-q2*svec", "pointed-z4-q1*svec",
                "rep-s3*svec", "rep-s3*pointed-z2-q1")
KEYS = BUILTIN_KEYS + PRODUCT_KEYS


def _algebras(ring):
    """(coset decomposition, H) for every subcategory of the ring."""
    target = Target("", ring)
    for sub in enumerate_subcategories(ring):
        yield target.cosets(sub), hecke_constants(target, sub)


def _restrict(tensor, members):
    return [[[tensor[i][j][k] for k in members] for j in members] for i in members]


def _perturbed(H, m, n, p, delta=1):
    structure = [[list(row) for row in plane] for plane in H]
    structure[m][n][p] = structure[m][n][p] + delta
    return tuple(tuple(tuple(row) for row in plane) for plane in structure)


@pytest.mark.parametrize("key", KEYS)
def test_hecke_associative_matches_dense_oracle(key):
    for dec, H in _algebras(builtin(key).ring):
        assert hecke_associative(H) is True
        assert hecke_associative_dense(H) is True, dec.blocks[0]


def _form(v):
    return v.conductor, v._nums, v._den


@pytest.mark.parametrize("key", BUILTIN_KEYS + ("rep-s3*svec", "fib*ising",
                                                "su2k-4*fib"))
def test_sums_of_products_match_the_cycnum_loops(key):
    """k_mul, the codegrees, the subcategory dimensions and the
    eq-2.4/3.6/3.7 sums give the conductor, numerators and denominator of
    the CycNum loops they replaced; fib*ising and su2k-4*fib mix conductors
    1, 5, 8, 40 and 24, 120."""
    target = builtin(key)
    ring, table = target.ring, target.table
    for rec in verify_eq_2_4(target):
        want = eq_2_4_lhs_loop(target, rec.params["l"], rec.params["k"])
        assert _form(rec.lhs) == _form(want), rec.params
    for j, cd in enumerate(table.class_dims):
        codegree = eq_2_4_lhs_loop(target, j, j)
        assert _form(cd) == _form(target.global_dim / codegree), j
    for sub in enumerate_subcategories(ring):
        assert _form(sub_fpdim(ring, sub)) == _form(sum_of_products(
            [(ring.fpdims[i], ring.fpdims[i]) for i in sub])), sub.members
        es = block_elements(ring, target.cosets(sub))
        for x, y in itertools.combinations_with_replacement(es, 2):
            assert list(map(_form, k_mul(ring, x, y))) == \
                list(map(_form, k_mul_loop(ring, x, y)))
        for rec in verify_eq_3_6(target, sub):
            k, l = rec.params["k"], rec.params["l"]
            assert _form(rec.lhs) == _form(eq_3_6_lhs_loop(target, sub, k, l))
        for rec in verify_eq_3_7(target, sub):
            t, u = rec.params["t"], rec.params["s"]
            assert _form(rec.lhs) == _form(eq_3_7_lhs_loop(target, sub, t, u))


@pytest.mark.parametrize("key", tuple(f"su2k-{k}" for k in range(5, 11))
                         + ("svec*svec*svec*svec",))
def test_eq_2_4_sums_match_the_cycnum_loop(key):
    """Every eq-2.4 lhs, the codegree on the diagonal and a zero at the lcm
    of the two column conductors off it, has the conductor, numerators and
    denominator of the loop sum; svec^4 holds rank 16."""
    target = builtin(key)
    records = verify_eq_2_4(target)
    assert len(records) == target.ring.rank ** 2
    for rec in records:
        want = eq_2_4_lhs_loop(target, rec.params["l"], rec.params["k"])
        assert _form(rec.lhs) == _form(want), rec.params
        assert rec.passed
    for j, cod in enumerate(target.table.codegrees):
        assert _form(cod) == _form(eq_2_4_lhs_loop(target, j, j)), j


@pytest.mark.parametrize("key", KEYS)
def test_ring_associativity_matches_dense_oracle(key):
    ring = builtin(key).ring
    for sub in enumerate_subcategories(ring):
        members = sub.members
        tensor = _restrict(_dense(ring), members)
        dual = [members.index(ring.dual[i]) for i in members]
        validate_fusion_ring(tensor, dual)
        assert first_associativity_violation(tensor) is None, members


def _assert_k_mul_agrees(ring, seed):
    rng = random.Random(seed)
    scalars = [ZERO, ZERO, CycNum.from_rational(Fraction(-3, 2)), *ring.fpdims]
    for _ in range(6):
        x = tuple(rng.choice(scalars) for _ in range(ring.rank))
        y = tuple(rng.choice(scalars) for _ in range(ring.rank))
        assert k_mul(ring, x, y) == k_mul_dense(ring, x, y)


@pytest.mark.parametrize("key", KEYS)
def test_k_mul_matches_dense_oracle(key):
    _assert_k_mul_agrees(builtin(key).ring, key)


def test_k_mul_matches_dense_oracle_with_multiplicities():
    # the catalog rings are multiplicity-free; X*X = 1 + 4X is not
    tensor, phi, _ = lucas(3)
    _assert_k_mul_agrees(validate_fusion_ring(tensor, (0, 1), fpdims=(1, phi)), 3)


@pytest.mark.parametrize("a,b", itertools.product(
    ("trivial", "svec", "ising", "fib", "rep-s3"), repeat=2))
def test_deligne_product_matches_dense_oracle(a, b):
    ra, rb = builtin(a).ring, builtin(b).ring
    assert _dense(deligne_product(ra, rb)) == deligne_product_dense(ra, rb)


def test_ring_stores_n_once(monkeypatch):
    """N is stored once, as `nonzero`, which one `_nonzero` call builds per
    ring: the validator's view for associativity is the ring's own.  The
    cache is warmed first, so `ising*svec` builds only its product ring."""
    for key in BUILTIN_KEYS:
        builtin(key)
    calls = []
    nonzero = fuscat.fusion._nonzero
    monkeypatch.setattr(fuscat.fusion, "_nonzero",
                        lambda tensor: calls.append(1) or nonzero(tensor))
    for key in BUILTIN_KEYS:
        _build.__wrapped__(key)
    assert len(calls) == len(BUILTIN_KEYS) == 13
    names = {f.name for f in dataclasses.fields(FusionRing)}
    assert "nonzero" in names and "tensor" not in names


def _assert_support_matches_the_class_function_route(ring, table):
    for sub in enumerate_subcategories(ring):
        assert (support_JD(ring, table, sub)
                == support_jd_loop(ring, table, sub.members)), sub.members


@pytest.mark.parametrize("key", KEYS + tuple(f"su2k-{k}" for k in range(5, 9)))
def test_support_matches_the_class_function_route(key):
    """Also with the columns reversed, which moves the dimension column."""
    entry = builtin(key)
    _assert_support_matches_the_class_function_route(entry.ring, entry.table)
    reversed_table = validate_character_table(
        entry.ring, [row[::-1] for row in entry.table.alpha])
    assert (fp_column(entry.ring, reversed_table)
            == entry.ring.rank - 1 - fp_column(entry.ring, entry.table))
    _assert_support_matches_the_class_function_route(entry.ring, reversed_table)


# Small builtins whose pairwise products stay within rank 16.
FACTOR_KEYS = ("trivial", "svec", "ising", "fib", "rep-s3", "su2k-2", "su2k-3",
               "pointed-z2-q1", "pointed-z3-q1", "pointed-z4-q1")


@settings(max_examples=20, deadline=None)
@given(a=st.sampled_from(FACTOR_KEYS), b=st.sampled_from(FACTOR_KEYS))
def test_support_matches_the_class_function_route_on_deligne_products(a, b):
    entry = builtin(f"{a}*{b}")
    _assert_support_matches_the_class_function_route(entry.ring, entry.table)


@pytest.mark.parametrize("key", KEYS + ("fib*ising", "su2k-4*fib")
                         + tuple(f"su2k-{k}" for k in range(5, 9)))
def test_centralizers_match_the_pair_product_scan(key):
    """M^{-1}(J_D) is D' by Müger's criterion s_ii' = d_i d_i', multiplied
    out, on every subcategory; the center `m_map` gives is the centralizer
    of the whole ring."""
    target = builtin(key)
    ring, sm = target.ring, target.smatrix
    subs = enumerate_subcategories(ring)
    for sub in subs:
        assert centralizer(target, sub) == centralizer_loop(ring, sm, sub), \
            sub.members
    assert m_map(target) == centralizer_loop(ring, sm, subs[-1])


def test_support_and_centralizers_make_no_sum_and_no_product(monkeypatch):
    """With the catalog built, every check over every subcategory of
    su2k-4*fib calls the sum-of-products kernel `chartab._entry` zero times
    (J_D is read by restriction), and `premod.centralizer` multiplies no
    `CycNum` (D' is read off the matching)."""
    target = builtin("su2k-4*fib")
    entries, muls, inside, calls = [], [], [], []
    entry = fuscat.chartab._entry
    monkeypatch.setattr(fuscat.chartab, "_entry",
                        lambda *args: entries.append(1) or entry(*args))

    def counted(fn):
        def wrapper(self, other):
            if inside:
                muls.append(1)
            return fn(self, other)
        return wrapper

    monkeypatch.setattr(CycNum, "__mul__", counted(CycNum.__mul__))
    monkeypatch.setattr(CycNum, "__rmul__", counted(CycNum.__rmul__))
    original = fuscat.verify.centralizer

    def wrapped(*args):
        calls.append(1)
        inside.append(1)
        try:
            return original(*args)
        finally:
            inside.pop()
    monkeypatch.setattr(fuscat.verify, "centralizer", wrapped)
    report = run_checks(target,
                        subcategories=enumerate_subcategories(target.ring))
    assert report.ok and calls
    assert entries == [] and muls == []


@pytest.mark.parametrize("key", KEYS)
def test_hecke_constants_multiplies_each_unordered_pair_once(key, monkeypatch):
    """eq-3.1, prop-3.4 and `hecke_constants` read one set of block
    verdicts.  The kernel of `hecke_closure` runs once per (target,
    subcategory) whichever of the three comes first: the two that follow
    make no `_numerators` or `_int_mul` call in `cosets`, and prop-3.4 then
    makes no `_int_mul` call anywhere.  `_numerators` runs once per target.
    Each product A_i A_j of dimension numerators, the `_int_mul` call on two
    of the vectors `_numerators` gave, is built once per unordered pair and
    target: their count is the size of the memo's pair dict, whose keys all
    have i <= j."""
    entry = builtin(key)
    calls, pairs = Counter(), []
    for module in (fuscat.cosets, fuscat.exactnum):
        for name in ("_numerators", "_int_mul"):
            if name in vars(module):
                def counted(*args, _key=(module.__name__, name),
                            _original=getattr(module, name)):
                    calls[_key] += 1
                    if _key == ("fuscat.cosets", "_int_mul"):
                        nums = target._memo["numerators"][2]
                        if any(args[0] is v for v in nums):
                            pairs.append(args[:2])
                    return _original(*args)
                monkeypatch.setattr(module, name, counted)
    runners = (verify_eq_3_1, verify_prop_3_4, hecke_constants)
    for first in range(len(runners)):
        order = runners[first:] + runners[:first]
        target = Target(key, entry.ring, entry.table)
        pairs.clear()
        numerators = 0
        for sub in enumerate_subcategories(entry.ring):
            target.cosets(sub)
            target.support(sub)
            calls.clear()
            order[0](target, sub)
            assert calls["fuscat.cosets", "_int_mul"], sub.members
            numerators += calls["fuscat.cosets", "_numerators"]
            for run in order[1:]:
                calls.clear()
                run(target, sub)
                assert not calls["fuscat.cosets", "_numerators"]
                assert not calls["fuscat.cosets", "_int_mul"]
                if run is verify_prop_3_4:
                    assert not calls, (sub.members, calls)
        built = target._memo["pairs"]
        assert numerators == 1
        assert len(pairs) == len(built) > 0
        assert all(i <= j for i, j in built)


@pytest.mark.parametrize("key", ("ising", "rep-s3", "su2k-4", "ising*svec",
                                 "svec*svec*svec", "rep-s3*svec"))
def test_perturbed_hecke_constants_fail_both_checks(key):
    # H_{00}^0 = 2 gives (e_0 e_0) e_1 = 2 e_1 but e_0 (e_0 e_1) = e_1
    seen = 0
    for _, H in _algebras(builtin(key).ring):
        if len(H) < 2:
            continue
        bad = _perturbed(H, 0, 0, 0)
        assert hecke_associative(bad) is False
        assert hecke_associative_dense(bad) is False
        seen += 1
    assert seen


def _perturbed_pair(H, m, n, p, delta):
    """H with delta added to H_{mn}^p and to H_{nm}^p (once if m == n), so
    a commutative H stays commutative."""
    structure = [[list(row) for row in plane] for plane in H]
    for a, b in {(m, n), (n, m)}:
        structure[a][b][p] = structure[a][b][p] + delta
    return tuple(tuple(tuple(row) for row in plane) for plane in structure)


@pytest.mark.parametrize("key", ("fib", "rep-s3", "su2k-3", "ising*svec"))
def test_every_commutative_perturbation_gets_the_dense_verdict(key):
    # these reach the symmetric-triple-product path of hecke_associative
    verdicts = set()
    for _, H in _algebras(builtin(key).ring):
        nb = len(H)
        for m in range(nb):
            for n in range(m, nb):
                for p in range(nb):
                    if H[m][n][p].is_zero():
                        continue
                    bad = _perturbed_pair(H, m, n, p,
                                          CycNum.from_rational(Fraction(1, 3)))
                    assert all(bad[a][b] == bad[b][a]
                               for a in range(nb) for b in range(nb))
                    verdict = hecke_associative(bad)
                    assert verdict == hecke_associative_dense(bad), (m, n, p)
                    verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("key", ("fib", "rep-s3", "su2k-3", "ising*svec"))
def test_every_single_perturbation_gets_the_dense_verdict(key):
    # some perturbations keep H associative (any commutative two-dimensional
    # unital algebra is), so agreement, not rejection, is asserted here
    verdicts = set()
    for _, H in _algebras(builtin(key).ring):
        nb = len(H)
        for m in range(nb):
            for n in range(nb):
                for p in range(nb):
                    if H[m][n][p].is_zero():
                        continue
                    bad = _perturbed(H, m, n, p, CycNum.from_rational(Fraction(1, 3)))
                    verdict = hecke_associative(bad)
                    assert verdict == hecke_associative_dense(bad), (m, n, p)
                    verdicts.add(verdict)
    assert verdicts == {True, False}


# Every builtin and product key, and su2k-5 to su2k-14, whose unit
# subcategory has up to 15 blocks.
ORACLE_KEYS = KEYS + tuple(f"su2k-{k}" for k in range(5, 15))


def _assert_prop_3_4_oracles_hold(ring):
    for dec, H in _algebras(ring):
        assert hecke_associative(H), dec.blocks[0]
        assert hecke_dual_symmetric(H, dec.dual_map), dec.blocks[0]


@pytest.mark.parametrize("key", ORACLE_KEYS)
def test_prop_3_4_oracles_hold_on_every_hecke_algebra(key):
    _assert_prop_3_4_oracles_hold(builtin(key).ring)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_prop_3_4_oracles_hold_on_deligne_products(data):
    _assert_prop_3_4_oracles_hold(_base_ring(data.draw))


# pointed-z3-q1 has blocks that are not self-dual; rep-s3 and su2k-4 have
# blocks of several members.
MUTATION_KEYS = ("ising", "rep-s3", "pointed-z3-q1", "su2k-4")
THIRD = CycNum.from_rational(Fraction(1, 3))


def _corrupt_rows(H, changes):
    """H with changes[m, n], one value per block, added to the rows H_{mn}
    and H_{nm}, so a commutative H stays commutative."""
    structure = [list(plane) for plane in H]
    for (m, n), change in changes.items():
        for a, b in {(m, n), (n, m)}:
            structure[a][b] = tuple(x + y for x, y in zip(H[a][b], change))
    return tuple(map(tuple, structure))


def _unit(p, nb):
    return tuple(CycNum.from_rational(int(q == p)) for q in range(nb))


@pytest.mark.parametrize("key", MUTATION_KEYS)
def test_corrupted_closure_is_refused_or_rejected(key, monkeypatch):
    """An eq-3.1 block verdict forced False, in the verdicts
    `hecke_closure` returns, makes `hecke_constants` raise, naming that
    block, and fails prop-3.4's associative and dual-symmetric records,
    while its count record is unchanged.  Moving 1/3 of H_{0n} = e_n onto
    e_p in the H that `hecke_constants` returns gives an H where
    (e_0 e_0) e_n = e_0 e_n has coefficient 2/3 at e_n and e_0 (e_0 e_n)
    has 4/9, so the oracles reject it."""
    entry = builtin(key)
    target = Target(key, entry.ring, entry.table)
    closure = fuscat.cosets.hecke_closure
    for sub in enumerate_subcategories(entry.ring):
        dec = target.cosets(sub)
        nb = len(dec.blocks)
        sound = verify_prop_3_4(target, sub)
        assert all(r.passed for r in sound), sub.members
        for t in range(nb):
            def forced(target, sub, t=t):
                verdicts = list(closure(target, sub))
                verdicts[t] = False
                return tuple(verdicts)
            with monkeypatch.context() as mp:
                mp.setattr(fuscat.cosets, "hecke_closure", forced)
                with pytest.raises(InconsistentCoset, match=f"block {t}$"):
                    hecke_constants(target, sub)
                records = verify_prop_3_4(target, sub)
            assert records[0] == sound[0]
            assert [(r.rhs, r.passed) for r in records[1:]] == [
                ("associative", False), ("dual-symmetric", False)]
        H = hecke_constants(target, sub)
        for n, p in itertools.product(range(1, nb), range(nb)):
            if p == n:
                continue
            move = tuple((a - b) * THIRD
                         for a, b in zip(_unit(p, nb), _unit(n, nb)))
            bad = _corrupt_rows(H, {(0, n): move})
            assert not (hecke_associative(bad)
                        and hecke_dual_symmetric(bad, dec.dual_map)), \
                (sub.members, n, p)


def test_associative_corruption_fails_only_dual_symmetry():
    """On the cosets of the unit of pointed-z3-q1, e_m = X_m and the blocks
    1 and 2 are dual.  Moving 2/3 of H_{12} = e_0 onto e_1 and 2/3 of
    H_{22} = e_1 onto e_2 turns the group algebra into K[x]/(x^3 - 2x/3 -
    1/3) with x = e_1: commutative, associative and with rows summing to 1,
    but e_1 e_1 = e_2 while e_2 e_2 has 1/3 at e_1."""
    ring = builtin("pointed-z3-q1").ring
    target = Target("pointed-z3-q1", ring)
    sub = enumerate_subcategories(ring)[0]
    assert sub.members == (0,) and target.cosets(sub).dual_map == (0, 2, 1)
    onto_1, onto_2 = (tuple((a - b) * (2 * THIRD)
                            for a, b in zip(_unit(p, 3), _unit(q, 3)))
                      for p, q in ((1, 0), (2, 1)))
    H = _corrupt_rows(hecke_constants(target, sub),
                      {(1, 2): onto_1, (2, 2): onto_2})
    assert hecke_associative(H) and hecke_associative_dense(H)
    assert not hecke_dual_symmetric(H, target.cosets(sub).dual_map)


def _hecke_form(H):
    return tuple(tuple(tuple(map(_form, row)) for row in plane) for plane in H)


def _loop_outcomes(target, sub):
    """(eq-3.1 verdicts, closure, H by form or "raised"), from the
    production route and then from the oracles: the `CycNum` loops and the
    block-product closure.  The text of a raise is not compared: only
    dimensions changed after validation reach one."""
    def outcome(constants):
        try:
            return _hecke_form(constants(target, sub))
        except InconsistentCoset:
            return "raised"
    return (([r.passed for r in verify_eq_3_1(target, sub)],
             all(hecke_closure(target, sub)), outcome(hecke_constants)),
            (eq_3_1_loop(target, sub), hecke_closure_by_products(target, sub),
             outcome(hecke_constants_loop)))


def _assert_integer_route_matches_the_loops(ring):
    target = Target("", ring)
    for sub in enumerate_subcategories(ring):
        got, want = _loop_outcomes(target, sub)
        assert got == want, sub.members


@pytest.mark.parametrize("key", ORACLE_KEYS + ("fib*ising", "su2k-4*fib"))
def test_integer_route_matches_the_cycnum_loops(key):
    """Every subcategory: the eq-3.1 verdicts, the closure and H, by
    conductor, numerators and denominator; fib*ising and su2k-4*fib mix
    conductors."""
    _assert_integer_route_matches_the_loops(builtin(key).ring)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_integer_route_matches_the_cycnum_loops_on_deligne_products(data):
    _assert_integer_route_matches_the_loops(_base_ring(data.draw))


DIMENSION_CORRUPTIONS = (lambda d: d * 2, lambda d: d + 1,
                         lambda d: d * Fraction(2, 3))


@pytest.mark.parametrize("key", MUTATION_KEYS + ("fib", "ising*svec"))
def test_corrupted_dimensions_get_the_loops_verdicts_and_raises(key):
    """A ring whose dimension d_i, i > 0, was changed after validation (still
    positive, so every e_t is defined): the eq-3.1 verdicts, the closure, H
    and whether `hecke_constants` raises equal the oracles' on every
    subcategory, and both eq-3.1 verdicts and some raises occur."""
    ring = builtin(key).ring
    verdicts, raised = set(), set()
    for i, corrupt in itertools.product(range(1, ring.rank),
                                        DIMENSION_CORRUPTIONS):
        dims = list(ring.fpdims)
        dims[i] = corrupt(dims[i])
        target = Target(key, dataclasses.replace(ring, fpdims=tuple(dims)))
        for sub in enumerate_subcategories(ring):
            got, want = _loop_outcomes(target, sub)
            assert got == want, (i, sub.members)
            verdicts.update(got[0])
            raised.add(got[2] == "raised")
    assert verdicts == {True, False} and True in raised


GENERATED_CORRUPTION_KEYS = ("ising*svec", "su2k-4", "fib*ising",
                             "rep-s3*svec", "pointed-z4-q2")


def _multiplier(draw):
    """A nonzero value at conductor 5, 8 or 12 (phi = 4), with integer
    numerators and one denominator up to 2^80."""
    n = draw(st.sampled_from((5, 8, 12)))
    nums = draw(st.lists(st.integers(-2 ** 80, 2 ** 80), min_size=4,
                         max_size=4))
    if not any(nums):
        nums[0] = 1
    den = draw(st.integers(1, 2 ** 80))
    return CycNum(n, [Fraction(x, den) for x in nums])


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_generated_dimensions_get_the_loops_verdicts_and_raises(data):
    """Several d_i, i > 0, multiplied after validation by generated values
    that mix conductors and pass one machine word: the eq-3.1 verdicts, the
    closure, H and whether `hecke_constants` raises equal the oracles' on
    every subcategory whose blocks have nonzero dimensions, where every e_t
    is defined.  Here the kernel's sums of pair squares and a route through
    `target.dim` would part if either were wrong."""
    key = data.draw(st.sampled_from(GENERATED_CORRUPTION_KEYS))
    ring = builtin(key).ring
    dims = list(ring.fpdims)
    for i in data.draw(st.sets(st.integers(1, ring.rank - 1), min_size=1,
                               max_size=3)):
        dims[i] = dims[i] * _multiplier(data.draw)
    target = Target(key, dataclasses.replace(ring, fpdims=tuple(dims)))
    for sub in enumerate_subcategories(ring):
        if any(target.dim(block).is_zero()
               for block in target.cosets(sub).blocks):
            continue
        got, want = _loop_outcomes(target, sub)
        assert got == want, sub.members


def _base_ring(draw):
    kind = draw(st.sampled_from(("group", "group*group", "ising*group",
                                 "fib*fib", "reps3*group")))
    n = draw(st.integers(min_value=2, max_value=5))
    return {
        "group": lambda: group_ring(n),
        "group*group": lambda: deligne_product(group_ring(n), group_ring(2)),
        "ising*group": lambda: deligne_product(ising_ring(), group_ring(n % 3 + 1)),
        "fib*fib": lambda: deligne_product(fib_ring(), fib_ring()),
        "reps3*group": lambda: deligne_product(reps3_ring(), group_ring(2)),
    }[kind]()


def _base_tensor(draw):
    ring = _base_ring(draw)
    return _dense(ring), ring.dual


def _orbit(i, j, k, dual):
    """(i, j, k) under N_ij^k = N_ji^k = N_{i* k}^j: the entries that must
    move together for commutativity and Frobenius reciprocity to hold."""
    orbit, frontier = set(), [(i, j, k)]
    while frontier:
        t = frontier.pop()
        if t in orbit:
            continue
        orbit.add(t)
        a, b, c = t
        frontier += [(b, a, c), (dual[a], c, b)]
    return orbit


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bumped_tensor_fails_where_the_dense_oracle_does(data):
    tensor, dual = _base_tensor(data.draw)
    rank = len(tensor)
    i, j, k = (data.draw(st.integers(min_value=1, max_value=rank - 1))
               for _ in range(3))
    # a bump of the whole orbit reaches the associativity axiom; a bump of
    # one entry mostly stops at commutativity or Frobenius reciprocity
    cells = _orbit(i, j, k, dual) if data.draw(st.booleans()) else {(i, j, k)}
    for a, b, c in cells:
        tensor[a][b][c] += 1
    try:
        validate_fusion_ring(tensor, dual)
    except ValidationError as err:
        if err.axiom == "associativity":
            assert err.witness == first_associativity_violation(tensor)
    else:
        assert first_associativity_violation(tensor) is None


def test_bumped_z4_fails_first_at_associativity_with_the_least_l():
    ring = group_ring(4)
    tensor = _dense(ring)
    for a, b, c in _orbit(1, 2, 2, ring.dual):
        tensor[a][b][c] += 1
    with pytest.raises(ValidationError) as info:
        validate_fusion_ring(tensor, ring.dual)
    # (X1 X1) X2 and X1 (X1 X2) first differ at (1, 1, 2), in l = 1 and l = 2
    assert info.value.axiom == "associativity"
    assert info.value.witness == first_associativity_violation(tensor) == (1, 1, 2, 1)


@pytest.mark.parametrize("ring", [group_ring(4), group_ring(5), ising_ring(),
                                  deligne_product(group_ring(2), group_ring(3)),
                                  builtin("rep-s3").ring, builtin("su2k-4").ring,
                                  builtin("ising*svec").ring],
                         ids=["z4", "z5", "ising", "z2*z3", "rep-s3", "su2k-4",
                              "ising*svec"])
def test_orbit_bumps_reach_associativity_at_the_oracles_tuple(ring):
    """A bumped orbit keeps every axiom before associativity, so the tensor
    is commutative and the scan over k >= i names the oracle's witness."""
    reached = 0
    for i, j, k in itertools.product(range(1, ring.rank), repeat=3):
        tensor = _dense(ring)
        for a, b, c in _orbit(i, j, k, ring.dual):
            tensor[a][b][c] += 1
        try:
            validate_fusion_ring(tensor, ring.dual)
        except ValidationError as err:
            if err.axiom == "associativity":
                assert err.witness == first_associativity_violation(tensor), (i, j, k)
                reached += 1
        else:
            assert first_associativity_violation(tensor) is None
    assert reached


# ---------------------------------------------------------------------------
# the ring validator against the dense scan of every axiom
# ---------------------------------------------------------------------------

def _ring_inputs():
    """(tensor, dual, fpdims) of the builtins, of svec*svec*svec (three
    generators) and of the lucas ring X*X = 1 + 4X (a multiplicity)."""
    inputs = {key: builtin(key).ring for key in BUILTIN_KEYS + ("svec*svec*svec",)}
    inputs = {key: (_dense(ring), ring.dual, ring.fpdims)
              for key, ring in inputs.items()}
    tensor, phi, _ = lucas(3)
    inputs["lucas-3"] = tensor, (0, 1), (1, phi)
    return inputs


RING_INPUTS = _ring_inputs()


def _ring_outcome(validate, tensor, dual, fpdims):
    """The axiom, witness and message a validator raises, or the ring it
    returns (its `nonzero`, `generators` and every other field)."""
    try:
        return validate(tensor, dual, None, fpdims)
    except ValidationError as err:
        return err.axiom, err.witness, str(err)


def _assert_same_ring_outcome(tensor, dual, fpdims):
    got = _ring_outcome(validate_fusion_ring, tensor, dual, fpdims)
    assert got == _ring_outcome(validate_fusion_ring_dense, tensor, dual, fpdims)
    return got


def _perturb(draw, tensor, dual, kinds):
    """Apply one perturbation of a kind drawn from `kinds` to the nested
    lists `tensor` and `dual`."""
    rank = len(tensor)
    index = st.integers(min_value=0, max_value=rank - 1)
    i, j, k = draw(index), draw(index), draw(index)
    kind = draw(st.sampled_from(kinds))
    if kind == "bump":
        tensor[i][j][k] += 1
    elif kind == "symmetric":
        for a, b in {(i, j), (j, i)}:
            tensor[a][b][k] += 1
    elif kind == "orbit":
        for a, b, c in _orbit(i, j, k, dual):
            tensor[a][b][c] += 1
    elif kind == "dual":
        dual[i], dual[j] = dual[j], dual[i]
    elif kind == "negative":
        tensor[i][j][k] = -draw(st.integers(min_value=1, max_value=2))
    elif draw(st.booleans()):
        tensor[i][j] = tensor[i][j][:-1] if draw(st.booleans()) \
            else tensor[i][j] + [0]
    else:
        tensor[i] = tensor[i][:-1]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_ring_validator_matches_the_dense_scan_on_perturbed_tensors(data):
    """On failure both raise the same axiom, witness and message; on
    success both return the same ring, `nonzero` and `generators` too."""
    key = data.draw(st.sampled_from(sorted(RING_INPUTS)))
    tensor, dual, fpdims = RING_INPUTS[key]
    tensor = [[list(row) for row in plane] for plane in tensor]
    dual = list(dual)
    for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
        _perturb(data.draw, tensor, dual,
                 ("bump", "symmetric", "orbit", "dual", "negative"))
    if data.draw(st.integers(min_value=0, max_value=5)) == 0:
        _perturb(data.draw, tensor, dual, ("ragged",))
    fpdims = fpdims if data.draw(st.booleans()) else None
    _assert_same_ring_outcome(tensor, dual, fpdims)


@pytest.mark.parametrize("key", ("svec*svec*svec", "rep-s3", "su2k-4",
                                 "ising*svec"))
def test_every_orbit_bump_gets_the_dense_scans_outcome(key):
    """Every whole-orbit bump off the unit keeps the axioms before
    associativity, so these reach the generators' triples; the dense scan
    of every triple raises at the same (i, j, k, l)."""
    tensor, dual, fpdims = RING_INPUTS[key]
    rank, axioms = len(tensor), set()
    for i, j, k in itertools.product(range(1, rank), repeat=3):
        bumped = [[list(row) for row in plane] for plane in tensor]
        for a, b, c in _orbit(i, j, k, dual):
            bumped[a][b][c] += 1
        got = _assert_same_ring_outcome(bumped, dual, fpdims)
        axioms.add(got[0] if isinstance(got, tuple) else None)
    assert "associativity" in axioms


def test_associativity_is_checked_on_every_generator():
    """Z_5 times Z_4 with the orbit of (1, 2, 2) bumped: X_4 = (1, 0)
    derives the five (a, 0), more than any element of the bumped factor,
    so it is the first generator, and all its triples associate.  The violation
    lies on the other generator's triples, and both validators name it."""
    z4 = group_ring(4)
    bumped = _dense(z4)
    for a, b, c in _orbit(1, 2, 2, z4.dual):
        bumped[a][b][c] += 1
    z5 = _dense(group_ring(5))
    tensor = [[[z5[i][j][k] * bumped[ip][jp][kp]
                for k in range(5) for kp in range(4)]
               for j in range(5) for jp in range(4)]
              for i in range(5) for ip in range(4)]
    dual = [(-i) % 5 * 4 + (-ip) % 4 for i in range(5) for ip in range(4)]
    assert _generators(_supports(_nonzero(tensor))) == (4, 1)
    assert (_assert_same_ring_outcome(tensor, dual, None)
            == ("associativity", (1, 1, 2, 1),
                "associativity failed at (1, 1, 2, 1)"))


def _least_cpu_seconds(work, runs=5) -> float:
    """Least CPU time of `work` over `runs` calls; CPU time leaves out the
    time the process waits for a core, so a loaded machine does not add."""
    best = float("inf")
    for _ in range(runs):
        start = time.process_time()
        work()
        best = min(best, time.process_time() - start)
    return best


def _power(ring, n):
    out = ring
    for _ in range(n - 1):
        out = deligne_product(out, ring)
    return out


@pytest.fixture(scope="module")
def dense_rank_8_seconds():
    """CPU time of the dense r^5 associativity loop on svec^3 (rank 8), the
    yardstick of the large-rank guards: the sparse builds of svec^5 and
    ising^3 took 2.5-4.5 of it, the dense loop on them 300-650."""
    tensor = _dense(_power(builtin("svec").ring, 3))
    assert first_associativity_violation(tensor) is None
    return _least_cpu_seconds(lambda: first_associativity_violation(tensor))


@pytest.mark.parametrize("key,factors,rank", [("svec", 5, 32), ("ising", 3, 27)])
def test_large_products_validate_in_a_few_small_dense_loops(
        key, factors, rank, dense_rank_8_seconds):
    base = builtin(key).ring
    assert _power(base, factors).rank == rank
    seconds = _least_cpu_seconds(lambda: _power(base, factors), runs=3)
    assert seconds < 40 * dense_rank_8_seconds


# ---------------------------------------------------------------------------
# the subcategory lattice against the set-based oracles
# ---------------------------------------------------------------------------

LATTICE_KEYS = KEYS + ("ising*svec*svec", "su2k-8")


def _assert_lattice_matches_oracles(ring):
    subs = enumerate_subcategories(ring)
    assert subs == enumerate_subcategories_powerset(ring)
    for gens in itertools.combinations(range(ring.rank), 2):
        assert (subcategory_closure(ring, gens)
                == subcategory_closure_sets(ring, gens)), gens
    for d in subs:
        for a in subs:
            assert (restricted_blocks(ring, a.members, d.members)
                    == restricted_blocks_sets(ring, a.members, d.members)), \
                (d.members, a.members)


@pytest.mark.parametrize("key", LATTICE_KEYS)
def test_subcategory_lattice_matches_set_oracles(key):
    _assert_lattice_matches_oracles(builtin(key).ring)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_group_product_lattice_matches_set_oracles(data):
    ring = group_ring(data.draw(st.integers(min_value=1, max_value=12)))
    while ring.rank <= 6 and data.draw(st.booleans()):
        n = data.draw(st.integers(min_value=2, max_value=12 // ring.rank))
        ring = deligne_product(ring, group_ring(n))
    _assert_lattice_matches_oracles(ring)
    gens = data.draw(st.sets(st.integers(min_value=0, max_value=ring.rank - 1),
                             max_size=4))
    assert subcategory_closure(ring, gens) == subcategory_closure_sets(ring, gens)


# ---------------------------------------------------------------------------
# the integer multiplicativity kernel against the CycNum scans
# ---------------------------------------------------------------------------

# Keys of the benchmark's `doc-ingest` workload that are not builtins.
DOC_KEYS = ("su2k-6", "su2k-8", "su2k-10", "ising*ising", "su2k-4*svec",
            "pointed-z4-q1*pointed-z4-q2")

# One-entry corruptions: rational shifts (some with a denominator, so that
# the common denominator D is not 1), shifts by roots of unity of a new
# conductor, and maps that keep the entry's field.
CORRUPTIONS = (
    lambda v: v + 1,
    lambda v: v - 1,
    lambda v: v + Fraction(1, 2),
    lambda v: v * Fraction(-2, 3),
    lambda v: v + CycNum.zeta(3),
    lambda v: v - CycNum.zeta(8, 3),
    lambda v: v + CycNum.zeta(5) * Fraction(1, 4),
    lambda v: -v,
    lambda v: v.conjugate(),
)


def _lowered(v):
    """A rational value over conductor 1, anything else as it is."""
    return CycNum.from_rational(v.as_rational()) if v.is_rational() else v


def _scan_outcome(validate, *args):
    """The exception a multiplicativity scan raises, with its witness in the
    message; None when the scans pass, also if a later check raises."""
    try:
        validate(*args)
    except (ValidationError, NotAlgebraMap, PsiNotCharacter) as err:
        return type(err), str(err)
    except FuscatError:
        return None
    return None


def _assert_same_table_outcome(ring, rows):
    assert (_scan_outcome(validate_character_table, ring, rows)
            == _scan_outcome(table_columns_scan, ring, rows))
    for j in range(ring.rank):
        column = [row[j] for row in rows]
        if column[0] == 1:  # the kernel's precondition
            assert (_first_non_character(ring.nonzero, ring.generators,
                                         column)
                    == first_product_violation(_dense(ring), column)), j


def _assert_same_fpdims_outcome(ring, dims):
    assert (_scan_outcome(validate_fusion_ring, _dense(ring), ring.dual,
                          ring.names, dims)
            == _scan_outcome(validate_fpdims_scan, ring, dims))


def _assert_same_smatrix_outcome(ring, table, s):
    assert (_scan_outcome(validate_smatrix, ring, table, s)
            == _scan_outcome(smatrix_rows_scan_first, ring, table, s))


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_kernel_names_the_scans_pair_on_one_entry_corruptions(data):
    entry = builtin(data.draw(st.sampled_from(BUILTIN_KEYS)))
    ring, table, r = entry.ring, entry.table, entry.ring.rank
    corrupt = data.draw(st.sampled_from(CORRUPTIONS))
    lower = _lowered if data.draw(st.booleans()) else (lambda v: v)
    where = data.draw(st.sampled_from(("fpdims", "table", "smatrix")))
    if where == "fpdims":
        dims = [lower(d) for d in ring.fpdims]
        i = data.draw(st.integers(0, r - 1))
        dims[i] = corrupt(dims[i])
        _assert_same_fpdims_outcome(ring, dims)
    elif where == "table":
        rows = [[lower(v) for v in row] for row in table.alpha]
        i, j = data.draw(st.integers(0, r - 1)), data.draw(st.integers(0, r - 1))
        rows[i][j] = corrupt(rows[i][j])
        _assert_same_table_outcome(ring, rows)
    elif r > 1:
        # off the first row and column, and symmetric, so that only the
        # unmatched rows' scan can reject it
        s = [[lower(v) for v in row] for row in entry.smatrix.s]
        i = data.draw(st.integers(1, r - 1))
        a = data.draw(st.integers(i, r - 1))
        s[i][a] = s[a][i] = corrupt(s[i][a])
        _assert_same_smatrix_outcome(ring, table, s)


def test_kernel_on_columns_that_mix_conductor_one_with_conductor_eight():
    """Every one-entry corruption of the Ising table, dimensions and S-matrix
    with its rationals over conductor 1 beside sqrt 2 over conductor 8."""
    entry = builtin("ising")
    ring, table, r = entry.ring, entry.table, entry.ring.rank
    rows = [[_lowered(v) for v in row] for row in table.alpha]
    assert any({v.conductor for v in column} == {1, 8}
               for column in zip(*rows))
    witnesses = set()
    for i in range(r):
        for j in range(r):
            for corrupt in CORRUPTIONS:
                bad = [list(row) for row in rows]
                bad[i][j] = corrupt(bad[i][j])
                _assert_same_table_outcome(ring, bad)
                witnesses.add(_scan_outcome(table_columns_scan, ring, bad))
        for corrupt in CORRUPTIONS:
            dims = [_lowered(d) for d in ring.fpdims]
            dims[i] = corrupt(dims[i])
            _assert_same_fpdims_outcome(ring, dims)
    for i in range(1, r):
        for a in range(i, r):
            for corrupt in CORRUPTIONS:
                s = [[_lowered(v) for v in row] for row in entry.smatrix.s]
                s[i][a] = s[a][i] = corrupt(s[i][a])
                _assert_same_smatrix_outcome(ring, table, s)
    # witnesses off the diagonal and on it, and corruptions that pass
    named = {w for w in witnesses if w is not None}
    assert None in witnesses and len(named) > 3


# ---------------------------------------------------------------------------
# S-matrix rows matched by cross-multiplication against the inverse matcher
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("key", KEYS)
def test_cross_multiplied_matching_equals_the_inverse_matcher(key):
    entry = builtin(key)
    ring, table, s = entry.ring, entry.table, entry.smatrix.s
    assert (validate_smatrix(ring, table, s).M
            == smatrix_rows_by_inverse(ring, table, s).M)


def _assert_same_witness_as_the_inverse_matcher(ring, table, s):
    assert (_scan_outcome(validate_smatrix, ring, table, s)
            == _scan_outcome(smatrix_rows_by_inverse, ring, table, s))


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_cross_multiplied_matching_names_the_inverse_matchers_witness(data):
    """One symmetric corruption off the first row and column, so that only
    the row matching can reject it; the rationals over conductor 1 or not."""
    entry = builtin(data.draw(st.sampled_from(KEYS)))
    ring, table, r = entry.ring, entry.table, entry.ring.rank
    if r == 1:
        return
    lower = _lowered if data.draw(st.booleans()) else (lambda v: v)
    s = [[lower(v) for v in row] for row in entry.smatrix.s]
    i = data.draw(st.integers(1, r - 1))
    a = data.draw(st.integers(i, r - 1))
    s[i][a] = s[a][i] = data.draw(st.sampled_from(CORRUPTIONS))(s[i][a])
    _assert_same_witness_as_the_inverse_matcher(ring, table, s)


@pytest.mark.parametrize("key", ("ising", "su2k-4", "rep-s3"))
def test_every_corrupted_smatrix_entry_names_the_inverse_matchers_witness(key):
    entry = builtin(key)
    ring, table, r = entry.ring, entry.table, entry.ring.rank
    named = set()
    for i in range(1, r):
        for a in range(i, r):
            for corrupt in CORRUPTIONS:
                s = [list(row) for row in entry.smatrix.s]
                s[i][a] = s[a][i] = corrupt(s[i][a])
                _assert_same_witness_as_the_inverse_matcher(ring, table, s)
                named.add(_scan_outcome(validate_smatrix, ring, table, s))
    assert any(w is not None and w[0] is PsiNotCharacter for w in named)


# ---------------------------------------------------------------------------
# class dimensions with each codegree inverted once
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("key", KEYS + ("su2k-10",))
def test_class_dims_are_the_quotients_by_each_codegree(key, monkeypatch):
    """dim(C) / cod_j in the canonical form of the division, with one
    inverse per column: the validator keeps no table of inverses, as an
    inverse over the Galois orbit costs less than keying one (su2k-K has
    cod_j = cod_{K-j}, so su2k-10 inverts its 6 distinct codegrees 11
    times)."""
    entry = builtin(key)
    ring = entry.ring
    total = global_fpdim(ring)
    inverse, inverted = CycNum.inverse, []

    def counting(self):
        inverted.append(_exact_key(self))
        return inverse(self)
    monkeypatch.setattr(CycNum, "inverse", counting)
    table = validate_character_table(ring, entry.table.alpha)
    monkeypatch.undo()
    assert ([_exact_key(c) for c in table.class_dims]
            == [_exact_key(total / cod) for cod in table.codegrees])
    assert inverted == list(map(_exact_key, table.codegrees))
    if key == "su2k-10":
        assert len(set(inverted)) == 6 < len(inverted) == ring.rank


CODEGREE_KEYS = KEYS + ("su2k-10", "pointed-z12-q1")


@pytest.mark.parametrize("key", CODEGREE_KEYS)
def test_codegrees_equal_the_sums_of_products(key):
    """The Casimir combination sum_k c_k alpha[k][j] has the conductor,
    numerators and denominator of sum_i alpha[i][j] alpha[i*][j]."""
    entry = builtin(key)
    assert ([_exact_key(c) for c in entry.table.codegrees]
            == [_exact_key(c) for c in codegrees_by_products(entry.ring,
                                                             entry.table)])


def _lucas_entry(m):
    tensor, phi, psi = lucas(m)
    ring = validate_fusion_ring(tensor, (0, 1), fpdims=(1, phi))
    return ring, ((ONE, ONE), (phi, psi))


@settings(max_examples=30, deadline=None)
@given(m=st.sampled_from((1, 3, 5, 7, 9)),
       other=st.sampled_from(("lucas-3", "lucas-5", "ising", "z3", None)))
def test_codegrees_equal_the_sums_of_products_with_multiplicities(m, other):
    """Lucas rings X*X = 1 + L_m X and their products with a second lucas
    ring, Ising or Z_3, with the product table."""
    ring, rows = _lucas_entry(m)
    if other is not None:
        if other.startswith("lucas-"):
            b, b_rows = _lucas_entry(int(other[6:]))
        else:
            entry = builtin({"ising": "ising", "z3": "pointed-z3-q1"}[other])
            b, b_rows = entry.ring, entry.table.alpha
        ra, rb = ring.rank, b.rank
        rows = [[rows[i][j] * b_rows[ip][jp]
                 for j in range(ra) for jp in range(rb)]
                for i in range(ra) for ip in range(rb)]
        ring = deligne_product(ring, b)
    table = validate_character_table(ring, rows)
    assert ([_exact_key(c) for c in table.codegrees]
            == [_exact_key(c) for c in codegrees_by_products(ring, table)])


@pytest.mark.parametrize("key", KEYS)
def test_table_embedding_embeds_each_distinct_value_once(key, monkeypatch):
    """The array is bit-identical to the per-entry embedding, with one
    `embed_complex` call per distinct canonical form."""
    table = builtin(key).table
    per_entry = np.array([[v.embed_complex() for v in row]
                          for row in table.alpha])
    embed, calls = CycNum.embed_complex, []
    monkeypatch.setattr(CycNum, "embed_complex",
                        lambda self: calls.append(1) or embed(self))
    exact = _embedded(table)
    assert np.array_equal(exact, per_entry)
    assert exact.dtype == per_entry.dtype and exact.tobytes() == per_entry.tobytes()
    assert len(calls) == len({_exact_key(v) for row in table.alpha for v in row})


def _counting_products(monkeypatch):
    """The list that every `_int_mul` call of `fuscat.fusion` appends to."""
    products = []

    def counted(x, y, n):
        products.append((x, y))
        return _int_mul(x, y, n)

    monkeypatch.setattr(fuscat.fusion, "_int_mul", counted)
    return products


def test_kernel_multiplies_no_unit_pair(monkeypatch):
    """Its callers have shown v_0 = 1, so no pair (0, k) is multiplied; X_1
    generates the rank-5 su2k-4 ring, so only its 4 pairs (1, k) are."""
    products = _counting_products(monkeypatch)
    ring = builtin("su2k-4").ring
    assert ring.generators == (1,)
    assert _first_non_character(ring.nonzero, ring.generators,
                                ring.fpdims) is None
    assert len(products) == 4


@pytest.mark.parametrize("key,generators", [
    ("ising", (2,)), ("rep-s3", (2,)), ("su2k-10", (1,)),
    ("ising*ising", (2, 6)), ("svec*svec*svec", (1, 2, 4))])
def test_generators_take_the_largest_proven_set_first(key, generators,
                                                      monkeypatch):
    """sigma alone proves Ising (sigma^2 = 1 + psi); the least index, psi,
    would prove only itself.  On the rank-9 ising*ising, 2 generators make
    2 * 8 - 1 = 15 products per character, not the 36 of every pair."""
    ring = builtin(key).ring
    assert ring.generators == generators
    products = _counting_products(monkeypatch)
    assert _first_non_character(ring.nonzero, ring.generators,
                                ring.fpdims) is None
    g = len(generators)
    assert len(products) == g * (ring.rank - 1) - g * (g - 1) // 2


def test_pointed_z50_table_makes_at_most_49_products_per_column(monkeypatch):
    """The scan of every pair made 1,225 products per column of Z/50."""
    entry = builtin("pointed-z50-q1")
    ring = entry.ring
    counts = []

    def counted(nonzero, generators, values):
        before = len(products)
        pair = _first_non_character(nonzero, generators, values)
        counts.append(len(products) - before)
        return pair

    products = _counting_products(monkeypatch)
    monkeypatch.setattr(fuscat.chartab, "_first_non_character", counted)
    validate_character_table(ring, entry.table.alpha)
    assert len(counts) == 50 and max(counts) <= 49


# Rings whose characters the generator route is checked on: the builtins,
# the product keys, su2k-5..14 and, below, generated Deligne products.
CHARACTER_KEYS = KEYS + tuple(f"su2k-{k}" for k in range(5, 15))
FACTOR_KEYS = ("svec", "ising", "fib", "rep-s3", "su2k-2", "su2k-3",
               "pointed-z2-q1", "pointed-z3-q1", "pointed-z4-q1",
               "pointed-z4-q2")


def _product_entry(draw):
    """A catalog product of two or three small keys, of rank at most 16."""
    factors = draw(st.lists(st.sampled_from(FACTOR_KEYS), min_size=2,
                            max_size=3))
    rank = 1
    for key in factors:
        rank *= builtin(key).ring.rank
    if rank > 16:
        factors = factors[:2]
    return builtin("*".join(factors))


def _characters(entry):
    """(kind, values) of every character the validators check: the
    dimensions, each table column and each normalized S-matrix row."""
    ring = entry.ring
    yield "fpdims", list(ring.fpdims)
    for column in zip(*entry.table.alpha):
        yield "column", list(column)
    for i, row in enumerate(entry.smatrix.s):
        inv = ring.fpdims[i].inverse()
        yield "row", [x * inv for x in row]


def _assert_kernel_names_the_oracles_pair(ring, values):
    assert (_first_non_character(ring.nonzero, ring.generators, values)
            == first_non_character_pairs(ring.nonzero, values))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_generator_route_names_the_pair_scans_pair(data):
    """One entry past the unit's of a valid character is perturbed; a
    Galois conjugate of the whole character stays a character."""
    if data.draw(st.booleans()):
        entry = builtin(data.draw(st.sampled_from(CHARACTER_KEYS)))
    else:
        entry = _product_entry(data.draw)
    ring = entry.ring
    _, values = data.draw(st.sampled_from(list(_characters(entry))))
    if ring.rank > 1 and data.draw(st.booleans()):
        i = data.draw(st.integers(1, ring.rank - 1))
        values[i] = data.draw(st.sampled_from(CORRUPTIONS))(values[i])
    else:
        values = [v.conjugate() for v in values]
    _assert_kernel_names_the_oracles_pair(ring, values)


@pytest.mark.parametrize("key", CHARACTER_KEYS)
def test_generator_route_names_the_pair_scans_pair_on_every_entry(key):
    """Every corruption of every entry past the unit's of one column, the
    dimensions and one normalized S-matrix row."""
    entry = builtin(key)
    ring = entry.ring
    for kind in ("fpdims", "column", "row"):
        values = next(v for k, v in _characters(entry) if k == kind)
        for i in range(1, ring.rank):
            for corrupt in CORRUPTIONS:
                bad = list(values)
                bad[i] = corrupt(bad[i])
                _assert_kernel_names_the_oracles_pair(ring, bad)


def _assert_generators_prove_the_basis(ring):
    r, gens = ring.rank, ring.generators
    assert len(set(gens)) == len(gens) and all(0 < g < r for g in gens)
    assert proven_closure(ring, gens) == set(range(r))
    assert _derived(ring.supports, _mask((0,) + gens)) == (1 << r) - 1


@pytest.mark.parametrize("key", CHARACTER_KEYS + ("pointed-z50-q1",))
def test_generators_prove_the_whole_basis(key):
    _assert_generators_prove_the_basis(builtin(key).ring)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_generators_of_generated_products_prove_the_whole_basis(data):
    _assert_generators_prove_the_basis(_product_entry(data.draw).ring)


@pytest.mark.parametrize("key", BUILTIN_KEYS + DOC_KEYS)
def test_kernel_accepts_every_valid_character(key):
    entry = builtin(key)
    ring = entry.ring
    for _, values in _characters(entry):
        assert _first_non_character(ring.nonzero, ring.generators,
                                    values) is None


# ---------------------------------------------------------------------------
# the vectorized numeric residual against the pair-by-pair loop
# ---------------------------------------------------------------------------

def _numeric_outcome(characters, ring, seed):
    try:
        return characters(ring, seed=seed)
    except DegenerateSpectrum as err:
        return str(err)


@pytest.mark.parametrize("key", BUILTIN_KEYS + DOC_KEYS)
def test_characters_numeric_is_bit_identical_to_the_loop(key):
    ring = builtin(key).ring
    for seed in range(5):
        fast = _numeric_outcome(characters_numeric, ring, seed)
        slow = _numeric_outcome(characters_numeric_loop, ring, seed)
        if isinstance(slow, str):
            assert fast == slow
        else:
            assert np.array_equal(fast, slow)
            assert fast.dtype == slow.dtype and fast.tobytes() == slow.tobytes()


@pytest.mark.parametrize("key", CHARACTER_KEYS)
def test_batched_cross_check_is_bit_identical_to_the_per_matrix_loop(key):
    """The gap over the upper triangle, the character values of one
    ``tensor @ v`` per eigenvector and the all-pairs column comparison give
    the loops' array, bit for bit, and the loops' permutation."""
    entry = builtin(key)
    for seed in (0, 7, 11):
        fast = characters_numeric(entry.ring, seed=seed)
        slow = characters_numeric_loop(entry.ring, seed=seed)
        assert np.array_equal(fast, slow) and fast.tobytes() == slow.tobytes()
        assert (match_numeric_columns(entry.table, fast)
                == match_numeric_columns_loop(entry.table, slow))


def _match_outcome(match, table, numeric, tol):
    try:
        return match(table, numeric, tol=tol)
    except ValueError as err:
        return str(err)


@pytest.mark.parametrize("key", ("ising", "fib", "rep-s3", "su2k-4",
                                 "pointed-z4-q1", "ising*svec"))
def test_batched_column_match_takes_the_loops_first_unused_match(key):
    """Numeric columns drawn with repeats, some entries NaN, and tolerances
    loose enough that one exact column is near several numeric ones: the
    same permutation, or the same column named as unmatched."""
    entry = builtin(key)
    r = entry.ring.rank
    base = characters_numeric(entry.ring, seed=0)
    rng = random.Random(key)
    outcomes = set()
    for _ in range(60):
        numeric = base[:, [rng.randrange(r) for _ in range(r)]]
        if rng.random() < 0.3:
            numeric[rng.randrange(r), rng.randrange(r)] = np.nan
        tol = rng.choice((1e-8, 1e-2, 10.0))
        fast = _match_outcome(match_numeric_columns, entry.table, numeric, tol)
        assert fast == _match_outcome(match_numeric_columns_loop, entry.table,
                                      numeric, tol)
        outcomes.add(isinstance(fast, str))
    assert outcomes == {True, False}


@pytest.mark.parametrize("key", ("trivial", "ising", "fib", "rep-s3",
                                 "su2k-4", "pointed-z4-q1", "ising*svec"))
def test_numeric_residual_verdict_matches_the_loop_on_bad_values(key):
    """Perturbed, NaN and infinite entries, in complex and real arrays: a NaN
    residual passes a pair and a NaN product bound is 1e-8 in both."""
    ring = builtin(key).ring
    dense = _dense(ring)
    tensor = np.array(dense, dtype=float)
    base = characters_numeric(ring, seed=0)
    specials = (np.nan, np.inf, -np.inf, complex(np.nan, 0.0),
                complex(0.0, np.inf), complex(np.inf, np.nan), 0.0, 1e300)
    shifts = (1e-12, 1e-9, 1e-7, 1e-3)
    rng = random.Random(key)
    verdicts = set()
    for trial in range(60):
        a = base.real.copy() if trial % 3 == 2 and not base.imag.any() \
            else base.copy()
        for _ in range(rng.randint(1, 2)):
            i, j = rng.randrange(ring.rank), rng.randrange(ring.rank)
            if rng.random() < 0.5:
                value = rng.choice(specials)
            else:
                value = a[i, j] * (1 + rng.choice(shifts))
            if not np.iscomplexobj(a):
                value = complex(value).real
            a[i, j] = value
        with np.errstate(all="ignore"):
            verdict = _is_numeric_character_table(tensor, a)
            assert verdict == numeric_residual_ok_loop(dense, a), trial
        verdicts.add(verdict)
    assert verdicts == {True, False}
