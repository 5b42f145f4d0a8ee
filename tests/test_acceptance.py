"""Acceptance criteria: one test (one pass/fail line) per criterion.

Each criterion is asserted exactly as stated, at the stated tolerance, with
one exception: the `su2k-4` constants of criteria 05 and 07. As stated they
presuppose a Müger center {X_0, X_4} on the level-4 ring, which would give
fibers {0,4} {1,3} {2}, |G_{X_2}| = 2 and the values 12*2/3 = 8, 12*2/4 = 6
and 6. No symmetric character-row S-matrix on that ring has that center
(`test_catalog.py::test_level4_symmetric_matrix_landscape` enumerates them
all), and the shipped `su2k-4` is modular. Those lines therefore assert the
values that modularity forces (singleton fibers, trivial stabilizers, 4, 3
and 12), each with the stated value in a comment beside it. The case the
stated constants were written for, a pointed center with a fixed point, is
asserted on a datum that realizes it: the adjoint subcategory
{X_0, X_4, X_2} of `su2k-4`, whose center is {X_0, X_4}.

Criteria that sweep several targets collect every violation first, so a
failure message names each unmet sub-assertion.
"""

import json
from fractions import Fraction

from fuscat.catalog import BUILTIN_KEYS, builtin
from fuscat.chartab import (characters_numeric, match_numeric_columns,
                            support_JD, validate_character_table,
                            verify_eq_2_7)
from fuscat.cli import main
from fuscat.cosets import (coset_partition, hecke_constants,
                           verify_cor_3_9_1, verify_eq_3_6, verify_eq_3_7,
                           verify_lemma_3_12)
from fuscat.exactnum import (CycNum, is_algebraic_integer, minimal_polynomial)
from fuscat.fusion import _dense, check_subcategory, enumerate_subcategories
from fuscat.premod import (m_map, validate_smatrix, verify_thm_1_1,
                            verify_thm_1_3, verify_thm_4_6)
from fuscat.verify import Target

from rings import (all_passed, fpdim_numeric, hecke_associative, refines,
                   reps3_ring, reps3_table_rows, su2k4_adjoint_smatrix_rows)

ONE = CycNum.from_rational(1)
ZERO = CycNum.from_rational(0)


def _entries():
    return [builtin(key) for key in BUILTIN_KEYS]


def _hecke_at(ring, dec, p, x, y):
    """H_{mn}^p from one representative pair (X, Y) of blocks m and n:
    sum over Z in block p of d_Z N_{XY}^Z / (d_X d_Y)."""
    mass, row = ZERO, _dense(ring)[x][y]
    for z in dec.blocks[p]:
        if row[z]:
            mass = mass + ring.fpdims[z] * row[z]
    return mass / (ring.fpdims[x] * ring.fpdims[y])


def _su2k4_adjoint():
    """The adjoint subcategory {X_0, X_4, X_2} of su2k-4 as a datum of its
    own: the rep-s3 ring with the restricted sine matrix, center {0, 1}."""
    ring = reps3_ring()
    table = validate_character_table(ring, reps3_table_rows())
    smatrix = validate_smatrix(ring, table, su2k4_adjoint_smatrix_rows())
    return Target("su2k-4 adjoint", ring, table, smatrix)


def test_criterion_01_rep_s3_class_dims_match_conjugacy_class_sizes():
    table = builtin("rep-s3").table
    sizes = sorted(c.as_rational() for c in table.class_dims)
    assert sizes == [Fraction(1), Fraction(2), Fraction(3)]


def test_criterion_02_support_sums_exact_on_every_subcategory():
    failures = []
    for target in _entries():
        for sub in enumerate_subcategories(target.ring):
            res = verify_eq_2_7(target, sub)
            if not res.passed:
                failures.append((target.label, sub.members))
    assert not failures, failures


def test_criterion_03_both_orthogonality_relations_exact():
    cases = [("ising", {0, 1}), ("rep-s3", {0, 1}), ("su2k-4", {0, 4})]
    for key in BUILTIN_KEYS:
        rank = builtin(key).ring.rank
        cases.append((key, {0}))
        cases.append((key, set(range(rank))))
    failures = []
    for key, members in cases:
        target = builtin(key)
        sub = check_subcategory(target.ring, members)
        dec = coset_partition(target, sub)
        jd = support_JD(target.ring, target.table, sub)
        first = verify_eq_3_6(target, sub)
        assert [(r.params["k"], r.params["l"]) for r in first] == \
            [(k, l) for k in jd for l in jd]
        failures.extend((key, tuple(sub.members), "first", r.params["k"],
                         r.params["l"]) for r in first if not r.passed)
        second = verify_eq_3_7(target, sub)
        assert [(r.params["t"], r.params["s"]) for r in second] == \
            [(t, s) for t in range(len(dec.blocks))
             for s in range(len(dec.blocks))]
        failures.extend((key, tuple(sub.members), "second", r.params["t"],
                         r.params["s"]) for r in second if not r.passed)
    assert not failures, failures


def test_criterion_04_block_constants_well_defined_stochastic_associative():
    failures = []
    for target in _entries():
        for sub in enumerate_subcategories(target.ring):
            dec = coset_partition(target, sub)
            H = hecke_constants(target, sub)
            nb = len(dec.blocks)
            for m_i in range(nb):
                for n_i in range(nb):
                    total = CycNum.from_rational(0)
                    for p_i in range(nb):
                        total = total + H[m_i][n_i][p_i]
                        # well defined: every representative pair (X, Y) in
                        # m x n gives the same constant
                        for x in dec.blocks[m_i]:
                            for y in dec.blocks[n_i]:
                                if (_hecke_at(target.ring, dec, p_i, x, y)
                                        != H[m_i][n_i][p_i]):
                                    failures.append((target.label, sub.members,
                                                     m_i, n_i, p_i, x, y))
                    if total != ONE:
                        failures.append((target.label, sub.members, m_i, n_i))
            if not hecke_associative(H):
                failures.append((target.label, sub.members, "associativity"))
    assert not failures, failures


def test_criterion_05_matching_fibers_are_center_cosets():
    failures = []
    expected_fibers = {
        "svec": ((0, 1),),
        "ising": ((0,), (1,), (2,)),
        "su2k-4": ((0,), (1,), (2,), (3,), (4,)),  # stated: ((0, 4), (1, 3), (2,))
        "ising*svec": ((0, 1), (2, 3), (4, 5)),
        "rep-s3": ((0, 1, 2),),
    }
    cases = [(builtin(key), fibers) for key, fibers in expected_fibers.items()]
    # a pointed center with a fixed point: X_4 fixes X_2, one fiber is {0, 1}
    cases.append((_su2k4_adjoint(), ((0, 1), (2,))))
    for target, fibers in cases:
        key = target.label
        center = m_map(target)
        # the fibers are the matched groups of the whole ring, over J_2
        groups = target.matched_groups(target.whole)
        got = tuple(sorted(b for b, _ in groups.values()))
        if got != fibers:
            failures.append((key, "fibers", got, fibers))
        cosets = coset_partition(target, center).blocks
        if got != cosets:
            failures.append((key, "fibers-vs-cosets", got, cosets))
        j_center = support_JD(target.ring, target.table, center)
        if not (len(got) == len(groups) == len(j_center)
                and set(groups) == set(j_center)):
            failures.append((key, "counts", len(got), tuple(groups),
                             j_center))
    assert not failures, failures


def test_criterion_06_central_images_equal_scaled_class_sums():
    failures = []
    for entry in _entries():
        results = verify_thm_4_6(entry)
        if not all_passed(results):
            failures.append(entry.label)
    assert not failures, failures


def test_criterion_07_divisibility_verdicts():
    failures = []

    # (a) golden-ratio ring, D = C: (5 - sqrt 5)/2 is an algebraic integer
    entry = builtin("fib")
    full = check_subcategory(entry.ring, {0, 1})
    results = verify_thm_1_1(entry, full)
    tau = [r for r in results if r.params.get("Y") == 1][0]
    if not (tau.passed and is_algebraic_integer(tau.lhs)
            and minimal_polynomial(tau.lhs) == (5, -5, 1)):
        failures.append(("a", "value", tau.lhs))

    # (b) level-4 ring: values dim(C)/d_Y^2 = 12/3 = 4 (Y=1) and 12/4 = 3
    #     (Y=2), both integral, with dim(C^{M(Y)}) = d_Y^2/|G_Y| and
    #     |G_{X_2}| = 1, the center being {0}
    entry = builtin("su2k-4")
    results = verify_thm_1_3(entry)
    item1 = {r.params["Y"]: r for r in results
             if r.id == "thm-1.3" and r.params.get("item") == 1}
    eq423 = {r.params["Y"]: r for r in results if r.id == "eq-4.23"}
    for y, want in ((1, 4), (2, 3)):  # stated: 8 (Y=1) and 6 (Y=2)
        r = item1[y]
        if not (r.passed and r.lhs == want):
            failures.append(("b", f"Y={y}", "value", r.lhs, "expected", want))
    g_2 = eq423[2].params["stabilizer"]
    if len(g_2) != 1:  # stated: |G_{X_2}| = 2
        failures.append(("b", "|G_{X_2}|", len(g_2), "expected", 1))
    for y in (1, 2):
        if not eq423[y].passed:
            failures.append(("b", f"Y={y}", "class-dim identity"))

    # (b) the stated fixed-point case, on the adjoint datum with center
    #     {X_0, X_4}: |G_{X_2}| = 2, class dimension 2 * 2 = 4 = d_2^2,
    #     value dim(C) dim(center)/d_2^2 = 6*2/4 = 3, and no item-2 record
    #     because the center does not act freely
    entry = _su2k4_adjoint()
    results = verify_thm_1_3(entry)
    r = [r for r in results if r.id == "eq-4.23" and r.params["Y"] == 2][0]
    if len(r.params["stabilizer"]) != 2:
        failures.append(("b", "adjoint", "|G_{X_2}|",
                         len(r.params["stabilizer"]), "expected", 2))
    if not (r.passed and r.lhs == 4):
        failures.append(("b", "adjoint", "class-dim identity", r.lhs))
    r = [r for r in results if r.id == "thm-1.3"
         and r.params == {"Y": 2, "item": 1}][0]
    if not (r.passed and r.lhs == 3):
        failures.append(("b", "adjoint", "value", r.lhs, "expected", 3))
    if any(r.id == "thm-1.3" and r.params.get("item") == 2
           for r in results):
        failures.append(("b", "adjoint", "item-2 record on a non-free action"))

    # (c) slightly degenerate product: value 2 at Y = (s, 1)
    entry = builtin("ising*svec")
    results = verify_thm_1_3(entry)
    item2 = {r.params["Y"]: r for r in results
             if r.id == "thm-1.3" and r.params.get("item") == 2}
    r = item2[4]
    if not (r.passed and r.lhs == 2):
        failures.append(("c", "value", r.lhs, "expected", 2))

    # (d) rank-3 ring with D = {1, f}: value 4
    entry = builtin("ising")
    results = verify_cor_3_9_1(entry,
                               check_subcategory(entry.ring, {0, 1}))
    sigma = [r for r in results if r.params["member"] == 2][0]
    if not (sigma.passed and sigma.lhs == 4):
        failures.append(("d", "value", sigma.lhs, "expected", 4))

    # (e) level-4 ring: value d_1^2 * 12/(1 * d_1^2) = 12 at X_1, the class
    #     dimension of M(X_1) being d_1^2 by eq-4.23
    entry = builtin("su2k-4")
    from fuscat.premod import verify_rem_4_25
    results = verify_rem_4_25(entry)
    r = [x for x in results if x.params["i"] == 1][0]
    if not (r.passed and r.lhs == 12):  # stated: 6
        failures.append(("e", "value", r.lhs, "expected", 12))

    assert not failures, failures


def test_criterion_08_integrality_tester_calibration():
    assert not is_algebraic_integer(CycNum.from_rational(Fraction(1, 2)))
    assert not is_algebraic_integer(CycNum.from_rational(Fraction(3, 5)))
    for n in range(1, 25):
        assert is_algebraic_integer(CycNum.zeta(n)), n
    z8 = CycNum.zeta(8)
    assert is_algebraic_integer(z8 - z8 ** 3)
    z5 = CycNum.zeta(5)
    sqrt5 = ONE + (z5 + z5 ** 4) * 2
    phi = (ONE + sqrt5) / 2
    assert is_algebraic_integer(phi)
    assert minimal_polynomial(phi) == (-1, -1, 1)


def test_criterion_09_numeric_cross_checks_within_tolerance():
    failures = []
    for entry in _entries():
        numeric = characters_numeric(entry.ring, seed=0)
        try:
            match_numeric_columns(entry.table, numeric, tol=1e-8)
        except ValueError as exc:
            failures.append((entry.label, str(exc)))
        approx = fpdim_numeric(_dense(entry.ring))
        for i, d in enumerate(entry.ring.fpdims):
            if abs(approx[i] - d.embed_complex().real) > 1e-9:
                failures.append((entry.label, "dim", i))
    assert not failures, failures


def test_criterion_10_partition_compatibility_and_refinement():
    failures = []
    for target in _entries():
        subs = enumerate_subcategories(target.ring)
        partitions = {sub.members: coset_partition(target, sub).blocks
                      for sub in subs}
        for sub in subs:
            for amb in subs:
                res = verify_lemma_3_12(target, sub, amb)
                if not res.passed:
                    failures.append((target.label, sub.members, amb.members))
        for d1 in subs:
            for d2 in subs:
                if set(d1.members) <= set(d2.members):
                    if not refines(partitions[d1.members],
                                   partitions[d2.members]):
                        failures.append((target.label, "refinement",
                                         d1.members, d2.members))
    assert not failures, failures


def test_criterion_11_cli_verification_is_byte_identical(capsys):
    failures = []
    for key in BUILTIN_KEYS:
        outputs = []
        for _ in range(2):
            code = main(["verify", key, "--all-subcategories",
                         "--format", "json"])
            outputs.append(capsys.readouterr().out)
            if code != 0:
                failures.append((key, "exit", code))
        if outputs[0] != outputs[1]:
            failures.append((key, "outputs differ"))
        json.loads(outputs[0])
    assert not failures, failures
