"""Fusion-ring validation, subcategory machinery, and products."""

import pytest
from hypothesis import given, settings, strategies as st

from fuscat.errors import ExactDataMissing, RankTooLarge, ValidationError
from fuscat.exactnum import CycNum
from fuscat.fusion import (
    _dense,
    check_subcategory,
    deligne_product,
    enumerate_subcategories,
    global_fpdim,
    pointed_part,
    sub_fpdim,
    subcategory_closure,
    validate_fusion_ring,
)

from rings import (basis, fib_ring, fpdim_numeric, golden, group_ring,
                   ising_ring, k_mul, lucas, regular_element, reps3_ring, sqrt2)

ONE = CycNum.from_rational(1)
ZERO = CycNum.from_rational(0)


# ---------------------------------------------------------------------------
# validation: accepted rings
# ---------------------------------------------------------------------------

def test_ising_validates():
    ring = ising_ring()
    assert ring.rank == 3
    assert ring.names == ("1", "f", "s")
    assert ring.dual == (0, 1, 2)
    assert ring.fpdims[2] == sqrt2()
    assert _dense(ring)[2][2][1] == 1


def test_fib_validates_with_golden_dim():
    ring = fib_ring()
    assert ring.fpdims[1] == golden()
    assert abs(ring.fpdims[1].embed_complex() - 1.6180339887498949) < 1e-9


def test_default_names_are_indexed():
    tensor = [[[1]]]
    ring = validate_fusion_ring(tensor, (0,), fpdims=(1,))
    assert ring.names == ("X0",)


def test_float_only_ring_accepted_but_exact_ops_fail():
    tensor = [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 1]],
    ]
    ring = validate_fusion_ring(tensor, (0, 1))
    assert ring.fpdims is None
    with pytest.raises(ExactDataMissing):
        global_fpdim(ring)


def test_fpdim_numeric_oracles():
    dims = fpdim_numeric(_dense(ising_ring()))
    assert abs(dims[0] - 1.0) < 1e-9
    assert abs(dims[1] - 1.0) < 1e-9
    assert abs(dims[2] - 2 ** 0.5) < 1e-9


# ---------------------------------------------------------------------------
# validation: each axiom is caught and named
# ---------------------------------------------------------------------------

def _z2_tensor():
    return [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
    ]


def test_axiom_shape_bad_dual():
    with pytest.raises(ValidationError) as err:
        validate_fusion_ring(_z2_tensor(), (0, 0))
    assert err.value.axiom == "shape"


def test_axiom_shape_ragged_tensor():
    tensor = _z2_tensor()
    tensor[1][1] = [1]
    with pytest.raises(ValidationError) as err:
        validate_fusion_ring(tensor, (0, 1))
    assert err.value.axiom == "shape"


def test_axiom_shape_duplicate_names():
    with pytest.raises(ValidationError) as err:
        validate_fusion_ring(_z2_tensor(), (0, 1), names=("a", "a"))
    assert err.value.axiom == "shape"


def test_axiom_nonnegativity():
    tensor = _z2_tensor()
    tensor[1][1][1] = -1
    with pytest.raises(ValidationError) as err:
        validate_fusion_ring(tensor, (0, 1))
    assert err.value.axiom == "nonnegativity"


def test_axiom_unit():
    tensor = _z2_tensor()
    tensor[0][1][1] = 0
    with pytest.raises(ValidationError) as err:
        validate_fusion_ring(tensor, (0, 1))
    assert err.value.axiom == "unit"


def test_axiom_duality_wrong_pairing():
    # Z_3 multiplication with the identity claimed as duality.
    tensor = [[[1 if (i + j) % 3 == k else 0 for k in range(3)]
               for j in range(3)] for i in range(3)]
    with pytest.raises(ValidationError) as err:
        validate_fusion_ring(tensor, (0, 1, 2))
    assert err.value.axiom == "duality"


def test_axiom_commutativity():
    tensor = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
        [[0, 0, 1], [0, 1, 0], [1, 1, 0]],  # s*f mangled, f*s intact
    ]
    with pytest.raises(ValidationError) as err:
        validate_fusion_ring(tensor, (0, 1, 2))
    assert err.value.axiom == "commutativity"


def test_axiom_frobenius_reciprocity():
    # x*x = 1 + y, x*y = y, y*y = 1 + x: x appears in x*x's partner slots
    # inconsistently when read through the duality pairing.
    tensor = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [1, 0, 1], [0, 0, 1]],
        [[0, 0, 1], [0, 0, 1], [1, 1, 0]],
    ]
    with pytest.raises(ValidationError) as err:
        validate_fusion_ring(tensor, (0, 1, 2))
    assert err.value.axiom == "frobenius-reciprocity"


def test_axiom_associativity():
    # x*x = 1 + y, x*y = x + y, y*y = 1 + x is fully symmetric but
    # (x*x)*y and x*(x*y) disagree.
    tensor = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [1, 0, 1], [0, 1, 1]],
        [[0, 0, 1], [0, 1, 1], [1, 1, 0]],
    ]
    with pytest.raises(ValidationError) as err:
        validate_fusion_ring(tensor, (0, 1, 2))
    assert err.value.axiom == "associativity"
    # the dimensions are read only once the tensor is a ring, so a
    # non-numeric one does not mask the associativity failure
    with pytest.raises(ValidationError) as err:
        validate_fusion_ring(tensor, (0, 1, 2), fpdims=("one", "x", "y"))
    assert err.value.axiom == "associativity"


@pytest.mark.parametrize("dims", [
    (1, 1, 1),                      # wrong Perron value for s
    ("neg", None, None),            # placeholder patched in the body
])
def test_axiom_fpdims_exact_mismatch(dims):
    tensor = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
        [[0, 0, 1], [0, 0, 1], [1, 1, 0]],
    ]
    if dims[0] == "neg":
        dims = (ONE, ONE, -sqrt2())
    with pytest.raises(ValidationError) as err:
        validate_fusion_ring(tensor, (0, 1, 2), fpdims=dims)
    assert err.value.axiom == "fpdims"


def test_axiom_fpdims_unit_must_be_one():
    with pytest.raises(ValidationError) as err:
        validate_fusion_ring(_z2_tensor(), (0, 1), fpdims=(2, 1))
    assert err.value.axiom == "fpdims"


def test_axiom_fpdims_sign_character_is_not_positive():
    # (1, -1) is a real character of Z/2, so only its sign rejects it
    with pytest.raises(ValidationError) as err:
        validate_fusion_ring(_z2_tensor(), (0, 1), fpdims=(1, -1))
    assert (err.value.axiom, err.value.witness) == ("fpdims", (1,))


@pytest.mark.parametrize("m", [21, 25, 31, 35, 45])
def test_lucas_family_dimension_decided_exactly(m):
    # psi^45 ~ -4e-10 has numerators near 1e9: the 64-bit cosines cannot
    # certify its sign, so that case doubles the precision
    tensor, phi, psi = lucas(m)
    ring = validate_fusion_ring(tensor, (0, 1), fpdims=(1, phi))
    assert ring.fpdims[1] == phi
    with pytest.raises(ValidationError) as err:
        validate_fusion_ring(tensor, (0, 1), fpdims=(1, psi))
    assert (err.value.axiom, err.value.witness) == ("fpdims", (1,))


# ---------------------------------------------------------------------------
# ring elements
# ---------------------------------------------------------------------------

def test_k_mul_matches_tensor():
    ring = ising_ring()
    prod = k_mul(ring, basis(ring, 2), basis(ring, 2))
    assert prod == (ONE, ONE, ZERO)


def test_k_mul_bilinear():
    ring = fib_ring()
    t = basis(ring, 1)
    three = CycNum.from_rational(3)
    lhs = k_mul(ring, tuple(a * three for a in t), t)
    rhs = tuple(a * three for a in k_mul(ring, t, t))
    assert lhs == rhs


def test_global_fpdim_oracles():
    assert global_fpdim(ising_ring()) == 4
    assert global_fpdim(reps3_ring()) == 6
    # 1 + phi^2 = (5 + sqrt 5)/2
    assert global_fpdim(fib_ring()) == golden() + 2


# ---------------------------------------------------------------------------
# subcategories
# ---------------------------------------------------------------------------

def test_check_subcategory_accepts_pointed_pair():
    ring = ising_ring()
    sub = check_subcategory(ring, (0, 1))
    assert sub.members == (0, 1)
    assert 1 in sub and 2 not in sub


def test_check_subcategory_rejects_open_set():
    ring = ising_ring()
    with pytest.raises(ValidationError) as err:
        check_subcategory(ring, (0, 2))   # s*s reaches f
    assert err.value.axiom == "subcategory"


def test_check_subcategory_requires_unit():
    with pytest.raises(ValidationError):
        check_subcategory(ising_ring(), (1,))


@pytest.mark.parametrize("ring,members,witness,message", [
    (ising_ring(), (1,), (1,), "must contain the unit"),
    (group_ring(3), (0, 1), (1,), "not closed under duals"),
    (ising_ring(), (0, 2), (2, 2, 1), "not closed under fusion"),
    # (s,s) x (s,s) = (1,1) + (1,f) + (f,1) + (f,f): the least k is named
    (deligne_product(ising_ring(), ising_ring()), (0, 8), (8, 8, 1),
     "not closed under fusion"),
])
def test_check_subcategory_names_the_first_failure(ring, members, witness,
                                                   message):
    # the --subcategory error text is built from this axiom and witness
    with pytest.raises(ValidationError) as err:
        check_subcategory(ring, members)
    assert (err.value.axiom, err.value.witness) == ("subcategory", witness)
    assert str(err.value) == f"subcategory failed at {witness}: {message}"


@pytest.mark.parametrize("members,witness", [((0, 3), (3,)), ((-1, 0), (-1,))])
def test_check_subcategory_rejects_an_index_outside_the_basis(members, witness):
    with pytest.raises(ValidationError) as err:
        check_subcategory(ising_ring(), members)
    assert str(err.value) == f"subcategory failed at {witness}: not a basis index"


def test_closure_from_generator():
    ring = ising_ring()
    assert subcategory_closure(ring, (2,)).members == (0, 1, 2)
    assert subcategory_closure(ring, ()).members == (0,)
    assert subcategory_closure(ring, (1,)).members == (0, 1)


def test_enumerate_subcategories_ising():
    subs = enumerate_subcategories(ising_ring())
    assert [s.members for s in subs] == [(0,), (0, 1), (0, 1, 2)]


def test_enumerate_subcategories_group_counts_divisors():
    # subgroups of Z_n <-> divisors of n
    for n, ndiv in [(1, 1), (2, 2), (4, 3), (6, 4), (8, 4), (12, 6)]:
        assert len(enumerate_subcategories(group_ring(n))) == ndiv


def test_enumerate_subcategories_refuses_rank_above_16():
    with pytest.raises(RankTooLarge) as err:
        enumerate_subcategories(group_ring(18))
    assert str(err.value) == "rank 18 exceeds enumeration bound 16"


def test_pointed_part():
    assert pointed_part(ising_ring()).members == (0, 1)
    assert pointed_part(fib_ring()).members == (0,)
    assert pointed_part(group_ring(5)).members == (0, 1, 2, 3, 4)


def test_regular_element_and_sub_fpdim():
    ring = ising_ring()
    full = check_subcategory(ring, (0, 1, 2))
    reg = regular_element(ring, full)
    assert reg == (ONE, ONE, sqrt2())
    assert sub_fpdim(ring, full) == 4
    assert sub_fpdim(ring, check_subcategory(ring, (0, 1))) == 2


def test_sub_fpdim_of_no_members_is_zero_at_conductor_1():
    """The empty sum of squared dimensions is ZERO, at conductor 1, for a
    ring whose dimensions lie at conductor 8."""
    got = sub_fpdim(ising_ring(), ())
    assert (got.conductor, got._nums, got._den) == (1, (0,), 1)


def test_regular_element_squares_to_dim_multiple():
    # R_D * R_D = dim(D) R_D for a fusion subcategory
    ring = reps3_ring()
    sub = check_subcategory(ring, (0, 1))
    reg = regular_element(ring, sub)
    dim = sub_fpdim(ring, sub)
    assert k_mul(ring, reg, reg) == tuple(a * dim for a in reg)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def test_deligne_product_ising_z2():
    a, b = ising_ring(), group_ring(2)
    prod = deligne_product(a, b)
    assert prod.rank == 6
    assert prod.names[0] == "(1,g0)"
    assert prod.names[5] == "(s,g1)"
    # dim (s, g1) = sqrt 2
    assert prod.fpdims[5] == sqrt2()
    assert global_fpdim(prod) == 8


def test_deligne_product_pointed_parts_multiply():
    prod = deligne_product(group_ring(2), group_ring(3))
    assert pointed_part(prod).members == tuple(range(6))
    assert len(enumerate_subcategories(prod)) == 4   # divisors of 6


def test_deligne_product_needs_exact_dims():
    floaty = validate_fusion_ring(_z2_tensor(), (0, 1))
    with pytest.raises(ExactDataMissing):
        deligne_product(floaty, floaty)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=8))
def test_group_rings_validate_and_are_pointed(n):
    ring = group_ring(n)
    assert ring.rank == n
    assert all(d == 1 for d in ring.fpdims)
    assert global_fpdim(ring) == n
    assert pointed_part(ring).members == tuple(range(n))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=6), m=st.integers(min_value=1, max_value=4))
def test_product_of_group_rings_is_group_ring(n, m):
    prod = deligne_product(group_ring(n), group_ring(m))
    assert prod.rank == n * m
    assert global_fpdim(prod) == n * m
    # closure of any generator is a subgroup: order divides n*m
    for i in range(prod.rank):
        assert (n * m) % len(subcategory_closure(prod, (i,))) == 0


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=2, max_value=6),
       data=st.data())
def test_subcategory_closure_is_idempotent(n, data):
    ring = group_ring(n)
    gens = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=3))
    first = subcategory_closure(ring, gens)
    again = subcategory_closure(ring, first.members)
    assert first.members == again.members
    check_subcategory(ring, first.members)   # closure really is closed
