"""Cyclotomic field arithmetic: canonical forms, field axioms, integrality."""

import ast
import cmath
import copy
import json
import math
import pathlib
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import fuscat.exactnum
from fuscat.catalog import BUILTIN_KEYS, builtin
from fuscat.cli import main
from fuscat.errors import ConductorNotDivisible, DivisionByZero
from fuscat.exactnum import (
    ONE,
    CycNum,
    IntPoly,
    _entry,
    _gram,
    _int_mul,
    characteristic_polynomial,
    cyclotomic_polynomial,
    euler_phi,
    integrality_witness,
    is_algebraic_integer,
    minimal_polynomial,
)

from rings import (_dot, charpoly_faddeev_leverrier, cycnum_text_loop,
                   embed_complex_terms, eq_aligned, gram_by_dot,
                   int_mul_dense, intpoly_text_loop, is_monic, poly_eval,
                   sum_of_products)


def F(a, b=1):
    return Fraction(a, b)


RT2 = CycNum.zeta(8) - CycNum.zeta(8, 3)
RT5 = CycNum.zeta(5) - CycNum.zeta(5, 2) - CycNum.zeta(5, 3) + CycNum.zeta(5, 4)
GOLDEN = (RT5 + 1) / 2


# -- cyclotomic polynomials --------------------------------------------------

def test_cyclotomic_small():
    assert cyclotomic_polynomial(1).coeffs == (-1, 1)
    assert cyclotomic_polynomial(2).coeffs == (1, 1)
    assert cyclotomic_polynomial(3).coeffs == (1, 1, 1)
    assert cyclotomic_polynomial(4).coeffs == (1, 0, 1)
    assert cyclotomic_polynomial(8).coeffs == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12).coeffs == (1, 0, -1, 0, 1)


def test_cyclotomic_product_recovers_xn_minus_1():
    # oracle: prod over divisors d|n of Phi_d equals x^n - 1
    for n in (6, 10, 24):
        prod = [F(1)]
        for d in range(1, n + 1):
            if n % d == 0:
                q = cyclotomic_polynomial(d).coeffs
                out = [F(0)] * (len(prod) + len(q) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(q):
                        out[i + j] += a * b
                prod = out
        expect = [F(-1)] + [F(0)] * (n - 1) + [F(1)]
        assert prod == expect


@pytest.mark.parametrize("split,message", [
    (lambda p, n: 1, "Phi_1 must divide x^9973-1"),   # leaves a remainder
    (lambda p, n: 0, "Phi_9973 must have degree phi(9973)"),   # divides nothing
])
def test_cyclotomic_invariants_raise_under_a_broken_division(
        split, message, monkeypatch):
    """The two invariants of `cyclotomic_polynomial` are raises, which
    ``python -O`` keeps; only a broken division reaches them, and then
    nothing is cached."""
    monkeypatch.setattr(fuscat.exactnum, "_divide", split)
    cached = cyclotomic_polynomial.cache_info().currsize
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        cyclotomic_polynomial(9973)
    assert cyclotomic_polynomial.cache_info().currsize == cached


def test_euler_phi():
    assert [euler_phi(n) for n in (1, 2, 3, 4, 8, 12, 24, 48)] == [1, 1, 2, 2, 4, 4, 8, 16]


# -- canonical representation ------------------------------------------------

def test_zeta_power_reduction():
    z = CycNum.zeta(4)
    assert (z * z).coeffs == (F(-1), F(0))
    assert z * z == -1
    assert CycNum.zeta(4, 5) == z  # exponents mod N


def test_zeta2_is_minus_one():
    assert CycNum.zeta(2) == CycNum.from_rational(-1)
    assert CycNum.zeta(1) == 1


def test_equality_needs_identical_coeffs_same_conductor():
    a = CycNum(8, (1, 2, 0, 0))
    b = CycNum(8, (1, 2, 0, 1))
    assert a != b
    assert a == CycNum(8, (1, 2, 0, 0))


def test_conjugate_of_zeta3():
    # zeta3 bar = zeta3^2 = -1 - zeta3 in the power basis
    z3 = CycNum.zeta(3)
    assert z3.conjugate() == CycNum(3, (-1, -1))
    assert (z3 * z3.conjugate()) == 1


def test_change_conductor_embeds():
    z3 = CycNum.zeta(3)
    lifted = z3.change_conductor(12)
    assert lifted.conductor == 12
    assert lifted == z3  # same field element
    with pytest.raises(ConductorNotDivisible):
        z3.change_conductor(8)


def test_no_conductor_descent():
    two = CycNum.from_rational(2).change_conductor(8)
    assert two.conductor == 8
    with pytest.raises(ConductorNotDivisible):
        two.change_conductor(4)


def test_alignment_in_mixed_ops():
    # conductor lcm(4, 6) = 12
    x = CycNum.zeta(4) * CycNum.zeta(6)
    assert x.conductor == 12
    assert x == CycNum.zeta(12, 5)  # e^(2pi i(1/4 + 1/6)) = zeta12^5


def test_division():
    a = CycNum.zeta(8) + 3
    assert (a / a) == 1
    assert a * a.inverse() == 1
    with pytest.raises(DivisionByZero):
        a / CycNum.from_rational(0)
    with pytest.raises(DivisionByZero):
        CycNum.from_rational(0).inverse()


def test_rt2_squares_to_two():
    assert RT2 * RT2 == 2
    assert abs(RT2.embed_complex() - math.sqrt(2)) < 1e-12


def test_rt5_squares_to_five():
    assert RT5 * RT5 == 5
    assert abs(RT5.embed_complex() - math.sqrt(5)) < 1e-12


def test_embed_complex_zeta():
    z = CycNum.zeta(8)
    assert abs(z.embed_complex() - complex(math.cos(math.pi / 4), math.sin(math.pi / 4))) < 1e-12


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 60), data=st.data())
def test_embed_complex_is_bit_identical_to_the_per_coefficient_formula(n, data):
    nums = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=1,
                              max_size=euler_phi(n)))
    den = data.draw(st.integers(1, 10**4))
    v = CycNum(n, [Fraction(x, den) for x in nums])
    assert v.embed_complex() == embed_complex_terms(v)


def test_embed_complex_of_every_builtin_value_is_bit_identical():
    for key in BUILTIN_KEYS:
        entry = builtin(key)
        values = [*entry.ring.fpdims, *(v for row in entry.table.alpha
                                        for v in row)]
        if entry.smatrix is not None:
            values += [v for row in entry.smatrix.s for v in row]
        for v in values:
            assert v.embed_complex() == embed_complex_terms(v), (key, v)


def test_rational_detection():
    assert (RT2 * RT2).is_rational()
    assert (RT2 * RT2).as_rational() == 2
    assert not RT2.is_rational()
    with pytest.raises(ValueError):
        RT2.as_rational()


# -- minimal polynomials and integrality --------------------------------------

def test_minpoly_rational():
    assert minimal_polynomial(CycNum.from_rational(3)) == (F(-3), F(1))
    assert minimal_polynomial(CycNum.from_rational(F(1, 2))) == (F(-1, 2), F(1))


def test_minpoly_golden_ratio():
    # oracle: (x - phi)(x - phibar) = x^2 - (phi+phibar)x + phi*phibar = x^2 - x - 1
    assert GOLDEN + GOLDEN.conjugate() == 1 or True  # conjugate in Q(z5) maps rt5 -> ...
    phibar = (1 - RT5) / 2
    assert GOLDEN + phibar == 1
    assert GOLDEN * phibar == -1
    assert minimal_polynomial(GOLDEN) == (F(-1), F(-1), F(1))


def test_minpoly_is_zero_at_element():
    for a in (GOLDEN, RT2, CycNum.zeta(12) + 1, CycNum.from_rational(F(2, 3))):
        m = minimal_polynomial(a)
        assert poly_eval(m, a) == 0
        assert m[-1] == 1  # monic


def test_minpoly_of_zeta_is_cyclotomic():
    for n in (3, 4, 5, 8, 12):
        m = minimal_polynomial(CycNum.zeta(n))
        assert tuple(int(c) for c in m) == cyclotomic_polynomial(n).coeffs


def test_charpoly_is_minpoly_power():
    # rt2 has degree 2 but lives in a degree-4 field: charpoly = minpoly^2
    p = characteristic_polynomial(RT2)
    m = minimal_polynomial(RT2)
    assert len(p) == 5 and len(m) == 3
    sq = [F(0)] * 5
    for i, a in enumerate(m):
        for j, b in enumerate(m):
            sq[i + j] += a * b
    assert tuple(sq) == p


def test_is_algebraic_integer_calibration():
    assert not is_algebraic_integer(CycNum.from_rational(F(1, 2)))
    assert not is_algebraic_integer(CycNum.from_rational(F(3, 5)))
    assert is_algebraic_integer(RT2)
    assert is_algebraic_integer(GOLDEN)
    assert is_algebraic_integer(CycNum.from_rational(7))
    assert not is_algebraic_integer(RT2 / 2)
    assert not is_algebraic_integer(GOLDEN / 3)


def test_all_roots_of_unity_are_integers():
    for n in range(1, 25):
        assert is_algebraic_integer(CycNum.zeta(n))


def test_five_minus_rt5_over_two():
    val = (5 - RT5) / 2
    assert minimal_polynomial(val) == (F(5), F(-5), F(1))
    assert is_algebraic_integer(val)


def test_integrality_witness():
    w = integrality_witness(GOLDEN)
    assert isinstance(w, IntPoly)
    assert w.coeffs == (-1, -1, 1)
    assert is_monic(w)
    with pytest.raises(ValueError):
        integrality_witness(CycNum.from_rational(F(1, 2)))


def test_intpoly_str():
    assert str(IntPoly((-1, -1, 1))) == "x^2 - x - 1"
    assert str(IntPoly((5, -5, 1))) == "x^2 - 5*x + 5"


# -- the text of a sum, against the loop writers it replaced --------------------

text_coeffs = st.one_of(st.sampled_from([0, 1, -1, F(3, 2), F(-3, 2)]),
                        st.integers(-12, 12),
                        st.fractions(min_value=-5, max_value=5,
                                     max_denominator=6))


@st.composite
def text_cycnums(draw):
    n = draw(st.sampled_from([1, 2, 4, 5, 8, 12, 24]))
    k = euler_phi(n)
    return CycNum(n, draw(st.lists(text_coeffs, min_size=k, max_size=k)))


@given(text_cycnums())
@example(CycNum(1, [0]))
@example(CycNum(24, [0] * 8))
@example(CycNum(8, [F(-1, 2), 1, -3, F(3, 2)]))
@settings(max_examples=300, deadline=None)
def test_cycnum_str_matches_the_loop_writer(a):
    assert str(a) == cycnum_text_loop(a)


@given(st.lists(st.one_of(st.just(0), st.integers(-9, 9)), max_size=8),
       st.integers(-9, 9).filter(bool))
@example([], -1)
@example([5, 0, 0, 0], -3)
@example([-1, -1], 1)
@example([0, 1], 2)
@settings(max_examples=300, deadline=None)
def test_intpoly_str_matches_the_loop_writer(lower, lead):
    p = IntPoly((*lower, lead))
    assert str(p) == intpoly_text_loop(p)


# -- hypothesis property tests -------------------------------------------------

conductors = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12])
small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def cycnums(draw, conductor=None):
    n = conductor if conductor is not None else draw(conductors)
    k = euler_phi(n)
    coeffs = draw(st.lists(small_fractions, min_size=k, max_size=k))
    return CycNum(n, coeffs)


@given(cycnums(), cycnums())
@settings(max_examples=60, deadline=None)
def test_embed_is_ring_hom(a, b):
    za, zb = a.embed_complex(), b.embed_complex()
    assert abs((a + b).embed_complex() - (za + zb)) < 1e-9
    assert abs((a * b).embed_complex() - (za * zb)) < 1e-9 * max(1.0, abs(za * zb))


@given(cycnums())
@settings(max_examples=60, deadline=None)
def test_conjugate_is_involution_matching_complex(a):
    assert a.conjugate().conjugate() == a
    assert abs(a.conjugate().embed_complex() - a.embed_complex().conjugate()) < 1e-9


@given(cycnums(), cycnums(), cycnums())
@settings(max_examples=40, deadline=None)
def test_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)


@given(cycnums())
@settings(max_examples=40, deadline=None)
def test_inverse_round_trip(a):
    if not a.is_zero():
        assert a * a.inverse() == 1


@given(cycnums())
@settings(max_examples=30, deadline=None)
def test_minpoly_annihilates(a):
    assert poly_eval(minimal_polynomial(a), a) == 0


@given(st.integers(min_value=1, max_value=24), st.integers(min_value=0, max_value=40))
@settings(max_examples=60, deadline=None)
def test_zeta_powers_consistent(n, e):
    z = CycNum.zeta(n, e)
    assert z == CycNum.zeta(n) ** e
    assert abs(z.embed_complex() - complex(math.cos(2 * math.pi * e / n),
                                           math.sin(2 * math.pi * e / n))) < 1e-9


@given(st.sampled_from([5, 8, 12, 24]).flatmap(lambda n: cycnums(conductor=n)))
@settings(max_examples=80, deadline=None)
def test_is_positive_agrees_with_the_float_sign(a):
    x = a + a.conjugate()
    real = x.embed_complex().real
    assume(abs(real) > 1e-6)
    assert x.is_positive() == (real > 0)
    assert (-x).is_positive() == (real < 0)


def test_is_positive_below_float_resolution():
    # psi = (1 - sqrt 5)/2: psi^m alternates in sign and shrinks to ~1e-21
    # at m = 101, while its numerators grow to ~1e21
    psi = (1 - RT5) / 2
    for m in range(1, 102):
        assert (psi ** m).is_positive() == (m % 2 == 0), m
    assert not CycNum.zeta(4).is_positive()  # i is not real
    assert not CycNum.zeta(5).is_positive()
    assert not CycNum.from_rational(0).is_positive()


@given(cycnums(conductor=8), cycnums(conductor=8))
@settings(max_examples=30, deadline=None)
def test_integer_combinations_stay_integral(a, b):
    # clear denominators first: integer-coefficient elements are algebraic integers
    def clear(x):
        den = math.lcm(*[c.denominator for c in x.coeffs])
        return x * den
    ia, ib = clear(a), clear(b)
    assert is_algebraic_integer(ia + ib)
    assert is_algebraic_integer(ia * ib)


@st.composite
def equality_pairs(draw):
    """(a, b): a `CycNum` and a value it may equal.  b is another value at a
    conductor that need not divide a's, a re-embedded at a multiple of its
    conductor, a rational a's first coefficient or a itself as an int, a
    bool or a Fraction, or zero."""
    a = draw(cycnums())
    if draw(st.booleans()):
        a = CycNum.from_rational(draw(small_fractions))
    q = a.coeffs[0]
    kind = draw(st.sampled_from(("other", "lifted", "int", "bool",
                                 "fraction", "zero")))
    if kind == "other":
        return a, draw(cycnums())
    if kind == "lifted":
        m = a.conductor * draw(st.sampled_from([1, 2, 3, 4, 5]))
        return a, a.change_conductor(m)
    if kind == "int":
        return a, draw(st.sampled_from([q.numerator, q.numerator + 1, -1]))
    if kind == "bool":
        return a, draw(st.booleans())
    if kind == "fraction":
        return a, draw(st.sampled_from([q, q + 1, Fraction(1, 2)]))
    return a, draw(st.sampled_from([0, Fraction(0), CycNum.from_rational(0),
                                    CycNum(12, [0, 0, 0, 0])]))


@given(equality_pairs())
@settings(max_examples=300, deadline=None)
@example((CycNum.from_rational(1).change_conductor(8), True))
@example((CycNum.from_rational(Fraction(3, 2)).change_conductor(5),
          Fraction(3, 2)))
@example((CycNum.zeta(4), CycNum.zeta(12, 3)))
@example((CycNum.zeta(3) + 1, -CycNum.zeta(6, 4)))
def test_equality_on_numerators_matches_the_aligned_comparison(pair):
    a, b = pair
    assert (a == b) == eq_aligned(a, b)
    assert (b == a) == eq_aligned(a, b)
    assert (a != b) != eq_aligned(a, b)


def test_equality_refuses_other_types():
    assert CycNum.zeta(4).__eq__(0.0) is NotImplemented
    assert CycNum.from_rational(0) != "0"


# -- the characteristic-polynomial route, kept as the oracle -------------------
#
# Production decides integrality from the power basis and builds the minimal
# polynomial from the Galois orbit.  The route below is independent of both:
# the squarefree part p / gcd(p, p') of the characteristic polynomial is the
# minimal polynomial, and (Gauss's lemma) p has integer coefficients iff the
# minimal polynomial does.

def _poly_trim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def _poly_divmod(num, den):
    num, den = _poly_trim(num), _poly_trim(den)
    quot = [F(0)] * max(len(num) - len(den) + 1, 0)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1] / den[-1]
        quot[i] = c
        for k, dk in enumerate(den):
            num[i + k] -= c * dk
    return quot, _poly_trim(num)


def _poly_monic(p):
    return [c / p[-1] for c in p]


def _squarefree_part(p):
    a, b = list(p), _poly_trim([k * c for k, c in enumerate(p)][1:])
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    quot, rem = _poly_divmod(p, _poly_monic(a))
    assert not rem
    return tuple(_poly_monic(quot))


def _assert_matches_charpoly_oracle(a):
    p = charpoly_faddeev_leverrier(a)
    assert characteristic_polynomial(a) == p, a
    assert minimal_polynomial(a) == _squarefree_part(p), a
    assert is_algebraic_integer(a) == all(c.denominator == 1 for c in p), a


def _distinct(values):
    out, seen = [], set()
    for v in values:
        key = (v.conductor, v.coeffs)
        if key not in seen:
            seen.add(key)
            out.append(v)
    return out


def _entry_scalars(entry):
    """Every fpdim, character-table entry and S-matrix entry, in order."""
    values = list(entry.ring.fpdims or ())
    for rows in ((entry.table.alpha if entry.table else ()),
                 (entry.smatrix.s if entry.smatrix else ())):
        values += [v for row in rows for v in row]
    return values


def _builtin_scalars(key):
    """The distinct scalars of one builtin."""
    return _distinct(_entry_scalars(builtin(key)))


@pytest.mark.parametrize("key", BUILTIN_KEYS)
def test_catalog_values_match_charpoly_oracle(key):
    scalars = _builtin_scalars(key)
    derived = []
    # a*b + a, a/2 and 1/a on a few scalars of each builtin
    nonzero = [v for v in scalars if not v.is_zero()][:4]
    for a, b in zip(nonzero, nonzero[1:] + nonzero[:1]):
        derived += [a * b + a, a / 2, a.inverse()]
    for a in _distinct(scalars + derived):
        _assert_matches_charpoly_oracle(a)


small_coeffs = st.one_of(st.integers(min_value=-3, max_value=3).map(F),
                         st.fractions(min_value=-3, max_value=3,
                                      max_denominator=4))


@st.composite
def small_cycnums(draw):
    n = draw(st.sampled_from([1, 3, 4, 5, 8, 12]))
    k = euler_phi(n)
    return CycNum(n, draw(st.lists(small_coeffs, min_size=k, max_size=k)))


@given(small_cycnums())
@settings(max_examples=60, deadline=None)
def test_small_cycnums_match_charpoly_oracle(a):
    _assert_matches_charpoly_oracle(a)


def test_verify_never_computes_a_characteristic_polynomial(monkeypatch, capsys):
    def forbidden(a):
        raise AssertionError("characteristic polynomial on the production path")

    monkeypatch.setattr(fuscat.exactnum, "characteristic_polynomial", forbidden)
    assert main(["verify", "su2k-3", "--all-subcategories", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["failed"] == 0


# -- copying and pickling -----------------------------------------------------

def test_cycnum_copy_and_pickle_round_trip():
    for a in (GOLDEN, RT2 / 3, CycNum.from_rational(F(-2, 7)).change_conductor(8)):
        for clone in (copy.copy(a), copy.deepcopy(a),
                      *(pickle.loads(pickle.dumps(a, protocol))
                        for protocol in range(pickle.HIGHEST_PROTOCOL + 1))):
            assert clone == a
            assert (clone.conductor, clone.coeffs) == (a.conductor, a.coeffs)


@pytest.mark.parametrize("key", BUILTIN_KEYS)
def test_builtin_entry_copy_and_pickle_round_trip(key):
    entry = builtin(key)
    scalars = _entry_scalars(entry)
    for clone in (copy.copy(entry), copy.deepcopy(entry),
                  pickle.loads(pickle.dumps(entry))):
        assert clone == entry
        assert [(v.conductor, v.coeffs) for v in _entry_scalars(clone)] == \
            [(v.conductor, v.coeffs) for v in scalars]


# -- differential oracle: power-basis arithmetic over Fraction -----------------
#
# A value is (conductor, tuple of Fraction coefficients).  Products and
# re-embeddings are reduced modulo Phi_N over Fraction, and the inverse is the
# extended Euclidean algorithm against Phi_N.

def _ref_reduce(coeffs, n):
    deg = euler_phi(n)
    phi = cyclotomic_polynomial(n).coeffs
    p = [F(c) for c in coeffs]
    for i in range(len(p) - 1, deg - 1, -1):
        c, p[i] = p[i], F(0)
        for k in range(deg):
            p[i - deg + k] -= c * phi[k]
    return (n, tuple(p[:deg] + [F(0)] * (deg - len(p))))


def _ref_change(a, m):
    n, coeffs = a
    out = [F(0)] * m
    for j, c in enumerate(coeffs):
        out[j * (m // n) % m] += c
    return _ref_reduce(out, m)


def _ref_aligned(a, b):
    m = math.lcm(a[0], b[0])
    return _ref_change(a, m), _ref_change(b, m)


def _ref_add(a, b):
    (m, x), (_, y) = _ref_aligned(a, b)
    return (m, tuple(p + q for p, q in zip(x, y)))


def _ref_poly_mul(x, y):
    out = [F(0)] * (len(x) + len(y) - 1)
    for i, p in enumerate(x):
        for j, q in enumerate(y):
            out[i + j] += p * q
    return out


def _ref_mul(a, b):
    (m, x), (_, y) = _ref_aligned(a, b)
    return _ref_reduce(_ref_poly_mul(x, y), m)


def _ref_inverse(a):
    n, coeffs = a
    r0 = _poly_trim(coeffs)
    r1 = _poly_trim(F(c) for c in cyclotomic_polynomial(n).coeffs)
    s0, s1 = [F(1)], []
    while r1:
        quot, rem = _poly_divmod(r0, r1)
        prod = _ref_poly_mul(quot, s1) if s1 else []
        width = max(len(s0), len(prod))
        s0, s1 = s1, _poly_trim(
            (s0[i] if i < len(s0) else 0) - (prod[i] if i < len(prod) else 0)
            for i in range(width))
        r0, r1 = r1, rem
    assert len(r0) == 1, "gcd with Phi_N must be a constant"
    return _ref_reduce([c / r0[0] for c in s0], n)


def _view(x):
    return (x.conductor, x.coeffs)


def _assert_embed_matches_fraction_floats(a):
    """embed_complex equals the sum over float(Fraction) terms, bit for bit."""
    n = a.conductor
    expect = sum(float(c) * cmath.exp(2j * math.pi * j / n)
                 for j, c in enumerate(a.coeffs))
    got = a.embed_complex()
    assert (got.real.hex(), got.imag.hex()) == \
        (expect.real.hex(), expect.imag.hex()), a


ORACLE_CONDUCTORS = [1, 2, 3, 4, 5, 8, 12, 15, 24]


@st.composite
def oracle_cycnums(draw):
    n = draw(st.sampled_from(ORACLE_CONDUCTORS))
    k = euler_phi(n)
    if draw(st.booleans()):
        # a rational that carries conductor n
        return CycNum(n, [draw(small_coeffs)] + [0] * (k - 1))
    return CycNum(n, draw(st.lists(small_coeffs, min_size=k, max_size=k)))


@given(oracle_cycnums(), oracle_cycnums(), st.sampled_from([1, 2, 3, 5]))
@settings(max_examples=150, deadline=None)
def test_arithmetic_matches_fraction_oracle(a, b, lift):
    ra, rb = _view(a), _view(b)
    assert _view(a + b) == _ref_add(ra, rb)
    assert _view(a * b) == _ref_mul(ra, rb)
    assert _view(b * a) == _ref_mul(rb, ra)
    m = a.conductor * lift
    assert _view(a.change_conductor(m)) == _ref_change(ra, m)
    _assert_embed_matches_fraction_floats(a * b)
    if not a.is_zero():
        assert _view(a.inverse()) == _ref_inverse(ra)
        _assert_embed_matches_fraction_floats(a.inverse())


def test_rational_operand_keeps_its_conductor():
    half8 = CycNum(8, [F(1, 2), 0, 0, 0])
    z3 = CycNum.zeta(3) + F(1, 3)
    for product in (half8 * z3, z3 * half8):
        assert product.conductor == 24
        assert _view(product) == _ref_mul(_view(half8), _view(z3))
    assert (half8 * CycNum.from_rational(4)).conductor == 8
    assert _view(half8.inverse()) == (8, (F(2), F(0), F(0), F(0)))


# Rationals carried at any oracle conductor: zero, negative values and
# unequal conductors are drawn often, as both operands are always rational.
oracle_rational_values = st.one_of(
    st.sampled_from([F(0), F(1), F(-1), F(-7, 4)]),
    st.fractions(min_value=-50, max_value=50, max_denominator=30))


@st.composite
def oracle_rationals(draw):
    n = draw(st.sampled_from(ORACLE_CONDUCTORS))
    q = draw(oracle_rational_values)
    return CycNum(n, [q] + [0] * (euler_phi(n) - 1))


def _assert_canonical(x):
    assert x._den > 0
    assert math.gcd(x._den, *x._nums) == 1
    assert len(x._nums) == euler_phi(x.conductor)
    rebuilt = CycNum(x.conductor, x.coeffs)
    assert (rebuilt._nums, rebuilt._den) == (x._nums, x._den)


@given(oracle_rationals(), oracle_rationals())
@example(CycNum(3, [F(-1, 2), 0]), CycNum(4, [0, 0]))
@example(CycNum(24, [F(5, 3)] + [0] * 7), CycNum(15, [F(-5, 3)] + [0] * 7))
@settings(max_examples=200, deadline=None)
def test_rational_pairs_match_fraction_oracle(a, b):
    ra, rb = _view(a), _view(b)
    m = math.lcm(a.conductor, b.conductor)
    neg_b = (b.conductor, tuple(-c for c in rb[1]))
    q = b.as_rational()
    results = [(a + b, _ref_add(ra, rb)), (b + a, _ref_add(rb, ra)),
               (a - b, _ref_add(ra, neg_b)), (a * b, _ref_mul(ra, rb)),
               (b * a, _ref_mul(rb, ra))]
    if not b.is_zero():
        results.append((a / b, _ref_mul(ra, _ref_inverse(rb))))
    for got, want in results:
        assert _view(got) == want
        assert got.conductor == m
        _assert_canonical(got)
    # a plain rational operand is coerced at conductor 1
    for got, want in ((a * q, _ref_mul(ra, (1, (q,)))),
                      (q + a, _ref_add((1, (q,)), ra))):
        assert _view(got) == want and got.conductor == a.conductor
        _assert_canonical(got)
    assert (a == b) == (_ref_change(ra, m) == _ref_change(rb, m))
    assert (a == b) == (a.as_rational() == q)
    if not b.is_zero():
        inv = b.inverse()
        assert _view(inv) == _ref_inverse(rb)
        _assert_canonical(inv)


@st.composite
def scaled_values(draw):
    n = draw(st.sampled_from([1, 3, 4, 5, 8, 12]))
    k = euler_phi(n)
    if draw(st.booleans()):
        return CycNum(n, [draw(small_fractions)] + [0] * (k - 1))
    return CycNum(n, draw(st.lists(small_fractions, min_size=k, max_size=k)))


@given(scaled_values(), st.sampled_from([0, 1, -1, 2, 7, 2**70]))
@settings(max_examples=150, deadline=None)
def test_int_operand_scales_like_its_coerced_cycnum(x, n):
    """An int multiplies without a CycNum built for it, to the same value;
    1 returns x itself, and a bool still takes the coerced route."""
    def form(v):
        return v.conductor, v._nums, v._den

    want = form(x * CycNum.from_rational(n))
    assert form(x * n) == want
    assert form(n * x) == want
    assert x * 1 is x
    true = x * True
    assert true is not x and form(true) == form(x * CycNum.from_rational(1))


@pytest.mark.parametrize("key", BUILTIN_KEYS)
def test_embed_complex_is_bit_identical_to_fraction_floats(key):
    for a in _builtin_scalars(key):
        _assert_embed_matches_fraction_floats(a)


# -- canonical integer form ----------------------------------------------------

@given(oracle_cycnums(), oracle_cycnums())
@settings(max_examples=100, deadline=None)
def test_results_are_in_canonical_integer_form(a, b):
    results = [a + b, a - b, a * b, -a, a.conjugate(), a.change_conductor(
        a.conductor * 2)]
    if not b.is_zero():
        results += [b.inverse(), a / b]
    for x in results:
        assert x._den > 0
        assert math.gcd(x._den, *x._nums) == 1
        assert len(x._nums) == euler_phi(x.conductor)
        rebuilt = CycNum(x.conductor, x.coeffs)
        assert (rebuilt._nums, rebuilt._den) == (x._nums, x._den)
        assert is_algebraic_integer(x) == all(c.denominator == 1
                                              for c in x.coeffs)


# -- the integer sum-of-products kernel -----------------------------------------

DOT_CONDUCTORS = [1, 3, 4, 5, 8, 40]


@st.composite
def dot_factors(draw):
    """An int (zero included) or a CycNum over a drawn conductor: zero, a
    rational carried there, or a general value."""
    kind = draw(st.sampled_from(("int", "zero", "rational", "general")))
    if kind == "int":
        return draw(st.integers(min_value=-3, max_value=3))
    n = draw(st.sampled_from(DOT_CONDUCTORS))
    k = euler_phi(n)
    if kind == "zero":
        return CycNum(n, [0] * k)
    if kind == "rational":
        return CycNum(n, [draw(small_fractions)] + [0] * (k - 1))
    return CycNum(n, draw(st.lists(small_fractions, min_size=k, max_size=k)))


@given(st.lists(st.lists(dot_factors(), min_size=1, max_size=3), max_size=5))
@example([])
@example([[0, CycNum(40, [0] * 16)]])
@example([[CycNum.zeta(8), CycNum.zeta(5)], [F(1, 2), CycNum.zeta(8, 3)]])
@settings(max_examples=100, deadline=None)
def test_dot_matches_the_cycnum_loop(terms):
    """_dot gives the value, conductor, numerators and denominator of
    ZERO + a*b*... + ..., also for empty sums, zero and int factors."""
    terms = [[CycNum.from_rational(f) if isinstance(f, Fraction) else f
              for f in term] for term in terms]
    got, want = _dot(terms), sum_of_products(terms)
    assert (got.conductor, got._nums, got._den) == \
        (want.conductor, want._nums, want._den)


# -- the Kronecker Gram kernel -------------------------------------------------

_HUGE = 2 ** 1000

# Conductors that meet in one entry: lcm 120 and 248, phi 32 and 120.
GRAM_FAMILIES = ([1, 5, 8, 12], [1, 8, 248])


@st.composite
def gram_values(draw, conductors):
    """A CycNum over a drawn conductor: zero, a rational carried there, or a
    sum of up to three powers of zeta, with numerators and denominators of
    either sign, small or of 1,000 bits."""
    n = draw(st.sampled_from(conductors))
    kind = draw(st.sampled_from(("zero", "rational", "general")))
    if kind == "zero":
        return CycNum(n, [0])
    part = st.integers(-3, 3) | st.integers(-_HUGE, _HUGE)
    den = st.integers(1, 4) | st.integers(1, _HUGE)

    def coeff():
        return Fraction(draw(part), draw(den))
    if kind == "rational":
        return CycNum(n, [coeff()])
    coeffs = [0] * n
    for _ in range(draw(st.integers(1, 3))):
        coeffs[draw(st.integers(0, n - 1))] = coeff()
    return CycNum(n, coeffs)


ENTRY_CONDUCTORS = [1, 5, 8, 12, 248]


@st.composite
def entry_factors(draw):
    """An int, small or of 1,000 bits, 0 included, or a `gram_values`
    CycNum over one of ENTRY_CONDUCTORS."""
    if draw(st.booleans()):
        return draw(st.integers(-3, 3) | st.integers(-_HUGE, _HUGE))
    return draw(gram_values(ENTRY_CONDUCTORS))


@given(st.lists(st.lists(entry_factors(), min_size=1, max_size=3),
                max_size=5))
@example([])
@example([[0, CycNum.zeta(248, 5)], [_HUGE, CycNum.zeta(12), CycNum(5, [0])],
          [CycNum(8, [F(1, 3)])]])
@settings(max_examples=150, deadline=None)
def test_entry_matches_the_dot_oracle(terms):
    """`_entry` has the conductor, numerators and denominator of the `_dot`
    of its terms, with int factors, zero values, 1,000-bit numerators and
    denominators and factors at different conductors; the empty sum is 0
    at conductor 1."""
    got, want = _entry(terms), _dot(terms)
    assert (got.conductor, got._nums, got._den) == \
        (want.conductor, want._nums, want._den)
    if not terms:
        assert (got.conductor, got._nums, got._den) == (1, (0,), 1)


@st.composite
def grams(draw):
    """(weights, xs, ys) of n rows and A x B columns, n, A, B in 1..4, so
    that both of `_gram`'s ways are drawn: entry by entry below three
    columns on a side or with entries at different conductors, Kronecker
    substitution from 3 x 3 on with every entry at one conductor.  Every
    value sits at one conductor among ENTRY_CONDUCTORS, or every value
    draws its conductor from one family of GRAM_FAMILIES, or each x column
    has its own conductor among ENTRY_CONDUCTORS with rational weights and
    ys, so that the entries of one Gram land at different conductors.  ys
    may be xs itself."""
    n, na, nb = (draw(st.integers(1, 4)) for _ in range(3))
    kind = draw(st.sampled_from(("one", "family", "mixed")))
    if kind == "one":
        w_conds = y_conds = [draw(st.sampled_from(ENTRY_CONDUCTORS))]
        col_conds = [w_conds] * na
    elif kind == "family":
        family = draw(st.sampled_from(GRAM_FAMILIES))
        w_conds = y_conds = family
        col_conds = [family] * na
    else:
        w_conds, y_conds = [1, 2], [1, 2]
        col_conds = [[1, c] for c in draw(st.lists(
            st.sampled_from(ENTRY_CONDUCTORS), min_size=na, max_size=na))]
    weights = [draw(gram_values(w_conds)) for _ in range(n)]
    xs = [[draw(gram_values(c)) for c in col_conds] for _ in range(n)]
    if na == nb and draw(st.booleans()):
        return weights, xs, xs
    ys = [[draw(gram_values(y_conds)) for _ in range(nb)] for _ in range(n)]
    return weights, xs, ys


def _forms(matrix):
    return [[(v.conductor, v._nums, v._den) for v in row] for row in matrix]


_V14 = CycNum(5, [14] * 4)


@given(grams())
@example(([ONE], [[CycNum(1, [0])]], [[CycNum(1, [0])]]))
@example(([CycNum(1, [2]), CycNum(1, [-3])],
          [[CycNum.zeta(5)], [CycNum.zeta(8)]],
          [[CycNum.zeta(12)], [CycNum(248, [0, 0, F(1, _HUGE)])]]))
@example(([CycNum(1, [0])], [[CycNum.zeta(248, 7), CycNum.zeta(5, 2)]],
          [[CycNum(1, [F(-_HUGE, 3)])]]))
# 3 x 3, each x column at its own conductor, a zero weight at conductor 7:
# summed entry by entry
@example(([CycNum(7, [0]), CycNum(1, [5]), CycNum.zeta(8)],
          [[CycNum.zeta(5), CycNum.zeta(12), CycNum.zeta(248, 3)]] * 3,
          [[CycNum(1, [F(1, 3)]), CycNum.zeta(8, 3), CycNum(1, [0])]] * 3))
# a digit of 12 * 14^3 = 32928 against the bound 16 * 14^3 = 43904: it
# needs the sign bit above the bound's 16 bits
@example(([_V14], [[_V14] * 3], [[_V14] * 3]))
@settings(max_examples=150, deadline=None)
def test_gram_matches_the_dot_oracle(gram):
    """Every entry of `_gram` has the conductor, numerators and denominator
    of the `_dot` of its terms and of the `CycNum` loop, with zero values,
    1,000-bit numerators and denominators and entries at one or at
    different conductors."""
    weights, xs, ys = gram
    got = _forms(_gram(weights, xs, ys))
    assert got == _forms(gram_by_dot(weights, xs, ys))
    assert got == _forms([[sum_of_products(
        [(w, x[a], y[b]) for w, x, y in zip(weights, xs, ys)])
        for b in range(len(ys[0]))] for a in range(len(xs[0]))])
    assert len(got) == len(xs[0]) and all(len(r) == len(ys[0]) for r in got)


@pytest.mark.parametrize("shape, entries", [
    ((1, 1), 1), ((2, 2), 4), ((1, 5), 5), ((5, 2), 10), ((3, 3), 0),
    ((3, 5), 0), ((3, 3, 5), 9), ((3, 3, 1), 0)])
def test_gram_sums_entries_alone_below_three_columns(monkeypatch, shape,
                                                     entries):
    """A Gram with one or two columns on a side, or whose entries land at
    more than one conductor, calls `_entry` once per entry; from 3 x 3 on
    with every entry at one conductor, none: Kronecker substitution builds
    them all.  The shape is A x B, and a third number c puts zeta_c in the
    corner ys[1][0] (zeta_8 without one).  Every entry lands at 8, but
    zeta_5 there puts the first column's entries at 40."""
    calls = []
    entry = fuscat.exactnum._entry
    monkeypatch.setattr(fuscat.exactnum, "_entry",
                        lambda terms: calls.append(1) or entry(terms))
    na, nb, corner = (*shape, 8)[:3]
    z = CycNum.zeta(8)
    weights = [ONE, CycNum(1, [2])]
    xs = [[z] * na, [ONE] * na]
    ys = [[z] * nb, [CycNum.zeta(corner)] + [z] * (nb - 1)]
    got = _gram(weights, xs, ys)
    assert len(calls) == entries
    assert _forms(got) == _forms(gram_by_dot(weights, xs, ys))


def test_no_module_under_src_defines_or_imports_dot():
    """Every sum of products in `src/` goes through `_entry`, or `_gram`
    for the eq-3.6 and eq-3.7 Grams, which only `cosets` imports; `_dot`
    lives in the tests as its oracle."""
    src = pathlib.Path(fuscat.exactnum.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert node.name != "_dot", path.name
            if isinstance(node, ast.ImportFrom):
                names = {a.name for a in node.names}
                assert "_dot" not in names, path.name
                assert "_gram" not in names or path.name == "cosets.py", \
                    path.name
            if isinstance(node, (ast.Name, ast.Attribute)):
                assert getattr(node, "id", getattr(node, "attr", "")) \
                    != "_dot", path.name


# -- the sparse integer product kernel ---------------------------------------

_BIG = 2 ** 1000


def int_vectors(n):
    """phi(n) integer numerators: zeros, small values of either sign, and
    1,000-bit ones."""
    entry = (st.just(0) | st.integers(-3, 3)
             | st.integers(-_BIG, _BIG) | st.sampled_from([_BIG, -_BIG]))
    return st.lists(entry, min_size=euler_phi(n), max_size=euler_phi(n))


_INT_MUL_CASES = st.sampled_from([1, 4, 5, 8, 15, 48, 64]).flatmap(
    lambda n: st.tuples(st.just(n), int_vectors(n), int_vectors(n)))


@given(_INT_MUL_CASES)
@example((64, [0] * 31 + [_BIG], [0] * 31 + [-_BIG]))
@example((8, [0] * 4, [1, -2, 3, _BIG]))
@settings(max_examples=150, deadline=None)
def test_int_mul_matches_the_dense_loop(case):
    """The kernel multiplies only nonzero pairs; the product it reduces is
    the one the loop over every slot of y reduces."""
    n, x, y = case
    assert _int_mul(x, y, n) == int_mul_dense(x, y, n)
    assert _int_mul(y, x, n) == int_mul_dense(y, x, n)
