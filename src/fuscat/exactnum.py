"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A `CycNum` stores an element of Q(zeta_N) in the power basis
{1, z, ..., z^(phi(N)-1)} modulo the N-th cyclotomic polynomial, as phi(N)
integer numerators over one positive denominator with gcd(den, *nums) == 1
(Cohen, *A Course in Computational Algebraic Number Theory*, 4.2).  The form
is canonical: two elements over the same conductor are equal iff their
numerators and denominators are equal; `coeffs` shows it as `Fraction`s.
Binary operations align conductors through the lcm, with no descent to a
smaller field.  A product is an integer convolution reduced modulo the monic
Phi_N; a rational operand only scales the other, and an `int` operand scales
the numerators with no `CycNum` built for it.  When both operands are
rational, the sum or product is built from two integers and one two-integer
gcd, at the lcm conductor, in the same canonical form.  A sum of products
is one `_entry`, summed on integer numerators.  The Gram matrix of weighted
sums of products, sum_i w_i x_ia y_ib, of eq-3.6 or eq-3.7 is one `_gram`:
from three columns a side, with every entry at one conductor, each factor
is packed into one integer (Kronecker substitution) and each entry is
reduced modulo Phi_N once; any other Gram is one `_entry` per entry.  The
inverse of a non-rational a is P / N(a), with P the product of the
conjugates sigma_k(a), k != 1, and N(a) = a * P a nonzero rational (the
norm).

Z[zeta_N] is the ring of integers of Q(zeta_N) with Z-basis the power basis
(Washington, *Introduction to Cyclotomic Fields*, Thm 2.6), so a value is an
algebraic integer iff its denominator is 1.  The minimal polynomial is the
product of (x - c) over the distinct Galois conjugates c.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConductorNotDivisible, DivisionByZero

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _signed_sum(terms):
    """The text of a sum of (coefficient, symbol) terms, in the order given.

    Zero terms are skipped.  A term with no symbol is its coefficient's
    magnitude; a unit coefficient before a symbol is dropped.  The first term
    carries its own minus sign, and each later one is joined by " + " or
    " - ".  An empty sum is "0".  The sign and the magnitude are read off the
    text of the coefficient, so a term costs one `str` and no arithmetic.
    """
    out = ""
    for c, sym in terms:
        if c:
            text = str(c)
            neg = text[0] == "-"
            mag = text[1:] if neg else text
            sep = (" - " if neg else " + ") if out else "-" if neg else ""
            out += sep + (mag if sym is None else sym if mag == "1"
                          else f"{mag}*{sym}")
    return out or "0"


# ---------------------------------------------------------------------------
# integer polynomials and the cyclotomic tower
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial, constant term first; leading coeff nonzero.

    Serves as the integrality witness: the minimal polynomial of an
    algebraic integer is monic with integer coefficients.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs or self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @classmethod
    def from_fractions(cls, coeffs):
        out = []
        for c in coeffs:
            c = Fraction(c)
            if c.denominator != 1:
                raise ValueError(f"non-integer coefficient {c}")
            out.append(c.numerator)
        return cls(tuple(out))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __str__(self):
        return _signed_sum(
            (self.coeffs[k], None if k == 0 else "x" if k == 1 else f"x^{k}")
            for k in range(self.degree, -1, -1))


@functools.cache
def euler_phi(n: int) -> int:
    """phi(n) by trial division, kept per n: a document names a few
    conductors many times."""
    if n < 1:
        raise ValueError("conductor must be positive")
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@functools.cache
def cyclotomic_polynomial(n: int) -> IntPoly:
    """Phi_n, computed by dividing x^n - 1 by Phi_d over proper divisors d.

    x^n - 1 is the product of the monic integer Phi_d over all d | n, so each
    division is exact and leaves Phi_n, of degree n - sum_{d | n, d < n}
    phi(d) = phi(n).  The two raises below cannot fire for any n >= 1; they
    are raises, not asserts, so that ``python -O`` keeps them.
    """
    if n < 1:
        raise ValueError("conductor must be positive")
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            k = _divide(num, d)
            if any(num[:k]):
                raise ArithmeticError(f"Phi_{d} must divide x^{n}-1")
            num = num[k:]
    poly = IntPoly(tuple(num))
    if poly.degree != euler_phi(n):
        raise ArithmeticError(f"Phi_{n} must have degree phi({n})")
    return poly


@functools.cache
def _phi_tail(n):
    """phi(n) and the nonzero (k, c_k) of Phi_n below its leading term."""
    phi = cyclotomic_polynomial(n).coeffs
    return len(phi) - 1, tuple((k, c) for k, c in enumerate(phi[:-1]) if c)


@functools.cache
def _zero_tail(n):
    """The phi(n) - 1 zero numerators that follow a rational's first one."""
    return (0,) * (_phi_tail(n)[0] - 1)


def _divide(p, n):
    """Divide the coefficient list p by the monic Phi_n in place, so that
    p[:deg] is the remainder and p[deg:] the quotient; return deg = phi(n)."""
    deg, tail = _phi_tail(n)
    for i in range(len(p) - 1, deg - 1, -1):
        c = p[i]
        if c:
            for k, t in tail:
                p[i - deg + k] -= c * t
    return deg


def _reduce(p, n):
    """p modulo Phi_n, as phi(n) integers."""
    deg = _divide(p, n)
    return p[:deg] + [0] * (deg - len(p))


def _int_mul(x, y, n):
    """Product of two integer vectors over conductor n, reduced mod Phi_n.

    Only nonzero pairs are multiplied: y's nonzero (j, y_j) are listed once
    and each nonzero x_i meets just those.  Below conductor 3, phi(n) = 1:
    the product of two constants, with nothing to reduce."""
    if n < 3:
        return [x[0] * y[0]]
    ys = [(j, yj) for j, yj in enumerate(y) if yj]
    out = [0] * (len(x) + len(y) - 1)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in ys:
                out[i + j] += xi * yj
    return _reduce(out, n)


def _spread(nums, step, m):
    """sum_j nums[j] zeta_m^(j*step), reduced mod Phi_m."""
    out = [0] * m
    for j, x in enumerate(nums):
        if x:
            out[j * step % m] += x
    return _reduce(out, m)


@functools.cache
def _roots(n):
    """exp(2 pi i j/n) for j < phi(n), the floats `embed_complex` weights."""
    return tuple(cmath.exp(2j * math.pi * j / n)
                 for j in range(_phi_tail(n)[0]))


@functools.cache
def _cos_table(n, q):
    """(C, E): integers C_j, j < phi(n), with |C_j - 2^q cos(2 pi j/n)| < E.

    Errors are in units of 2^-q.  P ~ 2^q pi is Machin's 16 atan(1/5) -
    4 atan(1/239), each atan(1/x) an alternating series of K floor-divided
    terms, each off by < 3, with a tail < 2; so e_pi = 16 (3 K_5 + 2) +
    4 (3 K_239 + 2).  The angle, folded to pi a/n with a/n <= 1/2 (cos is
    even and cos t = -cos(pi - t)), is floor(P a/n), within e_pi/2 + 1, and
    cos is 1-Lipschitz.  Its M Taylor terms (x^2 < 5/2) are each off by
    < 3/2, with a tail < 3/2; so E = e_pi//2 + 2M + 4.
    """
    p = ep = 0
    for x, w in ((5, 16), (239, -4)):
        power, k = (1 << q) // x, 0
        while power:
            p += (-w if k & 1 else w) * (power // (2 * k + 1))
            power //= x * x
            k += 1
        ep += abs(w) * (3 * k + 2)
    out, terms = [], 0
    for j in range(_phi_tail(n)[0]):
        a, sign = 2 * min(j, n - j), 1
        if 2 * a > n:
            a, sign = n - a, -1
        x2 = (p * a // n) ** 2 >> q
        term = total = 1 << q
        i = 0
        while term:
            i += 2
            term = term * x2 // ((i - 1) * i << q)
            total += -term if i & 2 else term
        out.append(sign * total)
        terms = max(terms, i // 2)
    return tuple(out), ep // 2 + 2 * terms + 4


# ---------------------------------------------------------------------------
# cyclotomic numbers
# ---------------------------------------------------------------------------

class CycNum:
    """An element of Q(zeta_N) in canonical power-basis form.

    Immutable by contract: only the two normalizers, `_from_ints` and
    `_rational`, write the slots, and a test checks `src/` for that."""

    __slots__ = ("conductor", "_nums", "_den")

    def __new__(cls, conductor: int, coeffs):
        n = int(conductor)
        coeffs = [c if isinstance(c, int) else Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in coeffs))
        nums = [c.numerator * (den // c.denominator) for c in coeffs]
        return cls._from_ints(n, _reduce(nums, n), den)

    @classmethod
    def _from_ints(cls, n, nums, den):
        """Normalize phi(n) integer numerators over a nonzero denominator."""
        g = math.gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = [x // g for x in nums]
            den //= g
        obj = object.__new__(cls)
        obj.conductor, obj._nums, obj._den = n, tuple(nums), den
        return obj

    @classmethod
    def _rational(cls, n, num, den):
        """num/den over conductor n, normalized by one two-integer gcd."""
        g = math.gcd(num, den)
        if den < 0:
            g = -g
        if g != 1:
            num //= g
            den //= g
        obj = object.__new__(cls)
        obj.conductor, obj._nums, obj._den = n, (num,) + _zero_tail(n), den
        return obj

    def __reduce__(self):
        return CycNum._from_ints, (self.conductor, self._nums, self._den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "CycNum":
        if not isinstance(q, int):
            q = Fraction(q)
        return cls._rational(1, q.numerator, q.denominator)

    @classmethod
    def zeta(cls, n: int, power: int = 1) -> "CycNum":
        e = power % n
        return cls(n, (0,) * e + (1,))

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(x, den) for x in self._nums)

    def is_zero(self) -> bool:
        return not any(self._nums)

    def is_rational(self) -> bool:
        return not any(self._nums[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self._nums[0], self._den)

    def change_conductor(self, m: int) -> "CycNum":
        """Re-embed into Q(zeta_m); requires conductor | m (no descent)."""
        n = self.conductor
        if m == n:
            return self
        if m % n != 0:
            raise ConductorNotDivisible(f"{n} does not divide {m}")
        if self.is_rational():
            return CycNum._rational(m, self._nums[0], self._den)
        return CycNum._from_ints(m, _spread(self._nums, m // n, m), self._den)

    @staticmethod
    def _aligned(a: "CycNum", b: "CycNum"):
        if a.conductor == b.conductor:
            return a, b
        m = math.lcm(a.conductor, b.conductor)
        return a.change_conductor(m), b.change_conductor(m)

    @classmethod
    def _coerce(cls, x):
        if isinstance(x, CycNum):
            return x
        if isinstance(x, (int, Fraction)):
            return cls.from_rational(x)
        return None

    # -- field operations ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_rational() and other.is_rational():
            da, db = self._den, other._den
            return CycNum._rational(math.lcm(self.conductor, other.conductor),
                                    self._nums[0] * db + other._nums[0] * da,
                                    da * db)
        a, b = self._aligned(self, other)
        da, db = a._den, b._den
        return CycNum._from_ints(
            a.conductor, [x * db + y * da for x, y in zip(a._nums, b._nums)],
            da * db)

    __radd__ = __add__

    def __neg__(self):
        return CycNum._from_ints(self.conductor, [-x for x in self._nums],
                                 self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if type(other) is int:
            # an integer scales the numerators; no CycNum is built for it
            if other == 1:
                return self
            return CycNum._from_ints(self.conductor,
                                     [other * x for x in self._nums], self._den)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self, other
        if not a.is_rational():
            if not b.is_rational():
                a, b = self._aligned(a, b)
                return CycNum._from_ints(a.conductor, _int_mul(
                    a._nums, b._nums, a.conductor), a._den * b._den)
            a, b = b, a
        # a is rational: it scales b, in the field of the lcm
        n, q = math.lcm(a.conductor, b.conductor), a._nums[0]
        if b.is_rational():
            return CycNum._rational(n, q * b._nums[0], a._den * b._den)
        b = b.change_conductor(n)
        return CycNum._from_ints(n, [q * x for x in b._nums], a._den * b._den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        n, nums, den = self.conductor, self._nums, self._den
        if self.is_rational():
            return CycNum._rational(n, den, nums[0])
        # a = A/den; P = prod_{k != 1} sigma_k(A), and A*P = N(A) is rational
        cofactor = [1]
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                cofactor = _int_mul(cofactor, _spread(nums, k, n), n)
        norm = _int_mul(nums, cofactor, n)
        if any(norm[1:]) or not norm[0]:
            raise ArithmeticError(f"norm of {self} is not a nonzero rational")
        return CycNum._from_ints(n, [den * x for x in cofactor], norm[0])

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by zero")
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = CycNum.from_rational(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def _galois(self, k: int) -> "CycNum":
        n = self.conductor
        if math.gcd(k, n) != 1:
            raise ValueError(f"zeta -> zeta^{k} is not a field map for conductor {n}")
        return CycNum._from_ints(n, _spread(self._nums, k, n), self._den)

    def conjugate(self) -> "CycNum":
        return self._galois(self.conductor - 1) if self.conductor > 1 else self

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        """Equality of field elements.  Values are normalized, so at one
        conductor they are equal iff their numerators and denominators are.
        A value with a nonzero coefficient past the first is irrational at
        every conductor, so a rational is compared with a rational only, by
        cross-multiplying, with no `CycNum` built.  Two irrationals at
        different conductors are re-embedded at the lcm by `_aligned` and
        compared there."""
        nums, den = self._nums, self._den
        if not isinstance(other, CycNum):
            if isinstance(other, (int, Fraction)):
                return (not any(nums[1:]) and
                        nums[0] * other.denominator == other.numerator * den)
            return NotImplemented
        on, od = other._nums, other._den
        if self.conductor == other.conductor:
            return den == od and nums == on
        if not any(nums[1:]) or not any(on[1:]):
            return (not any(nums[1:]) and not any(on[1:])
                    and nums[0] * od == on[0] * den)
        a, b = CycNum._aligned(self, other)
        return a._den == b._den and a._nums == b._nums

    # equality crosses conductors, so there is no consistent hash
    __hash__ = None

    def __bool__(self):
        return not self.is_zero()

    def is_positive(self) -> bool:
        """Whether this is a positive real, decided in integers only.

        A non-rational real is sum_j a_j cos(2 pi j/N) / den, and nonzero.
        At q bits S = sum_j a_j C_j (see `_cos_table`) lies within
        E(q) sum_j |a_j| of 2^q den times it, so past that bound S has its
        sign; q doubles from 64 until then, which ends as E(q) is O(q).
        """
        if self != self.conjugate():
            return False
        if self.is_rational():
            return self._nums[0] > 0
        q = 64
        while True:
            cosines, err = _cos_table(self.conductor, q)
            s = sum(x * c for x, c in zip(self._nums, cosines))
            if abs(s) > err * sum(map(abs, self._nums)):
                return s > 0
            q *= 2

    # -- numeric views --------------------------------------------------------

    def embed_complex(self) -> complex:
        # int / int is correctly rounded, so each term equals float(coeffs[j])
        den = self._den
        return sum((x / den) * z
                   for x, z in zip(self._nums, _roots(self.conductor)))

    # -- printing --------------------------------------------------------------

    def __str__(self):
        z, den = f"z{self.conductor}", self._den
        return _signed_sum(
            (Fraction(x, den), None if j == 0 else z if j == 1 else f"{z}^{j}")
            for j, x in enumerate(self._nums) if x)

    def __repr__(self):
        return f"CycNum({self.conductor}, {[str(c) for c in self.coeffs]})"


ZERO = CycNum.from_rational(0)
ONE = CycNum.from_rational(1)


# ---------------------------------------------------------------------------
# integer numerators
# ---------------------------------------------------------------------------

def _numerators(values):
    """(m, den, nums): the values over their lcm conductor m and one common
    denominator den, values[i] = nums[i] / den with nums[i] phi(m) integers;
    no `CycNum` is built."""
    m = math.lcm(*(v.conductor for v in values))
    den = math.lcm(*(v._den for v in values))
    nums = []
    for v in values:
        n, scale = v.conductor, den // v._den
        vec = v._nums if n == m else _spread(v._nums, m // n, m)
        nums.append([scale * x for x in vec])
    return m, den, nums


def _at(v, m, d):
    """d / den times the numerators of the `CycNum` v = nums / den,
    re-embedded at m: one int when v is rational, else phi(m) ints."""
    nums, s = v._nums, d // v._den
    if not any(nums[1:]):
        return s * nums[0]
    if v.conductor != m:
        nums = _spread(nums, m // v.conductor, m)
    return nums if s == 1 else [s * x for x in nums]


def _top(vecs):
    """The largest absolute numerator of `_at`'s outputs `vecs`."""
    return max([abs(v) if type(v) is int else max(map(abs, v)) for v in vecs])


def _pack(vec, bits):
    """sum_j vec[j] 2^(bits j); an int stands for itself."""
    if type(vec) is int:
        return vec
    p = 0
    for x in reversed(vec):
        p = (p << bits) + x
    return p


def _gram(weights, xs, ys):
    """The weighted Gram matrix G[a][b] = sum_i w_i x_ia y_ib of the
    `CycNum`s w_i = weights[i], x_ia = xs[i][a] and y_ib = ys[i][b]: the
    block sums of eq-3.6 and eq-3.7.  G[a][b] is at the lcm of the
    conductors of the factors of its terms, zero values included: the
    value, conductor and canonical form of the loop
    ``ZERO + w_0 x_0a y_0b + ...``, where each operation lands at the lcm
    of its operands' conductors.

    A Gram with one or two columns on a side sums each entry on its own
    (`_entry`), as nothing packed would be reused enough to pay for the
    packing: on the eq-3.6 and eq-3.7 Grams of the verify workloads,
    Kronecker substitution takes 1.3 to 1.7 times as long as the entry
    sums at 2 x 2, 0.8 to 1.05 times at 3 x 3 and 0.25 to 0.7 times from
    4 x 4 on.  So does a Gram whose entries land at more than one
    conductor, which only a document with scalars at different conductors
    can give.  A larger Gram whose entries all land at one conductor M is
    computed on integers by Kronecker substitution (von zur Gathen and
    Gerhard, *Modern Computer Algebra*, 8.4).  The weights, the xs and the
    ys are each put over one common denominator, so that each factor is an
    integer vector of phi = phi(M) numerators at M, or one integer when it
    is rational (`_at`).  Each is packed once as the integer
    P(v) = sum_j v_j 2^(B j), each product P(w_i) P(x_ia) is formed once
    per (i, a), and the entry is S = sum_i P(w_i) P(x_ia) P(y_ib).
    Evaluation at 2^B is a ring map Z[t] -> Z, so S = Q(2^B), where
    Q = sum_i w_i(t) x_ia(t) y_ib(t) has degree at most 3 phi - 3.

    Exactness.  The coefficient of t^k in Q sums at most n phi^2 products
    of three numerators (n rows; the exponents of two factors fix the
    third's), so |Q_k| <= n phi^2 |w| |x| |y|, each |.| the largest
    absolute numerator of its role.  B is the bit length of that bound plus
    a sign bit, rounded up to whole bytes, so |Q_k| < 2^(B - 1).  Q's
    3 phi - 2 coefficients are then the signed base-2^B digits of S: the
    bytes of S + sum_k 2^(B - 1) 2^(B k) hold Q_k + 2^(B - 1), in
    [0, 2^B), digit by digit.  Only the digits up to t = bitlen(|S|) // B
    are read: were Q_u != 0 for some u > t, the top such u would give
    |S| > 2^(B u) - 2^(B u - 1), as the digits below it are integers of
    absolute value at most 2^(B - 1) - 1 and sum to less than
    (2^(B - 1) - 1) 2^(B u) / (2^B - 1) < 2^(B u - 1) in absolute value;
    so bitlen(|S|) >= B u.  In particular |S| < 2^(B - 1) leaves Q = S, a
    rational entry, built with no digit read (every entry when each factor
    is rational; the shortcut takes a quarter off the kernel's time on the
    verify workloads' Grams).  Q mod Phi_M over the product of the three
    denominators is the entry, and `CycNum._from_ints` divides by the gcd,
    so any common denominator gives the canonical form.
    """
    lcm, mul = math.lcm, operator.mul
    cols_x, cols_y = list(zip(*xs)), list(zip(*ys))
    ms = ()
    if min(len(cols_x), len(cols_y)) >= 3:
        cw = lcm(*map(_CONDUCTOR, weights))
        cx = {lcm(cw, *map(_CONDUCTOR, col)) for col in cols_x}
        cy = {lcm(*map(_CONDUCTOR, col)) for col in cols_y}
        ms = {lcm(c, e) for c in cx for e in cy}
    if len(ms) != 1:
        return [[_entry(list(zip(weights, x, y))) for y in cols_y]
                for x in cols_x]
    (m,) = ms
    dw = lcm(*map(_DEN, weights))
    dx = lcm(*map(_DEN, _flat(cols_x)))
    dy = lcm(*map(_DEN, _flat(cols_y)))
    den = dw * dx * dy
    wv = [_at(w, m, dw) for w in weights]
    xv = [[_at(v, m, dx) for v in col] for col in cols_x]
    yv = [[_at(v, m, dy) for v in col] for col in cols_y]
    phi = _phi_tail(m)[0]
    bound = len(wv) * phi * phi * _top(wv) * _top(_flat(xv)) * _top(_flat(yv))
    step = (bound.bit_length() + 8) // 8
    bits, digits = 8 * step, 3 * phi - 2
    half = 1 << (bits - 1)
    wv = [_pack(v, bits) for v in wv]
    wx = [list(map(mul, wv, [_pack(v, bits) for v in col])) for col in xv]
    yv = [[_pack(v, bits) for v in col] for col in yv]
    out = [[None] * len(yv) for _ in wx]
    for a, row in enumerate(wx):
        for b, col in enumerate(yv):
            s = sum(map(mul, row, col))
            if -half < s < half:
                out[a][b] = CycNum._rational(m, s, den)
                continue
            raw = (s + _offset(step, digits)).to_bytes(step * digits, "little")
            top = step * (abs(s).bit_length() // bits + 1)
            nums = [int.from_bytes(raw[k:k + step], "little") - half
                    for k in range(0, top, step)]
            out[a][b] = CycNum._from_ints(m, _reduce(nums, m), den)
    return out


def _entry(terms):
    """The sum over `terms` of the product of each term's factors, `int`s
    or `CycNum`s, at the lcm m of the conductors of every `CycNum` factor
    (1 for none, so the empty sum is 0 at conductor 1): the value,
    conductor and canonical form of the loop ``ZERO + a*b*... + ...``.  It
    is each entry of a small or mixed-conductor `_gram`, each codegree
    (`chartab`) and each sum of squared dimensions (`fusion.sub_fpdim`).

    The sum is built on integer numerators over one running denominator.
    Rational factors and ints scale a term; the other factors multiply at m
    through `_int_mul`.  A term with a zero rational factor adds nothing
    but its conductors."""
    m = math.lcm(*[f.conductor for t in terms for f in t if type(f) is not int])
    acc, den = [0] * _phi_tail(m)[0], 1
    for term in terms:
        num, d, vec = 1, 1, None
        for f in term:
            if type(f) is int:
                num *= f
                continue
            nums = f._nums
            d *= f._den
            if not any(nums[1:]):
                num *= nums[0]
                continue
            if f.conductor != m:
                nums = _spread(nums, m // f.conductor, m)
            vec = nums if vec is None else _int_mul(vec, nums, m)
        if not num:
            continue
        if den % d:
            common = math.lcm(den, d)
            acc = [x * (common // den) for x in acc]
            den = common
        num *= den // d
        if vec is None:
            acc[0] += num
        else:
            acc = [x + num * y for x, y in zip(acc, vec)]
    return CycNum._from_ints(m, acc, den)


_CONDUCTOR = operator.attrgetter("conductor")
_DEN = operator.attrgetter("_den")
_flat = itertools.chain.from_iterable


@functools.cache
def _offset(step, digits):
    """sum_k 2^(8 step - 1) 2^(8 step k) over k < digits."""
    return int.from_bytes((bytes(step - 1) + b"\x80") * digits, "little")


# ---------------------------------------------------------------------------
# minimal polynomials and integrality
# ---------------------------------------------------------------------------

def minimal_polynomial(a: CycNum) -> tuple[Fraction, ...]:
    """Monic minimal polynomial of a over Q, constant term first.

    The roots are the distinct conjugates sigma_k(a), gcd(k, N) = 1, so the
    polynomial is their product of (x - c); its coefficients are fixed by
    the Galois group and are read back as rationals, which raises
    ValueError if the orbit was incomplete.
    """
    if a.is_rational():
        return (-a.as_rational(), _ONE)
    n = a.conductor
    seen = set()
    poly = [ONE]
    for k in range(1, n):
        if math.gcd(k, n) != 1:
            continue
        c = a._galois(k)
        key = (c._nums, c._den)
        if key in seen:
            continue
        seen.add(key)
        # poly * (x - c)
        poly = ([-(c * poly[0])]
                + [poly[i - 1] - c * poly[i] for i in range(1, len(poly))]
                + [poly[-1]])
    return tuple(p.as_rational() for p in poly)


def characteristic_polynomial(a: CycNum) -> tuple[Fraction, ...]:
    """Char poly of multiplication by a on Q(zeta_N), monic, constant first.

    It is the product of (x - sigma(a)) over the phi(N) embeddings sigma of
    Q(zeta_N) into C; each conjugate of a is sigma(a) for phi(N)/deg of
    them, so it is `minimal_polynomial(a)` to that power."""
    m = minimal_polynomial(a)
    p = [_ONE]
    for _ in range(euler_phi(a.conductor) // (len(m) - 1)):
        q = [_ZERO] * (len(p) + len(m) - 1)
        for i, x in enumerate(p):
            for j, y in enumerate(m):
                q[i + j] += x * y
        p = q
    return tuple(p)


def is_algebraic_integer(a: CycNum) -> bool:
    """True iff a lies in Z[zeta_N], the ring of integers of Q(zeta_N).

    The power basis is a Z-basis of Z[zeta_N] (Washington, Thm 2.6), so
    this holds iff every coefficient is an integer: iff the denominator is 1.
    """
    return a._den == 1


def integrality_witness(a: CycNum) -> IntPoly:
    """Minimal polynomial as an IntPoly; raises if a is not an algebraic integer.

    Integrality is decided from the power basis before the polynomial is built.
    """
    if not is_algebraic_integer(a):
        raise ValueError(f"{a} is not an algebraic integer")
    return IntPoly.from_fractions(minimal_polynomial(a))
