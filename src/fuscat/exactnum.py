"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A `CycNum` is a vector of rationals in the power basis
{1, z, ..., z^(phi(N)-1)} of Q(zeta_N), reduced modulo the N-th
cyclotomic polynomial.  The representation is canonical: two elements
over the same conductor are equal iff their coefficient tuples are
equal.  Binary operations align conductors through the lcm; there is
no automatic descent to a smaller field, so the conductor of a value
records the field it was constructed in, not the minimal one.

Integrality is read off the power basis: Z[zeta_N] is the full ring of
integers of Q(zeta_N), and {1, z, ..., z^(phi(N)-1)} is a Z-basis of it
(Washington, *Introduction to Cyclotomic Fields*, Thm 2.6), so a value is
an algebraic integer iff every coefficient is an integer.  The minimal
polynomial is the product of (x - c) over the distinct Galois conjugates c.
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConductorNotDivisible, DivisionByZero

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# dense polynomial helpers, constant term first
# ---------------------------------------------------------------------------

def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _trim(out)


def _poly_divmod(num, den):
    """Long division over Q; `den` need not be monic."""
    num = [Fraction(c) for c in num]
    den = _trim([Fraction(c) for c in den])
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    q = [_ZERO] * max(len(num) - len(den) + 1, 0)
    lead = den[-1]
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1] / lead
        if c:
            q[i] = c
            for k, dk in enumerate(den):
                num[i + k] -= c * dk
    return _trim(q), _trim(num)


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [_ZERO] * (n - len(a))
    b = list(b) + [_ZERO] * (n - len(b))
    return _trim([x - y for x, y in zip(a, b)])


def _poly_ext_gcd(a, m):
    """Return (g, u) with u*a = g (mod m), g monic."""
    r0, r1 = _trim([Fraction(c) for c in a]), _trim([Fraction(c) for c in m])
    s0, s1 = [_ONE], []
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
    if not r0:
        return [], s0
    lead = r0[-1]
    return [c / lead for c in r0], [c / lead for c in s0]


def poly_eval(coeffs, x):
    """Horner evaluation; works for any type supporting * and +."""
    acc = None
    for c in reversed(list(coeffs)):
        acc = c if acc is None else acc * x + c
    return acc if acc is not None else 0 * x


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

    def is_monic(self):
        return self.coeffs[-1] == 1

    def __str__(self):
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                xk = "x" if k == 1 else f"x^{k}"
                body = xk if mag == 1 else f"{mag}*{xk}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms) if terms else "0"


def euler_phi(n: int) -> int:
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


_CYCLO_CACHE: dict[int, IntPoly] = {}
_CYCLO_LOCK = threading.RLock()  # reentrant: Phi_n recurses into its divisors


def cyclotomic_polynomial(n: int) -> IntPoly:
    """Phi_n, computed by dividing x^n - 1 by Phi_d over proper divisors d."""
    poly = _CYCLO_CACHE.get(n)
    if poly is not None:
        return poly
    with _CYCLO_LOCK:
        poly = _CYCLO_CACHE.get(n)
        if poly is not None:
            return poly
        if n < 1:
            raise ValueError("conductor must be positive")
        if n == 1:
            poly = IntPoly((-1, 1))
        else:
            num = [Fraction(-1)] + [_ZERO] * (n - 1) + [Fraction(1)]
            for d in range(1, n):
                if n % d == 0:
                    q, r = _poly_divmod(num, [Fraction(c) for c in
                                              cyclotomic_polynomial(d).coeffs])
                    assert not r, f"Phi_{d} must divide x^{n}-1"
                    num = q
            poly = IntPoly.from_fractions(num)
        assert poly.degree == euler_phi(n)
        _CYCLO_CACHE[n] = poly
        return poly


# ---------------------------------------------------------------------------
# cyclotomic numbers
# ---------------------------------------------------------------------------

def _reduce_mod_phi(coeffs, n):
    """Reduce an arbitrary-degree coefficient list mod Phi_n, pad to phi(n)."""
    deg = euler_phi(n)
    phi = cyclotomic_polynomial(n).coeffs
    p = [Fraction(c) for c in coeffs]
    for i in range(len(p) - 1, deg - 1, -1):
        c = p[i]
        if c:
            p[i] = _ZERO
            for k in range(deg):
                p[i - deg + k] -= c * phi[k]
    p = p[:deg]
    p += [_ZERO] * (deg - len(p))
    return tuple(p)


class CycNum:
    """An element of Q(zeta_N) in canonical power-basis form."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        object.__setattr__(self, "conductor", int(conductor))
        object.__setattr__(self, "coeffs", _reduce_mod_phi(coeffs, int(conductor)))

    def __setattr__(self, *a):
        raise AttributeError("CycNum is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "CycNum":
        return cls(1, (Fraction(q),))

    @classmethod
    def zeta(cls, n: int, power: int = 1) -> "CycNum":
        e = power % n
        return cls(n, (0,) * e + (1,))

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return all(not c for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(not c for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def change_conductor(self, m: int) -> "CycNum":
        """Re-embed into Q(zeta_m); requires conductor | m (no descent)."""
        n = self.conductor
        if m == n:
            return self
        if m % n != 0:
            raise ConductorNotDivisible(f"{n} does not divide {m}")
        step = m // n
        out = [_ZERO] * m
        for j, c in enumerate(self.coeffs):
            if c:
                out[(j * step) % m] += c
        return CycNum(m, out)

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
        a, b = self._aligned(self, other)
        return CycNum(a.conductor, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.conductor, [-c for c in self.coeffs])

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
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._aligned(self, other)
        return CycNum(a.conductor, _poly_mul(list(a.coeffs), list(b.coeffs)))

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        n = self.conductor
        phi = [Fraction(c) for c in cyclotomic_polynomial(n).coeffs]
        g, u = _poly_ext_gcd(list(self.coeffs), phi)
        # Phi_n is irreducible over Q, so the gcd is the constant 1.
        assert g == [_ONE], "power-basis representative shares a factor with Phi_n"
        return CycNum(n, u)

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
        out = [_ZERO] * n
        for j, c in enumerate(self.coeffs):
            if c:
                out[(j * k) % n] += c
        return CycNum(n, out)

    def conjugate(self) -> "CycNum":
        return self._galois(self.conductor - 1) if self.conductor > 1 else self

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._aligned(self, other)
        return a.coeffs == b.coeffs

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    # equality crosses conductors, so there is no consistent hash
    __hash__ = None

    def __bool__(self):
        return not self.is_zero()

    # -- numeric views --------------------------------------------------------

    def embed_complex(self) -> complex:
        n = self.conductor
        return sum(float(c) * cmath.exp(2j * math.pi * j / n)
                   for j, c in enumerate(self.coeffs))

    # -- printing --------------------------------------------------------------

    def __str__(self):
        n = self.conductor
        terms = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                body = str(c)
            else:
                zj = f"z{n}" if j == 1 else f"z{n}^{j}"
                if c == 1:
                    body = zj
                elif c == -1:
                    body = f"-{zj}"
                else:
                    body = f"{c}*{zj}"
            terms.append(body)
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    def __repr__(self):
        return f"CycNum({self.conductor}, {[str(c) for c in self.coeffs]})"


ZERO = CycNum.from_rational(0)
ONE = CycNum.from_rational(1)


# ---------------------------------------------------------------------------
# minimal polynomials and integrality
# ---------------------------------------------------------------------------

def _zeta_shift(v, phi, deg):
    """Coefficients of zeta * v, reduced; v has length deg."""
    top = v[-1]
    out = [_ZERO] + list(v[:-1])
    if top:
        for k in range(deg):
            out[k] -= top * phi[k]
    return out


def _multiplication_matrix(a: CycNum):
    n = a.conductor
    deg = euler_phi(n)
    phi = cyclotomic_polynomial(n).coeffs
    cols = []
    v = list(a.coeffs)
    for _ in range(deg):
        cols.append(list(v))
        v = _zeta_shift(v, phi, deg)
    # cols[j] = coords of a * zeta^j; return row-major matrix
    return [[cols[j][i] for j in range(deg)] for i in range(deg)]


def _charpoly(mat):
    """Faddeev-LeVerrier; returns monic coefficients, constant term first."""
    n = len(mat)
    c = [None] * (n + 1)
    c[n] = _ONE
    m_prev = None
    for k in range(1, n + 1):
        if k == 1:
            m_cur = [row[:] for row in mat]
        else:
            shifted = [row[:] for row in m_prev]
            for i in range(n):
                shifted[i][i] += c[n - k + 1]
            m_cur = [[sum(mat[i][t] * shifted[t][j] for t in range(n))
                      for j in range(n)] for i in range(n)]
        trace = sum(m_cur[i][i] for i in range(n))
        c[n - k] = -trace / k
        m_prev = m_cur
    return tuple(c)


def characteristic_polynomial(a: CycNum) -> tuple[Fraction, ...]:
    """Char poly of multiplication by a on Q(zeta_N), degree phi(N), monic.

    No verdict uses it; it is the independent route the tests compare
    `minimal_polynomial` and `is_algebraic_integer` against.
    """
    return _charpoly(_multiplication_matrix(a))


def minimal_polynomial(a: CycNum) -> tuple[Fraction, ...]:
    """Monic minimal polynomial of a over Q, constant term first.

    The roots are the distinct conjugates sigma_k(a), gcd(k, N) = 1, so the
    polynomial is their product of (x - c); its coefficients are fixed by
    the Galois group and are read back as rationals, which raises
    ValueError if the orbit was incomplete.
    """
    if a.is_rational():
        return (-a.coeffs[0], _ONE)
    n = a.conductor
    seen = set()
    poly = [ONE]
    for k in range(1, n):
        if math.gcd(k, n) != 1:
            continue
        c = a._galois(k)
        if c.coeffs in seen:
            continue
        seen.add(c.coeffs)
        # poly * (x - c)
        poly = ([-(c * poly[0])]
                + [poly[i - 1] - c * poly[i] for i in range(1, len(poly))]
                + [poly[-1]])
    return tuple(p.as_rational() for p in poly)


def is_algebraic_integer(a: CycNum) -> bool:
    """True iff a lies in Z[zeta_N], the ring of integers of Q(zeta_N).

    The power basis is a Z-basis of Z[zeta_N] (Washington, Thm 2.6), so
    this holds iff every power-basis coefficient of a is an integer.
    """
    return all(c.denominator == 1 for c in a.coeffs)


def integrality_witness(a: CycNum) -> IntPoly:
    """Minimal polynomial as an IntPoly; raises if a is not an algebraic integer.

    Integrality is decided from the power basis before the polynomial is built.
    """
    if not is_algebraic_integer(a):
        raise ValueError(f"{a} is not an algebraic integer")
    return IntPoly.from_fractions(minimal_polynomial(a))
