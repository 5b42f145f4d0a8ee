"""Built-in fusion rings with exact character tables and symmetric matrices.

Every entry is constructed from closed forms in a fixed cyclotomic field and is
fully re-validated on first access: the ring axioms, the character-table
axioms, and (when a symmetric matrix ships) the row-character conditions all
run before the entry is returned.  The validated ring, table and matrix are
built once per process; `builtin` hands out a fresh `Target` over them.
"""

from __future__ import annotations

import dataclasses
import re
from functools import lru_cache

from .chartab import validate_character_table
from .errors import UnknownKey
from .exactnum import ONE, ZERO, CycNum
from .fusion import FusionRing, deligne_product, validate_fusion_ring
from .premod import validate_smatrix
from .verify import Target

#: Keys shown by the builtin listing.  ``builtin`` additionally accepts any
#: "su2k-<k>" and "pointed-z<n>-q<c>" key and '*'-joined products of keys.
BUILTIN_KEYS = (
    "trivial",
    "svec",
    "ising",
    "fib",
    "rep-s3",
    "su2k-2",
    "su2k-3",
    "su2k-4",
    "pointed-z2-q1",
    "pointed-z3-q1",
    "pointed-z4-q1",
    "pointed-z4-q2",
    "ising*svec",
)


def _sqrt2() -> CycNum:
    z = CycNum.zeta(8)
    return z - z ** 3


def _sqrt5() -> CycNum:
    z = CycNum.zeta(5)
    return ONE + (z + z ** 4) * 2


def _entry(key, ring, table_rows, smatrix_rows) -> Target:
    table = validate_character_table(ring, table_rows)
    sm = None
    if smatrix_rows is not None:
        sm = validate_smatrix(ring, table, smatrix_rows)
    return Target(key, ring, table, sm)


def _trivial() -> Target:
    ring = validate_fusion_ring([[[1]]], (0,), names=("1",), fpdims=(ONE,))
    return _entry("trivial", ring, [[ONE]], [[ONE]])


def _group_ring(n: int, names) -> FusionRing:
    tensor = [[[1 if k == (i + j) % n else 0 for k in range(n)]
               for j in range(n)] for i in range(n)]
    dual = tuple((-i) % n for i in range(n))
    return validate_fusion_ring(tensor, dual, names=tuple(names),
                                fpdims=tuple(ONE for _ in range(n)))


def _group_table_rows(powers):
    """The character table of Z/n, n = len(powers), with powers[e] = zeta_n^e:
    entry (i, j) is powers[ij mod n]."""
    n = len(powers)
    return [[powers[(i * j) % n] for j in range(n)] for i in range(n)]


def _svec() -> Target:
    ring = _group_ring(2, ("1", "f"))
    smatrix = [[ONE, ONE], [ONE, ONE]]
    return _entry("svec", ring,
                  _group_table_rows([CycNum.zeta(2, e) for e in range(2)]),
                  smatrix)


def _ising() -> Target:
    tensor = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
        [[0, 0, 1], [0, 0, 1], [1, 1, 0]],
    ]
    r2 = _sqrt2()
    ring = validate_fusion_ring(tensor, (0, 1, 2), names=("1", "f", "s"),
                                fpdims=(ONE, ONE, r2))
    table = [
        [ONE, ONE, ONE],
        [ONE, ONE, -ONE],
        [r2, -r2, ZERO],
    ]
    smatrix = [
        [ONE, ONE, r2],
        [ONE, ONE, -r2],
        [r2, -r2, ZERO],
    ]
    return _entry("ising", ring, table, smatrix)


def _fib() -> Target:
    tensor = [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 1]],
    ]
    phi = (ONE + _sqrt5()) / 2
    ring = validate_fusion_ring(tensor, (0, 1), names=("1", "t"),
                                fpdims=(ONE, phi))
    table = [[ONE, ONE], [phi, ONE - phi]]
    smatrix = [[ONE, phi], [phi, -ONE]]
    return _entry("fib", ring, table, smatrix)


def _rep_s3() -> Target:
    tensor = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
        [[0, 0, 1], [0, 0, 1], [1, 1, 1]],
    ]
    two = CycNum.from_rational(2)
    ring = validate_fusion_ring(tensor, (0, 1, 2), names=("1", "u", "v"),
                                fpdims=(ONE, ONE, two))
    table = [
        [ONE, ONE, ONE],
        [ONE, -ONE, ONE],
        [two, ZERO, -ONE],
    ]
    dims = ring.fpdims
    smatrix = [[dims[i] * dims[j] for j in range(3)] for i in range(3)]
    return _entry("rep-s3", ring, table, smatrix)


def _su2k_tensor(k: int):
    """Truncated Clebsch-Gordan structure constants at level k."""
    rank = k + 1
    tensor = [[[0] * rank for _ in range(rank)] for _ in range(rank)]
    for i in range(rank):
        for j in range(rank):
            top = min(i + j, 2 * k - i - j)
            for l in range(abs(i - j), top + 1, 2):
                tensor[i][j][l] = 1
    return tensor


def _su2k(k: int) -> Target:
    rank = k + 1
    conductor = 4 * (k + 2)
    tensor = _su2k_tensor(k)

    def qint(m: int, b: int) -> CycNum:
        """The quantum integer [m] at q^b, q = zeta^2 of order 2(k+2):
        sum_{l<m} q^(b(m-1-2l)), one sum of powers of zeta reduced once.

        s_ij = (q^m - q^-m)/(q - q^-1), m = (i+1)(j+1), is [m] at q; and
        alpha_ij = s_ij/s_0j is [i+1] at q^(j+1), since
        [(i+1)(j+1)]_q = [i+1]_(q^(j+1)) [j+1]_q and [j+1]_q != 0 for j <= k.
        """
        coeffs = [0] * conductor
        for l in range(m):
            coeffs[2 * b * (m - 1 - 2 * l) % conductor] += 1
        return CycNum(conductor, coeffs)

    smatrix = [[qint((i + 1) * (j + 1), 1) for j in range(rank)]
               for i in range(rank)]
    dims = tuple(smatrix[0][j] for j in range(rank))
    ring = validate_fusion_ring(tensor, tuple(range(rank)),
                                names=tuple(f"X{i}" for i in range(rank)),
                                fpdims=dims)
    table = [[qint(i + 1, j + 1) for j in range(rank)] for i in range(rank)]
    return _entry(f"su2k-{k}", ring, table, smatrix)


def _pointed(n: int, c: int) -> Target:
    if n < 1:
        raise UnknownKey(f"pointed-z{n}-q{c}")
    ring = _group_ring(n, (f"a{i}" for i in range(n)))
    # each zeta^e is built once: the table and the S-matrix index into it
    powers = [CycNum.zeta(n, e) for e in range(n)]
    cc = c % n
    smatrix = [[powers[(cc * a * b) % n] for b in range(n)] for a in range(n)]
    return _entry(f"pointed-z{n}-q{c}", ring, _group_table_rows(powers),
                  smatrix)


def _product_entry(a: Target, b: Target) -> Target:
    ring = deligne_product(a.ring, b.ring)
    ra, rb = a.ring.rank, b.ring.rank
    table = [[a.table.alpha[i][j] * b.table.alpha[ip][jp]
              for j in range(ra) for jp in range(rb)]
             for i in range(ra) for ip in range(rb)]
    smatrix = None
    if a.smatrix is not None and b.smatrix is not None:
        smatrix = [[a.smatrix.s[i][j] * b.smatrix.s[ip][jp]
                    for j in range(ra) for jp in range(rb)]
                   for i in range(ra) for ip in range(rb)]
    return _entry(f"{a.label}*{b.label}", ring, table, smatrix)


_SU2K = re.compile(r"su2k-(\d+)\Z")
_POINTED = re.compile(r"pointed-z(\d+)-q(\d+)\Z")

_FIXED = {
    "trivial": _trivial,
    "svec": _svec,
    "ising": _ising,
    "fib": _fib,
    "rep-s3": _rep_s3,
}


@lru_cache(maxsize=None)
def _build(key: str) -> Target:
    """The validated entry for a catalog key, built once per process."""
    if "*" in key:
        parts = key.split("*")
        if any(not p for p in parts):
            raise UnknownKey(key)
        entry = _build(parts[0])
        for part in parts[1:]:
            entry = _product_entry(entry, _build(part))
        return entry
    if key in _FIXED:
        return _FIXED[key]()
    m = _SU2K.match(key)
    if m:
        return _su2k(int(m.group(1)))
    m = _POINTED.match(key)
    if m:
        return _pointed(int(m.group(1)), int(m.group(2)))
    raise UnknownKey(key)


def builtin(key: str) -> Target:
    """Return a new `Target` labelled `key`, with an empty memo, over the
    validated ring, table and matrix that every call for `key` shares.

    Accepts the fixed keys, the parametric families "su2k-<k>" and
    "pointed-z<n>-q<c>", and '*'-joined products of other keys.
    """
    return dataclasses.replace(_build(key))


def product(a: str, b: str) -> Target:
    """Validated entrywise product of two catalog entries, keyed "a*b"."""
    return builtin(f"{a}*{b}")


def entry_summary(target: Target) -> dict:
    """Plain-data line for the builtin listing.  The class is "modular",
    "symmetric" or "degenerate" by the size of the Müger center, and
    "no-smatrix" when the target carries no symmetric matrix."""
    center_size, cls = 0, "no-smatrix"
    if target.smatrix is not None:
        center_size = len(target.center)
        cls = ("modular" if center_size == 1 else
               "symmetric" if center_size == target.ring.rank else
               "degenerate")
    return {
        "key": target.label,
        "rank": target.ring.rank,
        "fpdim": float(target.global_dim.embed_complex().real),
        "center_size": center_size,
        "class": cls,
    }
