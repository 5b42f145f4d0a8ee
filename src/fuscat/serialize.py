"""JSON (de)serialization for rings, exact scalars, and report values.

Documents are plain JSON objects:

    {"rank": int, "names": [str], "tensor": [[[int]]], "dual": [int],
     "conductor": int, "fpdims"?: [scalar], "smatrix"?: [[scalar]],
     "char_table"?: [[scalar]]}

where a scalar is {"conductor": N, "coeffs": [[num, den], ...]} with exactly
phi(N) coefficient pairs.  Parsing raises SchemaError on structural problems;
mathematical problems surface through the ordinary validators afterwards.
"""

from __future__ import annotations

import cmath
import json
import marshal
from math import gcd, lcm

from .chartab import CharacterTable, validate_character_table
from .errors import SchemaError
from .exactnum import CycNum, euler_phi
from .fusion import FusionRing, _dense, validate_fusion_ring
from .premod import SMatrix, validate_smatrix


def cycnum_to_json(a: CycNum) -> dict:
    """Each coefficient as a reduced [num, den] pair; zero is [0, 1]."""
    den = a._den
    coeffs = []
    for x in a._nums:
        g = gcd(x, den)
        coeffs.append([x // g, den // g])
    return {"conductor": a.conductor, "coeffs": coeffs}


_SCALAR_KEYS = frozenset({"conductor", "coeffs", "approx"})


def cycnum_from_json(obj, memo: dict | None = None) -> CycNum:
    """The scalar a document object writes; SchemaError names its first
    structural fault.

    `memo`, when given, maps `marshal.dumps(obj, 2)` of each scalar object
    parsed so far to its value, and is looked up before any check, so a
    repeated scalar is read from it with nothing checked again.  The key is
    exact.  Format version 2 writes no back-references (version 3 added
    them), so the bytes do not depend on which objects are shared: at
    version 4 `marshal.dumps([x, x], 4) != marshal.dumps([[1, 2], [1, 2]],
    4)`, at version 2 the two are equal.  Marshal writes only the exact
    built-in types, each under its own type code (bool, int and float
    apart, so True == 1 == 1.0 do not collide), and a dict in its order.
    So equal bytes load back to equal objects of the same exact types and
    the same key order, and the checks, which read only those, give them
    the same verdict: a hit is an object that passed every check, and a
    value is stored only once they pass.  An object marshal cannot write
    (an int subclass, nesting past marshal's depth limit, any other type)
    raises ValueError, has no key and skips the memo."""
    key = None
    if memo is not None:
        try:
            key = marshal.dumps(obj, 2)
        except ValueError:
            pass
        else:
            if key in memo:
                return memo[key]
    if not isinstance(obj, dict):
        raise SchemaError(f"scalar must be an object, got {type(obj).__name__}")
    if not obj.keys() <= _SCALAR_KEYS:
        raise SchemaError(
            f"unexpected scalar keys {sorted(obj.keys() - _SCALAR_KEYS)}")
    n = obj.get("conductor")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SchemaError("scalar conductor must be a positive integer")
    coeffs = obj.get("coeffs")
    count = len(coeffs) if isinstance(coeffs, list) else 0
    # phi(n) >= sqrt(n/2) for every n, so phi(n) > count when n > 2 count^2;
    # refusing those first keeps euler_phi's trial division to sqrt(n) away
    # from a hostile conductor
    if n > 2 * count * count:
        raise SchemaError(
            f"scalar of conductor {n} needs more than {count} coefficients")
    if not isinstance(coeffs, list) or count != euler_phi(n):
        raise SchemaError(
            f"scalar of conductor {n} needs exactly {euler_phi(n)} coefficients")
    for pair in coeffs:
        if (not isinstance(pair, list) or len(pair) != 2
                or not isinstance(pair[0], int) or isinstance(pair[0], bool)
                or not isinstance(pair[1], int) or isinstance(pair[1], bool)):
            raise SchemaError("coefficients must be [numerator, denominator] "
                              "integer pairs")
        if pair[1] == 0:
            raise SchemaError("zero denominator in coefficient")
    # num/den == num * (den_lcm // den) / den_lcm, also for a negative den
    den_lcm = lcm(*(den for _, den in coeffs))
    nums = [num * (den_lcm // den) for num, den in coeffs]
    value = CycNum._from_ints(n, nums, den_lcm)
    if key is not None:
        memo[key] = value
    return value


def advisory_complex(value: CycNum) -> complex | None:
    """The float embedding shown beside an exact value, or None when the
    value has none (a coefficient or the sum beyond the float range).  It is
    display only and never decides an outcome."""
    try:
        z = value.embed_complex()
    except OverflowError:
        return None
    return z if cmath.isfinite(z) else None


def value_to_json(value, approx: bool = True):
    """Report-value serialization: exact object plus an advisory float."""
    if isinstance(value, CycNum):
        out = cycnum_to_json(value)
        z = advisory_complex(value) if approx else None
        if z is not None:
            out["approx"] = [z.real, z.imag]
        return out
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [value_to_json(v, approx) for v in value]
    raise SchemaError(f"cannot serialize value of type {type(value).__name__}")


def to_document(ring: FusionRing, table: CharacterTable | None = None,
                smatrix: SMatrix | None = None) -> dict:
    """JSON-ready document for a ring and its optional exact companions."""
    scalars = list(ring.fpdims or ())
    if table is not None:
        scalars.extend(v for row in table.alpha for v in row)
    if smatrix is not None:
        scalars.extend(v for row in smatrix.s for v in row)
    conductor = lcm(1, *(v.conductor for v in scalars)) if scalars else 1
    doc = {
        "rank": ring.rank,
        "names": list(ring.names),
        "tensor": _dense(ring),
        "dual": list(ring.dual),
        "conductor": conductor,
    }
    if ring.fpdims is not None:
        doc["fpdims"] = [cycnum_to_json(d) for d in ring.fpdims]
    if table is not None:
        doc["char_table"] = [[cycnum_to_json(v) for v in row]
                             for row in table.alpha]
    if smatrix is not None:
        doc["smatrix"] = [[cycnum_to_json(v) for v in row]
                          for row in smatrix.s]
    return doc


def _require(obj, key, kind, rank=None):
    if key not in obj:
        raise SchemaError(f"missing required field '{key}'")
    value = obj[key]
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise SchemaError(f"field '{key}' must be an integer")
    elif not isinstance(value, kind):
        raise SchemaError(f"field '{key}' must be a {kind.__name__}")
    if rank is not None and len(value) != rank:
        raise SchemaError(f"field '{key}' must have length {rank}")
    return value


def _scalar(value, key, conductor, memo) -> CycNum:
    """One scalar of field `key`, whose conductor must divide the document's."""
    c = cycnum_from_json(value, memo)
    if conductor % c.conductor:
        raise SchemaError(
            f"scalar conductor {c.conductor} in '{key}' does not "
            f"divide the document conductor {conductor}")
    return c


def _scalar_matrix(obj, key, rank, conductor, memo):
    rows = obj[key]
    if not isinstance(rows, list) or len(rows) != rank:
        raise SchemaError(f"field '{key}' must be a {rank} x {rank} matrix")
    out = []
    for row in rows:
        if not isinstance(row, list) or len(row) != rank:
            raise SchemaError(f"field '{key}' must be a {rank} x {rank} matrix")
        out.append([_scalar(v, key, conductor, memo) for v in row])
    return out


def from_document(obj):
    """Parse and validate a document.

    Returns (ring, table or None, smatrix or None).  Structural problems
    raise SchemaError; mathematical ones raise the validators' errors.
    """
    if not isinstance(obj, dict):
        raise SchemaError("document must be a JSON object")
    allowed = {"rank", "names", "tensor", "dual", "conductor",
               "fpdims", "smatrix", "char_table"}
    extra = set(obj) - allowed
    if extra:
        raise SchemaError(f"unexpected fields {sorted(extra)}")

    rank = _require(obj, "rank", int)
    if rank < 1:
        raise SchemaError("rank must be at least 1")
    names = _require(obj, "names", list, rank)
    if not all(isinstance(s, str) for s in names):
        raise SchemaError("names must be strings")
    conductor = _require(obj, "conductor", int)
    if conductor < 1:
        raise SchemaError("conductor must be a positive integer")

    tensor = _require(obj, "tensor", list, rank)
    for plane in tensor:
        if not isinstance(plane, list) or len(plane) != rank:
            raise SchemaError("tensor must be rank x rank x rank")
        for row in plane:
            if not isinstance(row, list) or len(row) != rank:
                raise SchemaError("tensor must be rank x rank x rank")
            if not set(map(type, row)) <= {int}:
                for v in row:
                    if not isinstance(v, int) or isinstance(v, bool):
                        raise SchemaError("tensor entries must be integers")

    dual = _require(obj, "dual", list, rank)
    for v in dual:
        if not isinstance(v, int) or isinstance(v, bool):
            raise SchemaError("dual entries must be integers")
        if not 0 <= v < rank:
            raise SchemaError(f"dual index {v} out of range")

    # each distinct scalar is parsed once; the memo goes when this returns
    memo = {}
    fpdims = None
    if obj.get("fpdims") is not None:
        fpdims = tuple(_scalar(v, "fpdims", conductor, memo)
                       for v in _require(obj, "fpdims", list, rank))

    table_rows = None
    if obj.get("char_table") is not None:
        table_rows = _scalar_matrix(obj, "char_table", rank, conductor, memo)
    smatrix_rows = None
    if obj.get("smatrix") is not None:
        smatrix_rows = _scalar_matrix(obj, "smatrix", rank, conductor, memo)
    if smatrix_rows is not None and table_rows is None:
        raise SchemaError("an smatrix requires a char_table to check its "
                          "rows against")

    ring = validate_fusion_ring(tensor, tuple(dual), names=tuple(names),
                                fpdims=fpdims)
    table = None
    if table_rows is not None:
        table = validate_character_table(ring, table_rows)
    smatrix = None
    if smatrix_rows is not None:
        smatrix = validate_smatrix(ring, table, smatrix_rows)
    return ring, table, smatrix


def load_document(path: str) -> dict:
    """Read a JSON document from disk; malformed JSON raises SchemaError, as do
    bytes that are not UTF-8, an over-long integer and too deep nesting."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc


def dump_document(doc: dict) -> str:
    """Canonical rendering: sorted keys, fixed separators, trailing newline."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
