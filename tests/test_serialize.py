"""Document round-trips and schema-error reporting."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fuscat.catalog import BUILTIN_KEYS, builtin
from fuscat.errors import SchemaError, ValidationError
from fuscat.exactnum import CycNum, euler_phi
from fuscat.serialize import (cycnum_from_json, cycnum_to_json, dump_document,
                              from_document, load_document, to_document,
                              value_to_json)

from fuscat.reports import _exact_key

from rings import document_scalars_loop, fp_column, sqrt2


def test_cycnum_round_trip_preserves_conductor_and_coeffs():
    v = sqrt2() / 3
    obj = cycnum_to_json(v)
    assert obj["conductor"] == 8
    back = cycnum_from_json(json.loads(json.dumps(obj)))
    assert back == v
    assert back.conductor == v.conductor
    assert back.coeffs == v.coeffs


@pytest.mark.parametrize("key", BUILTIN_KEYS)
def test_catalog_documents_round_trip_bit_exactly(key):
    entry = builtin(key)
    doc = to_document(entry.ring, entry.table, entry.smatrix)
    text = dump_document(doc)
    ring, table, smatrix = from_document(json.loads(text))
    assert ring.nonzero == entry.ring.nonzero
    assert ring.dual == entry.ring.dual
    assert ring.names == entry.ring.names
    assert ring.fpdims == entry.ring.fpdims
    for a, b in zip(ring.fpdims, entry.ring.fpdims):
        assert a.conductor == b.conductor and a.coeffs == b.coeffs
    assert table.alpha == entry.table.alpha
    assert fp_column(ring, table) == fp_column(entry.ring, entry.table)
    assert smatrix.s == entry.smatrix.s


def test_ring_only_document():
    entry = builtin("ising")
    doc = to_document(entry.ring)
    assert "char_table" not in doc and "smatrix" not in doc
    ring, table, smatrix = from_document(doc)
    assert table is None and smatrix is None
    assert ring.fpdims == entry.ring.fpdims


def test_document_conductor_is_lcm_of_scalars():
    entry = builtin("ising*svec")
    doc = to_document(entry.ring, entry.table, entry.smatrix)
    assert doc["conductor"] == 8


def _base_doc():
    entry = builtin("svec")
    return to_document(entry.ring, entry.table, entry.smatrix)


def test_schema_rejects_non_object():
    with pytest.raises(SchemaError):
        from_document([1, 2, 3])


@pytest.mark.parametrize("entry", [True, 1.0, "1", None])
def test_schema_rejects_non_integer_tensor_entry(entry):
    doc = _base_doc()
    assert doc["tensor"][1][1][0] == 1
    doc["tensor"][1][1][0] = entry
    with pytest.raises(SchemaError, match="tensor entries must be integers"):
        from_document(doc)


def test_schema_accepts_int_subclass_tensor_entry():
    doc = _base_doc()
    doc["tensor"][1][1][0] = _Int(1)
    ring, _, _ = from_document(doc)
    assert ring.nonzero == from_document(_base_doc())[0].nonzero


def test_schema_rejects_missing_field():
    doc = _base_doc()
    del doc["dual"]
    with pytest.raises(SchemaError, match="dual"):
        from_document(doc)


def test_schema_rejects_unknown_field():
    doc = _base_doc()
    doc["twists"] = [1, 1]
    with pytest.raises(SchemaError, match="twists"):
        from_document(doc)


def test_schema_rejects_bad_rank_and_lengths():
    doc = _base_doc()
    doc["rank"] = 0
    with pytest.raises(SchemaError):
        from_document(doc)
    doc = _base_doc()
    doc["names"] = ["1"]
    with pytest.raises(SchemaError, match="names"):
        from_document(doc)


def test_schema_rejects_non_integer_tensor_entries():
    doc = _base_doc()
    doc["tensor"][0][0][0] = True
    with pytest.raises(SchemaError, match="tensor"):
        from_document(doc)
    doc = _base_doc()
    doc["tensor"][0][0][0] = 1.0
    with pytest.raises(SchemaError, match="tensor"):
        from_document(doc)


def test_schema_rejects_out_of_range_dual():
    doc = _base_doc()
    doc["dual"] = [0, 5]
    with pytest.raises(SchemaError, match="out of range"):
        from_document(doc)


def test_schema_rejects_wrong_coefficient_count():
    doc = _base_doc()
    doc["fpdims"][0]["coeffs"].append([0, 1])
    with pytest.raises(SchemaError, match="coefficients"):
        from_document(doc)


@pytest.mark.parametrize("n,coeffs,message", [
    (4, [[1, 1]], "needs more than 1 coefficients"),
    (3, [[1, 1]], "needs more than 1 coefficients"),
    (8, "x", "needs more than 0 coefficients"),
    (5, [[1, 1], [0, 1]], "needs exactly 4 coefficients"),
    (2, [[1, 1], [0, 1]], "needs exactly 1 coefficients"),
])
def test_scalar_coefficient_count_is_refused_before_phi_when_too_short(
        n, coeffs, message):
    """phi(n) >= sqrt(n/2), so c coefficients never fit a conductor above
    2 c^2; that refusal takes no trial division, and every other count
    that is not phi(n) is refused by its value."""
    with pytest.raises(SchemaError, match=message):
        cycnum_from_json({"conductor": n, "coeffs": coeffs})


def test_schema_rejects_zero_denominator():
    doc = _base_doc()
    doc["fpdims"][0]["coeffs"][0] = [1, 0]
    with pytest.raises(SchemaError, match="denominator"):
        from_document(doc)


@pytest.mark.parametrize("key", ["fpdims", "char_table", "smatrix"])
def test_schema_rejects_conductor_mismatch(key):
    doc = _base_doc()
    assert doc["conductor"] == 2
    # 1 written over Q(zeta_4), whose conductor does not divide 2
    over_4 = {"conductor": 4, "coeffs": [[1, 1], [0, 1]]}
    if key == "fpdims":
        doc[key][-1] = over_4
    else:
        doc[key][-1][-1] = over_4
    with pytest.raises(SchemaError) as exc:
        from_document(doc)
    assert str(exc.value) == (f"scalar conductor 4 in '{key}' does not "
                              "divide the document conductor 2")


def test_schema_rejects_smatrix_without_table():
    doc = _base_doc()
    del doc["char_table"]
    with pytest.raises(SchemaError, match="char_table"):
        from_document(doc)


def test_mathematical_errors_are_not_schema_errors():
    doc = _base_doc()
    # structurally fine, mathematically broken: unit row violated
    doc["tensor"][0][1] = [1, 0]
    with pytest.raises(ValidationError):
        from_document(doc)


def test_load_document_rejects_malformed_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(SchemaError, match="not valid JSON"):
        load_document(str(p))


def test_load_document_reads_canonical_dump(tmp_path):
    doc = _base_doc()
    p = tmp_path / "svec.json"
    p.write_text(dump_document(doc), encoding="utf-8")
    assert load_document(str(p)) == doc


def test_value_to_json_forms():
    v = CycNum.zeta(4)
    obj = value_to_json(v)
    assert set(obj) == {"conductor", "coeffs", "approx"}
    assert obj["approx"][1] == pytest.approx(1.0)
    assert value_to_json(v, approx=False) == cycnum_to_json(v)
    assert value_to_json([1, "x", None, (2, 3)]) == [1, "x", None, [2, 3]]
    with pytest.raises(SchemaError, match="type Fraction"):
        value_to_json(Fraction(3, 4))


def test_cycnum_from_json_rejects_junk():
    with pytest.raises(SchemaError):
        cycnum_from_json(7)
    with pytest.raises(SchemaError):
        cycnum_from_json({"conductor": -1, "coeffs": []})
    with pytest.raises(SchemaError):
        cycnum_from_json({"conductor": 4, "coeffs": [[1, 1]], "other": 0})
    with pytest.raises(SchemaError):
        cycnum_from_json({"conductor": 4, "coeffs": [[1.5, 1]]})


@pytest.mark.parametrize("coeffs,message", [
    ([[1, 1], [1.5, 1]], "integer pairs"),
    ([[1, 0], [True, 1]], "zero denominator"),
    ([[1, 1], [1, 0, 1]], "integer pairs"),
    ([[0, 1], [2, 0]], "zero denominator"),
    ([[1, 1], [1, True]], "integer pairs"),
    ([[False, 1], [1, 0]], "integer pairs"),
    ([[1, 2], (1, 1)], "integer pairs"),
    ([[1, 2], "1/2"], "integer pairs"),
    ([[1, 2], [3]], "integer pairs"),
])
def test_cycnum_from_json_reports_the_first_bad_pair(coeffs, message):
    with pytest.raises(SchemaError, match=message):
        cycnum_from_json({"conductor": 4, "coeffs": coeffs})


class _Int(int):
    pass


def test_cycnum_from_json_accepts_int_subclass_pairs():
    value = cycnum_from_json({"conductor": 4,
                              "coeffs": [[_Int(3), _Int(-6)], [1, _Int(4)]]})
    assert value == CycNum(4, [Fraction(-1, 2), Fraction(1, 4)])


@st.composite
def _scalar_objects(draw):
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 12, 15]))
    nums = st.integers(-5, 5) | st.integers(-2 ** 100, 2 ** 100)
    dens = st.integers(-12, 12).filter(bool) | st.integers(1, 2 ** 80)
    pairs = draw(st.lists(st.tuples(nums, dens).map(list),
                          min_size=euler_phi(n), max_size=euler_phi(n)))
    return {"conductor": n, "coeffs": pairs}


@given(_scalar_objects())
@settings(max_examples=200, deadline=None)
def test_cycnum_json_agrees_with_a_fraction_reference(obj):
    n = obj["conductor"]
    reference = CycNum(n, [Fraction(a, b) for a, b in obj["coeffs"]])
    value = cycnum_from_json(obj)
    assert value == reference
    assert (value.conductor, value._nums, value._den) == (
        reference.conductor, reference._nums, reference._den)
    out = cycnum_to_json(value)
    assert out == {"conductor": n,
                   "coeffs": [[c.numerator, c.denominator]
                              for c in reference.coeffs]}
    back = cycnum_from_json(json.loads(json.dumps(out)))
    assert (back.conductor, back._nums, back._den) == (
        value.conductor, value._nums, value._den)


# ---------------------------------------------------------------------------
# the memoised parse against the scalar-at-a-time oracle
# ---------------------------------------------------------------------------

PARSE_KEYS = ("svec", "ising", "fib", "rep-s3", "su2k-4", "pointed-z3-q1",
              "ising*svec")


def _nested(depth):
    value = 1
    for _ in range(depth):
        value = [value]
    return value


def _scaled(obj, k):
    return dict(obj, coeffs=[[k * num, k * den] for num, den in obj["coeffs"]])


def _set_pair(obj, slot, value):
    pairs = [list(p) for p in obj["coeffs"]]
    pairs[0][slot] = value
    return dict(obj, coeffs=pairs)


class _Int(int):
    """An int subclass: the schema accepts it, marshal cannot write it."""


def _aliased(obj):
    zero = [0, 1]
    return dict(obj, coeffs=[zero if p == [0, 1] else p for p in obj["coeffs"]])


# Each maps a valid scalar object to another.  Those that the schema accepts
# keep its value, so that the validators accept the document.
SCALAR_MUTATIONS = {
    "negated pairs": lambda o: _scaled(o, -1),
    "scaled pairs": lambda o: _scaled(o, 6),
    "past the int-to-str digit limit": lambda o: _scaled(o, 10 ** 5000),
    "approx key": lambda o: dict(o, approx=[0.0, 0.0]),
    "doubled conductor": lambda o: cycnum_to_json(
        cycnum_from_json(o).change_conductor(2 * o["conductor"])),
    "bool numerator": lambda o: _set_pair(o, 0, o["coeffs"][0][0] == 1),
    "bool denominator": lambda o: _set_pair(o, 1, True),
    "float numerator": lambda o: _set_pair(o, 0, float(o["coeffs"][0][0])),
    "float denominator": lambda o: _set_pair(o, 1, 1.0),
    "zero denominator": lambda o: _set_pair(o, 1, 0),
    "negative denominator": lambda o: dict(o, coeffs=[
        [-o["coeffs"][0][0], -o["coeffs"][0][1]]] + o["coeffs"][1:]),
    "bool conductor": lambda o: dict(o, conductor=True),
    "float conductor": lambda o: dict(o, conductor=float(o["conductor"])),
    "zero conductor": lambda o: dict(o, conductor=0),
    "extra pair": lambda o: dict(o, coeffs=o["coeffs"] + [[0, 1]]),
    "missing pair": lambda o: dict(o, coeffs=o["coeffs"][:-1]),
    "triple": lambda o: dict(o, coeffs=[o["coeffs"][0] + [1]] + o["coeffs"][1:]),
    "nested past the stack": lambda o: _set_pair(o, 0, _nested(5000)),
    "extra key": lambda o: dict(o, twist=1),
    "int-subclass numerator": lambda o: _set_pair(o, 0, _Int(o["coeffs"][0][0])),
    "keys reordered": lambda o: {"coeffs": o["coeffs"], **o},
    "aliased pairs": _aliased,
}


def _positions(doc):
    """(field, row or None, column) of every scalar, in document order."""
    out = [("fpdims", None, i) for i in range(len(doc["fpdims"]))]
    for field in ("char_table", "smatrix"):
        out += [(field, i, j) for i, row in enumerate(doc[field])
                for j in range(len(row))]
    return out


def _at(doc, where):
    field, i, j = where
    return doc[field][j] if i is None else doc[field][i][j]


def _put(doc, where, obj):
    field, i, j = where
    if i is None:
        doc[field][j] = obj
    else:
        doc[field][i][j] = obj


def _keys(values):
    return [_exact_key(v) for v in values]


def _memoised_outcome(doc):
    try:
        ring, table, smatrix = from_document(doc)
    except SchemaError as err:
        return str(err)
    return {"fpdims": _keys(ring.fpdims),
            "char_table": _keys(v for row in table.alpha for v in row),
            "smatrix": _keys(v for row in smatrix.s for v in row)}


def _oracle_outcome(doc):
    try:
        scalars = document_scalars_loop(doc)
    except SchemaError as err:
        return str(err)
    return {field: _keys(values) for field, values in scalars.items()}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_memoised_parse_gives_the_oracles_value_or_message(data):
    """Scalars mutated in place or copied over later ones, so that a
    document repeats good and bad scalars: the memoised route names the
    first bad one with the oracle's text, or reads the oracle's values."""
    entry = builtin(data.draw(st.sampled_from(PARSE_KEYS)))
    base = to_document(entry.ring, entry.table, entry.smatrix)
    doc = json.loads(dump_document(base))
    positions = _positions(doc)
    for _ in range(data.draw(st.integers(1, 4))):
        where = data.draw(st.sampled_from(positions))
        if data.draw(st.booleans()):
            how = data.draw(st.sampled_from(sorted(SCALAR_MUTATIONS)))
            _put(doc, where, SCALAR_MUTATIONS[how](_at(base, where)))
        else:
            # the scalar, as it now stands, over a later one of equal value
            same = [p for p in positions
                    if p > where and _at(base, p) == _at(base, where)]
            if same:
                _put(doc, data.draw(st.sampled_from(same)), _at(doc, where))
    assert _memoised_outcome(doc) == _oracle_outcome(doc)


@pytest.mark.parametrize("how", sorted(SCALAR_MUTATIONS))
def test_memoised_parse_matches_the_oracle_on_each_mutation(how):
    """Each mutation on the last copy of a scalar the document repeats,
    after the memo holds its valid form."""
    entry = builtin("ising")
    doc = to_document(entry.ring, entry.table, entry.smatrix)
    where = _positions(doc)[-1]
    first = _at(doc, where)
    assert sum(_at(doc, p) == first for p in _positions(doc)) > 1
    _put(doc, where, SCALAR_MUTATIONS[how](first))
    assert _memoised_outcome(doc) == _oracle_outcome(doc)


def test_bool_pair_after_the_same_int_pair_is_refused():
    """[[true, 1]] after [[1, 1]] in one document: True == 1 and the two
    hash alike, so only a type-exact key refuses the second."""
    doc = json.loads(dump_document(_base_doc()))
    one = {"conductor": 2, "coeffs": [[1, 1]]}
    assert doc["char_table"][0][0] == doc["char_table"][0][1] == one
    doc["char_table"][0][1] = {"conductor": 2, "coeffs": [[True, 1]]}
    with pytest.raises(SchemaError) as exc:
        from_document(doc)
    assert str(exc.value) == ("coefficients must be [numerator, denominator] "
                              "integer pairs")
