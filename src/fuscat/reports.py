"""Check records: the one record type every check builds and every report
holds, and the builder of the integrality verdicts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .exactnum import CycNum, integrality_witness, is_algebraic_integer


@dataclass(frozen=True)
class CheckRecord:
    """One executed or skipped check instance.

    `id` is the stable identifier used by the command line interface,
    `params` locates the instance (subcategory, indices) in JSON-native
    values, and lhs/rhs hold the two sides.  `passed` is None for a skipped
    check, whose reason is `skipped_reason`.
    """

    id: str
    params: dict
    lhs: object
    rhs: object
    passed: Optional[bool]
    skipped_reason: Optional[str] = None
    detail: str = ""


def _exact_key(value):
    """A key that two report values share only if they are written alike.

    A `CycNum` is keyed by its canonical form (conductor, numerators,
    denominator): values equal by ``==`` at different conductors are
    written differently.  Other scalars are keyed with their type, so that
    True, 1 and Fraction(1) stay apart.  The first entry tells the kinds
    apart: the conductor for a `CycNum`, `list` for a list and the type for
    a scalar."""
    if type(value) is CycNum:
        return (value.conductor, value._nums, value._den)
    if isinstance(value, (list, tuple)):
        return (list, *map(_exact_key, value))
    return (type(value), value)


def _integrality(target, check_id: str, params: dict,
                 value: CycNum) -> CheckRecord:
    """The verdict that `value` is an algebraic integer; when it is, the
    detail names its minimal polynomial.  The verdict is decided and the
    polynomial built once per exact value of the target."""

    def verdict():
        if not is_algebraic_integer(value):
            return False, ""
        return True, f"min poly {integrality_witness(value)}"

    ok, detail = target._once(("integrality", *_exact_key(value)), verdict)
    return CheckRecord(id=check_id, params=params, lhs=value,
                       rhs="algebraic integer", passed=ok, detail=detail)
