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


def _integrality(check_id: str, params: dict, value: CycNum) -> CheckRecord:
    """The verdict that `value` is an algebraic integer; when it is, the
    detail names its minimal polynomial."""
    ok = is_algebraic_integer(value)
    return CheckRecord(id=check_id, params=params, lhs=value,
                       rhs="algebraic integer", passed=ok,
                       detail=f"min poly {integrality_witness(value)}" if ok else "")
