"""Exact verification of fusion-ring, character-table and S-matrix identities."""

from .exactnum import (
    CycNum,
    IntPoly,
    cyclotomic_polynomial,
    euler_phi,
    is_algebraic_integer,
    minimal_polynomial,
)

__all__ = [
    "CycNum",
    "IntPoly",
    "cyclotomic_polynomial",
    "euler_phi",
    "is_algebraic_integer",
    "minimal_polynomial",
]
