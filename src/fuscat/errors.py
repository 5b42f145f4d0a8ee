"""Exception hierarchy shared across the package.

Every error carries enough context (indices, names) to point at the
offending datum; validators raise the first failure they encounter.
"""


class FuscatError(Exception):
    """Base class for all package errors."""


# -- exact arithmetic ------------------------------------------------------

class DivisionByZero(FuscatError):
    pass


class ConductorNotDivisible(FuscatError):
    """Requested re-embedding into a field that does not contain the source."""


# -- fusion rings ----------------------------------------------------------

class ValidationError(FuscatError):
    """An axiom failed.  `axiom` names it, `witness` locates the failure."""

    def __init__(self, axiom, witness=None, message=""):
        self.axiom = axiom
        self.witness = witness
        text = f"{axiom} failed"
        if witness is not None:
            text += f" at {witness}"
        if message:
            text += f": {message}"
        super().__init__(text)


class ExactDataMissing(FuscatError):
    """Operation needs exact dimensions but the ring carries none."""


class RankTooLarge(FuscatError):
    pass


# -- character tables ------------------------------------------------------

class NotAlgebraMap(FuscatError):
    def __init__(self, column, witness=None):
        self.column = column
        self.witness = witness
        super().__init__(f"column {column} is not an algebra map (witness {witness})")


class SingularTable(FuscatError):
    pass


class DegenerateSpectrum(FuscatError):
    pass


# -- cosets ----------------------------------------------------------------

class InconsistentCoset(FuscatError):
    pass


# -- S-matrices ------------------------------------------------------------

class AsymmetricS(FuscatError):
    pass


class BadFirstRow(FuscatError):
    pass


class PsiNotCharacter(FuscatError):
    def __init__(self, row, witness=None):
        self.row = row
        self.witness = witness
        super().__init__(f"s-matrix row {row} does not define a character (witness {witness})")


class NoMatchingColumn(FuscatError):
    def __init__(self, row):
        self.row = row
        super().__init__(f"s-matrix row {row} matches no character table column")


class PreconditionFailed(FuscatError):
    """A theorem's hypothesis does not hold for the given input."""

    def __init__(self, reason):
        self.reason = reason
        super().__init__(reason)


# -- catalog / cli ---------------------------------------------------------

class UnknownKey(FuscatError):
    pass


class SchemaError(FuscatError):
    """Malformed JSON input (structure, not mathematics)."""
