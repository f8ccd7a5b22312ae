"""Errors raised by the exact arithmetic layer, and the common base.

Every exception class cubicalg defines derives from CubicalgError, so
one except clause catches any failure the package reports on purpose.
"""


class CubicalgError(Exception):
    """Base of every error raised by cubicalg."""


class SymbolTableMismatch(CubicalgError):
    """Operands belong to different symbol tables."""


class ExactDivisionError(CubicalgError, ArithmeticError):
    """A division that must be exact failed to be exact."""


class PoleError(CubicalgError, ArithmeticError):
    """Evaluation hit a zero of a denominator factor."""


class ParseError(CubicalgError, ValueError):
    """Expression text violates the grammar or the size bounds.

    Carries the character offset of the problem.
    """

    def __init__(self, message, position):
        super().__init__("%s (at offset %d)" % (message, position))
        self.position = position
