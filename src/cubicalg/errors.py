"""Domain errors shared across the algebra, ladder, and operator layers.

All of them derive from CubicalgError, the one base of every cubicalg
error; a failure with no class of its own raises CubicalgError itself.
"""

from .exactnum.errors import CubicalgError


class JacobiViolation(CubicalgError):
    """Structure constants break the Jacobi identity."""


class UnsupportedCase(CubicalgError):
    """No oscillator realization is available for these constants."""


class SingularSystem(CubicalgError):
    """The linear system for the structure function is degenerate."""


class NonPolynomialStructure(CubicalgError):
    """The solved structure function is not a polynomial of bounded degree."""


class UnresolvedFactor(CubicalgError):
    """A polynomial kept a factor the exact root search cannot split."""


class UndecidedSign(CubicalgError, ValueError):
    """Positivity of the symbols does not fix a sign that a verdict needs."""


class NotConserved(CubicalgError):
    """An operator of the suite fails to commute with the Hamiltonian."""


class NotInSpan(CubicalgError):
    """An operator cannot be written over the requested basis."""


class AmbiguousBasis(CubicalgError):
    """The requested basis is linearly dependent on the target span."""
