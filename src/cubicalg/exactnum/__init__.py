"""Exact scalar arithmetic: polynomials, restricted fractions, and
rational functions of a level variable, plus parsing, interpolation,
rational root extraction, and exact linear solving."""

from .errors import (
    DegreeBoundExceeded,
    ExactDivisionError,
    ParseError,
    PoleError,
    SymbolTableMismatch,
)
from .interpolate import fit_with_degree_bound, lagrange
from .linsolve import (
    InconsistentSystem,
    RankDeficientSystem,
    solve_exact,
    solve_fractions,
)
from .multipoly import MultiPoly
from .nfunc import NFunc
from .parser import parse
from .polyfraction import PolyFraction
from .symbols import Atom, SymbolTable, check_same

__all__ = [
    "Atom",
    "DegreeBoundExceeded",
    "ExactDivisionError",
    "InconsistentSystem",
    "MultiPoly",
    "NFunc",
    "ParseError",
    "PolyFraction",
    "PoleError",
    "RankDeficientSystem",
    "SymbolTable",
    "SymbolTableMismatch",
    "check_same",
    "fit_with_degree_bound",
    "lagrange",
    "parse",
    "solve_exact",
    "solve_fractions",
]
