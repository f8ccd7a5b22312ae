"""Exact scalar arithmetic: polynomials, restricted fractions, and
rational functions of a level variable, plus parsing, interpolation,
rational root extraction, and exact linear solving."""

from .errors import (
    CubicalgError,
    ExactDivisionError,
    ParseError,
    PoleError,
    SymbolTableMismatch,
)
from .interpolate import lagrange
from .linsolve import InconsistentSystem, RankDeficientSystem, solve_exact
from .multipoly import MultiPoly
from .nfunc import NFunc
from .parser import parse
from .polyfraction import PolyFraction
from .symbols import Atom, SymbolTable, check_same

__all__ = [
    "Atom",
    "CubicalgError",
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
    "lagrange",
    "parse",
    "solve_exact",
]
