"""Fraction-free linear solving over polynomial entries."""

from fractions import Fraction

import pytest

from cubicalg import algebra, casimir, spectrum
from cubicalg._memo import once
from cubicalg.exactnum import (
    InconsistentSystem,
    MultiPoly,
    RankDeficientSystem,
    SymbolTable,
    linsolve,
    solve_exact,
)
from cubicalg.exactnum.polyfraction import _P, _point

TABLE = SymbolTable(("s", "t"))


def sym(name):
    return MultiPoly.sym(TABLE, name)


def const(q):
    return MultiPoly.const(TABLE, q)


class TestSolveExact:
    def test_square_symbolic(self):
        s = sym("s")
        # [1 s; 0 1] x = [s^2 + 1, s]
        rows = [[const(1), s], [const(0), const(1)]]
        rhs = [s * s + 1, s]
        (n0, d0), (n1, d1) = solve_exact(rows, rhs)
        assert d0.is_rational() and d1.is_rational()
        assert n0 * d0.as_fraction() ** -1 == 1
        assert n1 == s

    def test_overdetermined_consistent(self):
        s = sym("s")
        rows = [
            [const(1), const(0)],
            [const(0), const(1)],
            [const(1), const(1)],
        ]
        rhs = [s, const(2), s + 2]
        sol = solve_exact(rows, rhs)
        assert sol[0][0] == s and sol[0][1] == const(1)
        assert sol[1][0] == const(2)

    def test_inconsistent_raises(self):
        rows = [[const(1)], [const(1)]]
        rhs = [const(1), const(2)]
        with pytest.raises(InconsistentSystem):
            solve_exact(rows, rhs)

    def test_rank_deficient_raises(self):
        s = sym("s")
        rows = [[s, s], [s, s]]
        rhs = [s, s]
        with pytest.raises(RankDeficientSystem):
            solve_exact(rows, rhs)

    def test_rational_denominator_solution(self):
        s = sym("s")
        # s * x = s^2 + s  ->  x = s + 1
        sol = solve_exact([[s]], [s * s + s])
        n, d = sol[0]
        assert n == s + 1
        assert d == const(1)

    def test_nontrivial_ratio(self):
        s, t = sym("s"), sym("t")
        # (s + t) x = s^2 - t^2
        sol = solve_exact([[s + t]], [s * s - t * t])
        n, d = sol[0]
        assert n == s - t
        assert d == const(1)


def value(pair):
    num, den = pair
    assert den.is_rational()
    return num * (1 / den.as_fraction())


class TestSquareSubsystem:
    """Rows picked mod P, Bareiss on n of them, every other row checked."""

    def test_entry_vanishing_at_the_point_falls_back(self):
        s, t = sym("s"), sym("t")
        # s - c is not zero but its residue is, so mod P the rank is 1
        vanishing = s - _point(TABLE.index("s"))
        rows = [[vanishing, const(0)], [const(0), const(1)],
                [vanishing, const(1)]]
        rhs = [vanishing * (t + 1), t, vanishing * (t + 1) + t]
        assert linsolve._independent_rows(rows) is None
        sol = solve_exact(rows, rhs)
        assert [value(p) for p in sol] == [t + 1, t]
        assert sol == linsolve._bareiss(rows, rhs)

    def test_row_outside_the_subsystem_is_checked(self):
        s = sym("s")
        rows = [[const(1), const(0)], [const(0), const(1)], [s, s]]
        assert linsolve._independent_rows(rows) == [0, 1]
        sol = solve_exact(rows, [s, const(1), s * s + s])
        assert [value(p) for p in sol] == [s, const(1)]
        with pytest.raises(InconsistentSystem):
            solve_exact(rows, [s, const(1), s * s])

    def test_rank_deficient_overdetermined_system(self):
        s, t = sym("s"), sym("t")
        rows = [[s, s * 2], [const(1), const(2)], [t, t * 2]]
        assert linsolve._independent_rows(rows) is None
        with pytest.raises(RankDeficientSystem):
            solve_exact(rows, [s, const(1), t])

    def test_denominator_divisible_by_p_falls_back(self):
        s = sym("s")
        tiny = const(Fraction(1, _P))
        rows = [[tiny, const(0)], [const(0), s], [const(1), s]]
        rhs = [s * tiny, s * s, s * s + s]
        assert linsolve._independent_rows(rows) is None
        assert [value(p) for p in solve_exact(rows, rhs)] == [s, s]


def test_q5_systems_take_the_square_path(monkeypatch):
    """The Casimir system and the three basis expansions of q5_algebra
    are certified mod P, so Bareiss only ever sees square systems."""
    shapes = []
    picked = linsolve._independent_rows
    eliminate = linsolve._bareiss

    def record_pick(rows):
        chosen = picked(rows)
        shapes.append((len(rows), len(rows[0]), chosen is not None))
        return chosen

    def square_only(rows, rhs):
        assert len(rows) == len(rows[0])
        return eliminate(rows, rhs)

    monkeypatch.setattr(linsolve, "_independent_rows", record_pick)
    monkeypatch.setattr(linsolve, "_bareiss", square_only)
    # fresh memos, so that both systems are solved here
    for module, name in ((casimir, "casimir_coefficients"),
                         (algebra, "q5_algebra")):
        stage = getattr(module, name)
        monkeypatch.setattr(module, name, once(stage.__wrapped__))
    algebra.q5_algebra()
    assert shapes == [(259, 13, True), (372, 13, True), (36, 9, True),
                      (223, 5, True)]


class TestRationalSystems:
    """Fraction systems, as spectrum solves them: solve_exact over the
    constants of a table with no symbols."""

    def test_square(self):
        x = spectrum._solve_rational([[1, 2], [3, 4]], [5, 6])
        assert x == [Fraction(-4), Fraction(9, 2)]

    def test_overdetermined_inconsistent(self):
        with pytest.raises(InconsistentSystem):
            spectrum._solve_rational([[1], [1]], [1, 2])

    def test_rank_deficient(self):
        with pytest.raises(RankDeficientSystem):
            spectrum._solve_rational([[0, 1], [0, 2]], [1, 2])
