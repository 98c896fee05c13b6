"""Rational linear algebra used by the graded-algebra layer."""

from fractions import Fraction

from chevalley_chow.qlinalg import SpanBuilder, nullspace, qsolve, rref


def test_rref_and_rank():
    rows, pivots = rref([(1, 2, 3), (2, 4, 6), (1, 0, 1)])
    assert pivots == [0, 1]
    assert len(rref([(1, 2, 3), (2, 4, 6), (1, 0, 1)])[0]) == 2
    assert len(rref([], 3)[0]) == 0
    assert len(rref([(0, 0)], 2)[0]) == 0


def test_nullspace():
    ns = nullspace([(1, 1, 0)], 3)
    assert len(ns) == 2
    for v in ns:
        assert v[0] + v[1] == 0
    assert nullspace([], 2) and len(nullspace([], 2)) == 2


def test_qsolve():
    sol = qsolve([(2, 0), (0, 4)], (1, 2))
    assert sol == (Fraction(1, 2), Fraction(1, 2))
    assert qsolve([(1, 1)], (3,)) is not None
    assert qsolve([(1, 0), (1, 0)], (0, 1)) is None


def test_span_builder():
    sb = SpanBuilder(3)
    assert sb.add((1, 0, 0)) and sb.add((0, 1, 0))
    assert not sb.add((2, 3, 0))  # dependent
    assert sb.dim == 2
    assert sb.contains((5, -7, 0))
    assert not sb.contains((0, 0, 1))
    residue = sb.reduce((1, 2, 3))
    assert tuple(residue) == (0, 0, 3)
    # Fraction inputs work the same way
    assert sb.add((Fraction(1, 2), 0, Fraction(1, 3)))
    assert sb.dim == 3
