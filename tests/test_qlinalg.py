"""Rational linear algebra used by the graded-algebra layer."""

import math
from fractions import Fraction

from hypothesis import given, strategies as st

import helpers as z
from chevalley_chow import qlinalg
from chevalley_chow.qlinalg import SpanBuilder, qsolve


def test_qsolve():
    sol = qsolve([(2, 0), (0, 4)], (1, 2))
    assert sol == (Fraction(1, 2), Fraction(1, 2))
    assert qsolve([(1, 1)], (3,)) is not None
    assert qsolve([(1, 0), (1, 0)], (0, 1)) is None


def test_qsolve_solves_through_the_span_builder(monkeypatch):
    # one elimination over Q: the augmented rows go into a SpanBuilder
    assert not hasattr(qlinalg, "echelon")
    added = []
    add = SpanBuilder.add

    def spy(self, vec):
        added.append(list(vec))
        return add(self, vec)

    monkeypatch.setattr(SpanBuilder, "add", spy)
    assert qsolve([(1, 2, 3), (2, 4, 6), (0, 2, 4)], (1, 2, 2)) == (-1, 1, 0)
    assert added == [[1, 2, 3, 1], [2, 4, 6, 2], [0, 2, 4, 2]]


def test_span_builder():
    sb = SpanBuilder(3)
    assert sb.add((1, 0, 0)) and sb.add((0, 1, 0))
    assert not sb.add((2, 3, 0))  # dependent
    assert sb.dim == 2
    assert z.span_contains(sb, (5, -7, 0))
    assert not z.span_contains(sb, (0, 0, 1))
    residue = z.span_reduce(sb, (1, 2, 3))
    assert tuple(residue) == (0, 0, 3)
    # Fraction inputs work the same way
    assert sb.add((Fraction(1, 2), 0, Fraction(1, 3)))
    assert sb.dim == 3


# -- integer elimination against the Fraction oracle ------------------------

entries = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))


@st.composite
def matrices(draw, max_rows=4, max_cols=5):
    """Small int/Fraction matrices, often with zero rows and dependent rows."""
    ncols = draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=max_rows))
    for _ in range(draw(st.integers(0, 2))):  # a combination of the rows drawn so far; zero if none
        coeffs = draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
        rows.append([sum((c * r[j] for c, r in zip(coeffs, rows)), 0) for j in range(ncols)])
    return draw(st.permutations(rows)), ncols


def typed(x):
    """Value with the type of every scalar, so equality also compares types."""
    if isinstance(x, (list, tuple)):
        return type(x).__name__, [typed(y) for y in x]
    return type(x).__name__, x


@given(matrices(), st.data())
def test_qsolve_matches_the_fraction_oracle(m, data):
    rows, ncols = m
    x = data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
    consistent = [sum((a * b for a, b in zip(row, x)), 0) for row in rows]
    arbitrary = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    for b in (consistent, arbitrary):
        assert typed(qsolve(rows, b)) == typed(z.fraction_qsolve(rows, b))
    assert qsolve(rows, consistent) is not None


@given(matrices(max_rows=5), st.lists(st.lists(entries, min_size=5, max_size=5), max_size=3))
def test_span_builder_matches_the_fraction_oracle(m, probes):
    rows, ncols = m
    sb, oracle = SpanBuilder(ncols), z.FractionSpanBuilder(ncols)
    probes = [p[:ncols] for p in probes]
    for vec in rows:
        assert sb.add(vec) == oracle.add(vec)
        assert sb.dim == len(oracle.rows) and sb.pivots == oracle.pivots
        for p in [vec, *rows, *probes]:
            assert typed(z.span_reduce(sb, p)) == typed(oracle.reduce(p))
            assert z.span_contains(sb, p) == oracle.contains(p)
        # the basis stays integral: primitive int rows, whatever was added
        assert all(type(x) is int for row in sb.rows for x in row)
        assert all(math.gcd(*row) == 1 for row in sb.rows)


def test_span_builder_rows_are_primitive_ints_after_fraction_input():
    sb = SpanBuilder(3)
    for vec in ((Fraction(1, 2), Fraction(1, 3), 0), (Fraction(-3, 4), 0, Fraction(5, 6)), (2, Fraction(2, 3), 1)):
        sb.add(vec)
    assert sb.dim == 3
    assert all(type(x) is int for row in sb.rows for x in row)
    assert all(math.gcd(*row) == 1 for row in sb.rows)
    assert z.span_reduce(sb, (Fraction(1, 7), 0, 0)) == [0, 0, 0]
