"""Small exact linear algebra over Q: one integral elimination, rational results.

Vectors are tuples, matrices are sequences of rows of ints or Fractions.  The
one elimination is :class:`SpanBuilder`'s: each row is scaled to a primitive
integer vector and reduced fraction-free against the rows kept so far, as
``p*row - f*pivot_row`` divided by its gcd (Bareiss, *Math. Comp.* 22, 1968);
the pivot of a row is its first nonzero entry.  :func:`qsolve` reads its
solution off such a basis of the augmented rows, so only its results are
Fractions.  The one elimination over Z is :func:`lattice.hermite_row_basis`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul


def _content_free(ints: list[int]) -> list[int]:
    """``ints / g`` for g the gcd of the entries (``ints`` for a zero vector)."""
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _primitive(vec) -> list[int]:
    """The primitive integer vector that is a positive multiple of ``vec``."""
    den = lcm(*[x.denominator for x in vec])
    return _content_free([x.numerator * (den // x.denominator) for x in vec])


def qsolve(rows, b) -> tuple[Fraction, ...] | None:
    """One solution of ``M x = b`` over Q, or None when inconsistent: the
    augmented rows go into a :class:`SpanBuilder`, solved from its last pivot
    up with every free unknown 0.  All echelon forms of a row space share
    their pivots, so this is the reduced echelon form's answer, in Fractions."""
    rows, b = [list(r) for r in rows], list(b)
    if len(rows) != len(b):
        raise ValueError("rhs length mismatch")
    ncols = len(rows[0]) if rows else 0
    span = SpanBuilder(ncols + 1)
    for row, rhs in zip(rows, b):
        span.add(row + [rhs])
    if ncols in span.pivots:
        return None
    sol = [Fraction(0)] * ncols
    for row, pc in zip(reversed(span.rows), reversed(span.pivots)):  # row is 0 left of pc
        sol[pc] = Fraction(row[ncols] - sum(map(mul, row[pc + 1:ncols], sol[pc + 1:])), row[pc])
    return tuple(sol)


class SpanBuilder:
    """Incremental echelon basis of a growing span in Q^n.

    ``add`` returns True when the vector enlarged the span.  Used to pick
    greedy bases out of redundant spanning sets.  ``rows`` holds primitive
    integer rows sorted by pivot column, zero at the pivots of rows added before.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def _reduce(self, vec) -> list[int]:
        """A primitive integer multiple of the vector of ``vec + span`` that
        is zero at every pivot column."""
        v = _primitive(vec)
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        for row, pc in zip(self.rows, self.pivots):
            if f := v[pc]:
                v = _content_free([row[pc] * x - f * y for x, y in zip(v, row)])
        return v

    def add(self, vec) -> bool:
        v = self._reduce(vec)
        pc = next((c for c, x in enumerate(v) if x), None)
        if pc is None:
            return False
        # keep rows sorted by pivot column so _reduce() stays correct
        pos = next((k for k, p in enumerate(self.pivots) if p > pc), len(self.pivots))
        self.rows.insert(pos, v)
        self.pivots.insert(pos, pc)
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)
