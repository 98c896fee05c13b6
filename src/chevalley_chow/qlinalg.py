"""Small exact linear algebra over Q: integral elimination, rational results.

Vectors are tuples, matrices are sequences of rows of ints or Fractions.  Each
row is scaled to a primitive integer vector and eliminated fraction-free, as
``p*row - f*pivot_row`` divided by its gcd (Bareiss, *Math. Comp.* 22, 1968), so
only the results of :func:`qsolve` are Fractions.  Pivoting picks the first
nonzero entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

QVec = tuple[Fraction, ...]


def _content_free(ints: list[int]) -> list[int]:
    """``ints / g`` for g the gcd of the entries (``ints`` for a zero vector)."""
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _primitive(vec) -> list[int]:
    """The primitive integer vector that is a positive multiple of ``vec``."""
    den = lcm(*[x.denominator for x in vec])
    return _content_free([x.numerator * (den // x.denominator) for x in vec])


def echelon(rows, ncols: int | None = None) -> tuple[list[list[int]], list[int]]:
    """Integral reduced row echelon form: (nonzero rows, pivot columns), the
    rows primitive, each with a positive pivot entry and zeros at the other
    pivot columns; a row divided by its pivot entry is the matching row of
    the reduced row echelon form over Q.

    >>> echelon([(1, 2, 3), (2, 4, 6), (0, 2, 4)])
    ([[1, 0, -1], [0, 1, 2]], [0, 1])
    """
    work = [_primitive(r) for r in rows]
    if ncols is None:
        ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pr is None:
            continue
        prow = work[pr] if work[pr][c] > 0 else [-x for x in work[pr]]
        work[pr], work[r] = work[r], prow
        for i, row in enumerate(work):
            if i != r and (f := row[c]):
                work[i] = _content_free([prow[c] * x - f * y for x, y in zip(row, prow)])
        pivots.append(c)
        if len(pivots) == len(work):
            break
    return work[:len(pivots)], pivots


def qsolve(rows, b) -> QVec | None:
    """One solution of ``M x = b`` over Q, or None when inconsistent."""
    rows, b = [list(r) for r in rows], list(b)
    if len(rows) != len(b):
        raise ValueError("rhs length mismatch")
    ncols = len(rows[0]) if rows else 0
    red, pivots = echelon([row + [rhs] for row, rhs in zip(rows, b)], ncols + 1)
    if ncols in pivots:
        return None
    sol = {pc: Fraction(row[ncols], row[pc]) for row, pc in zip(red, pivots)}
    return tuple(sol.get(c, Fraction(0)) for c in range(ncols))


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
