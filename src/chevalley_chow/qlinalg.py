"""Small exact linear algebra helpers over Q (``fractions.Fraction``).

Vectors are tuples, matrices are sequences of row vectors.  Everything is
deterministic: pivoting always picks the first nonzero entry.
"""

from __future__ import annotations

from fractions import Fraction

QVec = tuple[Fraction, ...]


def qvec(xs) -> QVec:
    return tuple(Fraction(x) for x in xs)


def rref(rows, ncols: int | None = None) -> tuple[list[QVec], list[int]]:
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns).

    >>> r, p = rref([(2, 4), (1, 3)])
    >>> [[str(x) for x in row] for row in r], p
    ([['1', '0'], ['0', '1']], [0, 1])
    """
    work = [list(qvec(r)) for r in rows]
    if ncols is None:
        ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = work[r][c]
        work[r] = [x / inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return [tuple(row) for row in work[:r]], pivots


def nullspace(rows, ncols: int) -> list[QVec]:
    """Basis of ``{x in Q^ncols : M x = 0}``, one vector per free column.

    >>> [list(map(str, v)) for v in nullspace([(1, 2)], 2)]
    [['-2', '1']]
    """
    red, pivots = rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return basis


def qsolve(rows, b) -> QVec | None:
    """One solution of ``M x = b`` over Q, or None when inconsistent."""
    rows = [list(qvec(r)) for r in rows]
    b = list(qvec(b))
    if len(rows) != len(b):
        raise ValueError("rhs length mismatch")
    ncols = len(rows[0]) if rows else 0
    aug = [row + [rhs] for row, rhs in zip(rows, b)]
    red, pivots = rref(aug, ncols + 1)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, pc in zip(red, pivots):
        x[pc] = row[ncols]
    return tuple(x)


class SpanBuilder:
    """Incremental echelon basis of a growing span in Q^n.

    ``add`` returns True when the vector enlarged the span.  Used to pick
    greedy bases out of redundant spanning sets.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []

    def reduce(self, vec) -> list[Fraction]:
        v = list(qvec(vec))
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        for row, pc in zip(self.rows, self.pivots):
            if v[pc] != 0:
                f = v[pc]
                v = [x - f * y for x, y in zip(v, row)]
        return v

    def add(self, vec) -> bool:
        v = self.reduce(vec)
        pc = next((c for c, x in enumerate(v) if x != 0), None)
        if pc is None:
            return False
        inv = v[pc]
        v = [x / inv for x in v]
        # keep rows sorted by pivot column so reduce() stays correct
        pos = next((k for k, p in enumerate(self.pivots) if p > pc), len(self.pivots))
        self.rows.insert(pos, v)
        self.pivots.insert(pos, pc)
        return True

    def contains(self, vec) -> bool:
        return all(x == 0 for x in self.reduce(vec))

    @property
    def dim(self) -> int:
        return len(self.rows)
