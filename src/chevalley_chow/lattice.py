"""Exact integer linear algebra over Z and finitely generated abelian groups.

Everything here is exact and deterministic: matrices are immutable tuples of
ints, and every lattice-valued answer is returned in row Hermite normal form
so equal lattices compare equal.  The row Hermite form is also the only
elimination: kernels, integer solutions and unimodularity come from one
Hermite form of ``[m^T | I]``, Smith forms from alternating row and column
Hermite forms (Kannan and Bachem, 1979); no unimodular transform is tracked.

Conventions:

* Matrices act on column vectors, ``f(x) = M @ x``.
* A lattice in Z^n is stored as a matrix whose rows are a basis.
* A finitely generated abelian group is presented by ``ngens`` generators
  and a matrix of relation rows; its isomorphism type is an
  :class:`FGAbelianGroup`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul

from ._record import Record
from .errors import GroupTooLarge

Vec = tuple[int, ...]

DEFAULT_CAP = 1_000_000  # default ceiling on the order of any enumerated group
#: the one cache policy: entries kept by a memo keyed by a root datum alone
#: (W, its root system and classification, the BGG table: the large entries)
DATUM_CACHE_SIZE = 32
#: entries kept by every other memo
CACHE_SIZE = 128


class IntMatrix:
    """Immutable integer matrix; hashable so it can key caches.

    >>> m = IntMatrix(((1, 2), (3, 4)))
    >>> m.apply((1, 0))
    (1, 3)
    >>> (m @ m).rows
    ((7, 10), (15, 22))
    """

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows, ncols: int | None = None):
        rows = tuple(map(tuple, rows))
        if not all(type(x) is int for r in rows for x in r):  # else: ints, or Fractions with denominator 1
            if not all(isinstance(x, (int, Fraction)) and x.denominator == 1 for r in rows for x in r):
                raise ValueError(f"matrix entries are not all integers: {rows!r}")
            rows = tuple(tuple(map(int, r)) for r in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("ncols disagrees with row width")
            ncols = width
        elif ncols is None:
            raise ValueError("empty matrix needs explicit ncols")
        _set_rows(self, rows)
        _set_nrows(self, len(rows))
        _set_ncols(self, ncols)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def _from_int_rows(cls, rows: tuple[Vec, ...], ncols: int) -> "IntMatrix":
        """Wrap rows that are already equal-width tuples of ints, sharing them."""
        m = object.__new__(cls)
        _set_rows(m, rows)
        _set_nrows(m, len(rows))
        _set_ncols(m, ncols)
        return m

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._from_int_rows(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), n)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def column(self, j: int) -> Vec:
        return tuple(r[j] for r in self.rows)

    def transpose(self) -> "IntMatrix":
        return IntMatrix._from_int_rows(tuple(zip(*self.rows)) if self.nrows else ((),) * self.ncols, self.nrows)

    def apply(self, vec) -> Vec:
        vec = tuple(vec)
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.rows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = tuple(zip(*other.rows)) if other.nrows else ((),) * other.ncols
        return IntMatrix._from_int_rows(tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in self.rows),
                                        other.ncols)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return IntMatrix._from_int_rows(
            tuple(tuple(a - b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows)), self.ncols)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._from_int_rows(tuple(tuple(-a for a in r) for r in self.rows), self.ncols)

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.rows == other.rows and self.ncols == other.ncols

    def __hash__(self):
        return hash((self.rows, self.ncols))

    def __repr__(self):
        return f"IntMatrix({list(map(list, self.rows))!r}, ncols={self.ncols})"


# the slots' own setters: __setattr__ refuses, and object.__setattr__ is twice as slow
_set_rows, _set_nrows, _set_ncols = (IntMatrix.__dict__[name].__set__ for name in IntMatrix.__slots__)


def vstack(*mats: IntMatrix) -> IntMatrix:
    if not mats:
        raise ValueError("nothing to stack")
    ncols = mats[0].ncols
    if any(m.ncols != ncols for m in mats):
        raise ValueError("column count mismatch")
    rows: list[Vec] = []
    for m in mats:
        rows.extend(m.rows)
    return IntMatrix._from_int_rows(tuple(rows), ncols)


def hstack(*mats: IntMatrix) -> IntMatrix:
    if not mats:
        raise ValueError("nothing to stack")
    nrows = mats[0].nrows
    if any(m.nrows != nrows for m in mats):
        raise ValueError("row count mismatch")
    return IntMatrix._from_int_rows(
        tuple(tuple(x for m in mats for x in m.rows[i]) for i in range(nrows)),
        sum(m.ncols for m in mats),
    )


# ---------------------------------------------------------------------------
# Hermite and Smith normal forms
# ---------------------------------------------------------------------------


def hermite_row_basis(m: IntMatrix) -> IntMatrix:
    """Canonical basis of the lattice spanned by the rows of ``m``.

    Row Hermite normal form with positive pivots, entries above each pivot
    reduced into ``[0, pivot)``, zero rows dropped.  Two matrices span the
    same lattice iff this returns the same matrix.

    >>> hermite_row_basis(IntMatrix(((2, 1), (0, 3)))).rows
    ((2, 1), (0, 3))
    >>> hermite_row_basis(IntMatrix(((0, 3), (2, 1)))).rows
    ((2, 1), (0, 3))
    """
    a = [list(r) for r in m.rows]
    nr, nc = len(a), m.ncols
    r = 0
    for c in range(nc):
        if r == nr:
            break
        while True:
            nz = [i for i in range(r, nr) if a[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(a[i][c]), i))
            if i0 != r:
                a[r], a[i0] = a[i0], a[r]
            changed = False
            for i in range(r + 1, nr):
                if a[i][c] != 0:
                    q = a[i][c] // a[r][c]
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    if a[i][c] != 0:
                        changed = True
            if not changed:
                break
        if a[r][c] != 0:
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
            for i in range(r):
                q = a[i][c] // a[r][c]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
            r += 1
    return IntMatrix._from_int_rows(tuple(map(tuple, a[:r])), nc)


@lru_cache(maxsize=CACHE_SIZE)
def _column_transform(m: IntMatrix, /) -> tuple[tuple[tuple[Vec, Vec], ...], IntMatrix]:
    """Echelon basis of the column lattice of ``m``, with coordinates, and ker ``m``.

    One Hermite form of ``[m^T | I]``: each row ``(h, u)`` with ``h != 0``
    has ``m @ u == h``, and these ``h`` are an echelon basis of the column
    lattice.  The transform is unimodular, so the rows with ``h == 0`` span
    ker ``m``; they are the bottom rows of a Hermite form, hence already the
    Hermite basis of the kernel.  Memoized per matrix in a cache of
    ``CACHE_SIZE``, so every solve against and the kernel of a matrix seen
    before are lookups; the result is all tuples, so no caller can change a
    cached value.
    """
    nr, nc = m.nrows, m.ncols
    h = hermite_row_basis(hstack(m.transpose(), IntMatrix.identity(nc))).rows
    r = sum(1 for row in h if any(row[:nr]))
    return tuple((row[:nr], row[nr:]) for row in h[:r]), IntMatrix._from_int_rows(tuple(row[nr:] for row in h[r:]), nc)


def integer_kernel(m: IntMatrix) -> IntMatrix:
    """Canonical row basis of ``{x in Z^ncols : m @ x == 0}``.

    >>> integer_kernel(IntMatrix(((2, 4),))).rows
    ((2, -1),)
    """
    return _column_transform(m)[1]


def solve_integer(m: IntMatrix, b) -> Vec | None:
    """One integer solution of ``m @ x == b``, or None.

    Forward substitution of ``b`` over the echelon column basis: each pivot
    fixes one coefficient, which must divide exactly, and nothing may be
    left over.

    >>> solve_integer(IntMatrix(((2, 4), (6, 8))), (2, 6))
    (1, 0)
    >>> solve_integer(IntMatrix(((2,),)), (3,)) is None
    True
    """
    rem = [int(x) for x in b]
    if len(rem) != m.nrows:
        raise ValueError("rhs length mismatch")
    x = [0] * m.ncols
    for h, u in _column_transform(m)[0]:
        p = next(i for i, c in enumerate(h) if c)
        q, r = divmod(rem[p], h[p])
        if r:
            return None
        if q:
            rem = [a - q * c for a, c in zip(rem, h)]
            x = [a + q * c for a, c in zip(x, u)]
    return None if any(rem) else tuple(x)


def is_unimodular(m: IntMatrix) -> bool:
    """Is ``m`` square and invertible over Z (determinant +-1)?  Exactly then
    the echelon basis of its column lattice (:func:`_column_transform`) is
    the identity: n rows, row k's pivot a 1 at column k.  No other shape is,
    0 x r included.

    >>> is_unimodular(IntMatrix(((2, 1), (1, 1)))), is_unimodular(IntMatrix(((2, 0), (0, 1))))
    (True, False)
    """
    if m.nrows != m.ncols:
        return False
    basis = _column_transform(m)[0]
    return len(basis) == m.nrows and all(h[k] == 1 for k, (h, _) in enumerate(basis))


def coordinates(basis: IntMatrix, vectors) -> IntMatrix | None:
    """Row k holds the coordinates of ``vectors[k]`` over the rows of
    ``basis``; None when some vector lies outside their lattice.

    >>> coordinates(IntMatrix(((2, 0), (0, 3))), [(4, 3), (0, -6)]).rows
    ((2, 1), (0, -2))
    """
    bt = basis.transpose()
    rows = tuple(solve_integer(bt, vec) for vec in vectors)
    return None if None in rows else IntMatrix._from_int_rows(rows, basis.nrows)


def smith_normal_form(m: IntMatrix) -> IntMatrix:
    """Smith form ``S`` of ``m``: ``U @ m @ V == S`` for some unimodular U, V.

    Hermite forms of the rows and of the columns alternate until the matrix
    is diagonal (Kannan and Bachem, SIAM J. Comput. 8, 1979); then
    ``(a, b) -> (gcd, lcm)`` on pairs of diagonal entries leaves a
    nonnegative diagonal in which each entry divides the next.

    >>> smith_normal_form(IntMatrix(((2, 4), (6, 8)))).rows
    ((2, 0), (0, 4))
    """
    a = hermite_row_basis(m)
    while any(x for i, row in enumerate(a.rows) for j, x in enumerate(row) if i != j):
        a = hermite_row_basis(a.transpose())
    d = [a.rows[i][i] for i in range(a.nrows)]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = math.gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    d += [0] * (m.nrows - len(d))
    return IntMatrix._from_int_rows(tuple(tuple(d[i] if i == j else 0 for j in range(m.ncols)) for i in range(m.nrows)),
                                    m.ncols)


def invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith form, in divisibility order."""
    s = smith_normal_form(m)
    return tuple(s.rows[i][i] for i in range(min(s.shape)) if s.rows[i][i])


def saturate_rows(m: IntMatrix) -> IntMatrix:
    """Saturation of the row lattice: ``(Q-span of rows) intersect Z^n``.

    >>> saturate_rows(IntMatrix(((2, 4),))).rows
    ((1, 2),)
    """
    return integer_kernel(integer_kernel(m))


def intersect_rows(m1: IntMatrix, m2: IntMatrix) -> IntMatrix:
    """Canonical basis of the intersection of two row lattices in Z^n."""
    if m1.ncols != m2.ncols:
        raise ValueError("ambient mismatch")
    # x in L1 cap L2  iff  x = a @ m1 = b @ m2 for integer a, b
    stacked = hstack(m1.transpose(), -m2.transpose())
    ker = integer_kernel(stacked)  # rows are (a, b) with a @ m1 == b @ m2
    rows = tuple(m1.transpose().apply(r[: m1.nrows]) for r in ker.rows)
    return hermite_row_basis(IntMatrix._from_int_rows(rows, m1.ncols))


# ---------------------------------------------------------------------------
# Finitely generated abelian groups
# ---------------------------------------------------------------------------


class FGAbelianGroup(Record):
    """Isomorphism type ``Z^rank + Z/t1 + ... + Z/tk`` with ``t1 | t2 | ...``.

    >>> FGAbelianGroup(1, (2, 6)).describe()
    'Z + Z/2 + Z/6'
    """

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("negative rank")
        object.__setattr__(self, "torsion", tuple(int(t) for t in self.torsion))
        if any(t < 2 for t in self.torsion):
            raise ValueError("torsion entries must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion must form a divisibility chain")

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def torsion_order(self) -> int:
        return math.prod(self.torsion) if self.torsion else 1

    def direct_sum(self, other: "FGAbelianGroup") -> "FGAbelianGroup":
        rel = [[0] * (len(self.torsion) + len(other.torsion)) for _ in range(len(self.torsion) + len(other.torsion))]
        for i, t in enumerate(self.torsion + other.torsion):
            rel[i][i] = t
        merged = group_from_relations(len(rel), IntMatrix(rel, len(rel)))
        return FGAbelianGroup(self.rank + other.rank + merged.rank, merged.torsion)

    def describe(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"

    def __str__(self):
        return self.describe()


def group_from_relations(ngens: int, relations: IntMatrix) -> FGAbelianGroup:
    """Structure of ``Z^ngens / (row lattice of relations)``.

    >>> group_from_relations(2, IntMatrix(((2, 0), (1, 3)))).describe()
    'Z/6'
    """
    if relations.nrows and relations.ncols != ngens:
        raise ValueError("relation width mismatch")
    if relations.nrows == 0:
        return FGAbelianGroup(ngens)
    facs = invariant_factors(relations)
    return FGAbelianGroup(ngens - len(facs), tuple(f for f in facs if f > 1))


class Presentation(Record):
    """A f.g. abelian group with chosen generators: ``Z^ngens / relations``."""

    ngens: int
    relations: IntMatrix

    def __post_init__(self):
        if self.relations.nrows and self.relations.ncols != self.ngens:
            raise ValueError("relation width mismatch")
        if not self.relations.nrows and self.relations.ncols != self.ngens:
            object.__setattr__(self, "relations", IntMatrix((), self.ngens))

    @classmethod
    def free(cls, n: int) -> "Presentation":
        return cls(n, IntMatrix((), n))

    def group(self) -> FGAbelianGroup:
        return group_from_relations(self.ngens, self.relations)

    def contains_relation(self, vec) -> bool:
        """Is ``vec`` zero in the presented group?  Solved against the
        relations as given: any rows that generate the lattice do."""
        if self.relations.nrows == 0:
            return all(x == 0 for x in vec)
        return solve_integer(self.relations.transpose(), vec) is not None

    def cokernel(self, m: IntMatrix) -> FGAbelianGroup:
        """This group modulo the image of ``m``, a map into it from Z^m.ncols."""
        return group_from_relations(self.ngens, vstack(m.transpose(), self.relations))

    def kernel(self, m: IntMatrix) -> IntMatrix:
        """Canonical basis of ``{x in Z^m.ncols : m @ x == 0 in this group}``."""
        if m.nrows != self.ngens:
            raise ValueError("map does not land in the generators")
        if not self.relations.nrows:
            return integer_kernel(m)
        # (x, y) with m @ x == relations^T @ y, cut down to x
        ker = integer_kernel(hstack(m, -self.relations.transpose()))
        return hermite_row_basis(IntMatrix._from_int_rows(tuple(r[:m.ncols] for r in ker.rows), m.ncols))


# ---------------------------------------------------------------------------
# Finite matrix groups
# ---------------------------------------------------------------------------


def enumerate_matrix_group(gens, cap: int = DEFAULT_CAP) -> tuple[IntMatrix, ...]:
    """All products of the generators, by breadth-first closure.

    The identity comes first and elements appear in BFS discovery order, so
    the output is deterministic.  Raises :class:`GroupTooLarge` beyond
    ``cap`` elements or once :func:`group_closure` proves the group infinite.
    Generators must be square of one size and invertible over Z
    (:func:`is_unimodular`); this guarantees the closure is a group when it
    is finite.  Nothing is memoized: the one caller in the package is the
    order memo ``rootdata.matrix_group_order``, which closes here only the
    generator sets that are not a Weyl group's simple reflections.
    """
    gens = tuple(gens)
    if not gens:
        raise ValueError("need at least one generator (or pass the identity)")
    n = gens[0].nrows
    for g in gens:
        if g.shape != (n, n):
            raise ValueError("generators must be square of equal size")
        if not is_unimodular(g):
            raise ValueError("generator is not invertible over Z")
    return tuple(group_closure(gens, n, cap))


def group_closure(gens, n: int, cap: int) -> list[IntMatrix]:
    """Breadth-first closure of n x n matrices under right multiplication.

    Returns the identity first, then the elements in discovery order.
    Each distinct row gets a small int id and an element is the tuple of its
    n row ids.  Row i of ``a @ g`` is ``a``'s row i times ``g``, so each
    generator keeps a list from row id to image id, filled for every row
    known when an element is reached: a product is n list lookups, and the
    dot products are paid once per (distinct row, generator), not once per
    (element, generator).  Each row also keeps the id of its residue mod 3,
    so an element's residue is the tuple of its rows'.  The matrices are
    built from the ids once, at the end, sharing one tuple per distinct row.
    Raises :class:`GroupTooLarge` beyond ``cap`` elements, and as soon as two
    distinct elements agree mod 3, which proves the group infinite (reduction
    mod 3 is injective on finite subgroups of GL_n(Z), by Minkowski), so no
    closure visits more than |GL_n(F_3)| elements.
    """
    rows, ids = [], {}  # the distinct rows, a row's id being its index; row -> id
    mod3, mod3_ids = [], {}  # per row id, the id of its residue mod 3; residue -> id

    def intern(row: Vec) -> int:
        k = ids.get(row)
        if k is None:
            k = ids[row] = len(rows)
            rows.append(row)
            mod3.append(mod3_ids.setdefault(bytes(x % 3 for x in row), len(mod3_ids)))
        return k

    cols = [tuple(zip(*g.rows)) for g in gens]
    images: list[list[int]] = [[] for _ in gens]  # images[i][k]: id of rows[k] @ gens[i]
    lookups = [table.__getitem__ for table in images]
    ident = tuple(map(intern, IntMatrix.identity(n).rows))
    elements, seen, filled = [ident], {ident}, 0
    residues = {tuple(map(mod3.__getitem__, ident))}
    # the element list doubles as the BFS queue: iteration reaches what is appended
    for elem in elements:
        for row in rows[filled:]:  # elem's rows are among them
            for table, g_cols in zip(images, cols):
                table.append(intern(tuple(sum(map(mul, row, col)) for col in g_cols)))
            filled += 1
        for lookup in lookups:
            prod = tuple(map(lookup, elem))
            if prod not in seen:
                if len(seen) >= cap:
                    raise GroupTooLarge(f"matrix group exceeds cap {cap}")
                residue = tuple(map(mod3.__getitem__, prod))
                if residue in residues:
                    raise GroupTooLarge(f"infinite matrix group: two of its first {len(seen) + 1} elements agree mod 3")
                residues.add(residue)
                seen.add(prod)
                elements.append(prod)
    return [IntMatrix._from_int_rows(tuple(map(rows.__getitem__, e)), n) for e in elements]


def fixed_sublattice(gens, n: int) -> IntMatrix:
    """Canonical basis of ``{x in Z^n : g @ x == x for every generator}``.

    Only the generators are needed: a vector fixed by all of them is fixed
    by the whole group.  Nothing here checks that the group is finite;
    ``descriptors.subgroup_characters`` bounds its order first.

    >>> swap = IntMatrix(((0, 1), (1, 0)))
    >>> fixed_sublattice([swap], 2).rows
    ((1, 1),)
    """
    gens = tuple(gens)
    if not gens:
        return IntMatrix.identity(n)
    blocks = [g - IntMatrix.identity(n) for g in gens]
    return integer_kernel(vstack(*blocks))
