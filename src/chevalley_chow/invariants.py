"""Degree-truncated graded algebra over Q.

Polynomials are dicts mapping exponent tuples to nonzero Fractions.  The
variables are the coordinates of a character lattice Z^rank, matrices act by
linear substitution, and every slice computation is plain exact linear
algebra over the monomial basis.  An ambient ring is the invariant ring of
a finite matrix group, given by the tuple of its generators; the empty
tuple is all of Sym(Q^rank).  Its degree-d slice is the space of degree-d
polynomials every generator fixes, one integer kernel over the monomials.

Monomial order everywhere: within a fixed total degree, exponent vectors in
descending lexicographic order, so for two variables degree 2 reads
x^2, xy, y^2.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add

from ._record import Record
from .errors import DegreeTooLarge
from .lattice import CACHE_SIZE, IntMatrix, _column_transform
from .qlinalg import SpanBuilder

Poly = dict[tuple[int, ...], Fraction]

#: hard ceiling on requested degrees; generous for desk-scale data
DEGREE_BUDGET = 64
#: hard ceiling on C(rank + d - 1, d), the dimension of a degree-d slice of
#: Sym(Q^rank), for the quotients that build every slice up to d: it admits
#: rank 2 up to degree 20, rank 3 up to 5 and rank 6 up to 2
SLICE_BUDGET = 21


@lru_cache(maxsize=CACHE_SIZE)
def sym_basis(rank: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Monomials of total degree d in ``rank`` variables, lex descending.

    >>> sym_basis(2, 2)
    ((2, 0), (1, 1), (0, 2))
    >>> len(sym_basis(3, 2))
    6
    """
    if d < 0:
        raise ValueError("negative degree")
    if rank < 0:
        raise ValueError("negative rank")
    if d > DEGREE_BUDGET:
        raise DegreeTooLarge(f"degree {d} exceeds budget {DEGREE_BUDGET}")
    if rank == 0:
        return ((),) if d == 0 else ()

    def gen(nvars, total):
        if nvars == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in gen(nvars - 1, total - first):
                yield (first,) + rest

    return tuple(gen(rank, d))


def poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def poly_scale(a: Poly, c) -> Poly:
    c = Fraction(c)
    if not c:
        return {}
    return {m: v * c for m, v in a.items()}


def poly_sub(a: Poly, b: Poly) -> Poly:
    return poly_add(a, poly_scale(b, -1))


def poly_mul(a: Poly, b: Poly) -> Poly:
    """The product; ValueError, naming a monomial of each, when the factors
    live in different numbers of variables.  Once per call, the last key of
    each factor is checked after the loop, where the loop has already read
    it: taking a key first would cost an iterator on every call, and the BGG
    build makes most of its calls with one-term factors.

    >>> poly_mul({(1, 0, 0): 1}, {(1, 0): 1})
    Traceback (most recent call last):
    ...
    ValueError: cannot multiply (1, 0, 0) by (1, 0): monomials in 3 and 2 variables
    """
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(map(add, ma, mb))
            s = out.get(m, 0) + ca * cb
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    if a and b and len(ma) != len(mb):
        raise ValueError(f"cannot multiply {ma!r} by {mb!r}: monomials in {len(ma)} and {len(mb)} variables")
    return out


def check_monomials(a: Poly, rank: int) -> None:
    """ValueError naming the first key of ``a`` that is no tuple of ``rank`` nonnegative ints."""
    for m in a:
        if type(m) is not tuple or len(m) != rank or not all(type(e) is int and e >= 0 for e in m):
            raise ValueError(f"{m!r} is not a monomial in {rank} variables")


def poly_degree(a: Poly) -> int | None:
    """Total degree, or None for the zero polynomial (must be homogeneous)."""
    degs = {sum(m) for m in a}
    if not degs:
        return None
    if len(degs) != 1:
        raise ValueError("polynomial is not homogeneous")
    return degs.pop()


def linear_poly(vec) -> Poly:
    """The linear form with the given lattice coordinates."""
    n = len(vec)
    out: Poly = {}
    for i, c in enumerate(vec):
        if c:
            m = tuple(1 if j == i else 0 for j in range(n))
            out[m] = Fraction(c)
    return out


def coeff_vector(a: Poly, rank: int, d: int) -> tuple[Fraction, ...]:
    """Coordinates of ``a`` over :func:`sym_basis` ``(rank, d)``; ValueError
    naming a key that is not a degree-d monomial in ``rank`` variables."""
    basis = sym_basis(rank, d)
    lookup = {m: i for i, m in enumerate(basis)}
    vec = [0] * len(basis)
    for m, c in a.items():
        if (i := lookup.get(m)) is None:
            raise ValueError(f"{m!r} is not a degree-{d} monomial in {rank} variables")
        vec[i] = c
    return tuple(vec)


def substitute(matrix: IntMatrix, a: Poly) -> Poly:
    """Act by the lattice map: variable x_i becomes sum_j matrix[j][i] x_j.

    This is the action induced on Sym(X) by the column action on X, so
    ``substitute(g, substitute(h, f)) == substitute(g @ h, f)``.  Along a
    lattice surjection q: X(T) -> X(T_H) it restricts polynomials to T_H.
    A key of another length than ``matrix.ncols`` raises ValueError naming it.

    >>> q = IntMatrix(((1, 1),))
    >>> substitute(q, {(1, 1): Fraction(1)})  # x*y with (a,b) -> a+b
    {(2,): Fraction(1, 1)}
    """
    n, ncols = matrix.nrows, matrix.ncols
    images = [{tuple(int(j == i) for j in range(n)): c for i, c in enumerate(matrix.column(k)) if c}
              for k in range(ncols)]
    out: Poly = {}
    for m, c in a.items():
        if len(m) != ncols:
            raise ValueError(f"{m!r} is not a monomial in {ncols} variables")
        term: Poly = {(0,) * n: c}
        for i, e in enumerate(m):
            for _ in range(e):
                term = poly_mul(term, images[i])
        out = poly_add(out, term)
    return out


def exact_divide_linear(a: Poly, linear: Poly) -> Poly:
    """Quotient a / linear when the division is exact; raises otherwise."""
    if not a:
        return {}
    if not linear:
        raise ZeroDivisionError("division by zero polynomial")
    # pivot variable: the first variable the linear form involves
    pvar = min(next(i for i, e in enumerate(m) if e) for m in linear)
    nvars = len(next(iter(linear)))
    pcoeff = linear[tuple(1 if j == pvar else 0 for j in range(nvars))]
    rem = dict(a)
    quo: Poly = {}
    while rem:
        m = max(rem, key=lambda mm: (mm[pvar], mm))
        if m[pvar] == 0:
            raise ValueError("polynomial is not divisible by the linear form")
        qm = tuple(e - (1 if i == pvar else 0) for i, e in enumerate(m))
        qc = rem[m] / pcoeff
        quo = poly_add(quo, {qm: qc})
        rem = poly_sub(rem, poly_mul({qm: qc}, linear))
    return quo


# ---------------------------------------------------------------------------
# Invariant slices and graded quotients
# ---------------------------------------------------------------------------


def invariant_slice(rank: int, generators, d: int) -> list[Poly]:
    """The Hermite basis of the integral degree-d invariants of the group
    the generators span, by the kernel routine of :func:`lattice.integer_kernel`.

    They are the polynomials of V = Sym^d that every generator s fixes, the
    kernel of the stacked rho_d(s) - 1, read off the generators alone at a
    cost independent of |G|: one polynomial per row of the kernel's row
    Hermite form, in its row order.  That lattice is saturated, so each
    polynomial has primitive integer coefficients; it is *a* basis of the
    invariants over Q, not the one Reynolds averaging gives.  In degree 1
    the stack is the one :func:`lattice.fixed_sublattice` reads, so over the
    group K of G/H the slice is X(H), basis for basis.  The fixed space
    needs no finite group, but its quotients are the rings wanted only for
    one, so callers bound the order first
    (``chow.homogeneous_rational_chow`` by ``rootdata.matrix_group_order``,
    ``schubert.coinvariant_ideal_generators`` checks |W| by formula).  The
    empty tuple gives the monomial basis of the whole degree-d slice.  A
    generator that is not ``rank`` x ``rank`` raises ValueError naming it.

    Memoized per ``(rank, tuple(generators), d)`` in a cache of
    ``lattice.CACHE_SIZE``, except for the empty tuple, whose monomials
    :func:`sym_basis` already caches; exceptions are never cached, and every
    call returns fresh dicts, so a caller that mutates them cannot change a
    later answer.

    >>> minus = IntMatrix(((-1,),))
    >>> [len(invariant_slice(1, [minus], d)) for d in range(4)]
    [1, 0, 1, 0]
    """
    gens = tuple(generators)
    if not gens:
        return [{m: Fraction(1)} for m in sym_basis(rank, d)]
    for g in gens:
        if g.shape != (rank, rank):
            raise ValueError(f"group matrix {g!r} is not {rank} x {rank}")
    return [dict(p) for p in _invariant_slice(rank, gens, d)]


@lru_cache(maxsize=CACHE_SIZE)
def _invariant_slice(rank: int, gens: tuple[IntMatrix, ...], d: int) -> tuple[Poly, ...]:
    """Memoized here, so the kernel skips the lattice cache, where an entry
    keyed by the whole stack could never hit and would evict a shared one."""
    basis = sym_basis(rank, d)
    n = len(basis)
    # images[k][j]: coordinates of rho_d(gens[k]) applied to monomial j
    images = _power_images(rank, gens, d)
    rows = tuple(tuple([img[j][t] - (j == t) for j in range(n)]) for img in images for t in range(n))
    fixed = _column_transform.__wrapped__(IntMatrix._from_int_rows(rows, n))[1]
    return tuple({m: Fraction(c) for m, c in zip(basis, v) if c} for v in fixed.rows)


def _power_images(rank: int, gens: tuple[IntMatrix, ...], d: int) -> list[list[list[int]]]:
    """Per generator g, the int coordinates of ``substitute(g, {m: 1})`` for
    each monomial m of :func:`sym_basis` ``(rank, d)``, stepped up degree by
    degree: the image of x^m is the image of x_j times that of x^(m - e_j),
    for j the first variable of m."""
    # per generator and variable j, the image of x_j as (t, coefficient of x_t) pairs
    linear = [[[(t, c) for t, c in enumerate(g.column(j)) if c] for j in range(rank)] for g in gens]
    images = [[[1]] for _ in gens]
    prev = {m: 0 for m in sym_basis(rank, 0)}  # monomial -> index, one degree down
    for e in range(1, d + 1):
        index = {m: i for i, m in enumerate(sym_basis(rank, e))}
        # times[b][t]: index of x_t times monomial b of degree e - 1
        times = [[index[m[:t] + (m[t] + 1,) + m[t + 1:]] for t in range(rank)] for m in prev]
        steps = []  # per monomial m of degree e: (j, index of x^(m - e_j))
        for m in index:
            j = next(i for i, x in enumerate(m) if x)
            steps.append((j, prev[m[:j] + (m[j] - 1,) + m[j + 1:]]))
        stepped = []
        for lin, lower in zip(linear, images):
            stepped.append([])
            for j, a in steps:
                vec = [0] * len(index)
                for b, c in enumerate(lower[a]):
                    if c:
                        row = times[b]
                        for t, gc in lin[j]:
                            vec[row[t]] += c * gc
                stepped[-1].append(vec)
        images, prev = stepped, index
    return images


def ideal_slice(rank: int, generators, d: int, group=()) -> SpanBuilder:
    """Degree-d piece of the ideal the generators span inside the invariants
    of ``group`` (all of Sym(Q^rank) for the empty tuple).

    Generators must be homogeneous of positive degree.  The slice is the span
    of g * a over generators g and :func:`invariant_slice` basis elements a
    of complementary degree, each product eliminated once into the returned
    :class:`SpanBuilder` (coordinates in :func:`sym_basis` order).

    >>> t2 = {(2,): Fraction(1)}
    >>> ideal_slice(1, [t2], 3).rows
    [[1]]
    >>> ideal_slice(1, [t2], 1).dim
    0
    >>> ideal_slice(1, [t2], 3, [IntMatrix(((-1,),))]).dim  # t^2 * t is no invariant of t -> -t
    0
    """
    builder = SpanBuilder(len(sym_basis(rank, d)))
    for g in generators:
        e = poly_degree(g)
        if e is None:
            continue
        if e < 1:
            raise ValueError("ideal generators must have positive degree")
        if e > d:
            continue
        for a in invariant_slice(rank, group, d - e):
            builder.add(coeff_vector(poly_mul(g, a), rank, d))
    return builder


def quotient_basis(rank: int, generators, d: int, group=()) -> list[Poly]:
    """The degree-d invariants of ``group`` independent modulo the ideal the
    generators span there (:func:`ideal_slice`), kept greedily in the order
    of :func:`invariant_slice`: a basis of the degree-d quotient.

    >>> quotient_basis(2, [{(1, 0): Fraction(1)}], 2)
    [{(0, 2): Fraction(1, 1)}]
    """
    builder = ideal_slice(rank, generators, d, group)
    return [p for p in invariant_slice(rank, group, d) if builder.add(coeff_vector(p, rank, d))]


class TruncatedQuotient(Record):
    """Graded quotient ambient/ideal, truncated at max_degree.

    ``dims`` and ``ambient_dims`` are the dimensions of the quotient and of
    the ambient algebra in degrees 0..max_degree.
    """

    rank: int
    max_degree: int
    dims: tuple[int, ...]
    ambient_dims: tuple[int, ...]

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @property
    def top_degree(self) -> int | None:
        """Largest degree with a nonzero slice, None if the quotient is 0."""
        nz = [d for d, k in enumerate(self.dims) if k]
        return nz[-1] if nz else None

    @property
    def vanishes_at_top(self) -> bool:
        """False means the truncation window may have cut off nonzero slices."""
        return self.dims[-1] == 0 if self.dims else True

    def to_json(self) -> dict:
        return {"max_degree": self.max_degree, "dims": self.dims,
                "ambient_dims": self.ambient_dims, "total_dim": self.total_dim}


def free_quotient(rank: int, ambient_degrees, ideal_degrees, max_degree: int) -> TruncatedQuotient:
    """Polynomial ring on generators of degrees e_j mod a regular sequence of degrees d_i:
    ``ambient_dims`` of prod_j 1/(1 - t^{e_j}), ``dims`` of that times prod_i (1 - t^{d_i}).
    A negative ``max_degree``, or a degree e_j or d_i below 1, raises ValueError.

    >>> free_quotient(1, (1,), (2,), 3).dims  # Q[t]/(t^2), as truncated_quotient finds
    (1, 1, 0, 0)
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be nonnegative, got {max_degree}")
    if min((*ambient_degrees, *ideal_degrees), default=1) < 1:
        raise ValueError(f"degrees must be positive, got {tuple(ambient_degrees)} and {tuple(ideal_degrees)}")
    ambient = [1] + [0] * max_degree
    for e in ambient_degrees:
        for k in range(e, max_degree + 1):
            ambient[k] += ambient[k - e]
    dims = list(ambient)
    for d in ideal_degrees:
        for k in range(max_degree, d - 1, -1):
            dims[k] -= dims[k - d]
    return TruncatedQuotient(rank, max_degree, tuple(dims), tuple(ambient))


def truncated_quotient(rank: int, generators: list[Poly], max_degree: int, group=()) -> TruncatedQuotient:
    """Quotient of the invariants of ``group`` (all of Sym(Q^rank) for the
    empty tuple) by the ideal the generators span, degreewise; callers bound
    the group's order first.  A negative ``max_degree``, a group matrix not
    rank x rank or a key that is no monomial raises ValueError naming it.

    >>> t = {(2,): Fraction(1)}
    >>> truncated_quotient(1, [t], 3).dims
    (1, 1, 0, 0)
    >>> truncated_quotient(1, [t], 3, [IntMatrix(((-1,),))]).dims  # even degrees only
    (1, 0, 0, 0)
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be nonnegative, got {max_degree}")
    for p in generators:
        check_monomials(p, rank)
    dims = tuple(len(quotient_basis(rank, generators, d, group)) for d in range(max_degree + 1))
    ambient_dims = tuple(len(invariant_slice(rank, group, d)) for d in range(max_degree + 1))
    return TruncatedQuotient(rank, max_degree, dims, ambient_dims)
