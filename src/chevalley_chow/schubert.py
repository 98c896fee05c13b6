"""Chow ring of the flag variety of a reductive datum.

Schubert classes are indexed by Weyl elements (their position in the
breadth-first enumeration); the codegree of sigma_w is length(w).  A
divisor multiplies by the closed Chevalley formula (:func:`chevalley_multiply`),
any two classes through their BGG representatives in the coinvariant algebra
(:func:`schubert_product`).

Both read one Bruhat-cover table per root datum (:func:`_covers`): for each
w, the w s_beta one step longer, found by their points in the orbit of
2rho^vee (``WeylGroup.index``).  A divisor product sums one row
(:func:`_chevalley_sum`).  So does a product whose shorter class has length
1, its BGG representative being a linear form; one whose shorter class has
length 0 is the other class.  The Schubert coordinates of the degree-d monomials
are built from degree d - 1 by one Chevalley step each
(:func:`_coordinate_map`): an integer matrix, with no coinvariant ideal and
no elimination.  A product of two longer classes scatters the products of
the terms of their BGG representatives, kept once as integer tuples
(:func:`_representative_table`), into one integer vector through a table of
monomial positions (:func:`_product_positions`), and applies that matrix.
The ideal serves G/H alone
(:func:`coinvariant_ideal_generators`); the tests reduce modulo it as an oracle.
Each public function refuses |W| past its ``cap`` first, by the order
formula; the cached builders take no cap, so one entry serves every cap.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import add, mul

from ._record import Record
from .errors import NonIntegralStructureConstant
from .invariants import (
    Poly,
    check_monomials,
    coeff_vector,
    exact_divide_linear,
    free_quotient,
    linear_poly,
    poly_degree,
    poly_mul,
    poly_sub,
    quotient_basis,
    substitute,
    sym_basis,
)
from .lattice import CACHE_SIZE, DATUM_CACHE_SIZE, DEFAULT_CAP
from .rootdata import (
    RootDatum, _weyl_group, _weyl_order, root_system, simple_reflection, validate_root_datum, weyl_group)


class SchubertClass(Record):
    index: int      # position in the Weyl enumeration
    codegree: int   # = length of the Weyl element


class SchubertExpansion(Record):
    """Homogeneous element of the flag Chow ring in the Schubert basis."""

    codegree: int
    terms: dict[int, Fraction]  # weyl index -> nonzero coefficient

    def integral_terms(self) -> dict[int, int]:
        out = {}
        for idx, c in self.terms.items():
            if Fraction(c).denominator != 1:
                raise NonIntegralStructureConstant(f"coefficient {c} at class {idx}")
            out[idx] = int(c)
        return out

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def to_json(self) -> dict:
        return {"codegree": self.codegree, "terms": dict(sorted(self.terms.items()))}


def schubert_basis(rd: RootDatum, cap: int = DEFAULT_CAP) -> tuple[SchubertClass, ...]:
    """One class per Weyl element, in enumeration order (codegrees ascending).

    >>> from .lattice import IntMatrix
    >>> a1 = RootDatum(1, IntMatrix(((2,),)), IntMatrix(((1,),)))
    >>> [c.codegree for c in schubert_basis(a1)]
    [0, 1]
    """
    w = weyl_group(rd, cap=cap)
    return tuple(SchubertClass(i, w.lengths[i]) for i in range(len(w)))


def codegree_histogram(rd: RootDatum, cap: int = DEFAULT_CAP) -> tuple[int, ...]:
    """#{w : length(w) = d} for each d; by Chevalley, the coinvariant dimensions.

    Read off the Cartan type, not W: the product of 1 + t + ... + t^(d - 1)
    over the degrees d of W (Chevalley; Solomon), as ``free_quotient`` gives it
    up to its top degree.  ``|W| > cap`` is still refused (GroupTooLarge)."""
    _weyl_order(rd, cap)
    degrees = validate_root_datum(rd).degrees
    return free_quotient(rd.rank, (1,) * rd.rank, degrees, sum(degrees) - rd.rank).dims


def chevalley_multiply(rd: RootDatum, lam, w_index: int, cap: int = DEFAULT_CAP) -> SchubertExpansion:
    """Divisor class of the character ``lam`` times sigma_w.

    The closed formula: sum over positive roots beta with
    length(w s_beta) = length(w) + 1 of <lam, beta^vee> sigma_{w s_beta}.
    ValueError unless ``lam`` has ``rank`` integral entries and 0 <= w_index < |W| (no bool).

    >>> from .lattice import IntMatrix
    >>> a1 = RootDatum(1, IntMatrix(((2,),)), IntMatrix(((1,),)))
    >>> chevalley_multiply(a1, (1,), 0).terms
    {1: Fraction(1, 1)}
    """
    w = weyl_group(rd, cap=cap)
    lam = tuple(lam)
    if not all(type(x) is int or isinstance(x, Fraction) and x.denominator == 1 for x in lam):
        raise ValueError(f"character {lam!r} has an entry that is not an integer")
    if len(lam) != rd.rank:
        raise ValueError(f"character has {len(lam)} entries, the rank is {rd.rank}")
    if not (type(w_index) is int and 0 <= w_index < len(w)):
        raise ValueError(f"Weyl index {w_index} is outside [0, {len(w)})")
    lam = tuple(map(int, lam))
    length = w.lengths[w_index]
    row = _covers(rd, length)[w_index - bisect_left(w.lengths, length)]
    return SchubertExpansion(length + 1, {idx: Fraction(c) for idx, c in _chevalley_sum(lam, row)})


def _chevalley_sum(lam, row) -> list[tuple[int, int]]:
    """The pairs (index of w s_beta, <lam, beta^vee>) with a nonzero pairing,
    over one row of :func:`_covers`, in its order: lam times sigma_w."""
    return [(idx, c) for idx, coroot in row if (c := sum(map(mul, lam, coroot)))]


#: one BGG representative: the positions of its monomials in
#: ``sym_basis(rank, length)`` and its coefficients times the table's scale
Packed = tuple[tuple[int, ...], tuple[int, ...]]


@lru_cache(maxsize=DATUM_CACHE_SIZE)
def _representative_table(rd: RootDatum, /) -> tuple[tuple[Packed, ...], int, tuple[int, ...], list, list]:
    """``(reps, scale, lengths, maps, covers)``: the BGG representatives P_w
    in Sym X(T)_Q, one per Weyl element, each held once as a pair of int
    tuples (:data:`Packed`), ascending positions in ``sym_basis(rank,
    length(w))`` and the coefficients times ``scale``, the lcm of all their
    denominators; ``WeylGroup.lengths``, so that a product reads W off this
    one entry; ``maps``, by degree, the :func:`_coordinate_map` entry the
    products of that degree read; and ``covers``, by length, the
    :func:`_covers` entry the divisor products read.  Each of the last two
    is stored by the first product that reads it, so that a warm product
    probes no second cache keyed by the root datum.  A representative of
    length 1 is a linear form, its positions the variables it has.

    P_{w0} is the product of the positive roots over |W|; going down,
    P_v = divided_difference_i(P_{v s_i}) for the least i ascending v.  The
    identity must come out as the constant 1, which is asserted.

    >>> from .lattice import IntMatrix
    >>> a2 = RootDatum(2, IntMatrix(((2, -1), (-1, 2))), IntMatrix.identity(2))
    >>> reps, scale, lengths, maps, covers = _representative_table(a2)
    >>> scale, reps[1], reps[3]  # x0, and (-x0^2 + x0 x1 + 2 x1^2) / 3, times 6
    (6, ((0,), (6,)), ((0, 1, 2), (-2, 2, 4)))
    """
    w = _weyl_group(rd)
    rs = root_system(rd)
    n = rd.rank
    reps: list[Poly | None] = [None] * len(w)
    top: Poly = {(0,) * n: Fraction(1, len(w))}
    for root in rs.positive:
        top = poly_mul(top, linear_poly(root.vector))
    order = sorted(range(len(w)), key=lambda i: -w.lengths[i])
    reps[order[0]] = top
    simple_linears = [linear_poly(rd.simple_roots.rows[i]) for i in range(rd.nsimple)]
    for pos in order[1:]:
        mu = w.orbit[pos]
        # w s_i is one longer exactly when <mu, alpha_i> > 0, and built already
        i, k = next((i, k) for i, alpha in enumerate(rd.simple_roots.rows) if (k := rd.pairing(mu, alpha)) > 0)
        f = reps[w.index[tuple(x - k * y for x, y in zip(mu, rd.simple_coroots.rows[i]))]]
        reps[pos] = exact_divide_linear(poly_sub(f, substitute(w.generators[i], f)), simple_linears[i])
    assert reps[0] == {(0,) * n: Fraction(1)}, f"degree-0 representative came out as {reps[0]}"
    scale = lcm(*(c.denominator for p in reps for c in p.values()))
    top_degree = w.lengths[-1]
    position = [{m: k for k, m in enumerate(sym_basis(n, d))} for d in range(top_degree + 1)]
    packed = tuple(
        tuple(zip(*sorted((position[length][m], c.numerator * (scale // c.denominator)) for m, c in p.items())))
        for p, length in zip(reps, w.lengths)
    )
    return packed, scale, w.lengths, [None] * (top_degree + 1), [None] * (top_degree + 1)


def schubert_representatives(rd: RootDatum, max_degree: int | None = None, cap: int = DEFAULT_CAP) -> dict[int, Poly]:
    """Coinvariant-algebra representatives, keyed by Weyl index.

    Only classes of codegree <= max_degree are returned when a bound is given.
    The polynomials are fresh Fraction dicts, rebuilt from the cached integer
    table on each call, so a caller that mutates them changes no later product.
    """
    _weyl_order(rd, cap)
    reps, scale, lengths, _, _ = _representative_table(rd)
    out = {}
    for i, (positions, coeffs) in enumerate(reps):
        if max_degree is None or lengths[i] <= max_degree:
            basis = sym_basis(rd.rank, lengths[i])
            out[i] = {basis[k]: Fraction(c, scale) for k, c in zip(positions, coeffs)}
    return out


def coinvariant_ideal_generators(rd: RootDatum, max_degree: int, cap: int = DEFAULT_CAP) -> list[Poly]:
    """W-invariants of degrees 1..max_degree generating the coinvariant ideal up to that degree.

    They are the minimal generators :func:`_coinvariant_reducer` keeps (GL2
    up to degree 20: 2, not 120), returned as fresh dicts; their degrees and
    ideal are fixed, the choice follows the slice bases.  The basic
    invariants have the degrees of W's Cartan type, so all ``rank`` are
    found by the top one: one reducer call, at the lesser of ``max_degree``
    and that degree.  A Weyl group past ``cap`` is refused up front from the
    order formula of its Cartan type (:class:`GroupTooLarge`); the slices
    are the fixed spaces of the simple reflections (:func:`invariant_slice`),
    so W is never enumerated here.
    """
    degree = 0
    if max_degree > 0:
        if rd.nsimple:
            _weyl_order(rd, cap)
        degree = min(max_degree, max(validate_root_datum(rd).degrees, default=0))
    return [dict(g) for g in _coinvariant_reducer(rd, degree)]


@lru_cache(maxsize=CACHE_SIZE)
def _coinvariant_reducer(rd: RootDatum, d: int, /) -> tuple[Poly, ...]:
    """Minimal generators of the coinvariant ideal in degrees 1..d.

    Extends the result for d - 1 by the degree-d W-invariants independent
    modulo the ideal the kept generators span in S^W (:func:`quotient_basis`
    over the simple reflections): the choice made in all of S, since by
    Reynolds a W-invariant is in (g_i)S iff it is in (g_i)S^W.  The ideal has
    ``rank`` minimal generators (Chevalley), so no slice is asked for once
    that many are kept.  The caller bounds |W| first.
    """
    gens = _coinvariant_reducer(rd, d - 1) if d > 1 else ()
    if 0 < d and len(gens) < rd.rank:
        refl = tuple(simple_reflection(rd, i) for i in range(rd.nsimple))
        gens += tuple(quotient_basis(rd.rank, gens, d, refl))
    return gens


@lru_cache(maxsize=CACHE_SIZE)
def _covers(rd: RootDatum, length: int, /) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]:
    """For each Weyl element w of this length, in index order, the pairs
    (index of w s_beta, beta^vee) with length(w s_beta) = length + 1.  With mu
    the orbit point of w, w s_beta is at mu - <mu, beta> beta^vee and is longer
    iff <mu, beta> > 0.
    """
    w = _weyl_group(rd)
    positive = root_system(rd).positive
    rows = []
    for mu in w.orbit[bisect_left(w.lengths, length):bisect_right(w.lengths, length)]:
        row = []
        for root in positive:
            if (k := sum(map(mul, mu, root.vector))) > 0:
                idx = w.index[tuple([x - k * y for x, y in zip(mu, root.coroot)])]
                if w.lengths[idx] == length + 1:
                    row.append((idx, root.coroot))
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=CACHE_SIZE)
def _coordinate_map(rd: RootDatum, d: int, /) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """``(indices, rows)``: modulo the coinvariant ideal, a degree-d
    coefficient vector v is the sum of ``(row . v)`` P_w, w in ``indices``.

    Column m is the expansion of x^m = x_j x^(m - e_j), x_j the first variable
    of m: x_j P_u is the sum of <e_j, beta^vee> P_{u s_beta} over the covers
    of u (:func:`_covers`), so the entries are integers.

    >>> from .lattice import IntMatrix
    >>> a2 = RootDatum(2, IntMatrix(((2, -1), (-1, 2))), IntMatrix.identity(2))
    >>> _coordinate_map(a2, 2)  # x0 x1 = P_s0 P_s1 is P_3 + P_4
    ((3, 4), ((0, 1, 1), (1, 1, 0)))
    """
    if d == 0:
        return (0,), ((1,),)  # x^0 = 1 = P_e
    w = _weyl_group(rd)
    start, end = bisect_left(w.lengths, d), bisect_right(w.lengths, d)
    prev = _coordinate_map(rd, d - 1)[1] if d > 1 else ((1,),)
    position = {m: k for k, m in enumerate(sym_basis(rd.rank, d - 1))}
    covers = _covers(rd, d - 1)
    cols = []
    for m in sym_basis(rd.rank, d):
        j = next(i for i, e in enumerate(m) if e)
        k = position[(*m[:j], m[j] - 1, *m[j + 1:])]
        col = [0] * (end - start)
        for row, cover in zip(prev, covers):
            if c := row[k]:
                for idx, coroot in cover:
                    col[idx - start] += c * coroot[j]
        cols.append(col)
    return tuple(range(start, end)), tuple(zip(*cols))


def expand_in_schubert_basis(rd: RootDatum, poly: Poly, d: int, cap: int = DEFAULT_CAP) -> SchubertExpansion:
    """Write a degree-d polynomial, mod the coinvariant ideal, in the P_w.

    The coordinates come from one cached integer map per degree
    (:func:`_coordinate_map`).  Above degree N = |positive roots| the answer
    is zero without any reduction: the coinvariant algebra vanishes there
    (Chevalley).  Raises ValueError when a key is not a tuple of ``rank``
    nonnegative ints, naming it, or the polynomial is not homogeneous of degree d.
    """
    w = weyl_group(rd, cap=cap)
    check_monomials(poly, rd.rank)
    if poly_degree(poly) not in (None, d):
        raise ValueError(f"polynomial is not homogeneous of degree {d}")
    if d > w.lengths[-1]:  # the longest element has length N
        return SchubertExpansion(d, {})
    indices, rows = _coordinate_map(rd, d)
    vec = coeff_vector(poly, rd.rank, d)
    coords = (sum(map(mul, row, vec)) for row in rows)
    return SchubertExpansion(d, {idx: Fraction(c) for idx, c in zip(indices, coords) if c})


@lru_cache(maxsize=CACHE_SIZE)
def _product_positions(rank: int, a: int, b: int, /) -> tuple[tuple[int, ...], ...]:
    """Row i, column j: the position of x^m x^n in ``sym_basis(rank, a + b)``,
    for x^m the i-th monomial of degree a and x^n the j-th of degree b.

    >>> _product_positions(2, 1, 1)  # x0 x0, x0 x1 and x1 x0, x1 x1 among x0^2, x0 x1, x1^2
    ((0, 1), (1, 2))
    """
    position = {m: k for k, m in enumerate(sym_basis(rank, a + b))}
    right = sym_basis(rank, b)
    return tuple(tuple([position[tuple(map(add, m, r))] for r in right]) for m in sym_basis(rank, a))


def schubert_product(rd: RootDatum, w1: int, w2: int, cap: int = DEFAULT_CAP) -> SchubertExpansion:
    """sigma_{w1} * sigma_{w2}: by the Chevalley rule when the shorter class
    has length at most 1, else by coinvariant multiplication.

    With u the shorter class and v the other: for length(u) = 0, P_u = 1 and
    the product is sigma_v.  For length(u) = 1, P_u is a linear form lam
    over the table's scale (:func:`_representative_table`), and the product
    is the sum of <lam, beta^vee> sigma_{v s_beta} over the covers of v
    (:func:`_covers`), divided by the scale.  Otherwise every product of a
    term of P_u and a term of P_v, integer coefficients over one scale, is
    added into one integer vector at the position
    :func:`_product_positions` gives its monomial; each row of
    :func:`_coordinate_map` dotted with that vector is a coordinate.  The
    structure constants must come out nonnegative integers; anything else
    raises :class:`NonIntegralStructureConstant` (it would mean a bug, not
    bad input).  Terms come in ascending index order.  An index that is not
    an integer in [0, |W|), or a bool, raises ValueError.  |W| past ``cap``
    is refused first by the order formula (:class:`GroupTooLarge`).

    >>> from .lattice import IntMatrix
    >>> a1 = RootDatum(1, IntMatrix(((2,),)), IntMatrix(((1,),)))
    >>> schubert_product(a1, 1, 1).terms
    {}
    >>> sl3 = RootDatum(2, IntMatrix(((2, -1), (-1, 2))), IntMatrix.identity(2))
    >>> schubert_product(sl3, 1, 2).terms  # sigma_s0 sigma_s1 = sigma_s0s1 + sigma_s1s0
    {3: Fraction(1, 1), 4: Fraction(1, 1)}
    """
    _weyl_order(rd, cap)
    reps, scale, lengths, maps, covers = _representative_table(rd)
    if not (type(w1) is int and type(w2) is int and 0 <= w1 < len(lengths) and 0 <= w2 < len(lengths)):
        raise ValueError(f"Weyl indices ({w1!r}, {w2!r}) are not both integers in [0, {len(lengths)})")
    short, long = (w1, w2) if lengths[w1] <= lengths[w2] else (w2, w1)
    length = lengths[long]
    d = lengths[short] + length
    if d > lengths[-1]:
        return SchubertExpansion(d, {})
    if d == length:  # P_e = 1
        return SchubertExpansion(d, {long: Fraction(1)})
    if d == length + 1:
        if (rows := covers[length]) is None:
            rows = covers[length] = _covers(rd, length)
        lam = [0] * rd.rank
        for k, c in zip(*reps[short]):
            lam[k] = c
        totals = sorted(_chevalley_sum(lam, rows[long - bisect_left(lengths, length)]))
        den = scale
    else:
        if (cmap := maps[d]) is None:
            cmap = maps[d] = _coordinate_map(rd, d)
        indices, rows = cmap
        (left, lcoeffs), (right, rcoeffs) = reps[short], reps[long]
        where = _product_positions(rd.rank, lengths[short], length)
        vec = [0] * len(rows[0])
        for i, c in zip(left, lcoeffs):
            row = where[i]
            for j, e in zip(right, rcoeffs):
                vec[row[j]] += c * e
        totals = zip(indices, [sum(map(mul, row, vec)) for row in rows])
        den = scale * scale
    terms: dict[int, Fraction] = {}
    for idx, total in totals:
        c, rem = divmod(total, den)
        if rem or c < 0:
            raise NonIntegralStructureConstant(
                f"sigma_{w1} * sigma_{w2} has coefficient {Fraction(total, den)} at class {idx}"
            )
        if c:
            terms[idx] = Fraction(c)
    return SchubertExpansion(d, terms)
