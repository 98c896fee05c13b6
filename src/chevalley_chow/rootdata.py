"""Reductive root data: validation, Weyl groups, characters, Pic(G_aff).

A :class:`RootDatum` is the finite descriptor of a connected reductive group
``G_aff`` (up to its unipotent radical, which is tracked only as a
dimension): the character lattice X(T) = Z^rank with chosen simple roots and
simple coroots.  The fixed simple system plays the role of a Borel subgroup.

Validation classifies the Cartan matrix; a datum whose diagram is of finite
type has independent simple roots and coroots, so they are ranked only when
the diagram is refused.  The positive roots are closed upward from the
simple ones, and no negative root is built.

W is enumerated once, as the orbit of 2rho^vee in Y(T): 2rho^vee is regular,
so the point 2rho^vee w names w, and w s_beta is found from it by O(rank)
integer work.  The scans that need Weyl matrices (column action on X(T)
coordinates) build them lazily along the same walk.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from operator import add, mul, sub

from ._record import Record
from .errors import GroupTooLarge, InvalidCartan
from .lattice import (
    CACHE_SIZE,
    DATUM_CACHE_SIZE,
    DEFAULT_CAP,
    FGAbelianGroup,
    IntMatrix,
    Presentation,
    Vec,
    coordinates,
    enumerate_matrix_group,
    hermite_row_basis,
    integer_kernel,
)
from .qlinalg import qsolve

#: the degrees of the basic Weyl invariants of each irreducible type, as a
#: function of the rank (Bourbaki, *Lie*, ch. V, section 6; |W| is their product)
_DEGREES = {
    "A": lambda n: tuple(range(2, n + 2)),
    "B": lambda n: tuple(range(2, 2 * n + 1, 2)),
    "C": lambda n: tuple(range(2, 2 * n + 1, 2)),
    "D": lambda n: tuple(sorted((*range(2, 2 * n - 1, 2), n))),
    "G": lambda n: (2, 6),
    "F": lambda n: (2, 6, 8, 12),
    "E": lambda n: {6: (2, 5, 6, 8, 9, 12), 7: (2, 6, 8, 10, 12, 14, 18), 8: (2, 8, 12, 14, 18, 20, 24, 30)}[n],
}


class RootDatum(Record):
    """Character lattice Z^rank with simple roots and coroots as rows.

    ``u_rad`` is the dimension of the unipotent radical, bookkeeping only;
    no formula in this package looks past the reductive quotient.

    Every process cache is keyed by the root datum.  Parsing the same bytes
    again returns the same datum, found by identity; an equal datum from
    other input compares by one comparison of plain int tuples (``_key``,
    built with the datum), not field by field through :class:`IntMatrix`.
    """

    rank: int
    simple_roots: IntMatrix
    simple_coroots: IntMatrix
    u_rad: int = 0

    def __post_init__(self):
        if self.rank < 0 or self.u_rad < 0:
            raise ValueError("rank and u_rad must be nonnegative")
        if self.simple_roots.nrows != self.simple_coroots.nrows:
            raise ValueError("need equally many roots and coroots")
        for mat, what in ((self.simple_roots, "roots"), (self.simple_coroots, "coroots")):
            if mat.ncols != self.rank:
                raise ValueError(f"simple {what} must live in Z^{self.rank}")
        # the rank fixes the width of the rows, so these four determine the datum
        object.__setattr__(self, "_key", (self.rank, self.u_rad, self.simple_roots.rows, self.simple_coroots.rows))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """Hashed once, on the first cache probe, so that building a datum
        costs no pass over its entries.  The entries are doubled first:
        hash(-1) == hash(-2), so the raw entries would hash A3 like C3."""
        return hash((self.rank, self.u_rad, *[2 * x for row in self.simple_roots.rows + self.simple_coroots.rows
                                              for x in row]))

    @property
    def nsimple(self) -> int:
        return self.simple_roots.nrows

    @cached_property
    def weyl_order(self) -> int:
        """|W|, the product of the Cartan type's degrees, kept on the datum:
        every public call refuses its cap by it with no cache lookup."""
        return validate_root_datum(self).weyl_order

    def pairing(self, chi, coroot) -> int | Fraction:
        """<chi, beta^vee> for a character and a coroot, both coordinate tuples;
        exact, so a rational character pairs to a rational number.

        >>> sl2 = RootDatum(1, IntMatrix(((2,),)), IntMatrix(((1,),)))
        >>> sl2.pairing((Fraction(1, 2),), (2,)), sl2.pairing((3,), (1,))
        (Fraction(1, 1), 3)
        """
        return sum(map(mul, chi, coroot))


class CartanComponent(Record):
    letter: str
    rank: int
    nodes: tuple[int, ...]

    @property
    def degrees(self) -> tuple[int, ...]:
        """Degrees of the basic invariants of the Weyl group, ascending."""
        return _DEGREES[self.letter](self.rank)

    def __str__(self):
        return f"{self.letter}{self.rank}"


class CartanType(Record):
    """Classification report: irreducible components plus the central torus rank."""

    components: tuple[CartanComponent, ...]
    torus_rank: int

    @property
    def degrees(self) -> tuple[int, ...]:
        """The ``rank`` degrees of the basic Weyl invariants of Sym X(T)_Q,
        ascending: each component's, and 1 per central direction."""
        return tuple(sorted((1,) * self.torus_rank + sum((c.degrees for c in self.components), ())))

    @property
    def weyl_order(self) -> int:
        """|W|, the product of the degrees."""
        return math.prod(self.degrees)

    def describe(self) -> str:
        parts = [str(c) for c in self.components]
        if self.torus_rank:
            parts.append(f"T{self.torus_rank}")
        return " x ".join(parts) if parts else "trivial"

    def __str__(self):
        return self.describe()


def cartan_matrix(rd: RootDatum) -> IntMatrix:
    """C[i][j] = <alpha_i, alpha_j^vee>: the simple roots times the transposed simple coroots."""
    return rd.simple_roots @ rd.simple_coroots.transpose()


def _classify_component(c, nodes, weight):
    """Type of one connected diagram on ``nodes``; raises InvalidCartan."""
    n = len(nodes)
    edges = [(i, j) for i in nodes for j in nodes if i < j and weight(i, j)]
    deg = {i: sum(1 for a, b in edges if i in (a, b)) for i in nodes}
    if len(edges) != n - 1:
        raise InvalidCartan(f"diagram on nodes {nodes} has a cycle")
    triple = [(i, j) for i, j in edges if weight(i, j) == 3]
    double = [(i, j) for i, j in edges if weight(i, j) == 2]
    if triple:
        if n == 2 and not double:
            return CartanComponent("G", 2, tuple(nodes))
        raise InvalidCartan(f"triple bond in a diagram of size {n} is not finite type")
    if len(double) > 1:
        raise InvalidCartan("more than one double bond in a component")
    if double:
        if any(deg[i] > 2 for i in nodes):
            raise InvalidCartan("double bond with a branch node")
        a, b = double[0]
        if n == 2:
            return CartanComponent("B", 2, tuple(nodes))
        if deg[a] == 2 and deg[b] == 2:
            if n != 4:
                raise InvalidCartan("interior double bond only occurs in rank 4 (F4)")
            return CartanComponent("F", 4, tuple(nodes))
        leaf, mid = (a, b) if deg[a] == 1 else (b, a)
        if c[mid][leaf] == -2:
            return CartanComponent("B", n, tuple(nodes))  # leaf root is short
        if c[leaf][mid] == -2:
            return CartanComponent("C", n, tuple(nodes))
        raise InvalidCartan(f"double bond pairing ({c[leaf][mid]}, {c[mid][leaf]}) is not finite type")
    # simply laced
    if all(deg[i] <= 2 for i in nodes):
        return CartanComponent("A", n, tuple(nodes))
    branch = [i for i in nodes if deg[i] >= 3]
    if len(branch) != 1 or deg[branch[0]] != 3:
        raise InvalidCartan("diagram branches more than D/E allow")
    center = branch[0]
    arms = []
    adjacency = {i: [j for j in nodes if j != i and weight(i, j)] for i in nodes}
    for start in adjacency[center]:
        length, prev, cur = 1, center, start
        while True:
            nxt = [j for j in adjacency[cur] if j != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[0] == 1 and arms[1] == 1:
        return CartanComponent("D", n, tuple(nodes))
    if arms[:2] == [1, 2] and arms[2] in (2, 3, 4):
        return CartanComponent("E", n, tuple(nodes))
    raise InvalidCartan(f"branching arms {tuple(arms)} are not finite type")


@lru_cache(maxsize=DATUM_CACHE_SIZE)
def validate_root_datum(rd: RootDatum) -> CartanType:
    """Classify the datum into irreducible Cartan components.

    Raises :class:`InvalidCartan` naming the violated condition: first the
    entries of the Cartan matrix C, then linear dependence of the simple
    roots, then of the simple coroots, then the diagram.  Independence is
    checked by Hermite forms only when the diagram is not of finite type:
    C = (simple roots)(simple coroots)^T, and a finite-type Cartan matrix is
    nonsingular (Bourbaki, *Lie*, ch. VI, section 4), so a classified datum
    has both sets of rows independent already.

    >>> sl2 = RootDatum(1, IntMatrix(((2,),)), IntMatrix(((1,),)))
    >>> validate_root_datum(sl2).describe()
    'A1'
    """
    k = rd.nsimple
    c = cartan_matrix(rd).rows
    _check_entries(c)
    try:
        components = _classify(c)
    except InvalidCartan:
        if hermite_row_basis(rd.simple_roots).nrows != k:
            raise InvalidCartan("simple roots are linearly dependent") from None
        if hermite_row_basis(rd.simple_coroots).nrows != k:
            raise InvalidCartan("simple coroots are linearly dependent") from None
        raise
    return CartanType(components, rd.rank - k)


def _check_entries(c) -> None:
    """Raise :class:`InvalidCartan` at the first entry of ``c`` (rows) no finite type allows."""
    k = len(c)
    for i in range(k):
        if c[i][i] != 2:
            raise InvalidCartan(f"<alpha_{i}, alpha_{i}^vee> = {c[i][i]} must equal 2")
        for j in range(k):
            if i == j:
                continue
            if c[i][j] > 0:
                raise InvalidCartan(f"<alpha_{i}, alpha_{j}^vee> = {c[i][j]} must be <= 0")
            if (c[i][j] == 0) != (c[j][i] == 0):
                raise InvalidCartan(f"pairing of roots {i}, {j} vanishes on one side only")
            if c[i][j] * c[j][i] > 3:
                raise InvalidCartan(f"bond {i}-{j} has product {c[i][j] * c[j][i]} > 3")


def _classify(c) -> tuple[CartanComponent, ...]:
    """The irreducible components of the Cartan matrix ``c`` (rows), whose
    entries :func:`_check_entries` has passed, in the order of their nodes;
    raises :class:`InvalidCartan` for a diagram not of finite type."""
    k = len(c)

    def weight(i, j):
        return c[i][j] * c[j][i]

    remaining = set(range(k))
    components = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        frontier = [seed]
        while frontier:
            i = frontier.pop()
            for j in range(k):
                if j not in comp and weight(i, j):
                    comp.add(j)
                    frontier.append(j)
        remaining -= comp
        components.append(_classify_component(c, sorted(comp), weight))
    return tuple(components)  # each seeded at its least node, so in node order


def reflection(vec, cov) -> IntMatrix:
    """Matrix of x |-> x - <x, cov> vec (column action).

    With (vec, cov) a root and its coroot this is the reflection of X(T);
    swapped, it is the same reflection acting on the dual lattice Y(T).

    >>> reflection((2,), (1,)).rows
    ((-1,),)
    """
    n = len(vec)
    return IntMatrix(
        tuple(tuple((1 if r == c else 0) - vec[r] * cov[c] for c in range(n)) for r in range(n)),
        n,
    )


def matrix_group_order(gens, cap: int = DEFAULT_CAP) -> int:
    """Order of the group the integer matrices ``gens`` generate.

    When every generator is a reflection x |-> x - <x, a^vee> a and the
    pairs (a, a^vee), cut to their base when closed under one another and
    signed so that the pairings are <= 0, form a root datum, the group is
    that datum's Weyl group (Chevalley; Coxeter: Humphreys, *Reflection
    Groups and Coxeter Groups*, 1990, sections 1-2), and its order is read
    off the Cartan type with no element built.  Any other set is closed by
    :func:`~chevalley_chow.lattice.enumerate_matrix_group`, with all its
    refusals: ValueError for generators that are not square of one size or
    not invertible over Z, :class:`GroupTooLarge` for an infinite group.
    Either way an order past ``cap`` raises :class:`GroupTooLarge` with the
    closure's message.  Memoized per ``(tuple(gens), cap)`` in a cache of
    ``lattice.CACHE_SIZE``, the one memo of a finite group in the package
    (the closure keeps none), together with the Cartan type's degrees
    (:func:`invariant_degrees`); exceptions are never cached.  No generators
    generate the trivial group, of order 1.

    >>> matrix_group_order(())
    1
    >>> swap = IntMatrix(((0, 1), (1, 0)))  # a reflection: the order formula
    >>> matrix_group_order([swap])
    2
    >>> rot6 = IntMatrix(((0, -1), (1, 1)))  # a rotation: the closure
    >>> matrix_group_order([rot6])
    6
    """
    return _matrix_group_order(tuple(gens), cap)[0]


def invariant_degrees(gens, cap: int = DEFAULT_CAP) -> tuple[int, ...] | None:
    """Degrees e_j of the basic invariants, one per coordinate, of the group
    the nonempty ``gens`` generate, when :func:`matrix_group_order` reads it
    as a Weyl group, whose invariants are then polynomial with Hilbert series
    prod_j 1/(1 - t^{e_j}) (Chevalley); None for a group it closes instead.
    Refuses as :func:`matrix_group_order` does, off the same memo.

    >>> invariant_degrees([IntMatrix(((0, 1), (1, 0)))])  # the swap: x + y and xy
    (1, 2)
    >>> invariant_degrees([IntMatrix(((0, -1), (1, 1)))]) is None  # a rotation
    True
    """
    return _matrix_group_order(tuple(gens), cap)[1]


@lru_cache(maxsize=CACHE_SIZE)
def _matrix_group_order(gens: tuple[IntMatrix, ...], cap: int, /) -> tuple[int, tuple[int, ...] | None]:
    """``(order, degrees)``: the recognized Cartan type's degrees, or None."""
    if not gens:
        return 1, None
    ctype = _reflection_type(gens)
    if ctype is None:
        return len(enumerate_matrix_group(gens, cap)), None
    if ctype.weyl_order > cap:
        raise GroupTooLarge(f"matrix group exceeds cap {cap}")
    return ctype.weyl_order, ctype.degrees


def _reflection_type(gens: tuple[IntMatrix, ...]) -> CartanType | None:
    """Cartan type of the root datum whose Weyl group ``gens`` generate, or
    None when they are neither its simple reflections nor closed.

    Each g must be x |-> x - <x, a^vee> a: a is the primitive vector of the
    first nonzero column of 1 - g, a^vee is row i of 1 - g divided by a_i
    (a_i the first nonzero entry of a), and 1 - g must be the outer product
    of a and a^vee, so that g is :func:`reflection` ``(a, a^vee)``; a pair
    and its negative give the same g.  Each a^vee so found is lex-positive
    (first nonzero entry > 0), which puts the a in one positive system.
    When each g sends each pair to +-(a pair), the roots +-a form a root
    system, cut to its base: the a that are not the sum of two (Humphreys,
    *Reflection Groups and Coxeter Groups*, 1.3-1.5), whose reflections
    generate the same group.  A breadth-first walk over the nonzero
    pairings signs the pairs to make them <= 0; the checks and classifier of
    :func:`validate_root_datum` take their Cartan matrix, with no datum built.
    """
    if not gens or any(g.shape != (gens[0].nrows,) * 2 for g in gens):
        return None
    n = gens[0].nrows
    one = IntMatrix.identity(n).rows
    pairs = []
    for g in gens:
        rows = tuple(tuple(map(sub, e, row)) for e, row in zip(one, g.rows))  # 1 - g
        col = next((c for c in zip(*rows) if any(c)), None)
        if col is None:
            return None
        k = math.gcd(*col)
        a = tuple(x // k for x in col)
        i = next(i for i, x in enumerate(a) if x)
        if any(x % a[i] for x in rows[i]):
            return None
        cov = tuple(x // a[i] for x in rows[i])
        if any(row != tuple([x * y for y in cov]) for x, row in zip(a, rows)):  # g is not reflection(a, cov)
            return None
        pairs.append((a, cov))
    # s_a sends (c, c^vee) to (c - <c, a^vee> a, c^vee - <a, c^vee> a^vee), and (a, a^vee) to its negative
    known = set(pairs)
    if all((b := tuple(x - k * y for x, y in zip(c, a)), bv := tuple(x - l * y for x, y in zip(cv, av))) in known
           or (tuple(-x for x in b), tuple(-x for x in bv)) in known
           for a, av in pairs for c, cv in pairs if c is not a
           for k, l in [(sum(map(mul, c, av)), sum(map(mul, a, cv)))]):
        sums = {tuple(map(add, a, c)) for (a, _), (c, _) in combinations(known, 2)}
        pairs = [(a, av) for a, av in dict.fromkeys(pairs) if a not in sums]  # the base
    pairing = [[sum(map(mul, a, cov)) for _, cov in pairs] for a, _ in pairs]
    sign = [0] * len(pairs)
    for start in range(len(pairs)):
        if sign[start]:
            continue
        sign[start] = 1
        queue = [start]
        for node in queue:  # the queue grows as the walk reaches new nodes
            for j in range(len(pairs)):
                bond = sign[node] * (pairing[node][j] + pairing[j][node])
                if bond and not sign[j]:
                    sign[j] = -1 if bond > 0 else 1
                    queue.append(j)
    c = [[si * sj * x for sj, x in zip(sign, row)] for si, row in zip(sign, pairing)]  # <s_i a_i, s_j a_j^vee>
    try:
        _check_entries(c)
        return CartanType(_classify(c), n - len(pairs))
    except InvalidCartan:
        return None


def simple_reflection(rd: RootDatum, i: int) -> IntMatrix:
    """Matrix of s_i on X(T): x - <x, alpha_i^vee> alpha_i (column action)."""
    return reflection(rd.simple_roots.rows[i], rd.simple_coroots.rows[i])


def _weyl_order(rd: RootDatum, cap: int) -> int:
    """|W| by the order formula of the Cartan type; :class:`GroupTooLarge` past ``cap``."""
    if (order := rd.weyl_order) > cap:
        raise GroupTooLarge(f"|W| = {order} exceeds cap {cap}")
    return order


def _walk(rd: RootDatum, value, step):
    """Yield ``(mu, value)`` per Weyl element in index order: 2rho^vee (the sum
    of the positive coroots) with ``value``, then breadth first, for w s_i
    first reached from w, mu - <mu, alpha_i> alpha_i^vee with ``step(value, i)``.
    Only ascents (<mu, alpha_i> > 0) are followed, which keeps the order of the
    matrix closure over the simple reflections; an element of length l + 1 is
    reached from length l alone, so just two lengths are held."""
    simple = tuple(zip(rd.simple_roots.rows, rd.simple_coroots.rows))
    level = [(tuple(map(sum, zip(*(r.coroot for r in root_system(rd).positive)))) or (0,) * rd.rank, value)]
    yield level[0]
    while level:
        longer = {}  # point -> value, in discovery order
        for mu, value in level:
            for i, (alpha, alpha_v) in enumerate(simple):
                c = sum(map(mul, mu, alpha))
                if c > 0 and (nu := tuple([x - c * y for x, y in zip(mu, alpha_v)])) not in longer:
                    longer[nu] = step(value, i)
                    yield nu, longer[nu]
        level = longer.items()


class WeylGroup:
    """W, enumerated once by :func:`_walk`: lengths are nondecreasing and each
    element carries its lexicographically least reduced word.  ``orbit[k]`` is
    the point 2rho^vee w_k of Y(T) (a row vector times w_k), which names w_k as
    2rho^vee is regular; ``index`` maps it back to k, so w s_beta is the element
    at mu - <mu, beta> beta^vee.  No matrix is kept (see :func:`_weyl_matrices`).
    """

    def __init__(self, rd: RootDatum):
        self.generators: tuple[IntMatrix, ...] = tuple(simple_reflection(rd, i) for i in range(rd.nsimple))
        orbit, words = zip(*_walk(rd, (), lambda word, i: word + (i,)))
        self.orbit: tuple[Vec, ...] = orbit
        self.index: dict[Vec, int] = {mu: k for k, mu in enumerate(orbit)}
        self.words: tuple[tuple[int, ...], ...] = words
        self.lengths: tuple[int, ...] = tuple(map(len, words))

    def __len__(self):
        return len(self.orbit)


def weyl_group(rd: RootDatum, cap: int = DEFAULT_CAP) -> WeylGroup:
    """Enumerate W once (:class:`WeylGroup`); the order formula refuses
    ``|W| > cap`` up front (:class:`GroupTooLarge`), then the walk checks
    the count.  The cap only refuses: one cache entry per root datum,
    whatever cap is passed."""
    _weyl_order(rd, cap)
    return _weyl_group(rd)


@lru_cache(maxsize=DATUM_CACHE_SIZE)
def _weyl_group(rd: RootDatum, /) -> WeylGroup:
    """:func:`weyl_group` without the refusal, for callers that made it."""
    expected = rd.weyl_order
    if len(w := WeylGroup(rd)) != expected:
        raise InvalidCartan(f"enumerated {len(w)} Weyl elements but type {validate_root_datum(rd)} has {expected}")
    return w


weyl_group.cache_info, weyl_group.cache_clear = _weyl_group.cache_info, _weyl_group.cache_clear


def _weyl_matrices(rd: RootDatum, cap: int, start: IntMatrix | None = None):
    """``(word, matrix)`` per Weyl element w in index order, each matrix its
    parent's times s_i along :func:`_walk`, built only as a scan asks for it.
    The matrix is ``start`` times w, ``start`` any matrix of ``rd.rank``
    columns (the identity when None): s_i acts on each row alone, so a scan
    for q w walks from q and multiplies no matrices.  ``|W| > cap`` is
    refused up front by the order formula."""
    _weyl_order(rd, cap)
    simple = tuple(zip(rd.simple_roots.rows, rd.simple_coroots.rows))

    def step(value, i):
        (word, m), (alpha, alpha_v) = value, simple[i]
        # m s_i = m - (m alpha_i) alpha_i^vee: a row orthogonal to alpha_i is kept
        rows = tuple(tuple([x - c * y for x, y in zip(row, alpha_v)]) if (c := sum(map(mul, row, alpha))) else row
                     for row in m.rows)
        return word + (i,), IntMatrix._from_int_rows(rows, rd.rank)

    return (value for _, value in _walk(rd, ((), IntMatrix.identity(rd.rank) if start is None else start), step))


class PositiveRoot(Record):
    index: int
    vector: Vec          # X(T) coordinates
    coroot: Vec          # Y(T) coordinates
    coords: Vec          # coefficients over the simple roots
    height: int


class RootSystem:
    """All roots of the datum; positives sorted by (height, simple coords).

    That sort order is the public index contract used by subgroup
    descriptors to name roots.
    """

    def __init__(self, positive):
        self.positive: tuple[PositiveRoot, ...] = tuple(positive)

    def __len__(self):
        return 2 * len(self.positive)

    def vector(self, index: int, sign: int) -> Vec:
        v = self.positive[index].vector
        return v if sign > 0 else tuple(-x for x in v)


@lru_cache(maxsize=DATUM_CACHE_SIZE)
def root_system(rd: RootDatum) -> RootSystem:
    """Generate the positive roots by closing the simple roots upward.

    For a positive root beta and a simple root alpha_i with
    k = <beta, alpha_i^vee> < 0, s_i beta = beta - k alpha_i is a positive
    root -k higher, and every positive root is reached so from the
    simple roots (Humphreys, *Reflection Groups and Coxeter Groups*, 1990,
    section 1.6); no negative root is built.  Each root carries its
    simple-root coordinates c, where s_i adds -k to c_i, its coroot, where
    s_i subtracts <alpha_i, beta^vee> alpha_i^vee, and its pairings with the
    simple coroots, where s_i subtracts k times row i of the Cartan matrix.

    >>> a1 = RootDatum(1, IntMatrix(((2,),)), IntMatrix(((1,),)))
    >>> root_system(a1).positive[0].vector
    (2,)
    """
    validate_root_datum(rd)
    cm = cartan_matrix(rd).rows
    simple = tuple(zip(rd.simple_roots.rows, rd.simple_coroots.rows))
    # simple-root coordinates -> (root, coroot, (<root, alpha_j^vee>)_j)
    roots = {tuple(int(i == j) for j in range(rd.nsimple)): (alpha, alpha_v, cm[i])
             for i, (alpha, alpha_v) in enumerate(simple)}
    frontier = list(roots.items())
    for coords, (vec, cov, pairings) in frontier:  # the frontier grows as roots are found
        for i, k in enumerate(pairings):
            if k < 0 and (c := coords[:i] + (coords[i] - k,) + coords[i + 1:]) not in roots:
                alpha, alpha_v = simple[i]
                m = sum(map(mul, alpha, cov))
                roots[c] = (tuple([x - k * y for x, y in zip(vec, alpha)]),
                            tuple([x - m * y for x, y in zip(cov, alpha_v)]),
                            tuple([x - k * y for x, y in zip(pairings, cm[i])]))
                frontier.append((c, roots[c]))
    records = sorted((sum(c), c, vec, cov) for c, (vec, cov, _) in roots.items())
    return RootSystem(PositiveRoot(idx, vec, cov, coords, height)
                      for idx, (height, coords, vec, cov) in enumerate(records))


def characters_of_group(rd: RootDatum) -> IntMatrix:
    """Basis of X(G_aff) = {chi in X(T) : <chi, alpha^vee> = 0 for all alpha}.

    The integer kernel of the simple coroots; the tests check it against an
    independent column reduction.

    >>> gl2 = RootDatum(2, IntMatrix(((1, -1),)), IntMatrix(((1, -1),)))
    >>> characters_of_group(gl2).rows
    ((1, 1),)
    """
    return integer_kernel(rd.simple_coroots)


def affine_picard_group(rd: RootDatum) -> FGAbelianGroup:
    """Pic(G_aff), the cokernel of the coroot pairing X(T) -> Pic(G/B) = Z^nsimple,
    chi |-> (<chi, alpha_1^vee>, ...).

    >>> pgl2 = RootDatum(1, IntMatrix(((1,),)), IntMatrix(((2,),)))
    >>> affine_picard_group(pgl2).describe()
    'Z/2'
    """
    return Presentation.free(rd.nsimple).cokernel(rd.simple_coroots)


def fundamental_weights_q(rd: RootDatum) -> list[tuple[Fraction, ...]]:
    """Fundamental weights of the root system inside X(T) tensor Q.

    varpi_j is the unique rational combination of simple roots with
    <varpi_j, alpha_i^vee> = delta_ij.
    """
    k = rd.nsimple
    if k == 0:
        return []
    cm = cartan_matrix(rd)
    weights = []
    for j in range(k):
        target = tuple(Fraction(1 if i == j else 0) for i in range(k))
        coeffs = qsolve(cm.transpose().rows, target)
        assert coeffs is not None, "Cartan matrix is invertible for finite type"
        vec = tuple(
            sum((c * r for c, r in zip(coeffs, col)), Fraction(0))
            for col in zip(*[[Fraction(x) for x in row] for row in rd.simple_roots.rows])
        )
        weights.append(vec)
    return weights


def factorial_cover_datum(rd: RootDatum) -> RootDatum:
    """Enlarge X(T) to X(T) + (weight lattice of the root system).

    The output datum has the same root system, its flag Picard map has
    trivial cokernel (the derived group becomes simply connected), and the
    inclusion of lattices corresponds to a finite central isogeny onto the
    input.  Data whose character lattice already contains every fundamental
    weight come back unchanged (the same object), so the construction is
    idempotent.  Note the enlargement can trigger even when the cokernel is
    already trivial (GL2: the weight (1/2, -1/2) is not a character); the
    larger lattice is what later makes the affinization of the cover
    surjective on characters.

    >>> pgl2 = RootDatum(1, IntMatrix(((1,),)), IntMatrix(((2,),)))
    >>> cover = factorial_cover_datum(pgl2)
    >>> cover.simple_roots.rows, cover.simple_coroots.rows
    (((2,),), ((1,),))
    """
    return factorial_cover_with_basis(rd)[0]


def factorial_cover_with_basis(rd: RootDatum) -> tuple[RootDatum, IntMatrix, int]:
    """Like :func:`factorial_cover_datum`, plus the change of lattice.

    Returns ``(datum, numerators, denom)`` where row j of ``numerators``
    divided by ``denom`` is the j-th new basis vector of the enlarged
    character lattice, written in the old rational coordinates.  Unchanged
    data return the identity basis with denominator 1.
    """
    validate_root_datum(rd)
    weights = fundamental_weights_q(rd)
    if all(all(x.denominator == 1 for x in w) for w in weights):
        return rd, IntMatrix.identity(rd.rank), 1
    denom = math.lcm(*[x.denominator for w in weights for x in w])
    n = rd.rank
    gens = [tuple(denom if i == j else 0 for j in range(n)) for i in range(n)]
    gens += [tuple(int(x * denom) for x in w) for w in weights]
    scaled = hermite_row_basis(IntMatrix(gens, n))
    assert scaled.nrows == n, "enlarged lattice must have full rank"
    # the rows of scaled are denom times the new basis vectors, so a root's
    # new coordinates are those of denom times it over scaled
    new_roots = coordinates(scaled, (tuple(denom * x for x in r) for r in rd.simple_roots.rows))
    assert new_roots is not None, "a root left the enlarged lattice"
    pairings = rd.simple_coroots @ scaled.transpose()  # row i: <new basis vectors, alpha_i^vee> times denom
    assert all(x % denom == 0 for row in pairings.rows for x in row), \
        "coroot fails to pair integrally with the new lattice"
    new_coroots = IntMatrix(tuple(tuple(x // denom for x in row) for row in pairings.rows), n)
    return RootDatum(n, new_roots, new_coroots, rd.u_rad), scaled, denom


def contains_borel(rd: RootDatum, root_subset, cap: int = DEFAULT_CAP):
    """The first Weyl element w, in enumeration order, that carries the
    positive system into the root subset, as ``(index, word, matrix)``: its
    index, its reduced word and its matrix on X(T), the one the walk of
    :func:`_weyl_matrices` built; None when there is none.

    ``root_subset`` is an iterable of root vectors (X(T) coordinates, either
    sign).  A subset of fewer distinct roots than the positive system is
    answered None with no Weyl element built.  Past ``cap`` the order
    formula refuses first (:class:`GroupTooLarge`).
    """
    _weyl_order(rd, cap)
    subset = {tuple(int(x) for x in v) for v in root_subset}
    pos = [r.vector for r in root_system(rd).positive]
    if len(subset) < len(pos):  # w(positive system) has |positive| distinct roots
        return None
    for idx, (word, m) in enumerate(_weyl_matrices(rd, cap)):
        if all(m.apply(v) in subset for v in pos):
            return idx, word, m
    return None
