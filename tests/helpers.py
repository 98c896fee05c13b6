"""Shared test data: root data, descriptors and subgroups used across the suite."""

from __future__ import annotations

import importlib
import math
import pathlib
import pkgutil
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import mul

import chevalley_chow
from chevalley_chow import chow, schubert
from chevalley_chow.descriptors import (
    AbelianVarietyData,
    AntiAffineGluing,
    GroupDescriptor,
    SubgroupDescriptor,
    _component_action,
    _connected_character_lattice,
    _subgroup_reflections,
    contains_nontrivial_ant,
    derived_attributes,
    descended_coroot,
    validate_group,
)
from chevalley_chow.errors import InvalidCartan, ModeUnsupported
from chevalley_chow.invariants import (
    coeff_vector, ideal_slice, invariant_slice, poly_add, poly_degree, poly_mul, poly_scale, substitute, sym_basis)
from chevalley_chow.lattice import (
    DEFAULT_CAP,
    FGAbelianGroup,
    IntMatrix,
    Presentation,
    coordinates,
    enumerate_matrix_group,
    fixed_sublattice,
    group_from_relations,
    hermite_row_basis,
    integer_kernel,
    intersect_rows,
    invariant_factors,
    solve_integer,
    vstack,
)
from chevalley_chow.qlinalg import qsolve
from chevalley_chow.rootdata import (
    RootDatum, cartan_matrix, characters_of_group, fundamental_weights_q, matrix_group_order, reflection,
    root_system, simple_reflection, validate_root_datum, weyl_group)
from chevalley_chow.structure import _matrix_inverse

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_NAMES = (
    "product_sl2", "product_pgl2", "semiabelian", "cover_torsion",
    "sl2_affine", "gl2_center", "sl2_torus_d",
)


def fixture_bytes(name: str) -> bytes:
    return (FIXTURE_DIR / f"{name}.json").read_bytes()


def package_caches() -> dict[str, object]:
    """Every object with ``cache_info`` a package module or one of its classes defines."""
    found = {}
    for info in pkgutil.iter_modules(chevalley_chow.__path__):
        module = importlib.import_module(f"chevalley_chow.{info.name}")
        owners = [(module.__name__, module), *((f"{module.__name__}.{k}", v) for k, v in vars(module).items()
                                              if isinstance(v, type) and v.__module__ == module.__name__)]
        for prefix, owner in owners:
            for name, obj in vars(owner).items():
                if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == module.__name__:
                    found[f"{prefix}.{name}"] = obj
    return found


def clear_package_caches() -> None:
    """Empty every package cache, so the next calls build their values afresh."""
    for cache in package_caches().values():
        cache.cache_clear()


# root data (X(T) coordinates chosen per classical model)
sl2 = RootDatum(1, IntMatrix(((2,),)), IntMatrix(((1,),)))
pgl2 = RootDatum(1, IntMatrix(((1,),)), IntMatrix(((2,),)))
gl2 = RootDatum(2, IntMatrix(((1, -1),)), IntMatrix(((1, -1),)))
torus1 = RootDatum(1, IntMatrix((), 1), IntMatrix((), 1))
torus2 = RootDatum(2, IntMatrix((), 2), IntMatrix((), 2))
sl2_sl2 = RootDatum(2, IntMatrix(((2, 0), (0, 2))), IntMatrix(((1, 0), (0, 1))))
sl3 = RootDatum(2, IntMatrix(((2, -1), (-1, 2))), IntMatrix(((1, 0), (0, 1))))
pgl3 = RootDatum(2, IntMatrix(((1, 0), (0, 1))), IntMatrix(((2, -1), (-1, 2))))
sp4 = RootDatum(2, IntMatrix(((1, -1), (0, 2))), IntMatrix(((1, -1), (0, 1))))
so5 = RootDatum(2, IntMatrix(((1, -1), (0, 1))), IntMatrix(((1, -1), (0, 2))))
sl4 = RootDatum(3, IntMatrix(((2, -1, 0), (-1, 2, -1), (0, -1, 2))), IntMatrix.identity(3))
g2 = RootDatum(2, IntMatrix(((1, 0), (0, 1))), IntMatrix(((2, -3), (-1, 2))))
rank3 = RootDatum(3, IntMatrix(((1, 0, 0),)), IntMatrix(((2, 0, 0),)))
sl2xt = RootDatum(2, IntMatrix(((2, 0),)), IntMatrix(((1, 0),)))


def cartan_datum(cartan):
    """Simply connected datum: roots are the Cartan rows, coroots the unit vectors."""
    n = len(cartan)
    return RootDatum(n, IntMatrix(cartan, n), IntMatrix.identity(n))


def type_a(n):
    return [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)] for i in range(n)]


a4 = cartan_datum(type_a(4))
a5 = cartan_datum(type_a(5))
c3 = cartan_datum([[2, -1, 0], [-1, 2, -1], [0, -2, 2]])
d4 = cartan_datum([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]])
f4 = cartan_datum([[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]])


def type_e(n):
    """Bourbaki's E_n: the chain 1-3-4-...-n with node 2 joined to node 4."""
    c = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in ((0, 2), (1, 3), *((k, k + 1) for k in range(2, n - 1))):
        c[i][j] = c[j][i] = -1
    return c


e6, e7, e8 = (cartan_datum(type_e(n)) for n in (6, 7, 8))


def adjoint_datum(rd):
    """The adjoint form of the same Cartan type: X(T) is the root lattice."""
    return RootDatum(rd.rank, IntMatrix.identity(rd.rank), rd.simple_roots.transpose())


def transvected(rd, i, j):
    """The same datum with X(T) re-coordinatized by the transvection e_j += e_i.

    Characters move as ``chi -> chi @ m`` and cocharacters by the inverse
    transpose, so every pairing is kept while the reflection matrices get denser.
    """
    n = rd.rank
    m = IntMatrix(tuple(tuple(int(r == c) + int((r, c) == (i, j)) for c in range(n)) for r in range(n)))
    m_inv_t = IntMatrix(tuple(tuple(int(r == c) - int((r, c) == (j, i)) for c in range(n)) for r in range(n)))
    return RootDatum(n, rd.simple_roots @ m, rd.simple_coroots @ m_inv_t)


#: simply connected forms of the hchow sweep, A1-A5, B2, C3, D4, G2 and F4
SWEEP_SC = {
    **{f"A{n}": cartan_datum(type_a(n)) for n in range(1, 6)},
    "B2": cartan_datum([[2, -2], [-1, 2]]), "C3": c3, "D4": d4,
    "G2": cartan_datum([[2, -1], [-3, 2]]), "F4": f4,
}
#: each sweep type in its simply connected and its adjoint form
SWEEP = {f"{name}-{form}": rd if form == "sc" else adjoint_datum(rd)
         for name, rd in SWEEP_SC.items() for form in ("sc", "adj")}


RANK_LE2 = {
    "sl2": sl2, "pgl2": pgl2, "gl2": gl2, "sl2_sl2": sl2_sl2,
    "sl3": sl3, "pgl3": pgl3, "sp4": sp4, "so5": so5, "g2": g2,
}


def no_d(rank: int) -> AntiAffineGluing:
    return AntiAffineGluing(Presentation.free(0), IntMatrix((), rank), IntMatrix((), 0))


A1_AV = AbelianVarietyData(1, FGAbelianGroup(1))
POINT = AbelianVarietyData(0, FGAbelianGroup(0))

product_sl2 = GroupDescriptor("product_sl2", sl2, A1_AV, no_d(1))
product_pgl2 = GroupDescriptor("product_pgl2", pgl2, A1_AV, no_d(1))
semiab = GroupDescriptor(
    "semiabelian", torus1, A1_AV,
    AntiAffineGluing(Presentation.free(1), IntMatrix(((1,),)), IntMatrix((), 1)))
gl2c = GroupDescriptor(
    "gl2_center", gl2, A1_AV,
    AntiAffineGluing(Presentation.free(1), IntMatrix(((1, 1),)), IntMatrix((), 1)))
cover_torsion = GroupDescriptor(
    "cover_torsion", rank3, A1_AV,
    AntiAffineGluing(Presentation(2, IntMatrix(((0, 2),))),
                     IntMatrix(((0, 1, 0), (0, 0, 1))), IntMatrix((), 2)))
sl2_affine = GroupDescriptor("sl2_affine", sl2, POINT, no_d(1))
sl2t_d = GroupDescriptor(
    "sl2_torus_d", sl2xt, A1_AV,
    AntiAffineGluing(Presentation.free(1), IntMatrix(((0, 1),)), IntMatrix((), 1)))
product_sl3 = GroupDescriptor("product_sl3", sl3, A1_AV, no_d(2))

ALL_GROUPS = (product_sl2, product_pgl2, semiab, gl2c, cover_torsion,
              sl2_affine, sl2t_d, product_sl3)

# subgroups of rank-1 ambient groups
t_sl2 = SubgroupDescriptor("torus", IntMatrix.identity(1))
borel = SubgroupDescriptor("borel", IntMatrix.identity(1), ((0, 1),),
                           ant_contains_gantaff=True)
neg_borel = SubgroupDescriptor("bminus", IntMatrix.identity(1), ((0, -1),),
                               ant_contains_gantaff=True)
nlt = SubgroupDescriptor("nlt", IntMatrix.identity(1), (),
                         component_generators=(IntMatrix(((-1,),)),),
                         translations=(True,), ant_contains_gantaff=True)
full_aff = SubgroupDescriptor("full", IntMatrix.identity(1), ((0, 1), (0, -1)))
full_aff_ant = SubgroupDescriptor("gaff", IntMatrix.identity(1), ((0, 1), (0, -1)),
                                  ant_contains_gantaff=True)
t_ant = SubgroupDescriptor("torus_ant", IntMatrix.identity(1),
                           ant_contains_gantaff=True)
g_ant_sub = SubgroupDescriptor("ant", IntMatrix.identity(1),
                               contains_G_ant=True, ant_contains_gantaff=True)
trivial1 = SubgroupDescriptor("trivial", IntMatrix((), 1))
trivial2 = SubgroupDescriptor("trivial", IntMatrix((), 2))
trivial3 = SubgroupDescriptor("trivial", IntMatrix((), 3))
TRIVIAL_BY_RANK = {1: trivial1, 2: trivial2, 3: trivial3}
full_t = SubgroupDescriptor("gaff", IntMatrix.identity(1))

# borel of SL3 x A: positive roots of A2 are indexed 0, 1 (simples) and 2
borel_sl3 = SubgroupDescriptor("borel", IntMatrix.identity(2),
                               ((0, 1), (1, 1), (2, 1)),
                               ant_contains_gantaff=True)


def fraction_rref(rows, ncols):
    """Gauss-Jordan elimination on Fractions, each pivot row scaled to a
    leading 1: (the reduced row echelon form, its pivot columns)."""
    work = [[Fraction(x) for x in r] for r in rows]
    pivots = []
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


def fraction_qsolve(rows, b):
    """Oracle for ``qlinalg.qsolve``: :func:`fraction_rref` of the augmented matrix."""
    rows = [[Fraction(x) for x in r] for r in rows]
    ncols = len(rows[0]) if rows else 0
    red, pivots = fraction_rref([row + [Fraction(rhs)] for row, rhs in zip(rows, b)], ncols + 1)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, pc in zip(red, pivots):
        x[pc] = row[ncols]
    return tuple(x)


class FractionSpanBuilder:
    """Oracle for ``qlinalg.SpanBuilder``: echelon rows of Fractions with leading 1s."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []
        self.pivots = []

    def reduce(self, vec):
        v = [Fraction(x) for x in vec]
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        for row, pc in zip(self.rows, self.pivots):
            if v[pc] != 0:
                f = v[pc]
                v = [x - f * y for x, y in zip(v, row)]
        return v

    def add(self, vec):
        v = self.reduce(vec)
        pc = next((c for c, x in enumerate(v) if x != 0), None)
        if pc is None:
            return False
        inv = v[pc]
        v = [x / inv for x in v]
        pos = next((k for k, p in enumerate(self.pivots) if p > pc), len(self.pivots))
        self.rows.insert(pos, v)
        self.pivots.insert(pos, pc)
        return True

    def contains(self, vec):
        return all(x == 0 for x in self.reduce(vec))


def span_reduce(builder, vec):
    """The unique vector of ``vec + span`` that is zero at every pivot column
    of a ``qlinalg.SpanBuilder``, in Fractions."""
    v = [Fraction(x) for x in vec]
    if len(v) != builder.ncols:
        raise ValueError("vector length mismatch")
    for row, pc in zip(builder.rows, builder.pivots):
        if v[pc]:
            f = v[pc] / row[pc]
            v = [x - f * y for x, y in zip(v, row)]
    return v


def span_contains(builder, vec):
    return not any(span_reduce(builder, vec))


def expand_by_reduction(rd, poly, d):
    """Oracle for ``schubert.expand_in_schubert_basis``: the per-call route,
    which reduces ``poly`` and every degree-d representative modulo the
    coinvariant ideal and solves for the coordinates with ``qsolve``."""
    return expand_all_by_reduction(rd, [poly], d)[0]


def expand_all_by_reduction(rd, polys, d):
    """:func:`expand_by_reduction` of each of ``polys``, all of degree d,
    with the ideal slice and the representatives reduced once."""
    if any(poly_degree(poly) not in (None, d) for poly in polys):
        raise ValueError(f"polynomial is not homogeneous of degree {d}")
    w = weyl_group(rd)
    if d > len(root_system(rd).positive):
        return [schubert.SchubertExpansion(d, {}) for _ in polys]
    table = schubert.schubert_representatives(rd, d)
    indices = [i for i in range(len(w)) if w.lengths[i] == d]
    reducer = ideal_slice(rd.rank, schubert._coinvariant_reducer(rd, d), d)
    cols = [span_reduce(reducer, coeff_vector(table[i], rd.rank, d)) for i in indices]
    out = []
    for poly in polys:
        rhs = span_reduce(reducer, coeff_vector(poly, rd.rank, d))
        sol = qsolve([[col[r] for col in cols] for r in range(len(rhs))], rhs)
        assert sol is not None, "not a combination of Schubert classes"
        out.append(schubert.SchubertExpansion(d, {idx: c for idx, c in zip(indices, sol) if c}))
    return out


def coinvariant_generators_in_s(rd, max_degree):
    """Oracle for ``schubert.coinvariant_ideal_generators``: the selection in
    all of S.  Each degree eliminates every kept generator times every
    monomial of complementary degree, in Fractions, then keeps each basis
    W-invariant of that degree that enlarges the span, until ``rank`` are kept."""
    refl = tuple(simple_reflection(rd, i) for i in range(rd.nsimple))
    gens = []
    for d in range(1, max_degree + 1):
        if len(gens) == rd.rank:
            break
        span = FractionSpanBuilder(len(sym_basis(rd.rank, d)))
        for g in gens:
            for m in sym_basis(rd.rank, d - poly_degree(g)):
                span.add(coeff_vector(poly_mul(g, {m: Fraction(1)}), rd.rank, d))
        gens += [p for p in invariant_slice(rd.rank, refl, d) if span.add(coeff_vector(p, rd.rank, d))]
    return gens


def schubert_product_by_reduction(rd, u, v):
    """Oracle for ``schubert.schubert_product``: :func:`expand_by_reduction`
    of the product of the two BGG representatives."""
    w, table = weyl_group(rd), schubert.schubert_representatives(rd)
    return expand_by_reduction(rd, poly_mul(table[u], table[v]), w.lengths[u] + w.lengths[v])


def weyl_matrices(rd):
    """W's matrices by the generic matrix-group closure of the simple
    reflections; the tests check that its order is the Weyl index order."""
    gens = tuple(simple_reflection(rd, i) for i in range(rd.nsimple))
    return enumerate_matrix_group(gens or (IntMatrix.identity(rd.rank),))


@lru_cache(maxsize=None)
def weyl_matrix_index(rd):
    """Weyl index of each element of ``weyl_matrices(rd)``, keyed by its matrix."""
    return {m: i for i, m in enumerate(weyl_matrices(rd))}


def chevalley_by_matrices(rd, lam, w_index):
    """Oracle for ``schubert.chevalley_multiply``: each w s_beta is the matrix
    product ``w @ s_beta``, looked up by its matrix in the closure."""
    w = weyl_group(rd)
    index = weyl_matrix_index(rd)
    elem = weyl_matrices(rd)[w_index]
    target = w.lengths[w_index] + 1
    terms = {}
    for root in root_system(rd).positive:
        idx = index[elem @ reflection(root.vector, root.coroot)]
        c = rd.pairing(lam, root.coroot)
        if w.lengths[idx] == target and c:
            terms[idx] = Fraction(c)
    return schubert.SchubertExpansion(target, terms)


def product_by_fractions(rd, u, v):
    """Oracle for ``schubert.schubert_product``: the Fraction representatives
    multiplied and expanded by ``expand_in_schubert_basis``."""
    w, table = weyl_group(rd), schubert.schubert_representatives(rd)
    return schubert.expand_in_schubert_basis(rd, poly_mul(table[u], table[v]), w.lengths[u] + w.lengths[v])


def same_span(polys, others, rank, d):
    """Whether two lists of degree-d polynomials span the same subspace of
    Sym^d(Q^rank): the spans have the same dimension and the first holds every
    polynomial of the second, by Fraction elimination over the monomials."""
    spans = []
    for group in (polys, others):
        spans.append(FractionSpanBuilder(len(sym_basis(rank, d))))
        for p in group:
            spans[-1].add(coeff_vector(p, rank, d))
    return len(spans[0].rows) == len(spans[1].rows) and all(
        spans[0].contains(coeff_vector(p, rank, d)) for p in others)


def reynolds_slice(rank, generators, d):
    """Oracle for the span of ``invariant_slice``: average each monomial over
    the enumerated group.

    The averages are kept greedily in monomial order when they enlarge the
    span, so they are a basis of the degree-d invariants; the production
    basis is another one of the same span (compare with :func:`same_span`).
    """
    gens = tuple(generators)
    if not gens:
        return [{m: Fraction(1)} for m in sym_basis(rank, d)]
    group = enumerate_matrix_group(gens)
    builder = FractionSpanBuilder(len(sym_basis(rank, d)))
    polys = []
    for m in sym_basis(rank, d):
        avg = {}
        for g in group:
            avg = poly_add(avg, substitute(g, {m: Fraction(1)}))
        avg = poly_scale(avg, Fraction(1, len(group)))
        if avg and builder.add(coeff_vector(avg, rank, d)):
            polys.append(avg)
    return polys


def validate_root_datum_hermite_first(rd):
    """Oracle for the order of ``validate_root_datum``'s refusals: the
    entries of the Cartan matrix, then the Hermite rank of the simple roots
    and of the simple coroots, before any diagram is read; the diagram is
    then classified by the package."""
    k = rd.nsimple
    c = [[sum(map(mul, a, b)) for b in rd.simple_coroots.rows] for a in rd.simple_roots.rows]
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
    if hermite_row_basis(rd.simple_roots).nrows != k:
        raise InvalidCartan("simple roots are linearly dependent")
    if hermite_row_basis(rd.simple_coroots).nrows != k:
        raise InvalidCartan("simple coroots are linearly dependent")
    return validate_root_datum.__wrapped__(rd)


def root_system_by_solves(rd):
    """Oracle for ``root_system``: close (root, coroot) pairs under the simple
    reflections of both lattices, then solve for each root's coordinates over
    the simple roots.  Returns the positive roots as (height, coords, vector,
    coroot), sorted by (height, coords), the index order of ``root_system``.
    """
    simple = list(zip(rd.simple_roots.rows, rd.simple_coroots.rows))
    gens = [(reflection(vec, cov), reflection(cov, vec)) for vec, cov in simple]
    pairs = set(simple)
    frontier = list(pairs)
    while frontier:
        nxt = []
        for vec, cov in frontier:
            for g, g_dual in gens:
                p = (g.apply(vec), g_dual.apply(cov))
                if p not in pairs:
                    pairs.add(p)
                    nxt.append(p)
        frontier = nxt
    columns = rd.simple_roots.transpose().rows  # columns are the simple roots
    records = []
    for vec, cov in pairs:
        coeffs = fraction_qsolve(columns, vec)
        assert coeffs is not None and all(x.denominator == 1 for x in coeffs), vec
        coords = tuple(int(x) for x in coeffs)
        if min(coords) >= 0:
            records.append((sum(coords), coords, vec, cov))
    return sorted(records)


def integer_kernel_by_columns(m: IntMatrix) -> IntMatrix:
    """Oracle for ``lattice.integer_kernel``: the same lattice by plain column
    reduction, sharing no code with the Smith route."""
    a = [list(r) for r in m.rows]
    nr, nc = m.nrows, m.ncols
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def col(j):
        return [a[i][j] for i in range(nr)]

    def add_col(dst, src, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0  # next column to place a pivot in
    for i in range(nr):
        while True:
            nz = [j for j in range(t, nc) if a[i][j] != 0]
            if not nz:
                break
            j0 = min(nz, key=lambda j: (abs(a[i][j]), j))
            if j0 != t:
                swap_cols(t, j0)
            done = True
            for j in range(t + 1, nc):
                if a[i][j] != 0:
                    add_col(j, t, -(a[i][j] // a[i][t]))
                    if a[i][j] != 0:
                        done = False
            if done:
                break
        if any(a[i][j] != 0 for j in range(t, nc)):
            t += 1
    kernel_cols = [tuple(v[i][j] for i in range(nc)) for j in range(t, nc) if all(col(j)[i] == 0 for i in range(nr))]
    return hermite_row_basis(IntMatrix(tuple(kernel_cols), nc))


def lattice_le(sub: IntMatrix, sup: IntMatrix) -> bool:
    """Oracle for lattice containment: is every row of ``sub`` in the row lattice of ``sup``?"""
    supt = sup.transpose()
    return all(solve_integer(supt, r) is not None for r in sub.rows)


def quotient_group(sup: IntMatrix, sub: IntMatrix) -> FGAbelianGroup:
    """Oracle for ``derived_attributes(gd).im_gamma``: the structure of
    ``(L_sup + L_sub) / L_sub`` for row lattices in Z^n, by writing ``sub`` in
    a basis of the sum."""
    if sup.ncols != sub.ncols:
        raise ValueError("ambient mismatch")
    basis = hermite_row_basis(vstack(sup, sub))
    if basis.nrows == 0:
        return FGAbelianGroup(0)
    bt = basis.transpose()
    rel_rows = [solve_integer(bt, r) for r in sub.rows]
    return group_from_relations(basis.nrows, IntMatrix(tuple(rel_rows), basis.nrows))


def det_by_fractions(m: IntMatrix) -> int:
    """Oracle determinant of a square matrix, by Gaussian elimination over Q
    in Fractions; the 0 x 0 determinant is 1."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    a = [[Fraction(x) for x in row] for row in m.rows]
    det = Fraction(1)
    for k in range(len(a)):
        p = next((i for i in range(k, len(a)) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return int(det)


def smith_diagonal_by_minors(m: IntMatrix) -> tuple[int, ...]:
    """Oracle for the Smith diagonal: ``s_k = d_k / d_(k-1)``, where the
    determinantal divisor ``d_k`` is the gcd of all k x k minors (``d_0 = 1``);
    the nonzero ``s_k`` only, sharing no code with the Hermite route."""
    out = []
    prev = 1
    for k in range(1, min(m.shape) + 1):
        d = 0
        for rows in combinations(range(m.nrows), k):
            for cols in combinations(range(m.ncols), k):
                d = math.gcd(d, det_by_fractions(IntMatrix([[m.rows[i][j] for j in cols] for i in rows], k)))
        if d == 0:
            break
        out.append(d // prev)
        prev = d
    return tuple(out)


def random_unimodular(rng, n: int) -> IntMatrix:
    """A product of random elementary row operations and a signed swap."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    if n < 2:
        return IntMatrix([[rng.choice((1, -1))] for _ in range(n)], n)
    for _ in range(rng.randrange(8)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            q = rng.randint(-3, 3)
            m[i] = [a + q * b for a, b in zip(m[i], m[j])]
    if rng.randrange(2):
        m[0], m[-1] = [-x for x in m[-1]], m[0]
    return IntMatrix(m, n)


def random_gluings(seed: int, count: int, data=(torus2, gl2, rank3)):
    """``count`` seeded random descriptors over the given root data whose
    gluing validates: v kills every root, X(D) has up to two relations and
    ker sigma_A up to one generator; an invalid draw is skipped."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        rd = rng.choice(data)
        killing_roots = integer_kernel(rd.simple_roots)  # v(alpha) = 0 for every root
        ngens = rng.randint(1, 3)

        def rows(k, width):
            return IntMatrix([[rng.randint(-3, 3) for _ in range(width)] for _ in range(k)], width)

        coeffs = rows(ngens, killing_roots.nrows)
        v = coeffs @ killing_roots if killing_roots.nrows else IntMatrix([[0] * rd.rank] * ngens, rd.rank)
        glue = AntiAffineGluing(Presentation(ngens, rows(rng.randint(0, 2), ngens)), v,
                                rows(rng.randint(0, 1), ngens))
        gd = GroupDescriptor(f"random{len(out)}", rd, AbelianVarietyData(rng.randint(1, 2), FGAbelianGroup(1)), glue)
        if validate_group(gd).ok:
            out.append(gd)
    return out


def gamma_kernel_by_intersection(gd):
    """Oracle for ``derived_attributes(gd).ker_gamma``: X(G_aff) meet v^{-1}(ker sigma_A)."""
    v_inverse = gd.gluing.sigma_quotient().kernel(gd.gluing.v_matrix)
    return intersect_rows(characters_of_group(gd.rd), v_inverse)


def factorial_cover_by_fractions(rd):
    """Oracle for ``rootdata.factorial_cover_with_basis``: the same enlarged
    lattice, with the new roots and coroots found over Q by ``qsolve`` on the
    rational basis and checked integral, instead of by integer coordinates."""
    validate_root_datum(rd)
    weights = fundamental_weights_q(rd)
    denom = math.lcm(1, *[x.denominator for w in weights for x in w])
    return _cover_of_weights(rd, [tuple(int(x * denom) for x in w) for w in weights], denom)


def factorial_cover_by_integers(rd):
    """Second oracle for ``rootdata.factorial_cover_with_basis``, whose
    fundamental weights share no code with ``fundamental_weights_q``: with e
    the largest invariant factor of the Cartan matrix C, e C^-1 is integral,
    and e times the weights are ``coordinates(C, e I)`` times the simple
    roots; over the denominator e / gcd(e, entries) they are in lowest terms."""
    validate_root_datum(rd)
    cartan = cartan_matrix(rd)
    if not rd.nsimple:
        return _cover_of_weights(rd, [], 1)
    e = invariant_factors(cartan)[-1]
    scaled = coordinates(cartan, [tuple(e * int(i == j) for j in range(rd.nsimple)) for i in range(rd.nsimple)])
    weights = scaled @ rd.simple_roots
    g = math.gcd(e, *(x for row in weights.rows for x in row))
    return _cover_of_weights(rd, [tuple(x // g for x in row) for row in weights.rows], e // g)


def _cover_of_weights(rd, weights, denom):
    """The factorial cover from the fundamental weights, given as integer
    rows over the common denominator ``denom`` in lowest terms."""
    if denom == 1:
        return rd, IntMatrix.identity(rd.rank), 1
    n = rd.rank
    gens = [tuple(denom if i == j else 0 for j in range(n)) for i in range(n)] + list(weights)
    scaled = hermite_row_basis(IntMatrix(gens, n))
    # columns of basis_q are the new basis vectors in old (rational) coordinates
    basis_q = [[Fraction(scaled.rows[i][j], denom) for i in range(n)] for j in range(n)]

    def to_new(vec):
        sol = qsolve(basis_q, [Fraction(x) for x in vec])
        assert sol is not None and all(x.denominator == 1 for x in sol)
        return tuple(int(x) for x in sol)

    new_roots = IntMatrix(tuple(to_new(r) for r in rd.simple_roots.rows), n)
    new_coroots = []
    for cov in rd.simple_coroots.rows:
        row = [sum(basis_q[c][i] * cov[c] for c in range(n)) for i in range(n)]
        assert all(x.denominator == 1 for x in row)
        new_coroots.append(tuple(map(int, row)))
    return RootDatum(n, new_roots, IntMatrix(new_coroots, n), rd.u_rad), scaled, denom


def naive_closure(gens):
    """Oracle for ``lattice.group_closure``: breadth-first closure on IntMatrix products.

    Returns ``(elements, steps)`` in the same discovery order; ``steps[k] =
    pos * len(gens) + i`` records that element k was first reached as
    ``elements[pos] @ gens[i]`` (-1 for the identity), which spells each
    element's word.  It has neither a cap nor a finiteness test, so it must
    only be given finite groups.
    """
    gens = tuple(gens)
    elements = [IntMatrix.identity(gens[0].nrows)]
    steps = [-1]
    seen = set(elements)
    pos = 0
    while pos < len(elements):
        for i, g in enumerate(gens):
            prod = elements[pos] @ g
            if prod not in seen:
                seen.add(prod)
                elements.append(prod)
                steps.append(pos * len(gens) + i)
        pos += 1
    return elements, steps


_element_inverse = lru_cache(maxsize=None)(_matrix_inverse)  # each element of a group is inverted once


def translation_index_by_conjugates(hd, cap=DEFAULT_CAP):
    """Oracle for ``structure._translation_index_bound``: enumerate H/H0,
    conjugate every non-translating generator by every element, and divide
    |H/H0| by the order of the closure of those conjugates.  Repeated
    conjugates are closed once."""
    if not any(hd.translations):
        return 1
    elements = enumerate_matrix_group(hd.component_generators, cap=cap)
    unflagged = [g for g, t in zip(hd.component_generators, hd.translations) if not t]
    if not unflagged:
        return len(elements)
    conj = dict.fromkeys(e @ u @ _element_inverse(e) for e in elements for u in unflagged)
    return len(elements) // len(enumerate_matrix_group(tuple(conj), cap=cap))


def non_weyl_groups():
    """Generators of subgroups of SL3 x A: a reflection with a rotation, and a rotation alone."""
    s0, s1 = (simple_reflection(sl3, i) for i in range(2))
    rot3 = s0 @ s1
    rot6 = -rot3
    levi = SubgroupDescriptor("levi_rot3", IntMatrix.identity(2), ((0, 1), (0, -1)),
                              component_generators=(rot3,), translations=(False,))
    cyclic = SubgroupDescriptor("rot6", IntMatrix.identity(2),
                                component_generators=(rot6,), translations=(False,))
    for hd in (levi, cyclic):
        yield hd.name, _subgroup_reflections(product_sl3, hd) + hd.component_generators


def affine_group(name, rd):
    """The affine group G = G_aff of a root datum: no abelian variety, no D."""
    return GroupDescriptor(name, rd, POINT, no_d(rd.rank))


def full_rank_subgroups(rd, max_levi=3):
    """Full-rank subgroup descriptors of G_aff, by name: the Borel, N(T), and
    for each set I of 1..max_levi simple roots the Levi ``levi(I)``, the
    parabolic ``par(I)`` and, when some positive root beta outside Phi_I is
    orthogonal to all of I, the Levi with the component generator s_beta,
    ``levi(I)+s{beta}``.  Phi_I is read off ``root_system(rd).positive[i].coords``;
    q is the identity throughout."""
    pos = root_system(rd).positive
    q = IntMatrix.identity(rd.rank)
    yield "borel", SubgroupDescriptor("borel", q, tuple((i, 1) for i in range(len(pos))))
    yield "normalizer", SubgroupDescriptor(
        "normalizer", q, component_generators=tuple(simple_reflection(rd, i) for i in range(rd.nsimple)),
        translations=(False,) * rd.nsimple)
    for size in range(1, min(max_levi, rd.nsimple) + 1):
        for sub in combinations(range(rd.nsimple), size):
            inside = [i for i, r in enumerate(pos) if all(c == 0 for k, c in enumerate(r.coords) if k not in sub)]
            levi = tuple((i, s) for i in inside for s in (1, -1))
            tag = str(sub).replace(" ", "")
            yield f"levi{tag}", SubgroupDescriptor(f"levi{tag}", q, levi)
            par = tuple((i, 1) for i in range(len(pos))) + tuple((i, -1) for i in inside)
            yield f"par{tag}", SubgroupDescriptor(f"par{tag}", q, par)
            for b, r in enumerate(pos):
                if b not in inside and all(sum(map(mul, rd.simple_roots.rows[a], r.coroot)) == 0 for a in sub):
                    beta = reflection(r.vector, r.coroot)
                    yield f"levi{tag}+s{b}", SubgroupDescriptor(
                        f"levi{tag}+s{b}", q, levi, component_generators=(beta,), translations=(False,))
                    break


def hchow_by_elimination(gd, hd, max_degree, cap=DEFAULT_CAP):
    """Oracle for the closed-series route of ``chow.homogeneous_rational_chow``:
    ``(concrete factor, j_rank)`` by eliminating the restricted Weyl
    invariants degree by degree, the route every other H takes, run on any
    H behind that route's refusals, the slice budget among them."""
    chow._check_degree(max_degree)
    chow._check_slice(max(gd.rd.rank, hd.h_rank), max_degree)
    att = derived_attributes(gd)
    if contains_nontrivial_ant(att, hd):
        raise ModeUnsupported("Chow reports for G/H need H inside the faithful model (H does not contain G_ant)")
    gens = _subgroup_reflections(gd, hd) + hd.component_generators
    matrix_group_order(gens, cap)
    if hd.component_generators and _component_action(_connected_character_lattice(gd, hd), hd) is None:
        raise ValueError("component group does not stabilize X(H0)")
    return chow._eliminated_quotient(gd, hd, att, gens, max_degree, cap)


def connected_characters_by_coroots(gd, hd):
    """Oracle for ``descriptors._connected_character_lattice``: X(H0) as the
    integer kernel of the descended coroots of the symmetric roots."""
    sym = hd.symmetric_root_indices()
    if not sym:
        return IntMatrix.identity(hd.h_rank)
    return integer_kernel(IntMatrix([descended_coroot(gd, hd, i) for i in sym], hd.h_rank))


def subgroup_characters_in_xh0(gd, hd):
    """Oracle for ``descriptors.subgroup_characters``: X(H) as the part of
    X(H0) the component group fixes, taken in X(H0) coordinates and mapped
    back to X(T_H)."""
    xh0 = connected_characters_by_coroots(gd, hd)
    if not hd.component_generators or xh0.nrows == 0:
        return xh0
    images = [coordinates(xh0, map(g.apply, xh0.rows)) for g in hd.component_generators]
    if None in images:
        raise ValueError("component group does not stabilize X(H0)")
    fixed = fixed_sublattice([m.transpose() for m in images], xh0.nrows)
    return hermite_row_basis(fixed @ xh0) if fixed.nrows else IntMatrix((), hd.h_rank)


def restriction_kernel_in_xh(gd, hd, x_gaff):
    """Oracle for ``descriptors.restriction_kernel``: ker r_H as the kernel
    of the restriction matrix X(G_aff) -> X(H) in X(H) coordinates, mapped
    back to X(T)."""
    images = coordinates(subgroup_characters_in_xh0(gd, hd), map(hd.q_matrix.apply, x_gaff.rows))
    ker_coords = integer_kernel(images.transpose())
    return hermite_row_basis(ker_coords @ x_gaff) if x_gaff.nrows else IntMatrix((), gd.rd.rank)


def random_subtori(seed: int, count: int, data=(torus2, gl2, sl2xt, rank3, sl4)):
    """``count`` seeded rank-deficient subtori: a datum from ``data`` and q
    the first 0 < h < rank rows of a random unimodular matrix, so onto X(T_H)."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        rd = rng.choice(data)
        q = IntMatrix(random_unimodular(rng, rd.rank).rows[:rng.randrange(1, rd.rank)], rd.rank)
        out.append((affine_group(f"subtorus{k}", rd), SubgroupDescriptor(f"subtorus{k}", q)))
    return out


def degrees_from_heights(positive_roots, rank):
    """The ``rank`` degrees of the invariants of the Weyl group of a root
    subsystem, from the heights of its positive roots alone: #{exponents >= h}
    is the number of roots of height h (Kostant), a degree is an exponent
    plus one, and the directions no root reaches have degree 1.  Heights are
    sums of simple-root coordinates, which for a standard Levi subsystem are
    its own heights."""
    per_height = {}
    for r in positive_roots:
        h = sum(r.coords)
        per_height[h] = per_height.get(h, 0) + 1
    nsimple = per_height.get(1, 0)
    exponents = [sum(1 for count in per_height.values() if count >= j) for j in range(1, nsimple + 1)]
    return [m + 1 for m in exponents] + [1] * (rank - nsimple)


def quotient_series(numerator_degrees, denominator_degrees, top):
    """Coefficients up to t^top of prod (1 - t^d) / prod (1 - t^e), as a power series."""
    series = [1] + [0] * top
    for d in numerator_degrees:
        series = [c - (series[k - d] if k >= d else 0) for k, c in enumerate(series)]
    for e in denominator_degrees:
        for k in range(e, top + 1):
            series[k] += series[k - e]
    return tuple(series)
