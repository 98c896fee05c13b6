"""Exact integer linear algebra: Smith and Hermite forms, kernels, groups."""

import re
from fractions import Fraction

import pytest

import helpers as z
from chevalley_chow import lattice, rootdata
from chevalley_chow.chow import homogeneous_rational_chow
from chevalley_chow.descriptors import GroupDescriptor, SubgroupDescriptor, derived_attributes, validate_subgroup
from chevalley_chow.errors import GroupTooLarge
from chevalley_chow.lattice import (
    FGAbelianGroup,
    IntMatrix,
    Presentation,
    coordinates,
    enumerate_matrix_group,
    fixed_sublattice,
    group_closure,
    group_from_relations,
    hermite_row_basis,
    hstack,
    integer_kernel,
    intersect_rows,
    invariant_factors,
    is_unimodular,
    saturate_rows,
    smith_normal_form,
    solve_integer,
    vstack,
)
from chevalley_chow.rootdata import simple_reflection

M = IntMatrix


def test_matrix_basics():
    m = M(((1, 2), (3, 4)))
    assert m.shape == (2, 2)
    assert m.transpose().rows == ((1, 3), (2, 4))
    assert (m @ M.identity(2)) == m
    assert m.apply((1, 0)) == (1, 3)  # applies column vectors
    assert not is_unimodular(m) and is_unimodular(M(((2, 1), (1, 1))))
    assert vstack(m, M.identity(2)).nrows == 4
    assert hstack(m, m).ncols == 4


def test_matrix_rejects_ragged_rows():
    with pytest.raises(ValueError):
        M(((1, 2), (3,)))
    with pytest.raises(ValueError):
        M(())  # width not inferable


@pytest.mark.parametrize("entry", [Fraction(3, 2), 2.7, 2.0, "5", None, 1j])
def test_matrix_refuses_non_integer_entries(entry):
    # these used to be cut down by int(): Fraction(3, 2) -> 1, 2.7 -> 2, "5" -> 5
    with pytest.raises(ValueError, match="not all integers"):
        M(((1, entry),))


def test_matrix_accepts_integer_values():
    m = M([[Fraction(4, 2), True, -3], (x for x in (10**40, 0, Fraction(-7)))])
    assert m.rows == ((2, 1, -3), (10**40, 0, -7))
    assert all(type(x) is int for row in m.rows for x in row)
    assert all(type(row) is tuple for row in m.rows)
    assert M(((1, 2),)) == M([[1, 2]]) == M(((Fraction(1), 2),))


def test_smith_normal_form_oracle():
    a = M(((2, 4), (6, 8)))
    assert smith_normal_form(a) == M(((2, 0), (0, 4)))
    assert invariant_factors(a) == (2, 4) == z.smith_diagonal_by_minors(a)
    # the shape is kept, zero rows and columns included
    assert smith_normal_form(M(((0, 6, 0), (0, 4, 0)))) == M(((2, 0, 0), (0, 0, 0)))
    assert smith_normal_form(M(((3,), (5,)))) == M(((1,), (0,)))
    assert smith_normal_form(M((), 2)) == M((), 2)
    assert smith_normal_form(M(((), ()), 0)).shape == (2, 0)
    # a diagonal that is not a divisibility chain: (4, 6) -> (2, 12)
    assert invariant_factors(M(((4, 0), (0, 6)))) == (2, 12)
    # 1x1 and zero matrices
    assert invariant_factors(M(((0,),))) == ()
    assert invariant_factors(M(((-6,),))) == (6,)
    # divisibility chain on a 3x3 with torsion
    assert invariant_factors(M(((2, 0, 0), (0, 4, 0), (0, 0, 12)))) == (2, 4, 12)


def test_hermite_row_basis_is_canonical():
    a = M(((2, 1), (0, 3)))
    b = M(((0, 3), (2, 1)))
    c = M(((2, 4), (2, 1), (0, 3)))
    assert hermite_row_basis(a) == hermite_row_basis(b) == hermite_row_basis(c)
    assert hermite_row_basis(a).rows == ((2, 1), (0, 3))
    assert hermite_row_basis(M((), 3)).rows == ()
    assert hermite_row_basis(M(((0, 0),))).rows == ()


def test_integer_kernel_two_routes_agree():
    cases = [
        M(((2, 4),)),
        M(((1, -1),)),
        M(((2, 0, 0), (0, 3, 0))),
        M(((6, 10, 15),)),
        M((), 3),
    ]
    for m in cases:
        k1 = integer_kernel(m)
        k2 = z.integer_kernel_by_columns(m)
        assert k1 == k2, m.rows
        for row in k1.rows:
            assert m.apply(row) == (0,) * m.nrows
    assert integer_kernel(M(((2, 4),))).rows == ((2, -1),)
    assert integer_kernel(M((), 2)) == M.identity(2)


def test_solve_integer():
    m = M(((2, 4), (6, 8)))
    assert m.apply(solve_integer(m, (2, 6))) == (2, 6)
    assert solve_integer(M(((2,),)), (3,)) is None
    assert solve_integer(M(((2, 3),)), (1,)) is not None
    # inconsistent overdetermined system
    assert solve_integer(M(((1,), (1,))), (0, 1)) is None
    # a remainder left past the last pivot, and empty systems
    assert solve_integer(M(((1, 0), (0, 0))), (1, 1)) is None
    assert solve_integer(M((), 2), ()) == (0, 0)
    assert solve_integer(M(((), ()), 0), (0, 0)) == ()
    assert solve_integer(M(((), ()), 0), (0, 1)) is None


def test_column_transform_splits_image_and_kernel():
    m = M(((2, 4, 1), (6, 8, 3)))
    pairs, ker = lattice._column_transform(m)
    for h, u in pairs:
        assert m.apply(u) == h
    # the h are the Hermite basis of the column lattice, the rest the kernel
    assert M([h for h, _ in pairs], 2) == hermite_row_basis(m.transpose())
    assert ker == hermite_row_basis(ker) == z.integer_kernel_by_columns(m)
    assert len(pairs) + ker.nrows == m.ncols


def test_column_transform_is_all_tuples():
    for m in (M(((2, 4, 1), (6, 8, 3))), M(((0, 0),)), M((), 2), M(((), ()), 0)):
        pairs, ker = lattice._column_transform(m)
        assert type(pairs) is tuple and type(ker.rows) is tuple
        assert all(type(p) is tuple and type(p[0]) is tuple and type(p[1]) is tuple for p in pairs)
        assert all(type(row) is tuple for row in ker.rows)


def test_equal_matrix_reuses_its_column_transform(monkeypatch):
    lattice._column_transform.cache_clear()
    rows = ((3, 5, 7), (2, 4, 6))
    assert solve_integer(M(rows), (1, 0)) is not None
    assert integer_kernel(M(rows)).nrows == 1

    def no_hermite(m):
        raise AssertionError("a second Hermite transform of an equal matrix")

    monkeypatch.setattr(lattice, "hermite_row_basis", no_hermite)
    m = M([list(r) for r in rows])  # a new, equal object
    assert m.apply(solve_integer(m, (5, 2))) == (5, 2)
    assert integer_kernel(m).rows == integer_kernel(M(rows)).rows
    assert lattice._column_transform.cache_info().misses == 1


def test_normalizer_requests_transform_each_matrix_once(monkeypatch):
    rd = z.transvected(z.f4, 3, 0)
    gd = GroupDescriptor("f4", rd, z.POINT, z.no_d(4))
    normalizer = SubgroupDescriptor("normalizer", M.identity(4), (),
                                    component_generators=tuple(simple_reflection(rd, i) for i in range(4)),
                                    translations=(False,) * 4)
    asked = []
    cached = lattice._column_transform

    def spy(m):
        asked.append(m)
        return cached(m)

    monkeypatch.setattr(lattice, "_column_transform", spy)
    cached.cache_clear()
    assert validate_subgroup(gd, normalizer).ok
    homogeneous_rational_chow(gd, normalizer, 1)
    info = cached.cache_info()
    # the component action alone solves 16 right-hand sides against one basis
    assert info.misses == len(set(asked)) < len(asked) == info.misses + info.hits
    assert info.currsize == info.misses <= lattice.CACHE_SIZE


def test_saturation_and_intersection():
    assert saturate_rows(M(((2, 4),))).rows == ((1, 2),)
    assert saturate_rows(M(((1, 0), (0, 1)))) == M.identity(2)
    both = intersect_rows(M(((2, 0), (0, 1))), M(((1, 0), (0, 3))))
    assert both.rows == ((2, 0), (0, 3))
    assert z.lattice_le(both, M(((2, 0), (0, 1))))
    assert z.lattice_le(both, M(((1, 0), (0, 3))))
    # the two lines meet only at the origin (their sum contains (2,0), not the meet)
    assert intersect_rows(M(((1, 1),)), M(((1, -1),))).nrows == 0
    assert intersect_rows(M(((2, 0),)), M(((3, 0),))).rows == ((6, 0),)


def test_fg_abelian_group():
    g = FGAbelianGroup(1, (2, 6))
    assert g.describe() == "Z + Z/2 + Z/6"
    assert g.torsion_order() == 12
    assert not g.is_trivial and FGAbelianGroup(0).is_trivial
    assert FGAbelianGroup(0).describe() == "0"
    # 2-primary parts {2, 2, 4} and 3-primary {3} recombine into (2, 2, 12)
    s = g.direct_sum(FGAbelianGroup(0, (4,)))
    assert s.rank == 1 and s.torsion == (2, 2, 12)
    with pytest.raises(ValueError):
        FGAbelianGroup(0, (6, 2))  # not a divisibility chain
    with pytest.raises(ValueError):
        FGAbelianGroup(-1)


def test_group_from_relations_and_quotient():
    assert group_from_relations(2, M(((2, 0),))) == FGAbelianGroup(1, (2,))
    assert group_from_relations(2, M((), 2)) == FGAbelianGroup(2)
    assert group_from_relations(1, M(((1,),))).is_trivial
    # Z^2 / <(2,0),(0,3)> = Z/2 + Z/3 = Z/6
    assert group_from_relations(2, M(((2, 0), (0, 3)))) == FGAbelianGroup(0, (6,))
    q = z.quotient_group(M.identity(2), M(((2, 0),)))
    assert q == FGAbelianGroup(1, (2,))
    # sub written in ambient coordinates, not in sup coordinates
    q = z.quotient_group(M(((2, 0), (0, 1))), M(((4, 0),)))
    assert q == FGAbelianGroup(1, (2,))
    # defined on the sum of the lattices, so no sublattice precondition
    assert z.quotient_group(M(((2, 0),)), M(((1, 0),))).is_trivial
    with pytest.raises(ValueError):
        z.quotient_group(M(((1, 0),)), M(((1,),)))  # ambient mismatch


def test_presentation_and_hom():
    p = Presentation(2, M(((0, 2),)))
    assert p.group() == FGAbelianGroup(1, (2,))
    assert p.contains_relation((0, 4)) and not p.contains_relation((1, 0))
    free = Presentation.free(2)
    h = M(((2, 0), (0, 3)))
    assert free.cokernel(h) == FGAbelianGroup(0, (6,))
    assert free.kernel(h).nrows == 0
    # maps are (target x source) matrices: they act on column vectors
    z2 = Presentation(1, M(((2,),)))
    assert z2.cokernel(M(((1, 0),))).is_trivial
    assert z2.kernel(M(((1, 0),))).rows == ((2, 0), (0, 1))
    assert z2.kernel(M(((2, 4),))).rows == ((1, 0), (0, 1))
    assert z2.kernel(M(((1, 1),))).rows == ((1, 1), (0, 2))
    for bad in (M(((1,), (1,))), M((), 1)):  # a map that does not land in the generators
        with pytest.raises(ValueError):
            z2.cokernel(bad)
        with pytest.raises(ValueError):
            z2.kernel(bad)


def _check_cokernel_and_kernel(target: Presentation, m: IntMatrix):
    image = m.transpose()  # rows: images of the unit vectors
    assert target.cokernel(m) == z.quotient_group(M.identity(target.ngens), vstack(image, target.relations))
    ker = target.kernel(m)
    assert ker == hermite_row_basis(ker)
    assert all(target.contains_relation(m.apply(x)) for x in ker.rows)
    # the source modulo the kernel is the image (im m + relations) / relations
    assert group_from_relations(m.ncols, ker) == z.quotient_group(image, target.relations)


@pytest.mark.parametrize("target, m", [
    (Presentation.free(2), M(((2, 0, 1), (0, 3, 1)))),
    (Presentation.free(3), M(((1, 2), (2, 4), (0, 0)))),
    (Presentation(2, M(((2, 0), (0, 6)))), M(((1, 0), (0, 4)))),
    (Presentation(2, M(((4, 2),))), M(((1, 1, 0), (3, 1, 2)))),
    (Presentation(1, M(((5,),))), M(((0,),))),
    (Presentation(1, M(((5,),))), M(((),), 0)),
])
def test_cokernel_and_kernel_match_the_quotient_oracle(target, m):
    _check_cokernel_and_kernel(target, m)


def test_cokernel_and_kernel_of_u_into_the_sigma_quotient():
    for gd in (*z.ALL_GROUPS, *z.random_gluings(7, 12)):
        att = derived_attributes(gd)
        for target in (gd.gluing.xd, gd.gluing.sigma_quotient()):
            _check_cokernel_and_kernel(target, att.u)


def test_coordinates():
    basis = M(((2, 0, 1), (0, 3, 1)))
    got = coordinates(basis, [(4, 3, 3), (0, 0, 0), (-2, 6, 1)])
    assert got.rows == ((2, 1), (0, 0), (-1, 2)) and got.ncols == 2
    assert coordinates(basis, [(4, 3, 3), (1, 0, 0)]) is None
    assert coordinates(basis, []) == M((), 2)
    # an empty basis: zero vectors have empty coordinates, others none
    empty = M((), 3)
    assert coordinates(empty, [(0, 0, 0), (0, 0, 0)]).rows == ((), ())
    assert coordinates(empty, [(0, 1, 0)]) is None
    with pytest.raises(ValueError):
        coordinates(basis, [(1, 0)])  # wrong length


def test_enumerate_matrix_group():
    swap = M(((0, 1), (1, 0)))
    els = enumerate_matrix_group((swap,))
    assert els[0] == M.identity(2) and len(els) == 2
    rot6 = M(((0, -1), (1, 1)))
    assert len(enumerate_matrix_group((rot6,))) == 6
    with pytest.raises(GroupTooLarge):
        enumerate_matrix_group((M(((1, 1), (0, 1))),), cap=100)
    with pytest.raises(GroupTooLarge):
        enumerate_matrix_group((rot6,), cap=3)


CLOSURE_DATA = {
    "A1": z.sl2, "A2": z.sl3, "A3": z.sl4, "A4": z.a4, "B2": z.sp4, "G2": z.g2,
    "A5": z.a5, "D4": z.d4, "F4": z.f4,
    # a transvection of X(T) makes the reflection matrices denser, as in seeded data
    "A5t": z.transvected(z.a5, 0, 4), "D4t": z.transvected(z.d4, 0, 3),
    "F4t": z.transvected(z.f4, 3, 0), "F4adj": z.adjoint_datum(z.f4),
}
CLOSURE_CASES = {
    name: tuple(simple_reflection(rd, i) for i in range(rd.nsimple)) for name, rd in CLOSURE_DATA.items()
}
CLOSURE_CASES.update(z.non_weyl_groups())


@pytest.mark.parametrize("name", sorted(CLOSURE_CASES))
def test_group_closure_matches_naive_bfs(name):
    gens = CLOSURE_CASES[name]
    elements = group_closure(gens, gens[0].nrows, 10**6)
    assert elements == z.naive_closure(gens)[0]
    assert all(isinstance(e, M) for e in elements)


def test_group_closure_multiplies_once_per_distinct_row(monkeypatch):
    calls = [0]

    def counting_mul(a, b):
        calls[0] += 1
        return a * b

    monkeypatch.setattr(lattice, "mul", counting_mul)
    gens = CLOSURE_CASES["A5"]
    n = gens[0].nrows
    elements = group_closure(gens, n, 10**6)
    rows = {row for e in elements for row in e.rows}
    assert (len(elements), len(rows)) == (720, 30)
    # one dot product per (distinct row, generator, column); a full product per
    # (element, generator) would make |W| * 5 * n^3 = 450000
    assert 0 < calls[0] <= len(rows) * len(gens) * n * n


# |GL_2(F_3)| = 48: a finite group's elements are distinct mod 3
INFINITE_GROUPS = {
    "unipotent": (M(((1, 1), (0, 1))),),
    "hyperbolic": (M(((2, 1), (1, 1))),),
    "sanov": (M(((1, 2), (0, 1))), M(((1, 0), (2, 1)))),
    "swap_and_shear": (M(((0, 1), (1, 0))), M(((1, 3), (0, 1)))),
}


@pytest.mark.parametrize("name", sorted(INFINITE_GROUPS))
def test_infinite_group_refused_within_gl2_f3(name):
    with pytest.raises(GroupTooLarge, match="infinite") as info:
        enumerate_matrix_group(INFINITE_GROUPS[name], cap=10**6)
    visited = int(re.search(r"first (\d+) elements", str(info.value)).group(1))
    assert visited <= 48
    if name == "unipotent":
        assert visited == 4  # 1, u, u^2, then u^3 agrees with 1 mod 3


# |GL_3(F_3)| = 11232
INFINITE_GROUPS_3 = {
    "heisenberg": (M(((1, 1, 0), (0, 1, 0), (0, 0, 1))), M(((1, 0, 0), (0, 1, 1), (0, 0, 1)))),
    "hyperbolic_block": (M(((2, 1, 0), (1, 1, 0), (0, 0, 1))),),
    "cycle_and_shear": (M(((0, 0, 1), (1, 0, 0), (0, 1, 0))), M(((1, 3, 0), (0, 1, 0), (0, 0, 1)))),
}


@pytest.mark.parametrize("name", sorted(INFINITE_GROUPS_3))
def test_infinite_3x3_group_refused_within_gl3_f3(name):
    with pytest.raises(GroupTooLarge, match="infinite") as info:
        enumerate_matrix_group(INFINITE_GROUPS_3[name], cap=10**6)
    assert int(re.search(r"first (\d+) elements", str(info.value)).group(1)) <= 11232


def test_finite_3x3_group_with_large_entries_is_not_refused():
    # W(A3) = S4, conjugated by p = 1 + 3N (N the nilpotent shift), p^-1 = 1 - 3N + 9N^2
    p = M(((1, 3, 0), (0, 1, 3), (0, 0, 1)))
    p_inv = M(((1, -3, 9), (0, 1, -3), (0, 0, 1)))
    assert p @ p_inv == M.identity(3)
    gens = tuple(p @ g @ p_inv for g in CLOSURE_CASES["A3"])
    elements = group_closure(gens, 3, 10**6)
    assert len(elements) == 24
    assert max(abs(x) for e in elements for row in e.rows for x in row) >= 3
    assert elements == z.naive_closure(gens)[0]


def test_matrix_group_refusals_are_not_cached():
    rot6 = M(((0, -1), (1, 1)))
    for _ in range(3):
        with pytest.raises(GroupTooLarge, match="infinite"):
            enumerate_matrix_group(INFINITE_GROUPS["unipotent"], cap=10**6)
        with pytest.raises(GroupTooLarge, match="cap 3"):
            enumerate_matrix_group((rot6,), cap=3)
        with pytest.raises(ValueError, match="invertible"):
            enumerate_matrix_group((M(((2, 0), (0, 1))),))
    assert len(enumerate_matrix_group((rot6,), cap=6)) == 6


def test_matrix_group_closed_once_per_key(monkeypatch):
    calls = []
    closure = lattice.group_closure
    monkeypatch.setattr(lattice, "group_closure", lambda *a: calls.append(a) or closure(*a))
    rootdata._matrix_group_order.cache_clear()
    gens = CLOSURE_CASES["levi_rot3"]  # no reflection group, so it is closed, not read off a Cartan type
    first = rootdata.matrix_group_order(gens)
    assert rootdata.matrix_group_order(list(gens)) == first
    assert rootdata.matrix_group_order(gens, cap=10**6) == first
    assert len(calls) == 1
    rootdata.matrix_group_order(gens, cap=first)  # another cap is another key
    assert len(calls) == 2


def test_fixed_sublattice():
    minus = M(((-1,),))
    assert fixed_sublattice((minus,), 1).nrows == 0
    swap = M(((0, 1), (1, 0)))
    assert fixed_sublattice((swap,), 2).rows == ((1, 1),)
    assert fixed_sublattice((), 2) == M.identity(2)
