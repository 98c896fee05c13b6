"""Picard, Neron-Severi and Chow presentations of groups and quotients."""

import math
from fractions import Fraction
from itertools import combinations

import pytest

import helpers as z
from chevalley_chow import chow, cli, descriptors, formats, invariants, lattice, rootdata, schubert
from chevalley_chow.chow import (
    GradedPresentation,
    chow_presentation,
    homogeneous_ns,
    homogeneous_picard,
    homogeneous_rational_chow,
    ns_group,
    picard_group,
    rational_chow,
)
from chevalley_chow.descriptors import (
    GroupDescriptor, SubgroupDescriptor, _subgroup_reflections, derived_attributes, restriction_to_subgroup,
    validate_subgroup)
from chevalley_chow.errors import DegreeTooLarge, GroupTooLarge, ModeUnsupported
from chevalley_chow.invariants import (
    invariant_slice,
    linear_poly,
    substitute,
    truncated_quotient,
)
from chevalley_chow.lattice import DEFAULT_CAP, FGAbelianGroup, IntMatrix
from chevalley_chow.rootdata import RootDatum, root_system, simple_reflection, weyl_group
from chevalley_chow.schubert import coinvariant_ideal_generators
from chevalley_chow.structure import albanese_split_test

M = IntMatrix


def test_picard_product_sl2():
    p = picard_group(z.product_sl2)
    assert p.ns == FGAbelianGroup(1)
    assert p.pic0.quotient_by.is_trivial
    assert p.presentation.x_g.nrows == 0
    assert p.pic0.describe() == "Pic0(A_1)"


def test_picard_product_pgl2():
    p = picard_group(z.product_pgl2)
    assert p.ns == FGAbelianGroup(1, (2,))  # NS(A) + Pic(PGL2)


def test_picard_semiabelian():
    p = picard_group(z.semiab)
    assert p.ns == FGAbelianGroup(1)
    assert p.pic0.quotient_by == FGAbelianGroup(1)
    assert p.presentation.x_g.nrows == 0
    assert "Pic0(A_1) / <1 generators" in p.pic0.describe()


def test_picard_cover_torsion():
    p = picard_group(z.cover_torsion)
    assert p.ns == FGAbelianGroup(1, (2,))
    assert p.pic0.quotient_by == FGAbelianGroup(1, (2,))
    assert p.presentation.x_g == M(((0, 0, 2),))
    assert ns_group(z.cover_torsion) == FGAbelianGroup(1, (2,))


def test_ns_decomposes_as_direct_sum(any_group):
    p = picard_group(any_group)
    assert p.ns.rank == any_group.av.ns.rank
    assert p.ns == any_group.av.ns.direct_sum(
        chow_presentation(any_group, 1).degree1_concrete)
    assert p.ns == ns_group(any_group)


def test_character_rank_bookkeeping(any_group):
    att = derived_attributes(any_group)
    p = picard_group(any_group)
    assert p.presentation.x_g.nrows == att.x_gaff.nrows - att.rank_im_gamma
    if albanese_split_test(any_group).answer == "yes":
        assert p.pic0.quotient_by.is_trivial


def test_chow_presentation_product_sl2():
    c = chow_presentation(z.product_sl2, 3)
    assert c.mode == "integral"
    assert c.concrete_factor.dims == (1, 1, 0, 0)
    assert len(c.ideal_degree1) == 1
    formal, exp = c.ideal_degree1[0]
    assert formal == () and exp.codegree == 1 and exp.terms == {1: Fraction(1)}
    assert c.degree1_concrete.is_trivial
    assert c.abelian_factor() == "A*(A_1)"


@pytest.mark.parametrize("name", ["F4-transvected", "E6"])
def test_chow_presentation_reads_no_weyl_group(name, monkeypatch):
    rd = {"F4-transvected": z.transvected(z.f4, 1, 2), "E6": z.e6}[name]

    def no_walk(*args):
        raise AssertionError("chow_presentation must not walk W")

    monkeypatch.setattr(rootdata, "_walk", no_walk)
    monkeypatch.setattr(rootdata, "_weyl_group", no_walk)  # a cached W does not count either
    monkeypatch.setattr(schubert, "chevalley_multiply", no_walk)
    c = chow_presentation(GroupDescriptor(name, rd, z.POINT, z.no_d(rd.rank)), 2)
    monkeypatch.undo()
    assert c.concrete_factor.dims == tuple(sum(1 for n in weyl_group(rd).lengths if n == d) for d in range(3))
    assert len(c.ideal_degree1) == rd.rank
    for j, (_, exp) in enumerate(c.ideal_degree1):
        assert exp == z.chevalley_by_matrices(rd, tuple(int(i == j) for i in range(rd.rank)), 0)


def test_chow_presentation_semiabelian():
    c = chow_presentation(z.semiab, 2)
    assert c.concrete_factor.dims == (1, 0, 0)
    assert len(c.ideal_degree1) == 1
    formal, exp = c.ideal_degree1[0]
    assert formal == (1,) and exp.is_zero


def test_chow_presentation_pgl2_torsion():
    c = chow_presentation(z.product_pgl2, 2)
    assert c.degree1_concrete == FGAbelianGroup(0, (2,))


def test_rational_chow_degree_bound(any_group):
    r = rational_chow(any_group, any_group.av.g + 1)
    assert r.mode == "rational"
    assert r.degree_bound == any_group.av.g
    assert all(d == 0 for d in r.concrete_factor.dims[1:])
    assert r.concrete_factor.dims[0] == 1


def test_rational_chow_values():
    r = rational_chow(z.product_sl2, 3)
    assert r.j_rank == 0 and r.degree_bound == 1 and r.ideal_degree1 == ()
    r = rational_chow(z.semiab, 2)
    assert r.j_rank == 1 and len(r.ideal_degree1) == 1
    assert r.ideal_degree1[0][0] == (1,) and r.ideal_degree1[0][1].is_zero
    assert r.abelian_factor() == "A*(A_1)_Q"
    r = rational_chow(z.sl2_affine, 2)
    assert r.degree_bound == 0 and r.abelian_g == 0 and r.j_rank == 0
    r = rational_chow(z.cover_torsion, 2)
    assert r.j_rank == 1 and len(r.ideal_degree1) == 1


def _over_a1(name, rd):
    return GroupDescriptor(name, rd, z.A1_AV, z.no_d(rd.rank))


# degrees below the top length, and past it where the slice oracle stays cheap
COINVARIANT_CASES = {
    "A1": (_over_a1("A1", z.sl2), (0, 2)), "A2": (_over_a1("A2", z.sl3), (2, 4)),
    "A3": (_over_a1("A3", z.sl4), (4, 7)), "A4": (_over_a1("A4", z.a4), (4,)),
    "B2": (_over_a1("B2", z.sp4), (2, 5)), "C3": (_over_a1("C3", z.c3), (4,)),
    "D4": (_over_a1("D4", z.d4), (4,)), "G2": (_over_a1("G2", z.g2), (3, 7)),
    "gl2_center": (z.gl2c, (0, 2)),
}


@pytest.mark.parametrize("name", COINVARIANT_CASES)
def test_chow_concrete_factor_matches_coinvariant_quotient(name):
    gd, degrees = COINVARIANT_CASES[name]
    for d in degrees:
        got = chow_presentation(gd, d).concrete_factor
        want = truncated_quotient(gd.rd.rank, coinvariant_ideal_generators(gd.rd, d), d)
        assert (got.dims, got.ambient_dims, got.total_dim) == (want.dims, want.ambient_dims, want.total_dim)


def test_rational_chow_matches_quotient_by_linear_forms(any_group):
    rank = any_group.rd.rank
    linear = [linear_poly(tuple(int(i == j) for i in range(rank))) for j in range(rank)]
    for d in (0, 3):
        got = rational_chow(any_group, d).concrete_factor
        want = truncated_quotient(rank, linear, d)
        assert (got.dims, got.ambient_dims, got.total_dim) == (want.dims, want.ambient_dims, want.total_dim)


def test_homogeneous_chow_torus_in_sl2():
    h = homogeneous_rational_chow(z.sl2_affine, z.t_sl2, 3)
    assert h.concrete_factor.dims == (1, 1, 0, 0)
    assert h.j_rank == 0


def test_homogeneous_chow_translation_components():
    # order-2 translation component group kills every concrete class
    h = homogeneous_rational_chow(z.product_sl2, z.nlt, 4)
    assert h.concrete_factor.dims == (1, 0, 0, 0, 0)
    assert h.j_rank == 0 and h.abelian_g == 1


def test_homogeneous_chow_borel():
    h = homogeneous_rational_chow(z.product_sl2, z.borel, 3)
    assert h.concrete_factor.dims == (1, 1, 0, 0)
    assert h.j_rank == 0
    h = homogeneous_rational_chow(z.product_sl3, z.borel_sl3, 4)
    assert h.concrete_factor.dims == (1, 2, 2, 1, 0)
    assert h.j_rank == 0


def test_homogeneous_chow_trivial_subgroup():
    h = homogeneous_rational_chow(z.semiab, z.trivial1, 2)
    assert h.concrete_factor.dims == (1, 0, 0) and h.j_rank == 1
    h = homogeneous_rational_chow(z.semiab, z.full_t, 2)
    assert h.concrete_factor.dims == (1, 0, 0) and h.j_rank == 0


def test_chow_of_g_is_hchow_of_the_trivial_subgroup(any_group):
    # consistency table, "H = 1 for Chow": G/1 = G, so both routes give one
    # concrete factor and one j_rank (their ambient_dims differ by design)
    trivial = SubgroupDescriptor("trivial", IntMatrix((), any_group.rd.rank))
    for d in range(5):
        want, got = rational_chow(any_group, d), homogeneous_rational_chow(any_group, trivial, d)
        assert (got.concrete_factor.dims, got.j_rank) == (want.concrete_factor.dims, want.j_rank), d


def test_hchow_degree_1_is_the_rank_of_the_x_part():
    # consistency table, "Degree 1": dim A^1(G/H)_Q is the rank of X(H)/r_H X(G_aff)
    pairs = [(doc.group, hd) for doc in map(formats.parse_descriptor, map(z.fixture_bytes, z.FIXTURE_NAMES))
             for _, hd in doc.subgroups]
    checked = 0
    for gd, hd in pairs:
        try:
            dims = homogeneous_rational_chow(gd, hd, 1).concrete_factor.dims
        except ModeUnsupported:  # H contains G_ant
            continue
        assert homogeneous_picard(gd, hd).x_part.rank == dims[1], (gd.name, hd.name)
        checked += 1
    assert (len(pairs), checked) == (19, 17)


def _component_subgroup(name, *generators):
    return SubgroupDescriptor(name, IntMatrix.identity(2), component_generators=generators,
                              translations=(False,) * len(generators), ant_contains_gantaff=True)


def test_homogeneous_chow_bounds_the_component_group_before_the_quotient(monkeypatch):
    def no_quotient(*args, **kwargs):
        raise AssertionError("the group order must be bounded before the quotient")

    calls = []
    closure = lattice.group_closure
    monkeypatch.setattr(lattice, "group_closure", lambda *a: calls.append(a[0]) or closure(*a))
    quotient, slices = chow.truncated_quotient, invariants.invariant_slice
    monkeypatch.setattr(chow, "truncated_quotient", no_quotient)
    monkeypatch.setattr(invariants, "invariant_slice", no_quotient)
    # the order and enumeration caches live for the process: start from empty ones
    rootdata._matrix_group_order.cache_clear()
    unipotent = _component_subgroup("unipotent", IntMatrix(((1, 1), (0, 1))))
    with pytest.raises(GroupTooLarge):
        homogeneous_rational_chow(z.product_sl3, unipotent, 2)
    assert len(calls) == 1
    monkeypatch.setattr(chow, "truncated_quotient", quotient)
    monkeypatch.setattr(invariants, "invariant_slice", slices)
    # a rotation of order 3 is closed once, and a second request reuses its order
    rot3 = _component_subgroup("rot3", simple_reflection(z.sl3, 0) @ simple_reflection(z.sl3, 1))
    for _ in range(2):
        assert homogeneous_rational_chow(z.product_sl3, rot3, 3).concrete_factor.dims == (1, 0, 0, 1)
    assert len(calls) == 2
    # the normalizer's component group is W(A2), generated by the simple
    # reflections: its order is read off the Cartan type, with no closure
    normalizer = _component_subgroup("normalizer", *(simple_reflection(z.sl3, i) for i in range(2)))
    assert homogeneous_rational_chow(z.product_sl3, normalizer, 3).concrete_factor.dims == (1, 0, 0, 0)
    assert len(calls) == 2


def test_negative_max_degree_refused_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a negative degree must be refused first")

    for name in ("derived_attributes", "truncated_quotient", "coinvariant_ideal_generators",
                 "free_quotient", "invariant_degrees", "contains_nontrivial_ant"):
        monkeypatch.setattr(chow, name, no_work)
    with pytest.raises(ValueError, match="nonnegative"):
        chow_presentation(z.product_sl2, -1)
    with pytest.raises(ValueError, match="nonnegative"):
        rational_chow(z.product_sl2, -1)
    with pytest.raises(ValueError, match="nonnegative"):
        homogeneous_rational_chow(z.product_sl2, z.borel, -1)


def test_degree_past_budget_refused_before_any_slice(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a degree past the budget must be refused first")

    # invariants.invariant_slice builds every slice, chow.truncated_quotient
    # the quotient of the elimination route (trivial3)
    monkeypatch.setattr(invariants, "invariant_slice", no_work)
    monkeypatch.setattr(chow, "truncated_quotient", no_work)
    monkeypatch.setattr(chow, "free_quotient", no_work)
    top = invariants.DEGREE_BUDGET + 1
    with pytest.raises(DegreeTooLarge, match="exceeds budget"):
        chow_presentation(z.cover_torsion, top)
    with pytest.raises(DegreeTooLarge, match="exceeds budget"):
        rational_chow(z.cover_torsion, top)
    with pytest.raises(DegreeTooLarge, match="exceeds budget"):
        homogeneous_rational_chow(z.cover_torsion, z.trivial3, top)
    with pytest.raises(DegreeTooLarge, match="exceeds budget"):
        homogeneous_rational_chow(z.product_sl2, z.borel, 10**6)


def test_slice_past_budget_refused_before_any_slice(monkeypatch):
    # rank 3: C(3 + d - 1, d) is 21 at d = 5 and 28 at d = 6
    assert invariants.SLICE_BUDGET == 21
    assert homogeneous_rational_chow(z.cover_torsion, z.trivial3, 5).concrete_factor.max_degree == 5

    def no_work(*args, **kwargs):
        raise AssertionError("a slice past the budget must be refused first")

    # invariants.invariant_slice builds every slice, chow.truncated_quotient
    # the quotient of the elimination route (trivial3)
    monkeypatch.setattr(invariants, "invariant_slice", no_work)
    monkeypatch.setattr(chow, "truncated_quotient", no_work)
    for top in (6, invariants.DEGREE_BUDGET):
        with pytest.raises(DegreeTooLarge, match="exceeds budget 21"):
            homogeneous_rational_chow(z.cover_torsion, z.trivial3, top)
    # the budget binds the elimination route only: a torus has K = 1, so its
    # answer is read off degrees, no slice built, at any degree in the degree
    # budget, in rank 1 and in rank 2, where the degree-21 slice has dimension 22
    top = invariants.DEGREE_BUDGET
    assert homogeneous_rational_chow(z.product_sl2, z.t_sl2, top).concrete_factor.dims == (1, 1) + (0,) * (top - 1)
    torus = SubgroupDescriptor("torus", IntMatrix.identity(2))
    assert homogeneous_rational_chow(z.gl2c, torus, 21).concrete_factor.dims == (1, 1) + (0,) * 20
    with pytest.raises(DegreeTooLarge, match="dimension 22, which exceeds budget 21"):
        homogeneous_rational_chow(z.gl2c, z.trivial2, 21)


def test_homogeneous_chow_refuses_g_ant():
    with pytest.raises(ModeUnsupported):
        homogeneous_rational_chow(z.semiab, z.g_ant_sub, 2)


def test_homogeneous_picard_nlt():
    hp = homogeneous_picard(z.product_sl2, z.nlt)
    assert hp.mode == "rational"
    assert hp.ns_part == FGAbelianGroup(1) and hp.x_part.is_trivial
    assert hp.ns == FGAbelianGroup(1)
    assert hp.x_gh.nrows == 0
    with pytest.raises(ModeUnsupported):
        homogeneous_picard(z.product_sl2, z.nlt, integral=True)


def test_homogeneous_picard_integral_cases():
    hp = homogeneous_picard(z.sl2_affine, z.t_sl2)
    assert hp.mode == "integral"
    assert hp.ns == FGAbelianGroup(1)
    assert hp.ns_part.is_trivial and hp.x_part == FGAbelianGroup(1)
    hp = homogeneous_picard(z.product_sl2, z.borel)
    assert hp.mode == "integral"
    assert homogeneous_picard(z.product_sl2, z.borel, integral=False) == hp
    assert hp.ns == FGAbelianGroup(2)  # NS(A) + Pic(P^1)
    assert hp.tail.is_trivial
    assert hp.x_gh.nrows == 0


def test_homogeneous_picard_torsion_x_part():
    from chevalley_chow.descriptors import SubgroupDescriptor, validate_subgroup

    # H = quotient torus along chi1 + chi2 in GL2: X(G_aff) = Z(1,1) restricts
    # onto 2 X(H), so the character part of Pic(G/H) picks up a Z/2
    diag = SubgroupDescriptor("diag", M(((1, 1),)))
    assert validate_subgroup(z.gl2c, diag).ok
    hp = homogeneous_picard(z.gl2c, diag)
    assert hp.mode == "integral"
    assert hp.x_part == FGAbelianGroup(0, (2,))
    assert hp.ns == FGAbelianGroup(1, (2,))


def test_homogeneous_ns():
    n = homogeneous_ns(z.product_sl2, z.t_sl2)
    assert n.mode == "integral" and n.group == FGAbelianGroup(2)
    n = homogeneous_ns(z.product_sl2, z.nlt)
    assert n.mode == "rational" and n.group == FGAbelianGroup(1)
    assert n.pic0.quotient_by.is_trivial
    n = homogeneous_ns(z.semiab, z.full_t)
    assert n.mode == "integral" and n.group == FGAbelianGroup(1)
    n = homogeneous_ns(z.product_pgl2, z.t_sl2)  # PGL2 is not factorial
    assert n.mode == "rational" and n.group == FGAbelianGroup(2)


def _budget_degree(rank: int) -> int:
    """The largest degree ``hchow`` admits in ``rank`` variables (slice and degree budgets)."""
    return max(d for d in range(invariants.DEGREE_BUDGET + 1)
               if (math.comb(rank + d - 1, d) if rank else 1) <= invariants.SLICE_BUDGET)


def test_hchow_dims_match_every_basis_invariant_as_generator(fixture_doc):
    # the minimal coinvariant generators span the same ideal as all basis invariants
    gd = fixture_doc.group
    refl = tuple(simple_reflection(gd.rd, i) for i in range(gd.rd.nsimple))
    for name, hd in fixture_doc.subgroups:
        top = _budget_degree(max(gd.rd.rank, hd.h_rank))
        try:
            got = homogeneous_rational_chow(gd, hd, top).concrete_factor
        except ModeUnsupported:
            continue
        every = [substitute(hd.q_matrix, f) for e in range(1, top + 1) for f in invariant_slice(gd.rd.rank, refl, e)]
        group = _subgroup_reflections(gd, hd) + hd.component_generators
        assert got.dims == truncated_quotient(hd.h_rank, [f for f in every if f], top, group).dims, name


def test_hchow_gl2_degree_20_multiplies_few_polynomials(monkeypatch, capsys):
    # with every basis invariant as an ideal generator this call made 11,715 poly_mul calls
    calls = []
    mul = invariants.poly_mul
    monkeypatch.setattr(invariants, "poly_mul", lambda a, b: calls.append(1) or mul(a, b))
    invariants._invariant_slice.cache_clear()
    argv = ["hchow", "torus", str(z.FIXTURE_DIR / "gl2_center.json"), "--max-degree", "20"]
    assert cli.main(argv) == 0
    assert "dims: [1, 1, 0, 0" in capsys.readouterr().out
    assert len(calls) <= 4000


def _outcome(gd, hd, top, cap):
    """Both routes' answers as (concrete factor, j_rank), or the type and
    message of what each raised."""
    out = []
    for route in (homogeneous_rational_chow, z.hchow_by_elimination):
        try:
            got = route(gd, hd, top, cap)
        except Exception as e:  # the comparison is of the refusals themselves
            got = type(e), str(e)
        out.append((got.concrete_factor, got.j_rank) if isinstance(got, GradedPresentation) else got)
    return out


@pytest.mark.parametrize("key", [*sorted(z.SWEEP), "E6"])
def test_flag_factor_is_the_chow_ring_of_g_mod_t(key):
    # A*(G/B)_Q = A*(G/T)_Q: G/T -> G/B is an affine-space bundle, so the
    # integral report's concrete factor equals hchow of the torus, q = 1 and
    # no roots, in every degree up to one past the top N; both are the
    # length histogram of W, zero-padded
    rd = z.e6 if key == "E6" else z.SWEEP[key]
    gd = z.affine_group(key, rd)
    torus = SubgroupDescriptor("torus", IntMatrix.identity(rd.rank))
    hist = schubert.codegree_histogram(rd)
    top = len(hist) - 1
    assert top == sum(rootdata.validate_root_datum(rd).degrees) - rd.rank
    for d in range(top + 2):
        flag = chow_presentation(gd, d).concrete_factor
        assert flag == homogeneous_rational_chow(gd, torus, d).concrete_factor, (key, d)
        assert flag.dims == (hist + (0,))[:d + 1], (key, d)


def test_weyl_order_past_the_cap_refused_before_the_series(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("|W| past the cap must be refused first")

    monkeypatch.setattr(chow, "free_quotient", no_work)
    with pytest.raises(GroupTooLarge, match="51840 exceeds cap 1000"):
        chow_presentation(z.affine_group("E6", z.e6), 2, cap=1000)


@pytest.mark.parametrize("rank", range(7))
def test_rational_flag_factor_is_q_in_degree_0(rank):
    # every c1(L_chi) dies in A*(G)_Q: Q in degree 0 over Sym(Q^rank), with
    # or without roots
    for rd in (RootDatum(rank, IntMatrix((), rank), IntMatrix((), rank)),
               *([z.cartan_datum(z.type_a(rank))] if rank else [])):
        gd = z.affine_group(f"rank{rank}", rd)
        for d in range(5):
            got = rational_chow(gd, d).concrete_factor
            assert got.rank == rank and got.dims == (1,) + (0,) * d
            assert got.ambient_dims == tuple(math.comb(rank + k - 1, k) if rank else int(k == 0)
                                             for k in range(d + 1))


def test_full_rank_hchow_matches_the_elimination_route():
    # S^K is free over S^W, so Hilb(S^K) * prod(1 - t^d_i) must be what the
    # degree-by-degree elimination leaves, on every sweep pair
    for key, rd in z.SWEEP.items():
        gd = z.affine_group(key, rd)
        top = 3 if rd.rank <= 4 else 2
        for name, hd in z.full_rank_subgroups(rd):
            got = homogeneous_rational_chow(gd, hd, top)
            assert (got.concrete_factor, got.j_rank) == z.hchow_by_elimination(gd, hd, top), (key, name)


def test_full_rank_hchow_refuses_as_the_elimination_route():
    a2, a3 = z.affine_group("A2", z.SWEEP["A2-sc"]), z.affine_group("A3", z.SWEEP["A3-sc"])
    subgroups = dict(z.full_rank_subgroups(a3.rd))
    levi = subgroups["levi(0,)"]
    # s_1 moves alpha_0, so it does not stabilize X(H0) = {chi : <chi, alpha_0^vee> = 0}
    moved = SubgroupDescriptor("moved", levi.q_matrix, levi.roots,
                               component_generators=(simple_reflection(a3.rd, 1),), translations=(False,))
    unipotent = _component_subgroup("unipotent", IntMatrix(((1, 1), (0, 1))))
    for gd, hd, top, cap, kind in ((a3, moved, 2, DEFAULT_CAP, ValueError),
                                   (a2, unipotent, 2, DEFAULT_CAP, GroupTooLarge),  # infinite
                                   (a3, subgroups["borel"], 2, 10, GroupTooLarge),  # |W| = 24
                                   (a3, subgroups["normalizer"], 0, 10, GroupTooLarge)):
        got, want = _outcome(gd, hd, top, cap)
        assert got == want and got[0] is kind, hd.name
    # at degree 0 no Weyl invariant is asked for, so only K meets the cap:
    # the Borel (K = 1) is answered, every H with a reflection refused
    for name, hd in subgroups.items():
        got, want = _outcome(a3, hd, 0, 1)
        assert got == want, name
    assert _outcome(a3, subgroups["borel"], 0, 1)[0][0].dims == (1,)


def test_full_rank_hchow_builds_no_ideal(monkeypatch):
    def no_ideal(*args, **kwargs):
        raise AssertionError("a full-rank H needs no ideal")

    for owner, name in ((chow, "coinvariant_ideal_generators"), (chow, "restriction_to_subgroup"),
                        (chow, "truncated_quotient"), (invariants, "quotient_basis"),
                        (schubert, "quotient_basis")):
        monkeypatch.setattr(owner, name, no_ideal)
    rd = z.SWEEP["A3-adj"]
    gd = z.affine_group("A3", rd)
    for name, hd in z.full_rank_subgroups(rd):
        assert homogeneous_rational_chow(gd, hd, 3).j_rank == 0
    # a rank-deficient H still takes the elimination route
    with pytest.raises(AssertionError, match="no ideal"):
        homogeneous_rational_chow(z.cover_torsion, z.trivial3, 2)


def test_elimination_route_builds_no_subgroup_characters(monkeypatch):
    # ker r_H depends on q alone, so j_rank needs no X(H); the answers are
    # those of the route that built X(H) to read ker r_H
    def no_x_h(*args, **kwargs):
        raise AssertionError("the elimination route needs no X(H)")

    monkeypatch.setattr(descriptors, "subgroup_characters", no_x_h)
    monkeypatch.setattr(chow, "restriction_to_subgroup", no_x_h)
    g2 = z.affine_group("G2", z.SWEEP["G2-sc"])
    rot6 = _component_subgroup("rot6", simple_reflection(g2.rd, 0) @ simple_reflection(g2.rd, 1))
    subtorus = SubgroupDescriptor("subtorus", IntMatrix(((0, 0, 1), (1, 0, 0))))
    for gd, hd, top, dims, j_rank in ((z.cover_torsion, z.trivial3, 2, (1, 0, 0), 1),
                                      (z.cover_torsion, subtorus, 3, (1, 1, 0, 0), 1),
                                      (g2, rot6, 3, (1, 0, 0, 0), 0)):
        got = homogeneous_rational_chow(gd, hd, top)
        assert (got.concrete_factor.dims, got.j_rank) == (dims, j_rank), hd.name


def test_x_h0_guard_runs_before_any_slice_on_the_elimination_route(monkeypatch):
    def no_slice(*args, **kwargs):
        raise AssertionError("a component group moving X(H0) must be refused before any slice")

    a3 = z.affine_group("A3", z.SWEEP["A3-sc"])
    levi = dict(z.full_rank_subgroups(a3.rd))["levi(0,)"]
    # the rotation s_1 s_2 moves alpha_0, and with s_0 it generates a K that is
    # closed, not recognized, so this H takes the elimination route
    rot = simple_reflection(a3.rd, 1) @ simple_reflection(a3.rd, 2)
    moved = SubgroupDescriptor("moved", levi.q_matrix, levi.roots, component_generators=(rot,), translations=(False,))
    assert rootdata.invariant_degrees(_subgroup_reflections(a3, moved) + (rot,)) is None
    for owner, name in ((chow, "coinvariant_ideal_generators"), (chow, "truncated_quotient"),
                        (invariants, "invariant_slice")):
        monkeypatch.setattr(owner, name, no_slice)
    with pytest.raises(ValueError, match=r"component group does not stabilize X\(H0\)"):
        homogeneous_rational_chow(a3, moved, 2)


def test_hchow_j_rank_is_read_off_the_hpic_report(fixture_doc):
    # j_rank = rank gamma_A(ker r_H) = rank ker r_H - rank(ker r_H meet ker gamma_A),
    # and hpic's x_gh is that meet
    gd = fixture_doc.group
    x_gaff = derived_attributes(gd).x_gaff
    for name, hd in fixture_doc.subgroups:
        try:
            j_rank = homogeneous_rational_chow(gd, hd, 1).j_rank
            x_gh = homogeneous_picard(gd, hd).x_gh
        except ModeUnsupported:
            continue
        assert j_rank == restriction_to_subgroup(gd, hd, x_gaff).ker_r.nrows - x_gh.nrows, name


def test_parabolic_and_levi_dims_are_the_classical_series():
    # A*(G/P)_Q = A*(G/L)_Q has Poincare series prod(1 - t^d_i(G)) / prod(1 - t^d_j(L)),
    # with both degree lists read off root heights, no invariant built
    assert sorted(z.degrees_from_heights(root_system(z.SWEEP["D4-sc"]).positive, 4)) == [2, 4, 4, 6]
    a3 = z.affine_group("A3", z.SWEEP["A3-sc"])
    subgroups = dict(z.full_rank_subgroups(a3.rd))
    assert homogeneous_rational_chow(a3, subgroups["par(0,)"], 3).concrete_factor.dims == (1, 2, 3, 3)
    assert homogeneous_rational_chow(a3, subgroups["levi(0,2)"], 3).concrete_factor.dims == (1, 1, 2, 1)
    for key, rd in z.SWEEP.items():
        gd = z.affine_group(key, rd)
        top = 3 if rd.rank <= 4 else 2
        pos = root_system(rd).positive
        g_degrees = z.degrees_from_heights(pos, rd.rank)
        for name, hd in z.full_rank_subgroups(rd):
            if name == "normalizer" or "+" in name:  # not a Levi or a parabolic
                continue
            l_degrees = z.degrees_from_heights([pos[i] for i in hd.symmetric_root_indices()], rd.rank)
            got = homogeneous_rational_chow(gd, hd, top).concrete_factor.dims
            assert got == z.quotient_series(g_degrees, l_degrees, top), (key, name)


def _slice_top(rank):
    """The largest degree whose slice in ``rank`` variables both budgets admit."""
    return max(d for d in range(invariants.DEGREE_BUDGET + 1)
               if math.comb(rank + d - 1, d) <= invariants.SLICE_BUDGET)


def _no_work(*args, **kwargs):
    raise AssertionError("a trivial or recognized K needs no slice and no coordinates")


@pytest.mark.parametrize("key", sorted(z.SWEEP))
def test_closed_invariant_series_counts_the_slices(key, monkeypatch):
    # K generated by simple reflections is a Weyl group, whose invariants are
    # polynomial (Chevalley): prod_j 1/(1 - t^e_j) must count every slice of
    # S^K, for each subset of the simple reflections, the empty one (K = 1) too
    rd = z.SWEEP[key]
    gd, top = z.affine_group(key, rd), _slice_top(rd.rank)
    refl = tuple(simple_reflection(rd, i) for i in range(rd.nsimple))
    subsets = [sub for size in range(rd.nsimple + 1) for sub in combinations(refl, size)]
    monkeypatch.setattr(invariants, "invariant_slice", _no_work)
    got = [homogeneous_rational_chow(gd, SubgroupDescriptor("k", IntMatrix.identity(rd.rank), component_generators=sub,
                                                            translations=(False,) * len(sub)), top)
           for sub in subsets]
    monkeypatch.undo()
    for sub, h in zip(subsets, got):
        assert h.concrete_factor.ambient_dims == tuple(len(invariant_slice(rd.rank, sub, d)) for d in range(top + 1))


@pytest.mark.parametrize("key", sorted(z.SWEEP))
def test_normalizer_is_answered_with_no_slice_and_no_coordinates(key, monkeypatch):
    # K = W and X(H0) = X(T): S^K = S^W, so G/N(T) has the rational Chow ring of a point
    rd = z.SWEEP[key]
    gd, top = z.affine_group(key, rd), _slice_top(rd.rank)
    normalizer = dict(z.full_rank_subgroups(rd, max_levi=0))["normalizer"]
    monkeypatch.setattr(invariants, "invariant_slice", _no_work)
    monkeypatch.setattr(descriptors, "coordinates", _no_work)
    assert validate_subgroup(gd, normalizer).ok
    got = homogeneous_rational_chow(gd, normalizer, top)
    assert got.concrete_factor.dims == (1,) + (0,) * top and got.j_rank == 0


def test_unrecognized_k_still_builds_the_slices(monkeypatch):
    built = []
    slices = invariants.invariant_slice
    monkeypatch.setattr(invariants, "invariant_slice", lambda *a: built.append(a) or slices(*a))
    g2, a3 = z.affine_group("G2", z.SWEEP["G2-sc"]), z.affine_group("A3", z.SWEEP["A3-sc"])
    # the Coxeter element of G2, a rotation of order 6 inside W, is no
    # reflection: K is not recognized, so S^K is eliminated slice by slice
    rot6 = _component_subgroup("rot6", simple_reflection(g2.rd, 0) @ simple_reflection(g2.rd, 1))
    assert rootdata.invariant_degrees(_subgroup_reflections(g2, rot6) + rot6.component_generators) is None
    got = homogeneous_rational_chow(g2, rot6, 3)
    assert built
    assert (got.concrete_factor, got.j_rank) == z.hchow_by_elimination(g2, rot6, 3)
    # the Levi's reflections come from all three positive roots of A2 in A3:
    # closed under one another, so K is read off their base, with no slice
    levi = dict(z.full_rank_subgroups(a3.rd))["levi(0,1)"]
    assert rootdata.invariant_degrees(_subgroup_reflections(a3, levi)) == (1, 2, 3)
    built.clear()
    got = homogeneous_rational_chow(a3, levi, 3)
    assert not built
    assert (got.concrete_factor, got.j_rank) == z.hchow_by_elimination(a3, levi, 3)
