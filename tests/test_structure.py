"""Structural criteria: Albanese, affinization, covers, fibrations, completeness."""

import random
from itertools import combinations

import pytest

import helpers as z
from chevalley_chow import chow, lattice, rootdata, structure
from chevalley_chow.chow import homogeneous_picard, homogeneous_rational_chow, picard_group
from chevalley_chow.descriptors import (
    AntiAffineGluing,
    GroupDescriptor,
    SubgroupDescriptor,
    contains_nontrivial_ant,
    derived_attributes,
    validate_group,
    validate_subgroup,
)
from chevalley_chow.errors import GroupTooLarge, ModeUnsupported
from chevalley_chow.lattice import FGAbelianGroup, IntMatrix, Presentation
from chevalley_chow.rootdata import affine_picard_group, simple_reflection
from chevalley_chow.structure import (
    affine_test,
    affinization_test,
    albanese_split_test,
    completeness_test,
    construct_cover,
    fibration_report,
    phi_local_triviality_test,
    Verdict,
)

M = IntMatrix


def test_verdict_answers_restricted():
    with pytest.raises(ValueError):
        Verdict("maybe", "criterion")


def test_albanese_split():
    v = albanese_split_test(z.product_sl2)
    assert v.answer == "yes"
    assert v.witness["factors"] == ("A_1", "A1")
    assert v.witness["albanese_locally_trivial"] == "yes"
    assert albanese_split_test(z.semiab).answer == "no"
    assert albanese_split_test(z.cover_torsion).answer == "no"
    assert albanese_split_test(z.sl2_affine).answer == "yes"


def test_affinization():
    a = affinization_test(z.semiab)
    assert a.locally_trivial.answer == "yes" and a.trivial.answer == "yes"
    a = affinization_test(z.gl2c)
    assert a.locally_trivial.answer == "yes" and a.trivial.answer == "no"
    a = affinization_test(z.cover_torsion)
    assert a.locally_trivial.answer == "no" and a.trivial.answer == "no"
    a = affinization_test(z.sl2t_d)
    assert a.trivial.answer == "yes"


def test_construct_cover_pgl2():
    out = construct_cover(z.product_pgl2)
    assert out is not z.product_pgl2
    assert out.rd.simple_roots == M(((2,),))
    assert out.rd.simple_coroots == M(((1,),))
    assert affinization_test(out).trivial.answer == "yes"
    assert construct_cover(out) is out


def test_construct_cover_torsion():
    out = construct_cover(z.cover_torsion)
    assert out.gluing.xd.group() == FGAbelianGroup(1)
    assert out.gluing.v_matrix == M(((0, 1, 0),))
    assert validate_group(out).ok
    assert affinization_test(out).trivial.answer == "yes"
    assert construct_cover(out) is out
    assert derived_attributes(out).d_smooth_connected


def test_construct_cover_fixed_points():
    assert construct_cover(z.semiab) is z.semiab
    assert construct_cover(z.product_sl2) is z.product_sl2
    out = construct_cover(z.gl2c)
    assert out is not z.gl2c  # affinization hom was not surjective
    assert affinization_test(out).trivial.answer == "yes"
    assert construct_cover(out) is out


def test_cover_laws_every_group(any_group):
    out = construct_cover(any_group)
    assert construct_cover(out) is out
    assert affinization_test(out).trivial.answer == "yes"
    assert affine_picard_group(out.rd).is_trivial
    assert validate_group(out).ok
    if out is not any_group:
        assert out.name == any_group.name + "-cover"
        # same abelian quotient; Picard NS-part loses its flag torsion only
        assert picard_group(out).ns == any_group.av.ns


@pytest.fixture(scope="module")
def random_gluings():
    return z.random_gluings(20261018, 200)


def test_cover_laws_on_random_gluings(random_gluings):
    for gd in random_gluings:
        out = construct_cover(gd)
        assert construct_cover(out) is out, gd
        assert validate_group(out).ok, gd
        assert affinization_test(out).trivial.answer == "yes", gd
        assert affine_picard_group(out.rd).is_trivial, gd


def test_cover_does_not_depend_on_the_relation_basis(random_gluings):
    rng = random.Random(7)
    for gd in random_gluings:
        glue = gd.gluing
        u = z.random_unimodular(rng, glue.xd.relations.nrows)
        moved = AntiAffineGluing(Presentation(glue.xd.ngens, u @ glue.xd.relations), glue.v_matrix,
                                 glue.sigma_kernel_gens, glue.unipotent_dim, glue.char)
        a = construct_cover(gd)
        b = construct_cover(GroupDescriptor(gd.name, gd.rd, gd.av, moved))
        assert (a.rd, a.gluing) == (b.rd, b.gluing), gd


def test_fibration_reports():
    f = fibration_report(z.product_sl2, z.nlt)
    assert f.torsor_dim == 0 and f.translation_index_bound == 2
    assert f.index_bound_over_gant_aff == 2 and f.dim_aut_ant == 1
    f = fibration_report(z.product_sl2, z.trivial1)
    assert f.torsor_dim == 0 and f.index_bound_over_gant_aff == 1
    f = fibration_report(z.semiab, z.trivial1)
    assert f.torsor_dim == 1 and f.torsor_xd == FGAbelianGroup(1)
    assert f.index_bound_over_gant_aff == 1 and f.dim_aut_ant == 2
    f = fibration_report(z.cover_torsion, z.trivial3)
    assert f.index_bound_over_gant_aff == 2  # torsion order of X(D)
    f = fibration_report(z.semiab, z.g_ant_sub)
    assert f.dim_aut_ant == 0 and f.translation_index_bound is None


def _simple_reflections(rd):
    return tuple(simple_reflection(rd, i) for i in range(rd.nsimple))


INDEX_TYPES = (("A1", z.sl2), ("A2", z.sl3), ("A3", z.sl4), ("A4", z.a4), ("B2", z.cartan_datum([[2, -2], [-1, 2]])),
               ("C3", z.c3), ("D4", z.d4), ("G2", z.cartan_datum([[2, -3], [-1, 2]])), ("F4", z.f4))
#: component generator sets: the simple reflections of each type in three forms, and two non-Weyl groups
INDEX_GENERATORS = {
    f"{name}-{form}": _simple_reflections(rd)
    for name, sc in INDEX_TYPES
    for form, rd in (("sc", sc), ("adj", z.adjoint_datum(sc)),
                     ("transvected", z.transvected(sc, 0, 1) if sc.rank > 1 else None))
    if rd is not None
}
INDEX_GENERATORS.update(z.non_weyl_groups())


@pytest.mark.parametrize("name", INDEX_GENERATORS)
def test_translation_index_matches_the_conjugates_of_every_element(name):
    gens = INDEX_GENERATORS[name]
    for k in range(1, len(gens) + 1):
        for flagged in combinations(range(len(gens)), k):
            flags = tuple(i in flagged for i in range(len(gens)))
            hd = SubgroupDescriptor("n", M.identity(gens[0].nrows), component_generators=gens, translations=flags)
            assert structure._translation_index_bound(hd, lattice.DEFAULT_CAP) == \
                z.translation_index_by_conjugates(hd), flags


def _outcome(f):
    try:
        return f()
    except (GroupTooLarge, ValueError) as e:
        return type(e), str(e)


@pytest.mark.parametrize("gens, cap", [
    ((M(((1, 1), (0, 1))), M(((-1, 0), (0, 1)))), lattice.DEFAULT_CAP),  # infinite
    (_simple_reflections(z.sl4), 23),  # |W(A3)| = 24 past the cap
    ((M(((2, 0), (0, 1))), M(((-1, 0), (0, 1)))), lattice.DEFAULT_CAP),  # not invertible over Z
], ids=["infinite", "over-cap", "singular"])
def test_translation_index_refuses_as_the_closure_does(gens, cap):
    hd = SubgroupDescriptor("n", M.identity(gens[0].nrows), component_generators=gens,
                            translations=(True,) + (False,) * (len(gens) - 1))
    refusal = _outcome(lambda: structure._translation_index_bound(hd, cap))
    assert refusal[0] in (GroupTooLarge, ValueError)
    assert refusal == _outcome(lambda: z.translation_index_by_conjugates(hd, cap))


def test_translation_index_closes_the_conjugates_of_the_generators_only(monkeypatch):
    sizes = []
    closure = lattice.group_closure
    monkeypatch.setattr(lattice, "group_closure", lambda gens, *a: sizes.append(len(gens)) or closure(gens, *a))
    rootdata._matrix_group_order.cache_clear()
    gd = GroupDescriptor("F4", z.f4, z.A1_AV, z.no_d(4))
    hd = SubgroupDescriptor("normalizer", M.identity(4), component_generators=_simple_reflections(z.f4),
                            translations=(True, False, False, False))
    assert fibration_report(gd, hd).translation_index_bound == 1
    # W(F4) is read off its Cartan type; the three unflagged reflections close
    # under conjugation by the generators to the 24 reflections, not to the
    # 3 * 1152 conjugates by every element, and those are closed under one
    # another, so their group is read off their base: nothing is closed
    assert sizes == []
    # the same on E6, whose 36 reflections once took a closure of all of W(E6)
    gd = GroupDescriptor("E6", z.e6, z.A1_AV, z.no_d(6))
    hd = SubgroupDescriptor("normalizer", M.identity(6), component_generators=_simple_reflections(z.e6),
                            translations=(True,) + (False,) * 5)
    assert fibration_report(gd, hd).translation_index_bound == 1
    assert sizes == []
    assert not hasattr(structure, "enumerate_matrix_group")


def test_phi_local_triviality():
    assert phi_local_triviality_test(z.product_sl2, z.nlt).answer == "no"
    assert phi_local_triviality_test(z.product_sl2, z.borel).answer == "yes"
    assert phi_local_triviality_test(z.product_sl2, z.trivial1).answer == "yes"
    assert phi_local_triviality_test(z.cover_torsion, z.trivial3).answer == "no"
    v = phi_local_triviality_test(z.semiab, z.g_ant_sub)
    assert v.answer == "no" and "faithful" in v.criterion


def test_phi_yes_implies_trivial_translation_part(any_group):
    # whenever phi is locally trivial for the trivial subgroup, the finite
    # part of the fibration over (G_ant)_aff is trivial
    triv = z.TRIVIAL_BY_RANK[any_group.rd.rank]
    v = phi_local_triviality_test(any_group, triv)
    f = fibration_report(any_group, triv)
    if v.answer == "yes":
        assert f.index_bound_over_gant_aff == 1


def test_completeness_borel():
    v = completeness_test(z.product_sl2, z.borel)
    assert v.answer == "yes"
    assert v.witness["abelian_factor_dim"] == 1
    assert v.witness["flag_factor_dim"] == 1
    assert v.witness["levi_simples"] == ()
    assert v.witness["weyl_word"] == ()


def test_completeness_needs_ant_flag():
    assert completeness_test(z.product_sl2, z.full_aff).answer == "no"
    v = completeness_test(z.product_sl2, z.full_aff_ant)
    assert v.answer == "yes" and v.witness["flag_factor_dim"] == 0
    assert v.witness["levi_simples"] == (0,)


def test_completeness_torus_incomplete():
    assert completeness_test(z.product_sl2, z.t_ant).answer == "no"
    assert completeness_test(z.product_sl2, z.t_sl2).answer == "no"


def test_completeness_opposite_borel():
    v = completeness_test(z.product_sl2, z.neg_borel)
    assert v.answer == "yes" and v.witness["weyl_word"] == (0,)


def test_completeness_sl3_borel():
    v = completeness_test(z.product_sl3, z.borel_sl3)
    assert v.answer == "yes"
    assert v.witness["flag_factor_dim"] == 3
    assert v.witness["abelian_factor_dim"] == 1


def test_affine():
    v = affine_test(z.sl2_affine, z.t_sl2)
    assert v.answer == "yes" and v.witness["quasi_affine"] == "yes"
    v = affine_test(z.sl2_affine, z.borel)
    assert v.answer == "no" and v.witness["quasi_affine"] == "unknown"
    assert affine_test(z.semiab, z.full_t).answer == "no"
    assert affine_test(z.semiab, z.g_ant_sub).answer == "yes"


def test_affine_unknown_in_char_p():
    from chevalley_chow.descriptors import AntiAffineGluing, GroupDescriptor
    from chevalley_chow.lattice import Presentation

    charp = GroupDescriptor(
        "charp", z.sl2, z.A1_AV,
        AntiAffineGluing(Presentation.free(0), M((), 1), M((), 0), char=5))
    assert affine_test(charp, z.t_sl2).answer == "unknown"


def test_parabolic_witness_inverts_no_matrix(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the Weyl witness was inverted by integer solves")

    monkeypatch.setattr(lattice, "solve_integer", no_solve)
    v = completeness_test(z.product_sl2, z.neg_borel)
    assert v.answer == "yes" and v.witness["levi_simples"] == () and v.witness["flag_factor_dim"] == 1
    # parabolics of SL3 x A; positive root 0 is alpha_1, root 1 is alpha_0, root 2 their sum.
    # (roots, weyl_word, levi_simples), read off the route that inverted the witness
    cases = (
        (((0, 1), (1, 1), (2, 1), (0, -1)), (), (1,)),
        (((0, -1), (1, -1), (2, -1), (1, 1)), (1, 0), (1,)),
        (((0, -1), (1, -1), (2, -1), (0, 1)), (0, 1), (0,)),
        (((0, 1), (1, -1), (2, 1)), (0,), ()),
        (((0, 1), (1, -1), (2, 1), (1, 1)), (), (0,)),
        (((0, 1), (1, -1), (2, 1), (2, -1)), (0,), (1,)),
    )
    for roots, word, levi in cases:
        hd = SubgroupDescriptor("parabolic", M.identity(2), roots, ant_contains_gantaff=True)
        assert validate_subgroup(z.product_sl3, hd).ok
        v = completeness_test(z.product_sl3, hd)
        assert v.answer == "yes", roots
        assert (v.witness["weyl_word"], v.witness["levi_simples"]) == (word, levi), roots
        assert v.witness["flag_factor_dim"] == 3 - len(levi)


def test_one_g_ant_predicate(monkeypatch):
    assert contains_nontrivial_ant(derived_attributes(z.semiab), z.g_ant_sub)
    assert not contains_nontrivial_ant(derived_attributes(z.semiab), z.full_t)
    # G_ant of a group over a point is trivial, so the flag is vacuous
    assert not contains_nontrivial_ant(derived_attributes(z.sl2_affine), z.g_ant_sub)
    # forced on for the Borel subgroup, every consumer takes its G_ant branch
    for mod in (chow, structure):
        monkeypatch.setattr(mod, "contains_nontrivial_ant", lambda att, hd: True)
    assert fibration_report(z.product_sl2, z.borel).translation_index_bound is None
    assert "H contains G_ant" in phi_local_triviality_test(z.product_sl2, z.borel).criterion
    assert homogeneous_picard(z.product_sl2, z.borel).mode == "rational"
    with pytest.raises(ModeUnsupported):
        homogeneous_picard(z.product_sl2, z.borel, integral=True)
    with pytest.raises(ModeUnsupported):
        homogeneous_rational_chow(z.product_sl2, z.borel, 1)
