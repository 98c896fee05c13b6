"""Group and subgroup descriptors: validation and derived attributes."""

import time

import pytest

import helpers as z
from chevalley_chow import chow, descriptors, lattice, rootdata, structure
from chevalley_chow.descriptors import (
    AbelianVarietyData,
    AntiAffineGluing,
    GroupDescriptor,
    SubgroupDescriptor,
    derived_attributes,
    descended_coroot,
    restriction_kernel,
    restriction_to_subgroup,
    subgroup_characters,
    validate_group,
    validate_subgroup,
)
from chevalley_chow.errors import SchemaError
from chevalley_chow.formats import parse_descriptor
from chevalley_chow.lattice import FGAbelianGroup, IntMatrix, Presentation
from chevalley_chow.rootdata import simple_reflection

M = IntMatrix


def test_all_zoo_groups_validate(any_group):
    rep = validate_group(any_group)
    assert rep.ok, rep.failed()


def test_product_sl2_attributes():
    att = derived_attributes(z.product_sl2)
    assert (att.dim_G, att.dim_G_aff, att.dim_G_ant, att.dim_Aff_G, att.dim_D) \
        == (4, 3, 1, 3, 0)
    assert att.x_gaff.nrows == 0 and att.ker_gamma.nrows == 0
    assert att.im_gamma.is_trivial and att.rank_im_gamma == 0
    assert att.d_smooth_connected


def test_semiabelian_attributes():
    att = derived_attributes(z.semiab)
    assert (att.dim_G, att.dim_G_aff, att.dim_G_ant, att.dim_D) == (2, 1, 2, 1)
    assert att.dim_Aff_G == 0
    assert att.x_gaff == M.identity(1)
    assert att.ker_gamma.nrows == 0 and att.rank_im_gamma == 1
    assert att.im_gamma == FGAbelianGroup(1)


def test_gl2_center_attributes():
    att = derived_attributes(z.gl2c)
    assert att.x_gaff == M(((1, 1),))
    assert att.ker_gamma.nrows == 0 and att.rank_im_gamma == 1
    assert att.u == M(((2,),))
    assert z.gl2c.gluing.xd.cokernel(att.u) == FGAbelianGroup(0, (2,))  # image 2Z inside X(D) = Z


def test_cover_torsion_attributes():
    att = derived_attributes(z.cover_torsion)
    assert att.x_gaff == M(((0, 1, 0), (0, 0, 1)))
    assert att.ker_gamma == M(((0, 0, 2),))
    assert att.rank_im_gamma == 1
    assert att.im_gamma == FGAbelianGroup(1, (2,))
    assert not att.d_smooth_connected
    assert att.xd_group == FGAbelianGroup(1, (2,))


def test_gamma_kernel_two_routes(any_group):
    assert derived_attributes(any_group).ker_gamma == z.gamma_kernel_by_intersection(any_group)


def test_gamma_image_two_routes(any_group):
    att = derived_attributes(any_group)
    assert att.im_gamma == z.quotient_group(att.x_gaff, att.ker_gamma)


def test_group_failure_centrality():
    bad = GroupDescriptor(
        "bad", z.gl2, z.A1_AV,
        AntiAffineGluing(Presentation.free(1), M(((1, 0),)), M((), 1)))
    rep = validate_group(bad)
    assert not rep.ok and rep.failed()[0].name == "centrality-of-D"


def test_group_failure_v_surjectivity():
    bad = GroupDescriptor(
        "bad", z.torus1, z.A1_AV,
        AntiAffineGluing(Presentation.free(1), M(((2,),)), M((), 1)))
    rep = validate_group(bad)
    assert [c.name for c in rep.failed()] == ["v-surjectivity"]


def test_group_failure_anti_affine_over_point():
    bad = GroupDescriptor(
        "bad", z.torus1, z.POINT,
        AntiAffineGluing(Presentation.free(1), M(((1,),)), M((), 1)))
    rep = validate_group(bad)
    assert any(c.name == "no-anti-affine-over-a-point" for c in rep.failed())


def test_group_failure_unipotent_char_p():
    bad = GroupDescriptor(
        "bad", z.torus1, z.A1_AV,
        AntiAffineGluing(Presentation.free(0), M((), 1), M((), 0),
                         unipotent_dim=1, char=3))
    rep = validate_group(bad)
    assert any(c.name == "unipotent-dimension-bound" for c in rep.failed())


def test_group_failure_ns_over_point():
    bad = GroupDescriptor(
        "bad", z.sl2, AbelianVarietyData(0, FGAbelianGroup(1)), z.no_d(1))
    rep = validate_group(bad)
    assert any(c.name == "ns-over-a-point" for c in rep.failed())


def test_group_warning_torsion_rank():
    warn = GroupDescriptor(
        "warn", z.torus1, z.A1_AV,
        AntiAffineGluing(Presentation(3, M(((2, 0, 0), (0, 2, 0), (0, 0, 2)))),
                         M(((1,), (0,), (0,))), M((), 3)))
    rep = validate_group(warn)
    assert any("2-torsion rank 3" in w for w in rep.warnings), rep.warnings


def test_subgroups_validate_on_product_sl2():
    for hd in (z.t_sl2, z.borel, z.nlt, z.full_aff, z.trivial1, z.g_ant_sub):
        rep = validate_subgroup(z.product_sl2, hd)
        assert rep.ok, (hd.name, rep.failed())


def test_subgroup_characters_values():
    # the order-2 translation component has no invariant characters
    assert subgroup_characters(z.product_sl2, z.nlt).nrows == 0
    assert subgroup_characters(z.product_sl2, z.borel) == M.identity(1)
    assert subgroup_characters(z.product_sl2, z.full_aff).nrows == 0
    assert subgroup_characters(z.product_sl2, z.trivial1) == M((), 0)
    assert subgroup_characters(z.product_sl2, z.t_sl2) == M.identity(1)


def test_descended_coroot():
    assert z.full_aff.symmetric_root_indices() == (0,)
    assert descended_coroot(z.product_sl2, z.full_aff, 0) == (1,)
    assert descended_coroot(z.product_sl3, z.borel_sl3, 1) == (1, 0)
    # q = 2 on X(T) = Z: the coroot 1 of SL2 is no integral pullback along q
    doubled = SubgroupDescriptor("doubled", M(((2,),)), ((0, 1), (0, -1)))
    with pytest.raises(ValueError, match="coroot 0 does not descend along q"):
        descended_coroot(z.product_sl2, doubled, 0)


def test_q_of_the_wrong_width_stops_validation_at_its_shape():
    report = validate_subgroup(z.product_sl2, SubgroupDescriptor("wide", M.identity(2)))
    assert [(c.name, c.passed) for c in report.checks] == [("q-shape", False)]
    assert report.checks[0].detail == "q has 2 columns but X(T) has rank 1"


def test_unvalidated_component_group_moving_x_h0_is_refused():
    # the rotation s_1 s_2 of A3 moves the X(H0) of levi(0,); validate_subgroup
    # reports it, and subgroup_characters called without it refuses it
    a3 = z.affine_group("A3", z.SWEEP["A3-sc"])
    levi = dict(z.full_rank_subgroups(a3.rd))["levi(0,)"]
    rot = simple_reflection(a3.rd, 1) @ simple_reflection(a3.rd, 2)
    moved = SubgroupDescriptor("moved", levi.q_matrix, levi.roots, component_generators=(rot,), translations=(False,))
    assert descriptors._connected_character_lattice(a3, moved).nrows > 0
    with pytest.raises(ValueError, match=r"component group does not stabilize X\(H0\)"):
        subgroup_characters(a3, moved)


def test_restriction_maps():
    def restrict(gd, hd):
        return restriction_to_subgroup(gd, hd, derived_attributes(gd).x_gaff)
    r = restrict(z.product_sl2, z.nlt)
    assert r.matrix.shape == (0, 0) and r.ker_r.nrows == 0
    r = restrict(z.product_sl2, z.trivial1)
    assert r.x_h.nrows == 0
    r = restrict(z.semiab, z.full_t)
    assert r.matrix == M.identity(1) and r.ker_r.nrows == 0


def _assert_lattices_match_the_coordinate_routes(gd, hd):
    # X(H0) is what the reflections fix, X(H) what K fixes and ker r_H the
    # kernel of q on X(G_aff): each against the route through coordinates
    assert descriptors._connected_character_lattice(gd, hd) == z.connected_characters_by_coroots(gd, hd), hd.name
    assert subgroup_characters(gd, hd) == z.subgroup_characters_in_xh0(gd, hd), hd.name
    x_gaff = derived_attributes(gd).x_gaff
    want = z.restriction_kernel_in_xh(gd, hd, x_gaff)
    assert restriction_kernel(hd, x_gaff) == want == restriction_to_subgroup(gd, hd, x_gaff).ker_r, hd.name


def test_fixture_subgroup_lattices_match_the_coordinate_routes(fixture_doc):
    gd = fixture_doc.group
    for _, hd in fixture_doc.subgroups:
        if validate_subgroup(gd, hd).ok:
            _assert_lattices_match_the_coordinate_routes(gd, hd)


def test_subgroup_lattices_match_the_coordinate_routes():
    for key, rd in z.SWEEP.items():
        gd = z.affine_group(key, rd)
        for _, hd in z.full_rank_subgroups(rd):
            _assert_lattices_match_the_coordinate_routes(gd, hd)
    subtori = z.random_subtori(5, 40)
    assert any(restriction_kernel(hd, derived_attributes(gd).x_gaff).nrows for gd, hd in subtori)
    for gd, hd in subtori:
        assert validate_subgroup(gd, hd).ok, hd.q_matrix
        _assert_lattices_match_the_coordinate_routes(gd, hd)
    for gd in z.ALL_GROUPS:
        _assert_lattices_match_the_coordinate_routes(gd, z.TRIVIAL_BY_RANK[gd.rd.rank])


def test_subgroup_failure_flags():
    bad = SubgroupDescriptor("bad", M.identity(1), contains_G_ant=True)
    rep = validate_subgroup(z.product_sl2, bad)
    assert any(c.name == "ant-flags-consistent" for c in rep.failed())


def test_subgroup_failure_coroot_descent():
    bad = SubgroupDescriptor("bad", M(((1, 0),)), ((0, 1), (0, -1)))
    rep = validate_subgroup(z.gl2c, bad)
    assert any(c.name == "coroot-descent" for c in rep.failed())


def test_subgroup_failure_component_group_infinite():
    bad = SubgroupDescriptor("bad", M.identity(2), (),
                             component_generators=(M(((1, 1), (0, 1))),),
                             translations=(False,))
    rep = validate_subgroup(z.gl2c, bad)
    assert any(c.name == "component-group-finite" for c in rep.failed())


def test_subgroup_weyl_compatibility():
    swap = SubgroupDescriptor("weyl", M.identity(2), (),
                              component_generators=(M(((0, 1), (1, 0))),),
                              translations=(False,))
    assert validate_subgroup(z.gl2c, swap).ok
    rot = M(((0, -1), (1, 1)))  # order 6: no Weyl element of GL2 acts this way
    bad = SubgroupDescriptor("bad", M.identity(2), (),
                             component_generators=(rot,), translations=(False,))
    rep = validate_subgroup(z.gl2c, bad)
    assert any(c.name == "component-weyl-compatibility" for c in rep.failed())


def test_subgroup_weyl_compatibility_walks_w_once_and_lazily(monkeypatch):
    gd = GroupDescriptor("sl4", z.sl4, z.POINT, z.no_d(3))
    refl = tuple(simple_reflection(z.sl4, i) for i in range(3))
    normalizer = SubgroupDescriptor("normalizer", M.identity(3), (),
                                    component_generators=refl, translations=(False,) * 3)
    walked = []
    scan = descriptors._weyl_matrices
    monkeypatch.setattr(descriptors, "_weyl_matrices",
                        lambda rd, cap, start: (walked.append(word) or (word, m) for word, m in scan(rd, cap, start)))
    assert validate_subgroup(gd, normalizer).ok
    # one walk for all three generators, stopped once each has its lift s_i
    assert walked == [(), (0,), (1,), (2,)]
    # |W(A3)| = 24 past the cap reads as a failed check, though |H/H0| = 2 is within it
    one = SubgroupDescriptor("one", M.identity(3), (), component_generators=refl[:1], translations=(False,))
    rep = validate_subgroup(gd, one, cap=10)
    assert [c.name for c in rep.failed()] == ["component-weyl-compatibility"]


def test_subgroup_weyl_compatibility_past_the_cap_names_the_cap():
    gd = GroupDescriptor("sl3", z.sl3, z.POINT, z.no_d(2))
    one = SubgroupDescriptor("one", M.identity(2), (), component_generators=(simple_reflection(z.sl3, 0),),
                             translations=(False,))
    # |H/H0| = 2 is within cap 2, |W| = 6 is not: the detail blames the cap, not the generator
    (failed,) = validate_subgroup(gd, one, cap=2).failed()
    assert failed.name == "component-weyl-compatibility"
    assert failed.detail == "|W| = 6 exceeds cap 2"
    assert validate_subgroup(gd, one, cap=6).ok


def test_normalizer_order_is_read_off_the_cartan_type(monkeypatch):
    def no_closure(*args):
        raise AssertionError("a Weyl group's order comes from its Cartan type, not a closure")

    monkeypatch.setattr(lattice, "group_closure", no_closure)
    rootdata._matrix_group_order.cache_clear()
    reports = {}
    for n in (6, 7):
        rd = z.cartan_datum(z.type_e(n))
        refl = tuple(simple_reflection(rd, i) for i in range(n))
        normalizer = SubgroupDescriptor("normalizer", M.identity(n), (),
                                        component_generators=refl, translations=(False,) * n)
        reports[n] = validate_subgroup(GroupDescriptor(f"e{n}", rd, z.POINT, z.no_d(n)), normalizer)
    assert reports[6].ok
    assert [c.detail for c in reports[6].checks if c.name == "component-group-finite"] == ["|H/H0| = 51840"]
    # |W(E7)| = 2903040 is past the default cap: refused by the order formula
    (failed,) = reports[7].failed()
    assert (failed.name, failed.detail) == ("component-group-finite", "matrix group exceeds cap 1000000")


def test_subgroup_root_index_out_of_range():
    bad = SubgroupDescriptor("bad", M.identity(1), ((7, 1),))
    rep = validate_subgroup(z.product_sl2, bad)
    assert any(c.name == "roots-valid" for c in rep.failed())
    # a symmetric pair out of range is reported, not read by the coroot descent
    sym = SubgroupDescriptor("sym", M.identity(1), ((5, 1), (5, -1)),
                             component_generators=(M(((-1,),)),), translations=(False,))
    rep = validate_subgroup(z.product_sl2, sym)
    assert [c.name for c in rep.failed()] == ["roots-valid"]


def test_subgroup_q_not_onto_skips_character_checks():
    # q = 2 is not onto X(T_H) and the coroot 1 does not descend along it;
    # X(H0) is not defined, so the component group is not checked against it
    bad = SubgroupDescriptor("bad", M(((2,),)), ((0, 1), (0, -1)),
                             component_generators=(M(((-1,),)),), translations=(False,))
    rep = validate_subgroup(z.product_sl2, bad)
    assert [c.name for c in rep.failed()] == ["q-surjectivity"]
    assert "component-group-preserves-characters" not in [c.name for c in rep.checks]


def test_torsion_warnings_factor_one_entry(monkeypatch):
    factored = []
    real = descriptors._prime_factors
    monkeypatch.setattr(descriptors, "_prime_factors", lambda n: factored.append(n) or real(n))
    # X(D) = Z/2 + Z/6 + Z/30 + Z/30 over g = 1: of the torsion only t_{4-2} = 6
    # is factored; the characteristic is prime by construction and is not
    warn = GroupDescriptor(
        "warn", z.torus1, z.A1_AV,
        AntiAffineGluing(Presentation(4, M(((2, 0, 0, 0), (0, 6, 0, 0), (0, 0, 30, 0), (0, 0, 0, 30)))),
                         M(((1,), (0,), (0,), (0,))), M((), 4), char=5))
    rep = validate_group(warn)
    assert factored == [6]
    assert rep.warnings == (
        "X(D)/ker sigma has 2-torsion rank 4 > 2g = 2; no 1-dimensional abelian variety can host it",
        "X(D)/ker sigma has 3-torsion rank 3 > 2g = 2; no 1-dimensional abelian variety can host it",
        "X(D)/ker sigma has 5-torsion in characteristic 5; check the descriptor against the p-rank of A",
    )


def test_prime_factors_bounded():
    assert descriptors._prime_factors(2**3 * 3 * 65537) == {2, 3, 65537}
    # a cofactor past the trial bound is named as it stands
    big = (2**61 - 1) * (2**31 - 1)
    assert descriptors._prime_factors(6 * big) == {2, 3, big}


def torus_with_torsion(order) -> bytes:
    return ('{"group": {"root_datum": {"rank": 1, "simple_roots": [], "simple_coroots": []},'
            ' "abelian": {"g": 0, "ns_rank": 0},'
            ' "gluing": {"xd_rank": 1, "xd_relations": [[%d]], "v": [[1]]}}}' % order).encode()


def test_torsion_warning_names_only_certified_primes():
    # 65537 * 65539 survives trial division to 2^16 but is no prime
    crowded = "X(D)/ker sigma has {}; no 0-dimensional abelian variety can host it"
    for order, claim in (
            (65537 * 65539, "p-torsion rank >= 1 > 2g = 0 for each prime p dividing 4295229443"),
            (4294967311, "4294967311-torsion rank 1 > 2g = 0"),  # the least prime past 2^32
            (6 * (2**61 - 1) * (2**31 - 1),  # a cofactor past the Miller-Rabin bound
             "p-torsion rank >= 1 > 2g = 0 for each prime p dividing 4951760154835678088235319297"),
            (6, "2-torsion rank 1 > 2g = 0")):
        gd = parse_descriptor(torus_with_torsion(order)).group
        assert crowded.format(claim) in validate_group(gd).warnings, order


def torus_with_char(char) -> bytes:
    return ('{"group": {"root_datum": {"rank": 1, "simple_roots": [], "simple_coroots": []},'
            ' "abelian": {"g": 1, "ns_rank": 1},'
            ' "gluing": {"xd_rank": 1, "v": [[1]], "char": %d}}}' % char).encode()


def test_is_prime_matches_trial_division():
    for n in range(5000):
        assert descriptors._is_prime(n) == (n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))), n
    # a strong pseudoprime to every prime base up to 37 (Sorenson and Webster)
    assert not descriptors._is_prime(399165290221 * 798330580441)
    assert descriptors._is_prime(2**61 - 1)


@pytest.mark.parametrize("char", [4, 1, (2**31 - 1) * (2**13 - 1), 399165290221 * 798330580441, 10**30])
def test_characteristic_neither_zero_nor_prime_is_refused(char):
    start = time.perf_counter()
    with pytest.raises(SchemaError) as err:
        parse_descriptor(torus_with_char(char))
    assert time.perf_counter() - start < 1.0
    assert err.value.path == "group.gluing"
    if char == 10**30:
        assert "3317044064679887385961981" in err.value.reason
    else:
        assert err.value.reason == f"characteristic {char} is neither 0 nor a prime"


@pytest.mark.parametrize("char", [0, 2, 3, 5, 2**31 - 1])
def test_characteristic_zero_or_prime_parses(char):
    assert parse_descriptor(torus_with_char(char)).group.gluing.char == char


def test_descriptor_shape_errors():
    with pytest.raises(ValueError):
        AbelianVarietyData(-1, FGAbelianGroup(0))
    with pytest.raises(ValueError):
        # v must have one row per X(D) generator
        AntiAffineGluing(Presentation.free(2), M(((1,),)), M((), 2))
    with pytest.raises(ValueError):
        # v width is checked against the rank at the descriptor level
        GroupDescriptor("bad", z.sl2, z.A1_AV,
                        AntiAffineGluing(Presentation.free(1), M(((1, 0),)), M((), 1)))
    with pytest.raises(ValueError):
        SubgroupDescriptor("bad", M.identity(1), ((0, 2),))
    with pytest.raises(ValueError):
        SubgroupDescriptor("bad", M.identity(1),
                           component_generators=(M.identity(2),))


def test_u_has_one_construction_site():
    att = derived_attributes(z.gl2c)
    assert chow.picard_group(z.gl2c).presentation.gamma_matrix == att.u
    assert structure.affinization_test(z.gl2c).trivial.answer == "no"  # u is not onto X(D)


def test_group_characters_computed_once_per_request(monkeypatch):
    # X(G_aff) is a Smith form; it is derived once and passed down, not
    # recomputed for ker gamma_A, u and the restriction to H
    calls = []
    chars = descriptors.characters_of_group
    monkeypatch.setattr(descriptors, "characters_of_group", lambda rd: calls.append(rd) or chars(rd))
    doc = parse_descriptor(z.fixture_bytes("gl2_center"))
    gd = doc.group
    requests = [lambda: chow.picard_group(gd), lambda: structure.affinization_test(gd)]
    for _, hd in doc.subgroups:
        requests += [lambda hd=hd: chow.homogeneous_picard(gd, hd),
                     lambda hd=hd: chow.homogeneous_rational_chow(gd, hd, 2)]
    for request in requests:
        calls.clear()
        request()
        assert len(calls) == 1


def test_component_action_has_one_helper(monkeypatch):
    calls = []
    action = descriptors._component_action
    monkeypatch.setattr(descriptors, "_component_action", lambda *a: calls.append(a) or action(*a))
    assert validate_subgroup(z.product_sl2, z.nlt).ok
    assert len(calls) == 1
    # X(H) is not kept across calls
    for _ in range(2):
        assert subgroup_characters(z.product_sl2, z.nlt).nrows == 0
    assert len(calls) == 3
