"""Schubert calculus on flag varieties: two multiplication routes, one answer."""

import inspect
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import helpers as z
from test_rootdata import ORBIT_DATA
from chevalley_chow import lattice, qlinalg, rootdata, schubert
from chevalley_chow.descriptors import GroupDescriptor
from chevalley_chow.errors import NonIntegralStructureConstant
from chevalley_chow.formats import DescriptorDocument, emit_report, parse_descriptor
from chevalley_chow.invariants import linear_poly, poly_mul, sym_basis
from chevalley_chow.lattice import DEFAULT_CAP, IntMatrix
from chevalley_chow.rootdata import RootDatum, root_system, weyl_group
from chevalley_chow.schubert import (
    chevalley_multiply,
    codegree_histogram,
    expand_in_schubert_basis,
    schubert_basis,
    schubert_product,
    schubert_representatives,
)

F = Fraction


HISTOGRAM_DATA = {**ORBIT_DATA, **{name: parse_descriptor(z.fixture_bytes(name)).group.rd for name in z.FIXTURE_NAMES}}


@pytest.mark.parametrize("name", HISTOGRAM_DATA)
def test_histogram_closed_form_matches_the_enumerated_lengths(name):
    rd = HISTOGRAM_DATA[name]
    lengths = weyl_group(rd).lengths
    assert codegree_histogram(rd) == tuple(lengths.count(d) for d in range(lengths[-1] + 1))


def test_basis_and_histogram():
    basis = schubert_basis(z.sl3)
    assert [c.codegree for c in basis] == [0, 1, 1, 2, 2, 3]
    assert codegree_histogram(z.sl3) == (1, 2, 2, 1)
    assert codegree_histogram(z.sp4) == (1, 2, 2, 2, 1)
    assert codegree_histogram(z.g2) == (1, 2, 2, 2, 2, 2, 1)
    assert codegree_histogram(z.torus1) == (1,)


def test_chevalley_a1():
    # P^1: hyperplane class times identity = point class, square = 0
    e = chevalley_multiply(z.sl2, (1,), 0)
    assert e.codegree == 1 and e.terms == {1: F(1)}
    assert chevalley_multiply(z.sl2, (1,), 1).is_zero
    assert chevalley_multiply(z.sl2, (5,), 0).terms == {1: F(5)}


def test_chevalley_a2_oracle():
    # W(A2) breadth first: 0=e, 1=s0, 2=s1, 3=s0s1, 4=s1s0, 5=s0s1s0.
    # In SL3 weight coordinates the fundamental weights are e0 and e1.
    w1, w2 = (1, 0), (0, 1)
    assert chevalley_multiply(z.sl3, w1, 0).terms == {1: F(1)}
    assert chevalley_multiply(z.sl3, w2, 0).terms == {2: F(1)}
    # sigma_[w1] * sigma_s0: only the long root covers, landing on s1 s0
    assert chevalley_multiply(z.sl3, w1, 1).terms == {4: F(1)}
    assert chevalley_multiply(z.sl3, w1, 2).terms == {3: F(1), 4: F(1)}
    # Poincare duality: sigma_s0 pairs with sigma_{s0 s1}, not sigma_{s1 s0}
    assert chevalley_multiply(z.sl3, w1, 3).terms == {5: F(1)}
    assert chevalley_multiply(z.sl3, w1, 4).is_zero
    assert chevalley_multiply(z.sl3, w1, 5).is_zero


def test_representatives_shape():
    reps = schubert_representatives(z.sl3)
    assert len(reps) == 6
    assert reps[0] == {(0, 0): F(1)}
    reps1 = schubert_representatives(z.sl3, max_degree=1)
    assert set(reps1) == {0, 1, 2}


def test_mutating_the_representatives_changes_no_later_product():
    rd = z.transvected(z.sl3, 1, 0)  # a datum no other test caches products for
    reps = schubert_representatives(rd)
    want = {i: dict(p) for i, p in reps.items()}
    for p in reps.values():
        p.clear()
    assert schubert_representatives(rd) == want
    assert schubert_product(rd, 1, 2).terms == {3: 1, 4: 1} == schubert_product(z.sl3, 1, 2).terms


def test_divisor_products_agree_both_ways_rank_le_2():
    for name, rd in z.RANK_LE2.items():
        w = weyl_group(rd)
        reps = schubert_representatives(rd)
        for widx in range(len(w)):
            for k in range(rd.rank):
                lam = tuple(1 if i == k else 0 for i in range(rd.rank))
                direct = chevalley_multiply(rd, lam, widx)
                poly = poly_mul(linear_poly(lam), reps[widx])
                via_coinv = expand_in_schubert_basis(rd, poly, w.lengths[widx] + 1)
                assert direct.terms == via_coinv.terms, (name, widx, k)


def test_schubert_products_a2():
    # all structure constants integral and nonnegative
    for w1 in range(6):
        for w2 in range(6):
            exp = schubert_product(z.sl3, w1, w2)
            for c in exp.integral_terms().values():
                assert c >= 0
    # sigma_s0 sigma_s1 = sigma_{s0s1} + sigma_{s1s0}
    assert schubert_product(z.sl3, 1, 2).terms == {3: F(1), 4: F(1)}
    # sigma_s0^2 = sigma_{s1 s0} (Pieri on the A2 flag)
    assert schubert_product(z.sl3, 1, 1).terms == {4: F(1)}
    assert schubert_product(z.sl3, 2, 2).terms == {3: F(1)}
    # Poincare duality at the top: complementary cells meet in the point
    assert schubert_product(z.sl3, 1, 3).terms == {5: F(1)}
    assert schubert_product(z.sl3, 1, 4).is_zero
    assert schubert_product(z.sl3, 3, 4).is_zero  # codegree 4 > dim 3
    assert schubert_product(z.sl3, 5, 5).is_zero


def test_schubert_products_b2_g2_integral():
    for rd in (z.sp4, z.so5, z.g2):
        n = len(weyl_group(rd))
        for w1 in range(n):
            for w2 in range(n):
                exp = schubert_product(rd, w1, w2)
                for c in exp.integral_terms().values():
                    assert c >= 0


def test_integral_terms_raises_on_fractions():
    exp = chevalley_multiply(z.sl2, (1,), 0)
    assert exp.integral_terms() == {1: 1}
    from chevalley_chow.schubert import SchubertExpansion

    bad = SchubertExpansion(1, {1: F(1, 2)})
    with pytest.raises(NonIntegralStructureConstant):
        bad.integral_terms()


def test_expand_above_top_degree():
    poly = linear_poly((1, 0))
    exp = expand_in_schubert_basis(z.sl3, poly, 1)
    assert exp.terms  # fundamental weight expands fine
    # past dim(flag variety) everything collapses into the ideal
    x = linear_poly((1,))
    assert expand_in_schubert_basis(z.sl2, poly_mul(x, x), 2).is_zero
    cube = poly_mul(poly_mul(x, x), x)
    assert expand_in_schubert_basis(z.sl2, cube, 3).is_zero


def test_above_top_degree_is_zero_without_reduction(monkeypatch):
    # the coinvariant algebra vanishes above N = |positive roots| (Chevalley),
    # so nothing may be reduced modulo the ideal there
    def no_reduction(*args, **kwargs):
        raise AssertionError("reduced modulo the coinvariant ideal above N")

    monkeypatch.setattr(schubert, "_coinvariant_reducer", no_reduction)
    for rd in (z.sl2, z.sp4, z.g2):
        top = len(root_system(rd).positive)
        power = {(top + 1,) + (0,) * (rd.rank - 1): F(1)}
        for d, poly in ((top + 1, power), (top + 2, poly_mul(power, linear_poly((1,) * rd.rank)))):
            exp = expand_in_schubert_basis(rd, poly, d)
            assert exp.is_zero and exp.codegree == d
    # past the degree budget the answer is still zero, not DegreeTooLarge
    exp = expand_in_schubert_basis(z.sl2, {(65,): F(1)}, 65)
    assert exp.is_zero and exp.codegree == 65


def test_weyl_index_outside_the_enumeration_is_refused():
    # a negative index must not wrap around to the end of the enumeration
    for bad in (-1, 6):
        with pytest.raises(ValueError, match="Weyl ind"):
            schubert_product(z.sl3, bad, 0)
        with pytest.raises(ValueError, match="Weyl ind"):
            schubert_product(z.sl3, 0, bad)
    with pytest.raises(ValueError, match="Weyl index -2"):
        chevalley_multiply(z.sl3, (1, 0), -2)


def test_character_of_the_wrong_length_is_refused():
    for lam in ((1, 0, 5), (1,)):
        with pytest.raises(ValueError, match="the rank is 2"):
            chevalley_multiply(z.sl3, lam, 0)


def test_non_integral_character_or_index_is_refused():
    # int() would truncate 1.5 and 3/2 to 1 and parse '1'
    for lam in ((1.5,), (F(3, 2),), ("1",), (2.0,), (float("nan"),)):
        with pytest.raises(ValueError, match="not an integer"):
            chevalley_multiply(z.sl2, lam, 0)
    assert chevalley_multiply(z.sl2, (F(4, 2),), 0) == chevalley_multiply(z.sl2, (2,), 0)
    for bad in (1.0, F(1), "1", None):
        with pytest.raises(ValueError, match="Weyl ind"):
            schubert_product(z.sl3, bad, 0)
        with pytest.raises(ValueError, match="Weyl ind"):
            schubert_product(z.sl3, 0, bad)
        with pytest.raises(ValueError, match="Weyl ind"):
            chevalley_multiply(z.sl3, (1, 0), bad)


def test_boolean_character_or_index_is_refused():
    # bool is an int subclass, so True once read as the index 1 and the entry 1
    a2 = z.sl3
    for args in ((True, True), (True, 0), (0, False)):
        with pytest.raises(ValueError, match="Weyl ind"):
            schubert_product(a2, *args)
    with pytest.raises(ValueError, match="Weyl ind"):
        chevalley_multiply(a2, (1, 0), True)
    for lam in ((True, False), (1, True)):
        with pytest.raises(ValueError, match="not an integer"):
            chevalley_multiply(a2, lam, 1)
    assert schubert_product(a2, 1, 1) == schubert_product(a2, int(True), 1)


def test_polynomial_of_another_degree_is_refused():
    x = linear_poly((1, 0))
    with pytest.raises(ValueError, match="not homogeneous of degree 2"):
        expand_in_schubert_basis(z.sl3, x, 2)
    with pytest.raises(ValueError, match="not homogeneous"):
        expand_in_schubert_basis(z.sl3, {(1, 0): F(1), (2, 0): F(1)}, 1)
    # above the top degree too, where no reduction happens
    with pytest.raises(ValueError, match="not homogeneous of degree 5"):
        expand_in_schubert_basis(z.sl3, x, 5)
    assert expand_in_schubert_basis(z.sl3, {}, 2).is_zero


@pytest.mark.parametrize("monomial", [(1,), (2, -1), (1, 0, 0), (0.5, 0.5)])
@pytest.mark.parametrize("d", [1, 5])
def test_key_that_is_no_monomial_is_refused(monomial, d):
    # a key of total degree d beside a monomial of degree d, so only the
    # monomial check can refuse it; also above the top degree, where no
    # reduction happens
    key = tuple(d * e for e in monomial)
    with pytest.raises(ValueError, match=re.escape(f"{key!r} is not a monomial in 2 variables")):
        expand_in_schubert_basis(z.sl3, {(d, 0): F(1), key: F(1)}, d)


# -- the cached coordinate map against the per-call reduction route ----------

def typed_terms(expansion):
    return expansion.codegree, [(idx, type(c), c) for idx, c in expansion.terms.items()]


ORACLE_DATA = {
    f"{name}-{form}": rd
    for name, sc in (("A2", z.sl3), ("B2", z.cartan_datum([[2, -1], [-2, 2]])),
                     ("G2", z.cartan_datum([[2, -1], [-3, 2]])), ("A3", z.sl4), ("C3", z.c3))
    for form, rd in (("sc", sc), ("adj", z.adjoint_datum(sc)), ("transvected", z.transvected(sc, 0, 1)))
}
# A4 holds the densest representatives a product scatters (degree 3 in rank 4)
PRODUCT_ORACLE_DATA = {**ORACLE_DATA, "A4-sc": z.a4, "A4-transvected": z.transvected(z.a4, 0, 1)}


@pytest.mark.parametrize("name", PRODUCT_ORACLE_DATA)
def test_products_match_the_per_call_route(name):
    rd = PRODUCT_ORACLE_DATA[name]
    w = weyl_group(rd)
    table = schubert_representatives(rd)
    for d in range(4):  # the reduction route reduces the ideal and the representatives once per degree
        pairs = [(u, v) for u in range(len(w)) for v in range(len(w)) if w.lengths[u] + w.lengths[v] == d]
        products = [poly_mul(table[u], table[v]) for u, v in pairs]
        for (u, v), product, want in zip(pairs, products, z.expand_all_by_reduction(rd, products, d)):
            assert typed_terms(schubert_product(rd, u, v)) == typed_terms(want), (u, v)
            assert typed_terms(expand_in_schubert_basis(rd, product, d)) == typed_terms(want), (u, v)


coefficients = st.one_of(st.integers(-6, 6), st.builds(F, st.integers(-6, 6), st.integers(1, 5)))


@st.composite
def homogeneous(draw):
    """A root datum, a degree from 0 to N + 2 and a polynomial of that degree."""
    rd = draw(st.sampled_from((z.sl2, z.gl2, z.sl3, z.sp4, z.g2, z.sl4, z.pgl3)))
    d = draw(st.integers(0, len(root_system(rd).positive) + 2))
    monomials = sym_basis(rd.rank, d)
    coeffs = draw(st.lists(coefficients, min_size=len(monomials), max_size=len(monomials)))
    return rd, {m: c for m, c in zip(monomials, coeffs) if c}, d


@given(homogeneous())
@example((z.sl3, {(0, 0): 3}, 0))
@example((z.sp4, {(5, 0): F(1, 2), (0, 5): -1}, 5))  # N = 4
def test_expansion_matches_the_per_call_route(case):
    rd, poly, d = case
    got = expand_in_schubert_basis(rd, poly, d)
    assert typed_terms(got) == typed_terms(z.expand_by_reduction(rd, poly, d))


@pytest.mark.parametrize("name", ORACLE_DATA)
def test_every_monomial_expands_as_the_per_call_route(name):
    # the cover-built map, column by column, up to one degree past N
    rd = ORACLE_DATA[name]
    for d in range(len(root_system(rd).positive) + 2):
        monomials = [{m: F(1)} for m in sym_basis(rd.rank, d)]
        for x, want in zip(monomials, z.expand_all_by_reduction(rd, monomials, d)):
            assert typed_terms(expand_in_schubert_basis(rd, x, d)) == typed_terms(want), x


def test_cold_calls_need_no_ideal_and_no_elimination(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("coinvariant ideal or elimination on a cold Schubert call")

    for mod in [m for k, m in sys.modules.items() if k.startswith("chevalley_chow.")]:
        for attr in ("_coinvariant_reducer", "invariant_slice", "ideal_slice"):
            if hasattr(mod, attr):
                monkeypatch.setattr(mod, attr, refuse)
    monkeypatch.setattr(qlinalg.SpanBuilder, "_reduce", refuse)
    # data no other test asks for, so that every table is built here
    product_rd, expand_rd = z.transvected(z.sl4, 2, 1), z.transvected(z.g2, 1, 0)
    lengths = weyl_group(product_rd).lengths
    u, v = lengths.index(2), lengths.index(2) + 1
    assert (lengths[1], lengths[4], lengths[v]) == (1, 2, 2)
    misses = schubert._coordinate_map.cache_info().misses
    product = schubert_product(product_rd, 1, 4)  # the Chevalley rule: no map
    assert schubert._coordinate_map.cache_info().misses - misses == 0
    long_product = schubert_product(product_rd, u, v)
    assert schubert._coordinate_map.cache_info().misses - misses == 4  # degrees 1..4
    x = linear_poly((1, 2))
    cube = poly_mul(x, poly_mul(x, x))
    expansion = expand_in_schubert_basis(expand_rd, cube, 3)
    assert schubert._coordinate_map.cache_info().misses - misses == 7  # and degrees 1..3 of the other
    monkeypatch.undo()
    assert typed_terms(product) == typed_terms(z.schubert_product_by_reduction(product_rd, 1, 4))
    assert typed_terms(long_product) == typed_terms(z.schubert_product_by_reduction(product_rd, u, v))
    assert typed_terms(expansion) == typed_terms(z.expand_by_reduction(expand_rd, cube, 3))


def test_warm_product_reads_one_cached_map(monkeypatch):
    # a datum built anew, equal to a cached one: from another descriptor
    # file that spells the same datum, or in code
    rd = z.sl4
    fresh = RootDatum(rd.rank, IntMatrix(rd.simple_roots.rows), IntMatrix(rd.simple_coroots.rows))
    assert fresh == rd and fresh is not rd
    pairs = ((3, 5), (0, 0), (1, 2), (4, 0))
    want = [schubert_product(rd, u, v) for u, v in pairs]

    def refuse(*args, **kwargs):
        raise AssertionError("linear algebra or polynomial arithmetic on a warm product")

    for mod in [m for k, m in sys.modules.items() if k.startswith("chevalley_chow.")]:
        for attr in ("qsolve", "kernel", "poly_mul", "coeff_vector"):
            if hasattr(mod, attr):
                monkeypatch.setattr(mod, attr, refuse)
    for attr in ("__init__", "_reduce", "add"):
        monkeypatch.setattr(qlinalg.SpanBuilder, attr, refuse)
    compared = []

    # count the comparisons that find a cached entry (a key of equal hash
    # that is another datum is compared too): the first product classifies
    # the new datum, then each reads the BGG entry alone, which holds the maps
    def counted_eq(self, other, _eq=RootDatum.__eq__):
        if equal := _eq(self, other):
            compared.append(self)
        return equal

    monkeypatch.setattr(RootDatum, "__eq__", counted_eq)
    for (u, v), expected in zip(pairs, want):
        compared.clear()
        assert schubert_product(fresh, u, v) == expected
        assert len(compared) <= 2, (u, v, len(compared))



def test_a_reparsed_descriptor_hits_the_warm_caches_by_identity(monkeypatch):
    # parsing the same bytes again returns the same datum, so every cache
    # keyed by it finds its entry by identity and compares no two data
    z.clear_package_caches()
    blob = emit_report(DescriptorDocument(GroupDescriptor("a3", z.sl4, z.POINT, z.no_d(3))), "json")
    pairs = ((3, 5), (0, 0), (1, 2), (4, 0))
    want = [schubert_product(parse_descriptor(blob).group.rd, u, v) for u, v in pairs]

    def refuse(self, other):
        raise AssertionError("a warm cache compared two root data")

    monkeypatch.setattr(RootDatum, "__eq__", refuse)
    rd = parse_descriptor(bytes(bytearray(blob))).group.rd
    assert [schubert_product(rd, u, v) for u, v in pairs] == want


def test_each_cached_builder_keeps_one_entry_per_datum():
    # the builders take no cap and only positional arguments without defaults,
    # so no way of passing a cap to the public calls makes a second key
    builders = (schubert._representative_table, schubert._coinvariant_reducer, schubert._coordinate_map,
                schubert._covers)
    for builder in (*builders, lattice._column_transform, rootdata._weyl_group):
        params = inspect.signature(builder).parameters.values()
        assert all(p.kind is p.POSITIONAL_ONLY and p.default is p.empty for p in params), builder
    for builder in builders:
        builder.cache_clear()
    rd, x0 = z.sl3, linear_poly((1, 0))
    assert weyl_group(rd).lengths[1] == 1
    schubert_representatives(rd)
    schubert_representatives(rd, 1, cap=DEFAULT_CAP)
    schubert_product(rd, 0, 1)
    schubert_product(rd, 1, 0, cap=DEFAULT_CAP)
    expand_in_schubert_basis(rd, x0, 1)
    # the test oracle reads the same entries
    assert z.expand_by_reduction(rd, x0, 1) == expand_in_schubert_basis(rd, x0, 1, cap=DEFAULT_CAP)
    assert [builder.cache_info().currsize for builder in builders] == [1, 1, 1, 1]


# -- the orbit lookup and the integer representatives against the old routes --

CHEVALLEY_DATA = {
    "A1": z.sl2, "A2": z.sl3, "A3": z.sl4, "A4": z.a4, "B2": z.sp4, "C3": z.c3, "G2": z.g2, "D4": z.d4,
    **{f"fixture-{name}": parse_descriptor(z.fixture_bytes(name)).group.rd for name in z.FIXTURE_NAMES},
}


@pytest.mark.parametrize("name", CHEVALLEY_DATA)
def test_chevalley_matches_the_matrix_route(name):
    rd = CHEVALLEY_DATA[name]
    basis = [tuple(int(i == j) for j in range(rd.rank)) for i in range(rd.rank)]
    for k in range(len(weyl_group(rd))):
        for lam in basis:
            want = typed_terms(z.chevalley_by_matrices(rd, lam, k))
            assert typed_terms(chevalley_multiply(rd, lam, k)) == want, (k, lam)


def test_chevalley_matches_the_matrix_route_on_an_f4_sample():
    rd = z.f4
    rng = random.Random(14)
    for k in rng.sample(range(len(weyl_group(rd))), 60):
        lam = tuple(rng.randint(-3, 3) for _ in range(rd.rank))
        assert typed_terms(chevalley_multiply(rd, lam, k)) == typed_terms(z.chevalley_by_matrices(rd, lam, k))


INTEGER_PRODUCT_DATA = {
    **{name: (rd, 4) for name, rd in (("A2", z.sl3), ("B2", z.sp4), ("G2", z.g2), ("A3", z.sl4), ("C3", z.c3))},
    "A4": (z.a4, 3), "SL2": (z.sl2, 2), "PGL2": (z.pgl2, 2), "GL2": (z.gl2, 2),
    "A2-transvected": (z.transvected(z.sl3, 0, 1), 3),
}


@pytest.mark.parametrize("name", INTEGER_PRODUCT_DATA)
def test_integer_products_match_the_fraction_route(name):
    rd, top = INTEGER_PRODUCT_DATA[name]
    w = weyl_group(rd)
    for u in range(len(w)):
        for v in range(len(w)):
            if w.lengths[u] + w.lengths[v] <= top:
                got = typed_terms(schubert_product(rd, u, v))
                assert got == typed_terms(z.product_by_fractions(rd, u, v)), (u, v)
                assert all(t is F for _, t, _ in got[1])


SCHUBERT_WARM_DATA = (z.sl3, z.sl4, z.a4, z.sp4, z.g2, z.c3)
# transvected in a way no other test asks for, so that their first products are cold
COLD_DIVISOR_DATA = (z.transvected(z.sl3, 1, 0), z.transvected(z.sl4, 0, 2), z.transvected(z.sp4, 1, 0),
                     z.transvected(z.g2, 0, 1), z.transvected(z.c3, 2, 0))


def test_warm_calls_make_no_matrix_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("a product with a factor of length <= 1 read a coordinate map")

    calls = []
    for rd in (*COLD_DIVISOR_DATA, *SCHUBERT_WARM_DATA):
        w = weyl_group(rd)
        # cold, then warm: a unit or divisor product reads no coordinate map
        # and no monomial positions
        divisor_pairs = [(u, v) for u in range(len(w)) for v in range(len(w)) if min(w.lengths[u], w.lengths[v]) <= 1]
        monkeypatch.setattr(schubert, "_coordinate_map", refuse)
        monkeypatch.setattr(schubert, "_product_positions", refuse)
        cold = [schubert_product(rd, u, v) for u, v in divisor_pairs]
        assert [schubert_product(rd, u, v) for u, v in divisor_pairs] == cold
        monkeypatch.undo()
        # up to degree 4, so that the pairs of length 2 take the coinvariant route
        pairs = [(u, v) for u in range(len(w)) for v in range(len(w)) if w.lengths[u] + w.lengths[v] <= 4]
        lam = tuple(range(1, rd.rank + 1))
        for u, v in pairs:  # cold: builds the tables, the maps and the orbit
            schubert_product(rd, u, v)
        chevalley_multiply(rd, lam, 0)
        matmul = IntMatrix.__matmul__
        monkeypatch.setattr(IntMatrix, "__matmul__", lambda a, b: calls.append(rd) or matmul(a, b))
        for u, v in pairs:
            schubert_product(rd, u, v)
        for k in range(len(w)):
            chevalley_multiply(rd, lam, k)
        monkeypatch.undo()
        reps, scale, _, _, _ = schubert._representative_table(rd)  # what the products read
        assert type(scale) is int
        assert all(type(x) is int for positions, coeffs in reps for x in positions + coeffs)
    assert calls == []


def test_each_product_takes_the_route_of_its_shorter_factor(monkeypatch):
    rd = z.c3
    lengths = weyl_group(rd).lengths
    calls = []
    for name in ("_chevalley_sum", "_coordinate_map", "_product_positions"):
        monkeypatch.setattr(schubert, name, lambda *args, _name=name, _f=getattr(schubert, name):
                            calls.append(_name) or _f(*args))
    rng = random.Random(37)
    for _ in range(300):
        u, v = rng.randrange(len(lengths)), rng.randrange(len(lengths))
        short, d = min(lengths[u], lengths[v]), lengths[u] + lengths[v]
        calls.clear()
        schubert_product(rd, u, v)
        if d > lengths[-1] or short == 0:
            assert calls == [], (u, v)
        elif short == 1:
            assert calls == ["_chevalley_sum"], (u, v)
        else:
            assert "_product_positions" in calls and "_chevalley_sum" not in calls, (u, v)


# every pair with a factor of length <= 1, up to the top degree
DIVISOR_PRODUCT_DATA = {
    "A2": z.sl3, "B2": z.sp4, "G2": z.g2, "A3": z.sl4, "C3": z.c3, "SL2": z.sl2, "PGL2": z.pgl2, "GL2": z.gl2,
    "A2-transvected": z.transvected(z.sl3, 0, 1),
    **{f"fixture-{name}": parse_descriptor(z.fixture_bytes(name)).group.rd for name in z.FIXTURE_NAMES},
}


@pytest.mark.parametrize("name", DIVISOR_PRODUCT_DATA)
def test_unit_and_divisor_products_match_the_fraction_route(name):
    rd = DIVISOR_PRODUCT_DATA[name]
    lengths = weyl_group(rd).lengths
    for u in (i for i, length in enumerate(lengths) if length <= 1):
        for v in range(len(lengths)):
            want = typed_terms(z.product_by_fractions(rd, u, v))
            assert typed_terms(schubert_product(rd, u, v)) == want, (u, v)
            assert typed_terms(schubert_product(rd, v, u)) == want, (v, u)


# D4 as SO(8) on the basis e_1..e_4: its simple reflections permute the
# variables up to sign, so its BGG table builds in a tenth of the time of the
# simply connected datum's (Cartan basis)
SO8_ROOTS = ((1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 1, 1))
SO8 = RootDatum(4, IntMatrix(SO8_ROOTS), IntMatrix(SO8_ROOTS))


def test_divisor_products_match_the_fraction_route_on_a_d4_sample():
    rd = SO8
    assert rootdata.validate_root_datum(rd).describe() == "D4"
    lengths = weyl_group(rd).lengths
    rng = random.Random(4)
    short = [i for i, length in enumerate(lengths) if length <= 1]
    for _ in range(40):
        u, v = rng.choice(short), rng.randrange(len(lengths))
        assert typed_terms(schubert_product(rd, u, v)) == typed_terms(z.product_by_fractions(rd, u, v)), (u, v)


def _times(rd, expansion, c):
    """The linear expansion of the product of ``expansion`` and sigma_c."""
    out = {}
    for x, k in expansion.terms.items():
        for y, m in schubert_product(rd, x, c).terms.items():
            out[y] = out.get(y, 0) + k * m
    return {y: m for y, m in sorted(out.items()) if m}


@pytest.mark.parametrize("name", ["A3", "C3", "G2"])
def test_divisor_products_associate_with_coinvariant_products(name):
    # (sigma_a sigma_b) sigma_c starts on the Chevalley rule, sigma_a (sigma_b
    # sigma_c) on the coinvariant route, with length(a) = 1 < 2 <= length(b), length(c)
    rd = DIVISOR_PRODUCT_DATA[name]
    lengths = weyl_group(rd).lengths
    rng = random.Random(7)
    divisors = [i for i, length in enumerate(lengths) if length == 1]
    longer = [i for i, length in enumerate(lengths) if 2 <= length <= (lengths[-1] - 1) // 2]
    nonzero = 0
    for _ in range(25):
        a, b, c = rng.choice(divisors), rng.choice(longer), rng.choice(longer)
        left = _times(rd, schubert_product(rd, a, b), c)
        right = _times(rd, schubert_product(rd, b, c), a)
        assert left == right, (a, b, c)
        nonzero += bool(left)
    assert nonzero


def test_a_corrupted_entry_is_refused_by_the_divisor_route(monkeypatch):
    rd = z.sl3
    reps, scale, lengths, maps, covers = schubert._representative_table(rd)
    assert (lengths[1], lengths[2]) == (1, 1)
    for factor, coefficient in ((2, "1/2"), (-1, "-1")):
        corrupted = (reps, factor * scale, lengths, maps, covers)
        monkeypatch.setattr(schubert, "_representative_table", lambda rd, entry=corrupted: entry)
        with pytest.raises(NonIntegralStructureConstant,
                           match=rf"^sigma_1 \* sigma_2 has coefficient {coefficient} at class 3$"):
            schubert_product(rd, 1, 2)
        assert schubert_product(rd, 0, 3).terms == {3: 1}  # P_e = 1: no arithmetic
