"""Graded polynomial algebra, invariant rings and coinvariant quotients."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import helpers as z
from chevalley_chow import formats, invariants, lattice, rootdata, schubert
from chevalley_chow.descriptors import _subgroup_reflections, subgroup_characters, validate_subgroup
from chevalley_chow.errors import DegreeTooLarge, GroupTooLarge
from chevalley_chow.invariants import (
    coeff_vector,
    exact_divide_linear,
    free_quotient,
    ideal_slice,
    invariant_slice,
    linear_poly,
    poly_degree,
    poly_mul,
    quotient_basis,
    substitute,
    sym_basis,
    truncated_quotient,
)
from chevalley_chow.lattice import IntMatrix
from chevalley_chow.rootdata import simple_reflection, weyl_group
from chevalley_chow.schubert import coinvariant_ideal_generators

# exponents of the Weyl groups: coinvariant Poincare polynomial is
# prod (1 + q + ... + q^(d_i - 1)) over the fundamental degrees d_i
FUNDAMENTAL_DEGREES = {
    "A1": (z.sl2, (2,)),
    "A2": (z.sl3, (2, 3)),
    "B2": (z.sp4, (2, 4)),
    "A3": (z.sl4, (2, 3, 4)),
    "G2": (z.g2, (2, 6)),
}


def poincare_product(degrees):
    poly = [1]
    for d in degrees:
        out = [0] * (len(poly) + d - 1)
        for i, c in enumerate(poly):
            for j in range(d):
                out[i + j] += c
        poly = out
    return tuple(poly)


def test_poincare_product_oracle_itself():
    assert poincare_product((2,)) == (1, 1)
    assert poincare_product((2, 3)) == (1, 2, 2, 1)
    assert poincare_product((2, 4)) == (1, 2, 2, 2, 1)
    assert poincare_product((2, 3, 4)) == (1, 3, 5, 6, 5, 3, 1)
    assert poincare_product((2, 6)) == (1, 2, 2, 2, 2, 2, 1)


def test_sym_basis():
    assert sym_basis(2, 0) == ((0, 0),)
    assert sym_basis(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert len(sym_basis(3, 4)) == 15
    assert sym_basis(0, 0) == ((),)
    assert sym_basis(0, 1) == ()


def test_a_negative_rank_is_refused():
    # both once recursed until RecursionError
    with pytest.raises(ValueError, match="negative rank"):
        sym_basis(-1, 2)
    with pytest.raises(ValueError, match="negative rank"):
        truncated_quotient(-1, [], 2)


def test_poly_ops():
    x = linear_poly((1, 0))
    y = linear_poly((0, 1))
    xy = poly_mul(x, y)
    assert xy == {(1, 1): Fraction(1)}
    sq = poly_mul(x, x)
    assert coeff_vector(sq, 2, 2) == (Fraction(1), Fraction(0), Fraction(0))
    q = exact_divide_linear(poly_mul(xy, x), x)
    assert q == xy
    with pytest.raises(ValueError):
        exact_divide_linear({(1, 0): Fraction(1), (0, 0): Fraction(1)}, x)


@pytest.mark.parametrize("a, b", [({(1, 0, 0): 1}, {(1, 0): 1}), ({(1, 0): 1}, {(0, 2, 1): 3, (1, 1, 1): 1})])
def test_poly_mul_refuses_factors_of_different_ranks(a, b):
    ma, mb = list(a)[-1], list(b)[-1]
    with pytest.raises(ValueError, match=re.escape(f"cannot multiply {ma!r} by {mb!r}")):
        poly_mul(a, b)
    assert poly_mul(a, {}) == poly_mul({}, b) == {}


def test_restrict_symmetric():
    # substitute x -> s, y -> 2s along q = [[1, 2]] (rows of q are images of
    # the ambient coordinates in the subgroup coordinates, acting on exponents)
    q = IntMatrix(((1, 2),))
    f = poly_mul(linear_poly((1, 0)), linear_poly((0, 1)))
    r = substitute(q, f)
    assert r == {(2,): Fraction(2)}
    # restriction along the zero map kills positive degrees
    zq = IntMatrix((), 2)
    assert substitute(zq, f) == {}


def test_invariant_slices_match_bruteforce():
    # the fixed space of the generators must span what Reynolds averaging
    # over the enumerated group spans, with invariant, independent polynomials
    cases = [(name, tuple(simple_reflection(rd, i) for i in range(rd.nsimple)), top)
             for name, rd, top in (
                 ("A1", z.sl2, 3), ("A2", z.sl3, 3), ("A3", z.sl4, 3), ("A4", z.a4, 3),
                 ("B2", z.sp4, 3), ("C3", z.c3, 3), ("D4", z.d4, 3), ("G2", z.g2, 3),
                 ("F4", z.f4, 2), ("A5", z.a5, 2),
                 # dense reflection matrices: the stepped monomial images have many nonzeros
                 ("F4 transvected", z.transvected(z.f4, 3, 0), 2), ("A4 adjoint", z.adjoint_datum(z.a4), 3),
                 ("C3 transvected", z.transvected(z.c3, 2, 0), 3),
                 ("G2 transvected", z.transvected(z.g2, 1, 0), 3))]
    cases += [(name, gens, 3) for name, gens in z.non_weyl_groups()]
    for name, gens, top in cases:
        rank = gens[0].nrows
        for d in range(top + 1):
            got, want = invariant_slice(rank, gens, d), z.reynolds_slice(rank, gens, d)
            assert all(substitute(g, p) == p for g in gens for p in got), (name, d)
            assert len(got) == len(want) and z.same_span(got, want, rank, d), (name, d)


def test_coinvariant_ideal_refuses_cap_without_enumerating(monkeypatch):
    def no_closure(*args, **kwargs):
        raise AssertionError("W must not be enumerated")

    # W is enumerated by the orbit walk alone, any other group by lattice.group_closure
    monkeypatch.setattr(rootdata, "_walk", no_closure)
    monkeypatch.setattr(lattice, "group_closure", no_closure)
    with pytest.raises(GroupTooLarge):
        coinvariant_ideal_generators(z.f4, 2, cap=1000)
    # under the cap the slices come from the simple reflections alone
    assert len(coinvariant_ideal_generators(z.f4, 2)) == 1


def test_coinvariant_generators_make_one_reducer_call(monkeypatch):
    # the basic invariants have W's degrees, so the top one is the last
    # degree asked for; a request of degree 0 or less reads no Cartan type
    cases = ((z.sl3, 5, 3), (z.sl3, 2, 2), (z.gl2, 20, 2), (z.g2, 4, 4), (z.g2, 9, 6), (z.torus2, 3, 1),
             (z.sl3, 0, 0), (z.sl3, -2, 0))
    for rd, _, degree in cases:
        schubert._coinvariant_reducer(rd, degree)  # warm, so a call does not recurse
    calls = []
    reducer = schubert._coinvariant_reducer
    monkeypatch.setattr(schubert, "_coinvariant_reducer", lambda rd, d: calls.append(d) or reducer(rd, d))
    for rd, max_degree, degree in cases:
        calls.clear()
        if max_degree <= 0:
            with monkeypatch.context() as m:
                m.setattr(schubert, "validate_root_datum", None)
                assert coinvariant_ideal_generators(rd, max_degree) == []
        else:
            assert coinvariant_ideal_generators(rd, max_degree) == [dict(g) for g in reducer(rd, degree)]
        assert calls == [degree], (rd, max_degree)


def test_slices_leave_no_column_transform_entry():
    # _invariant_slice memoizes the slice itself, so a kernel entry keyed by
    # the whole stack could never hit, and would evict a lattice entry
    z.clear_package_caches()
    refl = tuple(simple_reflection(z.d4, i) for i in range(4))
    for _ in range(2):
        for d in range(7):
            invariant_slice(4, refl, d)
    assert invariants._invariant_slice.cache_info()[:2] == (7, 7)  # hits, misses
    assert lattice._column_transform.cache_info().currsize == 0


def test_invariant_slice_returns_fresh_polynomials():
    refl = tuple(simple_reflection(z.sl3, i) for i in range(2))
    first = invariant_slice(2, refl, 3)
    expected = [dict(p) for p in first]
    first[0].clear()
    first.append({(3, 0): 1})
    assert invariant_slice(2, list(refl), 3) == expected
    # the quotient basis hands out the slice's fresh dicts too
    quotient_basis(2, [], 3, refl)[0][(0, 3)] = 7
    assert quotient_basis(2, [], 3, refl) == expected


def test_invariant_slice_computed_once_per_key():
    invariants._invariant_slice.cache_clear()
    schubert._coinvariant_reducer.cache_clear()
    # chow_presentation, rational_chow and hchow on one datum ask for the same slices
    for _ in range(3):
        assert len(coinvariant_ideal_generators(z.sl4, 3)) == 2
    info = invariants._invariant_slice.cache_info()
    # degrees 1..3 computed once each; the degree-3 ideal slice rereads the
    # degree-1 invariants; later calls read the reducer cache
    assert (info.misses, info.hits) == (3, 1)


def test_empty_group_slices_are_the_monomials_unmemoized():
    invariants._invariant_slice.cache_clear()
    for group in ((), []):
        assert invariant_slice(2, group, 2) == [{m: 1} for m in sym_basis(2, 2)]
    assert invariants._invariant_slice.cache_info().currsize == 0


def test_process_caches_are_bounded():
    # warm keys: what one in-process benchmark pass leaves in each cache,
    # counted by cache_info().currsize from empty caches; twice that never
    # evicts.  A schubert-warm pass (seed 3: 12 root data, degrees up to 3)
    # fills the Weyl, datum and Schubert caches and the monomial bases, which
    # go up to the top degree of each rank, where the BGG table places its
    # representatives; the product positions are keyed by rank and the two
    # factors' lengths, shorter first.  It asks for no slice or group order
    # and one column transform, so those are counted on a ladder-cold pass (seed 1):
    # 24 matrices and 17 generator sets, and no slice, since every K that
    # pass asks hchow about is trivial or a recognized Weyl group, whose
    # Hilbert series is read off its degrees.  Neither
    # workload asks for the coinvariant reducer: only hchow with a
    # rank-deficient H does.  A ladder-cold pass also takes 18 root data
    # (19 validated) into the datum caches, once each in a fresh process:
    # the datum bound holds them, though not twice over.  The parse memo is
    # keyed by a descriptor's bytes, not a datum: a schubert-warm pass parses
    # 12 of them, a ladder-cold pass 19.
    # one bound per key kind: a memo keyed by a root datum alone, or any other
    datum, other = lattice.DATUM_CACHE_SIZE, lattice.CACHE_SIZE
    table = (
        (formats._parsed, other, 19),
        (rootdata._matrix_group_order, other, 17),
        (lattice._column_transform, other, 24),
        (invariants._invariant_slice, other, 0),
        (invariants.sym_basis, other, 28),
        (rootdata.weyl_group, datum, 12),
        (rootdata._weyl_group, datum, 12),
        (rootdata.validate_root_datum, datum, 12),
        (rootdata.root_system, datum, 12),
        (schubert._representative_table, datum, 12),
        (schubert._coinvariant_reducer, other, 0),
        (schubert._coordinate_map, other, 36),
        (schubert._covers, other, 36),
        (schubert._product_positions, other, 15))
    for cache, size, warm_keys in table:
        assert cache.cache_info().maxsize == size
        assert isinstance(size, int) and size >= 2 * warm_keys
    listed = {id(cache) for cache, _, _ in table}
    assert [name for name, c in z.package_caches().items() if id(c) not in listed] == []


def test_invariant_dimensions_classical():
    # Molien counts: dim of degree-d invariants for A2 is the number of
    # partitions of d into parts 2 and 3, and so on per fundamental degrees
    for name, (rd, degrees) in FUNDAMENTAL_DEGREES.items():
        refl = weyl_group(rd).generators
        for d in range(0, 7):
            count = 0
            stack = [(d, 0)]
            while stack:
                rem, idx = stack.pop()
                if rem == 0:
                    count += 1
                    continue
                if idx == len(degrees):
                    continue
                stack.append((rem, idx + 1))
                if rem >= degrees[idx]:
                    stack.append((rem - degrees[idx], idx))
            got = len(invariant_slice(rd.rank, refl, d)) if d else 1
            assert got == count, (name, d)


def test_coinvariant_dims_and_total():
    for name, (rd, degrees) in FUNDAMENTAL_DEGREES.items():
        expected = poincare_product(degrees)
        refl = weyl_group(rd).generators
        gens = []
        top = len(expected) - 1
        for e in range(1, top + 2):  # top fundamental degree can exceed top codim
            gens.extend(invariant_slice(rd.rank, refl, e))
        tq = truncated_quotient(rd.rank, gens, top + 1)
        assert tq.dims[: top + 1] == expected, name
        assert tq.dims[top + 1] == 0
        assert tq.total_dim == len(weyl_group(rd)), name
        assert tq.vanishes_at_top


def test_invariant_algebra_and_ideal_slice():
    minus = (IntMatrix(((-1,),)),)
    assert [len(invariant_slice(1, minus, d)) for d in range(3)] == [1, 0, 1]
    gens = [poly_mul(linear_poly((1, 0)), linear_poly((1, 0)))]
    slice2 = ideal_slice(2, gens, 2)
    assert slice2.dim == 1 and z.span_contains(slice2, coeff_vector(gens[0], 2, 2))
    slice3 = ideal_slice(2, gens, 3)
    assert slice3.dim == 2  # x^2 * {x, y}
    assert z.span_contains(slice3, (1, 0, 0, 0)) and z.span_contains(slice3, (0, 1, 0, 0))
    assert not z.span_contains(slice3, (0, 0, 1, 0))
    # inside the invariants of x -> -x (both coordinates) only even degrees multiply
    negate = (IntMatrix(((-1, 0), (0, -1))),)
    assert ideal_slice(2, gens, 3, negate).dim == 0
    slice4 = ideal_slice(2, gens, 4, negate)
    assert slice4.dim == 3  # x^2 * {x^2, xy, y^2}
    assert slice4.rows == ideal_slice(2, gens, 4).rows


def test_truncated_quotient_shape():
    tq = truncated_quotient(1, [linear_poly((2,))], 4)
    assert tq.dims == (1, 0, 0, 0, 0)
    assert tq.ambient_dims == (1, 1, 1, 1, 1)
    tq = truncated_quotient(1, [], 2)
    assert tq.dims == (1, 1, 1)
    assert tq.top_degree == 2 and not tq.vanishes_at_top
    tq = truncated_quotient(1, [], 3, (IntMatrix(((-1,),)),))
    assert tq.dims == tq.ambient_dims == (1, 0, 1, 0)
    assert tq.dims == tuple(len(quotient_basis(1, [], d, (IntMatrix(((-1,),)),))) for d in range(4))
    assert truncated_quotient(1, [], 0).dims == (1,)


@pytest.mark.parametrize("rank, generators, group, message", [
    (2, [], (IntMatrix(((0, 1, 0), (1, 0, 0))),), "is not 2 x 2"),
    (2, [], (IntMatrix(((0, 1, 0), (1, 0, 0), (0, 0, 1))),), "is not 2 x 2"),
    (3, [], (IntMatrix(((0, 1), (1, 0))),), "is not 3 x 3"),
    (2, [{(1, 0, 0): Fraction(1)}], (), re.escape("(1, 0, 0) is not a monomial in 2 variables")),
    (2, [{(1,): Fraction(1)}], (), re.escape("(1,) is not a monomial in 2 variables")),
    (2, [{(1, 0): Fraction(1), (-1, 2): Fraction(1)}], (), re.escape("(-1, 2) is not a monomial")),
    (1, [], (IntMatrix.identity(2),), "is not 1 x 1"),
    (2, [], (IntMatrix(((1,),)),), "is not 2 x 2"),
    (2, [], (IntMatrix.identity(2), IntMatrix(((0, 1, 0), (1, 0, 0)))), "is not 2 x 2"),
])
def test_truncated_quotient_refuses_misshapen_input(rank, generators, group, message):
    # each once acted as its top-left block, cut the monomial short, or
    # raised a bare IndexError or KeyError
    with pytest.raises(ValueError, match=message):
        truncated_quotient(rank, generators, 2, group)
    if group:  # every slice entry point refuses the group in invariant_slice, with one message
        x = linear_poly((1,) * rank)
        for call in (lambda: invariant_slice(rank, group, 1), lambda: ideal_slice(rank, [x], 2, group),
                     lambda: quotient_basis(rank, [], 1, group)):
            with pytest.raises(ValueError, match=message):
                call()


def test_truncated_quotient_refuses_a_negative_degree(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a negative degree must be refused before any slice")

    monkeypatch.setattr(invariants, "invariant_slice", no_work)
    monkeypatch.setattr(invariants, "quotient_basis", no_work)
    for top in (-1, -5):
        with pytest.raises(ValueError, match="nonnegative"):
            truncated_quotient(1, [linear_poly((1,))], top)


@pytest.mark.parametrize("call, message", [
    (lambda: coeff_vector({(2, 0): 1}, 2, 1), "(2, 0) is not a degree-1 monomial in 2 variables"),
    (lambda: coeff_vector({(1, 0): 1, (1,): 1}, 2, 1), "(1,) is not a degree-1 monomial in 2 variables"),
    (lambda: ideal_slice(2, [{(2, -1): 1}], 2), "(3, -1) is not a degree-2 monomial in 2 variables"),
    (lambda: quotient_basis(2, [{(2, -1): 1}], 2), "(3, -1) is not a degree-2 monomial in 2 variables"),
    (lambda: substitute(IntMatrix(((1, 0),)), {(1,): 1}), "(1,) is not a monomial in 2 variables"),
    (lambda: substitute(IntMatrix.identity(2), {(1, 0): 1, (0, 0, 1): 1}), "(0, 0, 1) is not a monomial in 2 variables"),
    (lambda: free_quotient(1, (0,), (2,), 3), "degrees must be positive, got (0,) and (2,)"),
    (lambda: free_quotient(2, (1, 1), (2, -1), 3), "degrees must be positive, got (1, 1) and (2, -1)"),
], ids=["coeff_vector-degree", "coeff_vector-length", "ideal_slice", "quotient_basis", "substitute-short",
        "substitute-long", "free_quotient-ambient", "free_quotient-ideal"])
def test_malformed_polynomials_and_degrees_are_refused(call, message):
    # each once raised a bare KeyError or IndexError, or answered: the first
    # substitute as the identity, free_quotient(1, (0,), (2,), 3) dims (2, 0, -2, 0)
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("top", [-1, -5])
def test_both_quotient_routines_refuse_a_negative_degree_alike(top):
    # free_quotient(1, (1,), (2,), -1) once answered dims (1,), one entry for an empty range
    t = {(2,): Fraction(1)}
    for route in (lambda: truncated_quotient(1, [t], top), lambda: free_quotient(1, (1,), (2,), top)):
        with pytest.raises(ValueError) as err:
            route()
        assert str(err.value) == f"max_degree must be nonnegative, got {top}"


def test_coinvariant_ideal_generators_are_minimal():
    # a minimal homogeneous generating set has one generator per basic invariant
    # (Chevalley), plus one linear form per dimension of the central torus
    assert [poly_degree(g) for g in coinvariant_ideal_generators(z.gl2, 20)] == [1, 2]
    for name, (rd, degrees) in FUNDAMENTAL_DEGREES.items():
        gens = coinvariant_ideal_generators(rd, max(degrees) + 1)
        assert [poly_degree(g) for g in gens] == list(degrees), name
    # and they span the ideal every basis invariant spanned, degree by degree
    for rd, top in ((z.gl2, 6), (z.sl3, 5), (z.g2, 7), (z.sl4, 4)):
        refl = tuple(simple_reflection(rd, i) for i in range(rd.nsimple))
        every = [f for e in range(1, top + 1) for f in invariant_slice(rd.rank, refl, e)]
        for d in range(top + 1):
            want = ideal_slice(rd.rank, every, d)
            got = ideal_slice(rd.rank, coinvariant_ideal_generators(rd, top), d)
            assert got.dim == want.dim
            assert all(z.span_contains(want, row) for row in got.rows)


def _count_slices(monkeypatch):
    """Record the degree of every ideal slice and every quotient basis the
    reducer chain asks for."""
    asked = {"ideal": [], "quotient": []}
    for kind, module, name in (("ideal", invariants, "ideal_slice"), ("quotient", schubert, "quotient_basis")):
        def counted(*args, _kind=kind, _orig=getattr(module, name)):
            asked[_kind].append(args[2])
            return _orig(*args)
        monkeypatch.setattr(module, name, counted)
    schubert._coinvariant_reducer.cache_clear()
    return asked


def test_coinvariant_reducer_eliminates_each_slice_once(monkeypatch):
    assert not hasattr(invariants, "ideal_span")
    asked = _count_slices(monkeypatch)
    for rd in (z.sl3, z.sp4, z.g2, z.sl4, z.c3, z.a4):
        for d in range(1, 4):
            schubert._coinvariant_reducer(rd, d)
    assert (len(asked["ideal"]), len(asked["quotient"])) == (18, 18)


def test_coinvariant_generators_stop_at_the_largest_basic_degree(monkeypatch):
    asked = _count_slices(monkeypatch)
    assert len(coinvariant_ideal_generators(z.gl2, 20)) == 2
    assert asked == {"ideal": [1, 2], "quotient": [1, 2]}
    # a reducer past degree 2 reads the cached chain and asks for no slice
    assert len(schubert._coinvariant_reducer(z.gl2, 5)) == 2
    assert asked == {"ideal": [1, 2], "quotient": [1, 2]}
    for name, (rd, degrees) in FUNDAMENTAL_DEGREES.items():
        asked["quotient"].clear()
        assert len(coinvariant_ideal_generators(rd, max(degrees) + 3)) == rd.rank
        assert max(asked["quotient"]) == max(degrees), name


def test_coinvariant_reducer_spans_the_ideal_of_every_invariant():
    # oracle: Fraction elimination of every product (basis invariant) * monomial
    for name, (rd, _) in FUNDAMENTAL_DEGREES.items():
        refl = tuple(simple_reflection(rd, i) for i in range(rd.nsimple))
        every = [f for e in range(1, 5) for f in invariant_slice(rd.rank, refl, e)]
        for d in range(5):
            want = z.FractionSpanBuilder(len(sym_basis(rd.rank, d)))
            for f in every:
                if (e := poly_degree(f)) <= d:
                    for m in sym_basis(rd.rank, d - e):
                        want.add(coeff_vector(poly_mul(f, {m: Fraction(1)}), rd.rank, d))
            got = ideal_slice(rd.rank, schubert._coinvariant_reducer(rd, d), d)
            assert got.dim == len(want.rows), (name, d)
            assert all(want.contains(row) for row in got.rows), (name, d)


LADDER = {
    f"{name}-{form}": rd
    for name, sc in (("A1", z.sl2), ("A2", z.sl3), ("A3", z.sl4), ("A4", z.a4), ("A5", z.a5),
                     ("B2", z.cartan_datum([[2, -1], [-2, 2]])), ("C3", z.c3), ("D4", z.d4),
                     ("G2", z.cartan_datum([[2, -1], [-3, 2]])), ("F4", z.f4))
    for form, rd in (("sc", sc), ("adj", z.adjoint_datum(sc)),
                     ("transvected", z.transvected(sc, 0, 1) if sc.rank > 1 else None))
    if rd is not None
}


@pytest.mark.parametrize("name", LADDER)
def test_coinvariant_generators_match_the_selection_in_s(name):
    # the reducer chooses inside S^W; the oracle eliminates over all of S
    # (Reynolds: the same invariants enlarge both spans), up to the largest
    # degree whose slice fits the budget
    rd = LADDER[name]
    top = max(d for d in range(1, invariants.DEGREE_BUDGET + 1)
              if math.comb(rd.rank + d - 1, d) <= invariants.SLICE_BUDGET)
    schubert._coinvariant_reducer.cache_clear()
    got = coinvariant_ideal_generators(rd, top)
    want = z.coinvariant_generators_in_s(rd, top)
    assert [sorted(g.items()) for g in got] == [sorted(g.items()) for g in want]
    assert all(type(c) is Fraction for g in got for c in g.values())


NON_WEYL_GROUPS = tuple(gens for _, gens in z.non_weyl_groups())


@st.composite
def finite_groups(draw):
    """(rank, generators): a non-Weyl group, or a random subset of the simple
    reflections of a ladder datum, either one conjugated by a random
    unimodular matrix half the time."""
    if draw(st.booleans()):
        gens = draw(st.sampled_from(NON_WEYL_GROUPS))
        rank = gens[0].nrows
    else:
        rd = LADDER[draw(st.sampled_from(sorted(LADDER)))]
        rank = rd.rank
        gens = tuple(simple_reflection(rd, i) for i in sorted(draw(st.sets(st.integers(0, rd.nsimple - 1)))))
    if draw(st.booleans()):
        u = z.random_unimodular(draw(st.randoms(use_true_random=False)), rank)
        u_inv = lattice.coordinates(u.transpose(), IntMatrix.identity(rank).rows).transpose()
        gens = tuple(u @ g @ u_inv for g in gens)
    return rank, gens


@settings(max_examples=40, deadline=None)
@given(finite_groups(), st.integers(0, 3))
def test_invariant_slice_is_a_basis_of_the_fixed_space(group, d):
    rank, gens = group
    assume(math.comb(rank + d - 1, d) <= invariants.SLICE_BUDGET)
    got = invariant_slice(rank, gens, d)
    assert all(substitute(g, p) == p for g in gens for p in got)
    independent = z.FractionSpanBuilder(len(sym_basis(rank, d)))
    assert all(independent.add(coeff_vector(p, rank, d)) for p in got)
    want = z.reynolds_slice(rank, gens, d)
    assert len(got) == len(want) and z.same_span(got, want, rank, d)
    # integral, saturated and in Hermite form: the canonical basis of the integral invariants
    rows = IntMatrix([coeff_vector(p, rank, d) for p in got], len(sym_basis(rank, d)))
    assert lattice.hermite_row_basis(rows) == rows == lattice.saturate_rows(rows)


def test_degree1_slice_of_k_is_x_h():
    # the Chow side's ambient S^K and the Picard side's X(H) = X(T_H)^K read
    # one kernel: in degree 1 the slice is X(H), basis for basis
    pairs = [(doc.group, hd) for doc in map(formats.parse_descriptor, map(z.fixture_bytes, z.FIXTURE_NAMES))
             for _, hd in doc.subgroups]
    pairs += [(z.affine_group(key, rd), hd) for key, rd in z.SWEEP.items() for _, hd in z.full_rank_subgroups(rd)]
    checked = 0
    for gd, hd in pairs:
        if validate_subgroup(gd, hd).ok:
            k = _subgroup_reflections(gd, hd) + hd.component_generators
            got = [coeff_vector(p, hd.h_rank, 1) for p in invariant_slice(hd.h_rank, k, 1)]
            assert got == list(subgroup_characters(gd, hd).rows), (gd.name, hd.name)
            checked += 1
    assert checked == 537


def test_coinvariant_generators_are_fresh():
    gens = coinvariant_ideal_generators(z.sl3, 3)
    expected = [dict(g) for g in gens]
    product = schubert.schubert_product(z.sl3, 1, 2)
    gens[0].clear()
    gens[1][(3, 0)] = Fraction(5)
    gens.append({(1, 0): Fraction(1)})
    assert coinvariant_ideal_generators(z.sl3, 3) == expected
    assert coinvariant_ideal_generators(z.sl3, 2) == expected[:1]
    assert schubert.schubert_product(z.sl3, 1, 2) == product


def test_public_results_keep_fraction_coefficients():
    refl = tuple(simple_reflection(z.sl3, i) for i in range(2))
    shear = IntMatrix(((1, 1), (0, 1)))
    polys = [*invariant_slice(2, refl, 3), *invariant_slice(2, (), 2),
             substitute(shear, {(1, 1): Fraction(1), (0, 2): Fraction(1, 2)}),
             *coinvariant_ideal_generators(z.sl3, 3),
             *schubert.schubert_representatives(z.sl3).values()]
    assert all(p for p in polys)
    assert all(type(c) is Fraction for p in polys for c in p.values())
    expansions = [schubert.expand_in_schubert_basis(z.sl3, linear_poly((1, 0)), 1),
                  schubert.schubert_product(z.sl3, 1, 2),
                  schubert.chevalley_multiply(z.sl3, (1, 1), 1)]
    assert all(e.terms for e in expansions)
    assert all(type(c) is Fraction for e in expansions for c in e.terms.values())


@given(st.lists(st.integers(1, 6), max_size=4), st.lists(st.integers(1, 6), max_size=4), st.integers(0, 12))
def test_free_quotient_is_the_power_series(ambient, ideal, top):
    # ambient dims are prod_j 1/(1 - t^e_j), dims that times prod_i (1 - t^d_i)
    got = free_quotient(len(ambient), ambient, ideal, top)
    assert got.max_degree == top and got.rank == len(ambient)
    assert got.ambient_dims == z.quotient_series((), ambient, top)
    assert got.dims == z.quotient_series(ideal, ambient, top)
