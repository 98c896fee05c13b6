"""Acceptance suite: ten headline checks, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; each
test also enforces its time budget.  Expected values are classical or were
frozen from the independent oracles named in the comments.
"""

import json
import random
import time

import pytest

import helpers as z
from chevalley_chow import rootdata
from chevalley_chow.chow import (
    chow_presentation,
    homogeneous_picard,
    homogeneous_rational_chow,
    picard_group,
    rational_chow,
)
from chevalley_chow.descriptors import GroupDescriptor, derived_attributes, validate_group
from chevalley_chow.errors import DescriptorSyntaxError, GroupTooLarge, SchemaError
from chevalley_chow.formats import parse_descriptor
from chevalley_chow.invariants import (
    invariant_slice,
    linear_poly,
    poly_mul,
    substitute,
    truncated_quotient,
)
from chevalley_chow.lattice import (
    FGAbelianGroup,
    IntMatrix,
    group_from_relations,
    invariant_factors,
)
from chevalley_chow.rootdata import affine_picard_group, weyl_group
from chevalley_chow.schubert import (
    chevalley_multiply,
    codegree_histogram,
    expand_in_schubert_basis,
    schubert_product,
    schubert_representatives,
)
from chevalley_chow.structure import (
    affinization_test,
    completeness_test,
    construct_cover,
)


def timed(n, limit, body):
    t0 = time.perf_counter()
    try:
        detail = body()
    except Exception:
        print(f"criterion {n}: FAIL ({time.perf_counter() - t0:.2f}s)")
        raise
    dt = time.perf_counter() - t0
    print(f"criterion {n}: PASS - {detail} ({dt:.2f}s)")
    assert dt < limit, f"criterion {n} exceeded {limit}s: {dt:.2f}s"


def test_criterion_01_flag_picard_table():
    def body():
        # oracle: Smith form of the coroot-pairing matrix, done by hand and
        # recomputed here via invariant_factors
        table = [
            (z.sl2, FGAbelianGroup(0, ())),
            (z.gl2, FGAbelianGroup(0, ())),
            (z.sp4, FGAbelianGroup(0, ())),
            (z.pgl2, FGAbelianGroup(0, (2,))),
            (z.pgl3, FGAbelianGroup(0, (3,))),
        ]
        seen = []
        for rd, expected in table:
            got = affine_picard_group(rd)
            assert got == expected, (rd, got)
            factors = invariant_factors(rd.simple_coroots)
            torsion = tuple(f for f in factors if f > 1)
            rank = rd.nsimple - len([f for f in factors if f])
            assert got == FGAbelianGroup(rank, torsion)
            seen.append(got.describe())
        return "Pic(G_aff) = " + ", ".join(seen)

    timed(1, 1.0, body)


# classical table (Chevalley, Amer. J. Math. 77, 1955)
FUNDAMENTAL_DEGREES = {
    "A1": (z.sl2, (2,)),
    "A2": (z.sl3, (2, 3)),
    "B2": (z.sp4, (2, 4)),
    "A3": (z.sl4, (2, 3, 4)),
    "G2": (z.g2, (2, 6)),
    "A4": (z.a4, (2, 3, 4, 5)),
    "A5": (z.a5, (2, 3, 4, 5, 6)),
    "C3": (z.c3, (2, 4, 6)),
    "D4": (z.d4, (2, 4, 6, 4)),
    "F4": (z.f4, (2, 6, 8, 12)),
    "E6": (z.e6, (2, 5, 6, 8, 9, 12)),
}
#: the types whose coinvariant slices criterion 2 builds up to the top degree
SLICE_TYPES = ("A1", "A2", "B2", "A3", "G2")


def poincare_product(degrees):
    poly = [1]
    for d in degrees:
        out = [0] * (len(poly) + d - 1)
        for i, c in enumerate(poly):
            for j in range(d):
                out[i + j] += c
        poly = out
    return tuple(poly)


def test_criterion_02_coinvariant_dimensions():
    def body():
        totals = []
        for name in SLICE_TYPES:
            rd, degrees = FUNDAMENTAL_DEGREES[name]
            expected = poincare_product(degrees)
            top = len(expected) - 1
            refl = weyl_group(rd).generators
            gens = []
            for e in range(1, top + 2):
                slice_e = invariant_slice(rd.rank, refl, e)
                # oracle: the span of Reynolds averaging over the enumerated
                # Weyl group, and each polynomial W-invariant
                want = z.reynolds_slice(rd.rank, refl, e)
                assert len(slice_e) == len(want) and z.same_span(slice_e, want, rd.rank, e), (name, e)
                assert all(substitute(g, p) == p for g in refl for p in slice_e), (name, e)
                gens.extend(slice_e)
            tq = truncated_quotient(rd.rank, gens, top + 1)
            assert tq.dims[: top + 1] == expected, name
            assert tq.dims[top + 1] == 0, name
            assert tq.total_dim == len(weyl_group(rd)), name
            totals.append(f"{name}:{tq.total_dim}")
        return "total dims = |W|: " + ", ".join(totals)

    timed(2, 10.0, body)


@pytest.mark.parametrize("name", sorted(FUNDAMENTAL_DEGREES))
def test_length_histogram_is_the_degree_product(name):
    # oracle: sum_w q^length(w) = prod_i (1 + q + ... + q^(d_i - 1)) over the
    # fundamental degrees, independent of the closure that yields the lengths
    rd, degrees = FUNDAMENTAL_DEGREES[name]
    assert codegree_histogram(rd) == poincare_product(degrees)


# Bourbaki, Lie groups, ch. VI, plates VI and VII
LARGE_DEGREES = {
    "E7": (z.e7, (2, 6, 8, 10, 12, 14, 18), 2903040),
    "E8": (z.e8, (2, 8, 12, 14, 18, 20, 24, 30), 696729600),
}


@pytest.mark.parametrize("name", sorted(LARGE_DEGREES))
def test_length_histogram_past_the_cap_reads_no_weyl_group(name, monkeypatch):
    rd, degrees, order = LARGE_DEGREES[name]

    def no_walk(*args):
        raise AssertionError("the histogram is read off the Cartan type")

    monkeypatch.setattr(rootdata, "_walk", no_walk)
    hist = codegree_histogram(rd, cap=order)
    assert hist == poincare_product(degrees) and sum(hist) == order
    # the default cap still refuses |W|, as the enumerating calls do
    with pytest.raises(GroupTooLarge, match=f"{order} exceeds cap"):
        codegree_histogram(rd)
    with pytest.raises(GroupTooLarge):
        chow_presentation(GroupDescriptor(name, rd, z.POINT, z.no_d(rd.rank)), 2)


def test_criterion_03_chevalley_vs_coinvariant():
    def body():
        products = 0
        for name, rd in z.RANK_LE2.items():
            w = weyl_group(rd)
            reps = schubert_representatives(rd)
            for widx in range(len(w)):
                for k in range(rd.rank):
                    lam = tuple(1 if i == k else 0 for i in range(rd.rank))
                    direct = chevalley_multiply(rd, lam, widx)
                    poly = poly_mul(linear_poly(lam), reps[widx])
                    other = expand_in_schubert_basis(
                        rd, poly, w.lengths[widx] + 1)
                    assert direct.terms == other.terms, (name, widx, k)
                    products += 1
        for w1 in range(6):
            for w2 in range(6):
                for c in schubert_product(z.sl3, w1, w2).integral_terms().values():
                    assert c >= 0
        assert schubert_product(z.sl3, 1, 2).integral_terms() == {3: 1, 4: 1}
        return f"{products} divisor products agree; A2 constants integral >= 0"

    timed(3, 10.0, body)


def test_criterion_04_nonlinearizable_example_regression():
    def body():
        hp = homogeneous_picard(z.product_sl2, z.nlt)
        assert hp.mode == "rational"
        assert hp.ns == FGAbelianGroup(1, ())
        assert hp.x_part.rank == 0
        h = homogeneous_rational_chow(z.product_sl2, z.nlt, 1)
        assert h.concrete_factor.dims == (1, 0)
        return "Pic(G/H)_Q rank 1, X-part 0, chow dims (1, 0)"

    timed(4, 10.0, body)


def test_criterion_05_ns_direct_sum_and_rank_law():
    def body():
        for gd in z.ALL_GROUPS:
            p = picard_group(gd)
            pic_gaff = affine_picard_group(gd.rd)
            assert p.presentation.pic_gaff == pic_gaff, gd.name
            assert p.ns == gd.av.ns.direct_sum(pic_gaff), gd.name
            att = derived_attributes(gd)
            assert p.presentation.x_g.nrows == (
                att.x_gaff.nrows - att.rank_im_gamma), gd.name
        return f"NS(G) = NS(A) + Pic(G_aff) on {len(z.ALL_GROUPS)} fixtures"

    timed(5, 10.0, body)


def test_criterion_06_rational_degree_bound():
    def body():
        for gd in z.ALL_GROUPS:
            r = rational_chow(gd, gd.av.g + 1)
            assert r.mode == "rational"
            assert r.degree_bound == gd.av.g, gd.name
            assert r.concrete_factor.dims[0] == 1
            assert all(d == 0 for d in r.concrete_factor.dims[1:]), gd.name
        return f"degree bound g, no concrete positive classes, {len(z.ALL_GROUPS)} fixtures"

    timed(6, 10.0, body)


def test_criterion_07_cover_laws():
    def body():
        for gd in z.ALL_GROUPS:
            cover = construct_cover(gd)
            assert construct_cover(cover) is cover, gd.name
            assert affinization_test(cover).trivial.answer == "yes", gd.name
            assert affine_picard_group(cover.rd).is_trivial, gd.name
            assert validate_group(cover).ok, gd.name
        return f"idempotent, trivial affinization, factorial, {len(z.ALL_GROUPS)} fixtures"

    timed(7, 10.0, body)


def test_criterion_08_completeness():
    def body():
        v = completeness_test(z.product_sl2, z.borel)
        assert v.answer == "yes"
        assert v.witness["abelian_factor_dim"] == z.product_sl2.av.g
        assert v.witness["flag_factor_dim"] == 1  # full flag variety of A1
        v3 = completeness_test(z.product_sl3, z.borel_sl3)
        assert v3.answer == "yes" and v3.witness["flag_factor_dim"] == 3
        assert completeness_test(z.product_sl2, z.t_sl2).answer == "no"
        assert completeness_test(z.product_sl2, z.full_aff).answer == "no"
        return "B+ant complete with (A_g, flag) factors; T and no-ant incomplete"

    timed(8, 10.0, body)


def test_criterion_09_borel_tensor_decomposition():
    def body():
        cases = [(z.product_sl2, z.borel, 3), (z.product_sl3, z.borel_sl3, 4)]
        dims = []
        for gd, hd, max_degree in cases:
            rd = gd.rd
            refl = weyl_group(rd).generators
            expected = poincare_product(
                FUNDAMENTAL_DEGREES["A1" if rd.rank == 1 else "A2"][1])
            gens = []
            for e in range(1, max_degree + 1):
                gens.extend(invariant_slice(rd.rank, refl, e))
            tq = truncated_quotient(rd.rank, gens, max_degree)
            prediction = tq.dims
            assert prediction[: len(expected)] == expected
            h = homogeneous_rational_chow(gd, hd, max_degree)
            assert h.concrete_factor.dims == prediction, gd.name
            dims.append(str(h.concrete_factor.dims))
        return "H = B concrete factors " + " and ".join(dims)

    timed(9, 10.0, body)


def byte_mutations(rng, blob):
    kind = rng.randrange(5)
    if not blob:
        return b"{"
    if kind == 0:
        i = rng.randrange(len(blob))
        return blob[:i] + bytes([rng.randrange(256)]) + blob[i + 1:]
    if kind == 1:
        i = rng.randrange(len(blob))
        j = min(len(blob), i + rng.randrange(1, 9))
        return blob[:i] + blob[j:]
    if kind == 2:
        i = rng.randrange(len(blob))
        insert = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 6)))
        return blob[:i] + insert + blob[i:]
    if kind == 3:
        return blob[: rng.randrange(len(blob))]
    i = rng.randrange(len(blob))
    j = min(len(blob), i + rng.randrange(1, 16))
    return blob[:i] + blob[i:j] + blob[i:]


def json_mutations(rng, blob):
    doc = json.loads(blob)
    spots = []

    def walk(node, path):
        if isinstance(node, dict):
            for k in node:
                spots.append((node, k))
                walk(node[k], path + (k,))
        elif isinstance(node, list):
            for i, item in enumerate(node):
                spots.append((node, i))
                walk(item, path + (i,))

    walk(doc, ())
    if not spots:
        return blob
    node, key = spots[rng.randrange(len(spots))]
    kind = rng.randrange(4)
    if kind == 0 and isinstance(node, dict):
        node["x" + str(rng.randrange(10))] = node.pop(key)
    elif kind == 1:
        del node[key]
    elif kind == 2:
        node[key] = rng.choice([None, True, "zz", 10**30, [1], {"a": 1}, -1])
    else:
        node[key] = rng.choice([[], {}, "9" * 40, rng.randrange(-9, 9)])
    return json.dumps(doc).encode()


def test_criterion_10_infrastructure():
    def body():
        rng = random.Random(20260815)
        for _ in range(200):
            n = rng.randrange(1, 5)
            m = rng.randrange(1, 5)
            a = IntMatrix([[rng.randrange(-9, 10) for _ in range(m)]
                           for _ in range(n)])
            assert invariant_factors(a) == z.smith_diagonal_by_minors(a)
            perm = list(range(m))
            rng.shuffle(perm)
            shuffled = IntMatrix([[row[p] for p in perm] for row in a.rows])
            assert group_from_relations(m, a) == group_from_relations(
                m, shuffled)

        corpus = [z.fixture_bytes(name) for name in z.FIXTURE_NAMES]
        parses, located = 0, 0
        for i in range(10_000):
            blob = corpus[i % len(corpus)]
            blob = (json_mutations if rng.randrange(2) else
                    byte_mutations)(rng, blob)
            try:
                parse_descriptor(blob)
                parses += 1
            except DescriptorSyntaxError as e:
                assert e.line >= 1 and e.col >= 1
                located += 1
            except SchemaError as e:
                assert str(e)
                located += 1
        assert parses + located == 10_000
        return f"SNF matches minors, cokernel stable; fuzz: {parses} parses, {located} located errors"

    timed(10, 60.0, body)
