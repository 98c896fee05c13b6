"""Root data: classification, Weyl enumeration, roots, flag Picard map."""

import hashlib
import math
import random
from fractions import Fraction
from itertools import combinations
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

import helpers as z
from chevalley_chow import lattice, qlinalg, rootdata
from chevalley_chow.errors import GroupTooLarge, InvalidCartan
from chevalley_chow.formats import parse_descriptor
from chevalley_chow.invariants import invariant_slice
from chevalley_chow.lattice import DEFAULT_CAP, FGAbelianGroup, IntMatrix, coordinates, enumerate_matrix_group
from chevalley_chow.rootdata import (
    RootDatum,
    affine_picard_group,
    cartan_matrix,
    characters_of_group,
    contains_borel,
    factorial_cover_datum,
    factorial_cover_with_basis,
    fundamental_weights_q,
    reflection,
    root_system,
    simple_reflection,
    validate_root_datum,
    weyl_group,
)

M = IntMatrix


@pytest.mark.parametrize("a, b", [("sl4", "c3"), ("a4", "f4")])
def test_data_whose_matrices_differ_hash_apart(a, b):
    # they differ only where one has -1 and the other -2, and hash(-1) == hash(-2)
    first, second = getattr(z, a), getattr(z, b)
    assert first != second and hash(first) != hash(second)
    again = RootDatum(first.rank, M(first.simple_roots.rows), M(first.simple_coroots.rows))
    assert again == first and again is not first and hash(again) == hash(first)
    assert RootDatum(first.rank, first.simple_roots, first.simple_coroots, 1) != first
    assert RootDatum(first.rank, first.simple_coroots, first.simple_roots) != first


def test_classification():
    assert validate_root_datum(z.sl2).describe() == "A1"
    assert validate_root_datum(z.sl3).describe() == "A2"
    assert validate_root_datum(z.sp4).describe() == "B2"
    assert validate_root_datum(z.so5).describe() == "B2"
    assert validate_root_datum(z.g2).describe() == "G2"
    assert validate_root_datum(z.sl4).describe() == "A3"
    assert validate_root_datum(z.sl2_sl2).describe() == "A1 x A1"
    assert validate_root_datum(z.torus2).describe() == "T2"
    d4 = RootDatum(4, IntMatrix((
        (2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))),
        IntMatrix.identity(4))
    assert validate_root_datum(d4).describe() == "D4"
    assert validate_root_datum(d4).weyl_order == 192


def test_invalid_cartan_rejected():
    with pytest.raises(InvalidCartan):
        validate_root_datum(RootDatum(1, M(((1,),)), M(((1,),))))  # diagonal 1
    with pytest.raises(InvalidCartan):
        validate_root_datum(RootDatum(2, M(((2, -1), (-4, 2))), M.identity(2)))
    with pytest.raises(InvalidCartan):
        # off-diagonal signs must agree (both zero or both negative)
        validate_root_datum(RootDatum(2, M(((2, 0), (-1, 2))), M.identity(2)))


def test_weyl_orders():
    for rd, order in ((z.sl2, 2), (z.sl3, 6), (z.sp4, 8), (z.sl4, 24), (z.g2, 12)):
        assert len(weyl_group(rd)) == order
    w = weyl_group(z.sl3)
    assert w.lengths[0] == 0 and next(rootdata._weyl_matrices(z.sl3, DEFAULT_CAP)) == ((), M.identity(2))
    assert sorted(w.lengths) == list(w.lengths)  # breadth-first: nondecreasing
    assert w.words[0] == ()
    assert max(w.lengths) == 3  # number of positive roots of A2
    with pytest.raises(GroupTooLarge):
        weyl_group(z.sl4, cap=10)


WEYL_CONTRACT_DATA = {
    "A1": z.cartan_datum(z.type_a(1)),
    "A2": z.cartan_datum(z.type_a(2)),
    "A3": z.cartan_datum(z.type_a(3)),
    "A4": z.a4,
    "B2": z.cartan_datum([[2, -2], [-1, 2]]),
    "C3": z.c3,
    "G2": z.cartan_datum([[2, -3], [-1, 2]]),
}


@pytest.mark.parametrize("name", sorted(WEYL_CONTRACT_DATA))
def test_weyl_group_order_words_and_lengths(name):
    rd = WEYL_CONTRACT_DATA[name]
    assert validate_root_datum(rd).describe() == name
    w = weyl_group(rd)
    gens = tuple(simple_reflection(rd, i) for i in range(rd.nsimple))
    walked = tuple(rootdata._weyl_matrices(rd, DEFAULT_CAP))
    # same elements, in the same order, as the generic matrix-group closure
    assert tuple(m for _, m in walked) == enumerate_matrix_group(gens)
    assert tuple(word for word, _ in walked) == w.words
    positive = {r.vector for r in root_system(rd).positive}
    for (word, elem), length in zip(walked, w.lengths):
        prod = M.identity(rd.rank)
        for i in word:
            prod = prod @ gens[i]
        assert prod == elem
        # W permutes the roots, so a positive root not sent to a positive one goes negative
        inversions = sum(1 for v in positive if elem.apply(v) not in positive)
        assert len(word) == length == inversions


ORBIT_TYPES = (("A1", z.sl2), ("A2", z.sl3), ("A3", z.sl4), ("A4", z.a4), ("A5", z.a5),
               ("B2", WEYL_CONTRACT_DATA["B2"]), ("C3", z.c3), ("D4", z.d4),
               ("G2", WEYL_CONTRACT_DATA["G2"]), ("F4", z.f4))
ORBIT_DATA = {
    f"{name}-{form}": rd
    for name, sc in ORBIT_TYPES
    for form, rd in (("sc", sc), ("adj", z.adjoint_datum(sc)),
                     ("transvected", z.transvected(sc, 0, 1) if sc.rank > 1 else None))
    if rd is not None
}
ORBIT_DATA["E6-sc"] = z.e6
#: sha256 of repr(words) of W(E6): the enumeration order must not move
E6_WORDS_SHA256 = "d2b9c8979f1008d613d7d72a0ddee75ff7ba0ba87b89272aa5e3ad692ff71ae2"


@pytest.mark.parametrize("name", ORBIT_DATA)
def test_weyl_orbit_of_two_rho_check(name):
    rd = ORBIT_DATA[name]
    w = rootdata._weyl_group.__wrapped__(rd)  # bypass the cache: walk the orbit afresh
    rs = root_system(rd)
    rho2 = tuple(map(sum, zip(*(r.coroot for r in rs.positive))))
    assert w.orbit[0] == rho2
    assert all(rd.pairing(alpha, rho2) == 2 for alpha in rd.simple_roots.rows)  # regular
    # the k-th walked matrix is the k-th closure element, with the same word;
    # orbit[k] is the row vector 2rho^vee times it, and index inverts the orbit
    gens = tuple(simple_reflection(rd, i) for i in range(rd.nsimple))
    walked = tuple(rootdata._weyl_matrices(rd, DEFAULT_CAP))
    closure = enumerate_matrix_group(gens) if name == "E6-sc" else tuple(z.naive_closure(gens)[0])
    assert tuple(m for _, m in walked) == closure
    assert tuple(word for word, _ in walked) == w.words
    for mu, m in zip(w.orbit, closure):
        assert mu == tuple(sum(map(mul, rho2, col)) for col in zip(*m.rows))
    assert len(w.orbit) == len(w.index) == len(w)
    assert all(w.index[mu] == k for k, mu in enumerate(w.orbit))
    # independent oracle: length(w) = #{beta > 0 : <2rho^vee w, beta> < 0}
    positive = [r.vector for r in rs.positive]
    for mu, length in zip(w.orbit, w.lengths):
        assert sum(1 for beta in positive if sum(map(mul, mu, beta)) < 0) == length
    # the enumeration order, words and lengths are those of the matrix closure
    if name == "E6-sc":
        assert hashlib.sha256(repr(w.words).encode()).hexdigest() == E6_WORDS_SHA256
    else:
        words = [()]
        for step in z.naive_closure(gens)[1][1:]:
            words.append(words[step // len(gens)] + (step % len(gens),))
        assert w.words == tuple(words)
    assert w.lengths == tuple(map(len, w.words))


def test_reflection_on_both_lattices():
    for rd in (z.sl3, z.sp4, z.g2):
        for r in root_system(rd).positive:
            s, s_dual = reflection(r.vector, r.coroot), reflection(r.coroot, r.vector)
            assert s.apply(r.vector) == tuple(-x for x in r.vector)
            assert s_dual.apply(r.coroot) == tuple(-x for x in r.coroot)
            assert s @ s == M.identity(rd.rank)
            # the dual action is the inverse transpose, i.e. the transpose here
            assert s_dual == s.transpose()


def test_simple_reflection_action():
    s = simple_reflection(z.sl2, 0)
    assert s.apply((2,)) == (-2,)  # alpha -> -alpha
    s0 = simple_reflection(z.sl3, 0)
    # s_alpha fixes nothing but acts by chi - <chi, alpha^vee> alpha (columns)
    assert s0.apply((2, -1)) == (-2, 1)
    assert s0.apply((-1, 2)) == (1, 1)  # s_1(alpha_2) = alpha_1 + alpha_2


def test_root_system_enumeration_order():
    rs = root_system(z.sl3)
    assert len(rs.positive) == 3 and len(rs) == 6
    # contract: positives sorted by (height, coords over simple roots)
    assert [r.coords for r in rs.positive] == [(0, 1), (1, 0), (1, 1)]
    assert rs.positive[2].height == 2

    rs = root_system(z.sp4)
    assert [r.coords for r in rs.positive] == [(0, 1), (1, 0), (1, 1), (2, 1)]
    rs = root_system(z.g2)
    assert len(rs.positive) == 6
    assert [r.height for r in rs.positive] == [1, 1, 2, 3, 4, 5]


ROOT_DATA = {"A1": z.sl2, "A2": z.sl3, "A3": z.sl4, "A4": z.a4, "B2": z.sp4, "B2-adj": z.so5,
             "C3": z.c3, "D4": z.d4, "G2": z.g2, "F4": z.f4, "A2-adj": z.pgl3, "gl2": z.gl2,
             "A1xT": z.sl2xt, **{f"sweep-{key}": rd for key, rd in z.SWEEP.items()},
             "E6": z.e6, "E7": z.e7, "E8": z.e8}


@pytest.mark.parametrize("name", ROOT_DATA)
def test_root_system_matches_per_root_solves(name, monkeypatch):
    rd = ROOT_DATA[name]

    def no_solve(*args, **kwargs):
        raise AssertionError("root_system must read coordinates off the closure")

    monkeypatch.setattr(rootdata, "qsolve", no_solve)
    rs = root_system.__wrapped__(rd)  # bypass the process cache
    monkeypatch.undo()
    assert [r.index for r in rs.positive] == list(range(len(rs.positive)))
    assert [(r.height, r.coords, r.vector, r.coroot) for r in rs.positive] == z.root_system_by_solves(rd)


def test_weyl_group_keeps_one_entry_however_cap_is_passed():
    rd = z.transvected(z.sp4, 1, 0)  # a datum no other test enumerates
    before = weyl_group.cache_info()
    w = weyl_group(rd)
    assert weyl_group(rd, DEFAULT_CAP) is w and weyl_group(rd, cap=DEFAULT_CAP) is w
    after = weyl_group.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 2)


def test_weyl_group_cap_refuses_and_keys_no_entry():
    rd = z.transvected(z.so5, 1, 0)  # a datum no other test enumerates
    before = weyl_group.cache_info()
    w = weyl_group(rd, cap=2 * DEFAULT_CAP)
    assert weyl_group(rd) is w
    after = weyl_group.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
    with pytest.raises(GroupTooLarge, match="8 exceeds cap 7"):  # a cached W is refused all the same
        weyl_group(rd, cap=7)


def test_warm_weyl_group_reads_the_order_off_the_datum(monkeypatch):
    # an equal datum parsed anew compares against each cache key it meets
    fresh = RootDatum(z.sl4.rank, M(z.sl4.simple_roots.rows), M(z.sl4.simple_coroots.rows))
    assert fresh.weyl_order == 24 and "weyl_order" in vars(fresh)
    w = weyl_group(z.sl4)
    compared = []

    def counted_eq(self, other, _eq=RootDatum.__eq__):
        compared.append(self)
        return _eq(self, other)

    monkeypatch.setattr(RootDatum, "__eq__", counted_eq)
    assert weyl_group(fresh) is w
    assert len(compared) == 1  # the W cache's key; the cap is refused by the kept order
    assert fresh.weyl_order == validate_root_datum(fresh).weyl_order


def test_weyl_group_closes_no_matrix_group(monkeypatch):
    def no_closure(*args):
        raise AssertionError("W is the orbit walk, not a matrix-group closure")

    monkeypatch.setattr(lattice, "group_closure", no_closure)
    assert len(rootdata._weyl_group.__wrapped__(z.c3)) == 48  # bypass the process cache


def test_weyl_matrices_are_built_lazily(monkeypatch):
    built = []
    wrap = M._from_int_rows
    monkeypatch.setattr(M, "_from_int_rows", lambda rows, n: built.append(rows) or wrap(rows, n))
    scan = rootdata._weyl_matrices(z.e6, DEFAULT_CAP)
    first = [next(scan) for _ in range(8)]
    # one matrix per element taken, each its parent's times s_i: no more of W is built
    assert len(built) == 8
    assert [word for word, _ in first] == [(), (0,), (1,), (2,), (3,), (4,), (5,), (0, 1)]
    assert first[-1][1] == simple_reflection(z.e6, 0) @ simple_reflection(z.e6, 1)


@pytest.mark.parametrize("name", ["A3-transvected", "B2-sc", "C3-adj", "G2-transvected", "F4-sc"])
def test_weyl_matrices_walk_from_a_start_matrix(name):
    rd = ORBIT_DATA[name]
    n = rd.rank
    from_identity = tuple(rootdata._weyl_matrices(rd, DEFAULT_CAP))
    assert tuple(rootdata._weyl_matrices(rd, DEFAULT_CAP, M.identity(n))) == from_identity
    unimodular = z.random_unimodular(random.Random(n), n)
    deficient = M((tuple(range(1, n + 1)), tuple(range(2, 2 * n + 2, 2)), (1,) * n))  # rank 2 or less, 3 rows
    for q in (unimodular, deficient, M(((0,) * n,))):
        walked = tuple(rootdata._weyl_matrices(rd, DEFAULT_CAP, q))
        # the same words in the same order, each matrix q times the walked element
        assert [word for word, _ in walked] == [word for word, _ in from_identity]
        assert [qm for _, qm in walked] == [q @ m for _, m in from_identity]


def test_weyl_matrices_refuse_the_cap_before_walking(monkeypatch):
    def no_walk(*args):
        raise AssertionError("the cap is checked by the order formula first")

    monkeypatch.setattr(rootdata, "_walk", no_walk)
    with pytest.raises(GroupTooLarge, match="51840 exceeds cap 1000"):
        rootdata._weyl_matrices(z.e6, 1000)
    with pytest.raises(GroupTooLarge):
        weyl_group(z.e6, cap=1000)


def _conjugated(gens, p):
    p_inv = coordinates(p.transpose(), M.identity(p.nrows).rows).transpose()
    return tuple(p @ g @ p_inv for g in gens)


def _simple_reflections(rd):
    return tuple(simple_reflection(rd, i) for i in range(rd.nsimple))


def _root_reflections(rd):
    return tuple(reflection(r.vector, r.coroot) for r in root_system(rd).positive)


_rng = random.Random(1)  # every conjugating matrix below has an entry past +-1
#: generator sets that are the simple reflections of a root datum, or
#: reflections closed under one another, read off their base
ORDER_BY_TYPE = {name: _simple_reflections(rd) for name, rd in ORBIT_DATA.items() if name != "E6-sc"}
ORDER_BY_TYPE.update({f"{name}-conjugated": _conjugated(_simple_reflections(rd), z.random_unimodular(_rng, rd.rank))
                      for name, rd in (("A3", z.sl4), ("B2", z.sp4), ("G2", z.g2), ("C3", z.c3), ("F4", z.f4))})
ORDER_BY_TYPE["A1xA1"] = _simple_reflections(z.sl2_sl2)
# s_alpha2 and s_(alpha1 + alpha2) of A2: after a sign, alpha2 and
# -(alpha1 + alpha2) are a simple system
ORDER_BY_TYPE["A2-alpha2-alpha12"] = _root_reflections(z.sl3)[0:3:2]
# all positive roots' reflections are closed: the base is kept
ORDER_BY_TYPE["A2-positive"] = _root_reflections(z.sl3)
ORDER_BY_TYPE["B2-positive"] = _root_reflections(z.sp4)
# two copies of one reflection are closed too, with a base of one root
ORDER_BY_TYPE["repeated"] = (simple_reflection(z.sl3, 0),) * 2
#: generator sets that are neither a simple system of reflections nor closed: the closure answers
ORDER_BY_CLOSURE = {
    # alpha, alpha + beta, 2 alpha + beta of B2 (alpha short) generate all of
    # W(B2), but s_alpha sends 2 alpha + beta to beta, which is not among them
    "B2-not-closed": _root_reflections(z.sp4)[1:],
    "transvection": (M(((1, 1), (0, 1))),),
    "identity": (M.identity(2),),
    "affine": (M(((-1, 0), (0, 1))), M(((-1, 0), (2, 1)))),  # pairings -2 and -2: the affine A1
    # one root, two coroots: the roots alone are closed, but s_1 s_2 is a transvection
    "same-root": (reflection((1, 0), (2, 0)), reflection((1, 0), (2, 1))),
    **dict(z.non_weyl_groups()),
}


def _outcome(f):
    try:
        return f()
    except (GroupTooLarge, ValueError) as e:
        return type(e), str(e)


@pytest.mark.parametrize("name", sorted(ORDER_BY_TYPE) + sorted(ORDER_BY_CLOSURE))
def test_matrix_group_order_matches_the_closure(name, monkeypatch):
    gens = ORDER_BY_TYPE.get(name) or ORDER_BY_CLOSURE[name]
    calls = []
    closure = lattice.group_closure
    monkeypatch.setattr(lattice, "group_closure", lambda *a: calls.append(a) or closure(*a))
    rootdata._matrix_group_order.cache_clear()
    order = _outcome(lambda: rootdata.matrix_group_order(gens))
    # a simple system of reflections is read off its Cartan type; anything
    # else is closed, with the closure's answer or refusal
    assert len(calls) == (name in ORDER_BY_CLOSURE)
    assert order == _outcome(lambda: len(enumerate_matrix_group(gens)))
    if name in ("transvection", "affine", "same-root"):
        assert order[0] is GroupTooLarge and order[1].startswith("infinite matrix group")
    else:
        assert order == len(z.naive_closure(gens)[0])


@pytest.mark.parametrize("name", sorted(ORDER_BY_TYPE) + sorted(ORDER_BY_CLOSURE))
def test_reflection_recognition_builds_no_datum(name, monkeypatch):
    # the recognizer classifies the Cartan matrix of its signed pairs itself:
    # with no datum and no Cartan matrix of a datum to be had, the orders
    # and degrees stay the closure's orders and the recognized types' degrees
    gens = ORDER_BY_TYPE.get(name) or ORDER_BY_CLOSURE[name]

    def no_datum(*args, **kwargs):
        raise AssertionError("the recognizer builds no root datum")

    monkeypatch.setattr(rootdata, "RootDatum", no_datum)
    monkeypatch.setattr(rootdata, "cartan_matrix", no_datum)
    rootdata._matrix_group_order.cache_clear()
    got = _outcome(lambda: (rootdata.matrix_group_order(gens), rootdata.invariant_degrees(gens)))
    monkeypatch.undo()
    order = _outcome(lambda: len(enumerate_matrix_group(gens)))
    if name in ORDER_BY_CLOSURE:  # the closure's order and no degrees, or the closure's refusal
        assert got == (order if isinstance(order, tuple) else (order, None))
    else:
        assert got[0] == order and math.prod(got[1]) == order and len(got[1]) == gens[0].nrows


def _reflections_closed(gens):
    """The reflections of the group ``gens`` generate: their conjugates by one another."""
    closed = list(dict.fromkeys(gens))
    seen = set(closed)
    for u in closed:  # the list grows as new conjugates are found
        for g in gens:
            if (c := g @ u @ g) not in seen:
                seen.add(c)
                closed.append(c)
    return tuple(closed)


@pytest.mark.parametrize("key", sorted(k for k, rd in z.SWEEP.items() if rd.rank <= 4))
def test_reflection_subsets_are_sized_as_the_closure(key):
    # seeded subsets of the positive roots' reflections, and the closed sets
    # they generate (long-root and other non-standard subsystems among them),
    # also in a seeded basis of X(T), where the roots change signs:
    # the order equals the closure's, every closed set is recognized, and
    # where degrees come back, prod_j 1/(1 - t^e_j) counts the invariant slices
    rd = z.SWEEP[key]
    refl = _root_reflections(rd)
    rng = random.Random(key)
    for _ in range(8):
        sub = tuple(rng.sample(refl, rng.randint(1, len(refl))))
        closed = _reflections_closed(sub)
        for gens in (sub, closed, _conjugated(closed, z.random_unimodular(rng, rd.rank))):
            order = rootdata.matrix_group_order(gens)
            assert order == len(enumerate_matrix_group(gens)), key
            degrees = rootdata.invariant_degrees(gens)
            assert degrees is not None or gens is sub, key
            if degrees is not None:
                assert math.prod(degrees) == order
                series = z.quotient_series((), degrees, 4)
                assert series == tuple(len(invariant_slice(rd.rank, gens, d)) for d in range(5)), key


def test_matrix_group_order_refuses_past_the_cap_with_the_closure_message():
    refl = _simple_reflections(z.sl4)
    rot6 = dict(z.non_weyl_groups())["rot6"]
    for gens, order in ((refl, 24), (rot6, 6)):
        assert rootdata.matrix_group_order(gens, cap=order) == order
        with pytest.raises(GroupTooLarge, match=f"^matrix group exceeds cap {order - 1}$"):
            rootdata.matrix_group_order(gens, cap=order - 1)
    with pytest.raises(ValueError, match="square"):
        rootdata.matrix_group_order((M.identity(2), M.identity(3)))


def test_characters_of_group():
    assert characters_of_group(z.gl2).rows == ((1, 1),)
    assert characters_of_group(z.sl2).nrows == 0
    assert characters_of_group(z.torus2) == M.identity(2)
    assert characters_of_group(z.rank3).rows == ((0, 1, 0), (0, 0, 1))
    # cross-check the Smith route against the column-reduction oracle
    for rd in (z.gl2, z.sl3, z.sp4, z.rank3, z.sl2xt, z.torus2):
        assert characters_of_group(rd) == z.integer_kernel_by_columns(rd.simple_coroots)


def test_flag_picard_table():
    assert affine_picard_group(z.sl2).is_trivial
    assert affine_picard_group(z.gl2).is_trivial
    assert affine_picard_group(z.sp4).is_trivial
    assert affine_picard_group(z.pgl2) == FGAbelianGroup(0, (2,))
    assert affine_picard_group(z.pgl3) == FGAbelianGroup(0, (3,))
    assert affine_picard_group(z.so5) == FGAbelianGroup(0, (2,))
    assert affine_picard_group(z.g2).is_trivial
    assert affine_picard_group(z.torus1).is_trivial


def test_fundamental_weights():
    w = fundamental_weights_q(z.sl2)
    assert w == [(1,)]  # alpha/2 in character coords = (1,)
    for rd in (z.sl3, z.sp4, z.g2):
        rs = root_system(rd)
        for j, weight in enumerate(fundamental_weights_q(rd)):
            for i in range(rd.nsimple):
                pair = sum(a * b for a, b in zip(weight, rd.simple_coroots.rows[i]))
                assert pair == (1 if i == j else 0)


def test_factorial_cover_datum():
    assert factorial_cover_datum(z.sl2) is z.sl2
    assert factorial_cover_datum(z.torus2) is z.torus2
    # GL2 is factorial but (1/2, -1/2) is not a character, so it still enlarges
    gcover = factorial_cover_datum(z.gl2)
    assert gcover is not z.gl2
    assert validate_root_datum(gcover).describe() == "A1 x T1"
    assert affine_picard_group(gcover).is_trivial
    assert factorial_cover_datum(gcover) is gcover
    cover = factorial_cover_datum(z.pgl2)
    assert cover.simple_roots.rows == ((2,),) and cover.simple_coroots.rows == ((1,),)
    cover3 = factorial_cover_datum(z.pgl3)
    assert affine_picard_group(cover3).is_trivial
    assert validate_root_datum(cover3).describe() == "A2"
    # idempotent and root system preserved through the basis change
    assert factorial_cover_datum(cover3) is cover3
    _, basis, denom = factorial_cover_with_basis(z.pgl3)
    assert denom == 3 and basis.nrows == 2
    assert len(root_system(cover3).positive) == 3


COVER_DATA = {
    **ORBIT_DATA,
    **{name: rd for name, rd in vars(z).items() if isinstance(rd, RootDatum)},
    **{f"fixture-{name}": parse_descriptor(z.fixture_bytes(name)).group.rd for name in z.FIXTURE_NAMES},
}


@pytest.mark.parametrize("name", COVER_DATA)
def test_factorial_cover_matches_the_fraction_route(name):
    rd = COVER_DATA[name]
    assert factorial_cover_with_basis(rd) == z.factorial_cover_by_fractions(rd)


INTEGER_COVER_DATA = {
    **COVER_DATA,
    **{f"{name}-{form}": rd
       for name, sc in (("E6", z.e6), ("E7", z.e7), ("E8", z.e8))
       for form, rd in (("adj", z.adjoint_datum(sc)), ("transvected", z.transvected(sc, 0, 1)))},
}


@pytest.mark.parametrize("name", INTEGER_COVER_DATA)
def test_factorial_cover_matches_the_integer_route(name):
    # the weights come from the integer inverse of the Cartan matrix, not
    # from the production fundamental_weights_q that the fraction route reads
    rd = INTEGER_COVER_DATA[name]
    assert factorial_cover_with_basis(rd) == z.factorial_cover_by_integers(rd)


def test_contains_borel():
    rs = root_system(z.sl3)
    pos = [r.vector for r in rs.positive]
    assert contains_borel(z.sl3, pos) == (0, (), M.identity(2))
    neg = [tuple(-x for x in v) for v in pos]
    idx, word, m = contains_borel(z.sl3, neg)
    assert len(word) == 3  # the longest element of A2
    # the walk's matrix is the product of the word's simple reflections, and it sends pos to neg
    s = [simple_reflection(z.sl3, i) for i in word]
    assert m == s[0] @ s[1] @ s[2] and {m.apply(v) for v in pos} == set(neg)
    assert contains_borel(z.sl3, pos[:2]) is None


def test_contains_borel_walks_all_of_w_before_answering_none(monkeypatch):
    # {alpha_1, alpha_2, -alpha_1 - alpha_2} has as many roots as the positive
    # system, but no Weyl element carries the positive system into it
    a1, a2 = z.sl3.simple_roots.rows
    subset = (a1, a2, tuple(-x - y for x, y in zip(a1, a2)))
    walked = []
    matrices = rootdata._weyl_matrices
    monkeypatch.setattr(rootdata, "_weyl_matrices", lambda rd, cap: (walked.append(p) or p for p in matrices(rd, cap)))
    assert contains_borel(z.sl3, subset) is None
    assert len(walked) == 6


def test_contains_borel_counts_roots_before_walking(monkeypatch):
    def no_walk(*args):
        raise AssertionError("fewer roots than the positive system need no Weyl element")

    monkeypatch.setattr(rootdata, "_weyl_matrices", no_walk)
    # the normalizer of the torus of E6 has no roots: the walk would visit all 51840 elements
    normalizer = z.SubgroupDescriptor("normalizer", M.identity(6),
                                      component_generators=_simple_reflections(z.e6), translations=(False,) * 6)
    assert contains_borel(z.e6, normalizer.root_vectors(z.e6)) is None
    pos = [r.vector for r in root_system(z.e6).positive]
    assert contains_borel(z.e6, pos[1:] + pos[1:]) is None  # repeats count once
    with pytest.raises(GroupTooLarge, match="51840 exceeds cap 1000"):  # the cap is still refused first
        contains_borel(z.e6, (), cap=1000)


def test_cartan_matrix():
    assert cartan_matrix(z.sl3).rows == ((2, -1), (-1, 2))
    assert cartan_matrix(z.g2).rows == ((2, -1), (-3, 2))


def test_cartan_validation_needs_no_rational_elimination(monkeypatch):
    def no_elimination(*args, **kwargs):
        raise AssertionError("simple roots ranked over Fractions")

    monkeypatch.setattr(qlinalg.SpanBuilder, "_reduce", no_elimination)
    for rd, name in ((z.sl2, "A1"), (z.sl3, "A2"), (z.sl4, "A3"), (z.a4, "A4"), (z.a5, "A5"),
                     (z.sp4, "B2"), (z.c3, "C3"), (z.d4, "D4"), (z.g2, "G2"), (z.f4, "F4")):
        assert validate_root_datum(rd).describe() == name
    # the affine A2 diagram passes every pairwise test, but its Cartan matrix is singular
    affine_a2 = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    with pytest.raises(InvalidCartan, match="simple roots are linearly dependent"):
        validate_root_datum(RootDatum(2, M(((2, -1), (-1, 2), (-1, -1))), M(((1, 0), (0, 1), (-1, -1)))))
    with pytest.raises(InvalidCartan, match="simple coroots are linearly dependent"):
        validate_root_datum(RootDatum(3, M.identity(3), M(affine_a2).transpose()))


def test_a_valid_datum_builds_no_hermite_form(monkeypatch):
    built = []
    wrap = rootdata.hermite_row_basis
    monkeypatch.setattr(rootdata, "hermite_row_basis", lambda m: built.append(m) or wrap(m))
    for rd in (*z.SWEEP.values(), z.e6, z.e7, z.e8, z.gl2, z.sl2xt, z.torus2, z.sl2_sl2):
        validate_root_datum.__wrapped__(rd)  # bypass the process cache
    assert built == []
    # a refused diagram ranks the roots, then the coroots, before its own message
    cycle = M(((2, -1, -1), (-1, 2, -1), (-2, -1, 2)))  # a nonsingular cycle
    with pytest.raises(InvalidCartan, match="has a cycle"):
        validate_root_datum.__wrapped__(RootDatum(3, cycle, M.identity(3)))
    assert len(built) == 2
    affine_a2 = M(((2, -1, -1), (-1, 2, -1), (-1, -1, 2)))
    with pytest.raises(InvalidCartan, match="simple roots are linearly dependent"):
        validate_root_datum.__wrapped__(RootDatum(3, affine_a2, M.identity(3)))
    assert len(built) == 3


#: affine Cartan matrices of size 3 and 4 (Kac, *Infinite dimensional Lie
#: algebras*, 4.8, up to transposition): singular, yet every entry test passes
AFFINE_CARTAN = (
    ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)),
    ((2, -1, 0, -1), (-1, 2, -1, 0), (0, -1, 2, -1), (-1, 0, -1, 2)),
    ((2, -1, 0), (-2, 2, -2), (0, -1, 2)),
    ((2, -1, 0), (-1, 2, -1), (0, -3, 2)),
    ((2, 0, -1, 0), (0, 2, -1, 0), (-1, -1, 2, -1), (0, 0, -2, 2)),
    ((2, -1, 0, 0), (-2, 2, -1, 0), (0, -1, 2, -2), (0, 0, -1, 2)),
)


@st.composite
def _small_data(draw):
    """Small integer root data: random rows; or a Cartan-like matrix C
    (diagonal 2, off-diagonal entries 0 in pairs or a bond) or an affine
    Cartan matrix, as the roots over unit coroots or as the coroots over
    unit roots, with a column added that the other side pairs to 0."""
    kind = draw(st.sampled_from(("random", "bonds", "bonds", "affine")))
    k = draw(st.integers(1, 4))
    if kind == "random":
        n = draw(st.integers(1, 4))
        rows = st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=k, max_size=k)
        return RootDatum(n, M(draw(rows), n), M(draw(rows), n))
    if kind == "affine":
        c = draw(st.sampled_from(AFFINE_CARTAN))
        k = len(c)
    else:
        c = [[2 * (i == j) for j in range(k)] for i in range(k)]
        for i, j in combinations(range(k), 2):
            if draw(st.booleans()):  # a bond of finite type, or of product 4
                c[i][j], c[j][i] = draw(st.sampled_from(((-1, -1), (-1, -2), (-2, -1), (-1, -3), (-3, -1),
                                                         (-2, -2))))
    cartan, unit, zero = M(c), M.identity(k), (0,) * k
    extra = draw(st.tuples(*[st.integers(-2, 2)] * k))

    def padded(m, column):
        return M(tuple(r + (x,) for r, x in zip(m.rows, column)))

    if draw(st.booleans()):
        return RootDatum(k + 1, padded(cartan, extra), padded(unit, zero))
    return RootDatum(k + 1, padded(unit, zero), padded(cartan.transpose(), extra))  # still pairs to C


@given(_small_data())
@settings(max_examples=400, deadline=None)
def test_hermite_after_the_diagram_refuses_as_hermite_first(rd):
    def outcome(f):
        try:
            return f(rd)
        except InvalidCartan as e:
            return str(e)

    assert outcome(validate_root_datum.__wrapped__) == outcome(z.validate_root_datum_hermite_first)


def _chain(n, short_end=None):
    """Cartan matrix of the chain 0 - 1 - ... - (n - 1); ``short_end`` "B"
    makes the last node short, "C" long (C[i][j] = <alpha_i, alpha_j^vee>)."""
    c = z.type_a(n)
    if short_end == "B":
        c[n - 2][n - 1] = -2
    elif short_end == "C":
        c[n - 1][n - 2] = -2
    return c


def _type_d(n):
    c = z.type_a(n)
    c[n - 2][n - 1] = c[n - 1][n - 2] = 0
    c[n - 3][n - 1] = c[n - 1][n - 3] = -1
    return c


#: every irreducible type the table is checked on, with the order formulas
#: it replaced: (n + 1)!, 2^n n!, 2^(n - 1) n!, and the exceptional orders
DEGREE_CASES = {
    **{f"A{n}": (_chain(n), lambda n: math.factorial(n + 1)) for n in range(1, 9)},
    **{f"B{n}": (_chain(n, "B"), lambda n: 2**n * math.factorial(n)) for n in range(2, 7)},
    **{f"C{n}": (_chain(n, "C"), lambda n: 2**n * math.factorial(n)) for n in range(3, 7)},
    **{f"D{n}": (_type_d(n), lambda n: 2 ** (n - 1) * math.factorial(n)) for n in range(4, 8)},
    **{f"E{n}": (z.type_e(n), lambda n: {6: 51840, 7: 2903040, 8: 696729600}[n]) for n in (6, 7, 8)},
    "F4": (z.f4.simple_roots.rows, lambda n: 1152),
    "G2": ([[2, -1], [-3, 2]], lambda n: 12),
}


@pytest.mark.parametrize("name", DEGREE_CASES)
def test_degree_table_matches_the_root_heights_and_the_order_formulas(name):
    cartan, order = DEGREE_CASES[name]
    rd = z.cartan_datum(cartan)
    ctype = validate_root_datum(rd)
    assert ctype.describe() == name
    want = sorted(z.degrees_from_heights(root_system(rd).positive, rd.rank))
    assert list(ctype.degrees) == want == list(ctype.components[0].degrees)
    assert ctype.weyl_order == math.prod(ctype.degrees) == order(rd.rank)
    # a central direction adds a degree 1 and changes no order
    wider = RootDatum(rd.rank + 1, M(tuple(r + (0,) for r in rd.simple_roots.rows)),
                      M(tuple(r + (0,) for r in rd.simple_coroots.rows)))
    assert validate_root_datum(wider).degrees == (1, *ctype.degrees)
    assert validate_root_datum(wider).weyl_order == ctype.weyl_order


def test_pairing_is_exact():
    # a rational character or a float pairs to its value, not to a truncated int
    assert z.sl2.pairing((Fraction(1, 2),), (2,)) == 1
    assert z.sl2.pairing((Fraction(1, 3),), (1,)) == Fraction(1, 3)
    assert z.sl2.pairing((1.5,), (1,)) == 1.5
    assert z.gl2.pairing((1, -1), (1, -1)) == 2


def test_invariant_degrees_share_the_order_memo():
    rootdata._matrix_group_order.cache_clear()
    refl = _simple_reflections(z.sl4)
    assert rootdata.invariant_degrees(refl) == (2, 3, 4)
    assert rootdata.matrix_group_order(refl) == 24
    assert rootdata._matrix_group_order.cache_info().currsize == 1
    # a rotation is closed, and has no degrees to read; past the cap both refuse alike
    rot6 = dict(z.non_weyl_groups())["rot6"]
    assert rootdata.invariant_degrees(rot6) is None
    with pytest.raises(GroupTooLarge, match="^matrix group exceeds cap 23$"):
        rootdata.invariant_degrees(refl, cap=23)
