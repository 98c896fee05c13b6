"""Property-based tests for the exact linear algebra and the parser."""

import json

from hypothesis import given, settings, strategies as st

import helpers as z
from chevalley_chow.descriptors import (
    AbelianVarietyData,
    AntiAffineGluing,
    GroupDescriptor,
    RootDatum,
    validate_group,
)
from chevalley_chow.chow import ns_group, picard_group
from chevalley_chow.errors import DescriptorSyntaxError, SchemaError
from chevalley_chow.formats import _canonical_group, parse_descriptor
from chevalley_chow.lattice import (
    FGAbelianGroup,
    IntMatrix,
    Presentation,
    coordinates,
    group_from_relations,
    hermite_row_basis,
    hstack,
    integer_kernel,
    intersect_rows,
    invariant_factors,
    is_unimodular,
    smith_normal_form,
    solve_integer,
    vstack,
)

entries = st.integers(min_value=-9, max_value=9)


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda n: st.integers(1, max_dim).flatmap(
            lambda m: st.lists(
                st.lists(entries, min_size=m, max_size=m),
                min_size=n, max_size=n,
            ).map(lambda rows: IntMatrix(rows))
        )
    )


@st.composite
def unimodular(draw, n):
    """Product of random elementary row operations on the identity."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 8))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if i == j:
            continue
        q = draw(st.integers(-3, 3))
        for k in range(n):
            m[i][k] += q * m[j][k]
    if draw(st.booleans()) and n > 1:
        m[0], m[-1] = m[-1], m[0]
        m[0] = [-x for x in m[0]]
    return IntMatrix(m)


@st.composite
def padded_matrices(draw, max_dim=4):
    """Matrices up to max_dim x max_dim with zero rows and columns spliced in,
    and matrices with no rows or no columns."""
    nr = draw(st.integers(0, max_dim))
    nc = draw(st.integers(0, max_dim))
    rows = draw(st.lists(st.lists(entries, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    zero_rows = draw(st.sets(st.integers(0, max(nr - 1, 0)))) if nr else set()
    zero_cols = draw(st.sets(st.integers(0, max(nc - 1, 0)))) if nc else set()
    rows = [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
            for i, row in enumerate(rows)]
    return IntMatrix(rows, nc)


@given(padded_matrices())
def test_smith_normal_form_matches_determinantal_divisors(a):
    s = smith_normal_form(a)
    facs = z.smith_diagonal_by_minors(a)
    assert s.shape == a.shape
    diag = tuple(facs) + (0,) * (min(a.shape) - len(facs))
    assert s == IntMatrix([[diag[i] if i == j else 0 for j in range(a.ncols)] for i in range(a.nrows)], a.ncols)
    assert invariant_factors(a) == facs
    assert all(b % f == 0 for f, b in zip(facs, facs[1:]))


big_entries = st.one_of(entries, st.integers(-(10**30), 10**30))


def shaped(nr, nc):
    return st.lists(st.lists(big_entries, min_size=nc, max_size=nc), min_size=nr, max_size=nr).map(
        lambda rows: IntMatrix(rows, nc))


def square_matrices(n):
    """n x n matrices: random entries, ``helpers.random_unimodular``, and
    a random unimodular times a random matrix, whose |det| is the matrix's."""
    plain = st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n).map(
        lambda rows: IntMatrix(rows, n))
    unimod = st.randoms(use_true_random=False).map(lambda rng: z.random_unimodular(rng, n))
    return st.one_of(plain, unimod, st.tuples(unimod, plain).map(lambda p: p[0] @ p[1]))


@given(st.integers(0, 4).flatmap(square_matrices))
def test_is_unimodular_matches_the_determinant(m):
    assert is_unimodular(m) == (abs(z.det_by_fractions(m)) == 1)


@given(st.data())
def test_is_unimodular_is_false_off_the_square(data):
    nr, nc = data.draw(st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda s: s[0] != s[1]))
    assert not is_unimodular(data.draw(shaped(nr, nc)))
    # nor is a unimodular matrix cut down to that shape: 0 x r included,
    # whose columns span the zero lattice Z^0
    u = z.random_unimodular(data.draw(st.randoms(use_true_random=False)), max(nr, nc))
    assert not is_unimodular(IntMatrix(tuple(row[:nc] for row in u.rows[:nr]), nc))


def assert_built_as_checked(m):
    """``m`` is what the validating constructor makes of its rows: tuples of ints."""
    assert m == IntMatrix(m.rows, m.ncols)
    assert type(m.rows) is tuple and len(m.rows) == m.nrows
    assert all(type(row) is tuple and len(row) == m.ncols for row in m.rows)
    assert all(type(x) is int for row in m.rows for x in row)


@given(st.data())
def test_unchecked_builders_match_the_checked_constructor(data):
    nr, nc, k = (data.draw(st.integers(0, 4)) for _ in range(3))
    a = data.draw(shaped(nr, nc))
    assert_built_as_checked(a.transpose())
    assert_built_as_checked(a @ data.draw(shaped(nc, k)))
    assert_built_as_checked(vstack(a, data.draw(shaped(k, nc))))
    assert_built_as_checked(hstack(a, data.draw(shaped(nr, k))))
    assert_built_as_checked(a - data.draw(shaped(nr, nc)))
    assert_built_as_checked(-a)
    assert_built_as_checked(hermite_row_basis(a))
    assert_built_as_checked(smith_normal_form(a))
    assert_built_as_checked(IntMatrix.identity(k))


@given(matrices())
def test_hermite_basis_idempotent(a):
    h = hermite_row_basis(a)
    assert hermite_row_basis(h) == h
    assert z.lattice_le(h, a) and z.lattice_le(a, h)


@given(st.data())
def test_hermite_invariant_under_row_operations(data):
    a = data.draw(matrices())
    u = data.draw(unimodular(a.nrows))
    assert hermite_row_basis(u @ a) == hermite_row_basis(a)


@given(st.data())
def test_cokernel_invariant_under_generator_permutation(data):
    a = data.draw(matrices())
    perm = data.draw(st.permutations(range(a.ncols)))
    shuffled = IntMatrix([[row[p] for p in perm] for row in a.rows])
    assert group_from_relations(a.ncols, a) == group_from_relations(
        a.ncols, shuffled)


@given(st.data())
def test_invariant_factors_stable_both_sides(data):
    a = data.draw(matrices())
    u = data.draw(unimodular(a.nrows))
    v = data.draw(unimodular(a.ncols))
    assert invariant_factors(u @ a @ v) == invariant_factors(a)


@given(matrices())
def test_kernel_annihilates_and_is_saturated(a):
    k = integer_kernel(a)
    for row in k.rows:
        assert all(x == 0 for x in a.apply(row))
    if k.nrows:
        assert invariant_factors(k) == tuple([1] * k.nrows)


@given(st.data())
def test_solve_integer_finds_constructed_solutions(data):
    a = data.draw(matrices())
    x = data.draw(st.lists(entries, min_size=a.ncols, max_size=a.ncols))
    b = a.apply(x)
    y = solve_integer(a, b)
    assert y is not None
    assert a.apply(y) == tuple(b)


@given(st.data())
def test_coordinates_recover_combinations_of_independent_rows(data):
    basis = data.draw(matrices())
    if hermite_row_basis(basis).nrows < basis.nrows:  # dependent rows: coordinates are not unique
        basis = hermite_row_basis(basis)
    k = data.draw(st.integers(0, 4))
    coeffs = IntMatrix([data.draw(st.lists(entries, min_size=basis.nrows, max_size=basis.nrows))
                        for _ in range(k)], basis.nrows)
    vectors = coeffs @ basis
    got = coordinates(basis, vectors.rows)
    assert got == coeffs and got @ basis == vectors
    # a vector off the lattice has no coordinates
    off = data.draw(st.lists(entries, min_size=basis.ncols, max_size=basis.ncols))
    if hermite_row_basis(vstack(basis, IntMatrix([off]))) != hermite_row_basis(basis):
        assert coordinates(basis, [*vectors.rows, off]) is None


@given(matrices(3), matrices(3))
def test_intersection_contained_in_both(a, b):
    if a.ncols != b.ncols:
        return
    both = intersect_rows(a, b)
    assert z.lattice_le(both, a) and z.lattice_le(both, b)


@given(st.lists(st.integers(0, 12), max_size=4),
       st.lists(st.integers(2, 12), max_size=3))
def test_direct_sum_commutes(ranks, torsion):
    g = FGAbelianGroup(sum(ranks), ())
    h = FGAbelianGroup(0, tuple(sorted(torsion)) if all(
        torsion[i] and torsion[i + 1] % torsion[i] == 0
        for i in range(len(torsion) - 1)) else ())
    assert g.direct_sum(h) == h.direct_sum(g)


@given(st.integers(0, 3), st.lists(st.sampled_from((1, 2, 3, 4, 5, 8, 9, 12)), max_size=6))
def test_canonical_group_matches_the_direct_sum_fold(rank, torsion):
    folded = FGAbelianGroup(rank)
    for t in torsion:
        if t > 1:
            folded = folded.direct_sum(FGAbelianGroup(0, (t,)))
    assert _canonical_group(rank, torsion, "ns_torsion") == folded


@st.composite
def relations_and_padded_hermite_basis(draw):
    """Relations R on n generators, and the Hermite basis of R with some of
    its rows repeated and zero rows added, in a drawn order."""
    n = draw(st.integers(1, 3))
    rel = IntMatrix(draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=3)), n)
    basis = hermite_row_basis(rel).rows
    rows = list(basis) + draw(st.lists(st.sampled_from(basis), max_size=2) if basis else st.just([]))
    rows += [(0,) * n] * draw(st.integers(0, 2))
    return rel, IntMatrix(draw(st.permutations(rows)), n)


@given(relations_and_padded_hermite_basis(), st.data())
def test_presentation_reads_any_generating_relations(pair, data):
    rel, padded = pair
    n = rel.ncols
    p, q = Presentation(n, rel), Presentation(n, padded)
    coeffs = data.draw(st.lists(entries, min_size=rel.nrows, max_size=rel.nrows))
    offset = data.draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
    # a combination of the relations, moved off the lattice or not
    vec = tuple(sum(c * r[j] for c, r in zip(coeffs, rel.rows)) + offset[j] for j in range(n))
    assert p.contains_relation(vec) == q.contains_relation(vec)
    k = data.draw(st.integers(0, 3))
    m = IntMatrix(data.draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=n, max_size=n)), k)
    ker = p.kernel(m)
    assert ker == q.kernel(m) == hermite_row_basis(ker)


def unimodular_change(gd, u):
    """Rewrite a descriptor in a new basis of X(T); the outputs must not move.

    Root rows transform by u; coroot rows and the columns v acts on live in
    the dual coordinates, so both pick up the inverse transpose.
    """
    uinv_t = _inverse_transpose(u)
    rd = RootDatum(gd.rd.rank,
                   gd.rd.simple_roots @ u,
                   gd.rd.simple_coroots @ uinv_t,
                   gd.rd.u_rad)
    glue = AntiAffineGluing(gd.gluing.xd, gd.gluing.v_matrix @ uinv_t,
                            gd.gluing.sigma_kernel_gens,
                            gd.gluing.unipotent_dim, gd.gluing.char)
    return GroupDescriptor(gd.name, rd, gd.av, glue)


def _inverse_transpose(u):
    n = u.nrows
    cols = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        sol = solve_integer(u.transpose(), e)
        cols.append(sol)
    return IntMatrix(cols, n).transpose()


@settings(max_examples=40)
@given(st.data())
def test_picard_invariant_under_lattice_basis_change(data):
    gd = data.draw(st.sampled_from((z.semiab, z.cover_torsion, z.product_sl2)))
    u = data.draw(unimodular(gd.rd.rank))
    moved = unimodular_change(gd, u)
    assert validate_group(moved).ok
    assert ns_group(moved) == ns_group(gd)
    a = picard_group(moved)
    b = picard_group(gd)
    assert a.ns == b.ns and a.pic0 == b.pic0
    assert a.presentation.x_g_group == b.presentation.x_g_group
    assert a.presentation.pic_gaff == b.presentation.pic_gaff


@given(st.binary(max_size=400))
def test_parser_raises_only_typed_errors(blob):
    try:
        parse_descriptor(blob)
    except (DescriptorSyntaxError, SchemaError):
        pass


json_scalars = st.one_of(st.none(), st.booleans(), st.integers(-5, 5),
                         st.text(max_size=6))


@given(st.recursive(
    json_scalars,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.dictionaries(st.text(max_size=8), kids, max_size=4)),
    max_leaves=20))
def test_parser_rejects_arbitrary_json_with_schema_errors(doc):
    blob = json.dumps(doc).encode()
    try:
        parsed = parse_descriptor(blob)
    except SchemaError as e:
        assert str(e)
    else:
        assert validate_group(parsed.group) is not None


@given(st.integers(0, 3), st.integers(0, 3))
def test_presentation_free_groups(r1, r2):
    p = Presentation.free(r1)
    q = Presentation.free(r2)
    assert p.group().direct_sum(q.group()) == FGAbelianGroup(r1 + r2, ())
