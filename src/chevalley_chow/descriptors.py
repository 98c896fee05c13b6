"""Descriptors for a connected algebraic group G and subgroups H.

A group is glued from three finite pieces:

* a :class:`~chevalley_chow.rootdata.RootDatum` for the affine part G_aff,
* dimension and Neron-Severi data for the abelian variety A = G/G_aff,
* the intersection D = G_aff with the largest anti-affine subgroup G_ant,
  presented by its character group X(D), the restriction v: X(T) -> X(D),
  and the kernel of the classifying map sigma_A: X(D) -> Pic0(A).

Subgroups carry the character-lattice surjection q: X(T) -> X(T_H), a set
of roots, a finite component group acting on X(T_H) with per-generator
translation flags, and two intersection flags against G_ant.  X(H) is
X(T_H)^K, K generated by the symmetric roots' reflections and the component group.

Validation is report-based: each structural requirement becomes a named
pass/fail entry instead of an exception, so a caller can show all failures
at once.
"""

from __future__ import annotations

from ._record import Record
from .errors import GroupTooLarge, InvalidCartan
from .lattice import (
    DEFAULT_CAP,
    FGAbelianGroup,
    IntMatrix,
    Presentation,
    coordinates,
    fixed_sublattice,
    group_from_relations,
    hermite_row_basis,
    integer_kernel,
    solve_integer,
    vstack,
)
from .rootdata import (
    RootDatum,
    _weyl_matrices,
    characters_of_group,
    matrix_group_order,
    reflection,
    root_system,
    validate_root_datum,
)


class AbelianVarietyData(Record):
    """Dimension g of A = G/G_aff and the Neron-Severi group NS(A)."""

    g: int
    ns: FGAbelianGroup

    def __post_init__(self):
        if self.g < 0:
            raise ValueError("abelian variety dimension must be nonnegative")


class AntiAffineGluing(Record):
    """Presentation of D = G_aff meet G_ant and the maps through it.

    ``xd`` presents X(D) on ambient generators; ``v_matrix`` is the
    restriction X(T) -> X(D) in ambient coordinates; ``sigma_kernel_gens``
    rows generate ker sigma_A inside X(D); ``unipotent_dim`` is the
    dimension of the unipotent part of D; ``char`` the field characteristic.
    """

    xd: Presentation
    v_matrix: IntMatrix
    sigma_kernel_gens: IntMatrix
    unipotent_dim: int = 0
    char: int = 0

    def __post_init__(self):
        if self.v_matrix.nrows != self.xd.ngens:
            raise ValueError("v must land in the ambient generators of X(D)")
        if self.sigma_kernel_gens.ncols != self.xd.ngens:
            raise ValueError("sigma kernel generators must live in X(D) ambient coordinates")
        if self.unipotent_dim < 0 or self.char < 0:
            raise ValueError("negative dimension or characteristic")
        if self.char and not _is_prime(self.char):
            raise ValueError(f"characteristic {self.char} is neither 0 nor a prime")

    def sigma_quotient(self) -> Presentation:
        """X(D)/(ker sigma_A) as a presentation on the X(D) ambient generators."""
        return Presentation(self.xd.ngens, vstack(self.xd.relations, self.sigma_kernel_gens))


class GroupDescriptor(Record):
    name: str
    rd: RootDatum
    av: AbelianVarietyData
    gluing: AntiAffineGluing

    def __post_init__(self):
        if self.gluing.v_matrix.ncols != self.rd.rank:
            raise ValueError("v must be defined on X(T)")


class SubgroupDescriptor(Record):
    """A subgroup H of G, through its torus, roots, and component group.

    ``roots`` lists (index, sign) pairs into the positive-root enumeration
    of the ambient datum.  ``component_generators`` act on X(T_H); the
    parallel ``translations`` flags record which generators act on A by a
    nontrivial translation.
    """

    name: str
    q_matrix: IntMatrix
    roots: tuple[tuple[int, int], ...] = ()
    extra_unipotent_dim: int = 0
    component_generators: tuple[IntMatrix, ...] = ()
    translations: tuple[bool, ...] = ()
    contains_G_ant: bool = False
    ant_contains_gantaff: bool = False

    def __post_init__(self):
        object.__setattr__(self, "roots", tuple((int(i), int(s)) for i, s in self.roots))
        if any(s not in (1, -1) for _, s in self.roots):
            raise ValueError("root signs must be +1 or -1")
        if len(self.component_generators) != len(self.translations):
            raise ValueError("one translation flag per component generator")
        h = self.q_matrix.nrows
        for g in self.component_generators:
            if g.shape != (h, h):
                raise ValueError("component generators must act on X(T_H)")
        if self.extra_unipotent_dim < 0:
            raise ValueError("negative unipotent dimension")

    @property
    def h_rank(self) -> int:
        return self.q_matrix.nrows

    def symmetric_root_indices(self) -> tuple[int, ...]:
        have = set(self.roots)
        return tuple(sorted({i for i, s in self.roots if (i, -s) in have}))

    def root_vectors(self, rd: RootDatum):
        rs = root_system(rd)
        return tuple(rs.vector(i, s) for i, s in self.roots)

    @property
    def has_translations(self) -> bool:
        return any(self.translations)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


class CheckResult(Record):
    name: str
    passed: bool
    detail: str = ""


class ValidationReport(Record):
    subject: str
    checks: tuple[CheckResult, ...]
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def to_json(self) -> dict:
        return {"type": "validation", "subject": self.subject, "ok": self.ok,
                "checks": self.checks, "warnings": self.warnings}


def _check(checks, name, condition, detail_fail="", detail_ok=""):
    checks.append(CheckResult(name, bool(condition), detail_fail if not condition else detail_ok))
    return bool(condition)


def validate_group(gd: GroupDescriptor) -> ValidationReport:
    """All structural requirements on a group descriptor, as a report.

    Never raises on bad data; each failed requirement is an entry.
    """
    checks: list[CheckResult] = []
    warnings: list[str] = []
    try:
        ctype = validate_root_datum(gd.rd)
        _check(checks, "cartan", True, detail_ok=ctype.describe())
    except InvalidCartan as e:
        _check(checks, "cartan", False, str(e))
        return ValidationReport(gd.name, tuple(checks), tuple(warnings))

    glue = gd.gluing
    _check(checks, "v-surjectivity", glue.xd.cokernel(glue.v_matrix).is_trivial,
           "v does not map X(T) onto X(D)")

    # every root is an integer combination of the simple roots and v is linear
    central = all(glue.xd.contains_relation(glue.v_matrix.apply(alpha)) for alpha in gd.rd.simple_roots.rows)
    _check(checks, "centrality-of-D", central,
           "v(alpha) != 0 for a root alpha; D must be central in G_aff")

    if glue.char == 0:
        _check(checks, "unipotent-dimension-bound", glue.unipotent_dim <= gd.av.g,
               f"unipotent part of D has dim {glue.unipotent_dim} > g = {gd.av.g}")
    else:
        _check(checks, "unipotent-dimension-bound", glue.unipotent_dim == 0,
               f"anti-affine groups have no unipotent part in char {glue.char}")

    if gd.av.g == 0:
        _check(checks, "no-anti-affine-over-a-point",
               glue.xd.group().is_trivial and glue.unipotent_dim == 0,
               "g = 0 forces X(D) trivial and unipotent_dim = 0")
        _check(checks, "ns-over-a-point", gd.av.ns.is_trivial,
               "g = 0 forces NS(A) = 0")

    if gd.av.ns.torsion:
        warnings.append(f"NS(A) given with torsion {gd.av.ns.torsion}; NS of an abelian variety is torsion-free")

    torsion = glue.sigma_quotient().group().torsion
    # the torsion is a chain t_1 | ... | t_k, so a prime has rank > 2g iff it
    # divides t_{k-2g}: only that entry is factored
    k = len(torsion) - 2 * gd.av.g
    crowded = _prime_factors(torsion[k - 1]) if k > 0 else set()
    char_divides = bool(torsion) and glue.char and torsion[-1] % glue.char == 0
    for p in sorted(crowded | ({glue.char} if char_divides else set())):
        if p in crowded:
            p_rank = sum(1 for t in torsion if t % p == 0)
            # a cofactor past the trial bound that is not certified prime
            # bounds the rank of each prime dividing it from below
            if p < PRIME_TEST_BOUND and _is_prime(p):
                crowding = f"{p}-torsion rank {p_rank} > 2g = {2 * gd.av.g}"
            else:
                crowding = f"p-torsion rank >= {p_rank} > 2g = {2 * gd.av.g} for each prime p dividing {p}"
            warnings.append(
                f"X(D)/ker sigma has {crowding}; "
                f"no {gd.av.g}-dimensional abelian variety can host it"
            )
        if glue.char == p:
            warnings.append(
                f"X(D)/ker sigma has {p}-torsion in characteristic {p}; "
                "check the descriptor against the p-rank of A"
            )
    return ValidationReport(gd.name, tuple(checks), tuple(warnings))


#: Miller-Rabin on the first 13 prime bases, 2 to 41, decides primality
#: exactly below this bound (Sorenson and Webster, Math. Comp. 86, 2017)
PRIME_TEST_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first 13 prime bases, exact below
    ``PRIME_TEST_BOUND``; a larger n raises ValueError."""
    if n >= PRIME_TEST_BOUND:
        raise ValueError(f"primality of {n} is decided only below {PRIME_TEST_BOUND}")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % p == 0 for p in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    for a in bases:
        x = pow(a, (n - 1) >> s, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> set[int]:
    """Prime factors of ``n`` by trial division up to 2^16; a cofactor left
    past that bound is returned as it stands, prime or not (callers certify
    it with :func:`_is_prime`)."""
    out = set()
    d = 2
    while d * d <= n and d < 1 << 16:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def validate_subgroup(gd: GroupDescriptor, hd: SubgroupDescriptor, cap: int = DEFAULT_CAP) -> ValidationReport:
    checks: list[CheckResult] = []
    warnings: list[str] = []
    rd = gd.rd
    q = hd.q_matrix
    _check(checks, "q-shape", q.ncols == rd.rank,
           f"q has {q.ncols} columns but X(T) has rank {rd.rank}")
    if q.ncols != rd.rank:
        return ValidationReport(hd.name, tuple(checks), tuple(warnings))

    q_onto = _check(checks, "q-surjectivity", Presentation.free(hd.h_rank).cokernel(q).is_trivial,
                    "q is not onto X(T_H)")

    rs = root_system(rd)
    in_range = range(len(rs.positive))
    roots_ok = _check(checks, "roots-valid", all(i in in_range for i, _ in hd.roots),
                      "a root index is out of range")

    ker_q = integer_kernel(q)
    # an index out of range is reported by roots-valid and skipped here
    coroots = [rs.positive[i].coroot for i in hd.symmetric_root_indices() if i in in_range]
    descent_ok = _check(checks, "coroot-descent",
                        all(sum(a * b for a, b in zip(row, cov)) == 0 for cov in coroots for row in ker_q.rows),
                        "a symmetric root's coroot does not kill ker(q), so it cannot descend to T_H")

    finite_ok = True
    detail = ""
    if hd.component_generators:
        try:
            detail = f"|H/H0| = {matrix_group_order(hd.component_generators, cap)}"
        except (GroupTooLarge, ValueError) as e:
            finite_ok = False
            detail = str(e)
    _check(checks, "component-group-finite", finite_ok, detail, detail)

    if finite_ok and hd.component_generators:
        unlifted = {g @ q for g in hd.component_generators}  # each g needs a Weyl m with g q = q m
        detail = "a component generator is not q-compatible with any Weyl element"
        try:
            for _, qm in _weyl_matrices(rd, cap, q):  # one lazy walk from q for all generators
                unlifted.discard(qm)
                if not unlifted:
                    break
        except GroupTooLarge as e:  # W past the cap is refused before any element is seen
            detail = str(e)
        compat = _check(checks, "component-weyl-compatibility", not unlifted, detail)
        # X(H0) needs every symmetric coroot to descend along q
        if compat and q_onto and roots_ok and descent_ok:
            stable = _component_action(_connected_character_lattice(gd, hd), hd) is not None
            _check(checks, "component-group-preserves-characters", stable,
                   "the component group does not stabilize the character lattice of H0")

    _check(checks, "ant-flags-consistent",
           (not hd.contains_G_ant) or hd.ant_contains_gantaff,
           "H containing G_ant must contain its affine part too")
    return ValidationReport(hd.name, tuple(checks), tuple(warnings))


# ---------------------------------------------------------------------------
# Derived attributes
# ---------------------------------------------------------------------------


class AttributeReport(Record):
    """Dimensions and character data derived from a valid descriptor."""

    dim_G: int
    dim_G_aff: int
    dim_G_ant: int
    dim_Aff_G: int
    dim_D: int
    x_gaff: IntMatrix            # basis rows of X(G_aff) inside X(T)
    u: IntMatrix                 # v on X(G_aff): x_gaff coordinates -> X(D) generators; gamma_A factors through it
    ker_gamma: IntMatrix         # basis rows of ker gamma_A inside X(T)
    im_gamma: FGAbelianGroup     # X(G_aff)/ker gamma_A, the image inside Pic0(A)
    rank_im_gamma: int
    xd_group: FGAbelianGroup
    d_smooth_connected: bool


def derived_attributes(gd: GroupDescriptor) -> AttributeReport:
    """Dimensions and the gamma_A kernel/image data of a valid descriptor.

    X(G_aff) is computed once; u = v @ x_gaff^T is the restriction of v to
    it, a matrix from X(G_aff) coordinates to the X(D) generators, and
    ker gamma_A = X(G) is the kernel of u into X(D)/ker sigma_A; im gamma_A
    is presented on the X(G_aff) coordinates with that kernel as relations.
    The tests check both against independent routes: X(G_aff) meet
    v^{-1}(ker sigma_A), and the quotient of the two row lattices.
    """
    rd = gd.rd
    glue = gd.gluing
    n_pos = len(root_system(rd).positive)
    dim_gaff = rd.rank + 2 * n_pos + rd.u_rad
    xd_group = glue.xd.group()
    dim_d = xd_group.rank + glue.unipotent_dim
    dim_gant = gd.av.g + dim_d
    dim_g = dim_gaff + gd.av.g
    x_gaff = characters_of_group(rd)
    u = glue.v_matrix @ x_gaff.transpose()
    coords = glue.sigma_quotient().kernel(u)
    ker = hermite_row_basis(coords @ x_gaff)
    return AttributeReport(
        dim_G=dim_g,
        dim_G_aff=dim_gaff,
        dim_G_ant=dim_gant,
        dim_Aff_G=dim_g - dim_gant,
        dim_D=dim_d,
        x_gaff=x_gaff,
        u=u,
        ker_gamma=ker,
        im_gamma=group_from_relations(x_gaff.nrows, coords),
        rank_im_gamma=x_gaff.nrows - ker.nrows,
        xd_group=xd_group,
        d_smooth_connected=(not xd_group.torsion) and (glue.char == 0 or glue.unipotent_dim == 0),
    )


def contains_nontrivial_ant(att: AttributeReport, hd: SubgroupDescriptor) -> bool:
    """Whether H contains a nontrivial G_ant (a trivial G_ant makes the flag vacuous)."""
    return hd.contains_G_ant and att.dim_G_ant > 0


# ---------------------------------------------------------------------------
# Subgroup character data
# ---------------------------------------------------------------------------


def descended_coroot(gd: GroupDescriptor, hd: SubgroupDescriptor, index: int):
    """Coroot of a symmetric subgroup root, in Y(T_H) coordinates."""
    cov = root_system(gd.rd).positive[index].coroot
    sol = solve_integer(hd.q_matrix.transpose(), cov)
    if sol is None:
        raise ValueError(f"coroot {index} does not descend along q")
    return sol


def _subgroup_reflections(gd: GroupDescriptor, hd: SubgroupDescriptor):
    """Reflections of the symmetric subgroup roots on X(T_H); with the
    component generators they generate K."""
    return tuple(reflection(hd.q_matrix.apply(root_system(gd.rd).positive[i].vector), descended_coroot(gd, hd, i))
                 for i in hd.symmetric_root_indices())


def _connected_character_lattice(gd: GroupDescriptor, hd: SubgroupDescriptor) -> IntMatrix:
    """Basis rows of X(H0) = X(T_H)^{W(H0)}: the characters the reflections
    fix, those killing each descended coroot (<q alpha, alpha^vee> = 2)."""
    return fixed_sublattice(_subgroup_reflections(gd, hd), hd.h_rank)


def _component_action(xh0: IntMatrix, hd: SubgroupDescriptor) -> tuple[IntMatrix, ...] | None:
    """Each component generator acting on X(H0), in the coordinates of the
    basis rows ``xh0``; None when some generator does not stabilize X(H0).
    With no symmetric root X(H0) is X(T_H) in its identity basis, where the
    coordinates are the generators themselves."""
    if xh0 == IntMatrix.identity(hd.h_rank):
        return hd.component_generators
    images = [coordinates(xh0, map(g.apply, xh0.rows)) for g in hd.component_generators]
    return None if None in images else tuple(m.transpose() for m in images)


def subgroup_characters(gd: GroupDescriptor, hd: SubgroupDescriptor, cap: int = DEFAULT_CAP) -> IntMatrix:
    """Basis rows of X(H) = X(T_H)^K, the lattice K's generators fix.

    The reflections fix exactly X(H0); the component group must stabilize
    X(H0) (ValueError otherwise) and act on it through a finite group of
    order at most ``cap`` (:func:`~chevalley_chow.rootdata.matrix_group_order`,
    GroupTooLarge otherwise).
    """
    refl = _subgroup_reflections(gd, hd)
    xh0 = fixed_sublattice(refl, hd.h_rank)
    if not hd.component_generators or xh0.nrows == 0:
        return xh0
    induced = _component_action(xh0, hd)
    if induced is None:
        raise ValueError("component group does not stabilize X(H0)")
    matrix_group_order(induced, cap)
    return fixed_sublattice(refl + hd.component_generators, hd.h_rank)


def restriction_kernel(hd: SubgroupDescriptor, x_gaff: IntMatrix) -> IntMatrix:
    """Basis rows of ker r_H = {chi in X(G_aff) : q(chi) = 0} inside X(T),
    read off q alone on the ``x_gaff`` coordinates, mapped back."""
    return hermite_row_basis(integer_kernel(hd.q_matrix @ x_gaff.transpose()) @ x_gaff) if x_gaff.nrows else x_gaff


class SubgroupRestriction(Record):
    """r_H: X(G_aff) -> X(H) with bases fixed on both sides."""

    x_gaff: IntMatrix    # rows: basis of X(G_aff) in X(T) coordinates
    x_h: IntMatrix       # rows: basis of X(H) in X(T_H) coordinates
    matrix: IntMatrix    # (x_h.nrows x x_gaff.nrows), column action on coordinates
    ker_r: IntMatrix     # rows: basis of ker r_H in X(T) coordinates


def restriction_to_subgroup(gd: GroupDescriptor, hd: SubgroupDescriptor, x_gaff: IntMatrix,
                            cap: int = DEFAULT_CAP) -> SubgroupRestriction:
    """Restriction of G_aff-characters to H, in the chosen bases.

    ``x_gaff`` is the basis of X(G_aff) from :func:`derived_attributes`.
    q maps X(G_aff) into X(H) = X(T_H)^K because group characters are
    Weyl-fixed and kill all coroots; integrality of the change of basis is
    asserted.
    """
    x_h = subgroup_characters(gd, hd, cap)
    images = coordinates(x_h, map(hd.q_matrix.apply, x_gaff.rows))
    assert images is not None, "restriction of a group character escaped X(H)"
    return SubgroupRestriction(x_gaff, x_h, images.transpose(), restriction_kernel(hd, x_gaff))
