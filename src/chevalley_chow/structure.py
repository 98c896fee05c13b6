"""Structural verdicts: splitting, triviality, covers, fibrations, completeness.

Each test certifies a lattice-level criterion that is necessary and
sufficient for the geometric property in the intended model; no geometry
is ever constructed.  Answers are Verdict records naming the criterion
applied, with a witness whenever one exists.
"""

from __future__ import annotations

from ._record import Record
from .descriptors import (
    DEFAULT_CAP,
    AntiAffineGluing,
    GroupDescriptor,
    SubgroupDescriptor,
    contains_nontrivial_ant,
    derived_attributes,
)
from .lattice import (
    FGAbelianGroup,
    IntMatrix,
    Presentation,
    coordinates,
    hermite_row_basis,
    integer_kernel,
    intersect_rows,
    is_unimodular,
    saturate_rows,
)
from .rootdata import (
    contains_borel,
    factorial_cover_with_basis,
    matrix_group_order,
    root_system,
    validate_root_datum,
)


class Verdict(Record):
    answer: str                      # "yes" | "no" | "unknown"
    criterion: str
    witness: object = None

    def __post_init__(self):
        if self.answer not in ("yes", "no", "unknown"):
            raise ValueError("answer must be yes, no, or unknown")

    def to_json(self) -> dict:
        out = super().to_json()
        if self.witness is None:
            del out["witness"]
        return out


def albanese_split_test(gd: GroupDescriptor) -> Verdict:
    """Does G -> A split, i.e. is G = A x G_aff?

    Splitting is equivalent to D = G_aff meet G_ant being trivial.  The
    Albanese fibration itself is always Zariski-locally trivial; that fact
    is recorded in the witness rather than recomputed.
    """
    att = derived_attributes(gd)
    split = att.xd_group.is_trivial and gd.gluing.unipotent_dim == 0
    witness = {"albanese_locally_trivial": "yes"}
    if split:
        witness["factors"] = (f"A_{gd.av.g}", validate_root_datum(gd.rd).describe())
        return Verdict("yes", "D = G_aff meet G_ant is trivial, so the extension splits", witness)
    return Verdict("no", f"D is nontrivial (X(D) = {att.xd_group.describe()}, "
                         f"unipotent dim {gd.gluing.unipotent_dim})", witness)


class AffinizationReport(Record):
    locally_trivial: Verdict
    trivial: Verdict


def affinization_test(gd: GroupDescriptor) -> AffinizationReport:
    """Is the G_ant-torsor G -> Aff(G) (Zariski-locally) trivial?

    Locally trivial iff D is smooth and connected, i.e. X(D) torsion-free
    (plus, away from characteristic 0, no unipotent part).  Trivial iff in
    addition every character of D extends to G_aff, i.e. u is onto X(D).
    """
    att = derived_attributes(gd)
    if att.d_smooth_connected:
        lt = Verdict("yes", "X(D) is torsion-free, so D is smooth and connected",
                     {"xd": att.xd_group.describe()})
    else:
        lt = Verdict("no", f"D is not smooth and connected (X(D) = {att.xd_group.describe()})")
    if lt.answer == "yes" and gd.gluing.xd.cokernel(att.u).is_trivial:
        tv = Verdict("yes", "D is smooth connected and every character of D extends to G_aff",
                     {"u_surjective": "yes"})
    elif lt.answer == "yes":
        tv = Verdict("no", "a character of D does not extend to G_aff (u is not onto X(D))")
    else:
        tv = Verdict("no", "not even locally trivial: D is not smooth and connected")
    return AffinizationReport(lt, tv)


def construct_cover(gd: GroupDescriptor) -> GroupDescriptor:
    """The quasi-complete cover: factorial affine part, smooth connected D.

    Enlarges X(T) by the weight lattice and replaces X(D) by the image of
    the enlarged lattice under the rational extension of v, with torsion
    discarded.  The output always has a trivial affinization torsor and a
    factorial affine part; applying the construction twice changes nothing.
    """
    rd2, basis_num, denom = factorial_cover_with_basis(gd.rd)
    glue = gd.gluing
    # rows span the annihilator of the relations, so the kernel of this
    # surjection onto Z^f is the saturated relation lattice: X(D) mod torsion
    proj = integer_kernel(glue.xd.relations)
    f = proj.nrows
    # images of the new basis vectors, scaled by denom to stay integral
    scaled_images = [proj.apply(glue.v_matrix.apply(row)) for row in basis_num.rows]
    lattice = hermite_row_basis(IntMatrix(scaled_images, f))
    r = lattice.nrows
    images = coordinates(lattice, scaled_images)
    assert images is not None, "image must lie in the lattice it generates"
    v2 = images.transpose()
    if glue.sigma_kernel_gens.nrows and r:
        pushed = IntMatrix([proj.apply(k) for k in glue.sigma_kernel_gens.rows], f)
        sat = saturate_rows(pushed)
        meet = intersect_rows(lattice, sat) if sat.nrows else IntMatrix((), f)
        ker2 = coordinates(lattice, meet.rows)
    else:
        ker2 = IntMatrix((), r)
    glue2 = AntiAffineGluing(Presentation.free(r), v2, ker2, glue.unipotent_dim, glue.char)
    if rd2 == gd.rd and glue2 == glue:
        return gd
    return GroupDescriptor(f"{gd.name}-cover", rd2, gd.av, glue2)


class FibrationReport(Record):
    """The G/H -> A/image fibration: its torsor group and automorphism data.

    phi: G/H -> quotient abelian variety is a torsor under K = G_aff H meet
    G_ant.  K contains (G_ant)_aff with finite index; the bound multiplies
    the X(D)-torsion order by the index of the normal closure of the
    non-translating component generators.  dim_aut_ant is the dimension of
    the anti-affine automorphism group G_ant/(G_ant meet H).
    """

    torsor_dim: int
    torsor_xd: FGAbelianGroup
    torsor_unipotent_dim: int
    translation_index_bound: int | None
    index_bound_over_gant_aff: int | None
    dim_aut_ant: int
    note: str = ""

    def to_json(self) -> dict:
        return {"type": "fibration", **super().to_json()}


def _matrix_inverse(m: IntMatrix) -> IntMatrix:
    # m is unimodular: the coordinates of the unit vectors over its columns
    # are the columns of its inverse
    return coordinates(m.transpose(), IntMatrix.identity(m.nrows).rows).transpose()


def _translation_index_bound(hd: SubgroupDescriptor, cap: int) -> int:
    """Bound on the order of the image of H in A: the index in H/H0 of the
    normal closure N of the generators that do not translate.

    Those generators, closed under conjugation by each component generator,
    hold their conjugates by every element (each element is a product of
    generators), so they generate N; both orders come from
    :func:`matrix_group_order`, |H/H0| first, with its refusals."""
    if not any(hd.translations):
        return 1
    gens = hd.component_generators
    order = matrix_group_order(gens, cap)
    pairs = [(g, _matrix_inverse(g)) for g in gens]
    closed = list(dict.fromkeys(u for u, t in zip(gens, hd.translations) if not t))
    seen = set(closed)
    for u in closed:  # the list grows as new conjugates are found
        for g, g_inv in pairs:
            if (c := g @ u @ g_inv) not in seen:
                seen.add(c)
                closed.append(c)
    return order // matrix_group_order(closed, cap)


def fibration_report(gd: GroupDescriptor, hd: SubgroupDescriptor, cap: int = DEFAULT_CAP) -> FibrationReport:
    att = derived_attributes(gd)
    if contains_nontrivial_ant(att, hd):
        return FibrationReport(
            torsor_dim=att.dim_G_ant,
            torsor_xd=att.xd_group,
            torsor_unipotent_dim=gd.gluing.unipotent_dim,
            translation_index_bound=None,
            index_bound_over_gant_aff=None,
            dim_aut_ant=0,
            note="H contains G_ant: the torsor group is G_ant itself and has "
                 "positive-dimensional quotient over (G_ant)_aff",
        )
    tbound = _translation_index_bound(hd, cap)
    return FibrationReport(
        torsor_dim=att.dim_D,
        torsor_xd=att.xd_group,
        torsor_unipotent_dim=gd.gluing.unipotent_dim,
        translation_index_bound=tbound,
        index_bound_over_gant_aff=att.xd_group.torsion_order() * tbound,
        dim_aut_ant=att.dim_G_ant,
        note="torsor group contains D with quotient the (finite) image of H in A",
    )


def phi_local_triviality_test(gd: GroupDescriptor, hd: SubgroupDescriptor) -> Verdict:
    """Is phi: G/H -> A(G/H) Zariski-locally trivial?

    Criterion: D = (G_ant)_aff (X(D) torsion-free) and H lies inside G_aff
    (no translating components).  The hypothesis needs the faithful model,
    so H containing a nontrivial G_ant answers no by failed hypothesis.
    """
    att = derived_attributes(gd)
    if contains_nontrivial_ant(att, hd):
        return Verdict("no", "criterion requires the faithful model; H contains G_ant")
    torsion_free = not att.xd_group.torsion
    inside = not hd.has_translations
    if torsion_free and inside:
        return Verdict("yes", "X(D) is torsion-free (D = (G_ant)_aff) and H lies in G_aff",
                       {"pi_x_locally_trivial": "yes"})
    reasons = []
    if not torsion_free:
        reasons.append(f"X(D) has torsion ({att.xd_group.describe()})")
    if not inside:
        reasons.append("H has components translating A, so H is not inside G_aff")
    return Verdict("no", "; ".join(reasons))


def _parabolic_witness(gd: GroupDescriptor, hd: SubgroupDescriptor, word, m: IntMatrix):
    rs = root_system(gd.rd)
    roots_h = set(hd.root_vectors(gd.rd))
    # alpha_i is a Levi simple root when H also holds the opposite root m(-alpha_i)
    levi = tuple(
        i for i, a in enumerate(gd.rd.simple_roots.rows)
        if m.apply(tuple(-x for x in a)) in roots_h
    )
    inside_levi = sum(
        1 for r in rs.positive
        if all(c == 0 for j, c in enumerate(r.coords) if j not in levi)
    )
    return {
        "weyl_word": word,
        "levi_simples": levi,
        "flag_factor_dim": len(rs.positive) - inside_levi,
        "abelian_factor_dim": gd.av.g,
    }


def completeness_test(gd: GroupDescriptor, hd: SubgroupDescriptor, cap: int = DEFAULT_CAP) -> Verdict:
    """Is G/H complete?

    Criterion: H meet G_aff contains a Borel subgroup of G_aff (some Weyl
    translate of the positive system lies in the subgroup roots, with the
    full torus) and H meet G_ant contains (G_ant)_aff.  A yes comes with
    the product decomposition: abelian factor of dimension g and a flag
    factor with its parabolic type.
    """
    q = hd.q_matrix
    q_full = q.ncols == gd.rd.rank and is_unimodular(q)
    # a torus that is a proper quotient holds no Borel subgroup: nothing is walked
    witness = contains_borel(gd.rd, hd.root_vectors(gd.rd), cap=cap) if q_full else None
    if witness is not None and hd.ant_contains_gantaff:
        return Verdict("yes", "H meet G_aff contains a Borel subgroup and "
                              "H meet G_ant contains (G_ant)_aff",
                       _parabolic_witness(gd, hd, *witness[1:]))
    reasons = []
    if witness is None:
        reasons.append("no Weyl translate of the positive system lies in the subgroup roots"
                       if q_full else "the torus of H is a proper quotient, so H contains no Borel subgroup")
    if not hd.ant_contains_gantaff:
        reasons.append("H meet G_ant does not contain (G_ant)_aff")
    return Verdict("no", "; ".join(reasons))


def affine_test(gd: GroupDescriptor, hd: SubgroupDescriptor) -> Verdict:
    """Is G/H affine?  Yes iff H contains G_ant and H meet G_aff is reductive.

    Reductivity of the model: all subgroup roots come in opposite pairs and
    there is no extra unipotent dimension.  The reductive-isotropy
    criterion is classical input, used only in characteristic 0; elsewhere
    the answer is unknown.  Quasi-affineness is answered only when the
    affine test already says yes.
    """
    att = derived_attributes(gd)
    contains = hd.contains_G_ant or att.dim_G_ant == 0
    sym = set(hd.symmetric_root_indices())
    reductive = all(i in sym for i, _ in hd.roots) and hd.extra_unipotent_dim == 0
    if gd.gluing.char != 0:
        return Verdict("unknown", "reductive-isotropy criterion applied only in characteristic 0",
                       {"quasi_affine": "unknown"})
    if contains and reductive:
        return Verdict("yes", "H contains G_ant and H meet G_aff is reductive",
                       {"quasi_affine": "yes"})
    reasons = []
    if not contains:
        reasons.append("H does not contain G_ant")
    if not reductive:
        reasons.append("H meet G_aff is not reductive (asymmetric roots or extra unipotent part)")
    return Verdict("no", "; ".join(reasons), {"quasi_affine": "unknown"})
