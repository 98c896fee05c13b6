"""Picard, Neron-Severi, and Chow reports for groups and homogeneous spaces.

Every Picard-type answer splits as (finitely generated part, formal part).
The finitely generated part is exact.  The formal part is Pic0 of the
abelian variety A modulo the image of a character lattice; Pic0(A) itself
is never enumerated, only the modded-out data is reported.

Chow rings are reported as a concrete graded factor (symmetric algebra
data over Q, truncated at a requested degree) times a symbolic factor
A*(A_g), plus the degree-1 ideal generators tying the two together.  The
concrete factor is S^K/(S^W_+).  Where S^K is free over S^W its dims are the
series :func:`~chevalley_chow.invariants.free_quotient` reads off K's and W's
degrees: for G (K = 1, as A*(G/B)_Q = A*(G/T)_Q; Q in degree 0 rationally)
and for G/H with H of full rank (q unimodular) and K trivial or a recognized
Weyl group.  Every other H eliminates the restricted Weyl invariants degree
by degree, the one route that builds slices.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import Record
from .descriptors import (
    DEFAULT_CAP,
    AttributeReport,
    GroupDescriptor,
    SubgroupDescriptor,
    _component_action,
    _connected_character_lattice,
    contains_nontrivial_ant,
    derived_attributes,
    descended_coroot,
    restriction_to_subgroup,
)
from .errors import DegreeTooLarge, ModeUnsupported
from .invariants import (
    DEGREE_BUDGET,
    SLICE_BUDGET,
    TruncatedQuotient,
    free_quotient,
    substitute,
    truncated_quotient,
)
from .lattice import (
    FGAbelianGroup,
    IntMatrix,
    Presentation,
    group_from_relations,
    hermite_row_basis,
    intersect_rows,
    is_unimodular,
    vstack,
)
from .qlinalg import SpanBuilder
from .rootdata import (
    _weyl_order, affine_picard_group, invariant_degrees, matrix_group_order, reflection, root_system,
    validate_root_datum)
from .schubert import SchubertExpansion, coinvariant_ideal_generators


class FormalPicardZero(Record):
    """Pic0(A_g) divided by the image of a finitely generated group."""

    g: int
    quotient_by: FGAbelianGroup

    def describe(self) -> str:
        base = f"Pic0(A_{self.g})"
        ngen = self.quotient_by.rank + len(self.quotient_by.torsion)
        if ngen == 0:
            return base
        return f"{base} / <{ngen} generators, {self.quotient_by.describe()}>"

    def to_json(self) -> dict:
        return {"formal": "Pic0", "g": self.g, "mod": self.quotient_by}


class PicardSequence(Record):
    """The five-term picture 0 -> X(G) -> X(G_aff) -> Pic(A) -> Pic(G) -> Pic(G_aff) -> 0.

    Everything is in coordinates: X(G) and X(G_aff) as row bases inside
    X(T), and the middle map as a matrix into X(D)/ker(sigma_A), through
    which the characteristic map to Pic(A) factors faithfully.
    """

    x_g: IntMatrix
    x_g_group: FGAbelianGroup
    x_gaff: IntMatrix
    gamma_matrix: IntMatrix
    gamma_target: Presentation
    pic_gaff: FGAbelianGroup


class PicardReport(Record):
    ns: FGAbelianGroup
    pic0: FormalPicardZero
    presentation: PicardSequence

    def to_json(self) -> dict:
        return {"type": "picard", "ns": self.ns, "pic0": self.pic0, "sequence": self.presentation}


def picard_group(gd: GroupDescriptor) -> PicardReport:
    """Pic(G) split into NS(G) = NS(A) + Pic(G_aff) and a formal Pic0 part.

    The sequence data carries X(G) = ker(gamma_A) as a sublattice of X(T).
    """
    att = derived_attributes(gd)
    pic_gaff = affine_picard_group(gd.rd)
    ns = gd.av.ns.direct_sum(pic_gaff)
    pic0 = FormalPicardZero(gd.av.g, att.im_gamma)
    seq = PicardSequence(
        x_g=att.ker_gamma,
        x_g_group=FGAbelianGroup(att.ker_gamma.nrows),
        x_gaff=att.x_gaff,
        gamma_matrix=att.u,
        gamma_target=gd.gluing.sigma_quotient(),
        pic_gaff=pic_gaff,
    )
    return PicardReport(ns, pic0, seq)


def ns_group(gd: GroupDescriptor) -> FGAbelianGroup:
    """NS(G) = NS(A) + Pic(G_aff), in canonical invariant-factor form."""
    return gd.av.ns.direct_sum(affine_picard_group(gd.rd))


class GradedPresentation(Record):
    """A graded ring presented as (concrete factor) x A*(A_g) / ideal.

    ``ideal_degree1`` pairs each degree-1 ideal generator's formal
    component (a vector in the X(D)/ker sigma_A coordinates, mapping into
    Pic0(A)) with its concrete component as a codegree-1 Schubert class
    expansion.  ``degree1_concrete`` is the integral cokernel of the
    concrete components, i.e. the concrete contribution to degree 1 of the
    quotient.  In rational mode ``degree_bound`` is the degree above which
    all classes vanish and ``j_rank`` counts independent formal generators.
    """

    mode: str
    concrete_factor: TruncatedQuotient
    abelian_g: int
    ideal_degree1: tuple[tuple[tuple[int, ...], SchubertExpansion], ...]
    degree1_concrete: FGAbelianGroup
    degree_bound: int | None = None
    j_rank: int | None = None

    def abelian_factor(self) -> str:
        tag = "_Q" if self.mode == "rational" else ""
        return f"A*(A_{self.abelian_g}){tag}"

    def to_json(self) -> dict:
        out = {
            "type": "chow",
            "mode": self.mode,
            "abelian_factor": self.abelian_factor(),
            "concrete_factor": self.concrete_factor,
            "ideal_degree1": [{"formal": vec, "schubert": exp} for vec, exp in self.ideal_degree1],
            "degree1_concrete": self.degree1_concrete,
        }
        if self.degree_bound is not None:
            out["degree_bound"] = self.degree_bound
        if self.j_rank is not None:
            out["j_rank"] = self.j_rank
        return out


def _check_degree(max_degree: int) -> None:
    if max_degree < 0:
        raise ValueError(f"max_degree must be nonnegative, got {max_degree}")
    if max_degree > DEGREE_BUDGET:
        raise DegreeTooLarge(f"max_degree {max_degree} exceeds budget {DEGREE_BUDGET}")


def _check_slice(rank: int, max_degree: int) -> None:
    """Refuse a quotient whose largest slice, C(rank + d - 1, d) at d = max_degree, passes the budget."""
    size = math.comb(rank + max_degree - 1, max_degree) if rank else 1
    if size > SLICE_BUDGET:
        raise DegreeTooLarge(f"degree-{max_degree} slice in {rank} variables has dimension {size}, "
                             f"which exceeds budget {SLICE_BUDGET}")


def chow_presentation(gd: GroupDescriptor, max_degree: int, cap: int = DEFAULT_CAP) -> GradedPresentation:
    """Integral presentation data for A*(G).

    Concrete factor: the Schubert-basis ring of the flag variety of G_aff
    (symmetric algebra modulo positive-degree Weyl invariants), whose degree-d
    dimension is #{w in W : length(w) = d} (Chevalley: sum_w q^length(w)).
    The ideal is generated in degree 1 by, for each basis character e_k of
    X(T), the pair (class of v(e_k) in X(D)/ker sigma_A, divisor Schubert
    expansion).  No W is enumerated: |W| past ``cap`` is refused by formula,
    the dims are the series of W's degrees (``free_quotient``), and the
    divisor is the sum of <e_k, alpha_i^vee> sigma_{s_i}, s_i at index i + 1.
    """
    _check_degree(max_degree)
    rd = gd.rd
    _weyl_order(rd, cap)
    concrete = free_quotient(rd.rank, (1,) * rd.rank, validate_root_datum(rd).degrees, max_degree)
    pairs = []
    for k in range(rd.rank):
        formal = gd.gluing.v_matrix.column(k)
        terms = {i + 1: Fraction(c) for i, coroot in enumerate(rd.simple_coroots.rows) if (c := coroot[k])}
        pairs.append((formal, SchubertExpansion(1, terms)))
    return GradedPresentation(
        mode="integral",
        concrete_factor=concrete,
        abelian_g=gd.av.g,
        ideal_degree1=tuple(pairs),
        degree1_concrete=affine_picard_group(rd),
    )


def _independent_formal_generators(gd: GroupDescriptor, att: AttributeReport):
    """Characters of G_aff whose images form a Q-basis of im(gamma_A)."""
    glue = gd.gluing
    sb = SpanBuilder(glue.xd.ngens)
    for row in glue.sigma_quotient().relations.rows:
        sb.add(row)
    kept = []
    for chi in att.x_gaff.rows:
        if sb.add(glue.v_matrix.apply(chi)):
            kept.append((chi, glue.v_matrix.apply(chi)))
    assert len(kept) == att.rank_im_gamma, "independent generator count must match rank"
    return kept


def rational_chow(gd: GroupDescriptor, max_degree: int) -> GradedPresentation:
    """A*(G)_Q = A*(A_g)_Q modulo the degree-1 ideal J from gamma_A.

    The concrete factor collapses to Q in degree 0, dims (1, 0, ..., 0): the
    classes c1(L_chi) generate A*(G/B)_Q and all die in A*(G)_Q.  All classes
    vanish above degree g.  J is generated by rank(im gamma_A) formal classes.
    """
    _check_degree(max_degree)
    att = derived_attributes(gd)
    concrete = free_quotient(gd.rd.rank, (1,) * gd.rd.rank, (1,) * gd.rd.rank, max_degree)
    pairs = tuple(
        (vec, SchubertExpansion(1, {}))
        for _, vec in _independent_formal_generators(gd, att)
    )
    return GradedPresentation(
        mode="rational",
        concrete_factor=concrete,
        abelian_g=gd.av.g,
        ideal_degree1=pairs,
        degree1_concrete=FGAbelianGroup(0),
        degree_bound=gd.av.g,
        j_rank=att.rank_im_gamma,
    )


# ---------------------------------------------------------------------------
# Homogeneous spaces G/H
# ---------------------------------------------------------------------------


def _subgroup_reflections(gd: GroupDescriptor, hd: SubgroupDescriptor):
    """Reflections of the symmetric subgroup roots, acting on X(T_H)."""
    rs = root_system(gd.rd)
    return tuple(
        reflection(hd.q_matrix.apply(rs.positive[i].vector), descended_coroot(gd, hd, i))
        for i in hd.symmetric_root_indices()
    )


def homogeneous_rational_chow(gd: GroupDescriptor, hd: SubgroupDescriptor,
                              max_degree: int, cap: int = DEFAULT_CAP) -> GradedPresentation:
    """A*(G/H)_Q as (invariant algebra of X(T_H) mod restricted invariants) x A*(A)_Q / J.

    The concrete ambient is S^K, the subring of S = Sym X(T_H)_Q invariant
    under K, the group of the reflections of the symmetric subgroup roots
    and the component group; its order is bounded once before any slice
    (``rootdata.matrix_group_order``: :class:`GroupTooLarge` for an infinite
    group or one past ``cap``).  The ideal is generated by the q-restrictions
    of the positive-degree Weyl invariants S^W_+ of G.  J on the abelian
    factor has rank gamma_A(ker r_H), recorded in ``j_rank``.

    There are two routes.  When q is unimodular (H of full rank) and K is
    trivial or a recognized Weyl group
    (:func:`~chevalley_chow.rootdata.invariant_degrees`: the Borel, N(T),
    every Levi and parabolic), q carries K into W, so S^K is a direct
    summand of S, which is free over S^W (Chevalley, *Amer. J. Math.* 77,
    1955): S^K is free over S^W too, and the quotient's Hilbert series is
    prod_j 1/(1 - t^{e_j}) over K's degrees times prod_i (1 - t^{d_i}) over
    the degrees of W, central directions counted with d_i = 1, and j_rank
    is 0, since ker r_H lies in ker q = 0.  This needs every component
    generator to be q-compatible with a Weyl element, as
    ``validate_subgroup`` checks (``component-weyl-compatibility``).  Every
    other H (rank-deficient, or with a K such as a rotation) eliminates the
    ideal degree by degree (:func:`~chevalley_chow.invariants.truncated_quotient`),
    building every slice up to max_degree, so there a largest slice
    C(r + max_degree - 1, max_degree), r = max(rank, h_rank), past
    ``SLICE_BUDGET`` is refused up front (:class:`DegreeTooLarge`).
    """
    _check_degree(max_degree)
    att = derived_attributes(gd)
    if contains_nontrivial_ant(att, hd):
        raise ModeUnsupported("Chow reports for G/H need H inside the faithful model (H does not contain G_ant)")
    if gd.rd.nsimple and max_degree > 0:
        _weyl_order(gd.rd, cap)
    gens = _subgroup_reflections(gd, hd) + hd.component_generators
    degrees = invariant_degrees(gens, cap) if gens else (1,) * hd.h_rank
    if degrees is not None and is_unimodular(hd.q_matrix):
        concrete, j_rank = _free_quotient(gd, hd, degrees, max_degree), 0
    else:
        _check_slice(max(gd.rd.rank, hd.h_rank), max_degree)
        concrete, j_rank = _eliminated_quotient(gd, hd, att, gens, max_degree, cap)
    return GradedPresentation(
        mode="rational",
        concrete_factor=concrete,
        abelian_g=gd.av.g,
        ideal_degree1=(),
        degree1_concrete=FGAbelianGroup(0),
        degree_bound=None,
        j_rank=j_rank,
    )


def _free_quotient(gd: GroupDescriptor, hd: SubgroupDescriptor, degrees, max_degree: int) -> TruncatedQuotient:
    """S^K / (S^W_+) for a full-rank H whose K has invariant ``degrees``,
    read off those and W's degrees, once K is seen to stabilize X(H0)."""
    if hd.component_generators and _component_action(_connected_character_lattice(gd, hd), hd) is None:
        raise ValueError("component group does not stabilize X(H0)")
    return free_quotient(hd.h_rank, degrees, validate_root_datum(gd.rd).degrees, max_degree)


def _eliminated_quotient(gd: GroupDescriptor, hd: SubgroupDescriptor, att: AttributeReport, gens,
                         max_degree: int, cap: int) -> tuple[TruncatedQuotient, int]:
    """S^K modulo the restricted Weyl invariants, eliminated degree by degree,
    and j_rank from ker r_H; valid for any H."""
    ideal = []
    for f in coinvariant_ideal_generators(gd.rd, max_degree, cap):
        rf = substitute(hd.q_matrix, f)
        if rf:
            ideal.append(rf)
    matrix_group_order(gens, cap)  # G/H needs a finite group here, the fixed spaces do not
    concrete = truncated_quotient(hd.h_rank, ideal, max_degree, gens)
    # rank of gamma_A(ker r_H), measured as (ker r_H + ker gamma_A)/ker gamma_A
    ker_r = restriction_to_subgroup(gd, hd, att.x_gaff, cap).ker_r
    return concrete, hermite_row_basis(vstack(ker_r, att.ker_gamma)).nrows - att.ker_gamma.nrows


class HomogeneousPicardReport(Record):
    """Pic(G/H) split into NS(A)-part, character part, and formal Pic0 part.

    ``x_part`` is X(H)/r_H(X(G_aff)); ``x_gh`` is a row basis of
    X(G/H) = ker gamma_A meet ker r_H inside X(T).  ``tail`` is Pic(G_aff),
    toward which the sequence is exact only up to an uncomputed image, and
    is reported only in integral mode.  Rational mode keeps ranks alone.
    """

    mode: str
    ns_part: FGAbelianGroup
    x_part: FGAbelianGroup
    ns: FGAbelianGroup
    pic0: FormalPicardZero
    x_gh: IntMatrix
    x_gh_group: FGAbelianGroup
    tail: FGAbelianGroup

    def to_json(self) -> dict:
        out = {"type": "homogeneous_picard", **super().to_json()}
        out["tail_pic_gaff"] = out.pop("tail")  # the last key, so the order holds
        return out


def homogeneous_picard(gd: GroupDescriptor, hd: SubgroupDescriptor,
                       integral: bool = False, cap: int = DEFAULT_CAP) -> HomogeneousPicardReport:
    """Pic(G/H) report; integral when H sits inside G_aff, else rational.

    By default the strongest available mode is picked; ``integral=True``
    raises ModeUnsupported instead of falling back to rational mode when H
    has translation components or contains a nontrivial G_ant.
    """
    att = derived_attributes(gd)
    ok = not hd.has_translations and not contains_nontrivial_ant(att, hd)
    if integral and not ok:
        raise ModeUnsupported("integral Pic(G/H) needs H inside G_aff (no translations, no G_ant)")
    mode = "integral" if ok else "rational"
    restr = restriction_to_subgroup(gd, hd, att.x_gaff, cap)
    rank_r = restr.x_gaff.nrows - restr.ker_r.nrows
    if mode == "integral":
        ns_part = gd.av.ns
        x_part = group_from_relations(restr.x_h.nrows, restr.matrix.transpose())
        tail = affine_picard_group(gd.rd)
    else:
        ns_part = FGAbelianGroup(gd.av.ns.rank)
        x_part = FGAbelianGroup(restr.x_h.nrows - rank_r)
        tail = FGAbelianGroup(0)
    x_gh = intersect_rows(att.ker_gamma, restr.ker_r)
    return HomogeneousPicardReport(
        mode=mode,
        ns_part=ns_part,
        x_part=x_part,
        ns=ns_part.direct_sum(x_part),
        pic0=FormalPicardZero(gd.av.g, att.im_gamma),
        x_gh=x_gh,
        x_gh_group=FGAbelianGroup(x_gh.nrows),
        tail=tail,
    )


class HomogeneousNSReport(Record):
    group: FGAbelianGroup
    mode: str
    pic0: FormalPicardZero   # Pic0(G/H)_Q is isomorphic to Pic0(G)_Q

    def to_json(self) -> dict:
        return {"type": "homogeneous_ns", "mode": self.mode, "group": self.group, "pic0": self.pic0}


def homogeneous_ns(gd: GroupDescriptor, hd: SubgroupDescriptor, cap: int = DEFAULT_CAP) -> HomogeneousNSReport:
    """NS(G/H): integral NS(A) + X(H)/r_H(X(G_aff)) when H is inside a
    factorial G_aff, otherwise the rational ranks of the same two parts."""
    return ns_of_picard(homogeneous_picard(gd, hd, cap=cap))


def ns_of_picard(pic: HomogeneousPicardReport) -> HomogeneousNSReport:
    """NS(G/H) read off a Pic(G/H) report from :func:`homogeneous_picard`.

    G_aff is factorial when Pic(G_aff), the integral report's ``tail``, is trivial.
    """
    if pic.mode == "integral" and pic.tail.is_trivial:
        return HomogeneousNSReport(pic.ns, "integral", pic.pic0)
    rank = pic.ns_part.rank + pic.x_part.rank
    return HomogeneousNSReport(FGAbelianGroup(rank), "rational", pic.pic0)
