"""
Structure tests: Albanese splitting, affinization, covers, completeness
=======================================================================

Each verdict comes with the criterion that decided it and a witness, so
the output reads as a short proof sketch.
"""

from chevalley_chow.formats import parse_descriptor
from chevalley_chow.rootdata import affine_picard_group
from chevalley_chow.structure import (
    affinization_test,
    albanese_split_test,
    completeness_test,
    construct_cover,
    fibration_report,
    phi_local_triviality_test,
)


def load(path):
    return parse_descriptor(open(path, "rb").read())


# a semiabelian variety: torus glued to an elliptic curve along X(D) = Z
semi = load("fixtures/semiabelian.json")
print("--", semi.group.name)
print("albanese split:", albanese_split_test(semi.group))
aff = affinization_test(semi.group)
print("affinization locally trivial:", aff.locally_trivial.answer,
      " trivial:", aff.trivial.answer)

# quotients by subgroups fiber through the anti-affine part
for name in ("trivial", "gaff", "ant"):
    f = fibration_report(semi.group, semi.subgroup(name))
    print(f"G/{name}: torsor dim {f.torsor_dim},",
          f"translation index bound {f.translation_index_bound}")

# PGL2 x E is not factorial; its cover replaces PGL2 by SL2
pgl = load("fixtures/product_pgl2.json")
print("--", pgl.group.name)
print("Pic of affine part:", affine_picard_group(pgl.group.rd).describe())
cover = construct_cover(pgl.group)
print("cover:", cover.name, "->",
      affine_picard_group(cover.rd).describe(), "affine Pic")
print("cover affinization trivial:",
      affinization_test(cover).trivial.answer)

# completeness of G/H: needs a parabolic on the affine side and the
# anti-affine flags on H
prod = load("fixtures/product_sl2.json")
print("--", prod.group.name)
for name in ("borel", "torus", "full_aff", "full_aff_ant"):
    v = completeness_test(prod.group, prod.subgroup(name))
    print(f"G/{name} complete: {v.answer}  ({v.criterion})")

# local triviality of the affinization torsor over G/H
for name in ("borel", "nlt"):
    v = phi_local_triviality_test(prod.group, prod.subgroup(name))
    print(f"phi locally trivial over G/{name}: {v.answer}")
