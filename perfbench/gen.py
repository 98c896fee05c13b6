"""Seeded benchmark inputs: root data and descriptor documents.

Stdlib only and independent of the package under test: the program sees
nothing but the descriptor bytes and call arguments built here.

A datum is named by its Cartan type (``"A5"``, ``"F4"``, ...).  Its
isogeny form is ``"sc"`` (X(T) = weight lattice) or ``"adj"`` (X(T) = root
lattice), and its coordinates on X(T) are moved by a seeded unimodular
change of basis of fixed depth.
"""

from __future__ import annotations

import json
import random

# Bourbaki numbering, 0-based.  C[i][j] = <alpha_i, alpha_j^vee>.


def cartan(name: str) -> list[list[int]]:
    letter, n = name[0], int(name[1:])
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i, j, cij=-1, cji=-1):
        c[i][j], c[j][i] = cij, cji

    if letter in "ABCD":
        for i in range(n - 2 if letter == "D" else n - 1):
            bond(i, i + 1)
        if letter == "B":
            bond(n - 2, n - 1, -2, -1)   # alpha_n short
        elif letter == "C":
            bond(n - 2, n - 1, -1, -2)   # alpha_n long
        elif letter == "D":
            bond(n - 3, n - 1)
    elif name == "G2":
        bond(0, 1, -1, -3)               # alpha_1 short
    elif name == "F4":
        bond(0, 1)
        bond(1, 2, -2, -1)
        bond(2, 3)
    elif name == "E6":
        for i, j in ((0, 2), (2, 3), (3, 4), (4, 5), (1, 3)):
            bond(i, j)
    else:
        raise ValueError(f"no Cartan matrix for {name}")
    return c


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def unimodular(n: int, depth: int, rng: random.Random):
    """A seeded unimodular matrix of fixed shape, and its inverse.

    A fixed chain of ``depth`` transvections E_{k,k+1}(1) followed by seeded
    signs on the coordinates.  The seed changes the descriptor bytes but
    not the size of the arithmetic: on a 2-vCPU Xeon VM, seeded permutations
    or transvection positions changed the cost of the cold A4 Schubert
    caches by up to 2x (3.1 s to 6.8 s).
    """
    m, minv = _identity(n), _identity(n)
    for k in range(depth if n > 1 else 0):
        i, j = k % (n - 1), k % (n - 1) + 1
        # m <- m E_ij(1); minv <- E_ij(-1) minv
        for row in m:
            row[j] += row[i]
        minv[i] = [x - y for x, y in zip(minv[i], minv[j])]
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    # m <- m S, minv <- S minv, with S = S^-1 diagonal
    return ([[x * signs[c] for c, x in enumerate(row)] for row in m],
            [[x * signs[r] for x in row] for r, row in enumerate(minv)])


def root_datum(name: str, form: str, depth: int, rng: random.Random) -> dict:
    """Simple roots and coroots as rows in seeded X(T) coordinates."""
    c = cartan(name)
    n = len(c)
    if form == "sc":
        roots, coroots = [row[:] for row in c], _identity(n)
    elif form == "adj":
        roots, coroots = _identity(n), [list(col) for col in zip(*c)]
    else:
        raise ValueError(form)
    m, minv = unimodular(n, depth, rng)
    # characters chi -> chi m, cocharacters y -> y minv^T keep every pairing
    roots = _matmul(roots, m)
    coroots = _matmul(coroots, [list(col) for col in zip(*minv)])
    return {"rank": n, "simple_roots": roots, "simple_coroots": coroots}


def reflection(rd: dict, i: int) -> list[list[int]]:
    """s_i on X(T) for the column action: x - <x, alpha_i^vee> alpha_i."""
    a, cv, n = rd["simple_roots"][i], rd["simple_coroots"][i], rd["rank"]
    return [[(1 if r == s else 0) - a[r] * cv[s] for s in range(n)] for r in range(n)]


def descriptor(name: str, rd: dict, npos: int, extra_subgroups=None) -> bytes:
    """Affine group (g = 0) with a Borel subgroup and the normalizer N(T).

    N(T) is the maximal torus with component group W, given by the
    simple reflections.
    """
    n = rd["rank"]
    ident = _identity(n)
    subgroups = {
        "borel": {"q": ident, "roots": [[i, 1] for i in range(npos)],
                  "ant_contains_gantaff": True},
        "normalizer": {"q": ident, "component_group": {
            "generators": [reflection(rd, i) for i in range(n)],
            "translations": [False] * n}},
    }
    subgroups.update(extra_subgroups or {})
    doc = {
        "group": {
            "name": name,
            "root_datum": rd,
            "abelian": {"g": 0, "ns_rank": 0},
            "gluing": {"xd_rank": 0, "v": []},
        },
        "subgroups": subgroups,
    }
    return json.dumps(doc).encode()
