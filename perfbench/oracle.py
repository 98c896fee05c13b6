"""Expected answers that do not come from the package under test.

Classical tables (degrees of the basic invariants, fundamental groups) and
a separate Schubert calculus: the Weyl group is enumerated here from the
Cartan matrix alone, and products of Schubert classes are computed from
the Chevalley formula by writing each class as a polynomial in divisors.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from gen import cartan

#: degrees of the basic W-invariants (Humphreys, Reflection Groups, 3.7)
DEGREES = {
    "A": lambda n: list(range(2, n + 2)),
    "B": lambda n: list(range(2, 2 * n + 1, 2)),
    "C": lambda n: list(range(2, 2 * n + 1, 2)),
    "D": lambda n: sorted(list(range(2, 2 * n - 1, 2)) + [n]),
    "G": lambda n: [2, 6],
    "F": lambda n: [2, 6, 8, 12],
    "E": lambda n: {6: [2, 5, 6, 8, 9, 12]}[n],
}

#: invariant factors of pi_1 of the adjoint group = weight / root lattice
ADJOINT_PI1 = {
    "A": lambda n: [n + 1],
    "B": lambda n: [2],
    "C": lambda n: [2],
    "D": lambda n: [2, 2] if n % 2 == 0 else [4],
    "G": lambda n: [],
    "F": lambda n: [],
    "E": lambda n: {6: [3]}[n],
}


def degrees(name: str) -> list[int]:
    return DEGREES[name[0]](int(name[1:]))


def weyl_order(name: str) -> int:
    return prod(degrees(name))


def positive_roots(name: str) -> int:
    return sum(d - 1 for d in degrees(name))


def pi1(name: str, form: str) -> list[int]:
    """Torsion of Pic(G_aff) = Z/pi_1 in invariant-factor form."""
    return [] if form == "sc" else ADJOINT_PI1[name[0]](int(name[1:]))


def coinvariant_dims(name: str, max_degree: int) -> list[int]:
    """Coefficients of prod_i (1 - q^d_i)/(1 - q), degrees 0..max_degree."""
    series = [1] + [0] * max_degree
    for d in degrees(name):
        # multiply by 1 + q + ... + q^(d-1)
        series = [sum(series[k - j] for j in range(d) if k - j >= 0)
                  for k in range(max_degree + 1)]
    return series


# ---------------------------------------------------------------------------
# Schubert calculus from the Chevalley formula
# ---------------------------------------------------------------------------


class Schubert:
    """Weyl group of a Cartan type in the package's index contract.

    Elements are listed breadth-first from the identity, multiplying on the
    right by s_0, s_1, ... in turn and keeping the first discovery; a Weyl
    element is stored as its matrix on the basis of fundamental weights.
    """

    def __init__(self, name: str):
        c = cartan(name)
        n = self.rank = len(c)
        # s_i on fundamental-weight coordinates: lam -> lam - lam_i alpha_i,
        # with alpha_i = row i of the Cartan matrix
        gens = []
        for i in range(n):
            gens.append(tuple(
                tuple((1 if r == s else 0) - (c[i][r] if s == i else 0) for s in range(n))
                for r in range(n)))
        ident = tuple(tuple(1 if r == s else 0 for s in range(n)) for r in range(n))
        self.elements, self.lengths, index = [ident], [0], {ident: 0}
        frontier = [0]
        while frontier:
            nxt = []
            for pos in frontier:
                for g in gens:
                    m = _mul(self.elements[pos], g)
                    if m not in index:
                        index[m] = len(self.elements)
                        self.elements.append(m)
                        self.lengths.append(self.lengths[pos] + 1)
                        nxt.append(index[m])
            frontier = nxt
        self.index = index
        self.order = len(self.elements)
        # positive roots in simple-root coordinates, with their coroots in
        # simple-coroot coordinates, by reflecting the simple ones
        self.roots = _positive_roots(c)
        # reflection s_beta on weight coordinates: lam -> lam - <lam, beta^vee> beta
        self.reflections = []
        for beta, cov in self.roots:
            beta_w = [sum(beta[i] * c[i][s] for i in range(n)) for s in range(n)]
            self.reflections.append(tuple(
                tuple((1 if r == s else 0) - beta_w[r] * cov[s] for s in range(n))
                for r in range(n)))
        self._cover = {}
        self._words = {0: [((), {0: Fraction(1)})]}
        self._chev = {}

    def chevalley(self, lam, w: int) -> dict[int, int]:
        """c_1(L_lam) . sigma_w, for lam in fundamental-weight coordinates."""
        out: dict[int, int] = {}
        for (_, cov), refl in zip(self.roots, self.reflections):
            v = self.index[_mul(self.elements[w], refl)]
            if self.lengths[v] != self.lengths[w] + 1:
                continue
            coeff = sum(a * b for a, b in zip(lam, cov))
            if coeff:
                out[v] = out.get(v, 0) + coeff
        return {k: x for k, x in out.items() if x}

    def _divisor(self, i: int, vec: dict) -> dict:
        """D_i . vec, where D_i = c_1(L_{varpi_i}) is the divisor sigma_{s_i}."""
        out: dict[int, Fraction] = {}
        for w, a in vec.items():
            key = (i, w)
            if key not in self._chev:
                lam = tuple(1 if j == i else 0 for j in range(self.rank))
                self._chev[key] = self.chevalley(lam, w)
            for v, b in self._chev[key].items():
                out[v] = out.get(v, 0) + a * b
        return {k: x for k, x in out.items() if x}

    def _divisor_words(self, k: int):
        """Nondecreasing words in the divisors, with their images of the unit."""
        if k not in self._words:
            self._words[k] = [(wd + (i,), self._divisor(i, vec))
                              for wd, vec in self._divisor_words(k - 1)
                              for i in range(wd[-1] if wd else 0, self.rank)]
        return self._words[k]

    def _as_divisor_polynomial(self, v: int):
        """sigma_v = f(D_0, ..., D_{r-1}) . 1, with f given on divisor words.

        Products of divisors span each degree of the rational Chow ring, so
        sigma_v is a rational combination of words D_{i1} ... D_{ik} applied
        to the unit class; the combination is found by exact elimination.
        """
        if v in self._cover:
            return self._cover[v]
        k = self.lengths[v]
        words = self._divisor_words(k)
        targets = sorted(x for x in range(self.order) if self.lengths[x] == k)
        rows = [[vec.get(t, 0) for _, vec in words] for t in targets]
        sol = _solve(rows, [1 if t == v else 0 for t in targets])
        poly = [(wd, c) for (wd, _), c in zip(words, sol) if c]
        self._cover[v] = poly
        return poly

    def product(self, u: int, v: int) -> dict[int, int]:
        """sigma_u . sigma_v in the Schubert basis, integer coefficients."""
        out: dict[int, Fraction] = {}
        for word, coeff in self._as_divisor_polynomial(v):
            vec = {u: Fraction(coeff)}
            for i in word:
                vec = self._divisor(i, vec)
            for w, a in vec.items():
                out[w] = out.get(w, 0) + a
        result = {}
        for w, a in out.items():
            if a:
                if a.denominator != 1:
                    raise ArithmeticError(f"non-integral structure constant {a}")
                result[w] = int(a)
        return result


def _mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def _positive_roots(c):
    """(root, coroot) pairs, simple-root and simple-coroot coordinates."""
    n = len(c)
    simple = [(tuple(1 if j == i else 0 for j in range(n)),) * 2 for i in range(n)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for beta, cov in frontier:
            for i in range(n):
                # <beta, alpha_i^vee> and <alpha_i, beta^vee>
                p = sum(beta[j] * c[j][i] for j in range(n))
                q = sum(c[i][j] * cov[j] for j in range(n))
                b2 = tuple(x - (p if j == i else 0) for j, x in enumerate(beta))
                c2 = tuple(x - (q if j == i else 0) for j, x in enumerate(cov))
                if all(x >= 0 for x in b2) and (b2, c2) not in seen:
                    seen.add((b2, c2))
                    nxt.append((b2, c2))
        frontier = nxt
    return sorted(seen)


def _solve(rows, rhs):
    """One rational solution of rows . x = rhs (consistent systems only)."""
    ncols = len(rows[0]) if rows else 0
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots, r = [], 0
    for col in range(ncols):
        p = next((i for i in range(r, len(aug)) if aug[i][col]), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        inv = aug[r][col]
        aug[r] = [x / inv for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
    if any(row[-1] for row in aug[r:]):
        raise ArithmeticError("Schubert class is not in the span of divisor words")
    x = [Fraction(0)] * ncols
    for row, col in zip(aug, pivots):
        x[col] = row[-1]
    return x


# ---------------------------------------------------------------------------
# Hand-checked answers for the CLI fixtures
# ---------------------------------------------------------------------------
#
# NS(G) = NS(A) + Pic(G_aff), Pic(G_aff) = Z/pi_1 of the derived group:
# SL2, GL2 and tori are factorial, PGL2 (also inside cover_torsion, whose
# root pairs with its coroot as 1 * 2) gives Z/2.  The formal part is Pic0(A)
# modulo gamma_A(X(G_aff)), which is Z wherever a character of G_aff
# reaches X(D) (semiabelian: v = 1; gl2_center: det -> 2; sl2_torus_d: the
# torus character -> 1) and Z + Z/2 for cover_torsion, whose X(D) carries a
# Z/2.  The integral concrete Chow factor is the coinvariant algebra of
# X(T)_Q: one class in degree 1 exactly when there is a root.  G/H for a
# torus or Borel H of a rank-one G_aff has one class in degree 1 (A*(P^1));
# the full G_aff, a component group acting as W, or a trivial H, leave Q.

_H = {
    # subgroup: (hchow dims or refusal, (hpic mode, NS(G/H) or None, NS report mode), complete)
    "trivial": ([1, 0, 0, 0], ("integral", (1, []), "integral"), "no"),
    "torus": ([1, 1, 0, 0], ("integral", (2, []), "integral"), "no"),
    "borel": ([1, 1, 0, 0], ("integral", (2, []), "integral"), "yes"),
}

FIXTURES = {
    "cover_torsion": {
        "ns": (1, [2]), "pic_gaff": [2], "pic0_mod": (1, [2]), "g": 1,
        "chow_dims": [1, 1, 0, 0], "j_rank": 1, "albanese": "no",
        "affinization": ("no", "no"), "cover": "cover_torsion-cover",
        "subgroups": {"trivial": ([1, 0, 0, 0], ("integral", (1, []), "rational"), "no")},
    },
    "gl2_center": {
        "ns": (1, []), "pic_gaff": [], "pic0_mod": (1, []), "g": 1,
        "chow_dims": [1, 1, 0, 0], "j_rank": 1, "albanese": "no",
        "affinization": ("yes", "no"), "cover": "gl2_center-cover",
        # X(T_H) / Z(1,1) for the torus; the swap fixes exactly Z(1,1)
        "subgroups": {"torus": _H["torus"],
                      "swap_component": ([1, 0, 0, 0], ("integral", (1, []), "integral"), "no")},
    },
    "product_pgl2": {
        "ns": (1, [2]), "pic_gaff": [2], "pic0_mod": (0, []), "g": 1,
        "chow_dims": [1, 1, 0, 0], "j_rank": 0, "albanese": "yes",
        "affinization": ("yes", "yes"), "cover": "product_pgl2-cover",
        # PGL2 is not factorial, so the NS report of G/H falls back to ranks
        "subgroups": {"torus": ([1, 1, 0, 0], ("integral", (2, []), "rational"), "no"),
                      "borel": ([1, 1, 0, 0], ("integral", (2, []), "rational"), "yes")},
    },
    "product_sl2": {
        "ns": (1, []), "pic_gaff": [], "pic0_mod": (0, []), "g": 1,
        "chow_dims": [1, 1, 0, 0], "j_rank": 0, "albanese": "yes",
        "affinization": ("yes", "yes"), "cover": "product_sl2",
        "subgroups": {
            "trivial": _H["trivial"], "torus": _H["torus"], "borel": _H["borel"],
            "neg_borel": _H["borel"],
            "torus_ant": _H["torus"],
            "full_aff": ([1, 0, 0, 0], ("integral", (1, []), "integral"), "no"),
            "full_aff_ant": ([1, 0, 0, 0], ("integral", (1, []), "integral"), "yes"),
            # translating component: rational mode, X(H) = 0 under -1
            "nlt": ([1, 0, 0, 0], ("rational", (1, []), "rational"), "no"),
            # H contains G_ant: no Chow report; see BASELINE.md for the NS value
            "ant": ("ModeUnsupported", ("rational", None, "rational"), "no"),
        },
    },
    "semiabelian": {
        "ns": (1, []), "pic_gaff": [], "pic0_mod": (1, []), "g": 1,
        "chow_dims": [1, 0, 0, 0], "j_rank": 1, "albanese": "no",
        "affinization": ("yes", "yes"), "cover": "semiabelian",
        "subgroups": {
            "trivial": _H["trivial"],
            "gaff": ([1, 0, 0, 0], ("integral", (1, []), "integral"), "no"),
            "ant": ("ModeUnsupported", ("rational", None, "rational"), "yes"),
        },
    },
    "sl2_affine": {
        "ns": (0, []), "pic_gaff": [], "pic0_mod": (0, []), "g": 0,
        "chow_dims": [1, 1, 0, 0], "j_rank": 0, "albanese": "yes",
        "affinization": ("yes", "yes"), "cover": "sl2_affine",
        "subgroups": {"torus": ([1, 1, 0, 0], ("integral", (1, []), "integral"), "no"),
                      "borel": ([1, 1, 0, 0], ("integral", (1, []), "integral"), "yes")},
    },
    "sl2_torus_d": {
        "ns": (1, []), "pic_gaff": [], "pic0_mod": (1, []), "g": 1,
        "chow_dims": [1, 1, 0, 0], "j_rank": 1, "albanese": "no",
        "affinization": ("yes", "yes"), "cover": "sl2_torus_d",
        "subgroups": {},
    },
}

EXIT_OK, EXIT_INVALID, EXIT_PARSE = 0, 2, 3


def _group(rank_torsion):
    rank, torsion = rank_torsion
    return {"rank": rank, "torsion": torsion}


def cli_expect(req) -> tuple[int, dict]:
    """(exit code, {dotted path in the JSON report: value}) for a CLI request."""
    if "malformed" in req:
        return EXIT_PARSE, {}
    fx = FIXTURES[req["fixture"]]
    cmd = req["cmd"]
    if cmd == "validate":
        return EXIT_OK, {"ok": True}
    if cmd == "picard":
        return EXIT_OK, {"type": "picard", "ns": _group(fx["ns"]),
                         "sequence.pic_gaff": _group((0, fx["pic_gaff"])),
                         "pic0.g": fx["g"], "pic0.mod": _group(fx["pic0_mod"])}
    if cmd == "ns":
        return EXIT_OK, {"type": "ns", "ns": _group(fx["ns"])}
    if cmd == "chow":
        return EXIT_OK, {"type": "chow", "mode": "integral",
                         "concrete_factor.dims": fx["chow_dims"],
                         "degree1_concrete": _group((0, fx["pic_gaff"]))}
    if cmd == "chow --rational":
        return EXIT_OK, {"type": "chow", "mode": "rational", "concrete_factor.dims": [1, 0, 0, 0],
                         "j_rank": fx["j_rank"], "degree_bound": fx["g"]}
    if cmd == "structure":
        lt, triv = fx["affinization"]
        return EXIT_OK, {"type": "structure", "albanese_split.answer": fx["albanese"],
                         "affinization.locally_trivial.answer": lt,
                         "affinization.trivial.answer": triv}
    if cmd == "cover":
        return EXIT_OK, {"group.name": fx["cover"]}
    hchow, (mode, ns, ns_mode), complete = fx["subgroups"][req["sub"]]
    if cmd == "hchow":
        if hchow == "ModeUnsupported":
            return EXIT_INVALID, {}
        return EXIT_OK, {"type": "chow", "mode": "rational", "concrete_factor.dims": hchow}
    if cmd == "hpic":
        fields = {"type": "hpic", "picard.mode": mode, "ns.mode": ns_mode}
        if ns is not None:
            fields["picard.ns"] = _group(ns)
        return EXIT_OK, fields
    if cmd == "complete":
        return EXIT_OK, {"type": "complete", "complete.answer": complete}
    raise ValueError(f"no expectation for {cmd!r}")


# ---------------------------------------------------------------------------
# Expected answers for library requests
# ---------------------------------------------------------------------------


def call_expect(req: dict, data: dict, schubert: dict) -> dict:
    """``{"exc": name}`` or ``{"ans": fields}`` for one library request.

    ``schubert`` caches one :class:`Schubert` per Cartan type.
    """
    op, datum = req["op"], data[req["datum"]]
    name = datum["name"]
    n = int(name[1:])
    torsion = pi1(name, datum["form"])
    md = req.get("max_degree")
    if op == "parse_descriptor":
        return {"ans": {"rank": n, "nsimple": n, "subgroups": datum["subgroups"]}}
    if req.get("sub") == "infinite":
        # the component group [[1, 1], [0, 1]] has infinite order
        if op == "validate_subgroup":
            return {"ans": {"ok": False, "failed": ["component-group-finite"]}}
        return {"exc": "GroupTooLarge"}
    if req.get("cap", weyl_order(name)) < weyl_order(name):
        return {"exc": "GroupTooLarge"}
    if op == "validate_group":
        return {"ans": {"ok": True, "cartan": name}}
    if op == "validate_subgroup":
        # N(T)/T is the Weyl group
        return {"ans": {"ok": True, "failed": [],
                        "component_group": f"|H/H0| = {weyl_order(name)}"}}
    if op == "picard_group":
        # g = 0: NS(A) = 0, so NS(G) = Pic(G_aff)
        return {"ans": {"ns": [0, torsion], "pic_gaff": [0, torsion]}}
    if op == "chow_presentation":
        return {"ans": {"dims": coinvariant_dims(name, md), "degree1": [0, torsion],
                        "ngens": n}}
    if op == "rational_chow":
        return {"ans": {"dims": [1] + [0] * md, "j_rank": 0, "degree_bound": 0}}
    if op == "completeness_test":
        # G/B is complete, of dimension the number of positive roots
        return {"ans": {"answer": "yes", "flag_dim": positive_roots(name)}}
    if op == "homogeneous_rational_chow":
        # G/B has the coinvariant algebra; G/N(T) has the W-invariants of
        # Sym X(T)_Q modulo themselves, i.e. Q in degree 0
        dims = coinvariant_dims(name, md) if req["sub"] == "borel" else [1] + [0] * md
        return {"ans": {"dims": dims}}
    if op == "emit_report":
        fields = {"type": "chow", "mode": "integral",
                  "concrete_factor.dims": coinvariant_dims(name, md),
                  "degree1_concrete": {"rank": 0, "torsion": torsion}}
        if req["format"] == "json":
            fields["schema"] = "chevalley-chow/1"
        return {"ans": {"report": {"format": req["format"], "fields": fields}}}
    if name not in schubert:
        schubert[name] = Schubert(name)
    calc = schubert[name]
    if op == "schubert_product":
        terms = calc.product(req["u"], req["v"])
    elif op == "chevalley_multiply":
        coroots = datum["rd"]["simple_coroots"]
        lam = [sum(a * b for a, b in zip(req["lam"], cov)) for cov in coroots]
        terms = calc.chevalley(lam, req["w"])
    else:
        raise ValueError(f"no expectation for {op!r}")
    return {"ans": {"terms": {str(k): v for k, v in sorted(terms.items())}}}
