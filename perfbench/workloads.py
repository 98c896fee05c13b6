"""Request lists of the three workloads, built from the seed alone.

``build(workload, seed, inputs_dir)`` is called both by the worker (its
input generation is part of set-up) and by the harness, which pairs every
request with an expected answer from :mod:`oracle`.  Requests are plain
JSON-ready dicts; descriptors travel as bytes inside the worker only.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import gen
import oracle

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

# ---------------------------------------------------------------------------
# ladder-cold
# ---------------------------------------------------------------------------

LADDER = ("A1", "A2", "A3", "A4", "A5", "B2", "C3", "D4", "G2", "F4")
#: the two costliest data take opposite seeded isogeny forms (the adjoint
#: form of A5 or F4 costs about 25% more); every other datum comes in both
#: forms, so that the calls around the median and the tail latency are the
#: same for every seed
LADDER_PAIRS = (("A5", "F4"),)
INFINITE = {"infinite": {"q": [[1, 0], [0, 1]], "component_group": {
    "generators": [[[1, 1], [0, 1]]], "translations": [False]}}}
LADDER_DEPTH = 2          # transvections in the seeded change of basis of X(T)
REFUSAL_CAP = 1000        # below |W(F4)| = 1152 and |W(E6)| = 51840


def ladder_max_degree(name: str) -> int:
    return 3 if int(name[1:]) <= 3 else 2


def ladder_hchow_degree(name: str) -> int:
    """Degree 1 above rank 3: the degree-2 Weyl invariants of A5 and F4 are
    already paid by chow_presentation, and repeating them for G/B and
    G/N(T) would double a pass (and the traced pass runs 4x slower)."""
    return 3 if int(name[1:]) <= 3 else 1


def _datum(name, form, rng, depth, extra=None):
    rd = gen.root_datum(name, form, depth, rng)
    return {"name": name, "form": form, "rd": rd,
            "subgroups": ["borel", "normalizer", *(extra or {})],
            "bytes": gen.descriptor(name, rd, oracle.positive_roots(name), extra)}


def ladder(seed: int):
    """Each datum once, in seeded order; then the requests that must be refused."""
    rng = random.Random(seed)
    forms = {name: ("sc", "adj") for name in LADDER}
    for first, second in LADDER_PAIRS:
        forms[first], forms[second] = rng.choice(((("sc",), ("adj",)), (("adj",), ("sc",))))
    forms["E6"] = (rng.choice(("sc", "adj")),)
    data = {}
    for name, kinds in forms.items():
        for form in kinds:
            # the unipotent component group [[1, 1], [0, 1]] is infinite
            extra = INFINITE if (name, form) == ("A2", "sc") else None
            data[f"{name}-{form}"] = _datum(name, form, rng, LADDER_DEPTH, extra)
    keys = [key for key in data if not key.startswith("E6")]
    rng.shuffle(keys)
    reqs = []
    for key in keys:
        name = data[key]["name"]
        md, hd = ladder_max_degree(name), ladder_hchow_degree(name)
        reqs += [
            {"op": "parse_descriptor", "datum": key},
            {"op": "validate_group", "datum": key},
            {"op": "validate_subgroup", "datum": key, "sub": "normalizer"},
            {"op": "picard_group", "datum": key},
            {"op": "chow_presentation", "datum": key, "max_degree": md},
            {"op": "rational_chow", "datum": key, "max_degree": md},
            {"op": "completeness_test", "datum": key, "sub": "borel"},
            {"op": "homogeneous_rational_chow", "datum": key, "sub": "borel", "max_degree": hd},
            {"op": "homogeneous_rational_chow", "datum": key, "sub": "normalizer",
             "max_degree": hd},
            {"op": "emit_report", "datum": key, "max_degree": md,
             "format": rng.choice(("json", "text"))},
        ]
    e6, f4 = f"E6-{forms['E6'][0]}", f"F4-{forms['F4'][0]}"
    reqs += [
        {"op": "parse_descriptor", "datum": e6},
        {"op": "chow_presentation", "datum": e6, "max_degree": 2, "cap": REFUSAL_CAP},
        {"op": "chow_presentation", "datum": f4, "max_degree": 2, "cap": REFUSAL_CAP},
        {"op": "validate_subgroup", "datum": "A2-sc", "sub": "infinite", "cap": REFUSAL_CAP},
        {"op": "homogeneous_rational_chow", "datum": "A2-sc", "sub": "infinite",
         "max_degree": 2, "cap": REFUSAL_CAP},
    ]
    return data, reqs


# ---------------------------------------------------------------------------
# schubert-warm
# ---------------------------------------------------------------------------

SCHUBERT = ("A2", "B2", "G2", "A3", "C3", "A4")
SCHUBERT_DEPTH = 1
SCHUBERT_ROUNDS = 4       # each round asks one product in every cell of every datum
SCHUBERT_MAX_DEGREE = 3   # bound on length(u) + length(v)


def _by_length(name):
    """Weyl indices grouped by length: BFS order lists them length by length."""
    counts = oracle.coinvariant_dims(name, oracle.positive_roots(name))
    groups, start = [], 0
    for c in counts:
        groups.append(range(start, start + c))
        start += c
    return groups


def schubert(seed: int):
    """Products round-robin over every type in both isogeny forms.

    A cell is a pair (length(u) + length(v), length(u)); every round asks
    one product in each cell of each datum, so the mix of work is the same
    for every seed, while the seed picks the basis changes, the order and
    the classes u and v.  The first round visits the cells of a datum in
    ascending order, so that the requests that fill the package's caches
    are the same for every seed.  Divisor products (length(u) = 1) are
    followed by ``chevalley_multiply`` on the same class.
    """
    rng = random.Random(seed)
    data = {f"{name}-{form}": _datum(name, form, rng, SCHUBERT_DEPTH)
            for name in SCHUBERT for form in ("sc", "adj")}
    keys = list(data)
    rng.shuffle(keys)
    lengths = {name: _by_length(name) for name in SCHUBERT}
    reqs = [{"op": "parse_descriptor", "datum": key} for key in keys]
    for rnd in range(SCHUBERT_ROUNDS):
        queues = {}
        for key in keys:
            name = data[key]["name"]
            top = min(SCHUBERT_MAX_DEGREE, oracle.positive_roots(name))
            cells = [(d, lu) for d in range(top, 0, -1) for lu in range(d, -1, -1)]
            if rnd:
                rng.shuffle(cells)
            queues[key] = cells
        while any(queues.values()):
            for key in keys:
                if not queues[key]:
                    continue
                d, lu = queues[key].pop()
                name = data[key]["name"]
                groups = lengths[name]
                u, v = rng.choice(groups[lu]), rng.choice(groups[d - lu])
                reqs.append({"op": "schubert_product", "datum": key, "u": u, "v": v,
                             "degree": d})
                if lu == 1:
                    lam = [rng.randint(-2, 2) for _ in range(int(name[1:]))]
                    reqs.append({"op": "chevalley_multiply", "datum": key, "lam": lam, "w": v})
    return data, reqs


# ---------------------------------------------------------------------------
# cli-fixtures
# ---------------------------------------------------------------------------

CLI_COMMANDS = (("validate",), ("picard",), ("ns",), ("chow",), ("chow", "--rational"),
                ("structure",), ("cover",))
CLI_SUBGROUP_COMMANDS = ("hchow", "hpic", "complete")
HUGE_DIGITS = 5000        # past CPython's 4300-digit int/str conversion limit
DEEP_NESTING = 100_000


def malformed(seed: int) -> dict[str, bytes]:
    """Descriptors that must be refused with exit code 3."""
    rng = random.Random(seed)
    base = (FIXTURES / f"{rng.choice(sorted(oracle.FIXTURES))}.json").read_bytes()
    doc = json.loads(base)
    unknown = json.loads(base)
    unknown["group"]["colour"] = "blue"
    wrong = json.loads(base)
    wrong["group"]["abelian"]["g"] = [1]
    huge = json.loads(base)
    huge["group"]["abelian"]["g"] = "1" * HUGE_DIGITS
    return {
        "truncated": base[: len(base) // 2],
        "unknown_key": json.dumps(unknown).encode(),
        "wrong_type": json.dumps(wrong).encode(),
        "huge_decimal": json.dumps(huge).encode(),
        "deep_nesting": (b'{"group": ' + b"[" * DEEP_NESTING + b"]" * DEEP_NESTING
                         + b', "subgroups": ' + json.dumps(doc.get("subgroups", {})).encode()
                         + b"}"),
    }


def cli(seed: int, inputs_dir: Path):
    """Every subcommand on every fixture and subgroup, both formats; then
    the malformed descriptors.  Writes the malformed files to ``inputs_dir``."""
    rng = random.Random(seed)
    reqs = []
    for fixture in sorted(oracle.FIXTURES):
        path = str((FIXTURES / f"{fixture}.json").relative_to(ROOT))
        subs = list(json.loads((FIXTURES / f"{fixture}.json").read_bytes())
                    .get("subgroups", {}))
        for fmt in ("json", "text"):
            for cmd in CLI_COMMANDS:
                reqs.append({"fixture": fixture, "cmd": " ".join(cmd), "fmt": fmt,
                             "argv": [cmd[0], path, *cmd[1:], "--format", fmt]})
            for sub in subs:
                for cmd in CLI_SUBGROUP_COMMANDS:
                    reqs.append({"fixture": fixture, "cmd": cmd, "sub": sub, "fmt": fmt,
                                 "argv": [cmd, sub, path, "--format", fmt]})
    inputs_dir.mkdir(parents=True, exist_ok=True)
    for name, data in malformed(seed).items():
        path = inputs_dir / f"{name}.json"
        if not path.is_file() or path.read_bytes() != data:
            path.write_bytes(data)
        fmt = rng.choice(("json", "text"))
        reqs.append({"malformed": name, "cmd": "picard", "fmt": fmt,
                     "argv": ["picard", str(path.relative_to(ROOT)), "--format", fmt]})
    rng.shuffle(reqs)
    return reqs


def build(workload: str, seed: int, inputs_dir: Path):
    if workload == "ladder-cold":
        return ladder(seed)
    if workload == "schubert-warm":
        return schubert(seed)
    if workload == "cli-fixtures":
        return {}, cli(seed, inputs_dir)
    raise ValueError(f"unknown workload {workload!r}")
