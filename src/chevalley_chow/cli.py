"""Command-line interface.

One binary, one descriptor file per invocation::

    chevalley-chow picard fixtures/semiabelian.json
    chevalley-chow hpic borel fixtures/product_sl2.json --integral
    chevalley-chow chow fixtures/product_sl2.json --max-degree 3 --format json

Exit codes: 0 on success, 2 when validation (or a computation's
hypotheses) fails, 3 when the descriptor cannot be parsed.
"""

from __future__ import annotations

import argparse
import sys

from . import chow, structure
from .descriptors import DEFAULT_CAP, validate_group, validate_subgroup
from .errors import ChevalleyChowError, DescriptorSyntaxError, SchemaError
from .formats import DescriptorDocument, emit_report, parse_descriptor

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_PARSE = 3


def _add_common(p: argparse.ArgumentParser, subgroup: bool = False):
    if subgroup:
        p.add_argument("subgroup", help="name of a subgroup entry in the descriptor")
    p.add_argument("descriptor", help="path to a descriptor JSON file")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--cap", type=_cap, default=DEFAULT_CAP,
                   help="finite-enumeration budget (Weyl and component groups)")


def _integer_at_least(lowest: int, condition: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be {condition}, got {value}")
        return value
    return parse


_max_degree = _integer_at_least(0, "nonnegative")
_cap = _integer_at_least(1, "positive")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="chevalley-chow",
        description="Picard groups, Neron-Severi groups and Chow presentations "
                    "of connected algebraic groups given by finite descriptors.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("validate", help="run all descriptor consistency checks"))
    _add_common(sub.add_parser("picard", help="Picard group of G"))
    _add_common(sub.add_parser("ns", help="Neron-Severi group of G"))

    p = sub.add_parser("chow", help="Chow ring presentation of G")
    _add_common(p)
    p.add_argument("--max-degree", type=_max_degree, default=3)
    p.add_argument("--rational", action="store_true",
                   help="rational presentation (quotient of A*(A)_Q)")

    p = sub.add_parser("hchow", help="rational Chow presentation of G/H")
    _add_common(p, subgroup=True)
    p.add_argument("--max-degree", type=_max_degree, default=3)

    p = sub.add_parser("hpic", help="Picard and Neron-Severi report for G/H")
    _add_common(p, subgroup=True)
    p.add_argument("--integral", action="store_true",
                   help="force integral mode (error if hypotheses fail)")

    _add_common(sub.add_parser("complete", help="completeness and affineness of G/H"),
                subgroup=True)
    _add_common(sub.add_parser("structure",
                               help="Albanese, affinization and fibration reports"))
    _add_common(sub.add_parser("cover", help="emit the factorial-cover descriptor"))
    return ap


def _require_valid(doc: DescriptorDocument, cap: int, subgroup: str | None = None):
    """Validate before any computation: the failed report (or None) and the subgroup.

    An unknown subgroup name raises ChevalleyChowError, which exits with code 2.
    """
    report = validate_group(doc.group)
    if not report.ok:
        return report, None
    if subgroup is None:
        return None, None
    try:
        hd = doc.subgroup(subgroup)
    except KeyError:
        raise ChevalleyChowError(f"no subgroup named {subgroup!r}; "
                                 f"descriptor defines {list(doc.subgroup_names())}") from None
    report = validate_subgroup(doc.group, hd, cap)
    return (None if report.ok else report), hd


def _run(args) -> tuple[object, int]:
    with open(args.descriptor, "rb") as f:
        doc = parse_descriptor(f.read())
    gd, cap = doc.group, args.cap

    if args.command == "validate":
        reports = [validate_group(gd)]
        if reports[0].ok:
            reports.extend(validate_subgroup(gd, hd, cap) for _, hd in doc.subgroups)
        ok = all(r.ok for r in reports)
        result = {"type": "validation_batch", "ok": ok,
                  "reports": reports} if len(reports) > 1 else reports[0]
        return result, (EXIT_OK if ok else EXIT_INVALID)

    bad, hd = _require_valid(doc, cap, getattr(args, "subgroup", None))
    if bad is not None:
        return bad, EXIT_INVALID

    if args.command == "picard":
        return chow.picard_group(gd), EXIT_OK
    if args.command == "ns":
        return {"type": "ns", "ns": chow.ns_group(gd)}, EXIT_OK
    if args.command == "chow":
        if args.rational:
            return chow.rational_chow(gd, args.max_degree), EXIT_OK
        return chow.chow_presentation(gd, args.max_degree, cap), EXIT_OK
    if args.command == "hchow":
        return chow.homogeneous_rational_chow(gd, hd, args.max_degree, cap), EXIT_OK
    if args.command == "hpic":
        pic = chow.homogeneous_picard(gd, hd, args.integral, cap)
        return {"type": "hpic", "picard": pic, "ns": chow.ns_of_picard(pic)}, EXIT_OK
    if args.command == "complete":
        return {
            "type": "complete",
            "complete": structure.completeness_test(gd, hd, cap),
            "affine": structure.affine_test(gd, hd),
        }, EXIT_OK
    if args.command == "structure":
        result = {
            "type": "structure",
            "albanese_split": structure.albanese_split_test(gd),
            "affinization": structure.affinization_test(gd),
        }
        if doc.subgroups:
            result["subgroups"] = {
                name: {
                    "fibration": structure.fibration_report(gd, h, cap),
                    "phi_locally_trivial": structure.phi_local_triviality_test(gd, h),
                }
                for name, h in doc.subgroups
            }
        return result, EXIT_OK
    if args.command == "cover":
        cover = structure.construct_cover(gd)
        return DescriptorDocument(cover), EXIT_OK
    raise AssertionError(f"unhandled command {args.command}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        result, code = _run(args)
    except (DescriptorSyntaxError, SchemaError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except ChevalleyChowError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    sys.stdout.buffer.write(emit_report(result, args.format))
    sys.stdout.buffer.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
