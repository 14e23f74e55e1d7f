"""Batch command-line front end.

Every command is deterministic given its arguments and prints a single JSON
object (or a plain-text rendering with ``--format plain``).  All scalar
values are exact strings, never floats.  The environment variable
``SCHUBERT_OUTPUT`` (``json`` or ``plain``) overrides the ``--format`` flag.

Exit codes: 0 success, 1 a mathematical claim failed to verify, 2 parse
error, 3 unsupported group/operation, 4 degenerate configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from . import jsonio
from .errors import (DegenerateConfiguration, InfinitelyMany,
                     NegativeExpectedDimension, NotInCellInterior,
                     UnsupportedGroup)
from .flags import (GroupKind, curve_point, exp_translate_flag, flags_equal,
                    gram_matrix, is_isotropic_flag, nilpotency_index,
                    osculating_flag, principal_nilpotent, random_isotropic_flag)
from .grassmann import (PermCondition, SchubertCondition, codim,
                        condition_codim, expected_dim_report,
                        flag_manifold_dim, iota, pad_to_zero_dimensional,
                        small_solver_gr24, transversality_certificate)
from .wronski import check_eh_identity, random_plane

EXIT_OK = 0
EXIT_CLAIM = 1
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_DEGENERATE = 4

_KIND_NAMES = {"sl": "SL", "sp": "Sp", "so-odd": "SO_odd", "so-even": "SO_even"}

# Largest ambient dimension a --kind command accepts; flags and nilpotents
# are dense m x m exact matrices, so memory and time grow fast beyond it.
MAX_AMBIENT_DIM = 24


def _kind_from_args(args) -> GroupKind:
    tag = _KIND_NAMES[args.kind]
    if tag == "SL":
        if args.m is None:
            raise ValueError("--kind sl requires --m")
        kind = GroupKind.sl(args.m)
    else:
        if args.n is None:
            raise ValueError(f"--kind {args.kind} requires --n")
        kind = GroupKind(tag, args.n)
    if kind.ambient_dim > MAX_AMBIENT_DIM:
        raise ValueError(f"ambient dimension {kind.ambient_dim} exceeds "
                         f"the limit of {MAX_AMBIENT_DIM}")
    return kind


def _rational_list(text: str) -> list[Fraction]:
    return [jsonio.parse_rational(part)
            for part in text.split(",") if part.strip()]


# -- command handlers ---------------------------------------------------------


def cmd_curve(args):
    kind = _kind_from_args(args)
    t = jsonio.parse_rational(args.t)
    point = curve_point(kind, t)
    payload = {
        "kind": jsonio.kind_to_json(kind),
        "t": jsonio.rational_to_str(t),
        "point": [jsonio.scalar_to_json(x) for x in point.column(0)],
    }
    return EXIT_OK, payload


def cmd_osculating_flag(args):
    kind = _kind_from_args(args)
    t = jsonio.parse_rational(args.t)
    flag = osculating_flag(kind, t)
    payload = {
        "kind": jsonio.kind_to_json(kind),
        "t": jsonio.rational_to_str(t),
        "flag": jsonio.flag_to_json(flag),
    }
    return EXIT_OK, payload


def cmd_verify_isotropy(args):
    kind = _kind_from_args(args)
    form = gram_matrix(kind)
    ts = _rational_list(args.t)
    results = []
    for t in ts:
        ok = is_isotropic_flag(osculating_flag(kind, t), form)
        results.append({"t": jsonio.rational_to_str(t), "isotropic": ok})
    all_ok = all(r["isotropic"] for r in results)
    payload = {
        "kind": jsonio.kind_to_json(kind),
        "results": results,
        "all_isotropic": all_ok,
    }
    return (EXIT_OK if all_ok else EXIT_CLAIM), payload


def cmd_nilpotent(args):
    kind = _kind_from_args(args)
    eta = principal_nilpotent(kind)
    index = nilpotency_index(eta)
    payload = {
        "kind": jsonio.kind_to_json(kind),
        "ambient_dim": kind.ambient_dim,
        "matrix": jsonio.matrix_to_json(eta),
        "nilpotency_index": index,
        "principal_in_sl": index == kind.ambient_dim,
    }
    return EXIT_OK, payload


def cmd_peterson_check(args):
    kind = _kind_from_args(args)
    ts = _rational_list(args.t)
    results = []
    for t in ts:
        same = flags_equal(exp_translate_flag(kind, t), osculating_flag(kind, t))
        results.append({"t": jsonio.rational_to_str(t), "equal": same})
    all_ok = all(r["equal"] for r in results)
    payload = {
        "kind": jsonio.kind_to_json(kind),
        "results": results,
        "all_equal": all_ok,
    }
    return (EXIT_OK if all_ok else EXIT_CLAIM), payload


def _solve_and_certify(flags, mode_payload):
    cond = iota(2, 4)
    solutions = small_solver_gr24(flags)
    pairs = [(cond, f) for f in flags]
    sol_payload = []
    all_trans = True
    for V in solutions:
        cert = transversality_certificate(V, pairs)
        all_trans = all_trans and cert.transverse
        sol_payload.append({
            "basis": jsonio.matrix_to_json(V.basis),
            "certificate": jsonio.certificate_to_json(cert),
        })
    payload = dict(mode_payload)
    payload.update({
        "count": len(solutions),
        "solutions": sol_payload,
        "all_transverse": all_trans,
    })
    return (EXIT_OK if all_trans else EXIT_CLAIM), payload


def cmd_solve_four_lines(args):
    if args.osculating == args.isotropic_sp4:
        raise ValueError("choose exactly one of --osculating or --isotropic-sp4")
    if args.osculating:
        if args.points is None:
            raise ValueError("--osculating requires --points")
        pts = _rational_list(args.points)
        if len(pts) != 4:
            raise ValueError("--points needs exactly four rational values")
        kind = GroupKind.sl(4)
        flags = [osculating_flag(kind, t) for t in pts]
        mode = {"mode": "osculating",
                "points": [jsonio.rational_to_str(t) for t in pts]}
    else:
        seed = args.seed if args.seed is not None else 0
        rng = random.Random(seed)
        child = [rng.getrandbits(32) for _ in range(4)]
        flags = [random_isotropic_flag(GroupKind.sp(2), s) for s in child]
        mode = {"mode": "isotropic-sp4", "seed": seed}
    return _solve_and_certify(flags, mode)


def cmd_eh_check(args):
    k, m = args.k, args.m
    if not (1 <= k < m <= 8):
        raise ValueError("need 1 <= k < m <= 8")
    if args.samples < 0:
        raise ValueError("--samples must be >= 0")
    ts = _rational_list(args.points)
    rng = random.Random(args.seed)
    failures = []
    checked = 0
    for idx in range(args.samples):
        plane = random_plane(k, m, rng)
        for t in ts:
            rep = check_eh_identity(plane, t)
            checked += 1
            if not rep.equal:
                failures.append({
                    "sample": idx,
                    "t": jsonio.rational_to_str(t),
                    "codim": rep.codim,
                    "wronski_order": rep.wronski_order,
                })
    payload = {
        "k": k,
        "m": m,
        "samples": args.samples,
        "seed": args.seed,
        "points": [jsonio.rational_to_str(t) for t in ts],
        "checked": checked,
        "failures": failures,
        "all_equal": not failures,
    }
    return (EXIT_OK if not failures else EXIT_CLAIM), payload


def cmd_dim_report(args):
    with open(args.problem_file, encoding="utf-8") as fh:
        data = json.load(fh)
    ambient = data["ambient"]
    m = int(ambient["m"])
    dims = [int(d) for d in ambient["dims"]]
    dim = flag_manifold_dim(dims, m)
    conds = []
    for entry in data.get("conditions", []):
        if "perm" in entry:
            conds.append(PermCondition(m, tuple(int(x) for x in entry["perm"]),
                                       tuple(dims)))
        elif "indices" in entry:
            if len(dims) != 1:
                raise ValueError("index conditions need a single-step ambient")
            conds.append(SchubertCondition(
                dims[0], m, tuple(int(x) for x in entry["indices"])))
        else:
            raise ValueError(f"condition needs 'perm' or 'indices': {entry}")
    report = expected_dim_report(conds, dim)
    payload = {
        "dim": dim,
        "codims": [condition_codim(c) for c in conds],
        "expected": report.expected,
        "empty_for_general": report.empty_for_general,
    }
    return EXIT_OK, payload


def _parse_at_condition(text: str, k: int, m: int) -> tuple[SchubertCondition, Fraction]:
    if "@" not in text:
        raise ValueError(f"condition must look like 'i1,i2,...@point': {text!r}")
    idx_part, point_part = text.rsplit("@", 1)
    indices = tuple(int(i) for i in idx_part.split(",") if i.strip())
    return SchubertCondition(k, m, indices), jsonio.parse_rational(point_part)


def cmd_pad(args):
    k, m = args.k, args.m
    conds = [_parse_at_condition(c, k, m) for c in (args.condition or [])]
    fresh = _rational_list(args.fresh) if args.fresh else []
    before = k * (m - k) - sum(codim(c) for c, _ in conds)
    padded = pad_to_zero_dimensional(conds, fresh, k=k, m=m)
    payload = {
        "k": k,
        "m": m,
        "expected_before": before,
        "expected_after": k * (m - k) - sum(codim(c) for c, _ in padded),
        "conditions": [{"indices": list(c.indices),
                        "point": jsonio.rational_to_str(t)} for c, t in padded],
    }
    return EXIT_OK, payload


# -- wiring -------------------------------------------------------------------


def _add_kind_arguments(sub):
    sub.add_argument("--kind", required=True, choices=sorted(_KIND_NAMES))
    sub.add_argument("--m", type=int, help="ambient dimension (sl only)")
    sub.add_argument("--n", type=int, help="rank parameter (sp, so-odd, so-even)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schubert",
        description="Exact osculating/isotropic flags and Schubert "
                    "transversality certificates.")
    parser.add_argument("--format", choices=("json", "plain"), default="json")
    # Accept --format on either side of the subcommand; SUPPRESS keeps the
    # subparser from clobbering a value given before it.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "plain"),
                        default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[common], **kw))

    p = sub.add_parser("curve", help="evaluate the group's rational normal curve")
    _add_kind_arguments(p)
    p.add_argument("--t", required=True)
    p.set_defaults(handler=cmd_curve)

    p = sub.add_parser("osculating-flag", help="derivative flag of the curve at t")
    _add_kind_arguments(p)
    p.add_argument("--t", required=True)
    p.set_defaults(handler=cmd_osculating_flag)

    p = sub.add_parser("verify-isotropy",
                       help="check osculating flags against the preserved form")
    _add_kind_arguments(p)
    p.add_argument("--t", required=True, help="comma-separated rational points")
    p.set_defaults(handler=cmd_verify_isotropy)

    p = sub.add_parser("nilpotent", help="principal nilpotent of the Lie algebra")
    _add_kind_arguments(p)
    p.set_defaults(handler=cmd_nilpotent)

    p = sub.add_parser("peterson-check",
                       help="compare exp(t*eta) flags with osculating flags")
    _add_kind_arguments(p)
    p.add_argument("--t", required=True, help="comma-separated rational points")
    p.set_defaults(handler=cmd_peterson_check)

    p = sub.add_parser("solve-four-lines",
                       help="lines meeting four 2-planes in C^4, with certificates")
    p.add_argument("--osculating", action="store_true",
                   help="use moment-curve osculating flags at --points")
    p.add_argument("--points", help="four comma-separated rational points")
    p.add_argument("--isotropic-sp4", action="store_true",
                   help="use random isotropic Sp(4) flags from --seed")
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=cmd_solve_four_lines)

    p = sub.add_parser("eh-check",
                       help="ramification codim vs Wronskian root order, sampled")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--points", required=True, help="comma-separated rationals")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_eh_check)

    p = sub.add_parser("dim-report",
                       help="expected dimension of a list of conditions")
    p.add_argument("problem_file",
                   help="JSON file with 'ambient' and 'conditions'")
    p.set_defaults(handler=cmd_dim_report)

    p = sub.add_parser("pad",
                       help="pad conditions to expected dimension zero")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--condition", action="append",
                   help="condition as 'i1,i2,...@point' (repeatable)")
    p.add_argument("--fresh", help="comma-separated fresh points")
    p.set_defaults(handler=cmd_pad)

    return parser


def _render_plain(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    if isinstance(value, dict):
        lines = []
        for key, val in value.items():
            if isinstance(val, (dict, list)) and val and not _is_flat_list(val):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_plain(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_inline(val)}")
        return lines
    if isinstance(value, list):
        lines = []
        for item in value:
            if isinstance(item, (dict, list)) and item and not _is_flat_list(item):
                lines.append(f"{pad}-")
                lines.extend(_render_plain(item, indent + 1))
            else:
                lines.append(f"{pad}- {_inline(item)}")
        return lines
    return [f"{pad}{_inline(value)}"]


def _is_flat_list(v) -> bool:
    return isinstance(v, list) and all(
        not isinstance(x, (dict, list)) for x in v)


def _inline(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, list):
        return "[" + ", ".join(_inline(x) for x in v) + "]"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{k}: {_inline(x)}" for k, x in v.items()) + "}"
    return str(v)


def _emit(payload, fmt: str) -> None:
    if fmt == "plain":
        sys.stdout.write("\n".join(_render_plain(payload)) + "\n")
    else:
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fmt = os.environ.get("SCHUBERT_OUTPUT") or args.format
    if fmt not in ("json", "plain"):
        _emit({"error": f"SCHUBERT_OUTPUT must be 'json' or 'plain', got {fmt!r}"},
              "json")
        return EXIT_PARSE
    try:
        code, payload = args.handler(args)
    except UnsupportedGroup as e:
        code, payload = EXIT_UNSUPPORTED, {"error": str(e)}
    except (DegenerateConfiguration, InfinitelyMany, NotInCellInterior,
            NegativeExpectedDimension) as e:
        code, payload = EXIT_DEGENERATE, {"error": str(e)}
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as e:
        code, payload = EXIT_PARSE, {"error": str(e)}
    _emit(payload, fmt)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
