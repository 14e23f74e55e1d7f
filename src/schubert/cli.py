"""Batch command-line front end.

Every command is deterministic given its arguments and prints a single JSON
object, or a plain-text rendering of it with ``--format plain``, given
before the subcommand.  Rationals are exact strings, never floats; counts,
sizes and the d of a + b*sqrt(d) are JSON integers; d can pass 2**53, where
a reader that parses numbers as doubles loses digits.

Exit codes: 0 success, 1 a mathematical claim failed to verify, 2 parse
error, 3 unsupported group/operation, 4 degenerate configuration.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from typing import Iterator

from . import jsonio
from .errors import (DegenerateConfiguration, InfinitelyMany,
                     NegativeExpectedDimension, NotInCellInterior,
                     UnsupportedGroup)
from .flags import (GroupKind, curve_point, exp_translate_flag, flags_equal,
                    gram_matrix, is_isotropic_flag, nilpotency_index,
                    osculating_flag, principal_nilpotent, random_isotropic_flag)
from .grassmann import (PermCondition, SchubertCondition, condition_codim,
                        expected_dim_report, flag_manifold_dim, iota,
                        pad_to_zero_dimensional, small_solver_gr24,
                        transversality_certificate)
from .wronski import _eh_report, _scaled_wronskian, random_plane

EXIT_OK = 0
EXIT_CLAIM = 1
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_DEGENERATE = 4

_KIND_NAMES = {"sl": "SL", "sp": "Sp", "so-odd": "SO_odd", "so-even": "SO_even"}

# Largest ambient dimension a --kind command accepts; flags and nilpotents
# are dense m x m exact matrices, so memory and time grow fast beyond it.
MAX_AMBIENT_DIM = 24
# Largest eh-check --samples; each sample costs a few ms at m = 8.
MAX_EH_SAMPLES = 1000


def _kind_from_args(args) -> GroupKind:
    tag = _KIND_NAMES[args.kind]
    option, other = ("--m", "--n") if tag == "SL" else ("--n", "--m")
    size, stray = (args.m, args.n) if tag == "SL" else (args.n, args.m)
    if size is None:
        raise ValueError(f"--kind {args.kind} requires {option}")
    if stray is not None:
        raise ValueError(f"{other} is not used with --kind {args.kind}")
    kind = GroupKind(tag, size)
    if kind.ambient_dim > MAX_AMBIENT_DIM:
        raise ValueError(f"ambient dimension {kind.ambient_dim} exceeds "
                         f"the limit of {MAX_AMBIENT_DIM}")
    return kind


def _rational_list(text: str) -> list[Fraction]:
    return [jsonio.parse_rational(part)
            for part in text.split(",") if part.strip()]


def _checked_points(text: str, option: str) -> list[Fraction]:
    # a verdict over no points would rest on zero checks
    if ts := _rational_list(text):
        return ts
    raise ValueError(f"{option} lists no points")


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


def _point_verdicts(kind, ts, key, check):
    """Run ``check(t)`` at every point; exit 1 unless all of them hold."""
    results = [{"t": jsonio.rational_to_str(t), key: check(t)} for t in ts]
    all_ok = all(r[key] for r in results)
    payload = {
        "kind": jsonio.kind_to_json(kind),
        "results": results,
        f"all_{key}": all_ok,
    }
    return (EXIT_OK if all_ok else EXIT_CLAIM), payload


def cmd_verify_isotropy(args):
    kind = _kind_from_args(args)
    form = gram_matrix(kind)
    return _point_verdicts(
        kind, _checked_points(args.t, "--t"), "isotropic",
        lambda t: is_isotropic_flag(osculating_flag(kind, t), form))


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
    return _point_verdicts(
        kind, _checked_points(args.t, "--t"), "equal",
        lambda t: flags_equal(exp_translate_flag(kind, t),
                              osculating_flag(kind, t)))


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


def _sp4_flags(seed: int) -> list:
    """The four Sp(4) flags of ``--isotropic-sp4 --seed seed``."""
    rng = random.Random(seed)
    return [random_isotropic_flag(GroupKind.sp(2), rng.getrandbits(32))
            for _ in range(4)]


def cmd_solve_four_lines(args):
    if args.osculating == args.isotropic_sp4:
        raise ValueError("choose exactly one of --osculating or --isotropic-sp4")
    if args.osculating:
        if args.points is None:
            raise ValueError("--osculating requires --points")
        if args.seed is not None:
            raise ValueError("--seed is not used with --osculating")
        pts = _rational_list(args.points)
        if len(pts) != 4:
            raise ValueError("--points needs exactly four rational values")
        kind = GroupKind.sl(4)
        flags = [osculating_flag(kind, t) for t in pts]
        mode = {"mode": "osculating",
                "points": [jsonio.rational_to_str(t) for t in pts]}
    else:
        if args.points is not None:
            raise ValueError("--points is not used with --isotropic-sp4")
        seed = args.seed if args.seed is not None else 0
        flags = _sp4_flags(seed)
        mode = {"mode": "isotropic-sp4", "seed": seed}
    return _solve_and_certify(flags, mode)


def cmd_eh_check(args):
    k, m = args.k, args.m
    if not (1 <= k < m <= 8):
        raise ValueError("need 1 <= k < m <= 8")
    if not 1 <= args.samples <= MAX_EH_SAMPLES:
        raise ValueError(f"--samples must be between 1 and {MAX_EH_SAMPLES}")
    ts = _checked_points(args.points, "--points")
    rng = random.Random(args.seed)
    failures = []
    checked = 0
    for idx in range(args.samples):
        plane = random_plane(k, m, rng)
        W = _scaled_wronskian(plane)
        for t in ts:
            rep = _eh_report(plane, W, t)
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


def _json_int(value, field: str) -> int:
    # bool is a subclass of int; JSON true, 2.9 or "13" is no integer here
    if type(value) is not int:
        raise ValueError(f"{field} must be a JSON integer, got {json.dumps(value)}")
    return value


def _json_ints(value, field: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise ValueError(f"{field} must be a JSON array, got {json.dumps(value)}")
    return tuple(_json_int(x, f"{field}[{i}]") for i, x in enumerate(value))


def _json_object(value, field: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{field} must be a JSON object, got {json.dumps(value)}")
    return value


def cmd_dim_report(args):
    with open(args.problem_file, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            # the decoder recurses once per level of nesting
            raise ValueError(f"{args.problem_file} nests too deeply") from None
    data = _json_object(data, "the top level")
    # a missing key reads as null, so its error names its path too
    ambient = _json_object(data.get("ambient"), "ambient")
    m = _json_int(ambient.get("m"), "ambient.m")
    dims = _json_ints(ambient.get("dims"), "ambient.dims")
    dim = flag_manifold_dim(dims, m)
    conds = []
    entries = data.get("conditions", [])
    if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
        raise ValueError("conditions must be a JSON array of objects")
    for n, entry in enumerate(entries):
        if ("perm" in entry) == ("indices" in entry):
            raise ValueError(f"conditions[{n}] needs exactly one of 'perm' "
                             f"or 'indices': {json.dumps(entry)}")
        if "perm" in entry:
            conds.append(PermCondition(
                m, _json_ints(entry["perm"], f"conditions[{n}].perm"), dims))
        else:
            if len(dims) != 1:
                raise ValueError("index conditions need a single-step ambient")
            conds.append(SchubertCondition(
                dims[0], m, _json_ints(entry["indices"],
                                       f"conditions[{n}].indices")))
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
    padded = pad_to_zero_dimensional(conds, fresh, k=k, m=m)
    dim = k * (m - k)
    payload = {
        "k": k,
        "m": m,
        "expected_before": expected_dim_report([c for c, _ in conds], dim).expected,
        "expected_after": expected_dim_report([c for c, _ in padded], dim).expected,
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
    sub = parser.add_subparsers(dest="command", required=True)

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


_PARSER = build_parser()


def _render_plain(value, indent: int = 0) -> Iterator[str]:
    """Lines for an object (``key:``) or array (``-``): a non-empty object,
    or an array holding an object or array, nests one level deeper; any
    other value is one :func:`_leaf` on its label's line."""
    pad = "  " * indent
    items = ([(f"{key}:", val) for key, val in value.items()]
             if isinstance(value, dict) else [("-", val) for val in value])
    for label, val in items:
        if (isinstance(val, dict) and val) or (
                isinstance(val, list)
                and any(isinstance(x, (dict, list)) for x in val)):
            yield f"{pad}{label}"
            yield from _render_plain(val, indent + 1)
        else:
            yield f"{pad}{label} {_leaf(val)}"


def _leaf(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, list):
        return "[" + ", ".join(map(_leaf, v)) + "]"
    return str(v)  # an empty object prints {}


def _emit(payload, fmt: str) -> None:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # a QuadExt's int d prints in full
    try:
        sys.stdout.write(("\n".join(_render_plain(payload)) if fmt == "plain"
                          else json.dumps(payload, indent=2)) + "\n")
    finally:
        sys.set_int_max_str_digits(limit)


def _error(e: Exception) -> dict:
    return {"error": str(e), "error_type": type(e).__name__}


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        code, payload = args.handler(args)
    except UnsupportedGroup as e:
        code, payload = EXIT_UNSUPPORTED, _error(e)
    except (DegenerateConfiguration, InfinitelyMany, NotInCellInterior,
            NegativeExpectedDimension) as e:
        code, payload = EXIT_DEGENERATE, _error(e)
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as e:
        code, payload = EXIT_PARSE, _error(e)
    _emit(payload, args.format)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
