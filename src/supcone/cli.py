"""Command line interface.

Exit codes: 0 on success, 1 when a verification reports a violation (or the
suite has failures), 2 on malformed input, unmet preconditions or a file that
cannot be read or written, 3 when an operation is refused or ends
inconclusive, 4 when an internal cross-check fails (a bug, never bad input).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import instances, reports
from .errors import InputError, InternalCheckError, RefusedError, SizingError
from .formulas import (
    dom_sup_normal_cone,
    qc_sublevel_normal_cone,
    strict_sublevel_normal_cone,
    sublevel_normal_cone_formula,
)
from .generate import (
    random_affine_family,
    random_dom_family,
    random_max_affine_family,
    random_program,
    random_qc_instance,
)
from .geometry import parse_rat
from .optimality import (
    check_necessary_qc,
    check_optimal_convex,
    check_sip_linear,
    verify_certificate,
)
from .oracle import EQUAL, VIOLATION, verify_result

_GEN_KINDS = ("affine", "max-affine", "dom", "qc", "program")


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the report to this file instead of stdout")
    p.add_argument("--format", default="human", choices=reports.FORMATS)


def _add_cone_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epsilon", help="rational eps, overrides the instance file")
    p.add_argument("--s-grid", help="scaling grid: BASE:MIN_EXP:MAX_EXP or a comma list")
    p.add_argument("--mode", default="auto", choices=("auto", "exact-affine", "sampled"))
    p.add_argument(
        "--no-verify", action="store_true",
        help="skip the cross-check against the polyhedral oracle",
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no state
    between calls, and every call gets a fresh namespace."""
    ap = argparse.ArgumentParser(
        prog="supcone",
        description="Exact normal cones to sublevel sets of function suprema, "
        "with oracle cross-checks and optimality certificates.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normal-cone", help="normal cone to [sup f_t <= 0] at a point")
    p.add_argument("instance")
    p.add_argument(
        "--strict", action="store_true",
        help="treat the set as cl[sup f_t < 0]; refuses without a Slater point",
    )
    _add_cone_flags(p)
    _add_io_flags(p)

    p = sub.add_parser("dom-cone", help="normal cone to dom(sup f_t) at a point")
    p.add_argument("instance")
    p.add_argument("--epsilon", help="rational eps, overrides the instance file")
    p.add_argument("--alpha", default="reach", choices=("reach", "ones"))
    p.add_argument("--no-verify", action="store_true")
    _add_io_flags(p)

    p = sub.add_parser("qc", help="normal cone for quasi-convex sublevel families")
    p.add_argument("instance")
    p.add_argument("--epsilon", help="rational eps, overrides the instance file")
    p.add_argument("--no-verify", action="store_true")
    _add_io_flags(p)

    p = sub.add_parser("check-optimal", help="optimality certificate for a convex program")
    p.add_argument("instance")
    p.add_argument("--epsilon", help="rational eps, overrides the instance file")
    p.add_argument("--s-grid", help="scaling grid for the constraint cone")
    p.add_argument("--mode", default="auto", choices=("auto", "exact-affine", "sampled"))
    _add_io_flags(p)

    p = sub.add_parser("check-sip", help="optimality test for linear semi-infinite programs")
    p.add_argument("instance")
    _add_io_flags(p)

    p = sub.add_parser("suite", help="run the curated verification suite")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--mutate", nargs="?", const="first", default=None, metavar="CASE",
        help="tamper one computed cone to prove violations are caught",
    )
    _add_io_flags(p)

    p = sub.add_parser("gen", help="write seeded instance files")
    p.add_argument("kind", choices=_GEN_KINDS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--out-dir", default=".")
    return ap


def _epsilon_of(args, payload) -> Fraction:
    if args.epsilon is not None:
        try:
            return parse_rat(args.epsilon)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"malformed --epsilon {args.epsilon!r}")
    if payload.get("epsilon") is not None:
        return payload["epsilon"]
    raise InputError("no epsilon: pass --epsilon or put one in the instance file")


def _grid_of(args):
    spec = getattr(args, "s_grid", None)
    return instances.parse_grid_spec(spec) if spec else None


def _emit(records: list[dict], args) -> None:
    reports.write_report(reports.render(records, args.format), args.out)


def _emit_cone(args, kind: str, ident: str, res, family, point, which: str) -> int:
    """Verify the computed res unless --no-verify, then report it."""
    verification = None
    if not args.no_verify:
        verification = verify_result(res, family, point, which=which, instance_id=ident)
        res = res.with_oracle_agreement(verification.verdict == EQUAL)
    _emit([reports.cone_result_record(kind, ident, res, verification)], args)
    return 1 if verification is not None and verification.verdict == VIOLATION else 0


def _cmd_normal_cone(args) -> int:
    kind, ident, payload = instances.load_instance(args.instance)
    if kind != "normal-cone":
        raise InputError(f"expected a normal-cone instance, got {kind}")
    eps = _epsilon_of(args, payload)
    compute = strict_sublevel_normal_cone if args.strict else sublevel_normal_cone_formula
    # a verification builds the oracle cone anyway, so the formula does not
    # certify itself unless --no-verify skips it
    res = compute(
        payload["family"], payload["point"], eps, grid=_grid_of(args), mode=args.mode,
        certify=args.no_verify,
    )
    # --strict refuses without a Slater point, and with one cl[sup f_t < 0]
    # is [sup f_t <= 0], so both forms are judged against the same oracle set
    return _emit_cone(
        args, "normal-cone", ident, res, payload["family"], payload["point"], "sublevel"
    )


def _cmd_dom_cone(args) -> int:
    kind, ident, payload = instances.load_instance(args.instance)
    if kind != "dom-cone":
        raise InputError(f"expected a dom-cone instance, got {kind}")
    eps = _epsilon_of(args, payload)
    alpha = None if args.alpha == "reach" else "ones"
    res = dom_sup_normal_cone(payload["family"], payload["point"], eps, alpha=alpha)
    return _emit_cone(args, "dom-cone", ident, res, payload["family"], payload["point"], "dom")


def _cmd_qc(args) -> int:
    kind, ident, payload = instances.load_instance(args.instance)
    if kind != "qc":
        raise InputError(f"expected a qc instance, got {kind}")
    eps = _epsilon_of(args, payload)
    res = qc_sublevel_normal_cone(payload["qc"], payload["point"], eps)
    return _emit_cone(args, "qc-cone", ident, res, payload["qc"], payload["point"], "qc")


def _cmd_check_optimal(args) -> int:
    kind, ident, payload = instances.load_instance(args.instance)
    if kind == "check-optimal":
        eps = _epsilon_of(args, payload)
        rep = check_optimal_convex(
            payload["program"], eps, grid=_grid_of(args), mode=args.mode
        )
        rec = reports.optimality_record(ident, rep)
        if rep.certificate is not None:
            rec["certificate_ok"] = verify_certificate(payload["program"], rep.certificate)
    elif kind == "qc-necessary":
        eps = _epsilon_of(args, payload)
        rep = check_necessary_qc(payload["program"], eps)
        rec = reports.qc_necessary_record(ident, rep)
    else:
        raise InputError(f"expected a check-optimal or qc-necessary instance, got {kind}")
    _emit([rec], args)
    return 3 if rep.verdict == "inconclusive" else 0


def _cmd_check_sip(args) -> int:
    kind, ident, payload = instances.load_instance(args.instance)
    if kind != "check-sip":
        raise InputError(f"expected a check-sip instance, got {kind}")
    rep = check_sip_linear(payload["sip"])
    _emit([reports.sip_record(ident, rep)], args)
    return 3 if rep.verdict == "inconclusive" else 0


def _cmd_suite(args) -> int:
    from .suites import run_suite

    records, failures = run_suite(seed=args.seed, mutate=args.mutate)
    _emit(records, args)
    return 1 if failures else 0


def _cmd_gen(args) -> int:
    if args.count < 1:
        raise InputError("--count must be positive")
    import random

    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create --out-dir {args.out_dir}: {exc.strerror or exc}")
    written = []
    for i in range(args.count):
        rng = random.Random(args.seed * 1000003 + i)
        ident = f"{args.kind}-{args.seed}-{i}"
        if args.kind == "affine":
            g = random_affine_family(rng)
            doc = instances.instance_json(
                "normal-cone", ident, family=g.family, point=g.point, epsilon=g.epsilon
            )
        elif args.kind == "max-affine":
            g = random_max_affine_family(rng)
            doc = instances.instance_json(
                "normal-cone", ident, family=g.family, point=g.point, epsilon=g.epsilon
            )
        elif args.kind == "dom":
            g = random_dom_family(rng)
            doc = instances.instance_json(
                "dom-cone", ident, family=g.family, point=g.point, epsilon=g.epsilon
            )
        elif args.kind == "qc":
            g = random_qc_instance(rng)
            doc = instances.instance_json(
                "qc", ident, qc=g.qc, point=g.point, epsilon=g.epsilon
            )
        else:
            g = random_program(rng)
            doc = instances.instance_json(
                "check-optimal", ident, program=g.program, epsilon=g.epsilon
            )
        path = os.path.join(args.out_dir, f"{ident}.json")
        try:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc.strerror or exc}")
        written.append(path)
    for p in written:
        print(p)
    return 0


_COMMANDS = {
    "normal-cone": _cmd_normal_cone,
    "dom-cone": _cmd_dom_cone,
    "qc": _cmd_qc,
    "check-optimal": _cmd_check_optimal,
    "check-sip": _cmd_check_sip,
    "suite": _cmd_suite,
    "gen": _cmd_gen,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (RefusedError, SizingError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
