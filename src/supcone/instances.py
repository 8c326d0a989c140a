"""Strict JSON instance files.

Every instance is one JSON object with a format_version, a kind, an id, and
kind-specific payload. Parsing is strict: unknown fields, missing fields, or
wrong types fail with the JSON path of the offending field. Rationals are
written as integers or strings "p", "p/q" or decimals "1.25"; floats and
exponents ("1e3") are rejected to keep the toolkit exact end to end and
the size of a value bounded by the size of its text.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .errors import InputError
from .formulas import (
    AffineComposed1D,
    QCMember,
    SGrid,
    SmoothQCMember,
    SublevelOracleQC,
    SupFamily,
)
from .functions import (
    Affine1,
    AffinePiece,
    ImproperFunction,
    PolyhedralFunction,
    QuasiConvex1D,
)
from .geometry import HalfSpace, PolyhedronH, Vec, format_rat, parse_rat, polyhedron, whole_space
from .optimality import (
    CircleSampler,
    LinearSIPInstance,
    ProgramInstance,
    QCProgram,
    Qualification,
)

FORMAT_VERSION = 1

KINDS = ("normal-cone", "dom-cone", "qc", "check-optimal", "check-sip", "qc-necessary")


def _fail(path: str, msg: str) -> None:
    raise InputError(f"{path}: {msg}")


def _as_obj(v, path: str) -> dict:
    if not isinstance(v, dict):
        _fail(path, f"expected an object, got {type(v).__name__}")
    return v


def _as_list(v, path: str) -> list:
    if not isinstance(v, list):
        _fail(path, f"expected an array, got {type(v).__name__}")
    return v


def _as_str(v, path: str) -> str:
    if not isinstance(v, str):
        _fail(path, f"expected a string, got {type(v).__name__}")
    return v


def _as_int(v, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(path, f"expected an integer, got {type(v).__name__}")
    return v


def _as_rat(v, path: str) -> Fraction:
    if isinstance(v, bool):
        _fail(path, "expected a rational, got a boolean")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        _fail(path, "floats are not accepted; write rationals as \"p/q\" strings")
    if isinstance(v, str):
        try:
            return parse_rat(v)
        except (ValueError, ZeroDivisionError):
            _fail(path, f"malformed rational {v!r}")
    _fail(path, f"expected a rational, got {type(v).__name__}")


def _as_vec(v, path: str, dim: int | None = None) -> Vec:
    arr = _as_list(v, path)
    out = tuple(_as_rat(c, f"{path}[{i}]") for i, c in enumerate(arr))
    if dim is not None and len(out) != dim:
        _fail(path, f"expected {dim} coordinates, got {len(out)}")
    return out


def _check_keys(obj: dict, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    for k in obj:
        if k not in required and k not in optional:
            _fail(f"{path}.{k}", "unknown field")
    for k in required:
        if k not in obj:
            _fail(f"{path}.{k}", "missing required field")


def _parse_halfspaces(v, path: str, dim: int) -> list[HalfSpace]:
    out = []
    for i, h in enumerate(_as_list(v, path)):
        hp = f"{path}[{i}]"
        obj = _as_obj(h, hp)
        _check_keys(obj, hp, ("normal", "offset"))
        out.append(HalfSpace(_as_vec(obj["normal"], f"{hp}.normal", dim), _as_rat(obj["offset"], f"{hp}.offset")))
    return out


def _parse_domain(obj: dict, path: str, dim: int) -> PolyhedronH:
    if "domain" not in obj:
        return whole_space(dim)
    return polyhedron(dim, _parse_halfspaces(obj["domain"], f"{path}.domain", dim))


def _parse_member(v, path: str, dim: int):
    obj = _as_obj(v, path)
    t = _as_str(obj.get("type"), f"{path}.type") if "type" in obj else _fail(f"{path}.type", "missing required field")
    if t == "affine":
        _check_keys(obj, path, ("type", "slope", "intercept"))
        slope = _as_vec(obj["slope"], f"{path}.slope", dim)
        return PolyhedralFunction(dim, (AffinePiece(slope, _as_rat(obj["intercept"], f"{path}.intercept")),), whole_space(dim))
    if t == "max-affine":
        _check_keys(obj, path, ("type", "pieces"), ("domain",))
        pieces = []
        for i, p in enumerate(_as_list(obj["pieces"], f"{path}.pieces")):
            pp = f"{path}.pieces[{i}]"
            pobj = _as_obj(p, pp)
            _check_keys(pobj, pp, ("slope", "intercept"))
            pieces.append(AffinePiece(_as_vec(pobj["slope"], f"{pp}.slope", dim), _as_rat(pobj["intercept"], f"{pp}.intercept")))
        if not pieces:
            _fail(f"{path}.pieces", "needs at least one piece")
        return PolyhedralFunction(dim, tuple(pieces), _parse_domain(obj, path, dim))
    if t == "improper":
        _check_keys(obj, path, ("type", "domain"))
        return ImproperFunction(dim, _parse_domain(obj, path, dim))
    _fail(f"{path}.type", f"unknown member type {t!r}")


def parse_family(v, path: str) -> SupFamily:
    obj = _as_obj(v, path)
    _check_keys(obj, path, ("dim", "members"))
    dim = _as_int(obj["dim"], f"{path}.dim")
    if dim < 1:
        _fail(f"{path}.dim", "dimension must be positive")
    members = []
    for i, m in enumerate(_as_list(obj["members"], f"{path}.members")):
        mp = f"{path}.members[{i}]"
        mobj = _as_obj(m, mp)
        if "id" not in mobj:
            _fail(f"{mp}.id", "missing required field")
        ident = _as_str(mobj["id"], f"{mp}.id")
        rest = {k: v2 for k, v2 in mobj.items() if k != "id"}
        members.append((ident, _parse_member(rest, mp, dim)))
    return SupFamily(dim, tuple(members))


def _parse_profile(v, path: str) -> QuasiConvex1D:
    obj = _as_obj(v, path)
    _check_keys(obj, path, ("breakpoints", "pieces", "values"))
    bps = tuple(_as_rat(b, f"{path}.breakpoints[{i}]") for i, b in enumerate(_as_list(obj["breakpoints"], f"{path}.breakpoints")))
    pieces = []
    for i, p in enumerate(_as_list(obj["pieces"], f"{path}.pieces")):
        pp = f"{path}.pieces[{i}]"
        if p is None:
            pieces.append(None)
            continue
        pobj = _as_obj(p, pp)
        _check_keys(pobj, pp, ("slope", "intercept"))
        pieces.append(Affine1(_as_rat(pobj["slope"], f"{pp}.slope"), _as_rat(pobj["intercept"], f"{pp}.intercept")))
    values = []
    for i, val in enumerate(_as_list(obj["values"], f"{path}.values")):
        values.append(None if val is None else _as_rat(val, f"{path}.values[{i}]"))
    return QuasiConvex1D(bps, tuple(pieces), tuple(values))


def parse_qc_members(v, path: str, dim: int) -> SublevelOracleQC:
    members = []
    for i, m in enumerate(_as_list(v, path)):
        mp = f"{path}[{i}]"
        obj = _as_obj(m, mp)
        if "type" not in obj:
            _fail(f"{mp}.type", "missing required field")
        t = _as_str(obj["type"], f"{mp}.type")
        if t == "smooth":
            _check_keys(obj, mp, ("type", "id", "direction", "shift", "coeffs", "root"), ("sublevel",))
            ev = SmoothQCMember(
                _as_vec(obj["direction"], f"{mp}.direction", dim),
                _as_rat(obj["shift"], f"{mp}.shift"),
                tuple(_as_rat(c, f"{mp}.coeffs[{j}]") for j, c in enumerate(_as_list(obj["coeffs"], f"{mp}.coeffs"))),
                _as_rat(obj["root"], f"{mp}.root"),
            )
            if "sublevel" in obj:
                sub = polyhedron(dim, _parse_halfspaces(obj["sublevel"], f"{mp}.sublevel", dim))
            else:
                sub = ev.zero_sublevel()
        elif t == "profile":
            _check_keys(obj, mp, ("type", "id", "direction", "shift", "profile", "sublevel"))
            ev = AffineComposed1D(
                _as_vec(obj["direction"], f"{mp}.direction", dim),
                _as_rat(obj["shift"], f"{mp}.shift"),
                _parse_profile(obj["profile"], f"{mp}.profile"),
            )
            sub = polyhedron(dim, _parse_halfspaces(obj["sublevel"], f"{mp}.sublevel", dim))
        else:
            _fail(f"{mp}.type", f"unknown member type {t!r}")
        members.append(QCMember(_as_str(obj["id"], f"{mp}.id"), sub, ev))
    return SublevelOracleQC(dim, tuple(members))


def _parse_objective(v, path: str, dim: int) -> PolyhedralFunction:
    fn = _parse_member(v, path, dim)
    if not isinstance(fn, PolyhedralFunction):
        _fail(path, "the objective must be a proper polyhedral function")
    return fn


def parse_instance(data: Any, path: str = "$"):
    """Parse one instance object into (kind, id, payload dict)."""
    obj = _as_obj(data, path)
    if "format_version" not in obj:
        _fail(f"{path}.format_version", "missing required field")
    ver = _as_int(obj["format_version"], f"{path}.format_version")
    if ver != FORMAT_VERSION:
        _fail(f"{path}.format_version", f"unsupported version {ver}, expected {FORMAT_VERSION}")
    if "kind" not in obj:
        _fail(f"{path}.kind", "missing required field")
    kind = _as_str(obj["kind"], f"{path}.kind")
    if kind not in KINDS:
        _fail(f"{path}.kind", f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
    if "id" not in obj:
        _fail(f"{path}.id", "missing required field")
    ident = _as_str(obj["id"], f"{path}.id")
    common = ("format_version", "kind", "id")
    if kind == "normal-cone":
        _check_keys(obj, path, common + ("family", "point"), ("epsilon",))
        fam = parse_family(obj["family"], f"{path}.family")
        payload = {
            "family": fam,
            "point": _as_vec(obj["point"], f"{path}.point", fam.dim),
            "epsilon": _as_rat(obj["epsilon"], f"{path}.epsilon") if "epsilon" in obj else None,
        }
    elif kind == "dom-cone":
        _check_keys(obj, path, common + ("family", "point"), ("epsilon",))
        fam = parse_family(obj["family"], f"{path}.family")
        payload = {
            "family": fam,
            "point": _as_vec(obj["point"], f"{path}.point", fam.dim),
            "epsilon": _as_rat(obj["epsilon"], f"{path}.epsilon") if "epsilon" in obj else None,
        }
    elif kind == "qc":
        _check_keys(obj, path, common + ("dim", "members", "point"), ("epsilon",))
        dim = _as_int(obj["dim"], f"{path}.dim")
        qc = parse_qc_members(obj["members"], f"{path}.members", dim)
        payload = {
            "qc": qc,
            "point": _as_vec(obj["point"], f"{path}.point", dim),
            "epsilon": _as_rat(obj["epsilon"], f"{path}.epsilon") if "epsilon" in obj else None,
        }
    elif kind == "check-optimal":
        _check_keys(obj, path, common + ("objective", "family", "point", "qualification"), ("epsilon",))
        fam = parse_family(obj["family"], f"{path}.family")
        qp = f"{path}.qualification"
        qobj = _as_obj(obj["qualification"], qp)
        _check_keys(qobj, qp, ("kind", "witness"))
        qual = Qualification(
            _as_str(qobj["kind"], f"{qp}.kind"),
            _as_vec(qobj["witness"], f"{qp}.witness", fam.dim),
        )
        payload = {
            "program": ProgramInstance(
                _parse_objective(obj["objective"], f"{path}.objective", fam.dim),
                fam,
                _as_vec(obj["point"], f"{path}.point", fam.dim),
                qual,
            ),
            "epsilon": _as_rat(obj["epsilon"], f"{path}.epsilon") if "epsilon" in obj else None,
        }
    elif kind == "qc-necessary":
        _check_keys(obj, path, common + ("dim", "objective", "members", "point"), ("epsilon",))
        dim = _as_int(obj["dim"], f"{path}.dim")
        qc = parse_qc_members(obj["members"], f"{path}.members", dim)
        payload = {
            "program": QCProgram(
                _parse_objective(obj["objective"], f"{path}.objective", dim),
                qc,
                _as_vec(obj["point"], f"{path}.point", dim),
            ),
            "epsilon": _as_rat(obj["epsilon"], f"{path}.epsilon") if "epsilon" in obj else None,
        }
    else:  # check-sip
        _check_keys(obj, path, common + ("dim", "cost", "point"), ("constraints", "sampler", "levels"))
        dim = _as_int(obj["dim"], f"{path}.dim")
        cost = _as_vec(obj["cost"], f"{path}.cost", dim)
        point = _as_vec(obj["point"], f"{path}.point", dim)
        constraints = None
        sampler = None
        if "constraints" in obj:
            rows = []
            for i, r in enumerate(_as_list(obj["constraints"], f"{path}.constraints")):
                rp = f"{path}.constraints[{i}]"
                robj = _as_obj(r, rp)
                _check_keys(robj, rp, ("normal", "offset"))
                rows.append((_as_vec(robj["normal"], f"{rp}.normal", dim), _as_rat(robj["offset"], f"{rp}.offset")))
            constraints = tuple(rows)
        if "sampler" in obj:
            name = _as_str(obj["sampler"], f"{path}.sampler")
            if name != "circle":
                _fail(f"{path}.sampler", f"unknown sampler {name!r}")
            sampler = CircleSampler()
        if "levels" in obj and sampler is None:
            _fail(f"{path}.levels", "levels only apply to sampler instances")
        levels = (4, 5, 6, 7, 8, 9, 10)
        if "levels" in obj:
            levels = tuple(_as_int(l, f"{path}.levels[{i}]") for i, l in enumerate(_as_list(obj["levels"], f"{path}.levels")))
        payload = {
            "sip": LinearSIPInstance(dim, cost, point, constraints=constraints, sampler=sampler, levels=levels)
            if sampler is not None
            else LinearSIPInstance(dim, cost, point, constraints=constraints),
        }
    return kind, ident, payload


def load_instance(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"instance file not found: {path}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}")
    return parse_instance(data)


def parse_grid_spec(spec: str) -> SGrid:
    """"BASE:MIN:MAX" for a geometric grid, or a comma list of rationals."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise InputError("grid spec must be BASE:MIN_EXP:MAX_EXP or a comma list")
        try:
            base, lo, hi = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise InputError(f"malformed grid spec {spec!r}")
        return SGrid.geometric(base, lo, hi)
    try:
        values = [parse_rat(tok) for tok in spec.split(",") if tok.strip()]
    except (ValueError, ZeroDivisionError):
        raise InputError(f"malformed grid spec {spec!r}")
    if not values:
        raise InputError("grid spec is empty")
    return SGrid.from_values(values)


# --- serialization (for generated instance files) ---------------------------


def _rat_json(q: Fraction):
    return q.numerator if q.denominator == 1 else format_rat(q)


def _vec_json(v: Vec) -> list:
    return [_rat_json(c) for c in v]


def _halfspaces_json(poly: PolyhedronH) -> list:
    return [{"normal": _vec_json(h.normal), "offset": _rat_json(h.offset)} for h in poly.halfspaces]


def _member_json(ident: str, f) -> dict:
    if isinstance(f, ImproperFunction):
        return {"id": ident, "type": "improper", "domain": _halfspaces_json(f.domain)}
    out = {
        "id": ident,
        "type": "max-affine",
        "pieces": [
            {"slope": _vec_json(p.slope), "intercept": _rat_json(p.intercept)} for p in f.pieces
        ],
    }
    if f.domain.halfspaces:
        out["domain"] = _halfspaces_json(f.domain)
    return out


def family_json(family: SupFamily) -> dict:
    return {
        "dim": family.dim,
        "members": [_member_json(i, f) for i, f in family.members],
    }


def qc_members_json(qc: SublevelOracleQC) -> list:
    out = []
    for m in qc.members:
        ev = m.evaluator
        if isinstance(ev, SmoothQCMember):
            out.append(
                {
                    "type": "smooth",
                    "id": m.ident,
                    "direction": _vec_json(ev.direction),
                    "shift": _rat_json(ev.shift),
                    "coeffs": [_rat_json(c) for c in ev.coeffs],
                    "root": _rat_json(ev.root),
                    "sublevel": _halfspaces_json(m.sublevel),
                }
            )
        else:
            prof = ev.profile
            out.append(
                {
                    "type": "profile",
                    "id": m.ident,
                    "direction": _vec_json(ev.direction),
                    "shift": _rat_json(ev.shift),
                    "profile": {
                        "breakpoints": [_rat_json(b) for b in prof.breakpoints],
                        "pieces": [
                            None if p is None else {"slope": _rat_json(p.slope), "intercept": _rat_json(p.intercept)}
                            for p in prof.interval_pieces
                        ],
                        "values": [None if v is None else _rat_json(v) for v in prof.breakpoint_values],
                    },
                    "sublevel": _halfspaces_json(m.sublevel),
                }
            )
    return out


def instance_json(kind: str, ident: str, **payload) -> dict:
    """Build a serializable instance object; inverse of parse_instance."""
    out: dict[str, Any] = {"format_version": FORMAT_VERSION, "kind": kind, "id": ident}
    if kind in ("normal-cone", "dom-cone"):
        out["family"] = family_json(payload["family"])
        out["point"] = _vec_json(payload["point"])
    elif kind == "qc":
        qc = payload["qc"]
        out["dim"] = qc.dim
        out["members"] = qc_members_json(qc)
        out["point"] = _vec_json(payload["point"])
    elif kind == "check-optimal":
        prog = payload["program"]
        out["objective"] = {
            k: v for k, v in _member_json("f0", prog.objective).items() if k != "id"
        }
        out["family"] = family_json(prog.family)
        out["point"] = _vec_json(prog.point)
        out["qualification"] = {
            "kind": prog.qualification.kind,
            "witness": _vec_json(prog.qualification.witness),
        }
    elif kind == "qc-necessary":
        prog = payload["program"]
        out["dim"] = prog.constraints.dim
        out["objective"] = {
            k: v for k, v in _member_json("f0", prog.objective).items() if k != "id"
        }
        out["members"] = qc_members_json(prog.constraints)
        out["point"] = _vec_json(prog.point)
    elif kind == "check-sip":
        sip = payload["sip"]
        out["dim"] = sip.dim
        out["cost"] = _vec_json(sip.cost)
        out["point"] = _vec_json(sip.point)
        if sip.constraints is not None:
            out["constraints"] = [
                {"normal": _vec_json(a), "offset": _rat_json(b)} for a, b in sip.constraints
            ]
        else:
            out["sampler"] = "circle"
            out["levels"] = list(sip.levels)
    else:
        raise InputError(f"unknown kind {kind!r}")
    if payload.get("epsilon") is not None:
        out["epsilon"] = _rat_json(payload["epsilon"])
    return out
