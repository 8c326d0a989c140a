"""Independent checker for the program's answers.

It imports nothing from supcone. The target polyhedron of each instance is
built straight from the instance data (member pieces, domains, declared
sublevel sets), the true normal cone at x is the cone of the rows tight at x,
and cone membership is decided exactly by Caratheodory enumeration: v lies in
cone(G) iff v is a nonnegative combination of some linearly independent
subset of G. Every dimension here is at most 4, so the enumeration is small.

Each check function returns a list of problems; an empty list means the
answer was verified.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

Vec = tuple[Fraction, ...]


def rat(v) -> Fraction:
    return Fraction(v) if not isinstance(v, Fraction) else v


def vec(v) -> Vec:
    return tuple(rat(c) for c in v)


def dot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def is_zero(v: Vec) -> bool:
    return all(c == 0 for c in v)


# --- exact linear algebra -----------------------------------------------------


def solve_columns(cols: list[Vec], v: Vec) -> list[Fraction] | None:
    """The unique lam with sum lam_j cols[j] = v when the columns are linearly
    independent and v lies in their span; None otherwise."""
    d, k = len(v), len(cols)
    m = [[cols[j][i] for j in range(k)] + [v[i]] for i in range(d)]
    row = 0
    pivots = []
    for c in range(k):
        p = next((r for r in range(row, d) if m[r][c] != 0), None)
        if p is None:
            return None  # dependent columns
        m[row], m[p] = m[p], m[row]
        piv = m[row][c]
        m[row] = [x / piv for x in m[row]]
        for r in range(d):
            if r != row and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        pivots.append(c)
        row += 1
    if any(m[r][k] != 0 for r in range(row, d)):
        return None  # v outside the span
    lam = [Fraction(0)] * k
    for r, c in enumerate(pivots):
        lam[c] = m[r][k]
    return lam


def in_cone(v: Vec, gens: list[Vec]) -> bool:
    """Exact membership of v in cone(gens) by Caratheodory enumeration."""
    if is_zero(v):
        return True
    gs = sorted({g for g in gens if not is_zero(g)})
    for size in range(1, min(len(gs), len(v)) + 1):
        for subset in itertools.combinations(gs, size):
            lam = solve_columns(list(subset), v)
            if lam is not None and all(c >= 0 for c in lam):
                return True
    return False


def cone_subset(a: list[Vec], b: list[Vec]) -> list[Vec]:
    """Generators of cone(a) that lie outside cone(b)."""
    return [r for r in a if not in_cone(r, b)]


# --- target polyhedra from instance data -------------------------------------


def _domain_rows(member: dict) -> list[tuple[Vec, Fraction]]:
    return [(vec(h["normal"]), rat(h["offset"])) for h in member.get("domain", [])]


def _pieces(member: dict) -> list[tuple[Vec, Fraction]]:
    if member["type"] == "affine":
        return [(vec(member["slope"]), rat(member["intercept"]))]
    return [(vec(p["slope"]), rat(p["intercept"])) for p in member["pieces"]]


def sublevel_rows(family: dict) -> list[tuple[Vec, Fraction]]:
    """[sup f_t <= 0]: every piece <a, y> + b <= 0, every domain row."""
    rows = []
    for m in family["members"]:
        if m["type"] != "improper":
            rows.extend((a, -b) for a, b in _pieces(m))
        rows.extend(_domain_rows(m))
    return rows


def domain_rows(family: dict) -> list[tuple[Vec, Fraction]]:
    """dom(sup f_t): the intersection of the member domains."""
    rows = []
    for m in family["members"]:
        rows.extend(_domain_rows(m))
    return rows


def qc_rows(members: list[dict]) -> list[tuple[Vec, Fraction]]:
    """Intersection of the declared zero-sublevel sets."""
    rows = []
    for m in members:
        rows.extend((vec(h["normal"]), rat(h["offset"])) for h in m["sublevel"])
    return rows


def normal_cone(rows: list[tuple[Vec, Fraction]], x: Vec) -> tuple[list[Vec], list[str]]:
    """(tight normals, problems): the normal cone of the row system at x."""
    bad = [f"x violates row {a}.y <= {b}" for a, b in rows if dot(a, x) > b]
    return [a for a, b in rows if dot(a, x) == b], bad


def _check_cone(label: str, got: list[Vec], truth: list[Vec], exact: bool) -> list[str]:
    problems = [f"{label}: ray {r} lies outside the normal cone" for r in cone_subset(got, truth)]
    if exact:
        problems += [f"{label}: normal {r} is missing from the claimed cone" for r in cone_subset(truth, got)]
    return problems


# --- per-answer checks --------------------------------------------------------


def check_sublevel(ans: dict) -> list[str]:
    """verify_formula_instance: formula inside the normal cone, equal when
    the verdict says equal, strictly inside when it says so, and the oracle
    cone equal to the independent one."""
    x = vec(ans["point"])
    truth, problems = normal_cone(sublevel_rows(ans["family"]), x)
    got = [vec(r) for r in ans["cone_rays"]]
    verdict = ans["verdict"]
    if verdict not in ("equal", "formula-strictly-inside"):
        problems.append(f"{ans['id']}: verdict {verdict}")
    problems += _check_cone(ans["id"], got, truth, verdict == "equal")
    if verdict == "formula-strictly-inside" and not cone_subset(truth, got):
        problems.append(f"{ans['id']}: verdict says strictly inside but the cones are equal")
    oracle = [vec(r) for r in ans["oracle_rays"]]
    problems += _check_cone(f"{ans['id']} oracle", oracle, truth, True)
    return problems


def check_intersection(ans: dict) -> list[str]:
    x = vec(ans["point"])
    truth, problems = normal_cone(sublevel_rows(ans["family"]), x)
    for k, res in enumerate(ans["results"]):
        label = f"{ans['id']} eps-list {k}"
        problems += _check_cone(label, [vec(r) for r in res["cone_rays"]], truth, True)
        if res["stabilized"] is not True:
            problems.append(f"{label}: not stabilized")
    return problems


def _f0(objective: dict, y: Vec) -> Fraction | None:
    """Objective value, None off its domain."""
    if any(dot(a, y) > b for a, b in _domain_rows(objective)):
        return None
    return max(dot(a, y) + b for a, b in _pieces(objective))


def check_optimal_record(inst: dict, rec: dict) -> list[str]:
    """Re-verify a check-optimal verdict from the record alone."""
    x = vec(inst["point"])
    obj = inst["objective"]
    rows = sublevel_rows(inst["family"])
    truth, problems = normal_cone(rows, x)
    fx = _f0(obj, x)
    if fx is None:
        return problems + ["candidate outside dom f0"]
    verdict = rec["verdict"]
    if verdict == "optimal":
        cert = rec.get("certificate")
        if cert is None:
            return problems + ["optimal verdict without a certificate"]
        pts = [(vec(v), rat(c)) for v, c in cert["point_coeffs"]]
        rys = [(vec(v), rat(c)) for v, c in cert["ray_coeffs"]]
        kcs = [(vec(v), rat(c)) for v, c in cert["cone_coeffs"]]
        d = len(x)
        if any(c < 0 for _, c in pts + rys + kcs):
            problems.append("negative certificate coefficient")
        if sum((c for _, c in pts), Fraction(0)) != 1:
            problems.append("point coefficients do not sum to one")
        g0 = tuple(sum((c * v[i] for v, c in pts + rys), Fraction(0)) for i in range(d))
        q = tuple(sum((c * v[i] for v, c in kcs), Fraction(0)) for i in range(d))
        if g0 != vec(cert["g0"]) or q != vec(cert["q"]):
            problems.append("coefficients do not rebuild g0 and q")
        if not is_zero(tuple(a + b for a, b in zip(g0, q))):
            problems.append("g0 + q is not zero")
        # d f0(x) = conv of the pieces active at x (the objective is
        # max-affine and x is interior to its domain): lift to a cone.
        active = [a + (Fraction(1),) for a, b in _pieces(obj) if dot(a, x) + b == fx]
        if any(dot(a, x) == b for a, b in _domain_rows(obj)) or not in_cone(g0 + (Fraction(1),), active):
            problems.append("g0 is not a subgradient of f0 at x")
        if not in_cone(q, truth):
            problems.append("q is outside the normal cone")
        return problems
    if verdict == "not-optimal":
        feasible = lambda y: all(dot(a, y) <= b for a, b in rows)
        if "improving_ray" in rec:
            r = vec(rec["improving_ray"])
            base = vec(rec["improving_point"]) if "improving_point" in rec else x
            descent = max(dot(a, r) for a, _ in _pieces(obj)) < 0
            recession = all(dot(a, r) <= 0 for a, _ in rows + _domain_rows(obj))
            if is_zero(r) or not (descent and recession and feasible(base)):
                problems.append("improving ray is not a feasible descent ray")
            return problems
        if "improving_point" in rec:
            y = vec(rec["improving_point"])
            fy = _f0(obj, y)
            if not feasible(y) or fy is None or not fy < fx:
                problems.append("improving point is not feasible and strictly better")
            elif "best_value" in rec and rat(rec["best_value"]) != fy:
                problems.append("best_value is not the objective at the improving point")
            return problems
        return problems + ["not-optimal verdict without evidence"]
    return problems + [f"verdict {verdict}"]


def circle_normal(u: Fraction) -> Vec:
    den = 1 + u * u
    return ((1 - u * u) / den, 2 * u / den)


def check_sip_record(inst: dict, rec: dict) -> list[str]:
    problems = []
    res = [rat(r) for r in rec["residuals"]]
    if any(b > a for a, b in zip(res, res[1:])):
        problems.append("residuals increase")
    if not res or res[-1] > Fraction(1, 10**6):
        problems.append("final residual above 1e-6")
    if rec["verdict"] != "optimal":
        return problems + [f"verdict {rec['verdict']}"]
    x, cost = vec(inst["point"]), vec(inst["cost"])
    total = [Fraction(0)] * len(x)
    for u, m in rec.get("multipliers", []):
        u, m = rat(u), rat(m)
        a = circle_normal(u)
        if m < 0 or dot(a, x) != 1:
            problems.append(f"multiplier at u={u} is negative or its constraint is not active")
        total = [t + m * c for t, c in zip(total, a)]
    if tuple(total) != tuple(-c for c in cost):
        problems.append("multipliers do not reproduce -cost")
    return problems


def check_cli_record(command: str, inst: dict, rec: dict) -> list[str]:
    """A machine record of one cli call against its instance file."""
    if command in ("check-optimal", "check-sip"):
        check = check_optimal_record if command == "check-optimal" else check_sip_record
        return [f"{inst['id']}: {p}" for p in check(inst, rec)]
    x = vec(inst["point"])
    if command == "normal-cone":
        rows = sublevel_rows(inst["family"])
    elif command == "dom-cone":
        rows = domain_rows(inst["family"])
    else:
        rows = qc_rows(inst["members"])
    truth, problems = normal_cone(rows, x)
    if rec.get("verdict") != "equal" or rec.get("exact") is not True:
        problems.append(f"{inst['id']}: verdict {rec.get('verdict')} exact {rec.get('exact')}")
    problems += _check_cone(inst["id"], [vec(r) for r in rec["cone_rays"]], truth, True)
    problems += _check_cone(f"{inst['id']} oracle", [vec(r) for r in rec["oracle_rays"]], truth, True)
    return problems


def check_answer(ans: dict) -> list[str]:
    if ans["kind"] == "sublevel":
        return check_sublevel(ans)
    if ans["kind"] == "intersection":
        return check_intersection(ans)
    with open(ans["instance"], encoding="utf-8") as fh:
        inst = json.load(fh)
    with open(ans["out"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) != 1:
        return [f"{ans['out']}: expected one record, got {len(lines)}"]
    return check_cli_record(ans["command"], inst, json.loads(lines[0]))
