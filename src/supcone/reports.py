"""Result records and report rendering.

A record is one flat JSON-safe dict describing one finished computation.
Machine output is JSON lines with sorted keys; the same inputs always render
to the same bytes, so records carry no timing and no environment data.
"""

from __future__ import annotations

import json

from .errors import InputError
from .formulas import CcReport, FormulaResult, FrechetCone, InclusionReport, IntersectionResult
from .geometry import ConeGen, Vec, format_rat
from .optimality import Certificate, OptimalityReport, QCOptimalityReport, SipReport
from .oracle import VerificationReport

FORMATS = ("human", "machine", "csv")


def vec_text(v: Vec) -> list[str]:
    return [format_rat(c) for c in v]


def rays_text(cone: ConeGen) -> list[list[str]]:
    return [vec_text(r) for r in cone.rays]


def _pairs_text(pairs) -> list[list]:
    return [[vec_text(v), format_rat(c)] for v, c in pairs]


def certificate_record(cert: Certificate) -> dict:
    return {
        "g0": vec_text(cert.g0),
        "q": vec_text(cert.q),
        "point_coeffs": _pairs_text(cert.point_coeffs),
        "ray_coeffs": _pairs_text(cert.ray_coeffs),
        "cone_coeffs": _pairs_text(cert.cone_coeffs),
    }


def cone_result_record(kind: str, ident: str, res: FormulaResult, verification: VerificationReport | None = None) -> dict:
    rec = {
        "kind": kind,
        "id": ident,
        "epsilon": format_rat(res.epsilon),
        "mode": res.mode,
        "exact": res.exact,
        "cone_rays": rays_text(res.cone),
    }
    if res.grid is not None:
        rec["grid"] = [format_rat(s) for s in res.grid.values]
    if res.grid_stable is not None:
        rec["grid_stable"] = res.grid_stable
    if res.oracle_agrees is not None:
        rec["oracle_agrees"] = res.oracle_agrees
    if verification is not None:
        rec["verdict"] = verification.verdict
        rec["oracle_rays"] = rays_text(verification.oracle_cone)
        if verification.witness is not None:
            rec["witness"] = vec_text(verification.witness)
    return rec


def intersection_record(ident: str, res: IntersectionResult) -> dict:
    return {
        "kind": "normal-cone-intersection",
        "id": ident,
        "cone_rays": rays_text(res.cone),
        "stabilized": res.stabilized,
        "epsilons": [format_rat(r.epsilon) for r in res.per_eps],
    }


def cc_record(ident: str, rep: CcReport) -> dict:
    rec = {
        "kind": "cc-check",
        "id": ident,
        "verdict": rep.verdict,
        "cc2_holds": rep.cc2_holds,
        "cc3_holds": rep.cc3_holds,
    }
    if rep.witness is not None:
        w = rep.witness
        rec["witness"] = vec_text(w) if isinstance(w, tuple) else format_rat(w)
    return rec


def frechet_record(ident: str, fc: FrechetCone, contains_qc: bool | None = None) -> dict:
    rec = {
        "kind": "frechet-outer",
        "id": ident,
        "cone_rays": rays_text(fc.cone),
        "lattice_points": fc.lattice_points,
        "gradient_hits": fc.gradient_hits,
    }
    if contains_qc is not None:
        rec["contains_qc_cone"] = contains_qc
    return rec


def inclusion_record(ident: str, rep: InclusionReport) -> dict:
    return {
        "kind": "inclusion-witness",
        "id": ident,
        "rho": format_rat(rep.rho),
        "all_found": rep.all_found,
        "witnesses": [
            {
                "generator": vec_text(w.generator),
                "y": vec_text(w.y),
                "lambda": format_rat(w.lam),
                "u": vec_text(w.u),
                "p": vec_text(w.p),
                "distance": format_rat(w.distance),
            }
            for w in rep.witnesses
        ],
        "unresolved": [vec_text(g) for g in rep.unresolved],
    }


def optimality_record(ident: str, rep: OptimalityReport) -> dict:
    rec = {
        "kind": "check-optimal",
        "id": ident,
        "verdict": rep.verdict,
        "epsilon": format_rat(rep.epsilon),
    }
    if rep.certificate is not None:
        rec["certificate"] = certificate_record(rep.certificate)
    if rep.objective_at_point is not None:
        rec["objective_at_point"] = format_rat(rep.objective_at_point)
    if rep.best_value is not None:
        rec["best_value"] = format_rat(rep.best_value)
    if rep.improving_point is not None:
        rec["improving_point"] = vec_text(rep.improving_point)
    if rep.improving_ray is not None:
        rec["improving_ray"] = vec_text(rep.improving_ray)
    return rec


def sip_record(ident: str, rep: SipReport) -> dict:
    rec = {
        "kind": "check-sip",
        "id": ident,
        "verdict": rep.verdict,
        "levels": list(rep.levels),
        "residuals": [format_rat(r) for r in rep.residuals],
    }
    if rep.multipliers is not None:
        rec["multipliers"] = [[format_rat(u), format_rat(m)] for u, m in rep.multipliers]
    if rep.improving_ray is not None:
        rec["improving_ray"] = vec_text(rep.improving_ray)
    return rec


def qc_necessary_record(ident: str, rep: QCOptimalityReport) -> dict:
    rec = {
        "kind": "qc-necessary",
        "id": ident,
        "verdict": rep.verdict,
        "epsilon": format_rat(rep.epsilon),
    }
    if rep.certificate is not None:
        rec["certificate"] = certificate_record(rep.certificate)
    if rep.outer_verified is not None:
        rec["outer_verified"] = rep.outer_verified
    if rep.improving_point is not None:
        rec["improving_point"] = vec_text(rep.improving_point)
    if rep.objective_at_point is not None:
        rec["objective_at_point"] = format_rat(rep.objective_at_point)
    return rec


# --- rendering ---------------------------------------------------------------


def render_machine(records: list[dict]) -> str:
    return "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records)


def _fmt_vecs(vv: list[list[str]]) -> str:
    if not vv:
        return "(none)"
    return " ".join("(" + ",".join(v) + ")" for v in vv)


def render_human(records: list[dict]) -> str:
    lines: list[str] = []
    for r in records:
        kind = r.get("kind", "?")
        head = f"[{kind}] {r['id']}" if "id" in r else f"[{kind}]"
        for key in ("epsilon", "mode", "verdict"):
            if key in r:
                head += f"  {key}={r[key]}"
        if "exact" in r:
            head += f"  exact={'yes' if r['exact'] else 'no'}"
        lines.append(head)
        if "cone_rays" in r:
            lines.append(f"  cone rays: {_fmt_vecs(r['cone_rays'])}")
        if "oracle_rays" in r and r.get("verdict") != "equal":
            lines.append(f"  oracle rays: {_fmt_vecs(r['oracle_rays'])}")
        if "witness" in r:
            w = r["witness"]
            lines.append(f"  witness: {w if isinstance(w, str) else '(' + ','.join(w) + ')'}")
        if "residuals" in r:
            pairs = ", ".join(
                f"2^{l}:{res}" for l, res in zip(r.get("levels", []), r["residuals"])
            ) or ", ".join(r["residuals"])
            lines.append(f"  residuals: {pairs}")
        if "multipliers" in r:
            lines.append(
                "  multipliers: "
                + " ".join(f"u={u}:{m}" for u, m in r["multipliers"])
            )
        if "certificate" in r:
            c = r["certificate"]
            lines.append(
                f"  certificate: g0=({','.join(c['g0'])}) q=({','.join(c['q'])})"
            )
        for key in ("best_value", "objective_at_point"):
            if key in r:
                lines.append(f"  {key.replace('_', ' ')}: {r[key]}")
        for key in ("improving_point", "improving_ray"):
            if key in r:
                lines.append(f"  {key.replace('_', ' ')}: ({','.join(r[key])})")
        if "all_found" in r:
            lines.append(
                f"  witnesses: {len(r['witnesses'])} found, {len(r['unresolved'])} unresolved"
            )
        if "outcome" in r:
            lines.append(f"  outcome: {r['outcome']}" + (f" ({r['detail']})" if r.get("detail") else ""))
        if kind == "suite-summary":
            lines.append(
                f"  total={r['total']} passed={r['passed']} failed={r['failed']}"
            )
    return "\n".join(lines) + "\n"


def render_csv(records: list[dict]) -> str:
    import csv
    import io

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    if records and all(r.get("kind") == "check-sip" for r in records):
        w.writerow(["id", "level", "residual"])
        for r in records:
            levels = r.get("levels") or [""] * len(r["residuals"])
            for l, res in zip(levels, r["residuals"]):
                w.writerow([r["id"], l, res])
        return buf.getvalue()
    w.writerow(["id", "kind", "verdict_or_outcome"])
    for r in records:
        w.writerow([r.get("id", r.get("case", "")), r.get("kind", ""), r.get("verdict", r.get("outcome", ""))])
    return buf.getvalue()


def render(records: list[dict], fmt: str) -> str:
    if fmt == "machine":
        return render_machine(records)
    if fmt == "human":
        return render_human(records)
    if fmt == "csv":
        return render_csv(records)
    raise InputError(f"unknown format {fmt!r}; expected one of {', '.join(FORMATS)}")


def write_report(text: str, out: str | None) -> None:
    if out is None:
        print(text, end="")
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
