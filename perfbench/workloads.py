"""Inputs and operations of the three workloads.

Each workload builds its inputs in ``setup`` (this is part of the measured
set-up time) and returns a list of operations. An operation is a callable
that runs one request through the program's public calls and returns a
plain-JSON description of what the program answered, which the independent
checker reads after the timed loop.

sampled       the first SAMPLED_COUNT families of the criterion-02 stream
              (random_max_affine_family at Random(3000 + i)), each verified
              with oracle.verify_formula_instance in sampled mode on the
              default s-grid with the refined-grid certification.
intersection  the first INTERSECTION_COUNT families of the criterion-03
              stream (random_affine_family at Random(1000 + i)), each run
              through sublevel_normal_cone_intersection in exact-affine mode
              with the eps-lists {1, 1/2, 1/4} and {1/3, 1/9}.
cli           CLI_PER_KIND files of each kind written by ``supcone gen
              --seed CLI_GEN_SEED`` plus one circle check-sip file, each
              processed by one in-process cli.main call with verification on
              and machine output.

The inputs are fixed and the run's seed sets the order of the operations.
Per-family cost is heavy-tailed and changes up to threefold under a mere
signed permutation of the coordinates, so runs over seed-chosen inputs
measured a different amount of work on every seed (see README.md).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

SAMPLED_COUNT = 5
INTERSECTION_COUNT = 9
EPS_LISTS = ((Fraction(1), Fraction(1, 2), Fraction(1, 4)), (Fraction(1, 3), Fraction(1, 9)))

# files per `supcone gen` kind in the cli workload
CLI_GEN = (("affine", "normal-cone"), ("dom", "dom-cone"), ("qc", "qc"), ("program", "check-optimal"))
CLI_PER_KIND = 25
CLI_GEN_SEED = 7

CIRCLE_SIP = {
    "format_version": 1,
    "kind": "check-sip",
    "id": "circle-tangent",
    "dim": 2,
    "cost": [-1, 0],
    "point": [1, 0],
    "sampler": "circle",
    "levels": [4, 5, 6, 7, 8, 9, 10],
}

WORKLOADS = ("sampled", "intersection", "cli")


def _text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _vec(v) -> list[str]:
    return [_text(c) for c in v]


def _rows(poly) -> list[dict]:
    return [{"normal": _vec(h.normal), "offset": _text(h.offset)} for h in poly.halfspaces]


def family_doc(family) -> dict:
    """The family in the instance-file schema, read off the dataclass fields."""
    members = []
    for ident, f in family.members:
        if hasattr(f, "pieces"):
            members.append({
                "id": ident,
                "type": "max-affine",
                "pieces": [{"slope": _vec(p.slope), "intercept": _text(p.intercept)} for p in f.pieces],
                "domain": _rows(f.domain),
            })
        else:
            members.append({"id": ident, "type": "improper", "domain": _rows(f.domain)})
    return {"dim": family.dim, "members": members}


def _rays(cone) -> list[list[str]]:
    return [_vec(r) for r in cone.rays]


def _seeded_order(n: int, seed: int) -> list[int]:
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return order


def setup_sampled(seed: int, work: str):
    from supcone.generate import random_max_affine_family
    from supcone.oracle import verify_formula_instance

    def op(i: int, g):
        def run():
            rep = verify_formula_instance(
                g.family, g.point, g.epsilon, which="sublevel",
                instance_id=f"maxaff-{i}", mode="sampled",
            )
            return {
                "kind": "sublevel",
                "id": f"maxaff-{i}",
                "family": family_doc(g.family),
                "point": _vec(g.point),
                "cone_rays": _rays(rep.formula_cone),
                "oracle_rays": _rays(rep.oracle_cone),
                "verdict": rep.verdict,
            }
        return run

    fams = [random_max_affine_family(random.Random(3000 + i)) for i in range(SAMPLED_COUNT)]
    return [op(i, fams[i]) for i in _seeded_order(SAMPLED_COUNT, seed)]


def setup_intersection(seed: int, work: str):
    from supcone.formulas import sublevel_normal_cone_intersection
    from supcone.generate import random_affine_family

    def op(i: int, g):
        def run():
            results = []
            for eps_list in EPS_LISTS:
                res = sublevel_normal_cone_intersection(g.family, g.point, eps_list, mode="exact-affine")
                results.append({"cone_rays": _rays(res.cone), "stabilized": res.stabilized})
            return {
                "kind": "intersection",
                "id": f"affine-{i}",
                "family": family_doc(g.family),
                "point": _vec(g.point),
                "results": results,
            }
        return run

    fams = [random_affine_family(random.Random(1000 + i)) for i in range(INTERSECTION_COUNT)]
    return [op(i, fams[i]) for i in _seeded_order(INTERSECTION_COUNT, seed)]


def setup_cli(seed: int, work: str):
    from supcone import cli

    inputs = os.path.join(work, "inputs")
    outputs = os.path.join(work, "out")
    os.makedirs(outputs, exist_ok=True)
    calls = []
    for kind, command in CLI_GEN:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["gen", kind, "--seed", str(CLI_GEN_SEED), "--count", str(CLI_PER_KIND),
                             "--out-dir", inputs])
        if code != 0:
            raise RuntimeError(f"supcone gen {kind} exited with {code}")
        calls += [(command, os.path.join(inputs, f"{kind}-{CLI_GEN_SEED}-{i}.json")) for i in range(CLI_PER_KIND)]
    sip = os.path.join(inputs, "circle-sip.json")
    with open(sip, "w", encoding="utf-8") as fh:
        json.dump(CIRCLE_SIP, fh)
    calls.append(("check-sip", sip))

    def op(n: int, command: str, path: str):
        out = os.path.join(outputs, f"{n:04d}-{command}.jsonl")
        argv = [command, path, "--format", "machine", "--out", out]

        def run():
            code = cli.main(argv)
            return {"kind": "cli", "command": command, "instance": path, "out": out, "code": code}
        return run

    return [op(n, *calls[n]) for n in _seeded_order(len(calls), seed)]


SETUP = {"sampled": setup_sampled, "intersection": setup_intersection, "cli": setup_cli}
