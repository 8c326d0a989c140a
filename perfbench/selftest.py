"""Planted errors the checker must reject.

    python3 perfbench/selftest.py

Each case starts from an answer the checker accepts and plants one error:
a dropped ray, a foreign ray, a perturbed certificate coefficient, a
non-improving "improving point", a wrong SIP multiplier and an unstabilized
intersection. The self-test fails unless the checker accepts every clean
answer and rejects every planted one. run.py runs it before measuring.
"""

from __future__ import annotations

import copy
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checker import check_intersection, check_optimal_record, check_sip_record, check_sublevel  # noqa: E402

# f = max(y1, y2) restricted to y1 >= -1 plus the improper half-plane
# y1 + y2 <= 0, at x = 0: the tight rows are (1,0), (0,1) and (1,1), so the
# normal cone is the nonnegative quadrant.
FAMILY = {
    "dim": 2,
    "members": [
        {"id": "m", "type": "max-affine",
         "pieces": [{"slope": ["1", "0"], "intercept": "0"}, {"slope": ["0", "1"], "intercept": "0"}],
         "domain": [{"normal": ["-1", "0"], "offset": "1"}]},
        {"id": "i", "type": "improper", "domain": [{"normal": ["1", "1"], "offset": "0"}]},
    ],
}
QUADRANT = [["0", "1"], ["1", "0"]]

SUBLEVEL = {
    "kind": "sublevel", "id": "quadrant", "family": FAMILY, "point": ["0", "0"],
    "cone_rays": QUADRANT, "oracle_rays": QUADRANT, "verdict": "equal",
}

INTERSECTION = {
    "kind": "intersection", "id": "quadrant", "family": FAMILY, "point": ["0", "0"],
    "results": [{"cone_rays": QUADRANT, "stabilized": True}],
}

# min -y1 - y2 over [y1 <= 0, y2 <= 0] at the corner x = 0: optimal with
# g0 = (-1,-1) and q = (1,1) = (1,0) + (0,1).
PROGRAM = {
    "id": "corner",
    "objective": {"type": "max-affine", "pieces": [{"slope": ["-1", "-1"], "intercept": "0"}]},
    "family": {"dim": 2, "members": [
        {"id": "a", "type": "max-affine", "pieces": [{"slope": ["1", "0"], "intercept": "0"}]},
        {"id": "b", "type": "max-affine", "pieces": [{"slope": ["0", "1"], "intercept": "0"}]},
    ]},
    "point": ["0", "0"],
}
OPTIMAL = {
    "kind": "check-optimal", "id": "corner", "verdict": "optimal", "epsilon": "1",
    "certificate": {
        "g0": ["-1", "-1"], "q": ["1", "1"],
        "point_coeffs": [[["-1", "-1"], "1"]], "ray_coeffs": [],
        "cone_coeffs": [[["0", "1"], "1"], [["1", "0"], "1"]],
    },
    "objective_at_point": "0",
}
# the same constraints with x = (-1, 0): y = (0, 0) is strictly better
PROGRAM_OFF = dict(PROGRAM, point=["-1", "0"])
NOT_OPTIMAL = {
    "kind": "check-optimal", "id": "corner", "verdict": "not-optimal", "epsilon": "1",
    "improving_point": ["0", "0"], "best_value": "0", "objective_at_point": "1",
}

SIP = {"dim": 2, "cost": ["-1", "0"], "point": ["1", "0"]}
SIP_OK = {
    "kind": "check-sip", "id": "circle", "verdict": "optimal", "levels": [4, 5],
    "residuals": ["1/4", "0"], "multipliers": [["0", "1"]],
}


def _cases():
    """(name, check, planted answer)."""
    dropped = copy.deepcopy(SUBLEVEL)
    dropped["cone_rays"] = QUADRANT[:1]
    yield "dropped ray", check_sublevel, dropped
    foreign = copy.deepcopy(SUBLEVEL)
    foreign["cone_rays"] = QUADRANT + [["-1", "2"]]
    yield "foreign ray", check_sublevel, foreign
    bad_oracle = copy.deepcopy(SUBLEVEL)
    bad_oracle["oracle_rays"] = QUADRANT[1:]
    yield "dropped oracle ray", check_sublevel, bad_oracle
    unstable = copy.deepcopy(INTERSECTION)
    unstable["results"][0]["stabilized"] = False
    yield "unstabilized intersection", check_intersection, unstable
    perturbed = copy.deepcopy(OPTIMAL)
    perturbed["certificate"]["cone_coeffs"][0][1] = "2"
    yield "perturbed certificate coefficient", lambda a: check_optimal_record(PROGRAM, a), perturbed
    shifted = copy.deepcopy(OPTIMAL)
    shifted["certificate"]["g0"] = ["-1", "0"]
    yield "perturbed certificate vector", lambda a: check_optimal_record(PROGRAM, a), shifted
    stale = copy.deepcopy(NOT_OPTIMAL)
    stale["improving_point"] = ["-1", "0"]
    yield "non-improving improving point", lambda a: check_optimal_record(PROGRAM_OFF, a), stale
    infeasible = copy.deepcopy(NOT_OPTIMAL)
    infeasible["improving_point"] = ["1", "1"]
    yield "infeasible improving point", lambda a: check_optimal_record(PROGRAM_OFF, a), infeasible
    sip = copy.deepcopy(SIP_OK)
    sip["multipliers"] = [["0", "2"]]
    yield "wrong SIP multiplier", lambda a: check_sip_record(SIP, a), sip
    rising = copy.deepcopy(SIP_OK)
    rising["residuals"] = ["0", "1/4"]
    yield "increasing SIP residuals", lambda a: check_sip_record(SIP, a), rising


CLEAN = (
    ("sublevel", check_sublevel, SUBLEVEL),
    ("intersection", check_intersection, INTERSECTION),
    ("optimal certificate", lambda a: check_optimal_record(PROGRAM, a), OPTIMAL),
    ("improving point", lambda a: check_optimal_record(PROGRAM_OFF, a), NOT_OPTIMAL),
    ("sip multipliers", lambda a: check_sip_record(SIP, a), SIP_OK),
)


def run_selftest() -> list[str]:
    """Names of the cases the checker got wrong; empty when it is sound."""
    wrong = [f"clean {name}: {probs}" for name, check, ans in CLEAN if (probs := check(ans))]
    wrong += [f"planted {name} accepted" for name, check, ans in _cases() if not check(ans)]
    return wrong


if __name__ == "__main__":
    errors = run_selftest()
    for e in errors:
        print(e)
    print("selftest:", "FAIL" if errors else "PASS")
    sys.exit(1 if errors else 0)
