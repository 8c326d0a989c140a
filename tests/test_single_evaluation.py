"""Each cone request evaluates its formula once, and the oracle judges that
very result.

The counters wrap a function at every supcone module that binds it, so a
second evaluation is seen whether it comes through the caller's own import
or through a late `formulas.` lookup.
"""

import json
import sys

import pytest

from supcone import formulas, functions, oracle, reports
from supcone.cli import main
from supcone.geometry import cone, h_to_v
from supcone.geometry.vec import vec
from supcone.instances import load_instance, parse_grid_spec
from supcone.suites import curated_cases, run_case

_FORMULAS = {
    "sublevel": formulas.sublevel_normal_cone_formula,
    "dom": formulas.dom_sup_normal_cone,
    "qc": formulas.qc_sublevel_normal_cone,
}


def count_calls(monkeypatch, fn) -> list:
    """Wrap fn at every supcone binding; return the list of (args, kwargs)."""
    calls = []

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "supcone" or name.startswith("supcone.")):
            continue
        for attr, obj in list(vars(mod).items()):
            if obj is fn:
                monkeypatch.setattr(mod, attr, counted)
    return calls


def gen_file(tmp_path, kind: str) -> str:
    assert main(["gen", kind, "--seed", "7", "--count", "1", "--out-dir", str(tmp_path)]) == 0
    return str(tmp_path / f"{kind}-7-0.json")


def corner_file(tmp_path) -> str:
    # max(y1, y2) <= 0 at the origin; (-1, -1) is a Slater point for --strict
    doc = {
        "format_version": 1,
        "kind": "normal-cone",
        "id": "corner",
        "family": {
            "dim": 2,
            "members": [
                {"id": "a", "type": "affine", "slope": [1, 0], "intercept": 0},
                {"id": "b", "type": "affine", "slope": [0, 1], "intercept": 0},
            ],
        },
        "point": [0, 0],
        "epsilon": "1",
    }
    p = tmp_path / "corner.json"
    p.write_text(json.dumps(doc))
    return str(p)


CLI_RUNS = [
    ("normal-cone", "affine", [], "sublevel"),
    ("normal-cone", "corner", ["--strict"], "sublevel"),
    ("normal-cone", "max-affine", ["--mode", "sampled", "--s-grid", "2:-2:2"], "sublevel"),
    ("dom-cone", "dom", [], "dom"),
    ("dom-cone", "dom", ["--alpha", "ones"], "dom"),
    ("qc", "qc", [], "qc"),
]


@pytest.mark.parametrize("command,source,flags,which", CLI_RUNS)
def test_cli_evaluates_formula_once(tmp_path, capsys, monkeypatch, command, source, flags, which):
    path = corner_file(tmp_path) if source == "corner" else gen_file(tmp_path, source)
    capsys.readouterr()
    real_compare = oracle.compare_cones
    formula_calls = count_calls(monkeypatch, _FORMULAS[which])
    compare_calls = count_calls(monkeypatch, real_compare)

    code = main([command, path, "--format", "machine", *flags])
    rec = json.loads(capsys.readouterr().out.splitlines()[0])

    assert code == 0
    assert len(formula_calls) == 1
    if "--s-grid" in flags:
        assert formula_calls[0][1]["grid"] == parse_grid_spec("2:-2:2")
    # the verdict and oracle rays judge the printed cone, not a recomputed one
    assert len(compare_calls) == 1
    judged, oracle_cone = compare_calls[0][0]
    assert reports.rays_text(judged) == rec["cone_rays"]
    assert reports.rays_text(oracle_cone) == rec["oracle_rays"]
    printed = cone(oracle_cone.dim, [vec(r) for r in rec["cone_rays"]])
    assert real_compare(printed, oracle_cone)[0] == rec["verdict"]


@pytest.mark.parametrize("command,source,flags,which", CLI_RUNS)
def test_cli_no_verify_skips_oracle(tmp_path, monkeypatch, command, source, flags, which):
    path = corner_file(tmp_path) if source == "corner" else gen_file(tmp_path, source)
    formula_calls = count_calls(monkeypatch, _FORMULAS[which])
    compare_calls = count_calls(monkeypatch, oracle.compare_cones)

    assert main([command, path, "--format", "machine", "--no-verify", *flags]) == 0
    assert len(formula_calls) == 1
    assert compare_calls == []


def test_cli_qc_converts_each_member_sublevel_once(tmp_path, monkeypatch):
    # Loading the instance checks each declared sublevel at its vertices, and
    # the formula reads the same vertices for its eps-normal sets.
    path = gen_file(tmp_path, "qc")
    sublevels = [m.sublevel for m in load_instance(path)[2]["qc"].members]
    functions.domain_generators.cache_clear()
    calls = count_calls(monkeypatch, h_to_v)

    assert main(["qc", path, "--format", "machine"]) == 0
    converted = [args[0] for args, _ in calls]
    assert [converted.count(s) for s in sublevels] == [1] * len(sublevels)


SUITE_CASES = [
    ("nc-corner", "sublevel"),
    ("nc-sampled-slab", "sublevel"),
    ("nc-strict-slater", "sublevel"),
    ("dom-reach-weights", "dom"),
    ("dom-alpha-ones", "dom"),
    ("qc-two-halfspaces", "qc"),
]


@pytest.mark.parametrize("ident,which", SUITE_CASES)
@pytest.mark.parametrize("mutate", [False, True])
def test_suite_case_evaluates_formula_once(monkeypatch, ident, which, mutate):
    case = next(c for c in curated_cases() if c.ident == ident)
    formula_calls = count_calls(monkeypatch, _FORMULAS[which])
    compare_calls = count_calls(monkeypatch, oracle.compare_cones)

    rec, ok = run_case(case, mutate=mutate)

    assert len(formula_calls) == 1
    tampered = mutate and case.kind == "normal-cone"
    assert len(compare_calls) == (2 if tampered else 1)
    assert ok is not tampered
    assert rec["verdict"] == ("violation" if tampered else "equal")
    assert ("oracle_rays" in rec) == (case.kind in ("strict-cone", "qc-cone"))


SAMPLED_RUNS = [
    ("max-affine", ["--mode", "sampled"]),
    ("max-affine", ["--mode", "sampled", "--s-grid", "2:-2:2"]),
    ("affine", ["--mode", "sampled"]),
    ("corner", ["--strict", "--mode", "sampled"]),
    ("max-affine", ["--mode", "sampled", "--no-verify"]),
]


@pytest.mark.parametrize("source,flags", SAMPLED_RUNS)
def test_sampled_normal_cone_builds_the_oracle_cone_once(tmp_path, capsys, monkeypatch, source, flags):
    # A verified run takes exact and oracle_agrees from its verdict; only
    # --no-verify lets the formula certify itself.
    path = corner_file(tmp_path) if source == "corner" else gen_file(tmp_path, source)
    capsys.readouterr()
    oracle_calls = count_calls(monkeypatch, oracle.polyhedron_normal_cone)

    assert main(["normal-cone", path, "--format", "machine", *flags]) == 0
    rec = json.loads(capsys.readouterr().out.splitlines()[0])

    assert len(oracle_calls) == 1
    assert rec["mode"] == "sampled"
    assert rec["exact"] is rec["oracle_agrees"] is True
    assert rec.get("verdict", "equal") == "equal"


@pytest.mark.parametrize("mutate", [False, True])
def test_sampled_suite_case_builds_the_oracle_cone_once(monkeypatch, mutate):
    case = next(c for c in curated_cases() if c.ident == "nc-sampled-slab")
    oracle_calls = count_calls(monkeypatch, oracle.polyhedron_normal_cone)

    rec, _ = run_case(case, mutate=mutate)

    assert len(oracle_calls) == 1
    assert rec["exact"] is rec["oracle_agrees"] is True
