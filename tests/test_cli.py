"""Instance files, report formats, and the command line surface."""

import json
from fractions import Fraction

import pytest

from supcone import reports
from supcone.cli import main
from supcone.errors import InputError
from supcone.formulas import SupFamily, family_from_functions
from supcone.functions import ImproperFunction, affine_function
from supcone.geometry import halfspace, polyhedron
from supcone.geometry.vec import vec
from supcone.instances import (
    instance_json,
    load_instance,
    parse_grid_spec,
    parse_instance,
)

F = Fraction


def hs(normal, offset):
    return halfspace(vec(normal), F(offset))


def corner_instance(ident="corner", epsilon="1"):
    return {
        "format_version": 1,
        "kind": "normal-cone",
        "id": ident,
        "family": {
            "dim": 2,
            "members": [
                {"id": "a", "type": "affine", "slope": [1, 0], "intercept": 0},
                {"id": "b", "type": "affine", "slope": [0, 1], "intercept": 0},
            ],
        },
        "point": [0, 0],
        "epsilon": epsilon,
    }


# ------------------------------------------------------------ schema parsing


def test_parse_round_trip_normal_cone() -> None:
    kind, ident, payload = parse_instance(corner_instance())
    assert kind == "normal-cone"
    assert ident == "corner"
    assert payload["epsilon"] == 1
    fam = payload["family"]
    assert isinstance(fam, SupFamily)
    assert [i for i, _ in fam.members] == ["a", "b"]
    back = instance_json(kind, ident, **payload)
    assert parse_instance(back) == (kind, ident, payload)


def test_parse_rational_spellings() -> None:
    inst = corner_instance(epsilon="3/4")
    inst["point"] = ["0", "0"]
    _, _, payload = parse_instance(inst)
    assert payload["epsilon"] == F(3, 4)


def test_reject_unknown_top_level_field() -> None:
    inst = corner_instance()
    inst["flavour"] = "lemon"
    with pytest.raises(InputError, match=r"\$\.flavour"):
        parse_instance(inst)


def test_reject_unknown_member_field() -> None:
    inst = corner_instance()
    inst["family"]["members"][0]["extra"] = 1
    with pytest.raises(InputError, match=r"members\[0\]\.extra"):
        parse_instance(inst)


def test_reject_float_values() -> None:
    inst = corner_instance()
    inst["point"] = [0.5, 0]
    with pytest.raises(InputError, match="float"):
        parse_instance(inst)


def test_reject_bad_rational_string() -> None:
    inst = corner_instance(epsilon="1/0")
    with pytest.raises(InputError, match=r"\$\.epsilon"):
        parse_instance(inst)


def test_reject_missing_required_field() -> None:
    inst = corner_instance()
    del inst["point"]
    with pytest.raises(InputError, match=r"\$\.point"):
        parse_instance(inst)


def test_reject_wrong_format_version() -> None:
    inst = corner_instance()
    inst["format_version"] = 2
    with pytest.raises(InputError, match="format_version"):
        parse_instance(inst)


def test_reject_unknown_kind() -> None:
    inst = corner_instance()
    inst["kind"] = "mystery"
    with pytest.raises(InputError, match="mystery"):
        parse_instance(inst)


def test_reject_dimension_mismatch_in_point() -> None:
    inst = corner_instance()
    inst["point"] = [0, 0, 0]
    with pytest.raises(InputError, match=r"\$\.point"):
        parse_instance(inst)


def test_reject_levels_on_finite_sip() -> None:
    inst = {
        "format_version": 1,
        "kind": "check-sip",
        "id": "s",
        "dim": 2,
        "cost": [1, 0],
        "point": [0, 0],
        "constraints": [{"normal": [1, 0], "offset": 1}],
        "levels": [3, 4],
    }
    with pytest.raises(InputError, match="levels"):
        parse_instance(inst)


def test_improper_member_round_trip() -> None:
    fam = SupFamily(
        2,
        (
            ("a", affine_function((1, 0), 0)),
            ("i", ImproperFunction(2, polyhedron(2, [hs((0, 1), 0)]))),
        ),
    )
    data = instance_json("dom-cone", "d1", family=fam, point=vec((0, 0)), epsilon=F(1, 2))
    kind, ident, payload = parse_instance(data)
    assert kind == "dom-cone"
    assert isinstance(dict(payload["family"].members)["i"], ImproperFunction)


def test_load_instance_reads_file(tmp_path) -> None:
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(corner_instance()))
    kind, ident, _ = load_instance(str(path))
    assert (kind, ident) == ("normal-cone", "corner")


def test_load_instance_bad_json(tmp_path) -> None:
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(InputError):
        load_instance(str(path))


def test_parse_grid_spec_forms() -> None:
    g = parse_grid_spec("2:-3:3")
    assert g.values[0] == F(1, 8) and g.values[-1] == 8
    g2 = parse_grid_spec("1/2,2,1")
    assert g2.values == (F(1, 2), F(1), F(2))
    with pytest.raises(InputError):
        parse_grid_spec("grid")


# ------------------------------------------------------------------ reports


def test_machine_format_is_sorted_compact_json() -> None:
    fam = family_from_functions([affine_function((1, 0), 0), affine_function((0, 1), 0)])
    from supcone.formulas import sublevel_normal_cone_formula

    res = sublevel_normal_cone_formula(fam, vec((0, 0)), 1)
    rec = reports.cone_result_record("normal-cone", "c", res)
    line = reports.render([rec], "machine")
    obj = json.loads(line)
    assert list(obj) == sorted(obj)
    assert " " not in line.split('"cone"')[0]
    human = reports.render([rec], "human")
    assert "[normal-cone]" in human and "c" in human
    csv_text = reports.render([rec], "csv")
    assert csv_text.splitlines()[0] == "id,kind,verdict_or_outcome"


def test_reports_never_leak_timing() -> None:
    fam = family_from_functions([affine_function((1, 0), 0)])
    from supcone.formulas import sublevel_normal_cone_formula
    from supcone.oracle import verify_formula_instance

    rep = verify_formula_instance(fam, vec((0, 0)), 1, instance_id="x")
    res = sublevel_normal_cone_formula(fam, vec((0, 0)), 1)
    rec = reports.cone_result_record("normal-cone", "x", res, verification=rep)
    text = reports.render([rec], "machine")
    assert "elapsed" not in text
    assert "time" not in text


# ---------------------------------------------------------------- cli runs


def write_inst(tmp_path, data, name="inst.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def test_cli_normal_cone_success(tmp_path, capsys) -> None:
    path = write_inst(tmp_path, corner_instance())
    code = main(["normal-cone", path, "--format", "machine"])
    out = capsys.readouterr().out
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["verdict"] == "equal"
    assert rec["id"] == "corner"


def test_cli_builds_its_parser_once(tmp_path, capsys) -> None:
    from supcone import cli

    cli._build_parser.cache_clear()
    path = write_inst(tmp_path, corner_instance())
    runs = []
    for _ in range(2):
        code = main(["normal-cone", path, "--format", "machine"])
        runs.append((code, capsys.readouterr()))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0
    # Bad arguments still exit 2 with the usage text, through the same parser.
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["normal-cone", path, "--mode", "bogus"])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: supcone")
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 4)


def test_cli_epsilon_flag_overrides_file(tmp_path, capsys) -> None:
    path = write_inst(tmp_path, corner_instance())
    code = main(["normal-cone", path, "--epsilon", "1/8", "--format", "machine"])
    assert code == 0
    rec = json.loads(capsys.readouterr().out.splitlines()[0])
    assert rec["epsilon"] == "1/8"


def test_cli_epsilon_required_somewhere(tmp_path, capsys) -> None:
    inst = corner_instance()
    del inst["epsilon"]
    path = write_inst(tmp_path, inst)
    code = main(["normal-cone", path])
    assert code == 2
    assert "epsilon" in capsys.readouterr().err


def test_cli_missing_file_is_input_error(capsys) -> None:
    code = main(["normal-cone", "/no/such/file.json"])
    assert code == 2


def test_cli_wrong_kind_for_subcommand(tmp_path, capsys) -> None:
    path = write_inst(tmp_path, corner_instance())
    code = main(["dom-cone", path])
    assert code == 2


def test_cli_check_optimal(tmp_path, capsys) -> None:
    inst = {
        "format_version": 1,
        "kind": "check-optimal",
        "id": "p1",
        "objective": {"type": "affine", "slope": [-1, -1], "intercept": 0},
        "family": corner_instance()["family"],
        "point": [0, 0],
        "qualification": {"kind": "objective-continuous", "witness": [-1, -1]},
        "epsilon": "1",
    }
    path = write_inst(tmp_path, inst)
    code = main(["check-optimal", path, "--format", "machine"])
    out = capsys.readouterr().out
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["verdict"] == "optimal"
    assert rec["certificate_ok"] is True


def test_cli_check_sip_inconclusive_exit_code(tmp_path, capsys) -> None:
    inst = {
        "format_version": 1,
        "kind": "check-sip",
        "id": "s1",
        "dim": 2,
        "cost": [-1, -1],
        "point": [1, 0],
        "sampler": "circle",
        "levels": [2, 3],
    }
    path = write_inst(tmp_path, inst)
    code = main(["check-sip", path, "--format", "machine"])
    out = capsys.readouterr().out
    assert code == 3
    rec = json.loads(out.splitlines()[0])
    assert rec["verdict"] == "inconclusive"


def test_cli_refused_maps_to_exit_3(tmp_path, capsys) -> None:
    # Strict-sublevel gate: |y1| has no strictly feasible point.
    inst = {
        "format_version": 1,
        "kind": "normal-cone",
        "id": "ref",
        "family": {
            "dim": 1,
            "members": [
                {
                    "id": "m",
                    "type": "max-affine",
                    "pieces": [
                        {"slope": [1], "intercept": 0},
                        {"slope": [-1], "intercept": 0},
                    ],
                }
            ],
        },
        "point": [0],
        "epsilon": "1",
    }
    path = write_inst(tmp_path, inst)
    code = main(["normal-cone", path, "--strict"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("refused:")


def test_cli_sizing_error_maps_to_exit_3(tmp_path, capsys, monkeypatch) -> None:
    # The improper member's eps-normal set needs a double-description
    # conversion; a one-generator cap makes its first step overflow.
    from supcone.geometry import dd, sets

    def capped(rows, dim, cap=None):
        return dd.cone_rays(rows, dim, cap=1)

    monkeypatch.setattr(sets, "cone_rays", capped)
    fam = SupFamily(
        2,
        (
            ("a", affine_function((1, 0), 0)),
            ("i", ImproperFunction(2, polyhedron(2, [hs((0, 1), 0)]))),
        ),
    )
    doc = instance_json("normal-cone", "capped", family=fam, point=vec((0, 0)), epsilon=F(1))
    path = write_inst(tmp_path, doc)
    code = main(["normal-cone", path, "--format", "machine"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("refused: double description exceeded 1")


def test_cli_gen_round_trip(tmp_path, capsys) -> None:
    code = main(["gen", "affine", "--seed", "11", "--count", "2", "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert len(out) == 2
    for line in out:
        kind, ident, payload = load_instance(line)
        assert kind == "normal-cone"
        assert payload["epsilon"] is not None
        code2 = main(["normal-cone", line, "--format", "machine"])
        assert code2 == 0
        rec = json.loads(capsys.readouterr().out.splitlines()[0])
        assert rec["verdict"] in ("equal", "formula-strictly-inside")


def test_cli_gen_deterministic(tmp_path) -> None:
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    main(["gen", "qc", "--seed", "3", "--count", "2", "--out-dir", str(a)])
    main(["gen", "qc", "--seed", "3", "--count", "2", "--out-dir", str(b)])
    fa = sorted(p.name for p in a.iterdir())
    fb = sorted(p.name for p in b.iterdir())
    assert fa == fb
    for name in fa:
        assert (a / name).read_text() == (b / name).read_text()


def test_cli_suite_green_and_deterministic(tmp_path, capsys) -> None:
    out1 = tmp_path / "r1.txt"
    out2 = tmp_path / "r2.txt"
    assert main(["suite", "--seed", "7", "--format", "machine", "--out", str(out1)]) == 0
    assert main(["suite", "--seed", "7", "--format", "machine", "--out", str(out2)]) == 0
    t1 = out1.read_text()
    assert t1 == out2.read_text()
    summary = json.loads(t1.splitlines()[-1])
    assert summary["failed"] == 0
    assert summary["total"] > 50


def test_cli_suite_mutation_hook_trips(capsys) -> None:
    code = main(["suite", "--seed", "7", "--mutate", "--format", "machine"])
    out = capsys.readouterr().out
    assert code == 1
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["failed"] >= 1
    assert summary["mutated"] == 1
    assert '"violation"' in out


def test_cli_suite_mutation_hook_trips_named_case(capsys) -> None:
    code = main(["suite", "--seed", "7", "--mutate", "nc-edge", "--format", "machine"])
    records = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert code == 1
    tampered = [r for r in records if r.get("id") == "nc-edge"]
    assert tampered[0]["verdict"] == "violation"
    assert tampered[0]["outcome"] == "fail"
    assert [r["id"] for r in records if r.get("verdict") == "violation"] == ["nc-edge"]
    assert records[-1]["mutated"] is True


@pytest.mark.parametrize("target", ["no-such-case", "nc-strict-slater"])
def test_cli_suite_mutation_target_must_be_normal_cone_case(capsys, target) -> None:
    code = main(["suite", "--seed", "7", "--mutate", target, "--format", "machine"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "normal-cone" in captured.err


def test_cli_report_out_file(tmp_path) -> None:
    path = write_inst(tmp_path, corner_instance())
    out = tmp_path / "rep.json"
    code = main(["normal-cone", path, "--format", "machine", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text().splitlines()[0])["verdict"] == "equal"


def test_cli_csv_format(tmp_path, capsys) -> None:
    path = write_inst(tmp_path, corner_instance())
    code = main(["normal-cone", path, "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "id,kind,verdict_or_outcome"
    assert lines[1].startswith("corner,normal-cone,")
