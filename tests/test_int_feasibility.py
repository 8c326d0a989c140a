"""The int phase-1 kernel for yes/no cone questions, against the paths it
replaces.

``lp.nonneg_feasible`` answers "is the target a nonnegative combination of
the columns?" on ints; ``solve_nonneg_combination`` answers the same
question through the rational solve and stays for callers that read the
multipliers. ``primitive_ints`` sends an all-int input straight to
``divide_gcd``. ``oracle.sup_sublevel_polyhedron`` canonicalizes every
member row in one ``polyhedron`` call; ``ref_sup_sublevel_polyhedron`` below
is the intersection of per-member sublevel polyhedra it replaces, kept here
only as a reference.
"""

from __future__ import annotations

import ast
import fractions
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

import supcone
from supcone.errors import InputError
from supcone.functions import AffinePiece, ImproperFunction, PolyhedralFunction, sublevel_set
from supcone.generate import random_affine_family, random_dom_family, random_max_affine_family
from supcone.geometry import (
    ConeGen,
    HalfSpace,
    cone,
    cone_contains,
    intersect,
    is_empty_poly,
    is_pointed,
    lp,
    polyhedron,
    primitive_ints,
    rat,
    whole_space,
)
from supcone.oracle import sup_sublevel_polyhedron

F = Fraction
SRC = Path(supcone.__file__).parent


# ------------------------------------------------- nonneg_feasible vs rational


def feasibility_case(rng: Random, dim: int) -> tuple[list[tuple[int, ...]], tuple[int, ...], set]:
    """Int columns and a target in Z^dim, with the cases the entry must
    handle planted at random: no columns, a zero target, zero, duplicate
    and opposite columns. Half the targets are built as a nonnegative
    combination of the columns, so both answers come up often."""
    feats = set()
    cols = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(0, dim + 2))]
    if cols and rng.random() < 0.2:
        cols.append((0,) * dim)
        feats.add("zero column")
    if cols and rng.random() < 0.2:
        cols.append(rng.choice(cols))
        feats.add("duplicate")
    if cols and rng.random() < 0.2:
        cols.append(tuple(-v for v in rng.choice(cols)))
        feats.add("opposite")
    rng.shuffle(cols)
    if not cols:
        feats.add("no columns")
    r = rng.random()
    if r < 0.1:
        target = (0,) * dim
    elif r < 0.55 and cols:
        target = (0,) * dim
        for c in cols:
            w = rng.randint(0, 3)
            target = tuple(t + w * v for t, v in zip(target, c))
    else:
        target = tuple(rng.randint(-4, 4) for _ in range(dim))
    if not any(target):
        feats.add("zero target")
    return cols, target, feats


def test_nonneg_feasible_matches_the_rational_solve() -> None:
    answers = {True: 0, False: 0}
    seen = dict.fromkeys(
        ("no columns", "zero target", "zero column", "duplicate", "opposite"), 0
    )
    cases = [(dim, seed) for dim in range(1, 6) for seed in range(440)]
    for dim, seed in cases:
        rng = Random(23000 + 1000 * dim + seed)
        cols, target, feats = feasibility_case(rng, dim)
        got = lp.nonneg_feasible(cols, target)
        assert got is (lp.solve_nonneg_combination(cols, target) is not None), (dim, seed)
        answers[got] += 1
        for feat in feats:
            seen[feat] += 1
    assert len(cases) >= 2000
    assert min(answers.values()) >= 500, answers
    assert min(seen.values()) >= 50, seen


def test_nonneg_feasible_rejects_columns_of_another_length() -> None:
    with pytest.raises(ValueError):
        lp.nonneg_feasible([(1, 0, 0)], (1, 0))


def test_is_pointed_ignores_zero_rays() -> None:
    # A zero ray's lifted column (0, ..., 0, 1) is the LP's target; it used
    # to make these pointed cones read as holding a line.
    assert is_pointed(2, [(0, 0)])
    assert is_pointed(2, [(1, 0), (0, 0)])
    assert is_pointed(2, [(1, 0), (0, 1), (1, 1), (0, 0)])
    assert is_pointed(2, [(F(0), F(0)), (F(1), F(2))])
    assert not is_pointed(2, [(1, 0), (-1, 0), (0, 0)])


# ------------------------------------------------------------ primitive_ints


def test_primitive_ints_on_ints_matches_the_fraction_path() -> None:
    rng = Random(23500)
    cases = [(), (0,), (0, 0, 0), (True, False), (True, 2), (-4, 6, 0), (False, -3)]
    for _ in range(1500):
        dim = rng.randint(1, 6)
        v = [rng.choice((0, 0, rng.randint(-9, 9), 6 * rng.randint(-5, 5))) for _ in range(dim)]
        if rng.random() < 0.15:
            v[rng.randrange(dim)] = rng.random() < 0.5
        cases.append(tuple(v))
    kinds = dict.fromkeys(("zero", "negative", "bool"), 0)
    for v in cases:
        got = primitive_ints(v)
        assert got == primitive_ints(tuple(F(x) for x in v)), v
        assert all(type(x) is int for x in got), v
        kinds["zero"] += not any(v)
        kinds["negative"] += any(x < 0 for x in v)
        kinds["bool"] += any(type(x) is bool for x in v)
    assert min(kinds.values()) >= 50, kinds


# ---------------------------------------------- one-pass sublevel polyhedron


def shifted(f, level):
    """f - level, so that [f <= level] is its zero sublevel; other members
    pass through."""
    if not isinstance(f, PolyhedralFunction):
        return f
    c = rat(level)
    pieces = tuple(AffinePiece(p.slope, p.intercept - c) for p in f.pieces)
    return PolyhedralFunction(f.dim, pieces, f.domain)


def ref_sup_sublevel_polyhedron(members):
    polys = []
    for f in members:
        if isinstance(f, ImproperFunction):
            polys.append(f.domain)
        elif isinstance(f, PolyhedralFunction):
            polys.append(sublevel_set(f))
        else:
            raise InputError(f"unsupported member type {type(f).__name__}")
    if not polys:
        raise InputError("a family needs at least one member")
    return intersect(*polys)


LEVELS = (0, F(3, 2), -2)


def test_one_pass_sublevel_polyhedron_matches_the_intersection() -> None:
    improper = empty = 0
    streams = [random_max_affine_family(Random(3000 + i)) for i in range(100)]
    streams += [random_affine_family(Random(1000 + i)) for i in range(200)]
    streams += [random_dom_family(Random(4000 + i)) for i in range(100)]
    for g in streams:
        members = g.family.functions()
        for level in LEVELS:
            at_level = [shifted(f, level) for f in members]
            got = sup_sublevel_polyhedron(at_level)
            assert got == ref_sup_sublevel_polyhedron(at_level)
        improper += any(isinstance(f, ImproperFunction) for f in members)
    # a member whose sublevel is empty: a constant piece above the level,
    # beside members with rows
    dim = 2
    high = PolyhedralFunction(dim, (AffinePiece((F(0), F(0)), F(5)),), whole_space(dim))
    for g in streams[:20]:
        members = [f for f in g.family.functions() if f.dim == dim] + [high]
        at_level = [shifted(f, F(1, 3)) for f in members]
        got = sup_sublevel_polyhedron(at_level)
        assert got == ref_sup_sublevel_polyhedron(at_level)
        assert is_empty_poly(got)
        empty += 1
    assert improper >= 50 and empty >= 20, (improper, empty)


def test_one_pass_sublevel_polyhedron_raises_as_before() -> None:
    two = PolyhedralFunction(2, (AffinePiece((F(1), F(0)), F(0)),), whole_space(2))
    three = ImproperFunction(3, polyhedron(3, [HalfSpace((1, 0, 0), F(1))]))
    for members in ([], [two, three], [two, "not a member"]):
        with pytest.raises(InputError) as got:
            sup_sublevel_polyhedron(members)
        with pytest.raises(InputError) as ref:
            ref_sup_sublevel_polyhedron(members)
        assert str(got.value) == str(ref.value)


# --------------------------------------------------- no Fraction in the path


# Roots of the yes/no path, and names whose use builds a Fraction: the
# constructor, the module constants that hold one, and the helpers that
# return one.
ROOTS = ("nonneg_feasible", "_prune_rays", "cone_contains", "is_pointed")
FRACTION_NAMES = {
    "Fraction", "_ZERO", "_ONE", "rat", "vec", "zero_vec", "dot", "parse_rat",
    "solve_min_eq", "solve_nonneg_combination", "_objective_row",
}


def geometry_defs() -> dict[str, tuple[str, ast.FunctionDef]]:
    defs = {}
    for path in sorted((SRC / "geometry").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                defs[node.name] = (path.stem, node)
    return defs


def called_names(node: ast.FunctionDef) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            f = sub.func
            out.add(f.id if isinstance(f, ast.Name) else getattr(f, "attr", ""))
    return out


def read_names(node: ast.FunctionDef) -> set[str]:
    """Names and attributes the function reads, its type annotations left
    out: they are strings at run time."""
    notes = {
        id(n)
        for sub in ast.walk(node)
        for ann in (getattr(sub, "annotation", None), getattr(sub, "returns", None))
        if ann is not None
        for n in ast.walk(ann)
    }
    used = set()
    for sub in ast.walk(node):
        if id(sub) in notes:
            continue
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def test_the_feasibility_path_builds_no_fraction() -> None:
    defs = geometry_defs()
    todo = list(ROOTS)
    reached: dict[str, str] = {}
    while todo:
        name = todo.pop()
        if name in reached or name not in defs:
            continue
        module, node = defs[name]
        reached[name] = module
        todo.extend(called_names(node))
    lp_side = {n for n, m in reached.items() if m == "lp"}
    assert {"nonneg_feasible", "_phase1", "_run", "_pivot", "_reduce"} <= lp_side
    assert {"primitive_ints", "divide_gcd", "_int_rank"} <= set(reached)
    for name, module in reached.items():
        used = read_names(defs[name][1])
        assert not used & FRACTION_NAMES, (name, used & FRACTION_NAMES)
        if module == "lp":
            # the int entry clears no denominators
            assert not used & {"lcm", "denominator", "numerator"}, name


def test_the_feasibility_path_runs_without_fraction(monkeypatch) -> None:
    # The same pin at run time: with the constructor disabled, int inputs
    # still get every answer.
    def no_fraction(cls, *args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(fractions.Fraction, "__new__", no_fraction)
    rays = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (-1, 0, 0), (0, 0, 0)]
    # (0, 1, 0) = (1, 1, 0) + (-1, 0, 0) drops; the rest stay
    assert cone(3, rays).rays == ((-1, 0, 0), (1, 0, 0), (1, 1, 0))
    assert not is_pointed(3, rays)
    assert is_pointed(3, rays[:3])
    assert cone_contains(ConeGen(3, ((0, 1, 0), (1, 0, 0))), (2, 3, 0))
    assert not cone_contains(ConeGen(3, ((0, 1, 0), (1, 0, 0))), (2, 3, 1))
    assert lp.nonneg_feasible([(2, 1), (1, 2)], (1, 1))
