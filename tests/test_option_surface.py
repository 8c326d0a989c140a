"""Every option of a public supcone function is one the program really sets.

Two rules, read off the source with ``ast``:

* every defaulted parameter of a public function is passed by some call in
  the package or in ``perfbench``: a default no caller overrides is a
  constant, and the code serving its other values is dead;
* no parameter receives the same literal at every call in the package that
  passes it: that value is the constant, and the parameter can go.

Calls are matched to functions by name, and arguments to parameters by
position or keyword. An argument that forwards a defaulted parameter of the
calling public function that no call passes counts as that default. An
exception stays in KEEP with the reason it stays.
"""

import ast
from functools import lru_cache
from pathlib import Path

import supcone

SRC = Path(supcone.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

_STRICT = "cli sets it through its `compute` alias of strict_sublevel_normal_cone"
_GEN = "changing it would change the bytes of `supcone gen` instances"
KEEP = {
    "cone_rays.cap": "the seam the CLI's sizing-error test uses",
    "h_to_v.minimal": "the epigraph is converted unpruned on purpose: pruning it is slower",
    "eps_subdifferential.eps": "d_eps f(x) is a paper object; the reference tests sweep eps",
    "strict_sublevel_normal_cone.grid": _STRICT,
    "strict_sublevel_normal_cone.mode": _STRICT,
    "strict_sublevel_normal_cone.certify": _STRICT,
    "random_point.span": _GEN,
    "random_direction.span": _GEN,
    "random_polyhedron.dim": "a test-only generator",
    "random_polyhedron.anchored": "a test-only generator",
    "random_generator_set.dim": "a test-only generator",
}

_UNKNOWN = object()


@lru_cache(maxsize=None)
def parse(path: Path) -> ast.Module:
    """One tree per file, so a caller found by calls() is the def that
    public_functions() returns."""
    return ast.parse(path.read_text(encoding="utf-8"))


def public_functions() -> dict[str, ast.FunctionDef]:
    defs = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in parse(path).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                assert node.name not in defs, f"two public functions named {node.name}"
                defs[node.name] = node
    return defs


def defaults(fn: ast.FunctionDef) -> dict[str, ast.expr]:
    a = fn.args
    pos = a.posonlyargs + a.args
    out = {p.arg: d for p, d in zip(pos[len(pos) - len(a.defaults):], a.defaults)}
    out.update((p.arg, d) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
    return out


def calls(paths):
    """(enclosing function or None, call) for every call in the files."""
    def walk(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                yield fn, child
            yield from walk(child, child if isinstance(child, ast.FunctionDef) else fn)

    for path in paths:
        yield from walk(parse(path), None)


def bound(call: ast.Call, fn: ast.FunctionDef) -> dict[str, ast.expr] | None:
    """Parameter -> argument of one call; None when *args or **kwargs hide it."""
    pos = [p.arg for p in fn.args.posonlyargs + fn.args.args]
    out = {}
    for name, arg in zip(pos, call.args):
        if isinstance(arg, ast.Starred):
            return None
        out[name] = arg
    for kw in call.keywords:
        if kw.arg is None:
            return None
        out[kw.arg] = kw.value
    return out


def callee(call: ast.Call) -> str | None:
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def surface() -> tuple[set[str], set[str]]:
    """(defaulted parameters no call passes, parameters that every passing
    call in the package sets to one literal), as "function.parameter"."""
    defs = public_functions()
    assert PERFBENCH.is_dir()
    src_calls, passed = [], set()
    for files, in_src in ((sorted(SRC.rglob("*.py")), True), (sorted(PERFBENCH.rglob("*.py")), False)):
        for caller, call in calls(files):
            fn = defs.get(callee(call))
            args = None if fn is None else bound(call, fn)
            if args is None:
                continue
            passed |= {f"{fn.name}.{p}" for p in args}
            if in_src:
                src_calls.append((caller, fn, args))
    unpassed = {f"{n}.{p}" for n, fn in defs.items() for p in defaults(fn)} - passed

    def literal(expr, caller):
        if (
            isinstance(expr, ast.Name)
            and caller is not None
            and defs.get(caller.name) is caller
            and f"{caller.name}.{expr.id}" in unpassed
        ):
            expr = defaults(caller)[expr.id]
        try:
            return repr(ast.literal_eval(expr))
        except ValueError:
            return _UNKNOWN

    values: dict[str, set] = {}
    for caller, fn, args in src_calls:
        for p, expr in args.items():
            values.setdefault(f"{fn.name}.{p}", set()).add(literal(expr, caller))
    constant = {k for k, vs in values.items() if len(vs) == 1 and _UNKNOWN not in vs}
    return unpassed, constant


def test_every_defaulted_parameter_is_passed_somewhere() -> None:
    unpassed, _ = surface()
    assert unpassed - set(KEEP) == set()


def test_no_parameter_takes_one_literal_at_every_call() -> None:
    _, constant = surface()
    assert constant - set(KEEP) == set()


def test_keep_list_names_only_flagged_parameters() -> None:
    unpassed, constant = surface()
    assert set(KEEP) <= unpassed | constant
