"""Every public function and class of supcone.geometry is read by the program.

A name that only tests use is surface nothing depends on: it is deleted, or
it stays in KEEP with the reason it stays. A name counts as read when some
module of the package uses it as a name or an attribute; an import alone
does not count.
"""

import ast
from pathlib import Path

import supcone

SRC = Path(supcone.__file__).parent

KEEP = {
    "v_to_h": "criterion 10 checks the H -> V -> H round trip on it",
    "recession_cone": "criterion 10 checks that recession commutes with intersection on it",
    "support_function": "criterion 10 checks the support/polarity identity on it",
    "halfspace": "the package root exports it",
}


def public_geometry_defs() -> set[str]:
    names = set()
    for path in sorted((SRC / "geometry").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                names.add(node.name)
    return names


def read_names() -> set[str]:
    names = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_geometry_name_is_read_or_kept() -> None:
    unread = public_geometry_defs() - read_names()
    assert unread - set(KEEP) == set()


def test_keep_list_names_only_unread_geometry_names() -> None:
    defs, read = public_geometry_defs(), read_names()
    assert set(KEEP) <= defs
    assert set(KEEP) & read == set()
