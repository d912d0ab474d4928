"""Only the command line writes files, through its two writers.

Every output file of the package, summary, CSV or grid sidecar, is
written by ``cli._write_json`` or ``cli._write_csv``: no other module of
``src/nonlocal_dv`` calls ``open`` (as a builtin or a method) or
``json.dump``, and inside ``cli`` only those two functions do.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nonlocal_dv"


def _writes(node) -> bool:
    """Whether ``node`` is a call of ``open``, ``<x>.open`` or ``json.dump``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "open"
    return isinstance(func, ast.Attribute) and (
        func.attr == "open"
        or (func.attr == "dump" and isinstance(func.value, ast.Name)
            and func.value.id == "json"))


def _writing_functions(tree) -> set:
    """Names of the top-level functions that write, "<module>" for any
    write outside a function."""
    out = set()
    for node in tree.body:
        name = node.name if isinstance(node, (ast.FunctionDef,
                                              ast.ClassDef)) else "<module>"
        if any(_writes(sub) for sub in ast.walk(node)):
            out.add(name)
    return out


def test_only_the_cli_writers_open_files():
    found = {path.stem: _writing_functions(ast.parse(path.read_text()))
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert {m: names for m, names in found.items() if names} == {
        "cli": {"_write_json", "_write_csv"}}
