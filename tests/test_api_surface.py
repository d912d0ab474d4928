"""Every defaulted parameter of the package is set by some call.

A parameter with a default that no command, check or test ever sets is an
option with a single value in use; it belongs in a module constant.  The
scan parses every module of ``src/nonlocal_dv`` and collects the defaulted
parameters of each function, then every argument passed to a call of that
function's name anywhere in ``src/`` and ``tests/``.  Calls are matched by
name only (``f.values_on(...)`` counts for ``DensitySpec.values_on``), a
``*args`` call sets every positional parameter and a ``**kwargs`` call sets
every parameter.  Parameters whose names start with ``_`` only bind
closure values and are skipped.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nonlocal_dv"


def _trees(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _bound_first(fn, in_class: bool) -> bool:
    # a method called through an instance or class gets its first argument
    # bound, unless it is a staticmethod
    if not in_class:
        return False
    return not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                   for d in fn.decorator_list)


def _defaulted(tree):
    """(callee name, parameter name, positional index or None) triples.

    A constructor is called by the name of its class.
    """
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = cls if child.name == "__init__" else child.name
                a = child.args
                positional = a.posonlyargs + a.args
                shift = 1 if _bound_first(child, cls is not None) else 0
                first = len(positional) - len(a.defaults)
                for i in range(first, len(positional)):
                    out.append((name, positional[i].arg, i - shift))
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        out.append((name, arg.arg, None))
                visit(child, None)
            elif isinstance(child, ast.ClassDef):
                visit(child, child.name)
            else:
                visit(child, cls)

    visit(tree, None)
    return out


def _calls(trees):
    """Per callee name: positional counts, keyword names, and a flag for
    calls that pass ``**kwargs``."""
    positional = defaultdict(int)
    keywords = defaultdict(set)
    everything = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            else:
                continue
            if any(isinstance(a, ast.Starred) for a in node.args):
                positional[name] = 10 ** 6
            else:
                positional[name] = max(positional[name], len(node.args))
            for kw in node.keywords:
                if kw.arg is None:
                    everything.add(name)
                else:
                    keywords[name].add(kw.arg)
    return positional, keywords, everything


def unset_parameters():
    trees = list(_trees(ROOT / "src", ROOT / "tests"))
    positional, keywords, everything = _calls(trees)
    unset = []
    for path, tree in trees:
        if not path.is_relative_to(PACKAGE):
            continue
        for fn, param, index in _defaulted(tree):
            if param.startswith("_") or fn in everything:
                continue
            if param in keywords[fn]:
                continue
            if index is not None and positional[fn] > index:
                continue
            unset.append("%s:%s.%s" % (path.stem, fn, param))
    return unset


def test_every_defaulted_parameter_has_a_caller():
    unset = unset_parameters()
    assert not unset, ("defaulted parameters that no call in src/ or tests/ "
                       "sets: %s" % ", ".join(unset))
