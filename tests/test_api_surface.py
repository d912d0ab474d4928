"""The package's public surface is what its own commands and checks reach.

A public function, method or class that no code in ``src/`` refers to, a
private top-level function likewise, or a defaulted parameter or
dataclass field that no call in ``src/`` sets, is surface only the tests
hold up; it belongs deleted, or in a module constant.  Tests do not
count as callers here: a test reaching a name does not make the package
need it.  The few names kept for the tests' sake are listed in
``ALLOWED``, each under a comment naming the paper statement or the
reference role it serves.

The scan parses every module of ``src/nonlocal_dv`` with ``ast``.
Names are matched, not bindings: ``f.values_on(...)`` counts for
``DensitySpec.values_on``.  A function or class is referenced by a name
or attribute load anywhere in ``src/`` outside its own definition
(imports and ``__all__`` strings do not count); a method or property by
an attribute.  A parameter is set by a call of the function's name that
passes it by keyword or position; a constructor is called by its class
name, or as ``cls(...)`` inside a classmethod of the class, and a
dataclass field is also set by a keyword of ``dataclasses.replace``.  A
``*args`` call sets every positional parameter and a ``**kwargs`` call
every parameter.  Parameters whose names start with ``_`` only bind
closure values and are skipped.  Every module with an ``__all__`` lists
exactly its public top-level functions and classes, and only names it
defines.
"""

import ast
from collections import defaultdict
from pathlib import Path

from nonlocal_dv.lattice import AssembledOperator

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nonlocal_dv"

# reached only from tests, and kept for the reason above each entry
ALLOWED = {
    # explicit A(x, y) = M(x) + M(y) or M(x) M(y) + M(y) M(x): the
    # reference for the one formula
    "kernels:AnisotropyField.pair_matrices",
    # the probe as one function of dim variables: the reference for the
    # factor route of fourier_energy
    "recovery:GaussianProbe.frame_function",
    # I(f) = -inf_{u>0} Int (Lu/u) f, the paper's definition of the rate
    # value, at one candidate u, which may be constant at infinity: the
    # reference the closed form I_closed_form_h0 is tested against
    "rate:rayleigh_integral",
    "rate:rayleigh_integral.far_value",
    # the jump of the drift, to put it below and above the oscillation-1
    # threshold of interior positivity
    "spectral:maxprinciple_violation_demo.drift_jump",
    # the resolution seam of the lattice and its brute-force reference
    # (no self-cell correction)
    "lattice:assemble.quad",
    "lattice:assemble.self_cell",
    # the resolution seam: the fields of the scheme that src/ leaves at
    # their defaults
    "operators:QuadratureScheme.angular_count",
    "operators:QuadratureScheme.polar_order",
    "operators:QuadratureScheme.tail_tolerance",
    # the scales of the diffusion limit, which the tests vary
    "recovery:diffusion_limit.lambda_seq",
    # the command line, which the tests pass in place of sys.argv
    "cli:main.argv",
}


def _package_trees():
    return [(path, ast.parse(path.read_text(), filename=str(path)))
            for path in sorted(PACKAGE.rglob("*.py"))]


def _decorators(node) -> set:
    out = set()
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if isinstance(d, ast.Name):
            out.add(d.id)
        elif isinstance(d, ast.Attribute):
            out.add(d.attr)
    return out


def _bound_first(fn, in_class: bool) -> bool:
    # a method called through an instance or class gets its first argument
    # bound, unless it is a staticmethod
    return in_class and "staticmethod" not in _decorators(fn)


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _dataclass_fields(cls: ast.ClassDef):
    """(name, has default) of each field of a dataclass, in order."""
    out = []
    for node in cls.body:
        if not (isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)):
            continue
        if "ClassVar" in ast.dump(node.annotation):
            continue
        out.append((node.target.id, node.value is not None))
    return out


def _defaulted(tree):
    """(callee name, parameter name, positional index or None) triples.

    A constructor is called by the name of its class; the defaulted fields
    of a dataclass are parameters of its constructor.
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
                if "dataclass" in _decorators(child):
                    for i, (fld, has_default) in enumerate(
                            _dataclass_fields(child)):
                        if has_default:
                            out.append((child.name, fld, i))
                visit(child, child.name)
            else:
                visit(child, cls)

    visit(tree, None)
    return out


def _calls(trees):
    """Per callee name: positional counts, keyword names, and a flag for
    calls that pass ``**kwargs``.  ``cls(...)`` in a classmethod is a call
    of its class, and the keywords of ``replace(...)`` go to the callee
    ``replace``, which stands for every dataclass."""
    positional = defaultdict(int)
    keywords = defaultdict(set)
    everything = set()

    def visit(node, cls, classmethod_of):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, None)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = (cls if cls is not None
                         and "classmethod" in _decorators(child) else None)
                visit(child, None, owner)
                continue
            if isinstance(child, ast.Call):
                record(child, classmethod_of)
            visit(child, cls, classmethod_of)

    def record(node, classmethod_of):
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
            if name == "cls" and classmethod_of is not None:
                name = classmethod_of
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            return
        if any(isinstance(a, ast.Starred) for a in node.args):
            positional[name] = 10 ** 6
        else:
            positional[name] = max(positional[name], len(node.args))
        for kw in node.keywords:
            if kw.arg is None:
                everything.add(name)
            else:
                keywords[name].add(kw.arg)

    for _, tree in trees:
        visit(tree, None, None)
    return positional, keywords, everything


def unset_parameters():
    """Defaulted parameters and dataclass fields no call in src/ sets."""
    trees = _package_trees()
    positional, keywords, everything = _calls(trees)
    dataclasses = {node.name for _, tree in trees for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef)
                   and "dataclass" in _decorators(node)}
    unset = []
    for path, tree in trees:
        for fn, param, index in _defaulted(tree):
            if not _is_public(param) or fn in everything:
                continue
            if param in keywords[fn]:
                continue
            if fn in dataclasses and param in keywords["replace"]:
                continue
            if index is not None and positional[fn] > index:
                continue
            unset.append("%s:%s.%s" % (path.stem, fn, param))
    return unset


def _definitions(tree):
    """(qualified name, node, is method) of the top-level functions, public
    or private, the public top-level classes and the public methods of
    top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef) and _is_public(node.name):
            yield node.name, node, False
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and _is_public(item.name)):
                    yield "%s.%s" % (node.name, item.name), item, True


def _references(trees):
    """Per name, the (path, line) of each load of it as a name, and of each
    load of it as an attribute."""
    names, attrs = defaultdict(list), defaultdict(list)
    for path, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names[node.id].append((path, node.lineno))
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                attrs[node.attr].append((path, node.lineno))
    return names, attrs


def unreferenced_names():
    """Top-level functions, public classes and public methods nothing in
    src/ refers to outside their own definition."""
    trees = _package_trees()
    names, attrs = _references(trees)
    unused = []
    for path, tree in trees:
        for qualified, node, method in _definitions(tree):
            name = qualified.rsplit(".", 1)[-1]
            refs = attrs[name] if method else names[name] + attrs[name]
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(p != path or line not in inside for p, line in refs):
                unused.append("%s:%s" % (path.stem, qualified))
    return unused


def test_every_public_name_is_reached_from_the_package():
    unused = [n for n in unreferenced_names() if n not in ALLOWED]
    assert not unused, ("public names that nothing in src/ refers to: %s"
                        % ", ".join(unused))


def test_every_defaulted_parameter_has_a_caller():
    unset = [n for n in unset_parameters() if n not in ALLOWED]
    assert not unset, ("defaulted parameters and fields that no call in "
                       "src/ sets: %s" % ", ".join(unset))


def test_allowlist_holds_only_test_reached_entries():
    # an entry the package reaches itself, or one that no longer exists,
    # is stale and leaves the list
    flagged = set(unreferenced_names()) | set(unset_parameters())
    stale = sorted(ALLOWED - flagged)
    assert not stale, "allowlist entries the scan does not flag: %s" % stale


def test_dunder_all_matches_public_definitions():
    problems = []
    for path, tree in _package_trees():
        listed = None
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for t in targets:
                    if isinstance(t, ast.Name):
                        defined.add(t.id)
                        if t.id == "__all__":
                            listed = ast.literal_eval(node.value)
        if listed is None:
            continue
        public = {node.name for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
                  and _is_public(node.name)}
        for name in sorted(set(listed) - defined):
            problems.append("%s: __all__ names undefined %s" % (path.stem, name))
        for name in sorted(public - set(listed)):
            problems.append("%s: %s missing from __all__" % (path.stem, name))
    assert not problems, "; ".join(problems)


def test_operator_holds_no_pair_weights():
    # every reader of W streams it (lattice._pair_pass); nothing gathers it
    assert not hasattr(AssembledOperator, "pair_weights")
