"""Config checking: every schema keyword exits 2 and names its field.

Each case changes one field of a config that is valid for every command
and pins the path the error names.  Inside an ``anyOf`` the named field
is the deepest error of the one branch whose type the value has, and the
``anyOf`` itself when no branch has that type or when two errors share
that deepest path.

The walker is compared with ``jsonschema``'s ``best_match`` on every
single-fault edit of one small config per command, and the schema may
use no keyword the walker does not check.  Non-finite numbers, which
JSON Schema lets through, are the one intended difference.
"""

import copy
import json

import pytest

from nonlocal_dv import cli
from nonlocal_dv.cli import main
from nonlocal_dv.errors import ConfigError

FULL = {
    "seed": 3,
    "kernel": {"variant": "constant", "matrix": [[1.0]], "s": 0.5,
               "normalized": True},
    "domain": {"shape": "interval", "lower": -1.0, "upper": 1.0, "cells": 12,
               "margin": 0.5},
    "density": {"profile": {"kind": "bump", "radius": 0.8}, "cells": 24},
    "drift": {"kind": "tanh", "amplitude": 0.3, "slope": 2.0},
    "probe": {"x0": [0.2], "lambdas": [0.5, 0.25, 0.125], "cells": 40},
    "barrier": {"domain": "interval", "alpha": 0.75, "delta": 0.1,
                "points": 3},
    "eigen": {"tol": 1e-9, "max_iter": 300},
    "eval": {"function": {"kind": "bump"}, "points": [[0.0]]},
    "checks": ["layer_constants"],
    "output": {"json": "summary.json", "csv": "data.csv"},
}

_DELETE = object()


def mutated(cfg: dict, changes: dict) -> dict:
    """A deep copy of ``cfg`` with each dotted key set, or deleted."""
    out = copy.deepcopy(cfg)
    for dotted, value in changes.items():
        *parents, last = dotted.split(".")
        node = out
        for key in parents:
            node = node[int(key)] if isinstance(node, list) else node[key]
        if value is _DELETE:
            del node[last]
        else:
            node[last] = value
    return out


def run_eigen(tmp_path, cfg: dict) -> int:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return main(["eigen", "--config", str(path),
                 "--output-dir", str(tmp_path / "out")])


KEYWORD_CASES = [
    ("type", {"kernel.s": "0.5"}, "kernel.s"),
    ("type-boolean-is-not-a-number", {"kernel.s": True}, "kernel.s"),
    ("type-integer", {"eigen.max_iter": 2.5}, "eigen.max_iter"),
    # 2.0 is an integer: only the margin is at fault
    ("type-integer-accepts-2.0", {"domain.cells": 40.0, "seed": 2.0,
                                  "domain.margin": -0.5}, "domain.margin"),
    ("type-object", {"eigen": []}, "eigen"),
    ("type-string", {"checks": ["layer_constants", 3]}, "checks.1"),
    ("type-boolean", {"kernel.normalized": 1}, "kernel.normalized"),
    ("enum", {"kernel.variant": "diagonal"}, "kernel.variant"),
    ("required", {"kernel.s": _DELETE}, "kernel"),
    ("required-block", {"domain": _DELETE}, "(top level)"),
    ("additionalProperties", {"kernel.bogus": 1}, "kernel"),
    ("additionalProperties-top", {"bogus": 1}, "(top level)"),
    # the ellipticity bounds are derived from the matrix, not configured
    ("additionalProperties-gamma", {"kernel.gamma": 0.1}, "kernel"),
    ("additionalProperties-Gamma", {"kernel.Gamma": 9.0}, "kernel"),
    # every density is normalized, and the scan floor is 4 mesh
    ("additionalProperties-normalize", {"density.normalize": False},
     "density"),
    ("additionalProperties-d_min", {"barrier.d_min": 0.01}, "barrier"),
    ("properties", {"density.profile.width": "wide"},
     "density.profile.width"),
    ("minimum", {"domain.margin": -0.5}, "domain.margin"),
    ("maximum", {"probe.lambdas": [0.5, 1.5, 0.125]}, "probe.lambdas.1"),
    ("exclusiveMinimum", {"kernel.s": 0}, "kernel.s"),
    ("exclusiveMaximum", {"kernel.s": 1}, "kernel.s"),
    ("items", {"eval.points": [[0.0], ["a"]]}, "eval.points.1.0"),
    ("minItems", {"eval.points": []}, "eval.points"),
    # a verify run checks something
    ("minItems-checks", {"checks": []}, "checks"),
    ("maxItems", {"kernel.matrix": [[1.0]] * 4}, "kernel.matrix"),
    ("minLength", {"output.json": ""}, "output.json"),
    # domain.lower is a number or an array of numbers
    ("anyOf-no-branch-type", {"domain.lower": "x"}, "domain.lower"),
    ("anyOf-number-branch", {"domain.lower": True}, "domain.lower"),
    ("anyOf-array-branch", {"domain.lower": [0.0, "a"]}, "domain.lower.1"),
    ("anyOf-array-branch-own-error", {"domain.lower": []}, "domain.lower"),
    ("anyOf-array-branch-deepest", {"domain.lower": [0, 1, 2, "a"]},
     "domain.lower.3"),
    # domain.cells is an integer of at least 4 or an array of them
    ("anyOf-integer-branch", {"domain.cells": 2}, "domain.cells"),
    ("anyOf-not-an-integer", {"domain.cells": 5.5}, "domain.cells"),
    ("anyOf-cells-array-branch", {"domain.cells": [8, 2]}, "domain.cells.1"),
    ("anyOf-cells-first-item", {"domain.cells": [1, 2, 3, 4]},
     "domain.cells.0"),
    # the item 1.5 is neither an integer nor at least 4: two errors at
    # the deepest path, so the anyOf itself is named
    ("anyOf-cells-tied-item", {"domain.cells": [1.5]}, "domain.cells"),
]


@pytest.mark.parametrize("changes, field",
                         [case[1:] for case in KEYWORD_CASES],
                         ids=[case[0] for case in KEYWORD_CASES])
def test_schema_keyword_names_field(tmp_path, capsys, changes, field):
    assert run_eigen(tmp_path, mutated(FULL, changes)) == 2
    assert f"config error at '{field}':" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_full_config_is_valid_for_every_command(command):
    cli._validate_config(FULL, command)


# one small config per command, together using every block and every key
BASES = [
    ("operator-eval", {
        "seed": 1,
        "kernel": {"variant": "separable_product",
                   "matrix": [[1.2, 0.3], [0.3, 0.9]], "s": 0.4,
                   "amplitude": 0.2},
        "eval": {"function": {"kind": "gaussian", "width": 0.7,
                              "center": [0.1, 0.2], "amplitude": 1.5},
                 "points": [[0.0, 0.1], [0.3, -0.2]]},
        "drift": {"kind": "constant", "value": 0.5},
        "output": {"json": "summary.json", "csv": "data.csv"},
    }),
    ("eigen", {
        "kernel": {"variant": "constant", "matrix": [[1.2, 0.3], [0.3, 0.8]],
                   "s": 0.5},
        "domain": {"shape": "box", "lower": [-1.0, -1.0], "upper": 1.0,
                   "cells": [8, 6], "margin": 0.25},
        "drift": {"kind": "tanh", "amplitude": 0.4, "slope": 2.0},
        "eigen": {"tol": 1e-9, "max_iter": 300, "dense_check": False},
    }),
    ("eigen", {
        "kernel": {"variant": "separable_sum", "matrix": [[1.0]], "s": 0.3},
        "domain": {"shape": "ball", "center": [0.0], "radius": 1.0,
                   "cells_across": 12, "lower": -1.0, "cells": 10},
    }),
    ("dv-functional", {
        "kernel": {"variant": "constant", "matrix": [[1.0]], "s": 0.5,
                   "normalized": True},
        "density": {"profile": {"kind": "bump", "radius": 0.8,
                                "center": [0.1]},
                    "cells": 24},
        "drift": {"kind": "power_profile", "alpha": 1.5},
    }),
    ("recover-matrix", {
        "kernel": {"variant": "constant", "matrix": [[4.0, 0.0], [0.0, 1.0]],
                   "s": 0.5},
        "probe": {"lambdas": [0.5, 0.25, 0.125], "second_width": 0.6},
    }),
    ("recover-drift", {
        "kernel": {"variant": "constant", "matrix": [[1.0]], "s": 0.5},
        "drift": {"kind": "gaussian", "width": 0.9, "amplitude": 0.5},
        "probe": {"x0": [0.2], "lambdas": [0.5, 0.25, 0.125], "cells": 40},
    }),
    ("barrier-check", {
        "kernel": {"variant": "constant", "matrix": [[1.0]], "s": 0.5},
        "barrier": {"domain": "ball", "alpha": 0.75, "delta": 0.1,
                    "radius": 1.0, "points": 3, "mesh": 0.01},
    }),
    ("verify", {"checks": ["layer_constants"], "seed": 0}),
]

# each value replaces every node in turn; the arrays reach into both
# branches of domain.cells and domain.lower
REPLACEMENTS = ["x", "", True, None, -1, 0, 1, 2, 4, 0.5, 1.5, 2.0, 2.5,
                [], [0.5], [1.5], [2, 1.5], [1.5, 7], [8, 2], [1, 2, 3, 4],
                [8, 8, 8, 8], ["a"], {}]


def nodes(value, path=()):
    """Every (path, value) pair of a JSON document, the root first."""
    yield path, value
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, sub in items:
        yield from nodes(sub, path + (key,))


def set_at(doc, path, value):
    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return out


def mutations(cfg):
    """Each config one edit away from ``cfg``: a node replaced, a key
    deleted or added, an array grown by its last item."""
    for path, value in nodes(cfg):
        if path:
            for new in REPLACEMENTS:
                yield set_at(cfg, path, new)
            if isinstance(path[-1], str):
                yield set_at(cfg, path, _DELETE)
            if isinstance(value, list) and value:
                yield set_at(cfg, path, value + [value[-1]])
        if isinstance(value, dict):
            yield set_at(cfg, path + ("bogus",), 1)


def test_walker_names_the_field_best_match_names():
    # jsonschema is the reference here only; the walker is checked against
    # its best_match on every mutation that jsonschema finds one error in
    import jsonschema

    compared = cells_arrays = 0
    for command, base in BASES:
        schema = cli._config_schema(command)
        validator = jsonschema.Draft202012Validator(schema)
        assert not list(validator.iter_errors(base))
        for cfg in mutations(base):
            errors = list(validator.iter_errors(cfg))
            if len(errors) != 1:
                continue
            best = jsonschema.exceptions.best_match(errors)
            want = ".".join(map(str, best.absolute_path)) or "(top level)"
            with pytest.raises(ConfigError) as info:
                cli._validate_config(cfg, command)
            assert info.value.field_path == want, (command, cfg)
            compared += 1
            cells_arrays += (want.startswith("domain.cells")
                             and isinstance(cfg["domain"]["cells"], list))
    assert compared > 2000
    assert cells_arrays > 20


def schemas(schema):
    """Every subschema of ``schema``, itself first."""
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from schemas(sub)
    for sub in schema.get("anyOf", []):
        yield from schemas(sub)
    if "items" in schema:
        yield from schemas(schema["items"])


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_schema_uses_only_keywords_the_walker_checks(command):
    # a keyword outside this set would be skipped without a word
    for sub in schemas(cli._config_schema(command)):
        assert set(sub) <= set(cli._KEYWORD_CHECKS), sorted(sub)
        # the walker picks an anyOf branch by its type, and rejects only
        # the additional properties it is told to reject
        assert all("type" in branch for branch in sub.get("anyOf", []))
        assert sub.get("additionalProperties", False) is False


# json.loads reads NaN, Infinity and -Infinity, and 1e999 as inf
NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e999"]


@pytest.mark.parametrize("literal", NON_FINITE)
@pytest.mark.parametrize("command, text, field", [
    ("recover-matrix",
     '{"kernel": {"variant": "constant", "matrix": [[1.0]], "s": 0.5}, '
     '"probe": {"lambdas": [@, @, @]}}', "probe.lambdas.0"),
    ("operator-eval",
     '{"kernel": {"variant": "constant", "matrix": [[1.0]], "s": 0.5}, '
     '"eval": {"function": {"kind": "gaussian", "width": @}, '
     '"points": [[0.0]]}}', "eval.function.width"),
    ("operator-eval",
     '{"kernel": {"variant": "constant", "matrix": [[1.0]], "s": 0.5}, '
     '"eval": {"function": {"kind": "bump"}, "points": [[@]]}}',
     "eval.points.0.0"),
    ("eigen",
     '{"kernel": {"variant": "constant", "matrix": [[1.0]], "s": 0.5}, '
     '"domain": {"shape": "interval", "lower": @, "upper": 1.0, '
     '"cells": 12}}', "domain.lower"),
], ids=["lambdas", "width", "point", "anyOf"])
def test_non_finite_number_exits_2(tmp_path, capsys, command, text, field,
                                   literal):
    path = tmp_path / "cfg.json"
    path.write_text(text.replace("@", literal))
    assert main([command, "--config", str(path),
                 "--output-dir", str(tmp_path / "out")]) == 2
    assert f"config error at '{field}':" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
