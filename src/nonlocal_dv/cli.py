"""Config-driven command line runs with JSON summaries and CSV data.

Seven commands share one configuration format, a single JSON file whose
blocks (kernel, domain, density, drift, probe, barrier, eigen, eval) are
checked against a schema before anything is computed.  A malformed or
schema-violating config exits with status 2 and names the offending
field; a numerical failure inside the package exits with status 3 and
the raising error type; success exits 0.

The schema is a set of JSON Schema dicts, checked by a small walker that
knows exactly the keywords they use.  It keeps JSON Schema's typing: a
boolean is not a number and 2.0 is an integer; a non-finite float (NaN,
Infinity, or a literal such as 1e999 that overflows) is not a number
either.  The error names one field by a fixed rule: the first violation
in schema order, each value checked keyword by keyword in the order of
``_KEYWORD_CHECKS``, so that an object's own ``required`` and
``additionalProperties`` (named at the object's path) come before its
``properties``, which go in the schema's order.  Inside an ``anyOf`` the
walker descends into the one branch whose type the value has and names
that branch's deepest error, the first of them if several are equally
deep; it names the ``anyOf``'s own path when no branch has the value's
type, or when two errors share that deepest path.  On a config with a
single fault this is the field ``jsonschema.exceptions.best_match``
names.

The ``kernel`` block takes ``variant``, ``matrix``, ``s``, ``normalized``
and ``amplitude``; the lower ellipticity bound of the spec is derived from
the matrix and the amplitude (``kernels.spec_from_config``), and any other
key exits with status 2 at ``kernel``.  Likewise a density profile of
any amplitude is scaled to unit lattice mass (``DensitySpec.values_on``)
and the barrier scan floor is always 4 ``mesh``, so ``density.normalize``
and ``barrier.d_min`` are not keys: a config with either exits with
status 2 at its block.  A profile that is negative, not finite or of zero
mass on its lattice exits with status 2 at ``density.profile``.
``checks`` names at least one check.

The summary is written to ``output.json`` and the data to ``output.csv``
(by default ``<command>_summary.json`` and ``<command>_data.csv`` in
``--output-dir``); ``eigen`` and ``dv-functional`` also write the grid of
their CSV to its ``.json`` sidecar.  Every file goes through one of two
writers, ``_write_json`` and ``_write_csv``; no other module writes a
file.  Each output path is settled before anything is computed: missing
directories are made, and removed again if the run fails, while two
outputs on one path, or an output path that is a directory, exit with
status 2 at ``output.json`` or ``output.csv``.

Outputs are deterministic: for a fixed config file and seed the written
JSON and CSV files are byte-identical across runs.  Each JSON summary
carries a provenance block with the config digest and, per result key,
the fully qualified routine that produced it.

``eigen`` reports the Collatz-Wielandt bounds ``lambda1_lower`` and
``lambda1_upper`` of the principal function; when every off-diagonal
entry of the operator matrix is positive they certify ``lambda1`` to
10 tol max(1, |lambda1|), and are null for any other sign pattern.  With
``eigen.dense_check`` (the default) the iteration is also cross-checked
against one oracle, and a mismatch fails the run: under the bracket the
oracle proves from one block elimination of the shifted matrix that a
window of 10 tol max(1, |lambda1|) around the iteration's value holds the
eigenvalue, and takes the lower Collatz-Wielandt quotient of its own two
solves, below lambda1 by the window's width squared over the gap to the
next eigenvalue (``spectral.perron_eigenvalue``, no eigenvalue solver);
elsewhere it is one dense eigenvalue solve.  With ``"dense_check": false``
the oracle runs only where there is no bracket; its eigenvalue
(``dense_lambda1``) and the gap (``iteration_vs_dense``) are reported
whenever it ran.

``dv-functional`` reports the step count and the final Newton decrement
of its error-form minimization (``error_form_newton_steps``,
``error_form_newton_decrement``).  A drift that moves by 2 or more across
the density support leaves that form nonconvex, and the run exits with
status 3 (``DomainError``).

``operator-eval`` exits with status 3 (``DomainError``) and names the
first point that gets no rule, because its distance from the origin or
its quadrature radius is not finite (a point at 1e200 overflows), or
whose value is not finite.

``barrier-check`` reports the flat-boundary limit ``flat_limit`` for a
constant field with alpha < 2s, and null for any other field or exponent,
where the limit is not defined; an error while computing it exits with
status 3.

Environment: ``NONLOCAL_DV_LOG`` selects the log level (DEBUG .. ERROR).
``--threads`` sets the thread count of numpy's OpenBLAS pool, the only
BLAS the package calls, through its runtime setter, and exits with
status 2 when the setter cannot be found; the orchestration itself is
single-threaded.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import hashlib
import importlib.metadata
import json
import logging
import math
import operator
import os
import sys
from pathlib import Path

import numpy as np

from .barriers import BarrierConfig, barrier_scan, flat_limit_reference
from .errors import ConfigError, DomainError, NonlocalError
from .kernels import spec_from_config
from .lattice import GridFunction, LatticeDomain, assemble
from .operators import (
    SmoothFunction,
    bump,
    carre_du_champ,
    gaussian,
    interval_power,
    nonlocal_laplacian,
    tanh_drift,
)
from .rate import (
    DensitySpec,
    I_decomposed,
    density_lattice,
    first_order_residual,
)
from .recovery import (
    constancy_check,
    drift_probe,
    fourier_probe_oracle,
    recover_matrix,
    scale_ratio,
)
from .spectral import principal_eigenpair
from .verify import available_checks, run_suite

_log = logging.getLogger("nonlocal_dv.cli")

try:
    _VERSION = importlib.metadata.version("nonlocal-dv")
except importlib.metadata.PackageNotFoundError:
    _VERSION = "unknown"

COMMANDS = ("operator-eval", "eigen", "dv-functional", "recover-matrix",
            "recover-drift", "barrier-check", "verify")


# ---------------------------------------------------------------------------
# configuration schema

_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}
_BOOL = {"type": "boolean"}
_VEC = {"type": "array", "items": _NUM, "minItems": 1, "maxItems": 3}
_CELLS = {"type": "integer", "minimum": 4}

_FUNCTION = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["gaussian", "bump", "constant", "tanh",
                          "power_profile"]},
        "width": _POS,
        "radius": _POS,
        "center": _VEC,
        "amplitude": _NUM,
        "value": _NUM,
        "slope": _POS,
        "alpha": _POS,
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_TOP_PROPERTIES = {
    "seed": {"type": "integer", "minimum": 0},
    "kernel": {
        "type": "object",
        "properties": {
            "variant": {"enum": ["constant", "separable_sum",
                                 "separable_product"]},
            "matrix": {"type": "array", "minItems": 1, "maxItems": 3,
                       "items": {"type": "array", "items": _NUM,
                                 "minItems": 1, "maxItems": 3}},
            "s": {"type": "number", "exclusiveMinimum": 0,
                  "exclusiveMaximum": 1},
            "normalized": _BOOL,
            "amplitude": _NUM,
        },
        "required": ["variant", "matrix", "s"],
        "additionalProperties": False,
    },
    "domain": {
        "type": "object",
        "properties": {
            "shape": {"enum": ["interval", "box", "ball"]},
            "lower": {"anyOf": [_NUM, _VEC]},
            "upper": {"anyOf": [_NUM, _VEC]},
            "cells": {"anyOf": [_CELLS, {"type": "array", "items": _CELLS,
                                         "minItems": 1, "maxItems": 3}]},
            "center": _VEC,
            "radius": _POS,
            "cells_across": _CELLS,
            "margin": {"type": "number", "minimum": 0},
        },
        "required": ["shape"],
        "additionalProperties": False,
    },
    "density": {
        "type": "object",
        "properties": {
            "profile": _FUNCTION,
            "cells": {"type": "integer", "minimum": 8},
        },
        "required": ["profile"],
        "additionalProperties": False,
    },
    "drift": _FUNCTION,
    "probe": {
        "type": "object",
        "properties": {
            "x0": _VEC,
            "lambdas": {"type": "array", "minItems": 3,
                        "items": {"type": "number", "exclusiveMinimum": 0,
                                  "maximum": 1}},
            "cells": {"type": "integer", "minimum": 8},
            "second_width": _POS,
        },
        "additionalProperties": False,
    },
    "barrier": {
        "type": "object",
        "properties": {
            "domain": {"enum": ["interval", "ball"]},
            "alpha": _POS,
            "delta": _POS,
            "radius": _POS,
            "points": {"type": "integer", "minimum": 2},
            "mesh": _POS,
        },
        "required": ["domain", "alpha", "delta"],
        "additionalProperties": False,
    },
    "eigen": {
        "type": "object",
        "properties": {
            "tol": _POS,
            "max_iter": {"type": "integer", "minimum": 1},
            "dense_check": _BOOL,
        },
        "additionalProperties": False,
    },
    "eval": {
        "type": "object",
        "properties": {
            "function": _FUNCTION,
            "points": {"type": "array", "minItems": 1, "items": _VEC},
        },
        "required": ["function", "points"],
        "additionalProperties": False,
    },
    "checks": {"type": "array", "items": {"type": "string"}, "minItems": 1},
    "output": {
        "type": "object",
        "properties": {
            "json": {"type": "string", "minLength": 1},
            "csv": {"type": "string", "minLength": 1},
        },
        "additionalProperties": False,
    },
}

_COMMAND_REQUIRED = {
    "operator-eval": ["kernel", "eval"],
    "eigen": ["kernel", "domain"],
    "dv-functional": ["kernel", "density"],
    "recover-matrix": ["kernel"],
    "recover-drift": ["kernel", "drift", "probe"],
    "barrier-check": ["kernel", "barrier"],
    "verify": [],
}


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}",
                          field_path="--config") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}",
                          field_path="--config") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config top level must be a JSON object",
                          field_path="(top level)")
    return cfg


def _number(value) -> bool:
    """JSON Schema's number, less NaN and the infinities: a boolean is not."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and (isinstance(value, int) or math.isfinite(value)))


def _integer(value) -> bool:
    """JSON Schema's integer, which 2.0 is."""
    return _number(value) and (isinstance(value, int) or value.is_integer())


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": _number,
    "integer": _integer,
}


def _check_type(value, name, schema, path):
    if not _TYPES[name](value):
        yield path, f"{value!r} is not of type {name!r}"


def _check_enum(value, options, schema, path):
    if value not in options:
        yield path, f"{value!r} is not one of {options!r}"


def _check_any_of(value, branches, schema, path):
    typed = [list(_violations(value, b, path)) for b in branches
             if _TYPES[b["type"]](value)]
    if not all(typed):
        return
    if len(typed) == 1:
        errors = sorted(typed[0], key=lambda e: (-len(e[0]), e[0]))
        if len(errors) == 1 or errors[1][0] != errors[0][0]:
            yield errors[0]
            return
    yield path, f"{value!r} is not valid under any of the given schemas"


def _check_required(value, names, schema, path):
    if isinstance(value, dict):
        for name in names:
            if name not in value:
                yield path, f"{name!r} is a required property"


def _check_additional(value, allowed, schema, path):
    if isinstance(value, dict) and allowed is False:
        extra = [k for k in value if k not in schema.get("properties", {})]
        if extra:
            yield path, ("additional properties are not allowed: "
                         + ", ".join(map(repr, extra)))


def _check_properties(value, properties, schema, path):
    if isinstance(value, dict):
        for name, sub in properties.items():
            if name in value:
                yield from _violations(value[name], sub, path + (name,))


def _check_items(value, sub, schema, path):
    if isinstance(value, list):
        for k, item in enumerate(value):
            yield from _violations(item, sub, path + (k,))


def _bound(fails, word: str):
    def check(value, limit, schema, path):
        if _number(value) and fails(value, limit):
            yield path, f"{value!r} is {word} {limit!r}"
    return check


def _size(kind: type, fails, word: str):
    def check(value, limit, schema, path):
        if isinstance(value, kind) and fails(len(value), limit):
            yield path, f"{value!r} is {word} {limit}"
    return check


# every keyword the schema may use, in the order a node is checked
_KEYWORD_CHECKS = {
    "type": _check_type,
    "enum": _check_enum,
    "anyOf": _check_any_of,
    "required": _check_required,
    "additionalProperties": _check_additional,
    "properties": _check_properties,
    "minimum": _bound(operator.lt, "below the minimum"),
    "maximum": _bound(operator.gt, "above the maximum"),
    "exclusiveMinimum": _bound(operator.le, "at or below the bound"),
    "exclusiveMaximum": _bound(operator.ge, "at or above the bound"),
    "minItems": _size(list, operator.lt, "shorter than the minimum length"),
    "maxItems": _size(list, operator.gt, "longer than the maximum length"),
    "items": _check_items,
    "minLength": _size(str, operator.lt, "shorter than the minimum length"),
}


def _violations(value, schema: dict, path: tuple = ()):
    """Yield (path, message) for each violation of ``schema`` by ``value``,
    in schema order."""
    for keyword, check in _KEYWORD_CHECKS.items():
        if keyword in schema:
            yield from check(value, schema[keyword], schema, path)


def _config_schema(command: str) -> dict:
    return {
        "type": "object",
        "properties": _TOP_PROPERTIES,
        "required": _COMMAND_REQUIRED[command],
        "additionalProperties": False,
    }


def _validate_config(cfg: dict, command: str) -> None:
    first = next(_violations(cfg, _config_schema(command)), None)
    if first is not None:
        path, message = first
        raise ConfigError(message, field_path=".".join(map(str, path))
                          or "(top level)")
    kernel = cfg.get("kernel", {})
    if kernel.get("variant") == "constant" and "amplitude" in kernel:
        raise ConfigError("'amplitude' sizes the perturbation of a separable "
                          "field; a constant kernel has none",
                          field_path="kernel.amplitude")


# ---------------------------------------------------------------------------
# block builders


def _kernel_from_config(block: dict):
    try:
        spec = spec_from_config(block)
    except ConfigError:
        raise
    except (NonlocalError, ValueError) as exc:
        raise ConfigError(str(exc), field_path="kernel") from exc
    return spec, len(block["matrix"])


def _function_from_config(block: dict, dim: int, field: str) -> SmoothFunction:
    kind = block["kind"]
    center = block.get("center")
    if center is not None and len(center) != dim:
        raise ConfigError(f"center must have {dim} entries",
                          field_path=f"{field}.center")
    if kind == "gaussian":
        return gaussian(dim, width=block.get("width", 1.0), center=center,
                        amplitude=block.get("amplitude", 1.0))
    if kind == "bump":
        return bump(dim, center=center, radius=block.get("radius", 1.0),
                    amplitude=block.get("amplitude", 1.0))
    if kind == "tanh":
        return tanh_drift(dim, amplitude=block.get("amplitude", 0.3),
                          slope=block.get("slope", 2.0))
    if kind == "power_profile":
        return interval_power(block.get("alpha", 1.5), dim)
    value = block.get("value", 0.0)
    return SmoothFunction(
        lambda p, _v=value: np.full(p.shape[0], _v), dim,
        support_radius=0.5, far_value=value)


def _drift_from_config(cfg: dict, dim: int) -> SmoothFunction | None:
    """The optional ``drift`` block, None without one."""
    return _function_from_config(cfg["drift"], dim, "drift") if "drift" in cfg else None


def _probe_lambdas(probe: dict) -> tuple[float, ...]:
    """``probe.lambdas`` (default 1/2, 1/4, 1/8), ConfigError at that path
    when ``scale_ratio`` rejects them."""
    lam = tuple(probe.get("lambdas", (0.5, 0.25, 0.125)))
    try:
        scale_ratio(lam)
    except DomainError as exc:
        raise ConfigError(str(exc), field_path="probe.lambdas") from exc
    return lam


def _as_list(value, length: int, field: str) -> list[float]:
    out = [float(v) for v in value] if isinstance(value, list) else \
        [float(value)] * length
    if len(out) != length:
        raise ConfigError(f"expected {length} entries", field_path=field)
    return out


def _domain_from_config(block: dict, dim: int) -> LatticeDomain:
    shape = block["shape"]
    margin = float(block.get("margin", 1.0))

    def need(key):
        if key not in block:
            raise ConfigError(f"'{key}' is required for shape '{shape}'",
                              field_path=f"domain.{key}")
        return block[key]

    try:
        if shape == "interval":
            if dim != 1:
                raise ConfigError("interval domain needs a 1x1 kernel matrix",
                                  field_path="domain.shape")
            lo = _as_list(need("lower"), 1, "domain.lower")[0]
            hi = _as_list(need("upper"), 1, "domain.upper")[0]
            cells = _as_list(need("cells"), 1, "domain.cells")[0]
            return LatticeDomain.interval(lo, hi, int(cells), margin=margin)
        if shape == "box":
            lo = _as_list(need("lower"), dim, "domain.lower")
            hi = _as_list(need("upper"), dim, "domain.upper")
            cells = need("cells")
            counts = [int(c) for c in cells] if isinstance(cells, list) else \
                [int(cells)] * dim
            if len(counts) != dim:
                raise ConfigError(f"expected {dim} cell counts",
                                  field_path="domain.cells")
            return LatticeDomain.box(lo, hi, counts, margin=margin)
        center = _as_list(need("center"), dim, "domain.center")
        return LatticeDomain.ball(center, float(need("radius")),
                                  int(need("cells_across")), margin=margin)
    except ConfigError:
        raise
    except NonlocalError as exc:
        raise ConfigError(str(exc), field_path="domain") from exc


def _density_from_config(block: dict, dim: int) -> tuple[DensitySpec, LatticeDomain]:
    dens = DensitySpec(_function_from_config(block["profile"], dim,
                                             "density.profile"))
    dom = density_lattice(dens, cells=block.get("cells"))
    try:
        dens.values_on(dom)
    except DomainError as exc:
        raise ConfigError(str(exc), field_path="density.profile") from exc
    return dens, dom


# ---------------------------------------------------------------------------
# deterministic serialization


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    return value


def _config_digest(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _write_json(path: Path, value) -> None:
    """The one JSON writer: the summary and the grid sidecar."""
    with open(path, "w", newline="\n") as fh:
        json.dump(_jsonable(value), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


def _csv_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: tuple[str, ...], rows) -> None:
    """The one CSV writer: a header, then one line per row."""
    with open(path, "w", newline="\n") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows([_csv_cell(v) for v in row] for row in rows)


# ---------------------------------------------------------------------------
# command handlers; each returns (exit code, results, sources, table), the
# table being (header, rows) or the GridFunction of a sidecar command


def _cmd_operator_eval(cfg: dict, seed: int):
    del seed
    spec, dim = _kernel_from_config(cfg["kernel"])
    u = _function_from_config(cfg["eval"]["function"], dim, "eval.function")
    h = _drift_from_config(cfg, dim)
    for k, point in enumerate(cfg["eval"]["points"]):
        if len(point) != dim:
            raise ConfigError(f"point must have {dim} coordinates",
                              field_path=f"eval.points.{k}")
    xs = np.asarray(cfg["eval"]["points"], dtype=float).reshape(-1, dim)
    lap = nonlocal_laplacian(u, spec, xs)
    dr = carre_du_champ(u, h, spec, xs) if h is not None else np.zeros(len(xs))
    drifted = lap + dr
    bad = np.flatnonzero(~np.isfinite(drifted))
    if bad.size:
        k = int(bad[0])
        raise DomainError(f"the operator at eval.points.{k} = {xs[k].tolist()} is not "
                          f"finite (laplacian {lap[k]}, drift_form {dr[k]})")
    rows = [tuple(x) + (a, b, a + b) for x, a, b in zip(xs, lap, dr)]
    worst = float(np.max(np.abs(drifted), initial=0.0))
    _log.info("evaluated operator at %d points", len(rows))
    results = {"points": len(rows), "max_abs_value": worst,
               "with_drift": h is not None}
    sources = {
        "laplacian": "nonlocal_dv.operators.nonlocal_laplacian",
        "drift_form": "nonlocal_dv.operators.carre_du_champ",
    }
    header = tuple(f"x{a}" for a in range(dim)) + ("laplacian", "drift_form",
                                                   "drifted")
    return 0, results, sources, (header, rows)


def _cmd_eigen(cfg: dict, seed: int):
    del seed
    spec, dim = _kernel_from_config(cfg["kernel"])
    dom = _domain_from_config(cfg["domain"], dim)
    h = _drift_from_config(cfg, dim)
    opts = cfg.get("eigen", {})
    op = assemble(dom, spec, drift=h)
    _log.info("assembled %d-node operator", op.n)
    # the schema takes 50.0 for an integer, which range() does not
    pair = principal_eigenpair(op, tol=opts.get("tol", 1e-9),
                               max_iter=int(opts.get("max_iter", 200)),
                               dense_check=opts.get("dense_check", True))
    results = {
        "lambda1": pair.lambda1,
        "lambda1_lower": pair.lambda1_lower,
        "lambda1_upper": pair.lambda1_upper,
        "residual": pair.residual,
        "iterations": pair.iterations,
        "principal_min": float(pair.phi1.values.min()),
        "positive": bool(pair.phi1.values.min() > 0.0),
        "nodes": op.n,
    }
    sources = {"lambda1": "nonlocal_dv.spectral.principal_eigenpair"}
    if h is not None:
        results["drift_oscillation"] = op.drift_oscillation()
    if pair.dense_lambda1 is not None:
        results["dense_lambda1"] = pair.dense_lambda1
        results["iteration_vs_dense"] = abs(pair.lambda1 - pair.dense_lambda1)
        sources["dense_lambda1"] = (
            "nonlocal_dv.spectral.dense_eigenpair"
            if pair.lambda1_lower is None
            else "nonlocal_dv.spectral.perron_eigenvalue")
    return 0, results, sources, pair.phi1


def _cmd_dv_functional(cfg: dict, seed: int):
    del seed
    spec, dim = _kernel_from_config(cfg["kernel"])
    dens, dom = _density_from_config(cfg["density"], dim)
    h = _drift_from_config(cfg, dim)
    op = assemble(dom, spec, drift=h)
    parts = I_decomposed(dens, op)
    results = {
        "I_value": parts.I_value,
        "error_form_value": parts.E_value,
        "sqrt_density_energy": parts.energy,
        "drift_pairing": parts.pairing,
        "first_order_residual": first_order_residual(op, dens.values_on(dom)),
        "exponent_field_max": float(np.abs(parts.w_min.values).max()),
        "error_form_newton_steps": parts.newton_steps,
        "error_form_newton_decrement": parts.newton_decrement,
        "nodes": op.n,
    }
    sources = {
        "I_value": "nonlocal_dv.rate.I_decomposed",
        "sqrt_density_energy": "nonlocal_dv.lattice.kernel_form",
    }
    if h is None:
        results["closed_form_no_drift"] = parts.energy
        sources["closed_form_no_drift"] = "nonlocal_dv.rate.I_closed_form_h0"
    return 0, results, sources, parts.w_min


def _cmd_recover_matrix(cfg: dict, seed: int):
    del seed
    block = cfg["kernel"]
    if block["variant"] != "constant":
        raise ConfigError("matrix recovery needs a constant-coefficient "
                          "kernel", field_path="kernel.variant")
    # checks the matrix like every other command; the probes see the
    # matrix as written, not the symmetrised copy of the spec
    _, dim = _kernel_from_config(block)
    A = np.asarray(block["matrix"], dtype=float)
    s = float(block["s"])
    probe = cfg.get("probe", {})
    lam = _probe_lambdas(probe)
    kwargs = {}
    if "second_width" in probe:
        kwargs["second_width"] = probe["second_width"]
    _log.info("recovering a %dx%d matrix from probe energies", dim, dim)
    report = recover_matrix(fourier_probe_oracle(A, s), dim, s,
                            lambda_seq=lam, **kwargs)
    entry_err = float(np.abs(report.recovered_matrix - A).max()
                      / np.abs(A).max())
    results = {
        "true_matrix": A,
        "recovered_matrix": report.recovered_matrix,
        "rho": report.rho,
        "max_entry_error": entry_err,
        "per_entry_residuals": report.per_entry_residuals,
        "probes": len(report.probes),
    }
    sources = {
        "recovered_matrix": "nonlocal_dv.recovery.recover_matrix",
        "probe_energies": "nonlocal_dv.recovery.fourier_probe_oracle",
    }
    rows = [(p.transform_tag, p.lambda_, p.raw_energy, p.normalized_energy,
             p.error_estimate) for p in report.probes]
    header = ("transform_tag", "lambda", "raw_energy", "normalized_energy",
              "error_estimate")
    return 0, results, sources, (header, rows)


def _cmd_recover_drift(cfg: dict, seed: int):
    del seed
    spec, dim = _kernel_from_config(cfg["kernel"])
    h = _function_from_config(cfg["drift"], dim, "drift")
    probe = cfg["probe"]
    if "x0" not in probe:
        raise ConfigError("'x0' is required for drift recovery",
                          field_path="probe.x0")
    x0 = np.asarray(probe["x0"], dtype=float)
    if len(x0) != dim:
        raise ConfigError(f"x0 must have {dim} coordinates",
                          field_path="probe.x0")
    lam = _probe_lambdas(probe)
    res = drift_probe(h, spec, x0, lambda_seq=lam,
                      cells=probe.get("cells", 40))
    offsets = np.linspace(-0.8, 0.8, 9)
    grid = np.repeat(x0[None, :], len(offsets), axis=0)
    grid[:, 0] += offsets
    rep = constancy_check(h, spec, grid)
    results = {
        "limit": res.limit,
        "rate": res.rate,
        "pointwise_value": res.pointwise_value,
        "cross_difference": res.cross_difference,
        "constancy_max_operator_value": rep.max_operator_value,
        "constancy_oscillation": rep.oscillation,
        "drift_acts_as_constant": bool(rep.constant),
    }
    sources = {
        "limit": "nonlocal_dv.recovery.drift_probe",
        "constancy_max_operator_value": "nonlocal_dv.recovery.constancy_check",
    }
    rows = list(zip(res.lambdas, res.values, res.pair_values))
    header = ("lambda", "integrated_estimate", "pairing_estimate")
    return 0, results, sources, (header, rows)


def _cmd_barrier_check(cfg: dict, seed: int):
    del seed
    spec, dim = _kernel_from_config(cfg["kernel"])
    block = cfg["barrier"]
    h = _drift_from_config(cfg, dim)
    try:
        config = BarrierConfig(
            domain=block["domain"], alpha=float(block["alpha"]),
            delta=float(block["delta"]), spec=spec, h=h,
            radius=float(block.get("radius", 1.0)),
            points=int(block.get("points", 8)),
            mesh=float(block.get("mesh", 0.005)))
    except NonlocalError as exc:
        raise ConfigError(str(exc), field_path="barrier") from exc
    _log.info("scanning %d boundary distances", config.points)
    rep = barrier_scan(config)
    # the flat-boundary limit exists for constant fields below the
    # integrability edge alpha < 2s; any failure there is a real one
    flat = None
    if spec.field.variant == "constant" and config.alpha < 2.0 * spec.s:
        flat = flat_limit_reference(spec, config.alpha)
    results = {
        "alpha": rep.alpha,
        "min_normalized": rep.min_normalized,
        "max_normalized": rep.max_normalized,
        "drift_rate": rep.drift_rate,
        "d_min": rep.d_min,
        "flat_limit": flat,
        "sign_checks": [dataclasses.asdict(c) for c in rep.sign_checks],
    }
    sources = {
        "min_normalized": "nonlocal_dv.barriers.barrier_scan",
        "flat_limit": "nonlocal_dv.barriers.flat_limit_reference",
    }
    rows = list(zip(rep.distances, rep.normalized_values, rep.drift_values))
    header = ("d", "normalized_value", "drift_term")
    return 0, results, sources, (header, rows)


def _cmd_verify(cfg: dict, seed: int):
    ids = cfg.get("checks")
    if ids is not None:
        unknown = sorted(set(ids) - set(available_checks()))
        if unknown:
            raise ConfigError(f"unknown check ids: {', '.join(unknown)}",
                              field_path="checks")

    def progress(result):
        tag = "PASS" if result.passed else "FAIL"
        print(f"{tag} {result.check_id}: {result.detail}")

    checks = run_suite(seed=seed, check_ids=ids, progress=progress)
    all_passed = all(c.passed for c in checks)
    results = {
        "all_passed": all_passed,
        "checks": [dataclasses.asdict(c) for c in checks],
    }
    sources = {"checks": "nonlocal_dv.verify.run_suite"}
    rows = [(c.check_id, int(c.passed), c.measure, c.threshold)
            for c in checks]
    header = ("check_id", "passed", "measure", "threshold")
    return (0 if all_passed else 3), results, sources, (header, rows)


_HANDLERS = {
    "operator-eval": _cmd_operator_eval,
    "eigen": _cmd_eigen,
    "dv-functional": _cmd_dv_functional,
    "recover-matrix": _cmd_recover_matrix,
    "recover-drift": _cmd_recover_drift,
    "barrier-check": _cmd_barrier_check,
    "verify": _cmd_verify,
}


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonlocal-dv",
        description="Anisotropic nonlocal operators: evaluation, spectra, "
                    "rate functionals, coefficient recovery, boundary scans.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="path to the JSON run configuration")
    parser.add_argument("--output-dir", default=".",
                        help="directory for the JSON and CSV outputs")
    parser.add_argument("--seed", type=int,
                        help="override the config seed")
    parser.add_argument("--threads", type=int,
                        help="set the OpenBLAS thread pools to this count")
    return parser


def _configure_logging() -> None:
    name = os.environ.get("NONLOCAL_DV_LOG", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, force=True,
                        format="%(levelname)s %(name)s: %(message)s")


# commands whose CSV is a GridFunction, written with a JSON sidecar beside it
_SIDECAR_COMMANDS = ("eigen", "dv-functional")


def _output_paths(cfg: dict, command: str,
                  out_dir: Path) -> list[tuple[str, Path]]:
    """Each path the command writes, with the config key that names it:
    the summary, the CSV and, for a sidecar command, the CSV's grid
    sidecar.  ConfigError at the earlier key if two paths coincide."""
    out = cfg.get("output", {})
    stem = command.replace("-", "_")
    csv_path = out_dir / out.get("csv", f"{stem}_data.csv")
    paths = [("output.json", out_dir / out.get("json", f"{stem}_summary.json")),
             ("output.csv", csv_path)]
    # a CSV path without a name is a directory, refused by _run
    if command in _SIDECAR_COMMANDS and csv_path.name:
        paths.append(("output.csv", csv_path.with_suffix(".json")))
    for k, (_, path) in enumerate(paths):
        for field, earlier in paths[:k]:
            if path == earlier:
                raise ConfigError(f"two outputs share the path {path}",
                                  field_path=field)
    return paths


def _run(args: argparse.Namespace) -> int:
    command = args.command
    if args.config is None:
        if command != "verify":
            raise ConfigError(f"--config is required for '{command}'",
                              field_path="--config")
        cfg: dict = {}
    else:
        cfg = _load_config(args.config)
    _validate_config(cfg, command)
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    if seed < 0:
        raise ConfigError("seed must be nonnegative", field_path="--seed")
    out_dir = Path(args.output_dir)
    paths = _output_paths(cfg, command, out_dir)
    # every missing directory is made before the run, so that an
    # unwritable path or one that names a directory fails early, and
    # removed again, innermost first, if the run raises; a ".." names a
    # directory made or kept under another name
    dirs = [("--output-dir", out_dir)] + [(f, p.parent) for f, p in paths]
    created = sorted({d for _, top in dirs for d in (top, *top.parents)
                      if d.name != ".." and not d.exists()},
                     key=lambda d: -len(d.parts))
    try:
        for field, directory in dirs:
            try:
                directory.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot create output directory: {exc}",
                                  field_path=field) from exc
        for field, path in paths:
            if path.is_dir():
                raise ConfigError(f"the output path {path} is a directory",
                                  field_path=field)
        code, results, sources, table = _HANDLERS[command](cfg, seed)
    except BaseException:
        for directory in created:  # the handler writes no file
            if directory.is_dir():
                directory.rmdir()
        raise
    (_, json_path), (_, csv_path) = paths[:2]
    _write_json(json_path, {
        "command": command, "seed": seed, "results": results,
        "provenance": {"tool": "nonlocal-dv", "version": _VERSION,
                       "config_sha256": _config_digest(cfg),
                       "sources": sources}})
    if isinstance(table, GridFunction):
        dom = table.domain
        _write_json(csv_path.with_suffix(".json"), {
            key: getattr(dom, key) for key in ("descriptor", "lower", "upper",
                                               "spacing", "shape", "n_interior")})
        table = (("index", *(f"x{a}" for a in range(dom.dim)), "value"),
                 [(i, *x, v) for i, (x, v) in enumerate(
                     zip(dom.interior_points.tolist(), table.values.tolist()))])
    _write_csv(csv_path, *table)
    print(f"wrote {json_path} and {csv_path}")
    return code


# numpy's bundled OpenBLAS is loaded by now, so only its runtime setter
# changes the pool size
_OPENBLAS_SETTER = "scipy_openblas_set_num_threads64_"


def _set_blas_threads(count: int) -> int:
    """Set numpy's bundled OpenBLAS pool to ``count`` threads; return how
    many libraries had the setter."""
    found = 0
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("libscipy_openblas*.so")):
        setter = getattr(ctypes.CDLL(str(lib)), _OPENBLAS_SETTER, None)
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter(count)
            found += 1
    return found


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    _configure_logging()
    if args.threads is not None:
        if args.threads < 1:
            print("--threads must be at least 1", file=sys.stderr)
            return 2
        if not _set_blas_threads(args.threads):
            print("--threads: found no OpenBLAS thread setter in the numpy "
                  "libraries", file=sys.stderr)
            return 2
    try:
        return _run(args)
    except ConfigError as exc:
        loc = f" at '{exc.field_path}'" if exc.field_path else ""
        print(f"config error{loc}: {exc}", file=sys.stderr)
        return 2
    except NonlocalError as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
