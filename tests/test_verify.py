"""Verification suite plumbing: registry, seed stability, callbacks, and
the solvers the checks run."""

import ast
import json
from pathlib import Path

import pytest
import scipy.optimize

from nonlocal_dv import barriers, verify
from nonlocal_dv.cli import main
from nonlocal_dv.errors import DomainError
from nonlocal_dv.verify import available_checks, run_suite

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nonlocal_dv"


def test_registry_lists_nine_checks():
    ids = available_checks()
    assert len(ids) == 9
    assert ids[0] == "operator_identities"
    assert "matrix_recovery" in ids
    assert "eigen_consistency" in ids


def test_unknown_check_id_raises():
    with pytest.raises(DomainError):
        run_suite(check_ids=["missing_check"])


def test_subset_runs_are_seed_stable():
    # layer_constants draws random matrices; its stream must not depend
    # on which other checks run
    solo = run_suite(seed=3, check_ids=["layer_constants"])[0]
    paired = run_suite(seed=3,
                       check_ids=["scalar_error_form", "layer_constants"])
    match = next(r for r in paired if r.check_id == "layer_constants")
    assert match.measure == solo.measure
    assert solo.passed and match.passed


def test_progress_callback_sees_results():
    seen = []
    run_suite(check_ids=["scalar_error_form"], progress=seen.append)
    assert [r.check_id for r in seen] == ["scalar_error_form"]


def test_solvers_make_no_optimizer_or_integrate_calls(tmp_path, monkeypatch):
    # the rate problems are solved by Newton steps, the scalar minima by one
    # vectorized iteration and J by a fixed rule: no scipy optimizer runs,
    # and J_quadrature makes no scipy.integrate call
    calls = []
    in_j = []

    def counting(owner, name):
        fn = getattr(owner, name)

        def wrapped(*args, **kwargs):
            calls.append((name, bool(in_j)))
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapped)

    for name in ("minimize", "minimize_scalar"):
        counting(scipy.optimize, name)
    for name in ("quad", "dblquad"):
        counting(barriers, name)
    j_quadrature = verify.J_quadrature
    j_calls = []

    def inside_j(*args):
        j_calls.append(args)
        in_j.append(True)
        try:
            return j_quadrature(*args)
        finally:
            in_j.pop()

    monkeypatch.setattr(verify, "J_quadrature", inside_j)
    results = run_suite(seed=7, check_ids=["rate_minimization",
                                           "scalar_error_form",
                                           "layer_constants"])
    assert all(r.passed for r in results)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "kernel": {"variant": "constant", "matrix": [[1.2, 0.3], [0.3, 0.9]],
                   "s": 0.5, "normalized": True},
        "density": {"profile": {"kind": "bump", "radius": 0.8}, "cells": 20},
        "drift": {"kind": "tanh", "amplitude": 0.4, "slope": 2.0},
    }))
    assert main(["dv-functional", "--config", str(cfg),
                 "--output-dir", str(tmp_path / "out")]) == 0
    optimizer = [c for c in calls if c[0].startswith("minimize")]
    assert optimizer == []
    assert len(j_calls) == 10  # the guard saw every layer integral
    assert [c for c in calls if c[1]] == []


def test_package_does_not_import_scipy_optimize():
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.startswith("scipy.optimize") for n in names), path
