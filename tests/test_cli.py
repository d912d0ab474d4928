"""Command line driver: exit codes, schema errors, determinism, outputs.

Reference values used here were frozen from independent module-level
runs: the interval principal eigenvalue 1.1578 (dense lattice solves),
the exact flat-boundary limit 3/4 for the power 0.75 scan at order 0.5
with the normalized kernel, and the hidden diag(4, 1) recovery fixture
whose probe energies come from the spectral-side oracle.
"""

import csv
import json
import sys

import numpy as np
import pytest

from conftest import openblas_pool
from nonlocal_dv import barriers, cli, lattice, operators, rate, spectral
from nonlocal_dv.cli import main
from nonlocal_dv.errors import ResolutionError

KERNEL_1D = {"variant": "constant", "matrix": [[1.0]], "s": 0.5,
             "normalized": True}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_summary(out_dir, stem):
    with open(out_dir / f"{stem}_summary.json") as fh:
        return json.load(fh)


def csv_lines(out_dir, stem):
    return (out_dir / f"{stem}_data.csv").read_text().strip().splitlines()


def test_operator_eval_deterministic_outputs(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "kernel": KERNEL_1D,
        "eval": {"function": {"kind": "bump", "radius": 0.8},
                 "points": [[0.0], [0.3]]},
        "drift": {"kind": "tanh", "amplitude": 0.3, "slope": 2.0},
    })
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["operator-eval", "--config", cfg,
                     "--output-dir", str(out)]) == 0
        outs.append(out)
    for name in ("operator_eval_summary.json", "operator_eval_data.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    lines = csv_lines(outs[0], "operator_eval")
    assert lines[0] == "x0,laplacian,drift_form,drifted"
    assert len(lines) == 3
    row0 = [float(v) for v in lines[1].split(",")]
    # at the bump maximum the generator is negative and the odd drift
    # pairs to zero
    assert row0[1] < 0.0
    assert row0[2] == pytest.approx(0.0, abs=1e-12)
    summary = read_summary(outs[0], "operator_eval")
    assert summary["results"]["points"] == 2
    assert summary["provenance"]["config_sha256"]


def test_operator_eval_names_bad_point(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "kernel": KERNEL_1D,
        "eval": {"function": {"kind": "bump"}, "points": [[0.0], [0.1, 0.2]]},
    })
    assert main(["operator-eval", "--config", cfg,
                 "--output-dir", str(tmp_path / "out")]) == 2
    assert "eval.points.1" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_operator_eval_non_finite_value_exits_3(tmp_path, capsys):
    # at |x| = 1e200 the distance from the origin overflows: the rule of
    # that point is refused, naming it, before any node is made, instead of
    # writing nan beside a finite maximum
    cfg = write_config(tmp_path, "cfg.json", {
        "kernel": {"variant": "constant", "matrix": [[1.0, 0.0], [0.0, 1.0]], "s": 0.5},
        "eval": {"function": {"kind": "gaussian", "width": 0.7},
                 "points": [[0.1, 0.2], [1e200, 0.0], [0.0, 1e200]]},
    })
    out = tmp_path / "out"
    assert main(["operator-eval", "--config", cfg, "--output-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert "DomainError" in err and "rule point [1e+200, 0.0]" in err
    assert not (out / "operator_eval_data.csv").exists()


def test_operator_eval_one_far_field_call_per_rule_set(tmp_path, monkeypatch):
    # the Laplacian and the drift form each build one rule set for all
    # points, so a variable field takes two far-field passes (what
    # far_field runs, and what a rule set runs on its ray constants), not
    # two per point
    calls = []
    real = operators._ray_integrals

    def counting(spec, pts, *args, **kwargs):
        calls.append(len(pts))
        return real(spec, pts, *args, **kwargs)

    monkeypatch.setattr(operators, "_ray_integrals", counting)
    cfg = write_config(tmp_path, "cfg.json", {
        "kernel": {"variant": "separable_product",
                   "matrix": [[1.2, 0.3], [0.3, 0.8]], "s": 0.5},
        "eval": {"function": {"kind": "gaussian", "width": 0.7},
                 "points": [[0.1, 0.2], [-0.3, 0.4], [0.5, -0.6]]},
        "drift": {"kind": "tanh", "amplitude": 0.3, "slope": 2.0},
    })
    assert main(["operator-eval", "--config", cfg,
                 "--output-dir", str(tmp_path / "out")]) == 0
    assert calls == [3, 3]


def test_eigen_reference_and_positivity(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "kernel": KERNEL_1D,
        "domain": {"shape": "interval", "lower": -1.0, "upper": 1.0,
                   "cells": 40, "margin": 1.0},
        "eigen": {"tol": 1e-9, "max_iter": 300},
    })
    out = tmp_path / "out"
    assert main(["eigen", "--config", cfg, "--output-dir", str(out)]) == 0
    res = read_summary(out, "eigen")["results"]
    assert res["lambda1"] == pytest.approx(1.1578, rel=0.05)
    assert res["iteration_vs_dense"] < 1e-7
    assert res["positive"] is True
    assert res["principal_min"] > 0.0
    lines = csv_lines(out, "eigen")
    assert lines[0] == "index,x0,value"
    assert len(lines) == res["nodes"] + 1
    assert all(float(line.split(",")[2]) > 0.0 for line in lines[1:])
    # the grid sidecar makes the eigenfunction reloadable
    assert (out / "eigen_data.json").exists()


def _count_dense_calls(monkeypatch):
    """Record each call of the two eigenvalue oracles, of numpy's dense
    eigenvalue solvers, and of the block eliminations made while the Perron
    oracle runs (the iteration's own elimination is not recorded)."""
    calls = []
    running = []
    for owner, name in ((np.linalg, "eig"), (np.linalg, "eigvals"),
                        (spectral, "perron_eigenvalue"),
                        (spectral, "dense_eigenpair"),
                        (spectral, "_eliminate")):
        def counting(*args, _real=getattr(owner, name), _name=name,
                     **kwargs):
            if _name != "_eliminate" or "perron_eigenvalue" in running:
                calls.append(_name)
            running.append(_name)
            try:
                return _real(*args, **kwargs)
            finally:
                running.pop()
        monkeypatch.setattr(owner, name, counting)
    return calls


def _bracketed_eigen(tmp_path, dense_check: bool) -> dict:
    """Run ``eigen`` on an operator with a bracket; return its results."""
    cfg = write_config(tmp_path, "cfg.json", {
        "kernel": {"variant": "constant", "matrix": [[1.2, 0.3], [0.3, 0.8]],
                   "s": 0.5},
        "domain": {"shape": "box", "lower": [-1.0, -1.0],
                   "upper": [1.0, 1.0], "cells": 8, "margin": 0.25},
        "drift": {"kind": "tanh", "amplitude": 0.4, "slope": 2.0},
        "eigen": {"dense_check": dense_check},
    })
    out = tmp_path / "out"
    assert main(["eigen", "--config", cfg, "--output-dir", str(out)]) == 0
    res = read_summary(out, "eigen")["results"]
    assert res["lambda1_lower"] <= res["lambda1"] <= res["lambda1_upper"]
    gate = 10 * 1e-9 * max(1.0, abs(res["lambda1"]))
    assert res["lambda1_upper"] - res["lambda1_lower"] <= gate
    return res


def test_eigen_without_dense_check_is_certified_by_bracket(tmp_path,
                                                          monkeypatch):
    calls = _count_dense_calls(monkeypatch)
    res = _bracketed_eigen(tmp_path, dense_check=False)
    assert calls == []
    assert "dense_lambda1" not in res


def test_eigen_dense_check_makes_one_dense_call(tmp_path, monkeypatch):
    # the positive control of the test above: the counter sees the one
    # oracle call and its one block elimination, and no dense eigenvalue
    # solver runs
    calls = _count_dense_calls(monkeypatch)
    res = _bracketed_eigen(tmp_path, dense_check=True)
    assert calls == ["perron_eigenvalue", "_eliminate"]
    assert "dense_lambda1" in res


def test_eigen_max_iter_as_integral_float(tmp_path):
    # JSON Schema counts 50.0 as an integer, so the run must take it as 50
    outs = []
    for max_iter in (50, 50.0):
        out = tmp_path / str(max_iter)
        cfg = write_config(tmp_path, f"cfg_{max_iter}.json", dict(
            EIGEN_1D, eigen={"max_iter": max_iter}))
        assert main(["eigen", "--config", cfg, "--output-dir", str(out)]) == 0
        outs.append(out)
    for name in ("eigen_data.csv", "eigen_data.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    # the summaries differ only in the config digest
    first, second = (read_summary(out, "eigen") for out in outs)
    assert first["results"] == second["results"]


def test_dv_functional_closed_form_agreement(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "kernel": KERNEL_1D,
        "density": {"profile": {"kind": "bump", "radius": 0.8}, "cells": 80},
    })
    out = tmp_path / "out"
    assert main(["dv-functional", "--config", cfg,
                 "--output-dir", str(out)]) == 0
    res = read_summary(out, "dv_functional")["results"]
    assert res["I_value"] == pytest.approx(res["closed_form_no_drift"],
                                           rel=1e-12)
    assert res["error_form_value"] == pytest.approx(0.0, abs=1e-12)
    assert res["first_order_residual"] < 1e-10
    assert res["drift_pairing"] == 0.0


def test_recover_matrix_hidden_fixture(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "kernel": {"variant": "constant", "matrix": [[4.0, 0.0], [0.0, 1.0]],
                   "s": 0.5, "normalized": True},
    })
    out = tmp_path / "out"
    assert main(["recover-matrix", "--config", cfg,
                 "--output-dir", str(out)]) == 0
    res = read_summary(out, "recover_matrix")["results"]
    true = np.array(res["true_matrix"])
    rec = np.array(res["recovered_matrix"])
    assert np.abs(rec - true).max() <= 0.05 * np.abs(true).max()
    assert res["rho"] == pytest.approx(1.0, abs=2e-2)
    lines = csv_lines(out, "recover_matrix")
    assert lines[0] == ("transform_tag,lambda,raw_energy,normalized_energy,"
                        "error_estimate")
    assert len(lines) == res["probes"] + 1
    # tags such as rotation(0,1) hold a comma: they are quoted, one field
    with open(out / "recover_matrix_data.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert all(len(row) == 5 for row in rows)
    assert "rotation(0,1)" in [row[0] for row in rows]


@pytest.mark.parametrize("kernel, probe, field, message", [
    ({"matrix": [[1.0, 0.0], [0.0]]}, {}, "kernel", "inhomogeneous"),
    ({"matrix": [[1.0, 0.0]]}, {}, "kernel", "shape"),
    ({"matrix": [[1.0, 0.5], [0.0, 1.0]]}, {}, "kernel", "symmetric"),
    ({"matrix": [[1.0, 2.0], [2.0, 1.0]]}, {}, "kernel", "positive definite"),
    ({}, {"lambdas": [0.5, 0.3, 0.1]}, "probe.lambdas", "geometric"),
    ({}, {"lambdas": [0.125, 0.25, 0.5]}, "probe.lambdas", "decreasing"),
], ids=["ragged", "non-square", "asymmetric", "indefinite", "not-geometric",
        "increasing"])
def test_recover_matrix_checks_kernel_and_scales(tmp_path, capsys, kernel,
                                                  probe, field, message):
    # the same kernel checks as every other command, before any probe runs
    cfg = write_config(tmp_path, "cfg.json", {
        "kernel": dict({"variant": "constant", "matrix": [[4.0, 0.0], [0.0, 1.0]],
                        "s": 0.5}, **kernel),
        "probe": probe,
    })
    out = tmp_path / "out"
    assert main(["recover-matrix", "--config", cfg,
                 "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error at '{field}':" in err
    assert message in err
    assert not out.exists()


def test_recover_drift_pointwise_agreement(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "kernel": KERNEL_1D,
        "drift": {"kind": "gaussian", "width": 0.9, "amplitude": 0.5},
        "probe": {"x0": [0.2], "lambdas": [0.5, 0.25, 0.125], "cells": 40},
    })
    out = tmp_path / "out"
    assert main(["recover-drift", "--config", cfg,
                 "--output-dir", str(out)]) == 0
    res = read_summary(out, "recover_drift")["results"]
    assert res["limit"] == pytest.approx(res["pointwise_value"], abs=1e-3)
    assert res["drift_acts_as_constant"] is False
    assert res["constancy_max_operator_value"] > 1e-2
    lines = csv_lines(out, "recover_drift")
    assert lines[0] == "lambda,integrated_estimate,pairing_estimate"
    assert len(lines) == 4


@pytest.mark.parametrize("lambdas, message", [
    ([0.125, 0.25, 0.5], "decreasing"),
    ([0.5, 0.3, 0.1], "geometric"),
], ids=["increasing", "not-geometric"])
def test_recover_drift_checks_scales(tmp_path, capsys, monkeypatch, lambdas, message):
    # the scales are checked as recover-matrix checks them, before any probe
    # runs; unchecked, both exited 0, with rate "nan" for the increasing
    # sequence and a limit extrapolated at the ratio of the first two scales
    probes = _count_calls(monkeypatch, cli.drift_probe)
    cfg = write_config(tmp_path, "cfg.json", {
        "kernel": KERNEL_1D,
        "drift": {"kind": "gaussian", "width": 0.9, "amplitude": 0.5},
        "probe": {"x0": [0.2], "lambdas": lambdas, "cells": 40},
    })
    out = tmp_path / "out"
    assert main(["recover-drift", "--config", cfg,
                 "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error at 'probe.lambdas':" in err
    assert message in err
    assert probes == []
    assert not out.exists()


def test_barrier_check_positive_above_threshold(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "kernel": KERNEL_1D,
        "barrier": {"domain": "interval", "alpha": 0.75, "delta": 0.1,
                    "points": 3, "mesh": 0.01},
    })
    out = tmp_path / "out"
    assert main(["barrier-check", "--config", cfg,
                 "--output-dir", str(out)]) == 0
    res = read_summary(out, "barrier_check")["results"]
    assert res["min_normalized"] > 0.0
    assert res["flat_limit"] == pytest.approx(0.75, abs=1e-6)
    assert res["drift_rate"] == "inf"
    assert all(c["consistent"] for c in res["sign_checks"])
    lines = csv_lines(out, "barrier_check")
    assert lines[0] == "d,normalized_value,drift_term"
    assert len(lines) == 4
    assert all(float(line.split(",")[2]) == 0.0 for line in lines[1:])


def _barrier_summary(tmp_path, kernel, alpha):
    cfg = write_config(tmp_path, "cfg.json", {
        "kernel": kernel,
        "barrier": {"domain": "interval", "alpha": alpha, "delta": 0.1,
                    "points": 3, "mesh": 0.01},
    })
    out = tmp_path / "out"
    assert main(["barrier-check", "--config", cfg,
                 "--output-dir", str(out)]) == 0
    return read_summary(out, "barrier_check")["results"]


@pytest.mark.parametrize("alpha", [0.9, 0.1])
def test_barrier_check_reports_flat_limit_at_high_order(tmp_path, alpha):
    # alpha < 2s, so the limit exists; at s = 0.9 the adaptive profile
    # quadrature used to fail and the summary said null
    kernel = dict(KERNEL_1D, s=0.9)
    res = _barrier_summary(tmp_path, kernel, alpha)
    if alpha == 0.9:
        assert res["flat_limit"] == 0.0  # the threshold exponent alpha = s
    else:
        spec = cli._kernel_from_config(kernel)[0]
        assert res["flat_limit"] < 0.0
        assert res["flat_limit"] == barriers.flat_limit_reference(spec, alpha)


@pytest.mark.parametrize("kernel, alpha", [
    (dict(KERNEL_1D, s=0.3), 0.75),  # alpha >= 2s: the far field diverges
    (dict(KERNEL_1D, variant="separable_sum"), 0.75),  # no constant matrix
])
def test_barrier_check_flat_limit_null_where_undefined(tmp_path, kernel, alpha):
    assert _barrier_summary(tmp_path, kernel, alpha)["flat_limit"] is None


def test_barrier_check_flat_limit_failure_exits_3(tmp_path, monkeypatch, capsys):
    def failing(spec, alpha):
        raise ResolutionError("profile integral failed")

    monkeypatch.setattr(cli, "flat_limit_reference", failing)
    cfg = write_config(tmp_path, "cfg.json", {
        "kernel": KERNEL_1D,
        "barrier": {"domain": "interval", "alpha": 0.75, "delta": 0.1,
                    "points": 3, "mesh": 0.01},
    })
    assert main(["barrier-check", "--config", cfg,
                 "--output-dir", str(tmp_path / "out")]) == 3
    assert "ResolutionError" in capsys.readouterr().err


def test_verify_subset_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "checks": ["layer_constants", "scalar_error_form"], "seed": 0,
    })
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--output-dir", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "PASS layer_constants" in stdout
    assert "PASS scalar_error_form" in stdout
    res = read_summary(out, "verify")["results"]
    assert res["all_passed"] is True
    assert len(res["checks"]) == 2
    lines = csv_lines(out, "verify")
    assert lines[0] == "check_id,passed,measure,threshold"
    assert len(lines) == 3


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "checks": ["scalar_error_form"], "seed": 0,
    })
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--output-dir", str(out),
                 "--seed", "7"]) == 0
    assert read_summary(out, "verify")["seed"] == 7


def test_missing_config_exits_2(capsys):
    assert main(["operator-eval"]) == 2
    assert "--config is required" in capsys.readouterr().err


def test_unreadable_config_exits_2(tmp_path, capsys):
    assert main(["operator-eval", "--config",
                 str(tmp_path / "missing.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert main(["operator-eval", "--config", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_schema_violation_names_field(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "kernel": {"variant": "constant", "matrix": [[1.0]], "s": 1.5},
        "eval": {"function": {"kind": "bump"}, "points": [[0.0]]},
    })
    assert main(["operator-eval", "--config", cfg]) == 2
    assert "kernel.s" in capsys.readouterr().err


def test_missing_block_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {"kernel": KERNEL_1D})
    assert main(["eigen", "--config", cfg]) == 2
    assert "domain" in capsys.readouterr().err


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "kernel": KERNEL_1D, "bogus": 1,
        "eval": {"function": {"kind": "bump"}, "points": [[0.0]]},
    })
    assert main(["operator-eval", "--config", cfg]) == 2
    assert "bogus" in capsys.readouterr().err


def test_numerical_failure_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "kernel": KERNEL_1D,
        "domain": {"shape": "interval", "lower": -1.0, "upper": 1.0,
                   "cells": 40, "margin": 1.0},
        "eigen": {"max_iter": 1},
    })
    assert main(["eigen", "--config", cfg,
                 "--output-dir", str(tmp_path / "out")]) == 3
    assert "ConvergenceError" in capsys.readouterr().err


def test_unknown_command_exits_2():
    assert main(["frobnicate"]) == 2


def test_output_dir_through_file_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "kernel": KERNEL_1D,
        "eval": {"function": {"kind": "bump"}, "points": [[0.0]]},
    })
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    # a path through a regular file must fail as a config error, not a traceback
    assert main(["operator-eval", "--config", cfg,
                 "--output-dir", str(blocker / "sub")]) == 2
    assert "--output-dir" in capsys.readouterr().err


EIGEN_1D = {
    "kernel": KERNEL_1D,
    "domain": {"shape": "interval", "lower": -1.0, "upper": 1.0, "cells": 12,
               "margin": 0.5},
}
DV_1D = {
    "kernel": KERNEL_1D,
    "density": {"profile": {"kind": "bump", "radius": 0.8}, "cells": 24},
}


@pytest.mark.parametrize("command, payload", [("operator-eval", {
    "kernel": KERNEL_1D,
    "eval": {"function": {"kind": "bump"}, "points": [[0.0]]},
}), ("eigen", EIGEN_1D)])
def test_summary_path_equal_to_csv_exits_2(tmp_path, capsys, command, payload):
    cfg = write_config(tmp_path, "cfg.json", dict(
        payload, output={"json": "same.out", "csv": "same.out"}))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--output-dir", str(out)]) == 2
    assert "output.json" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, payload", [("eigen", EIGEN_1D),
                                              ("dv-functional", DV_1D)])
def test_summary_path_equal_to_csv_sidecar_exits_2(tmp_path, capsys, command,
                                                   payload):
    # the grid sidecar of a CSV named <stem>.csv is <stem>.json; with the
    # default summary name it would replace the summary
    stem = command.replace("-", "_")
    cfg = write_config(tmp_path, "cfg.json", dict(
        payload, output={"csv": f"{stem}_summary.csv"}))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--output-dir", str(out)]) == 2
    assert "output.json" in capsys.readouterr().err
    assert not out.exists()


def test_csv_path_equal_to_its_sidecar_exits_2(tmp_path, capsys):
    # a CSV named <stem>.json is its own sidecar, which would replace it
    cfg = write_config(tmp_path, "cfg.json", dict(
        EIGEN_1D, output={"csv": "grid.json"}))
    out = tmp_path / "out"
    assert main(["eigen", "--config", cfg, "--output-dir", str(out)]) == 2
    assert "config error at 'output.csv':" in capsys.readouterr().err
    assert not out.exists()


def test_grid_function_serialization(tmp_path, monkeypatch):
    # eigen writes its principal function through the one CSV writer:
    # rows (index, x0, value) that read back as the floats they were,
    # and the grid beside them in the JSON sidecar
    pairs = []

    def recorded(*args, **kwargs):
        pairs.append(spectral.principal_eigenpair(*args, **kwargs))
        return pairs[-1]

    monkeypatch.setattr(cli, "principal_eigenpair", recorded)
    cfg = write_config(tmp_path, "cfg.json", EIGEN_1D)
    out = tmp_path / "out"
    assert main(["eigen", "--config", cfg, "--output-dir", str(out)]) == 0
    phi = pairs[0].phi1
    lines = csv_lines(out, "eigen")
    assert lines[0] == "index,x0,value"
    assert len(lines) == phi.domain.n_interior + 1
    back = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(back[:, 0], np.arange(phi.domain.n_interior))
    assert np.array_equal(back[:, 1], phi.domain.interior_points[:, 0])
    assert np.array_equal(back[:, 2], phi.values)
    meta = json.loads((out / "eigen_data.json").read_text())
    assert set(meta) == {"descriptor", "lower", "upper", "spacing", "shape",
                         "n_interior"}
    assert meta["n_interior"] == phi.domain.n_interior
    assert meta["spacing"] == phi.domain.spacing


def test_summary_in_missing_subdirectory_is_written(tmp_path):
    # the summary's directory is made before the run, like --output-dir
    cfg = write_config(tmp_path, "cfg.json", dict(
        EIGEN_1D, output={"json": "nosuchdir/x.json"}))
    out = tmp_path / "out"
    assert main(["eigen", "--config", cfg, "--output-dir", str(out)]) == 0
    summary = json.loads((out / "nosuchdir" / "x.json").read_text())
    assert summary["command"] == "eigen"
    assert sorted(p.name for p in out.iterdir()) == [
        "eigen_data.csv", "eigen_data.json", "nosuchdir"]


@pytest.mark.parametrize("command, payload", [("eigen", EIGEN_1D), (
    "operator-eval", {"kernel": KERNEL_1D,
                      "eval": {"function": {"kind": "bump"}, "points": [[0.0]]}},
)])
@pytest.mark.parametrize("output, out_dir", [
    ({"csv": "."}, "out"), ({"csv": "."}, ""),
    ({"json": "sub/x.json", "csv": "sub"}, "out"), ({"csv": "sub/.."}, "out")])
def test_output_path_that_is_a_directory_exits_2(tmp_path, capsys, command,
                                                 payload, output, out_dir):
    # "." and "sub/.." are the output directory itself, to be made or
    # already there, and "sub" the directory made for the summary: each is
    # refused before the run, and nothing stays
    cfg = write_config(tmp_path, "cfg.json", dict(payload, output=output))
    out = tmp_path / out_dir
    assert main([command, "--config", cfg, "--output-dir", str(out)]) == 2
    assert "config error at 'output.csv':" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("command, payload", [("eigen", EIGEN_1D),
                                              ("recover-matrix", {})])
def test_amplitude_on_constant_kernel_exits_2(tmp_path, capsys, command,
                                              payload):
    # only a separable field has a perturbation for amplitude to size
    cfg = write_config(tmp_path, "cfg.json", dict(
        payload, kernel=dict(KERNEL_1D, amplitude=0.2)))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--output-dir", str(out)]) == 2
    assert "kernel.amplitude" in capsys.readouterr().err
    assert not out.exists()


def test_interval_takes_exactly_one_cell_count(tmp_path, capsys):
    # an interval's cells array was read at its first entry and the rest
    # ignored; a count per axis is one count here, as for a box
    for cells, code in (([12], 0), ([12, 12], 2)):
        cfg = write_config(tmp_path, "cfg.json", dict(
            EIGEN_1D, domain=dict(EIGEN_1D["domain"], cells=cells)))
        out = tmp_path / f"out{len(cells)}"
        assert main(["eigen", "--config", cfg, "--output-dir", str(out)]) == code
    assert "config error at 'domain.cells':" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("variant", ["separable_sum", "separable_product"])
def test_amplitude_above_base_eigenvalue_exits_2(tmp_path, capsys, variant):
    # M(y) = diag(0.6, 1) + 0.7 sin(y_1 + y_2) I is indefinite where
    # sin < -6/7, which the 8-cell box reaches in its lower corner; the
    # product's default lower bound 2 (0.6 - 0.7)^2 is positive all the same
    kernel = {"variant": variant, "matrix": [[0.6, 0.0], [0.0, 1.0]],
              "s": 0.5, "amplitude": 0.7}
    cfg = write_config(tmp_path, "cfg.json", {
        "kernel": kernel,
        "domain": {"shape": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0],
                   "cells": 8},
    })
    # the error comes after the run made the directory and its parent
    out = tmp_path / "out" / "nested"
    assert main(["eigen", "--config", cfg, "--output-dir", str(out)]) == 2
    assert "kernel.amplitude" in capsys.readouterr().err
    assert not out.parent.exists()


def _count_calls(monkeypatch, fn):
    """Wrap ``fn`` under every name a package module binds it to; return
    the list that records each call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "nonlocal_dv" or name.startswith("nonlocal_dv."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.mark.parametrize("drift", [False, True])
def test_dv_functional_reports_newton_diagnostics(tmp_path, drift):
    payload = dict(DV_1D)
    if drift:
        payload["drift"] = {"kind": "tanh", "amplitude": 0.3, "slope": 2.0}
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    assert main(["dv-functional", "--config", cfg, "--output-dir", str(out)]) == 0
    res = read_summary(out, "dv_functional")["results"]
    steps = res["error_form_newton_steps"]
    decrement = res["error_form_newton_decrement"]
    if drift:
        assert steps >= 1
        assert 0.5 * decrement**2 <= rate._ERROR_TOL * max(
            1.0, abs(res["error_form_value"]))
    else:
        # the zero field is the exact minimizer: no step is taken
        assert (steps, decrement, res["error_form_value"]) == (0, 0.0, 0.0)
        assert '"error_form_newton_decrement": 0.0' in (
            out / "dv_functional_summary.json").read_text()


def test_dv_functional_outside_convex_regime_exits_3(tmp_path, capsys):
    # a tanh drift of amplitude 1.2 moves by more than 2 across the bump
    payload = dict(DV_1D, drift={"kind": "tanh", "amplitude": 1.2,
                                 "slope": 2.0})
    cfg = write_config(tmp_path, "cfg.json", payload)
    with pytest.warns(UserWarning, match="oscillation"):
        assert main(["dv-functional", "--config", cfg,
                     "--output-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "DomainError" in err
    assert "not convex" in err


def test_dv_functional_density_amplitude_is_scaled_away(tmp_path):
    # the lattice scales the profile to unit mass, whatever its amplitude
    values = []
    for amplitude in (1.0, 9.0):
        payload = dict(DV_1D, density=dict(DV_1D["density"], profile={
            "kind": "bump", "radius": 0.8, "amplitude": amplitude}))
        cfg = write_config(tmp_path, f"cfg{amplitude}.json", payload)
        out = tmp_path / f"out{amplitude}"
        assert main(["dv-functional", "--config", cfg,
                     "--output-dir", str(out)]) == 0
        values.append(read_summary(out, "dv_functional")["results"]["I_value"])
    assert values[1] == pytest.approx(values[0], rel=1e-14, abs=0.0)


@pytest.mark.parametrize("value, message", [(-1.0, "negative"),
                                            (0.0, "vanishes"),
                                            (1.0, "far value 1")])
def test_density_profile_the_lattice_cannot_scale_exits_2(tmp_path, capsys,
                                                          value, message):
    payload = dict(DV_1D, density={"profile": {"kind": "constant",
                                               "value": value}})
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    assert main(["dv-functional", "--config", cfg,
                 "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "density.profile" in err
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("drift", [False, True])
def test_dv_functional_forms_each_rate_piece_once(tmp_path, monkeypatch, drift):
    # the summary reads the energy, the pairing and the closed form that
    # I_decomposed formed: the command streams W twice, once to assemble
    # and once for every pair form, and calls no form of its own
    passes = _count_calls(monkeypatch, lattice._pair_weight_chunks)
    energies = _count_calls(monkeypatch, lattice.kernel_form)
    pairings = _count_calls(monkeypatch, rate.drift_pairing)
    payload = dict(DV_1D)
    if drift:
        payload["drift"] = {"kind": "tanh", "amplitude": 0.3, "slope": 2.0}
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    assert main(["dv-functional", "--config", cfg, "--output-dir", str(out)]) == 0
    assert len(passes) == 2
    assert energies == pairings == []
    res = read_summary(out, "dv_functional")["results"]
    assert (res["drift_pairing"] != 0.0) == drift
    if not drift:
        assert res["closed_form_no_drift"] == res["sqrt_density_energy"]


def test_unknown_check_id_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {"checks": ["nope"]})
    assert main(["verify", "--config", cfg]) == 2
    assert "checks" in capsys.readouterr().err


def test_verify_with_no_checks_exits_2(tmp_path, capsys):
    # an empty list would pass having run nothing
    cfg = write_config(tmp_path, "cfg.json", {"checks": []})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--output-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert "config error at 'checks':" in captured.err
    assert "PASS" not in captured.out
    assert not out.exists()


def test_threads_flag(tmp_path):
    assert main(["verify", "--threads", "0"]) == 2
    cfg = write_config(tmp_path, "cfg.json", {
        "kernel": KERNEL_1D,
        "eval": {"function": {"kind": "bump"}, "points": [[0.0]]},
    })
    getter, setter = openblas_pool()
    before = getter()
    try:
        setter(2)
        assert main(["operator-eval", "--config", cfg, "--output-dir",
                     str(tmp_path / "out"), "--threads", "1"]) == 0
        assert getter() == 1
    finally:
        setter(before)


def outputs_at_threads(tmp_path, command, payload):
    """The output files of ``command`` at one BLAS thread, at two, and at
    two again, as three {name: bytes}; the pool size is restored after."""
    cfg = write_config(tmp_path, "cfg.json", payload)
    getter, setter = openblas_pool()
    before = getter()
    runs = []
    try:
        for sub, threads in (("a", "1"), ("b", "2"), ("c", "2")):
            out = tmp_path / sub
            assert main([command, "--config", cfg, "--output-dir", str(out),
                         "--threads", threads]) == 0
            runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    finally:
        setter(before)
    return runs


def test_recover_matrix_outputs_do_not_depend_on_blas_threads(tmp_path):
    # the probe weight and its grid sums are fixed-order np.einsum
    # contractions, with no BLAS product, so one and two BLAS threads, and
    # a second run, write the same bytes
    runs = outputs_at_threads(tmp_path, "recover-matrix", {
        "kernel": {"variant": "constant", "matrix": [[1.6, 0.4], [0.4, 0.9]],
                   "s": 0.5},
    })
    assert sorted(runs[0]) == ["recover_matrix_data.csv",
                               "recover_matrix_summary.json"]
    assert runs[0] == runs[1] == runs[2]


def test_recover_matrix_3d_outputs_do_not_depend_on_blas_threads(tmp_path):
    # the same in 3-D, where each probe weight has 73 x 47 x 47 points,
    # enough for a BLAS product to run on several threads
    runs = outputs_at_threads(tmp_path, "recover-matrix", {
        "kernel": {"variant": "constant", "s": 0.5, "normalized": True,
                   "matrix": [[1.4, 0.3, -0.2], [0.3, 0.9, 0.25],
                              [-0.2, 0.25, 1.7]]},
    })
    assert len(json.loads(runs[0]["recover_matrix_summary.json"])
               ["results"]["recovered_matrix"]) == 3
    assert runs[0] == runs[1] == runs[2]


def test_barrier_check_outputs_do_not_depend_on_blas_threads(tmp_path):
    # the rules of a 2-D ball at mesh 0.0025 have 10-15k nodes a point,
    # where a BLAS dot splits across threads; the node sums of
    # pointwise_forms are np.einsum loops in a fixed order instead
    runs = outputs_at_threads(tmp_path, "barrier-check", {
        "kernel": {"variant": "constant", "s": 0.5, "normalized": True,
                   "matrix": [[0.85, 0.27], [0.27, 1.29]]},
        "barrier": {"domain": "ball", "alpha": 0.75, "delta": 0.02,
                    "points": 3, "mesh": 0.0025},
        "drift": {"kind": "tanh", "slope": 2.0, "amplitude": 0.25},
    })
    assert sorted(runs[0]) == ["barrier_check_data.csv",
                               "barrier_check_summary.json"]
    assert runs[0] == runs[1] == runs[2]


def test_eigen_separable_sum_outputs_do_not_depend_on_blas_threads(tmp_path):
    # 256 unknowns: each half block of the iteration's factor is inverted
    # by the recursion from LAPACK leaves of 64 rows and gemms of at most
    # 128, which round alike on one and two BLAS threads; a LAPACK inverse
    # of the whole 128-row half block did not
    runs = outputs_at_threads(tmp_path, "eigen", {
        "kernel": {"variant": "separable_sum", "s": 0.5,
                   "matrix": [[1.5983603491461116, -0.09554338019434701],
                              [-0.09554338019434702, 1.8779208802168093]]},
        "domain": {"shape": "box", "lower": [-1.0, -1.0],
                   "upper": [1.0, 1.0], "cells": 16, "margin": 0.3},
        "drift": {"kind": "tanh", "slope": 2.0,
                  "amplitude": 0.2047671737362413},
        "eigen": {"dense_check": False},
    })
    assert sorted(runs[0]) == ["eigen_data.csv", "eigen_data.json",
                              "eigen_summary.json"]
    assert runs[0] == runs[1] == runs[2]


def test_threads_flag_without_setter(monkeypatch, capsys):
    # a BLAS without the OpenBLAS setter cannot honour the flag: refuse it
    monkeypatch.setattr(cli, "_OPENBLAS_SETTER", "no_such_setter")
    assert main(["verify", "--threads", "1"]) == 2
    assert "OpenBLAS" in capsys.readouterr().err


def test_log_env_smoke(tmp_path, monkeypatch):
    monkeypatch.setenv("NONLOCAL_DV_LOG", "DEBUG")
    cfg = write_config(tmp_path, "cfg.json", {
        "kernel": KERNEL_1D,
        "eval": {"function": {"kind": "gaussian", "width": 0.5},
                 "points": [[0.1]]},
    })
    assert main(["operator-eval", "--config", cfg,
                 "--output-dir", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("value, code", [("info", 0), ("Error", 0),
                                         ("verbose", 2), ("critical", 2),
                                         ("10", 2)])
def test_log_env_names_a_level_or_exits_2(tmp_path, monkeypatch, capsys,
                                          value, code):
    # DEBUG, INFO, WARNING or ERROR in any case; any other value is refused
    # before the run, as --threads 0 is, and never falls back in silence
    monkeypatch.setenv("NONLOCAL_DV_LOG", value)
    cfg = write_config(tmp_path, "cfg.json", {
        "kernel": KERNEL_1D,
        "eval": {"function": {"kind": "gaussian", "width": 0.5},
                 "points": [[0.1]]},
    })
    out = tmp_path / "out"
    assert main(["operator-eval", "--config", cfg,
                 "--output-dir", str(out)]) == code
    err = capsys.readouterr().err
    assert ("NONLOCAL_DV_LOG" in err) == (code == 2)
    assert out.exists() == (code == 0)
