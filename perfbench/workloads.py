"""Workload definitions: CLI configs drawn from a seed, and the output gate.

A workload is a fixed list of ``nonlocal-dv`` invocations.  Sizes are
fixed; the seed draws only the coefficients (SPD matrices, drift
amplitudes, evaluation points), so every seed costs about the same and
every seed must pass the gate below.  Why each workload exists is written
down in ``README.md`` next to this file.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# every check of the verify suite except matrix_recovery, whose core the
# recover_3d workload already runs (the full check alone costs ~150 s)
VERIFY_CHECKS = ("operator_identities", "shape_law", "rate_minimization",
                 "scalar_error_form", "diffusion_exponent",
                 "drift_identifiability", "layer_constants",
                 "eigen_consistency")


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``nonlocal-dv <command> --config <cfg>``.

    Every command must exit 0.  ``gate`` then receives the parsed summary
    results and the output directory, and returns an empty string when the
    outputs are correct, or the reason they are not.
    """

    label: str
    command: str
    config: dict
    gate: Callable[[dict, Path], str]
    extra_args: tuple[str, ...] = ()


def _spd(rng: np.random.Generator, dim: int) -> list[list[float]]:
    """Random SPD matrix, drawn the way the matrix_recovery check draws it."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return (q @ np.diag(rng.uniform(0.6, 2.5, size=dim)) @ q.T).tolist()


def _tanh(rng: np.random.Generator) -> dict:
    return {"kind": "tanh", "slope": 2.0,
            "amplitude": float(rng.uniform(0.2, 0.45))}


# ---------------------------------------------------------------------------
# gates; each returns "" when the outputs are correct


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _gate_eigen(dense: bool) -> Callable[[dict, Path], str]:
    def gate(res: dict, out: Path) -> str:
        if res.get("positive") is not True:
            return "principal eigenfunction not positive"
        if not _finite(res.get("lambda1")):
            return "lambda1 not finite"
        if dense:
            bound = 1e-8 * max(1.0, abs(res["lambda1"]))
            gap = res.get("iteration_vs_dense")
            if not _finite(gap) or gap > bound:
                return f"iteration_vs_dense {gap} above {bound:.3e}"
        return ""
    return gate


def _gate_recover_matrix(res: dict, out: Path) -> str:
    err = res.get("max_entry_error")
    rho = res.get("rho")
    if not _finite(err) or err > 0.05:
        return f"max_entry_error {err} above 0.05"
    if not _finite(rho) or abs(rho - 1.0) > 0.02:
        return f"rho {rho} off 1 by more than 0.02"
    return ""


def _gate_dv(with_drift: bool) -> Callable[[dict, Path], str]:
    def gate(res: dict, out: Path) -> str:
        if not _finite(res.get("I_value")):
            return "I_value not finite"
        if with_drift:
            return ""
        closed = res.get("closed_form_no_drift")
        value = res["I_value"]
        if not _finite(closed) or abs(closed - value) > 1e-9 * abs(closed):
            return f"closed form {closed} differs from I_value {value}"
        fo = res.get("first_order_residual")
        if not _finite(fo) or fo > 1e-5:
            return f"first_order_residual {fo} above 1e-5"
        return ""
    return gate


def _gate_operator_eval(res: dict, out: Path) -> str:
    with open(out / "operator_eval_data.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != res.get("points"):
        return f"{len(rows)} rows for {res.get('points')} points"
    if not all(math.isfinite(float(v)) for row in rows for v in row):
        return "non-finite operator value"
    return ""


def _gate_recover_drift(res: dict, out: Path) -> str:
    if not (_finite(res.get("limit")) and _finite(res.get("pointwise_value"))):
        return "drift limit not finite"
    return ""


def _gate_barrier(res: dict, out: Path) -> str:
    checks = res.get("sign_checks") or []
    if len(checks) != 2 or not all(c.get("consistent") for c in checks):
        return "sign check failed"
    return ""


def _gate_verify(res: dict, out: Path) -> str:
    return "" if res.get("all_passed") is True else "a check failed"


# ---------------------------------------------------------------------------
# workloads


def eigen_const2d(seed: int) -> list[Command]:
    rng = np.random.default_rng([seed, 1])
    cfg = {
        "kernel": {"variant": "constant", "matrix": _spd(rng, 2), "s": 0.5},
        "domain": {"shape": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0],
                   "cells": 40, "margin": 0.3},
        "drift": _tanh(rng),
    }
    return [Command("eigen", "eigen", cfg, _gate_eigen(dense=True))]


def recover_3d(seed: int) -> list[Command]:
    rng = np.random.default_rng([seed, 2])
    out = []
    for dim in (3, 2):
        cfg = {"kernel": {"variant": "constant", "matrix": _spd(rng, dim),
                          "s": 0.5, "normalized": True}}
        out.append(Command(f"recover-matrix-{dim}d", "recover-matrix", cfg,
                           _gate_recover_matrix))
    return out


def small_mix(seed: int) -> list[Command]:
    rng = np.random.default_rng([seed, 3])
    cmds = []
    points = rng.uniform(-0.8, 0.8, size=(200, 2)).tolist()
    cmds.append(Command("operator-eval", "operator-eval", {
        "kernel": {"variant": "separable_product", "matrix": _spd(rng, 2),
                   "s": 0.5},
        "eval": {"function": {"kind": "gaussian", "width": 0.7},
                 "points": points},
        "drift": _tanh(rng),
    }, _gate_operator_eval))
    cmds.append(Command("eigen-separable-sum", "eigen", {
        "kernel": {"variant": "separable_sum", "matrix": _spd(rng, 2),
                   "s": 0.5},
        "domain": {"shape": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0],
                   "cells": 16, "margin": 0.3},
        "drift": _tanh(rng),
        "eigen": {"dense_check": False},
    }, _gate_eigen(dense=False)))
    matrix = _spd(rng, 2)
    density = {"profile": {"kind": "bump", "radius": 0.8}, "cells": 20}
    kernel = {"variant": "constant", "matrix": matrix, "s": 0.5,
              "normalized": True}
    cmds.append(Command("dv-functional-drift", "dv-functional", {
        "kernel": kernel, "density": density, "drift": _tanh(rng),
    }, _gate_dv(with_drift=True)))
    cmds.append(Command("dv-functional", "dv-functional", {
        "kernel": kernel, "density": density,
    }, _gate_dv(with_drift=False)))
    cmds.append(Command("recover-drift", "recover-drift", {
        "kernel": {"variant": "constant",
                   "matrix": [[float(rng.uniform(0.6, 2.5))]], "s": 0.5,
                   "normalized": True},
        "drift": {"kind": "gaussian", "width": 0.9,
                  "amplitude": float(rng.uniform(0.3, 0.7))},
        "probe": {"x0": [float(rng.uniform(-0.3, 0.3))], "cells": 40},
    }, _gate_recover_drift))
    cmds.append(Command("barrier-check", "barrier-check", {
        "kernel": {"variant": "constant", "matrix": _spd(rng, 2), "s": 0.5,
                   "normalized": True},
        # the sign checks read the window min(delta, 0.05 r); at delta 0.1
        # (window 0.05) the 2D ball is not yet asymptotic and the positive
        # check fails for most seeds, at delta 0.02 it holds for all tried
        "barrier": {"domain": "ball", "alpha": 0.75, "delta": 0.02,
                    "points": 3, "mesh": 0.0025},
        "drift": _tanh(rng),
    }, _gate_barrier))
    for cid in VERIFY_CHECKS:
        cmds.append(Command(f"verify-{cid}", "verify", {"checks": [cid]},
                            _gate_verify, ("--seed", str(seed))))
    return cmds


WORKLOADS: dict[str, Callable[[int], list[Command]]] = {
    "eigen_const2d": eigen_const2d,
    "recover_3d": recover_3d,
    "small_mix": small_mix,
}
