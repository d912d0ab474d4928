"""Self-tests of the benchmark; run from the repository root with

    python3 -m pytest perfbench/test_perfbench.py

The count test runs every workload twice traced (about two minutes).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"
          and not m["name"].startswith("trace.")]


def test_self_times_cover_wall():
    # root 0..10 with children 1..4 (grandchild 2..3) and 5..9
    spans = [["cli.main", 0.0, 10.0, -1, None],
             ["lattice.assemble", 1.0, 4.0, 0, {"nodes": 9}],
             ["spectral.eig", 2.0, 3.0, 1, None],
             ["lattice.assemble", 5.0, 9.0, 0, {"nodes": 4}],
             ["cli.main", 20.0, 21.0, -1, None]]
    agg = tracing.aggregate(spans)
    assert agg["wall_s"] == 11.0
    by = agg["by_name"]
    assert by["cli.main"] == {"calls": 2, "s": 4.0}
    assert by["lattice.assemble"] == {"calls": 2, "s": 6.0, "nodes": 13}
    values = tracing.layer_metrics(agg, PER_LAYER)
    assert values["cli.self_s"] == 4.0
    assert values["lattice.assemble.nodes"] == 13
    assert tracing.unattributed(agg, values) == 0.0


def test_unnamed_spans_go_to_module_other():
    spans = [["cli.main", 0.0, 4.0, -1, None],
             ["rate.Q_form", 1.0, 2.0, 0, None]]
    values = tracing.layer_metrics(tracing.aggregate(spans), PER_LAYER)
    assert values["rate.other.s"] == 1.0
    assert values["cli.self_s"] == 3.0


def test_every_layer_has_an_other_bucket():
    for layer in tracing.LAYERS:
        assert f"{layer}.other.s" in PER_LAYER


def test_blas_threads_ignore_the_callers_shell(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("NONLOCAL_DV_LOG", "debug")
    env = run.pinned_env()
    nproc = str(len(os.sched_getaffinity(0)))
    assert [env[var] for var in run.BLAS_VARS] == [nproc] * 3
    assert "NONLOCAL_DV_LOG" not in env


def test_trace_fails_when_wall_time_escapes_the_spans(tmp_path):
    bench = run.Bench("eigen_const2d", 1, tmp_path, PER_LAYER)
    spans = [["cli.main", 0.0, 10.0, -1, None]]
    report = {"wall_s": 10.0, "aggregate": tracing.aggregate(spans)}
    bench.check_trace(report)
    assert bench.failed == 0, bench.problems
    report["wall_s"] = 10.01  # 10 ms of the pass outside every span
    bench.check_trace(report)
    assert bench.failed == 1 and "not traced" in bench.problems[0]


def test_install_rebinds_every_name_and_restores():
    import numpy.fft
    import scipy.linalg

    from nonlocal_dv import cli, kernels, lattice, rate, recovery, spectral, verify

    originals = (lattice.assemble, rate.assemble, cli.assemble,
                 scipy.linalg.eig, numpy.fft.fftn, cli._HANDLERS)
    domain = lattice.LatticeDomain.interval(-1.0, 1.0, 8)
    spec = kernels.fractional_kernel(1, 0.5)
    with tracing.Tracer() as tr:
        for mod in (lattice, rate, recovery, verify, cli):
            assert mod.assemble is not originals[0]
            assert mod.assemble.__wrapped__ is originals[0]
        assert scipy.linalg.eig.__wrapped__ is originals[3]
        # a call from outside the package records no span
        numpy.fft.fftn(numpy.ones(4))
        assert tr.spans == []
        spectral.dense_eigenpair(lattice.assemble(domain, spec))
        top = [k for k, span in enumerate(tr.spans) if span[3] == -1]
        assert [tr.spans[k][0] for k in top] == ["lattice.assemble",
                                                 "spectral.dense_eigenpair"]
        eig = [span for span in tr.spans if span[0] == "spectral.eig"]
        assert len(eig) == 1 and eig[0][3] == top[1]
    assert (lattice.assemble, rate.assemble, cli.assemble, scipy.linalg.eig,
            numpy.fft.fftn, cli._HANDLERS) == originals


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_between_traced_runs(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    bench = run.Bench(workload, 5, tmp_path, PER_LAYER)
    first, _ = bench.spawn("--trace")
    second, _ = bench.spawn("--trace")
    assert first is not None and second is not None, bench.problems
    for report in (first, second):
        assert bench.check_pass(report)
        bench.check_trace(report)
        bench.traced.append(report)
    assert bench.failed == 0, bench.problems
    # every span's call count and recorded counts, the named ones included
    assert run._counts(first) == run._counts(second)
    a, b = ({k: tracing.layer_metrics(r["aggregate"], PER_LAYER)[k]
             for k in COUNTS} for r in (first, second))
    assert a == b


def test_refuses_to_run_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
