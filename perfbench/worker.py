"""One pass of a workload, in a process of its own.

Started by ``run.py`` from the root of a checkout, with the BLAS thread
variables already pinned in its environment so that they hold before numpy
loads.  It imports ``nonlocal_dv.cli`` from the checkout's ``src``, writes
the workload's configs, runs every command through ``cli.main`` (traced
with ``--trace``), then checks and hashes the outputs and writes a JSON
report for the parent.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import time
import traceback
from pathlib import Path


def _blas_info() -> dict:
    """Effective OpenBLAS thread counts, read from the loaded libraries."""
    import ctypes

    import numpy
    import scipy

    info = {"nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__}
    for pkg, symbol in ((numpy, "scipy_openblas_get_num_threads64_"),
                        (scipy, "scipy_openblas_get_num_threads")):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("libscipy_openblas*.so")):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info[f"{pkg.__name__}_blas_threads"] = int(fn())
        blas = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info[f"{pkg.__name__}_blas"] = f"{blas.get('name')} {blas.get('version')}"
    return info


def _hash_outputs(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def _check(cmd, code, out: Path) -> str:
    """Empty string when the command's outputs pass its gate."""
    if code != 0:
        return f"exit code {code}"
    try:
        stem = cmd.command.replace("-", "_")
        with open(out / f"{stem}_summary.json") as fh:
            results = json.load(fh)["results"]
        return cmd.gate(results, out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable outputs: {exc!r}"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="parent's time.monotonic() at spawn")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    from nonlocal_dv import cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"nonlocal_dv imported from {cli.__file__}, "
                         f"not from {src}")
    import workloads

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    commands = workloads.WORKLOADS[args.workload](args.seed)
    for k, cmd in enumerate(commands):
        (out / f"{k:02d}-{cmd.label}.json").write_text(json.dumps(cmd.config))
    setup_s = time.monotonic() - args.t0
    report: dict = {"setup_s": setup_s}

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
    runs = []
    with tracer or contextlib.nullcontext(), \
            open(out / "commands.log", "w") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        for k, cmd in enumerate(commands):
            cmd_out = out / f"{k:02d}-{cmd.label}"
            argv = [cmd.command, "--config", str(out / f"{cmd_out.name}.json"),
                    "--output-dir", str(cmd_out), *cmd.extra_args]
            error = ""
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # a crash is a failed command, not a lost run
                code = None
                error = traceback.format_exc()
            runs.append({"label": cmd.label, "code": code, "error": error,
                         "seconds": time.perf_counter() - start})

    for k, (run, cmd) in enumerate(zip(runs, commands)):
        cmd_out = out / f"{k:02d}-{cmd.label}"
        run["problem"] = run["error"] or _check(cmd, run["code"], cmd_out)
        run["hashes"] = _hash_outputs(cmd_out) if cmd_out.is_dir() else {}
        if cmd.command == "recover-matrix" and not run["problem"]:
            with open(cmd_out / "recover_matrix_summary.json") as fh:
                run["entry_err"] = json.load(fh)["results"]["max_entry_error"]
    report["commands"] = runs
    report["wall_s"] = sum(r["seconds"] for r in runs)
    report["env"] = _blas_info()
    if tracer is not None:
        report["aggregate"] = tracing.aggregate(tracer.spans)
        tracer.write(Path(args.report).with_suffix(".spans.jsonl.gz"))
    Path(args.report).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
