"""Out-of-package tracing: wrap the package's functions and record spans.

Nothing in ``nonlocal_dv`` knows about this module.  ``Tracer.install``
replaces, in every loaded package module, each public function with a
wrapper that records a span, and does the same for the third-party solver
entry points the package calls.  A function is replaced wherever a module
binds it: ``from .lattice import assemble`` gives ``rate``, ``recovery``,
``verify`` and ``cli`` their own name for ``assemble``, and each of those
names is rebound.  Third-party functions are replaced on their home module
too (``scipy.linalg.eig``, ``numpy.fft.fftn``), because the package calls
them through that module, and a span is recorded only when the direct
caller is a package module; the span is then named after the caller
(``spectral.eig``, ``recovery.fftn``).

Spans stay in memory until the run ends.  Each holds its name, start, end,
parent index and the counts taken from its arguments or result.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Callable

PACKAGE = "nonlocal_dv"

LAYERS = ("cli", "kernels", "operators", "lattice", "spectral", "rate",
          "recovery", "barriers", "extrapolate", "verify")

# span of the CLI entry point; its self time is validation, dispatch and
# serialization, reported as cli.self_s
ROOT = "cli.main"


def _assemble_counts(args, kwargs, result) -> dict:
    nodes = len(result.domain.points)
    # the dense pair-weight matrix is nodes x nodes float64; computed, not
    # measured
    return {"nodes": nodes, "pair_bytes": nodes * nodes * 8}


def _fourier_counts(args, kwargs, result) -> dict:
    # grid size as fourier_energy derives it from its arguments (computed)
    import numpy as np
    from nonlocal_dv import recovery

    matrix = args[0] if args else kwargs["matrix"]
    dim = np.atleast_2d(np.asarray(matrix)).shape[0]
    counts = args[4] if len(args) > 4 else kwargs.get("counts")
    if counts is None:
        counts = recovery._DEFAULT_COUNTS.get(dim, 64)
    points = int(np.prod(np.broadcast_to(np.asarray(counts, dtype=int), (dim,))))
    check = args[5] if len(args) > 5 else kwargs.get("check_aliasing", False)
    return {"grid_points": points * (1 + 2 ** dim if check else 1)}


def _eigenpair_counts(args, kwargs, result) -> dict:
    return {"iterations": int(result.iterations)}


def _lbfgs_counts(args, kwargs, result) -> dict:
    return {"nit": int(result.nit), "nfev": int(result.nfev)}


# counts recorded per span name, from (args, kwargs, result)
COUNTERS: dict[str, Callable] = {
    "lattice.assemble": _assemble_counts,
    "recovery.fourier_energy": _fourier_counts,
    "spectral.principal_eigenpair": _eigenpair_counts,
    "rate.lbfgs": _lbfgs_counts,
}


def _minimize_alias(args, kwargs) -> str:
    return "lbfgs" if kwargs.get("method") == "L-BFGS-B" else "minimize"


def _foreign_targets():
    """(owner module, attribute, alias function) of the wrapped solvers."""
    import numpy.fft
    import scipy.linalg
    import scipy.optimize

    def fixed(name):
        return lambda args, kwargs: name

    return [
        (scipy.linalg, "eig", fixed("eig")),
        (scipy.linalg, "lu_factor", fixed("lu_factor")),
        (scipy.linalg, "lu_solve", fixed("lu_solve")),
        (scipy.optimize, "minimize", _minimize_alias),
        (numpy.fft, "fftn", fixed("fftn")),
    ]


class Tracer:
    """Span recorder; use as ``with Tracer() as tr: ...`` around the calls.

    ``spans`` is a list of ``[name, start, end, parent, counts]``, parent
    being the index of the enclosing span or -1.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _call(self, name: str, fn, args, kwargs):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            record[4] = counter(args, kwargs, result)
        return result

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return traced

    def _wrap_foreign(self, fn, alias):
        package = PACKAGE + "."

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if not caller.startswith(package):
                return fn(*args, **kwargs)
            name = caller[len(package):] + "." + alias(args, kwargs)
            return self._call(name, fn, args, kwargs)
        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {name: sys.modules[f"{PACKAGE}.{name}"] for name in LAYERS}
        wrappers: dict[int, object] = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        for owner, attr, alias in _foreign_targets():
            fn = getattr(owner, attr)
            wrappers[id(fn)] = self._wrap_foreign(fn, alias)
            self._patch(owner, attr, wrappers[id(fn)])
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
        # command handlers and verify checks are private, dispatched through
        # tables; each gets its own span so cli.<command> and
        # cli.verify.<check_id> carry their self time
        cli, verify = modules["cli"], modules["verify"]
        self._patch(cli, "_HANDLERS", {
            cmd: self.wrap(f"cli.{cmd}", fn) for cmd, fn in cli._HANDLERS.items()})
        self._patch(verify, "_REGISTRY", tuple(
            (cid, self.wrap(f"cli.verify.{cid}", fn))
            for cid, fn in verify._REGISTRY))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results -----------------------------------------------------------

    def write(self, path) -> None:
        """Write one JSON object per span (name, start, end, parent, counts)
        to a gzip file."""
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, counts in self.spans:
                rec = {"name": name, "start": start, "end": end,
                       "parent": parent}
                if counts:
                    rec["counts"] = counts
                fh.write(json.dumps(rec) + "\n")


def aggregate(spans: list[list]) -> dict:
    """Per-name totals: ``calls``, self time ``s`` and summed counts.

    Self time is a span's duration minus the durations of its direct
    children; children of one span never overlap, because every traced
    call is synchronous on one thread.  ``wall_s`` is the summed duration
    of the top-level spans, which equals the sum of all self times.
    """
    child_time = [0.0] * len(spans)
    wall = 0.0
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
        else:
            wall += end - start
    totals: dict[str, dict] = defaultdict(lambda: defaultdict(int))
    for k, (name, start, end, parent, counts) in enumerate(spans):
        entry = totals[name]
        entry["calls"] += 1
        entry["s"] += (end - start) - child_time[k]
        for key, value in (counts or {}).items():
            entry[key] += value
    out = {name: dict(entry) for name, entry in totals.items()}
    return {"wall_s": wall, "spans": len(spans), "by_name": out}


def layer_metrics(agg: dict, wanted: list[str]) -> dict[str, float]:
    """Map span totals onto the per-layer metric names in ``wanted``.

    ``<name>.<quantity>`` reads that quantity of span ``name``.  The root
    span's self time is ``cli.self_s``.  Self time of a span whose own
    ``.s`` metric is not wanted goes to ``<module>.other.s``, so that every
    second of the traced wall time lands in exactly one wanted metric.
    """
    values = dict.fromkeys(wanted, 0)
    for name, entry in agg["by_name"].items():
        for quantity, value in entry.items():
            key = f"{name}.{quantity}"
            if quantity == "s":
                if name == ROOT:
                    key = "cli.self_s"
                elif key not in values:
                    key = name.split(".")[0] + ".other.s"
            if key in values:
                values[key] += value
    return values


def unattributed(agg: dict, values: dict[str, float]) -> float:
    """Traced wall time not covered by the reported self-time metrics."""
    covered = sum(v for k, v in values.items()
                  if k == "cli.self_s" or k.endswith(".s"))
    return agg["wall_s"] - covered
