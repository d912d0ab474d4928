"""Helpers shared by the test modules."""

import contextlib
import ctypes
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from nonlocal_dv import lattice, operators


class TracedMemory(NamedTuple):
    current: int  # bytes traced now
    peak: int  # the most bytes traced at once since tracing began


@pytest.fixture
def traced_memory():
    """``with traced_memory() as memory:`` traces the allocations of the
    block, and ``memory()`` reads them (a ``TracedMemory``) inside it.
    Tracing stops when the block ends, also on an exception."""

    @contextlib.contextmanager
    def trace():
        tracemalloc.start()
        try:
            yield lambda: TracedMemory(*tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()

    return trace


def pair_weights(op):
    """The pair weights W of an assembled operator, (n_int, n_total): row r
    is the interior node r against every box node, cell volume included.
    The package holds no W; this gathers it, as a reference, from the same
    chunks that assembly and every pair pass stream."""
    W = np.empty((op.n, len(op.domain.points)))
    for sl, w in lattice._pair_weight_chunks(op.spec, op.domain,
                                             op.self_cell_moments):
        W[sl] = w
    return W


def rules(spec, x, quad, fns):
    """The pointwise rules at x of the functions ``fns``: the rule of a
    point of shape (dim,), or the list of the rules of an (m, dim) array.
    The package holds no rule set; this gathers one, as a reference, from
    the same blocks that ``pointwise_forms`` streams."""
    pts, single = operators._points(spec, x)
    got = [r for block in operators._rule_blocks(spec, pts, quad, fns) for r in block]
    return got[0] if single else got


def openblas_pool():
    """(getter, setter) of the thread count of the OpenBLAS bundled with
    numpy."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    (lib,) = sorted(libdir.glob("libscipy_openblas*.so"))
    handle = ctypes.CDLL(str(lib))
    getter = handle.scipy_openblas_get_num_threads64_
    getter.restype = ctypes.c_int
    setter = handle.scipy_openblas_set_num_threads64_
    setter.argtypes = [ctypes.c_int]
    return getter, setter
