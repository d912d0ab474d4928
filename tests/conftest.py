"""Helpers shared by the test modules."""

import contextlib
import tracemalloc
from typing import NamedTuple

import pytest


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
