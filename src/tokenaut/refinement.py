"""Equitable refinement kernel entry point.

There is one kernel, the pure-Python one in ``_refine_py``. The names below
stay so that callers and tools that report which kernel ran keep working.
"""

from __future__ import annotations

from typing import Sequence

from . import _refine_py


def available_backends() -> tuple[str, ...]:
    return ("pure",)


def default_backend() -> str:
    return "pure"


def make_kernel(n: int, adj: Sequence[int]) -> _refine_py.RefineKernel:
    """Refinement kernel for one graph; not shareable across threads."""
    return _refine_py.RefineKernel(n, adj)
