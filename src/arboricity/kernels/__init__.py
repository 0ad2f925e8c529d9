"""The flow kernel: one integer max-flow sweep, implemented in ``pure``.

``sweep`` answers whether a compact multigraph has a connected vertex set
denser than p/q; callers use it as ``kernels.sweep``.  ``active()`` returns
the kernel module, so code that inspects the kernel (its ``NAME``, its
per-flow ``_trial``) does not depend on the module layout.
"""

from __future__ import annotations

from types import ModuleType

from . import pure
from .pure import sweep


def active() -> ModuleType:
    return pure
