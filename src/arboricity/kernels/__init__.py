"""The flow kernel: integer max-flow questions on a compact multigraph.

``sweep`` answers whether a connected vertex set is denser than p/q, and
``minimal_densest`` lists the minimal vertex sets of density exactly p/q
(at p/q = af, the minimal densest subgraphs); callers use them as
``kernels.sweep`` and ``kernels.minimal_densest``.  Both are implemented in
``pure``.  ``active()`` returns the kernel module, so code that inspects the
kernel (its ``NAME``, its per-flow ``_trial``) does not depend on the module
layout.
"""

from __future__ import annotations

from types import ModuleType

from . import pure
from .pure import minimal_densest, sweep


def active() -> ModuleType:
    return pure
