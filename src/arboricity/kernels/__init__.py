"""The flow kernel: integer max-flow questions on a compact multigraph.

``sweep`` answers whether a connected vertex set is denser than p/q, and
``minimal_densest`` lists the minimal vertex sets of density exactly p/q
(at p/q = af, the minimal densest subgraphs); callers use them as
``kernels.sweep`` and ``kernels.minimal_densest``.  Both are implemented in
``pure``: each call builds one flow network and carries one max flow on it
from root to root, re-augmenting it after every deletion.  ``active()``
returns the kernel module, so code that inspects the kernel (its ``NAME``,
its ``_trial``, called once per flow) does not depend on the module layout.
"""

from __future__ import annotations

from types import ModuleType

from . import pure
from .pure import minimal_densest, sweep


def active() -> ModuleType:
    return pure
