"""Span and count recording around the package's layer entry points.

``Tracer.install()`` replaces each wrapped function, in every
``arboricity`` module that binds it, with a wrapper that records a span
(name, start, end, parent, request) and updates counts; ``uninstall()``
puts the originals back.  Nothing in ``src/`` is changed.  A layer's self
time is its span time minus the time of the spans nested in it.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

MULTIGRAPH_METHODS = (
    "from_edge_list",
    "components",
    "induced_by_edges",
    "induced_by_vertices",
    "delete_vertices",
    "delete_edges",
    "contract",
    "max_weight_spanning_tree",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, request]
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.partitions: list = []  # (request, prime_partition result)
        self.request = -1
        self._stack: list[list] = []  # [span index, time spent in children]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        spans, stack, self_s, counts = self.spans, self._stack, self.self_s, self.counts

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            entry = [name, perf_counter(), 0.0, parent, self.request]
            spans.append(entry)
            frame = [len(spans) - 1, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                entry[2] = end
                took = end - entry[1]
                self_s[name] += took - frame[1]
                if stack:
                    stack[-1][1] += took
                counts[name] += 1
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def _counter(self, name: str, fn, weigh):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += weigh(args, result)
            return result

        return wrapper

    # -- patching --------------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        """Replace ``original`` wherever an arboricity module binds it."""
        for modname, mod in list(sys.modules.items()):
            if not (modname == "arboricity" or modname.startswith("arboricity.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def _method(self, cls: type, attr: str, wrapper) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        # import_module, not attribute access: the package re-exports
        # functions named ``density`` and ``nucleolus`` over those submodules
        (cli, density, game, kernels, multigraph, nucleolus, oracle, prime, simplex) = (
            importlib.import_module(f"arboricity.{name}")
            for name in (
                "cli", "density", "game", "kernels", "multigraph",
                "nucleolus", "oracle", "prime", "simplex",
            )
        )
        counts = self.counts

        def after_sweep(result, args):
            counts["kernels.sweep_hits"] += result is not None
            counts["kernels.edges_in"] += len(args[1])

        def after_partition(result, args):
            self.partitions.append((self.request, result))
            counts["prime.levels"] += 1 + max((ps.level for ps in result.prime_sets), default=-1)
            counts["prime.prime_sets"] += len(result.prime_sets)

        def after_mds(result, args):
            counts["density.mds_found"] += len(result)

        for module, attr, after in (
            (kernels, "sweep", after_sweep),
            (density, "fractional_arboricity", None),
            (density, "_enumerate_mds", after_mds),
            (prime, "prime_partition", after_partition),
            (prime, "ancestors", None),
            (nucleolus, "peel_assignment", None),
            (game, "core_nonempty", None),
            (oracle, "gamma_table", None),
            (oracle, "maschler_nucleolus", None),
            (simplex, "simplex_solve", None),
            (cli, "parse_graph_file", None),
            (cli, "_emit", None),
            (cli, "main", None),
        ):
            original = getattr(module, attr)
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            self._rebind(original, self._span(name, original, after))

        trial = getattr(kernels.active(), "_trial", None)
        if trial is not None:
            self._rebind(trial, self._counter("kernels.trials", trial, lambda a, r: 1))

        init = simplex._Tableau.__init__

        def cells(args, result):
            tab = args[0]
            return tab.num_rows * (tab.num_cols + 1)

        self._method(simplex._Tableau, "__init__", self._counter("simplex.tableau_cells", init, cells))
        for attr in MULTIGRAPH_METHODS:
            raw = multigraph.Multigraph.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._span(f"multigraph.{attr}", raw.__func__))
            else:
                wrapped = self._span(f"multigraph.{attr}", raw)
            self._method(multigraph.Multigraph, attr, wrapped)
        as_mg = multigraph.ContractionView.as_multigraph
        self._method(
            multigraph.ContractionView, "as_multigraph", self._span("multigraph.as_multigraph", as_mg)
        )

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def layer_metrics(self, requests: int) -> dict[str, tuple[float, str]]:
        """Per-request means of every layer metric, as (value, unit)."""
        c, s = self.counts, self.self_s
        multigraph_s = sum(v for k, v in s.items() if k.startswith("multigraph."))
        induced = c["multigraph.induced_by_vertices"] + c["multigraph.induced_by_edges"]
        raw = {
            "kernels.sweep_calls": (c["kernels.sweep"], "calls/req"),
            "kernels.sweep_s": (s["kernels.sweep"], "s/req"),
            "kernels.sweep_hits": (c["kernels.sweep_hits"], "calls/req"),
            "kernels.trials": (c["kernels.trials"], "flows/req"),
            "kernels.edges_in": (c["kernels.edges_in"], "edges/req"),
            "density.af_calls": (c["density.fractional_arboricity"], "calls/req"),
            "density.af_s": (s["density.fractional_arboricity"], "s/req"),
            "density.mds_enum_s": (s["density._enumerate_mds"], "s/req"),
            "density.mds_found": (c["density.mds_found"], "sets/req"),
            "multigraph.induced_calls": (induced, "calls/req"),
            "multigraph.contract_calls": (c["multigraph.contract"], "calls/req"),
            "multigraph.self_s": (multigraph_s, "s/req"),
            "prime.prime_partition_s": (s["prime.prime_partition"], "s/req"),
            "prime.ancestors_s": (s["prime.ancestors"], "s/req"),
            "prime.levels": (c["prime.levels"], "levels/req"),
            "prime.prime_sets": (c["prime.prime_sets"], "sets/req"),
            "nucleolus.peel_s": (s["nucleolus.peel_assignment"], "s/req"),
            "game.core_nonempty_s": (s["game.core_nonempty"], "s/req"),
            "oracle.gamma_table_s": (s["oracle.gamma_table"], "s/req"),
            "oracle.maschler_s": (s["oracle.maschler_nucleolus"], "s/req"),
            "simplex.solve_calls": (c["simplex.simplex_solve"], "calls/req"),
            "simplex.solve_s": (s["simplex.simplex_solve"], "s/req"),
            "simplex.tableau_cells": (c["simplex.tableau_cells"], "cells/req"),
            "cli.parse_s": (s["cli.parse_graph_file"], "s/req"),
            "cli.emit_s": (s["cli._emit"], "s/req"),
            "cli.main_s": (s["cli.main"], "s/req"),
        }
        return {k: (v / requests, unit) for k, (v, unit) in raw.items()}
