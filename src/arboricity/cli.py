"""Command-line interface.

Graphs are read from text files with one edge per line ("u v", nonnegative
integer vertex labels; repeated lines create parallel edges; blank lines and
lines starting with '#' are ignored).  EdgeIds are assigned in line order
starting at 0, and all output refers to edges by that index.

Results are emitted as JSON with stable key order; every rational is a
string "p/q" in lowest terms (integers appear without a denominator).

Exit codes: 0 success, 2 parse/input error, 3 precondition failure
(disconnected graph, empty core), 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import game, oracle, prime
from .density import fractional_arboricity
from .errors import (
    DisconnectedGraphError,
    EmptyCoreError,
    GraphInputError,
    ResourceLimitError,
)
from .multigraph import Multigraph
from .nucleolus import solve_nucleolus

EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_RESOURCE = 4


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def parse_graph_file(path: str) -> Multigraph:
    pairs: list[tuple[int, int]] = []
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _CliError(EXIT_INPUT, f"cannot read {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise _CliError(
                EXIT_INPUT, f"{path}:{lineno}: expected two vertex labels"
            )
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise _CliError(
                EXIT_INPUT, f"{path}:{lineno}: vertex labels must be integers"
            ) from None
        if u < 0 or v < 0:
            raise _CliError(
                EXIT_INPUT, f"{path}:{lineno}: vertex labels must be nonnegative"
            )
        if u == v:
            raise _CliError(EXIT_INPUT, f"{path}:{lineno}: self-loop {u} {v}")
        pairs.append((u, v))
    if not pairs:
        raise _CliError(EXIT_INPUT, f"{path}: no edges")
    return Multigraph.from_edge_list(pairs)


def parse_allocation_file(path: str, num_edges: int) -> dict[int, Fraction]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _CliError(EXIT_INPUT, f"cannot read {path}: {exc}") from exc
    values: list[Fraction] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            values.append(Fraction(stripped))
        except (ValueError, ZeroDivisionError):
            raise _CliError(
                EXIT_INPUT, f"{path}:{lineno}: not a rational: {stripped!r}"
            ) from None
    if len(values) != num_edges:
        raise _CliError(
            EXIT_INPUT,
            f"{path}: {len(values)} values for {num_edges} edges",
        )
    return {i: v for i, v in enumerate(values)}


def _rat(x: Fraction | int) -> str:
    return str(Fraction(x))


def _require_connected(g: Multigraph) -> None:
    if not g.is_connected():
        raise _CliError(EXIT_PRECONDITION, "graph is not connected")


def cmd_af(path: str) -> dict:
    g = parse_graph_file(path)
    _require_connected(g)
    cert = fractional_arboricity(g)
    return {
        "af": _rat(cert.value),
        "arboricity": math.ceil(cert.value),
        "witness": sorted(cert.witness),
    }


def cmd_prime_partition(path: str) -> dict:
    g = parse_graph_file(path)
    _require_connected(g)
    pp = prime.prime_partition(g)
    poset = prime._ancestor_order(g, pp)
    return {
        "af": _rat(pp.af),
        "prime_sets": [
            {
                "id": ps.id,
                "level": ps.level,
                "n_p": ps.n_p,
                "edges": sorted(ps.edges),
            }
            for ps in pp.prime_sets
        ],
        "non_prime": sorted(pp.non_prime),
        "parents": {
            str(ps.id): sorted(poset.parents[ps.id]) for ps in pp.prime_sets
        },
    }


def cmd_nucleolus(path: str, variant: bool = False) -> dict:
    g = parse_graph_file(path)
    _require_connected(g)
    sol = solve_nucleolus(g, variant)
    status = sol.status
    return {
        "core_nonempty": status.nonempty,
        "af": _rat(status.af),
        "arboricity": status.arboricity,
        "epsilon": _rat(sol.epsilon),
        "allocation": [_rat(sol.allocation[e]) for e in sorted(g.edge_ids)],
        "gamma": _rat(status.af if variant else status.arboricity),
    }


def cmd_core_check(path: str, allocation_path: str) -> dict:
    g = parse_graph_file(path)
    _require_connected(g)
    x = parse_allocation_file(allocation_path, g.num_edges())
    result = game.core_membership(g, x)
    doc: dict = {"verdict": result.verdict}
    if result.witness is not None:
        doc["witness"] = sorted(result.witness)
    return doc


def cmd_oracle(path: str, subcommand: str, cap: int | None) -> dict:
    g = parse_graph_file(path)
    _require_connected(g)
    kwargs = {"edge_cap": cap} if cap is not None else {}
    if subcommand == "af":
        value, witness = oracle.brute_fractional_arboricity(g, **kwargs)
        a = math.ceil(value)
        return {"af": _rat(value), "arboricity": a, "witness": sorted(witness)}
    if subcommand == "densest-list":
        subs = oracle.enumerate_densest_subgraphs(g, **kwargs)
        return {"densest": [sorted(s) for s in subs]}
    if subcommand == "nucleolus":
        alloc = oracle.maschler_nucleolus(g, **kwargs)
        total = sum(alloc.values())
        return {
            "core_nonempty": True,
            "allocation": [_rat(alloc[e]) for e in sorted(g.edge_ids)],
            "gamma": _rat(total),
        }
    raise _CliError(EXIT_INPUT, f"unknown oracle subcommand {subcommand!r}")


def _emit(doc: dict, output: str | None) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="arboricity",
        description="Fractional arboricity, prime partition, and the "
        "nucleolus of arboricity games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_af = sub.add_parser("af", help="fractional arboricity and witness")
    p_af.add_argument("graph")
    p_af.add_argument("--output", default=None)

    p_pp = sub.add_parser("prime-partition", help="prime sets, E0, parents")
    p_pp.add_argument("graph")
    p_pp.add_argument("--output", default=None)

    p_nuc = sub.add_parser("nucleolus", help="exact nucleolus allocation")
    p_nuc.add_argument("graph")
    p_nuc.add_argument(
        "--variant",
        action="store_true",
        help="use fractional arboricity as the coalition cost "
        "(drops the integrality precondition)",
    )
    p_nuc.add_argument("--output", default=None)

    p_cc = sub.add_parser("core-check", help="core membership of an allocation")
    p_cc.add_argument("graph")
    p_cc.add_argument("allocation")
    p_cc.add_argument("--output", default=None)

    p_or = sub.add_parser("oracle", help="brute-force reference computations")
    p_or.add_argument(
        "subcommand", choices=["af", "densest-list", "nucleolus"]
    )
    p_or.add_argument("graph")
    p_or.add_argument("--cap", type=int, default=None)
    p_or.add_argument("--output", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "af":
            doc = cmd_af(args.graph)
        elif args.command == "prime-partition":
            doc = cmd_prime_partition(args.graph)
        elif args.command == "nucleolus":
            doc = cmd_nucleolus(args.graph, variant=args.variant)
        elif args.command == "core-check":
            doc = cmd_core_check(args.graph, args.allocation)
        else:
            doc = cmd_oracle(args.graph, args.subcommand, args.cap)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except GraphInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DisconnectedGraphError, EmptyCoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    _emit(doc, args.output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
