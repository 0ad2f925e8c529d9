"""Command-line interface.

Graphs are read from UTF-8 text files (a leading byte-order mark is
accepted) with one edge per line ("u v", nonnegative integer vertex labels
in ASCII digits; repeated lines create parallel edges; blank lines and
lines starting with '#' are ignored).  EdgeIds are assigned
in line order starting at 0, and all output refers to edges by that index.

Results are emitted as JSON with stable key order; every rational is a
string "p/q" in lowest terms (integers appear without a denominator).

Exit codes: 0 success; otherwise the code that ``EXIT_CODES`` gives the
library error raised (2 parse/input error or unusable file, 3 precondition:
disconnected graph or empty core, 4 resource cap exceeded).  Any other
exception is a bug and escapes ``main`` with its traceback.
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

EXIT_CODES: dict[type[Exception], int] = {
    GraphInputError: 2,
    DisconnectedGraphError: 3,
    EmptyCoreError: 3,
    ResourceLimitError: 4,
}


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphInputError(f"cannot read {path}: {exc}") from exc


def parse_graph_file(path: str) -> Multigraph:
    pairs: list[tuple[int, int]] = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise GraphInputError(f"{path}:{lineno}: expected two vertex labels")
        # ASCII digits only: int() would also read "1_0", "+2" and other
        # scripts' digits
        digits = [label.removeprefix("-") for label in parts]
        if not all(d.isascii() and d.isdigit() for d in digits):
            raise GraphInputError(f"{path}:{lineno}: vertex labels must be integers")
        if digits != parts:
            raise GraphInputError(f"{path}:{lineno}: vertex labels must be nonnegative")
        u, v = int(parts[0]), int(parts[1])
        if u == v:
            raise GraphInputError(f"{path}:{lineno}: self-loop {u} {v}")
        pairs.append((u, v))
    if not pairs:
        raise GraphInputError(f"{path}: no edges")
    return Multigraph.from_edge_list(pairs)


def parse_allocation_file(path: str, num_edges: int) -> dict[int, Fraction]:
    values: list[Fraction] = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            values.append(Fraction(stripped))
        except (ValueError, ZeroDivisionError):
            raise GraphInputError(
                f"{path}:{lineno}: not a rational: {stripped!r}"
            ) from None
    if len(values) != num_edges:
        raise GraphInputError(f"{path}: {len(values)} values for {num_edges} edges")
    return {i: v for i, v in enumerate(values)}


def _rat(x: Fraction | int) -> str:
    return str(Fraction(x))


def cmd_af(g: Multigraph, args: argparse.Namespace) -> dict:
    cert = fractional_arboricity(g)
    return {
        "af": _rat(cert.value),
        "arboricity": math.ceil(cert.value),
        "witness": sorted(cert.witness),
    }


def cmd_prime_partition(g: Multigraph, args: argparse.Namespace) -> dict:
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


def cmd_nucleolus(g: Multigraph, args: argparse.Namespace) -> dict:
    sol = solve_nucleolus(g, args.variant)
    status = sol.status
    return {
        "core_nonempty": status.nonempty,
        "af": _rat(status.af),
        "arboricity": status.arboricity,
        "epsilon": _rat(sol.epsilon),
        "allocation": [_rat(sol.allocation[e]) for e in sorted(g.edge_ids)],
        "gamma": _rat(status.af if args.variant else status.arboricity),
    }


def cmd_core_check(g: Multigraph, args: argparse.Namespace) -> dict:
    x = parse_allocation_file(args.allocation, g.num_edges())
    result = game.core_membership(g, x)
    doc: dict = {"verdict": result.verdict}
    if result.witness is not None:
        doc["witness"] = sorted(result.witness)
    return doc


def cmd_oracle(g: Multigraph, args: argparse.Namespace) -> dict:
    kwargs = {"edge_cap": args.cap} if args.cap is not None else {}
    if args.subcommand == "af":
        value, witness = oracle.brute_fractional_arboricity(g, **kwargs)
        a = math.ceil(value)
        return {"af": _rat(value), "arboricity": a, "witness": sorted(witness)}
    if args.subcommand == "densest-list":
        subs = oracle.enumerate_densest_subgraphs(g, **kwargs)
        return {"densest": [sorted(s) for s in subs]}
    # "nucleolus": argparse's choices admit no other subcommand
    alloc = oracle.maschler_nucleolus(g, **kwargs)
    return {
        "core_nonempty": True,
        "allocation": [_rat(alloc[e]) for e in sorted(g.edge_ids)],
        "gamma": _rat(sum(alloc.values())),
    }


def _emit(doc: dict, output: str | None) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        try:
            Path(output).write_text(text)
        except OSError as exc:
            raise GraphInputError(f"cannot write {output}: {exc}") from exc


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
    p_af.set_defaults(run=cmd_af)

    p_pp = sub.add_parser("prime-partition", help="prime sets, E0, parents")
    p_pp.add_argument("graph")
    p_pp.add_argument("--output", default=None)
    p_pp.set_defaults(run=cmd_prime_partition)

    p_nuc = sub.add_parser("nucleolus", help="exact nucleolus allocation")
    p_nuc.add_argument("graph")
    p_nuc.add_argument(
        "--variant",
        action="store_true",
        help="use fractional arboricity as the coalition cost "
        "(drops the integrality precondition)",
    )
    p_nuc.add_argument("--output", default=None)
    p_nuc.set_defaults(run=cmd_nucleolus)

    p_cc = sub.add_parser("core-check", help="core membership of an allocation")
    p_cc.add_argument("graph")
    p_cc.add_argument("allocation")
    p_cc.add_argument("--output", default=None)
    p_cc.set_defaults(run=cmd_core_check)

    p_or = sub.add_parser("oracle", help="brute-force reference computations")
    p_or.add_argument(
        "subcommand", choices=["af", "densest-list", "nucleolus"]
    )
    p_or.add_argument("graph")
    p_or.add_argument("--cap", type=int, default=None)
    p_or.add_argument("--output", default=None)
    p_or.set_defaults(run=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        g = parse_graph_file(args.graph)
        if not g.is_connected():
            raise DisconnectedGraphError("graph is not connected")
        _emit(args.run(g, args), args.output)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for t, code in EXIT_CODES.items() if isinstance(exc, t))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
