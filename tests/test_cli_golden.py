"""Byte-for-byte CLI output on fixed graphs.

``cli_golden.json`` maps each case name to the exit code, stdout and stderr
that ``arboricity`` printed for it; any change to the computed values, the
JSON layout or the error text shows up here.
"""

import json
from pathlib import Path

import pytest

from arboricity.cli import main

from conftest import edge_list_text, four_k4_chain
from test_cli import K4, PATH3, TRIANGLE, TWO_K4_BRIDGE

GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())

GRAPHS = {
    "triangle": TRIANGLE,
    "k4": K4,
    "path3": PATH3,
    "two_k4_bridge": TWO_K4_BRIDGE,
    "triangle_pendant": TRIANGLE + "2 3\n",
    "four_k4_chain": edge_list_text(four_k4_chain()),
}

# case name -> (argv before the graph, graph, allocation file text or None)
CASES = {
    "af-triangle": (["af"], "triangle", None),
    "af-two_k4_bridge": (["af"], "two_k4_bridge", None),
    "af-four_k4_chain": (["af"], "four_k4_chain", None),
    "prime-partition-path3": (["prime-partition"], "path3", None),
    "prime-partition-triangle_pendant": (["prime-partition"], "triangle_pendant", None),
    "prime-partition-two_k4_bridge": (["prime-partition"], "two_k4_bridge", None),
    "prime-partition-four_k4_chain": (["prime-partition"], "four_k4_chain", None),
    "nucleolus-k4": (["nucleolus"], "k4", None),
    "nucleolus-two_k4_bridge": (["nucleolus"], "two_k4_bridge", None),
    "nucleolus-four_k4_chain": (["nucleolus"], "four_k4_chain", None),
    "nucleolus-empty-core-triangle": (["nucleolus"], "triangle", None),
    "nucleolus-variant-triangle": (["nucleolus", "--variant"], "triangle", None),
    "nucleolus-variant-triangle_pendant": (
        ["nucleolus", "--variant"], "triangle_pendant", None,
    ),
    "nucleolus-variant-four_k4_chain": (
        ["nucleolus", "--variant"], "four_k4_chain", None,
    ),
    "core-check-member-k4": (["core-check"], "k4", "1/3\n" * 6),
    "core-check-violated-k4": (["core-check"], "k4", "2\n0\n0\n0\n0\n0\n"),
    "oracle-af-triangle": (["oracle", "af"], "triangle", None),
    "oracle-densest-list-two_k4_bridge": (
        ["oracle", "densest-list"], "two_k4_bridge", None,
    ),
    "oracle-nucleolus-k4": (["oracle", "nucleolus"], "k4", None),
}


def run_case(tmp_path, capsys, name):
    head, graph, allocation = CASES[name]
    graph_file = tmp_path / f"{graph}.txt"
    graph_file.write_text(GRAPHS[graph])
    argv = [*head, str(graph_file)]
    if allocation is not None:
        alloc_file = tmp_path / "alloc.txt"
        alloc_file.write_text(allocation)
        argv.append(str(alloc_file))
    code = main(argv)
    out, err = capsys.readouterr()
    return {"code": code, "stdout": out, "stderr": err}


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_golden(tmp_path, capsys, name):
    assert run_case(tmp_path, capsys, name) == GOLDEN[name]
