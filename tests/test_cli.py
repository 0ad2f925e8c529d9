import argparse
import gc
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from arboricity import (
    InternalInvariantError,
    cli,
    kernels,
    prime_partition,
)
from arboricity.cli import main

from conftest import edge_list_text, four_k4_chain, k4_tower, two_k4_bridge

TRIANGLE = "0 1\n1 2\n0 2\n"
K4 = "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
PATH3 = "0 1\n1 2\n2 3\n"
TWO_K4_BRIDGE = (
    "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
    "4 5\n4 6\n4 7\n5 6\n5 7\n6 7\n"
    "2 4\n3 5\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_main_leaves_no_parser_garbage(tmp_path, capsys):
    # the parser is built once and kept, not rebuilt into reference cycles
    # that only the cycle collector frees
    path = write(tmp_path, "k4.txt", K4)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert run(capsys, "af", path)[0] == 0
        gc.collect()
        parsers = [o for o in gc.garbage if isinstance(o, argparse.ArgumentParser)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not parsers


def test_af_triangle(tmp_path, capsys):
    path = write(tmp_path, "tri.txt", TRIANGLE)
    code, out, _ = run(capsys, "af", path)
    assert code == 0
    doc = json.loads(out)
    assert doc == {"af": "3/2", "arboricity": 2, "witness": [0, 1, 2]}


def test_af_k4_and_path(tmp_path, capsys):
    code, out, _ = run(capsys, "af", write(tmp_path, "k4.txt", K4))
    assert code == 0
    doc = json.loads(out)
    assert doc["af"] == "2"
    assert doc["arboricity"] == 2
    code, out, _ = run(capsys, "af", write(tmp_path, "p3.txt", PATH3))
    assert json.loads(out)["af"] == "1"


def test_af_comments_and_parallel_lines(tmp_path, capsys):
    text = "# two parallel edges\n\n0 1\n0 1\n"
    code, out, _ = run(capsys, "af", write(tmp_path, "g.txt", text))
    assert code == 0
    assert json.loads(out)["af"] == "2"


def test_parse_errors(tmp_path, capsys):
    for bad in ("0\n", "0 0\n", "a b\n", "-1 2\n", ""):
        code, _, err = run(capsys, "af", write(tmp_path, "bad.txt", bad))
        assert code == 2
        assert "error:" in err


@pytest.mark.parametrize("line", ["0 1_0", "+2 1", "0 \u0661", "\uff11 0", "0 \u00b2"])
def test_labels_are_ascii_digits(tmp_path, capsys, line):
    # int() reads these as 10, 2, 1, 1 and fails on the superscript; each
    # must be refused with one message
    code, out, err = run(capsys, "af", write(tmp_path, "bad.txt", f"0 2\n{line}\n1 2\n"))
    assert (code, out) == (2, "")
    assert err.endswith("bad.txt:2: vertex labels must be integers\n")


def test_byte_order_mark_is_accepted(tmp_path, capsys):
    bom = tmp_path / "bom.txt"
    bom.write_bytes(b"\xef\xbb\xbf" + TRIANGLE.encode())
    code, out, _ = run(capsys, "af", str(bom))
    assert code == 0
    assert out == run(capsys, "af", write(tmp_path, "plain.txt", TRIANGLE))[1]


def test_missing_file(capsys):
    code, _, err = run(capsys, "af", "/nonexistent/graph.txt")
    assert code == 2


def test_disconnected(tmp_path, capsys):
    code, _, err = run(capsys, "af", write(tmp_path, "d.txt", "0 1\n2 3\n"))
    assert code == 3
    assert "connected" in err


def test_bugs_escape_main(tmp_path, monkeypatch):
    # only the library's input, precondition and resource errors become
    # exit codes; an internal invariant failure keeps its traceback
    def broken(g, variant):
        raise InternalInvariantError("broken on purpose")

    monkeypatch.setattr(cli, "solve_nucleolus", broken)
    with pytest.raises(InternalInvariantError, match="broken on purpose"):
        main(["nucleolus", write(tmp_path, "k4.txt", K4)])


def test_prime_partition_two_k4_bridge(tmp_path, capsys):
    path = write(tmp_path, "b.txt", TWO_K4_BRIDGE)
    code, out, _ = run(capsys, "prime-partition", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["af"] == "2"
    assert [(p["level"], p["n_p"]) for p in doc["prime_sets"]] == [
        (0, 4), (0, 4), (1, 2),
    ]
    assert doc["prime_sets"][2]["edges"] == [12, 13]
    assert doc["non_prime"] == []
    assert doc["parents"] == {"0": [], "1": [], "2": [0, 1]}


def test_prime_partition_triangle_pendant(tmp_path, capsys):
    path = write(tmp_path, "tp.txt", TRIANGLE + "2 3\n")
    code, out, _ = run(capsys, "prime-partition", path)
    doc = json.loads(out)
    assert len(doc["prime_sets"]) == 1
    assert doc["non_prime"] == [3]


def test_prime_partition_tree(tmp_path, capsys):
    code, out, _ = run(capsys, "prime-partition", write(tmp_path, "t.txt", PATH3))
    doc = json.loads(out)
    assert len(doc["prime_sets"]) == 3
    assert all(not v for v in doc["parents"].values())


def test_nucleolus_k4(tmp_path, capsys):
    code, out, _ = run(capsys, "nucleolus", write(tmp_path, "k4.txt", K4))
    assert code == 0
    doc = json.loads(out)
    assert doc["allocation"] == ["1/3"] * 6
    assert doc["epsilon"] == "1/3"
    assert doc["core_nonempty"] is True
    assert doc["gamma"] == "2"


def test_nucleolus_two_k4_bridge(tmp_path, capsys):
    code, out, _ = run(capsys, "nucleolus", write(tmp_path, "b.txt", TWO_K4_BRIDGE))
    doc = json.loads(out)
    assert doc["epsilon"] == "1/13"
    assert doc["allocation"] == ["2/13"] * 12 + ["1/13"] * 2
    total = sum(Fraction(s) for s in doc["allocation"])
    assert total == Fraction(doc["gamma"])


def test_nucleolus_triangle_errors(tmp_path, capsys):
    code, _, err = run(capsys, "nucleolus", write(tmp_path, "t.txt", TRIANGLE))
    assert code == 3
    assert "core empty: af=3/2, a=2" in err


def test_nucleolus_variant_flag(tmp_path, capsys):
    code, out, _ = run(
        capsys, "nucleolus", write(tmp_path, "t.txt", TRIANGLE), "--variant"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["core_nonempty"] is False
    assert doc["allocation"] == ["1/2"] * 3
    assert doc["gamma"] == "3/2"


def test_core_check_member(tmp_path, capsys):
    g = write(tmp_path, "k4.txt", K4)
    a = write(tmp_path, "alloc.txt", "1/3\n" * 6)
    code, out, _ = run(capsys, "core-check", g, a)
    assert code == 0
    assert json.loads(out) == {"verdict": "member"}


def test_core_check_violated_with_witness(tmp_path, capsys):
    g = write(tmp_path, "k4.txt", K4)
    a = write(tmp_path, "alloc.txt", "2\n0\n0\n0\n0\n0\n")
    code, out, _ = run(capsys, "core-check", g, a)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "violated"
    assert 0 in doc["witness"]
    assert len(doc["witness"]) == 3


def test_core_check_tree_uniform(tmp_path, capsys):
    g = write(tmp_path, "p3.txt", PATH3)
    a = write(tmp_path, "alloc.txt", "1/3\n1/3\n1/3\n")
    code, out, _ = run(capsys, "core-check", g, a)
    assert json.loads(out)["verdict"] == "member"


@pytest.mark.parametrize("value", ["\u0661/\u0662", "1/\u0662", "0_1", "\uff11"])
def test_allocation_values_are_ascii(tmp_path, capsys, value):
    # Fraction() reads these as 1/2, 1/2, 1 and 1; each must be refused
    # with one message
    g = write(tmp_path, "p2.txt", "0 1\n1 2\n")
    a = write(tmp_path, "alloc.txt", f"1/2\n{value}\n")
    code, out, err = run(capsys, "core-check", g, a)
    assert (code, out) == (2, "")
    assert err.endswith(f"alloc.txt:2: not a rational: {value!r}\n")


@pytest.mark.parametrize("value", ["1/2", "+1/2", "0.5", "5e-1"])
def test_allocation_values_in_ascii_forms(tmp_path, capsys, value):
    g = write(tmp_path, "p2.txt", "0 1\n1 2\n")
    a = write(tmp_path, "alloc.txt", f"{value}\n1/2\n")
    code, out, _ = run(capsys, "core-check", g, a)
    assert code == 0
    assert json.loads(out) == {"verdict": "member"}


def test_core_check_length_mismatch(tmp_path, capsys):
    g = write(tmp_path, "p3.txt", PATH3)
    a = write(tmp_path, "alloc.txt", "1/3\n1/3\n")
    code, _, err = run(capsys, "core-check", g, a)
    assert code == 2


def test_oracle_af(tmp_path, capsys):
    code, out, _ = run(
        capsys, "oracle", "af", write(tmp_path, "t.txt", TRIANGLE)
    )
    assert code == 0
    assert json.loads(out)["af"] == "3/2"


def test_oracle_densest_list(tmp_path, capsys):
    code, out, _ = run(
        capsys, "oracle", "densest-list", write(tmp_path, "k4.txt", K4)
    )
    doc = json.loads(out)
    assert doc["densest"] == [[0, 1, 2, 3]]


def test_oracle_nucleolus_path2(tmp_path, capsys):
    code, out, _ = run(
        capsys, "oracle", "nucleolus", write(tmp_path, "p2.txt", "0 1\n1 2\n")
    )
    doc = json.loads(out)
    assert doc["allocation"] == ["1/2", "1/2"]


def test_oracle_cap_exit_code(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "oracle", "nucleolus", write(tmp_path, "k4.txt", K4), "--cap", "3",
    )
    assert code == 4
    assert "cap" in err


@pytest.mark.parametrize("cap", ["-1", "+3", "1.5", "x"])
def test_oracle_cap_is_a_nonnegative_integer(tmp_path, capsys, cap):
    path = write(tmp_path, "t.txt", TRIANGLE)
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "af", path, "--cap", cap])
    assert exc.value.code == 2
    assert "--cap: not a nonnegative integer" in capsys.readouterr().err
    # a cap of 0 is well formed, and three edges exceed it
    code, _, err = run(capsys, "oracle", "af", path, "--cap", "0")
    assert (code, err) == (4, "error: 3 edges exceeds oracle cap 0\n")


def test_oracle_matches_fast_nucleolus(tmp_path, capsys):
    g = write(tmp_path, "k4.txt", K4)
    _, fast_out, _ = run(capsys, "nucleolus", g)
    _, oracle_out, _ = run(capsys, "oracle", "nucleolus", g)
    assert (
        json.loads(fast_out)["allocation"] == json.loads(oracle_out)["allocation"]
    )


def test_output_file_and_lowest_terms(tmp_path, capsys):
    g = write(tmp_path, "b.txt", TWO_K4_BRIDGE)
    out_path = tmp_path / "result.json"
    code, out, _ = run(capsys, "nucleolus", g, "--output", str(out_path))
    assert code == 0
    assert out == ""
    doc = json.loads(out_path.read_text())
    for s in doc["allocation"] + [doc["epsilon"], doc["af"], doc["gamma"]]:
        f = Fraction(s)
        assert s == str(f)  # lowest terms, canonical rendering


def test_output_to_a_directory_is_an_input_error(tmp_path, capsys):
    g = write(tmp_path, "t.txt", TRIANGLE)
    code, out, err = run(capsys, "af", g, "--output", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {tmp_path}: ")


@pytest.mark.parametrize(
    "make",
    [two_k4_bridge, four_k4_chain, pytest.param(lambda: k4_tower(30), id="k4_tower30")],
)
def test_cli_runs_the_pipeline_once(tmp_path, capsys, monkeypatch, make):
    # prime-partition costs what prime_partition costs, and nucleolus costs
    # the same: its core test's af is the only one, and prime_partition
    # reads level 0 from its certificate instead of sweeping again
    g = make()
    path = write(tmp_path, "g.txt", edge_list_text(g))
    calls = {"sweep": 0, "_trial": 0}

    def counting(name):
        real = getattr(kernels, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(kernels, name, wrapper)

    counting("sweep")
    counting("_trial")

    def cost(fn, *args):
        calls.update(sweep=0, _trial=0)
        fn(*args)
        return dict(calls)

    partition = cost(main, ["prime-partition", path])
    assert partition["sweep"] > 0
    assert partition == cost(prime_partition, g)
    assert cost(main, ["nucleolus", path]) == partition


def test_importing_the_cli_leaves_the_oracle_unloaded():
    # only `arboricity oracle` needs the brute-force oracle and its simplex,
    # so the other commands do not pay to import them
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, arboricity.cli; "
        "print([m for m in ('arboricity.oracle', 'arboricity.simplex') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
