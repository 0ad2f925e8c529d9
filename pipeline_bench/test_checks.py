"""The benchmark's output checks accept right answers and reject wrong ones.

    python3 -m pytest pipeline_bench -q

Each test takes a real CLI result for a small seeded instance, checks that it
passes, then corrupts it and expects ``CheckFailed``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from arboricity import cli  # noqa: E402


def run_cli(tmp_path: Path, inst: workloads.Instance) -> dict:
    path = tmp_path / "g.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in inst.edges))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(inst.command) + [str(path)]) == 0
    return json.loads(buf.getvalue())


def nearest_other_density(value: Fraction, max_den: int, above: bool) -> Fraction:
    """The closest fraction to ``value`` with denominator <= max_den, on one
    side: the smallest step a density of a graph on max_den + 1 vertices can
    take."""
    best = None
    for d in range(1, max_den + 1):
        n = math.floor(value * d) + (1 if above else 0)
        f = Fraction(n, d)
        if f == value:
            f = Fraction(n + (1 if above else -1), d)
        if (f > value) == above and (best is None or abs(f - value) < abs(best - value)):
            best = f
    return best


def flip(x: str, by: Fraction) -> str:
    return str(Fraction(x) + by)


@pytest.fixture
def random_case(tmp_path):
    inst = workloads.Instance(
        "random", ("prime-partition",), workloads.random_multigraph(random.Random(3), 14, 40)
    )
    return inst, run_cli(tmp_path, inst)


def test_prime_partition_accepts(random_case):
    inst, doc = random_case
    checks.check_prime_partition(inst.edges, doc)


@pytest.mark.parametrize("above", [True, False])
def test_prime_partition_rejects_af_off_by_smallest_step(random_case, above):
    inst, doc = random_case
    n = len({v for e in inst.edges for v in e})
    doc["af"] = str(nearest_other_density(Fraction(doc["af"]), n - 1, above))
    with pytest.raises(checks.CheckFailed):
        checks.check_prime_partition(inst.edges, doc)


def test_prime_partition_rejects_edge_moved_between_prime_sets(random_case):
    inst, doc = random_case
    # the random case has one prime set; moving an edge out of it into E0
    # is a move between the two classes of the partition
    assert len(doc["prime_sets"]) == 1 and doc["non_prime"]
    ps = doc["prime_sets"][0]
    e = ps["edges"].pop()
    doc["non_prime"].append(e)
    with pytest.raises(checks.CheckFailed):
        checks.check_prime_partition(inst.edges, doc)


def test_prime_partition_rejects_edge_moved_between_two_prime_sets(tmp_path):
    inst = workloads.block_tree(random.Random(1), 3)
    inst.command = ("prime-partition",)
    doc = run_cli(tmp_path, inst)
    checks.check_prime_partition(inst.edges, doc)
    first, second = doc["prime_sets"][0], doc["prime_sets"][1]
    second["edges"].append(first["edges"].pop())
    with pytest.raises(checks.CheckFailed):
        checks.check_prime_partition(inst.edges, doc)


def test_prime_partition_rejects_duplicate_edge(random_case):
    inst, doc = random_case
    doc["non_prime"].append(doc["non_prime"][0])
    with pytest.raises(checks.CheckFailed):
        checks.check_prime_partition(inst.edges, doc)


@pytest.mark.parametrize(
    "make", [lambda rng: workloads.block_tree(rng, 4), lambda rng: workloads.pair_hierarchy(rng, 2)]
)
def test_structured_rejects_perturbed_allocation(tmp_path, make):
    inst = make(random.Random(7))
    doc = run_cli(tmp_path, inst)
    checks.check_structured(inst, doc)
    for entry in (0, len(inst.edges) - 1):
        bad = json.loads(json.dumps(doc))
        bad["allocation"][entry] = flip(bad["allocation"][entry], Fraction(1, 10**6))
        with pytest.raises(checks.CheckFailed):
            checks.check_structured(inst, bad)


def test_structured_rejects_core_allocation_that_is_not_the_nucleolus(tmp_path):
    # the whole block tree is densest, so the uniform allocation 1/(n-1) is
    # a core vertex: only the closed form tells it from the nucleolus
    inst = workloads.block_tree(random.Random(4), 4)
    doc = run_cli(tmp_path, inst)
    n = len({v for e in inst.edges for v in e})
    uniform = [Fraction(1, n - 1)] * len(inst.edges)
    checks.check_core(inst.edges, uniform, 2)
    doc["allocation"] = [str(v) for v in uniform]
    with pytest.raises(checks.CheckFailed, match="gets"):
        checks.check_structured(inst, doc)


def test_structured_rejects_wrong_epsilon(tmp_path):
    inst = workloads.pair_hierarchy(random.Random(2), 2)
    doc = run_cli(tmp_path, inst)
    assert Fraction(doc["epsilon"]) == Fraction(1, 41)
    doc["epsilon"] = "1/42"
    with pytest.raises(checks.CheckFailed):
        checks.check_structured(inst, doc)


def test_structured_levels_match_construction():
    assert checks.expected_levels(workloads.block_tree(random.Random(0), 5)) == {0: 5, 1: 4}
    assert checks.expected_levels(workloads.pair_hierarchy(random.Random(0), 3)) == {
        0: 8, 1: 4, 2: 2, 3: 1,
    }


def oracle_case(tmp_path):
    inst = workloads.oracle_batch(random.Random(5))[0]
    doc = run_cli(tmp_path, inst)
    peel = [Fraction(x) for x in doc["allocation"]]
    return inst, doc, peel


def test_oracle_rejects_perturbed_allocation(tmp_path):
    inst, doc, peel = oracle_case(tmp_path)
    checks.check_oracle(inst, doc, peel)
    doc["allocation"][0] = flip(doc["allocation"][0], Fraction(1, 10**6))
    with pytest.raises(checks.CheckFailed):
        checks.check_oracle(inst, doc, peel)


def test_oracle_rejects_disagreeing_peel(tmp_path):
    inst, doc, peel = oracle_case(tmp_path)
    peel[0] += Fraction(1, 10**6)
    with pytest.raises(checks.CheckFailed):
        checks.check_oracle(inst, doc, peel)


def test_core_rejects_each_property():
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]  # a = 2, nucleolus 1/3 each
    third, half, sixth = Fraction(1, 3), Fraction(1, 2), Fraction(1, 6)
    checks.check_core(k4, [third] * 6, 2)
    with pytest.raises(checks.CheckFailed, match="spanning tree"):
        checks.check_core(k4, [half] * 3 + [sixth] * 3, 2)  # the star at 0 weighs 3/2
    with pytest.raises(checks.CheckFailed, match="negative"):
        checks.check_core(k4, [half] * 4 + [Fraction(1), Fraction(-1)], 2)
    with pytest.raises(checks.CheckFailed, match="sums"):
        checks.check_core(k4, [third] * 5 + [half], 2)


@pytest.mark.parametrize("seed", range(8))
def test_flow_reference_agrees_with_exhaustive_search(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 8)
    edges = workloads.random_multigraph(rng, n, rng.randint(n, 2 * n + 2))
    af = checks.brute_force_af(edges)
    assert not checks.denser_than(edges, af)
    assert checks.denser_than(edges, nearest_other_density(af, n - 1, above=False))
