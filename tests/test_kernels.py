"""The flow kernel: pinned sweeps, extreme thresholds, and the benchmark's hooks."""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from arboricity import exceeds_density, kernels, prime_partition
from arboricity.oracle import brute_fractional_arboricity

from conftest import k4, random_connected, two_k4_bridge

BIG = 10**30


@pytest.mark.parametrize(
    "p, q, expected",
    [(1, 1, [0, 1, 2, 3]), (3, 2, [0, 1]), (2, 1, None), (5, 3, [0, 1])],
)
def test_sweep_on_parallel_edges(p, q, expected):
    assert kernels.sweep(4, [0, 0, 1, 2, 2], [1, 1, 2, 3, 3], p, q) == expected


@pytest.mark.parametrize(
    "lam, expected",
    [
        (Fraction(BIG + 1, BIG), frozenset({0, 1, 2, 3})),
        (Fraction(2 * BIG - 1, BIG), frozenset({0, 1, 2, 3})),
        (Fraction(2 * BIG + 1, BIG), None),
    ],
)
def test_thresholds_beyond_64_bits_terminate(lam, expected):
    # p and q both above 2**62: a flow of about q*m must not be pushed in
    # pieces of a fixed size
    assert exceeds_density(k4(), lam) == expected


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_extreme_thresholds_match_brute_force(seed):
    g = random_connected(random.Random(seed), n_max=8, m_max=8)
    af, _ = brute_fractional_arboricity(g)
    lams = [af + Fraction(s, 10**k) for k in (20, 30) for s in (-1, 1)]
    for lam in [af, *lams, Fraction(10**20, 3)]:
        assert (exceeds_density(g, lam) is not None) == (af > lam)


def test_tracer_counts_the_kernel():
    # the benchmark's tracer finds the kernel through kernels.sweep and
    # kernels.active()._trial; a missing hook would read zero, not fail
    path = Path(__file__).resolve().parents[1] / "pipeline_bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("pipeline_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        prime_partition(two_k4_bridge())
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(1)
    assert kernels.active().NAME == "pure"
    assert metrics["kernels.sweep_calls"][0] > 0
    assert metrics["kernels.trials"][0] > 0
