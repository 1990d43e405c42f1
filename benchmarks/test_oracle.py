"""Tests of the benchmark's own oracle and of BENCHMARK.json.

    python3 -m pytest benchmarks -q
"""

import json
import random
from math import factorial

import pytest

import layers
import oracle
import program
import run
import workloads


@pytest.fixture(scope="module")
def prog():
    return program.load()


def test_closed_forms_reproduce_the_readme_table():
    assert oracle.k_cycle_counts(2, 3) == (435, 225, 45, 15)
    assert oracle.fixed_point_counts(2, 3) == (29, 15, 3, 1)


@pytest.mark.parametrize("k, n", [(1, 1), (2, 3), (3, 4), (4, 50), (7, 30), (1, 120)])
def test_closed_forms_sum_to_the_group_orders_and_are_proportional(k, n):
    cyc, fxpt = oracle.k_cycle_counts(k, n), oracle.fixed_point_counts(k, n)
    assert sum(cyc) == factorial(k * n)
    assert sum(fxpt) == k**n * factorial(n)
    assert all(c * sum(fxpt) == f * sum(cyc) for c, f in zip(cyc, fxpt))


@pytest.mark.parametrize(
    "k, n", [(1, 0), (2, 0)] + [(k, m // k) for m in range(1, 8) for k in range(1, m + 1) if m % k == 0]
)
def test_closed_forms_match_the_programs_exhaustive_counts(prog, k, n):
    assert tuple(prog.harness.k_cycle_distribution(k, n).counts) == oracle.k_cycle_counts(k, n)
    assert tuple(prog.harness.fixed_point_distribution(k, n).counts) == oracle.fixed_point_counts(k, n)


def test_counters_on_the_readme_permutation():
    pi = oracle.parse_cycle_text("(8 3 4 5)(9)(11 1 10)(15 7 2 6 12 14 13)", 15)
    assert oracle.cycle_lengths(pi) == [7, 4, 3, 1]
    assert [oracle.count_k_cycles(pi, k) for k in range(1, 9)] == [1, 0, 1, 1, 0, 0, 1, 0]


def test_counters_on_hand_worked_cycles():
    assert oracle.count_k_cycles((1, 2, 3, 4), 1) == 4
    assert oracle.count_k_cycles((2, 1, 4, 3), 2) == 2
    assert oracle.count_k_cycles((2, 3, 1, 4), 3) == 1
    assert oracle.cycles((2, 3, 1, 5, 4)) == [(1, 2, 3), (4, 5)]
    # sigma = (x, tau) with x = (0,1,0,2,1) and tau = (2)(3)(5 1 4): tau fixes 2 and
    # 3, and only x_3 is 0.
    tau = oracle.parse_cycle_text("(2)(3)(5 1 4)", 5)
    assert tau == (4, 2, 3, 5, 1)
    assert oracle.count_fixed_points((0, 1, 0, 2, 1), tau, 3) == 1
    assert oracle.count_fixed_points((0, 3, 0, 0, 0), (1, 2, 3, 5, 4), 3) == 3


def test_cycle_text_round_trips_and_bad_text_is_refused():
    rng = random.Random(7)
    for m in (1, 5, 40):
        images = tuple(rng.sample(range(1, m + 1), m))
        assert oracle.parse_cycle_text(oracle.cycle_text(images), m) == images
    for bad in ("(1 2", "(1 2)(2 3)", "(1 9)", "()", "x(1 2)"):
        with pytest.raises(ValueError):
            oracle.parse_cycle_text(bad, 5)


def test_chi2_threshold_is_a_tail_bound_at_alpha():
    for df in (1, 3, 10, 50):
        x = oracle.chi2_threshold(df)
        assert x > df
        assert (x / df) ** (df / 2) * pow(2.718281828459045, (df - x) / 2) <= oracle.ALPHA * 1.000001


def test_chi2_accepts_the_exact_shape_and_rejects_others():
    exact = oracle.k_cycle_counts(2, 3)
    trials = 100_000
    assert oracle.sample_passes(tuple(c * trials // 720 for c in exact), exact)
    assert not oracle.sample_passes((trials // 4,) * 4, exact)
    assert not oracle.sample_passes((trials, 0, 0), exact)
    assert not oracle.sample_passes((trials - 1, 0, 0, 1), (5, 0, 0, 0))


def test_the_programs_sampler_passes(prog):
    for k, n, trials in ((2, 3, 20_000), (4, 50, 500)):
        cyc, fxpt = prog.harness.sample_empirical(k, n, trials, 3)
        assert oracle.sample_passes(tuple(cyc), oracle.k_cycle_counts(k, n))
        assert oracle.sample_passes(tuple(fxpt), oracle.fixed_point_counts(k, n))


def test_expected_checked_counts():
    assert oracle.bijection_checked(2, 3) == 1440
    assert oracle.involution_checked(2, 2) == 24 * 4 * 2


def test_probe_workloads_pass_their_checks(prog):
    for workload in workloads.probe_workloads(prog, 5):
        first = workload.run_round(workloads.NULL)
        assert first.correct and first.failed == 0
        assert workload.run_round(workloads.NULL).correct


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((program.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
