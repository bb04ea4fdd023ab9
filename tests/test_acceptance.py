"""Acceptance gate: eight end-to-end checks, one test each.

Every test prints a single PASS/FAIL line (run pytest with -s to see
them) and enforces its wall-clock budget where one applies.  All
expected values are exact rationals; the only tolerance is the one
stated inline for the large worst-case-growth check.
"""

import functools
import json
import random
import time
from fractions import Fraction as F

from flgames.cli import instance_to_json, main
from flgames.core import Deterministic, line_instance, outcome_cost
from flgames.instances import (
    PaperConstruction,
    RandomFamily,
    build_paper_instance,
    random_instance,
)
from flgames.mechanisms import (
    LEFTMOST,
    MEAN,
    MEDIAN,
    RD,
    TWO_EXTREMES,
    dictator_spec,
    wpv_spec,
)
from flgames.solver import optimal, ratio
from flgames.verify import (
    check_anonymity,
    find_group_deviation,
    find_unilateral_deviation,
    iter_sweep,
    replay_lower_bound,
)


def acceptance(label, budget=None):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
                elapsed = time.monotonic() - start
                if budget is not None and elapsed >= budget:
                    raise AssertionError(
                        f"budget {budget}s exceeded: {elapsed:.2f}s"
                    )
            except BaseException:
                print(f"{label}: FAIL")
                raise
            print(f"{label}: PASS ({elapsed:.2f}s)")

        return run

    return wrap


@acceptance("A1 two-extremes worst-case growth", budget=1.0)
def test_a1_two_extremes_worst_case_growth():
    eps = F(1, 100)
    inst = build_paper_instance(PaperConstruction("example-1", eps=eps, n=4))
    outcome = TWO_EXTREMES.apply(inst)
    assert outcome == Deterministic((1, 3))
    assert [inst.candidate(j) for j in outcome.selection] == [F(2, 3) + eps, 2]
    got = ratio(inst, TWO_EXTREMES, "sc")
    expected = ((F(2, 3) - eps) * 2 + F(1, 3) - eps) / F(1, 3)
    assert got == expected == F(491, 100)
    eps = F(1, 10**6)
    big = build_paper_instance(PaperConstruction("example-1", eps=eps, n=10))
    got = ratio(big, TWO_EXTREMES, "sc")
    assert got == ((F(2, 3) - eps) * 8 + F(1, 3) - eps) / F(1, 3)
    assert abs(got - 17) <= F(1, 10**4)


@acceptance("A2 hard-instance optima")
def test_a2_hard_instance_optima():
    single = build_paper_instance(PaperConstruction("single-lb-I-prime", eps=F(1, 10)))
    result = optimal(single, "mc")
    assert result.best == Deterministic((2,))
    assert result.value == F(11, 10)
    assert result.all_best == (Deterministic((2,)),)
    # the candidate at 0 that the optimum rejects really costs 3
    assert single.candidate(1) == 0
    assert outcome_cost(single, Deterministic((1,)), "mc") == 3

    double = build_paper_instance(
        PaperConstruction("two-lb-I-prime", eps=F(1, 10), far=F(1000))
    )
    result = optimal(double, "mc")
    assert result.best == Deterministic((2, 3))
    assert double.candidate(3) == 1000
    assert result.value == F(11, 10)


@acceptance("A3 percentile weights all hit the same ratio", budget=1.0)
def test_a3_percentile_weights_all_hit_same_ratio():
    inst = build_paper_instance(PaperConstruction("wpv-remark", eps=F(1, 100)))
    best = optimal(inst, "mc")
    assert best.value == 1
    assert best.best == Deterministic((2,))
    rng = random.Random("acceptance-weights:0")
    for _ in range(100):
        first = F(rng.randrange(0, 1001), 1000)
        rule = wpv_spec((first, 1 - first))
        assert ratio(inst, rule, "mc") == F(299, 100)


@acceptance("A4 ratio sweeps stay under the proven bounds", budget=60.0)
def test_a4_ratio_sweeps_stay_under_bounds():
    """Every row's ratio lies in [1, bound]: below 1 the optimum is not
    optimal, above the bound the paper's approximation result fails."""
    count = 10_000
    line_single = RandomFamily("line-uniform", n=5, m=4, k=1, seed=0)
    line_pair = RandomFamily("line-uniform", n=5, m=4, k=2, seed=0)
    metric = RandomFamily("metric-closure", n=4, m=3, k=1, seed=0)
    sweeps = [
        (line_single, LEFTMOST, "mc", 3),
        (line_pair, TWO_EXTREMES, "mc", 3),
        (line_pair, TWO_EXTREMES, "sc", 7),  # 2n-3 at n=5
        (metric, dictator_spec(1), "mc", 3),
    ]
    for family, rule, objective, bound in sweeps:
        for row in iter_sweep(family, rule, objective, count):
            assert 1 <= row.ratio <= bound, (rule.label(), objective, row.index, row.ratio)


@acceptance("A5 deviation searches", budget=120.0)
def test_a5_deviation_searches():
    line_single = RandomFamily("line-uniform", n=5, m=4, k=1, seed=201)
    for index in range(1000):
        inst = random_instance(line_single, index)
        for rule in (LEFTMOST, dictator_spec(1), MEDIAN, RD):
            assert find_unilateral_deviation(inst, rule) is None, (rule.label(), index)
    line_pair = RandomFamily("line-uniform", n=5, m=4, k=2, seed=202)
    for index in range(1000):
        inst = random_instance(line_pair, index)
        assert find_unilateral_deviation(inst, TWO_EXTREMES) is None, index

    group_single = RandomFamily("line-uniform", n=4, m=3, k=1, seed=203)
    for index in range(200):
        inst = random_instance(group_single, index)
        for rule in (LEFTMOST, dictator_spec(1)):
            assert (
                find_group_deviation(inst, rule, max_coalition=3, grid_points=3)
                is None
            ), (rule.label(), index)
    group_pair = RandomFamily("line-uniform", n=4, m=3, k=2, seed=204)
    for index in range(200):
        inst = random_instance(group_pair, index)
        assert (
            find_group_deviation(inst, TWO_EXTREMES, max_coalition=3, grid_points=3)
            is None
        ), index

    # the movable strawman is caught with the documented exact witness
    trap = build_paper_instance(PaperConstruction("single-lb-I", eps=F(1, 10)))
    witness = find_unilateral_deviation(trap, MEAN)
    assert witness.coalition == (2,)
    assert witness.costs_before == (F(11, 10),)
    assert witness.costs_after == (F(9, 10),)


@acceptance("A6 anonymity")
def test_a6_anonymity():
    line_single = RandomFamily("line-uniform", n=5, m=4, k=1, seed=301)
    for index in range(200):
        inst = random_instance(line_single, index)
        for rule in (LEFTMOST, MEDIAN, RD):
            assert check_anonymity(inst, rule) is None, (rule.label(), index)
    line_pair = RandomFamily("line-uniform", n=5, m=4, k=2, seed=302)
    for index in range(200):
        inst = random_instance(line_pair, index)
        assert check_anonymity(inst, TWO_EXTREMES) is None, index
    fixed = line_instance((0, 5), (0, 5), k=1)
    assert check_anonymity(fixed, dictator_spec(1)) == (2, 1)


@acceptance("A7 randomized boundary case")
def test_a7_randomized_boundary_case():
    report = replay_lower_bound("single-randomized", RD, eps=F(1, 10))
    assert report.ratio_shifted == F(41, 22)
    assert report.beats_bound  # 41/22 < 2
    assert report.margin == 0  # the lie is exactly cost neutral
    assert not report.sp_violation


@acceptance("A8 command determinism")
def test_a8_command_determinism(tmp_path, capsys):
    sweep_argv = [
        "sweep",
        "--family",
        "line-uniform",
        "--n",
        "5",
        "--m",
        "4",
        "--seed",
        "17",
        "--mechanism",
        "two-extremes",
        "--k",
        "2",
        "--objective",
        "sc",
        "--count",
        "200",
    ]
    assert main(sweep_argv) == 0
    first = capsys.readouterr().out
    assert main(sweep_argv) == 0
    assert capsys.readouterr().out == first

    inst = build_paper_instance(PaperConstruction("single-lb-I", eps=F(1, 10)))
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance_to_json(inst)), encoding="utf-8")
    verify_argv = ["verify", str(path), "--mechanism", "mean"]
    assert main(verify_argv) == 0
    first = capsys.readouterr().out
    assert main(verify_argv) == 0
    assert capsys.readouterr().out == first

    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(sweep_argv + ["--out", str(out_a)]) == 0
    assert main(sweep_argv + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
