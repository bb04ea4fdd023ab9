import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flgames.core import (
    Deterministic,
    Randomized,
    line_instance,
    metric_instance,
    outcome_agent_cost,
    outcome_cost,
    permute_agents,
)
from flgames.mechanisms import LEFTMOST, MEDIAN, RD, TWO_EXTREMES
from flgames.solver import INFINITE_RATIO, GuardExceeded, evaluate, optimal

from strategies import QUARTERS, build, line_instances


def test_optimal_single_facility_shifted_pair():
    inst = build("single-lb-I-prime", eps=F(1, 10))
    result = optimal(inst, "mc")
    assert result.value == F(11, 10)
    assert result.best == Deterministic((2,))
    assert result.all_best == (Deterministic((2,)),)
    # the rejected candidate really costs 3
    assert outcome_cost(inst, Deterministic((1,)), "mc") == 3


def test_optimal_reports_every_argmin():
    inst = build("single-lb-I", eps=F(1, 10))
    result = optimal(inst, "mc")
    assert result.value == F(11, 10)
    assert result.all_best == (Deterministic((1,)), Deterministic((2,)))
    assert result.best == Deterministic((1,))


def test_optimal_two_facility_shifted_pair():
    inst = build("two-lb-I-prime", eps=F(1, 10), far=1000)
    result = optimal(inst, "mc")
    assert result.value == F(11, 10)
    assert result.all_best == (Deterministic((2, 3)),)


def test_optimal_tight_social_cost_instance():
    inst = build("example-1", eps=F(1, 100), n=4)
    result = optimal(inst, "sc")
    assert result.value == F(1, 3)
    assert result.all_best == (Deterministic((2, 3)),)


def test_optimal_remark_instance():
    inst = build("wpv-remark", eps=F(1, 100))
    result = optimal(inst, "mc")
    assert result.value == 1
    assert result.all_best == (Deterministic((2,)),)


def test_optimal_selection_is_canonical_sorted_form():
    inst = line_instance((0, 10), (10, 0), k=2)
    result = optimal(inst, "sc")
    assert result.value == 0
    assert result.best == Deterministic((1, 2))
    for det in result.all_best:
        assert tuple(sorted(det.selection)) == det.selection


def test_guard():
    # k = 2 over m = 3 candidates enumerates comb(4, 2) = 6 multisets
    inst = line_instance((0, 1), (0, 1, 2), k=2)
    with pytest.raises(GuardExceeded, match="^6 candidate multisets exceed the guard of 5$"):
        optimal(inst, "sc", guard=5)
    assert optimal(inst, "sc", guard=6).value == 0


def rejecting_costs(instance, outcome):
    """Every call that costs an outcome on an instance: evaluate and
    outcome_cost on each objective, and an agent's cost."""
    yield lambda: outcome_agent_cost(instance, outcome, 1)
    for objective in ("sc", "mc"):
        yield lambda: evaluate(instance, outcome, objective)
        yield lambda: outcome_cost(instance, outcome, objective)


def test_evaluate_rejects_a_selection_that_is_not_k_candidates():
    """A selection of the wrong size, or naming a candidate past m, is
    refused by name on either space, by evaluate after the guard's count
    check, and by outcome_cost and outcome_agent_cost alike."""
    line = line_instance((1, 2, 3), (0, 4), k=2)
    metric = metric_instance(((0, 1), (1, 0)), (1, 2), (1, 2), k=2)
    for instance in (line, metric):
        for selection in ((1,), (1, 2, 2), (1, 3)):
            message = f"^selection {re.escape(str(selection))} does not hold k=2 candidate indices in 1..2$"
            for call in rejecting_costs(instance, Deterministic(selection)):
                with pytest.raises(ValueError, match=message):
                    call()
        mixed = Randomized(((Deterministic((1, 2)), F(1, 2)), (Deterministic((2,)), F(1, 2))))
        for call in rejecting_costs(instance, mixed):
            with pytest.raises(ValueError, match=re.escape("selection (2,) does not hold k=2")):
                call()
        with pytest.raises(GuardExceeded, match="^3 candidate multisets exceed the guard of 2$"):
            evaluate(instance, Deterministic((1,)), "sc", guard=2)
    single = line_instance((1, 2, 3), (0, 4), k=1)
    for selection in ((1, 2), (3,)):
        for call in rejecting_costs(single, Deterministic(selection)):
            with pytest.raises(ValueError, match=re.escape(f"selection {selection} does not hold k=1")):
                call()


def test_infinite_ratio_ordering():
    assert INFINITE_RATIO > F(10**9)
    assert not INFINITE_RATIO < F(10**9)
    assert F(10**9) < INFINITE_RATIO
    assert INFINITE_RATIO == INFINITE_RATIO
    assert max(F(3), INFINITE_RATIO) == INFINITE_RATIO
    assert F(10**9) <= INFINITE_RATIO
    assert INFINITE_RATIO >= F(10**9)
    assert not INFINITE_RATIO <= F(10**9)
    assert INFINITE_RATIO <= INFINITE_RATIO
    assert not INFINITE_RATIO > INFINITE_RATIO
    assert sorted([INFINITE_RATIO, F(2), F(1)]) == [F(1), F(2), INFINITE_RATIO]
    assert {INFINITE_RATIO, type(INFINITE_RATIO)(), F(2)} == {F(2), INFINITE_RATIO}


def test_infinite_ratio_prints_as_inf():
    # the sweep CSV writes a ratio with str() and f-strings alike
    assert str(INFINITE_RATIO) == f"{INFINITE_RATIO}" == "inf"


def test_two_extremes_ratio_on_tight_instance():
    # exact at eps = 1/100, n = 4
    inst = build("example-1", eps=F(1, 100), n=4)
    eps = F(1, 100)
    expected = ((F(2, 3) - eps) * 2 + F(1, 3) - eps) / F(1, 3)
    assert evaluate(inst, TWO_EXTREMES.apply(inst), "sc").ratio == expected == F(491, 100)
    # approaches 2n - 3 = 5 as eps shrinks
    tiny = build("example-1", eps=F(1, 10**6), n=4)
    value = evaluate(tiny, TWO_EXTREMES.apply(tiny), "sc").ratio
    assert abs(value - 5) <= F(1, 10**4)


def test_leftmost_ratio_on_remark_instance():
    inst = build("wpv-remark", eps=F(1, 100))
    assert evaluate(inst, LEFTMOST.apply(inst), "mc").ratio == F(299, 100)


def test_median_is_optimal_for_social_cost_here():
    inst = build("median-context")
    assert evaluate(inst, MEDIAN.apply(inst), "sc").ratio == 1
    assert evaluate(inst, MEDIAN.apply(inst), "mc").ratio == F(10, 9)


# ---------------------------------------------------------------------------
# properties

SINGLE = line_instances(coord=QUARTERS, ks=(1,), candidate_count=(1, 4), agent_count=(1, 5))
EITHER = line_instances(coord=QUARTERS, candidate_count=(1, 4), agent_count=(1, 5))


@given(data=st.data())
@settings(max_examples=60)
def test_no_mechanism_beats_the_optimum(data):
    """Property: mechanism cost >= exact optimum, so ratios are >= 1."""
    inst = data.draw(SINGLE)
    objective = data.draw(st.sampled_from(("sc", "mc")))
    opt = optimal(inst, objective).value
    for mech in (LEFTMOST, MEDIAN, RD):
        assert outcome_cost(inst, mech.apply(inst), objective) >= opt
        assert evaluate(inst, mech.apply(inst), objective).ratio >= 1


@given(data=st.data())
@settings(max_examples=60)
def test_optimum_ignores_agent_order(data):
    """Property: the optimal value is invariant under profile permutations."""
    inst = data.draw(EITHER)
    perm = data.draw(st.permutations(range(1, inst.n + 1)))
    objective = data.draw(st.sampled_from(("sc", "mc")))
    assert (
        optimal(inst, objective).value
        == optimal(permute_agents(inst, tuple(perm)), objective).value
    )


@given(data=st.data())
@settings(max_examples=60)
def test_second_facility_never_hurts_the_optimum(data):
    """Property: the k=2 optimum is at most the k=1 optimum."""
    inst = data.draw(SINGLE)
    paired = line_instance(inst.agents, inst.candidates, k=2)
    for objective in ("sc", "mc"):
        assert optimal(paired, objective).value <= optimal(inst, objective).value
