import itertools
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flgames.core import (
    Deterministic,
    Randomized,
    line_instance,
    metric_instance,
    outcome_agent_cost,
)
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
    MechanismMismatch,
    dictator_spec,
    wpv_spec,
)
from flgames.solver import INFINITE_RATIO, GuardExceeded, ratio
from flgames.verify import (
    DeviationWitness,
    _far_missing,
    check_anonymity,
    find_group_deviation,
    find_unilateral_deviation,
    iter_sweep,
    joint_misreport_count,
    misreport_set,
    replay_lower_bound,
)

LB_BASE = build_paper_instance(PaperConstruction("single-lb-I", eps=F(1, 10)))

# crafted so the mean rule resists every single misreport in the searched
# set but falls to agents 1 and 2 lying jointly
PAIR_TRAP = line_instance((F(13, 8), F(15, 8), -4, -4), (0, 2), k=1)


def test_misreport_set_on_the_line():
    points = misreport_set(LB_BASE)
    # all true locations are present, the window is one span wide on
    # each side, and the scan order is ascending
    for loc in (F(0), F(2), F(9, 10), F(11, 10)):
        assert loc in points
    assert points[0] == -2 and points[-1] == 4
    assert list(points) == sorted(set(points))
    assert len(points) == 45


def test_misreport_set_grid_sizes():
    assert len(misreport_set(LB_BASE, grid_points=0)) == 4
    assert len(misreport_set(LB_BASE, grid_points=3)) == 7  # -2, 1, 4 plus locations
    with pytest.raises(ValueError):
        misreport_set(LB_BASE, grid_points=-1)


def reference_misreport_points(instance, grid_points):
    """The line's misreport set built directly on Fractions."""
    locations = instance.agents + instance.candidates
    lo, hi = min(locations), max(locations)
    span = max(hi - lo, F(1))
    points = set(locations)
    if grid_points == 1:
        points.add(lo - span)
    elif grid_points > 1:
        start = lo - span
        step = (hi + span - start) / (grid_points - 1)
        points.update(start + t * step for t in range(grid_points))
    return tuple(sorted(points))


FINE = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)


@st.composite
def grid_instances(draw):
    """Line instances with fine and negative coordinates, and some with
    every location coincident, where the span's floor of 1 applies."""
    if draw(st.booleans()):
        spot = draw(FINE)
        return line_instance([spot] * draw(st.integers(1, 3)), [spot] * draw(st.integers(1, 2)))
    locations = st.one_of(FINE, HALVES)
    agents = draw(st.lists(locations, min_size=1, max_size=4))
    return line_instance(agents, draw(st.lists(locations, min_size=1, max_size=3)))


@given(instance=grid_instances(), grid_points=st.sampled_from((0, 1, 2, 3, 41)))
@example(instance=line_instance((F(-7, 3),), (F(-7, 3),)), grid_points=41)
@example(instance=line_instance((F(1, 10**6), F(-3, 999_999)), (0,)), grid_points=41)
@settings(max_examples=200, deadline=None)
def test_integer_grid_matches_the_fraction_grid(instance, grid_points):
    points = misreport_set(instance, grid_points)
    assert points == reference_misreport_points(instance, grid_points)
    assert all(type(p) is F for p in points)


def test_misreport_set_metric_is_every_point():
    inst = metric_instance(((0, 1, 1), (1, 0, 1), (1, 1, 0)), (1,), (2, 3), k=1)
    assert misreport_set(inst) == (1, 2, 3)


def test_truthful_mechanisms_yield_no_witness():
    for mech in (LEFTMOST, MEDIAN, RD, dictator_spec(1), dictator_spec(2)):
        assert find_unilateral_deviation(LB_BASE, mech) is None


def test_strawman_witness_is_exact_and_replayable():
    witness = find_unilateral_deviation(LB_BASE, MEAN)
    assert witness.coalition == (2,)
    assert witness.misreports == (F(23, 20),)
    assert witness.outcome_before == Deterministic((1,))
    assert witness.outcome_after == Deterministic((2,))
    assert witness.costs_before == (F(11, 10),)
    assert witness.costs_after == (F(9, 10),)
    # replay the lie by hand
    shifted = LB_BASE.replace_agents((F(9, 10), F(23, 20)))
    assert MEAN.apply(shifted) == witness.outcome_after


def test_agent_already_served_is_skipped():
    inst = line_instance((1,), (1, 5), k=1)
    assert find_unilateral_deviation(inst, MEAN) is None


def test_pair_trap_needs_a_coalition():
    assert find_unilateral_deviation(PAIR_TRAP, MEAN) is None
    witness = find_group_deviation(PAIR_TRAP, MEAN, max_coalition=2)
    assert witness.coalition == (1, 2)
    assert witness.misreports == (F(22, 5), F(8))
    assert witness.outcome_before == Deterministic((1,))
    assert witness.outcome_after == Deterministic((2,))
    assert witness.costs_before == (F(13, 8), F(15, 8))
    assert witness.costs_after == (F(3, 8), F(1, 8))
    # both lies really do pay off
    shifted = PAIR_TRAP.replace_agents((F(22, 5), F(8), F(-4), F(-4)))
    assert MEAN.apply(shifted) == Deterministic((2,))


def test_lottery_witness_is_exact_and_replayable():
    """Half the mass follows the mean, so the pair trap's lie halves
    both members' gains: each ends at cost 1."""
    witness = find_group_deviation(PAIR_TRAP, MEAN_OR_LEFTMOST, max_coalition=2)
    assert witness.coalition == (1, 2)
    assert witness.misreports == (F(22, 5), F(8))
    assert witness.costs_before == (F(13, 8), F(15, 8))
    assert witness.costs_after == (F(1), F(1))
    shifted = PAIR_TRAP.replace_agents((F(22, 5), F(8), F(-4), F(-4)))
    assert witness.outcome_after == MEAN_OR_LEFTMOST.apply(shifted) == Randomized(
        ((Deterministic((1,)), F(1, 2)), (Deterministic((2,)), F(1, 2)))
    )


def test_group_clean_for_group_strategyproof_rules():
    family = RandomFamily("line-uniform", n=4, m=3, seed=77)
    for index in range(10):
        inst = random_instance(family, index)
        assert find_group_deviation(inst, LEFTMOST, max_coalition=3, grid_points=3) is None
        assert (
            find_group_deviation(inst, dictator_spec(1), max_coalition=3, grid_points=3)
            is None
        )


def test_group_search_guard_and_bounds():
    with pytest.raises(GuardExceeded):
        find_group_deviation(LB_BASE, MEAN, max_coalition=2, guard=100)
    with pytest.raises(ValueError):
        find_group_deviation(LB_BASE, MEAN, max_coalition=3)
    with pytest.raises(ValueError):
        find_group_deviation(LB_BASE, MEAN, max_coalition=0)
    # the set refuses a coalition bound out of range before its grid guard
    for bound in (0, 3):
        with pytest.raises(ValueError, match=f"^max_coalition must be in 1..2, got {bound}$"):
            misreport_set(LB_BASE, grid_points=10**9, max_coalition=bound)


def _search(max_coalition):
    return find_group_deviation(LB_BASE, MEAN, max_coalition=max_coalition)


def _sweep(count):
    return list(iter_sweep(RandomFamily("line-uniform", 2, 2), LEFTMOST, "mc", count))


@pytest.mark.parametrize(
    "call, good, bad",
    [
        pytest.param(lambda v: misreport_set(LB_BASE, v), 3, True, id="grid-bool"),
        pytest.param(lambda v: misreport_set(LB_BASE, v), 3, 2.5, id="grid-float"),
        pytest.param(lambda v: joint_misreport_count(2, 3, v), 1, True, id="count-bool"),
        pytest.param(lambda v: joint_misreport_count(2, 3, v), 1, 1.0, id="count-float"),
        pytest.param(_search, 1, True, id="search-bool"),
        pytest.param(_search, 1, 1.0, id="search-float"),
        pytest.param(_sweep, 1, True, id="sweep-bool"),
        pytest.param(_sweep, 2, 2.0, id="sweep-float"),
    ],
)
def test_count_parameters_refuse_bool_and_float(call, good, bad):
    call(good)
    with pytest.raises(ValueError):
        call(bad)


# ---------------------------------------------------------------------------
# differential: the one search loop against the two loops it replaced, kept
# here as plain references on the validated instance path


def reference_unilateral(instance, mechanism, misreports):
    truthful = mechanism.apply(instance)
    agents = instance.agents
    for i in range(1, instance.n + 1):
        base_cost = outcome_agent_cost(instance, truthful, i)
        if base_cost == 0:
            continue
        true_location = agents[i - 1]
        prefix, suffix = agents[: i - 1], agents[i:]
        for report in misreports:
            if report == true_location:
                continue
            shifted = mechanism.apply(instance.replace_agents(prefix + (report,) + suffix))
            if shifted == truthful:
                continue
            new_cost = outcome_agent_cost(instance, shifted, i)
            if new_cost < base_cost:
                return DeviationWitness(
                    (i,), (report,), truthful, shifted, (base_cost,), (new_cost,)
                )
    return None


def reference_group(instance, mechanism, misreports, max_coalition):
    options = [tuple(r for r in misreports if r != x) for x in instance.agents]
    truthful = mechanism.apply(instance)
    base_costs = [outcome_agent_cost(instance, truthful, i) for i in range(1, instance.n + 1)]
    for size in range(1, max_coalition + 1):
        for coalition in itertools.combinations(range(1, instance.n + 1), size):
            members_base = tuple(base_costs[i - 1] for i in coalition)
            if any(cost == 0 for cost in members_base):
                continue
            for joint in itertools.product(*(options[i - 1] for i in coalition)):
                profile = list(instance.agents)
                for i, report in zip(coalition, joint):
                    profile[i - 1] = report
                shifted = mechanism.apply(instance.replace_agents(profile))
                if shifted == truthful:
                    continue
                new_costs = tuple(outcome_agent_cost(instance, shifted, i) for i in coalition)
                if all(new < old for new, old in zip(new_costs, members_base)):
                    return DeviationWitness(
                        coalition, joint, truthful, shifted, members_base, new_costs
                    )
    return None


def nearest(instance, point):
    """Candidate nearest a point, ties to the smaller coordinate, then index."""
    return min(
        range(1, instance.m + 1),
        key=lambda j: (abs(instance.candidates[j - 1] - point), instance.candidates[j - 1], j),
    )


class MeanAndMedian:
    """A manipulable two-facility rule on Fractions: the candidate nearest
    the mean agent, then the one nearest the left median.  Its selection
    comes out in either order, (3, 1) as well as (1, 3)."""

    def apply(self, instance):
        agents = sorted(instance.agents)
        mean = sum(agents, F(0)) / instance.n
        return Deterministic(
            (nearest(instance, mean), nearest(instance, agents[(instance.n + 1) // 2 - 1]))
        )


MEAN_AND_MEDIAN = MeanAndMedian()


class MeanOrLeftmost:
    """A manipulable lottery built with the public constructor: half on
    the mean rule's candidate, half on the leftmost rule's.  A lie that
    moves the mean moves half the mass."""

    def apply(self, instance):
        return Randomized(((MEAN.apply(instance), F(1, 2)), (LEFTMOST.apply(instance), F(1, 2))))


MEAN_OR_LEFTMOST = MeanOrLeftmost()


class MeanAndMedianOrExtremes:
    """A manipulable two-facility lottery built with the public
    constructor: half on the mean and median rule's pair, half on
    two-extremes' pair, each kept in the order its rule reports it, so
    the selections come unsorted, repeated and, as (3, 1) beside (1, 3),
    reversed."""

    def apply(self, instance):
        return Randomized(
            ((MEAN_AND_MEDIAN.apply(instance), F(1, 2)), (TWO_EXTREMES.apply(instance), F(1, 2)))
        )


MEAN_AND_MEDIAN_OR_EXTREMES = MeanAndMedianOrExtremes()


class Lockstep:
    """A rule that, before delegating, checks that the instance it is
    handed carries ints in step with its Fractions: the agents and the
    candidates over the positive scale it carries beside them.  A profile
    out of step with its ints would make the rule decide for other
    reports than the witness names, and one out of step with its scale
    would be costed over another scale than its ints'."""

    def __init__(self, rule):
        self.rule = rule
        self.calls = 0

    def apply(self, instance):
        self.calls += 1
        values = instance.agents + instance.candidates
        agent_ints, candidate_ints, scale = instance.scaled
        ints = agent_ints + candidate_ints
        assert len(ints) == len(values) and all(type(v) is int for v in ints)
        assert type(scale) is int and scale > 0
        assert all(F(v, scale) == x for x, v in zip(values, ints))
        return self.rule.apply(instance)


def end_weights(n):
    """wpv weights with zero entries: half on each extreme agent."""
    return wpv_spec([F(1, 2)] + [F(0)] * (n - 2) + [F(1, 2)])


# (rule, family kind, k) on A5's n=4 m=3 families
FAMILY_CASES = (
    (LEFTMOST, "line-uniform", 1),
    (MEDIAN, "line-uniform", 1),
    (TWO_EXTREMES, "line-uniform", 2),
    (dictator_spec(1), "line-uniform", 1),
    (RD, "line-uniform", 1),
    (RD, "metric-closure", 1),
    (wpv_spec([F(1, 4)] * 4), "line-uniform", 1),
    (end_weights(4), "line-uniform", 1),
    (MEAN_AND_MEDIAN, "line-uniform", 2),
    (MEAN_OR_LEFTMOST, "line-uniform", 1),
    (MEAN_AND_MEDIAN_OR_EXTREMES, "line-uniform", 2),
    (Lockstep(MEAN), "line-uniform", 1),
    (Lockstep(RD), "line-uniform", 1),
)
HALVES = st.integers(-8, 8).map(lambda v: F(v, 2))


@st.composite
def tie_profiles(draw):
    """A line profile full of ties, and a rule for it: co-located
    candidates, and agents on candidates or on candidate midpoints."""
    candidates = draw(st.lists(HALVES, min_size=1, max_size=3))
    candidates += draw(st.lists(st.sampled_from(candidates), max_size=2))
    candidates = draw(st.permutations(candidates))
    midpoints = [(a + b) / 2 for a in candidates for b in candidates]
    agents = draw(st.lists(st.sampled_from(midpoints), min_size=3, max_size=4))
    rules = [LEFTMOST, MEDIAN, MEAN, dictator_spec(1), RD, end_weights(len(agents))]
    rules.append(MEAN_OR_LEFTMOST)
    pairs = [TWO_EXTREMES, MEAN_AND_MEDIAN, MEAN_AND_MEDIAN_OR_EXTREMES]
    mechanism = draw(st.sampled_from(rules + pairs))
    return mechanism, line_instance(agents, candidates, k=1 if mechanism in rules else 2)


@st.composite
def search_cases(draw):
    """A rule and an instance it is defined on.  The strawman mean runs on
    coarse line profiles, n=3-5, where it has witnesses at size 1 and,
    when no single lie pays, at size 2; so do the two-facility mean
    and median rule and both lotteries."""
    branch = draw(st.integers(0, 2))
    if branch == 0:
        agents = draw(st.lists(HALVES, min_size=3, max_size=5))
        candidates = draw(st.lists(HALVES, min_size=2, max_size=3))
        rules = (
            (MEAN, 1),
            (MEAN_AND_MEDIAN, 2),
            (MEAN_OR_LEFTMOST, 1),
            (MEAN_AND_MEDIAN_OR_EXTREMES, 2),
        )
        mechanism, k = draw(st.sampled_from(rules))
        return mechanism, line_instance(agents, candidates, k=k)
    if branch == 1:
        return draw(tie_profiles())
    mechanism, kind, k = draw(st.sampled_from(FAMILY_CASES))
    family = RandomFamily(kind, n=4, m=3, k=k, seed=draw(st.integers(0, 10**6)))
    return mechanism, random_instance(family, draw(st.integers(0, 1000)))


@given(case=search_cases(), max_coalition=st.integers(1, 3), grid_points=st.integers(0, 5))
@example(case=(MEAN, PAIR_TRAP), max_coalition=2, grid_points=5)
@example(case=(MEAN_OR_LEFTMOST, PAIR_TRAP), max_coalition=2, grid_points=5)
@settings(max_examples=200, deadline=None)
def test_one_search_loop_matches_both_reference_loops(case, max_coalition, grid_points):
    mechanism, instance = case
    misreports = misreport_set(instance, grid_points)
    assert find_group_deviation(
        instance, mechanism, grid_points=grid_points
    ) == reference_unilateral(instance, mechanism, misreports)
    assert find_group_deviation(
        instance, mechanism, max_coalition, grid_points
    ) == reference_group(instance, mechanism, misreports, max_coalition)


def test_pair_lottery_search_matches_the_reference_with_reversed_pairs():
    inst = line_instance((F(7, 2), F(-1, 2), F(3, 2), F(-1, 2)), (F(-1, 2), 3, F(1, 2)), k=2)
    rule = MEAN_AND_MEDIAN_OR_EXTREMES
    assert rule.apply(inst).scaled == (((1, 2), (3, 1)), (1, 1), 2)
    witness = find_group_deviation(inst, rule, max_coalition=2, grid_points=3)
    assert witness == reference_group(inst, rule, misreport_set(inst, 3), 2)
    assert witness.coalition == (1,) and witness.misreports == (F(15, 2),)
    # the shifted lottery holds one pair in both orders
    assert witness.outcome_after.scaled == (((1, 2), (2, 1)), (1, 1), 2)
    assert witness.costs_before == (F(7, 4),) and witness.costs_after == (F(1, 2),)


class CountingRule:
    """A rule that counts its apply calls."""

    def __init__(self, rule):
        self.rule = rule
        self.calls = 0

    def apply(self, instance):
        self.calls += 1
        return self.rule.apply(instance)


def test_search_skips_coalitions_no_selection_can_help_but_not_lotteries():
    # one candidate: no selection lowers anyone's cost
    inst = line_instance((0, 1, 3), (2,), k=1)
    misreports = misreport_set(inst, grid_points=3)
    for rule in (LEFTMOST, MEAN, dictator_spec(2)):
        counting = CountingRule(rule)
        assert find_group_deviation(inst, counting, max_coalition=3, grid_points=3) is None
        assert counting.calls == 1
    lottery = CountingRule(RD)
    assert find_group_deviation(inst, lottery, max_coalition=3, grid_points=3) is None
    assert lottery.calls == 1 + joint_misreport_count(inst.n, len(misreports) - 1, 3)


@st.composite
def count_cases(draw):
    """A small line or metric instance, and a coalition bound for it."""
    kind = draw(st.sampled_from(("line-uniform", "metric-closure")))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    family = RandomFamily(kind, n=n, m=m, seed=draw(st.integers(0, 10**6)))
    instance = random_instance(family, draw(st.integers(0, 1000)))
    return instance, draw(st.integers(1, min(3, instance.n)))


@given(case=count_cases(), grid_points=st.integers(0, 5))
@settings(max_examples=100, deadline=None)
def test_count_is_the_work_of_an_uncut_search(case, grid_points):
    """rd is cut only at a member whose truthful cost is 0, so with none
    such a clean search applies the rule once truthfully and once per
    joint report the closed form counts."""
    instance, max_coalition = case
    truthful = RD.apply(instance)
    assume(all(outcome_agent_cost(instance, truthful, i) > 0 for i in range(1, instance.n + 1)))
    misreports = misreport_set(instance, grid_points, max_coalition=max_coalition)
    assert all(x in misreports for x in instance.agents)
    counting = CountingRule(RD)
    witness = find_group_deviation(instance, counting, max_coalition, grid_points)
    joint = joint_misreport_count(instance.n, len(misreports) - 1, max_coalition)
    if witness is None:
        assert counting.calls == 1 + joint
    else:
        assert counting.calls <= 1 + joint


def test_every_profile_arrives_with_its_own_ints():
    family = random_instance(RandomFamily("line-uniform", n=4, m=3, k=1, seed=7), 3)
    for rule, inst, calls in (
        # rd is never cut, so the rule sees every joint report
        (RD, family, 3439),
        (LEFTMOST, family, 100),
        # the pair trap's witness comes at size 2
        (MEAN, PAIR_TRAP, 64),
        (MEAN_AND_MEDIAN, line_instance((F(-1, 3), F(1, 7), 2, F(5, 2)), (0, F(1, 2), 3), k=2), 10),
    ):
        misreports = misreport_set(inst, grid_points=3)
        lockstep = Lockstep(rule)
        witness = find_group_deviation(inst, lockstep, max_coalition=3, grid_points=3)
        assert witness == reference_group(inst, rule, misreports, 3)
        assert lockstep.calls == calls


def test_anonymity_of_anonymous_rules():
    for mech in (LEFTMOST, MEDIAN, RD, MEAN):
        assert check_anonymity(LB_BASE, mech) is None


def test_anonymity_violation_of_dictatorship():
    inst = line_instance((0, 5), (0, 5), k=1)
    assert check_anonymity(inst, dictator_spec(1)) == (2, 1)
    assert check_anonymity(inst, LEFTMOST) is None


def test_anonymity_sampled_for_larger_profiles():
    inst = line_instance((0, 1, 2, 3, 4, 5, 6), (0, 6), k=1)
    assert inst.n == 7
    assert check_anonymity(inst, LEFTMOST) is None
    assert check_anonymity(inst, dictator_spec(1)) == (5, 1, 2, 3, 4, 6, 7)


def test_anonymity_refuses_more_permutations_than_the_guard():
    """11! exceeds the default guard, so the rule is never called."""
    calls = []

    class Counting:
        def apply(self, instance):
            calls.append(instance)
            return LEFTMOST.apply(instance)

    inst = line_instance(range(11), (0, 10), k=1)
    with pytest.raises(GuardExceeded, match="^39916800 agent permutations exceed the guard of 10000000$"):
        check_anonymity(inst, Counting())
    assert calls == []


def test_single_agent_trivially_anonymous():
    inst = line_instance((1,), (0, 2), k=1)
    assert check_anonymity(inst, LEFTMOST) is None


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_rows_are_deterministic():
    family = RandomFamily("line-uniform", n=3, m=3, seed=5)
    first = list(iter_sweep(family, LEFTMOST, "mc", 20))
    second = list(iter_sweep(family, LEFTMOST, "mc", 20))
    assert first == second


@pytest.mark.parametrize(
    "family, rule, objective, count, bound",
    [
        (RandomFamily("line-uniform", n=3, m=3, seed=5), LEFTMOST, "mc", 50, 3),
        (RandomFamily("metric-closure", n=3, m=2, seed=6), dictator_spec(1), "mc", 25, 3),
        (RandomFamily("line-uniform", n=4, m=3, k=2, seed=8), TWO_EXTREMES, "sc", 50, 2 * 4 - 3),
    ],
    ids=["line-leftmost-mc", "metric-dictator-mc", "line-two-extremes-sc"],
)
def test_sweep_rows_are_seeded_exact_and_within_bounds(family, rule, objective, count, bound):
    rows = list(iter_sweep(family, rule, objective, count))
    assert [row.index for row in rows] == list(range(count))
    for row in rows:
        assert row.instance == random_instance(family, row.index)
        assert row.ratio == row.mechanism_cost / row.optimal_cost
        assert 1 <= row.ratio <= bound  # proven bound for this rule


def test_sweep_empty():
    family = RandomFamily("line-uniform", n=3, m=3, seed=5)
    assert list(iter_sweep(family, LEFTMOST, "mc", 0)) == []


# ---------------------------------------------------------------------------
# lower-bound replays


def test_replay_single_deterministic_leftmost():
    report = replay_lower_bound("single-deterministic", LEFTMOST, eps=F(1, 10))
    assert report.bound == 3
    assert report.outcome_base == Deterministic((1,))
    assert report.outcome_shifted == Deterministic((1,))
    assert report.ratio_base == 1
    assert report.ratio_shifted == F(30, 11)
    assert report.beats_bound
    assert report.margin == 0
    assert not report.sp_violation
    assert report.far is None and report.far_missing_base is None


def test_replay_single_deterministic_catches_the_strawman():
    report = replay_lower_bound("single-deterministic", MEAN, eps=F(1, 10))
    assert report.outcome_base == Deterministic((1,))
    assert report.outcome_shifted == Deterministic((2,))
    assert report.ratio_shifted == 1
    assert report.cost_truthful == F(11, 10)
    assert report.cost_misreport == F(9, 10)
    assert report.margin == F(1, 5)
    assert report.sp_violation


def test_replay_single_randomized_random_dictatorship():
    report = replay_lower_bound("single-randomized", RD, eps=F(1, 10))
    assert report.bound == 2
    half = F(1, 2)
    assert report.outcome_shifted == Randomized(
        ((Deterministic((1,)), half), (Deterministic((2,)), half))
    )
    assert report.ratio_shifted == F(41, 22)
    assert report.beats_bound
    # the lie is exactly cost neutral for agent 2, so no violation
    assert report.cost_truthful == 1
    assert report.cost_misreport == 1
    assert report.margin == 0
    assert not report.sp_violation


def test_replay_two_facility_pair():
    report = replay_lower_bound("two-deterministic", TWO_EXTREMES, eps=F(1, 10))
    assert report.far == 1000
    assert report.outcome_base == Deterministic((1, 3))
    assert report.ratio_base == 1
    assert report.ratio_shifted == F(30, 11)
    assert report.far_missing_base == 0
    assert report.far_missing_shifted == 0
    assert not report.sp_violation
    randomized = replay_lower_bound("two-randomized", TWO_EXTREMES, eps=F(1, 10))
    assert randomized.bound == 2
    assert not randomized.beats_bound


def test_far_missing_is_the_mass_skipping_the_far_candidate():
    lottery = Randomized((((1, 3), F(1, 3)), ((1, 2), F(1, 2)), ((2, 2), F(1, 6))))
    for outcome in (Deterministic((1, 3)), Deterministic((2, 1)), lottery):
        support = outcome.support if isinstance(outcome, Randomized) else ((outcome, F(1)),)
        plain = sum((p for det, p in support if 3 not in det.selection), F(0))
        assert _far_missing(outcome, 3) == plain
    assert _far_missing(lottery, 3) == F(2, 3)


class CountingRule:
    """A rule that counts its apply calls."""

    def __init__(self, rule):
        self.rule, self.calls = rule, 0

    def apply(self, instance):
        self.calls += 1
        return self.rule.apply(instance)


def test_replay_applies_the_rule_once_per_profile():
    for construction, rule in [("single-randomized", RD), ("two-deterministic", TWO_EXTREMES)]:
        counting = CountingRule(rule)
        report = replay_lower_bound(construction, counting, eps=F(1, 10))
        assert counting.calls == 2
        assert report == replay_lower_bound(construction, rule, eps=F(1, 10))


def test_replay_rejects_bad_arguments():
    with pytest.raises(ValueError):
        replay_lower_bound("three-sided", LEFTMOST, eps=F(1, 10))
    with pytest.raises(MechanismMismatch):
        replay_lower_bound("two-deterministic", RD, eps=F(1, 10))
    with pytest.raises(ValueError):
        replay_lower_bound("single-deterministic", LEFTMOST, eps=F(3, 2))


def test_infinite_ratio_never_appears_for_these_rules():
    # all agents on one candidate: the optimum is 0 and so is the cost
    inst = line_instance((1, 1), (1, 3), k=1)
    assert ratio(inst, LEFTMOST, "mc") == 1
    assert ratio(inst, RD, "sc") == 1
    assert INFINITE_RATIO > 1  # marker stays comparable either way
