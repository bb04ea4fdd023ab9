import itertools
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flgames import verify
from flgames.cli import load_instance
from flgames.core import (
    Deterministic,
    Line,
    Randomized,
    line_instance,
    metric_instance,
    outcome_agent_cost,
    scale_to_integers,
)
from flgames.instances import RandomFamily, random_instance
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
from flgames.solver import INFINITE_RATIO, GuardExceeded, evaluate
from flgames.verify import (
    _cell_firsts,
    _far_missing,
    check_anonymity,
    find_group_deviation,
    find_unilateral_deviation,
    iter_sweep,
    joint_misreport_count,
    misreport_set,
    replay_lower_bound,
)

from reference import (
    ref_closest_line,
    ref_outcome_agent_cost,
    reference_group,
    reference_misreport_points,
    reference_unilateral,
)
from strategies import (
    FINE,
    HALVES,
    LB_BASE,
    end_weights,
    line_instances,
    metric_instances,
    tie_instances,
)

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


@st.composite
def grid_instances(draw):
    """Line instances with fine and negative coordinates, and some with
    every location coincident, where the span's floor of 1 applies."""
    if draw(st.booleans()):
        spot = draw(FINE)
        return line_instance([spot] * draw(st.integers(1, 3)), [spot] * draw(st.integers(1, 2)))
    locations = st.one_of(FINE, HALVES)
    return draw(line_instances(locations, ks=(1,), candidate_count=(1, 3), agent_count=(1, 4)))


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


@pytest.mark.parametrize("rule, max_coalition", [(LEFTMOST, 2), (RD, 1)])
def test_a_clean_line_search_builds_no_fraction(monkeypatch, rule, max_coalition):
    """The search tries every profile in the instance's int form, so a
    search that finds no witness builds no Fraction at all."""
    instance = random_instance(RandomFamily("line-uniform", n=5, m=4, seed=201), 0)
    made, real = [], F.__new__
    monkeypatch.setattr(
        F, "__new__", lambda cls, *args, **kw: made.append(args) or real(cls, *args, **kw)
    )
    assert find_group_deviation(instance, rule, max_coalition=max_coalition) is None
    assert made == []
    F(1, 3)  # the count is live
    assert made == [(1, 3)]


def test_group_search_guard_and_bounds():
    with pytest.raises(GuardExceeded):
        find_group_deviation(LB_BASE, MEAN, max_coalition=2, guard=100)
    with pytest.raises(ValueError):
        find_group_deviation(LB_BASE, MEAN, max_coalition=3)
    with pytest.raises(ValueError):
        find_group_deviation(LB_BASE, MEAN, max_coalition=0)
    # the set refuses a coalition bound out of range before its guard
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
# differential: the one search loop against the two reference loops


class MeanAndMedian:
    """A manipulable two-facility rule on Fractions: the candidate nearest
    the mean agent, then the one nearest the left median.  Its selection
    comes out in either order, (3, 1) as well as (1, 3)."""

    def apply(self, instance):
        agents = sorted(instance.agents)
        mean = sum(agents, F(0)) / instance.n
        median = agents[(instance.n + 1) // 2 - 1]
        return Deterministic(tuple(ref_closest_line(instance, x, "low") for x in (mean, median)))


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


class CountingRule:
    """A rule that counts its apply calls."""

    def __init__(self, rule):
        self.rule = rule
        self.calls = 0

    def apply(self, instance):
        self.calls += 1
        return self.rule.apply(instance)


class Lockstep(CountingRule):
    """A counting rule that, before delegating, checks that the instance
    it is handed carries ints in step with its Fractions: the agents and
    the candidates over the positive scale it carries beside them, on a
    finite metric the point indices and the space's scale.  A profile
    out of step with its ints would make the rule decide for other
    reports than the witness names, and one out of step with its scale
    would be costed over another scale than its ints'."""

    def apply(self, instance):
        values = instance.agents + instance.candidates
        agent_ints, candidate_ints, scale = instance.scaled
        ints = agent_ints + candidate_ints
        assert len(ints) == len(values) and all(type(v) is int for v in ints)
        assert type(scale) is int and scale > 0
        if isinstance(instance.space, Line):
            assert all(F(v, scale) == x for x, v in zip(values, ints))
        else:
            assert instance.scaled == (instance.agents, instance.candidates, instance.space.scale)
        return super().apply(instance)


class DeclaringLockstep(Lockstep):
    """Lockstep that forwards the wrapped rule's cells, on either space,
    if it declares any, so the search tries one report per cell or
    class, as it does for the rule itself."""

    def cells(self, agents, candidates, coalition):
        declared = getattr(self.rule, "cells", None)
        return declared and declared(agents, candidates, coalition)


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


@st.composite
def tie_profiles(draw):
    """A line profile full of ties, and a rule for it: co-located
    candidates, and agents on candidates or on candidate midpoints."""
    ties = tie_instances(
        HALVES, ks=(1,), base_count=(1, 3), agent_count=(3, 4), shifted=False, on_candidates=False, mean=False
    )
    instance = draw(ties)
    rules = [LEFTMOST, MEDIAN, MEAN, dictator_spec(1), RD, end_weights(instance.n)]
    rules.append(MEAN_OR_LEFTMOST)
    pairs = [TWO_EXTREMES, MEAN_AND_MEDIAN, MEAN_AND_MEDIAN_OR_EXTREMES]
    mechanism = draw(st.sampled_from(rules + pairs))
    if mechanism in rules:
        return mechanism, instance
    return mechanism, line_instance(instance.agents, instance.candidates, k=2)


@st.composite
def search_cases(draw):
    """A rule and an instance it is defined on.  The strawman mean runs on
    coarse line profiles, n=3-5, where it has witnesses at size 1 and,
    when no single lie pays, at size 2; so do the two-facility mean
    and median rule and both lotteries."""
    branch = draw(st.integers(0, 2))
    if branch == 0:
        rules = (
            (MEAN, 1),
            (MEAN_AND_MEDIAN, 2),
            (MEAN_OR_LEFTMOST, 1),
            (MEAN_AND_MEDIAN_OR_EXTREMES, 2),
        )
        agents = draw(st.lists(HALVES, min_size=3, max_size=5))
        candidates = draw(st.lists(HALVES, min_size=2, max_size=3))
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


def test_search_skips_coalitions_no_selection_can_help_but_not_lotteries():
    # one candidate: no selection lowers anyone's cost
    inst = line_instance((0, 1, 3), (2,), k=1)
    misreports = misreport_set(inst, grid_points=3)
    for rule in (LEFTMOST, MEAN, dictator_spec(2)):
        counting = CountingRule(rule)
        assert find_group_deviation(inst, counting, max_coalition=3, grid_points=3) is None
        assert counting.calls == 1
    # a rule that declares no cells is handed every joint report
    lottery = CountingRule(RD)
    assert find_group_deviation(inst, lottery, max_coalition=3, grid_points=3) is None
    assert lottery.calls == 1 + joint_misreport_count(inst.n, len(misreports) - 1, 3)
    # rd's line cells are cut at candidate midpoints only, so with one
    # candidate each member's only cell is its own, which it skips: no
    # coalition makes a call
    declaring = DeclaringLockstep(RD)
    assert find_group_deviation(inst, declaring, max_coalition=3, grid_points=3) is None
    assert declaring.calls == 1


def share_a_cell(breakpoints, a, b):
    """Whether no doubled breakpoint tells the ints a and b apart: each
    lies on the same side of every breakpoint, or on it."""
    return all((2 * a > p) - (2 * a < p) == (2 * b > p) - (2 * b < p) for p in breakpoints)


class OwnCellWatch(DeclaringLockstep):
    """A line rule that forwards the wrapped rule's cells, if it declares
    any, and checks that no member of the coalition they were last asked
    for is handed its own location, or, where cells were declared, a
    report in the cell of its own location."""

    coalition = None

    def cells(self, agents, candidates, coalition):
        self.agents, self.coalition = agents, coalition
        self.cuts = super().cells(agents, candidates, coalition)
        return self.cuts

    def apply(self, instance):
        if self.coalition is not None:
            reports, candidates, _ = instance.scaled
            for d, i in enumerate(self.coalition):
                x, report = self.agents[i - 1], reports[i - 1]
                assert report != x
                if self.cuts is not None:
                    cut = self.cuts[d]
                    cut = cut(instance.space, candidates) if callable(cut) else cut
                    assert not share_a_cell(cut, report, x), (i, report, x, cut)
        return super().apply(instance)


@given(case=tie_profiles(), max_coalition=st.integers(1, 3), grid_points=st.integers(0, 5))
@settings(max_examples=150, deadline=None)
def test_no_member_is_handed_a_report_in_its_own_cell(case, max_coalition, grid_points):
    """On profiles with agents on candidates and on candidate midpoints,
    where an agent's own cell can be its location alone, every report a
    member is handed lies outside that cell."""
    mechanism, instance = case
    max_coalition = min(max_coalition, instance.n)
    find_group_deviation(instance, OwnCellWatch(mechanism), max_coalition, grid_points)


class CutWatch(DeclaringLockstep):
    """DeclaringLockstep that records, in order, each coalition the search
    asks it for cells: every coalition that the search's cut lets by."""

    def __init__(self, rule):
        super().__init__(rule)
        self.asked = []

    def cells(self, agents, candidates, coalition):
        self.asked.append(coalition)
        return super().cells(agents, candidates, coalition)


DECLARING_DETERMINISTIC = (LEFTMOST, MEDIAN, MEAN, dictator_spec(1), TWO_EXTREMES)


@st.composite
def cut_cases(draw):
    """A deterministic rule that declares cells and a line profile for it:
    a tie profile, or one with co-located and eps-apart candidates, agents
    on candidates and on midpoints, any dictator, and k = 2 for
    two-extremes, whose pair comes index-descending when the candidates
    are listed right to left."""
    if draw(st.booleans()):
        return draw(tie_profiles().filter(lambda case: case[0] in DECLARING_DETERMINISTIC))
    instance = draw(tie_instances(HALVES, base_count=(1, 3), agent_count=(1, 4)))
    if instance.k == 2:
        return TWO_EXTREMES, instance
    rules = [LEFTMOST, MEDIAN, MEAN, dictator_spec(draw(st.integers(1, instance.n)))]
    return draw(st.sampled_from(rules)), instance


@given(case=cut_cases(), max_coalition=st.integers(1, 3), grid_points=st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_the_cut_lets_by_exactly_the_coalitions_some_multiset_helps(
    case, max_coalition, grid_points
):
    """A deterministic rule answers with some k-multiset of candidates, so
    the search asks for the cells of exactly the coalitions, in scan
    order, for which one lowers every member's cost, up to the witness's."""
    mechanism, instance = case
    max_coalition = min(max_coalition, instance.n)
    watch = CutWatch(mechanism)
    witness = find_group_deviation(instance, watch, max_coalition, grid_points)
    truthful = mechanism.apply(instance)
    base = [ref_outcome_agent_cost(instance, truthful, i) for i in range(1, instance.n + 1)]
    multisets = itertools.combinations_with_replacement(range(1, instance.m + 1), instance.k)
    costs = [
        [ref_outcome_agent_cost(instance, Deterministic(s), i) for i in range(1, instance.n + 1)]
        for s in multisets
    ]
    expected = [
        coalition
        for size in range(1, max_coalition + 1)
        for coalition in itertools.combinations(range(1, instance.n + 1), size)
        if any(all(row[i - 1] < base[i - 1] for i in coalition) for row in costs)
    ]
    if witness is not None:
        expected = expected[: expected.index(witness.coalition) + 1]
    assert watch.asked == expected


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
    """A rule that declares no cells, such as CountingRule, is
    handed every joint report, and a lottery's coalitions are skipped
    only at a member whose truthful cost is 0, so with none such a clean
    search applies the rule once truthfully and once per joint report
    the closed form counts."""
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


METRIC_FIXTURE = load_instance(str(Path(__file__).parent / "data" / "metric_n3_m2_k1.json"))


@st.composite
def guard_cases(draw):
    """A tie-heavy line instance on halves, with agents on candidates, on
    candidate midpoints and on grid points, or the metric fixture; a grid,
    a coalition bound, the exact joint count, and a guard around it."""
    grid_points = draw(st.integers(0, 6))
    if draw(st.integers(0, 3)) == 0:
        instance = METRIC_FIXTURE
    else:
        ties = tie_instances(
            coord=HALVES, ks=(1,), base_count=(1, 3), agent_count=(0, 2), shifted=False, copies=0,
            mean=False, free_count=(1, 2), grid_points=grid_points,
        )
        instance = draw(ties)
    max_coalition = draw(st.integers(1, min(3, instance.n)))
    size = len(misreport_set(instance, grid_points, 10**9, max_coalition))
    count = joint_misreport_count(instance.n, size - 1, max_coalition)
    guard = draw(st.integers(max(count - 2, 0), count + 2))
    return instance, grid_points, max_coalition, count, guard


@given(case=guard_cases())
@settings(max_examples=200, deadline=None)
def test_set_and_search_refuse_exactly_past_the_guard_before_building(case):
    """misreport_set and find_group_deviation count the set before building
    it: each raises GuardExceeded exactly when
    joint_misreport_count(n, len(set) - 1, max_coalition) exceeds the
    guard, and then has built no grid point."""
    instance, grid_points, max_coalition, count, guard = case
    built, real = [], verify._line_grid
    calls = (
        lambda: misreport_set(instance, grid_points, guard, max_coalition),
        lambda: find_group_deviation(instance, RD, max_coalition, grid_points, guard),
    )
    with mock.patch.object(verify, "_line_grid", lambda *args: built.append(1) or real(*args)):
        for call in calls:
            built.clear()
            if count <= guard:
                call()
                continue
            message = f"^{count} joint misreports exceed the guard of {guard}$"
            with pytest.raises(GuardExceeded, match=message):
                call()
            assert built == []


def test_every_profile_arrives_with_its_own_ints():
    family = random_instance(RandomFamily("line-uniform", n=4, m=3, k=1, seed=7), 3)
    pair = line_instance((F(-1, 3), F(1, 7), 2, F(5, 2)), (0, F(1, 2), 3), k=2)
    for wrapper, rule, inst, calls in (
        # Lockstep declares no cells, so the lottery rd, whose
        # coalitions are never cut here, sees every joint report
        (Lockstep, RD, family, 3439),
        (Lockstep, LEFTMOST, family, 100),
        # the pair trap's witness comes at size 2
        (Lockstep, MEAN, PAIR_TRAP, 64),
        (Lockstep, MEAN_AND_MEDIAN, pair, 10),
        # on a finite metric every profile carries point indices and the
        # space's scale; rd sees every joint report, while dictator:1
        # already opens every agent's nearest candidate, so the cut leaves
        # no coalition and only the truthful profile arrives
        (Lockstep, RD, METRIC_FIXTURE, 125),
        (Lockstep, dictator_spec(1), METRIC_FIXTURE, 1),
        # the same searches, one report per member and cell but its own:
        # the first report of each cell arrives with its own ints and the
        # scale
        (DeclaringLockstep, RD, family, 65),
        (DeclaringLockstep, LEFTMOST, family, 9),
        (DeclaringLockstep, MEAN, PAIR_TRAP, 50),
        (DeclaringLockstep, MEAN_AND_MEDIAN, pair, 10),
        # on the metric, one report per nearest-candidate class, none in
        # the member's own: each of rd's 7 coalitions tries one profile
        (DeclaringLockstep, RD, METRIC_FIXTURE, 8),
    ):
        misreports = misreport_set(inst, grid_points=3)
        lockstep = wrapper(rule)
        witness = find_group_deviation(inst, lockstep, max_coalition=3, grid_points=3)
        assert witness == reference_group(inst, rule, misreports, 3)
        assert lockstep.calls == calls, (wrapper, rule, lockstep.calls)


# every kind that declares cells, by n: wpv with uniform weights and with
# zero weights, and mean, which declares them for single agents only
DECLARING = (
    lambda n: LEFTMOST,
    lambda n: MEDIAN,
    lambda n: TWO_EXTREMES,
    lambda n: dictator_spec(1),
    lambda n: dictator_spec(2),
    lambda n: RD,
    lambda n: wpv_spec([F(1, n)] * n),
    end_weights,
    lambda n: MEAN,
)


@st.composite
def cell_cases(draw):
    """A rule that declares cells, a line instance with n >= 2 it is
    defined on, a coalition of up to 3 members, their reports and the
    points those are drawn from: the misreport set, every candidate
    midpoint and, for a single member, every report at which the mean
    sits on a candidate midpoint.  The set holds every candidate and
    every other agent's location.  Instances come from A5's families,
    from coarse halves and, for half the draws, from tie_profiles."""
    branch = draw(st.integers(0, 3))
    if branch == 0:
        n, m = draw(st.sampled_from(((5, 4), (4, 3))))
        family = RandomFamily("line-uniform", n=n, m=m, seed=draw(st.sampled_from((201, 203))))
        instance = random_instance(family, draw(st.integers(0, 999)))
    elif branch == 1:
        instance = draw(line_instances(HALVES, ks=(1,), candidate_count=(1, 4), agent_count=(2, 5)))
    else:
        instance = draw(tie_profiles())[1]
    rule = draw(st.sampled_from(DECLARING))(instance.n)
    instance = line_instance(instance.agents, instance.candidates, k=2 if rule is TWO_EXTREMES else 1)
    coalition = tuple(sorted(draw(st.sets(st.integers(1, instance.n), min_size=1, max_size=3))))
    points = set(misreport_set(instance, draw(st.sampled_from((0, 1, 3, 5)))))
    ys = instance.candidates
    midpoints = {(a + b) / 2 for a in ys for b in ys}
    points |= midpoints
    if len(coalition) == 1:
        others = sum(instance.agents) - instance.agents[coalition[0] - 1]
        points |= {instance.n * mid - others for mid in midpoints}
    points = tuple(sorted(points))
    reports = tuple(draw(st.sampled_from(points)) for _ in coalition)
    return rule, instance, coalition, reports, points


@given(case=cell_cases())
# the median agent on a candidate midpoint, where the tie rule decides,
# while the member's move to the first point of its gap shifts the mean
@example(case=(MEDIAN, line_instance((0, 1, 3), (0, 2)), (3,), (3,), (-1, 0, 1, 2, 3)))
@settings(max_examples=400, deadline=None)
def test_outcome_is_constant_on_each_declared_cell(case):
    """The lemma behind the search's one report per cell: replacing each
    member's report by the first point of its cell keeps the outcome."""
    rule, instance, coalition, reports, points = case
    _, ints = scale_to_integers(instance.agents + instance.candidates + points)
    n, m = instance.n, instance.m
    cuts = rule.cells(ints[:n], ints[n : n + m], coalition)
    if cuts is None:
        assert rule is MEAN and len(coalition) > 1
        return
    point_ints = tuple(ints[n + m :])
    profile, firsts = list(instance.agents), list(instance.agents)
    for i, report, cut in zip(coalition, reports, cuts):
        breakpoints = cut(instance.space, ints[n : n + m]) if callable(cut) else cut
        assert list(breakpoints) == sorted(breakpoints)
        at = points.index(report)
        profile[i - 1] = report
        firsts[i - 1] = points[max(d for d in _cell_firsts(point_ints, breakpoints) if d <= at)]
    outcome = rule.apply(instance.replace_agents(profile))
    assert rule.apply(instance.replace_agents(firsts)) == outcome


def metric_rules(instance):
    """rd or a dictator, the rules defined on a finite metric."""
    return st.sampled_from([RD] + [dictator_spec(i) for i in range(1, instance.n + 1)])


# agents 1 and 2 at points 1 and 2 each vote for their own nearest
# candidate, but both gain by voting for point 5, which candidates 2 and 4
# share: rd's first witness needs the coalition of both, and point 6, one
# step past point 5, falls in its class, so it must not be the one tried
CO_LOCATED = metric_instance(
    (
        (0, 4, 1, 5, 2, 3),
        (4, 0, 5, 1, 2, 3),
        (1, 5, 0, 6, 3, 4),
        (5, 1, 6, 0, 3, 4),
        (2, 2, 3, 3, 0, 1),
        (3, 3, 4, 4, 1, 0),
    ),
    (1, 2),
    (3, 5, 4, 5),
)


@given(case=metric_instances().flatmap(lambda inst: st.tuples(metric_rules(inst), st.just(inst))))
@example(case=(RD, CO_LOCATED))
@settings(max_examples=150, deadline=None)
def test_metric_class_search_matches_the_reference(case):
    """On a finite metric, where points may repeat and so candidates may
    share a point, the search that tries one report per nearest-candidate
    class finds the reference's first witness, or None, at every
    coalition bound."""
    rule, instance = case
    misreports = misreport_set(instance)
    for max_coalition in range(1, instance.n + 1):
        assert find_group_deviation(instance, rule, max_coalition) == reference_group(
            instance, rule, misreports, max_coalition
        )


def test_co_located_candidates_make_one_class():
    lockstep = DeclaringLockstep(RD)
    witness = find_group_deviation(CO_LOCATED, lockstep, max_coalition=2)
    assert (witness.coalition, witness.misreports) == ((1, 2), (5, 5))
    # the classes' first points are 1, 2 and 5, points 3, 4 and 6 falling
    # in the classes of 1, 2 and 5: agent 1 tries 2 and 5, agent 2 tries 1
    # and 5, alone and then jointly, and the fourth joint profile is the
    # witness
    assert lockstep.calls == 1 + 2 + 2 + 4


def nearest_high(space, candidates):
    """The nearest candidate of each point with ties to the larger index."""
    keys = []
    for row in space.scaled:
        distances = [row[c - 1] for c in candidates]
        keys.append(len(distances) - 1 - distances[::-1].index(min(distances)))
    return tuple(keys)


class TiesHigh:
    """rd, declaring classes whose ties go to the larger index, while rd
    breaks them to the smaller: a wrong declaration."""

    def apply(self, instance):
        return RD.apply(instance)

    def cells(self, agents, candidates, coalition):
        return [nearest_high] * len(coalition)


def first_of_each_class_keeps_outcome(rule, instance, coalition, reports):
    """Whether, on a finite metric, replacing each member's report by the
    first point of its declared class keeps the outcome.  A member whose
    cut is not a feature has one class."""
    agents, candidates, _ = instance.scaled
    profile, firsts = list(agents), list(agents)
    for i, report, cut in zip(coalition, reports, rule.cells(agents, candidates, coalition)):
        keys = cut(instance.space, candidates) if callable(cut) else (0,) * instance.space.size
        profile[i - 1] = report
        firsts[i - 1] = keys.index(keys[report - 1]) + 1
    return rule.apply(instance.replace_agents(profile)) == rule.apply(instance.replace_agents(firsts))


@st.composite
def metric_class_cases(draw):
    """rd or a dictator, a metric instance, a coalition of any size and
    its members' reports, any points."""
    instance = draw(metric_instances())
    members = draw(st.sets(st.integers(1, instance.n), min_size=1))
    reports = tuple(draw(st.integers(1, instance.space.size)) for _ in members)
    return draw(metric_rules(instance)), instance, tuple(sorted(members)), reports


@given(case=metric_class_cases())
@example(case=(RD, CO_LOCATED, (1, 2), (6, 6)))
@settings(max_examples=300, deadline=None)
def test_outcome_is_constant_on_each_declared_class(case):
    """The metric twin of the cell lemma: replacing each member's report
    by the first point of its class keeps the outcome."""
    assert first_of_each_class_keeps_outcome(*case)


def test_class_check_catches_ties_declared_to_the_larger_index():
    # point 2 is as near candidate 1, at point 1, as candidate 2, at point 3
    path = metric_instance(((0, 1, 2), (1, 0, 1), (2, 1, 0)), (1,), (1, 3))
    assert first_of_each_class_keeps_outcome(RD, path, (1,), (3,))
    # TiesHigh puts point 2 in candidate 2's class, first before point 3
    assert not first_of_each_class_keeps_outcome(TiesHigh(), path, (1,), (3,))


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
    assert evaluate(inst, LEFTMOST.apply(inst), "mc").ratio == 1
    assert evaluate(inst, RD.apply(inst), "sc").ratio == 1
    assert INFINITE_RATIO > 1  # marker stays comparable either way
