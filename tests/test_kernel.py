"""Differential tests: every rule, deciding on scaled integers, matches
the plain Fraction definition of that rule, and every cost and the exact
optimum, read off the integer cost table, match the plain Fraction cost
definitions, on random and tie-heavy instances; a lottery's int form is
its Fraction support, and the search's cross-multiplied comparison of
lottery costs is the comparison of exact costs; the metric closure and
triangle check on ints match Floyd-Warshall and the scan on Fractions."""

import itertools
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flgames.core import (
    OBJECTIVES,
    Deterministic,
    FiniteMetric,
    Instance,
    Line,
    Randomized,
    cost_scale,
    distance,
    distance_rows,
    line_instance,
    metric_instance,
    outcome_agent_cost,
    outcome_cost,
    permute_agents,
    row_cost,
    scale_to_integers,
)
from flgames.instances import (
    CONSTRUCTION_NAMES,
    PaperConstruction,
    build_paper_instance,
    metric_closure,
)
from flgames.mechanisms import (
    LEFTMOST,
    MEAN,
    MEDIAN,
    RD,
    RULES,
    TWO_EXTREMES,
    dictator_spec,
    wpv_spec,
)
from flgames.solver import INFINITE_RATIO, Evaluation, OptResult, evaluate, optimal, ratio_of
from flgames.verify import _lowers, _SelectionCosts

# ---------------------------------------------------------------------------
# reference: each rule written directly on Fractions


def ref_closest_line(instance, point, tie):
    best = None
    for j, c in enumerate(instance.candidates, start=1):
        d = abs(c - point)
        if best is None:
            best = (d, c, j)
            continue
        bd, bc, _ = best
        if d < bd or (d == bd and (c < bc if tie == "low" else c > bc)):
            best = (d, c, j)
    return best[2]


def ref_closest_by_index(instance, point):
    best_j, best_d = 1, distance(instance.space, point, instance.candidate(1))
    for j in range(2, instance.m + 1):
        d = distance(instance.space, point, instance.candidate(j))
        if d < best_d:
            best_j, best_d = j, d
    return best_j


def reference(spec, instance):
    agents, n = instance.agents, instance.n
    kind = spec.kind
    if kind == "leftmost":
        return Deterministic((ref_closest_line(instance, min(agents), "low"),))
    if kind == "dictator":
        return Deterministic((ref_closest_by_index(instance, instance.agent(spec.dictator)),))
    if kind == "two-extremes":
        left = ref_closest_line(instance, min(agents), "high")
        right = ref_closest_line(instance, max(agents), "low")
        return Deterministic((left, right))
    if kind == "median":
        pivot = sorted(agents)[(n + 1) // 2 - 1]
        return Deterministic((ref_closest_line(instance, pivot, "low"),))
    if kind == "rd":
        return Randomized(
            tuple((Deterministic((ref_closest_by_index(instance, x),)), F(1, n)) for x in agents)
        )
    if kind == "wpv":
        return Randomized(
            tuple(
                (Deterministic((ref_closest_line(instance, x, "low"),)), w)
                for x, w in zip(sorted(agents), spec.weights)
            )
        )
    assert kind == "mean"
    return Deterministic((ref_closest_line(instance, sum(agents, F(0)) / n, "low"),))


def specs_for(instance):
    """Every rule defined on the instance (all seven kinds on the line)."""
    n = instance.n
    dictators = [dictator_spec(i) for i in range(1, n + 1)]
    if not isinstance(instance.space, Line):
        return dictators + [RD] if instance.k == 1 else []
    if instance.k == 2:
        return [TWO_EXTREMES]
    uniform = wpv_spec([F(1, n)] * n)
    percentile = wpv_spec([F(0)] * (n - 1) + [F(1)])
    return [LEFTMOST, MEDIAN, RD, MEAN, uniform, percentile] + dictators


def assert_matches_reference(instance):
    for spec in specs_for(instance):
        got, want = spec.apply(instance), reference(spec, instance)
        assert got == want, (spec.label(), instance)
        assert repr(got) == repr(want)


# ---------------------------------------------------------------------------
# inputs

EPS = st.integers(2, 10**6).map(lambda q: F(1, q))
COORD = st.fractions(min_value=-3, max_value=3, max_denominator=10**6)
COARSE = st.integers(-6, 6).map(lambda v: F(v, 2))


@st.composite
def line_instances(draw, coord=COORD, ks=(1, 2), candidate_count=(1, 5), agent_count=(1, 6)):
    """k from ks, and as many candidates and agents as the (least, most)
    counts allow."""
    candidates = draw(st.lists(coord, min_size=candidate_count[0], max_size=candidate_count[1]))
    agents = draw(st.lists(coord, min_size=agent_count[0], max_size=agent_count[1]))
    return line_instance(agents, candidates, k=draw(st.sampled_from(ks)))


@st.composite
def tie_instances(draw, ks=(1, 2), base_count=(1, 4), agent_count=(1, 5)):
    """Agents on candidate midpoints, co-located candidates, and a mean
    that lands on a midpoint, with candidates eps apart: as many drawn
    candidates as the (least, most) base_count allows and up to four
    more, as many agents as agent_count allows and up to one more."""
    base = draw(st.lists(COORD, min_size=base_count[0], max_size=base_count[1]))
    eps = draw(EPS)
    candidates = base + [c + eps for c in draw(st.lists(st.sampled_from(base), max_size=2))]
    candidates += draw(st.lists(st.sampled_from(candidates), max_size=2))
    candidates = draw(st.permutations(candidates))
    midpoints = [(a + b) / 2 for a in candidates for b in candidates]
    agents = draw(
        st.lists(
            st.sampled_from(midpoints + candidates),
            min_size=agent_count[0],
            max_size=agent_count[1],
        )
    )
    if draw(st.booleans()):
        # the last agent pulls the mean exactly onto a midpoint
        target = draw(st.sampled_from(midpoints))
        agents.append(target * (len(agents) + 1) - sum(agents))
    agents = draw(st.permutations(agents))
    return line_instance(agents, candidates, k=draw(st.sampled_from(ks)))


@st.composite
def metric_instances(draw, ks=(1,)):
    p = draw(st.integers(1, 6))
    weight = st.one_of(st.integers(0, 3).map(F), st.fractions(0, 2, max_denominator=10**6))
    raw = [[F(0)] * p for _ in range(p)]
    for i in range(p):
        for j in range(i + 1, p):
            raw[i][j] = raw[j][i] = draw(weight)
    points = st.integers(1, p)
    agents = draw(st.lists(points, min_size=1, max_size=5))
    candidates = draw(st.lists(points, min_size=1, max_size=4))
    return metric_instance(metric_closure(raw), agents, candidates, k=draw(st.sampled_from(ks)))


# ---------------------------------------------------------------------------
# properties


@given(instance=line_instances())
@settings(max_examples=200)
def test_line_rules_match_reference(instance):
    assert_matches_reference(instance)


@given(instance=line_instances(coord=COARSE))
@settings(max_examples=200)
def test_line_rules_match_reference_on_a_coarse_grid(instance):
    assert_matches_reference(instance)


@given(instance=tie_instances())
@settings(max_examples=300)
def test_line_rules_match_reference_on_forced_ties(instance):
    assert_matches_reference(instance)


@given(instance=metric_instances())
@settings(max_examples=200)
def test_metric_rules_match_reference(instance):
    assert_matches_reference(instance)


def test_paper_constructions_match_reference_down_to_tiny_eps():
    for name in CONSTRUCTION_NAMES:
        for eps in (F(1, 4), F(1, 10), F(3, 1000), F(1, 10**6), F(999_999, 10**6)):
            if name == "example-1" and eps >= F(1, 3):
                continue
            for far in (F(11), F(1000), F(10**6) + eps):
                assert_matches_reference(build_paper_instance(PaperConstruction(name, eps, far)))


def test_scale_to_integers():
    assert scale_to_integers([F(1, 2), F(-2, 3), 4]) == (6, [3, -4, 24])
    assert scale_to_integers([]) == (1, [])


def test_scaled_metric_is_invisible_to_equality_hash_and_repr():
    a = FiniteMetric(((0, F(1, 2)), (F(1, 2), 0)))
    b = FiniteMetric(((F(0), F(1, 2)), (F(1, 2), F(0))))
    assert a.scaled == ((0, 1), (1, 0)) and a.scale == 2
    assert a == b and hash(a) == hash(b)
    assert repr(a) == f"FiniteMetric(matrix={a.matrix!r})"


def assert_scaled_maps_back(instance):
    """Instance.scaled is the agents and candidates as ints over one
    common scale, the least one, and carries that scale."""
    agents, candidates, carried = instance.scaled
    scale = 1
    for v in instance.agents + instance.candidates:
        scale = scale * v.denominator // gcd(scale, v.denominator)
    assert type(carried) is int and carried == scale
    assert all(type(v) is int for v in agents + candidates)
    assert tuple(F(v, scale) for v in agents) == instance.agents
    assert tuple(F(v, scale) for v in candidates) == instance.candidates


exact = st.fractions(max_denominator=10**6).filter(lambda v: abs(v) <= 10**6)


@given(
    agents=st.lists(exact, min_size=1, max_size=5),
    candidates=st.lists(exact, min_size=1, max_size=4),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_instance_scaled_maps_back_and_follows_every_new_profile(agents, candidates, data):
    inst = line_instance(agents, candidates)
    assert_scaled_maps_back(inst)
    moved = inst.replace_agents(data.draw(st.lists(exact, min_size=1, max_size=5)))
    assert_scaled_maps_back(moved)
    permuted = permute_agents(inst, data.draw(st.permutations(range(1, inst.n + 1))))
    assert_scaled_maps_back(permuted)
    assert permuted.scaled[0] == tuple(
        inst.scaled[0][inst.agents.index(x)] for x in permuted.agents
    )


def test_instance_scaled_is_invisible_to_equality_hash_and_repr():
    a = line_instance((F(1, 2), 3), (0,))
    b = line_instance((F(1, 2), 3), (0,))
    assert a.scaled == ((1, 6), (0,), 2)
    # the same profile over another scale, as a search scales it
    object.__setattr__(b, "scaled", ((3, 18), (0,), 6))
    assert a == b and hash(a) == hash(b)
    assert repr(a) == (
        "Instance(space=Line(), agents=(Fraction(1, 2), Fraction(3, 1)), "
        "candidates=(Fraction(0, 1),), k=1)"
    )
    assert metric_instance(((0, 1), (1, 0)), (1, 2), (2,)).scaled is None


few = st.fractions(min_value=-2, max_value=2, max_denominator=3)
few_instances = st.builds(
    line_instance,
    st.lists(few, min_size=1, max_size=2),
    st.lists(few, min_size=1, max_size=2),
    st.sampled_from((1, 2)),
)


@given(
    first=few_instances,
    second=few_instances,
    factors=st.lists(st.integers(1, 6), min_size=2, max_size=2),
)
@settings(max_examples=200, deadline=None)
def test_instance_equality_and_hash_are_those_of_the_fraction_tuples(first, second, factors):
    """Two instances are equal, and then hash alike, exactly when their
    agents, candidates and k are, also when one is stored at an unreduced
    scale as a search stores its profiles (Instance._trusted)."""
    stored = []
    for inst, f in zip((first, second), factors):
        agents, candidates, scale = inst.scaled
        unreduced = (tuple(v * f for v in agents), tuple(v * f for v in candidates), scale * f)
        stored += [inst, Instance._trusted(inst.space, inst.k, unreduced)]
    for a, b in itertools.product(stored, repeat=2):
        same = (a.agents, a.candidates, a.k) == (b.agents, b.candidates, b.k)
        assert (a == b) is same and (a != b) is not same
        assert not same or hash(a) == hash(b)


# ---------------------------------------------------------------------------
# reference: costs and the optimum written directly on Fractions


def ref_agent_cost(instance, outcome, i):
    x = instance.agent(i)
    return min(distance(instance.space, x, instance.candidate(j)) for j in outcome.selection)


def ref_social_cost(instance, outcome):
    return sum(ref_agent_cost(instance, outcome, i) for i in range(1, instance.n + 1))


def ref_max_cost(instance, outcome):
    return max(ref_agent_cost(instance, outcome, i) for i in range(1, instance.n + 1))


def ref_objective_cost(instance, outcome, objective):
    return ref_social_cost(instance, outcome) if objective == "sc" else ref_max_cost(instance, outcome)


def ref_outcome_cost(instance, outcome, objective):
    if isinstance(outcome, Deterministic):
        return ref_objective_cost(instance, outcome, objective)
    return sum(prob * ref_objective_cost(instance, det, objective) for det, prob in outcome.support)


def ref_outcome_agent_cost(instance, outcome, i):
    if isinstance(outcome, Deterministic):
        return ref_agent_cost(instance, outcome, i)
    return sum(prob * ref_agent_cost(instance, det, i) for det, prob in outcome.support)


def ref_optimal(instance, objective):
    best, argmins = None, []
    for sel in itertools.combinations_with_replacement(range(1, instance.m + 1), instance.k):
        value = ref_objective_cost(instance, Deterministic(sel), objective)
        if best is None or value < best:
            best, argmins = value, [sel]
        elif value == best:
            argmins.append(sel)
    all_best = tuple(Deterministic(sel) for sel in argmins)
    return OptResult(best, all_best[0], all_best)


@st.composite
def outcomes(draw, instance):
    """A selection of k candidates, or a lottery over up to four."""
    selection = st.lists(st.integers(1, instance.m), min_size=instance.k, max_size=instance.k)
    if draw(st.booleans()):
        return Deterministic(tuple(draw(selection)))
    support = draw(st.lists(selection, min_size=1, max_size=4))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(support), max_size=len(support)))
    return Randomized(
        tuple((Deterministic(tuple(sel)), F(w, sum(weights))) for sel, w in zip(support, weights))
    )


def assert_costs_match_reference(instance, outcome):
    for objective in OBJECTIVES:
        got, want = outcome_cost(instance, outcome, objective), ref_outcome_cost(
            instance, outcome, objective
        )
        assert type(got) is F and got == want, (objective, outcome, instance)
    for i in range(1, instance.n + 1):
        got, want = outcome_agent_cost(instance, outcome, i), ref_outcome_agent_cost(
            instance, outcome, i
        )
        assert type(got) is F and got == want, (i, outcome, instance)
    # a row read at agents[i - 1] would answer for the last agent at 0
    for i in (0, instance.n + 1):
        with pytest.raises(IndexError):
            outcome_agent_cost(instance, outcome, i)


def assert_optimal_matches_reference(instance):
    for objective in OBJECTIVES:
        got, want = optimal(instance, objective), ref_optimal(instance, objective)
        assert got == want, (objective, instance)
        assert repr(got) == repr(want)


ANY_INSTANCE = st.one_of(
    line_instances(),
    line_instances(coord=COARSE),
    tie_instances(),
    metric_instances(ks=(1, 2)),
)


@given(instance=ANY_INSTANCE, data=st.data())
@settings(max_examples=400, deadline=None)
def test_costs_and_optimum_match_reference(instance, data):
    assert_optimal_matches_reference(instance)
    assert_costs_match_reference(instance, data.draw(outcomes(instance)))
    for spec in specs_for(instance):
        assert_costs_match_reference(instance, spec.apply(instance))


def test_optimum_keeps_every_tied_argmin_in_order():
    # symmetric candidates and co-located duplicates: every objective ties
    inst = line_instance((0, 2), (3, -1, 1, -1, 3, 1), k=1)
    for objective in OBJECTIVES:
        assert optimal(inst, objective) == ref_optimal(inst, objective)
        assert optimal(inst, objective).all_best == (Deterministic((3,)), Deterministic((6,)))
    pair = line_instance((0, 2), (3, -1, 1, -1, 3, 1), k=2)
    for objective in OBJECTIVES:
        result = optimal(pair, objective)
        assert result == ref_optimal(pair, objective) and len(result.all_best) > 1
    metric = metric_instance(((0, 1, 1), (1, 0, 2), (1, 2, 0)), (2, 3), (2, 3, 1, 1), k=1)
    for objective in OBJECTIVES:
        assert optimal(metric, objective) == ref_optimal(metric, objective)
    assert optimal(metric, "mc").all_best == (Deterministic((3,)), Deterministic((4,)))
    assert len(optimal(metric, "sc").all_best) == 4


def test_costs_read_the_scale_a_profile_carries():
    """A search profile carries its ints and their scale in one value, so
    its costs are read over that scale, not the template's."""
    template = line_instance((F(1, 2), 3), (0, F(5, 2)), k=1)
    agents = (F(1, 3), F(7, 6))
    profile = Instance._trusted(template.space, template.k, ((2, 7), (0, 15), 6))
    assert profile.agents == agents and profile.scaled[2] != template.scaled[2]
    plain = line_instance(agents, template.candidates, k=1)
    lottery = Randomized(((Deterministic((1,)), F(1, 3)), (Deterministic((2,)), F(2, 3))))
    for outcome in (Deterministic((1,)), Deterministic((2,)), lottery):
        assert_costs_match_reference(profile, outcome)
        for objective in OBJECTIVES:
            assert outcome_cost(profile, outcome, objective) == outcome_cost(
                plain, outcome, objective
            )
    assert optimal(profile, "sc") == ref_optimal(plain, "sc")


# ---------------------------------------------------------------------------
# one cost table: evaluate against outcome_cost, optimal and ratio_of


def assert_evaluation_matches(instance, outcome):
    for objective in OBJECTIVES:
        cost = outcome_cost(instance, outcome, objective)
        opt = optimal(instance, objective).value
        got = evaluate(instance, outcome, objective)
        assert got == (cost, opt, ratio_of(cost, opt)), (objective, outcome, instance)
        assert type(got.cost) is F and type(got.optimum) is F
        assert repr(got.ratio) == repr(ratio_of(cost, opt))


@given(instance=ANY_INSTANCE, data=st.data())
@settings(max_examples=300, deadline=None)
def test_evaluation_matches_cost_optimum_and_ratio(instance, data):
    """Every rule defined on the instance (rd and wpv lotteries among
    them), a drawn outcome, and on k=2 a lottery over pairs drawn
    unsorted and reversed, on line, tie-heavy and metric-closure
    instances."""
    for spec in specs_for(instance):
        assert_evaluation_matches(instance, spec.apply(instance))
    assert_evaluation_matches(instance, data.draw(outcomes(instance)))
    if instance.k == 2:
        assert_evaluation_matches(instance, data.draw(pair_lotteries(instance)))


def test_evaluation_on_hand_built_ties():
    single = line_instance((1, 1, 4), (0, 2), k=1)
    pair = line_instance((1, 1, 4), (0, 2), k=2)
    kinds = {spec.kind for inst in (single, pair) for spec in specs_for(inst)}
    assert kinds == set(RULES)
    cases = [
        single,  # two agents on the candidates' midpoint
        pair,
        line_instance((0, 3, 3), (3, 3, 0, 0), k=1),  # coincident candidates
        line_instance((0, 3, 3), (3, 3, 0, 0), k=2),
        line_instance((2, 2), (2, 5, 2), k=1),  # every cost 0: 0/0 is 1
        metric_instance(((0, 1, 1), (1, 0, 2), (1, 2, 0)), (2, 3), (2, 3, 1, 1), k=1),
    ]
    for instance in cases:
        for spec in specs_for(instance):
            assert_evaluation_matches(instance, spec.apply(instance))
    assert evaluate(cases[4], LEFTMOST.apply(cases[4]), "mc") == (0, 0, 1)
    assert evaluate(cases[4], Deterministic((2,)), "sc") == (6, 0, INFINITE_RATIO)
    # two-extremes reports its left facility first, here the larger index,
    # so only the sorted selection is a key of the table
    spread = line_instance((0, 5, 10), (10, 0, 4), k=2)
    outcome = TWO_EXTREMES.apply(spread)
    assert outcome.selection == (2, 1)
    assert_evaluation_matches(spread, outcome)
    assert evaluate(spread, outcome, "sc").cost == 5


def test_evaluation_on_one_block():
    """Edge cases of the line's blocks: every selection of k candidates,
    in either order, is evaluated against ref_outcome_cost and the
    reference optimum, on both objectives, k = 1 and k = 2."""
    cases = [
        ((3,), (0, 2, 7)),  # one agent: every split leaves a block empty
        ((F(5, 2),) * 3, (0, 5, 3)),  # all agents at one point
        ((0, 4), (1, 3)),  # the agents' midpoint exactly between two candidates
        ((0, 4), (1, 4)),  # ... nearer the left of its two neighbours
        ((0, 1, 2, 5), (1, 10)),  # the pair splits at n: its right facility serves nobody
        ((0, 1, 2, 5), (-10, 1)),  # ... at 0: its left facility serves nobody
        ((0, 3, 3, 9), (3, 3, 0, 9, 0)),  # coincident candidates
    ]
    for agents, candidates in cases:
        for k in (1, 2):
            instance = line_instance(agents, candidates, k=k)
            selections = list(itertools.product(range(1, instance.m + 1), repeat=k))
            for objective in OBJECTIVES:
                opt = ref_optimal(instance, objective).value
                for selection in selections:
                    outcome = Deterministic(selection)
                    cost = ref_outcome_cost(instance, outcome, objective)
                    want = Evaluation(cost, opt, ratio_of(cost, opt))
                    assert evaluate(instance, outcome, objective) == want, (objective, selection, instance)


# ---------------------------------------------------------------------------
# the line's pair table at more agents and candidates than the draws above


LARGE_LINE_INSTANCES = st.one_of(
    line_instances(candidate_count=(6, 12), agent_count=(7, 25)),
    line_instances(coord=COARSE, candidate_count=(6, 12), agent_count=(7, 25)),
    tie_instances(base_count=(6, 8), agent_count=(7, 24)),
)


@given(instance=LARGE_LINE_INSTANCES, data=st.data())
@settings(max_examples=150, deadline=None)
def test_optimum_and_evaluation_match_reference_at_larger_sizes(instance, data):
    """Up to 25 agents and 12 candidates, with coincident candidates and
    agents on pair midpoints: optimal is ref_optimal, and evaluate is
    ref_outcome_cost against the reference optimum, for every rule on the
    instance and a drawn outcome, on k=2 also a lottery over pairs drawn
    unsorted and reversed."""
    assert_optimal_matches_reference(instance)
    drawn = [data.draw(outcomes(instance))]
    drawn += [spec.apply(instance) for spec in specs_for(instance)]
    if instance.k == 2:
        drawn.append(data.draw(pair_lotteries(instance)))
    for objective in OBJECTIVES:
        opt = ref_optimal(instance, objective).value
        for outcome in dict.fromkeys(drawn):
            cost = ref_outcome_cost(instance, outcome, objective)
            want = Evaluation(cost, opt, ratio_of(cost, opt))
            got = evaluate(instance, outcome, objective)
            assert got == want and repr(got) == repr(want), (objective, outcome, instance)


# ---------------------------------------------------------------------------
# lotteries on ints: a lottery rule's int form against its Fraction support,
# and the search's cross-multiplied cost comparison against the Fractions


def assert_int_form_is_the_support(lottery):
    """Randomized.scaled holds the support entry for entry: the same
    selections, and weight w over the positive int denominator d for
    probability Fraction(w, d).  It is canonical: the selections sorted
    and distinct, the weights positive and in lowest terms over d."""
    selections, weights, denominator = lottery.scaled
    assert type(denominator) is int and denominator > 0
    assert list(selections) == sorted(set(selections))
    assert all(w > 0 for w in weights) and gcd(denominator, *weights) == 1
    assert len(selections) == len(weights) == len(lottery.support)
    for (det, prob), sel, w in zip(lottery.support, selections, weights):
        assert det.selection == sel and type(w) is int and F(w, denominator) == prob


def assert_lottery_matches_public_construction(lottery):
    assert_int_form_is_the_support(lottery)
    public = Randomized(lottery.support)
    assert_int_form_is_the_support(public)
    assert public == lottery and hash(public) == hash(lottery) and repr(public) == repr(lottery)
    assert public.scaled == lottery.scaled


def assert_cost_comparisons_match_fractions(instance, before, after):
    """For every agent, the search's test (after's cost strictly below
    before's, cross-multiplied on ints, after's read through a selection
    cost lookup) is the test on exact costs."""
    for i, row in enumerate(distance_rows(instance), start=1):
        cost, denominator = row_cost(row, before)
        old, new = outcome_agent_cost(instance, before, i), outcome_agent_cost(instance, after, i)
        assert F(cost, denominator * cost_scale(instance)) == old
        assert old == ref_outcome_agent_cost(instance, before, i)
        assert new == ref_outcome_agent_cost(instance, after, i)
        lowers = _lowers(_SelectionCosts(row), after, cost, denominator)
        assert lowers == (new < old), (i, before, after)


@st.composite
def wpv_with_zeros(draw, n):
    """A wpv rule for n agents with zero weights, over a denominator that
    need not be n: an extreme percentile, the two ends, or drawn ints."""
    ends = [F(1, 2)] + [F(0)] * (n - 2) + [F(1, 2)] if n > 1 else [F(1)]
    raw = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
    drawn = [F(w, sum(raw)) for w in raw]
    return wpv_spec(draw(st.sampled_from(([F(0)] * (n - 1) + [F(1)], ends, drawn))))


@st.composite
def lottery_cases(draw):
    """A lottery rule, an instance it is defined on, and the instance
    with one agent moved, as the search moves it: rd on the line and on
    a metric, and wpv with zero weights on tie-heavy profiles."""
    kind = draw(st.sampled_from(("rd-line", "rd-metric", "wpv-ties")))
    if kind == "rd-metric":
        instance = draw(metric_instances())
        report = draw(st.integers(1, instance.space.size))
    else:
        instance = draw(tie_instances(ks=(1,)) if kind == "wpv-ties" else line_instances(ks=(1,)))
        midpoints = [(a + b) / 2 for a in instance.candidates for b in instance.candidates]
        report = draw(st.one_of(COORD, st.sampled_from(midpoints + list(instance.agents))))
    spec = draw(wpv_with_zeros(instance.n)) if kind == "wpv-ties" else RD
    mover = draw(st.integers(0, instance.n - 1))
    moved = instance.replace_agents(
        instance.agents[:mover] + (report,) + instance.agents[mover + 1 :]
    )
    return spec, instance, moved


@given(case=lottery_cases(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_lottery_int_form_and_cost_comparisons_match_fractions(case, data):
    spec, instance, moved = case
    truthful, shifted = spec.apply(instance), spec.apply(moved)
    assert truthful == reference(spec, instance) and shifted == reference(spec, moved)
    for lottery in (truthful, shifted):
        assert_lottery_matches_public_construction(lottery)
    drawn = data.draw(outcomes(instance))
    for before, after in itertools.permutations((truthful, shifted, drawn), 2):
        assert_cost_comparisons_match_fractions(instance, before, after)
    assert_cost_comparisons_match_fractions(instance, truthful, truthful)


@st.composite
def pair_lotteries(draw, instance):
    """A lottery over k=2 selections as a rule may report them: drawn
    unsorted, with repeated candidates, and each pair also reversed."""
    pair = st.tuples(st.integers(1, instance.m), st.integers(1, instance.m))
    pairs = draw(st.lists(pair, min_size=1, max_size=3))
    support = pairs + [p[::-1] for p in pairs]
    weights = draw(st.lists(st.integers(1, 5), min_size=len(support), max_size=len(support)))
    return Randomized(
        tuple((Deterministic(sel), F(w, sum(weights))) for sel, w in zip(support, weights))
    )


@given(
    instance=st.one_of(
        line_instances(ks=(2,)), tie_instances(ks=(2,)), metric_instances(ks=(2,))
    ),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_one_selection_cost_lookup_serves_a_whole_search(instance, data):
    """The search keeps one lookup per agent for all the lotteries it
    compares; reused across many drawn outcomes, each comparison is the
    one on exact costs, and each kept cost is the selection's exact cost."""
    table = distance_rows(instance)
    lookups = [_SelectionCosts(row) for row in table]
    before = data.draw(pair_lotteries(instance))
    for _ in range(8):
        after = data.draw(st.one_of(pair_lotteries(instance), outcomes(instance)))
        for i, (row, costs) in enumerate(zip(table, lookups), start=1):
            cost, denominator = row_cost(row, before)
            old = ref_outcome_agent_cost(instance, before, i)
            new = ref_outcome_agent_cost(instance, after, i)
            assert _lowers(costs, after, cost, denominator) == (new < old), (i, before, after)
    scale = cost_scale(instance)
    for i, costs in enumerate(lookups, start=1):
        assert costs
        for selection, value in costs.items():
            assert F(value, scale) == ref_agent_cost(instance, Deterministic(selection), i)


# ---------------------------------------------------------------------------
# reference: the shortest-path closure and the triangle scan on Fractions


def ref_closure(weights):
    """Floyd-Warshall on the Fractions themselves."""
    dist = [[F(entry) for entry in row] for row in weights]
    p = len(dist)
    for mid in range(p):
        for i in range(p):
            for j in range(p):
                if dist[i][mid] + dist[mid][j] < dist[i][j]:
                    dist[i][j] = dist[i][mid] + dist[mid][j]
    return tuple(tuple(row) for row in dist)


def ref_triangle_error(matrix):
    """The first triangle violation in (mid, i, j) order, as FiniteMetric
    words it, or None."""
    p = len(matrix)
    for mid in range(p):
        for i in range(p):
            for j in range(p):
                if matrix[i][mid] + matrix[mid][j] < matrix[i][j]:
                    return (
                        f"triangle inequality fails: d({i + 1},{j + 1}) > "
                        f"d({i + 1},{mid + 1}) + d({mid + 1},{j + 1})"
                    )
    return None


@st.composite
def weight_matrices(draw):
    """Symmetric nonnegative matrices, mostly not metrics: zero and
    repeated weights, and denominators that the closure may cancel."""
    p = draw(st.integers(1, 7))
    pool = draw(
        st.lists(
            st.builds(F, st.integers(0, 12), st.sampled_from((1, 2, 3, 4, 6, 7))),
            min_size=1,
            max_size=4,
        )
    )
    weights = [[F(0)] * p for _ in range(p)]
    for i in range(p):
        for j in range(i + 1, p):
            weights[i][j] = weights[j][i] = draw(st.sampled_from(pool))
    return tuple(tuple(row) for row in weights)


@given(weights=weight_matrices())
@settings(max_examples=400, deadline=None)
def test_closure_and_triangle_check_match_reference(weights):
    closure = FiniteMetric._closure(weights)
    expected = FiniteMetric(ref_closure(weights))
    assert closure.matrix == expected.matrix
    assert closure.scaled == expected.scaled
    assert closure.scale == expected.scale
    assert repr(closure) == repr(expected)
    error = ref_triangle_error(weights)
    if error is None:
        assert FiniteMetric(weights) == closure
    else:
        with pytest.raises(ValueError) as raised:
            FiniteMetric(weights)
        assert str(raised.value) == error
