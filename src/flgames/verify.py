"""Falsification engine.

Searches for counterexamples to the properties the mechanisms are
supposed to have: profitable misreports (unilateral and coalitional),
anonymity violations, and approximation ratios above the proven bounds
(iter_sweep yields each seeded instance's exact ratio).
A clean pass is evidence over the searched set, never a proof; a
returned witness is an exact, replayable counterexample.

One loop searches for misreports: unilateral search is the group search
restricted to coalitions of size 1, under the same guard, just as
strategyproofness is group strategyproofness for single agents.  It
always searches misreport_set(instance, grid_points), which holds every
agent's true location, so each agent tries |set| - 1 reports, and
coalitions of up to s_max of the n agents try sum over s = 1..s_max of
C(n, s) * (|set| - 1)**s joint reports (joint_misreport_count): the
count the guard checks and `verify` reports as joint_misreports.

Scan order is fixed so witnesses are reproducible: coalitions by size
then lexicographic agent indices (so single agents ascending first),
joint misreports in product order with the last member's report
varying fastest, each member's reports ascending.

The search costs every outcome on the core's integer cost table of the
true agents (distance_rows).  For a deterministic rule it first cuts
every coalition for which no k-multiset of candidates lowers every
member's cost strictly.  This is exact: whatever the members report,
the rule answers with some k-multiset, so such a coalition cannot hold
a witness, and the scan order and witnesses are unchanged.  Lotteries
(rd, wpv) are not cut, because a mix of selections can help every
member in expectation when no single selection does.  A lottery's
member cost is an int over the lottery's denominator, read through its
int form (Randomized.scaled) from a per-search lookup of the member's
cost for each selection, filled off the same table the first time a
selection appears, and is compared with the truthful one by
cross-multiplication, so no Fraction is built until a witness is found;
a shifted lottery equal to the truthful one fails the strict test, so
there is no separate equality check.

On the line the search scales once: the agents, the candidates and the
misreport set go to ints over one common denominator, and every profile
it tries reaches the rule as a Fraction instance that carries the same
profile as those ints, and their denominator, in one value
(Instance.scaled).  The rule's decisions are then made without
rescaling, and they are the decisions on the Fractions, because
multiplying every location by one positive scale keeps every
difference, sum and order comparison.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from operator import mul
from typing import Optional

from .core import (
    Deterministic,
    Instance,
    Line,
    Outcome,
    distance_rows,
    outcome_agent_cost,
    outcome_cost,
    permute_agents,
    row_cost,
    scale_to_integers,
    validate_objective,
)
from .instances import PaperConstruction, RandomFamily, build_paper_instance, random_instance
from .solver import (
    DEFAULT_GUARD,
    GuardExceeded,
    Ratio,
    candidate_multisets,
    optimal,
    ratio_of,
)

DEFAULT_GRID_POINTS = 41


# ---------------------------------------------------------------------------
# misreport sets


def joint_misreport_count(n: int, tried: int, max_coalition: int) -> int:
    """Joint reports a search over coalitions of up to max_coalition of
    n agents tries when each agent tries `tried` reports: the sum over
    sizes s of comb(n, s) * tried**s.  Raises ValueError for a
    max_coalition that is not an int in 1..n."""
    if type(max_coalition) is not int or not 1 <= max_coalition <= n:
        raise ValueError(f"max_coalition must be in 1..{n}, got {max_coalition}")
    return sum(comb(n, s) * tried**s for s in range(1, max_coalition + 1))


def misreport_set(
    instance: Instance,
    grid_points: int = DEFAULT_GRID_POINTS,
    guard: int = DEFAULT_GUARD,
    max_coalition: int = 1,
) -> tuple:
    """The finite set of reports tried for each agent, ascending.

    On the line: every candidate location, every true agent location,
    and a uniform grid of grid_points points spanning the instance's
    location range widened by one range-width on each side (at least 1).
    In a finite metric space: every point.  The same set serves every
    agent and holds every agent's true location, which the search
    skips, so each agent tries exactly len(set) - 1 reports.

    Before building a point it raises ValueError for a max_coalition
    outside 1..n and, on the line, GuardExceeded for a grid the search
    must refuse: the grid's points are distinct, so the search tries at
    least joint_misreport_count(n, grid_points - 1, max_coalition)
    joint reports."""
    if type(grid_points) is not int or grid_points < 0:
        raise ValueError(f"grid_points must be nonnegative, got {grid_points}")
    # counted on every space, so max_coalition's range is checked there too;
    # clamped at 0: for grid_points <= 1 a negative base would alternate in sign
    least = joint_misreport_count(instance.n, max(grid_points - 1, 0), max_coalition)
    if not isinstance(instance.space, Line):
        return tuple(range(1, instance.space.size + 1))
    if least > guard:
        raise GuardExceeded(f"{grid_points}-point grid exceeds the guard of {guard}")
    # On ints over the locations' common denominator times grid_points - 1
    # every grid step divides exactly, and a span of 1 is `scale`; only a
    # grid point that is no location becomes a new Fraction.
    locations = instance.agents + instance.candidates
    factor = max(grid_points - 1, 1)
    scale, ints = scale_to_integers(locations)
    scale *= factor
    points = {v * factor: x for v, x in zip(ints, locations)}
    lo, hi = min(points), max(points)
    span = max(hi - lo, scale)
    start = lo - span
    step = (hi + span - start) // factor
    for t in range(grid_points):
        v = start + t * step
        if v not in points:
            points[v] = Fraction(v, scale)
    return tuple(points[v] for v in sorted(points))


# ---------------------------------------------------------------------------
# deviation search


@dataclass(frozen=True)
class DeviationWitness:
    """A replayable profitable deviation: every coalition member's cost,
    measured at its true location, strictly drops."""

    coalition: tuple[int, ...]
    misreports: tuple
    outcome_before: Outcome
    outcome_after: Outcome
    costs_before: tuple[Fraction, ...]
    costs_after: tuple[Fraction, ...]


def _choices(truthful: list[tuple], options: list[tuple], coalition: tuple) -> list[tuple]:
    """Per agent, the reports product() walks: a member's options, and
    every other agent's one truthful report."""
    choices = truthful[:]
    for i in coalition:
        choices[i - 1] = options[i - 1]
    return choices


class _SelectionCosts(dict):
    """One agent's cost for each selection looked up, read off its row of
    the table (core.row_cost) the first time that selection is asked for
    and kept for the rest of the search."""

    __slots__ = ("row",)

    def __init__(self, row: list[int]):
        self.row = row

    def __missing__(self, selection: tuple[int, ...]) -> int:
        cost = self[selection] = row_cost(self.row, Deterministic._trusted(selection))[0]
        return cost


def _lowers(costs: _SelectionCosts, outcome: Outcome, cost: int, denominator: int) -> bool:
    """Whether the outcome costs the agent whose selection costs these
    are strictly less than cost / denominator, decided on ints by
    cross-multiplication, since both denominators are positive."""
    selections, weights, scale = outcome.scaled
    return sum(map(mul, weights, map(costs.__getitem__, selections))) * denominator < cost * scale


def find_group_deviation(
    instance: Instance,
    mechanism,
    max_coalition: int = 1,
    grid_points: int = DEFAULT_GRID_POINTS,
    guard: int = DEFAULT_GUARD,
) -> Optional[DeviationWitness]:
    """First coalition (size <= max_coalition) whose joint misreport
    strictly improves every member, or None.  Randomized mechanisms are
    compared in expectation.

    Members reporting truthfully are not enumerated: a witness with an
    idle member implies a smaller-coalition witness, which the
    size-ascending scan finds first.  The search always searches
    misreport_set(instance, grid_points, guard, max_coalition), which
    holds every agent's true location, and each agent tries every point
    of it but its own.  Raises what misreport_set raises, then
    GuardExceeded if the total number of joint reports to try,
    joint_misreport_count(n, len(set) - 1, max_coalition), exceeds the
    guard, and then, for a deterministic rule, if the candidate
    multisets the cut enumerates do.

    Costs are read off one table of the true agents' distances to the
    candidates, as ints over one common denominator; Fractions are built
    only for a witness.  When the truthful outcome is deterministic, the
    rule's every outcome is a k-multiset of candidates, so a coalition
    can gain only through a selection whose nearest candidate is
    strictly closer than the truthful outcome's for every member.  A
    coalition with no such selection is skipped without calling the
    rule, and for the rest, a shifted outcome is a witness exactly when
    its selection, in the order the rule reports it, is one of them in
    some order.  Lotteries get no such cut, since a lottery can lower
    every member's expected cost when no single selection does.  A
    lottery's member cost is the int sum(w * min(row[j - 1] for j in
    selection)) over its int form's denominator (Randomized.scaled).
    The truthful one is computed once per member; for a shifted one,
    each agent keeps one lookup per search from a selection to its
    cost, filled off its row the first time the selection appears and
    exact for any selection a rule returns, sorted or not.  A shifted
    lottery strictly improves exactly when, cross-multiplied by the
    other's denominator, its cost is the smaller int.  A shifted lottery
    equal to the truthful one fails that strict test for every member,
    so it is not compared separately.  Only a coalition with a member
    already at cost 0 is skipped.
    """
    n = instance.n
    points = misreport_set(instance, grid_points, guard, max_coalition)
    total = joint_misreport_count(n, len(points) - 1, max_coalition)
    if total > guard:
        raise GuardExceeded(f"{total} joint misreports exceed the guard of {guard}")
    line = isinstance(instance.space, Line)
    if line:
        # one scale for every profile the search tries: the agents, the
        # candidates and the misreports, each as an int over it
        m = instance.m
        scale, ints = scale_to_integers(instance.agents + instance.candidates + points)
        agent_ints, candidate_ints = ints[:n], tuple(ints[n : n + m])
        point_ints = tuple(ints[n + m :])
        # scaling is one-to-one, so the ints locate each agent's own report
        own, among = agent_ints, point_ints
        int_truthful = [(x,) for x in agent_ints]
        carried = itertools.repeat(candidate_ints), itertools.repeat(scale)
    else:
        own, among = instance.agents, points
    cuts = [among.index(x) for x in own]
    options = [points[:j] + points[j + 1 :] for j in cuts]
    if line:
        int_options = [point_ints[:j] + point_ints[j + 1 :] for j in cuts]
    truthful = mechanism.apply(instance)
    table = distance_rows(instance)
    # each agent's truthful cost, as an int over one positive denominator
    base_costs = [row_cost(row, truthful)[0] for row in table]
    base_denominator = truthful.scaled[2]
    deterministic = isinstance(truthful, Deterministic)
    if deterministic:
        selections = list(candidate_multisets(instance, guard))
        # per agent, every order of each selection that would strictly lower
        # its cost, since a rule may report its facilities in any order
        gains = [
            {
                order
                for sel in selections
                if min(row[j - 1] for j in sel) < cost
                for order in itertools.permutations(sel)
            }
            for row, cost in zip(table, base_costs)
        ]
    else:
        # per agent, its cost for each selection a shifted lottery holds
        costs = [_SelectionCosts(row) for row in table]
    # every agent outside the coalition keeps its one truthful report, so
    # product() yields whole profiles, the last member's report fastest
    truthful_choices = [(x,) for x in instance.agents]
    for size in range(1, max_coalition + 1):
        for coalition in itertools.combinations(range(1, n + 1), size):
            if deterministic:
                winning = set.intersection(*(gains[i - 1] for i in coalition))
                if not winning:
                    continue
            elif any(base_costs[i - 1] == 0 for i in coalition):
                # a member already at cost 0 can never strictly improve
                continue
            profiles = itertools.product(*_choices(truthful_choices, options, coalition))
            if line:
                # the same choices as ints, index for index, walked in
                # lockstep, so each profile arrives with its own ints and
                # the search's scale
                int_profiles = itertools.product(*_choices(int_truthful, int_options, coalition))
                scaled = zip(int_profiles, *carried)
            else:
                scaled = itertools.repeat(None)
            for profile, profile_scaled in zip(profiles, scaled):
                shifted = mechanism.apply(Instance._trusted(instance, profile, profile_scaled))
                if deterministic:
                    if shifted.selection not in winning:
                        continue
                elif not all(
                    _lowers(costs[i - 1], shifted, base_costs[i - 1], base_denominator)
                    for i in coalition
                ):
                    continue
                return DeviationWitness(
                    coalition,
                    tuple(profile[i - 1] for i in coalition),
                    truthful,
                    shifted,
                    tuple(outcome_agent_cost(instance, truthful, i) for i in coalition),
                    tuple(outcome_agent_cost(instance, shifted, i) for i in coalition),
                )
    return None


def find_unilateral_deviation(instance: Instance, mechanism) -> Optional[DeviationWitness]:
    """First strictly profitable single-agent misreport in scan order,
    or None: the size-1 group search, under the default grid and guard."""
    return find_group_deviation(instance, mechanism)


# ---------------------------------------------------------------------------
# anonymity


def check_anonymity(instance: Instance, mechanism) -> Optional[tuple[int, ...]]:
    """First permutation of the agent profile, in lexicographic order,
    that changes the outcome, or None.

    Exhaustive over all n! permutations.  Raises GuardExceeded, before
    calling the rule, if n! exceeds DEFAULT_GUARD.
    """
    n = instance.n
    count = factorial(n)
    if count > DEFAULT_GUARD:
        raise GuardExceeded(f"{count} agent permutations exceed the guard of {DEFAULT_GUARD}")
    truthful = mechanism.apply(instance)
    identity = tuple(range(1, n + 1))
    for perm in itertools.permutations(identity):
        if perm == identity:
            continue
        if mechanism.apply(permute_agents(instance, perm)) != truthful:
            return perm
    return None


# ---------------------------------------------------------------------------
# ratio sweeps


@dataclass(frozen=True)
class SweepRow:
    index: int
    instance: Instance
    mechanism_cost: Fraction
    optimal_cost: Fraction
    ratio: Ratio


def iter_sweep(
    family: RandomFamily,
    mechanism,
    objective: str,
    count: int,
    guard: int = DEFAULT_GUARD,
):
    """Generate, run, and solve `count` instances of a family, yielding
    one SweepRow per instance."""
    validate_objective(objective)
    if type(count) is not int or count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    for index in range(count):
        inst = random_instance(family, index)
        cost = outcome_cost(inst, mechanism.apply(inst), objective)
        opt = optimal(inst, objective, guard).value
        yield SweepRow(index, inst, cost, opt, ratio_of(cost, opt))


# ---------------------------------------------------------------------------
# lower-bound replays


_REPLAY_TABLE = {
    "single-deterministic": ("single-lb-I", "single-lb-I-prime", Fraction(3)),
    "single-randomized": ("single-lb-I", "single-lb-I-prime", Fraction(2)),
    "two-deterministic": ("two-lb-I", "two-lb-I-prime", Fraction(3)),
    "two-randomized": ("two-lb-I", "two-lb-I-prime", Fraction(2)),
}
REPLAY_CONSTRUCTIONS = tuple(_REPLAY_TABLE)


@dataclass(frozen=True)
class ReplayReport:
    """One lower-bound argument executed as a runtime check.

    The base and shifted profiles differ only in agent 2's location
    (moved to 3), so the shifted run doubles as agent 2's misreport in
    the base profile.  A mechanism whose max-cost ratio on the shifted
    profile beats the bound must, if the argument is tight, hand agent 2
    a strictly profitable lie; sp_violation reports whether it actually
    does.  The margin is truthful cost minus post-misreport cost at the
    true location (positive means the lie pays).

    For the two-facility pairs, far_missing_* is the probability mass on
    outcomes that skip the far candidate; the argument needs that mass
    to vanish as the far point recedes, and the report states it for the
    finite far point used instead of asserting it is 0.
    """

    far: Optional[Fraction]
    bound: Fraction
    instance_base: Instance
    instance_shifted: Instance
    outcome_base: Outcome
    outcome_shifted: Outcome
    ratio_base: Ratio
    ratio_shifted: Ratio
    beats_bound: bool
    manipulator: int
    misreport: Fraction
    cost_truthful: Fraction
    cost_misreport: Fraction
    margin: Fraction
    sp_violation: bool
    far_missing_base: Optional[Fraction]
    far_missing_shifted: Optional[Fraction]


def _far_missing(outcome: Outcome, far_index: int) -> Fraction:
    selections, weights, denominator = outcome.scaled
    missing = sum(w for sel, w in zip(selections, weights) if far_index not in sel)
    return Fraction(missing, denominator)


def replay_lower_bound(
    construction: str,
    mechanism,
    eps,
    far=Fraction(1000),
) -> ReplayReport:
    """Run one lower-bound construction at concrete parameter values."""
    if construction not in _REPLAY_TABLE:
        raise ValueError(
            f"unknown construction {construction!r}; expected one of {REPLAY_CONSTRUCTIONS}"
        )
    base_name, shifted_name, bound = _REPLAY_TABLE[construction]
    two_facility = construction.startswith("two-")
    params = PaperConstruction(base_name, eps=eps, far=far)
    base = build_paper_instance(params)
    shifted = build_paper_instance(PaperConstruction(shifted_name, eps=eps, far=far))
    outcome_base = mechanism.apply(base)
    outcome_shifted = mechanism.apply(shifted)
    ratio_base = ratio_of(outcome_cost(base, outcome_base, "mc"), optimal(base, "mc").value)
    ratio_shifted = ratio_of(
        outcome_cost(shifted, outcome_shifted, "mc"), optimal(shifted, "mc").value
    )
    # agent 2's lie: with everyone else truthful, reporting 3 turns the
    # base profile into the shifted one
    cost_truthful = outcome_agent_cost(base, outcome_base, 2)
    cost_misreport = outcome_agent_cost(base, outcome_shifted, 2)
    margin = cost_truthful - cost_misreport
    beats = ratio_shifted < bound
    return ReplayReport(
        far=params.far if two_facility else None,
        bound=bound,
        instance_base=base,
        instance_shifted=shifted,
        outcome_base=outcome_base,
        outcome_shifted=outcome_shifted,
        ratio_base=ratio_base,
        ratio_shifted=ratio_shifted,
        beats_bound=beats,
        manipulator=2,
        misreport=Fraction(3),
        cost_truthful=cost_truthful,
        cost_misreport=cost_misreport,
        margin=margin,
        sp_violation=bool(beats and margin > 0),
        far_missing_base=_far_missing(outcome_base, 3) if two_facility else None,
        far_missing_shifted=_far_missing(outcome_shifted, 3) if two_facility else None,
    )
