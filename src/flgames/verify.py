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

On the line most joint reports need no rule call.  With the other
agents reporting their locations, every line rule's outcome is
piecewise-constant in a coalition member's report, changing only at
finitely many points (Moulin 1980, "On strategy-proofness and
single-peakedness"; Schummer & Vohra 2002, "Strategy-proof location on
a network").  A rule that declares those points for each member
(MechanismSpec.breakpoints) cuts the line, per member, into cells: the
open gaps between the points and each point on its own, such that all
joint reports putting every member in the same cell have one outcome.
The search then tries, for each member, only the first of its options
in each cell, ascending.  This returns the same witness: replacing each
member's report in the first witness by the first option of its cell
gives a profile with the same outcome, so a witness too, and no later
in scan order, so the first witness itself.  It is therefore a profile
of first options, and the reduced scan meets it after exactly the
profiles of first options the full scan meets before it.  A clean
result still covers every joint report the count names; only the rule
calls fall.  A rule that declares nothing, and every rule on a finite
metric, is handed every joint report.

The search costs every outcome on the core's integer cost table of the
true agents (distance_rows).  For a deterministic rule it first cuts
every coalition for which no k-multiset of candidates lowers every
member's cost strictly.  This is exact: whatever the members report,
the rule answers with some k-multiset, so such a coalition cannot hold
a witness, and the scan order and witnesses are unchanged.  For the
rest, a shifted outcome is a witness exactly when its selection, in the
order the rule reports it, is one of those multisets in some order.
Lotteries (rd, wpv) are not cut, because a mix of selections can help
every member in expectation when no single selection does; only a
coalition with a member already at cost 0 is skipped.  A lottery's
member cost is an int over the lottery's denominator, read through its
int form (Randomized.scaled) from a per-search lookup of the member's
cost for each selection, filled off the same table the first time a
selection appears, and is compared with the truthful one by
cross-multiplication, so no Fraction is built until a witness is found;
a shifted lottery equal to the truthful one fails the strict test, so
there is no separate equality check.

Every profile the search tries reaches the rule in the form an
instance stores (Instance._trusted).  On the line the misreport set is
built on ints: the instance's int form is multiplied by
max(grid_points - 1, 1), which every grid step divides, and each
profile is a tuple of those ints beside the candidates' ints and that
one scale.  Multiplying every location by one positive scale keeps
every difference, sum and order comparison, so each decision is the
one the Fractions give; a witness's misreports are the only locations
built as Fractions.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from operator import mul
from typing import Optional

from .core import (
    Deterministic,
    Instance,
    Outcome,
    distance_rows,
    outcome_agent_cost,
    permute_agents,
    row_cost,
    validate_objective,
)
from .instances import PaperConstruction, RandomFamily, build_paper_instance, random_instance
from .solver import (
    DEFAULT_GUARD,
    GuardExceeded,
    Ratio,
    candidate_multisets,
    evaluate,
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

    The set is counted before any point is built.  Raises ValueError
    for a max_coalition outside 1..n, and GuardExceeded when
    joint_misreport_count(n, len(set) - 1, max_coalition) exceeds the
    guard, so it refuses exactly what find_group_deviation refuses."""
    points, stored = _misreports(instance, grid_points, guard, max_coalition)
    if instance.scaled is None:
        return points
    return tuple(Fraction(v, stored[2]) for v in points)


def _misreports(instance: Instance, grid_points: int, guard: int, max_coalition: int):
    """misreport_set's checks, then its reports and the locations they go
    with, in the form an instance stores (Instance._trusted): on the line
    ascending ints beside the int form rescaled by max(grid_points - 1, 1),
    which every grid step divides; on a finite metric the points beside
    the instance's (agents, candidates)."""
    size, layout = _misreport_count(instance, grid_points)
    total = joint_misreport_count(instance.n, size - 1, max_coalition)
    if total > guard:
        raise GuardExceeded(f"{total} joint misreports exceed the guard of {guard}")
    if layout is None:
        return tuple(range(1, size + 1)), instance.points
    locations, start, step, stored = layout
    return _line_grid(locations, start, step, grid_points), stored


def _misreport_count(instance: Instance, grid_points: int):
    """len(misreport_set(instance, grid_points)), counted without building
    a point, and what _misreports builds the set from: None on a finite
    metric; on the line the locations as ints, the grid's start and step,
    and the int form, all rescaled by max(grid_points - 1, 1)."""
    if type(grid_points) is not int or grid_points < 0:
        raise ValueError(f"grid_points must be nonnegative, got {grid_points}")
    if instance.scaled is None:
        return instance.space.size, None
    agents, candidates, scale = instance.scaled
    factor = max(grid_points - 1, 1)
    agents = tuple(v * factor for v in agents)
    candidates = tuple(v * factor for v in candidates)
    scale *= factor
    locations = set(agents + candidates)
    lo, hi = min(locations), max(locations)
    span = max(hi - lo, scale)
    start = lo - span
    step = (hi - lo + 2 * span) // factor
    # each location's offset from start is in [span, (grid_points - 1) * step],
    # or in (0, step) for under 2 points: on the grid iff step divides it
    size = grid_points + sum(1 for v in locations if (v - start) % step)
    return size, (locations, start, step, (agents, candidates, scale))


def _line_grid(locations: set, start: int, step: int, grid_points: int) -> tuple:
    """The line's misreport set as ascending ints: the locations and the
    grid of grid_points points from start on, step apart."""
    return tuple(sorted(locations.union(range(start, start + grid_points * step, step))))


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


def _cell_firsts(options: tuple[int, ...], breakpoints) -> list[int]:
    """Indices, ascending, of the first of the ascending int options in
    each cell that the doubled breakpoints cut the line into: the gaps
    below, between and above them, and each breakpoint on its own.  An
    empty cell has none."""
    starts = {0}
    for b in breakpoints:
        starts.add(bisect_left(options, -(-b // 2)))  # first v with 2v >= b
        starts.add(bisect_right(options, b // 2))  # first v with 2v > b
    return sorted(d for d in starts if d < len(options))


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
    size-ascending scan finds first.  Each agent tries every point of
    misreport_set(instance, grid_points, guard, max_coalition) but its
    own location.  Raises what misreport_set raises, before building the
    set, and then, for a deterministic rule, GuardExceeded if the
    candidate multisets the cut enumerates exceed the guard.
    """
    n = instance.n
    points, stored = _misreports(instance, grid_points, guard, max_coalition)
    agents, candidates = stored[:2]
    options = [points[:j] + points[j + 1 :] for j in map(points.index, agents)]
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
    # a rule that declares no breakpoints, or any rule off the line, is
    # handed every joint report
    declared = getattr(mechanism, "breakpoints", None) if instance.scaled is not None else None
    # every agent outside the coalition keeps its one truthful report, so
    # product() yields whole profiles, the last member's report fastest;
    # each arrives with the rest of the stored form, `carried`
    truthful_choices = [(x,) for x in agents]
    carried = [itertools.repeat(x) for x in stored[1:]]
    for size in range(1, max_coalition + 1):
        for coalition in itertools.combinations(range(1, n + 1), size):
            if deterministic:
                winning = set.intersection(*(gains[i - 1] for i in coalition))
                if not winning:
                    continue
            elif any(base_costs[i - 1] == 0 for i in coalition):
                # a member already at cost 0 can never strictly improve
                continue
            members = [options[i - 1] for i in coalition]
            cells = declared(agents, candidates, coalition) if declared else None
            if cells is not None:
                # each member's first option in each of its cells
                members = [
                    tuple(map(o.__getitem__, _cell_firsts(o, b))) for o, b in zip(members, cells)
                ]
            choices = truthful_choices[:]
            for i, member in zip(coalition, members):
                choices[i - 1] = member
            profiles = itertools.product(*choices)
            for form in zip(profiles, *carried):
                profile = Instance._trusted(instance.space, instance.k, form)
                shifted = mechanism.apply(profile)
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
                    tuple(profile.agent(i) for i in coalition),
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
        yield SweepRow(index, inst, *evaluate(inst, mechanism.apply(inst), objective, guard))


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
    guard: int = DEFAULT_GUARD,
) -> ReplayReport:
    """Run one lower-bound construction at concrete parameter values under the guard."""
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
    ratio_shifted = evaluate(shifted, outcome_shifted, "mc", guard).ratio
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
        ratio_base=evaluate(base, outcome_base, "mc", guard).ratio,
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
