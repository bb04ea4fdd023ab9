"""Exhaustive exact optimum over candidate multisets, and approximation
ratios of mechanisms against it.

With at most two facilities the search space is every multiset of k
candidate indices; its count is guarded so a pathological instance
fails loudly instead of hanging.  optimal lists every tied argmin, so it
costs each multiset once, in one table.  On a finite metric that table
reads the core's integer table (distance_rows) one agent at a time
(core.selection_cost).

On the line the agents are read in position order instead: each
candidate of a pair serves one contiguous block of them, split at the
pair's midpoint (Hassin & Tamir 1991, "Improved complexity bounds for
location problems on the real line"), so a selection costs one bisect
and its blocks' end agents (mc) or prefix sums (sc), and the optimum is
the best split of the agents into two blocks, with no pair costed
(_LineBlocks).  evaluate reads an outcome's cost and the optimum off
those blocks and builds no table.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from math import comb
from operator import add, sub
from typing import NamedTuple, Union

from .core import Deterministic, Instance, Outcome, cost_scale, distance_rows
from .core import selection_cost, validate_objective

DEFAULT_GUARD = 10**7


class GuardExceeded(RuntimeError):
    """An enumeration would exceed its configured budget."""


@total_ordering
class _InfiniteRatio:
    """Marker for cost > 0 against an optimum of 0.  Compares greater
    than every Fraction and equal only to itself."""

    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, _InfiniteRatio)

    def __lt__(self, other):
        return False

    def __hash__(self):
        return hash("flgames-infinite-ratio")

    def __repr__(self):
        return "INFINITE_RATIO"

    def __str__(self):
        return "inf"


INFINITE_RATIO = _InfiniteRatio()

Ratio = Union[Fraction, _InfiniteRatio]


@dataclass(frozen=True)
class OptResult:
    """Exact optimum: its value, one optimal selection, and every optimal
    selection in canonical (sorted-index) form, lexicographically ordered."""

    value: Fraction
    best: Deterministic
    all_best: tuple[Deterministic, ...]


def candidate_multisets(instance: Instance, guard: int = DEFAULT_GUARD):
    """Every multiset of k candidate indices, as a sorted tuple, in
    lexicographic order.  Raises GuardExceeded, before building any, if
    their number comb(m + k - 1, k) exceeds the guard."""
    m, k = instance.m, instance.k
    count = comb(m + k - 1, k)
    if count > guard:
        raise GuardExceeded(f"{count} candidate multisets exceed the guard of {guard}")
    return itertools.combinations_with_replacement(range(1, m + 1), k)


def _cost_table(instance: Instance, objective: str, selections) -> dict[tuple[int, ...], int]:
    """Each of the selections' objective value, an int over cost_scale,
    keyed by its sorted tuple, in the selections' order."""
    if instance.scaled is not None:
        cost = _LineBlocks(instance, objective).cost
        return {selection: cost(selection) for selection in selections}
    columns = tuple(zip(*distance_rows(instance)))
    return {selection: selection_cost(columns, selection, objective) for selection in selections}


def _span(doubled: list[int], a: int, b: int) -> int:
    """The least mc of one candidate, of those at the sorted doubled
    positions, serving a block with end agents a <= b: max(y - a, b - y)
    = ((b - a) + |2y - a - b|) / 2, an int, as both terms have the parity
    of a + b, and least at the candidate nearest the block's midpoint."""
    middle = a + b
    t = bisect_left(doubled, middle)
    if t == len(doubled):
        gap = middle - doubled[-1]
    elif t and middle - doubled[t - 1] < doubled[t] - middle:
        gap = middle - doubled[t - 1]
    else:
        gap = doubled[t] - middle
    return (b - a + gap) // 2


class _LineBlocks:
    """A line instance's agents in position order, costed block by block.

    Of two candidates at y <= y', the one at y serves every agent x with
    2x <= y + y' and the other the rest (an agent at 2x = y + y' is as
    near to both), so over the agents in position order each serves one
    contiguous block, split by one bisect_right over the doubled agents.
    A block's farthest agent from any y is one of its end agents a <= b,
    at max(y - a, b - y), so an mc cost reads at most four distances.
    For sc, totals[j - 1] sums candidate j's distances over every agent;
    with two facilities prefixes[s][j - 1] sums them over the s leftmost,
    and the rest is the total less that prefix.  Values are ints over
    cost_scale."""

    def __init__(self, instance: Instance, objective: str):
        agents, self.candidates, _ = instance.scaled
        self.k, self.sc = instance.k, objective == "sc"
        self.agents = sorted(agents)
        self.twice_agents = [2 * x for x in self.agents]
        if not self.sc:
            self.twice_candidates = sorted(2 * y for y in self.candidates)
        elif self.k == 1:
            self.totals = [sum([abs(y - x) for x in agents]) for y in self.candidates]
        else:
            prefix = [0] * instance.m
            self.prefixes = [prefix]
            for x in self.agents:
                prefix = list(map(add, prefix, [abs(y - x) for y in self.candidates]))
                self.prefixes.append(prefix)
            self.totals = prefix

    def cost(self, selection: tuple[int, ...]) -> int:
        """The objective value of a selection of one or two candidate
        indices, in either order; one facility is one block, every agent."""
        a, b = selection[0], selection[-1]
        if self.sc and a == b:
            return self.totals[a - 1]
        ya, yb = self.candidates[a - 1], self.candidates[b - 1]
        if ya > yb:
            a, b, ya, yb = b, a, yb, ya
        split = bisect_right(self.twice_agents, ya + yb)
        if self.sc:
            prefix = self.prefixes[split]
            return prefix[a - 1] + self.totals[b - 1] - prefix[b - 1]
        xs, value = self.agents, 0
        if split:
            value = max(ya - xs[0], xs[split - 1] - ya)
        if split < len(xs):
            value = max(value, yb - xs[split], xs[-1] - yb)
        return value

    def optimum(self) -> int:
        """The least objective value over every multiset of k candidates,
        with no multiset costed.  For k = 1 that is the best candidate for
        every agent.  For k = 2 it is the least, over splits s = 0..n of
        the agents in position order, of the best candidate for the s
        leftmost agents joined (sum for sc, max for mc) with the best for
        the rest.

        That is exact.  Give the left block of any split to one candidate
        and the right block to another: each agent pays at least its
        distance to the nearer of the two, and sum and max are monotone,
        so no split costs less than that pair does.  The pair's own
        midpoint split attains the pair's cost.  So the least over splits
        is the least over pairs."""
        if self.sc:
            if self.k == 1:
                return min(self.totals)
            totals = self.totals
            return min(min(prefix) + min(map(sub, totals, prefix)) for prefix in self.prefixes)
        xs, doubled = self.agents, self.twice_candidates
        if self.k == 1:
            return _span(doubled, xs[0], xs[-1])
        lefts = [0] + [_span(doubled, xs[0], x) for x in xs]
        rights = [_span(doubled, x, xs[-1]) for x in xs] + [0]
        return min(map(max, lefts, rights))


def optimal(instance: Instance, objective: str, guard: int = DEFAULT_GUARD) -> OptResult:
    """Minimize the objective over all multisets of k candidates
    (candidate_multisets, under the guard), every tied argmin kept."""
    validate_objective(objective)
    table = _cost_table(instance, objective, candidate_multisets(instance, guard))
    best_value = min(table.values())
    all_best = tuple(Deterministic._trusted(sel) for sel in table if table[sel] == best_value)
    return OptResult(Fraction(best_value, cost_scale(instance)), all_best[0], all_best)


def ratio_of(cost: Fraction, opt: Fraction) -> Ratio:
    """Ratio convention: 0/0 is 1 (the mechanism is optimal), anything
    positive over 0 is the infinite marker."""
    if opt == 0:
        return Fraction(1) if cost == 0 else INFINITE_RATIO
    return cost / opt


class Evaluation(NamedTuple):
    """An outcome's objective value, the exact optimum, and their ratio."""

    cost: Fraction
    optimum: Fraction
    ratio: Ratio


def evaluate(
    instance: Instance, outcome: Outcome, objective: str, guard: int = DEFAULT_GUARD
) -> Evaluation:
    """outcome_cost, optimal(...).value and ratio_of, under the same guard.
    On the line both are read off the agents' blocks (_LineBlocks) and no
    multiset is costed; on a finite metric, off one table of multiset
    costs, each selection of the outcome read at its sorted tuple.  Raises
    ValueError for a selection that is not k indices in 1..m."""
    validate_objective(objective)
    multisets = candidate_multisets(instance, guard)
    selections, weights, denominator = outcome.scaled
    k, m = instance.k, instance.m
    for selection in selections:
        if len(selection) != k or max(selection) > m:
            raise ValueError(f"selection {selection} does not hold k={k} candidate indices in 1..{m}")
    if instance.scaled is None:
        table = _cost_table(instance, objective, multisets)
        value = sum(w * table[tuple(sorted(sel))] for sel, w in zip(selections, weights))
        best = min(table.values())
    else:
        blocks = _LineBlocks(instance, objective)
        value = sum(w * blocks.cost(sel) for sel, w in zip(selections, weights))
        best = blocks.optimum()
    scale = cost_scale(instance)
    cost, opt = Fraction(value, denominator * scale), Fraction(best, scale)
    # over a positive optimum, cost / opt with the scale cancelled
    quotient = Fraction(value, denominator * best) if best else ratio_of(cost, opt)
    return Evaluation(cost, opt, quotient)


def ratio(instance: Instance, mechanism, objective: str) -> Ratio:
    """evaluate's ratio for the mechanism's outcome, under DEFAULT_GUARD."""
    return evaluate(instance, mechanism.apply(instance), objective).ratio
