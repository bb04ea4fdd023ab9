"""Exhaustive exact optimum over candidate multisets, and approximation
ratios of mechanisms against it.

With at most two facilities the search space is every multiset of k
candidate indices; enumeration is guarded so a pathological instance
fails loudly instead of hanging.  One table of multiset costs, on the core's
integer table (distance_rows), gives the optimum and evaluate's mechanism cost.

For two facilities on the line that table is built from the agents in
position order: each candidate of a pair serves one contiguous block of
them, split at the pair's midpoint (Hassin & Tamir 1991, "Improved
complexity bounds for location problems on the real line"), so prefix
and suffix folds of each candidate's column and one bisect per pair cost
every pair.  One facility needs no split, and a finite metric's points
have no order to form blocks in, so both cost each selection off the
columns one agent at a time (core.selection_cost).
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from math import comb
from operator import add
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


def _cost_table(instance: Instance, objective: str, guard: int) -> dict[tuple[int, ...], int]:
    """Each candidate multiset's objective value, an int over cost_scale,
    keyed by its sorted tuple, in candidate_multisets order."""
    validate_objective(objective)
    selections = candidate_multisets(instance, guard)
    if instance.k == 2 and instance.scaled is not None:
        return _line_pair_table(instance, objective, selections)
    columns = tuple(zip(*distance_rows(instance)))
    return {selection: selection_cost(columns, selection, objective) for selection in selections}


def _line_pair_table(instance: Instance, objective: str, selections) -> dict[tuple[int, int], int]:
    """_cost_table for two facilities on the line.  Of two candidates at
    y <= y', the one at y serves every agent x with 2x <= y + y' and the
    other the rest (an agent at 2x = y + y' is as near to both), so over
    the agents in position order each serves one contiguous block, split
    by one bisect_right.  prefixes[t][j - 1] and suffixes[t][j - 1] fold
    candidate j's distance_rows column over the t leftmost agents and over
    the rest: sums for sc, maxima for mc, with 0 for no agent, as no cost
    is below 0.  A pair joins its left candidate's prefix with its right
    candidate's suffix at the split, left and right by position."""
    agents, candidates, _ = instance.scaled
    order = sorted(range(1, instance.n + 1), key=lambda i: agents[i - 1])
    twice = [2 * agents[i - 1] for i in order]
    rows = distance_rows(instance, order)
    fold = add if objective == "sc" else max
    prefixes = [[0] * instance.m]
    for row in rows:
        prefixes.append(list(map(fold, prefixes[-1], row)))
    suffixes = [[0] * instance.m]
    for row in reversed(rows):
        suffixes.append(list(map(fold, suffixes[-1], row)))
    suffixes.reverse()
    table = {}
    for pair in selections:
        a, b = pair
        ya, yb = candidates[a - 1], candidates[b - 1]
        split = bisect_right(twice, ya + yb)
        left, right = pair if ya <= yb else (b, a)
        table[pair] = fold(prefixes[split][left - 1], suffixes[split][right - 1])
    return table


def optimal(instance: Instance, objective: str, guard: int = DEFAULT_GUARD) -> OptResult:
    """Minimize the objective over all multisets of k candidates
    (candidate_multisets, under the guard)."""
    table = _cost_table(instance, objective, guard)
    best_value = min(table.values())
    all_best = tuple(Deterministic(sel) for sel, value in table.items() if value == best_value)
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
    """outcome_cost, optimal(...).value and ratio_of, off one cost table:
    each selection of the outcome (k facilities) is read at its sorted tuple."""
    table = _cost_table(instance, objective, guard)
    selections, weights, denominator = outcome.scaled
    value = sum(w * table[tuple(sorted(sel))] for sel, w in zip(selections, weights))
    best, scale = min(table.values()), cost_scale(instance)
    cost, opt = Fraction(value, denominator * scale), Fraction(best, scale)
    # over a positive optimum, cost / opt with the scale cancelled
    quotient = Fraction(value, denominator * best) if best else ratio_of(cost, opt)
    return Evaluation(cost, opt, quotient)


def ratio(instance: Instance, mechanism, objective: str) -> Ratio:
    """evaluate's ratio for the mechanism's outcome, under DEFAULT_GUARD."""
    return evaluate(instance, mechanism.apply(instance), objective).ratio
