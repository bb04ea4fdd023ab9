"""Exhaustive exact optimum over candidate multisets, and approximation
ratios of mechanisms against it.

With at most two facilities the search space is every multiset of k
candidate indices; enumeration is guarded so a pathological instance
fails loudly instead of hanging.  One table of multiset costs, on the core's
integer table (distance_rows), gives the optimum and evaluate's mechanism cost.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from math import comb
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
    columns = tuple(zip(*distance_rows(instance)))
    return {selection: selection_cost(columns, selection, objective) for selection in selections}


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
    scale = cost_scale(instance)
    cost, opt = Fraction(value, denominator * scale), Fraction(min(table.values()), scale)
    return Evaluation(cost, opt, ratio_of(cost, opt))


def ratio(instance: Instance, mechanism, objective: str) -> Ratio:
    """evaluate's ratio for the mechanism's outcome, under DEFAULT_GUARD."""
    return evaluate(instance, mechanism.apply(instance), objective).ratio
