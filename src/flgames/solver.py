"""Exhaustive exact optimum over candidate multisets, and approximation
ratios of mechanisms against it.

With at most two facilities the search space is every multiset of k
candidate indices; enumeration is guarded so a pathological instance
fails loudly instead of hanging.  Each multiset is costed on the core's
integer table (distance_rows); only the optimal value becomes a Fraction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Union

from .core import Deterministic, Instance, cost_scale, distance_rows, outcome_cost
from .core import selection_cost, validate_objective

DEFAULT_GUARD = 10**7


class GuardExceeded(RuntimeError):
    """An enumeration would exceed its configured budget."""


class _InfiniteRatio:
    """Marker for cost > 0 against an optimum of 0.  Compares greater
    than every Fraction and equal only to itself."""

    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, _InfiniteRatio)

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, _InfiniteRatio)

    def __gt__(self, other):
        return not isinstance(other, _InfiniteRatio)

    def __ge__(self, other):
        return True

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


def optimal(instance: Instance, objective: str, guard: int = DEFAULT_GUARD) -> OptResult:
    """Minimize the objective over all multisets of k candidates
    (candidate_multisets, under the guard)."""
    validate_objective(objective)
    selections = candidate_multisets(instance, guard)
    columns = tuple(zip(*distance_rows(instance)))
    best_value = None
    argmins: list[tuple[int, ...]] = []
    for selection in selections:
        value = selection_cost(columns, selection, objective)
        if best_value is None or value < best_value:
            best_value = value
            argmins = [selection]
        elif value == best_value:
            argmins.append(selection)
    all_best = tuple(Deterministic(sel) for sel in argmins)
    return OptResult(Fraction(best_value, cost_scale(instance)), all_best[0], all_best)


def ratio_of(cost: Fraction, opt: Fraction) -> Ratio:
    """Ratio convention: 0/0 is 1 (the mechanism is optimal), anything
    positive over 0 is the infinite marker."""
    if opt == 0:
        return Fraction(1) if cost == 0 else INFINITE_RATIO
    return cost / opt


def ratio(instance: Instance, mechanism, objective: str, guard: int = DEFAULT_GUARD) -> Ratio:
    """Mechanism cost (expected, if randomized) divided by the exact
    optimum for the same objective."""
    cost = outcome_cost(instance, mechanism.apply(instance), objective)
    opt = optimal(instance, objective, guard).value
    return ratio_of(cost, opt)
