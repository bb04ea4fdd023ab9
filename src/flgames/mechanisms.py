"""Mechanisms: rules mapping an instance to an outcome.

Tie-breaking is part of each rule's definition and is exact:

  * leftmost:     candidate closest to the leftmost agent, ties to the
                  smaller coordinate (then smaller index)
  * dictator:i    candidate closest to agent i, ties to the smaller index
  * two-extremes: candidate closest to the leftmost agent with ties to
                  the LARGER coordinate, plus candidate closest to the
                  rightmost agent with ties to the SMALLER coordinate
                  (the asymmetric tie rules are what keep the rule group
                  strategyproof), reported left facility first
  * median:       candidate closest to the left median agent (sorted
                  rank ceil(n/2)), ties to the smaller coordinate
  * rd:           random dictatorship; each agent votes for its closest
                  candidate (ties to the smaller index), a candidate's
                  probability is its share of the votes
  * wpv:          weighted percentile voting; the agent of sorted rank
                  i gets probability weights[i-1] for its closest
                  candidate (ties to the smaller coordinate)
  * mean:         candidate closest to the mean agent coordinate, ties
                  to the smaller coordinate; a deliberately manipulable
                  strawman used to exercise the deviation search

Coordinate ties between candidates at the same location fall back to
the smaller index; the selected location is unaffected.

Every rule decides on Python ints, and none of them rescales.  A line
instance is stored as its agents and candidates as ints over one common
denominator (Instance.scaled), computed once when it is validated; the
deviation search builds every profile it tries in that form directly,
over its own scale; a finite metric keeps its distance matrix scaled the
same way.  Multiplying by
one positive constant keeps every difference, sum and order comparison,
so each decision, tie rules included, is exactly the one the rational
definition gives.  Outcomes stay exact: a rule builds each selection
with Deterministic._trusted, since it is valid by construction, and a
lottery as ints, votes over n or weights over their common denominator,
which Randomized._canonical keeps as the lottery's only form
(Randomized.scaled) once it has divided out their common factor.

One table, RULES, gives each kind its rule, the number of facilities it
opens, whether it is defined on the line only, and its breakpoints.
MechanismSpec reads it when a spec is built, so parse_mechanism rejects
unknown names, in apply, which checks the instance's space and k before
calling the rule, and in breakpoints.  The specs are the public form of
the rules.

The breakpoints column serves the deviation search on the line
(MechanismSpec.breakpoints): for each coalition member, the doubled
points at which its report can change the outcome.  Every rule but mean
reads only the candidates nearest some reports or their order
statistics, so its breakpoints are the adjacent distinct candidate
midpoints, for every member (for dictator:i, member i only).  mean moves
them by the other agents' sum for a single agent, and declares None,
every report tried, for a larger coalition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .core import (
    Deterministic,
    Instance,
    Line,
    Outcome,
    Randomized,
    distance_rows,
    parse_scalar,
    scale_to_integers,
)


class MechanismMismatch(ValueError):
    """Mechanism applied to an instance it is not defined for."""


def _closest_on_line(candidates: tuple[int, ...], point: int, tie: str) -> int:
    """1-based index of the candidate closest to point.

    tie "low" prefers the smaller coordinate, "high" the larger; equal
    coordinates fall back to the smaller index.
    """
    d = min(abs(c - point) for c in candidates)
    first, second = (point - d, point + d) if tie == "low" else (point + d, point - d)
    return (candidates.index(first) if first in candidates else candidates.index(second)) + 1


# ---------------------------------------------------------------------------
# the rules; each takes (instance, spec) once apply has checked its shape


def _leftmost(instance: Instance, spec: MechanismSpec) -> Deterministic:
    agents, candidates, _ = instance.scaled
    return Deterministic._trusted((_closest_on_line(candidates, min(agents), "low"),))


def _dictator(instance: Instance, spec: MechanismSpec) -> Deterministic:
    if spec.dictator > instance.n:
        raise MechanismMismatch(f"dictator index {spec.dictator} out of range 1..{instance.n}")
    row = distance_rows(instance, (spec.dictator,))[0]
    return Deterministic._trusted((row.index(min(row)) + 1,))


def _two_extremes(instance: Instance, spec: MechanismSpec) -> Deterministic:
    agents, candidates, _ = instance.scaled
    left = _closest_on_line(candidates, min(agents), "high")
    right = _closest_on_line(candidates, max(agents), "low")
    return Deterministic._trusted((left, right))


def _median(instance: Instance, spec: MechanismSpec) -> Deterministic:
    agents, candidates, _ = instance.scaled
    # left median: rank ceil(n/2), so (1, 5, 9, 10) has median 5
    pivot = sorted(agents)[(len(agents) + 1) // 2 - 1]
    return Deterministic._trusted((_closest_on_line(candidates, pivot, "low"),))


def _lottery(mass: list[int], denominator: int) -> Randomized:
    """The lottery giving candidate j probability mass[j - 1] /
    denominator, from nonnegative int masses that sum to the
    denominator; taken in index order, the nonzero entries are the
    sorted, distinct selections _canonical needs."""
    selections, weights = [], []
    for j, w in enumerate(mass, 1):
        if w:
            selections.append((j,))
            weights.append(w)
    return Randomized._canonical(tuple(selections), tuple(weights), denominator)


def _random_dictatorship(instance: Instance, spec: MechanismSpec) -> Randomized:
    # each agent votes for its closest candidate, ties to the smaller index
    votes = [0] * instance.m
    if instance.scaled is None:
        for row in distance_rows(instance):
            votes[row.index(min(row))] += 1
    else:
        # on the line, distance_rows' rows made one at a time, with no
        # table: rd is the search's hottest rule, and this is worth about
        # 4% of unilateral-search's ops (BENCH_7252f92.json)
        agents, candidates, _ = instance.scaled
        for x in agents:
            row = [abs(c - x) for c in candidates]
            votes[row.index(min(row))] += 1
    return _lottery(votes, instance.n)


def _wpv(instance: Instance, spec: MechanismSpec) -> Randomized:
    if len(spec.weights) != instance.n:
        raise MechanismMismatch(f"need {instance.n} weights, got {len(spec.weights)}")
    agents, candidates, _ = instance.scaled
    weights, denominator = spec.scaled
    mass = [0] * instance.m
    for x, w in zip(sorted(agents), weights):
        if w:
            mass[_closest_on_line(candidates, x, "low") - 1] += w
    return _lottery(mass, denominator)


def _mean(instance: Instance, spec: MechanismSpec) -> Deterministic:
    agents, candidates, _ = instance.scaled
    # |c - S/n| ranks candidates as |c*n - S| does
    n = len(agents)
    return Deterministic._trusted(
        (_closest_on_line([c * n for c in candidates], sum(agents), "low"),)
    )


# ---------------------------------------------------------------------------
# the breakpoints; each takes (spec, agents, candidates, coalition), see
# MechanismSpec.breakpoints


def _midpoints(candidates) -> list[int]:
    """The doubled midpoints of adjacent distinct candidate coordinates,
    ascending: nearest-candidate, either tie rule, is constant between
    two of them and at each."""
    ys = sorted(set(candidates))
    return [a + b for a, b in zip(ys, ys[1:])]


def _nearest_breakpoints(spec, agents, candidates, coalition) -> list:
    # the rule reads the nearest candidate to order statistics of the
    # reports (to each report, for rd); the k-th smallest report lies in the
    # k-th smallest of the reports' midpoint cells, so fixing every member's
    # cell fixes the outcome, wherever the other agents are
    return [_midpoints(candidates)] * len(coalition)


def _dictator_breakpoints(spec, agents, candidates, coalition) -> list:
    return [_midpoints(candidates) if i == spec.dictator else [] for i in coalition]


def _mean_breakpoints(spec, agents, candidates, coalition) -> Optional[list]:
    # the sum S_-i + r crosses n times a midpoint at r = n * mid - S_-i; two
    # members' reports move one sum, so their cells are not a product
    if len(coalition) > 1:
        return None
    (i,) = coalition
    n, others = len(agents), 2 * (sum(agents) - agents[i - 1])
    return [[n * mid - others for mid in _midpoints(candidates)]]


# kind -> (rule, facilities it opens, defined on the line only, breakpoints)
RULES = {
    "leftmost": (_leftmost, 1, True, _nearest_breakpoints),
    "dictator": (_dictator, 1, False, _dictator_breakpoints),
    "two-extremes": (_two_extremes, 2, True, _nearest_breakpoints),
    "median": (_median, 1, True, _nearest_breakpoints),
    "rd": (_random_dictatorship, 1, False, _nearest_breakpoints),
    "wpv": (_wpv, 1, True, _nearest_breakpoints),
    "mean": (_mean, 1, True, _mean_breakpoints),
}


# ---------------------------------------------------------------------------
# named specs (the CLI-facing form: "leftmost", "dictator:2", "wpv:1/2,1/2")


@dataclass(frozen=True)
class MechanismSpec:
    """A rule by name, with the one argument its kind takes (dictator's
    index, wpv's weights) and no other.

    For wpv, `scaled` holds the weights as ints over their common
    denominator, (int weights, denominator), computed once here; the
    weights are nonnegative and sum to 1, so the ints sum to the
    denominator.  It is None for every other kind and takes no part in
    equality, hashing or repr.
    """

    kind: str
    dictator: Optional[int] = None
    weights: Optional[tuple[Fraction, ...]] = None
    scaled: Optional[tuple[tuple[int, ...], int]] = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        if self.kind not in RULES:
            raise MechanismMismatch(f"unknown mechanism {self.kind!r}")
        if self.kind != "dictator" and self.dictator is not None:
            raise MechanismMismatch(f"mechanism {self.kind!r} takes no dictator index")
        if self.kind != "wpv" and self.weights is not None:
            raise MechanismMismatch(f"mechanism {self.kind!r} takes no weights")
        if self.kind == "dictator":
            if type(self.dictator) is not int or self.dictator < 1:
                raise MechanismMismatch("dictator needs a 1-based agent index")
        elif self.kind == "wpv":
            if not self.weights:
                raise MechanismMismatch("wpv needs a weight vector")
            weights = tuple(parse_scalar(w) for w in self.weights)
            if any(w < 0 for w in weights) or sum(weights) != 1:
                raise MechanismMismatch("weights must be nonnegative and sum to 1")
            denominator, ints = scale_to_integers(weights)
            self.__dict__.update(weights=weights, scaled=(tuple(ints), denominator))

    def label(self) -> str:
        if self.kind == "dictator":
            return f"dictator:{self.dictator}"
        if self.kind == "wpv":
            return "wpv:" + ",".join(str(w) for w in self.weights)
        return self.kind

    def breakpoints(self, agents, candidates, coalition) -> Optional[list]:
        """Per member of the coalition (1-based indices), the sorted
        doubled ints at which that member's report can change the rule's
        outcome on the line, or None if every report must be tried.

        The breakpoints cut the line into cells: the open gaps between
        them and each breakpoint on its own.  While every other agent
        reports its location, the outcome is the same for all joint
        reports that put each member in the same cell.  agents and
        candidates are the true locations as ints over one scale."""
        return RULES[self.kind][3](self, agents, candidates, coalition)

    def apply(self, instance: Instance) -> Outcome:
        name = self.kind
        rule, k, line_only, _ = RULES[name]
        if line_only and not isinstance(instance.space, Line):
            raise MechanismMismatch(f"{name} is defined on the line only")
        if instance.k != k:
            raise MechanismMismatch(
                f"{name} opens {k} facility(ies), instance asks for {instance.k}"
            )
        return rule(instance, self)


LEFTMOST = MechanismSpec("leftmost")
TWO_EXTREMES = MechanismSpec("two-extremes")
MEDIAN = MechanismSpec("median")
RD = MechanismSpec("rd")
MEAN = MechanismSpec("mean")


def dictator_spec(i: int) -> MechanismSpec:
    return MechanismSpec("dictator", dictator=i)


def wpv_spec(weights) -> MechanismSpec:
    return MechanismSpec("wpv", weights=tuple(weights))


def parse_mechanism(text: str) -> MechanismSpec:
    """Parse a mechanism name as written on the command line."""
    name, _, arg = text.partition(":")
    if name == "dictator":
        try:
            return dictator_spec(int(arg))
        except ValueError:
            raise MechanismMismatch(f"bad dictator index {arg!r}") from None
    if name == "wpv":
        try:
            weights = [parse_scalar(w) for w in arg.split(",")]
        except ValueError as exc:
            raise MechanismMismatch(f"bad wpv weights {arg!r}: {exc}") from None
        return wpv_spec(weights)
    if arg:
        raise MechanismMismatch(f"mechanism {name!r} takes no argument")
    return MechanismSpec(name)
