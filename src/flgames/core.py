"""Facility location games with candidate locations.

Agents report points of a space, a mechanism selects facilities from a
finite candidate set, and each agent pays its distance to the nearest
selected facility.  Every quantity here (coordinates, distances,
probabilities, costs) is an exact rational, so tie-breaking is decided
exactly and near-degenerate instances (tiny eps, huge far points) lose
nothing to rounding.

Conventions:
  * agent, candidate, and metric-point indices are 1-based
  * a point on the line is a Fraction; a point of a finite metric space
    is an index into its distance matrix
  * objectives are "sc" (social cost, the sum) and "mc" (maximum cost)

One routine checks a finite metric's matrix and closes it under shortest
paths: FiniteMetric raises at its first shortcut, _closure keeps it closed.

Every cost is read off one table, distance_rows: each agent's distance
to each candidate as an int over the instance's one positive scale.
outcome_cost, outcome_agent_cost and the solver's optimum return
Fraction(int, scale), the exact value; distance() is the plain rational
definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence, Union

OBJECTIVES = ("sc", "mc")


def parse_scalar(value) -> Fraction:
    """Parse an exact number.

    Accepts Fraction, int, or a string in decimal ("0.9") or rational
    ("9/10") form.  Floats are rejected: binary floating point cannot
    represent most of these values exactly.  So are bools, though they
    are ints: True is a truth value, not the number 1.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"not an exact number: {value!r}") from None
    raise TypeError(f"cannot parse {type(value).__name__} exactly; use str, int, or Fraction")


def scale_to_integers(values) -> tuple[int, list[int]]:
    """The common denominator of exact rationals and their numerators over it.

    Scaling by a positive constant keeps every sum, difference and order
    comparison, so code that only compares distances can run on these
    Python ints and decide exactly as it would on the Fractions.
    """
    values = list(values)
    scale = lcm(*{v.denominator for v in values})
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def validate_objective(objective: str) -> str:
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")
    return objective


# ---------------------------------------------------------------------------
# spaces


@dataclass(frozen=True)
class Line:
    """The real line.  Points are exact rationals."""


LINE = Line()


def _close(matrix):
    """Check a matrix (nonempty, square, zero diagonal, symmetric and
    nonnegative) and close its scale_to_integers ints in place with
    Floyd-Warshall.  Returns (rows, scale, closed ints, the first 0-based
    (i, mid, j) whose d(i, j) the loop shortened, or None); nothing changes
    before that, so it is the first triangle violation in (mid, i, j) order."""
    rows = tuple(tuple(parse_scalar(entry) for entry in row) for row in matrix)
    p = len(rows)
    if p == 0:
        raise ValueError("empty distance matrix")
    if any(len(row) != p for row in rows):
        raise ValueError("distance matrix is not square")
    scale, flat = scale_to_integers(entry for row in rows for entry in row)
    dist = [flat[i * p : (i + 1) * p] for i in range(p)]
    for i in range(p):
        if dist[i][i] != 0:
            raise ValueError(f"nonzero self-distance at point {i + 1}")
        for j in range(i + 1, p):
            if dist[i][j] != dist[j][i]:
                raise ValueError(f"asymmetric distances between points {i + 1} and {j + 1}")
            if dist[i][j] < 0:
                raise ValueError(f"negative distance between points {i + 1} and {j + 1}")
    shortcut = None
    for mid in range(p):
        row_mid = dist[mid]
        for i in range(p):
            via = dist[i][mid]
            row_i = dist[i]
            for j in range(p):
                relaxed = via + row_mid[j]
                if relaxed < row_i[j]:
                    row_i[j] = relaxed
                    shortcut = shortcut or (i, mid, j)
    return rows, scale, dist, shortcut


@dataclass(frozen=True)
class FiniteMetric:
    """A finite metric space given by an explicit distance matrix.

    The matrix must be square and symmetric with a zero diagonal,
    nonnegative entries, and must satisfy the triangle inequality.  All
    of this is checked at construction, so downstream code can rely on
    any FiniteMetric value being a genuine (pseudo)metric.
    """

    matrix: tuple[tuple[Fraction, ...], ...]
    # the same matrix as ints over one common denominator, `scale`;
    # mechanisms and costs read it
    scaled: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    scale: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        rows, scale, dist, shortcut = _close(self.matrix)
        if shortcut is not None:
            i, mid, j = (x + 1 for x in shortcut)
            raise ValueError(f"triangle inequality fails: d({i},{j}) > d({i},{mid}) + d({mid},{j})")
        self.__dict__.update(matrix=rows, scaled=tuple(map(tuple, dist)), scale=scale)

    @classmethod
    def _closure(cls, weights) -> "FiniteMetric":
        """The shortest-path closure of a weight matrix, a metric by
        construction, so not checked again.  Dividing by the gcd makes
        `scale` and `scaled` what FiniteMetric(closure) computes."""
        _, scale, dist, _ = _close(weights)
        g = gcd(scale, *(v for row in dist for v in row))
        space = object.__new__(cls)
        space.__dict__.update(
            matrix=tuple(tuple(Fraction(v, scale) for v in row) for row in dist),
            scaled=tuple(tuple(v // g for v in row) for row in dist),
            scale=scale // g,
        )
        return space

    @property
    def size(self) -> int:
        return len(self.matrix)


Space = Union[Line, FiniteMetric]


def distance(space: Space, a, b) -> Fraction:
    """Exact distance between two points of a space."""
    if isinstance(space, Line):
        return abs(a - b)
    p = space.size
    if not (1 <= a <= p and 1 <= b <= p):
        raise IndexError(f"point index out of range for a {p}-point space: {a}, {b}")
    return space.matrix[a - 1][b - 1]


# ---------------------------------------------------------------------------
# instances


@dataclass(frozen=True)
class Instance:
    """A profile of agent locations, a candidate set, and a facility count.

    Agents are kept in reported order (mechanisms that depend on agent
    identity, and anonymity checks, need it).  k is the number of
    facilities to open, at most two; opening both facilities on the same
    candidate is allowed.

    On the line, `scaled` holds the agents and the candidates as ints
    over one common denominator, and that denominator: (agent ints,
    candidate ints, scale), computed once here so that every mechanism
    and every cost reads ints without rescaling.  Multiplying by one
    positive scale keeps every difference, sum and order comparison, so
    a decision on the ints is the decision on the Fractions.  On a finite
    metric it is None: the space's `scaled` matrix and `scale` serve.  It
    takes no part in equality, hashing or repr.
    """

    space: Space
    agents: tuple
    candidates: tuple
    k: int
    scaled: Optional[tuple[tuple[int, ...], tuple[int, ...], int]] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self):
        if isinstance(self.space, Line):
            agents = tuple(parse_scalar(x) for x in self.agents)
            candidates = tuple(parse_scalar(y) for y in self.candidates)
            scale, ints = scale_to_integers(agents + candidates)
            scaled = (tuple(ints[: len(agents)]), tuple(ints[len(agents) :]), scale)
        else:
            scaled = None
            agents = tuple(self.agents)
            candidates = tuple(self.candidates)
            p = self.space.size
            for x in agents + candidates:
                if not isinstance(x, int) or isinstance(x, bool) or not 1 <= x <= p:
                    raise ValueError(f"not a point of the {p}-point space: {x!r}")
        object.__setattr__(self, "agents", agents)
        object.__setattr__(self, "candidates", candidates)
        object.__setattr__(self, "scaled", scaled)
        if not agents:
            raise ValueError("an instance needs at least one agent")
        if not candidates:
            raise ValueError("an instance needs at least one candidate")
        if self.k not in (1, 2):
            raise ValueError(f"facility count must be 1 or 2, got {self.k}")

    @property
    def n(self) -> int:
        return len(self.agents)

    @property
    def m(self) -> int:
        return len(self.candidates)

    def agent(self, i: int):
        if not 1 <= i <= self.n:
            raise IndexError(f"agent index out of range: {i}")
        return self.agents[i - 1]

    def candidate(self, j: int):
        if not 1 <= j <= self.m:
            raise IndexError(f"candidate index out of range: {j}")
        return self.candidates[j - 1]

    def replace_agents(self, agents: Sequence) -> "Instance":
        return Instance(self.space, tuple(agents), self.candidates, self.k)

    @classmethod
    def _trusted(cls, template: "Instance", agents: tuple, scaled) -> "Instance":
        """The template with this agent profile, taken as is: a tuple of
        points of its space, and `scaled` the profile's ints, the
        candidates' ints and the one scale they share (None on a finite
        metric).  For callers that draw every report from a validated set
        and scale the lot once; replace_agents keeps every check."""
        inst = object.__new__(cls)
        # one dict update sets the frozen fields, as object.__setattr__
        # would one at a time
        inst.__dict__.update(
            space=template.space,
            agents=agents,
            candidates=template.candidates,
            k=template.k,
            scaled=scaled,
        )
        return inst


def line_instance(agents, candidates, k: int = 1) -> Instance:
    return Instance(LINE, tuple(agents), tuple(candidates), k)


def metric_instance(matrix, agents, candidates, k: int = 1) -> Instance:
    return Instance(FiniteMetric(tuple(tuple(row) for row in matrix)), tuple(agents), tuple(candidates), k)


# ---------------------------------------------------------------------------
# outcomes


@dataclass(frozen=True)
class Deterministic:
    """A selection of candidate indices, one per facility.

    Order is preserved (the two-extremes rule reports the left facility
    first); duplicates are allowed and mean both facilities share a
    candidate.
    """

    selection: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "selection", tuple(self.selection))
        if not self.selection:
            raise ValueError("empty selection")
        for j in self.selection:
            if not isinstance(j, int) or isinstance(j, bool) or j < 1:
                raise ValueError(f"candidate indices are 1-based ints, got {j!r}")


@dataclass(frozen=True)
class Randomized:
    """An exact probability distribution over deterministic selections.

    Canonical form is enforced at construction: support sorted by
    selection, duplicate selections merged, zero-probability entries
    dropped, probabilities summing to exactly 1.  Two Randomized values
    therefore compare equal iff they are the same distribution.
    """

    support: tuple[tuple[Deterministic, Fraction], ...]

    def __post_init__(self):
        merged: dict[tuple[int, ...], Fraction] = {}
        for outcome, prob in self.support:
            if not isinstance(outcome, Deterministic):
                outcome = Deterministic(tuple(outcome))
            prob = parse_scalar(prob)
            if prob < 0:
                raise ValueError(f"negative probability {prob}")
            merged[outcome.selection] = merged.get(outcome.selection, Fraction(0)) + prob
        total = sum(merged.values(), Fraction(0))
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")
        canon = tuple(
            (Deterministic(sel), prob) for sel, prob in sorted(merged.items()) if prob != 0
        )
        object.__setattr__(self, "support", canon)

    @classmethod
    def _canonical(cls, support: tuple) -> "Randomized":
        """A lottery from a support already in canonical form (sorted by
        selection, merged, no zero entries, Fraction probabilities summing
        to 1), taken as is.  For rules that build it that way; public
        construction keeps every check."""
        lottery = object.__new__(cls)
        object.__setattr__(lottery, "support", support)
        return lottery


Outcome = Union[Deterministic, Randomized]


def point_mass(outcome: Deterministic) -> Randomized:
    return Randomized(((outcome, Fraction(1)),))


# ---------------------------------------------------------------------------
# costs


def distance_rows(instance: Instance, indices: Optional[Sequence[int]] = None) -> list[list[int]]:
    """Per agent (1-based indices, all by default), its distance to each
    candidate as an int over cost_scale(instance), on either space.  All
    rows share that one scale, so they compare and add exactly as the
    rational distances do; this table is the one definition of cost."""
    if indices is None:
        indices = range(1, instance.n + 1)
    if instance.scaled is not None:
        agents, candidates, _ = instance.scaled
        return [[abs(c - agents[i - 1]) for c in candidates] for i in indices]
    rows = instance.space.scaled
    agents = instance.agents
    return [[rows[agents[i - 1] - 1][c - 1] for c in instance.candidates] for i in indices]


def cost_scale(instance: Instance) -> int:
    """The positive scale of distance_rows' ints: a table entry v is the
    distance v / cost_scale(instance)."""
    return instance.space.scale if instance.scaled is None else instance.scaled[2]


def row_cost(row: list[int], outcome: Outcome):
    """An agent's cost under an outcome, read off its row of the table:
    the min over the selection, in expectation for a lottery."""
    support = outcome.support if isinstance(outcome, Randomized) else ((outcome, 1),)
    return sum(prob * min(row[j - 1] for j in det.selection) for det, prob in support)


def selection_cost(columns, selection: tuple[int, ...], objective: str) -> int:
    """The sc or mc of one selection, where columns[j - 1] holds every
    agent's table distance to candidate j."""
    if len(selection) == 1:
        costs = columns[selection[0] - 1]
    else:
        costs = map(min, *(columns[j - 1] for j in selection))
    return sum(costs) if objective == "sc" else max(costs)


def outcome_cost(instance: Instance, outcome: Outcome, objective: str) -> Fraction:
    """Objective value of an outcome, in expectation if randomized."""
    validate_objective(objective)
    columns = tuple(zip(*distance_rows(instance)))
    support = outcome.support if isinstance(outcome, Randomized) else ((outcome, 1),)
    value = sum(prob * selection_cost(columns, det.selection, objective) for det, prob in support)
    return Fraction(value, cost_scale(instance))


def outcome_agent_cost(instance: Instance, outcome: Outcome, i: int) -> Fraction:
    """Agent i's distance to its nearest selected facility, in
    expectation if randomized."""
    instance.agent(i)  # IndexError outside 1..n, where a row read would wrap
    return Fraction(row_cost(distance_rows(instance, (i,))[0], outcome), cost_scale(instance))


def permute_agents(instance: Instance, permutation: Sequence[int]) -> Instance:
    """Reorder the agent profile: new agent i is old agent permutation[i-1]."""
    if sorted(permutation) != list(range(1, instance.n + 1)):
        raise ValueError(f"not a permutation of 1..{instance.n}: {permutation}")
    return instance.replace_agents(tuple(instance.agents[p - 1] for p in permutation))
