"""The plain Fraction model the differential tests check the package
against: the distance, each rule by its definition, the sc and mc
costs, the exact optimum over candidate multisets and the ratio rule,
the shortest-path closure and the triangle scan, the line's misreport
set and both brute-force misreport searches, and a line family's draw.
Nothing here reads an int form or calls a computation of the package:
it imports only data constructors, rule specs, constants and result
types (test_cli.py pins the names), so a fault in the package cannot
also be a fault of its oracle."""

import itertools
import random
from fractions import Fraction as F
from functools import cache, partial

from flgames.core import Deterministic, Line, Randomized, line_instance
from flgames.instances import GRID_DENOMINATOR
from flgames.mechanisms import LEFTMOST, MEAN, MEDIAN, RD, TWO_EXTREMES, dictator_spec, wpv_spec
from flgames.solver import INFINITE_RATIO, OptResult
from flgames.verify import DeviationWitness

# ---------------------------------------------------------------------------
# distances, rules, costs, the optimum and the ratio


def distance(space, a, b):
    """|a - b| on the line; on a finite metric, the matrix entry of the
    points with 1-based indices a and b."""
    if isinstance(space, Line):
        return abs(a - b)
    return space.matrix[a - 1][b - 1]


def ref_closest_line(instance, point, tie):
    """The candidate nearest the point, ties to the lower coordinate (tie
    "low") or the higher, then to the smaller index."""
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


def ref_agent_cost(instance, outcome, i):
    x = instance.agent(i)
    return min(distance(instance.space, x, instance.candidate(j)) for j in outcome.selection)


def ref_objective_cost(instance, outcome, objective):
    """The social cost (sc), the sum of the agents' costs, or the max cost."""
    costs = [ref_agent_cost(instance, outcome, i) for i in range(1, instance.n + 1)]
    return sum(costs) if objective == "sc" else max(costs)


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


def ref_ratio(cost, opt):
    """cost / opt, where 0/0 is 1 (the outcome is optimal) and anything
    positive over 0 is INFINITE_RATIO."""
    if opt == 0:
        return F(1) if cost == 0 else INFINITE_RATIO
    return cost / opt


# ---------------------------------------------------------------------------
# the shortest-path closure and the triangle scan


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


# ---------------------------------------------------------------------------
# the misreport set, the two brute-force searches and a line family's draw


def reference_misreport_points(instance, grid_points):
    """The line's misreport set built directly on Fractions."""
    locations = instance.agents + instance.candidates
    lo, hi = min(locations), max(locations)
    span = max(hi - lo, F(1))
    points = set(locations)
    if grid_points == 1:
        points.add(lo - span)
    elif grid_points > 1:
        start = lo - span
        step = (hi + span - start) / (grid_points - 1)
        points.update(start + t * step for t in range(grid_points))
    return tuple(sorted(points))


def reference_unilateral(instance, mechanism, misreports):
    truthful = mechanism.apply(instance)
    agents = instance.agents
    for i in range(1, instance.n + 1):
        base_cost = ref_outcome_agent_cost(instance, truthful, i)
        if base_cost == 0:
            continue
        true_location = agents[i - 1]
        prefix, suffix = agents[: i - 1], agents[i:]
        for report in misreports:
            if report == true_location:
                continue
            shifted = mechanism.apply(instance.replace_agents(prefix + (report,) + suffix))
            if shifted == truthful:
                continue
            new_cost = ref_outcome_agent_cost(instance, shifted, i)
            if new_cost < base_cost:
                return DeviationWitness(
                    (i,), (report,), truthful, shifted, (base_cost,), (new_cost,)
                )
    return None


def reference_group(instance, mechanism, misreports, max_coalition):
    agent_cost = cache(partial(ref_outcome_agent_cost, instance))  # reads the true profile only
    options = [tuple(r for r in misreports if r != x) for x in instance.agents]
    truthful = mechanism.apply(instance)
    base_costs = [agent_cost(truthful, i) for i in range(1, instance.n + 1)]
    for size in range(1, max_coalition + 1):
        for coalition in itertools.combinations(range(1, instance.n + 1), size):
            members_base = tuple(base_costs[i - 1] for i in coalition)
            if any(cost == 0 for cost in members_base):
                continue
            for joint in itertools.product(*(options[i - 1] for i in coalition)):
                profile = list(instance.agents)
                for i, report in zip(coalition, joint):
                    profile[i - 1] = report
                shifted = mechanism.apply(instance.replace_agents(profile))
                if shifted == truthful:
                    continue
                new_costs = tuple(agent_cost(shifted, i) for i in coalition)
                if all(new < old for new, old in zip(new_costs, members_base)):
                    return DeviationWitness(
                        coalition, joint, truthful, shifted, members_base, new_costs
                    )
    return None


def line_draws(family, index):
    """The n + m ints instance `index` of a family draws: a random.Random
    seeded with the string "seed:index", and each int uniform in
    0..GRID_DENOMINATOR, by rejection on getrandbits."""
    rng = random.Random(f"{family.seed}:{index}")
    bits = GRID_DENOMINATOR.bit_length()
    draws = []
    while len(draws) < family.n + family.m:
        value = rng.getrandbits(bits)
        if value <= GRID_DENOMINATOR:
            draws.append(value)
    return draws


def fraction_route(family, draws):
    """A line family's instance from its drawn ints, written on
    Fractions: each coordinate Fraction(draw, GRID_DENOMINATOR), through
    the public constructor."""
    points = [F(v, GRID_DENOMINATOR) for v in draws]
    return line_instance(points[: family.n], points[family.n :], family.k)
