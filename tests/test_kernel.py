"""Differential test: every rule, deciding on scaled integers, matches
the plain Fraction definition of that rule on random and tie-heavy
instances."""

from fractions import Fraction as F
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from flgames.core import (
    Deterministic,
    FiniteMetric,
    Line,
    Randomized,
    distance,
    line_instance,
    metric_instance,
    permute_agents,
    scale_to_integers,
)
from flgames.instances import (
    CONSTRUCTION_NAMES,
    PaperConstruction,
    build_paper_instance,
    metric_closure,
)
from flgames.mechanisms import LEFTMOST, MEAN, MEDIAN, RD, TWO_EXTREMES, dictator_spec, wpv_spec

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
def line_instances(draw, coord=COORD):
    candidates = draw(st.lists(coord, min_size=1, max_size=5))
    agents = draw(st.lists(coord, min_size=1, max_size=6))
    return line_instance(agents, candidates, k=draw(st.sampled_from((1, 2))))


@st.composite
def tie_instances(draw):
    """Agents on candidate midpoints, co-located candidates, and a mean
    that lands on a midpoint, with candidates eps apart."""
    base = draw(st.lists(COORD, min_size=1, max_size=4))
    eps = draw(EPS)
    candidates = base + [c + eps for c in draw(st.lists(st.sampled_from(base), max_size=2))]
    candidates += draw(st.lists(st.sampled_from(candidates), max_size=2))
    candidates = draw(st.permutations(candidates))
    midpoints = [(a + b) / 2 for a in candidates for b in candidates]
    agents = draw(st.lists(st.sampled_from(midpoints + candidates), min_size=1, max_size=5))
    if draw(st.booleans()):
        # the last agent pulls the mean exactly onto a midpoint
        target = draw(st.sampled_from(midpoints))
        agents.append(target * (len(agents) + 1) - sum(agents))
    agents = draw(st.permutations(agents))
    return line_instance(agents, candidates, k=draw(st.sampled_from((1, 2))))


@st.composite
def metric_instances(draw):
    p = draw(st.integers(1, 6))
    weight = st.one_of(st.integers(0, 3).map(F), st.fractions(0, 2, max_denominator=10**6))
    raw = [[F(0)] * p for _ in range(p)]
    for i in range(p):
        for j in range(i + 1, p):
            raw[i][j] = raw[j][i] = draw(weight)
    points = st.integers(1, p)
    agents = draw(st.lists(points, min_size=1, max_size=5))
    candidates = draw(st.lists(points, min_size=1, max_size=4))
    return metric_instance(metric_closure(raw), agents, candidates, k=1)


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
    assert a.scaled == ((0, 1), (1, 0))
    assert a == b and hash(a) == hash(b)
    assert repr(a) == f"FiniteMetric(matrix={a.matrix!r})"


def assert_scaled_maps_back(instance):
    """Instance.scaled is the agents and candidates as ints over one
    common scale, the least one."""
    agents, candidates = instance.scaled
    scale = 1
    for v in instance.agents + instance.candidates:
        scale = scale * v.denominator // gcd(scale, v.denominator)
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
    assert a.scaled == ((1, 6), (0,))
    # the same profile over another scale, as a search scales it
    object.__setattr__(b, "scaled", ((3, 18), (0,)))
    assert a == b and hash(a) == hash(b)
    assert repr(a) == (
        "Instance(space=Line(), agents=(Fraction(1, 2), Fraction(3, 1)), "
        "candidates=(Fraction(0, 1),), k=1)"
    )
    assert metric_instance(((0, 1), (1, 0)), (1, 2), (2,)).scaled is None
