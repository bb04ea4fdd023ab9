import dataclasses
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flgames.core import (
    LINE,
    Deterministic,
    FiniteMetric,
    Instance,
    Randomized,
    distance,
    line_instance,
    metric_instance,
    outcome_agent_cost,
    outcome_cost,
    parse_scalar,
    permute_agents,
)
from flgames.mechanisms import wpv_spec

from strategies import QUARTERS, line_instances, outcomes

EPS = F(1, 10)
LB_BASE = line_instance((1 - EPS, 1 + EPS), (0, 2), k=1)


def test_parse_scalar_exact_forms():
    assert parse_scalar("0.9") == F(9, 10)
    assert parse_scalar("9/10") == F(9, 10)
    assert parse_scalar("1e-6") == F(1, 10**6)
    assert parse_scalar(-3) == F(-3)
    assert parse_scalar(F(1, 3)) == F(1, 3)


def test_parse_scalar_rejects_floats_and_junk():
    with pytest.raises(TypeError):
        parse_scalar(0.9)
    for flag in (True, False):
        with pytest.raises(TypeError):
            parse_scalar(flag)
    with pytest.raises(TypeError):
        line_instance((True, 2), (0,))
    with pytest.raises(TypeError):
        wpv_spec((True, False))
    with pytest.raises(ValueError):
        parse_scalar("not a number")
    with pytest.raises(ValueError):
        parse_scalar("1/0")


def test_distance_line():
    assert distance(LINE, F(9, 10), F(11, 10)) == F(1, 5)
    assert distance(LINE, F(3), F(3)) == 0


def test_distance_metric():
    space = FiniteMetric(((0, 3), (3, 0)))
    assert distance(space, 1, 2) == 3
    assert distance(space, 2, 2) == 0
    with pytest.raises(IndexError):
        distance(space, 1, 3)


def test_metric_validation_rejects_bad_matrices():
    with pytest.raises(ValueError):
        FiniteMetric(((0, 1), (2, 0)))  # asymmetric
    with pytest.raises(ValueError):
        FiniteMetric(((1, 2), (2, 0)))  # nonzero diagonal
    with pytest.raises(ValueError):
        FiniteMetric(((0, -1), (-1, 0)))  # negative
    with pytest.raises(ValueError):
        FiniteMetric(((0, 5, 1), (5, 0, 1), (1, 1, 0)))  # 5 > 1 + 1
    with pytest.raises(ValueError, match="empty"):
        FiniteMetric(())
    with pytest.raises(ValueError, match="not square"):
        FiniteMetric(((0, 1), (1,)))


def test_metric_validation_accepts_exact_pseudometric():
    space = FiniteMetric((("0", "1/2", "1/2"), ("1/2", "0", "1"), ("1/2", "1", "0")))
    assert space.size == 3
    assert distance(space, 2, 3) == 1


def test_instance_validation():
    with pytest.raises(ValueError):
        line_instance((), (0,), k=1)
    with pytest.raises(ValueError):
        line_instance((0,), (), k=1)
    with pytest.raises(ValueError):
        line_instance((0,), (0,), k=3)
    with pytest.raises(ValueError):
        metric_instance(((0, 1), (1, 0)), agents=(1, 3), candidates=(2,), k=1)
    assert (LB_BASE == "x") is False


def test_instance_parses_mixed_exact_inputs():
    inst = line_instance(("0.9", 2), ("9/10", F(1)), k=2)
    assert inst.agents == (F(9, 10), F(2))
    assert inst.candidates == (F(9, 10), F(1))
    assert inst.agent(1) == F(9, 10)
    assert inst.candidate(2) == F(1)


def count_fractions(monkeypatch) -> list:
    """Record the arguments of every Fraction built from here on."""
    made, real = [], F.__new__
    monkeypatch.setattr(
        F, "__new__", lambda cls, *args, **kw: made.append(args) or real(cls, *args, **kw)
    )
    return made


def test_line_instance_stores_only_its_int_form():
    inst = line_instance(("0.9", 2), ("9/10", F(1)), k=2)
    assert [f.name for f in dataclasses.fields(Instance)] == ["space", "k", "scaled", "points"]
    assert vars(inst) == {"space": LINE, "k": 2, "scaled": ((9, 20), (9, 10), 10)}
    assert repr(inst) == (
        "Instance(space=Line(), agents=(Fraction(9, 10), Fraction(2, 1)), "
        "candidates=(Fraction(9, 10), Fraction(1, 1)), k=2)"
    )
    metric = metric_instance(((0, 1), (1, 0)), (1, 2), (2,))
    assert vars(metric) == {"space": metric.space, "k": 1, "points": ((1, 2), (2,))}
    assert metric.scaled is None and (metric.agents, metric.candidates) == ((1, 2), (2,))
    assert repr(metric) == (
        "Instance(space=FiniteMetric(matrix=((Fraction(0, 1), Fraction(1, 1)), "
        "(Fraction(1, 1), Fraction(0, 1)))), agents=(1, 2), candidates=(2,), k=1)"
    )
    for name in ("agents", "candidates", "scaled", "points"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(inst, name, inst.scaled)


def test_one_location_builds_one_fraction(monkeypatch):
    inst = line_instance(("0.9", 2, 3, 4), ("9/10", F(1)), k=1)
    nine_tenths = F(9, 10)
    made = count_fractions(monkeypatch)
    assert inst.agent(2) == 2 and inst.candidate(1) == nine_tenths
    assert len(made) == 2
    # the cost itself is the one Fraction an agent's cost builds
    assert outcome_agent_cost(inst, Deterministic((2,)), 4) == 3
    assert len(made) == 3
    for i in (0, 5):
        with pytest.raises(IndexError):
            inst.agent(i)
        with pytest.raises(IndexError):
            outcome_agent_cost(inst, Deterministic((2,)), i)
    for j in (0, 3):
        with pytest.raises(IndexError):
            inst.candidate(j)
    assert len(made) == 3


def test_agent_cost_nearest_selected_facility():
    assert outcome_agent_cost(LB_BASE, Deterministic((1,)), 2) == F(11, 10)
    assert outcome_agent_cost(LB_BASE, Deterministic((2,)), 2) == F(9, 10)
    # with both facilities open the nearer one counts
    both = line_instance(LB_BASE.agents, LB_BASE.candidates, k=2)
    assert outcome_agent_cost(both, Deterministic((1, 2)), 2) == F(9, 10)
    assert outcome_agent_cost(both, Deterministic((2, 2)), 2) == F(9, 10)


def test_agent_cost_zero_on_facility():
    inst = line_instance((1,), (1,), k=1)
    assert outcome_agent_cost(inst, Deterministic((1,)), 1) == 0


def test_social_cost_tight_two_facility_instance():
    # n=4 profile (1, 4/3, 4/3, 2); facilities on 4/3 and 2 leave only
    # agent 1 paying 1/3
    inst = line_instance((1, F(4, 3), F(4, 3), 2), (F(2, 3), F(4, 3), 2), k=2)
    assert outcome_cost(inst, Deterministic((2, 3)), "sc") == F(1, 3)
    assert outcome_cost(inst, Deterministic((3, 3)), "sc") == F(1) + F(2, 3) * 2


def test_social_cost_perturbed_two_facility_instance():
    # same profile with the left candidate at 2/3 + 1/100: the two middle
    # agents each pay 2/3 - 1/100, agent 1 pays 1/3 - 1/100
    eps = F(1, 100)
    inst = line_instance((1, F(4, 3), F(4, 3), 2), (F(2, 3) + eps, F(4, 3), 2), k=2)
    expected = (F(2, 3) - eps) * 2 + F(1, 3) - eps
    assert outcome_cost(inst, Deterministic((1, 3)), "sc") == expected == F(491, 300)


def test_max_cost_far_agent_dominates():
    inst = line_instance((F(9, 10), 3), (0, 2), k=1)
    assert outcome_cost(inst, Deterministic((1,)), "mc") == 3
    assert outcome_cost(inst, Deterministic((2,)), "mc") == F(11, 10)


def test_expected_cost_of_two_point_distribution():
    dist = Randomized(((Deterministic((1,)), F(1, 2)), (Deterministic((2,)), F(1, 2))))
    assert outcome_cost(LB_BASE, dist, "mc") == F(11, 10)
    assert outcome_agent_cost(LB_BASE, dist, 2) == 1
    assert outcome_cost(LB_BASE, dist, "mc") == F(11, 10)


def test_point_mass_matches_deterministic():
    det = Deterministic((2,))
    mass = Randomized(((det, 1),))
    assert outcome_cost(LB_BASE, mass, "sc") == outcome_cost(LB_BASE, det, "sc")
    assert outcome_cost(LB_BASE, mass, "mc") == outcome_cost(LB_BASE, det, "mc")


def test_randomized_canonical_form():
    a = Randomized(
        (
            (Deterministic((2,)), F(1, 4)),
            (Deterministic((1,)), F(1, 2)),
            (Deterministic((2,)), F(1, 4)),
        )
    )
    b = Randomized(((Deterministic((1,)), F(1, 2)), (Deterministic((2,)), F(1, 2))))
    assert a == b
    assert a.support[0][0].selection == (1,)


def test_randomized_validation():
    for selection in ((), (0,), (True,), ("1",)):
        with pytest.raises(ValueError):
            Deterministic(selection)
    with pytest.raises(ValueError):
        Randomized(((Deterministic((1,)), F(1, 2)),))
    with pytest.raises(ValueError):
        Randomized(((Deterministic((1,)), F(3, 2)), (Deterministic((2,)), F(-1, 2))))


def test_randomized_stores_only_its_reduced_int_form():
    half = Randomized(((Deterministic((2,)), F(1, 2)), ((1,), F(1, 4)), ((1,), "1/4")))
    assert [f.name for f in dataclasses.fields(Randomized)] == ["scaled"]
    assert vars(half) == {"scaled": (((1,), (2,)), (1, 1), 2)}
    assert repr(half) == (
        "Randomized(support=((Deterministic(selection=(1,)), Fraction(1, 2)), "
        "(Deterministic(selection=(2,)), Fraction(1, 2))))"
    )
    for name in ("scaled", "support"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(half, name, half.scaled)


def test_objective_validation():
    with pytest.raises(ValueError):
        outcome_cost(LB_BASE, Deterministic((1,)), "sum")


def test_permute_agents():
    inst = line_instance((0, 5), (0, 5), k=1)
    swapped = permute_agents(inst, (2, 1))
    assert swapped.agents == (F(5), F(0))
    with pytest.raises(ValueError):
        permute_agents(inst, (1, 1))


# ---------------------------------------------------------------------------
# properties

SINGLE = line_instances(coord=QUARTERS, ks=(1,), candidate_count=(1, 4), agent_count=(1, 5))
PAIR = line_instances(coord=QUARTERS, ks=(2,), candidate_count=(1, 4), agent_count=(1, 5))


@given(data=st.data())
@settings(max_examples=60)
def test_cost_bounds(data):
    """Property: max cost <= social cost <= n * max cost."""
    inst = data.draw(SINGLE)
    outcome = data.draw(outcomes(inst, lotteries=False))
    sc = outcome_cost(inst, outcome, "sc")
    mc = outcome_cost(inst, outcome, "mc")
    assert mc <= sc <= inst.n * mc


@given(data=st.data())
@settings(max_examples=60)
def test_extra_facility_never_hurts(data):
    """Property: opening a second facility never raises any agent's cost."""
    inst = data.draw(PAIR)
    j1 = data.draw(st.integers(min_value=1, max_value=inst.m))
    j2 = data.draw(st.integers(min_value=1, max_value=inst.m))
    single = Deterministic((j1, j1))
    pair = Deterministic((j1, j2))
    for i in range(1, inst.n + 1):
        assert outcome_agent_cost(inst, pair, i) <= outcome_agent_cost(inst, single, i)


@given(data=st.data())
@settings(max_examples=60)
def test_point_mass_expectation_property(data):
    """Property: a one-point distribution costs exactly its outcome."""
    inst = data.draw(SINGLE)
    outcome = data.draw(outcomes(inst, lotteries=False))
    for objective in ("sc", "mc"):
        assert outcome_cost(inst, Randomized(((outcome, 1),)), objective) == outcome_cost(
            inst, outcome, objective
        )
