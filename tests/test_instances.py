import hashlib
import itertools
import json
from dataclasses import fields
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flgames import instances
from flgames.core import FiniteMetric, Line, line_instance
from flgames.instances import (
    CONSTRUCTION_NAMES,
    FAMILY_KINDS,
    GRID_DENOMINATOR,
    PaperConstruction,
    RandomFamily,
    build_paper_instance,
    metric_closure,
    random_instance,
)
from flgames.mechanisms import dictator_spec

DATA = Path(__file__).parent / "data"


def build(name, **kwargs):
    return build_paper_instance(PaperConstruction(name, **kwargs))


def test_single_facility_lower_bound_pair():
    eps = F(1, 10)
    base = build("single-lb-I", eps=eps)
    assert base.agents == (F(9, 10), F(11, 10))
    assert base.candidates == (F(0), F(2))
    assert base.k == 1
    shifted = build("single-lb-I-prime", eps=eps)
    assert shifted.agents == (F(9, 10), F(3))
    assert shifted.candidates == base.candidates
    # the pair differs only in agent 2's location
    assert shifted.agents[0] == base.agents[0]


def test_two_facility_lower_bound_pair():
    eps = F(1, 10)
    base = build("two-lb-I", eps=eps, far=1000)
    assert base.agents == (F(9, 10), F(11, 10), F(1000))
    assert base.candidates == (F(0), F(2), F(1000))
    assert base.k == 2
    shifted = build("two-lb-I-prime", eps=eps, far=1000)
    assert shifted.agents == (F(9, 10), F(3), F(1000))


def test_percentile_voting_remark_instance():
    eps = F(1, 100)
    inst = build("wpv-remark", eps=eps)
    assert inst.agents == (F(1), F(3))
    assert inst.candidates == (F(1, 100), F(2), F(399, 100))
    assert inst.k == 1


def test_tight_two_facility_instance_shape():
    inst = build("example-1", eps=F(1, 100), n=4)
    assert inst.agents == (F(1), F(4, 3), F(4, 3), F(2))
    assert inst.candidates == (F(2, 3) + F(1, 100), F(4, 3), F(2))
    assert inst.k == 2
    big = build("example-1", eps=F(1, 100), n=10)
    assert big.n == 10
    assert big.agents[1:-1] == (F(4, 3),) * 8


def test_median_context_instance():
    inst = build("median-context")
    assert inst.agents == (F(0), F(1), F(10))
    assert inst.candidates == (F(0), F(9))
    assert inst.k == 1


def test_construction_parameter_validation():
    with pytest.raises(ValueError):
        PaperConstruction("single-lb-I", eps=1)
    with pytest.raises(ValueError):
        PaperConstruction("single-lb-I", eps=0)
    with pytest.raises(ValueError):
        PaperConstruction("two-lb-I", eps=F(1, 10), far=10)
    with pytest.raises(ValueError):
        PaperConstruction("example-1", eps=F(1, 2))
    with pytest.raises(ValueError):
        PaperConstruction("example-1", eps=F(1, 100), n=2)
    with pytest.raises(ValueError):
        PaperConstruction("no-such-construction")


def test_every_construction_builds():
    for name in CONSTRUCTION_NAMES:
        inst = build_paper_instance(PaperConstruction(name, eps=F(1, 100)))
        assert inst.n >= 1 and inst.m >= 1


# ---------------------------------------------------------------------------
# random families


def test_line_family_deterministic_in_seed_and_index():
    fam = RandomFamily("line-uniform", n=5, m=4, seed=42)
    a = random_instance(fam, 3)
    b = random_instance(fam, 3)
    assert a == b
    assert any(random_instance(fam, i) != a for i in (0, 1, 2, 4))
    other_seed = RandomFamily("line-uniform", n=5, m=4, seed=43)
    assert random_instance(other_seed, 3) != a


def test_line_family_golden_snapshot():
    from flgames.cli import instance_to_json

    fam = RandomFamily("line-uniform", n=5, m=4, seed=42)
    inst = random_instance(fam, 3)
    golden = json.loads((DATA / "golden_line_n5_m4_seed42_idx3.json").read_text())
    assert instance_to_json(inst) == golden


def test_metric_family_golden_snapshot():
    from flgames.cli import instance_to_json

    fam = RandomFamily("metric-closure", n=3, m=2, seed=11, k=2)
    inst = random_instance(fam, 5)
    golden = json.loads((DATA / "golden_metric_n3_m2_seed11_idx5.json").read_text())
    assert instance_to_json(inst) == golden


@pytest.mark.parametrize(
    "family, digest",
    [
        pytest.param(
            RandomFamily("line-uniform", n=5, m=4, k=1, seed=0),
            "198eb9f24c4103ca5dbf2be1a1ef814f4a13d7b0d6e4a4b8e9a02a330b6484d7",
            id="a4-line-single",
        ),
        pytest.param(
            RandomFamily("line-uniform", n=5, m=4, k=2, seed=0),
            "c77e491cefed7b5a1dac4b1967795ae0e518d5038090e40b568aa91f9d1faaba",
            id="a4-line-pair",
        ),
        pytest.param(
            RandomFamily("metric-closure", n=4, m=3, k=1, seed=0),
            "97397ca78b4862147e1ae8fbf9421fbbb7896c9a6b2e42b51a5ea15377b023cf",
            id="a4-metric",
        ),
        pytest.param(
            RandomFamily("line-uniform", n=5, m=4, k=1, seed=201),
            "00979de6b0d131982a704528efdcde6eb1e7ccc9c70ff1199f55e1edb58be379",
            id="a5-line-single",
        ),
        pytest.param(
            RandomFamily("line-uniform", n=5, m=4, k=2, seed=202),
            "f7e7dcd2bb92636292ca6685c5b60b3f7a7923db7fa62dd8489fb6b0eba029da",
            id="a5-line-pair",
        ),
        pytest.param(
            RandomFamily("line-uniform", n=4, m=3, k=1, seed=203),
            "ba7005f819fc4a382471f56971d5e2fb2f562a71de1b6d78b657f633b2ab3263",
            id="a5-group-single",
        ),
        pytest.param(
            RandomFamily("line-uniform", n=4, m=3, k=2, seed=204),
            "ec4190ac51582b0b2775cfde46bac2297f15aab7316b82d81fc497d91f50ea0c",
            id="a5-group-pair",
        ),
    ],
)
def test_gate_families_draw_pinned_instances(family, digest):
    """Instances 0-199 of each family A4 and A5 draw hash to the digest
    recorded when the draw was built on Fractions, so a new way of
    drawing keeps every instance bit-identical."""
    h = hashlib.sha256()
    for index in range(200):
        h.update(repr(random_instance(family, index)).encode() + b"\n")
    assert h.hexdigest() == digest


def fraction_route(family, index):
    """A line family's draw written on Fractions: each coordinate
    Fraction(draw, GRID_DENOMINATOR), through the public constructor."""
    rng = instances._stream(family, index)
    draws = [
        F(instances._uniform_int(rng, GRID_DENOMINATOR + 1), GRID_DENOMINATOR)
        for _ in range(family.n + family.m)
    ]
    return line_instance(draws[: family.n], draws[family.n :], family.k)


def assert_same_instance(got, want):
    assert got.scaled == want.scaled and repr(got) == repr(want)
    assert got == want and hash(got) == hash(want)


@given(
    seed=st.integers(-(10**9), 10**9),
    index=st.integers(0, 10**6),
    n=st.integers(1, 8),
    m=st.integers(1, 8),
    k=st.sampled_from((1, 2)),
)
@settings(max_examples=300, deadline=None)
def test_line_draws_on_ints_are_the_fraction_route(seed, index, n, m, k):
    family = RandomFamily("line-uniform", n, m, k, seed)
    assert_same_instance(random_instance(family, index), fraction_route(family, index))


@pytest.mark.parametrize(
    "draws, scaled",
    [
        pytest.param((250_000, 0, 750_000, 500_000, 10**6), ((1, 0, 3), (2, 4), 4), id="quarters"),
        pytest.param((0,) * 5, ((0, 0, 0), (0, 0), 1), id="all-zero"),
        pytest.param((500_000, 0, 10**6, 10**6, 0), ((1, 0, 2), (2, 0), 2), id="halves"),
    ],
)
def test_line_draws_are_stored_reduced(monkeypatch, draws, scaled):
    """Draws sharing a factor with GRID_DENOMINATOR are divided by it, so
    the stored int form is the reduced one the Fraction route stores."""
    family = RandomFamily("line-uniform", n=3, m=2, k=1, seed=0)
    results = []
    for route in (random_instance, fraction_route):
        stream = itertools.cycle(draws)
        monkeypatch.setattr(instances, "_uniform_int", lambda rng, bound: next(stream))
        results.append(route(family, 0))
    assert results[0].scaled == scaled
    assert_same_instance(*results)


def test_line_family_range_and_grid():
    fam = RandomFamily("line-uniform", n=6, m=3, seed=9)
    inst = random_instance(fam, 0)
    assert isinstance(inst.space, Line)
    for x in inst.agents + inst.candidates:
        assert 0 <= x <= 1
        assert (x * 10**6).denominator == 1


def test_family_validation():
    assert FAMILY_KINDS == ("line-uniform", "metric-closure")
    assert [f.name for f in fields(RandomFamily)] == ["kind", "n", "m", "k", "seed"]
    with pytest.raises(ValueError, match="unknown family kind 'triangle-soup'"):
        RandomFamily("triangle-soup", n=2, m=2)
    with pytest.raises(ValueError):
        RandomFamily("line-uniform", n=0, m=2)


@pytest.mark.parametrize(
    "build, good, bad",
    [
        pytest.param(lambda v: RandomFamily("line-uniform", 3, 2, seed=v), 1, True, id="seed-bool"),
        pytest.param(lambda v: RandomFamily("line-uniform", 3, 2, seed=v), 1, 1.0, id="seed-float"),
        pytest.param(lambda v: RandomFamily("line-uniform", v, 2), 1, True, id="n-bool"),
        pytest.param(lambda v: RandomFamily("line-uniform", v, 2), 3, 3.0, id="n-float"),
        pytest.param(lambda v: RandomFamily("line-uniform", 3, v), 2, 2.0, id="m-float"),
        pytest.param(lambda v: RandomFamily("line-uniform", 3, 2, k=v), 1, True, id="k-bool"),
        pytest.param(lambda v: RandomFamily("line-uniform", 3, 2, k=v), 1, 1.0, id="k-float"),
        pytest.param(dictator_spec, 1, True, id="dictator-bool"),
        pytest.param(dictator_spec, 1, 1.0, id="dictator-float"),
        pytest.param(lambda v: line_instance((0, 1), (0, 1), k=v), 1, True, id="instance-k-bool"),
        pytest.param(lambda v: line_instance((0, 1), (0, 1), k=v), 2, 2.0, id="instance-k-float"),
        pytest.param(lambda v: PaperConstruction("example-1", n=v), 3, 3.0, id="example-1-n-float"),
    ],
)
def test_integer_parameters_refuse_bool_and_float(build, good, bad):
    build(good)
    with pytest.raises(ValueError):
        build(bad)


def test_metric_family_points_split():
    fam = RandomFamily("metric-closure", n=3, m=2, seed=11, k=2)
    inst = random_instance(fam, 5)
    assert isinstance(inst.space, FiniteMetric)
    assert inst.space.size == 5
    assert inst.agents == (1, 2, 3)
    assert inst.candidates == (4, 5)
    assert inst.k == 2
    assert inst == random_instance(fam, 5)


# ---------------------------------------------------------------------------
# metric closure


def test_closure_fixes_one_violating_triple():
    raw = (
        (0, 5, 2, 7),
        (5, 0, 2, 7),
        (2, 2, 0, 7),
        (7, 7, 7, 0),
    )
    closed = metric_closure(raw)
    # the only shortcut is 1 -> 3 -> 2 of length 4
    assert closed == (
        (F(0), F(4), F(2), F(7)),
        (F(4), F(0), F(2), F(7)),
        (F(2), F(2), F(0), F(7)),
        (F(7), F(7), F(7), F(0)),
    )
    FiniteMetric(closed)  # validates


def test_closure_uses_multi_hop_paths():
    raw = ((0, 10, 1, 10), (10, 0, 10, 1), (1, 10, 0, 1), (10, 1, 1, 0))
    closed = metric_closure(raw)
    # 1 -> 3 -> 4 -> 2 costs 3
    assert closed[0][1] == 3
    FiniteMetric(closed)


def test_closure_rejects_malformed_input():
    with pytest.raises(ValueError):
        metric_closure(((0, 1), (2, 0)))
    with pytest.raises(ValueError):
        metric_closure(((0, -1), (-1, 0)))
    with pytest.raises(ValueError):
        metric_closure(((1,),))


weight = st.integers(min_value=0, max_value=60).map(lambda v: F(v, 6))


@st.composite
def raw_symmetric(draw):
    p = draw(st.integers(min_value=2, max_value=6))
    rows = [[F(0)] * p for _ in range(p)]
    for i in range(p):
        for j in range(i + 1, p):
            w = draw(weight)
            rows[i][j] = rows[j][i] = w
    return rows


@given(raw=raw_symmetric())
@settings(max_examples=50)
def test_closure_is_idempotent_and_metric(raw):
    """Property: closing a closed matrix changes nothing, and the result
    always validates as a metric."""
    closed = metric_closure(raw)
    assert metric_closure(closed) == closed
    FiniteMetric(closed)


@given(raw=raw_symmetric())
@settings(max_examples=50)
def test_closure_never_increases_entries(raw):
    """Property: closure only shortens distances."""
    closed = metric_closure(raw)
    for before, after in zip(raw, closed):
        for b, a in zip(before, after):
            assert a <= b
