from fractions import Fraction as F

import pytest

from flgames import mechanisms
from flgames.core import Deterministic, Randomized, line_instance, metric_instance
from flgames.mechanisms import (
    LEFTMOST,
    MEAN,
    MEDIAN,
    RD,
    TWO_EXTREMES,
    MechanismMismatch,
    MechanismSpec,
    dictator_spec,
    parse_mechanism,
    wpv_spec,
)

from strategies import LB_BASE, build

REMARK = build("wpv-remark", eps=F(1, 100))
TIGHT = build("example-1", eps=F(1, 100), n=4)


def test_leftmost_follows_leftmost_agent():
    assert LEFTMOST.apply(LB_BASE) == Deterministic((1,))
    assert LEFTMOST.apply(REMARK) == Deterministic((1,))
    right_heavy = line_instance((F(17, 10), 3), (0, 2), k=1)
    assert LEFTMOST.apply(right_heavy) == Deterministic((2,))


def test_leftmost_tie_prefers_smaller_coordinate_then_index():
    centered = line_instance((1,), (0, 2), k=1)
    assert LEFTMOST.apply(centered) == Deterministic((1,))
    duplicated = line_instance((1,), (2, 0, 0), k=1)
    assert LEFTMOST.apply(duplicated) == Deterministic((2,))


def test_dictatorship_line_and_tie():
    inst = line_instance((0, 5), (0, 5), k=1)
    assert dictator_spec(1).apply(inst) == Deterministic((1,))
    assert dictator_spec(2).apply(inst) == Deterministic((2,))
    tie = line_instance((1,), (0, 2), k=1)
    assert dictator_spec(1).apply(tie) == Deterministic((1,))


def test_dictatorship_metric():
    inst = metric_instance(
        ((0, 5, 4), (5, 0, 3), (4, 3, 0)), agents=(1,), candidates=(2, 3), k=1
    )
    assert dictator_spec(1).apply(inst) == Deterministic((2,))


def test_dictatorship_rejects_bad_index():
    with pytest.raises(MechanismMismatch):
        dictator_spec(0).apply(LB_BASE)
    with pytest.raises(MechanismMismatch):
        dictator_spec(3).apply(LB_BASE)


def test_two_extremes_on_tight_instance():
    assert TWO_EXTREMES.apply(TIGHT) == Deterministic((1, 3))


def test_two_extremes_tie_rules_point_inward():
    # everyone at the midpoint: the left facility breaks its tie to the
    # right candidate, the right facility to the left one
    inst = line_instance((1, 1, 1), (0, 2), k=2)
    assert TWO_EXTREMES.apply(inst) == Deterministic((2, 1))


def test_two_extremes_degenerate_shapes():
    solo = line_instance((F(7, 2),), (5,), k=2)
    assert TWO_EXTREMES.apply(solo) == Deterministic((1, 1))
    spread = line_instance((0, 10), (1, 9), k=2)
    assert TWO_EXTREMES.apply(spread) == Deterministic((1, 2))


def test_median_odd_profile():
    inst = build("median-context")
    assert MEDIAN.apply(inst) == Deterministic((1,))


def test_median_even_profile_uses_left_median():
    inst = line_instance((0, 1, 5, 6), (0, 6), k=1)
    # rank ceil(4/2) = 2, so the pivot is 1, not 5
    assert MEDIAN.apply(inst) == Deterministic((1,))
    reordered = line_instance((6, 5, 1, 0), (0, 6), k=1)
    assert MEDIAN.apply(reordered) == Deterministic((1,))


def test_median_tie_prefers_smaller_coordinate():
    inst = line_instance((0, 1, 2), (0, 2), k=1)
    assert MEDIAN.apply(inst) == Deterministic((1,))


def test_random_dictatorship_vote_shares():
    inst = line_instance((0, 0, 2), (0, 2), k=1)
    outcome = RD.apply(inst)
    assert outcome == Randomized(
        ((Deterministic((1,)), F(2, 3)), (Deterministic((2,)), F(1, 3)))
    )


def test_random_dictatorship_vote_tie_prefers_smaller_index():
    inst = line_instance((1, 1), (0, 2), k=1)
    assert RD.apply(inst) == Randomized(((Deterministic((1,)), F(1)),))


def test_random_dictatorship_votes_are_reduced():
    # two votes each over n = 4 are kept as 1 and 1 over 2, the ints the
    # public constructor gives the same lottery
    outcome = RD.apply(line_instance((0, 0, 5, 5), (0, 5)))
    assert outcome.scaled == (((1,), (2,)), (1, 1), 2)
    assert outcome.scaled == Randomized(outcome.support).scaled


def test_random_dictatorship_line_votes_tie_to_the_smaller_index():
    # equidistant from 2 and 0: the vote goes to index 1, the larger coordinate
    assert RD.apply(line_instance((1,), (2, 0))).scaled == (((1,),), (1,), 1)
    # coincident candidates: the vote goes to index 1 of the two
    assert RD.apply(line_instance((3, -1), (0, 0))).scaled == (((1,),), (1,), 1)
    # and on a metric, through the table rows
    metric = metric_instance(((0, 1), (1, 0)), agents=(1, 2), candidates=(2, 2))
    assert RD.apply(metric).scaled == (((1,),), (1,), 1)


def test_random_dictatorship_metric():
    inst = metric_instance(
        ((0, 5, 4), (5, 0, 3), (4, 3, 0)), agents=(1, 2), candidates=(2, 3), k=1
    )
    # agent 1 is nearer point 3, agent 2 sits on point 2
    assert RD.apply(inst) == Randomized(
        ((Deterministic((1,)), F(1, 2)), (Deterministic((2,)), F(1, 2)))
    )


def test_wpv_weights_follow_sorted_ranks():
    outcome = wpv_spec((F(1, 4), F(3, 4))).apply(REMARK)
    assert outcome == Randomized(
        ((Deterministic((1,)), F(1, 4)), (Deterministic((3,)), F(3, 4)))
    )
    # degenerate weight on the leftmost rank reproduces leftmost-closest
    assert wpv_spec((1, 0)).apply(REMARK) == Randomized(((Deterministic((1,)), F(1)),))


def test_wpv_merges_identical_votes():
    inst = line_instance((1, 1), (0, 1), k=1)
    assert wpv_spec((F(1, 2), F(1, 2))).apply(inst) == Randomized(((Deterministic((2,)), F(1)),))


def test_wpv_validates_weights():
    with pytest.raises(MechanismMismatch):
        wpv_spec((1,)).apply(REMARK)
    with pytest.raises(MechanismMismatch):
        wpv_spec((F(1, 2), F(1, 4))).apply(REMARK)
    with pytest.raises(MechanismMismatch):
        wpv_spec((F(3, 2), F(-1, 2))).apply(REMARK)


def test_wpv_scales_its_weights_once_per_spec(monkeypatch):
    """The int weights are computed when the spec is built and take no
    part in equality, hash or repr."""
    halves, quarters = parse_mechanism("wpv:1/2,1/2"), parse_mechanism("wpv:2/4,2/4")
    assert halves == quarters and hash(halves) == hash(quarters)
    assert repr(halves) == repr(quarters) and halves.label() == "wpv:1/2,1/2"
    assert halves.scaled == ((1, 1), 2) and RD.scaled is None
    monkeypatch.setattr(mechanisms, "scale_to_integers", None)  # apply must not rescale
    assert halves.apply(REMARK) == quarters.apply(REMARK) == Randomized(
        ((Deterministic((1,)), F(1, 2)), (Deterministic((3,)), F(1, 2)))
    )


def test_closest_to_mean():
    assert MEAN.apply(LB_BASE) == Deterministic((1,))
    pulled = line_instance((F(9, 10), 3), (0, 2), k=1)
    assert MEAN.apply(pulled) == Deterministic((2,))


def test_space_and_k_mismatches():
    metric = metric_instance(((0, 1), (1, 0)), agents=(1,), candidates=(2,), k=1)
    for spec in (LEFTMOST, MEDIAN, MEAN):
        with pytest.raises(MechanismMismatch):
            spec.apply(metric)
    with pytest.raises(MechanismMismatch):
        wpv_spec((1,)).apply(metric)
    two_facility = line_instance((0, 1), (0, 1), k=2)
    with pytest.raises(MechanismMismatch):
        LEFTMOST.apply(two_facility)
    with pytest.raises(MechanismMismatch):
        TWO_EXTREMES.apply(LB_BASE)
    with pytest.raises(MechanismMismatch):
        RD.apply(two_facility)


def test_parse_mechanism():
    assert parse_mechanism("leftmost") == LEFTMOST
    assert parse_mechanism("two-extremes") == TWO_EXTREMES
    assert parse_mechanism("median") == MEDIAN
    assert parse_mechanism("rd") == RD
    assert parse_mechanism("mean") == MEAN
    assert parse_mechanism("dictator:2") == dictator_spec(2)
    spec = parse_mechanism("wpv:1/2,0.25,1/4")
    assert spec.weights == (F(1, 2), F(1, 4), F(1, 4))
    assert parse_mechanism(spec.label()) == spec


def test_parse_mechanism_rejects_malformed_names():
    for bad in ("nope", "dictator:", "dictator:x", "wpv:", "wpv:1,oops", "leftmost:3"):
        with pytest.raises(MechanismMismatch):
            parse_mechanism(bad)


def test_labels():
    assert LEFTMOST.label() == "leftmost"
    assert dictator_spec(3).label() == "dictator:3"
    assert wpv_spec((F(1, 2), F(1, 2))).label() == "wpv:1/2,1/2"


def test_spec_validation():
    with pytest.raises(MechanismMismatch):
        MechanismSpec("bogus")
    with pytest.raises(MechanismMismatch):
        MechanismSpec("dictator")
    with pytest.raises(MechanismMismatch):
        MechanismSpec("wpv")
    # an argument the kind does not take is refused, not kept beside the
    # kind's label, where it would break equality with the plain spec
    for kind, extra in [
        ("leftmost", {"dictator": 3}),
        ("rd", {"weights": (F(1),)}),
        ("dictator", {"dictator": 1, "weights": ("1",)}),
        ("wpv", {"weights": (F(1),), "dictator": 1}),
        ("median", {"dictator": 1, "weights": (F(1),)}),
    ]:
        with pytest.raises(MechanismMismatch, match="takes no"):
            MechanismSpec(kind, **extra)
