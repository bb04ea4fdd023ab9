"""The inputs the tests draw, each kind written once: coordinate sets,
line, tie-heavy and metric instances, symmetric weight matrices,
selections and lotteries, and the shared named instances and weights."""

from fractions import Fraction as F

from hypothesis import strategies as st

from flgames.core import Deterministic, Randomized, line_instance, metric_instance
from flgames.instances import PaperConstruction, build_paper_instance
from flgames.mechanisms import wpv_spec

from reference import ref_closure, reference_misreport_points

EPS = st.integers(2, 10**6).map(lambda q: F(1, q))
COORD = st.fractions(min_value=-3, max_value=3, max_denominator=10**6)
COARSE = st.integers(-6, 6).map(lambda v: F(v, 2))
HALVES = st.integers(-8, 8).map(lambda v: F(v, 2))
QUARTERS = st.integers(-40, 40).map(lambda v: F(v, 4))
FINE = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)


def build(name, **kwargs):
    return build_paper_instance(PaperConstruction(name, **kwargs))


LB_BASE = build("single-lb-I", eps=F(1, 10))


def end_weights(n):
    """wpv weights with zero entries: half on each extreme agent."""
    return wpv_spec([F(1, 2)] + [F(0)] * (n - 2) + [F(1, 2)] if n > 1 else [F(1)])


# ---------------------------------------------------------------------------
# instances


@st.composite
def line_instances(draw, coord=COORD, ks=(1, 2), candidate_count=(1, 5), agent_count=(1, 6)):
    """k from ks, and as many candidates and agents as the (least, most)
    counts allow."""
    candidates = draw(st.lists(coord, min_size=candidate_count[0], max_size=candidate_count[1]))
    agents = draw(st.lists(coord, min_size=agent_count[0], max_size=agent_count[1]))
    return line_instance(agents, candidates, k=draw(st.sampled_from(ks)))


@st.composite
def tie_instances(
    draw, coord=COORD, ks=(1, 2), base_count=(1, 4), agent_count=(1, 5), shifted=True, copies=2,
    on_candidates=True, mean=True, free_count=(0, 0), grid_points=None,
):
    """Line instances full of ties, k from ks.

    Candidates: as many drawn from coord as the (least, most) base_count
    allows; if shifted, up to two of them copied eps apart; then up to
    `copies` co-located copies; in any order.  Agents: as many drawn from
    coord as free_count allows, then as many as agent_count allows on
    candidate midpoints (a candidate is its own midpoint), with
    on_candidates on the candidates too, and with grid_points on that
    misreport grid's points inside the range of the locations drawn so
    far, which leave the range, and so the grid, unchanged.  If mean,
    maybe one more agent pulls the mean exactly onto a midpoint, and the
    agents come in any order."""
    candidates = draw(st.lists(coord, min_size=base_count[0], max_size=base_count[1]))
    if shifted:
        eps = draw(EPS)
        candidates += [c + eps for c in draw(st.lists(st.sampled_from(candidates), max_size=2))]
    candidates += draw(st.lists(st.sampled_from(candidates), max_size=copies))
    candidates = draw(st.permutations(candidates))
    midpoints = [(a + b) / 2 for a in candidates for b in candidates]
    agents = draw(st.lists(coord, min_size=free_count[0], max_size=free_count[1]))
    spots = midpoints + candidates if on_candidates else midpoints
    if grid_points is not None:
        lo, hi = min(agents + candidates), max(agents + candidates)
        grid = reference_misreport_points(line_instance(agents, candidates), grid_points)
        spots = spots + [p for p in grid if lo <= p <= hi]
    agents += draw(st.lists(st.sampled_from(spots), min_size=agent_count[0], max_size=agent_count[1]))
    if mean:
        if draw(st.booleans()):
            target = draw(st.sampled_from(midpoints))
            agents.append(target * (len(agents) + 1) - sum(agents))
        agents = draw(st.permutations(agents))
    return line_instance(agents, candidates, k=draw(st.sampled_from(ks)))


@st.composite
def symmetric_matrices(draw, weight, size=(1, 6), pool=None):
    """Symmetric matrices with a zero diagonal, as many rows as the
    (least, most) size allows, each entry drawn from weight; with pool,
    from as many weight values as that (least, most) pair allows, so
    weights repeat."""
    p = draw(st.integers(*size))
    if pool is not None:
        weight = st.sampled_from(draw(st.lists(weight, min_size=pool[0], max_size=pool[1])))
    rows = [[F(0)] * p for _ in range(p)]
    for i in range(p):
        for j in range(i + 1, p):
            rows[i][j] = rows[j][i] = draw(weight)
    return tuple(tuple(row) for row in rows)


@st.composite
def metric_instances(draw, ks=(1,)):
    weight = st.one_of(st.integers(0, 3).map(F), st.fractions(0, 2, max_denominator=10**6))
    raw = draw(symmetric_matrices(weight))
    points = st.integers(1, len(raw))
    agents = draw(st.lists(points, min_size=1, max_size=5))
    candidates = draw(st.lists(points, min_size=1, max_size=4))
    return metric_instance(ref_closure(raw), agents, candidates, k=draw(st.sampled_from(ks)))


# ---------------------------------------------------------------------------
# outcomes


def _lottery(draw, support):
    weights = draw(st.lists(st.integers(1, 5), min_size=len(support), max_size=len(support)))
    return Randomized(
        tuple((Deterministic(sel), F(w, sum(weights))) for sel, w in zip(support, weights))
    )


@st.composite
def outcomes(draw, instance, lotteries=True):
    """A selection of k candidates, in any order and with repeats, or,
    if lotteries, maybe a lottery over up to four."""
    selection = st.tuples(*[st.integers(1, instance.m)] * instance.k)
    if not lotteries or draw(st.booleans()):
        return Deterministic(draw(selection))
    return _lottery(draw, draw(st.lists(selection, min_size=1, max_size=4)))


@st.composite
def pair_lotteries(draw, instance):
    """A lottery over k=2 selections as a rule may report them: drawn
    unsorted, with repeated candidates, and each pair also reversed."""
    pair = st.tuples(st.integers(1, instance.m), st.integers(1, instance.m))
    pairs = draw(st.lists(pair, min_size=1, max_size=3))
    return _lottery(draw, pairs + [p[::-1] for p in pairs])
