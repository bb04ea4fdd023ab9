"""Instance catalog.

Two sources of instances:

  * exact parameterized constructions, used to replay the known
    lower-bound arguments and tight approximation examples at concrete
    parameter values;
  * seeded random families (uniform line profiles, shortest-path metric
    closures closed once by core), used by the sweep and falsification.

Random instances are deterministic in (seed, index): the same pair
always yields the same instance, independent of call order, so sweep
reports are reproducible byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .core import FiniteMetric, Instance, line_instance, parse_scalar

# Coordinates and edge weights are drawn from a fixed fine grid so that
# exact ties occur with realistic frequency instead of never.
GRID_DENOMINATOR = 10**6

SINGLE_LB_BASE = "single-lb-I"
SINGLE_LB_SHIFTED = "single-lb-I-prime"
TWO_LB_BASE = "two-lb-I"
TWO_LB_SHIFTED = "two-lb-I-prime"
WPV_REMARK = "wpv-remark"
EXAMPLE_1 = "example-1"
MEDIAN_CONTEXT = "median-context"

CONSTRUCTION_NAMES = (
    SINGLE_LB_BASE,
    SINGLE_LB_SHIFTED,
    TWO_LB_BASE,
    TWO_LB_SHIFTED,
    WPV_REMARK,
    EXAMPLE_1,
    MEDIAN_CONTEXT,
)


@dataclass(frozen=True)
class PaperConstruction:
    """A named exact construction.

    eps is the small separation parameter (0 < eps < 1 everywhere,
    eps < 1/3 for example-1).  far is the far-away point used by the
    two-facility pairs (must exceed 10 so the far cluster stays
    separated).  n is the profile size and is used only by example-1.
    """

    name: str
    eps: Fraction = Fraction(1, 100)
    far: Fraction = Fraction(1000)
    n: int = 4

    def __post_init__(self):
        object.__setattr__(self, "eps", parse_scalar(self.eps))
        object.__setattr__(self, "far", parse_scalar(self.far))
        if self.name not in CONSTRUCTION_NAMES:
            raise ValueError(f"unknown construction {self.name!r}")
        if not 0 < self.eps < 1:
            raise ValueError(f"eps must be in (0, 1), got {self.eps}")
        if self.name in (TWO_LB_BASE, TWO_LB_SHIFTED) and self.far <= 10:
            raise ValueError(f"far point must exceed 10, got {self.far}")
        if self.name == EXAMPLE_1:
            if self.n < 3:
                raise ValueError(f"example-1 needs n >= 3, got {self.n}")
            if self.eps >= Fraction(1, 3):
                raise ValueError(f"example-1 needs eps < 1/3, got {self.eps}")


def build_paper_instance(construction: PaperConstruction) -> Instance:
    """Materialize a named construction as an exact line instance.

    The -lb- pairs are a base profile and a shifted profile differing
    only in agent 2's location (moved to 3); replaying a bound runs a
    mechanism on both and checks the implied misreport.
    """
    eps, far, n = construction.eps, construction.far, construction.n
    name = construction.name
    if name == SINGLE_LB_BASE:
        return line_instance((1 - eps, 1 + eps), (0, 2), k=1)
    if name == SINGLE_LB_SHIFTED:
        return line_instance((1 - eps, Fraction(3)), (0, 2), k=1)
    if name == TWO_LB_BASE:
        return line_instance((1 - eps, 1 + eps, far), (0, 2, far), k=2)
    if name == TWO_LB_SHIFTED:
        return line_instance((1 - eps, Fraction(3), far), (0, 2, far), k=2)
    if name == WPV_REMARK:
        return line_instance((1, 3), (eps, 2, 4 - eps), k=1)
    if name == EXAMPLE_1:
        third = Fraction(4, 3)
        agents = (Fraction(1),) + (third,) * (n - 2) + (Fraction(2),)
        return line_instance(agents, (Fraction(2, 3) + eps, third, Fraction(2)), k=2)
    # median-context: a small odd profile where the median agent sits
    # between candidates at very different distances.
    return line_instance((0, 1, 10), (0, 9), k=1)


# ---------------------------------------------------------------------------
# random families


@dataclass(frozen=True)
class RandomFamily:
    """A seeded distribution over instances.

    kind "line-uniform": n agents and m candidates drawn uniformly from
    the grid points of [low, high] on the line.

    kind "metric-closure": a symmetric matrix of uniform grid weights
    over n+m points, closed under shortest paths; agents are points
    1..n, candidates are points n+1..n+m.
    """

    kind: str
    n: int
    m: int
    k: int = 1
    seed: int = 0
    low: Fraction = Fraction(0)
    high: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "low", parse_scalar(self.low))
        object.__setattr__(self, "high", parse_scalar(self.high))
        if self.kind not in ("line-uniform", "metric-closure"):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.n < 1 or self.m < 1:
            raise ValueError("need at least one agent and one candidate")
        if self.k not in (1, 2):
            raise ValueError(f"facility count must be 1 or 2, got {self.k}")
        if not self.low < self.high:
            raise ValueError(f"empty range [{self.low}, {self.high}]")


def _stream(family: RandomFamily, index: int) -> random.Random:
    # String seeding hashes via sha512, which is stable across runs and
    # Python versions (unlike hash() of a tuple of the same values).
    return random.Random(f"{family.seed}:{index}")


def _uniform_int(rng: random.Random, bound: int) -> int:
    """Uniform draw from [0, bound) built on getrandbits only.

    randint's acceptance path has changed across Python versions;
    getrandbits is raw generator output, so golden instances stay stable.
    """
    bits = (bound - 1).bit_length()
    while True:
        value = rng.getrandbits(bits) if bits else 0
        if value < bound:
            return value


def _grid_draw(rng: random.Random, low: Fraction, high: Fraction) -> Fraction:
    steps = int((high - low) * GRID_DENOMINATOR)
    return low + Fraction(_uniform_int(rng, steps + 1), GRID_DENOMINATOR)


def random_line_instance(family: RandomFamily, index: int) -> Instance:
    """Instance number `index` of a line-uniform family (agents drawn
    first, then candidates)."""
    if family.kind != "line-uniform":
        raise ValueError(f"not a line family: {family.kind!r}")
    rng = _stream(family, index)
    agents = tuple(_grid_draw(rng, family.low, family.high) for _ in range(family.n))
    candidates = tuple(_grid_draw(rng, family.low, family.high) for _ in range(family.m))
    return line_instance(agents, candidates, family.k)


def metric_closure(matrix) -> tuple[tuple[Fraction, ...], ...]:
    """Shortest-path closure of a weight matrix, checked as FiniteMetric
    checks but for the triangle inequality; idempotent (core._close)."""
    return FiniteMetric._closure(matrix).matrix


def random_metric_instance(family: RandomFamily, index: int) -> Instance:
    """Instance number `index` of a metric-closure family (upper-triangle
    weights drawn row by row)."""
    if family.kind != "metric-closure":
        raise ValueError(f"not a metric family: {family.kind!r}")
    rng = _stream(family, index)
    p = family.n + family.m
    raw = [[Fraction(0)] * p for _ in range(p)]
    for i in range(p):
        for j in range(i + 1, p):
            raw[i][j] = raw[j][i] = _grid_draw(rng, family.low, family.high)
    agents = tuple(range(1, family.n + 1))
    candidates = tuple(range(family.n + 1, p + 1))
    return Instance(FiniteMetric._closure(raw), agents, candidates, family.k)


def random_instance(family: RandomFamily, index: int) -> Instance:
    if family.kind == "line-uniform":
        return random_line_instance(family, index)
    return random_metric_instance(family, index)
