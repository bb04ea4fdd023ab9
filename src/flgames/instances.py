"""Instance catalog.

Two sources of instances:

  * exact parameterized constructions, used to replay the known
    lower-bound arguments and tight approximation examples at concrete
    parameter values; one table defines them all, by name;
  * seeded random families (uniform line profiles, shortest-path metric
    closures closed once by core), every coordinate or edge weight on
    the 10^6-step grid on [0, 1] (GRID_DENOMINATOR), used by the sweep
    and falsification; one table defines them all, by kind, and
    FAMILY_KINDS names the kinds.  random_instance is the only draw.
    Line coordinates are drawn as ints, metric edge weights as Fractions.

Random instances are deterministic in (seed, index): the same pair
always yields the same instance, independent of call order, so sweep
reports are reproducible byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .core import LINE, FiniteMetric, Instance, line_instance, parse_scalar

# Coordinates and edge weights are drawn from a fixed fine grid on [0, 1],
# so every draw is an exact rational, reproducible from (seed, index).
# Exact ties on it are rare; tie-heavy families are ROADMAP item 9.
GRID_DENOMINATOR = 10**6

# The only definition of each construction: its profile at (eps, far, n),
# as (agents, candidates, k).  The -lb- pairs are a base profile and a
# shifted profile differing only in agent 2's location (moved to 3).
_CONSTRUCTIONS = {
    "single-lb-I": lambda eps, far, n: ((1 - eps, 1 + eps), (0, 2), 1),
    "single-lb-I-prime": lambda eps, far, n: ((1 - eps, Fraction(3)), (0, 2), 1),
    "two-lb-I": lambda eps, far, n: ((1 - eps, 1 + eps, far), (0, 2, far), 2),
    "two-lb-I-prime": lambda eps, far, n: ((1 - eps, Fraction(3), far), (0, 2, far), 2),
    "wpv-remark": lambda eps, far, n: ((1, 3), (eps, 2, 4 - eps), 1),
    "example-1": lambda eps, far, n: (
        (Fraction(1),) + (Fraction(4, 3),) * (n - 2) + (Fraction(2),),
        (Fraction(2, 3) + eps, Fraction(4, 3), Fraction(2)),
        2,
    ),
    # a small odd profile where the median agent sits between candidates
    # at very different distances
    "median-context": lambda eps, far, n: ((0, 1, 10), (0, 9), 1),
}

CONSTRUCTION_NAMES = tuple(_CONSTRUCTIONS)


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
        if self.name.startswith("two-lb-") and self.far <= 10:
            raise ValueError(f"far point must exceed 10, got {self.far}")
        if self.name == "example-1":
            if type(self.n) is not int or self.n < 3:
                raise ValueError(f"example-1 needs n >= 3, got {self.n}")
            if self.eps >= Fraction(1, 3):
                raise ValueError(f"example-1 needs eps < 1/3, got {self.eps}")


def build_paper_instance(construction: PaperConstruction) -> Instance:
    """Materialize a named construction as an exact line instance.

    Replaying an -lb- bound runs a mechanism on its base and shifted
    profiles and checks the implied misreport of agent 2.
    """
    c = construction
    return line_instance(*_CONSTRUCTIONS[c.name](c.eps, c.far, c.n))


# ---------------------------------------------------------------------------
# random families


@dataclass(frozen=True)
class RandomFamily:
    """A seeded distribution over instances: n agents, m candidates and
    k facilities, every coordinate or edge weight drawn uniformly from
    the 10^6-step grid on [0, 1] (GRID_DENOMINATOR).  kind names one of
    FAMILY_KINDS; its builder in the table below says what is drawn.
    """

    kind: str
    n: int
    m: int
    k: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if type(self.n) is not int or type(self.m) is not int or self.n < 1 or self.m < 1:
            raise ValueError("need at least one agent and one candidate")
        if type(self.k) is not int or self.k not in (1, 2):
            raise ValueError(f"facility count must be 1 or 2, got {self.k}")
        if type(self.seed) is not int:
            raise ValueError(f"seed must be an integer, got {self.seed!r}")


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
        value = rng.getrandbits(bits)
        if value < bound:
            return value


def _line_family(family: RandomFamily, rng: random.Random) -> Instance:
    """n agents, then m candidates, each a point of the line, in Instance's int triple."""
    ints = [_uniform_int(rng, GRID_DENOMINATOR + 1) for _ in range(family.n + family.m)]
    g = gcd(GRID_DENOMINATOR, *ints)
    ints = [v // g for v in ints]
    stored = (tuple(ints[: family.n]), tuple(ints[family.n :]), GRID_DENOMINATOR // g)
    return Instance._trusted(LINE, family.k, stored)


def _metric_family(family: RandomFamily, rng: random.Random) -> Instance:
    """A symmetric matrix of weights over n+m points, upper triangle
    drawn row by row, closed under shortest paths; agents are points
    1..n, candidates are points n+1..n+m."""
    p = family.n + family.m
    raw = [[Fraction(0)] * p for _ in range(p)]
    for i in range(p):
        for j in range(i + 1, p):
            weight = Fraction(_uniform_int(rng, GRID_DENOMINATOR + 1), GRID_DENOMINATOR)
            raw[i][j] = raw[j][i] = weight
    agents = tuple(range(1, family.n + 1))
    candidates = tuple(range(family.n + 1, p + 1))
    space = FiniteMetric._closure(raw)
    return Instance._trusted(space, family.k, (agents, candidates, space.scale))


# The only definition of each family kind: its builder, called with the
# family and the instance's stream, from which it draws.
_FAMILIES = {
    "line-uniform": _line_family,
    "metric-closure": _metric_family,
}

FAMILY_KINDS = tuple(_FAMILIES)


def random_instance(family: RandomFamily, index: int) -> Instance:
    """Instance number `index` of the family, built by its kind's builder."""
    return _FAMILIES[family.kind](family, _stream(family, index))
