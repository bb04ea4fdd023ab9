"""Facility location games with candidate locations: exact mechanisms,
exhaustive optima, and strategyproofness falsification."""

from .core import (
    LINE,
    Deterministic,
    FiniteMetric,
    Instance,
    Line,
    Outcome,
    Randomized,
    line_instance,
    metric_instance,
    outcome_agent_cost,
    outcome_cost,
    parse_scalar,
)
from .instances import (
    CONSTRUCTION_NAMES,
    FAMILY_KINDS,
    GRID_DENOMINATOR,
    PaperConstruction,
    RandomFamily,
    build_paper_instance,
    random_instance,
)
from .mechanisms import (
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
from .solver import (
    DEFAULT_GUARD,
    INFINITE_RATIO,
    GuardExceeded,
    OptResult,
    Ratio,
    evaluate,
    optimal,
)
from .verify import (
    DEFAULT_GRID_POINTS,
    REPLAY_CONSTRUCTIONS,
    DeviationWitness,
    ReplayReport,
    SweepRow,
    check_anonymity,
    find_group_deviation,
    find_unilateral_deviation,
    iter_sweep,
    misreport_set,
    replay_lower_bound,
)

__version__ = "0.1.0"
