"""Small-cell backhaul simulator.

Anchor stations lease backhaul resource blocks on aggregated mmWave and
sub-6 GHz carriers to demanding small cells.  The package models the
links, runs a distributed matching game with dynamic quotas against
best-effort and random baselines, verifies outcomes against an
exhaustive minimum-cost oracle on micro instances, and drives Monte
Carlo sweeps from the command line.
"""

__version__ = "0.1.0"

from .baselines import best_effort_allocate, random_allocate
from .matching import (
    InconsistentMatchingError,
    Matching,
    find_blocking_pairs,
    run_matching,
)
from .oracle import (
    ConstraintReport,
    InstanceTooLargeError,
    OracleSolution,
    brute_force_min_cost,
    check_constraints,
)
from .propagation import ChannelRealization, realize_channels
from .scenario import (
    Band,
    BandKind,
    BaseStation,
    ConfigError,
    GenerationConfig,
    MmwParams,
    Role,
    Scenario,
    ScenarioFormatError,
    Sub6Params,
    generate_scenario,
    load_scenario,
    save_scenario,
    validate_scenario,
)

__all__ = [
    "__version__",
    "Band",
    "BandKind",
    "BaseStation",
    "ChannelRealization",
    "ConfigError",
    "ConstraintReport",
    "GenerationConfig",
    "InconsistentMatchingError",
    "InstanceTooLargeError",
    "Matching",
    "MmwParams",
    "OracleSolution",
    "Role",
    "Scenario",
    "ScenarioFormatError",
    "Sub6Params",
    "best_effort_allocate",
    "brute_force_min_cost",
    "check_constraints",
    "find_blocking_pairs",
    "generate_scenario",
    "load_scenario",
    "random_allocate",
    "realize_channels",
    "run_matching",
    "save_scenario",
    "validate_scenario",
]
