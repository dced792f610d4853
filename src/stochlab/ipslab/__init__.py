"""Desk-scale continuous-time Monte Carlo for the contact process and the
voter model, with coalescing-walk duality checks."""

from .contact import (
    DEFAULT_LEFT_DEPTH,
    ContactConfig,
    ContactTrajectory,
    EdgeSpeedEstimate,
    SurvivalEstimate,
    center_seed,
    estimate_survival,
    right_edge_speed,
    simulate_contact,
    threshold_config,
)
from .rng import MAX_TRIALS, UniformBuffer, binomial_ci, trial_generator
from .stats import (
    CONSENSUS_RATE_FLOOR,
    DUALITY_Z_BOUND,
    SURVIVAL_FLOOR_SUPERCRITICAL,
    TrialStats,
)
from .voter import (
    ConsensusEstimate,
    DualityReport,
    VoterConfig,
    VoterTrajectory,
    consensus_rate,
    duality_check,
    simulate_voter,
)

__all__ = [
    "CONSENSUS_RATE_FLOOR",
    "DEFAULT_LEFT_DEPTH",
    "ConsensusEstimate",
    "ContactConfig",
    "ContactTrajectory",
    "DUALITY_Z_BOUND",
    "DualityReport",
    "EdgeSpeedEstimate",
    "MAX_TRIALS",
    "SURVIVAL_FLOOR_SUPERCRITICAL",
    "SurvivalEstimate",
    "TrialStats",
    "UniformBuffer",
    "VoterConfig",
    "VoterTrajectory",
    "binomial_ci",
    "center_seed",
    "consensus_rate",
    "duality_check",
    "estimate_survival",
    "right_edge_speed",
    "simulate_contact",
    "simulate_voter",
    "threshold_config",
    "trial_generator",
]
