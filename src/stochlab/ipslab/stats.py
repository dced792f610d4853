"""Shared trial bookkeeping for the simulators."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TrialStats:
    """What happened across a batch of independent trials.

    Per-trial streams derive from (master_seed, lane, trial index), so the
    recorded seed and lane fully determine every trajectory for replay.
    """

    trials: int
    survivals: int = 0
    right_edge_samples: tuple[tuple[int, float, float], ...] = ()  # (trial, t, edge)
    master_seed: int = 0
    lane: str = ""
    notes: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.survivals > self.trials:
            raise ValueError("survivals cannot exceed trials")
        if self.trials < 0:
            raise ValueError("trials must be nonnegative")

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "survivals": self.survivals,
            "masterSeed": self.master_seed,
            "lane": self.lane,
            "notes": list(self.notes),
        }


# thresholds for the statistical acceptance checks, frozen after pilot runs
# (see README: these are finite-size surrogates for infinite-volume claims)
SURVIVAL_FLOOR_SUPERCRITICAL = 0.05   # lam=2, L=400, t=200, 500 trials
CONSENSUS_RATE_FLOOR = 0.99           # 20-cycle, t_max=1e4, 1000 trials
DUALITY_Z_BOUND = 4.0                 # 1e5 trials per side
