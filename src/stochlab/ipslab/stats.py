"""Shared trial bookkeeping and argument checks for the simulators."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..memory import physical_memory_bytes

# bytes a recorded path point holds until the trajectory is returned: its
# (t, value) tuple, the float and value in it, and a slot in the path list
# and in the returned tuple (tracemalloc: 90-120 bytes at peak)
PATH_POINT_BYTES = 128


def check_record_dt(t_max: float, record_dt: float | None):
    """ValueError naming ``record_dt`` unless it is None, 0 or a finite
    positive step whose t_max / record_dt path points fit in physical memory."""
    if record_dt is not None and not 0 <= record_dt < math.inf:
        raise ValueError(f"record_dt must be finite and nonnegative, got {record_dt}")
    if record_dt and t_max / record_dt * PATH_POINT_BYTES > physical_memory_bytes():
        raise ValueError(f"record_dt {record_dt} asks for {t_max / record_dt:.3g} path points, "
                         "more than physical memory holds")


def check_kept_trials(trials: int, per_trial: float, name: str = "trials"):
    """ValueError naming ``name`` when the ``per_trial`` bytes an estimator
    keeps for each of ``trials`` trials until it reports would not fit in
    physical memory."""
    need = trials * per_trial
    if need > physical_memory_bytes():
        raise ValueError(f"{name} {trials} keeps {need / 2**30:.3g} GiB of per-trial values, "
                         "more than physical memory holds")


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
