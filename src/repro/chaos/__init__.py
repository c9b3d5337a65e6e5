"""Chaos orchestration: crashes, partitions and gray failures as
first-class, schedulable scenarios.

The package splits into three deliberately small pieces:

- :mod:`~repro.chaos.schedule` — the declarative fault plan
  (:class:`FaultSchedule` of timed events);
- :mod:`~repro.chaos.controller` — the sim process that executes a plan
  deterministically (:class:`ChaosController`);
- :mod:`~repro.chaos.invariants` — safety-property checkers that make a
  chaos run falsifiable rather than merely noisy.

The health side of the fault model (heartbeats, phi-accrual detection,
monotonic membership) lives in :mod:`repro.runtime.health`; chaos
*injects* faults, health *observes* them, and the two only meet through
the fabric.

``python -m repro.obs.report chaos`` runs the canned crash/restart
scenario (R19) with invariant checking and JSONL trace export — the CI
chaos-smoke entry point.
"""

from .controller import ChaosController
from .invariants import (InvariantViolation, check_all,
                         check_membership_monotonic,
                         check_no_duplicate_delivery, check_reg_balance)
from .schedule import (ChaosEvent, ClearLink, CrashRank, FaultSchedule,
                       FlapLink, GrayLink, HealEvent, PartitionEvent,
                       RestartRank)

__all__ = [
    "ChaosController",
    "InvariantViolation", "check_all", "check_membership_monotonic",
    "check_no_duplicate_delivery", "check_reg_balance",
    "ChaosEvent", "ClearLink", "CrashRank", "FaultSchedule", "FlapLink",
    "GrayLink", "HealEvent", "PartitionEvent", "RestartRank",
]
