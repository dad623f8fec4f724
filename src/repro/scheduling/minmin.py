"""MIN-MIN and MIN-MINBUDG (Algorithm 3).

MIN-MIN [6], [14] repeatedly considers every *ready* task, computes its best
(smallest-EFT) host, and schedules the (task, host) pair with the global
minimum EFT. MIN-MINBUDG constrains each task's host choice by its budget
share ``B_T`` plus the shared ``pot`` (Algorithm 2). The baseline is the
infinite-budget special case. Both run the batch-mode loop of
:mod:`repro.scheduling.ready_set` with the key ``(-eft, -cost)``: the
loop's maximum of ``(key, -position)`` is the minimum of ``(eft, cost,
topological position)``.
"""

from __future__ import annotations

import math

from ..platform.cloud import CloudPlatform
from ..workflow.dag import Workflow
from .list_base import Scheduler, SchedulerResult
from .ready_set import _ReadySetBudgScheduler

__all__ = ["MinMinScheduler", "MinMinBudgScheduler"]


class MinMinBudgScheduler(_ReadySetBudgScheduler):
    """Budget-aware MIN-MIN (Algorithm 3)."""

    name = "minmin_budg"

    def _selection_key(self, state, tid, best):
        """MIN-MIN key: smallest best EFT first, cheaper host on a tie."""
        return (-best.eft, -best.cost)

    # Defined on the class itself, not only inherited, so per-class
    # profilers that wrap ``schedule`` (perfbench) time MIN-MIN apart
    # from the shared loop.
    def schedule(
        self, wf: Workflow, platform: CloudPlatform, budget: float
    ) -> SchedulerResult:
        """Run Algorithm 3: min-EFT choice over ready tasks under shares."""
        return super().schedule(wf, platform, budget)


class MinMinScheduler(Scheduler):
    """Classical MIN-MIN: the infinite-budget special case of MIN-MINBUDG."""

    name = "minmin"

    def schedule(
        self, wf: Workflow, platform: CloudPlatform, budget: float = math.inf
    ) -> SchedulerResult:
        """Run MIN-MIN: MIN-MINBUDG with an unlimited budget (``budget`` ignored)."""
        result = MinMinBudgScheduler().schedule(wf, platform, math.inf)
        result.algorithm = self.name
        return result
