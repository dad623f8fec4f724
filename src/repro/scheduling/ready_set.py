"""MAX-MIN and SUFFERAGE — the classical siblings of MIN-MIN (extension).

The paper builds on MIN-MIN ([6], [14]); the same batch-mode family
contains two other standard heuristics that any scheduling library is
expected to ship, and that make instructive baselines for the budget
machinery (they plug into Algorithm 1 + Algorithm 2 unchanged):

* **MAX-MIN**: among ready tasks, schedule the one whose *best* completion
  time is the largest — run the big rocks first so small tasks fill gaps;
* **SUFFERAGE**: schedule the task that would *suffer* most from not
  getting its best host — largest gap between its best and second-best
  EFT.

Both are implemented budget-aware (per-task shares + the shared pot, like
MIN-MINBUDG); the plain baselines are the infinite-budget special cases.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Set, Tuple

from ..platform.cloud import CloudPlatform
from ..workflow.dag import Workflow
from .budget import divide_budget
from .list_base import Scheduler, SchedulerResult, get_best_host
from .planning import HostEvaluation, PlanningState

__all__ = [
    "MaxMinBudgScheduler",
    "MaxMinScheduler",
    "SufferageBudgScheduler",
    "SufferageScheduler",
]


class _ReadySetBudgScheduler(Scheduler):
    """Shared batch-mode loop of MIN-MIN, MAX-MIN and SUFFERAGE.

    Subclasses provide the selection key. Ties go to the task earliest in
    topological order, so the order of the ready set never matters.
    """

    name = "abstract_ready_set"

    def _selection_key(
        self, state: PlanningState, tid: str, best: HostEvaluation
    ) -> Any:
        """Larger = scheduled earlier (any comparable). Subclasses override."""
        raise NotImplementedError

    def schedule(
        self, wf: Workflow, platform: CloudPlatform, budget: float
    ) -> SchedulerResult:
        """Batch-mode loop: evaluate all ready tasks, commit the winner."""
        wf.freeze()
        plan = divide_budget(wf, platform, budget)
        state = PlanningState(wf, platform)
        position = {tid: i for i, tid in enumerate(wf.topological_order)}
        pot = 0.0
        all_within = True

        pending_preds: Dict[str, int] = {
            tid: len(wf.predecessors(tid)) for tid in wf.tasks
        }
        ready: Set[str] = {t for t, n in pending_preds.items() if n == 0}

        while ready:
            best_tid: Optional[str] = None
            best_ev: Optional[HostEvaluation] = None
            best_within = True
            best_key: Optional[Tuple[Any, int]] = None
            for tid in ready:
                ev, within = get_best_host(state, tid, plan.share(tid) + pot)
                key = (self._selection_key(state, tid, ev), -position[tid])
                if best_key is None or key > best_key:
                    best_key = key
                    best_tid, best_ev, best_within = tid, ev, within
            assert best_tid is not None and best_ev is not None
            state.commit(best_ev)
            pot = plan.share(best_tid) + pot - best_ev.cost
            if not best_within:
                all_within = False
            ready.discard(best_tid)
            for succ in wf.successors(best_tid):
                pending_preds[succ] -= 1
                if pending_preds[succ] == 0:
                    ready.add(succ)

        return SchedulerResult(
            schedule=state.to_schedule(),
            planned_makespan=state.makespan,
            planned_vm_cost=state.vm_rental_cost(),
            within_budget_plan=all_within,
            algorithm=self.name,
            leftover_pot=max(pot, 0.0),
        )


class MaxMinBudgScheduler(_ReadySetBudgScheduler):
    """Budget-aware MAX-MIN: largest best-EFT ready task first."""

    name = "maxmin_budg"

    def _selection_key(self, state, tid, best):
        """MAX-MIN key: the task's best EFT (bigger scheduled first)."""
        return best.eft


class SufferageBudgScheduler(_ReadySetBudgScheduler):
    """Budget-aware SUFFERAGE: largest best-vs-second-best EFT gap first."""

    name = "sufferage_budg"

    def _selection_key(self, state, tid, best):
        """Sufferage: how much the task loses without its best host."""
        efts = sorted(ev.eft for ev in state.evaluate_all(tid))
        if len(efts) < 2:
            return 0.0
        return efts[1] - efts[0]


class MaxMinScheduler(Scheduler):
    """Classical MAX-MIN: the infinite-budget special case."""

    name = "maxmin"

    def schedule(
        self, wf: Workflow, platform: CloudPlatform, budget: float = math.inf
    ) -> SchedulerResult:
        """Run MAX-MIN (``budget`` ignored)."""
        result = MaxMinBudgScheduler().schedule(wf, platform, math.inf)
        result.algorithm = self.name
        return result


class SufferageScheduler(Scheduler):
    """Classical SUFFERAGE: the infinite-budget special case."""

    name = "sufferage"

    def schedule(
        self, wf: Workflow, platform: CloudPlatform, budget: float = math.inf
    ) -> SchedulerResult:
        """Run SUFFERAGE (``budget`` ignored)."""
        result = SufferageBudgScheduler().schedule(wf, platform, math.inf)
        result.algorithm = self.name
        return result
