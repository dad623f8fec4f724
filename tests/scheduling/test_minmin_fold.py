"""MIN-MIN on the shared batch-mode loop equals its original own loop."""

import math
from typing import Dict, Optional, Tuple

import pytest

from repro import PAPER_PLATFORM, generate, make_scheduler
from repro.experiments.budgets import high_budget, minimal_budget
from repro.scheduling.budget import divide_budget
from repro.scheduling.list_base import SchedulerResult, get_best_host
from repro.scheduling.planning import HostEvaluation, PlanningState

FAMILIES = ("cybershake", "ligo", "montage", "epigenomics", "sipht")
POSITIONS = (0.0, 0.25, 0.6, 1.0)  # budget placed on [B_min, B_high]


def oracle_minmin_budg(wf, platform, budget):
    """MIN-MINBUDG's former dedicated loop, kept verbatim as the oracle."""
    wf.freeze()
    plan = divide_budget(wf, platform, budget)
    state = PlanningState(wf, platform)
    position = {tid: i for i, tid in enumerate(wf.topological_order)}
    pot = 0.0
    all_within = True
    pending_preds: Dict[str, int] = {
        tid: len(wf.predecessors(tid)) for tid in wf.tasks
    }
    ready = {tid for tid, n in pending_preds.items() if n == 0}
    while ready:
        best: Optional[Tuple[HostEvaluation, bool]] = None
        best_key: Optional[Tuple[float, float, int]] = None
        for tid in ready:
            ev, within = get_best_host(state, tid, plan.share(tid) + pot)
            key = (ev.eft, ev.cost, position[tid])
            if best_key is None or key < best_key:
                best_key = key
                best = (ev, within)
        ev, within = best
        state.commit(ev)
        pot = plan.share(ev.tid) + pot - ev.cost
        if not within:
            all_within = False
        ready.discard(ev.tid)
        for succ in wf.successors(ev.tid):
            pending_preds[succ] -= 1
            if pending_preds[succ] == 0:
                ready.add(succ)
    return SchedulerResult(
        schedule=state.to_schedule(),
        planned_makespan=state.makespan,
        planned_vm_cost=state.vm_rental_cost(),
        within_budget_plan=all_within,
        algorithm="minmin_budg",
        leftover_pot=max(pot, 0.0),
    )


def assert_same(got, want):
    assert got.schedule.order == want.schedule.order
    assert got.schedule.assignment == want.schedule.assignment
    assert got.schedule.categories == want.schedule.categories
    assert got.planned_makespan == want.planned_makespan
    assert got.planned_vm_cost == want.planned_vm_cost
    assert got.within_budget_plan == want.within_budget_plan
    assert got.leftover_pot == want.leftover_pot


@pytest.mark.parametrize("family", FAMILIES)
def test_minmin_budg_matches_oracle(family):
    wf = generate(family, 30, rng=3, sigma_ratio=0.5)
    b_min = minimal_budget(wf, PAPER_PLATFORM)
    b_high = high_budget(wf, PAPER_PLATFORM)
    for pos in POSITIONS:
        budget = b_min + pos * (b_high - b_min)
        got = make_scheduler("minmin_budg").schedule(wf, PAPER_PLATFORM, budget)
        assert_same(got, oracle_minmin_budg(wf, PAPER_PLATFORM, budget))


@pytest.mark.parametrize("family", FAMILIES)
def test_minmin_matches_oracle(family):
    wf = generate(family, 30, rng=4, sigma_ratio=0.5)
    want = oracle_minmin_budg(wf, PAPER_PLATFORM, math.inf)
    for budget in (math.inf, minimal_budget(wf, PAPER_PLATFORM), 1e-9):
        got = make_scheduler("minmin").schedule(wf, PAPER_PLATFORM, budget)
        assert got.algorithm == "minmin"
        assert_same(got, want)
