"""The ``chaos`` scenario family: the survey itinerary under a fault plan.

The rows behind ``repro chaos``: host crashes, restarts, link flaps and
probabilistic message damage against an agent carrying the full
recovery kit (see :class:`repro.chaos.harness.Scenario`).  ``run_chaos(...,
recovery=False)`` runs the same row with the kit dropped — the
pre-resilience baseline in which a crashed host simply eats the agent
and the run times out empty.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Dict, List

from repro.chaos.harness import (HOME_HOST, Scenario, crash_target,
                                 find_scenario, run_scenario)
from repro.sim.faults import FaultPlan


def named_plan(name: str, workers: List[str]) -> FaultPlan:
    """The built-in fault plans ``repro chaos --plan`` accepts."""
    plan = FaultPlan(name=name)
    if name == "none":
        return plan
    if name == "mid-crash":
        return plan.crash(2.5, crash_target(workers))
    if name == "crash-restart":
        return plan.crash(2.5, crash_target(workers), outage=3.5)
    if name == "flaky-links":
        plan.drop_probability = 0.03
        plan.corrupt_probability = 0.01
        return plan.flap(1.0, HOME_HOST, workers[0], 0.4)
    raise ValueError(f"unknown chaos plan {name!r} "
                     f"(have {list(CHAOS_SCENARIOS)})")


def _row(name: str, description: str) -> Scenario:
    return Scenario(
        family="chaos", name=name, description=description,
        plan=partial(named_plan, name),
        blocks=("survival", "flight_recorder"),
        stats={"host_crashes": "host.crashes",
               "faults_injected": "faults.injected",
               "transport_retries": "transport.retries",
               "recovery_relaunches": "recovery.relaunches",
               "checkpoints": "checkpoint.taken"})


CHAOS_SCENARIOS: Dict[str, Scenario] = {row.name: row for row in (
    _row("none", "control run, no faults"),
    _row("mid-crash",
         "the second worker crashes mid-itinerary and never returns; "
         "recovery must skip it and report it unreachable"),
    _row("crash-restart",
         "same crash, but the host restarts while the recovered agent "
         "is still retrying, so the itinerary completes"),
    _row("flaky-links",
         "no crashes, but a link flap plus probabilistic message "
         "drops/corruption that transport retries must absorb"),
)}


def run_chaos(seed: int = 7, plan: str = "mid-crash",
              recovery: bool = True, workers: int = 3,
              recv_timeout: float = 600.0) -> Dict:
    """Run the survey under the named plan; return the JSON document."""
    row = find_scenario(CHAOS_SCENARIOS, plan)
    return run_scenario(row if recovery else replace(row, kit="none"),
                        seed, workers, recv_timeout)
