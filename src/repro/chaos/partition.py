"""The ``partition`` scenario family: exactly-once under split-brain.

The rows behind ``repro partition``: the fault plans aim squarely at the
*exactly-once* machinery — group partitions that heal, duplicate/
reorder/corrupt delivery storms, and asymmetric link failures that eat
acks while transports get through.  Every row tracks incarnations, so a
split brain that produces two live copies of the agent ends with the
stale one detected and killed.  The ``exactly_once`` block is the
acceptance evidence: per-host dedup conservation (``offered == accepted
+ duplicates + rejected``), suppressed duplicate landings, tombstone
refusals, and no site visited twice in the winning report.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List

from repro.chaos.harness import (HOME_HOST, Scenario, find_scenario,
                                 run_scenario)
from repro.sim.faults import FaultPlan


def named_partition_plan(name: str, workers: List[str]) -> FaultPlan:
    """The built-in plans ``repro partition --scenario`` accepts."""
    plan = FaultPlan(name=name)
    if name == "partition-storm":
        plan.duplicate_probability = 0.25
        plan.reorder_probability = 0.2
        plan.wire_corrupt_probability = 0.05
        return plan.split_brain(
            2.0, 1.5, [HOME_HOST, workers[0]], workers[1:])
    if name == "split-brain":
        plan.duplicate_probability = 0.1
        return plan.split_brain(1.2, 3.3, [HOME_HOST], workers)
    if name == "asym-ack-loss":
        plan.duplicate_probability = 0.15
        # Down from t=0 so the very first migration's ack is eaten:
        # the transport lands at the worker, the ack dies on the way
        # back, and the origin's re-sends must be re-acked through the
        # landing registry rather than re-launched.
        plan.link_down_oneway(0.0, workers[0], HOME_HOST)
        return plan.link_up_oneway(2.5, workers[0], HOME_HOST)
    raise ValueError(f"unknown partition scenario {name!r} "
                     f"(have {list(PARTITION_SCENARIOS)})")


def _row(name: str, hop_timeout: float, description: str) -> Scenario:
    # ``hop_timeout`` is the per-hop ack patience carried in the
    # briefcase: short enough that a lost ack triggers a re-send within
    # the scenario (exercising the landing handshake) instead of
    # stalling out the whole run on the default meet timeout.
    return Scenario(
        family="partition", name=name, description=description,
        plan=partial(named_partition_plan, name),
        hop_timeout=hop_timeout, incarnations=True,
        blocks=("scenario", "exactly_once", "delivery", "flight_recorder"),
        stats={"faults_injected": "faults.injected",
               "transport_retries": "transport.retries",
               "recovery_relaunches": "recovery.relaunches",
               "vm_duplicate_landings": "vm.duplicate_landings"})


PARTITION_SCENARIOS: Dict[str, Scenario] = {row.name: row for row in (
    _row("partition-storm", 5.0,
         "duplicate/reorder/corrupt storm + a group partition that "
         "heals mid-itinerary; the flagship exactly-once run"),
    _row("split-brain", 5.0,
         "home is cut off from every worker; the rear guard relaunches "
         "from checkpoint, the heal resurrects the orphan twin, the "
         "guard detects the stale incarnation and kills it"),
    _row("asym-ack-loss", 1.5,
         "one-way link failure eats acks while transports land, so "
         "retried migrations must be re-acked, not re-launched"),
)}


def run_partition(seed: int = 7, scenario: str = "partition-storm",
                  workers: int = 3) -> Dict:
    """Run the survey under the named row; return the JSON document."""
    return run_scenario(find_scenario(PARTITION_SCENARIOS, scenario),
                        seed, workers)
