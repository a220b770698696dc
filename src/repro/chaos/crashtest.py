"""The ``crashtest`` scenario family: journal replay under host crashes.

The rows behind ``repro crashtest``: the agent carries the ``bare`` kit
— no monitor, no checkpoint wrapper, no rear guard.  Without durable
hosts a crash simply eats such an agent (the ``repro chaos
--no-recovery`` baseline).  Here every host runs a crash-durable store
+ write-ahead journal (:mod:`repro.durability`), so a crashed worker
replays its journal on restart and relaunches the resident agent from
its journaled arrival blob — the un-checkpointed agent survives.

The verdict is two booleans, and ``repro crashtest`` exits non-zero
unless **both** hold: ``exactly_once.holds`` (itinerary completed, no
site visited twice in the winning report, dedup conservation on every
host) and ``conservation.holds`` (every agent instance ever spawned is
accounted for — alive, completed, moved, relaunched, or dead-lettered;
none silently lost).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List

from repro.chaos.harness import (Scenario, crash_target, find_scenario,
                                 run_scenario)
from repro.sim.faults import FaultPlan, StorageFaults


def named_crash_plan(name: str, workers: List[str]) -> FaultPlan:
    """The built-in plans ``repro crashtest --scenario`` accepts."""
    target = crash_target(workers)
    plan = FaultPlan(name=name)
    if name == "kill-during-migration":
        # t=2.5 lands mid-way through the agent's 1.5s work slice on
        # the second worker: the crash interrupts a resident agent.
        return plan.crash(2.5, target, outage=2.5)
    if name == "torn-journal-tail":
        plan.storage = StorageFaults(
            torn_tail_probability=1.0,
            lost_suffix_probability=1.0,
            lost_suffix_max_bytes=64)
        return plan.crash(2.5, target, outage=2.5)
    if name == "crash-loop":
        # Each outage + replayed work slice takes ~2s; three crashes
        # two virtual seconds apart each interrupt the resident agent
        # (the third lands on a twice-resurrected instance).
        plan.crash(2.2, target, outage=1.2)
        plan.crash(4.2, target, outage=1.2)
        return plan.crash(6.2, target, outage=1.2)
    raise ValueError(f"unknown crashtest scenario {name!r} "
                     f"(have {list(CRASHTEST_SCENARIOS)})")


def _row(name: str, snapshot_interval: int, description: str) -> Scenario:
    return Scenario(
        family="crashtest", name=name, description=description,
        plan=partial(named_crash_plan, name), kit="bare",
        snapshot_interval=snapshot_interval,
        blocks=("scenario", "exactly_once", "durability", "journal_sample"),
        stats={"host_crashes": "host.crashes",
               "records_replayed": "recovery.journal_records_replayed",
               "agents_restored": "recovery.agents_restored",
               "ambiguous_departures": "recovery.ambiguous_departures",
               "transport_retries": "transport.retries"})


CRASHTEST_SCENARIOS: Dict[str, Scenario] = {row.name: row for row in (
    _row("kill-during-migration", 64,
         "a worker dies mid-itinerary with a bare (un-checkpointed) "
         "agent resident; journal replay must resurrect it"),
    _row("torn-journal-tail", 64,
         "the same crash, but storage faults tear the journal tail and "
         "eat a durable suffix; replay recovers from the last good "
         "record"),
    # The crash-loop cadence is aggressive on purpose: compaction must
    # run *during* the loop, not just at restart.
    _row("crash-loop", 8,
         "the worker crashes and restarts three times with aggressive "
         "snapshot compaction; no twins may accumulate"),
)}


def run_crashtest(seed: int = 7, scenario: str = "kill-during-migration",
                  workers: int = 3) -> Dict:
    """Run the bare survey under the named row; return the document."""
    return run_scenario(find_scenario(CRASHTEST_SCENARIOS, scenario),
                        seed, workers)
