"""ChaosEngine: fire a fault plan against a running cluster.

The engine is the *timed* half of fault injection (the probabilistic
half is the :class:`repro.sim.faults.FaultInjector` it installs on the
network): a kernel process walks the plan's sorted events and applies
each at its virtual time — link partitions and heals on the
:class:`~repro.sim.network.Network`, crashes and restarts on the
:class:`~repro.system.node.TaxNode`.

Everything the engine does is recorded in :attr:`ChaosEngine.applied`
(and counted as ``faults.injected``), so a chaos run can report exactly
which faults fired and when — and two runs with the same plan and seed
report identical sequences.
"""

from __future__ import annotations

from typing import List

from repro.sim.faults import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    KIND_CRASH,
    KIND_HEAL,
    KIND_LINK_DOWN,
    KIND_LINK_DOWN_ONEWAY,
    KIND_LINK_UP,
    KIND_LINK_UP_ONEWAY,
    KIND_PARTITION,
    KIND_RESTART,
)


class ChaosEngine:
    """Applies one :class:`FaultPlan` to one cluster."""

    def __init__(self, cluster, plan: FaultPlan, seed: int = 0):
        self.cluster = cluster
        self.plan = plan
        self.injector = FaultInjector(plan, seed_or_stream=seed,
                                      telemetry=cluster.telemetry)
        cluster.network.fault_injector = self.injector
        #: Event dicts in firing order, each extended with what happened.
        self.applied: List[dict] = []
        self.process = None

    # -- driving --------------------------------------------------------------------

    def start(self):
        """Spawn the driver process (idempotent); returns it."""
        if self.process is None:
            self.process = self.cluster.kernel.spawn(
                self._driver(), name=f"chaos:{self.plan.name}")
        return self.process

    def _driver(self):
        kernel = self.cluster.kernel
        start = kernel.now
        for event in self.plan.sorted_events():
            delay = start + event.at - kernel.now
            if delay > 0:
                yield kernel.timeout(delay)
            self._apply(event)

    # -- applying one event ------------------------------------------------------------

    def _count(self, kind: str) -> None:
        telemetry = self.cluster.telemetry
        if telemetry.enabled:
            telemetry.metrics.inc("faults.injected", kind=kind)

    def _apply(self, event: FaultEvent) -> dict:
        network = self.cluster.network
        record = event.to_dict()
        if event.kind == KIND_LINK_DOWN:
            network.set_link_up(event.link[0], event.link[1], False)
        elif event.kind == KIND_LINK_UP:
            network.set_link_up(event.link[0], event.link[1], True)
        elif event.kind == KIND_LINK_DOWN_ONEWAY:
            network.set_link_up_oneway(event.link[0], event.link[1], False)
        elif event.kind == KIND_LINK_UP_ONEWAY:
            network.set_link_up_oneway(event.link[0], event.link[1], True)
        elif event.kind == KIND_PARTITION:
            record["links_down"] = network.partition(event.groups)
        elif event.kind == KIND_HEAL:
            record["links_healed"] = network.heal()
        elif event.kind == KIND_CRASH:
            record["killed"] = self.cluster.node(event.host).crash()
        elif event.kind == KIND_RESTART:
            self.cluster.node(event.host).restart()
        self._count(event.kind)
        self.applied.append(record)
        return record
