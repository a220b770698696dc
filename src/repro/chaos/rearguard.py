"""RearGuard: detect a lost agent and relaunch its last checkpoint.

The paper's fault-tolerance story needs a party that *stays behind*: the
agent carries a :class:`~repro.wrappers.fault.CheckpointWrapper` (its
briefcase is snapshotted into an ag_cabinet drawer at every hop) and a
:class:`~repro.wrappers.monitor.MonitorWrapper` with a heartbeat, and
the rear guard — a pseudo-agent registered at the home host — watches
those heartbeats.  A crashed host sends *nothing* (no "finished", no
heartbeat), so silence past the configured timeout is the loss signal;
the guard then pulls the last checkpoint out of the cabinet and
relaunches it on the first candidate VM whose host is still up
(:func:`repro.wrappers.fault.recover`).

The guard's registration doubles as the agent's monitor *and* its home:
monitor events are absorbed by the delivery hook; every other message
(the final report, meet replies) reaches the guard's mailbox, so the
same context can launch the agent, run recoveries, and receive results.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.briefcase import Briefcase
from repro.core.errors import TaxError
from repro.core.uri import AgentUri
from repro.core import wellknown
from repro.agent.context import AgentContext
from repro.agent.mailbox import Mailbox
from repro.sim.network import NetworkError
from repro.wrappers.fault import recover
from repro.wrappers.monitor import EVENT_FOLDER, MonitorLog, read_event


class RearGuard:
    """Heartbeat watchdog + checkpoint relauncher for one agent."""

    def __init__(self, node, cabinet: str, drawer: str,
                 candidates: List[str],
                 principal: str,
                 tag: Optional[str] = None,
                 heartbeat_timeout: float = 2.0,
                 poll_interval: float = 0.5,
                 max_relaunches: int = 3,
                 name: str = "rear_guard",
                 expected_incarnation: Optional[int] = None):
        self.node = node
        self.cabinet = cabinet
        self.drawer = drawer
        self.candidates = list(candidates)
        self.tag = tag
        self.heartbeat_timeout = heartbeat_timeout
        self.poll_interval = poll_interval
        self.max_relaunches = max_relaunches
        self.monitor_log = MonitorLog()
        #: Virtual time of the last report heard from the watched agent.
        self.last_seen: Optional[float] = None
        self.last_host: Optional[str] = None
        self.finished = False
        self.relaunches: List[Dict] = []
        self.failures: List[Dict] = []
        #: Incarnation the live agent should be reporting (None: the
        #: agent carries no INCARNATION folder — twin detection off).
        #: Each successful recovery bumps it, in lockstep with the +1
        #: that :func:`repro.wrappers.fault.recover` stamps into the
        #: relaunched checkpoint.
        self.expected_incarnation = expected_incarnation
        #: Orphan twins detected (reports with a stale incarnation).
        self.twins: List[Dict] = []
        self._twin_kills_sent: set = set()
        #: Kill requests spawned but not yet resolved — scenarios drain
        #: this before tearing the cluster down, so a report that beats
        #: the kill home doesn't leave the orphan alive.
        self.twin_kills_pending = 0
        self._stopped = False

        mailbox = Mailbox(node.kernel)
        ctx = AgentContext(node, vm_name="vm_python",
                           briefcase=Briefcase(), principal=principal)

        def deliver(message) -> bool:
            if message.briefcase.get_first(EVENT_FOLDER) is None:
                return mailbox.deliver(message)
            event = read_event(message)
            if event is not None:
                self._on_event(event)
            return self.monitor_log.deliver(message)

        registration = node.firewall.register_agent(
            name=name, principal=principal, vm_name="vm_python",
            deliver_fn=deliver)
        ctx.attach(registration, mailbox)
        self.ctx = ctx

    # -- event intake ---------------------------------------------------------------

    def _on_event(self, event: dict) -> None:
        if self.tag is not None and event.get("tag") != self.tag:
            return
        if self._is_twin(event):
            # An orphaned earlier incarnation is still alive somewhere
            # (its host healed after we recovered).  Its reports must
            # not count as life signs — and the twin must die.
            self._on_twin(event)
            return
        self.last_seen = self.node.kernel.now
        self.last_host = event.get("host")
        if event.get("event") == "finished":
            self.finished = True

    def _is_twin(self, event: dict) -> bool:
        if self.expected_incarnation is None:
            return False
        reported = event.get("incarnation")
        if reported is None:
            return False
        try:
            return int(reported) != self.expected_incarnation
        except (TypeError, ValueError):
            return False

    def _on_twin(self, event: dict) -> None:
        agent = event.get("agent") or ""
        host = event.get("host")
        kernel = self.node.kernel
        if agent in self._twin_kills_sent:
            return
        self._twin_kills_sent.add(agent)
        self.twins.append({"at": kernel.now, "agent": agent,
                           "host": host,
                           "incarnation": event.get("incarnation"),
                           "expected": self.expected_incarnation})
        instance = agent.rsplit(":", 1)[-1] if ":" in agent else None
        if host is None or instance is None:
            return
        self.twin_kills_pending += 1
        kernel.spawn(self._kill_twin(agent, host, instance),
                     name=f"twin-kill:{agent}")

    def _kill_twin(self, agent: str, host: str, instance: str):
        request = Briefcase()
        request.put(wellknown.OP, "kill")
        request.put(wellknown.ARGS, {"instance": instance})
        try:
            reply = yield from self.ctx.meet(
                AgentUri(host=host, name="firewall"), request,
                timeout=self.heartbeat_timeout * 4)
        except (TaxError, NetworkError):
            # Let the next heartbeat from the twin trigger another try.
            self._twin_kills_sent.discard(agent)
            return
        finally:
            self.twin_kills_pending -= 1
        results = reply.get_json(wellknown.RESULTS, {})
        killed = bool(results.get("killed")) \
            if isinstance(results, dict) else False
        # Not killed means already gone (crashed with its host, or
        # finished): fine — exactly-once only needs it not to be running.
        telemetry = self.node.kernel.telemetry
        if telemetry.enabled and killed:
            telemetry.metrics.inc("recovery.twins_killed")

    # -- introspection ---------------------------------------------------------------

    @property
    def uri(self) -> str:
        """The guard's address (use as both HOME and monitor URI)."""
        return str(self.ctx.uri)

    def silence(self) -> float:
        """Seconds since the watched agent was last heard from."""
        if self.last_seen is None:
            return 0.0
        return self.node.kernel.now - self.last_seen

    def stop(self) -> None:
        """End the watch loop at its next tick (the report arrived)."""
        self._stopped = True

    def stats(self) -> dict:
        return {
            "relaunches": list(self.relaunches),
            "recovery_failures": list(self.failures),
            "finished": self.finished,
            "last_host": self.last_host,
            "twins": list(self.twins),
        }

    # -- the watch loop ----------------------------------------------------------------

    def _pick_candidate(self) -> Optional[str]:
        network = self.node.network
        for vm in self.candidates:
            host = AgentUri.parse(vm).host
            if host is None or network.host_is_up(host):
                return vm
        return None

    def watch(self):
        """Generator: poll for silence, recover on loss.  Spawn with
        ``kernel.spawn(guard.watch())``; ends when the agent finishes,
        :meth:`stop` is called, or the relaunch budget is spent."""
        kernel = self.node.kernel
        if self.last_seen is None:
            self.last_seen = kernel.now
        while not (self._stopped or self.finished):
            yield kernel.timeout(self.poll_interval)
            if self._stopped or self.finished:
                return
            if self.silence() <= self.heartbeat_timeout:
                continue
            if len(self.relaunches) >= self.max_relaunches:
                return
            yield from self._recover_once()

    def _recover_once(self):
        kernel = self.node.kernel
        vm = self._pick_candidate()
        if vm is None:
            self.failures.append({"at": kernel.now,
                                  "error": "no live candidate host"})
            self.last_seen = kernel.now  # back off one full timeout
            return
        try:
            uri = yield from recover(self.ctx, self.cabinet, self.drawer, vm)
        except (TaxError, NetworkError) as exc:
            self.failures.append({"at": kernel.now, "vm": vm,
                                  "error": str(exc)})
            self.last_seen = kernel.now
            return
        self.relaunches.append({"at": kernel.now, "vm": vm, "uri": uri})
        if self.expected_incarnation is not None:
            # recover() bumped the checkpoint's INCARNATION by one;
            # track it so the old incarnation now reads as a twin.
            self.expected_incarnation += 1
        # Give the fresh incarnation a full window to start reporting.
        self.last_seen = kernel.now
