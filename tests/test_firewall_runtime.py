"""Integration-level tests for the firewall as a reference monitor."""

import pytest

from repro.core import codec, wellknown
from repro.core.briefcase import Briefcase
from repro.core.errors import (
    AccessDeniedError,
    AgentNotFoundError,
    BriefcaseTooLargeError,
    CircuitOpenError,
    UriSyntaxError,
)
from repro.core.limits import BreakerConfig, WireLimits
from repro.core.uri import AgentUri
from repro.firewall.firewall import code_signing_bytes
from repro.firewall.governor import GovernorConfig
from repro.firewall.message import MAX_HOPS, Message, SenderInfo
from repro.firewall.policy import OP_SEND, Policy, closed_policy
from repro.obs.telemetry import Telemetry
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.network import LinkDownError
from repro.system.cluster import TaxCluster
from repro.vm import loader


def collector(node, name="sink"):
    """A raw registered mailbox for observing deliveries."""
    from repro.agent.mailbox import Mailbox
    mailbox = Mailbox(node.kernel)
    node.firewall.register_agent(
        name=name, principal="system", vm_name="vm_python",
        deliver_fn=mailbox.deliver)
    return mailbox


class TestLocalDispatch:
    def test_delivery_to_registered_agent(self, single_cluster):
        node = single_cluster.node("solo.test")
        mailbox = collector(node)
        driver = node.driver()

        def scenario():
            yield from driver.send(AgentUri.parse("sink"),
                                   Briefcase({"X": ["1"]}))
        single_cluster.run(scenario())
        assert len(mailbox) == 1

    def test_queue_ahead_of_arrival(self, single_cluster):
        """Messages can be sent before the receiving agent exists."""
        node = single_cluster.node("solo.test")
        driver = node.driver()

        def scenario():
            yield from driver.send(AgentUri.parse("late-agent"),
                                   Briefcase({"X": ["early"]}),
                                   queue_timeout=30)
            yield single_cluster.kernel.timeout(5)
            mailbox = collector(node, "late-agent")
            yield single_cluster.kernel.timeout(0)
            return len(mailbox)
        assert single_cluster.run(scenario()) == 1
        assert node.firewall.stats.queued == 1

    def test_queued_message_expires(self, single_cluster):
        node = single_cluster.node("solo.test")
        driver = node.driver()

        def scenario():
            yield from driver.send(AgentUri.parse("never"),
                                   Briefcase(), queue_timeout=2)
            yield single_cluster.kernel.timeout(5)
            mailbox = collector(node, "never")
            yield single_cluster.kernel.timeout(1)
            return len(mailbox)
        assert single_cluster.run(scenario()) == 0
        assert node.firewall.stats.expired == 1

    def test_zero_timeout_message_dropped_when_absent(self, single_cluster):
        node = single_cluster.node("solo.test")
        driver = node.driver()

        def scenario():
            ok = yield from driver.send(AgentUri.parse("absent"),
                                        Briefcase(), queue_timeout=0)
            return ok
        assert single_cluster.run(scenario()) is False
        assert node.firewall.stats.rejected >= 1

    def test_policy_denial_raises(self, single_cluster):
        node = single_cluster.node("solo.test")
        collector(node)
        node.firewall.policy.deny("system", OP_SEND)
        driver = node.driver()

        def scenario():
            with pytest.raises(AccessDeniedError):
                yield from driver.send(AgentUri.parse("sink"), Briefcase())
            return "done"
        assert single_cluster.run(scenario()) == "done"

    def test_local_dispatch_costs_time(self, single_cluster):
        node = single_cluster.node("solo.test")
        collector(node)
        driver = node.driver()

        def scenario():
            yield from driver.send(AgentUri.parse("sink"), Briefcase())
            return single_cluster.kernel.now
        assert single_cluster.run(scenario()) > 0


class TestRemoteForwarding:
    def test_bytes_charged_match_encoding(self, pair_cluster):
        alpha = pair_cluster.node("alpha.test")
        beta = pair_cluster.node("beta.test")
        collector(beta, "remote-sink")
        driver = alpha.driver()
        briefcase = Briefcase({"PAYLOAD": [b"z" * 1000]})

        def scenario():
            yield from driver.send(
                AgentUri.parse("tacoma://beta.test/remote-sink"),
                briefcase)
        pair_cluster.run(scenario())
        stats = pair_cluster.network.link_between("alpha.test",
                                                  "beta.test").stats
        # The driver's send snapshots and adds nothing, so the wire size
        # is the encoded briefcase + envelope overhead.
        from repro.firewall.message import ENVELOPE_OVERHEAD_BYTES
        assert stats.payload_bytes == \
            codec.encoded_size(briefcase) + ENVELOPE_OVERHEAD_BYTES
        assert alpha.firewall.stats.forwarded_remote == 1
        assert beta.firewall.stats.received_remote == 1

    def test_briefcase_isolated_across_transport(self, pair_cluster):
        beta = pair_cluster.node("beta.test")
        mailbox = collector(beta, "remote-sink")
        driver = pair_cluster.node("alpha.test").driver()
        briefcase = Briefcase({"F": ["original"]})

        def scenario():
            yield from driver.send(
                AgentUri.parse("tacoma://beta.test/remote-sink"), briefcase)
        pair_cluster.run(scenario())
        briefcase.folder("F").replace(["mutated-after-send"])
        delivered = mailbox._take_queued(None)
        assert delivered.briefcase.get_text("F") == "original"

    def test_self_addressed_remote_uri_is_local(self, single_cluster):
        node = single_cluster.node("solo.test")
        mailbox = collector(node)
        driver = node.driver()

        def scenario():
            yield from driver.send(
                AgentUri.parse("tacoma://solo.test/sink"), Briefcase())
        single_cluster.run(scenario())
        assert len(mailbox) == 1
        assert single_cluster.network.total_remote_bytes() == 0


class TestAuthentication:
    def signed_briefcase(self, cluster, principal, tamper=False):
        cluster.add_principal(principal)
        payload = loader.pack_source("def f(ctx, bc):\n    return 1\n", "f")
        briefcase = Briefcase()
        loader.install_payload(briefcase, payload, agent_name="agent")
        signature = cluster.keychain.sign(
            principal, code_signing_bytes(briefcase))
        briefcase.put(wellknown.SIGNATURE, signature.to_text())
        if tamper:
            briefcase.folder(wellknown.CODE).replace([b"evil"])
        return briefcase

    def test_valid_signature_authenticates(self, pair_cluster):
        briefcase = self.signed_briefcase(pair_cluster, "alice")
        beta = pair_cluster.node("beta.test")
        mailbox = collector(beta, "sink")
        driver = pair_cluster.node("alpha.test").driver(principal="alice")

        def scenario():
            yield from driver.send(
                AgentUri.parse("tacoma://beta.test/sink"), briefcase)
        pair_cluster.run(scenario())
        message = mailbox._take_queued(None)
        assert message.sender.principal == "alice"
        assert message.sender.authenticated

    def test_tampered_code_rejected_at_arrival(self, pair_cluster):
        briefcase = self.signed_briefcase(pair_cluster, "alice",
                                          tamper=True)
        beta = pair_cluster.node("beta.test")
        mailbox = collector(beta, "sink")
        driver = pair_cluster.node("alpha.test").driver(principal="alice")

        def scenario():
            yield from driver.send(
                AgentUri.parse("tacoma://beta.test/sink"), briefcase)
        pair_cluster.run(scenario())
        assert len(mailbox) == 0
        assert beta.firewall.stats.rejected == 1

    def test_unsigned_briefcase_is_unauthenticated(self, pair_cluster):
        beta = pair_cluster.node("beta.test")
        mailbox = collector(beta, "sink")
        driver = pair_cluster.node("alpha.test").driver(principal="alice")
        pair_cluster.add_principal("alice")

        def scenario():
            yield from driver.send(
                AgentUri.parse("tacoma://beta.test/sink"),
                Briefcase({"X": ["unsigned"]}))
        pair_cluster.run(scenario())
        message = mailbox._take_queued(None)
        assert message.sender.principal == "alice"
        assert not message.sender.authenticated


class TestAdminAgent:
    def admin_call(self, cluster, op, args=None):
        driver = cluster.node("solo.test").driver()

        def scenario():
            briefcase = Briefcase()
            if args is not None:
                briefcase.put(wellknown.ARGS, args)
            reply = yield from driver.call_service("firewall", op,
                                                   briefcase)
            return reply.get_json(wellknown.RESULTS)
        return cluster.run(scenario())

    def test_list_shows_standard_agents(self, single_cluster):
        results = self.admin_call(single_cluster, "list")
        names = {a["name"] for a in results["agents"]}
        assert {"vm_python", "vm_bin", "vm_source", "ag_exec", "ag_cc",
                "ag_fs", "ag_cabinet", "ag_cron", "ag_locator",
                "firewall"} <= names

    def test_stat_reports_runtime(self, single_cluster):
        agents = self.admin_call(single_cluster, "list")["agents"]
        instance = agents[0]["instance"]
        stat = self.admin_call(single_cluster, "stat",
                               {"instance": instance})
        assert stat["instance"] == instance
        assert stat["alive"] is True

    def test_kill_unregisters(self, single_cluster):
        node = single_cluster.node("solo.test")
        mailbox = collector(node, "victim")
        registration = node.firewall.registry.matches(
            AgentUri.parse("victim"), "system")[0]
        result = self.admin_call(single_cluster, "kill",
                                 {"instance": registration.instance})
        assert result["killed"] is True
        assert node.firewall.registry.matches(
            AgentUri.parse("victim"), "system") == []
        del mailbox

    def test_stop_and_resume(self, single_cluster):
        node = single_cluster.node("solo.test")
        mailbox = collector(node, "pausee")
        registration = node.firewall.registry.matches(
            AgentUri.parse("pausee"), "system")[0]
        assert self.admin_call(single_cluster, "stop",
                               {"instance": registration.instance})["stopped"]
        driver = node.driver(name="d2")

        def scenario():
            yield from driver.send(AgentUri.parse("pausee"), Briefcase())
        single_cluster.run(scenario())
        assert len(mailbox) == 0  # buffered, not delivered
        assert self.admin_call(single_cluster, "resume",
                               {"instance": registration.instance})["resumed"]
        assert len(mailbox) == 1

    def test_admin_denied_for_unprivileged(self, single_cluster):
        node = single_cluster.node("solo.test")
        driver = node.driver(name="rando", principal="rando")
        from repro.core.errors import TaxError

        def scenario():
            with pytest.raises(TaxError, match="not.*authorized|denied"):
                yield from driver.call_service("firewall", "list")
            return "done"
        assert single_cluster.run(scenario()) == "done"

    def test_kill_running_agent_interrupts_process(self, single_cluster):
        node = single_cluster.node("solo.test")
        driver = node.driver()
        briefcase = Briefcase()
        loader.install_payload(
            briefcase, loader.pack_ref(sleeper_agent), agent_name="sleeper")

        def scenario():
            reply = yield from driver.meet(
                single_cluster.vm_uri("solo.test"), briefcase, timeout=30)
            uri = AgentUri.parse(reply.get_text("AGENT-URI"))
            args = Briefcase()
            args.put(wellknown.ARGS, {"instance": uri.instance})
            args.put(wellknown.OP, "kill")
            reply2 = yield from driver.meet(AgentUri.parse("firewall"),
                                            args, timeout=30)
            return reply2.get_json(wellknown.RESULTS)
        result = single_cluster.run(scenario())
        assert result["killed"] is True


class TestTelemetryCounters:
    """The firewall feeds the system metrics registry when enabled."""

    @pytest.mark.telemetry
    def test_queue_timeout_increments_expired_counter(self, single_cluster):
        node = single_cluster.node("solo.test")
        driver = node.driver()

        def scenario():
            yield from driver.send(AgentUri.parse("never"),
                                   Briefcase(), queue_timeout=2)
            yield single_cluster.kernel.timeout(5)
        single_cluster.run(scenario())
        metrics = single_cluster.telemetry.metrics
        assert metrics.value("fw.queue_expired", host="solo.test") == 1
        wait = metrics.value("fw.queue_wait_seconds",
                             host="solo.test", outcome="expired")
        assert wait.count == 1
        spans = single_cluster.telemetry.tracer.find(
            name="fw.queue_wait", track="fw:solo.test")
        assert [s.args["outcome"] for s in spans] == ["expired"]
        assert spans[0].duration == pytest.approx(2.0)

    @pytest.mark.telemetry
    def test_queue_delivery_increments_delivered_outcome(self,
                                                         single_cluster):
        node = single_cluster.node("solo.test")
        driver = node.driver()

        def scenario():
            yield from driver.send(AgentUri.parse("late"),
                                   Briefcase(), queue_timeout=30)
            yield single_cluster.kernel.timeout(5)
            collector(node, "late")
            yield single_cluster.kernel.timeout(0)
        single_cluster.run(scenario())
        metrics = single_cluster.telemetry.metrics
        wait = metrics.value("fw.queue_wait_seconds",
                             host="solo.test", outcome="delivered")
        assert wait.count == 1
        assert metrics.value("fw.queue_expired", host="solo.test") is None

    @pytest.mark.telemetry
    def test_auth_failure_increments_rejected_counter(self, pair_cluster):
        case = TestAuthentication()
        briefcase = case.signed_briefcase(pair_cluster, "alice",
                                          tamper=True)
        beta = pair_cluster.node("beta.test")
        collector(beta, "sink")
        driver = pair_cluster.node("alpha.test").driver(principal="alice")

        def scenario():
            yield from driver.send(
                AgentUri.parse("tacoma://beta.test/sink"), briefcase)
        pair_cluster.run(scenario())
        metrics = pair_cluster.telemetry.metrics
        assert metrics.value("fw.auth", host="beta.test",
                             outcome="rejected") == 1
        assert metrics.value("fw.auth", host="beta.test",
                             outcome="verified") is None

    @pytest.mark.telemetry
    def test_successful_auth_increments_verified(self, pair_cluster):
        case = TestAuthentication()
        briefcase = case.signed_briefcase(pair_cluster, "alice")
        beta = pair_cluster.node("beta.test")
        collector(beta, "sink")
        driver = pair_cluster.node("alpha.test").driver(principal="alice")

        def scenario():
            yield from driver.send(
                AgentUri.parse("tacoma://beta.test/sink"), briefcase)
        pair_cluster.run(scenario())
        metrics = pair_cluster.telemetry.metrics
        assert metrics.value("fw.auth", host="beta.test",
                             outcome="verified") == 1

    @pytest.mark.telemetry
    def test_delivery_and_per_agent_counters(self, single_cluster):
        node = single_cluster.node("solo.test")
        collector(node)
        driver = node.driver()

        def scenario():
            yield from driver.send(AgentUri.parse("sink"),
                                   Briefcase({"X": ["1"]}))
        single_cluster.run(scenario())
        metrics = single_cluster.telemetry.metrics
        assert metrics.value("fw.delivered", host="solo.test") == 1
        assert metrics.value("agent.messages_in", agent="sink") == 1
        assert metrics.value("agent.messages_out", agent="driver") == 1

    @pytest.mark.telemetry
    def test_admin_stat_includes_agent_telemetry(self, single_cluster):
        node = single_cluster.node("solo.test")
        collector(node, "watched")
        driver = node.driver()

        def scenario():
            yield from driver.send(AgentUri.parse("watched"), Briefcase())
        single_cluster.run(scenario())
        registration = node.firewall.registry.matches(
            AgentUri.parse("watched"), "system")[0]
        stat = TestAdminAgent().admin_call(
            single_cluster, "stat", {"instance": registration.instance})
        assert stat["telemetry"]["enabled"] is True
        assert stat["telemetry"]["messages_in"] == 1
        assert stat["telemetry"]["hops"] == 0

    def test_disabled_telemetry_records_nothing(self, single_cluster):
        node = single_cluster.node("solo.test")
        collector(node)
        driver = node.driver()

        def scenario():
            yield from driver.send(AgentUri.parse("sink"), Briefcase())
        single_cluster.run(scenario())
        assert single_cluster.telemetry.metrics.snapshot() == {}
        assert single_cluster.telemetry.tracer.spans == []


def sleeper_agent(ctx, bc):
    yield from ctx.sleep(10_000)
    return "overslept"


class TestHopGuard:
    @pytest.mark.telemetry
    def test_looping_message_rejected(self, pair_cluster):
        alpha = pair_cluster.node("alpha.test")
        message = Message(
            target=AgentUri.parse("tacoma://beta.test/ag_fs"),
            briefcase=Briefcase(),
            sender=SenderInfo("system", "alpha.test"),
            hops=MAX_HOPS)

        def scenario():
            ok = yield from alpha.firewall.submit(message)
            return ok
        assert pair_cluster.run(scenario()) is False
        assert alpha.firewall.stats.rejected == 1
        assert pair_cluster.telemetry.metrics.value(
            "fw.rejected", host="alpha.test", reason="looping") == 1


class TestForwardRejections:
    """A refused forward is recorded by one call: the ``stats.rejected``
    tally, ``fw.rejected{reason}`` and a ``rejected`` flight record."""

    @staticmethod
    def governed_pair():
        cluster = TaxCluster(telemetry=Telemetry(enabled=True))
        governor = GovernorConfig(
            wire_limits=WireLimits(max_encoded_bytes=1024))
        cluster.add_node("alpha.test", policy=Policy(governor=governor))
        cluster.add_node("beta.test")
        cluster.network.link("alpha.test", "beta.test")
        return cluster

    @pytest.mark.parametrize("reason, raised, detail", [
        ("looping", None, {"target"}),
        ("no-route", AgentNotFoundError, {"target"}),
        ("oversized", BriefcaseTooLargeError, {"target", "wire_bytes"}),
        ("circuit-open", CircuitOpenError, {"dst"}),
        ("link-down", LinkDownError, {"dst"}),
    ])
    def test_each_reason_writes_tally_counter_and_flight_record(
            self, reason, raised, detail):
        cluster = self.governed_pair()
        network = cluster.network
        host, hops, briefcase = "beta.test", 0, Briefcase()
        if reason == "looping":
            hops = MAX_HOPS
        elif reason == "no-route":
            host = "nowhere.test"
        elif reason == "oversized":
            briefcase.append("PAYLOAD", bytes(2048))
        elif reason == "circuit-open":
            network.configure_breakers(BreakerConfig(failure_threshold=1))
            network.breaker_between("alpha.test", "beta.test") \
                .record_failure(cluster.kernel.now)
        else:
            network.set_link_up("alpha.test", "beta.test", False)
        message = Message(
            target=AgentUri.parse(f"tacoma://{host}/sink"),
            briefcase=briefcase,
            sender=SenderInfo("system", "alpha.test"), hops=hops)
        firewall = cluster.node("alpha.test").firewall
        before = firewall.stats.rejected

        def scenario():
            return (yield from firewall.submit(message))
        if raised is None:
            assert cluster.run(scenario()) is False
        else:
            with pytest.raises(raised):
                cluster.run(scenario())
        assert firewall.stats.rejected == before + 1
        assert cluster.telemetry.metrics.value(
            "fw.rejected", host="alpha.test", reason=reason) == 1
        newest = cluster.telemetry.flight.snapshot("alpha.test")[-1]
        assert newest["kind"] == "rejected"
        assert newest["reason"] == reason
        assert set(newest) - {"t", "kind", "reason"} == detail


class TestSwallowedFailures:
    """A failure the firewall catches and does not raise still leaves
    exactly one record: a counter, written while telemetry is on."""

    @staticmethod
    def delaying_pair(beta_policy=None):
        """alpha → beta with every forward held back one second."""
        cluster = TaxCluster(telemetry=Telemetry(enabled=True))
        cluster.add_node("alpha.test")
        beta = cluster.add_node("beta.test", policy=beta_policy)
        cluster.network.link("alpha.test", "beta.test")
        cluster.network.fault_injector = FaultInjector(
            FaultPlan(reorder_probability=1.0, reorder_delay=(1.0, 1.0)),
            seed_or_stream=7)
        collector(beta)
        return cluster, beta

    def send_held_back(self, cluster, after_send=None):
        driver = cluster.node("alpha.test").driver(principal="alice")

        def scenario():
            ok = yield from driver.send(
                AgentUri.parse("tacoma://beta.test/sink"), Briefcase())
            if after_send is not None:
                after_send()
            yield cluster.kernel.timeout(5)
            return ok
        assert cluster.run(scenario()) is True

    def test_delayed_delivery_to_a_crashed_host_is_counted(self):
        cluster, beta = self.delaying_pair()
        self.send_held_back(cluster, after_send=beta.crash)
        assert cluster.telemetry.metrics.value(
            "fw.delayed_lost", host="alpha.test", outcome="host-down") == 1
        assert beta.firewall.stats.received_remote == 0

    def test_delayed_delivery_the_peer_refuses_is_counted(self):
        cluster, beta = self.delaying_pair(beta_policy=closed_policy())
        self.send_held_back(cluster)
        assert cluster.telemetry.metrics.value(
            "fw.delayed_lost", host="alpha.test", outcome="refused") == 1
        assert beta.firewall.stats.rejected == 1

    def test_failed_retransmit_is_counted(self):
        cluster = TaxCluster(telemetry=Telemetry(enabled=True))
        node = cluster.add_node("locked.test", policy=closed_policy())
        driver = node.driver(principal="alice")
        assert cluster.run(driver.send(
            AgentUri.parse("late"), Briefcase(), queue_timeout=100))
        node.crash()
        # The target exists by the time the restart retransmits, and
        # the closed policy refuses alice's dead letter.
        collector(node, "late")
        node.restart()
        assert node.firewall.stats.rejected == 1
        assert cluster.telemetry.metrics.value(
            "fw.retransmit_failures", host="locked.test",
            reason="host-crash") == 1


class TestOneBadDelivery:
    """A delivery that raises loses its own message only: the rest of a
    claimed batch or of a paused backlog still arrives, and the failure
    is counted as a wrapper drop."""

    @staticmethod
    def failing_second(arrived):
        """A delivery that raises on its second message (a monitor
        wrapper refusing a flipped REPLY-TO) and keeps the others."""
        calls = []

        def deliver(message):
            calls.append(message)
            if len(calls) == 2:
                raise UriSyntaxError("flipped REPLY-TO")
            arrived.append(message.briefcase.get_text("N"))
            return True
        return deliver

    @staticmethod
    def refusing_second(arrived):
        """A delivery that returns False on its second message (a wrapper
        or a full mailbox refusing it) and keeps the others."""
        calls = []

        def deliver(message):
            calls.append(message)
            if len(calls) == 2:
                return False
            arrived.append(message.briefcase.get_text("N"))
            return True
        return deliver

    @staticmethod
    def send_three(cluster, name):
        driver = cluster.node("solo.test").driver(name="d3")

        def scenario():
            for number in ("1", "2", "3"):
                yield from driver.send(AgentUri.parse(name),
                                       Briefcase({"N": [number]}),
                                       queue_timeout=30)
        cluster.run(scenario())

    @pytest.mark.telemetry
    def test_parked_batch_survives_a_raising_delivery(self, single_cluster):
        firewall = single_cluster.node("solo.test").firewall
        self.send_three(single_cluster, "late")
        assert firewall.stats.queued == 3
        arrived = []
        registration = firewall.register_agent(
            name="late", principal="system", vm_name="vm_python",
            deliver_fn=self.failing_second(arrived))
        assert registration.name == "late"
        assert arrived == ["1", "3"]
        assert firewall.stats.dropped_by_wrapper == 1
        assert firewall.stats.delivered == 2
        assert single_cluster.telemetry.metrics.value(
            "fw.dropped_by_wrapper", host="solo.test") == 1

    @pytest.mark.telemetry
    def test_paused_backlog_survives_a_raising_delivery(self,
                                                        single_cluster):
        firewall = single_cluster.node("solo.test").firewall
        arrived = []
        registration = firewall.register_agent(
            name="pausee", principal="system", vm_name="vm_python",
            deliver_fn=self.failing_second(arrived))
        assert firewall.admin_pause(registration.instance)
        self.send_three(single_cluster, "pausee")
        assert arrived == []
        assert firewall.admin_resume(registration.instance)
        assert arrived == ["1", "3"]
        assert firewall.stats.dropped_by_wrapper == 1
        assert single_cluster.telemetry.metrics.value(
            "fw.dropped_by_wrapper", host="solo.test") == 1

    @pytest.mark.telemetry
    def test_parked_batch_counts_a_refused_delivery_as_a_drop(
            self, single_cluster):
        firewall = single_cluster.node("solo.test").firewall
        self.send_three(single_cluster, "late")
        arrived = []
        firewall.register_agent(
            name="late", principal="system", vm_name="vm_python",
            deliver_fn=self.refusing_second(arrived))
        assert arrived == ["1", "3"]
        assert firewall.stats.dropped_by_wrapper == 1
        assert firewall.stats.delivered == 2
        metrics = single_cluster.telemetry.metrics
        assert metrics.value("fw.dropped_by_wrapper", host="solo.test") == 1
        assert metrics.value("fw.queue_flushed", host="solo.test") == 2

    @pytest.mark.telemetry
    def test_paused_backlog_counts_a_refused_delivery_as_a_drop(
            self, single_cluster):
        firewall = single_cluster.node("solo.test").firewall
        arrived = []
        registration = firewall.register_agent(
            name="pausee", principal="system", vm_name="vm_python",
            deliver_fn=self.refusing_second(arrived))
        assert firewall.admin_pause(registration.instance)
        self.send_three(single_cluster, "pausee")
        assert firewall.admin_resume(registration.instance)
        assert arrived == ["1", "3"]
        assert firewall.stats.dropped_by_wrapper == 1
        assert single_cluster.telemetry.metrics.value(
            "fw.dropped_by_wrapper", host="solo.test") == 1
