"""Integration-level tests for the firewall as a reference monitor."""

import pytest

from repro.core import codec, wellknown
from repro.core.briefcase import Briefcase
from repro.core.errors import AccessDeniedError
from repro.core.uri import AgentUri
from repro.firewall.firewall import code_signing_bytes
from repro.firewall.message import Message, SenderInfo
from repro.firewall.policy import OP_SEND
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
        stats = pair_cluster.network.stats_between("alpha.test", "beta.test")
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
        delivered = mailbox.try_receive()
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
        message = mailbox.try_receive()
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
        message = mailbox.try_receive()
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

    def test_queue_timeout_increments_expired_counter(self, single_cluster):
        single_cluster.telemetry.enable()
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

    def test_queue_delivery_increments_delivered_outcome(self,
                                                         single_cluster):
        single_cluster.telemetry.enable()
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

    def test_auth_failure_increments_rejected_counter(self, pair_cluster):
        pair_cluster.telemetry.enable()
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

    def test_successful_auth_increments_verified(self, pair_cluster):
        pair_cluster.telemetry.enable()
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

    def test_delivery_and_per_agent_counters(self, single_cluster):
        single_cluster.telemetry.enable()
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

    def test_admin_stat_includes_agent_telemetry(self, single_cluster):
        single_cluster.telemetry.enable()
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
    def test_looping_message_rejected(self, pair_cluster):
        from repro.firewall.message import MAX_HOPS, Message, SenderInfo
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
        assert any("looping" in text
                   for _t, text in alpha.firewall.events)
