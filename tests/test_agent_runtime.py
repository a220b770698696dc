"""Tests for mailboxes and the agent context (the TAX library)."""

import pytest

from repro.core.briefcase import Briefcase
from repro.core.errors import (
    CommTimeoutError,
    LaunchRejected,
    MigrationError,
    TaxError,
)
from repro.core.uri import AgentUri
from repro.core import wellknown
from repro.agent.mailbox import Mailbox
from repro.firewall.message import Message, SenderInfo
from repro.firewall.policy import OP_LAUNCH
from repro.obs.telemetry import Telemetry
from repro.sim.network import BANDWIDTH_100MBIT, LATENCY_LAN
from repro.system.cluster import TaxCluster
from repro.vm import loader
from repro.wrappers.base import AgentWrapper
from repro.wrappers.stack import WrapperStack


def make_message(kernel, text="x", target="someone"):
    briefcase = Briefcase({"BODY": [text]})
    return Message(target=AgentUri.parse(target), briefcase=briefcase,
                   sender=SenderInfo("tester", "host"))


class TestMailbox:
    def test_deliver_then_receive(self, kernel):
        mailbox = Mailbox(kernel)
        mailbox.deliver(make_message(kernel, "hello"))

        def proc():
            message = yield from mailbox.receive()
            return message.briefcase.get_text("BODY")
        assert kernel.run_process(proc()) == "hello"

    def test_receive_blocks_until_delivery(self, kernel):
        mailbox = Mailbox(kernel)

        def consumer():
            message = yield from mailbox.receive()
            return kernel.now, message.briefcase.get_text("BODY")

        def producer():
            yield kernel.timeout(5)
            mailbox.deliver(make_message(kernel, "late"))
        process = kernel.spawn(consumer())
        kernel.spawn(producer())
        kernel.run()
        assert process.value == (5, "late")

    def test_fifo_order(self, kernel):
        mailbox = Mailbox(kernel)
        for text in ("1", "2", "3"):
            mailbox.deliver(make_message(kernel, text))

        def proc():
            out = []
            for _ in range(3):
                message = yield from mailbox.receive()
                out.append(message.briefcase.get_text("BODY"))
            return out
        assert kernel.run_process(proc()) == ["1", "2", "3"]

    def test_match_skips_non_matching(self, kernel):
        mailbox = Mailbox(kernel)
        mailbox.deliver(make_message(kernel, "noise"))
        mailbox.deliver(make_message(kernel, "signal"))

        def proc():
            message = yield from mailbox.receive(
                match=lambda m: m.briefcase.get_text("BODY") == "signal")
            leftover = yield from mailbox.receive()
            return (message.briefcase.get_text("BODY"),
                    leftover.briefcase.get_text("BODY"))
        assert kernel.run_process(proc()) == ("signal", "noise")

    def test_timeout_raises(self, kernel):
        mailbox = Mailbox(kernel)

        def proc():
            with pytest.raises(CommTimeoutError):
                yield from mailbox.receive(timeout=3)
            return kernel.now
        assert kernel.run_process(proc()) == 3

    def test_late_message_queues_after_timeout(self, kernel):
        mailbox = Mailbox(kernel)

        def proc():
            try:
                yield from mailbox.receive(timeout=1)
            except CommTimeoutError:
                pass
            mailbox.deliver(make_message(kernel, "late"))
            message = yield from mailbox.receive()
            return message.briefcase.get_text("BODY")
        assert kernel.run_process(proc()) == "late"

    def test_capacity_drops_excess(self, kernel):
        mailbox = Mailbox(kernel, capacity=1)
        assert mailbox.deliver(make_message(kernel))
        assert not mailbox.deliver(make_message(kernel))
        assert mailbox.dropped_count == 1

    def test_waiting_receiver_bypasses_capacity(self, kernel):
        mailbox = Mailbox(kernel, capacity=0)

        def proc():
            message = yield from mailbox.receive()
            return message.briefcase.get_text("BODY")
        process = kernel.spawn(proc())
        kernel.run(max_events=1)
        assert mailbox.deliver(make_message(kernel, "direct"))
        kernel.run()
        assert process.value == "direct"

    def test_close_rejects_and_fails_waiters(self, kernel):
        mailbox = Mailbox(kernel)

        def proc():
            with pytest.raises(CommTimeoutError, match="closed"):
                yield from mailbox.receive()
            return "ok"
        process = kernel.spawn(proc())
        kernel.run(max_events=2)
        mailbox.close()
        kernel.run()
        assert process.value == "ok"
        assert not mailbox.deliver(make_message(kernel))

    def test_try_receive(self, kernel):
        mailbox = Mailbox(kernel)
        assert mailbox.try_receive() is None
        mailbox.deliver(make_message(kernel, "x"))
        assert mailbox.try_receive().briefcase.get_text("BODY") == "x"


def echo_agent(ctx, bc):
    """Replies to meets; stops on OP=stop."""
    while True:
        message = yield from ctx.recv()
        if message.briefcase.get_text(wellknown.OP) == "stop":
            return "stopped"
        response = Briefcase({"ECHO": [message.briefcase.get_text("BODY")
                                       or ""]})
        yield from ctx.reply(message, response)


def wanderer_agent(ctx, bc):
    """Tries to reach a nonexistent host, reports the failure home."""
    try:
        yield from ctx.go("tacoma://nowhere.test/vm_python")
    except MigrationError:
        bc.append("LOG", "unable to reach")
    yield from ctx.send(bc.get_text("HOME"), bc.snapshot())


def forker_agent(ctx, bc):
    """Spawns a clone on beta.test; both report home."""
    if bc.get_text("ROLE") == "clone":
        yield from ctx.send(bc.get_text("HOME"),
                            Briefcase({"FROM": [ctx.host_name]}))
        return "clone-done"
    bc.put("ROLE", "clone")
    clone_uri = yield from ctx.spawn_to("tacoma://beta.test/vm_python")
    yield from ctx.send(bc.get_text("HOME"),
                        Briefcase({"PARENT": [str(clone_uri)]}))
    return "parent-done"


class TestAgentContext:
    def launch_echo(self, cluster, host="alpha.test"):
        briefcase = Briefcase()
        loader.install_payload(briefcase, loader.pack_ref(echo_agent),
                               agent_name="echo")
        driver = cluster.node(host).driver()

        def scenario():
            reply = yield from driver.meet(
                cluster.vm_uri(host), briefcase, timeout=30)
            assert reply.get_text(wellknown.STATUS) == "ok"
            return reply.get_text("AGENT-URI")
        uri = cluster.run(scenario())
        return driver, uri

    def test_meet_round_trip(self, pair_cluster):
        driver, echo_uri = self.launch_echo(pair_cluster)

        def scenario():
            request = Briefcase({"BODY": ["ping"]})
            reply = yield from driver.meet(echo_uri, request, timeout=30)
            return reply.get_text("ECHO")
        assert pair_cluster.run(scenario()) == "ping"

    def test_meet_remote_agent(self, pair_cluster):
        driver_beta = pair_cluster.node("beta.test").driver(name="d2")
        _driver, echo_uri = self.launch_echo(pair_cluster, "alpha.test")

        def scenario():
            request = Briefcase({"BODY": ["cross-host"]})
            reply = yield from driver_beta.meet(echo_uri, request,
                                                timeout=30)
            return reply.get_text("ECHO")
        assert pair_cluster.run(scenario()) == "cross-host"

    def test_meet_timeout(self, single_cluster):
        driver = single_cluster.node("solo.test").driver()

        def scenario():
            with pytest.raises(CommTimeoutError):
                yield from driver.meet(AgentUri.parse("ghost"),
                                       Briefcase(), timeout=2)
            return "done"
        assert single_cluster.run(scenario()) == "done"

    def test_send_returns_true_when_queued(self, single_cluster):
        driver = single_cluster.node("solo.test").driver()

        def scenario():
            ok = yield from driver.send(AgentUri.parse("not-yet-here"),
                                        Briefcase())
            return ok
        assert single_cluster.run(scenario()) is True

    def test_send_to_unknown_host_raises(self, single_cluster):
        driver = single_cluster.node("solo.test").driver()

        def scenario():
            from repro.core.errors import AgentNotFoundError
            with pytest.raises(AgentNotFoundError):
                yield from driver.send(
                    AgentUri.parse("tacoma://ghost.host/x"), Briefcase())
            return "done"
        assert single_cluster.run(scenario()) == "done"

    def test_reply_without_reply_to_raises(self, single_cluster):
        driver = single_cluster.node("solo.test").driver()

        def scenario():
            with pytest.raises(TaxError, match="REPLY-TO"):
                yield from driver.reply(Briefcase(), Briefcase())
            return "done"
        assert single_cluster.run(scenario()) == "done"

    def test_call_service_error_surfaces(self, single_cluster):
        driver = single_cluster.node("solo.test").driver()

        def scenario():
            with pytest.raises(TaxError, match="unknown op"):
                yield from driver.call_service("ag_fs", "no-such-op")
            return "done"
        assert single_cluster.run(scenario()) == "done"

    def test_sleep_and_charge(self, single_cluster):
        driver = single_cluster.node("solo.test").driver()
        from repro.sim.ledger import CostLedger
        ledger = CostLedger()
        ledger.add_cpu(2.5)

        def scenario():
            yield from driver.sleep(1.0)
            yield from driver.charge(ledger)
            yield from driver.charge(0.5)
            return single_cluster.kernel.now
        assert single_cluster.run(scenario()) == pytest.approx(4.0)

    def test_charge_rejects_negative(self, single_cluster):
        driver = single_cluster.node("solo.test").driver()

        def scenario():
            with pytest.raises(ValueError):
                yield from driver.charge(-1.0)
            return "done"
        assert single_cluster.run(scenario()) == "done"

    def test_go_to_unreachable_host_is_migration_error(self, pair_cluster):
        driver = pair_cluster.node("alpha.test").driver()
        briefcase = Briefcase()
        loader.install_payload(briefcase, loader.pack_ref(wanderer_agent),
                               agent_name="wanderer")
        briefcase.put("HOME", str(driver.uri))

        def scenario():
            yield from driver.meet(pair_cluster.vm_uri("alpha.test"),
                                   briefcase, timeout=30)
            message = yield from driver.recv(timeout=30)
            return message.briefcase.folder("LOG").texts()
        assert pair_cluster.run(scenario()) == ["unable to reach"]

    def test_spawn_to_clones_and_parent_continues(self, pair_cluster):
        driver = pair_cluster.node("alpha.test").driver()
        briefcase = Briefcase()
        loader.install_payload(briefcase, loader.pack_ref(forker_agent),
                               agent_name="forker")
        briefcase.put("HOME", str(driver.uri))

        def scenario():
            yield from driver.meet(pair_cluster.vm_uri("alpha.test"),
                                   briefcase, timeout=30)
            seen = {}
            for _ in range(2):
                message = yield from driver.recv(timeout=30)
                for folder in message.briefcase:
                    seen[folder.name] = folder.texts()[0]
            return seen
        seen = pair_cluster.run(scenario())
        assert seen["FROM"] == "beta.test"
        assert "beta.test" in seen["PARENT"]

    def test_is_pending_reply_tracking(self, single_cluster):
        driver = single_cluster.node("solo.test").driver()
        fake = Message(target=AgentUri.parse("x"),
                       briefcase=Briefcase({wellknown.MEET_TOKEN: ["zzz"]}),
                       sender=SenderInfo("s", "h"))
        assert not driver.is_pending_reply(fake)


class TestContextEdges:
    def test_post_counts_failures_instead_of_raising(self, single_cluster):
        single_cluster.telemetry.enable()
        driver = single_cluster.node("solo.test").driver()

        def scenario():
            process = driver.post(
                AgentUri.parse("tacoma://no.such.host/x"), Briefcase())
            yield single_cluster.kernel.timeout(1)
            return process.triggered
        assert single_cluster.run(scenario()) is True
        assert single_cluster.telemetry.metrics.value(
            "agent.post_failures", agent="driver") == 1

    def test_string_targets_accepted_everywhere(self, single_cluster):
        driver = single_cluster.node("solo.test").driver()

        def scenario():
            request = Briefcase()
            request.put(wellknown.OP, "list")
            reply = yield from driver.meet("firewall", request, timeout=30)
            return reply.get_text(wellknown.STATUS)
        assert single_cluster.run(scenario()) == "ok"

    def test_meet_raises_when_wrapper_swallows_send(self, single_cluster):
        class Muzzle(AgentWrapper):
            def on_send(self, ctx, target, briefcase):
                return None
        driver = single_cluster.node("solo.test").driver()
        driver.wrappers = WrapperStack([Muzzle()])
        from repro.core.errors import CommTimeoutError

        def scenario():
            with pytest.raises(CommTimeoutError, match="dropped"):
                yield from driver.meet("firewall", Briefcase(), timeout=5)
            return "done"
        assert single_cluster.run(scenario()) == "done"


class TestSenderIdentity:
    """One frozen ``SenderInfo`` (and one ``AgentUri``) per residency."""

    @staticmethod
    def sender_of_next_send(cluster, ctx, collector):
        run = cluster.kernel.run_process
        assert run(ctx.send(AgentUri(name="collector"), Briefcase()))
        return run(collector.recv(timeout=1)).sender

    def test_sends_of_one_residency_share_the_sender_info(
            self, single_cluster):
        node = single_cluster.node("solo.test")
        collector = node.driver(name="collector")
        ctx = node.driver(name="feeder")
        first = self.sender_of_next_send(single_cluster, ctx, collector)
        assert first is self.sender_of_next_send(
            single_cluster, ctx, collector)
        assert first == SenderInfo(
            principal=ctx.principal, host="solo.test", uri=ctx.uri,
            authenticated=True)
        assert first.uri is ctx.uri is node.firewall.uri_for(
            ctx.registration)
        assert str(first.uri) == \
            f"tacoma://solo.test:27017/system/feeder:{ctx.instance}"

    def test_another_registration_or_principal_is_another_sender(
            self, single_cluster):
        node = single_cluster.node("solo.test")
        collector = node.driver(name="collector")
        ctx = node.driver(name="feeder")
        first = self.sender_of_next_send(single_cluster, ctx, collector)
        ctx.attach(node.driver(name="understudy").registration,
                   ctx.mailbox)
        second = self.sender_of_next_send(single_cluster, ctx, collector)
        assert second is not first and second.uri.name == "understudy"
        assert second is self.sender_of_next_send(
            single_cluster, ctx, collector)
        ctx.principal = "alice"
        third = self.sender_of_next_send(single_cluster, ctx, collector)
        assert third.principal == "alice" and third.uri is second.uri


class TestLaunch:
    """``AgentContext.launch``: the one client of the VM's reply
    contract (ack with a URI, or nack with a reason)."""

    def test_returns_the_launched_agents_uri(self, single_cluster):
        node = single_cluster.node("solo.test")
        briefcase = Briefcase()
        loader.install_payload(briefcase, loader.pack_ref(echo_agent),
                               agent_name="echo")
        uri = AgentUri.parse(single_cluster.run(node.driver().launch(
            single_cluster.vm_uri("solo.test"), briefcase, timeout=30)))
        assert uri.name == "echo"
        assert node.firewall.registry.by_instance(uri.instance) is not None

    def test_policy_denial_raises_the_vms_reason(self, single_cluster):
        node = single_cluster.node("solo.test")
        node.firewall.policy.deny("pariah", OP_LAUNCH)
        driver = node.driver(name="pariah-drv", principal="pariah")
        briefcase = Briefcase()
        loader.install_payload(briefcase, loader.pack_ref(echo_agent))
        with pytest.raises(MigrationError) as raised:
            single_cluster.run(driver.launch(
                single_cluster.vm_uri("solo.test"), briefcase, timeout=30))
        assert isinstance(raised.value, LaunchRejected)
        assert str(raised.value) == "policy denies launch by 'pariah'"

    def test_missing_payload_raises_the_vms_reason(self, single_cluster):
        driver = single_cluster.node("solo.test").driver()
        with pytest.raises(MigrationError) as raised:
            single_cluster.run(driver.launch(
                single_cluster.vm_uri("solo.test"),
                Briefcase({"JUNK": ["no code here"]}), timeout=30))
        assert isinstance(raised.value, LaunchRejected)
        assert str(raised.value) == \
            "briefcase carries no CODE/CODE-KIND payload"


    def test_an_ok_that_names_no_agent_is_not_a_launch(self,
                                                       single_cluster):
        """Whoever answered ``ok`` without an AGENT-URI was not a VM."""
        driver = single_cluster.node("solo.test").driver()
        request = Briefcase()
        request.put(wellknown.OP, "list")
        with pytest.raises(LaunchRejected, match="without an agent URI"):
            single_cluster.run(driver.launch("firewall", request,
                                             timeout=30))


def hop_agent(ctx, bc):
    """Tries one hop (``MODE``: go / spawn) to ``TARGET``; whichever
    instance is left running afterwards reports home."""
    report = Briefcase({"HOST": [ctx.host_name]})
    target = bc.get_text("TARGET")
    if target is not None:
        bc.drop("TARGET")
        hop = ctx.go if bc.get_text("MODE") == "go" else ctx.spawn_to
        try:
            clone = yield from hop(target)
            report.put("CLONE", str(clone))
        except MigrationError as exc:
            report.put("FAILED", str(exc))
    yield from ctx.send(bc.get_text("HOME"), report)
    yield from ctx.sleep(60)


class TestHops:
    """``go`` and ``spawn_to`` are two finishes over one hop body: same
    failure texts, span outcomes and counters; only the ending differs."""

    @pytest.fixture
    def traced_pair(self):
        cluster = TaxCluster(telemetry=Telemetry(enabled=True))
        cluster.add_node("alpha.test")
        cluster.add_node("beta.test")
        cluster.network.link("alpha.test", "beta.test",
                             latency=LATENCY_LAN,
                             bandwidth=BANDWIDTH_100MBIT)
        return cluster

    def run_hop(self, cluster, mode, target, reports=1):
        """Launch a hop_agent at alpha.test; returns alpha's change
        events and the ``reports`` briefcases that came home."""
        alpha = cluster.node("alpha.test")
        events = []
        alpha.firewall.changes.subscribe(
            lambda kind, fields: events.append((kind, dict(fields))))
        driver = alpha.driver()
        briefcase = Briefcase({"MODE": [mode], "TARGET": [target],
                               "HOME": [str(driver.uri)]})
        loader.install_payload(briefcase, loader.pack_ref(hop_agent),
                               agent_name="hopper")

        def scenario():
            yield from driver.launch(cluster.vm_uri("alpha.test"),
                                     briefcase, timeout=30)
            inbound = []
            for _ in range(reports):
                inbound.append((yield from driver.recv(timeout=30)).briefcase)
            # A landed agent's report can beat its own ack home: let the
            # origin finish the hop before anything is read.
            yield cluster.kernel.timeout(1.0)
            return inbound
        return events, cluster.run(scenario())

    @pytest.mark.parametrize("mode", ["go", "spawn"])
    def test_ambiguous_failure_text_span_and_tombstone(self, traced_pair,
                                                       mode):
        """The transport dies on the way: ``failed``, and the landing
        is tombstoned because it may have run."""
        target = "tacoma://nowhere.test/vm_python"
        events, (report,) = self.run_hop(traced_pair, mode, target)
        assert report.get_text("FAILED") == (
            f"{mode}(tacoma://nowhere.test//vm_python) failed: "
            "unknown host 'nowhere.test'")
        (span,) = traced_pair.telemetry.tracer.find(name=mode)
        assert span.args["outcome"] == "failed"
        metrics = traced_pair.telemetry.metrics
        assert metrics.value("agent.migration_failures", op=mode) == 1
        assert metrics.value("agent.landing_aborts", op=mode) == 1
        assert metrics.get("agent.migrations") is None
        kinds = [kind for kind, _ in events
                 if kind.startswith("depart")]
        assert kinds == (["depart-intent", "depart-failed"]
                         if mode == "go" else [])

    @pytest.mark.parametrize("mode", ["go", "spawn"])
    def test_nack_text_span_and_no_tombstone(self, traced_pair, mode):
        """The VM answers no: ``rejected`` with its reason, and nothing
        to tombstone — the destination already released the slot."""
        target = "tacoma://beta.test/vm_bin"
        events, (report,) = self.run_hop(traced_pair, mode, target)
        assert report.get_text("FAILED") == (
            f"{mode}(tacoma://beta.test//vm_bin) rejected: vm_bin cannot "
            "execute 'py-ref' payloads (accepts ['binary'])")
        (span,) = traced_pair.telemetry.tracer.find(name=mode)
        assert span.args["outcome"] == "rejected"
        metrics = traced_pair.telemetry.metrics
        assert metrics.value("agent.migration_failures", op=mode) == 1
        assert metrics.get("agent.landing_aborts") is None
        assert traced_pair.node("beta.test").firewall.landings.aborts == 0
        kinds = [kind for kind, _ in events
                 if kind.startswith("depart")]
        assert kinds == (["depart-intent", "depart-failed"]
                         if mode == "go" else [])

    def test_go_unregisters_the_origin_as_moved(self, traced_pair):
        events, (report,) = self.run_hop(
            traced_pair, "go", "tacoma://beta.test/vm_python")
        assert report.get_text("HOST") == "beta.test"
        (span,) = traced_pair.telemetry.tracer.find(name="go")
        assert span.args["outcome"] == "ok" and "clone" not in span.args
        alpha = traced_pair.node("alpha.test").firewall
        assert not [r for r in alpha.admin_list() if r.name == "hopper"]
        departs = [fields for kind, fields in events
                   if kind == "agent-depart"]
        assert [d["reason"] for d in departs] == ["moved"]
        intent = [fields for kind, fields in events
                  if kind == "depart-intent"]
        assert intent == [{"instance": departs[0]["instance"],
                           "landing": f"alpha.test:"
                                      f"{departs[0]['instance']}:1"}]
        assert traced_pair.telemetry.metrics.value(
            "agent.migrations", op="go") == 1

    def test_spawn_to_leaves_the_parent_registered(self, traced_pair):
        events, reports = self.run_hop(
            traced_pair, "spawn", "tacoma://beta.test/vm_python",
            reports=2)
        by_host = {r.get_text("HOST"): r for r in reports}
        clone = AgentUri.parse(by_host["alpha.test"].get_text("CLONE"))
        assert clone.host == "beta.test" and clone.name == "hopper"
        (span,) = traced_pair.telemetry.tracer.find(name="spawn")
        assert span.args["outcome"] == "ok"
        assert span.args["clone"] == str(clone)
        alpha = traced_pair.node("alpha.test").firewall
        assert [r.name for r in alpha.admin_list()
                if r.name == "hopper"] == ["hopper"]
        assert not [kind for kind, _ in events
                    if kind.startswith("depart") or kind == "agent-depart"]
        assert traced_pair.telemetry.metrics.value(
            "agent.migrations", op="spawn") == 1
