"""Tests for the three VM types and the launch protocol."""

import pytest

from repro.core.briefcase import Briefcase
from repro.core.errors import LaunchRejected, TaxError
from repro.core.identity import SYSTEM_PRINCIPAL
from repro.core import wellknown
from repro.core.uri import AgentUri
from repro.firewall.firewall import code_signing_bytes
from repro.vm import loader


AGENT_SOURCE = """
def reporting_agent(ctx, bc):
    bc.append("TRAIL", "ran on " + ctx.host_name + " via " + ctx.vm_name)
    yield from ctx.send(bc.get_text("HOME"), bc.snapshot())
    return "ok"
"""


def reporting_agent(ctx, bc):
    bc.append("TRAIL", "ran on " + ctx.host_name + " via " + ctx.vm_name)
    yield from ctx.send(bc.get_text("HOME"), bc.snapshot())
    return "ok"


def sync_agent(ctx, bc):
    """A non-generator agent: runs to completion synchronously."""
    return "sync-done"


def launch(cluster, payload, vm, host="solo.test", name="probe",
           principal="system", timeout=60):
    node = cluster.node(host)
    driver = node.driver(name=f"drv-{vm}-{name}", principal=principal)
    briefcase = Briefcase()
    loader.install_payload(briefcase, payload, agent_name=name)
    briefcase.put("HOME", str(driver.uri))

    def scenario():
        reply = yield from driver.meet(cluster.vm_uri(host, vm), briefcase,
                                       timeout=timeout)
        status = reply.get_text(wellknown.STATUS)
        if status != "ok":
            return ("error", reply.get_text(wellknown.ERROR))
        message = yield from driver.recv(timeout=timeout)
        return ("ok", message.briefcase.folder("TRAIL").texts())
    return cluster.run(scenario())


class TestVmPython:
    def test_launch_by_ref(self, single_cluster):
        status, trail = launch(single_cluster,
                               loader.pack_ref(reporting_agent),
                               "vm_python")
        assert status == "ok"
        assert trail == ["ran on solo.test via vm_python"]

    def test_launch_by_value(self, single_cluster):
        payload = loader.compile_source(
            loader.pack_source(AGENT_SOURCE, "reporting_agent"))
        status, trail = launch(single_cluster, payload, "vm_python")
        assert status == "ok"
        assert trail == ["ran on solo.test via vm_python"]

    def test_rejects_wrong_payload_kind(self, single_cluster):
        payload = loader.pack_source(AGENT_SOURCE, "reporting_agent")
        status, error = launch(single_cluster, payload, "vm_python")
        assert status == "error"
        assert "cannot execute" in error

    def test_synchronous_agent_supported(self, single_cluster):
        node = single_cluster.node("solo.test")
        driver = node.driver()
        briefcase = Briefcase()
        loader.install_payload(briefcase, loader.pack_ref(sync_agent),
                               agent_name="sync")

        def scenario():
            reply = yield from driver.meet(
                single_cluster.vm_uri("solo.test"), briefcase, timeout=30)
            return reply.get_text(wellknown.STATUS)
        assert single_cluster.run(scenario()) == "ok"

    def test_launch_counts(self, single_cluster):
        vm = single_cluster.node("solo.test").vms["vm_python"]
        before = vm.launched
        launch(single_cluster, loader.pack_ref(reporting_agent),
               "vm_python")
        assert vm.launched == before + 1

    def test_agent_unregistered_after_finish(self, single_cluster):
        launch(single_cluster, loader.pack_ref(reporting_agent),
               "vm_python", name="ephemeral")
        node = single_cluster.node("solo.test")
        assert node.firewall.registry.matches(
            AgentUri.parse("ephemeral"), "system") == []

    def test_broken_payload_nacks(self, single_cluster):
        payload = loader.Payload(loader.KIND_MARSHAL, b"garbage")
        status, error = launch(single_cluster, payload, "vm_python")
        assert status == "error"
        vm = single_cluster.node("solo.test").vms["vm_python"]
        assert vm.launch_failures >= 1


class TestVmBin:
    def signed(self, cluster, principal="vendor", trusted=True,
               arch="x86-unix"):
        cluster.add_principal(principal, trusted=trusted)
        inner = loader.compile_source(
            loader.pack_source(AGENT_SOURCE, "reporting_agent"))
        return loader.pack_binary_list([(arch, inner)], cluster.keychain,
                                       principal)

    def test_trusted_binary_runs(self, single_cluster):
        payload = self.signed(single_cluster)
        status, trail = launch(single_cluster, payload, "vm_bin")
        assert status == "ok"
        assert trail == ["ran on solo.test via vm_bin"]

    def test_untrusted_signer_refused(self, single_cluster):
        payload = self.signed(single_cluster, principal="shady",
                              trusted=False)
        status, error = launch(single_cluster, payload, "vm_bin")
        assert status == "error"
        assert "not trusted" in error

    def test_wrong_architecture_refused(self, single_cluster):
        payload = self.signed(single_cluster, arch="sparc-solaris")
        status, error = launch(single_cluster, payload, "vm_bin")
        assert status == "error"
        assert "no binary" in error

    def test_multi_arch_selection(self):
        from repro.system.cluster import TaxCluster
        cluster = TaxCluster()
        cluster.add_node("solo.test", arch="arm-linux")
        cluster.add_principal("vendor", trusted=True)
        inner = loader.compile_source(
            loader.pack_source(AGENT_SOURCE, "reporting_agent"))
        payload = loader.pack_binary_list(
            [("x86-unix", inner), ("arm-linux", inner)],
            cluster.keychain, "vendor")
        status, trail = launch(cluster, payload, "vm_bin")
        assert status == "ok"


class TestVmSource:
    def test_figure3_chain_end_to_end(self, single_cluster):
        payload = loader.pack_source(AGENT_SOURCE, "reporting_agent")
        status, trail = launch(single_cluster, payload, "vm_source")
        assert status == "ok"
        # The agent is vm_source's: the VM that accepts the code it
        # carries.
        assert trail == ["ran on solo.test via vm_source"]

    def test_step7_is_vm_bins_signature_check(self, single_cluster):
        # The compiler output carries the site's own signature; a pad
        # that no longer trusts it refuses to run the binary.
        node = single_cluster.node("solo.test")
        node.firewall.trust_store.revoke(SYSTEM_PRINCIPAL)
        payload = loader.pack_source(AGENT_SOURCE, "reporting_agent")
        status, error = launch(single_cluster, payload, "vm_source")
        assert status == "error"
        assert "not trusted" in error
        assert node.vms["vm_source"].launch_failures == 1

    def test_chain_used_the_services(self, single_cluster):
        node = single_cluster.node("solo.test")
        cc_before = node.services["ag_cc"].requests_handled
        exec_before = node.services["ag_exec"].executions
        launch(single_cluster,
               loader.pack_source(AGENT_SOURCE, "reporting_agent"),
               "vm_source")
        assert node.services["ag_cc"].requests_handled == cc_before + 1
        assert node.services["ag_exec"].executions == exec_before + 1

    def test_syntax_error_nacked_to_sender(self, single_cluster):
        payload = loader.pack_source("def broken(:", "broken")
        status, error = launch(single_cluster, payload, "vm_source")
        assert status == "error"
        assert "compilation failed" in error

    def test_rejects_non_source(self, single_cluster):
        payload = loader.pack_ref(reporting_agent)
        status, error = launch(single_cluster, payload, "vm_source")
        assert status == "error"

    def test_remote_source_launch(self, pair_cluster):
        payload = loader.pack_source(AGENT_SOURCE, "reporting_agent")
        status, trail = launch(pair_cluster, payload, "vm_source",
                               host="beta.test")
        assert status == "ok"
        assert trail == ["ran on beta.test via vm_source"]


def crashing_agent(ctx, bc):
    yield from ctx.sleep(0.1)
    raise TaxError("deliberate failure")


def named_by_entry(ctx, bc):
    yield from ctx.send(bc.get_text("HOME"),
                        Briefcase({"MY-NAME": [ctx.name]}))
    return "ok"


class TestVmBaseEdges:
    @pytest.mark.telemetry
    def test_crashing_agent_is_unregistered_and_logged(self,
                                                       single_cluster):
        node = single_cluster.node("solo.test")
        driver = node.driver()
        briefcase = Briefcase()
        loader.install_payload(briefcase, loader.pack_ref(crashing_agent),
                               agent_name="crasher")

        def scenario():
            reply = yield from driver.meet(
                single_cluster.vm_uri("solo.test"), briefcase, timeout=60)
            assert reply.get_text(wellknown.STATUS) == "ok"
            yield single_cluster.kernel.timeout(5)
            return reply.get_text("AGENT-URI")
        uri = AgentUri.parse(single_cluster.run(scenario()))
        assert node.firewall.registry.by_instance(uri.instance) is None
        spans = single_cluster.telemetry.tracer.find(name="run:crasher")
        assert [span.args["outcome"] for span in spans] == ["failed"]

    def test_agent_name_defaults_to_entry_name(self, single_cluster):
        driver = single_cluster.node("solo.test").driver()
        briefcase = Briefcase()
        loader.install_payload(briefcase, loader.pack_ref(named_by_entry))
        briefcase.drop(wellknown.AGENT_NAME)
        briefcase.put("HOME", str(driver.uri))

        def scenario():
            yield from driver.meet(single_cluster.vm_uri("solo.test"),
                                   briefcase, timeout=60)
            message = yield from driver.recv(timeout=60)
            return message.briefcase.get_text("MY-NAME")
        assert single_cluster.run(scenario()) == "named_by_entry"

    def test_launch_policy_denial_nacks(self, single_cluster):
        from repro.firewall.policy import OP_LAUNCH
        node = single_cluster.node("solo.test")
        node.firewall.policy.deny("pariah", OP_LAUNCH)
        driver = node.driver(name="pariah-drv", principal="pariah")
        briefcase = Briefcase()
        loader.install_payload(briefcase, loader.pack_ref(named_by_entry))

        def scenario():
            reply = yield from driver.meet(
                single_cluster.vm_uri("solo.test"), briefcase, timeout=60)
            return (reply.get_text(wellknown.STATUS),
                    reply.get_text(wellknown.ERROR))
        status, error = single_cluster.run(scenario())
        assert status == "error" and "policy denies" in error

    def test_missing_payload_nacks(self, single_cluster):
        driver = single_cluster.node("solo.test").driver()

        def scenario():
            reply = yield from driver.meet(
                single_cluster.vm_uri("solo.test"),
                Briefcase({"JUNK": ["no code here"]}), timeout=60)
            return reply.get_text(wellknown.STATUS)
        assert single_cluster.run(scenario()) == "error"

    def test_a_hook_failing_after_the_spawn_fails_the_agent_not_the_launch(
            self, single_cluster):
        # The spawn commits the landing: the checkpoint wrapper's arrive
        # hook cannot parse its cabinet, but the agent is already
        # running, so the go is acked (a nack would free the slot for a
        # retry to launch a twin) and the hook fails the agent itself.
        from repro.wrappers.fault import CheckpointWrapper
        from repro.wrappers.stack import WrapperSpec, install_wrappers
        node = single_cluster.node("solo.test")
        driver = node.driver(name="hook-drv")
        briefcase = Briefcase()
        loader.install_payload(briefcase, loader.pack_ref(sync_agent),
                               agent_name="hooked")
        install_wrappers(briefcase, [WrapperSpec.by_ref(
            CheckpointWrapper, {"cabinet": "tacoma:/bad//x",
                                "drawer": "d"})])
        uri = single_cluster.run(driver.transport(
            "go", single_cluster.vm_uri("solo.test"), briefcase,
            landing="hook-landing"))
        vm = node.vms["vm_python"]
        assert AgentUri.parse(uri).name == "hooked"
        assert (vm.launched, vm.launch_failures) == (1, 0)
        landings = node.firewall.landings.snapshot()
        assert (landings["launched_now"], landings["pending_now"]) == (1, 0)


class TestCodeOrigPreservation:
    SOURCE = (
        "def orig_code_probe(ctx, bc):\n"
        "    out = bc.snapshot()\n"
        "    out.put('KIND', bc.get_text('CODE-KIND'))\n"
        "    yield from ctx.send(bc.get_text('HOME'), out)\n"
        "    return 'ok'\n")

    def test_agent_launched_via_chain_still_carries_source(
            self, single_cluster):
        """After the compile chain, the *running* agent's briefcase must
        hold the original py-source payload, not the site-local binary
        (Figure 3 repeats per landing pad)."""
        driver = single_cluster.node("solo.test").driver()
        briefcase = Briefcase()
        loader.install_payload(
            briefcase, loader.pack_source(self.SOURCE, "orig_code_probe"),
            agent_name="probe")
        briefcase.put("HOME", str(driver.uri))

        def scenario():
            reply = yield from driver.meet(
                single_cluster.vm_uri("solo.test", "vm_source"),
                briefcase, timeout=120)
            assert reply.get_text(wellknown.STATUS) == "ok", \
                reply.get_text(wellknown.ERROR)
            message = yield from driver.recv(timeout=120)
            return message.briefcase
        sent = {name: briefcase.get(name).texts()
                for name in briefcase.names()}
        inbound = single_cluster.run(scenario())
        assert inbound.get_text("KIND") == loader.KIND_SOURCE
        # The landed briefcase is what was sent (no compiled binary, no
        # folder the launch added) plus the probe's own KIND.
        assert {name: inbound.get(name).texts()
                for name in inbound.names() if name != "KIND"} == sent


SLEEPER_SOURCE = """
def sleeper(ctx, bc):
    up = bc.snapshot()
    up.put("UP", ctx.name)
    yield from ctx.send(bc.get_text("HOME"), up)
    yield from ctx.sleep(100)
"""


class TestOneLaunchPath:
    """A source launch runs the launch path every VM runs: the sender's
    principal, the landing slot, the journal record and the ack."""

    @staticmethod
    def sleeper(driver, signer=None, keychain=None):
        briefcase = Briefcase()
        loader.install_payload(
            briefcase, loader.pack_source(SLEEPER_SOURCE, "sleeper"),
            agent_name="sleeper")
        briefcase.put("HOME", str(driver.uri))
        if signer is not None:
            signature = keychain.sign(signer, code_signing_bytes(briefcase))
            briefcase.put(wellknown.SIGNATURE, signature.to_text())
        return briefcase

    @staticmethod
    def residents(node):
        return [(reg.name, reg.principal, reg.vm_name)
                for reg in node.firewall.registry.all()
                if reg.name == "sleeper"]

    @pytest.mark.telemetry
    @pytest.mark.parametrize("signer, principal",
                             [(None, "mallory"), ("alice", "alice")],
                             ids=["unsigned-claim", "signed"])
    def test_the_agent_runs_as_its_sender(self, pair_cluster, signer,
                                          principal):
        pair_cluster.add_principal("alice", trusted=True)
        driver = pair_cluster.node("alpha.test").driver(
            name="claimant", principal="mallory")
        briefcase = self.sleeper(driver, signer, pair_cluster.keychain)

        def scenario():
            uri = yield from driver.transport(
                "go", pair_cluster.vm_uri("beta.test", "vm_source"),
                briefcase)
            yield from driver.recv(timeout=10)
            return uri
        uri = pair_cluster.run(scenario())
        assert AgentUri.parse(uri).principal == principal
        assert self.residents(pair_cluster.node("beta.test")) == [
            ("sleeper", principal, "vm_source")]
        pair_cluster.kernel.run()  # the sleeper's run span ends
        tracer = pair_cluster.telemetry.tracer
        assert [(span.args["vm"], span.args["sender"]) for span in
                tracer.find(name="vm.launch")] == [("vm_source", principal)]
        assert [span.args["principal"] for span in
                tracer.find(name="run:sleeper")] == [principal]

    def test_a_duplicate_transport_lands_once(self, pair_cluster):
        driver = pair_cluster.node("alpha.test").driver()
        briefcase = self.sleeper(driver)
        target = pair_cluster.vm_uri("beta.test", "vm_source")
        kernel = pair_cluster.kernel
        acks = []

        def go():
            acks.append((yield from driver.transport(
                "go", target, briefcase.snapshot(), landing="same-landing")))

        def both():
            first, second = kernel.spawn(go()), kernel.spawn(go())
            yield first
            yield second
        pair_cluster.run(both())
        beta = pair_cluster.node("beta.test")
        assert len(self.residents(beta)) == 1
        resident = beta.firewall.registry.by_instance(
            AgentUri.parse(acks[0]).instance)
        assert resident is not None and resident.name == "sleeper"
        assert len(acks) == 2 and acks[0] == acks[1]
        assert beta.vms["vm_source"].launched == 1

    def test_a_replayed_source_resident_runs_again(self, pair_cluster):
        durability = pair_cluster.enable_durability()
        beta = pair_cluster.node("beta.test")
        driver = pair_cluster.node("alpha.test").driver(principal="alice")
        briefcase = self.sleeper(driver)
        kernel = pair_cluster.kernel

        def scenario():
            yield from driver.transport(
                "go", pair_cluster.vm_uri("beta.test", "vm_source"),
                briefcase)
            yield from driver.recv(timeout=10)
            beta.crash()
            yield kernel.timeout(1.0)
            beta.restart()
            message = yield from driver.recv(timeout=10)
            return message.briefcase.get_text("UP")
        assert pair_cluster.run(scenario()) == "sleeper"
        assert durability["beta.test"].last_replay["residents_restored"] == 1
        assert self.residents(beta) == [("sleeper", "alice", "vm_source")]
        vm = beta.vms["vm_source"]
        assert (vm.launched, vm.launch_failures) == (2, 0)

    def test_a_landing_tombstoned_mid_compile_is_refused(self,
                                                         pair_cluster):
        beta = pair_cluster.node("beta.test")
        ag_cc = beta.services["ag_cc"]
        compile_ = ag_cc.op_compile

        def tombstoning_compile(message):
            # The origin's abort lands while ag_cc compiles.
            beta.firewall.landings.tombstone("L1", "go-abandoned")
            return (yield from compile_(message))
        ag_cc.op_compile = tombstoning_compile
        driver = pair_cluster.node("alpha.test").driver()
        transport = driver.transport(
            "go", pair_cluster.vm_uri("beta.test", "vm_source"),
            self.sleeper(driver), landing="L1")
        with pytest.raises(LaunchRejected, match="tombstoned"):
            pair_cluster.run(transport)
        assert self.residents(beta) == []
        landings = beta.firewall.landings.snapshot()
        assert (landings["launched_now"], landings["pending_now"]) == (0, 0)
