"""Tests for the three VM types and the launch protocol."""

import pytest

from repro.core.briefcase import Briefcase
from repro.core.errors import TaxError
from repro.core import wellknown
from repro.core.uri import AgentUri
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
        # Step 7: the agent actually ran on vm_bin.
        assert trail == ["ran on solo.test via vm_bin"]

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
        assert trail == ["ran on beta.test via vm_bin"]


def crashing_agent(ctx, bc):
    yield from ctx.sleep(0.1)
    raise TaxError("deliberate failure")


def named_by_entry(ctx, bc):
    yield from ctx.send(bc.get_text("HOME"),
                        Briefcase({"MY-NAME": [ctx.name]}))
    return "ok"


class TestVmBaseEdges:
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
        assert any("agent failed" in text
                   for _t, text in node.firewall.events)

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


class TestCodeOrigPreservation:
    SOURCE = (
        "def orig_code_probe(ctx, bc):\n"
        "    out = bc.snapshot()\n"
        "    out.put('KIND', bc.get_text('CODE-KIND'))\n"
        "    yield from ctx.send(bc.get_text('HOME'), out)\n"
        "    return 'ok'\n")

    def test_agent_launched_via_chain_still_carries_source(
            self, single_cluster):
        """After the vm_source -> vm_bin chain, the *running* agent's
        briefcase must hold the original py-source payload, not the
        site-local binary (Figure 3 repeats per landing pad)."""
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
            inbound = message.briefcase
            return (inbound.get_text("KIND"),
                    inbound.has(wellknown.CODE_ORIG))
        kind, has_orig = single_cluster.run(scenario())
        assert kind == loader.KIND_SOURCE
        assert not has_orig  # the stash folder is cleaned up at launch
