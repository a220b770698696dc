"""Tests for object agents, vm_pickle, and the restricted unpickler."""

import pickle

import pytest

from repro.core.briefcase import Briefcase
from repro.core.errors import UnsupportedPayloadError, VMError
from repro.core import wellknown
from repro.agent.objagent import ObjectAgent, launch_briefcase
from repro.vm import loader


class TravelLog(ObjectAgent):
    """Object agent: its attribute state survives migration."""

    def __init__(self):
        self.visits = []

    def run(self, ctx, bc):
        self.visits.append(ctx.host_name)
        nxt = bc.folder("HOSTS").pop_first()
        if nxt is None:
            yield from ctx.send(bc.get_text("HOME"),
                                Briefcase({"VISITS": self.visits}))
            return "done"
        yield from self.go_with_state(ctx, nxt.as_text())


class NoRunMethod:
    """Pickleable, but not an agent."""


class TestRestrictedUnpickler:
    def test_round_trip_allowed_object(self):
        payload = loader.pack_pickle({"key": [1, 2, 3]})
        assert loader.materialize_pickle(payload) == {"key": [1, 2, 3]}

    def test_hostile_pickle_rejected(self):
        import os
        blob = pickle.dumps(os.system)
        payload = loader.Payload(loader.KIND_PICKLE, blob)
        with pytest.raises(UnsupportedPayloadError, match="outside"):
            loader.materialize_pickle(payload)

    def test_whitelist_prefix_semantics(self):
        # OrderedDict requires a class lookup, so it exercises find_class
        # (a plain dict pickles with no GLOBAL opcode at all).
        from collections import OrderedDict
        blob = pickle.dumps(OrderedDict(x=1))
        payload = loader.Payload(loader.KIND_PICKLE, blob)
        assert loader.materialize_pickle(payload) == OrderedDict(x=1)
        with pytest.raises(UnsupportedPayloadError):
            loader.materialize_pickle(payload, allowed_prefixes=())

    def test_corrupt_pickle_rejected(self):
        payload = loader.Payload(loader.KIND_PICKLE, b"\x80garbage")
        with pytest.raises(UnsupportedPayloadError, match="corrupt"):
            loader.materialize_pickle(payload)

    def test_unpicklable_object_rejected_at_pack(self):
        with pytest.raises(VMError, match="pickled"):
            loader.pack_pickle(lambda: None)


def allow_tests_package(cluster):
    for node in cluster.nodes.values():
        vm = node.vms["vm_pickle"]
        vm.allowed_prefixes = vm.allowed_prefixes + ("tests.",)


class TestVmPickle:
    def test_object_agent_state_survives_migration(self, pair_cluster):
        allow_tests_package(pair_cluster)
        agent = TravelLog()
        briefcase = launch_briefcase(agent, agent_name="travellog")
        briefcase.folder("HOSTS").push("tacoma://beta.test/vm_pickle")
        driver = pair_cluster.node("alpha.test").driver()
        briefcase.put("HOME", str(driver.uri))

        def scenario():
            reply = yield from driver.meet(
                pair_cluster.vm_uri("alpha.test", "vm_pickle"),
                briefcase, timeout=60)
            assert reply.get_text(wellknown.STATUS) == "ok", \
                reply.get_text(wellknown.ERROR)
            final = yield from driver.recv(timeout=60)
            return final.briefcase.get("VISITS").texts()
        # Attribute state (the visit list) accumulated across the hop.
        assert pair_cluster.run(scenario()) == ["alpha.test", "beta.test"]

    def test_default_whitelist_blocks_foreign_classes(self, single_cluster):
        # Without the tests. prefix, the launch must be nacked.
        agent = TravelLog()
        briefcase = launch_briefcase(agent)
        driver = single_cluster.node("solo.test").driver()

        def scenario():
            reply = yield from driver.meet(
                single_cluster.vm_uri("solo.test", "vm_pickle"),
                briefcase, timeout=60)
            return (reply.get_text(wellknown.STATUS),
                    reply.get_text(wellknown.ERROR))
        status, error = single_cluster.run(scenario())
        assert status == "error" and "outside" in error

    def test_object_without_run_rejected(self, single_cluster):
        allow_tests_package(single_cluster)
        briefcase = Briefcase()
        loader.install_payload(briefcase,
                               loader.pack_pickle(NoRunMethod()),
                               agent_name="notanagent")
        driver = single_cluster.node("solo.test").driver()

        def scenario():
            reply = yield from driver.meet(
                single_cluster.vm_uri("solo.test", "vm_pickle"),
                briefcase, timeout=60)
            return (reply.get_text(wellknown.STATUS),
                    reply.get_text(wellknown.ERROR))
        status, error = single_cluster.run(scenario())
        assert status == "error" and "run" in error

    def test_vm_pickle_rejects_other_kinds(self, single_cluster):
        briefcase = Briefcase()
        loader.install_payload(
            briefcase, loader.pack_source("def f(c, b):\n    return 1", "f"),
            agent_name="src")
        driver = single_cluster.node("solo.test").driver()

        def scenario():
            reply = yield from driver.meet(
                single_cluster.vm_uri("solo.test", "vm_pickle"),
                briefcase, timeout=60)
            return reply.get_text(wellknown.STATUS)
        assert single_cluster.run(scenario()) == "error"


def paper_named_hopper(ctx, bc):
    """Hops once with the paper's ``go`` to ``TARGET``, then reports
    where it runs and whether any code after ``go`` ran at home."""
    from repro.agent import api
    target = bc.get_text("TARGET")
    if target is not None:
        bc.drop("TARGET")
        yield from api.go(ctx, target)
        bc.put("AFTER-GO", ctx.host_name)   # never reached on success
    report = Briefcase({"HOST": [ctx.host_name],
                        "AFTER-GO": bc.folder("AFTER-GO").texts()})
    yield from api.bc_send(ctx, bc.get_text("HOME"), report)


class TestPaperNamedApi:
    def test_paper_names_drive_the_same_machinery(self, single_cluster):
        from repro.agent import api
        driver = single_cluster.node("solo.test").driver()

        def scenario():
            request = Briefcase()
            request.put(wellknown.OP, "list")
            reply = yield from api.meet(driver, "firewall", request)
            assert reply.get_text(wellknown.STATUS) == "ok"
            # activate + await: fire a message at ourselves and await it.
            note = Briefcase({"NOTE": ["ping"]})
            yield from api.activate(driver, driver.uri, note)
            received = yield from api.await_bc(driver, timeout=30)
            return received.get_text("NOTE")
        assert single_cluster.run(scenario()) == "ping"

    def test_go_moves_the_agent_and_does_not_return(self, pair_cluster):
        driver = pair_cluster.node("alpha.test").driver()
        briefcase = Briefcase({
            "TARGET": [str(pair_cluster.vm_uri("beta.test"))],
            "HOME": [str(driver.uri)]})
        loader.install_payload(briefcase,
                               loader.pack_ref(paper_named_hopper),
                               agent_name="hopper")

        def scenario():
            yield from driver.launch(pair_cluster.vm_uri("alpha.test"),
                                     briefcase, timeout=30)
            report = (yield from driver.recv(timeout=30)).briefcase
            yield pair_cluster.kernel.timeout(1.0)
            return report, driver.mailbox._take_queued(None)
        report, second = pair_cluster.run(scenario())
        assert second is None
        assert report.get_text("HOST") == "beta.test"
        assert report.folder("AFTER-GO").texts() == []
        alpha = pair_cluster.node("alpha.test").firewall
        assert not any(reg.name == "hopper" for reg in alpha.registry.all())
