"""Carried content is read through one reader and fails typed.

Everything an agent carries — payload envelopes, wrapper specs, the
retry policy, itinerary stops, monitor reports and the report home — is
JSON read by :meth:`Element.as_json`.  Whatever the bytes, a reader
returns a value or raises a :class:`TaxError` subclass; nothing a
corrupted element holds may end a process with an untyped exception.
"""

import pytest

from repro.core.briefcase import Briefcase
from repro.core.element import Element
from repro.core.errors import BriefcaseError, UnsupportedPayloadError, VMError
from repro.core.retry import RetryPolicy
from repro.core.uri import AgentUri
from repro.core import wellknown
from repro.vm import loader
from repro.wrappers.mobility import FAILURES
from repro.wrappers.stack import WrapperSpec, build_stack


class TestPayloadEnvelopes:
    @pytest.mark.parametrize("blob", [b"[1, 2]", b"\xff", b"{"])
    def test_an_envelope_that_is_no_object_is_unsupported(self, blob):
        with pytest.raises(UnsupportedPayloadError):
            loader.materialize_ref(loader.Payload(loader.KIND_REF, blob))

    def test_a_binary_entry_that_is_no_object_is_corrupt(self):
        payload = loader.Payload(loader.KIND_BINARY,
                                 b'{"binaries": ["x86-unix"]}')
        with pytest.raises(UnsupportedPayloadError,
                           match="corrupt binary list entry"):
            loader.list_binaries(payload)


class TestWrapperSpecs:
    @pytest.mark.parametrize("text", [
        '{"kind": "py-ref"}',                         # missing key
        '{"kind": "py-ref", "blob_b64": "e30"}',      # bad base64
        '["py-ref"]',                                 # not an object
        '{"kind": "py-ref", "blob_b64": "", "config": 7}',
        "not json",
    ])
    def test_malformed_specs_are_briefcase_errors(self, text):
        with pytest.raises(BriefcaseError):
            WrapperSpec.from_json(text)

    def test_a_spec_reads_from_its_carried_element(self):
        from repro.wrappers.logwrap import LoggingWrapper
        spec = WrapperSpec.by_ref(LoggingWrapper, {"trace": True})
        assert WrapperSpec.from_json(Element.of(spec.to_json())) == spec

    def test_a_config_the_wrapper_refuses_is_a_vm_error(self):
        from repro.wrappers.fault import CheckpointWrapper
        with pytest.raises(VMError, match="wrapper config rejected"):
            build_stack([WrapperSpec.by_ref(CheckpointWrapper, {})])


class TestRetryConfig:
    @pytest.mark.parametrize("config", [
        [1, 2], {"max_attempts": "4"}, {"max_attempts": 0},
        {"seed": "x"}])
    def test_a_bad_config_is_a_briefcase_error(self, config):
        with pytest.raises(BriefcaseError):
            RetryPolicy.from_config(config)

    def test_a_bad_carried_policy_refuses_the_launch(self, single_cluster):
        from tests.test_vm_machines import sync_agent
        node = single_cluster.node("solo.test")
        driver = node.driver(name="retry-drv")
        briefcase = Briefcase()
        loader.install_payload(briefcase, loader.pack_ref(sync_agent),
                               agent_name="badretry")
        briefcase.put(wellknown.RETRY, {"max_attempts": -1})

        def scenario():
            reply = yield from driver.meet(
                single_cluster.vm_uri("solo.test"), briefcase, timeout=30)
            return (reply.get_text(wellknown.STATUS),
                    reply.get_text(wellknown.ERROR))
        status, error = single_cluster.run(scenario())
        assert status == "error" and "bad retry policy" in error
        # Refused before registration: nothing of the agent remains.
        vm = node.vms["vm_python"]
        assert (vm.launched, vm.launch_failures) == (0, 1)
        assert node.firewall.registry.matches(
            AgentUri.parse("badretry"), "system") == []


class TestItineraryStops:
    @pytest.mark.parametrize("body", [
        b'{"vn": "vm_python"}', b'{"vm": 7}', b'["vm_python"]', b"\xff"])
    def test_a_stop_that_names_no_vm_is_a_briefcase_error(self, body):
        with pytest.raises(BriefcaseError):
            Element(body).as_object("vm")

    def test_the_agent_records_a_malformed_stop_and_goes_on(
            self, single_cluster):
        from repro.wrappers.mobility import (ITINERARY,
                                             make_task_briefcase)
        node = single_cluster.node("solo.test")
        driver = node.driver(name="itinerary-drv")
        program = loader.pack_ref(len)
        briefcase = make_task_briefcase(program, [],
                                        home_uri=str(driver.uri))
        briefcase.folder(ITINERARY).push(b'{"vn": "vm_python"}')

        def scenario():
            yield from driver.launch(
                single_cluster.vm_uri("solo.test"), briefcase, timeout=30)
            message = yield from driver.recv(timeout=30)
            return [e.as_json() for e in message.briefcase.folder(FAILURES)]
        failures = single_cluster.run(scenario())
        assert [(f["host"], f["phase"]) for f in failures] == \
            [("solo.test", "itinerary")]


class TestReportHome:
    def test_an_unreadable_report_is_a_failure_not_a_crash(self):
        # Durable-suite seed 159: a bit flip leaves a RESULTS element of
        # the report home no JSON.  Home records it as the agent's
        # failure (phase "report") and the cell fails its check; it
        # used to raise out of the scenario (an "error" envelope).
        from repro.chaos.harness import HOME_HOST
        from repro.suites.registry import get_plugin
        document = get_plugin("partition").run(
            seed=13841215758072963222, scenario="partition-storm",
            workers=3)
        assert [(f["host"], f["phase"], f["error"])
                for f in document["agent"]["failures"]] == \
            [(HOME_HOST, "report", "element is not JSON")]
        assert document["exactly_once"]["holds"] is False
