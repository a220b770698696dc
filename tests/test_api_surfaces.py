"""Small-API coverage: constructors, properties, and helpers not hit by
the scenario tests."""

import pytest

from repro.core.briefcase import Briefcase
from repro.core.element import Element
from repro.core.folder import Folder
from repro.core import wellknown
from repro.core.uri import AgentUri
from repro.sim.eventloop import Kernel
from repro.web import urls


class TestElementConstructors:
    def test_from_text_and_from_json(self):
        assert Element.from_text("abc").as_text() == "abc"
        assert Element.from_json([1, "x"]).as_json() == [1, "x"]

    def test_of_bool_and_none_are_json(self):
        assert Element.of(True).as_json() is True
        assert Element.of(None).as_json() is None

    def test_bytearray_and_memoryview_coerced(self):
        assert Element(bytearray(b"ab")).data == b"ab"
        assert Element(memoryview(b"cd")).data == b"cd"

    def test_repr_truncates(self):
        text = repr(Element(b"x" * 100))
        assert "..." in text and "100 bytes" in text


class TestFolderBriefcaseMisc:
    def test_push_all_and_clear(self):
        folder = Folder("F")
        folder.push_all(["a", "b"])
        assert len(folder) == 2
        folder.clear()
        assert not folder

    def test_briefcase_repr_lists_folders(self):
        briefcase = Briefcase({"B": [], "A": []})
        assert "'A'" in repr(briefcase) and "'B'" in repr(briefcase)

    def test_system_folders_constant(self):
        assert wellknown.CODE in wellknown.SYSTEM_FOLDERS
        assert wellknown.RESULTS not in wellknown.SYSTEM_FOLDERS


class TestKernelSurfaces:
    def test_timeout_value_only_after_fire(self):
        kernel = Kernel()
        timeout = kernel.timeout(1, value="v")
        assert not timeout.triggered
        kernel.run()
        assert timeout.triggered and timeout.value == "v"

    def test_event_exception_property(self):
        kernel = Kernel()
        event = kernel.event()
        error = ValueError("boom")
        event.fail(error)
        assert event.exception is error

    def test_start_time_offset(self):
        kernel = Kernel(start_time=100.0)
        kernel.timeout(5)
        kernel.run()
        assert kernel.now == 105.0

    def test_spawn_on_dead_kernel_conceptually_allowed(self):
        # The kernel only refuses spawn after explicit death; running to
        # empty heap does not kill it.
        kernel = Kernel()
        kernel.run()

        def proc():
            yield kernel.timeout(1)
        assert kernel.run_process(proc()) is None


class TestUrlSurfaces:
    def test_with_path_normalizes(self):
        url = urls.parse("http://h/a").with_path("/x/../y")
        assert url.path == "/y"

    def test_site_and_str_with_default_port(self):
        url = urls.parse("http://h:80/p")
        assert url.site == "h" and str(url) == "http://h/p"

    def test_is_absolute(self):
        assert urls.is_absolute("http://x/")
        assert not urls.is_absolute("/relative")


class TestUriSurfaces:
    def test_local_of_local_is_identity(self):
        uri = AgentUri.parse("w:1")
        assert uri.local() == uri


class TestNodeSurfaces:
    def test_duplicate_vm_and_service_rejected(self, single_cluster):
        node = single_cluster.node("solo.test")
        from repro.vm.vm_python import VmPython
        from repro.services.ag_fs import AgFs
        with pytest.raises(ValueError):
            node.add_vm(VmPython(node))
        with pytest.raises(ValueError):
            node.add_service(AgFs(node))

    def test_boot_is_idempotent(self, single_cluster):
        node = single_cluster.node("solo.test")
        vms_before = dict(node.vms)
        assert node.boot() is node
        assert node.vms == vms_before

    def test_uri_for(self, single_cluster):
        firewall = single_cluster.node("solo.test").firewall
        (registration,) = firewall.registry.matches(
            AgentUri.parse("ag_fs"), "system")
        uri = firewall.uri_for(registration)
        assert uri.host == "solo.test" and uri.port == 27017

    def test_node_repr(self, single_cluster):
        text = repr(single_cluster.node("solo.test"))
        assert "solo.test" in text and "vm_python" in text
