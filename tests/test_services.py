"""Tests for the standard service agents."""

import base64

import pytest

from repro.core.briefcase import Briefcase
from repro.core.errors import ServiceError, TaxError
from repro.core import wellknown
from repro.core.uri import AgentUri
from repro.services.vfs import VirtualFS
from repro.vm import loader


def call(cluster, service, op, briefcase=None, host="solo.test",
         principal="system", driver=None):
    driver = driver or cluster.node(host).driver(
        name=f"caller-{op}", principal=principal)

    def scenario():
        reply = yield from driver.call_service(service, op,
                                               briefcase or Briefcase())
        return reply
    return cluster.run(scenario())


class TestVirtualFS:
    def test_write_read_round_trip(self):
        vfs = VirtualFS()
        vfs.write("/a/b.txt", b"data", owner="alice")
        assert vfs.read("/a/b.txt") == b"data"
        assert vfs.owner_of("/a/b.txt") == "alice"

    def test_missing_file(self):
        with pytest.raises(ServiceError):
            VirtualFS().read("/nope")

    def test_path_validation(self):
        vfs = VirtualFS()
        for bad in ("relative.txt", "/a/../b"):
            with pytest.raises(ServiceError):
                vfs.write(bad, b"")

    def test_quota_enforced(self):
        vfs = VirtualFS(quota_bytes=10)
        vfs.write("/a", b"12345")
        with pytest.raises(ServiceError, match="quota"):
            vfs.write("/b", b"123456")
        # Overwriting within quota is fine.
        vfs.write("/a", b"1234567890")

    def test_delete_and_listdir(self):
        vfs = VirtualFS()
        vfs.write("/d/x", b"1")
        vfs.write("/d/y", b"2")
        vfs.write("/other", b"3")
        assert vfs.listdir("/d") == ["/d/x", "/d/y"]
        assert vfs.delete("/d/x") and not vfs.delete("/d/x")

    def test_stat(self):
        vfs = VirtualFS()
        vfs.write("/f", b"abc", owner="bob")
        assert vfs.stat("/f") == {"path": "/f", "size": 3, "owner": "bob"}


class TestAgFs:
    def test_write_then_read(self, single_cluster):
        briefcase = Briefcase()
        briefcase.put(wellknown.ARGS, {
            "path": "/notes.txt",
            "data_b64": base64.b64encode(b"hello").decode()})
        call(single_cluster, "ag_fs", "write", briefcase)

        read_request = Briefcase()
        read_request.put(wellknown.ARGS, {"path": "/notes.txt"})
        reply = call(single_cluster, "ag_fs", "read", read_request)
        results = reply.get_json(wellknown.RESULTS)
        assert base64.b64decode(results["data_b64"]) == b"hello"

    def test_owner_protection(self, single_cluster):
        briefcase = Briefcase()
        briefcase.put(wellknown.ARGS, {
            "path": "/mine.txt",
            "data_b64": base64.b64encode(b"v1").decode()})
        call(single_cluster, "ag_fs", "write", briefcase,
             principal="alice")
        overwrite = Briefcase()
        overwrite.put(wellknown.ARGS, {
            "path": "/mine.txt",
            "data_b64": base64.b64encode(b"v2").decode()})
        with pytest.raises(TaxError, match="may not modify"):
            call(single_cluster, "ag_fs", "write", overwrite,
                 principal="bob")

    def test_list_and_stat_and_delete(self, single_cluster):
        briefcase = Briefcase()
        briefcase.put(wellknown.ARGS, {
            "path": "/dir/a.txt",
            "data_b64": base64.b64encode(b"xy").decode()})
        call(single_cluster, "ag_fs", "write", briefcase)

        list_request = Briefcase()
        list_request.put(wellknown.ARGS, {"path": "/dir"})
        reply = call(single_cluster, "ag_fs", "list", list_request)
        assert reply.get_json(wellknown.RESULTS)["paths"] == ["/dir/a.txt"]

        stat_request = Briefcase()
        stat_request.put(wellknown.ARGS, {"path": "/dir/a.txt"})
        reply = call(single_cluster, "ag_fs", "stat", stat_request)
        assert reply.get_json(wellknown.RESULTS)["size"] == 2

        delete_request = Briefcase()
        delete_request.put(wellknown.ARGS, {"path": "/dir/a.txt"})
        reply = call(single_cluster, "ag_fs", "delete", delete_request)
        assert reply.get_json(wellknown.RESULTS)["deleted"] is True

    def test_missing_args_is_error(self, single_cluster):
        with pytest.raises(TaxError, match="path"):
            call(single_cluster, "ag_fs", "read", Briefcase())


class TestAgCabinet:
    def test_put_get_round_trip(self, single_cluster):
        briefcase = Briefcase({"DATA": ["v1", "v2"]})
        briefcase.put("DRAWER", "d1")
        call(single_cluster, "ag_cabinet", "put", briefcase)

        get_request = Briefcase()
        get_request.put("DRAWER", "d1")
        reply = call(single_cluster, "ag_cabinet", "get", get_request)
        assert reply.get("DATA").texts() == ["v1", "v2"]

    def test_drawers_are_principal_scoped(self, single_cluster):
        briefcase = Briefcase({"SECRET": ["alice-data"]})
        briefcase.put("DRAWER", "d")
        call(single_cluster, "ag_cabinet", "put", briefcase,
             principal="alice")
        get_request = Briefcase()
        get_request.put("DRAWER", "d")
        with pytest.raises(TaxError, match="no drawer"):
            call(single_cluster, "ag_cabinet", "get", get_request,
                 principal="bob")

    def test_list_and_drop(self, single_cluster):
        briefcase = Briefcase({"X": ["1"]})
        briefcase.put("DRAWER", "keepsake")
        call(single_cluster, "ag_cabinet", "put", briefcase)
        reply = call(single_cluster, "ag_cabinet", "list")
        assert "keepsake" in reply.get_json(wellknown.RESULTS)["drawers"]

        drop_request = Briefcase()
        drop_request.put("DRAWER", "keepsake")
        reply = call(single_cluster, "ag_cabinet", "drop", drop_request)
        assert reply.get_json(wellknown.RESULTS)["dropped"] is True

    def test_missing_drawer_field(self, single_cluster):
        with pytest.raises(TaxError, match="DRAWER"):
            call(single_cluster, "ag_cabinet", "put", Briefcase())


class TestAgExec:
    def exec_binary(self, cluster, program_source, entry, args,
                    principal="vendor", trusted=True):
        cluster.add_principal(principal, trusted=trusted)
        inner = loader.compile_source(
            loader.pack_source(program_source, entry))
        payload = loader.pack_binary_list(
            [("x86-unix", inner)], cluster.keychain, principal)
        briefcase = Briefcase()
        loader.install_payload(briefcase, payload)
        briefcase.put(wellknown.ARGS, args)
        return call(cluster, "ag_exec", "exec", briefcase)

    def test_runs_program_and_returns_result(self, single_cluster):
        source = ("def main(args, env):\n"
                  "    return {'doubled': args['n'] * 2}\n")
        reply = self.exec_binary(single_cluster, source, "main", {"n": 21})
        assert reply.get_json(wellknown.RESULTS) == {"doubled": 42}

    def test_untrusted_program_refused(self, single_cluster):
        source = "def main(args, env):\n    return 1\n"
        with pytest.raises(TaxError, match="not trusted"):
            self.exec_binary(single_cluster, source, "main", {},
                             principal="shady", trusted=False)

    def test_program_crash_reported(self, single_cluster):
        source = "def main(args, env):\n    raise KeyError('oops')\n"
        with pytest.raises(TaxError, match="KeyError"):
            self.exec_binary(single_cluster, source, "main", {})

    def test_program_charges_env_ledger(self, single_cluster):
        source = ("def main(args, env):\n"
                  "    env.ledger.add_cpu(5.0)\n"
                  "    return 'done'\n")
        before = single_cluster.kernel.now
        self.exec_binary(single_cluster, source, "main", {})
        assert single_cluster.kernel.now - before >= 5.0

    def test_program_uses_vfs(self, single_cluster):
        source = ("def main(args, env):\n"
                  "    env.fs.write('/out.txt', b'written', 'vendor')\n"
                  "    return 'ok'\n")
        self.exec_binary(single_cluster, source, "main", {})
        node = single_cluster.node("solo.test")
        assert node.vfs.read("/out.txt") == b"written"

    def test_http_unavailable_without_web(self, single_cluster):
        source = ("def main(args, env):\n"
                  "    return env.http.get('http://x/').status\n")
        with pytest.raises(TaxError, match="web deployment"):
            self.exec_binary(single_cluster, source, "main", {})

    def test_tool_op_compiles(self, single_cluster):
        briefcase = Briefcase()
        briefcase.put("TOOL", "cc")
        loader.install_payload(
            briefcase, loader.pack_source("def f():\n    return 9\n", "f"))
        reply = call(single_cluster, "ag_exec", "tool", briefcase)
        compiled = loader.read_payload(reply)
        assert compiled.kind == loader.KIND_MARSHAL
        assert loader.materialize_marshal(compiled)() == 9

    def test_unknown_tool(self, single_cluster):
        briefcase = Briefcase()
        briefcase.put("TOOL", "linker")
        loader.install_payload(briefcase, loader.pack_source("x = 1", "x"))
        with pytest.raises(TaxError, match="no installed tool"):
            call(single_cluster, "ag_exec", "tool", briefcase)

    def test_exec_requires_binary_kind(self, single_cluster):
        briefcase = Briefcase()
        loader.install_payload(briefcase, loader.pack_source("x = 1", "x"))
        with pytest.raises(TaxError, match="signed binary"):
            call(single_cluster, "ag_exec", "exec", briefcase)


class TestAgCron:
    def test_deferred_delivery(self, single_cluster):
        node = single_cluster.node("solo.test")
        driver = node.driver()

        def scenario():
            request = Briefcase({"NOTE": ["wake up"]})
            request.put(wellknown.ARGS,
                        {"delay": 10, "target": str(driver.uri)})
            reply = yield from driver.call_service("ag_cron", "schedule",
                                                   request)
            job = reply.get_json(wellknown.RESULTS)["job_id"]
            message = yield from driver.recv(timeout=60)
            return job, single_cluster.kernel.now, \
                message.briefcase.get_text("NOTE")
        job, now, note = single_cluster.run(scenario())
        assert job.startswith("job-")
        assert now >= 10
        assert note == "wake up"

    def test_cancel_prevents_delivery(self, single_cluster):
        node = single_cluster.node("solo.test")
        driver = node.driver()

        def scenario():
            request = Briefcase({"NOTE": ["never"]})
            request.put(wellknown.ARGS,
                        {"delay": 10, "target": str(driver.uri)})
            reply = yield from driver.call_service("ag_cron", "schedule",
                                                   request)
            job = reply.get_json(wellknown.RESULTS)["job_id"]
            cancel = Briefcase()
            cancel.put(wellknown.ARGS, {"job_id": job})
            reply = yield from driver.call_service("ag_cron", "cancel",
                                                   cancel)
            assert reply.get_json(wellknown.RESULTS)["cancelled"] is True
            from repro.core.errors import CommTimeoutError
            with pytest.raises(CommTimeoutError):
                yield from driver.recv(timeout=20)
            return "quiet"
        assert single_cluster.run(scenario()) == "quiet"

    def test_bad_schedule_args(self, single_cluster):
        request = Briefcase()
        request.put(wellknown.ARGS, {"delay": -1, "target": "x"})
        with pytest.raises(TaxError):
            call(single_cluster, "ag_cron", "schedule", request)

    def test_list_jobs(self, single_cluster):
        node = single_cluster.node("solo.test")
        driver = node.driver()

        def scenario():
            request = Briefcase()
            request.put(wellknown.ARGS,
                        {"delay": 1000, "target": str(driver.uri)})
            yield from driver.call_service("ag_cron", "schedule", request)
            reply = yield from driver.call_service("ag_cron", "list")
            return reply.get_json(wellknown.RESULTS)["jobs"]
        assert len(single_cluster.run(scenario())) == 1


class TestAgLocator:
    def test_update_and_lookup(self, single_cluster):
        request = Briefcase()
        request.put(wellknown.ARGS,
                    {"name": "roamer", "uri": "tacoma://h//bot:1f"})
        call(single_cluster, "ag_locator", "update", request)

        lookup = Briefcase()
        lookup.put(wellknown.ARGS, {"name": "roamer"})
        reply = call(single_cluster, "ag_locator", "lookup", lookup)
        assert reply.get_json(wellknown.RESULTS)["uri"] == \
            "tacoma://h//bot:1f"

    def test_lookup_unknown(self, single_cluster):
        lookup = Briefcase()
        lookup.put(wellknown.ARGS, {"name": "ghost"})
        with pytest.raises(TaxError, match="no location"):
            call(single_cluster, "ag_locator", "lookup", lookup)

    def test_name_ownership(self, single_cluster):
        request = Briefcase()
        request.put(wellknown.ARGS, {"name": "n", "uri": "tacoma://a//x"})
        call(single_cluster, "ag_locator", "update", request,
             principal="alice")
        steal = Briefcase()
        steal.put(wellknown.ARGS, {"name": "n", "uri": "tacoma://b//y"})
        with pytest.raises(TaxError, match="may not update"):
            call(single_cluster, "ag_locator", "update", steal,
                 principal="mallory")

    def test_remove(self, single_cluster):
        request = Briefcase()
        request.put(wellknown.ARGS, {"name": "n", "uri": "tacoma://a//x"})
        call(single_cluster, "ag_locator", "update", request,
             principal="alice")
        remove = Briefcase()
        remove.put(wellknown.ARGS, {"name": "n"})
        reply = call(single_cluster, "ag_locator", "remove", remove,
                     principal="alice")
        assert reply.get_json(wellknown.RESULTS)["removed"] is True

    def test_list_entries(self, single_cluster):
        request = Briefcase()
        request.put(wellknown.ARGS, {"name": "m", "uri": "tacoma://a//x"})
        call(single_cluster, "ag_locator", "update", request)
        reply = call(single_cluster, "ag_locator", "list")
        assert reply.get_json(wellknown.RESULTS)["entries"]["m"] == \
            "tacoma://a//x"


class TestServiceProtocol:
    def test_unknown_op_is_error_reply(self, single_cluster):
        with pytest.raises(TaxError, match="unknown op"):
            call(single_cluster, "ag_cabinet", "teleport")

    def test_missing_op_is_error_reply(self, single_cluster):
        driver = single_cluster.node("solo.test").driver()

        def scenario():
            request = Briefcase()  # no OP folder at all
            reply = yield from driver.meet(AgentUri.parse("ag_fs"),
                                           request, timeout=30)
            return (reply.get_text(wellknown.STATUS),
                    reply.get_text(wellknown.ERROR))
        status, error = single_cluster.run(scenario())
        assert status == "error" and "unknown op" in error

    def test_failure_counters(self, single_cluster):
        service = single_cluster.node("solo.test").services["ag_fs"]
        before_failed = service.requests_failed
        with pytest.raises(TaxError):
            call(single_cluster, "ag_fs", "bogus")
        assert service.requests_failed == before_failed + 1


class TestServiceEdges:
    def test_activate_style_request_gets_no_reply(self, single_cluster):
        """A request without REPLY-TO is processed but never answered."""
        node = single_cluster.node("solo.test")
        service = node.services["ag_locator"]
        driver = node.driver()
        handled_before = service.requests_handled

        def scenario():
            request = Briefcase()
            request.put(wellknown.OP, "update")
            request.put(wellknown.ARGS, {"name": "fire-and-forget",
                                         "uri": "tacoma://solo.test//x"})
            yield from driver.send(AgentUri.parse("ag_locator"), request)
            yield single_cluster.kernel.timeout(1)
            from repro.core.errors import CommTimeoutError
            with pytest.raises(CommTimeoutError):
                yield from driver.recv(timeout=2)
            return service.requests_handled
        assert single_cluster.run(scenario()) == handled_before + 1
