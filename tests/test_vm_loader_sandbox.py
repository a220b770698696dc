"""Unit tests for code shipping and the sandbox."""

import inspect
import json

import pytest

from repro.core.briefcase import Briefcase
from repro.core.errors import (
    SandboxViolation,
    TrustError,
    UnsupportedPayloadError,
    VMError,
)
from repro.firewall.auth import build_shared_trust
from repro.vm import loader
from repro.vm.sandbox import Sandbox, TrustedSandbox, run_limited


def shippable(x, y):
    return x + y


def shipped_namespace(source, sandbox=None):
    """The namespace ``source`` leaves behind when shipped as py-source
    and loaded (in ``sandbox``, or a fresh restricted one)."""
    payload = loader.pack_source(source + "\ndef entry():\n    pass\n",
                                 "entry")
    return loader.materialize_source(payload, sandbox).__globals__


class TestPackRef:
    def test_round_trip(self):
        payload = loader.pack_ref(shippable)
        func = loader.materialize_ref(payload)
        assert func(2, 3) == 5

    def test_string_path(self):
        payload = loader.pack_ref(
            "tests.test_vm_loader_sandbox:shippable")
        assert loader.materialize_ref(payload)(1, 1) == 2

    def test_rejects_local_function(self):
        def local():
            pass
        with pytest.raises(VMError):
            loader.pack_ref(local)

    def test_rejects_pathless_string(self):
        with pytest.raises(VMError):
            loader.pack_ref("no-colon-here")

    def test_missing_module(self):
        payload = loader.Payload(
            loader.KIND_REF, b'{"path": "no.such.module:f"}')
        with pytest.raises(UnsupportedPayloadError, match="not installed"):
            loader.materialize_ref(payload)

    def test_missing_attribute(self):
        payload = loader.Payload(
            loader.KIND_REF, b'{"path": "json:nope"}')
        with pytest.raises(UnsupportedPayloadError, match="not found"):
            loader.materialize_ref(payload)


SOURCE = """
GREETING = "hi"

def entry(name):
    return GREETING + " " + name
"""


class TestMarshalPayload:
    def test_shipped_code_is_sandboxed(self):
        payload = loader.pack_source(
            "def naughty():\n    return open('/etc/passwd')\n", "naughty")
        func = loader.materialize_source(payload)
        with pytest.raises(SandboxViolation):
            func()

    def test_corrupt_marshal_rejected(self):
        payload = loader.Payload(
            loader.KIND_MARSHAL,
            b'{"style": "module", "entry": "f", "code_b64": "AAAA",'
            b' "globals": {}}')
        with pytest.raises(UnsupportedPayloadError, match="corrupt"):
            loader.materialize_marshal(payload)

    @pytest.mark.parametrize("style", ["func", None])
    def test_any_style_but_module_rejected(self, style):
        compiled = loader.compile_source(loader.pack_source(SOURCE, "entry"))
        data = json.loads(compiled.blob)
        data["style"] = style
        payload = loader.Payload(loader.KIND_MARSHAL,
                                 json.dumps(data).encode())
        with pytest.raises(UnsupportedPayloadError, match="style"):
            loader.materialize_marshal(payload)

    def test_shipped_globals_rejected(self):
        compiled = loader.compile_source(loader.pack_source(SOURCE, "entry"))
        data = json.loads(compiled.blob)
        data["globals"] = {"GREETING": "ho"}
        payload = loader.Payload(loader.KIND_MARSHAL,
                                 json.dumps(data).encode())
        with pytest.raises(UnsupportedPayloadError, match="globals"):
            loader.materialize_marshal(payload)

    def test_malformed_json_rejected(self):
        for blob in (b"not-json", b"[1, 2]"):
            payload = loader.Payload(loader.KIND_MARSHAL, blob)
            with pytest.raises(UnsupportedPayloadError):
                loader.materialize_marshal(payload)


class TestPackSource:
    def test_source_round_trip(self):
        payload = loader.pack_source(SOURCE, "entry")
        func = loader.materialize_source(payload)
        assert func("there") == "hi there"

    def test_compile_source_produces_marshal(self):
        payload = loader.pack_source(SOURCE, "entry")
        compiled = loader.compile_source(payload)
        assert compiled.kind == loader.KIND_MARSHAL
        func = loader.materialize_marshal(compiled)
        assert func("again") == "hi again"

    def test_syntax_error_reported(self):
        payload = loader.pack_source("def broken(:", "broken")
        with pytest.raises(VMError, match="compilation failed"):
            loader.compile_source(payload)

    def test_missing_entry_rejected(self):
        payload = loader.pack_source(SOURCE, "ghost_entry")
        compiled = loader.compile_source(payload)
        with pytest.raises(UnsupportedPayloadError, match="ghost_entry"):
            loader.materialize_marshal(compiled)

    def test_a_real_module_ships_as_source(self):
        from repro.robot import webbot
        payload = loader.pack_source(inspect.getsource(webbot), "run_webbot",
                                     origin=webbot.__name__)
        func = loader.materialize_source(payload, TrustedSandbox())
        assert callable(func)

    def test_parse_source_fields(self):
        payload = loader.pack_source(SOURCE, "entry", origin="unit-test")
        source, entry, origin = loader.parse_source(payload)
        assert entry == "entry" and origin == "unit-test"
        assert "GREETING" in source


class TestBinaryList:
    def make(self, archs=("x86-unix", "sparc-solaris"), trusted=True):
        keychain, store = build_shared_trust({"vendor": trusted})
        inner = loader.compile_source(loader.pack_source(SOURCE, "entry"))
        payload = loader.pack_binary_list(
            [(arch, inner) for arch in archs], keychain, "vendor")
        return payload, store

    def test_select_matching_arch(self):
        payload, _store = self.make()
        binary = loader.select_binary(payload, "sparc-solaris")
        assert binary.arch == "sparc-solaris"

    def test_missing_arch_rejected(self):
        payload, _store = self.make()
        with pytest.raises(UnsupportedPayloadError, match="no binary"):
            loader.select_binary(payload, "alpha-vms")

    def test_verification_of_trusted_signer(self):
        payload, store = self.make()
        binary = loader.select_binary(payload, "x86-unix")
        assert loader.verify_binary(binary, store) == "vendor"

    def test_untrusted_signer_rejected(self):
        payload, store = self.make(trusted=False)
        binary = loader.select_binary(payload, "x86-unix")
        with pytest.raises(TrustError, match="not trusted"):
            loader.verify_binary(binary, store)

    def test_tampered_blob_rejected(self):
        import base64
        import json
        payload, store = self.make()
        data = json.loads(payload.blob)
        blob = base64.b64decode(data["binaries"][0]["blob_b64"])
        data["binaries"][0]["blob_b64"] = \
            base64.b64encode(blob + b"x").decode()
        tampered = loader.Payload(loader.KIND_BINARY,
                                  json.dumps(data).encode())
        binary = loader.select_binary(tampered, "x86-unix")
        with pytest.raises(TrustError):
            loader.verify_binary(binary, store)

    def test_empty_list_rejected(self):
        keychain, _ = build_shared_trust({"v": True})
        with pytest.raises(VMError):
            loader.pack_binary_list([], keychain, "v")


class TestBriefcaseIntegration:
    def test_install_and_read(self):
        briefcase = Briefcase()
        payload = loader.pack_source(SOURCE, "entry")
        loader.install_payload(briefcase, payload, agent_name="bot")
        read = loader.read_payload(briefcase)
        assert read == payload
        assert briefcase.get_text("AGENT-NAME") == "bot"

    def test_read_missing_payload(self):
        with pytest.raises(UnsupportedPayloadError):
            loader.read_payload(Briefcase())

    def test_unknown_kind_rejected(self):
        with pytest.raises(UnsupportedPayloadError):
            loader.Payload("jar", b"x")


class TestSandbox:
    def test_denied_builtins(self):
        sandbox = Sandbox()
        namespace = sandbox.make_globals()
        for name in ("open", "eval", "exec", "compile"):
            with pytest.raises(SandboxViolation):
                namespace["__builtins__"][name]()

    def test_whitelisted_import_works(self):
        namespace = shipped_namespace("import json\nx = json.dumps([1])")
        assert namespace["x"] == "[1]"

    def test_dotted_import_binds_the_package(self):
        namespace = shipped_namespace(
            "import collections.abc\n"
            "ok = issubclass(dict, collections.abc.Mapping)")
        import collections
        assert namespace["collections"] is collections
        assert namespace["ok"] is True

    def test_from_import_gets_the_submodule(self):
        namespace = shipped_namespace(
            "from collections import abc\n"
            "ok = issubclass(dict, abc.Mapping)")
        import collections.abc
        assert namespace["abc"] is collections.abc
        assert namespace["ok"] is True

    def test_non_whitelisted_import_denied(self):
        with pytest.raises(SandboxViolation, match="denied"):
            shipped_namespace("import os")
        with pytest.raises(SandboxViolation, match="denied"):
            shipped_namespace("import os.path")

    def test_relative_import_denied(self):
        sandbox = Sandbox()
        import_fn = sandbox.make_builtins()["__import__"]
        with pytest.raises(SandboxViolation):
            import_fn("x", level=1)

    def test_class_definitions_work(self):
        namespace = shipped_namespace(
            "class A:\n"
            "    def f(self):\n"
            "        return 7\n"
            "value = A().f()")
        assert namespace["value"] == 7

    def test_syntax_error_wrapped(self):
        with pytest.raises(VMError, match="compilation failed"):
            shipped_namespace("def (")

    def test_extra_globals_injected(self):
        sandbox = Sandbox(extra_globals={"INJECTED": 5})
        namespace = shipped_namespace("y = INJECTED * 2", sandbox)
        assert namespace["y"] == 10

    def test_trusted_sandbox_has_real_builtins(self):
        namespace = TrustedSandbox().make_globals()
        assert namespace["__builtins__"]["open"] is open

    def test_run_limited_within_budget(self):
        assert run_limited(lambda: sum(range(10)), max_lines=10_000) == 45

    def test_run_limited_exhausts(self):
        def spin():
            total = 0
            for i in range(10_000_000):
                total += i
            return total
        with pytest.raises(SandboxViolation, match="budget"):
            run_limited(spin, max_lines=100)
