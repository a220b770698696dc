"""Derived once: the process-wide caches of pure derivations.

Every landing re-derives the same immutable values: an address from its
text, a checked name or instance, the trusted builtins table, an
unpacked program.  Each is kept per distinct input in a bounded LRU
(docs/architecture.md, "Process-wide caches").  What makes that safe is
held here: a cached value cannot be told from a fresh one, a failure is
never kept, no two launches share a namespace, trust is decided on every
launch, every cache is bounded, and a cold process writes the same
documents as a warm one.
"""

import importlib
import marshal
import pickle
import pkgutil
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.chaos.scenario import run_chaos
from repro.core import identity, wellknown
from repro.core.briefcase import Briefcase
from repro.core.errors import IdentityError, TaxError, UriSyntaxError
from repro.core.identity import (validate_agent_name, validate_instance,
                                 validate_principal)
from repro.core.uri import AgentUri, _parse_text
from repro.suites import load_suite, render_suite_json, run_suite
from repro.vm import loader, sandbox
from repro.vm.sandbox import Sandbox, TrustedSandbox

#: Every functools cache in ``src/repro``, each a row of the table in
#: docs/architecture.md — a new one belongs in both.
PROCESS_CACHES = {
    "repro.core.identity._checked_instance",
    "repro.core.identity._checked_name",
    "repro.core.identity._checked_principal",
    "repro.core.uri._parse_text",
    "repro.vm.loader._unpack_marshal",
    "repro.vm.loader.compile_source",
    "repro.vm.sandbox._trusted_builtins",
    "repro.web.page._filler_cycle",
}


def process_caches():
    """{dotted name: cache} of every ``functools`` cache held at module
    level or on a class, in every module of ``repro``."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue
        module = importlib.import_module(info.name)
        owners = [module] + [value for value in vars(module).values()
                             if isinstance(value, type)
                             and value.__module__ == module.__name__]
        for owner in owners:
            for name, value in vars(owner).items():
                value = getattr(value, "__func__", value)
                if callable(getattr(value, "cache_info", None)) and \
                        getattr(value, "__module__", None) == module.__name__:
                    found[f"{module.__name__}.{name}"] = value
    return found


class TestEveryCacheIsBounded:
    def test_the_caches_are_the_documented_ones(self):
        assert set(process_caches()) == PROCESS_CACHES

    @pytest.mark.parametrize("name", sorted(PROCESS_CACHES))
    def test_each_has_a_finite_maxsize(self, name):
        maxsize = process_caches()[name].cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 1024


# ------------------------------------------------------------- addresses

names = st.from_regex(r"[A-Za-z0-9_][A-Za-z0-9_.-]{0,8}", fullmatch=True)
instances = st.text(alphabet="0123456789abcdefABCDEF", min_size=1,
                    max_size=8)
principals = st.from_regex(r"[A-Za-z0-9_.-]{1,6}(@[A-Za-z0-9_.-]{1,6})?",
                           fullmatch=True)
hosts = st.from_regex(r"[A-Za-z0-9]([A-Za-z0-9.-]{0,10}[A-Za-z0-9])?",
                      fullmatch=True)


@st.composite
def figure2_texts(draw):
    """A text of the Figure-2 grammar, in every optional shape."""
    agentid = draw(st.one_of(
        names, instances.map(":".__add__),
        st.tuples(names, instances).map(":".join)))
    principal = draw(st.one_of(st.none(), principals))
    agpath = agentid if principal is None else f"{principal}/{agentid}"
    if not draw(st.booleans()):
        return agpath
    hostport = draw(hosts)
    port = draw(st.one_of(st.none(), st.integers(1, 65535)))
    if port is not None:
        hostport += f":{port}"
    if principal is None and draw(st.booleans()):
        agpath = "/" + agpath  # the paper's "//": principal unspecified
    return f"tacoma://{hostport}/{agpath}"


def observable(uri):
    """Everything a caller can read off an address, pickles taken both
    before and after its first ``str()``."""
    unprinted = [pickle.dumps(uri, protocol)
                 for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    return (uri, unprinted, repr(uri), hash(uri), str(uri),
            [pickle.dumps(uri, protocol)
             for protocol in range(pickle.HIGHEST_PROTOCOL + 1)])


class TestCachedParse:
    @given(figure2_texts())
    @settings(max_examples=300)
    def test_cached_parse_is_a_fresh_parse(self, text):
        shared = AgentUri.parse(text)
        assert AgentUri.parse(text) is shared
        fresh = AgentUri._parse(text)
        assert observable(shared) == observable(fresh)
        # The shared instance has now been printed; nothing moved.
        assert observable(shared) == observable(AgentUri._parse(text))

    @given(st.text(alphabet="tacom:/@.-_xF09 ", max_size=24))
    @settings(max_examples=300)
    def test_any_text_parses_or_fails_as_before(self, text):
        try:
            fresh = AgentUri._parse(text)
        except UriSyntaxError as exc:
            with pytest.raises(UriSyntaxError) as caught:
                AgentUri.parse(text)
            assert str(caught.value) == str(exc)
        else:
            assert observable(AgentUri.parse(text)) == observable(fresh)

    def test_a_subclass_or_str_subclass_is_parsed_afresh(self):
        class Text(str):
            pass

        class Uri(AgentUri):
            pass

        _parse_text.cache_clear()
        assert type(Uri.parse("alice/w:1f")) is Uri
        assert AgentUri.parse(Text("alice/w:1f")) == \
            AgentUri.parse("alice/w:1f")
        assert _parse_text.cache_info().misses == 1


class TestFailuresAreNotKept:
    @pytest.mark.parametrize("text", [
        "tacoma://bad host/x", "tacoma://h:0/x", "a/b/c", "x:", ":zz", "",
    ])
    def test_a_malformed_address_raises_every_time(self, text):
        _parse_text.cache_clear()
        for _ in range(3):
            with pytest.raises(UriSyntaxError):
                AgentUri.parse(text)
        assert _parse_text.cache_info().currsize == 0

    @pytest.mark.parametrize("validate, cache, bad", [
        (validate_agent_name, identity._checked_name, "bad name"),
        (validate_instance, identity._checked_instance, "xyz"),
        (validate_principal, identity._checked_principal, "a@b@c"),
    ])
    def test_an_invalid_identity_raises_every_time(self, validate, cache,
                                                   bad):
        cache.cache_clear()
        for _ in range(3):
            with pytest.raises(IdentityError):
                validate(bad)
        assert cache.cache_info().currsize == 0

    @pytest.mark.parametrize("value", [None, 5, ["ag"], b"ag"])
    def test_non_text_raises_the_domain_error(self, value):
        for validate in (validate_agent_name, validate_instance,
                         validate_principal):
            with pytest.raises(IdentityError):
                validate(value)
        with pytest.raises(UriSyntaxError):
            AgentUri.parse(value)
        if value is not None:
            with pytest.raises(IdentityError):
                AgentUri(name=value)

    def test_a_str_subclass_is_checked_and_returned_as_before(self):
        class Text(str):
            pass

        name = Text("webbot")
        assert validate_agent_name(name) is name
        assert validate_principal(name) is name
        assert validate_instance(Text("AB")) == "ab"


# ------------------------------------------------------------- launches

#: A shipped program that vandalises its own namespace.
TAMPER = """
SEEN = []

def tamper(x):
    before = len(SEEN)
    SEEN.append(x)
    __builtins__["len"] = None
    return before
"""


@pytest.mark.parametrize("kind", [TrustedSandbox, Sandbox])
def test_a_launch_cannot_reach_the_next_one(kind):
    payload = loader.compile_source(loader.pack_source(TAMPER, "tamper"))
    box = kind()
    first = loader.materialize_marshal(payload, box)
    second = loader.materialize_marshal(payload, box)
    assert first(1) == 0
    assert first.__globals__["SEEN"] == [1]
    assert first.__globals__["__builtins__"]["len"] is None
    assert second(2) == 0
    assert second.__globals__["SEEN"] == [2]
    assert box.make_builtins()["len"] is len


def test_the_trusted_table_is_read_only():
    table = sandbox._trusted_builtins()
    with pytest.raises(TypeError):
        table["len"] = None
    assert TrustedSandbox().make_builtins() == dict(table)


SIGNED_SOURCE = "def agent(ctx, bc):\n    return 'ran'\n"


def signed_program(cluster):
    cluster.add_principal("vendor", trusted=True)
    inner = loader.compile_source(
        loader.pack_source(SIGNED_SOURCE, "agent"))
    return loader.pack_binary_list([("x86-unix", inner)], cluster.keychain,
                                   "vendor")


class TestTrustIsDecidedPerLaunch:
    """Verification is never cached: the same signed bytes, launched
    after their signer lost the site's trust, are refused — before the
    program is unpacked."""

    def test_vm_bin(self, single_cluster):
        payload = signed_program(single_cluster)
        node = single_cluster.node("solo.test")
        driver = node.driver(name="launcher")

        def launch():
            briefcase = Briefcase()
            loader.install_payload(briefcase, payload, agent_name="signed")
            reply = yield from driver.meet(
                single_cluster.vm_uri("solo.test", "vm_bin"), briefcase,
                timeout=60)
            return (reply.get_text(wellknown.STATUS),
                    reply.get_text(wellknown.ERROR))

        assert single_cluster.run(launch())[0] == "ok"
        unpacked = loader._unpack_marshal.cache_info()
        node.firewall.trust_store.revoke("vendor")
        status, error = single_cluster.run(launch())
        assert status != "ok" and "not trusted" in error
        assert loader._unpack_marshal.cache_info() == unpacked

    def test_ag_exec(self, single_cluster):
        payload = signed_program(single_cluster)
        node = single_cluster.node("solo.test")
        driver = node.driver(name="caller")

        def execute():
            briefcase = Briefcase()
            loader.install_payload(briefcase, payload)
            reply = yield from driver.call_service("ag_exec", "exec",
                                                   briefcase)
            return reply.get_text(wellknown.RESULTS)

        assert single_cluster.run(execute()) == "ran"
        node.firewall.trust_store.revoke("vendor")
        with pytest.raises(TaxError, match="not trusted"):
            single_cluster.run(execute())


# ------------------------------------------------------- whole processes

def clear_process_caches():
    caches = process_caches().values()
    for cache in caches:
        cache.cache_clear()
    return caches


def test_a_cold_process_writes_what_a_warm_one_does():
    spec = load_suite("examples/ci.suite.yaml")
    caches = clear_process_caches()
    cold = render_suite_json(run_suite(spec))
    misses = [cache.cache_info().misses for cache in caches]
    warm = render_suite_json(run_suite(spec))
    assert [cache.cache_info().misses for cache in caches] == misses
    assert warm == cold


#: Identity regex matches in a warm run of ``chaos --plan mid-crash``:
#: measured 0 (65 in the cold run before it; 320 per run when every
#: call matched).  The measured value plus 10 %.
IDENTITY_MATCHES_BUDGET = 0


def test_a_warm_run_derives_nothing_again():
    """A launch-heavy cell run twice in one process: the second run
    unpacks no program, builds no builtins table, parses no address and
    checks no identity again.  A re-derivation added back fails here in
    seconds, on any host."""
    patterns = (identity._NAME_RE, identity._INSTANCE_RE,
                identity._PRINCIPAL_RE)
    table = sandbox._trusted_builtins.__wrapped__.__code__

    def derivations():
        counts = {"marshal.loads": 0, "builtins tables": 0,
                  "identity matches": 0}

        def profiler(frame, event, arg):
            if event == "c_call":
                if arg is marshal.loads:
                    counts["marshal.loads"] += 1
                elif getattr(arg, "__self__", None) in patterns:
                    counts["identity matches"] += 1
            elif event == "call" and frame.f_code is table:
                counts["builtins tables"] += 1

        parsed = _parse_text.cache_info().misses
        previous = sys.getprofile()
        sys.setprofile(profiler)
        try:
            document = run_chaos(seed=7, plan="mid-crash", recovery=True)
        finally:
            sys.setprofile(previous)
        counts["address parses"] = _parse_text.cache_info().misses - parsed
        return document, counts

    clear_process_caches()
    cold_document, cold = derivations()
    warm_document, warm = derivations()
    assert warm_document == cold_document
    assert cold["marshal.loads"] >= 1 and cold["identity matches"] > 0
    assert warm["marshal.loads"] == 0
    assert warm["builtins tables"] == 0
    assert warm["address parses"] == 0
    assert warm["identity matches"] <= IDENTITY_MATCHES_BUDGET
