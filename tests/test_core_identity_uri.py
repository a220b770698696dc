"""Unit tests for principals, agent ids, and the Figure-2 URI grammar."""

import copy
import dataclasses
import pickle

import pytest

from repro.core.errors import IdentityError, UriSyntaxError
from repro.core.identity import (
    AgentId,
    InstanceAllocator,
    Principal,
    validate_agent_name,
    validate_instance,
)
from repro.core.uri import AgentUri


class TestIdentity:
    def test_agent_name_allows_paper_examples(self):
        for name in ("vm_c", "ag_cron", "mwWebbot", "agent-1", "x.y"):
            assert validate_agent_name(name) == name

    def test_agent_name_rejects_garbage(self):
        for bad in ("", " space", "a/b", "a:b", None, "-lead"):
            with pytest.raises(IdentityError):
                validate_agent_name(bad)

    def test_instance_is_hex_lowercased(self):
        assert validate_instance("933821661") == "933821661"
        assert validate_instance("DEADBEEF") == "deadbeef"

    def test_instance_rejects_non_hex(self):
        for bad in ("", "xyz", "12 34", None):
            with pytest.raises(IdentityError):
                validate_instance(bad)

    def test_agent_id_str_and_parse(self):
        agent_id = AgentId("worker", "1f")
        assert str(agent_id) == "worker:1f"
        assert AgentId.parse("worker:1f") == agent_id

    def test_agent_id_parse_rejects_partial(self):
        for bad in ("worker", ":1f", "worker:", ""):
            with pytest.raises(IdentityError):
                AgentId.parse(bad)

    def test_allocator_unique_and_site_scoped(self):
        a = InstanceAllocator(site_ordinal=1)
        b = InstanceAllocator(site_ordinal=2)
        issued = {a.next_instance() for _ in range(10)}
        issued |= {b.next_instance() for _ in range(10)}
        assert len(issued) == 20

    def test_allocator_is_deterministic(self):
        assert InstanceAllocator(3).next_instance() == \
            InstanceAllocator(3).next_instance()

    def test_principal_validation(self):
        assert Principal("tacoma@cl2.cs.uit.no").name == \
            "tacoma@cl2.cs.uit.no"
        with pytest.raises(IdentityError):
            Principal("bad principal!")


class TestUriParsing:
    """The grammar of Figure 2, including the paper's own examples."""

    def test_paper_example_1_full_remote(self):
        uri = AgentUri.parse("tacoma://cl2.cs.uit.no:27017//vm_c:933821661")
        assert uri.host == "cl2.cs.uit.no"
        assert uri.port == 27017
        assert uri.principal is None  # the "//" empty-principal form
        assert uri.name == "vm_c"
        assert uri.instance == "933821661"

    def test_paper_example_2_principal_no_instance(self):
        uri = AgentUri.parse(
            "tacoma://cl2.cs.uit.no/tacoma@cl2.cs.uit.no/ag_cron")
        assert uri.host == "cl2.cs.uit.no"
        assert uri.port is None
        assert uri.principal == "tacoma@cl2.cs.uit.no"
        assert uri.name == "ag_cron"
        assert uri.instance is None

    def test_paper_example_3_local_instance_only(self):
        uri = AgentUri.parse("tacomaproject/:933821661")
        assert uri.host is None
        assert uri.principal == "tacomaproject"
        assert uri.name is None
        assert uri.instance == "933821661"

    def test_bare_name(self):
        uri = AgentUri.parse("ag_fs")
        assert (uri.host, uri.principal, uri.name, uri.instance) == \
            (None, None, "ag_fs", None)

    def test_bare_instance(self):
        uri = AgentUri.parse(":beef")
        assert uri.name is None and uri.instance == "beef"

    def test_name_and_instance(self):
        uri = AgentUri.parse("worker:2a")
        assert uri.name == "worker" and uri.instance == "2a"

    @pytest.mark.parametrize("text", [
        "",
        "tacoma:///agent",                 # empty host
        "tacoma://host",                   # missing '/' after host part
        "tacoma://host:notaport/agent",
        "tacoma://host/p/agent/extra",     # too many segments
        "tacoma://host/p/",                # missing agent id
        "worker:",                         # empty instance
        ":",                               # nothing at all
        "p/q/worker",                      # local with two segments
    ])
    def test_rejected_syntax(self, text):
        with pytest.raises(UriSyntaxError):
            AgentUri.parse(text)

    def test_round_trips(self):
        for text in (
                "tacoma://cl2.cs.uit.no:27017//vm_c:933821661",
                "tacoma://cl2.cs.uit.no/tacoma@cl2.cs.uit.no/ag_cron",
                "tacomaproject/:933821661",
                "ag_fs",
                "worker:2a",
                ":beef"):
            assert str(AgentUri.parse(text)) == text

    def test_construction_validation(self):
        with pytest.raises(UriSyntaxError):
            AgentUri()  # neither name nor instance
        with pytest.raises(UriSyntaxError):
            AgentUri(port=80, name="x")  # port without host
        with pytest.raises(UriSyntaxError):
            AgentUri(host="h", port=0, name="x")

    def test_instance_normalised_to_lowercase(self):
        assert AgentUri(name="x", instance="BEEF").instance == "beef"


class TestUriSemantics:
    def test_is_remote(self):
        assert AgentUri.parse("tacoma://h/x").is_remote
        assert not AgentUri.parse("x").is_remote

    def test_agent_id_property(self):
        assert AgentUri.parse("w:1f").agent_id == AgentId("w", "1f")
        assert AgentUri.parse("w").agent_id is None

    def test_at_and_local(self):
        uri = AgentUri.parse("w:1f").at("h", 27017)
        assert uri.host == "h" and uri.port == 27017
        back = uri.local()
        assert back.host is None and back.name == "w"

    def test_matching_name_only(self):
        pattern = AgentUri.parse("ag_fs")
        assert pattern.matches_agent("ag_fs", "1a", "system")
        assert not pattern.matches_agent("ag_exec", "1a", "system")

    def test_matching_instance_only(self):
        pattern = AgentUri.parse(":1a")
        assert pattern.matches_agent("whatever", "1a", "anyone")
        assert not pattern.matches_agent("whatever", "1b", "anyone")

    def test_matching_with_principal(self):
        pattern = AgentUri.parse("alice/w")
        assert pattern.matches_agent("w", "1", "alice")
        assert not pattern.matches_agent("w", "1", "bob")

    def test_for_agent_helper(self):
        uri = AgentUri.for_agent("svc", host="h")
        assert str(uri) == "tacoma://h//svc"


#: The paper's three examples plus the shapes between them.
TEXT_SHAPES = [
    "tacoma://cl2.cs.uit.no:27017//vm_c:933821661",
    "tacoma://cl2.cs.uit.no/tacoma@cl2.cs.uit.no/ag_cron",
    "tacomaproject/:933821661",
    "ag_fs", ":1a", "alice/w:1f", "tacoma://h//svc",
]


class TestUriTextCache:
    """``str(uri)`` is built once and kept on the instance; nothing else
    may tell whether it was: object agents ship by ``pickle``, so a
    pickled URI must not carry the text."""

    @staticmethod
    def observable(uri):
        return ([pickle.dumps(uri, protocol)
                 for protocol in range(pickle.HIGHEST_PROTOCOL + 1)],
                repr(uri), hash(uri), uri == AgentUri.parse(str(uri)))

    @pytest.mark.parametrize("text", TEXT_SHAPES)
    def test_printing_changes_nothing_observable(self, text):
        for uri in (AgentUri.parse(text), AgentUri.parse(text).local()):
            before = self.observable(uri)
            rendered = str(uri)
            assert str(uri) is rendered
            assert f"{uri}" == rendered
            assert self.observable(uri) == before
            never_printed = AgentUri(uri.host, uri.port, uri.principal,
                                     uri.name, uri.instance)
            assert pickle.dumps(uri) == pickle.dumps(never_printed)

    @pytest.mark.parametrize("text", TEXT_SHAPES)
    def test_copies_render_their_own_fields(self, text):
        uri = AgentUri.parse(text)
        rendered = str(uri)
        assert rendered == text
        assert str(pickle.loads(pickle.dumps(uri))) == rendered
        assert str(copy.deepcopy(uri)) == rendered
        renamed = dataclasses.replace(uri, name="other")
        assert str(renamed) == str(AgentUri(
            uri.host, uri.port, uri.principal, "other", uri.instance))
        assert str(dataclasses.replace(uri, principal="bob")) == str(
            AgentUri(uri.host, uri.port, "bob", uri.name, uri.instance))



class TestUriLocalCache:
    """``uri.local()`` is built once and kept on the instance, the way
    ``str(uri)`` is; nothing else may tell whether it was."""

    @pytest.mark.parametrize("text", TEXT_SHAPES)
    def test_local_is_kept_and_equals_a_fresh_strip(self, text):
        uri = AgentUri.parse(text)
        fresh = AgentUri(None, None, uri.principal, uri.name, uri.instance)
        stripped = uri.local()
        assert uri.local() is stripped
        assert stripped == fresh and hash(stripped) == hash(fresh)
        assert repr(stripped) == repr(fresh) and str(stripped) == str(fresh)
        assert stripped.local() is stripped
        if not uri.is_remote:
            assert stripped is uri

    @pytest.mark.parametrize("text", TEXT_SHAPES)
    def test_stripping_changes_nothing_observable(self, text):
        uri = AgentUri(*dataclasses.astuple(AgentUri.parse(text)))
        before = TestUriTextCache.observable(uri)
        uri.local()
        assert TestUriTextCache.observable(uri) == before
        never_stripped = AgentUri(*dataclasses.astuple(uri))
        assert uri == never_stripped and hash(uri) == hash(never_stripped)
        assert repr(uri) == repr(never_stripped)
        assert "_local" not in repr(uri) and "_local" not in \
            [field.name for field in dataclasses.fields(uri)]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.dumps(uri, protocol) == \
                pickle.dumps(never_stripped, protocol)
        for copied in (copy.copy(uri), copy.deepcopy(uri),
                       pickle.loads(pickle.dumps(uri)),
                       dataclasses.replace(uri)):
            assert copied == uri
            assert "_local" not in vars(copied)
            assert copied.local() == uri.local()
        renamed = dataclasses.replace(uri, name="other")
        assert renamed.local() == AgentUri(
            None, None, uri.principal, "other", uri.instance)
