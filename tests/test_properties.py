"""Property-based tests (hypothesis) for the core invariants."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import codec
from repro.core.briefcase import Briefcase
from repro.core.element import Element
from repro.core.folder import Folder
from repro.core.uri import AgentUri
from repro.robot.webbot import extract_links, join_url
from repro.sim.rng import RandomStream
from repro.web import urls
from repro.web.page import render_page

folder_names = st.text(
    alphabet=string.ascii_letters + string.digits + "-_.",
    min_size=1, max_size=24)

briefcases = st.dictionaries(
    folder_names,
    st.lists(st.binary(max_size=200), max_size=8),
    max_size=8,
).map(Briefcase.from_dict)


class TestCodecProperties:
    @given(briefcases)
    def test_decode_encode_is_identity(self, briefcase):
        assert codec.decode(codec.encode(briefcase)) == briefcase

    @given(briefcases)
    def test_encoded_size_is_exact(self, briefcase):
        assert codec.encoded_size(briefcase) == len(codec.encode(briefcase))

    @given(briefcases)
    def test_reencode_is_byte_stable(self, briefcase):
        wire = codec.encode(briefcase)
        assert codec.encode(codec.decode(wire)) == wire

    @given(briefcases, briefcases)
    def test_snapshot_equality_and_isolation(self, a, b):
        snapshot = a.snapshot()
        assert snapshot == a
        wire = codec.encode(snapshot)
        for folder in b:
            a.folder(folder.name).push_all(folder)
        a.folder("EXTRA").push(b"mutation")
        # The snapshot must be unaffected by any mutation of the source.
        assert codec.encode(snapshot) == wire and snapshot != a

    @given(briefcases)
    def test_payload_bytes_never_exceeds_wire_size(self, briefcase):
        assert briefcase.payload_bytes() <= codec.encoded_size(briefcase)


class TestFolderProperties:
    @given(st.lists(st.binary(max_size=64)))
    def test_push_preserves_order(self, blobs):
        folder = Folder("F")
        for blob in blobs:
            folder.push(blob)
        assert [e.data for e in folder] == blobs

    @given(st.lists(st.binary(max_size=64), min_size=1))
    def test_pop_first_drains_fifo(self, blobs):
        folder = Folder("F", blobs)
        drained = []
        while True:
            element = folder.pop_first()
            if element is None:
                break
            drained.append(element.data)
        assert drained == blobs

    @given(st.lists(st.text(max_size=32)))
    def test_texts_round_trip(self, texts):
        assert Folder("F", texts).texts() == texts


agent_names = st.text(alphabet=string.ascii_letters + string.digits,
                      min_size=1, max_size=12)
instances = st.integers(min_value=0, max_value=2**48).map(
    lambda n: format(n, "x"))
hostnames = st.from_regex(r"[a-z0-9]([a-z0-9.-]{0,20}[a-z0-9])?",
                          fullmatch=True)


class TestUriProperties:
    @given(
        host=st.one_of(st.none(), hostnames),
        port=st.one_of(st.none(), st.integers(min_value=1, max_value=65535)),
        principal=st.one_of(st.none(), agent_names),
        name=st.one_of(st.none(), agent_names),
        instance=st.one_of(st.none(), instances),
    )
    @settings(max_examples=200)
    def test_format_parse_round_trip(self, host, port, principal, name,
                                     instance):
        if name is None and instance is None:
            return  # not addressable; constructor rejects
        if port is not None and host is None:
            port = None
        uri = AgentUri(host=host, port=port, principal=principal,
                       name=name, instance=instance)
        assert AgentUri.parse(str(uri)) == uri

    @given(name=agent_names, instance=instances, principal=agent_names)
    def test_full_uri_matches_itself(self, name, instance, principal):
        uri = AgentUri(name=name, instance=instance, principal=principal)
        assert uri.matches_agent(name, instance, principal)


class TestDurableMessageProperties:
    """A parked message is journaled as JSON fields and rebuilt from
    them at restart: every envelope field the journal keeps survives."""

    @given(
        briefcase=briefcases,
        name=agent_names,
        host=hostnames,
        principal=agent_names,
        sender_name=st.one_of(st.none(), agent_names),
        authenticated=st.booleans(),
        queue_timeout=st.floats(min_value=0.0, max_value=1e6,
                                allow_nan=False),
        hops=st.integers(min_value=0, max_value=64),
        priority=st.integers(min_value=-8, max_value=8),
        seq=st.one_of(st.none(), st.integers(min_value=1,
                                             max_value=2**40)),
        landing=st.one_of(st.none(), instances),
    )
    @settings(max_examples=100)
    def test_journal_fields_round_trip(self, briefcase, name, host,
                                       principal, sender_name,
                                       authenticated, queue_timeout, hops,
                                       priority, seq, landing):
        import json

        from repro.durability.recovery import (message_from_durable,
                                               message_to_durable)
        from repro.firewall.message import Message, SenderInfo
        sender_uri = AgentUri(host=host, principal=principal,
                              name=sender_name) if sender_name else None
        message = Message(
            target=AgentUri(name=name), briefcase=briefcase,
            sender=SenderInfo(principal, host, uri=sender_uri,
                              authenticated=authenticated),
            queue_timeout=queue_timeout, hops=hops, priority=priority,
            seq=seq, seq_src=host if seq is not None else None,
            landing_id=landing)
        back = message_from_durable(
            json.loads(json.dumps(message_to_durable(message))))
        assert back.briefcase == message.briefcase
        assert (back.target, back.sender) == (message.target,
                                              message.sender)
        assert (back.queue_timeout, back.hops, back.priority, back.seq,
                back.seq_src, back.landing_id) == (
            queue_timeout, hops, priority, seq, message.seq_src, landing)


class TestUrlProperties:
    @given(st.lists(st.from_regex(r"/[a-z0-9/._-]{0,30}", fullmatch=True),
                    max_size=10))
    def test_rendered_links_are_extracted_exactly(self, hrefs):
        page = render_page("/p.html", "T", hrefs,
                           [f"a{i}" for i in range(len(hrefs))], 2000)
        assert extract_links(page.html) == hrefs

    @given(st.from_regex(r"/[a-zA-Z0-9_./-]{0,40}", fullmatch=True))
    def test_normalize_path_is_idempotent(self, path):
        once = urls.normalize_path(path)
        assert urls.normalize_path(once) == once

    @given(st.from_regex(r"[a-z0-9._/-]{0,30}", fullmatch=True))
    def test_join_url_agrees_with_web_urls(self, reference):
        """Webbot's private URL code and the substrate's module must agree
        (they are independent implementations of the same rules)."""
        base = "http://host.example/dir/page.html"
        robot_view = join_url(base, reference)
        substrate_view = urls.join(urls.parse(base), reference)
        if reference.strip() == "":
            assert robot_view is None or robot_view == str(substrate_view)
        else:
            assert robot_view == str(substrate_view)


class TestRngProperties:
    @given(st.integers(min_value=0, max_value=2**31), st.text(max_size=10))
    def test_fork_determinism(self, seed, name):
        a = RandomStream(seed).fork(name).random()
        b = RandomStream(seed).fork(name).random()
        assert a == b

    @given(st.integers(min_value=1, max_value=100))
    def test_randint_bounds(self, high):
        stream = RandomStream(0)
        for _ in range(20):
            assert 0 <= stream.randint(0, high) <= high
