"""The firewall ingress path does the same thing in fewer steps.

Each hand-written shortcut on the ``receive_wire`` path — name
resolution without ``matches_agent``, ``AgentUri.local`` and the
``Message`` copies without ``dataclasses.replace``, ``Element.of``
without the ``isinstance`` chain — is compared here with the definition
it replaced, and the path as a whole is held to a budget of Python calls.
"""

import dataclasses
import json
import sys

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core import codec  # noqa: E402
from repro.core.briefcase import Briefcase  # noqa: E402
from repro.core.element import Element  # noqa: E402
from repro.core.errors import BriefcaseError  # noqa: E402
from repro.core.identity import SYSTEM_PRINCIPAL, AgentId  # noqa: E402
from repro.core.limits import QueueLimits, WireLimits  # noqa: E402
from repro.core.uri import AgentUri  # noqa: E402
from repro.firewall.auth import sign_request  # noqa: E402
from repro.firewall.dedup import inject_seq  # noqa: E402
from repro.firewall.governor import GovernorConfig  # noqa: E402
from repro.firewall.message import Message, SenderInfo  # noqa: E402
from repro.firewall.policy import Policy  # noqa: E402
from repro.firewall.routing import Registration, Registry  # noqa: E402
from repro.obs.propagation import TraceContext  # noqa: E402
from repro.system.cluster import TaxCluster  # noqa: E402
from tests.test_obs_metrics import count_frames  # noqa: E402
from tests.test_sim_eventloop import count_kernel_frames  # noqa: E402


# -- Registry.matches ----------------------------------------------------------

AGENT_NAMES = ["ag_cron", "collector", "vm_c"]
PRINCIPALS = [SYSTEM_PRINCIPAL, "alice", "bob@cl2.cs.uit.no"]


def matches_by_definition(registry, target, sender_principal):
    """``Registry.matches`` as it read before it was inlined."""
    found = []
    for registration in registry.all():
        if not target.matches_agent(registration.name,
                                    registration.instance,
                                    registration.principal):
            continue
        if target.principal is None:
            valid = {SYSTEM_PRINCIPAL}
            if sender_principal is not None:
                valid.add(sender_principal)
            if registration.principal not in valid:
                continue
        found.append(registration)
    return found


@st.composite
def registries(draw):
    """A registry with some history: registrations come and go, so
    lookup order is not simply construction order."""
    registry = Registry()
    count = draw(st.integers(min_value=0, max_value=8))
    for ordinal in range(count):
        registry.add(Registration(
            agent_id=AgentId(draw(st.sampled_from(AGENT_NAMES)),
                             f"{0xa0 + ordinal:x}"),
            principal=draw(st.sampled_from(PRINCIPALS)),
            vm_name="vm_python", deliver_fn=lambda message: True,
            start_time=0.0))
    for registration in draw(st.lists(
            st.sampled_from(registry.all()), max_size=3, unique_by=id)
            if count else st.just([])):
        registry.remove(registration.agent_id)
        if draw(st.booleans()):
            registry.add(registration)
    return registry


@st.composite
def targets(draw):
    name = draw(st.none() | st.sampled_from(AGENT_NAMES + ["absent"]))
    # a0..a7 may be registered (in either case), ff never is.
    instance = draw(st.sampled_from(
        [None, "ff"] if name is not None else ["ff"])
        | st.integers(0, 7).map(lambda n: f"{0xa0 + n:x}")
        | st.integers(0, 7).map(lambda n: f"{0xA0 + n:X}"))
    principal = draw(st.none() | st.sampled_from(PRINCIPALS + ["carol"]))
    return AgentUri(name=name, instance=instance, principal=principal)


class TestRegistryMatches:
    @given(registry=registries(), target=targets(),
           sender=st.none() | st.sampled_from(PRINCIPALS + ["carol"]))
    @settings(max_examples=400, deadline=None)
    def test_same_registrations_in_the_same_order(self, registry, target,
                                                  sender):
        expected = matches_by_definition(registry, target, sender)
        found = registry.matches(target, sender)
        assert [id(r) for r in found] == [id(r) for r in expected]

    def test_an_ownerless_registration_has_no_valid_principal(self):
        """``None`` is neither the system nor "the sender's" — even when
        there is no sender."""
        registry = Registry()
        registry.add(Registration(
            agent_id=AgentId("collector", "a0"), principal=None,
            vm_name="vm_python", deliver_fn=lambda message: True,
            start_time=0.0))
        target = AgentUri(name="collector")
        assert registry.matches(target, None) == \
            matches_by_definition(registry, target, None) == []
        pinned = AgentUri(name="collector", principal="alice")
        assert registry.matches(pinned, None) == \
            matches_by_definition(registry, pinned, None) == registry.all()


# -- AgentUri.local --------------------------------------------------------------

#: Every shape of the Figure-2 grammar: remote part absent / host / host
#: and port; principal absent / empty / given; the three agent ids.
FIGURE_2_SHAPES = [
    remote + principal + agent_id
    for remote, principals in (
        ("", ("", "tacomaproject/", "tacoma@cl2.cs.uit.no/")),
        ("tacoma://cl2.cs.uit.no/", ("/", "tacoma@cl2.cs.uit.no/")),
        ("tacoma://cl2.cs.uit.no:27017/", ("/", "tacomaproject/")))
    for principal in principals
    for agent_id in ("vm_c:933821661", "ag_cron", ":933821661")]


class TestLocal:
    @pytest.mark.parametrize("text", FIGURE_2_SHAPES)
    def test_equals_replace_without_the_remote_part(self, text):
        uri = AgentUri.parse(text)
        local = uri.local()
        expected = dataclasses.replace(uri, host=None, port=None)
        assert local == expected
        assert hash(local) == hash(expected)
        assert str(local) == str(expected)
        assert not local.is_remote
        assert local.local() is local
        if not uri.is_remote:
            assert local is uri
        with pytest.raises(dataclasses.FrozenInstanceError):
            local.host = "elsewhere"

    def test_the_paper_examples_are_all_covered(self):
        assert {"tacoma://cl2.cs.uit.no:27017//vm_c:933821661",
                "tacoma://cl2.cs.uit.no/tacoma@cl2.cs.uit.no/ag_cron",
                "tacomaproject/:933821661"} <= set(FIGURE_2_SHAPES)


# -- Message copies ----------------------------------------------------------------


def full_message(sender):
    """A message with no field left at its default."""
    values = {
        "target": AgentUri.parse("tacoma://solo.test/alice/sink:a1"),
        "briefcase": Briefcase({"X": [b"payload"]}),
        "sender": sender,
        "queue_timeout": 12.5,
        "hops": 3,
        "priority": 7,
        "trace": TraceContext("t" * 32, "s" * 16, "p" * 16, 2),
        "seq": 41,
        "seq_src": "peer.test",
        "landing_id": "landing-9",
    }
    fields = dataclasses.fields(Message)
    # A field added to Message must be added here — and to the
    # constructors in Message.with_target / Firewall._authenticate.
    assert set(values) == {field.name for field in fields}
    for field in fields:
        if field.default is not dataclasses.MISSING:
            assert values[field.name] != field.default
    return Message(**values)


def assert_same_except(copy, original, changed):
    assert copy is not original
    for field in dataclasses.fields(Message):
        if field.name != changed:
            assert getattr(copy, field.name) is \
                getattr(original, field.name), field.name


class TestMessageCopies:
    def test_with_target_keeps_every_other_field(self):
        message = full_message(SenderInfo("alice", "peer.test"))
        target = AgentUri(name="elsewhere")
        copy = message.with_target(target)
        assert copy.target is target
        assert_same_except(copy, message, "target")
        assert copy == dataclasses.replace(message, target=target)

    @pytest.mark.parametrize("claimed", [False, True])
    def test_unsigned_arrival_keeps_every_field_but_the_claim(
            self, single_cluster, claimed):
        firewall = single_cluster.node("solo.test").firewall
        sender = SenderInfo("alice", "peer.test",
                            AgentUri(name="origin", instance="b2"), claimed)
        message = full_message(sender)
        copy = firewall._authenticate(message)
        assert_same_except(copy, message, "sender")
        assert copy.sender == dataclasses.replace(sender,
                                                  authenticated=False)

    def test_signed_arrival_keeps_every_field_but_the_principal(
            self, single_cluster):
        single_cluster.add_principal("alice")
        firewall = single_cluster.node("solo.test").firewall
        sender = SenderInfo("mallory", "peer.test",
                            AgentUri(name="origin", instance="b2"))
        message = full_message(sender)
        sign_request(message.briefcase, single_cluster.keychain, "alice")
        copy = firewall._authenticate(message)
        assert_same_except(copy, message, "sender")
        assert copy.sender == SenderInfo("alice", "peer.test", sender.uri,
                                         True)


# -- Element.of ------------------------------------------------------------------------


def of_by_definition(value):
    """``Element.of`` as it read before the exact-type fast path."""
    if isinstance(value, Element):
        return value
    if isinstance(value, (bytes, bytearray, memoryview)):
        return Element(bytes(value))
    if isinstance(value, str):
        return Element(value.encode("utf-8"))
    try:
        return Element(json.dumps(value, sort_keys=True).encode("utf-8"))
    except (TypeError, ValueError) as exc:
        raise BriefcaseError("cannot encode") from exc


class TaggedBytes(bytes):
    pass


class ShoutingStr(str):
    def encode(self, *args, **kwargs):
        return str(self).upper().encode(*args, **kwargs)


ELEMENT_VALUES = [
    b"", b"raw \x00\xff", "", "text søk", TaggedBytes(b"tagged"),
    ShoutingStr("quiet"), bytearray(b"mutable"), memoryview(b"viewed"),
    memoryview(b"0123456789")[2:5], Element(b"already"),
    0, -7, 2.5, True, None, [1, "two", None], {"b": 1, "a": [2]},
]


def element_id(value):
    """``repr``, except for a memoryview, whose repr is its address."""
    if isinstance(value, memoryview):
        return f"memoryview({bytes(value)!r})"
    return repr(value)


class TestElementOf:
    @pytest.mark.parametrize("value", ELEMENT_VALUES, ids=element_id)
    def test_agrees_with_the_branch_order_it_replaced(self, value):
        element = Element.of(value)
        expected = of_by_definition(value)
        assert type(element) is Element
        assert type(element.data) is bytes
        assert element.data == expected.data
        if isinstance(value, Element):
            assert element is value

    def test_exact_bytes_are_wrapped_not_copied(self):
        payload = b"x" * 1000
        assert Element.of(payload).data is payload

    @pytest.mark.parametrize("value", [object(), {1, 2}, b"x".join],
                             ids=["object", "set", "method"])
    def test_what_json_cannot_encode_is_still_refused(self, value):
        with pytest.raises(BriefcaseError):
            of_by_definition(value)
        with pytest.raises(BriefcaseError):
            Element.of(value)

    @pytest.mark.parametrize("value", ELEMENT_VALUES, ids=element_id)
    def test_push_and_append_take_the_same_encoding(self, value):
        briefcase = Briefcase()
        briefcase.append("F", value)
        pushed = briefcase.get("F").push(value)
        expected = of_by_definition(value)
        assert [e.data for e in briefcase.get("F")] == [expected.data] * 2
        assert type(pushed.data) is bytes


# -- the whole path, in Python calls -------------------------------------------------------

#: ``codec.encode`` of a fresh four-folder briefcase plus one
#: ``Firewall.receive_wire`` of its 233 bytes, delivered to a registered
#: collector on a governed node: 52 Python calls measured on CPython
#: 3.11 (140 before the one-pass work), budget = measured + 10 %.
FRAME_CALLS_MEASURED = 52
FRAME_CALLS_BUDGET = 57


def test_one_frame_stays_within_its_call_budget():
    """``count.py_calls`` of the repo benchmark, for one frame, where CI
    runs it: a per-frame walk added back to the ingress path fails here
    in seconds, on any host, instead of in a benchmark."""
    cluster = TaxCluster()
    governor = GovernorConfig(
        queue_limits=QueueLimits(max_messages=64),
        wire_limits=WireLimits(max_encoded_bytes=65_536))
    node = cluster.add_node("target.example",
                            policy=Policy(governor=governor))
    node.driver(name="collector")
    firewall = node.firewall
    target = AgentUri(host="target.example", name="collector")
    sender = SenderInfo(principal="feeder", host="peer.example")

    def frame(index):
        briefcase = Briefcase()
        briefcase.append("ID", b"f%04d" % index)
        briefcase.append("SENT-AT", b"0.8444218515250481")
        briefcase.append("PAYLOAD", bytes(120))
        inject_seq(briefcase, "peer.example", index)
        return briefcase

    def count_calls(briefcase):
        calls = 0

        def profiler(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        previous = sys.getprofile()
        sys.setprofile(profiler)
        try:
            data = codec.encode(briefcase)
            accepted = firewall.receive_wire(data, target, sender)
        finally:
            sys.setprofile(previous)
        assert accepted and 180 <= len(data) <= 260
        return calls

    count_calls(frame(1))       # first use of every lazy path
    calls = count_calls(frame(2))
    assert firewall.stats.delivered == 2
    assert calls <= FRAME_CALLS_BUDGET, (
        f"{calls} Python calls for one frame; {FRAME_CALLS_MEASURED} "
        f"when the budget of {FRAME_CALLS_BUDGET} was set")


#: Frames inside ``repro/obs/metrics.py`` for one ``ctx.send`` across a
#: link to a governed host, admitted and delivered, telemetry on: the
#: thirteen series the send writes (three of the link, two of the
#: forwarding firewall, five of the receiving one, one of the sending
#: agent, the kernel's two), each through an object its owner holds.
#: 38 when every write was ``registry.inc(name, **labels)``.
SEND_METRIC_FRAMES = 13
SEND_METRIC_FRAMES_BEFORE = 38


def test_one_governed_send_writes_each_series_in_one_frame():
    cluster = TaxCluster()
    cluster.telemetry.enable()
    governor = GovernorConfig(
        queue_limits=QueueLimits(max_messages=64),
        wire_limits=WireLimits(max_encoded_bytes=65_536))
    cluster.add_node("target.example",
                     policy=Policy(governor=governor)).driver(
                         name="collector")
    sender = cluster.add_node("source.example").driver(name="feeder")
    cluster.network.link("source.example", "target.example")
    target = AgentUri(host="target.example", name="collector")
    delivered = cluster.telemetry.metrics.counter("fw.delivered").labels(
        host="target.example")

    def send():
        briefcase = Briefcase()
        briefcase.append("PAYLOAD", bytes(120))
        assert cluster.kernel.run_process(sender.send(target, briefcase))

    send()                      # first use: every series is resolved
    calls = count_frames(send)
    assert delivered.value == 2
    assert calls <= SEND_METRIC_FRAMES <= SEND_METRIC_FRAMES_BEFORE // 2, (
        f"{calls} frames in obs/metrics.py for one send")


#: Frames inside ``repro/sim/eventloop.py`` for one ``PendingQueue.park``:
#: none when the queue's armed deadline already covers the new message
#: (the clock is read as a field), and ``Kernel.timeout`` ->
#: ``Timeout.__init__`` plus ``add_callback`` when the park arms the
#: timer.  A ``queue-ttl:*`` watcher per message was 8 for its spawn and
#: another 19 before it slept on its timeout.
PARK_KERNEL_FRAMES = 0
PARK_ARMING_KERNEL_FRAMES = 3


@pytest.mark.parametrize("telemetry", [False, True],
                         ids=["telemetry-off", "telemetry-on"])
def test_a_park_spends_kernel_frames_only_to_arm_the_timer(telemetry):
    from repro.firewall.msgqueue import PendingQueue
    from repro.obs.telemetry import Telemetry
    from repro.sim.eventloop import Kernel

    kernel = Kernel(telemetry=Telemetry(enabled=False))
    queue = PendingQueue(kernel, host="h")
    sender = SenderInfo(principal="p", host="h")

    def park(ttl):
        message = Message(target=AgentUri.parse("absent"),
                          briefcase=Briefcase(), sender=sender,
                          queue_timeout=ttl)
        return count_kernel_frames(lambda: queue.park(message, wire_bytes=8))

    if telemetry:
        # Metrics and the queue's gauges on; the span tracer stays off —
        # an open span reads the clock through the kernel, one frame.
        kernel.telemetry.enable()
        kernel.telemetry.tracer.enabled = False
    assert park(30.0) <= PARK_ARMING_KERNEL_FRAMES     # empty queue: arms
    assert park(30.0) == PARK_KERNEL_FRAMES
    assert park(60.0) == PARK_KERNEL_FRAMES
    assert park(5.0) <= PARK_ARMING_KERNEL_FRAMES      # earlier: re-arms
    assert park(5.0) == PARK_KERNEL_FRAMES
    assert len(queue) == 5 and len(kernel._heap) == 2
