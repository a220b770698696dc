"""Seeded round-trip fuzzing of the hardened briefcase codec.

The acceptance bar for the wire-hardening work: **no** decoder input may
crash a firewall or VM with an untyped exception.  Every buffer — valid,
bit-flipped, truncated, extended, or pure noise — must either decode to
a briefcase or raise a :class:`~repro.core.errors.CodecError` subclass.
``IndexError``/``KeyError``/``struct.error``/``UnicodeDecodeError``/
``MemoryError`` escaping ``decode`` is a bug, full stop.

Everything is seeded through :class:`~repro.sim.rng.RandomStream`, so a
failing case reproduces by seed.
"""

import struct

import pytest

from repro.core import codec, wellknown
from repro.core.briefcase import Briefcase
from repro.core.errors import CodecError, MalformedBriefcaseError
from repro.core.limits import WireLimits
from repro.sim.rng import RandomStream
from tests.oracles.codec import (
    differential_arrival,
    differential_decode,
    reference_decode,
    reference_wire_values,
)

#: Exceptions the decoder must never leak.
FORBIDDEN = (IndexError, KeyError, struct.error, UnicodeDecodeError,
             MemoryError, OverflowError)


def random_briefcase(rng: RandomStream) -> Briefcase:
    briefcase = Briefcase()
    for f in range(rng.randint(0, 5)):
        folder = briefcase.folder(f"F{f}-{rng.randint(0, 999)}")
        for _ in range(rng.randint(0, 4)):
            folder.push(bytes(rng.randint(0, 255)
                              for _ in range(rng.randint(0, 64))))
    return briefcase


def try_decode(data: bytes):
    """Decode; typed codec errors are fine, anything else is the bug —
    and so is the product decoder parting from the reference oracle
    (a different briefcase, error type or message), plain or as an
    arrival that strips the wire-only folders."""
    try:
        status, briefcase, *_ = differential_decode(data)
        differential_arrival(data)
    except FORBIDDEN as exc:  # pragma: no cover - the failure we hunt
        pytest.fail(f"decode leaked {type(exc).__name__}: {exc}")
    return briefcase if status == "ok" else None


def wire_image(folders) -> bytes:
    """A wire image built by hand from ``(name, [payload, ...])`` pairs,
    so that a name may repeat."""
    parts = [codec.MAGIC, bytes([codec.VERSION]),
             struct.pack(">I", len(folders))]
    for name, elements in folders:
        raw = name.encode("utf-8")
        parts += [struct.pack(">H", len(raw)), raw,
                  struct.pack(">I", len(elements))]
        for element in elements:
            parts += [struct.pack(">I", len(element)), element]
    return b"".join(parts)


class TestMutationFuzz:
    def test_single_byte_flips_never_crash(self):
        rng = RandomStream(42, name="fuzz/flip")
        for round_no in range(40):
            original = random_briefcase(rng)
            wire = bytearray(codec.encode(original))
            if not wire:
                continue
            pos = rng.randint(0, len(wire) - 1)
            wire[pos] ^= 1 << rng.randint(0, 7)
            decoded = try_decode(bytes(wire))
            if decoded is not None:
                # A surviving mutation must still re-encode cleanly.
                codec.encode(decoded)

    def test_truncations_never_crash(self):
        rng = RandomStream(43, name="fuzz/truncate")
        original = random_briefcase(rng)
        wire = codec.encode(original)
        for cut in range(len(wire)):
            decoded = try_decode(wire[:cut])
            # A strict prefix can never be a complete briefcase.
            assert decoded is None or cut == len(wire)

    def test_trailing_garbage_rejected(self):
        rng = RandomStream(44, name="fuzz/trailing")
        wire = codec.encode(random_briefcase(rng))
        with pytest.raises(MalformedBriefcaseError, match="trailing"):
            codec.decode(wire + b"\x00")

    def test_random_noise_never_crashes(self):
        rng = RandomStream(45, name="fuzz/noise")
        for _ in range(60):
            blob = bytes(rng.randint(0, 255)
                         for _ in range(rng.randint(0, 128)))
            try_decode(blob)

    def test_noise_behind_valid_magic_never_crashes(self):
        rng = RandomStream(46, name="fuzz/magic")
        for _ in range(60):
            blob = codec.MAGIC + bytes([codec.VERSION]) + bytes(
                rng.randint(0, 255) for _ in range(rng.randint(0, 96)))
            try_decode(blob)

    def test_clean_round_trip_still_holds(self):
        rng = RandomStream(47, name="fuzz/clean")
        for _ in range(25):
            original = random_briefcase(rng)
            assert codec.decode(codec.encode(original)) == original


RESERVED = sorted(wellknown.WIRE_ONLY_FOLDERS)

#: Folders an arrival keeps, around which the wire-only ones are placed.
PLAIN = [("ID", [b"f0001"]), ("PAYLOAD", [bytes(40), b"x"]),
         ("EMPTY", [])]

#: A well-formed text for each wire-only folder.
WIRE_TEXTS = {
    wellknown.TRACE_CONTEXT: b"00-t00000001-s00000002---01",
    wellknown.DELIVERY_SEQ: b"7 peer.test",
    wellknown.LANDING_ID: b"peer.test:1:7",
}


class TestArrivalStrip:
    """``codec.decode_arrival`` against the reference decoder followed by
    the pops it replaced: the same briefcase, the same split-off element
    lists, the same error, and an exact cached size."""

    def test_every_wire_only_folder_at_every_position(self):
        for name in RESERVED:
            for at in range(len(PLAIN) + 1):
                folders = PLAIN[:at] + [(name, [WIRE_TEXTS[name]])] + \
                    PLAIN[at:]
                status, briefcase, wire_only = \
                    differential_arrival(wire_image(folders))
                assert wire_only == {name: [WIRE_TEXTS[name]]}
                assert briefcase.names() == [n for n, _ in PLAIN]

    def test_all_three_in_any_order_among_the_rest(self):
        for shift in range(len(RESERVED)):
            order = RESERVED[shift:] + RESERVED[:shift]
            folders = list(PLAIN)
            for step, name in enumerate(order):
                folders.insert(2 * step, (name, [WIRE_TEXTS[name]]))
            status, briefcase, wire_only = \
                differential_arrival(wire_image(folders))
            assert wire_only == {name: [WIRE_TEXTS[name]]
                                 for name in RESERVED}

    @pytest.mark.parametrize("name", RESERVED)
    @pytest.mark.parametrize("elements", [[], [b"\xff\xfe"],
                                          [b"", b"second"]],
                             ids=["empty", "not-utf8", "empty-text"])
    def test_odd_contents_are_split_off_as_they_are(self, name, elements):
        folders = PLAIN + [(name, elements)]
        status, briefcase, wire_only = \
            differential_arrival(wire_image(folders))
        assert wire_only == {name: elements}

    @pytest.mark.parametrize("name", RESERVED)
    def test_a_repeated_wire_only_folder_is_malformed(self, name):
        folders = [(name, [WIRE_TEXTS[name]])] + PLAIN + \
            [(name, [WIRE_TEXTS[name]])]
        outcome = differential_arrival(wire_image(folders))
        assert outcome == ("err", MalformedBriefcaseError,
                           f"duplicate folder {name!r} on the wire")

    def test_wire_only_folders_count_towards_every_cap(self):
        folders = PLAIN + [(wellknown.DELIVERY_SEQ, [b"7 peer.test"] * 3)]
        data = wire_image(folders)
        for limits in (WireLimits(max_folders=3),
                       WireLimits(max_elements_per_folder=2),
                       WireLimits(max_total_elements=5),
                       WireLimits(max_encoded_bytes=len(data) - 1)):
            assert differential_arrival(data, limits)[0] == "err"

    def test_memoryview_input(self):
        data = wire_image(PLAIN[:1] + [(wellknown.LANDING_ID,
                                        [b"peer.test:1:7"])] + PLAIN[1:])
        padded = b"\x00" * 7 + data + b"\x00" * 5
        for view in (memoryview(data),
                     memoryview(padded)[7:7 + len(data)]):
            status, briefcase, wire_only = differential_arrival(view)
            assert wire_only == {wellknown.LANDING_ID: [b"peer.test:1:7"]}
            assert all(type(element) is bytes
                       for element in wire_only[wellknown.LANDING_ID])

    def test_flips_and_cuts_around_wire_only_folders(self):
        rng = RandomStream(48, name="fuzz/arrival")
        wire = wire_image([(wellknown.TRACE_CONTEXT,
                            [WIRE_TEXTS[wellknown.TRACE_CONTEXT]])] +
                          PLAIN +
                          [(wellknown.DELIVERY_SEQ,
                            [WIRE_TEXTS[wellknown.DELIVERY_SEQ]]),
                           (wellknown.LANDING_ID,
                            [WIRE_TEXTS[wellknown.LANDING_ID]])])
        for cut in range(len(wire)):
            try_decode(wire[:cut])
        for _ in range(200):
            flipped = bytearray(wire)
            flipped[rng.randint(0, len(wire) - 1)] ^= 1 << rng.randint(0, 7)
            try_decode(bytes(flipped))


class TestArrivalValues:
    """What ``receive_wire`` puts on the envelope equals what the three
    pops read off a fully decoded briefcase."""

    CASES = [
        {},
        {wellknown.DELIVERY_SEQ: [b"12 peer.test"]},
        {wellknown.DELIVERY_SEQ: [b"12"]},
        {wellknown.DELIVERY_SEQ: [b"x peer.test"]},
        {wellknown.DELIVERY_SEQ: [b"12 "]},
        {wellknown.DELIVERY_SEQ: [b""]},
        {wellknown.DELIVERY_SEQ: []},
        {wellknown.DELIVERY_SEQ: [b"\xff 12"]},
        {wellknown.LANDING_ID: [b"h:1:7"]},
        {wellknown.LANDING_ID: [b""]},
        {wellknown.LANDING_ID: [b"\xfe"]},
        {wellknown.TRACE_CONTEXT: [WIRE_TEXTS[wellknown.TRACE_CONTEXT]]},
        {wellknown.TRACE_CONTEXT: [b"not-a-header"]},
        {wellknown.TRACE_CONTEXT: [b"\xff"]},
        {wellknown.TRACE_CONTEXT: []},
        dict((name, [WIRE_TEXTS[name]]) for name in RESERVED),
    ]

    @pytest.mark.parametrize("case", CASES, ids=lambda case: "+".join(
        f"{name}={elements!r}" for name, elements in case.items()) or
        "none")
    def test_the_envelope_carries_what_the_pops_read(self, case):
        from repro.firewall.message import SenderInfo
        from repro.obs.telemetry import Telemetry
        from repro.system.cluster import TaxCluster
        data = wire_image(PLAIN + list(case.items()))
        cluster = TaxCluster(telemetry=Telemetry(enabled=True))
        firewall = cluster.add_node("solo.test").firewall
        seen = []
        registration = firewall.register_agent(
            name="probe", principal="system", vm_name="vm_python",
            deliver_fn=lambda message: (seen.append(message), True)[1])
        target = firewall.uri_for(registration).local()
        assert firewall.receive_wire(data, target, SenderInfo(
            principal="peer", host="peer.test")) is True
        message, = seen
        reference = reference_decode(data)
        assert (message.trace, message.seq_src, message.seq,
                message.landing_id) == reference_wire_values(reference)
        assert message.briefcase == reference


class TestHostileAllocations:
    """Length fields promising absurd allocations must be rejected
    *before* any allocation happens (the anti-billion-laughs check)."""

    def test_huge_folder_count(self):
        blob = codec.MAGIC + bytes([codec.VERSION]) + \
            (0xFFFFFFFF).to_bytes(4, "big")
        with pytest.raises(MalformedBriefcaseError, match="folder count"):
            codec.decode(blob)

    def test_huge_element_count(self):
        briefcase = Briefcase()
        briefcase.folder("F").push(b"x")
        wire = bytearray(codec.encode(briefcase))
        # Element count sits right after the 1-char folder name.
        offset = len(codec.MAGIC) + 1 + 4 + 2 + 1
        wire[offset:offset + 4] = (0xFFFFFFFF).to_bytes(4, "big")
        with pytest.raises(MalformedBriefcaseError, match="element count"):
            codec.decode(bytes(wire))

    def test_element_size_beyond_buffer(self):
        briefcase = Briefcase()
        briefcase.folder("F").push(b"x")
        wire = bytearray(codec.encode(briefcase))
        wire[-5:-1] = (10_000).to_bytes(4, "big")  # size prefix of "x"
        with pytest.raises(MalformedBriefcaseError, match="truncated"):
            codec.decode(bytes(wire))

    def test_tight_limits_cap_good_input(self):
        briefcase = Briefcase()
        briefcase.folder("F").push(b"y" * 500)
        wire = codec.encode(briefcase)
        with pytest.raises(CodecError):
            codec.decode(wire, limits=WireLimits(max_encoded_bytes=100))
        # And None disables the cap again.
        assert codec.decode(wire, limits=None) == briefcase


class TestWireDeliveryFaults:
    """The partition fault kinds, replayed at the rawest layer: frames
    handed straight to :meth:`Firewall.receive_wire` duplicated,
    reordered, and bit-flipped.  Nothing may crash; duplicates must be
    suppressed, reorderings accepted, and corruption quarantined."""

    def _sink(self, cluster):
        firewall = cluster.node("solo.test").firewall
        from repro.core.uri import AgentUri
        registration = firewall.register_agent(
            name="sink", principal="system", vm_name="vm_python",
            deliver_fn=lambda message: True)
        return firewall, firewall.uri_for(registration).local()

    def _frame(self, seq, body=b"payload"):
        from repro.firewall.dedup import inject_seq
        briefcase = Briefcase()
        briefcase.folder("BODY").push(body)
        inject_seq(briefcase, "peer.test", seq)
        return codec.encode(briefcase)

    def _sender(self):
        from repro.firewall.message import SenderInfo
        return SenderInfo(principal="peer", host="peer.test")

    def test_duplicated_frames_are_acked_not_redelivered(
            self, single_cluster):
        firewall, target = self._sink(single_cluster)
        frame = self._frame(seq=1)
        assert firewall.receive_wire(frame, target, self._sender()) is True
        # The replay is acknowledged (the sender's retry loop settles)
        # but never reaches the agent a second time.
        assert firewall.receive_wire(frame, target, self._sender()) is True
        assert firewall.dedup.accepted == 1
        assert firewall.dedup.duplicates == 1
        assert firewall.dedup.conservation_holds()

    def test_reordered_frames_all_accepted(self, single_cluster):
        firewall, target = self._sink(single_cluster)
        for seq in (3, 1, 2):
            frame = self._frame(seq, body=b"m%d" % seq)
            assert firewall.receive_wire(
                frame, target, self._sender()) is True
        assert firewall.dedup.accepted == 3
        assert firewall.dedup.duplicates == 0
        assert firewall.dedup.conservation_holds()

    def test_bit_flipped_frames_never_crash(self, single_cluster):
        firewall, target = self._sink(single_cluster)
        rng = RandomStream(7, name="fuzz/wire-flip")
        quarantined = 0
        for seq in range(1, 41):
            wire = bytearray(self._frame(seq))
            pos = rng.randint(0, len(wire) - 1)
            wire[pos] ^= 1 << rng.randint(0, 7)
            try:
                ok = firewall.receive_wire(bytes(wire), target,
                                           self._sender())
            except FORBIDDEN as exc:  # pragma: no cover
                pytest.fail(f"receive_wire leaked "
                            f"{type(exc).__name__}: {exc}")
            if not ok:
                quarantined += 1
        assert len(firewall.quarantine) == quarantined
        assert firewall.dedup.conservation_holds()

    @pytest.mark.parametrize("signature", [b"pe\x01r:ab", b"\xff:ab"])
    def test_unreadable_signature_leaves_the_sequence_fresh(
            self, single_cluster, signature):
        """A frame whose SIGNATURE names no valid principal, or is not
        text, is refused without claiming its sequence: the genuine
        frame with the same sequence still reaches the agent."""
        from repro.core import wellknown
        from repro.firewall.dedup import inject_seq
        firewall = single_cluster.node("solo.test").firewall
        seen = []
        registration = firewall.register_agent(
            name="probe", principal="system", vm_name="vm_python",
            deliver_fn=lambda message: (seen.append(message), True)[1])
        target = firewall.uri_for(registration).local()
        forged = Briefcase()
        forged.folder("BODY").push(b"payload")
        forged.folder(wellknown.SIGNATURE).push(signature)
        inject_seq(forged, "peer.test", 1)
        assert firewall.receive_wire(codec.encode(forged), target,
                                     self._sender()) is False
        assert firewall.receive_wire(self._frame(seq=1), target,
                                     self._sender()) is True
        assert len(seen) == 1
        assert firewall.dedup.conservation_holds()

    def test_flipped_go_transports_never_leak_a_landing(self):
        """Sampled single-bit flips of one wrapped ``go`` transport
        (monitor and checkpoint wrappers, a carried retry policy), each
        fed through ``receive_wire`` into a real vm_python.  Whatever a
        flip hits, the frame is quarantined, refused, or launched: no
        call raises untyped, no process dies of anything but a
        ``TaxError`` or ``Interrupt``, and no landing slot stays
        pending once the world drains."""
        from repro.chaos.harness import (
            CHAOS_PRINCIPAL, CHAOS_RETRY, HOME_HOST, build_chaos_cluster,
            build_survey_program)
        from repro.core import wellknown
        from repro.core.errors import TaxError
        from repro.core.retry import install_retry
        from repro.core.uri import AgentUri
        from repro.firewall.dedup import inject_landing, inject_seq
        from repro.firewall.message import SenderInfo
        from repro.sim.errors import Interrupt
        from repro.wrappers.fault import CheckpointWrapper
        from repro.wrappers.mobility import (
            CURRENT_STOP, ITINERARY, make_task_briefcase)
        from repro.wrappers.monitor import MonitorWrapper
        from repro.wrappers.stack import WrapperSpec, install_wrappers

        cluster, (worker,) = build_chaos_cluster(1)
        home = cluster.node(HOME_HOST).driver(
            name="home", principal=CHAOS_PRINCIPAL)
        vm = cluster.vm_uri(worker)
        transport = make_task_briefcase(
            build_survey_program(cluster.keychain),
            [{"vm": str(vm), "args": {"site": worker, "work": 0.1}}],
            home_uri=str(home.uri), agent_name="survey")
        # As the agent's go() leaves home: its stop taken, wrapped.
        transport.put(CURRENT_STOP,
                      transport.folder(ITINERARY).pop_first().as_json())
        install_wrappers(transport, [
            WrapperSpec.by_ref(MonitorWrapper, {
                "monitor": str(home.uri), "tag": "survey",
                "heartbeat": 0.5}),
            WrapperSpec.by_ref(CheckpointWrapper, {
                "cabinet": str(AgentUri(host=HOME_HOST,
                                        name="ag_cabinet")),
                "drawer": "survey"}),
        ])
        install_retry(transport, CHAOS_RETRY, seed=7)
        transport.put(wellknown.REPLY_TO, str(home.uri))
        transport.put(wellknown.MEET_TOKEN, "go-1")
        sender = SenderInfo(principal=CHAOS_PRINCIPAL, host=HOME_HOST)
        firewall = cluster.node(worker).firewall
        kernel = cluster.kernel
        rng = RandomStream(37, name="fuzz/go-flip")
        try:
            for seq in range(1, 161):
                frame = transport.snapshot()
                inject_seq(frame, "home.test", seq)
                inject_landing(frame, f"home.test:1:{seq}")
                wire = bytearray(codec.encode(frame))
                wire[rng.randint(0, len(wire) - 1)] ^= \
                    1 << rng.randint(0, 7)
                try:
                    firewall.receive_wire(bytes(wire), vm, sender)
                except TaxError:
                    pass
                kernel.run(until=kernel.now + 20.0)
                assert firewall.landings.snapshot()["pending_now"] == 0, \
                    f"flip {seq} leaked a landing slot"
            untyped = [(p.name, repr(p._exception)) for p in kernel._failed
                       if not isinstance(p._exception,
                                         (TaxError, Interrupt))]
            assert untyped == []
        finally:
            cluster.close()

    def test_wire_folders_never_reach_the_agent(self, single_cluster):
        """DELIVERY-SEQ is wire-only: the dispatched briefcase must not
        carry it (it would otherwise ride along on the next hop)."""
        from repro.core import wellknown
        firewall = single_cluster.node("solo.test").firewall
        seen = []
        registration = firewall.register_agent(
            name="probe", principal="system", vm_name="vm_python",
            deliver_fn=lambda message: (seen.append(message), True)[1])
        target = firewall.uri_for(registration).local()
        assert firewall.receive_wire(self._frame(seq=1), target,
                                     self._sender()) is True
        assert len(seen) == 1
        assert not seen[0].briefcase.has(wellknown.DELIVERY_SEQ)
        assert seen[0].seq == 1 and seen[0].seq_src == "peer.test"
