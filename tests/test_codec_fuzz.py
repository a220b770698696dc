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

from repro.core import codec
from repro.core.briefcase import Briefcase
from repro.core.errors import CodecError, MalformedBriefcaseError
from repro.core.limits import WireLimits
from repro.sim.rng import RandomStream
from tests.oracles.codec import differential_decode

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
    (a different briefcase, error type or message)."""
    try:
        status, briefcase, *_ = differential_decode(data)
    except FORBIDDEN as exc:  # pragma: no cover - the failure we hunt
        pytest.fail(f"decode leaked {type(exc).__name__}: {exc}")
    return briefcase if status == "ok" else None


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
