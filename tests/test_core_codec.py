"""Unit tests for the briefcase wire codec."""

import pytest

from repro.core import codec
from repro.core.briefcase import Briefcase
from repro.core.errors import CodecError
from tests.oracles.codec import reference_decode


def sample() -> Briefcase:
    return Briefcase({
        "HOSTS": ["tacoma://a/vm", "tacoma://b/vm"],
        "DATA": [b"\x00\x01\x02", b""],
        "EMPTY": [],
    })


class TestRoundTrip:
    def test_basic_round_trip(self):
        briefcase = sample()
        assert codec.decode(codec.encode(briefcase)) == briefcase

    def test_empty_briefcase(self):
        assert codec.decode(codec.encode(Briefcase())) == Briefcase()

    def test_empty_elements_survive(self):
        briefcase = Briefcase({"F": [b"", b"", b"x"]})
        decoded = codec.decode(codec.encode(briefcase))
        assert [e.data for e in decoded.get("F")] == [b"", b"", b"x"]

    def test_unicode_folder_names(self):
        briefcase = Briefcase({"FÖLDER-名": ["v"]})
        assert codec.decode(codec.encode(briefcase)) == briefcase

    def test_binary_payloads(self):
        blob = bytes(range(256)) * 4
        briefcase = Briefcase({"BIN": [blob]})
        assert codec.decode(
            codec.encode(briefcase)).get("BIN")[0].data == blob

    def test_encode_is_deterministic(self):
        assert codec.encode(sample()) == codec.encode(sample())

    def test_reencode_is_byte_identical(self):
        wire = codec.encode(sample())
        assert codec.encode(codec.decode(wire)) == wire


class TestSizeAccounting:
    def test_encoded_size_matches_encoding(self):
        briefcase = sample()
        assert codec.encoded_size(briefcase) == len(codec.encode(briefcase))

    def test_size_grows_with_payload(self):
        small = Briefcase({"F": [b"x"]})
        large = Briefcase({"F": [b"x" * 1000]})
        assert codec.encoded_size(large) == \
            codec.encoded_size(small) + 999

    def test_dropping_a_folder_shrinks_the_wire(self):
        briefcase = sample()
        before = codec.encoded_size(briefcase)
        briefcase.drop("DATA")
        assert codec.encoded_size(briefcase) < before


class TestMalformedInput:
    def test_bad_magic(self):
        with pytest.raises(CodecError, match="magic"):
            codec.decode(b"NOPE" + codec.encode(Briefcase())[4:])

    def test_bad_version(self):
        wire = bytearray(codec.encode(Briefcase()))
        wire[4] = 99
        with pytest.raises(CodecError, match="version"):
            codec.decode(bytes(wire))

    def test_truncated_buffer(self):
        wire = codec.encode(sample())
        with pytest.raises(CodecError, match="truncated"):
            codec.decode(wire[:len(wire) // 2])

    def test_trailing_garbage(self):
        with pytest.raises(CodecError, match="trailing"):
            codec.decode(codec.encode(sample()) + b"junk")

    def test_empty_input(self):
        with pytest.raises(CodecError):
            codec.decode(b"")

    def test_duplicate_folder_rejected(self):
        # Hand-craft a wire image with the same folder twice.
        import struct
        name = b"F"
        folder = struct.pack(">H", 1) + name + struct.pack(">I", 0)
        wire = (codec.MAGIC + struct.pack(">B", codec.VERSION) +
                struct.pack(">I", 2) + folder + folder)
        with pytest.raises(CodecError, match="duplicate"):
            codec.decode(wire)

    def test_empty_folder_name_rejected(self):
        import struct
        folder = struct.pack(">H", 0) + struct.pack(">I", 0)
        wire = (codec.MAGIC + struct.pack(">B", codec.VERSION) +
                struct.pack(">I", 1) + folder)
        with pytest.raises(CodecError, match="empty folder name"):
            codec.decode(wire)

    def test_implausible_folder_count_rejected(self):
        import struct
        wire = (codec.MAGIC + struct.pack(">B", codec.VERSION) +
                struct.pack(">I", codec.MAX_FOLDERS + 1))
        with pytest.raises(CodecError, match="implausible"):
            codec.decode(wire)

    def test_non_utf8_folder_name_rejected(self):
        import struct
        folder = struct.pack(">H", 2) + b"\xff\xfe" + struct.pack(">I", 0)
        wire = (codec.MAGIC + struct.pack(">B", codec.VERSION) +
                struct.pack(">I", 1) + folder)
        with pytest.raises(CodecError, match="UTF-8"):
            codec.decode(wire)

    def test_overlong_folder_name_rejected_on_encode(self):
        briefcase = Briefcase({"x" * 70_000: ["v"]})
        with pytest.raises(CodecError, match="too long"):
            codec.encode(briefcase)


class TestDecodeLimitsNone:
    """``decode(data, limits=None)`` must disable every configured cap.

    Regression: the docstring always promised this, but decode kept
    enforcing the module-level MAX_FOLDERS / MAX_ELEMENTS /
    MAX_ELEMENT_BYTES plausibility caps.  With ``limits=None`` the only
    checks left are well-formedness (declared counts must fit the bytes
    actually present) and the absolute ``ABSOLUTE_MAX_WIRE_BYTES``
    buffer backstop.
    """

    def test_accepts_what_configured_limits_reject(self):
        from repro.core.limits import WireLimits

        briefcase = Briefcase({"BULK": [b"x"] * 50})
        wire = codec.encode(briefcase)
        tight = WireLimits(max_total_elements=10)
        with pytest.raises(CodecError):
            codec.decode(wire, limits=tight)
        assert codec.decode(wire, limits=None) == briefcase

    def test_accepts_element_larger_than_configured_cap(self):
        from repro.core.limits import WireLimits

        briefcase = Briefcase({"BLOB": [b"\xab" * 4096]})
        wire = codec.encode(briefcase)
        tight = WireLimits(max_element_bytes=1024)
        with pytest.raises(CodecError):
            codec.decode(wire, limits=tight)
        assert codec.decode(wire, limits=None) == briefcase

    def test_accepts_more_folders_than_configured_cap(self):
        from repro.core.limits import WireLimits

        briefcase = Briefcase({f"F{i:03d}": [b"v"] for i in range(40)})
        wire = codec.encode(briefcase)
        tight = WireLimits(max_folders=8)
        with pytest.raises(CodecError):
            codec.decode(wire, limits=tight)
        assert codec.decode(wire, limits=None) == briefcase

    def test_accepts_buffer_over_configured_encoded_bytes(self):
        from repro.core.limits import WireLimits

        briefcase = Briefcase({"DATA": [b"z" * 2000]})
        wire = codec.encode(briefcase)
        tight = WireLimits(max_encoded_bytes=100)
        with pytest.raises(CodecError, match="limit 100"):
            codec.decode(wire, limits=tight)
        assert codec.decode(wire, limits=None) == briefcase

    def test_wellformedness_still_enforced(self):
        import struct

        # Declared folder count far beyond what the buffer could hold.
        wire = (codec.MAGIC + struct.pack(">B", codec.VERSION) +
                struct.pack(">I", 1_000_000))
        with pytest.raises(CodecError, match="implausible folder count"):
            codec.decode(wire, limits=None)

    def test_truncated_element_still_rejected(self):
        import struct

        folder = (struct.pack(">H", 1) + b"F" + struct.pack(">I", 1) +
                  struct.pack(">I", 500) + b"short")
        wire = (codec.MAGIC + struct.pack(">B", codec.VERSION) +
                struct.pack(">I", 1) + folder)
        with pytest.raises(CodecError, match="truncated|implausible"):
            codec.decode(wire, limits=None)

    def test_absolute_backstop_boundary(self, monkeypatch):
        briefcase = Briefcase({"F": [b"payload"]})
        wire = codec.encode(briefcase)
        # Exactly at the backstop: accepted.
        monkeypatch.setattr(codec, "ABSOLUTE_MAX_WIRE_BYTES", len(wire))
        assert codec.decode(wire, limits=None) == briefcase
        # One byte over: rejected outright, before any parsing.
        monkeypatch.setattr(codec, "ABSOLUTE_MAX_WIRE_BYTES", len(wire) - 1)
        with pytest.raises(codec.BriefcaseTooLargeError,
                           match="absolute backstop"):
            codec.decode(wire, limits=None)

    def test_backstop_does_not_apply_with_configured_limits(self, monkeypatch):
        from repro.core.limits import WireLimits

        briefcase = Briefcase({"F": [b"payload"]})
        wire = codec.encode(briefcase)
        monkeypatch.setattr(codec, "ABSOLUTE_MAX_WIRE_BYTES", 1)
        # Configured limits govern instead of the backstop.
        assert codec.decode(
            wire, limits=WireLimits(max_encoded_bytes=len(wire))) == briefcase

    def test_both_decoders_honour_limits_none(self):
        briefcase = Briefcase({"BULK": [b"x"] * 50})
        wire = codec.encode(briefcase)
        reference = reference_decode(wire, limits=None)
        fast = codec.decode(wire, limits=None)
        assert reference == fast == briefcase


class TestCodecGuards:
    def test_implausible_element_count(self):
        import struct
        folder = (struct.pack(">H", 1) + b"F" +
                  struct.pack(">I", codec.MAX_ELEMENTS + 1))
        wire = (codec.MAGIC + struct.pack(">B", codec.VERSION) +
                struct.pack(">I", 1) + folder)
        with pytest.raises(CodecError, match="implausible element count"):
            codec.decode(wire)
