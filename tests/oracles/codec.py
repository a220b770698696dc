"""The reference briefcase decoder: the readable specification
:func:`repro.core.codec.decode` is tested against.

``_Reader`` and ``_decode_reference`` are the original cursor-based
decoder, moved here unchanged from ``repro.core.codec``.
:func:`reference_decode` runs it behind ``codec.decode``'s own front
door (the buffer-size checks and the resolved caps), so product and
oracle differ only in the parser; :func:`differential_decode` is the
comparison every decoder test goes through.

:func:`reference_arrival` is ``codec.decode_arrival`` as it used to be
done: the whole briefcase decoded, then each wire-only folder popped
off it again.
"""

import struct
from typing import Dict, List, Optional, Tuple
from unittest import mock

from repro.core import codec, wellknown
from repro.core.briefcase import Briefcase
from repro.core.codec import MAGIC, VERSION, Buffer
from repro.core.errors import CodecError, MalformedBriefcaseError
from repro.core.limits import DEFAULT_WIRE_LIMITS, WireLimits
from repro.core.wellknown import WIRE_ONLY_FOLDERS
from repro.obs.propagation import TraceContext

# The oracle reads the format's integers with its own structs, not the
# product's.
_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")


class _Reader:
    """Cursor over a bytes buffer with bounds checking.

    Every short read raises the typed
    :class:`~repro.core.errors.MalformedBriefcaseError` with offset
    context instead of surfacing as a bare slice/struct error.
    """

    def __init__(self, data: Buffer) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if n < 0 or self.pos + n > len(self.data):
            raise MalformedBriefcaseError(
                f"truncated briefcase: wanted {n} bytes at offset {self.pos}, "
                f"buffer has {len(self.data)}")
        chunk = bytes(self.data[self.pos:self.pos + n])
        self.pos += n
        return chunk

    def u8(self) -> int:
        return int(_U8.unpack(self.take(_U8.size))[0])

    def u16(self) -> int:
        return int(_U16.unpack(self.take(_U16.size))[0])

    def u32(self) -> int:
        return int(_U32.unpack(self.take(_U32.size))[0])

    @property
    def remaining(self) -> int:
        return len(self.data) - self.pos

    @property
    def exhausted(self) -> bool:
        return self.pos == len(self.data)


def _decode_reference(data: Buffer,
                      caps: Tuple[int, int, int, int]) -> Briefcase:
    """The original cursor-based decoder.  ``codec._decode_fast`` must
    behave identically (differentially fuzzed and property-tested)."""
    max_folders, max_per_folder, max_total, max_element = caps
    reader = _Reader(data)
    if reader.take(len(MAGIC)) != MAGIC:
        raise MalformedBriefcaseError("bad magic: not a TAX briefcase")
    version = reader.u8()
    if version != VERSION:
        raise MalformedBriefcaseError(
            f"unsupported briefcase format version {version}")
    folder_count = reader.u32()
    if folder_count > max_folders:
        raise MalformedBriefcaseError(
            f"implausible folder count {folder_count}")
    briefcase = Briefcase()
    total_elements = 0
    for _ in range(folder_count):
        name_len = reader.u16()
        try:
            name = reader.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedBriefcaseError(
                "folder name is not valid UTF-8") from exc
        if not name:
            raise MalformedBriefcaseError("empty folder name on the wire")
        if briefcase.has(name):
            raise MalformedBriefcaseError(
                f"duplicate folder {name!r} on the wire")
        element_count = reader.u32()
        if element_count > max_per_folder:
            raise MalformedBriefcaseError(
                f"implausible element count {element_count}")
        total_elements += element_count
        if total_elements > max_total:
            raise MalformedBriefcaseError(
                f"implausible total element count {total_elements}")
        folder = briefcase.folder(name)
        for _ in range(element_count):
            size = reader.u32()
            if size > max_element:
                raise MalformedBriefcaseError(
                    f"implausible element size {size}")
            if size > reader.remaining:
                raise MalformedBriefcaseError(
                    f"truncated briefcase: declared element size {size} "
                    f"exceeds the {reader.remaining} bytes left")
            folder.push(reader.take(size))
    if not reader.exhausted:
        raise MalformedBriefcaseError(
            f"{len(data) - reader.pos} trailing bytes after briefcase")
    return briefcase


def reference_decode(data: Buffer,
                     limits: Optional[WireLimits] = DEFAULT_WIRE_LIMITS
                     ) -> Briefcase:
    """``codec.decode(data, limits)`` with the reference parser behind
    the product's front-door limit checks."""
    def parse(data, caps, reserved):
        assert not reserved
        return _decode_reference(data, caps), {}

    with mock.patch.object(codec, "_decode_fast", parse):
        return codec.decode(data, limits)


def reference_arrival(data: Buffer,
                      limits: Optional[WireLimits] = DEFAULT_WIRE_LIMITS
                      ) -> Tuple[Briefcase, Dict[str, List[bytes]]]:
    """:func:`reference_decode`, then every reserved wire-only folder
    present dropped off the briefcase, its element list kept."""
    briefcase = reference_decode(data, limits)
    wire_only = {}
    for name in sorted(WIRE_ONLY_FOLDERS):
        if briefcase.has(name):
            wire_only[name] = briefcase.to_dict()[name]
            briefcase.drop(name)
    return briefcase, wire_only


def _outcome(decode, data: Buffer,
             limits: Optional[WireLimits]) -> tuple:
    try:
        return ("ok", decode(data, limits))
    except CodecError as exc:
        return ("err", type(exc), str(exc))


def differential_decode(data: Buffer,
                        limits: Optional[WireLimits] = DEFAULT_WIRE_LIMITS
                        ) -> tuple:
    """Decode with the product and with the reference, assert they
    agree, and return what they did: ``("ok", briefcase)`` or
    ``("err", error type, message)``."""
    product = _outcome(codec.decode, data, limits)
    oracle = _outcome(reference_decode, data, limits)
    assert product == oracle, (
        f"decoders disagree on {bytes(data)!r}: {product} != {oracle}")
    return product


def differential_arrival(data: Buffer,
                         limits: Optional[WireLimits] = DEFAULT_WIRE_LIMITS
                         ) -> tuple:
    """``codec.decode_arrival`` against :func:`reference_arrival`: the
    same briefcase and split-off element lists, or the same error type
    and message.  A briefcase decoded from ``bytes`` must also know its
    exact wire size (the seeded size less what was split off).  Returns
    ``("ok", briefcase, wire_only)`` or ``("err", type, message)``."""
    product = _outcome(codec.decode_arrival, data, limits)
    oracle = _outcome(reference_arrival, data, limits)
    assert product == oracle, (
        f"arrival decoders disagree on {bytes(data)!r}: "
        f"{product} != {oracle}")
    if product[0] == "err":
        return product
    briefcase, wire_only = product[1]
    fresh = Briefcase.from_dict(briefcase.to_dict())
    size = briefcase._wire_cached_size()
    if type(data) is bytes:
        assert size == codec.encoded_size(fresh)
    else:
        assert size is None
    return ("ok", briefcase, wire_only)


def reference_wire_values(briefcase: Briefcase) -> tuple:
    """What the receive path read off a fully decoded briefcase before
    the decoder stripped: ``(trace, seq_src, seq, landing_id)``, each
    wire-only folder popped and its first element taken as text (None
    when absent, empty or not UTF-8)."""
    def pop_text(name):
        if not briefcase.has(name):
            return None
        elements = briefcase.to_dict()[name]
        briefcase.drop(name)
        try:
            return elements[0].decode("utf-8") if elements else None
        except UnicodeDecodeError:
            return None

    header = pop_text(wellknown.TRACE_CONTEXT)
    trace = TraceContext.from_header(header) if header is not None \
        else None
    seq_src = seq = None
    text = pop_text(wellknown.DELIVERY_SEQ)
    parts = text.split(" ", 1) if text else []
    if len(parts) == 2 and parts[1]:
        try:
            seq_src, seq = parts[1], int(parts[0])
        except ValueError:
            pass
    landing_id = pop_text(wellknown.LANDING_ID) or None
    return trace, seq_src, seq, landing_id


def make_codec_workload(folders: int = 48, elements: int = 48,
                        element_size: int = 48) -> Briefcase:
    """A deterministic mid-sized briefcase (defaults: ~120 kB wire)."""
    briefcase = Briefcase()
    for f in range(folders):
        folder = briefcase.folder(f"FOLDER-{f:04d}")
        for e in range(elements):
            payload = bytes((f * 131 + e * 17 + i) % 256
                            for i in range(element_size))
            folder.push(payload)
    return briefcase
