"""Deterministic wire format for briefcases.

Briefcases are the only thing that crosses host boundaries, so the codec
defines both interoperability and the byte counts the network cost model
charges.  The format is a simple length-prefixed binary layout:

.. code-block:: text

    "TAXB"                magic, 4 bytes
    u8                    format version (currently 1)
    u32                   folder count
    per folder:
        u16 + utf-8       folder name
        u32               element count
        per element:
            u32 + raw     element bytes

All integers are big-endian.  Folders are serialised in insertion order,
which makes encode→decode→encode byte-identical (tested by property
tests), while two briefcases that merely differ in folder insertion order
still compare equal at the :class:`~repro.core.briefcase.Briefcase` level.

Decoding is hardened against hostile or corrupt input: every read is
bounds-checked and every structural field is validated against a
:class:`~repro.core.limits.WireLimits`, so a truncated, oversized, or
garbled buffer raises the typed
:class:`~repro.core.errors.MalformedBriefcaseError` /
:class:`~repro.core.errors.BriefcaseTooLargeError` (both
:class:`~repro.core.errors.CodecError` subclasses) — never a bare
``IndexError``/``struct.error``, and never an unbounded allocation.

Hot paths (see ``docs/performance.md``)
---------------------------------------

There is **one decoder**: :func:`_decode_fast` parses integer fields in
place with ``struct.unpack_from`` — no per-field slice allocations, no
cursor object — and accepts ``bytes``/``bytearray``/``memoryview``
buffers, so a view over a larger receive buffer is parsed without an
upfront copy; only each element payload is materialised (once) as
``bytes``.  A one-element folder, the common case, is read without a
loop, and the briefcase is assembled from its parts without
``Briefcase.__init__``.  The readable cursor-based decoder it replaced
is a test oracle (``tests/oracles/codec.py``): Tier-1 fuzzes and
property-tests the two against each other on every input, error
messages included.

The encoder writes each folder name's header (u16 length + UTF-8) from
a process-wide table, :data:`_NAME_HEADERS`: a name is encoded and
length-checked once, not on every encode.  The table holds at most
:data:`_NAME_HEADERS_CAP` names and is emptied when full; a name too
long for its u16 raises :class:`~repro.core.errors.CodecError` every
time and is never stored.  ``tests/oracles/codec.py::reference_encode``
is the encoder without it.

Encoding is cached: :func:`encode` / :func:`encoded_size` store their
result on the briefcase, stamped with its mutation count (any mutation
moves the count — see :mod:`repro.core.briefcase`), so firewall
admission, the wire transfer charge, and telemetry byte-accounting
reuse one encoding instead of re-encoding up to three times per hop.  A
successful :func:`decode` of a ``bytes`` buffer pre-populates the cache
with the input buffer itself (the format is canonical: every accepted
wire image re-encodes to itself), and the cached size then follows
``Briefcase.drop``.

**Arrivals are stripped while they are parsed.**  The firewall's raw
wire entry decodes with :func:`decode_arrival`: the same parser, given
the reserved names of :data:`~repro.core.wellknown.WIRE_ONLY_FOLDERS`.
A reserved folder is read and validated like any other (it still counts
towards every cap and towards duplicate detection) but no ``Folder`` is
built for it: its element list goes to the caller, and its wire
footprint comes off the seeded cache size, which then holds the size
only — the buffer still carries the stripped folders.
"""

from __future__ import annotations

import struct
from typing import AbstractSet, Dict, List, Optional, Tuple, Union

from repro.core.briefcase import Briefcase
from repro.core.errors import (
    BriefcaseTooLargeError,
    CodecError,
    MalformedBriefcaseError,
)
from repro.core.folder import Folder
from repro.core.limits import (
    DEFAULT_WIRE_LIMITS,
    MAX_ELEMENT_BYTES,
    MAX_ELEMENTS,
    MAX_FOLDERS,
    WireLimits,
)
from repro.core.wellknown import WIRE_ONLY_FOLDERS

__all__ = ["encode", "decode", "decode_arrival", "encoded_size",
           "MAGIC", "VERSION", "ABSOLUTE_MAX_WIRE_BYTES",
           "MAX_FOLDERS", "MAX_ELEMENTS", "MAX_ELEMENT_BYTES"]

MAGIC = b"TAXB"
VERSION = 1

#: Hard absolute backstop on the wire buffer size, enforced even with
#: ``decode(data, limits=None)``: a buffer larger than this (4 GiB, the
#: u32 framing horizon) is rejected outright.  This is the only
#: configured-independent cap; everything else ``limits=None`` enforces
#: is derived from the buffer itself (a count that could not possibly
#: fit the remaining bytes is malformed, not over-limit).
ABSOLUTE_MAX_WIRE_BYTES = 1 << 32

_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")

_U16_AT = _U16.unpack_from
_U32_AT = _U32.unpack_from
_PACK_U16 = _U16.pack
_PACK_U32 = _U32.pack

#: Minimum wire bytes one folder costs: u16 name length + 1 name byte +
#: u32 element count.  Used to bound a declared folder count by what the
#: buffer could possibly hold.
_MIN_FOLDER_BYTES = _U16.size + 1 + _U32.size
#: Minimum wire bytes one element costs (its u32 length prefix).
_MIN_ELEMENT_BYTES = _U32.size

_HEADER_BYTES = len(MAGIC) + _U8.size + _U32.size
#: The fixed start of every wire image: magic and format version.
_PREAMBLE = MAGIC + _U8.pack(VERSION)

_new_folder = Folder.__new__
_new_briefcase = Briefcase.__new__

Buffer = Union[bytes, bytearray, memoryview]

#: The element lists of the folders a decode split off, by name.
WireOnly = Dict[str, List[bytes]]

_NOTHING_RESERVED: AbstractSet[str] = frozenset()


# -- encoding --------------------------------------------------------------------


#: Each folder name's wire header (u16 length + UTF-8 bytes), kept
#: across encodes: folder names repeat from briefcase to briefcase, so
#: an encode looks its names up instead of encoding each again.  The
#: table is emptied when it reaches :data:`_NAME_HEADERS_CAP` entries;
#: a name too long for its u16 raises on every encode and is never
#: stored.
_NAME_HEADERS: Dict[str, bytes] = {}
_NAME_HEADERS_CAP = 1024


def _name_header(name: str) -> bytes:
    """A folder name's wire header, remembered in :data:`_NAME_HEADERS`."""
    name_bytes = name.encode("utf-8")
    if len(name_bytes) > 0xFFFF:
        raise CodecError(f"folder name too long: {name[:40]!r}...")
    if len(_NAME_HEADERS) >= _NAME_HEADERS_CAP:
        _NAME_HEADERS.clear()
    header = _NAME_HEADERS[name] = _PACK_U16(len(name_bytes)) + name_bytes
    return header


def _encode_parts(briefcase: Briefcase) -> bytes:
    """Materialise the wire image (no cache interaction)."""
    folders = briefcase._folders
    parts = [_PREAMBLE, _PACK_U32(len(folders))]
    append = parts.append
    headers = _NAME_HEADERS
    for folder in folders.values():
        name = folder.name
        append(headers.get(name) or _name_header(name))
        elements = folder._elements
        append(_PACK_U32(len(elements)))
        for data in elements:
            append(_PACK_U32(len(data)))
            append(data)
    return b"".join(parts)


def encode(briefcase: Briefcase) -> bytes:
    """Serialise a briefcase to its wire representation.

    The result is cached on the briefcase and reused until the briefcase
    (or any of its folders) is mutated.
    """
    cached = briefcase._wire_cached_bytes()
    if cached is not None:
        return cached
    data = _encode_parts(briefcase)
    briefcase._wire_cache_store(data, len(data))
    return data


def encoded_size(briefcase: Briefcase) -> int:
    """The exact wire size in bytes, without materialising the encoding.

    Single pass: each folder name is UTF-8 encoded exactly once.  The
    size is cached alongside the encoding (and served from a previous
    :func:`encode` when one is still valid).
    """
    cached = briefcase._wire_cached_size()
    if cached is not None:
        return cached
    size = _HEADER_BYTES
    for folder in briefcase._folders.values():
        size += folder._wire_size()
    briefcase._wire_cache_store(None, size)
    return size


# -- decoding --------------------------------------------------------------------


def _decode_caps(data_len: int,
                 limits: Optional[WireLimits]
                 ) -> Tuple[int, int, int, int]:
    """Check the buffer size, then resolve the decode caps:
    (max_folders, max_per_folder, max_total, max_element).

    With ``limits=None`` every configured cap is off; what remains is
    well-formedness — a declared count whose minimum wire footprint
    exceeds the bytes actually present is malformed — plus the absolute
    :data:`ABSOLUTE_MAX_WIRE_BYTES` buffer backstop.
    """
    if limits is not None:
        if limits.max_encoded_bytes is not None and \
                data_len > limits.max_encoded_bytes:
            raise BriefcaseTooLargeError(
                f"wire buffer is {data_len} bytes "
                f"(limit {limits.max_encoded_bytes})")
        return (limits.max_folders, limits.max_elements_per_folder,
                limits.max_total_elements, limits.max_element_bytes)
    if data_len > ABSOLUTE_MAX_WIRE_BYTES:
        raise BriefcaseTooLargeError(
            f"wire buffer is {data_len} bytes (absolute backstop "
            f"{ABSOLUTE_MAX_WIRE_BYTES})")
    body = max(0, data_len - _HEADER_BYTES)
    return (body // _MIN_FOLDER_BYTES,
            body // _MIN_ELEMENT_BYTES,
            body // _MIN_ELEMENT_BYTES,
            data_len)


def decode(data: Buffer,
           limits: Optional[WireLimits] = DEFAULT_WIRE_LIMITS) -> Briefcase:
    """Parse a wire representation back into a briefcase.

    ``limits`` (default :data:`~repro.core.limits.DEFAULT_WIRE_LIMITS`)
    bounds what the parser will accept and allocate.  Pass ``None`` to
    disable every configured cap: the parser then enforces only basic
    well-formedness (declared counts and sizes must fit the buffer that
    is actually present) plus one hard absolute backstop,
    :data:`ABSOLUTE_MAX_WIRE_BYTES`, on the buffer size itself.

    ``data`` may be ``bytes``, ``bytearray``, or a ``memoryview`` (e.g.
    a window into a larger receive buffer); integer fields are read in
    place and only element payloads are copied out.
    """
    return _decode_fast(data, _decode_caps(len(data), limits),
                        _NOTHING_RESERVED)[0]


def decode_arrival(data: Buffer,
                   limits: Optional[WireLimits] = DEFAULT_WIRE_LIMITS
                   ) -> Tuple[Briefcase, WireOnly]:
    """:func:`decode` for a briefcase arriving on the raw wire: the
    folders of :data:`~repro.core.wellknown.WIRE_ONLY_FOLDERS` are split
    off while parsing.  Returns the briefcase without them and their
    element lists by name (only the ones present)."""
    return _decode_fast(data, _decode_caps(len(data), limits),
                        WIRE_ONLY_FOLDERS)


def _truncated(wanted: int, pos: int, total: int) -> MalformedBriefcaseError:
    return MalformedBriefcaseError(
        f"truncated briefcase: wanted {wanted} bytes at offset {pos}, "
        f"buffer has {total}")


def _decode_fast(data: Buffer, caps: Tuple[int, int, int, int],
                 reserved: AbstractSet[str]
                 ) -> Tuple[Briefcase, WireOnly]:
    """Allocation-lean decoder: integer fields are unpacked in place.

    Validation order and every raised error match the reference cursor
    decoder (``tests/oracles/codec.py``); the only differences are
    mechanical — ``unpack_from`` at an offset instead of
    slice-then-unpack, and folders assembled directly (the decoder
    produces exact ``bytes`` payloads and validated names by
    construction).  A folder named in ``reserved`` is parsed and
    validated the same way, but its element list goes into the second
    result instead of a ``Folder`` on the briefcase.
    """
    max_folders, max_per_folder, max_total, max_element = caps
    n = len(data)
    if n < _HEADER_BYTES:
        # Mirror the reference decoder's read order on short buffers:
        # magic, then version, then the folder count.
        if n < len(MAGIC):
            raise _truncated(len(MAGIC), 0, n)
        if data[:4] != MAGIC:
            raise MalformedBriefcaseError("bad magic: not a TAX briefcase")
        if n < 5:
            raise _truncated(_U8.size, 4, n)
        if data[4] != VERSION:
            raise MalformedBriefcaseError(
                f"unsupported briefcase format version {data[4]}")
        raise _truncated(_U32.size, 5, n)
    if data[:4] != MAGIC:
        raise MalformedBriefcaseError("bad magic: not a TAX briefcase")
    version = data[4]
    if version != VERSION:
        raise MalformedBriefcaseError(
            f"unsupported briefcase format version {version}")
    (folder_count,) = _U32_AT(data, 5)
    if folder_count > max_folders:
        raise MalformedBriefcaseError(
            f"implausible folder count {folder_count}")
    pos = _HEADER_BYTES
    # A slice of exact ``bytes`` is already an element's payload; any
    # other buffer is copied out once.
    exact_bytes = type(data) is bytes
    folders: Dict[str, Folder] = {}
    cell = [0, None]
    wire_only: WireOnly = {}
    stripped_bytes = 0
    total_elements = 0
    for _ in range(folder_count):
        start = pos
        end = pos + 2
        if end > n:
            raise _truncated(2, pos, n)
        (name_len,) = _U16_AT(data, pos)
        pos = end
        end = pos + name_len
        if end > n:
            raise _truncated(name_len, pos, n)
        try:
            name = str(data[pos:end], "utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedBriefcaseError(
                "folder name is not valid UTF-8") from exc
        pos = end
        if not name:
            raise MalformedBriefcaseError("empty folder name on the wire")
        if name in folders or name in wire_only:
            raise MalformedBriefcaseError(
                f"duplicate folder {name!r} on the wire")
        end = pos + 4
        if end > n:
            raise _truncated(4, pos, n)
        (element_count,) = _U32_AT(data, pos)
        pos = end
        if element_count > max_per_folder:
            raise MalformedBriefcaseError(
                f"implausible element count {element_count}")
        total_elements += element_count
        if total_elements > max_total:
            raise MalformedBriefcaseError(
                f"implausible total element count {total_elements}")
        if element_count == 1:
            # The common folder holds one value: the loop below, unrolled.
            end = pos + 4
            if end > n:
                raise _truncated(4, pos, n)
            (size,) = _U32_AT(data, pos)
            pos = end
            if size > max_element:
                raise MalformedBriefcaseError(
                    f"implausible element size {size}")
            end = pos + size
            if end > n:
                raise MalformedBriefcaseError(
                    f"truncated briefcase: declared element size {size} "
                    f"exceeds the {n - pos} bytes left")
            elements = [data[pos:end] if exact_bytes
                        else bytes(data[pos:end])]
            pos = end
        else:
            elements = []
            append = elements.append
            for _ in range(element_count):
                end = pos + 4
                if end > n:
                    raise _truncated(4, pos, n)
                (size,) = _U32_AT(data, pos)
                pos = end
                if size > max_element:
                    raise MalformedBriefcaseError(
                        f"implausible element size {size}")
                end = pos + size
                if end > n:
                    raise MalformedBriefcaseError(
                        f"truncated briefcase: declared element size "
                        f"{size} exceeds the {n - pos} bytes left")
                append(data[pos:end] if exact_bytes
                       else bytes(data[pos:end]))
                pos = end
        if name in reserved:
            wire_only[name] = elements
            stripped_bytes += pos - start
            continue
        folder = _new_folder(Folder)
        folder.name = name
        folder._elements = elements
        folder._version = 0
        folder._cell = cell
        folders[name] = folder
    if pos != n:
        raise MalformedBriefcaseError(
            f"{n - pos} trailing bytes after briefcase")
    # Every slot ``Briefcase.__init__`` sets, set once here.
    briefcase = _new_briefcase(Briefcase)
    briefcase._folders = folders
    briefcase._cell = cell
    briefcase._lender = None
    if exact_bytes:
        # The format is canonical: this exact buffer is what encode()
        # would produce, so it seeds the briefcase's encoding cache and
        # the next hop's admission/transfer/accounting reuse it.  The
        # buffer still holds any folder split off, so then only the
        # size is known.
        briefcase._wire_stamp = 0
        if wire_only:
            briefcase._wire_bytes = None
            briefcase._wire_size = n - stripped_bytes
        else:
            briefcase._wire_bytes = data
            briefcase._wire_size = n
    else:
        briefcase._wire_stamp = -1
        briefcase._wire_bytes = None
        briefcase._wire_size = 0
    return briefcase, wire_only
