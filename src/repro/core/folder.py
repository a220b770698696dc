"""Folders: named, ordered lists of elements inside a briefcase.

Per the paper (section 3.1), each briefcase is an associative array of
folders, and each folder contains *an ordered list of elements*.  The
original TACOMA C API indexes folders 1-based (``fRemove(folder, 1)``
removes the first element — see the Figure 4 agent); this implementation
offers a Pythonic 0-based sequence API plus the queue-style operations
agents actually use (``push``/``pop_first``).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Union

from repro.core.element import Element, element_bytes
from repro.core.errors import BriefcaseError

#: Wire bytes a folder costs besides its name and payload (u16 name
#: length + u32 element count) and per element (u32 length) — the
#: per-folder part of the layout in :mod:`repro.core.codec`.
_FOLDER_FRAMING_BYTES = 2 + 4
_ELEMENT_FRAMING_BYTES = 4

_new_element = Element.__new__


def _wrap(data: bytes) -> Element:
    """The :class:`Element` a reader is handed for a held payload."""
    element = _new_element(Element)
    element._data = data
    return element


def _payloads(values: Iterable[Any]) -> List[bytes]:
    """The payloads of ``values``, a folder's taken as they are held."""
    if isinstance(values, Folder):
        return values._elements.copy()
    return [value if type(value) is bytes else element_bytes(value)
            for value in values]


def _unshare(cell: list) -> None:
    """Let every live snapshot still sharing ``cell``'s folders take its
    own copies, before one of those folders changes."""
    sharers = cell[1]
    cell[1] = None
    for ref in sharers:
        borrower = ref()
        if borrower is not None and borrower._lender is cell:
            borrower._own()


class Folder:
    """An ordered list of element payloads with a name.

    A folder holds each element as its exact ``bytes`` — the paper's
    "uninterpreted sequence of bits" — and hands a reader an
    :class:`Element` only when asked for one (``first``, indexing,
    iteration, ``pop_first``, the return value of ``push``).  Writers,
    the text readers and the codec work on the bytes themselves, so
    appending, encoding or decoding builds no object per element.

    Every mutation bumps two counters.  ``_version`` is this folder's
    own (the aliasing sanitizer reads it to attribute writes).
    ``_cell`` is a two-slot list ``[count, sharers]`` of whatever owns
    the folder: a :class:`~repro.core.briefcase.Briefcase` points every
    folder it holds at its own cell, so its cached wire encoding is
    valid exactly while the count it was taken at still stands.  The
    folder knows the cell, never the briefcase — a back-reference would
    make every briefcase a reference cycle.  Neither counter means
    anything beyond "changed since it was last read".

    ``sharers`` is None, or weak references to the copy-on-write
    snapshots that still share the owner's folders: every mutation
    first lets them take their own copies (:func:`_unshare`), so a
    snapshot never sees a later write — not even one made through a
    handle taken before the snapshot was.
    """

    __slots__ = ("name", "_elements", "_version", "_cell")

    def __init__(self, name: str,
                 elements: Iterable[Any] = ()) -> None:
        if not isinstance(name, str) or not name:
            raise BriefcaseError("folder name must be a non-empty string")
        self.name = name
        self._elements: List[bytes] = _payloads(elements) if elements \
            else []
        self._version = 0
        self._cell: list = [0, None]

    # -- mutation ---------------------------------------------------------------

    def push(self, value: Any) -> Element:
        """Append a value (encoded as :meth:`Element.of` would) to the
        end, and return it as an element."""
        self._push(value)
        return _wrap(self._elements[-1])

    def _push(self, value: Any) -> None:
        """:meth:`push` for the library's own writers, which discard
        the element."""
        kind = type(value)
        if kind is bytes:
            data = value
        elif kind is str:
            data = value.encode("utf-8")
        else:
            data = element_bytes(value)
        cell = self._cell
        if cell[1]:
            _unshare(cell)
        self._elements.append(data)
        self._version += 1
        cell[0] += 1

    def push_all(self, values: Iterable[Any]) -> None:
        # Encoded before the first append: ``values`` may be this folder.
        payloads = _payloads(values)
        if payloads:
            cell = self._cell
            if cell[1]:
                _unshare(cell)
            self._elements.extend(payloads)
            self._version += 1
            cell[0] += 1

    def pop_first(self) -> Optional[Element]:
        """Remove and return the first element, or None when empty.

        This mirrors the hello-world agent's ``fRemove(..., 1)`` idiom:
        a None result is the itinerary-exhausted signal.
        """
        if not self._elements:
            return None
        cell = self._cell
        if cell[1]:
            _unshare(cell)
        self._version += 1
        cell[0] += 1
        return _wrap(self._elements.pop(0))

    def clear(self) -> None:
        cell = self._cell
        if cell[1]:
            _unshare(cell)
        self._elements.clear()
        self._version += 1
        cell[0] += 1

    def replace(self, values: Iterable[Any]) -> None:
        """Replace the entire contents with freshly-encoded values."""
        payloads = _payloads(values)
        cell = self._cell
        if cell[1]:
            _unshare(cell)
        self._elements = payloads
        self._version += 1
        cell[0] += 1

    # -- access -------------------------------------------------------------------

    def first(self) -> Optional[Element]:
        return _wrap(self._elements[0]) if self._elements else None

    def texts(self) -> List[str]:
        """All elements decoded as UTF-8 text."""
        try:
            return [data.decode("utf-8") for data in self._elements]
        except UnicodeDecodeError as exc:
            raise BriefcaseError("element is not valid UTF-8 text") from exc

    def byte_size(self) -> int:
        """Total payload bytes held by this folder."""
        return sum(map(len, self._elements))

    def _wire_size(self) -> int:
        """The bytes this folder occupies in the codec's wire image."""
        elements = self._elements
        size = _FOLDER_FRAMING_BYTES + len(self.name.encode("utf-8")) + \
            _ELEMENT_FRAMING_BYTES * len(elements)
        for data in elements:
            size += len(data)
        return size

    def copy(self) -> "Folder":
        """A snapshot copy (payloads are immutable, so sharing is safe)."""
        folder = Folder.__new__(Folder)
        folder.name = self.name
        folder._elements = self._elements.copy()
        folder._version = 0
        folder._cell = [0, None]
        return folder

    # -- sequence protocol -----------------------------------------------------------

    def __getitem__(self, index: Union[int, slice]) -> Any:
        if type(index) is slice:
            return [_wrap(data) for data in self._elements[index]]
        try:
            return _wrap(self._elements[index])
        except IndexError as exc:
            raise BriefcaseError(
                f"folder {self.name!r} has no element at index {index}"
            ) from exc

    def __iter__(self) -> Iterator[Element]:
        return map(_wrap, self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    def __bool__(self) -> bool:
        return bool(self._elements)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Folder):
            return NotImplemented
        return self.name == other.name and self._elements == other._elements

    def __repr__(self) -> str:
        return (f"<Folder {self.name!r}: {len(self._elements)} elements, "
                f"{self.byte_size()} bytes>")
