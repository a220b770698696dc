"""Folders: named, ordered lists of elements inside a briefcase.

Per the paper (section 3.1), each briefcase is an associative array of
folders, and each folder contains *an ordered list of elements*.  The
original TACOMA C API indexes folders 1-based (``fRemove(folder, 1)``
removes the first element — see the Figure 4 agent); this implementation
offers a Pythonic 0-based sequence API plus the queue-style operations
agents actually use (``push``/``pop_first``).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional

from repro.core.element import Element
from repro.core.errors import BriefcaseError

#: Wire bytes a folder costs besides its name and payload (u16 name
#: length + u32 element count) and per element (u32 length) — the
#: per-folder part of the layout in :mod:`repro.core.codec`.
_FOLDER_FRAMING_BYTES = 2 + 4
_ELEMENT_FRAMING_BYTES = 4


class Folder:
    """An ordered list of :class:`Element` values with a name.

    Every mutation bumps two counters.  ``_version`` is this folder's
    own (the aliasing sanitizer reads it to attribute writes).
    ``_cell`` is a one-slot list holding the mutation count of whatever
    owns the folder: a :class:`~repro.core.briefcase.Briefcase` points
    every folder it holds at its own cell, so its cached wire encoding
    is valid exactly while the count it was taken at still stands.  The
    folder knows the cell, never the briefcase — a back-reference would
    make every briefcase a reference cycle.  Neither counter means
    anything beyond "changed since it was last read".
    """

    __slots__ = ("name", "_elements", "_version", "_cell")

    def __init__(self, name: str,
                 elements: Iterable[Any] = ()) -> None:
        if not isinstance(name, str) or not name:
            raise BriefcaseError("folder name must be a non-empty string")
        self.name = name
        self._elements: List[Element] = [Element.of(e) for e in elements]
        self._version = 0
        self._cell = [0]

    # -- mutation ---------------------------------------------------------------

    def push(self, value: Any) -> Element:
        """Append a value (encoded with :meth:`Element.of`) to the end."""
        if type(value) is bytes:
            element = Element.__new__(Element)
            element._data = value
        else:
            element = Element.of(value)
        self._elements.append(element)
        self._version += 1
        self._cell[0] += 1
        return element

    def push_all(self, values: Iterable[Any]) -> None:
        # Encoded before the first append: ``values`` may be this folder.
        elements = [Element.of(value) for value in values]
        if elements:
            self._elements.extend(elements)
            self._version += 1
            self._cell[0] += 1

    def insert(self, index: int, value: Any) -> Element:
        element = Element.of(value)
        self._elements.insert(index, element)
        self._version += 1
        self._cell[0] += 1
        return element

    def pop_first(self) -> Optional[Element]:
        """Remove and return the first element, or None when empty.

        This mirrors the hello-world agent's ``fRemove(..., 1)`` idiom:
        a None result is the itinerary-exhausted signal.
        """
        if not self._elements:
            return None
        self._version += 1
        self._cell[0] += 1
        return self._elements.pop(0)

    def pop_last(self) -> Optional[Element]:
        if not self._elements:
            return None
        self._version += 1
        self._cell[0] += 1
        return self._elements.pop()

    def remove_at(self, index: int) -> Element:
        try:
            element = self._elements.pop(index)
        except IndexError as exc:
            raise BriefcaseError(
                f"folder {self.name!r} has no element at index {index}"
            ) from exc
        self._version += 1
        self._cell[0] += 1
        return element

    def clear(self) -> None:
        self._elements.clear()
        self._version += 1
        self._cell[0] += 1

    def replace(self, values: Iterable[Any]) -> None:
        """Replace the entire contents with freshly-encoded values."""
        self._elements = [Element.of(v) for v in values]
        self._version += 1
        self._cell[0] += 1

    # -- access -------------------------------------------------------------------

    def first(self) -> Optional[Element]:
        return self._elements[0] if self._elements else None

    def last(self) -> Optional[Element]:
        return self._elements[-1] if self._elements else None

    def texts(self) -> List[str]:
        """All elements decoded as UTF-8 text."""
        return [e.as_text() for e in self._elements]

    def byte_size(self) -> int:
        """Total payload bytes held by this folder."""
        return sum(len(e) for e in self._elements)

    def _wire_size(self) -> int:
        """The bytes this folder occupies in the codec's wire image."""
        elements = self._elements
        size = _FOLDER_FRAMING_BYTES + len(self.name.encode("utf-8")) + \
            _ELEMENT_FRAMING_BYTES * len(elements)
        for element in elements:
            size += len(element._data)
        return size

    def copy(self) -> "Folder":
        """A snapshot copy (elements are immutable, so sharing is safe)."""
        folder = Folder.__new__(Folder)
        folder.name = self.name
        folder._elements = self._elements.copy()
        folder._version = 0
        folder._cell = [0]
        return folder

    # -- sequence protocol -----------------------------------------------------------

    def __getitem__(self, index: int) -> Element:
        try:
            return self._elements[index]
        except IndexError as exc:
            raise BriefcaseError(
                f"folder {self.name!r} has no element at index {index}"
            ) from exc

    def __iter__(self) -> Iterator[Element]:
        return iter(self._elements)

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
