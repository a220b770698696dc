"""Briefcases: the transportable state of a mobile agent.

Per the paper (section 3.1): *"the transportable state of a mobile agent
(code, arguments, results), is collected in a briefcase.  A briefcase is
then a consistent snapshot of the executing agent as it is transported
between hosts."*  A briefcase is an associative array of
:class:`~repro.core.folder.Folder` objects, and it is both the unit of
transport between hosts and the unit of exchange between communicating
agents.

Two properties the paper calls out are preserved here:

- Agents can **drop state** no longer needed (:meth:`Briefcase.drop`),
  minimising the bytes moved on the next hop.
- A briefcase is a **consistent snapshot**: :meth:`Briefcase.snapshot`
  yields an independent copy, and the codec serialises deterministically.

A briefcase also carries a **wire-encoding cache**: the codec stores
the encoded bytes / size after the first encode, so firewall admission,
the network transfer charge, and telemetry byte-accounting — which would
otherwise each re-encode the same briefcase on every hop — reuse one
encoding.  The cache is stamped with the briefcase's **mutation count**,
a one-slot list (``_cell``) that every folder the briefcase holds also
points at and bumps, so *any* mutation through the :class:`Folder` or
:class:`Briefcase` API invalidates it and validity is one integer
compare.  The folders share the cell, not a reference to the briefcase:
a back-reference would make every briefcase a cycle that only the
garbage collector can free.  :meth:`Briefcase.drop` is the one mutation
the cached *size* follows — the buffer goes, the size loses the dropped
folder's footprint — so stripping the wire-only folders off an arriving
briefcase, or shedding state before ``go``, does not cost a re-walk of
what is left.  ``tests/test_properties_perf.py`` and
``tests/test_wire_cache.py`` pin the invariant for every mutator.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.core.element import Element
from repro.core.errors import BriefcaseError, FolderNotFoundError
from repro.core.folder import Folder


class Briefcase:
    """An associative array of folders."""

    __slots__ = ("_folders", "_cell", "_wire_stamp", "_wire_bytes",
                 "_wire_size")

    def __init__(self, folders: Optional[Dict[str, Iterable[Any]]]
                 = None) -> None:
        self._folders: Dict[str, Folder] = {}
        #: The mutation count, shared with every folder in ``_folders``.
        self._cell = [0]
        #: Cache of the wire encoding, maintained by the codec.  The
        #: stamp is the mutation count the size was taken at (-1:
        #: never); the bytes may be absent (None) when only the size is
        #: known.
        self._wire_stamp = -1
        self._wire_bytes: Optional[bytes] = None
        self._wire_size = 0
        if folders:
            for name, values in folders.items():
                self.folder(name).push_all(values)

    # -- folder management --------------------------------------------------------

    def folder(self, name: str) -> Folder:
        """The folder called ``name``, created empty if absent."""
        try:
            return self._folders[name]
        except KeyError:
            folder = Folder(name)
            folder._cell = cell = self._cell
            cell[0] += 1
            self._folders[name] = folder
            return folder

    def get(self, name: str) -> Folder:
        """The folder called ``name``; raises if absent."""
        try:
            return self._folders[name]
        except KeyError:
            raise FolderNotFoundError(name) from None

    def has(self, name: str) -> bool:
        return name in self._folders

    def drop(self, name: str) -> bool:
        """Remove a folder entirely ("drop state").  Returns True if present.

        This is the paper's bandwidth-saving move: shed folders before
        calling ``go`` so they are not shipped on the next hop.
        """
        folder = self._folders.pop(name, None)
        if folder is None:
            return False
        self._release(folder)
        return True

    def drop_all_except(self, keep: Iterable[str]) -> List[str]:
        """Drop every folder not named in ``keep``; returns dropped names."""
        keep_set = set(keep)
        dropped = [name for name in self._folders if name not in keep_set]
        for name in dropped:
            self._release(self._folders.pop(name))
        return dropped

    def _release(self, folder: Folder) -> None:
        """Account for a folder just removed from ``_folders``.

        A current cached size gives up the folder's footprint and stays
        current; the cached buffer cannot follow and is forgotten.  The
        folder gets a cell of its own: a handle kept by the caller no
        longer speaks for this briefcase.
        """
        cell = self._cell
        count = cell[0] + 1
        if self._wire_stamp == cell[0]:
            self._wire_size -= folder._wire_size()
            self._wire_bytes = None
            self._wire_stamp = count
        cell[0] = count
        folder._cell = [0]

    def names(self) -> List[str]:
        return list(self._folders)

    # -- scalar convenience ---------------------------------------------------------

    def put(self, folder_name: str, value: Any) -> None:
        """Replace folder contents with a single value (set-a-variable idiom)."""
        self.folder(folder_name).replace([value])

    def get_first(self, folder_name: str) -> Optional[Element]:
        """The first element of a folder, or None if folder absent/empty."""
        folder = self._folders.get(folder_name)
        return folder.first() if folder else None

    def get_text(self, folder_name: str, default: Optional[str] = None
                 ) -> Optional[str]:
        element = self.get_first(folder_name)
        return element.as_text() if element is not None else default

    def get_json(self, folder_name: str, default: Any = None) -> Any:
        element = self.get_first(folder_name)
        return element.as_json() if element is not None else default

    def append(self, folder_name: str, value: Any) -> None:
        folder = self._folders.get(folder_name)
        if folder is None:
            folder = self.folder(folder_name)
        folder.push(value)

    # -- wire-encoding cache (maintained by repro.core.codec) ---------------------

    def _wire_cache_valid(self) -> bool:
        """Is a cached wire buffer held, and still this briefcase's?"""
        return self._wire_bytes is not None and \
            self._wire_stamp == self._cell[0]

    def _wire_cache_store(self, data: Optional[bytes],
                          size: int) -> None:
        """Record the current encoding (bytes may be None: size only)."""
        self._wire_stamp = self._cell[0]
        self._wire_bytes = data
        self._wire_size = size

    def _wire_cached_bytes(self) -> Optional[bytes]:
        if self._wire_stamp == self._cell[0]:
            return self._wire_bytes
        return None

    def _wire_cached_size(self) -> Optional[int]:
        if self._wire_stamp == self._cell[0]:
            return self._wire_size
        return None

    # -- whole-briefcase operations ----------------------------------------------------

    def snapshot(self) -> "Briefcase":
        """An independent copy (the transport unit is always a snapshot)."""
        copy = Briefcase()
        cell = copy._cell
        folders = copy._folders
        for name, folder in self._folders.items():
            folders[name] = duplicate = folder.copy()
            duplicate._cell = cell
        if self._wire_stamp == self._cell[0]:
            # The copy encodes byte-identically, so it inherits the
            # cached encoding (at its own, still untouched, count).
            copy._wire_stamp = cell[0]
            copy._wire_bytes = self._wire_bytes
            copy._wire_size = self._wire_size
        return copy

    def merge(self, other: "Briefcase", append: bool = True) -> None:
        """Fold another briefcase's folders into this one.

        With ``append=True`` (default) elements are appended to existing
        folders; with ``append=False`` same-named folders are replaced.
        """
        cell = self._cell
        # A list: ``other`` may be this briefcase.
        for name, folder in list(other._folders.items()):
            mine = self._folders.get(name)
            if append and mine is not None:
                mine.push_all(folder)
                continue
            if mine is not None:
                mine._cell = [0]
            self._folders[name] = duplicate = folder.copy()
            duplicate._cell = cell
            cell[0] += 1

    def payload_bytes(self) -> int:
        """Total element bytes across all folders (excludes framing)."""
        return sum(folder.byte_size() for folder in self._folders.values())

    def to_dict(self) -> Dict[str, List[bytes]]:
        """A plain-dict view, mostly for tests and debugging."""
        return {name: [e.data for e in folder]
                for name, folder in self._folders.items()}

    @classmethod
    def from_dict(cls, mapping: Dict[str, Iterable[Any]]) -> "Briefcase":
        return cls(dict(mapping))

    # -- protocol -------------------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._folders

    def __iter__(self) -> Iterator[Folder]:
        return iter(self._folders.values())

    def __len__(self) -> int:
        return len(self._folders)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Briefcase):
            return NotImplemented
        return self._folders == other._folders

    def __repr__(self) -> str:
        return (f"<Briefcase {len(self._folders)} folders, "
                f"{self.payload_bytes()} payload bytes: "
                f"{sorted(self._folders)}>")
