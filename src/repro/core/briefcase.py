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
  yields an independent *value*, copied on first write, and the codec
  serialises deterministically.

A briefcase also carries a **wire-encoding cache**: the codec stores
the encoded bytes / size after the first encode, so firewall admission,
the network transfer charge, and telemetry byte-accounting — which would
otherwise each re-encode the same briefcase on every hop — reuse one
encoding.  The cache is stamped with the briefcase's **mutation count**,
the first slot of a two-slot list (``_cell``) that every folder the
briefcase owns also points at and bumps, so *any* mutation through the
:class:`Folder` or :class:`Briefcase` API invalidates it and validity
is one integer compare.  The folders share the cell, not a reference to
the briefcase: a back-reference would make every briefcase a cycle that
only the garbage collector can free.  :meth:`Briefcase.drop` is the one
mutation the cached *size* follows — the buffer goes, the size loses
the dropped folder's footprint — so shedding state before ``go`` does
not cost a re-walk of what is left.  (The wire-only folders of an
arriving briefcase never become folders at all: the codec splits them
off while decoding.)
``tests/test_properties_perf.py`` and ``tests/test_wire_cache.py`` pin
the invariant for every mutator.

**Copy on write.**  A snapshot copies the folder *map*, not the
folders: it borrows them from the briefcase that owns them (the
*lender*), keeps the lender's cell in ``_lender``, and registers itself
in the cell's second slot by weak reference.  Whichever side writes
first pays for the copies:

- the borrower takes its own copy of every folder (:meth:`_own`) before
  any access that can write — anything that hands out a
  :class:`Folder` (``folder``, ``get``, iteration) or adds to the
  map (``put``, ``append``);
- the lender lets every live borrower do so
  (:func:`~repro.core.folder._unshare`) before any of its folders
  changes or leaves it (every :class:`Folder` mutator, ``drop``) — so
  a handle taken *before* the snapshot can never write into it.

Reads (``has``, ``names``, ``get_text`` and friends, ``==``, the codec)
stay on the shared folders, and a borrower that only drops folders never
copies one.  The registry holds weak references: a borrower already
points at its lender's cell, and a strong reference back would make
every snapshot a reference cycle.  ``tests/test_briefcase_cow.py`` runs
the scheme against a deep-copy reference (``tests/oracles/briefcase.py``).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional
from weakref import ref

from repro.core.element import Element, element_bytes
from repro.core.errors import BriefcaseError, FolderNotFoundError
from repro.core.folder import Folder, _unshare, _wrap

_new_folder = Folder.__new__


class Briefcase:
    """An associative array of folders."""

    __slots__ = ("_folders", "_cell", "_lender", "_wire_stamp",
                 "_wire_bytes", "_wire_size", "__weakref__")

    def __init__(self, folders: Optional[Dict[str, Iterable[Any]]]
                 = None) -> None:
        self._folders: Dict[str, Folder] = {}
        #: ``[mutation count, sharers]``, shared with every folder this
        #: briefcase owns (see :class:`~repro.core.folder.Folder`).
        self._cell: list = [0, None]
        #: The cell of the briefcase whose folders this copy-on-write
        #: snapshot still shares; None once it owns them.
        self._lender: Optional[list] = None
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
        if self._lender is not None:
            self._own()
        folder = self._folders.get(name)
        if folder is None:
            folder = Folder(name)
            folder._cell = cell = self._cell
            cell[0] += 1
            self._folders[name] = folder
        return folder

    def get(self, name: str) -> Folder:
        """The folder called ``name``; raises if absent."""
        if self._lender is not None:
            self._own()
        folder = self._folders.get(name)
        if folder is None:
            raise FolderNotFoundError(name)
        return folder

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
        current; the cached buffer cannot follow and is forgotten.  A
        folder this briefcase owns gets a cell of its own — a handle
        kept by the caller no longer speaks for this briefcase — once
        the snapshots still sharing it have taken their copies.  A
        borrowed folder stays its lender's.
        """
        cell = self._cell
        if folder._cell is cell:
            if cell[1]:
                _unshare(cell)
            folder._cell = [0, None]
        count = cell[0] + 1
        if self._wire_stamp == cell[0]:
            self._wire_size -= folder._wire_size()
            self._wire_bytes = None
            self._wire_stamp = count
        cell[0] = count

    def names(self) -> List[str]:
        return list(self._folders)

    # -- scalar convenience ---------------------------------------------------------

    def put(self, folder_name: str, value: Any) -> None:
        """Replace folder contents with a single value (set-a-variable idiom)."""
        if self._lender is not None:
            self._own()
        folder = self._folders.get(folder_name)
        if folder is None:
            self.append(folder_name, value)
        else:
            folder.replace((value,))

    def get_first(self, folder_name: str) -> Optional[Element]:
        """The first element of a folder, or None if folder absent/empty."""
        folder = self._folders.get(folder_name)
        if folder is None or not folder._elements:
            return None
        return _wrap(folder._elements[0])

    def get_text(self, folder_name: str, default: Optional[str] = None
                 ) -> Optional[str]:
        folder = self._folders.get(folder_name)
        if folder is None or not folder._elements:
            return default
        try:
            return folder._elements[0].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise BriefcaseError("element is not valid UTF-8 text") from exc

    def get_json(self, folder_name: str, default: Any = None) -> Any:
        element = self.get_first(folder_name)
        return element.as_json() if element is not None else default

    def append(self, folder_name: str, value: Any) -> None:
        if self._lender is not None:
            self._own()
        folder = self._folders.get(folder_name)
        if folder is not None:
            folder._push(value)
            return
        # A new folder, built in this frame once its value has encoded:
        # a refused value leaves no empty folder behind.  It counts as
        # an add and a push, like folder(name).push(value); the
        # snapshots sharing the other folders do not share this one.
        if not isinstance(folder_name, str) or not folder_name:
            raise BriefcaseError("folder name must be a non-empty string")
        kind = type(value)
        data = value if kind is bytes else \
            value.encode("utf-8") if kind is str else element_bytes(value)
        folder = _new_folder(Folder)
        folder.name = folder_name
        folder._elements = [data]
        folder._version = 1
        folder._cell = cell = self._cell
        cell[0] += 2
        self._folders[folder_name] = folder

    # -- wire-encoding cache (maintained by repro.core.codec) ---------------------

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

    # -- copy on write ----------------------------------------------------------------

    def snapshot(self) -> "Briefcase":
        """An independent value (the transport unit is always a
        snapshot), sharing this briefcase's folders until either side
        writes."""
        copy = Briefcase.__new__(Briefcase)
        folders = self._folders
        copy._folders = folders.copy()
        copy._cell = [0, None]
        copy._lender = None
        if folders:
            lender = self._lender
            if lender is None:
                lender = self._cell
            sharers = lender[1]
            if sharers is None:
                lender[1] = [ref(copy)]
            else:
                count = len(sharers)
                if count >= _PRUNE_AT and not count & (count - 1):
                    _prune(lender)
                sharers.append(ref(copy))
            copy._lender = lender
        if self._wire_stamp == self._cell[0]:
            # The copy encodes byte-identically, so it inherits the
            # cached encoding (at its own, still untouched, count).
            copy._wire_stamp = 0
            copy._wire_bytes = self._wire_bytes
            copy._wire_size = self._wire_size
        else:
            copy._wire_stamp = -1
            copy._wire_bytes = None
            copy._wire_size = 0
        return copy

    def _own(self) -> None:
        """Stop borrowing: take a copy of every folder, held by this
        briefcase.  The content does not change, so neither does the
        mutation count, and a cached encoding stays valid."""
        self._lender = None
        cell = self._cell
        folders = self._folders
        for name, folder in folders.items():
            folders[name] = duplicate = folder.copy()
            duplicate._cell = cell

    # -- whole-briefcase operations ----------------------------------------------------

    def payload_bytes(self) -> int:
        """Total element bytes across all folders (excludes framing)."""
        return sum(folder.byte_size() for folder in self._folders.values())

    def to_dict(self) -> Dict[str, List[bytes]]:
        """A plain-dict view, mostly for tests and debugging."""
        return {name: folder._elements.copy()
                for name, folder in self._folders.items()}

    @classmethod
    def from_dict(cls, mapping: Dict[str, Iterable[Any]]) -> "Briefcase":
        return cls(dict(mapping))

    # -- protocol -------------------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._folders

    def __iter__(self) -> Iterator[Folder]:
        if self._lender is not None:
            self._own()
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


#: A lender's sharer list is swept of dead and no-longer-borrowing
#: snapshots when its length reaches this, and again at every power of
#: two above it, so a long-lived lender's list stays short and a sweep
#: costs amortised O(1) per snapshot.
_PRUNE_AT = 16


def _prune(lender: list) -> None:
    lender[1] = [entry for entry in lender[1]
                 if getattr(entry(), "_lender", None) is lender]
