"""The reference briefcase: eager deep copies, the semantics
copy-on-write :meth:`repro.core.briefcase.Briefcase.snapshot` must keep.

A :class:`RefBriefcase` is an ordered map of :class:`RefFolder` objects,
each a name and a list of element payloads (``bytes``).  ``snapshot``
copies every folder at once, so no two reference briefcases ever share
a folder; a folder handle is the :class:`RefFolder` object itself, and
it outlives its place in a briefcase exactly as a product
:class:`~repro.core.folder.Folder` handle does (``drop`` detaches it).
``encode`` writes the wire format from the payloads without the product
codec.

Values enter through :func:`payload`, the product's own
``Element.of``: how a Python value becomes bytes is not what is under
test here.
"""

import struct
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.element import Element


def payload(value: Any) -> bytes:
    return Element.of(value).data


class RefFolder:
    def __init__(self, name: str, elements: Iterable[bytes] = ()) -> None:
        self.name = name
        self.elements: List[bytes] = list(elements)

    # The product Folder's mutators, on payloads.

    def push(self, value: Any) -> None:
        self.elements.append(payload(value))

    def push_all(self, values: Iterable[Any]) -> None:
        self.elements.extend([payload(value) for value in values])

    def pop_first(self) -> Optional[bytes]:
        return self.elements.pop(0) if self.elements else None

    def clear(self) -> None:
        self.elements.clear()

    def replace(self, values: Iterable[Any]) -> None:
        self.elements = [payload(value) for value in values]

    def __iter__(self):
        return iter(list(self.elements))

    def __len__(self) -> int:
        return len(self.elements)


class RefBriefcase:
    def __init__(self) -> None:
        self.folders: Dict[str, RefFolder] = {}

    @classmethod
    def of(cls, items: Iterable[Tuple[str, Iterable[bytes]]]
           ) -> "RefBriefcase":
        briefcase = cls()
        for name, elements in items:
            briefcase.folders[name] = RefFolder(name, elements)
        return briefcase

    def snapshot(self) -> "RefBriefcase":
        return RefBriefcase.of((name, folder.elements)
                               for name, folder in self.folders.items())

    def folder(self, name: str) -> RefFolder:
        if name not in self.folders:
            self.folders[name] = RefFolder(name)
        return self.folders[name]

    def drop(self, name: str) -> bool:
        return self.folders.pop(name, None) is not None

    def drop_all_except(self, keep: Iterable[str]) -> List[str]:
        dropped = [name for name in self.folders if name not in set(keep)]
        for name in dropped:
            del self.folders[name]
        return dropped

    def pop_text(self, name: str) -> Optional[str]:
        folder = self.folders.pop(name, None)
        if folder is None or not folder.elements:
            return None
        try:
            return folder.elements[0].decode("utf-8")
        except UnicodeDecodeError:
            return None

    def put(self, name: str, value: Any) -> None:
        self.folder(name).elements = [payload(value)]

    def append(self, name: str, value: Any) -> None:
        self.folder(name).elements.append(payload(value))

    def items(self) -> List[Tuple[str, List[bytes]]]:
        """Names and payloads, in folder order."""
        return [(name, list(folder.elements))
                for name, folder in self.folders.items()]

    def encode(self) -> bytes:
        parts = [b"TAXB", struct.pack(">BI", 1, len(self.folders))]
        for name, folder in self.folders.items():
            encoded = name.encode("utf-8")
            parts.append(struct.pack(">H", len(encoded)) + encoded)
            parts.append(struct.pack(">I", len(folder.elements)))
            for data in folder.elements:
                parts.append(struct.pack(">I", len(data)) + data)
        return b"".join(parts)
