"""Elements: the most basic TAX data type.

Per the paper (section 3.1), *"an element is an uninterpreted sequence of
bits"*.  An :class:`Element` is therefore an immutable wrapper around
``bytes``, plus convenience constructors/accessors for the encodings agents
actually use (text, integers, JSON-like structures via the stdlib).

Interpretation is always the reader's choice — the system never inspects
element contents, which is what makes briefcases language-independent.
"""

from __future__ import annotations

import json
from typing import Any, Union

from repro.core.errors import BriefcaseError

#: What the constructor coerces to exact ``bytes``.
ElementData = Union[bytes, bytearray, memoryview, "Element"]


class Element:
    """An immutable, uninterpreted sequence of bytes."""

    __slots__ = ("_data",)

    def __init__(self, data: ElementData = b"") -> None:
        raw: Any = data
        if isinstance(raw, Element):
            raw = raw._data
        elif isinstance(raw, (bytearray, memoryview)):
            raw = bytes(raw)
        if not isinstance(raw, bytes):
            raise TypeError(
                f"Element wraps bytes; got {type(data).__name__} "
                "(use Element.of() to encode Python values)")
        self._data = raw

    # -- constructors ----------------------------------------------------------

    @classmethod
    def of(cls, value: Any) -> "Element":
        """Encode a Python value by its natural encoding.

        bytes stay raw; str becomes UTF-8; int/float/bool/None and
        JSON-representable containers are encoded as JSON text.
        """
        kind = type(value)
        if kind is bytes or kind is str:
            # Exact types need none of ``__init__``'s coercion checks.
            element = cls.__new__(cls)
            element._data = value if kind is bytes \
                else value.encode("utf-8")
            return element
        if isinstance(value, Element):
            return value
        if isinstance(value, (bytes, bytearray, memoryview)):
            return cls(bytes(value))
        if isinstance(value, str):
            return cls(value.encode("utf-8"))
        try:
            return cls(json.dumps(value, sort_keys=True).encode("utf-8"))
        except (TypeError, ValueError) as exc:
            raise BriefcaseError(
                f"cannot encode {type(value).__name__} as an element") from exc

    @classmethod
    def from_text(cls, text: str) -> "Element":
        return cls(text.encode("utf-8"))

    @classmethod
    def from_int(cls, value: int) -> "Element":
        return cls(str(int(value)).encode("ascii"))

    @classmethod
    def from_json(cls, value: Any) -> "Element":
        return cls(json.dumps(value, sort_keys=True).encode("utf-8"))

    # -- accessors --------------------------------------------------------------

    @property
    def data(self) -> bytes:
        """The raw bytes."""
        return self._data

    def as_text(self) -> str:
        try:
            return self._data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise BriefcaseError("element is not valid UTF-8 text") from exc

    def as_int(self) -> int:
        try:
            return int(self.as_text())
        except ValueError as exc:
            raise BriefcaseError("element is not an integer") from exc

    def as_json(self) -> Any:
        try:
            return json.loads(self.as_text())
        except (json.JSONDecodeError, BriefcaseError) as exc:
            raise BriefcaseError("element is not JSON") from exc

    # -- protocol ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._data)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Element):
            return self._data == other._data
        if isinstance(other, bytes):
            return self._data == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((Element, self._data))

    def __repr__(self) -> str:
        preview = self._data[:32]
        suffix = "..." if len(self._data) > 32 else ""
        return f"Element({preview!r}{suffix}, {len(self._data)} bytes)"
