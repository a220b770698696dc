"""Minimal URL handling for the simulated web.

The simulated web only speaks ``http`` URLs of the form
``http://host[:port]/path``; this module parses, joins, and normalises
them.  It is intentionally small: scheme-relative URLs, query strings,
and userinfo are out of scope for the paper's workload (a 1999 intranet
link checker), but fragments are handled because real pages contain
``#section`` anchors that a link checker must strip.
"""

from __future__ import annotations

from typing import NamedTuple


class UrlError(ValueError):
    """A string could not be interpreted as a supported URL."""


DEFAULT_HTTP_PORT = 80


class Url(NamedTuple):
    """An absolute http URL, normalised (immutable; built once per
    request, so a tuple rather than a frozen dataclass)."""

    host: str
    port: int
    path: str

    def __str__(self) -> str:
        port = "" if self.port == DEFAULT_HTTP_PORT else f":{self.port}"
        return f"http://{self.host}{port}{self.path}"

    @property
    def site(self) -> str:
        """The host[:port] part identifying the server."""
        port = "" if self.port == DEFAULT_HTTP_PORT else f":{self.port}"
        return f"{self.host}{port}"

    def with_path(self, path: str) -> "Url":
        return Url(self.host, self.port, normalize_path(path))


def normalize_path(path: str) -> str:
    """Resolve ``.``/``..`` segments and collapse ``//``; strip fragments."""
    if path.startswith("/") and "/." not in path and "//" not in path \
            and "#" not in path:
        # Already normal: no fragment and no empty, ``.`` or ``..``
        # segment for the loop below to drop (it keeps a trailing ``/``).
        return path
    path = path.split("#", 1)[0]
    if not path.startswith("/"):
        path = "/" + path
    segments = []
    for segment in path.split("/"):
        if segment in ("", "."):
            continue
        if segment == "..":
            if segments:
                segments.pop()
            continue
        segments.append(segment)
    normalized = "/" + "/".join(segments)
    if path.endswith("/") and normalized != "/":
        normalized += "/"
    return normalized


def parse(text: str) -> Url:
    """Parse an absolute http URL."""
    if not isinstance(text, str):
        raise UrlError(f"not a URL: {text!r}")
    stripped = text.strip()
    if not stripped.lower().startswith("http://"):
        raise UrlError(f"unsupported or relative URL: {text!r}")
    rest = stripped[len("http://"):]
    netloc, slash, path = rest.partition("/")
    if not netloc:
        raise UrlError(f"missing host in URL: {text!r}")
    host, colon, port_text = netloc.partition(":")
    if colon:
        try:
            port = int(port_text)
        except ValueError:
            raise UrlError(f"invalid port in URL: {text!r}") from None
        if not 0 < port < 65536:
            raise UrlError(f"port out of range in URL: {text!r}")
    else:
        port = DEFAULT_HTTP_PORT
    full_path = "/" + path if slash else "/"
    return Url(host.lower(), port, normalize_path(full_path))


def is_absolute(text: str) -> bool:
    """True if the string names a scheme (``http://...``)."""
    return "://" in text


def join(base: Url, reference: str) -> Url:
    """Resolve ``reference`` (absolute or relative) against ``base``.

    Mirrors the subset of RFC 3986 resolution a link checker needs:
    absolute URLs replace the base; root-relative paths replace the path;
    other relative paths resolve against the base path's directory.
    """
    reference = reference.strip()
    if not reference or reference.startswith("#"):
        return base
    if is_absolute(reference):
        return parse(reference)
    if reference.startswith("/"):
        return base.with_path(reference)
    directory = base.path.rsplit("/", 1)[0] + "/"
    return base.with_path(directory + reference)


def same_site(a: Url, b: Url) -> bool:
    return a.host == b.host and a.port == b.port


def has_prefix(url: Url, prefix: str) -> bool:
    """True when the URL string starts with ``prefix`` (Webbot's -prefix
    constraint compares plain string prefixes of the normalised URL)."""
    return str(url).startswith(prefix)
