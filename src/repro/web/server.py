"""Simulated web servers.

A :class:`WebServer` binds a generated :class:`~repro.web.site.Site` to a
:class:`~repro.sim.host.SimHost` and answers GET/HEAD requests with the
page bodies and status codes a real 1999 HTTP server would.  Service time
is charged per request through the host's CPU model.

A :class:`WebDeployment` is the "DNS + internet" of a simulation: the
registry mapping ``host[:port]`` to servers, shared by all HTTP clients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, NamedTuple, Optional

from repro.sim.host import SimHost
from repro.web import urls
from repro.web.site import Site

#: Approximate HTTP/1.0 header overheads, used for wire accounting.
REQUEST_OVERHEAD_BYTES = 80
RESPONSE_OVERHEAD_BYTES = 160


class HttpRequest(NamedTuple):
    """A parsed request as the server sees it."""

    method: str
    path: str

    @property
    def wire_bytes(self) -> int:
        return REQUEST_OVERHEAD_BYTES + len(self.method) + len(self.path)


class HttpResponse(NamedTuple):
    """A server response; ``body`` is empty for HEAD and error statuses.

    ``location`` carries the absolute redirect target for 3xx statuses
    (1999-era servers sent absolute Location URLs).  ``body_bytes`` is
    the UTF-8 size of ``body`` when whoever built the response already
    knew it (:meth:`WebServer.handle` always does); left ``None``, the
    body is measured each time its size is asked for.
    """

    status: int
    body: str = ""
    content_length: int = 0
    location: Optional[str] = None
    content_type: str = "text/html"
    age_days: Optional[float] = None
    body_bytes: Optional[int] = None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def wire_bytes(self) -> int:
        nbytes = self.body_bytes
        if nbytes is None:
            nbytes = len(self.body.encode("utf-8"))
        return RESPONSE_OVERHEAD_BYTES + nbytes


@dataclass(frozen=True)
class ServerModel:
    """Timing model for request handling (reference CPU seconds)."""

    per_request_cpu: float = 0.003
    per_kilobyte_cpu: float = 0.0002

    def service_seconds(self, response: HttpResponse) -> float:
        size_kb = (response.wire_bytes - RESPONSE_OVERHEAD_BYTES) / 1024.0
        return self.per_request_cpu + size_kb * self.per_kilobyte_cpu


class WebServer:
    """One site served from one simulated host."""

    def __init__(self, host: SimHost, site: Site,
                 model: Optional[ServerModel] = None):
        self.host = host
        self.site = site
        self.model = model or ServerModel()
        self.requests_served = 0
        self.bytes_served = 0

    @property
    def site_key(self) -> str:
        return self.site.host

    def handle(self, request: HttpRequest) -> "tuple[HttpResponse, float]":
        """Process a request; returns (response, service_seconds).

        The body is measured at most once (a page knows its size), and
        the response carries the result as ``body_bytes``.
        """
        self.requests_served += 1
        site = self.site
        get = request.method == "GET"
        body, nbytes = "", 0
        if not get and request.method != "HEAD":
            response = HttpResponse(501, body_bytes=0)
        else:
            path = urls.normalize_path(request.path)
            if path == "/robots.txt" and site.robots_txt is not None:
                if get:
                    body = site.robots_txt
                    nbytes = len(body.encode("utf-8"))
                response = HttpResponse(
                    200, body, content_length=len(site.robots_txt),
                    body_bytes=nbytes)
            elif path in site.redirects:
                target = site.redirects[path]
                location = target if "://" in target else \
                    f"http://{site.host}{target}"
                response = HttpResponse(301, location=location,
                                        body_bytes=0)
            else:
                page = site.pages.get(path)
                if page is None:
                    if get:
                        body = ("<html><body>404 Not Found: "
                                f"{path}</body></html>")
                        nbytes = len(body.encode("utf-8"))
                    response = HttpResponse(
                        404, body, content_length=len(body),
                        body_bytes=nbytes)
                else:
                    if get:
                        body, nbytes = page.html, page.size
                    response = HttpResponse(
                        200, body, page.size, None, page.content_type,
                        page.age_days, nbytes)
        self.bytes_served += nbytes
        model = self.model
        # ServerModel.service_seconds, on the size already in hand.
        seconds = self.host.charge_compute(
            model.per_request_cpu +
            nbytes / 1024.0 * model.per_kilobyte_cpu)
        return response, seconds


class WebDeployment:
    """All the web servers of a simulated internet, keyed by site."""

    def __init__(self, servers: Iterable[WebServer] = ()):
        self._servers: Dict[str, WebServer] = {}
        for server in servers:
            self.add(server)

    def add(self, server: WebServer) -> WebServer:
        key = server.site_key
        if key in self._servers:
            raise ValueError(f"duplicate web server for {key!r}")
        self._servers[key] = server
        return server

    def resolve(self, url: urls.Url) -> Optional[WebServer]:
        """The server answering for this URL, or None (host unknown)."""
        return self._servers.get(url.site)

    def servers(self) -> Iterable[WebServer]:
        return self._servers.values()

    def __contains__(self, site_key: str) -> bool:
        return site_key in self._servers

    def __len__(self) -> int:
        return len(self._servers)
